"""Loading a model document: `deserialize`.

`deserialize` parses a document with `_record` as the object hook, which
turns each regular feature or flow object into its record as soon as it is
read, so no dict per record is kept, whatever the document's size or
layout; a class with any other record goes through `_Loader` one record at
a time. That pass stops at its first problem. The document is then parsed
again without the hook, and `_Loader` reports every problem, so the
diagnostics and their order come from one path.

Only the stages that read a document (`validate`, `analyze`, `render`)
compile this module.
"""

from __future__ import annotations

import json
import re
from operator import itemgetter
from typing import Iterator

from .diagnostics import Code, Diagnostic, ModelError, Subject, TokenEnum
from .model import (_FLAG_KEYS, _VISIBILITIES, DATA, FORMAT_VERSION, MEMBER, Feature,
                    FeatureKind, Flow, FlowKind, OcdfClass, OcdfModel, Visibility, _check_class,
                    _check_class_names, _error)

# A surrogate escape: only a document holding one is checked for an unpaired
# surrogate. A literal prefix keeps the scan far cheaper than json.loads.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def deserialize(data: bytes | str) -> OcdfModel:
    """Load a model document, checking every structural rule.

    Raises ModelError carrying E_PARSE (malformed or too deeply nested
    document, an over-long integer, an unpaired surrogate), E_BAD_ENUM
    (unknown kind/visibility token), E_DUP_ID, or E_DANGLING_REF.

    The bytes are let go once decoded; the module docstring names the
    passes a document takes.
    """
    if isinstance(data, str):  # one strict decode for both: a raw lone surrogate fails it
        data = data.encode("utf-8", "surrogatepass")
    try:
        data = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelError([_parse_problem(f"not valid UTF-8: {exc}")]) from exc
    try:  # the first problem ends this pass; the plain pass below reports them all
        return _Loader(_FirstProblem()).model(_json_document(data, _record))
    except (ModelError, RecursionError):
        pass
    loader = _Loader([])
    try:
        doc = _json_document(data, None)
        del data  # the decoded text: the records are built from `doc` alone
        model = loader.model(doc)
    except RecursionError as exc:
        raise ModelError([_parse_problem("document nests too deeply")]) from exc
    if loader.problems:
        raise ModelError(loader.problems)
    return model


class _FirstProblem(list):
    """A problem list that raises its first problem as a ModelError."""

    def append(self, problem: Diagnostic) -> None:
        raise ModelError([problem])


def _json_document(data: str, hook) -> object:
    """`json.loads` with `hook` as its object hook, where a value Python
    cannot hold or write is an E_PARSE like malformed JSON. Nesting too deep
    raises RecursionError."""
    try:
        doc = json.loads(data, object_hook=hook)
        if _SURROGATE_ESCAPE.search(data):  # a paired escape decodes to one encodable character
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        return doc
    except json.JSONDecodeError as exc:
        message = f"malformed JSON: {exc}"
    except UnicodeEncodeError:
        message = "malformed JSON: a string holds an unpaired surrogate"
    except ValueError:  # the rest: an integer past int()'s digit limit
        message = "malformed JSON: an integer has too many digits"
    raise ModelError([_parse_problem(message)])


_FEATURE_FIELDS = itemgetter(*Feature._fields)
_FLOW_FIELDS = itemgetter(*Flow._fields)
_new = tuple.__new__  # a record from a tuple of its fields, without the named tuple's checks

# Token -> member tables; a miss raises KeyError, or TypeError for an
# unhashable token such as a JSON list.
_FEATURE_KINDS = FeatureKind._value2member_map_
_FLOW_KINDS = FlowKind._value2member_map_


def _record(obj: dict) -> object:
    """The object hook: a feature or flow object that holds every field,
    each of its type, becomes its record; any other object is kept."""
    try:
        size = len(obj)
        if size == 4:
            kind, source, target, label = _FLOW_FIELDS(obj)
            if type(source) is type(target) is str and (label is None or type(label) is str):
                return _new(Flow, (_FLOW_KINDS[kind], source, target, label))
        elif size == 9:
            fid, kind, name, decl, visibility, static, const, constructor, inherited = \
                _FEATURE_FIELDS(obj)
            if (fid and type(fid) is type(name) is type(decl) is str and type(static)
                    is type(const) is type(constructor) is type(inherited) is bool):
                return _new(Feature, (
                    fid, _FEATURE_KINDS[kind], name, decl, _VISIBILITIES[visibility],
                    static, const, constructor, inherited))
    except (KeyError, TypeError):  # a missing field; an unknown or unhashable token
        pass
    return obj


def _parse_problem(message: str, class_name: str = "") -> Diagnostic:
    subjects = (Subject(class_name),) if class_name else ()
    return Diagnostic(Code.E_PARSE, message, subjects)


class _Loader:
    """Document-to-model lowering that appends each problem to `problems`;
    a plain list collects them all, so a load failure reports everything
    wrong at once."""

    def __init__(self, problems: list[Diagnostic]) -> None:
        self.problems = problems

    def model(self, doc: object) -> OcdfModel:
        if not isinstance(doc, dict):
            self.problems.append(_parse_problem("document root must be an object"))
            return OcdfModel()
        version = doc.get("format_version")
        if type(version) is not int or version != FORMAT_VERSION:
            self.problems.append(_parse_problem(
                f"unsupported format_version {version!r} (expected {FORMAT_VERSION})"))
        raw_classes = doc.get("classes")
        if not isinstance(raw_classes, list):
            self.problems.append(_parse_problem("'classes' must be a list"))
            return OcdfModel()
        classes = tuple(self.clazz(c, i) for i, c in enumerate(raw_classes))
        _check_class_names(classes, self.problems)
        return OcdfModel(classes=classes)

    def clazz(self, raw: object, index: int) -> OcdfClass:
        if not isinstance(raw, dict):
            self.problems.append(_parse_problem(f"classes[{index}] must be an object"))
            return OcdfClass(name=f"<classes[{index}]>")
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            self.problems.append(_parse_problem(f"classes[{index}] is missing a name"))
            name = f"<classes[{index}]>"

        features, flows = raw.get("features", []), raw.get("flows", [])
        if (type(features) is list and type(flows) is list
                and {*map(type, features)} <= {Feature} and {*map(type, flows)} <= {Flow}):
            features = tuple(features)  # every record built by `_record`
        else:  # per record, this path finding and reporting each problem
            features = tuple(self.feature(f, name, i)
                             for i, f in enumerate(self._list(raw, "features", name)))
            flows = self.flows(raw, name)
        _, flows = _check_class(name, features, flows, self.problems)
        return OcdfClass(name=name, features=features, flows=flows)

    def flows(self, raw: dict, class_name: str) -> Iterator[Flow]:
        """Yield the well-formed flows one at a time, so that each flow's parse
        problems are reported just before its dangling endpoints. A flow
        already reported as malformed is left out."""
        for i, f in enumerate(self._list(raw, "flows", class_name)):
            flow = self.flow(f, class_name, i)
            if flow is not None:
                yield flow

    def _list(self, raw: dict, key: str, class_name: str) -> list:
        value = raw.get(key, [])
        if not isinstance(value, list):
            self.problems.append(_parse_problem(f"'{key}' must be a list", class_name))
            return []
        return value

    def feature(self, raw: object, class_name: str, index: int) -> Feature:
        if type(raw) is Feature:  # built by `_record`
            return raw
        at = f"features[{index}]"
        if not isinstance(raw, dict):
            self.problems.append(_parse_problem(f"{at} must be an object", class_name))
            return Feature(id=f"<{at}>", kind=MEMBER, name="")
        fid = self._str(raw, "id", class_name, at, None)
        if fid == "":
            self.problems.append(_parse_problem(f"{at} has an empty id", class_name))
        name = self._str(raw, "name", class_name, at, "")
        decl = self._str(raw, "decl", class_name, at, "")
        where = fid or at  # how the diagnostics below name the feature
        kind = self._token(raw, "kind", _FEATURE_KINDS, class_name, where, MEMBER)
        visibility = self._token(raw, "visibility", _VISIBILITIES, class_name, where,
                                 Visibility.PRIVATE)
        return Feature(fid or f"<{at}>", kind, name, decl, visibility,
                       *[self._flag(raw, key, class_name, where) for key in _FLAG_KEYS])

    def flow(self, raw: object, class_name: str, index: int) -> Flow | None:
        if type(raw) is Flow:  # built by `_record`
            return raw
        at = f"flows[{index}]"
        if not isinstance(raw, dict):
            self.problems.append(_parse_problem(f"{at} must be an object", class_name))
            return None
        kind = self._token(raw, "kind", _FLOW_KINDS, class_name, at, DATA)
        source = self._str(raw, "source", class_name, at, None)
        target = self._str(raw, "target", class_name, at, None)
        label = raw.get("label")
        if label is not None and not isinstance(label, str):
            self.problems.append(_parse_problem(f"{at} label must be a string or null", class_name))
            label = None
        if source is None or target is None:
            return None
        return Flow(kind, source, target, label)

    # One reader per field kind: each returns the field's value, or records a
    # diagnostic and returns the fallback given.

    def _str(self, raw: dict, key: str, class_name: str, where: str,
             missing: str | None) -> str | None:
        value = raw.get(key)
        if isinstance(value, str):
            return value
        self.problems.append(_parse_problem(f"{where} is missing string field '{key}'",
                                            class_name))
        return missing

    def _token(self, raw: dict, key: str, table: dict, class_name: str, where: str,
               default: TokenEnum) -> TokenEnum:
        try:
            return table[raw.get(key)]
        except (KeyError, TypeError):
            self.problems.append(_error(Code.E_BAD_ENUM, class_name, (where,),
                                        f"{where}: unknown {key} token {raw.get(key)!r}"))
            return default

    def _flag(self, raw: dict, key: str, class_name: str, where: str) -> bool:
        value = raw.get(key, False)
        if type(value) is bool:
            return value
        self.problems.append(_parse_problem(f"{where}: '{key}' must be a boolean", class_name))
        return False
