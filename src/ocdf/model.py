"""Core data model: classes, features, flows, and the canonical JSON form.

A model is a directed graph per class: features (members, methods, interface
methods) are the nodes, control/data flows are the edges. Instances are
immutable after construction and safe to share across threads.

Structural rules (unique ids, resolvable flow endpoints, known enum tokens)
are enforced here on build and load; the validator reuses the same checks.
Constraint rules (endpoint kinds, visibility, const writes) are
representable on purpose and judged by the validator, so that non-conforming
documents can still be loaded and checked.

`deserialize` parses a document with `_record` as the object hook, which
turns each regular feature or flow object into its record as soon as it is
read, so no dict per record is kept, whatever the document's size or
layout; a class with any other record goes through `_Loader` one record at
a time. That pass stops at its first problem. The document is then parsed
again without the hook, and `_Loader` reports every problem, so the
diagnostics and their order come from one path.
"""

from __future__ import annotations

import io
import json
import re
from collections import namedtuple
from itertools import chain, islice, product
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator

from .diagnostics import Code, Diagnostic, ModelError, Subject, TokenEnum, _Node

FORMAT_VERSION = 1

# A surrogate escape: only a document holding one is checked for an unpaired
# surrogate. A literal prefix keeps the scan far cheaper than json.loads.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


class FeatureKind(TokenEnum):
    MEMBER = "member"
    METHOD = "method"
    INTERFACE_METHOD = "interface_method"


class FlowKind(TokenEnum):
    CONTROL = "control"
    DATA = "data"


class Visibility(TokenEnum):
    PUBLIC = "public"
    PROTECTED = "protected"
    PRIVATE = "private"


# The members as module globals, for the loops that test one per feature or
# per flow: on CPython 3.11, reading `FlowKind.DATA` off its class costs
# about ten times as much as reading a global.
MEMBER, METHOD = FeatureKind.MEMBER, FeatureKind.METHOD
INTERFACE_METHOD = FeatureKind.INTERFACE_METHOD
CONTROL, DATA = FlowKind.CONTROL, FlowKind.DATA
PUBLIC = Visibility.PUBLIC

METHOD_KINDS = frozenset({METHOD, INTERFACE_METHOD})


class Feature(_Node, namedtuple(
        "Feature", "id kind name decl visibility is_static is_const is_constructor inherited",
        defaults=("", Visibility.PRIVATE, False, False, False, False))):
    """A node of the class graph.

    ``decl`` holds the type annotation for members and the signature text for
    methods. ``is_const`` is meaningful only for members, ``is_constructor``
    only for method kinds; the other flag is carried but ignored.
    """

    __slots__ = ()


class Flow(_Node, namedtuple("Flow", "kind source target label", defaults=(None,))):
    """A directed edge: control is caller->callee, data is provider->consumer."""

    __slots__ = ()

    def key(self) -> tuple[FlowKind, str, str]:
        """Identity triple; flows within a class have set semantics over it."""
        return _KEY(self)


class OcdfClass(_Node, namedtuple("OcdfClass", "name features flows", defaults=((), ()))):
    __slots__ = ()

    def feature_map(self) -> dict[str, Feature]:
        return {f.id: f for f in self.features}


class OcdfModel(_Node, namedtuple("OcdfModel", "classes", defaults=((),))):
    __slots__ = ()


def build_class(name: str, features: Iterable[Feature], flows: Iterable[Flow]) -> OcdfClass:
    """Assemble a class, checking structural rules and deduplicating flows.

    Raises ModelError with E_DUP_ID for repeated feature ids and
    E_DANGLING_REF for flows naming unknown features. All findings are
    collected before raising.
    """
    features = tuple(features)
    problems: list[Diagnostic] = []
    _, kept = _check_class(name, features, flows, problems)
    if problems:
        raise ModelError(problems)
    return OcdfClass(name=name, features=features, flows=kept)


def build_model(classes: Iterable[OcdfClass]) -> OcdfModel:
    """Wrap classes into a model, rejecting duplicate class names."""
    classes = tuple(classes)
    problems: list[Diagnostic] = []
    _check_class_names(classes, problems)
    if problems:
        raise ModelError(problems)
    return OcdfModel(classes=classes)


def _check_class(name: str, features: tuple[Feature, ...], flows: Iterable[Flow],
                 problems: list[Diagnostic]) -> tuple[dict[str, Feature], tuple[Flow, ...]]:
    """The structural rules of one class, owned here for build, load and the
    validator alike: feature ids are unique (E_DUP_ID) and every flow
    endpoint names a feature (E_DANGLING_REF). Violations are appended to
    ``problems`` in input order. Returns the id->feature map (the last
    feature wins a repeated id) and the flows with set semantics over
    Flow.key(), first occurrence kept.

    A class whose flows come as a tuple or list is first tested whole, one
    set operation per rule; only a class that fails that test is walked one
    feature and one flow at a time to find and report its violations. When
    no flow has a label, each flow is its own key, so no key is built."""
    if type(flows) is tuple or type(flows) is list:
        feature_map = dict(zip(map(_ID, features), features))
        if (len(feature_map) == len(features)
                and feature_map.keys() >= {*map(_SOURCE, flows), *map(_TARGET, flows)}):
            if {*map(_LABEL, flows)} <= {None}:
                return feature_map, tuple(dict.fromkeys(flows))
            if len(set(map(_KEY, flows))) == len(flows):
                return feature_map, tuple(flows)
    feature_map = {}
    for feat in features:
        if feat.id in feature_map:
            problems.append(_error(Code.E_DUP_ID, name, (feat.id,),
                                   f"duplicate feature id '{feat.id}'"))
        feature_map[feat.id] = feat
    kept: dict[tuple[FlowKind, str, str], Flow] = {}
    for flow in flows:
        if flow.source not in feature_map:
            problems.append(_dangling(name, flow.source))
        if flow.target not in feature_map:
            problems.append(_dangling(name, flow.target))
        kept.setdefault(flow.key(), flow)
    return feature_map, tuple(kept.values())


_ID = attrgetter("id")
_SOURCE = attrgetter("source")
_TARGET = attrgetter("target")
_LABEL = attrgetter("label")
_KEY = attrgetter("kind", "source", "target")  # Flow.key()


def _dangling(class_name: str, endpoint: str) -> Diagnostic:
    return _error(Code.E_DANGLING_REF, class_name, (endpoint,),
                  f"flow endpoint '{endpoint}' does not name a feature")


def _check_class_names(classes: Iterable[OcdfClass], problems: list[Diagnostic]) -> None:
    """Class names are unique within a model (E_DUP_ID)."""
    seen: set[str] = set()
    for cls in classes:
        if cls.name in seen:
            problems.append(_error(Code.E_DUP_ID, cls.name, (),
                                   f"duplicate class name '{cls.name}'"))
        seen.add(cls.name)


def _roles(feature_map: dict[str, Feature]) -> tuple[set[str], set[str], set[str]]:
    """The ids of the methods, the writers (methods that are not constructors)
    and the constant members in an id->feature map, the last feature winning
    a repeated id: the validator and detect_races test flow endpoints against them."""
    methods: set[str] = set()
    writers: set[str] = set()
    const_members: set[str] = set()
    for fid, feat in feature_map.items():
        if feat.kind in METHOD_KINDS:
            methods.add(fid)
            if not feat.is_constructor:
                writers.add(fid)
        elif feat.kind is MEMBER and feat.is_const:
            const_members.add(fid)
    return methods, writers, const_members


def _error(code: Code, class_name: str, ids: tuple[str, ...], message: str) -> Diagnostic:
    return Diagnostic(code, message, (Subject(class_name, ids),))


# One template per record, so `serialize` builds no dict per record. Field
# order below is the canonical field order; do not reorder. Each string goes
# through the escaper json.dumps(ensure_ascii=False) uses, so the bytes are
# those of json.dumps(doc, ensure_ascii=False, separators=(",", ":")).

_FEATURE_JSON = '{"id":%s,"kind":"%s","name":%s,"decl":%s,"visibility":"%s",%s}'
_FLOW_JSON = '{"kind":"%s","source":%s,"target":%s,"label":%s}'
_FLAG_KEYS = ("is_static", "is_const", "is_constructor", "inherited")
_FLAGS = attrgetter(*_FLAG_KEYS)
_FLAGS_JSON = {flags: ",".join(f'"{key}":{str(flag).lower()}'
                               for key, flag in zip(_FLAG_KEYS, flags))
               for flags in product((False, True), repeat=len(_FLAG_KEYS))}


class _Encoded(dict):
    """String -> its JSON form, each string escaped once; None -> null."""

    def __missing__(self, text: str) -> str:
        self[text] = encoded = encode_basestring(text)  # TypeError for a non-str
        return encoded


def _escape(text: str | None) -> str:
    """A name's or decl's JSON form, not kept: few of them repeat, and the
    memo would hold a second copy of most of a document's text."""
    return "null" if text is None else encode_basestring(text)  # TypeError for a non-str


def serialize(model: OcdfModel) -> bytes:
    """Canonical UTF-8 JSON bytes. Identical models produce identical bytes;
    feature/flow order is preserved as given. A record field of a type the
    document cannot hold in its place (a flag that is not a bool, a string
    field that is neither a str nor None) raises TypeError.

    The records are formatted and encoded `_BATCH` at a time, so the only
    whole copy of the document is the bytes returned."""
    text = _Encoded({None: "null"})
    out = io.BytesIO()
    write = out.write
    write(b'{"format_version":%d,"classes":[' % FORMAT_VERSION)
    for index, cls in enumerate(model.classes):
        features = cls.features
        if not {*map(type, chain.from_iterable(map(_FLAGS, features)))} <= {bool}:
            raise TypeError(f"class {cls.name!r}: a feature flag is not a bool")
        write(f'{"," if index else ""}{{"name":{text[cls.name]},"features":['.encode())
        # an enum's _value_ is an instance attribute; .value is a slower property
        _write_batches(write, (
            _FEATURE_JSON % (text[f.id], f.kind._value_, _escape(f.name), _escape(f.decl),
                             f.visibility._value_, _FLAGS_JSON[_FLAGS(f)])
            for f in features))
        write(b'],"flows":[')
        _write_batches(write, (
            _FLOW_JSON % (f.kind._value_, text[f.source], text[f.target], text[f.label])
            for f in cls.flows))
        write(b"]}")
    write(b"]}")
    return out.getvalue()


_BATCH = 256  # records formatted and encoded at a time


def _write_batches(write, docs: Iterator[str]) -> None:
    """Write the records' JSON texts, comma-separated, as UTF-8 bytes."""
    separator = ""
    while batch := [*islice(docs, _BATCH)]:
        write((separator + ",".join(batch)).encode("utf-8"))
        separator = ","


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


# Token -> member tables for the loader; a miss raises KeyError, or TypeError
# for an unhashable token such as a JSON list.
_FEATURE_KINDS = FeatureKind._value2member_map_
_VISIBILITIES = Visibility._value2member_map_
_FLOW_KINDS = FlowKind._value2member_map_
