"""The record loader against the per-record reference loader in
`oracles.py`, on Hypothesis-built documents: names, decls and labels that
spell the text between records or around an array, extra keys that hold
arrays of objects, layouts other than `serialize`'s, several classes, and
a fault in the last record of a class. Both loaders must give an equal
model or an equal list of diagnostics."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from ocdf import ModelError, OcdfModel, deserialize, loader, serialize
from ocdf.loader import _Loader, _record

from generators import random_valid_class, random_valid_model
from oracles import reference_deserialize

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)

# text that spells the text between two records or around an array, or an escape
TRICKY = ['},{"kind":"', '},{"id":"', '"features":[', '],"flows":[', ']}', '{"name":"',
          '"', '\\', '\\"', '[{', '}]']
texts = st.lists(st.one_of(st.sampled_from(TRICKY), st.text(max_size=3)), max_size=3).map("".join)
ids = st.one_of(st.sampled_from(["a", "b", "c", "d"]), texts.filter(bool))


@st.composite
def records(draw):
    """A class's features and flows as the documents hold them, regular but
    for a record that may carry an extra key holding objects."""
    kinds = st.sampled_from(["member", "method", "interface_method"])
    features = [{"id": fid, "kind": draw(kinds),
                 "name": draw(texts), "decl": draw(texts),
                 "visibility": draw(st.sampled_from(["public", "protected", "private"])),
                 "is_static": draw(st.booleans()), "is_const": draw(st.booleans()),
                 "is_constructor": draw(st.booleans()), "inherited": draw(st.booleans())}
                for fid in draw(st.lists(ids, max_size=8, unique=True))]
    endpoint = st.sampled_from([f["id"] for f in features] or ["a"])
    flows = [{"kind": draw(st.sampled_from(["control", "data"])), "source": draw(endpoint),
              "target": draw(endpoint), "label": draw(st.none() | texts)}
             for _ in range(draw(st.integers(0, 12)) if features else 0)]
    if features and draw(st.integers(0, 3)) == 0:
        draw(st.sampled_from(features + flows))["extra"] = draw(st.sampled_from([
            [{"id": "a"}, {"kind": "data"}], [{"kind": "x", "id": "y"}, []], {"features": [{}]}]))
    return features, flows


@st.composite
def documents(draw):
    parts = draw(st.lists(records(), min_size=1, max_size=3))
    names = draw(st.lists(st.sampled_from(["A", "B"]) | texts.filter(bool),
                          min_size=len(parts), max_size=len(parts), unique=True))
    return {"format_version": 1, "classes": [
        {"name": name, "features": features, "flows": flows}
        for name, (features, flows) in zip(names, parts)]}


def _layout(doc: dict, layout: str) -> str:
    if layout == "pretty":
        return json.dumps(doc, ensure_ascii=False, indent=1)
    if layout == "reordered":
        doc = reversed_keys(doc)
    return _compact(doc)


def _compact(doc: dict) -> str:
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":"))


def reversed_keys(value):
    """`value` with each object's keys in reverse order."""
    if isinstance(value, dict):
        return {key: reversed_keys(value[key]) for key in reversed(value)}
    if isinstance(value, list):
        return [reversed_keys(item) for item in value]
    return value


class Raw(str):
    """Document text to splice in as it is, in place of a value."""


# A fault planted in the last feature or flow of a class: the field and its
# new value (None: the field goes). In a record of the other kind the field
# may be an extra key, which loads.
FAULTS = {
    "bad token": ("kind", "bogus"),
    "missing field": ("kind", None),
    "flag not a bool": ("is_static", 1),
    "label not a string": ("label", ["x"]),
    "empty id": ("id", ""),
    "repeated id": ("id", "a"),
    "dangling endpoint": ("target", "ghost"),
    "over-long integer": ("name", Raw("9" * 5000)),
    "lone surrogate": ("name", Raw('"\\ud800"')),
    "deep nesting": ("name", Raw("[" * 5000 + "]" * 5000)),
}
MARK = "<fault \u2063 here>"  # a value no strategy draws


def _plant(doc: dict, fault: str, which: int) -> str:
    """The compact text of `doc` with `fault` in the last feature (which = 0)
    or flow (1) of its last class that has one; no such record, no fault."""
    field, value = FAULTS[fault]
    key = ("features", "flows")[which]
    for cls in reversed(doc["classes"]):
        if cls[key]:
            record = cls[key][-1]
            if value is None:
                record.pop(field, None)
            else:
                record[field] = MARK if isinstance(value, Raw) else value
            break
    text = _compact(doc)
    if isinstance(value, Raw):
        text = text.replace(json.dumps(MARK, ensure_ascii=False), value)
    return text


def _three_classes() -> str:
    cls = random_valid_class(random.Random(2), "C", 40)
    return serialize(OcdfModel((cls, cls._replace(name="D"), cls._replace(name="E")))).decode()


# Changes at the class level of a document in `serialize`'s layout:
# (text to replace, its replacement), the first occurrence only.
CLASS_FAULTS = {
    "repeated class name": ('"name":"E"', '"name":"C"'),
    "empty class name": ('"name":"D"', '"name":""'),
    "class name not a string": ('"name":"D"', '"name":7'),
    "another format version": ('"format_version":1', '"format_version":2'),
    "an extra class key": ('"name":"D"', '"name":"D","extra":[{"id":"x"}]'),
    "features not a list": ('"features":[', '"features":{"x":[') ,
    "trailing whitespace": ("]}]}", "]}]} \n"),
    "trailing text": ("]}]}", "]}]}]"),
}


@pytest.mark.parametrize("fault", sorted(CLASS_FAULTS))
def test_a_class_level_change_loads_as_the_reference_loads_it(fault):
    text = _three_classes()
    old, new = CLASS_FAULTS[fault]
    if old == "]}]}":
        text = text[:-4] + new
    else:
        assert old in text
        text = text.replace(old, new, 1)
    _assert_same_load(text)


def _outcome(load, data):
    try:
        return load(data)
    except ModelError as err:
        return err.diagnostics


def _assert_same_load(text: str) -> None:
    for data in (text, text.encode("utf-8", "surrogatepass")):
        assert _outcome(deserialize, data) == _outcome(reference_deserialize, data)


@PROPERTY
@given(documents(), st.sampled_from(["compact", "pretty", "reordered"]))
def test_sliced_documents_load_as_the_reference_loads_them(doc, layout):
    _assert_same_load(_layout(doc, layout))


@PROPERTY
@given(documents(), st.sampled_from(sorted(FAULTS)), st.integers(0, 1))
def test_a_fault_in_a_later_slice_loads_as_the_reference_loads_it(doc, fault, which):
    _assert_same_load(_plant(doc, fault, which))


@pytest.mark.parametrize("seed", range(20))
def test_serialized_models_take_the_sliced_path(seed, monkeypatch):
    """A document `serialize` wrote, which a record array longer than 64
    characters once sent through the sliced load, now loads in one parse
    with the record hook into the model it came from: the plain pass and
    the per-record `_Loader.feature` and `_Loader.flow` never run."""
    original = random_valid_model(random.Random(seed))
    hooks, records = [], []
    json_document = loader._json_document
    monkeypatch.setattr(loader, "_json_document",
                        lambda data, hook: hooks.append(hook) or json_document(data, hook))
    for name in ("feature", "flow"):
        method = getattr(_Loader, name)
        monkeypatch.setattr(_Loader, name,
                            lambda *args, method=method: records.append(args) or method(*args))
    assert deserialize(serialize(original)) == original
    assert hooks == [_record]
    assert records == []
