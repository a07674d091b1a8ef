"""The sliced load of a large document against the per-record reference
loader in `oracles.py`. With the slice size patched down to 64 characters
nearly every record boundary is a cut, so Hypothesis-built documents cross
every cut the loader makes: names, decls and labels that spell a cut or
the text around an array, extra keys that hold arrays of objects, layouts
other than `serialize`'s, several classes, and a fault in a later slice.
Both loaders must give an equal model or an equal list of diagnostics."""

import json
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ocdf import model, slices
from ocdf.model import (Feature, FeatureKind, Flow, FlowKind, ModelError, OcdfModel, build_class,
                        build_model, deserialize, serialize)

from generators import random_valid_class, random_valid_model
from oracles import reference_deserialize

SLICES = settings(derandomize=True, max_examples=150, deadline=None, database=None)

# text that spells a cut, the text around an array, or an escape
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
        doc = _reordered(doc)
    return _compact(doc)


def _compact(doc: dict) -> str:
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":"))


def _reordered(value):
    if isinstance(value, dict):
        return {key: _reordered(value[key]) for key in reversed(value)}
    if isinstance(value, list):
        return [_reordered(item) for item in value]
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
    with mock.patch.object(model, "_SLICE", 64):
        for data in (text, text.encode("utf-8", "surrogatepass")):
            assert _outcome(deserialize, data) == _outcome(reference_deserialize, data)


@SLICES
@given(documents(), st.sampled_from(["compact", "pretty", "reordered"]))
def test_sliced_documents_load_as_the_reference_loads_them(doc, layout):
    _assert_same_load(_layout(doc, layout))


@SLICES
@given(documents(), st.sampled_from(sorted(FAULTS)), st.integers(0, 1))
def test_a_fault_in_a_later_slice_loads_as_the_reference_loads_it(doc, fault, which):
    _assert_same_load(_plant(doc, fault, which))


@pytest.mark.parametrize("seed", range(20))
def test_serialized_models_take_the_sliced_path(seed, monkeypatch):
    """A document `serialize` wrote loads through the slices whenever one
    of its record arrays is longer than a slice, into the model it came from."""
    original = random_valid_model(random.Random(seed))
    text = serialize(original).decode("utf-8")
    longest = max((len(json.dumps(cls[key], separators=(",", ":"), ensure_ascii=False))
                   for cls in json.loads(text)["classes"] for key in ("features", "flows")),
                  default=0)
    sliced = []
    sliced_model = slices.sliced_model
    monkeypatch.setattr(slices, "sliced_model",
                        lambda text: sliced.append(sliced_model(text)) or sliced[-1])
    monkeypatch.setattr(model, "_SLICE", 64)
    assert deserialize(text) == original
    if longest - 2 > 64:
        assert sliced == [original]
    else:  # parsed whole, whether or not the class level was read first
        assert sliced in ([], [None])


def test_a_document_whose_arrays_fit_in_a_slice_is_parsed_whole():
    classes = [random_valid_class(random.Random(seed), f"C{seed}", 150) for seed in range(16)]
    text = serialize(build_model(classes)).decode("utf-8")
    assert len(text) > model._SLICE  # the document is larger than a slice; no array is
    assert slices.sliced_model(text) is None
    with mock.patch.object(model, "_SLICE", 4096):
        assert slices.sliced_model(text) == deserialize(text)


def test_only_a_document_with_a_long_array_imports_the_sliced_path(tmp_path):
    """A stage whose documents hold no record array longer than a slice,
    however long the documents, never compiles `ocdf.slices`. The third
    document's flows are its one long array."""
    methods = [Feature(f"m{i}", FeatureKind.METHOD, f"m{i}") for i in range(60)]
    calls = build_class("F", methods, [Flow(FlowKind.CONTROL, a.id, b.id)
                                       for a in methods for b in methods])
    classes = [random_valid_class(random.Random(5), "C", 40),
               random_valid_class(random.Random(5), "C", 1000), calls]
    paths = [tmp_path / f"{index}.json" for index in range(3)]
    longest = []
    for path, cls in zip(paths, classes):
        path.write_bytes(serialize(build_model([cls])))
        raw = json.loads(path.read_bytes())["classes"][0]
        longest.append([len(json.dumps(raw[key], separators=(",", ":")))
                        for key in ("features", "flows")])
    assert paths[0].stat().st_size <= model._SLICE < paths[1].stat().st_size
    assert max(longest[1]) <= model._SLICE and longest[2][0] <= model._SLICE < longest[2][1]
    script = ("import sys\n"
              "from ocdf.model import deserialize\n"
              f"for path in {[str(path) for path in paths]!r}:\n"
              "    deserialize(open(path, 'rb').read())\n"
              "    print('ocdf.slices' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            check=True)
    assert result.stdout.split() == ["False", "False", "True"]
