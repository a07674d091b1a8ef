"""The package's hand-written fast paths against the references in
`oracles.py`: the canonical document writer (`serialize`), the indented
JSON writer (`indented_json`) and the reports `validate` and `analyze
--format json` print with it, and the loader on documents that omit
optional fields and on every document `serialize` writes, as written,
indented or with its keys reversed."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from ocdf import deserialize, serialize
from ocdf.cli import main
from ocdf.diagnostics import Code, Diagnostic, Subject, findings_json, indented_json
from ocdf.loader import _Loader
from ocdf.model import (Feature, FeatureKind, Flow, FlowKind, OcdfClass, OcdfModel, Visibility,
                        build_class, build_model)

from generators import random_valid_class, random_valid_model
from test_loader_slices import reversed_keys
from oracles import (reference_analyze_json, reference_deserialize, reference_findings_json,
                     reference_serialize)

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None)

# Characters a JSON writer must escape or must pass through unchanged: the
# quote, the backslash, every control character, DEL, the two line
# separators JavaScript treats as line ends, and non-ASCII text in and
# beyond the Basic Multilingual Plane.
HOSTILE = ('"', "\\", "/", *map(chr, range(0x20)), "\x7f", "\u2028", "\u2029", "é", "变",
           "\U0001f600", "\U00010348", "a", "_", " ")
hostile_text = st.text(alphabet=st.sampled_from(HOSTILE), max_size=6)


@st.composite
def hostile_models(draw) -> OcdfModel:
    """Models built directly, without build_class's checks: repeated ids,
    dangling endpoints and hostile strings in every string field."""
    classes = []
    for _ in range(draw(st.integers(0, 3))):
        ids = draw(st.lists(hostile_text, max_size=6))
        features = tuple(
            Feature(fid, draw(st.sampled_from(FeatureKind)), draw(hostile_text),
                    draw(hostile_text), draw(st.sampled_from(Visibility)),
                    *draw(st.tuples(*[st.booleans()] * 4)))
            for fid in ids)
        endpoint = st.sampled_from(ids) | hostile_text if ids else hostile_text
        flows = tuple(Flow(draw(st.sampled_from(FlowKind)), draw(endpoint), draw(endpoint),
                           draw(st.none() | hostile_text))
                      for _ in range(draw(st.integers(0, 8))))
        classes.append(OcdfClass(draw(hostile_text), features, flows))
    return OcdfModel(tuple(classes))


@PROPERTY
@given(hostile_models())
def test_serialize_writes_the_reference_bytes(model):
    assert serialize(model) == reference_serialize(model)


def test_serialize_rejects_a_lone_surrogate_like_the_reference():
    model = OcdfModel((OcdfClass("C\ud800"),))
    with pytest.raises(UnicodeEncodeError):
        reference_serialize(model)
    with pytest.raises(UnicodeEncodeError):
        serialize(model)


# Field -> values of the wrong type an API caller might put there.
ILL_TYPED = {
    **dict.fromkeys(("is_static", "is_const", "is_constructor", "inherited"),
                    [1, 0, None, 1.5, "true"]),
    **dict.fromkeys(("id", "name", "decl"), [None, 5, 1.5, True, b"x", ["a"], {"k": "v"}]),
    "kind": ["member", Visibility.PUBLIC, None],
}
FLOW_ILL_TYPED = {
    **dict.fromkeys(("source", "target"), [None, 5, True, ["f"]]),
    "label": [3, 0.5, False, b"x", ["l"]],
    "kind": ["data", None],
}


def _ill_typed_models():
    feature = Feature("f", FeatureKind.MEMBER, "f", "int")
    flow = Flow(FlowKind.DATA, "f", "f")
    for field, values in ILL_TYPED.items():
        for value in values:
            yield OcdfModel((OcdfClass("C", (feature._replace(**{field: value}),),
                                       (flow,)),))
    for field, values in FLOW_ILL_TYPED.items():
        for value in values:
            yield OcdfModel((OcdfClass("C", (feature,),
                                       (flow._replace(**{field: value}),)),))
    for name in (None, 7):
        yield OcdfModel((OcdfClass(name, (feature,), (flow,)),))


@pytest.mark.parametrize("model", _ill_typed_models())
def test_ill_typed_records_write_the_reference_bytes_or_raise_type_error(model):
    """Never other bytes: where the reference writes a document, serialize
    writes the same one or raises TypeError; where it fails, so does
    serialize."""
    try:
        expected = reference_serialize(model)
    except Exception:
        with pytest.raises(Exception):
            serialize(model)
        return
    try:
        written = serialize(model)
    except TypeError:
        return
    assert written == expected


subjects = st.builds(Subject, hostile_text, st.lists(hostile_text, max_size=3).map(tuple))
diagnostics = st.builds(Diagnostic, st.sampled_from(Code), hostile_text,
                        st.lists(subjects, max_size=3).map(tuple))


@PROPERTY
@given(st.lists(diagnostics, max_size=4))
def test_findings_json_is_json_dumps_indented(findings):
    assert findings_json(findings) == reference_findings_json(findings)


def test_findings_json_with_empty_subjects_and_ids():
    findings = [Diagnostic(Code.E_PARSE, 'say "hi"\n'),
                Diagnostic(Code.E_DUP_ID, "x", (Subject("C"), Subject("", ("", "a\\b"))))]
    assert findings_json([]) == reference_findings_json([]) == "[]"
    assert findings_json(findings) == reference_findings_json(findings)


json_values = st.recursive(
    hostile_text | st.integers(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(hostile_text, inner, max_size=3),
    max_leaves=12)


@PROPERTY
@given(json_values)
def test_indented_json_is_json_dumps_indented(value):
    assert indented_json(value) == json.dumps(value, indent=2)


def _escaped_names(model: OcdfModel) -> OcdfModel:
    """The model with text a JSON writer must escape appended to every class
    name, feature id and feature name."""
    tail = 'é变\U0001f600"\\\n\x01'
    return build_model([
        build_class(cls.name + tail,
                    [f._replace(id=f.id + tail, name=f.name + tail)
                     for f in cls.features],
                    [f._replace(source=f.source + tail, target=f.target + tail)
                     for f in cls.flows])
        for cls in model.classes])


def test_analyze_json_is_the_reference_report(tmp_path, capsys):
    document = tmp_path / "model.json"
    for seed in range(40):
        plain = random_valid_model(random.Random(seed))
        for model in (plain, _escaped_names(plain)):
            document.write_bytes(serialize(model))
            assert main(["analyze", "--format", "json", str(document)]) == 0
            assert capsys.readouterr().out == reference_analyze_json(model) + "\n"


def _without(doc: dict, flow_keys=(), feature_keys=()) -> dict:
    for cls in doc["classes"]:
        for flow in cls["flows"]:
            for key in flow_keys:
                del flow[key]
        for feature in cls["features"]:
            for key in feature_keys:
                del feature[key]
    return doc


OMITTED = {
    "no_labels": {"flow_keys": ("label",)},
    "no_flags": {"feature_keys": ("is_static", "is_const", "is_constructor", "inherited")},
    "no_optional_field": {"flow_keys": ("label",),
                          "feature_keys": ("is_static", "is_const", "is_constructor",
                                           "inherited")},
}


@pytest.mark.parametrize("omitted", OMITTED)
def test_documents_without_optional_fields_load_like_the_reference(omitted):
    for seed in range(60):
        doc = _without(json.loads(serialize(random_valid_model(random.Random(seed)))),
                       **OMITTED[omitted])
        data = json.dumps(doc)
        assert deserialize(data) == reference_deserialize(data)


def _long_arrays_model(rng: random.Random) -> OcdfModel:
    """One to three classes of up to 64 features each: long record arrays."""
    return build_model([random_valid_class(rng, f"Class{i}", 64)
                        for i in range(rng.randint(1, 3))])


def _as_written(data):
    return data


def _indented(data):
    return json.dumps(json.loads(data), indent=2)


def _reversed_keys(data):
    return json.dumps(reversed_keys(json.loads(data)))


# The model each seed draws and the layout its document is loaded in. The ids
# "slice" and "slice-64" are the names these `serialize`-layout cases had
# while that layout could also be read slice by slice; "slice-64" holds the
# long record arrays that were cut into 64-character slices.
DOCUMENTS = {
    "slice": (random_valid_model, _as_written),
    "slice-64": (_long_arrays_model, _as_written),
    "indented": (random_valid_model, _indented),
    "reversed_keys": (random_valid_model, _reversed_keys),
}


@pytest.mark.parametrize("case", DOCUMENTS)
def test_serialized_documents_never_take_the_per_record_path(monkeypatch, case):
    """A document `serialize` wrote has its records built by the object hook
    as it is parsed, in `serialize`'s layout, indented, or with each object's
    keys reversed, and with short or long record arrays: `_Loader.feature`
    and `_Loader.flow`, which only an irregular record needs, are never
    called."""
    draw, layout = DOCUMENTS[case]
    calls = []
    for name in ("feature", "flow"):
        monkeypatch.setattr(_Loader, name, _spy(getattr(_Loader, name), calls))
    for seed in range(200):
        model = draw(random.Random(seed))
        assert deserialize(layout(serialize(model))) == model
    assert calls == []


def _spy(method, calls: list):
    def spy(*args):
        calls.append(args)
        return method(*args)
    return spy
