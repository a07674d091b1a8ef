import json
import random

import pytest

from ocdf.diagnostics import Code, ModelError
from ocdf.model import (
    Feature,
    FeatureKind,
    Flow,
    FlowKind,
    OcdfClass,
    OcdfModel,
    Visibility,
    build_class,
    build_model,
    deserialize,
    serialize,
)
from ocdf.validator import validate

from generators import random_valid_model


def member(fid, **kw):
    return Feature(id=fid, kind=FeatureKind.MEMBER, name=fid, decl="int", **kw)


def method(fid, **kw):
    kw.setdefault("visibility", Visibility.PRIVATE)
    return Feature(id=fid, kind=FeatureKind.METHOD, name=fid, decl=f"{fid}()", **kw)


def test_build_empty_class():
    cls = build_class("C", [], [])
    assert cls.name == "C"
    assert cls.features == ()
    assert cls.flows == ()


def test_build_deduplicates_flows():
    cls = build_class(
        "C",
        [member("m1"), method("f1")],
        [Flow(FlowKind.DATA, "m1", "f1"), Flow(FlowKind.DATA, "m1", "f1")],
    )
    assert len(cls.flows) == 1


def test_build_keeps_distinct_kinds_between_same_endpoints():
    cls = build_class(
        "C",
        [method("f"), method("g")],
        [Flow(FlowKind.DATA, "f", "g"), Flow(FlowKind.CONTROL, "f", "g")],
    )
    assert len(cls.flows) == 2


def test_build_rejects_duplicate_feature_id():
    with pytest.raises(ModelError) as err:
        build_class("C", [member("x"), method("x")], [])
    assert [d.code for d in err.value.diagnostics] == [Code.E_DUP_ID]


def test_build_rejects_dangling_flow():
    with pytest.raises(ModelError) as err:
        build_class("C", [member("m1")], [Flow(FlowKind.DATA, "m1", "f9")])
    assert [d.code for d in err.value.diagnostics] == [Code.E_DANGLING_REF]
    assert err.value.diagnostics[0].subjects[0].ids == ("f9",)


def test_build_model_rejects_duplicate_class_names():
    with pytest.raises(ModelError) as err:
        build_model([build_class("C", [], []), build_class("C", [], [])])
    assert [d.code for d in err.value.diagnostics] == [Code.E_DUP_ID]


CANONICAL_EMPTY = b'{"format_version":1,"classes":[]}'


def test_serialize_empty_model():
    assert serialize(OcdfModel()) == CANONICAL_EMPTY


def test_deserialize_empty_document():
    assert deserialize(CANONICAL_EMPTY) == OcdfModel()


def test_serialize_field_order_is_canonical():
    cls = build_class("C", [member("m")], [])
    doc = json.loads(serialize(build_model([cls])))
    assert list(doc) == ["format_version", "classes"]
    assert list(doc["classes"][0]) == ["name", "features", "flows"]
    assert list(doc["classes"][0]["features"][0]) == [
        "id", "kind", "name", "decl", "visibility",
        "is_static", "is_const", "is_constructor", "inherited",
    ]


def test_feature_order_is_significant():
    a = build_class("C", [member("m1"), method("f1")], [])
    b = build_class("C", [method("f1"), member("m1")], [])
    assert serialize(build_model([a])) != serialize(build_model([b]))


def test_boolean_defaults_and_label_default():
    doc = {
        "format_version": 1,
        "classes": [{
            "name": "C",
            "features": [
                {"id": "m", "kind": "member", "name": "m", "decl": "int",
                 "visibility": "private"},
                {"id": "f", "kind": "method", "name": "f", "decl": "f()",
                 "visibility": "private"},
            ],
            "flows": [{"kind": "data", "source": "m", "target": "f"}],
        }],
    }
    model = deserialize(json.dumps(doc))
    feature = model.classes[0].features[0]
    assert (feature.is_static, feature.is_const, feature.is_constructor,
            feature.inherited) == (False, False, False, False)
    assert model.classes[0].flows[0].label is None


def test_deserialize_rejects_malformed_json():
    with pytest.raises(ModelError) as err:
        deserialize(b"{not json")
    assert [d.code for d in err.value.diagnostics] == [Code.E_PARSE]


def test_deserialize_rejects_unknown_kind():
    doc = {"format_version": 1, "classes": [{"name": "C", "features": [
        {"id": "x", "kind": "banana", "name": "x", "decl": "", "visibility": "public"}
    ], "flows": []}]}
    with pytest.raises(ModelError) as err:
        deserialize(json.dumps(doc))
    assert [d.code for d in err.value.diagnostics] == [Code.E_BAD_ENUM]


def test_deserialize_rejects_unknown_visibility():
    doc = {"format_version": 1, "classes": [{"name": "C", "features": [
        {"id": "x", "kind": "member", "name": "x", "decl": "", "visibility": "secret"}
    ], "flows": []}]}
    with pytest.raises(ModelError) as err:
        deserialize(json.dumps(doc))
    assert [d.code for d in err.value.diagnostics] == [Code.E_BAD_ENUM]


def test_deserialize_rejects_dangling_flow_source():
    doc = {"format_version": 1, "classes": [{"name": "C", "features": [
        {"id": "f", "kind": "method", "name": "f", "decl": "f()", "visibility": "private"}
    ], "flows": [{"kind": "data", "source": "ghost", "target": "f"}]}]}
    with pytest.raises(ModelError) as err:
        deserialize(json.dumps(doc))
    assert [d.code for d in err.value.diagnostics] == [Code.E_DANGLING_REF]


def test_deserialize_collapses_duplicate_flows():
    doc = {"format_version": 1, "classes": [{"name": "C", "features": [
        {"id": "m", "kind": "member", "name": "m", "decl": "int", "visibility": "private"},
        {"id": "f", "kind": "method", "name": "f", "decl": "f()", "visibility": "private"},
    ], "flows": [
        {"kind": "data", "source": "m", "target": "f"},
        {"kind": "data", "source": "m", "target": "f", "label": "dup"},
    ]}]}
    model = deserialize(json.dumps(doc))
    assert len(model.classes[0].flows) == 1


def test_deserialize_rejects_wrong_format_version():
    with pytest.raises(ModelError) as err:
        deserialize(b'{"format_version":99,"classes":[]}')
    assert [d.code for d in err.value.diagnostics] == [Code.E_PARSE]


@pytest.mark.parametrize("version", ["true", "1.0"])
def test_deserialize_rejects_non_integer_format_version(version):
    with pytest.raises(ModelError) as err:
        deserialize(f'{{"format_version":{version},"classes":[]}}'.encode())
    assert [d.code for d in err.value.diagnostics] == [Code.E_PARSE]


def test_deserialize_collects_multiple_problems():
    doc = {"format_version": 1, "classes": [{"name": "C", "features": [
        {"id": "x", "kind": "banana", "name": "x", "decl": "", "visibility": "secret"},
        {"id": "x", "kind": "member", "name": "x", "decl": "", "visibility": "public"},
    ], "flows": [{"kind": "data", "source": "nope", "target": "x"}]}]}
    with pytest.raises(ModelError) as err:
        deserialize(json.dumps(doc))
    codes = sorted(d.code for d in err.value.diagnostics)
    assert codes == [Code.E_BAD_ENUM, Code.E_BAD_ENUM, Code.E_DANGLING_REF, Code.E_DUP_ID]


def test_roundtrip_random_models():
    rng = random.Random(20240811)
    for _ in range(50):
        model = random_valid_model(rng)
        data = serialize(model)
        assert deserialize(data) == model
        assert serialize(deserialize(data)) == data


def test_serialize_is_deterministic():
    rng = random.Random(7)
    model = random_valid_model(rng)
    assert serialize(model) == serialize(model)


# Structural rules are owned by one check in the model; building, loading and
# validating the same defective classes must report the same findings.
STRUCTURAL_DEFECTS = {
    "duplicate_feature_id": (Code.E_DUP_ID, [("C", [member("x"), method("x")], [])]),
    "dangling_endpoint": (Code.E_DANGLING_REF,
                          [("C", [method("f")], [Flow(FlowKind.DATA, "ghost", "f")])]),
    "repeated_flow_triple": (None, [("C", [member("m"), method("f")],
                                     [Flow(FlowKind.DATA, "m", "f"),
                                      Flow(FlowKind.DATA, "m", "f", "again")])]),
    "duplicate_class_name": (Code.E_DUP_ID, [("C", [], []), ("C", [], [])]),
}


def _finding_set(diagnostics):
    return {(d.code, d.subjects, d.message) for d in diagnostics}


def _raised(call):
    try:
        call()
    except ModelError as err:
        return _finding_set(err.diagnostics)
    return set()


@pytest.mark.parametrize("code, classes", STRUCTURAL_DEFECTS.values(), ids=STRUCTURAL_DEFECTS)
def test_structural_rules_agree_across_build_load_and_validate(code, classes):
    model = OcdfModel(classes=tuple(OcdfClass(name, tuple(feats), tuple(flows))
                                    for name, feats, flows in classes))
    built = _raised(lambda: build_model([build_class(*spec) for spec in classes]))
    loaded = _raised(lambda: deserialize(serialize(model)))
    assert {c for c, _, _ in built} == ({code} if code else set())
    assert built == loaded == _finding_set(validate(model))


def test_deserialize_flow_without_source_is_only_a_parse_error():
    doc = {"format_version": 1, "classes": [{"name": "C", "features": [
        {"id": "f", "kind": "method", "name": "f", "decl": "f()", "visibility": "private"}
    ], "flows": [{"kind": "data", "target": "f"}]}]}
    with pytest.raises(ModelError) as err:
        deserialize(json.dumps(doc))
    assert [d.code for d in err.value.diagnostics] == [Code.E_PARSE]


def test_deserialize_rejects_empty_flow_endpoint():
    doc = {"format_version": 1, "classes": [{"name": "C", "features": [
        {"id": "f", "kind": "method", "name": "f", "decl": "f()", "visibility": "private"}
    ], "flows": [{"kind": "data", "source": "", "target": "f"}]}]}
    with pytest.raises(ModelError) as err:
        deserialize(json.dumps(doc))
    assert [(d.code, d.subjects[0].ids) for d in err.value.diagnostics] == [
        (Code.E_DANGLING_REF, ("",))]


def test_validate_judges_a_repeated_flow_triple_once():
    cls = OcdfClass("C", (member("a"), member("b")),
                    (Flow(FlowKind.DATA, "a", "b"), Flow(FlowKind.DATA, "a", "b")))
    assert [d.code for d in validate(OcdfModel(classes=(cls,)))] == [Code.E_DF_ENDPOINT]
