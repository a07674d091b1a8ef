import json
import random

import pytest

from ocdf import deserialize, serialize
from ocdf.analysis import AbstractionLevel
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
)
from ocdf.render import RankDir
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


@pytest.mark.parametrize("document, message", [
    ('{"format_version":' + "9" * 5000 + ',"classes":[]}',
     "malformed JSON: an integer has too many digits"),
    ('{"format_version":1,"classes":[],"extra":' + "1" * 4301 + '}',
     "malformed JSON: an integer has too many digits"),
    ('{"format_version":1,"classes":[{"name":"\\ud800"}]}',
     "malformed JSON: a string holds an unpaired surrogate"),
    ('{"format_version":1,"classes":[{"name":"C\\udc00"}]}',
     "malformed JSON: a string holds an unpaired surrogate"),
    ('{"format_version":1,"classes":[],"\\uDBFF":0}',
     "malformed JSON: a string holds an unpaired surrogate"),
])
def test_deserialize_rejects_unrepresentable_json_values(document, message):
    with pytest.raises(ModelError) as err:
        deserialize(document.encode("ascii"))
    assert [(d.code, d.message) for d in err.value.diagnostics] == [(Code.E_PARSE, message)]


@pytest.mark.parametrize("escaped, name", [
    ("\\ud83d\\ude00", "\U0001F600"),   # a paired escape is one character
    ("\\\\ud800", "\\ud800"),          # an escaped backslash, then text
])
def test_deserialize_keeps_surrogate_lookalikes(escaped, name):
    document = '{"format_version":1,"classes":[{"name":"' + escaped + '"}]}'
    model = deserialize(document.encode("ascii"))
    assert model.classes[0].name == name
    assert deserialize(serialize(model)) == model


def test_deserialize_rejects_a_raw_lone_surrogate_in_a_str():
    document = '{"format_version":1,"classes":[{"name":"\ud800"}]}'
    with pytest.raises(ModelError) as err:
        deserialize(document)
    [problem] = err.value.diagnostics
    assert problem.code is Code.E_PARSE
    assert problem.message.startswith("not valid UTF-8: ")


def test_deserialize_str_and_bytes_agree_on_non_ascii_names():
    document = '{"format_version":1,"classes":[{"name":"\u00e9\U0001F600"}]}'
    model = deserialize(document)
    assert model == deserialize(document.encode("utf-8"))
    assert deserialize(serialize(model)) == model


@pytest.mark.parametrize("enum", [Code, FeatureKind, FlowKind, Visibility,
                                  AbstractionLevel, RankDir])
def test_token_enums_format_as_their_value(enum):
    for member in enum:
        assert str(member) == f"{member}" == member.value


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


# Loader parity: the exact diagnostics (code, message, subjects, in order)
# that malformed documents produce. The expectations were recorded from the
# field-by-field loader before it was rewritten for speed.
_DROP = object()
_MEMBER_DOC = {"id": "m", "kind": "member", "name": "m", "decl": "int", "visibility": "private"}
_METHOD_DOC = {"id": "f", "kind": "method", "name": "f", "decl": "f()", "visibility": "private"}
_FLOW_DOC = {"kind": "data", "source": "m", "target": "f"}
_FLAGS = ("is_static", "is_const", "is_constructor", "inherited")


def _patched(base, changes):
    return {k: v for k, v in {**base, **changes}.items() if v is not _DROP}


def _loader_doc(feature=(), flow=(), features=None, flows=None):
    if features is None:
        features = [_patched(_MEMBER_DOC, dict(feature)), _METHOD_DOC]
    if flows is None:
        flows = [_patched(_FLOW_DOC, dict(flow))]
    return json.dumps({"format_version": 1,
                       "classes": [{"name": "C", "features": features, "flows": flows}]})


# Full records, every field present, as the loader's object hook builds them.
_FULL_MEMBER, _FULL_METHOD = ({**doc, **dict.fromkeys(_FLAGS, False)}
                              for doc in (_MEMBER_DOC, _METHOD_DOC))
_FULL_FLOW = {**_FLOW_DOC, "label": None}


def _full_doc(root=(), **cls):
    """A document of full records, with `cls`'s keys set on its class and
    `root`'s on the document."""
    return json.dumps({"format_version": 1, "classes": [
        {"name": "C", "features": [_FULL_MEMBER, _FULL_METHOD], "flows": [_FULL_FLOW], **cls}],
        **dict(root)})


LOADER_CASES = {
    **{f"feature_{key}_missing": _loader_doc(feature={key: _DROP})
       for key in ("id", "name", "decl", "kind", "visibility")},
    **{f"feature_{key}_not_a_string": _loader_doc(feature={key: 3})
       for key in ("id", "name", "decl", "kind", "visibility")},
    **{f"feature_kind_{label}": _loader_doc(feature={"kind": value})
       for label, value in (("list", []), ("object", {}), ("null", None), ("bogus", "bogus"))},
    "feature_visibility_list": _loader_doc(feature={"visibility": []}),
    **{f"flag_{key}_{label}": _loader_doc(feature={key: value})
       for key in _FLAGS for label, value in (("1", 1), ("string", "true"))},
    "feature_all_fields_wrong": _loader_doc(feature={
        "id": 3, "kind": [], "name": None, "decl": 1, "visibility": {},
        "is_static": 1, "is_const": "true", "is_constructor": 0, "inherited": None}),
    **{f"flow_kind_{label}": _loader_doc(flow={"kind": value})
       for label, value in (("missing", _DROP), ("int", 3), ("list", []), ("object", {}),
                            ("null", None), ("bogus", "bogus"))},
    "flow_source_missing": _loader_doc(flow={"source": _DROP}),
    "flow_target_missing": _loader_doc(flow={"target": _DROP}),
    "flow_both_endpoints_missing": _loader_doc(flow={"source": _DROP, "target": _DROP}),
    "flow_source_not_a_string": _loader_doc(flow={"source": 3}),
    "flow_target_list": _loader_doc(flow={"target": []}),
    "flow_label_int": _loader_doc(flow={"label": 3}),
    "flow_all_fields_wrong": _loader_doc(flow={"kind": {}, "source": 1, "target": None,
                                               "label": 3}),
    "feature_not_an_object": _loader_doc(features=[3, _MEMBER_DOC, _METHOD_DOC]),
    "flow_not_an_object": _loader_doc(flows=["x", _FLOW_DOC]),
    "features_not_a_list": _loader_doc(features="nope"),
    "flows_not_a_list": _loader_doc(flows={}),
    "repeated_flow_triple": _loader_doc(flows=[_FLOW_DOC, {**_FLOW_DOC, "label": "again"}]),
    "repeated_dangling_flow_triple": _loader_doc(
        flows=[{**_FLOW_DOC, "source": "ghost"}, {**_FLOW_DOC, "source": "ghost"}]),
    "feature_id_empty": _loader_doc(feature={"id": ""}),
    # each flow's own problems, then its dangling endpoints, flow by flow
    "flow_problems_before_dangling_endpoints": _loader_doc(flows=[
        {"kind": "bogus", "source": "ghost", "target": "f"},
        {**_FLOW_DOC, "label": 3},
        {**_FLOW_DOC, "target": "nowhere"}]),
    # record-shaped objects where no record belongs
    "flow_shaped_root": json.dumps(_FULL_FLOW),
    "flow_shaped_class": json.dumps({"format_version": 1, "classes": [
        json.loads(_full_doc())["classes"][0], _FULL_FLOW]}),
    "feature_in_flows": _full_doc(flows=[_FULL_FLOW, _FULL_MEMBER]),
    "flow_in_features": _full_doc(features=[_FULL_MEMBER, _FULL_FLOW, _FULL_METHOD]),
    "feature_as_a_name": _full_doc(features=[{**_FULL_MEMBER, "name": _FULL_METHOD},
                                             _FULL_METHOD]),
    "feature_as_format_version": _full_doc(root={"format_version": _FULL_MEMBER}),
    "class_key_with_records": _full_doc(extra=[_FULL_MEMBER, _FULL_FLOW]),
    "feature_kind_in_a_flow": _full_doc(flows=[{**_FULL_FLOW, "kind": "member"}]),
}

LOADER_EXPECTED = {
    'feature_id_missing': [
        ('E_PARSE', "features[0] is missing string field 'id'", (('C', ()),)),
        ('E_DANGLING_REF', "flow endpoint 'm' does not name a feature", (('C', ('m',)),)),
    ],
    'feature_name_missing': [
        ('E_PARSE', "features[0] is missing string field 'name'", (('C', ()),)),
    ],
    'feature_decl_missing': [
        ('E_PARSE', "features[0] is missing string field 'decl'", (('C', ()),)),
    ],
    'feature_kind_missing': [
        ('E_BAD_ENUM', 'm: unknown kind token None', (('C', ('m',)),)),
    ],
    'feature_visibility_missing': [
        ('E_BAD_ENUM', 'm: unknown visibility token None', (('C', ('m',)),)),
    ],
    'feature_id_not_a_string': [
        ('E_PARSE', "features[0] is missing string field 'id'", (('C', ()),)),
        ('E_DANGLING_REF', "flow endpoint 'm' does not name a feature", (('C', ('m',)),)),
    ],
    'feature_name_not_a_string': [
        ('E_PARSE', "features[0] is missing string field 'name'", (('C', ()),)),
    ],
    'feature_decl_not_a_string': [
        ('E_PARSE', "features[0] is missing string field 'decl'", (('C', ()),)),
    ],
    'feature_kind_not_a_string': [
        ('E_BAD_ENUM', 'm: unknown kind token 3', (('C', ('m',)),)),
    ],
    'feature_visibility_not_a_string': [
        ('E_BAD_ENUM', 'm: unknown visibility token 3', (('C', ('m',)),)),
    ],
    'feature_kind_list': [
        ('E_BAD_ENUM', 'm: unknown kind token []', (('C', ('m',)),)),
    ],
    'feature_kind_object': [
        ('E_BAD_ENUM', 'm: unknown kind token {}', (('C', ('m',)),)),
    ],
    'feature_kind_null': [
        ('E_BAD_ENUM', 'm: unknown kind token None', (('C', ('m',)),)),
    ],
    'feature_kind_bogus': [
        ('E_BAD_ENUM', "m: unknown kind token 'bogus'", (('C', ('m',)),)),
    ],
    'feature_visibility_list': [
        ('E_BAD_ENUM', 'm: unknown visibility token []', (('C', ('m',)),)),
    ],
    'flag_is_static_1': [
        ('E_PARSE', "m: 'is_static' must be a boolean", (('C', ()),)),
    ],
    'flag_is_static_string': [
        ('E_PARSE', "m: 'is_static' must be a boolean", (('C', ()),)),
    ],
    'flag_is_const_1': [
        ('E_PARSE', "m: 'is_const' must be a boolean", (('C', ()),)),
    ],
    'flag_is_const_string': [
        ('E_PARSE', "m: 'is_const' must be a boolean", (('C', ()),)),
    ],
    'flag_is_constructor_1': [
        ('E_PARSE', "m: 'is_constructor' must be a boolean", (('C', ()),)),
    ],
    'flag_is_constructor_string': [
        ('E_PARSE', "m: 'is_constructor' must be a boolean", (('C', ()),)),
    ],
    'flag_inherited_1': [
        ('E_PARSE', "m: 'inherited' must be a boolean", (('C', ()),)),
    ],
    'flag_inherited_string': [
        ('E_PARSE', "m: 'inherited' must be a boolean", (('C', ()),)),
    ],
    'feature_all_fields_wrong': [
        ('E_PARSE', "features[0] is missing string field 'id'", (('C', ()),)),
        ('E_PARSE', "features[0] is missing string field 'name'", (('C', ()),)),
        ('E_PARSE', "features[0] is missing string field 'decl'", (('C', ()),)),
        ('E_BAD_ENUM', 'features[0]: unknown kind token []', (('C', ('features[0]',)),)),
        ('E_BAD_ENUM', 'features[0]: unknown visibility token {}',
         (('C', ('features[0]',)),)),
        ('E_PARSE', "features[0]: 'is_static' must be a boolean", (('C', ()),)),
        ('E_PARSE', "features[0]: 'is_const' must be a boolean", (('C', ()),)),
        ('E_PARSE', "features[0]: 'is_constructor' must be a boolean", (('C', ()),)),
        ('E_PARSE', "features[0]: 'inherited' must be a boolean", (('C', ()),)),
        ('E_DANGLING_REF', "flow endpoint 'm' does not name a feature", (('C', ('m',)),)),
    ],
    'flow_kind_missing': [
        ('E_BAD_ENUM', 'flows[0]: unknown kind token None', (('C', ('flows[0]',)),)),
    ],
    'flow_kind_int': [
        ('E_BAD_ENUM', 'flows[0]: unknown kind token 3', (('C', ('flows[0]',)),)),
    ],
    'flow_kind_list': [
        ('E_BAD_ENUM', 'flows[0]: unknown kind token []', (('C', ('flows[0]',)),)),
    ],
    'flow_kind_object': [
        ('E_BAD_ENUM', 'flows[0]: unknown kind token {}', (('C', ('flows[0]',)),)),
    ],
    'flow_kind_null': [
        ('E_BAD_ENUM', 'flows[0]: unknown kind token None', (('C', ('flows[0]',)),)),
    ],
    'flow_kind_bogus': [
        ('E_BAD_ENUM', "flows[0]: unknown kind token 'bogus'", (('C', ('flows[0]',)),)),
    ],
    'flow_source_missing': [
        ('E_PARSE', "flows[0] is missing string field 'source'", (('C', ()),)),
    ],
    'flow_target_missing': [
        ('E_PARSE', "flows[0] is missing string field 'target'", (('C', ()),)),
    ],
    'flow_both_endpoints_missing': [
        ('E_PARSE', "flows[0] is missing string field 'source'", (('C', ()),)),
        ('E_PARSE', "flows[0] is missing string field 'target'", (('C', ()),)),
    ],
    'flow_source_not_a_string': [
        ('E_PARSE', "flows[0] is missing string field 'source'", (('C', ()),)),
    ],
    'flow_target_list': [
        ('E_PARSE', "flows[0] is missing string field 'target'", (('C', ()),)),
    ],
    'flow_label_int': [
        ('E_PARSE', 'flows[0] label must be a string or null', (('C', ()),)),
    ],
    'flow_all_fields_wrong': [
        ('E_BAD_ENUM', 'flows[0]: unknown kind token {}', (('C', ('flows[0]',)),)),
        ('E_PARSE', "flows[0] is missing string field 'source'", (('C', ()),)),
        ('E_PARSE', "flows[0] is missing string field 'target'", (('C', ()),)),
        ('E_PARSE', 'flows[0] label must be a string or null', (('C', ()),)),
    ],
    'feature_not_an_object': [
        ('E_PARSE', 'features[0] must be an object', (('C', ()),)),
    ],
    'flow_not_an_object': [
        ('E_PARSE', 'flows[0] must be an object', (('C', ()),)),
    ],
    'features_not_a_list': [
        ('E_PARSE', "'features' must be a list", (('C', ()),)),
        ('E_DANGLING_REF', "flow endpoint 'm' does not name a feature", (('C', ('m',)),)),
        ('E_DANGLING_REF', "flow endpoint 'f' does not name a feature", (('C', ('f',)),)),
    ],
    'flows_not_a_list': [
        ('E_PARSE', "'flows' must be a list", (('C', ()),)),
    ],
    'repeated_flow_triple': [],
    'repeated_dangling_flow_triple': [
        ('E_DANGLING_REF', "flow endpoint 'ghost' does not name a feature", (('C', ('ghost',)),)),
        ('E_DANGLING_REF', "flow endpoint 'ghost' does not name a feature", (('C', ('ghost',)),)),
    ],
    'feature_id_empty': [
        ('E_PARSE', 'features[0] has an empty id', (('C', ()),)),
        ('E_DANGLING_REF', "flow endpoint 'm' does not name a feature", (('C', ('m',)),)),
    ],
    'flow_problems_before_dangling_endpoints': [
        ('E_BAD_ENUM', "flows[0]: unknown kind token 'bogus'", (('C', ('flows[0]',)),)),
        ('E_DANGLING_REF', "flow endpoint 'ghost' does not name a feature", (('C', ('ghost',)),)),
        ('E_PARSE', 'flows[1] label must be a string or null', (('C', ()),)),
        ('E_DANGLING_REF', "flow endpoint 'nowhere' does not name a feature",
         (('C', ('nowhere',)),)),
    ],
    'flow_shaped_root': [
        ('E_PARSE', 'unsupported format_version None (expected 1)', ()),
        ('E_PARSE', "'classes' must be a list", ()),
    ],
    'flow_shaped_class': [
        ('E_PARSE', 'classes[1] is missing a name', ()),
    ],
    'feature_in_flows': [
        ('E_BAD_ENUM', "flows[1]: unknown kind token 'member'", (('C', ('flows[1]',)),)),
        ('E_PARSE', "flows[1] is missing string field 'source'", (('C', ()),)),
        ('E_PARSE', "flows[1] is missing string field 'target'", (('C', ()),)),
    ],
    'flow_in_features': [
        ('E_PARSE', "features[1] is missing string field 'id'", (('C', ()),)),
        ('E_PARSE', "features[1] is missing string field 'name'", (('C', ()),)),
        ('E_PARSE', "features[1] is missing string field 'decl'", (('C', ()),)),
        ('E_BAD_ENUM', "features[1]: unknown kind token 'data'", (('C', ('features[1]',)),)),
        ('E_BAD_ENUM', 'features[1]: unknown visibility token None', (('C', ('features[1]',)),)),
    ],
    'feature_as_a_name': [
        ('E_PARSE', "features[0] is missing string field 'name'", (('C', ()),)),
    ],
    'feature_as_format_version': [
        ('E_PARSE', "unsupported format_version {'id': 'm', 'kind': 'member', 'name': 'm', "
                    "'decl': 'int', 'visibility': 'private', 'is_static': False, "
                    "'is_const': False, 'is_constructor': False, 'inherited': False} "
                    "(expected 1)", ()),
    ],
    'class_key_with_records': [],
    'feature_kind_in_a_flow': [
        ('E_BAD_ENUM', "flows[0]: unknown kind token 'member'", (('C', ('flows[0]',)),)),
    ],
}


def _load_rows(data):
    try:
        deserialize(data)
    except ModelError as err:
        return [(d.code.value, d.message, tuple((s.class_name, s.ids) for s in d.subjects))
                for d in err.diagnostics]
    return []


@pytest.mark.parametrize("case", LOADER_CASES)
def test_loader_diagnostics_are_unchanged(case):
    assert _load_rows(LOADER_CASES[case]) == LOADER_EXPECTED[case]


def test_loader_keeps_the_first_of_a_repeated_flow_triple():
    (flow,) = deserialize(LOADER_CASES["repeated_flow_triple"]).classes[0].flows
    assert flow.label is None
