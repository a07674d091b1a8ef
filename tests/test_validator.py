import random

import pytest
from hypothesis import given, settings, strategies as st

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
from ocdf.validator import _validate_class, explain, validate, validate_class

from generators import random_valid_class, random_valid_model
from oracles import _RefLoader, reference_validate
from test_loader_differential import MUTATIONS, document, mutate


def feat(fid, kind, vis=Visibility.PRIVATE, **kw):
    return Feature(id=fid, kind=kind, name=fid, decl="int", visibility=vis, **kw)


def small_class(**kw):
    features = [
        feat("m", FeatureKind.MEMBER, **kw.get("member", {})),
        feat("f", FeatureKind.METHOD),
        feat("run", FeatureKind.INTERFACE_METHOD, Visibility.PUBLIC),
    ]
    return features


def codes(model):
    return [d.code for d in validate(model)]


def test_empty_model_is_clean():
    assert validate(OcdfModel()) == []


def test_control_flow_with_member_endpoint():
    cls = build_class("C", small_class(),
                      [Flow(FlowKind.CONTROL, "m", "f")])
    assert codes(build_model([cls])) == [Code.E_CF_ENDPOINT]


def test_control_flow_between_methods_is_clean():
    cls = build_class("C", small_class(),
                      [Flow(FlowKind.CONTROL, "run", "f")])
    assert codes(build_model([cls])) == []


def test_member_to_member_data_flow():
    features = small_class() + [feat("m2", FeatureKind.MEMBER)]
    cls = build_class("C", features, [Flow(FlowKind.DATA, "m", "m2")])
    assert codes(build_model([cls])) == [Code.E_DF_ENDPOINT]


def test_const_write_by_non_constructor():
    features = [
        feat("k", FeatureKind.MEMBER, is_const=True),
        feat("f", FeatureKind.METHOD),
    ]
    cls = build_class("C", features, [Flow(FlowKind.DATA, "f", "k")])
    assert codes(build_model([cls])) == [Code.E_CONST_WRITE]


def test_const_write_by_constructor_is_clean():
    features = [
        feat("k", FeatureKind.MEMBER, is_const=True),
        feat("ctor", FeatureKind.METHOD, is_constructor=True),
    ]
    cls = build_class("C", features, [Flow(FlowKind.DATA, "ctor", "k")])
    assert codes(build_model([cls])) == []


def test_const_read_never_fires():
    features = [
        feat("k", FeatureKind.MEMBER, is_const=True),
        feat("f", FeatureKind.METHOD),
    ]
    cls = build_class("C", features, [Flow(FlowKind.DATA, "k", "f")])
    assert codes(build_model([cls])) == []


def test_private_interface_method():
    cls = build_class("C", [feat("api", FeatureKind.INTERFACE_METHOD)], [])
    assert codes(build_model([cls])) == [Code.E_IFACE_VIS]


def test_public_plain_method():
    cls = build_class("C", [feat("f", FeatureKind.METHOD, Visibility.PUBLIC)], [])
    assert codes(build_model([cls])) == [Code.E_METHOD_VIS]


def test_dangling_ref_via_direct_construction():
    cls = OcdfClass(name="C", features=(feat("f", FeatureKind.METHOD),),
                    flows=(Flow(FlowKind.DATA, "f", "ghost"),))
    assert codes(OcdfModel(classes=(cls,))) == [Code.E_DANGLING_REF]


def test_dangling_flow_reports_no_endpoint_kinds():
    # only the dangling ref is reported, not a spurious endpoint-kind finding
    cls = OcdfClass(name="C", features=(feat("m", FeatureKind.MEMBER),),
                    flows=(Flow(FlowKind.CONTROL, "m", "ghost"),))
    assert codes(OcdfModel(classes=(cls,))) == [Code.E_DANGLING_REF]


def test_duplicate_id_via_direct_construction():
    cls = OcdfClass(name="C", features=(feat("x", FeatureKind.MEMBER),
                                        feat("x", FeatureKind.MEMBER)))
    assert codes(OcdfModel(classes=(cls,))) == [Code.E_DUP_ID]


def test_findings_sorted_by_class_code_subjects():
    bad_b = build_class("B", small_class(), [Flow(FlowKind.CONTROL, "m", "f")])
    bad_a = build_class("A", [feat("api", FeatureKind.INTERFACE_METHOD),
                              feat("f", FeatureKind.METHOD, Visibility.PUBLIC)], [])
    model = build_model([bad_b, bad_a])
    found = validate(model)
    assert [d.code for d in found] == [Code.E_IFACE_VIS, Code.E_METHOD_VIS,
                                       Code.E_CF_ENDPOINT]
    assert [d.subjects[0].class_name for d in found] == ["A", "A", "B"]


def test_validate_is_deterministic():
    cls = build_class("C", small_class(), [Flow(FlowKind.CONTROL, "m", "f"),
                                           Flow(FlowKind.DATA, "m", "f")])
    model = build_model([cls])
    assert validate(model) == validate(model)


def test_monotonic_under_added_violation():
    rng = random.Random(99)
    for _ in range(25):
        cls = random_valid_class(rng)
        before = validate_class(cls)
        members = [f for f in cls.features if f.kind is FeatureKind.MEMBER]
        methods = [f for f in cls.features if f.kind is not FeatureKind.MEMBER]
        if not members or not methods:
            continue
        bad = Flow(FlowKind.CONTROL, members[0].id, methods[0].id)
        worse = OcdfClass(cls.name, cls.features, cls.flows + (bad,))
        after = validate_class(worse)
        assert set(before) <= set(after)
        assert len(after) == len(before) + 1


def test_explain_const_write_mentions_rule_words():
    text = explain(Code.E_CONST_WRITE)
    assert "constructors" in text and "constant" in text


def test_explain_cf_endpoint_mentions_method():
    assert "method" in explain(Code.E_CF_ENDPOINT)


def test_explain_accepts_strings():
    assert explain("E_DUP_ID")


def test_explain_unknown_code():
    with pytest.raises(ModelError) as err:
        explain("E_XYZ")
    assert err.value.diagnostics[0].code == Code.E_BAD_ENUM


def test_every_code_has_rule_text():
    for code in Code:
        assert explain(code)


# the set-indexed constraint walk against the reference validator in oracles.py

DIFFERENTIAL = settings(derandomize=True, max_examples=100, deadline=None, database=None)


def assert_same_findings(model: OcdfModel) -> None:
    for cls in model.classes:
        assert _validate_class(cls) == reference_validate(cls)


def loaded_with_problems(doc: dict) -> OcdfModel:
    """The model of a document as the reference loader builds it, keeping
    repeated ids and dangling flows instead of raising on them."""
    return _RefLoader().model(doc)


@DIFFERENTIAL
@given(st.integers(0, 2**32))
def test_generated_models_validate_alike(seed):
    assert_same_findings(random_valid_model(random.Random(seed)))


@DIFFERENTIAL
@given(st.integers(0, 2**32), st.sampled_from([None, *MUTATIONS]))
def test_mutated_models_validate_alike(seed, also):
    """Each one-field mutation of the loader's differential test on its own,
    then with a second one on top."""
    rng = random.Random(seed)
    for mutation in MUTATIONS:
        doc = document(seed)
        mutate(doc, mutation, rng)
        if also is not None:
            mutate(doc, also, rng)
        assert_same_findings(loaded_with_problems(doc))


def D(source, target):
    return Flow(FlowKind.DATA, source, target)


def C(source, target):
    return Flow(FlowKind.CONTROL, source, target)


VALIDATOR_CASES = {
    # name: (class, the codes it must yield)
    "repeated_id_member_then_method": (OcdfClass("C", (
        feat("x", FeatureKind.MEMBER, is_const=True), feat("x", FeatureKind.METHOD),
        feat("m", FeatureKind.MEMBER), feat("k", FeatureKind.MEMBER, is_const=True),
        feat("f", FeatureKind.METHOD)),
        (C("x", "x"), D("x", "m"), D("m", "x"), D("x", "k"), D("f", "x"))),
        [Code.E_DUP_ID, Code.E_CONST_WRITE]),
    "repeated_id_method_then_member": (OcdfClass("C", (
        feat("x", FeatureKind.METHOD), feat("x", FeatureKind.MEMBER, is_const=True),
        feat("m", FeatureKind.MEMBER), feat("f", FeatureKind.METHOD)),
        (C("x", "f"), D("x", "m"), D("f", "x"))),
        [Code.E_DUP_ID, Code.E_CF_ENDPOINT, Code.E_DF_ENDPOINT, Code.E_CONST_WRITE]),
    "constructor_writes_const_member": (OcdfClass("C", (
        feat("k", FeatureKind.MEMBER, is_const=True),
        feat("init", FeatureKind.METHOD, is_constructor=True),
        feat("run", FeatureKind.INTERFACE_METHOD, Visibility.PUBLIC, is_constructor=True),
        feat("f", FeatureKind.METHOD)),
        (D("init", "k"), D("run", "k"), D("k", "f"))),
        []),
    "dangling_endpoint": (OcdfClass("C", (
        feat("m", FeatureKind.MEMBER), feat("k", FeatureKind.MEMBER, is_const=True),
        feat("f", FeatureKind.METHOD)),
        (C("m", "ghost"), D("ghost", "k"), D("f", "ghost"), D("f", "k"), C("m", "f"))),
        [Code.E_DANGLING_REF, Code.E_DANGLING_REF, Code.E_DANGLING_REF,
         Code.E_CONST_WRITE, Code.E_CF_ENDPOINT]),
}


@pytest.mark.parametrize("case", VALIDATOR_CASES)
def test_hand_built_classes_validate_alike(case):
    cls, expected = VALIDATOR_CASES[case]
    found = _validate_class(cls)
    assert found == reference_validate(cls)
    assert [d.code for d in found] == expected
