import random

import pytest
from hypothesis import given, settings, strategies as st

from ocdf.analysis import (
    AbstractionLevel,
    _leading,
    _name_token,
    detect_races,
    project,
    substructures,
)
from ocdf.model import (
    Feature,
    FeatureKind,
    Flow,
    FlowKind,
    OcdfClass,
    Visibility,
    build_class,
)

from generators import random_valid_class
from oracles import (
    brute_components,
    brute_race_members,
    reference_races,
    reference_substructures,
)


def member(fid, **kw):
    return Feature(id=fid, kind=FeatureKind.MEMBER, name=fid, decl="int", **kw)


def method(fid, **kw):
    kw.setdefault("visibility", Visibility.PRIVATE)
    return Feature(id=fid, kind=FeatureKind.METHOD, name=fid, **kw)


def iface(fid, **kw):
    return Feature(id=fid, kind=FeatureKind.INTERFACE_METHOD, name=fid,
                   visibility=Visibility.PUBLIC, **kw)


def edge_set(cls):
    return {(f.kind.value, f.source, f.target) for f in cls.flows}


MIXED = build_class(
    "C",
    [member("m"), method("f"), method("g")],
    [Flow(FlowKind.DATA, "m", "f"),
     Flow(FlowKind.CONTROL, "f", "g"),
     Flow(FlowKind.DATA, "f", "g")],
)


def test_l3_is_identity():
    assert project(MIXED, AbstractionLevel.L3) == MIXED


def test_l1_keeps_only_member_incident_data_flows():
    cls = project(MIXED, AbstractionLevel.L1)
    assert edge_set(cls) == {("data", "m", "f")}
    assert cls.features == MIXED.features


def test_l2_adds_control_flows():
    cls = project(MIXED, AbstractionLevel.L2)
    assert edge_set(cls) == {("data", "m", "f"), ("control", "f", "g")}


def test_projection_monotone_on_random_classes():
    rng = random.Random(4242)
    for _ in range(40):
        cls = random_valid_class(rng)
        l1 = project(cls, AbstractionLevel.L1)
        l2 = project(cls, AbstractionLevel.L2)
        l3 = project(cls, AbstractionLevel.L3)
        assert edge_set(l1) <= edge_set(l2) <= edge_set(l3)
        assert l1.features == l2.features == l3.features == cls.features
        assert l3 == cls


def test_two_disjoint_pairs():
    cls = build_class(
        "C",
        [member("a"), method("f"), member("b"), method("g")],
        [Flow(FlowKind.DATA, "a", "f"), Flow(FlowKind.DATA, "b", "g")],
    )
    report = substructures(cls)
    assert set(report.components) == {("a", "f"), ("b", "g")}


def test_fully_connected_is_one_component():
    cls = build_class(
        "C",
        [member("a"), method("f"), method("g")],
        [Flow(FlowKind.DATA, "a", "f"), Flow(FlowKind.CONTROL, "f", "g")],
    )
    assert len(substructures(cls).components) == 1


def test_singletons_form_singleton_components():
    cls = build_class("C", [member("a"), method("f")], [])
    assert set(substructures(cls).components) == {("a",), ("f",)}


def test_components_match_union_find_oracle_randomized():
    rng = random.Random(555)
    for _ in range(60):
        cls = random_valid_class(rng, max_features=12)
        got = {frozenset(c) for c in substructures(cls).components}
        assert got == brute_components(cls)


def test_components_partition_features():
    rng = random.Random(556)
    for _ in range(30):
        cls = random_valid_class(rng)
        components = substructures(cls).components
        ids = [i for c in components for i in c]
        assert sorted(ids) == sorted(f.id for f in cls.features)


def test_cut_suggestions_pair_nominally_related_components():
    cls = build_class(
        "C",
        [member("cache_size"), iface("cache_grow"),
         member("paint_color"), iface("paint_all"),
         iface("cache_trim")],
        [Flow(FlowKind.DATA, "cache_size", "cache_grow"),
         Flow(FlowKind.DATA, "paint_color", "paint_all"),
         Flow(FlowKind.DATA, "paint_color", "cache_trim")],
    )
    report = substructures(cls)
    assert len(report.components) == 2
    ((pair, count),) = report.cut_suggestions
    assert pair == (0, 1)
    # cache_size+cache_grow vs cache_trim share the "cache" token twice
    assert count == 2


def test_cut_suggestions_sorted_by_affinity():
    cls = build_class(
        "C",
        [member("load_a"), member("load_b"), member("load_c"),
         member("sync_x"), method("other")],
        [Flow(FlowKind.DATA, "load_a", "other"),
         Flow(FlowKind.DATA, "load_b", "other")],
    )
    report = substructures(cls)
    counts = [count for _, count in report.cut_suggestions]
    assert counts == sorted(counts, reverse=True)


# race detection

def test_const_member_never_races():
    cls = build_class(
        "C",
        [member("k", is_const=True), method("ctor", is_constructor=True),
         iface("a"), iface("b")],
        [Flow(FlowKind.DATA, "ctor", "k"),
         Flow(FlowKind.CONTROL, "a", "ctor"),
         Flow(FlowKind.CONTROL, "b", "ctor")],
    )
    assert detect_races(cls) == []
    assert brute_race_members(cls) == set()


def test_cross_entry_write_read_conflict():
    cls = build_class(
        "C",
        [member("x"), method("f"), method("g"), iface("A"), iface("B")],
        [Flow(FlowKind.DATA, "f", "x"),
         Flow(FlowKind.DATA, "x", "g"),
         Flow(FlowKind.CONTROL, "A", "f"),
         Flow(FlowKind.CONTROL, "B", "g")],
    )
    hazards = detect_races(cls)
    assert [h.member for h in hazards] == ["x"]
    assert hazards[0].writers == ("f",)
    assert hazards[0].readers == ("g",)
    assert hazards[0].entry_points == ("A", "B")
    assert brute_race_members(cls) == {"x"}


def test_same_entry_double_write_is_not_reported():
    cls = build_class(
        "C",
        [member("x"), method("f"), method("g"), iface("A")],
        [Flow(FlowKind.DATA, "f", "x"),
         Flow(FlowKind.DATA, "g", "x"),
         Flow(FlowKind.CONTROL, "A", "f"),
         Flow(FlowKind.CONTROL, "A", "g")],
    )
    assert detect_races(cls) == []
    assert brute_race_members(cls) == set()


def test_interface_methods_reach_themselves():
    # two public methods touching the same member conflict with no control flows
    cls = build_class(
        "C",
        [member("x"), iface("put"), iface("get")],
        [Flow(FlowKind.DATA, "put", "x"), Flow(FlowKind.DATA, "x", "get")],
    )
    hazards = detect_races(cls)
    assert [h.member for h in hazards] == ["x"]
    assert hazards[0].entry_points == ("get", "put")
    assert brute_race_members(cls) == {"x"}


def test_single_writer_single_entry_clean():
    cls = build_class(
        "C",
        [member("x"), iface("put")],
        [Flow(FlowKind.DATA, "put", "x")],
    )
    assert detect_races(cls) == []


def test_constructor_writes_do_not_count():
    cls = build_class(
        "C",
        [member("x"), iface("ctor", is_constructor=True), iface("get")],
        [Flow(FlowKind.DATA, "ctor", "x"), Flow(FlowKind.DATA, "x", "get")],
    )
    assert detect_races(cls) == []
    assert brute_race_members(cls) == set()


def test_all_const_members_yield_no_hazards():
    rng = random.Random(808)
    for _ in range(30):
        cls = random_valid_class(rng)
        frozen = OcdfClass(
            cls.name,
            tuple(f._replace(is_const=True) if f.kind is FeatureKind.MEMBER else f
                  for f in cls.features),
            cls.flows,
        )
        assert detect_races(frozen) == []


def test_races_match_oracle_randomized():
    rng = random.Random(909)
    for _ in range(60):
        cls = random_valid_class(rng)
        got = {h.member for h in detect_races(cls)}
        assert got == brute_race_members(cls)


def test_analyses_are_pure():
    rng = random.Random(31)
    cls = random_valid_class(rng)
    assert substructures(cls) == substructures(cls)
    assert detect_races(cls) == detect_races(cls)
    assert project(cls, AbstractionLevel.L1) == project(cls, AbstractionLevel.L1)


# the near-linear analyses against the original quadratic ones, on full reports

def test_analyses_match_reference_on_random_classes():
    rng = random.Random(6061)
    for max_features, count in ((4, 60), (12, 60), (40, 40), (300, 12)):
        for _ in range(count):
            cls = random_valid_class(rng, max_features=max_features)
            assert detect_races(cls) == reference_races(cls)
            assert substructures(cls) == reference_substructures(cls)


def C(cf, ct):
    return Flow(FlowKind.CONTROL, cf, ct)


def D(df, dt):
    return Flow(FlowKind.DATA, df, dt)


RACE_CASES = {
    # name: (class, members expected to carry a hazard)
    "control_cycle": (build_class(
        "C", [member("x"), method("f"), method("g"), method("h"), iface("A"), iface("B")],
        [C("A", "f"), C("f", "g"), C("g", "f"), C("B", "h"),
         D("g", "x"), D("x", "h")]), {"x"}),
    "self_loop": (build_class(
        "C", [member("x"), method("f"), iface("A"), iface("B")],
        [C("A", "f"), C("f", "f"), D("f", "x"), D("x", "B")]), {"x"}),
    "interface_calls_interface": (build_class(
        "C", [member("x"), iface("A"), iface("B")],
        [C("A", "B"), D("B", "x"), D("x", "A")]), {"x"}),
    "constructor_only_writers": (build_class(
        "C", [member("x"), method("init", is_constructor=True), iface("A"), iface("B")],
        [C("A", "init"), C("B", "init"), D("init", "x"), D("x", "A"), D("x", "B")]), set()),
    "const_members": (build_class(
        "C", [member("k", is_const=True), method("f"), method("g"), iface("A"), iface("B")],
        [C("A", "f"), C("B", "g"), D("f", "k"), D("g", "k")]), set()),
    "unreached_writers": (build_class(
        "C", [member("x"), member("y"), method("f"), method("g"), iface("A"), iface("B")],
        [D("f", "x"), D("g", "x"), D("x", "A"), D("f", "y"), D("B", "y"), D("y", "A")]),
        {"y"}),
    "one_entry_reaches_all": (build_class(
        "C", [member("x"), method("f"), method("g"), iface("A")],
        [C("A", "f"), C("f", "g"), D("f", "x"), D("g", "x")]), set()),
    "control_through_a_member": (build_class(
        "C", [member("x"), member("hop"), method("f"), iface("A"), iface("B")],
        [C("A", "hop"), C("hop", "f"), D("f", "x"), D("x", "B")]), {"x"}),
    "dangling_control_endpoint": (OcdfClass(
        "C", (member("x"), method("f"), iface("A"), iface("B")),
        (C("A", "ghost"), C("ghost", "f"), D("f", "x"), D("x", "B"))), {"x"}),
    "repeated_feature_ids": (OcdfClass(
        "C", (member("x"), member("x"), iface("A"), iface("A"), iface("B")),
        (D("A", "x"), D("B", "x"))), {"x"}),
}


@pytest.mark.parametrize("case", RACE_CASES)
def test_analyses_match_reference_on_hand_built_classes(case):
    cls, members = RACE_CASES[case]
    hazards = detect_races(cls)
    assert hazards == reference_races(cls)
    assert {h.member for h in hazards} == members
    ids = {f.id for f in cls.features}
    if all(f.source in ids and f.target in ids for f in cls.flows):
        # substructures, old and new, needs every endpoint to name a feature
        assert substructures(cls) == reference_substructures(cls)


def test_substructures_skip_flows_with_a_dangling_endpoint():
    # detect_races tolerates such a class too; reporting the flow is the
    # validator's job
    cls, _ = RACE_CASES["dangling_control_endpoint"]
    ids = {f.id for f in cls.features}
    kept = tuple(f for f in cls.flows if f.source in ids and f.target in ids)
    report = substructures(cls)
    assert report == reference_substructures(cls._replace(flows=kept))
    assert report.components == (("A",), ("B", "f", "x"))


@pytest.mark.parametrize("cycle", [False, True], ids=["chain", "cycle"])
def test_long_control_graphs_do_not_overflow_the_stack(cycle):
    n = 20_000
    flows = [C(f"c{i}", f"c{i + 1}") for i in range(n - 1)]
    if cycle:
        flows += [C(f"c{n - 1}", "c0"), C("B", f"c{n // 2}"), D("x", "c5")]
    else:
        flows.append(D("x", "B"))
    cls = build_class(
        "C", [member("x"), iface("A"), iface("B"), *(method(f"c{i}") for i in range(n))],
        [C("A", "c0"), D(f"c{n - 1}", "x"), *flows])
    hazards = detect_races(cls)
    assert [(h.member, h.entry_points) for h in hazards] == [("x", ("A", "B"))]
    assert hazards == reference_races(cls)


# leading name tokens: one regular expression for ASCII names

NAME_PARTS = ["", "_", "__", "get", "Get", "GET", "x", "X", "9", "-", " ", "\n",
              "ǅ", "ǆ", "Ǆ", "É", "é", "ß", "ẞ", "İ", "Σ", "变量", "ſ", "K"]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(st.lists(st.sampled_from(NAME_PARTS), max_size=4).map("".join),
                max_size=8))
def test_leading_tokens_are_the_character_loop_tokens(names):
    """The regular expression gives `_name_token`'s token on every ASCII name;
    other names take `_name_token` itself. Leading, trailing and doubled
    underscores, empty names, and upper- and titlecase letters outside ASCII
    (`ǅ`) all occur."""
    for name in names:
        if name.isascii():
            assert _leading(name)[0].lower() == _name_token(name), name
    cls = OcdfClass("C", tuple(Feature(f"f{i}", FeatureKind.MEMBER, name)
                               for i, name in enumerate(names)))
    assert substructures(cls) == reference_substructures(cls)


# a feature id repeated with another kind: the last feature names the id

REPEATED_ID_CASES = {
    # name: (class, members expected to carry a hazard)
    "member_then_method": (OcdfClass(
        "C", (member("x"), method("x"), iface("A"), iface("B"), member("y")),
        (D("A", "x"), D("B", "x"), D("x", "A"), D("x", "y"), D("y", "B"), C("A", "x"))),
        {"x", "y"}),
    "method_then_member": (OcdfClass(
        "C", (method("x"), member("x"), iface("A"), iface("B"), member("y")),
        (D("A", "x"), D("x", "B"), D("x", "y"), D("B", "y"), C("A", "x"))), {"x"}),
    "const_member_then_member": (OcdfClass(
        "C", (member("x", is_const=True), member("x"), iface("A"), iface("B")),
        (D("A", "x"), D("x", "B"))), {"x"}),
}


@pytest.mark.parametrize("case", REPEATED_ID_CASES)
def test_repeated_ids_match_reference(case):
    cls, members = REPEATED_ID_CASES[case]
    hazards = detect_races(cls)
    assert hazards == reference_races(cls)
    assert {h.member for h in hazards} == members
    assert substructures(cls) == reference_substructures(cls)
