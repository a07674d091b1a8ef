"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

import io
import random
import sys
import time

from ocdf import deserialize, serialize
from ocdf.analysis import detect_races, substructures
from ocdf.cli import main
from ocdf.diagnostics import Code
from ocdf.dotcheck import check_dot
from ocdf.minioo import extract, extract_lazy_inherited
from ocdf.model import (
    Feature,
    FeatureKind,
    Flow,
    FlowKind,
    OcdfClass,
    Visibility,
    build_class,
    build_model,
)
from ocdf.render import AbstractionLevel, project, render_dot
from ocdf.validator import validate

from corpus_util import GOLDEN_DIR, corpus_classes
from generators import random_valid_class, random_valid_model
from oracles import brute_components, brute_race_members, interpreted_flows


def _report(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")


def _member(fid, **kw):
    return Feature(id=fid, kind=FeatureKind.MEMBER, name=fid, decl="int", **kw)


def _method(fid, **kw):
    kw.setdefault("visibility", Visibility.PRIVATE)
    return Feature(id=fid, kind=FeatureKind.METHOD, name=fid, decl=f"{fid}()", **kw)


def _iface(fid, **kw):
    kw.setdefault("visibility", Visibility.PUBLIC)
    return Feature(id=fid, kind=FeatureKind.INTERFACE_METHOD, name=fid,
                   decl=f"{fid}()", **kw)


def _codes(cls):
    return [d.code for d in validate(build_model([cls]))]


def test_criterion_1_constraint_suite():
    started = time.perf_counter()
    base = [_member("m"), _member("m2"), _method("f"), _method("g"), _iface("run"),
            _member("k", is_const=True), _method("ctor", is_constructor=True)]

    golden = [
        # (features, flows, expected codes)
        (base, [Flow(FlowKind.CONTROL, "m", "f")], [Code.E_CF_ENDPOINT]),
        (base, [Flow(FlowKind.CONTROL, "f", "g")], []),
        (base, [Flow(FlowKind.DATA, "f", "k")], [Code.E_CONST_WRITE]),
        (base, [Flow(FlowKind.DATA, "ctor", "k")], []),
        (base, [Flow(FlowKind.DATA, "m", "m2")], [Code.E_DF_ENDPOINT]),
        (base, [Flow(FlowKind.DATA, "m", "f")], []),
        ([_iface("api", visibility=Visibility.PRIVATE)], [], [Code.E_IFACE_VIS]),
        ([_iface("api")], [], []),
        ([_method("f", visibility=Visibility.PUBLIC)], [], [Code.E_METHOD_VIS]),
        ([_method("f")], [], []),
    ]
    assert len(golden) == 10
    for features, flows, expected in golden:
        assert _codes(build_class("C", features, flows)) == expected
    _report(1, "five constraints, 10 golden cases", started, budget=1.0)


def test_criterion_2_roundtrip_200_models():
    started = time.perf_counter()
    rng = random.Random(0xC0FFEE)
    for _ in range(200):
        model = random_valid_model(rng)
        data = serialize(model)
        assert serialize(model) == data, "serialize must be byte-deterministic"
        assert deserialize(data) == model, "roundtrip must reproduce the model"
        assert validate(model) == [], "generated models must be diagnostic-free"
    _report(2, "200 randomized models roundtrip byte-stably", started, budget=5.0)


def test_criterion_3_extraction_matches_interpreter():
    started = time.perf_counter()
    triples = corpus_classes()
    assert len(triples) >= 20, "corpus must hold at least 20 classes"
    for _, program, name in triples:
        decl = next(c for c in program.classes if c.name == name)
        assert len(decl.methods) <= 5, f"{name}: corpus classes stay small"

        cls = extract(program, name)
        members = [f for f in cls.features if f.kind is FeatureKind.MEMBER]
        methods = [f for f in cls.features if f.kind is not FeatureKind.MEMBER]
        assert len(members) == len(decl.fields), f"{name}: member correspondence"
        assert len(methods) == len(decl.methods), f"{name}: method correspondence"

        for lazy in (False, True):
            extractor = extract_lazy_inherited if lazy else extract
            got = {(f.kind.value, f.source, f.target)
                   for f in extractor(program, name).flows}
            want = interpreted_flows(program, name, include_inherited=lazy)
            assert got == want, f"{name} lazy={lazy}: flow sets must agree"
    _report(3, f"extraction equals interpreter oracle on {len(triples)} classes",
            started, budget=10.0)


def test_criterion_4_level_projection():
    started = time.perf_counter()
    checked = 0
    for _, program, name in corpus_classes():
        for cls in (extract(program, name), extract_lazy_inherited(program, name)):
            members = {f.id for f in cls.features if f.kind is FeatureKind.MEMBER}
            l1 = project(cls, AbstractionLevel.L1)
            l2 = project(cls, AbstractionLevel.L2)
            l3 = project(cls, AbstractionLevel.L3)
            e1 = {f.key() for f in l1.flows}
            e2 = {f.key() for f in l2.flows}
            e3 = {f.key() for f in l3.flows}
            assert e1 <= e2 <= e3
            assert all(kind is FlowKind.DATA and (src in members or tgt in members)
                       for kind, src, tgt in e1)
            assert e1 == {k for k in e3
                          if k[0] is FlowKind.DATA and (k[1] in members or k[2] in members)}
            assert e2 == e1 | {k for k in e3 if k[0] is FlowKind.CONTROL}
            assert l3 == cls
            assert l1.features == l2.features == l3.features == cls.features
            checked += 1
    _report(4, f"L1 within L2 within L3 across {checked} corpus models",
            started, budget=10.0)


def test_criterion_5_substructures_against_union_find():
    started = time.perf_counter()
    rng = random.Random(0xBEEF)
    for _ in range(100):
        cls = random_valid_class(rng, max_features=15)
        components = substructures(cls).components
        assert {frozenset(c) for c in components} == brute_components(cls)

        base_count = len(components)
        features = cls.feature_map()
        for source in features.values():
            for target in features.values():
                flow = _legal_flow(source, target)
                if flow is None:
                    continue
                grown = OcdfClass(cls.name, cls.features, cls.flows + (flow,))
                assert len(substructures(grown).components) <= base_count
    _report(5, "components equal union-find oracle on 100 random classes",
            started, budget=30.0)


def _legal_flow(source: Feature, target: Feature) -> Flow | None:
    if source.kind is not FeatureKind.MEMBER and target.kind is not FeatureKind.MEMBER:
        return Flow(FlowKind.CONTROL, source.id, target.id)
    if source.kind is FeatureKind.MEMBER and target.kind is FeatureKind.MEMBER:
        return None
    if (target.kind is FeatureKind.MEMBER and target.is_const
            and not source.is_constructor):
        return None
    return Flow(FlowKind.DATA, source.id, target.id)


def test_criterion_6_race_heuristic():
    started = time.perf_counter()

    # const member written only by its constructor: excluded by rule
    quiet = build_class(
        "C",
        [_member("k", is_const=True), _method("ctor", is_constructor=True),
         _iface("a"), _iface("b")],
        [Flow(FlowKind.DATA, "ctor", "k"),
         Flow(FlowKind.CONTROL, "a", "ctor"), Flow(FlowKind.CONTROL, "b", "ctor")],
    )
    assert detect_races(quiet) == []
    assert brute_race_members(quiet) == set()

    # writer and reader reachable from distinct entry points: one hazard
    crossed = build_class(
        "C",
        [_member("x"), _method("f"), _method("g"), _iface("A"), _iface("B")],
        [Flow(FlowKind.DATA, "f", "x"), Flow(FlowKind.DATA, "x", "g"),
         Flow(FlowKind.CONTROL, "A", "f"), Flow(FlowKind.CONTROL, "B", "g")],
    )
    assert [h.member for h in detect_races(crossed)] == ["x"]
    assert brute_race_members(crossed) == {"x"}

    # both writers behind the same single entry point: no hazard
    serial = build_class(
        "C",
        [_member("x"), _method("f"), _method("g"), _iface("A")],
        [Flow(FlowKind.DATA, "f", "x"), Flow(FlowKind.DATA, "g", "x"),
         Flow(FlowKind.CONTROL, "A", "f"), Flow(FlowKind.CONTROL, "A", "g")],
    )
    assert detect_races(serial) == []
    assert brute_race_members(serial) == set()

    # conservativeness: all-const models never race
    rng = random.Random(0xACE)
    candidates = [random_valid_class(rng) for _ in range(50)]
    candidates += [extract_lazy_inherited(p, n) for _, p, n in corpus_classes()]
    for cls in candidates:
        frozen = OcdfClass(
            cls.name,
            tuple(f._replace(is_const=True) if f.kind is FeatureKind.MEMBER else f
                  for f in cls.features),
            cls.flows,
        )
        assert detect_races(frozen) == []
    _report(6, "race examples plus all-const conservativeness", started, budget=10.0)


def test_criterion_7_rendering_goldens():
    started = time.perf_counter()
    goldens = sorted(GOLDEN_DIR.glob("*.dot"))
    assert len(goldens) == 5
    rendered = {}
    for _, program, name in corpus_classes():
        for lazy in (False, True):
            extractor = extract_lazy_inherited if lazy else extract
            cls = extractor(program, name)
            dot = render_dot(cls)
            assert dot == render_dot(cls), "byte-stable across runs"
            assert check_dot(dot) == [], f"{name}: emitted DOT must parse"
            controls = sum(1 for f in cls.flows if f.kind is FlowKind.CONTROL)
            dashed = sum(1 for line in dot.splitlines()
                         if "->" in line and "style=dashed" in line)
            assert dashed == controls, f"{name}: dashed iff control"
            key = f"{name.lower()}_lazy" if lazy else name.lower()
            rendered[key] = dot
    for path in goldens:
        assert rendered[path.stem] == path.read_text(encoding="utf-8"), \
            f"golden {path.name} drifted"
    _report(7, "5 golden DOT files stable, corpus renders parse", started, budget=10.0)


def test_criterion_8_end_to_end_pipeline(tmp_path, capsys, monkeypatch):
    started = time.perf_counter()
    piped = 0
    for path, program, name in corpus_classes():
        code = main(["extract", "--class", name, "--lazy", str(path)])
        document = capsys.readouterr().out
        assert code == 0, f"{path}:{name}: extract failed"

        monkeypatch.setattr(sys, "stdin",
                            io.TextIOWrapper(io.BytesIO(document.encode())))
        code = main(["validate", "-"])
        out = capsys.readouterr()
        assert code == 0, f"{path}:{name}: validate found {out.out!r}"

        monkeypatch.setattr(sys, "stdin",
                            io.TextIOWrapper(io.BytesIO(document.encode())))
        code = main(["render", "-"])
        dot = capsys.readouterr().out
        assert code == 0 and check_dot(dot) == []
        piped += 1
    _report(8, f"extract|validate|render clean on {piped} corpus classes",
            started, budget=5.0)
