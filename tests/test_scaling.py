"""Empirical growth of stages on input shapes the benchmark workloads never
generate (after Goldsmith, Aiken and Wilkerson, "Measuring Empirical
Computational Complexity", ESEC/FSE 2007). Each shape runs at n and at 4n;
the best of 3 CPU times must grow by less than 8 times, where a linear
stage gives about 4 and a quadratic one about 16. Each stage as it stood
before it was made linear fails here: node ids and class lookup with a
ratio near 20, the race report's entry points near 13. The component merge
of `substructures` fails the balanced-merge shape when it ignores which
component is the smaller. The other shapes guard stages that have been
near-linear all along."""

import gc
import io
import os
import sys
import time

import pytest

from ocdf import deserialize, serialize
from ocdf.analysis import detect_races, substructures
from ocdf.cli import main
from ocdf.diagnostics import MiniOoError
from ocdf.minioo import extract, parse
from ocdf.minioo.ast import Program
from ocdf.model import Feature, FeatureKind, Flow, FlowKind, OcdfClass, OcdfModel, Visibility
from ocdf.render import render_dot, render_model_dot
from ocdf.validator import validate

RUNS = 3
MAX_RATIO = 8


def _cpu_seconds(*calls) -> list[float]:
    """Best of RUNS for each call, with the cyclic collector off: its passes
    over everything alive grow with the input, not with the stage's work.
    The calls take turns, so a slow spell of a shared host falls on every
    size alike instead of on the runs of one."""
    best = [float("inf")] * len(calls)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(RUNS):
            for i, call in enumerate(calls):
                start = time.process_time()
                call()
                best[i] = min(best[i], time.process_time() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def _colliding_ids(n: int):
    """A class of n features whose one-character CJK ids all sanitize to
    the DOT id `_`, so each takes the next free suffix."""
    cls = OcdfClass("C", tuple(Feature(chr(0x4E00 + i), FeatureKind.MEMBER, chr(0x4E00 + i))
                               for i in range(n)))
    return lambda: render_dot(cls)


def _inheritance_chain(n: int):
    """Extraction of the last class of one chain of n classes. At n = 10000
    the small run takes about 13 ms on a shared 2-vCPU VM, well clear of
    timer noise; at 2000 it took 2 ms and failed now and then. The chain
    is built from one parsed link: parsing the whole source would take far
    longer than the extraction it sets up."""
    root, link = parse("class A0 { private int f0; }\n"
                       "class A1 : A0 { private int f1; }\n").classes
    field = link.fields[0]
    program = Program((root, *(link._replace(name=f"A{i}", parent=f"A{i - 1}",
                                             fields=(field._replace(name=f"f{i}"),))
                               for i in range(1, n))))
    return lambda: extract(program, f"A{n - 1}")


def _race_class(n: int) -> OcdfClass:
    """n + 1 interface methods q_i and n members m_i, each written by q_i
    and q_(i+1): n hazards, each with two entry points out of n + 1."""
    methods = [Feature(f"q{i}", FeatureKind.INTERFACE_METHOD, f"q{i}",
                       visibility=Visibility.PUBLIC) for i in range(n + 1)]
    members = [Feature(f"m{i}", FeatureKind.MEMBER, f"m{i}") for i in range(n)]
    flows = [Flow(FlowKind.DATA, f"q{i + d}", f"m{i}") for i in range(n) for d in (0, 1)]
    return OcdfClass("C", (*methods, *members), tuple(flows))


def _race_chain(n: int):
    cls = _race_class(n)
    return lambda: detect_races(cls)


def _shared_id_classes(n: int):
    """One document of n classes with the same feature ids, whose names
    sanitize alike in pairs (`C-i` and `C_i`), loaded and rendered."""
    features = (Feature("x", FeatureKind.MEMBER, "x"),
                Feature("run", FeatureKind.INTERFACE_METHOD, "run", visibility=Visibility.PUBLIC))
    flows = (Flow(FlowKind.DATA, "x", "run"),)
    document = serialize(OcdfModel(tuple(OcdfClass(f"C{'-_'[i % 2]}{i // 2}", features, flows)
                                         for i in range(n))))
    return lambda: render_model_dot(deserialize(document))


def _parse_errors(n: int):
    """A MiniOO class of n members that each lack a name: n parse errors."""
    source = "class C {\n" + "  private int ;\n" * n + "}\n"

    def run():
        with pytest.raises(MiniOoError):
            parse(source)
    return run


def _all_findings(n: int):
    """n data flows between members, every one an E_DF_ENDPOINT finding."""
    members = tuple(Feature(f"m{i}", FeatureKind.MEMBER, f"m{i}") for i in range(n + 1))
    flows = tuple(Flow(FlowKind.DATA, f"m{i}", f"m{i + 1}") for i in range(n))
    model = OcdfModel((OcdfClass("C", members, flows),))
    return lambda: validate(model)


def _control_cycle(n: int):
    """A control cycle through n methods, entered from two interface
    methods, with a member written at one end and read at the other."""
    features = (Feature("x", FeatureKind.MEMBER, "x"),
                *(Feature(q, FeatureKind.INTERFACE_METHOD, q, visibility=Visibility.PUBLIC)
                  for q in "AB"),
                *(Feature(f"c{i}", FeatureKind.METHOD, f"c{i}") for i in range(n)))
    flows = (*(Flow(FlowKind.CONTROL, f"c{i}", f"c{(i + 1) % n}") for i in range(n)),
             Flow(FlowKind.CONTROL, "A", "c0"), Flow(FlowKind.CONTROL, "B", f"c{n // 2}"),
             Flow(FlowKind.DATA, f"c{n - 1}", "x"), Flow(FlowKind.DATA, "x", "c5"))
    cls = OcdfClass("C", features, flows)
    return lambda: (detect_races(cls), substructures(cls))


def _balanced_merges(n: int):
    """Substructures of n methods joined into one component by flows that
    alternate in direction between the growing component and a new method:
    a merge that always moves one fixed side, whatever the sizes, moves the
    whole component on every other flow."""
    features = tuple(Feature(f"c{i}", FeatureKind.METHOD, f"c{i}") for i in range(n))
    flows = tuple(Flow(FlowKind.CONTROL, *((f"c{i}", "c0") if i % 2 else ("c0", f"c{i}")))
                  for i in range(1, n))
    cls = OcdfClass("C", features, flows)
    return lambda: substructures(cls)


def _analyze_json(n: int):
    """`analyze --format json` on the race class, read from standard input."""
    document = serialize(OcdfModel((_race_class(n),)))

    def run():
        stdin = sys.stdin
        sys.stdin = io.TextIOWrapper(io.BytesIO(document))
        try:
            assert main(["analyze", "--format", "json", "--output", os.devnull, "-"]) == 0
        finally:
            sys.stdin = stdin
    return run


@pytest.mark.parametrize("shape, n", [
    (_colliding_ids, 1000), (_inheritance_chain, 10000), (_race_chain, 1000),
    (_shared_id_classes, 500), (_parse_errors, 1000), (_all_findings, 2000),
    (_control_cycle, 2000), (_balanced_merges, 4000), (_analyze_json, 500)])
def test_stage_grows_near_linearly(shape, n):
    small, large = _cpu_seconds(shape(n), shape(4 * n))
    assert large < MAX_RATIO * max(small, 1e-3), (small, large)
