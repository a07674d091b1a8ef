"""Empirical growth of stages on input shapes the benchmark workloads never
generate (after Goldsmith, Aiken and Wilkerson, "Measuring Empirical
Computational Complexity", ESEC/FSE 2007). Each shape runs at n and at 4n;
the best of 3 CPU times must grow by less than 8 times, where a linear
stage gives about 4 and a quadratic one about 16. Each stage as it stood
before it was made linear fails here, with a ratio near 20."""

import gc
import time

import pytest

from ocdf.minioo import extract, parse
from ocdf.model import Feature, FeatureKind, OcdfClass
from ocdf.render import render_dot

RUNS = 3
MAX_RATIO = 8


def _cpu_seconds(call) -> float:
    """Best of RUNS, with the cyclic collector off: its passes over
    everything alive grow with the input, not with the stage's work."""
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(RUNS):
            start = time.process_time()
            call()
            best = min(best, time.process_time() - start)
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
    """Extraction of the last class of one chain of n classes."""
    source = "class A0 { private int f0; }\n" + "".join(
        f"class A{i} : A{i - 1} {{ private int f{i}; }}\n" for i in range(1, n))
    program = parse(source)
    return lambda: extract(program, f"A{n - 1}")


@pytest.mark.parametrize("shape, n", [(_colliding_ids, 1000), (_inheritance_chain, 2000)])
def test_stage_grows_near_linearly(shape, n):
    small, large = _cpu_seconds(shape(n)), _cpu_seconds(shape(4 * n))
    assert large < MAX_RATIO * max(small, 1e-3), (small, large)
