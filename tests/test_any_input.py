"""The exit-code contract on any input: every subcommand exits with 0, 1 or
2 and never reports an internal error, on arbitrary bytes, on valid model
documents with hostile leaves, and on mutated MiniOO sources.

`main` runs in-process with standard input as the input and UTF-8 output
streams that encode as a real process's do, so text the program cannot
write fails here as it would on a terminal.
"""

import contextlib
import io
import json
import random
import sys

from hypothesis import example, given, settings, strategies as st

from ocdf import serialize
from ocdf.cli import main
from ocdf.minioo import parse

from corpus_util import corpus_files
from generators import mutate_source, random_minioo_source, random_valid_model

ANY_INPUT = settings(derandomize=True, max_examples=60, deadline=None, database=None)

DOCUMENT_COMMANDS = [
    ["validate"], ["validate", "--format", "json"],
    ["analyze"], ["analyze", "--format", "json"],
    ["render"], ["render", "--level", "L1", "--rankdir", "lr", "--no-inherited"],
]
COMMANDS = [["extract"], ["extract", "--lazy"], *DOCUMENT_COMMANDS]

# Raw JSON text put in place of a value of a valid document.
HOSTILE_LEAVES = [
    "9" * 5000, "-" + "1" * 4301,                  # past int()'s digit limit
    '"\\ud800"', '"x\\udfff"', '"\\udbff\\udbff"',  # unpaired surrogate escapes
    '"\\ud83d\\ude00"', '"\\\\ud800"',              # a pair; an escaped backslash
    "NaN", "-Infinity", "1e999", "0.5", "-0",
    "[" * 40 + "]" * 40, "[" * 5000 + "]" * 5000,  # deep lists
    "null", "true", "[]", "{}", '""', '"member"', '"interface_method"',
    '"a\\nb"', '"\\u0000"', '"\\"}{\\\\"', '"\\u00e9\\u53d8"',
]
SOURCES = [path.read_text(encoding="utf-8") for path in corpus_files()]


def run(argv: list[str], data: bytes) -> tuple[int, str, str]:
    """`ocdf ARGV -` on `data`: (exit code, stdout, stderr)."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "-"])
    finally:
        sys.stdin = saved
    stdout.flush()
    stderr.flush()
    return (code, stdout.buffer.getvalue().decode("utf-8"),
            stderr.buffer.getvalue().decode("utf-8"))


def check(argv: list[str], data: bytes) -> str:
    code, out, err = run(argv, data)
    assert code in (0, 1, 2), (argv, code, err)
    assert "internal error" not in err, (argv, err)
    assert (code == 2) == bool(err), (argv, code, err)
    return out


def with_hostile_leaves(seed: int, edits: list[tuple[int, str]]) -> bytes:
    """A random valid document with some of its values, containers
    included, replaced by raw JSON text."""
    doc = json.loads(serialize(random_valid_model(random.Random(seed))))
    slots = []  # (container, key) of every value below the root

    def collect(node):
        for key in (node if isinstance(node, dict) else range(len(node))):
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                collect(node[key])

    collect(doc)
    raw = {}
    for index, leaf in edits:
        container, key = slots[index % len(slots)]
        marker = f"\x00{len(raw)}\x00"
        raw[json.dumps(marker)] = leaf
        container[key] = marker
    text = json.dumps(doc)
    for marker, leaf in raw.items():
        text = text.replace(marker, leaf, 1)
    return text.encode("utf-8")


@ANY_INPUT
@given(st.binary(max_size=300))
def test_any_bytes(data):
    for argv in COMMANDS:
        check(argv, data)


@ANY_INPUT
@given(st.integers(0, 2**32),
       st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(HOSTILE_LEAVES)),
                min_size=1, max_size=4))
@example(1, [(0, "9" * 5000)])                 # format_version
@example(1, [(3, '"\\ud800"')])               # the first class's name
def test_any_document(seed, edits):
    data = with_hostile_leaves(seed, edits)
    for argv in DOCUMENT_COMMANDS:
        check(argv, data)


@ANY_INPUT
@given(st.integers(0, 2**32), st.integers(-1, len(SOURCES) - 1), st.integers(1, 6))
def test_any_mutated_source(seed, which, edits):
    rng = random.Random(seed)
    source = SOURCES[which] if which >= 0 else random_minioo_source(rng)
    names = [cls.name for cls in parse(source).classes]
    data = mutate_source(rng, source, edits).encode("utf-8")
    for argv in [*COMMANDS, ["extract", "--lazy", "--class", rng.choice(names)]]:
        document = check(argv, data)
        if argv[0] == "extract" and document:
            for more in DOCUMENT_COMMANDS:
                check(more, document.encode("utf-8"))
