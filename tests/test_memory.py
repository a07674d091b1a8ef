"""A stage holds one input's model plus one chunk of its output: no whole
copy of a report beside its records, one copy of a serialized document, and
one string per distinct identifier in a token list. A load holds no whole
JSON tree of a large document, and a parse no token it has passed. Peaks
are measured with `tracemalloc`, which counts only what is allocated while
it traces."""

import errno
import io
import os
import random
import sys
import tracemalloc

from ocdf import build_model, deserialize, serialize
from ocdf.analysis import detect_races, substructures
from ocdf.cli import main
from ocdf.minioo.lexer import IDENT, KEYWORD, tokenize
from ocdf.minioo.parser import parse

from generators import random_minioo_source, random_valid_class, wide_race_class

MIB = 1 << 20


def _peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _wide_document(tmp_path):
    path = tmp_path / "wide.json"
    path.write_bytes(serialize(build_model([wide_race_class(2000, 90)])))
    return path


def test_analyze_holds_its_records_and_one_chunk_of_the_report(tmp_path):
    document = _wide_document(tmp_path)
    target = tmp_path / "report.txt"
    argv = ["analyze", "--output", str(target), str(document)]
    assert main(argv) == 0  # imports the analyze stage
    report = target.stat().st_size
    assert report >= MIB

    def load_and_analyse():
        return [(cls, substructures(cls), detect_races(cls))
                for cls in deserialize(document.read_bytes()).classes]

    analysed = _peak(load_and_analyse)
    written = _peak(lambda: main(argv))
    assert written < analysed + report / 2, (written, analysed, report)


def test_serialize_holds_one_copy_of_the_document():
    model = build_model([random_valid_class(random.Random(5), max_features=10000)])
    document = serialize(model)
    assert len(document) >= MIB // 2
    assert _peak(lambda: serialize(model)) < 2 * len(document)


def test_deserialize_holds_no_whole_json_tree_of_a_large_document():
    """The parsed JSON of a document takes several times its bytes; each
    record is built as `json.loads` reads it, so no dict per record is kept,
    and a load holds the decoded text and the records."""
    document = serialize(build_model([random_valid_class(random.Random(5), max_features=20000)]))
    assert len(document) >= MIB
    assert _peak(lambda: deserialize(document)) < 5 * len(document)


def test_parse_holds_no_token_it_has_passed():
    """A parse starts from the whole token list and lets go of the tokens
    behind it as the tree grows, so it peaks near `tokenize`'s own peak."""
    rng = random.Random(7)
    source = "".join(random_minioo_source(rng) for _ in range(300))
    assert len(tokenize(source)) >= 50_000
    assert _peak(lambda: parse(source)) < 1.25 * _peak(lambda: tokenize(source))


def test_tokenize_returns_one_string_per_identifier_text():
    source = ("class Counter { private int count; public int next() { return this.count; }\n"
              "  public int éclair() { return this.next(); } }\n") * 3
    texts = {}
    for kind, text, _, _ in tokenize(source):
        if kind is IDENT or kind is KEYWORD:
            texts.setdefault(text, set()).add(id(text))
    assert {"Counter", "count", "next", "éclair", "return", "this"} <= texts.keys()
    assert all(len(ids) == 1 for ids in texts.values()), texts


class _BreaksAfterOneWrite(io.RawIOBase):
    """A pipe whose reader goes away after the first write: each later write
    fails as a closed pipe does. Its descriptor is that of `sink`, so the CLI
    can point it at os.devnull."""

    def __init__(self, sink) -> None:
        self.sink = sink
        self.writes: list[int] = []
        self.broken = True

    def writable(self) -> bool:
        return True

    def fileno(self) -> int:
        return self.sink.fileno()

    def write(self, data) -> int:
        if self.writes and self.broken:
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        self.writes.append(len(data))
        return len(data)


def test_a_broken_pipe_after_the_first_chunk_ends_the_report(tmp_path, capsys, monkeypatch):
    document = _wide_document(tmp_path)
    with open(tmp_path / "sink", "wb") as sink:
        pipe = _BreaksAfterOneWrite(sink)
        stdout = io.TextIOWrapper(io.BufferedWriter(pipe), encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            code = main(["analyze", str(document)])
        finally:
            pipe.broken = False  # what is still buffered may go when it closes
            monkeypatch.undo()
            stdout.close()
    assert code == 2
    assert capsys.readouterr().err == "error: cannot write -: [Errno 32] Broken pipe\n"
    assert len(pipe.writes) == 1 and 0 < pipe.writes[0] < MIB
