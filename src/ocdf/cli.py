"""Command-line front end: parse -> extract -> validate -> analyze -> render.

Subcommands read model documents (or MiniOO source for `extract`) from file
arguments or standard input ("-"). Exit codes: 0 on success with no error
diagnostics, 1 when the validator reports findings, 2 on usage, IO, or
parse/load failures, and also when the program itself fails: an unexpected
exception ends the run with one `error:` line, not a traceback. The cyclic
garbage collector is off for the run (see `main`) and back as it was
afterwards; `run`, the `ocdf` command, also spares the interpreter its
collection at exit.

The output (standard output's bytes, or the `--output` file) is opened
first. Inputs are then read, handled and written one at a time in argument
order, so a run holds one input's work, not every input's. An input that
is also the output file is read before opening truncates it. Output is
UTF-8 whatever the locale. A closed or failing output ends the run with
`error: cannot write ...` and exit 2; a closed or failing stderr loses its
lines but not the exit code.

Each subcommand's handler takes (args, content, path), lets a bad input raise
its `OcdfError`, and returns (exit code, chunks): an iterable of the bytes of
its output, which `_stream` writes one chunk at a time. `content` is a
one-item list holding the input's bytes, and the handler pops them as it
hands them to `deserialize` (or, for `extract`, to the decode). On CPython
3.11 and later a call moves its arguments into the callee's frame, so from
then on only that frame holds the bytes, and `deserialize` lets go of them
once they are decoded. Decoding, loading,
the analyses and serializing run inside the handler, so that `_run_one`
stays the one place where a failed input becomes exit code 2 and its stderr
lines; only the formatting of records already computed runs as the chunks
are drawn. A text report or DOT text goes out about `_CHUNK` characters at
a time, so a run holds one input's model plus one chunk of its output, not
copies of the whole text. A failed input returns no chunks. An exception
raised while the chunks are drawn is an internal error, and may leave that
input's output partly written.

Handlers call the other layers through the package's lazy names: `main`
binds those of its subcommand (`_CALLS`) from `ocdf` as globals of this
module, importing only the modules they live in. A name bound already keeps
its binding, so a caller may rebind one (for tracing, say) before or after
the import; until then, reading one off this module reads it off `ocdf`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
from typing import Iterable, Iterator

import ocdf

from .diagnostics import (MiniOoError, ModelError, OcdfError, _one_line, findings_json,
                          indented_json)

# Subcommand -> the names of `ocdf.__all__` its handler calls.
_CALLS = {
    "extract": ("parse", "extract", "extract_lazy_inherited", "build_model", "serialize"),
    "validate": ("deserialize", "validate"),
    "analyze": ("deserialize", "substructures", "detect_races"),
    "render": ("deserialize", "AbstractionLevel", "RankDir", "RenderOptions",
               "render_model_dot"),
}

_CHUNK = 1 << 16  # characters of text formatted and encoded at a time
_RED = "\x1b[31m"
_YELLOW = "\x1b[33m"
_RESET = "\x1b[0m"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.inputs.count("-") > 1:
        _say("error: standard input ('-') may be given only once\n")
        return 2
    gc_was_enabled = gc.isenabled()
    gc.disable()  # tokens, syntax trees and models hold no reference cycles
    try:
        for name in _CALLS[args.subcommand]:  # a binding in place already wins
            globals().setdefault(name, getattr(ocdf, name))
        handler = globals()[f"_run_{args.subcommand}"]  # looked up per run
        return _stream(handler, args)
    except Exception as exc:  # a fault of this program, not of the input
        _say(f"error: internal error: {exc!r}\n")
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


def run() -> None:
    """The `ocdf` command: `main`, then exit with its code. The objects left
    alive are frozen first (`gc.freeze`), so the interpreter's shutdown skips
    the full collection it would spend on them."""
    code = main()
    gc.freeze()
    sys.exit(code)


def __getattr__(name: str):
    if any(name in names for names in _CALLS.values()):
        return getattr(ocdf, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocdf",
        description="Build, validate, analyze, and render intra-class "
                    "control/data-flow models.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    extract_p = sub.add_parser("extract", help="lower MiniOO source to a model document")
    extract_p.add_argument("--class", dest="class_name", metavar="NAME",
                           help="class to extract (required when the source "
                                "declares more than one)")
    extract_p.add_argument("--lazy", action="store_true",
                           help="include parent features the class actually uses")

    validate_p = sub.add_parser("validate", help="check a model document against "
                                                 "every constraint")
    analyze_p = sub.add_parser("analyze", help="report substructures and race hazards")
    for p in (validate_p, analyze_p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    render_p = sub.add_parser("render", help="emit DOT for a model document")
    render_p.add_argument("--level", choices=("L1", "L2", "L3"), default="L3",
                          help="abstraction level (default L3)")
    render_p.add_argument("--no-inherited", action="store_true",
                          help="hide inherited features")
    render_p.add_argument("--rankdir", choices=("tb", "lr"), default="tb")

    for p in (extract_p, validate_p, analyze_p, render_p):
        p.add_argument("--output", metavar="PATH", help="write to PATH instead of stdout")
        p.add_argument("inputs", nargs="+", metavar="FILE",
                       help="input files; '-' reads standard input")
    return parser


def _stream(handler, args: argparse.Namespace) -> int:
    """Open the output, then run `handler` on each input in turn and write
    its output chunks, then its stderr lines, as soon as it returns. The exit
    code is the worst of the inputs', or 2 when the output cannot be written;
    the output then gets nothing more."""
    name = args.output or "-"
    early: dict[str, tuple[int, list[bytes], str]] = {}
    try:
        if args.output is None:
            if sys.stdout is None:  # the process started with descriptor 1 closed
                raise OSError("standard output is closed")
            out = contextlib.nullcontext(sys.stdout.buffer)
        else:
            # opening the output truncates it, so an input that is the output
            # runs first, its chunks kept to be written as often as the path
            # is given; the others are read only when their turn comes
            for path in args.inputs:
                if path not in early and _is_output(path, args.output):
                    input_code, chunks, err = _run_one(handler, args, path)
                    early[path] = input_code, [*chunks], err
            out = open(args.output, "wb")
    except OSError as exc:
        _say(f"error: cannot write {name}: {exc}\n")
        return 2
    code = 0
    try:
        with out as stream:
            for path in args.inputs:
                input_code, chunks, err = early.get(path) or _run_one(handler, args, path)
                code = max(code, input_code)
                for chunk in chunks:
                    stream.write(chunk)
                if err:
                    stream.flush()  # the input's output goes out before its stderr lines
                    _say(err)
            stream.flush()
    except OSError as exc:  # a full disk, a closed pipe: the environment's fault
        if args.output is None:
            _silence(sys.stdout)
        _say(f"error: cannot write {name}: {exc}\n")
        return 2
    return code


def _is_output(path: str, output: str) -> bool:
    """Whether input `path` ('-': standard input) is the file `output`."""
    try:
        found = os.fstat(sys.stdin.fileno()) if path == "-" else os.stat(path)
        return os.path.samestat(found, os.stat(output))
    except (AttributeError, OSError, ValueError):  # no such file, no descriptor
        return False


def _say(text: str) -> None:
    """Write `text` to stderr. A closed or failing stderr loses the text but
    never changes the exit code."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(text)
        except OSError:
            _silence(sys.stderr)


def _silence(stream) -> None:
    """Point `stream`'s descriptor at `os.devnull`, so that what it still
    buffers goes nowhere and the interpreter's flush at exit cannot fail (the
    Python `signal` documentation, "Note on SIGPIPE")."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _run_one(handler, args: argparse.Namespace,
             path: str) -> tuple[int, Iterable[bytes], str]:
    """Read one input and run `handler` on it: (exit code, stdout chunks,
    stderr text). A failed input exits 2, writes nothing to stdout, and
    gets one `error: ...` line for a read, encoding or class-selection
    failure, or one `PATH: CODE ...` line per diagnostic of a `ModelError`
    or `MiniOoError`. The path is written as one line (`_one_line`). The
    input's bytes go to the handler in a list that it empties, so that this
    frame does not hold them while the input is handled."""
    where = _one_line(path)
    try:
        if path == "-":
            if sys.stdin is None:  # the process started with descriptor 0 closed
                return 2, (), "error: cannot read -: standard input is closed\n"
            content = [sys.stdin.buffer.read()]
        else:
            with open(path, "rb") as handle:
                content = [handle.read()]
    except OSError as exc:
        return 2, (), f"error: cannot read {where}: {exc}\n"
    try:
        code, chunks = handler(args, content, path)
    except UnicodeDecodeError as exc:  # a MiniOO source; documents raise ModelError
        return 2, (), f"error: {where}: not valid UTF-8: {exc}\n"
    except ModelError as exc:
        return 2, (), "".join(f"{where}: {d.render_line()}\n" for d in exc.diagnostics)
    except MiniOoError as exc:
        return 2, (), "".join(f"{where}: {e.render_line()}\n" for e in exc.errors)
    except OcdfError as exc:
        return 2, (), f"error: {where}: {exc}\n"
    return code, chunks, ""


def _run_extract(args: argparse.Namespace, content: list[bytes],
                 path: str) -> tuple[int, Iterable[bytes]]:
    program = parse(content.pop().decode("utf-8"))
    class_name = args.class_name
    if class_name is None:
        if not program.classes:
            raise OcdfError("declares no class")
        if len(program.classes) > 1:
            raise OcdfError(f"declares {len(program.classes)} classes; use --class to pick one")
        class_name = program.classes[0].name
    extractor = extract_lazy_inherited if args.lazy else extract
    model = build_model([extractor(program, class_name)])
    del program  # the syntax tree's memory goes back before the document is written
    return 0, (serialize(model), b"\n")


def _run_validate(args: argparse.Namespace, content: list[bytes],
                  path: str) -> tuple[int, Iterable[bytes]]:
    findings = validate(deserialize(content.pop()))
    code = 1 if findings else 0
    if args.format == "json":
        return code, ((findings_json(findings) + "\n").encode("utf-8"),)
    color = _color(_RED, args)
    return code, _lines(color % d.render_line() for d in findings)


def _run_analyze(args: argparse.Namespace, content: list[bytes],
                 path: str) -> tuple[int, Iterable[bytes]]:
    analyses = [(cls, substructures(cls), detect_races(cls))
                for cls in deserialize(content.pop()).classes]
    if args.format == "json":
        return 0, ((indented_json([{
            "name": cls.name,
            "substructures": {
                "components": parts.components,
                "cut_suggestions": [{"components": pair, "shared_prefix_count": n}
                                    for pair, n in parts.cut_suggestions]},
            "races": [{"member": h.member, "writers": h.writers, "readers": h.readers,
                       "entry_points": h.entry_points} for h in hazards]}
            for cls, parts, hazards in analyses]) + "\n").encode("utf-8"),)
    return 0, _lines(map(_one_line, _analysis_lines(analyses, _color(_YELLOW, args))))


def _analysis_lines(analyses: list, warning: str) -> Iterator[str]:
    """The text report's lines; `warning` is the %-format of a race line.
    A name may hold a line break: the caller writes each as one line."""
    for cls, parts, hazards in analyses:
        yield f"class {cls.name}"
        for component in parts.components:
            yield f"  component: {' '.join(component)}"
        for (a, b), count in parts.cut_suggestions:
            yield f"  related components {a} and {b}: {count} shared name token pair(s)"
        for hazard in hazards:
            yield warning % (
                f"  warning: possible race on '{hazard.member}' "
                f"(writers: {', '.join(hazard.writers) or '-'}; "
                f"readers: {', '.join(hazard.readers) or '-'}; "
                f"entry points: {', '.join(hazard.entry_points) or '-'})")


def _run_render(args: argparse.Namespace, content: list[bytes],
                path: str) -> tuple[int, Iterable[bytes]]:
    opts = RenderOptions(
        level=AbstractionLevel(args.level),
        show_inherited=not args.no_inherited,
        rankdir=RankDir(args.rankdir.upper()),
    )
    return 0, _utf8(render_model_dot(deserialize(content.pop()), opts))


def _lines(lines: Iterable[str]) -> Iterator[bytes]:
    """`lines`, each ended with a newline, as UTF-8 chunks of about `_CHUNK`
    characters: a chunk per line would cost an encode and a write per line,
    which shows on a report of many short lines."""
    batch: list[str] = []
    size = 0
    for line in lines:
        batch.append(line)
        size += len(line)
        if size >= _CHUNK:
            yield ("\n".join(batch) + "\n").encode("utf-8")
            batch.clear()
            size = 0
    if batch:
        yield ("\n".join(batch) + "\n").encode("utf-8")


def _utf8(text: str) -> Iterator[bytes]:
    """`text` as UTF-8, `_CHUNK` characters at a time."""
    for start in range(0, len(text), _CHUNK):
        yield text[start:start + _CHUNK].encode("utf-8")


def _color(color: str, args: argparse.Namespace) -> str:
    """The %-format of a line bound for a terminal, in `color`; a file named
    by --output gets no colour."""
    if (args.output is not None or os.environ.get("OCDF_NO_COLOR")
            or sys.stdout is None or not sys.stdout.isatty()):
        return "%s"
    return f"{color}%s{_RESET}"


if __name__ == "__main__":
    run()
