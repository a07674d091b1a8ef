"""Command-line front end: parse -> extract -> validate -> analyze -> render.

Subcommands read model documents (or MiniOO source for `extract`) from file
arguments or standard input ("-"). Exit codes: 0 on success with no error
diagnostics, 1 when the validator reports findings, 2 on usage, IO, or
parse/load failures, and also when the program itself fails: an unexpected
exception ends the run with one `error:` line, not a traceback. Multiple
inputs are processed one at a time in argument order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .analysis import AbstractionLevel, detect_races, substructures
from .diagnostics import MiniOoError, ModelError
from .minioo import extract, extract_lazy_inherited, parse
from .model import OcdfModel, build_model, deserialize, serialize
from .render import RankDir, RenderOptions, render_model_dot
from .validator import validate

_RED = "\x1b[31m"
_YELLOW = "\x1b[33m"
_RESET = "\x1b[0m"


@dataclass(slots=True)
class _Result:
    code: int
    out: str = ""
    err: str = ""


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _main(args)
    except Exception as exc:  # a fault of this program, not of the input
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return 2


def _main(args: argparse.Namespace) -> int:
    if args.inputs.count("-") > 1:
        print("error: standard input ('-') may be given only once", file=sys.stderr)
        return 2
    results = _run_all(args)
    out = sys.stdout
    if args.output is not None:
        try:
            out = open(args.output, "w", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    try:
        for result in results:
            if result.out:
                out.write(result.out)
            if result.err:
                sys.stderr.write(result.err)
    finally:
        if out is not sys.stdout:
            out.close()
    return max((r.code for r in results), default=0)


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


def _run_all(args: argparse.Namespace) -> list[_Result]:
    handler = {
        "extract": _run_extract,
        "validate": _run_validate,
        "analyze": _run_analyze,
        "render": _run_render,
    }[args.subcommand]

    def one(path: str) -> _Result:
        try:
            if path == "-":
                content = sys.stdin.buffer.read()
            else:
                with open(path, "rb") as handle:
                    content = handle.read()
        except OSError as exc:
            return _Result(2, err=f"error: cannot read {path}: {exc}\n")
        return handler(args, content, path)

    return [one(path) for path in args.inputs]


def _run_extract(args: argparse.Namespace, content: bytes, path: str) -> _Result:
    try:
        source = content.decode("utf-8")
    except UnicodeDecodeError as exc:
        return _Result(2, err=f"error: {path}: not valid UTF-8: {exc}\n")
    try:
        program = parse(source)
    except MiniOoError as exc:
        lines = "".join(f"{path}: {e.render_line()}\n" for e in exc.errors)
        return _Result(2, err=lines)

    class_name = args.class_name
    if class_name is None:
        if not program.classes:
            return _Result(2, err=f"error: {path}: declares no class\n")
        if len(program.classes) > 1:
            return _Result(2, err=f"error: {path}: declares {len(program.classes)} "
                                  "classes; use --class to pick one\n")
        class_name = program.classes[0].name
    elif program.find_class(class_name) is None:
        return _Result(2, err=f"error: {path}: no class named '{class_name}'\n")

    extractor = extract_lazy_inherited if args.lazy else extract
    try:
        cls = extractor(program, class_name)
    except MiniOoError as exc:
        lines = "".join(f"{path}: {e.render_line()}\n" for e in exc.errors)
        return _Result(2, err=lines)
    document = serialize(build_model([cls])).decode("utf-8")
    return _Result(0, out=document + "\n")


def _load_model(content: bytes, path: str) -> OcdfModel | _Result:
    try:
        return deserialize(content)
    except ModelError as exc:
        lines = "".join(f"{path}: {d.render_line()}\n" for d in exc.diagnostics)
        return _Result(2, err=lines)


def _run_validate(args: argparse.Namespace, content: bytes, path: str) -> _Result:
    model = _load_model(content, path)
    if isinstance(model, _Result):
        return model
    findings = validate(model)
    if args.format == "json":
        out = json.dumps([d.to_dict() for d in findings], indent=2) + "\n"
    else:
        out = "".join(_style(d.render_line(), _RED) + "\n" for d in findings)
    return _Result(1 if findings else 0, out=out)


def _run_analyze(args: argparse.Namespace, content: bytes, path: str) -> _Result:
    model = _load_model(content, path)
    if isinstance(model, _Result):
        return model
    if args.format == "json":
        report = [
            {
                "name": cls.name,
                "substructures": substructures(cls).to_dict(),
                "races": [h.to_dict() for h in detect_races(cls)],
            }
            for cls in model.classes
        ]
        return _Result(0, out=json.dumps(report, indent=2) + "\n")

    lines: list[str] = []
    for cls in model.classes:
        lines.append(f"class {cls.name}")
        report = substructures(cls)
        for component in report.components:
            lines.append(f"  component: {' '.join(component)}")
        for (a, b), count in report.cut_suggestions:
            lines.append(f"  related components {a} and {b}: "
                         f"{count} shared name token pair(s)")
        for hazard in detect_races(cls):
            lines.append(_style(
                f"  warning: possible race on '{hazard.member}' "
                f"(writers: {', '.join(hazard.writers) or '-'}; "
                f"readers: {', '.join(hazard.readers) or '-'}; "
                f"entry points: {', '.join(hazard.entry_points) or '-'})", _YELLOW))
    return _Result(0, out="".join(line + "\n" for line in lines))


def _run_render(args: argparse.Namespace, content: bytes, path: str) -> _Result:
    model = _load_model(content, path)
    if isinstance(model, _Result):
        return model
    opts = RenderOptions(
        level=AbstractionLevel(args.level),
        show_inherited=not args.no_inherited,
        rankdir=RankDir.LEFT_RIGHT if args.rankdir == "lr" else RankDir.TOP_DOWN,
    )
    return _Result(0, out=render_model_dot(model, opts))


def _style(line: str, color: str) -> str:
    if os.environ.get("OCDF_NO_COLOR") or not sys.stdout.isatty():
        return line
    return f"{color}{line}{_RESET}"


if __name__ == "__main__":
    sys.exit(main())
