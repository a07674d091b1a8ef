import gc
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tokenize
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ocdf import build_model, deserialize, serialize
from ocdf.cli import main
from ocdf.diagnostics import Code, Diagnostic, SourceError, Subject

from corpus_util import CORPUS_DIR
from generators import random_valid_class, random_valid_model


GOOD_MOO = """
class C {
  private int x;
  public int get() { return this.x; }
}
"""

BAD_MODEL = json.dumps({
    "format_version": 1,
    "classes": [{
        "name": "C",
        "features": [
            {"id": "a", "kind": "member", "name": "a", "decl": "int",
             "visibility": "private"},
            {"id": "b", "kind": "member", "name": "b", "decl": "int",
             "visibility": "private"},
        ],
        "flows": [{"kind": "data", "source": "a", "target": "b"}],
    }],
})


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_extract_emits_model_document(tmp_path, capsys):
    source = tmp_path / "c.moo"
    source.write_text(GOOD_MOO)
    code, out, err = run_cli(capsys, "extract", str(source))
    assert code == 0 and err == ""
    model = deserialize(out.encode())
    assert model.classes[0].name == "C"


def test_extract_is_idempotent(tmp_path, capsys):
    source = tmp_path / "c.moo"
    source.write_text(GOOD_MOO)
    _, first, _ = run_cli(capsys, "extract", str(source))
    _, second, _ = run_cli(capsys, "extract", str(source))
    assert first == second


def test_extract_requires_selector_for_multiclass_files(capsys):
    path = CORPUS_DIR / "basics.moo"
    code, out, err = run_cli(capsys, "extract", str(path))
    assert code == 2
    assert "--class" in err


def test_extract_with_selector(capsys):
    path = CORPUS_DIR / "basics.moo"
    code, out, err = run_cli(capsys, "extract", "--class", "Settings", str(path))
    assert code == 0
    assert deserialize(out.encode()).classes[0].name == "Settings"


def test_extract_unknown_class_selector(capsys):
    path = CORPUS_DIR / "basics.moo"
    code, _, err = run_cli(capsys, "extract", "--class", "Ghost", str(path))
    assert code == 2
    assert "Ghost" in err


def test_unknown_class_is_reported_by_extract(capsys):
    path = CORPUS_DIR / "basics.moo"
    code, out, err = run_cli(capsys, "extract", "--class", "Ghost", str(path))
    assert (code, out) == (2, "")
    assert err == f"{path}: E_NO_CLASS 1:1: no class named 'Ghost' in the source\n"


def test_a_line_break_in_the_class_name_stays_on_the_error_line(capsys):
    path = CORPUS_DIR / "counter.moo"
    code, out, err = run_cli(capsys, "extract", "--class", "A\nB", str(path))
    assert (code, out) == (2, "")
    assert err == f"{path}: E_NO_CLASS 1:1: no class named 'A\\nB' in the source\n"


def test_line_breaks_in_names_stay_on_the_diagnostic_line(tmp_path, capsys):
    document = tmp_path / "breaks.json"
    document.write_text(json.dumps({"format_version": 1, "classes": [{
        "name": "C\nD",
        "features": [{"id": "a\nb", "kind": "bogus", "name": "x", "decl": "int",
                      "visibility": "private"}],
        "flows": []}]}))
    code, out, err = run_cli(capsys, "validate", str(document))
    assert (code, out) == (2, "")
    assert err == (f"{document}: E_BAD_ENUM class=C\\nD subjects=a\\nb: "
                   "a\\nb: unknown kind token 'bogus'\n")


def test_line_breaks_in_names_stay_on_the_analyze_report_line(tmp_path, capsys):
    document = tmp_path / "breaks.json"
    document.write_text(json.dumps({"format_version": 1, "classes": [{
        "name": "C\nD",
        "features": [
            {"id": "a\nb", "kind": "member", "name": "a", "decl": "int",
             "visibility": "private"},
            *({"id": writer, "kind": "interface_method", "name": writer, "decl": "",
               "visibility": "public"} for writer in ("p", "q")),
        ],
        "flows": [{"kind": "data", "source": writer, "target": "a\nb"}
                  for writer in ("p", "q")]}]}))
    code, out, err = run_cli(capsys, "analyze", str(document))
    assert (code, err) == (0, "")
    assert out == ("class C\\nD\n"
                   "  component: a\\nb p q\n"
                   "  warning: possible race on 'a\\nb' (writers: p, q; readers: -; "
                   "entry points: p, q)\n")
    code, out, err = run_cli(capsys, "analyze", "--format", "json", str(document))
    assert (code, err) == (0, "")
    assert json.loads(out)[0]["races"][0]["member"] == "a\nb"


def test_a_line_break_in_the_input_path_stays_on_the_error_line(tmp_path, capsys):
    bad = tmp_path / "bad\nname.moo"
    bad.write_text("class C { private int x }")
    code, out, err = run_cli(capsys, "extract", str(bad))
    assert (code, out) == (2, "")
    where = str(bad).replace("\n", "\\n")
    assert err == f"{where}: E_PARSE 1:25: expected ';' before '}}'\n"
    bad.write_bytes(b"class \xff { }")
    code, out, err = run_cli(capsys, "extract", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {where}: not valid UTF-8: ") and err.count("\n") == 1
    missing = tmp_path / "missing\nfile.json"
    code, out, err = run_cli(capsys, "validate", str(missing))
    assert (code, out) == (2, "")
    where = str(missing).replace("\n", "\\n")
    assert err.startswith(f"error: cannot read {where}: ")
    assert err.count("\n") == 1


# Every character str.splitlines() breaks a line at, and any other character.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
NAME_TEXT = st.text(st.sampled_from(LINE_BREAKS) | st.characters())


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(NAME_TEXT, st.lists(NAME_TEXT, max_size=3), NAME_TEXT)
def test_a_diagnostic_renders_as_one_line_whatever_its_names(class_name, ids, message):
    subjects = f" subjects={','.join(ids)}" if ids else ""
    diagnostic = Diagnostic(Code.E_BAD_ENUM, message, (Subject(class_name, tuple(ids)),))
    error = SourceError(Code.E_NO_CLASS, message, 1, 2)
    for line, plain in [(diagnostic.render_line(),
                         f"E_BAD_ENUM class={class_name}{subjects}: {message}"),
                        (error.render_line(), f"E_NO_CLASS 1:2: {message}")]:
        assert len(line.splitlines()) == 1
        if len(f".{plain}.".splitlines()) == 1:  # no line break: the text as it is
            assert line == plain


def test_repeated_class_is_one_duplicate_error(tmp_path, capsys):
    source = tmp_path / "dup.moo"
    source.write_text("class A { }\nclass A { private int x; }\n")
    code, out, err = run_cli(capsys, "extract", "--class", "A", str(source))
    assert (code, out) == (2, "")
    assert err == f"{source}: E_DUP_ID 2:1: duplicate class name 'A'\n"


def test_extract_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.moo"
    bad.write_text("class C { private int x }")
    code, out, err = run_cli(capsys, "extract", str(bad))
    assert code == 2
    assert "E_PARSE" in err and out == ""


def test_extract_lazy_flag(tmp_path, capsys):
    source = tmp_path / "fam.moo"
    source.write_text("""
class Base { protected int p; }
class Kid : Base { public int get() { return this.p; } }
""")
    code, out, _ = run_cli(capsys, "extract", "--class", "Kid", "--lazy", str(source))
    assert code == 0
    model = deserialize(out.encode())
    assert any(f.inherited for f in model.classes[0].features)


def test_extract_reads_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(GOOD_MOO.encode())))
    code, out, err = run_cli(capsys, "extract", "-")
    assert code == 0
    assert deserialize(out.encode()).classes[0].name == "C"


def test_repeated_stdin_is_a_usage_error(capsys, monkeypatch):
    document = b'{"format_version":1,"classes":[]}'
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(document)))
    code, out, err = run_cli(capsys, "validate", "-", "-")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "'-'" in err
    assert sys.stdin.buffer.read() == document  # rejected before any input was read


def test_closed_stdin_is_an_unreadable_input():
    result = subprocess.run([sys.executable, "-m", "ocdf", "validate", "-"],
                            capture_output=True, text=True, preexec_fn=lambda: os.close(0))
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "error: cannot read -: standard input is closed\n")


def test_deeply_nested_minioo_is_a_parse_error(tmp_path, capsys):
    source = tmp_path / "deep.moo"
    source.write_text("class C { private int f(int a) { return "
                      + "f(" * 3000 + "a" + ")" * 3000 + "; } }")
    code, out, err = run_cli(capsys, "extract", str(source))
    assert (code, out) == (2, "")
    assert err == f"{source}: E_PARSE 1:442: calls nest deeper than 200 levels\n"


def test_rejected_string_literal_is_quoted_on_one_line(tmp_path, capsys):
    source = tmp_path / "str.moo"
    source.write_text('class C { "a\\\nb" }')
    code, out, err = run_cli(capsys, "extract", str(source))
    assert (code, out) == (2, "")
    assert err == f"{source}: E_PARSE 1:11: expected visibility before 'a\\nb'\n"


@pytest.mark.parametrize("text, message", [
    ("// no class here\n", "declares no class"),
    ("class A { } class B { }", "declares 2 classes; use --class to pick one"),
], ids=["none", "two"])
def test_extract_without_selector_needs_exactly_one_class(tmp_path, capsys, text, message):
    source = tmp_path / "c.moo"
    source.write_text(text)
    code, out, err = run_cli(capsys, "extract", str(source))
    assert (code, out) == (2, "")
    assert err == f"error: {source}: {message}\n"


def test_non_ascii_digit_is_an_unexpected_character(tmp_path, capsys):
    source = tmp_path / "sup.moo"
    source.write_text("class C { private int f() { return \u00b2; } }", encoding="utf-8")
    code, out, err = run_cli(capsys, "extract", str(source))
    assert (code, out) == (2, "")
    assert err == f"{source}: E_PARSE 1:36: unexpected character '\u00b2'\n"


def test_overlong_integer_literal_is_one_parse_error(tmp_path, capsys):
    source = tmp_path / "long.moo"
    source.write_text("class C {\n  private int f() { return " + "9" * 5000 + "; }\n"
                      "  private int g() { return 1; }\n}\n")
    code, out, err = run_cli(capsys, "extract", str(source))
    assert (code, out) == (2, "")
    assert err == f"{source}: E_PARSE 2:28: integer literal of 5000 digits is too long\n"


def test_unexpected_exception_is_one_error_line(tmp_path, capsys, monkeypatch):
    def broken(args, content, path):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr("ocdf.cli._run_validate", broken)
    doc = tmp_path / "empty.json"
    doc.write_text('{"format_version":1,"classes":[]}')
    code, out, err = run_cli(capsys, "validate", str(doc))
    assert (code, out) == (2, "")
    assert err == "error: internal error: RuntimeError('boom\\nsecond line')\n"


@pytest.mark.parametrize("subcommand", ["validate", "analyze", "render"])
def test_deeply_nested_document_is_a_parse_error(tmp_path, capsys, subcommand):
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, subcommand, str(doc))
    assert (code, out) == (2, "")
    assert err == f"{doc}: E_PARSE: document nests too deeply\n"


@pytest.mark.parametrize("subcommand", ["validate", "analyze", "render"])
@pytest.mark.parametrize("value, message", [
    ("9" * 5000, "an integer has too many digits"),
    ('[{"name": "\\ud800"}]', "a string holds an unpaired surrogate"),
])
def test_unrepresentable_document_is_one_parse_error(tmp_path, capsys, subcommand,
                                                     value, message):
    doc = tmp_path / "hostile.json"
    doc.write_text('{"format_version": 1, "classes": ' + value + "}")
    code, out, err = run_cli(capsys, subcommand, str(doc))
    assert (code, out) == (2, "")
    assert err == f"{doc}: E_PARSE: malformed JSON: {message}\n"


def test_validate_flags_bad_model(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text(BAD_MODEL)
    code, out, err = run_cli(capsys, "validate", str(doc))
    assert code == 1
    assert out.count("\n") == 1
    assert out.startswith("E_DF_ENDPOINT class=C subjects=a,b:")


def test_validate_clean_model(tmp_path, capsys):
    doc = tmp_path / "ok.json"
    doc.write_text('{"format_version":1,"classes":[]}')
    code, out, err = run_cli(capsys, "validate", str(doc))
    assert (code, out, err) == (0, "", "")


def test_validate_json_format(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text(BAD_MODEL)
    code, out, _ = run_cli(capsys, "validate", "--format", "json", str(doc))
    assert code == 1
    findings = json.loads(out)
    assert findings[0]["code"] == "E_DF_ENDPOINT"
    assert findings[0]["severity"] == "error"
    assert findings[0]["subjects"] == [{"class": "C", "ids": ["a", "b"]}]


def test_validate_unloadable_document_exits_2(tmp_path, capsys):
    doc = tmp_path / "broken.json"
    doc.write_text("{nope")
    code, out, err = run_cli(capsys, "validate", str(doc))
    assert code == 2
    assert "E_PARSE" in err


def test_validate_rejects_an_empty_feature_id(tmp_path, capsys):
    doc = tmp_path / "empty-id.json"
    doc.write_text('{"format_version":1,"classes":[{"name":"C","features":[{"id":"",'
                   '"kind":"member","name":"x","decl":"int","visibility":"private"}],'
                   '"flows":[]}]}')
    code, out, err = run_cli(capsys, "validate", str(doc))
    assert (code, out) == (2, "")
    assert err == f"{doc}: E_PARSE class=C: features[0] has an empty id\n"


def test_validate_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "validate", "no-such-file.json")
    assert code == 2
    assert "cannot read" in err


def test_analyze_text_report(tmp_path, capsys):
    doc = tmp_path / "model.json"
    doc.write_text(json.dumps({
        "format_version": 1,
        "classes": [{
            "name": "Cache",
            "features": [
                {"id": "slot", "kind": "member", "name": "slot", "decl": "int",
                 "visibility": "private"},
                {"id": "put", "kind": "interface_method", "name": "put",
                 "decl": "put(int v)", "visibility": "public"},
                {"id": "get", "kind": "interface_method", "name": "get",
                 "decl": "get()", "visibility": "public"},
            ],
            "flows": [
                {"kind": "data", "source": "put", "target": "slot"},
                {"kind": "data", "source": "slot", "target": "get"},
            ],
        }],
    }))
    code, out, _ = run_cli(capsys, "analyze", str(doc))
    assert code == 0
    assert "class Cache" in out
    assert "component: get put slot" in out
    assert "warning: possible race on 'slot'" in out


def test_analyze_json_report(tmp_path, capsys):
    doc = tmp_path / "model.json"
    doc.write_text('{"format_version":1,"classes":[{"name":"C","features":[],"flows":[]}]}')
    code, out, _ = run_cli(capsys, "analyze", "--format", "json", str(doc))
    assert code == 0
    report = json.loads(out)
    assert report == [{"name": "C",
                       "substructures": {"components": [], "cut_suggestions": []},
                       "races": []}]


def test_render_subcommand(tmp_path, capsys):
    doc = tmp_path / "model.json"
    doc.write_text(json.dumps({
        "format_version": 1,
        "classes": [{
            "name": "C",
            "features": [
                {"id": "m", "kind": "member", "name": "m", "decl": "int",
                 "visibility": "private"},
                {"id": "f", "kind": "method", "name": "f", "decl": "f()",
                 "visibility": "private"},
                {"id": "g", "kind": "method", "name": "g", "decl": "g()",
                 "visibility": "private"},
            ],
            "flows": [
                {"kind": "data", "source": "m", "target": "f"},
                {"kind": "control", "source": "f", "target": "g"},
                {"kind": "data", "source": "f", "target": "g"},
            ],
        }],
    }))
    code, out, _ = run_cli(capsys, "render", str(doc))
    assert code == 0
    assert out.startswith("digraph ocdf {")

    # level L1 keeps exactly the member-incident data flows
    code, l1, _ = run_cli(capsys, "render", "--level", "L1", str(doc))
    assert code == 0
    assert "m -> f;" in l1
    assert "f -> g" not in l1


def test_render_rankdir_flag(tmp_path, capsys):
    doc = tmp_path / "model.json"
    doc.write_text('{"format_version":1,"classes":[]}')
    _, out, _ = run_cli(capsys, "render", "--rankdir", "lr", str(doc))
    assert "rankdir=LR;" in out


def test_output_flag_writes_file(tmp_path, capsys):
    source = tmp_path / "c.moo"
    source.write_text(GOOD_MOO)
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "extract", "--output", str(target), str(source))
    assert code == 0 and out == ""
    assert deserialize(target.read_bytes()).classes[0].name == "C"


def test_multiple_inputs_keep_argument_order(tmp_path, capsys):
    first = tmp_path / "a.moo"
    second = tmp_path / "b.moo"
    first.write_text("class Alpha { }")
    second.write_text("class Beta { }")
    code, out, _ = run_cli(capsys, "extract", str(first), str(second))
    assert code == 0
    lines = out.strip().splitlines()
    assert "Alpha" in lines[0] and "Beta" in lines[1]


def test_exit_code_aggregates_worst_result(tmp_path, capsys):
    good = tmp_path / "ok.json"
    good.write_text('{"format_version":1,"classes":[]}')
    bad = tmp_path / "bad.json"
    bad.write_text(BAD_MODEL)
    code, out, _ = run_cli(capsys, "validate", str(good), str(bad))
    assert code == 1

    broken = tmp_path / "broken.json"
    broken.write_text("{")
    code, _, _ = run_cli(capsys, "validate", str(good), str(bad), str(broken))
    assert code == 2


def test_styling_respects_no_color(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "bad.json"
    doc.write_text(BAD_MODEL)
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True, raising=False)
    _, styled, _ = run_cli(capsys, "validate", str(doc))
    assert "\x1b[31m" in styled

    monkeypatch.setenv("OCDF_NO_COLOR", "1")
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True, raising=False)
    _, plain, _ = run_cli(capsys, "validate", str(doc))
    assert "\x1b[" not in plain


def test_styling_never_reaches_an_output_file(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "bad.json"
    doc.write_text(BAD_MODEL)
    target = tmp_path / "findings.txt"
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True, raising=False)
    code, out, _ = run_cli(capsys, "validate", "--output", str(target), str(doc))
    assert code == 1 and out == ""
    assert "E_DF_ENDPOINT" in target.read_text()
    assert "\x1b[" not in target.read_text()


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate"])  # missing inputs
    assert exc.value.code == 2


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "ocdf", "validate", "-"],
        input=b'{"format_version":1,"classes":[]}',
        capture_output=True,
    )
    assert result.returncode == 0


@pytest.mark.parametrize("case", ["clean", "findings", "missing"])
def test_python_m_ocdf_is_main(tmp_path, capsys, case):
    """`python -m ocdf` writes what `main` writes in-process, to stdout and
    to --output, with the same stderr and exit code."""
    paths = {"clean": tmp_path / "clean.json", "findings": tmp_path / "bad.json",
             "missing": tmp_path / "missing.json"}
    paths["clean"].write_bytes(serialize(random_valid_model(random.Random(3))))
    paths["findings"].write_text(BAD_MODEL)
    for to_file in (False, True):
        outputs = {}
        for where in ("in-process", "python -m ocdf"):
            out = tmp_path / f"{where}.out"
            argv = ["validate", *(["--output", str(out)] if to_file else []), str(paths[case])]
            if where == "in-process":
                code, stdout, stderr = run_cli(capsys, *argv)
            else:
                result = subprocess.run([sys.executable, "-m", "ocdf", *argv],
                                        capture_output=True, text=True)
                code, stdout, stderr = result.returncode, result.stdout, result.stderr
            outputs[where] = (code, stdout, stderr, out.read_bytes() if to_file else None)
        assert outputs["in-process"] == outputs["python -m ocdf"]
        assert outputs["in-process"][0] == {"clean": 0, "findings": 1, "missing": 2}[case]


def test_console_entry_freezes_the_heap_before_exit(tmp_path):
    """`run` exits with main's code and leaves the objects alive at exit
    frozen, so interpreter shutdown does not collect them."""
    bad = tmp_path / "bad.json"
    bad.write_text(BAD_MODEL)
    script = ("import atexit, gc, sys\n"
              "import ocdf.cli\n"
              "atexit.register(lambda: print(gc.get_freeze_count()))\n"
              f"sys.argv = ['ocdf', 'validate', '--output', {os.devnull!r}, {str(bad)!r}]\n"
              "ocdf.cli.run()")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (1, "")
    assert int(result.stdout) > 0


def test_main_leaves_the_freeze_count_as_it_found_it(tmp_path, capsys):
    """Only the console entry freezes; library callers of `main` keep a
    collector that sees everything."""
    bad = tmp_path / "bad.json"
    bad.write_text(BAD_MODEL)
    before = gc.get_freeze_count()
    assert run_cli(capsys, "validate", str(bad))[0] == 1
    assert run_cli(capsys, "analyze", "--format", "json", str(bad))[0] == 0
    assert gc.get_freeze_count() == before


def test_runtime_imports_only_the_standard_library():
    script = ("import sys; before = set(sys.modules); import ocdf, ocdf.cli; "
              "print(*sorted(set(sys.modules) - before))")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, check=True)
    top_level = {name.partition(".")[0] for name in result.stdout.split()}
    assert "ocdf" in top_level
    assert top_level - {"ocdf"} - sys.stdlib_module_names == set()


# Modules of the package each subcommand must not import.
UNUSED_MODULES = {
    "extract": {"ocdf.analysis", "ocdf.dotcheck", "ocdf.loader", "ocdf.render", "ocdf.validator"},
    "validate": {"ocdf.analysis", "ocdf.dotcheck", "ocdf.minioo", "ocdf.render", "ocdf.writer"},
    "analyze": {"ocdf.dotcheck", "ocdf.minioo", "ocdf.render", "ocdf.validator", "ocdf.writer"},
    "render": {"ocdf.dotcheck", "ocdf.minioo", "ocdf.validator", "ocdf.writer"},
}


def _imported_by(script: str) -> set[str]:
    """The modules a fresh interpreter imports while it runs `script`."""
    wrapped = f"import sys; before = set(sys.modules)\n{script}\nprint(*set(sys.modules) - before)"
    result = subprocess.run([sys.executable, "-c", wrapped],
                            capture_output=True, text=True, check=True)
    return set(result.stdout.split())


@pytest.mark.parametrize("subcommand", UNUSED_MODULES)
def test_each_subcommand_imports_only_what_it_runs(tmp_path, capsys, subcommand):
    source = CORPUS_DIR / "counter.moo"
    document = tmp_path / "counter.json"
    run_cli(capsys, "extract", "--output", str(document), str(source))
    path = source if subcommand == "extract" else document
    loaded = _imported_by("import ocdf.cli\n"
                          f"code = ocdf.cli.main([{subcommand!r}, '--output', {os.devnull!r}, "
                          f"{str(path)!r}])\n"
                          "assert code in (0, 1), code")
    assert {name.partition(".")[0] for name in loaded} - {"ocdf"} <= sys.stdlib_module_names
    assert "ocdf.model" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast"}  # the standard library's ast
    assert not {n for n in loaded for unused in UNUSED_MODULES[subcommand]
                if n == unused or n.startswith(unused + ".")}


def test_import_ocdf_loads_no_submodule_and_every_name_resolves():
    assert not {n for n in _imported_by("import ocdf") if n.startswith("ocdf.")}
    loaded = _imported_by("import ocdf\n"
                          "names = {n: getattr(ocdf, n) for n in ocdf.__all__}\n"
                          "star = {}\n"
                          "exec('from ocdf import *', star)\n"
                          "assert set(ocdf.__all__) <= set(star), set(ocdf.__all__) - set(star)\n"
                          "assert all(star[n] is v for n, v in names.items())\n"
                          "assert set(ocdf.__all__) <= set(dir(ocdf))")
    assert {"ocdf.minioo", "ocdf.dotcheck", "ocdf.loader", "ocdf.render", "ocdf.validator",
            "ocdf.writer"} <= loaded


# The tokens that are not code, left out of a module's size.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def test_every_module_a_stage_imports_holds_at_most_2000_tokens(tmp_path, capsys):
    """A stage process compiles each module it imports from source when no
    byte-code is cached, and the compile's memory peak grows with the
    module's size. Measured as `ru_maxrss` of fresh interpreters started from
    a small process (median of 11, CPython 3.11), compiling the first 999 or
    1,431 tokens of the 3,042-token `ocdf.model` that also held the writer
    and the loader peaked no higher than `python -c pass`, its first 1,940
    tokens 0.24 MB higher and the whole module 0.73 MB higher. `import
    ocdf.cli, ocdf.model` peaked 1.28 MB above `pass` with that module and
    0.43 MB with the 1,027-token one that holds the records alone.
    """
    source = CORPUS_DIR / "counter.moo"
    document = tmp_path / "counter.json"
    run_cli(capsys, "extract", "--output", str(document), str(source))
    runs = [["extract", str(source)],
            *([sub, str(document)] for sub in ("validate", "analyze", "render"))]
    loaded = _imported_by("import ocdf.cli\n"
                          f"for argv in {runs!r}:\n"
                          f"    assert ocdf.cli.main([*argv, '--output', {os.devnull!r}]) in (0, 1)")
    tokens = {}
    for name in loaded:
        if name == "ocdf" or name.startswith("ocdf."):
            with tokenize.open(importlib.util.find_spec(name).origin) as module:
                tokens[name] = sum(token.type not in _NOT_CODE
                                   for token in tokenize.generate_tokens(module.readline))
    assert {"ocdf.cli", "ocdf.model"} <= tokens.keys()
    assert {name: count for name, count in tokens.items() if count > 2000} == {}


# The names through which the handlers call the other layers; a caller may
# rebind them on `ocdf.cli` (a tracer does) before any subcommand has run.
HANDLER_CALLEES = ("parse", "extract", "extract_lazy_inherited", "build_model", "serialize",
                   "deserialize", "validate", "substructures", "detect_races",
                   "render_model_dot")


def test_rebound_callees_are_the_ones_the_handlers_call(tmp_path, capsys):
    source = CORPUS_DIR / "counter.moo"
    document = tmp_path / "counter.json"
    run_cli(capsys, "extract", "--output", str(document), str(source))
    runs = [["extract", str(source)], ["extract", "--lazy", str(source)],
            *([sub, str(document)] for sub in ("validate", "analyze", "render"))]
    script = ("import ocdf.cli\n"
              "called = set()\n"
              "def spy(name, real):\n"
              "    def wrapper(*args, **kwargs):\n"
              "        called.add(name)\n"
              "        return real(*args, **kwargs)\n"
              "    return wrapper\n"
              f"for name in {HANDLER_CALLEES!r}:\n"
              "    setattr(ocdf.cli, name, spy(name, getattr(ocdf.cli, name)))\n"
              f"for argv in {runs!r}:\n"
              f"    assert ocdf.cli.main([*argv, '--output', {os.devnull!r}]) in (0, 1)\n"
              "print(*called)")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, check=True)
    assert set(result.stdout.split()) == set(HANDLER_CALLEES)


def test_cli_resolves_its_callees_through_the_package():
    script = ("import ocdf.cli\n"
              "names = {n for calls in ocdf.cli._CALLS.values() for n in calls}\n"
              "assert names <= set(ocdf.__all__), names - set(ocdf.__all__)\n"
              "assert all(getattr(ocdf.cli, n) is getattr(ocdf, n) for n in names)\n"
              "for name in ('check_dot', 'validate_class', '__path__'):\n"
              "    assert not hasattr(ocdf.cli, name), name")
    subprocess.run([sys.executable, "-c", script], check=True)


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_cyclic_collector_as_it_found_it(tmp_path, capsys, monkeypatch,
                                                         enabled):
    """The collector is off while a subcommand runs, and afterwards as it
    was before, whatever the exit code and also after an internal error."""
    source = tmp_path / "c.moo"
    source.write_text(GOOD_MOO)
    bad = tmp_path / "bad.json"
    bad.write_text(BAD_MODEL)
    seen = []
    real_validate = sys.modules["ocdf.cli"]._run_validate

    def spy(args, content, path):
        seen.append(gc.isenabled())
        return real_validate(args, content, path)

    def broken(args, content, path):
        raise RuntimeError("boom")

    monkeypatch.setattr("ocdf.cli._run_validate", spy)
    monkeypatch.setattr("ocdf.cli._run_render", broken)
    runs = [(0, ["extract", str(source)]), (1, ["validate", str(bad)]),
            (2, ["validate", str(tmp_path / "missing.json")]), (2, ["render", str(bad)])]
    try:
        (gc.enable if enabled else gc.disable)()
        for expected, argv in runs:
            assert run_cli(capsys, *argv)[0] == expected
            assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            main(["validate", "--format", "yaml", str(bad)])
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False]


def test_json_reports_leave_no_more_garbage_than_text(tmp_path, capsys):
    """With the collector off, as during a run, a `--format json` report
    leaves no more objects in reference cycles than the text report."""
    bad = tmp_path / "bad.json"
    bad.write_text(BAD_MODEL)
    inputs = [str(bad)]
    for seed in range(6):
        path = tmp_path / f"model{seed}.json"
        path.write_bytes(serialize(random_valid_model(random.Random(seed))))
        inputs.append(str(path))

    def garbage(*argv):
        gc.collect()
        run_cli(capsys, *argv)
        return gc.collect()

    try:
        gc.disable()
        for subcommand in ("validate", "analyze"):
            garbage(subcommand, *inputs)  # the first run imports its modules
            assert (garbage(subcommand, "--format", "json", *inputs)
                    == garbage(subcommand, *inputs))
    finally:
        gc.enable()


def test_an_input_that_is_the_output_is_read_first(tmp_path, capsys):
    document = tmp_path / "m.json"
    document.write_text(BAD_MODEL)
    _, expected, _ = run_cli(capsys, "render", str(document))
    other = tmp_path / "other.json"
    other.write_bytes(serialize(random_valid_model(random.Random(1))))
    _, more, _ = run_cli(capsys, "render", str(other))
    assert run_cli(capsys, "render", "--output", str(document), str(other), str(document),
                   str(tmp_path / ".." / tmp_path.name / "m.json"), str(document)) == (0, "", "")
    assert document.read_text(encoding="utf-8") == more + expected * 3


def test_an_output_that_cannot_be_opened_reads_no_input(tmp_path, capsys, monkeypatch):
    document = b'{"format_version":1,"classes":[]}'
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(document)))
    target = tmp_path / "no such dir" / "out.txt"
    code, out, err = run_cli(capsys, "validate", "--output", str(target),
                             str(tmp_path / "missing.json"), "-")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert sys.stdin.buffer.read() == document


def test_an_internal_error_leaves_the_earlier_output_written(tmp_path, capsys, monkeypatch):
    document = tmp_path / "m.json"
    document.write_text(BAD_MODEL)
    _, expected, _ = run_cli(capsys, "render", str(document))
    real_render = sys.modules["ocdf.cli"]._run_render
    calls = []

    def second_fails(args, content, path):
        calls.append(path)
        if len(calls) == 2:
            raise RuntimeError("boom")
        return real_render(args, content, path)

    monkeypatch.setattr("ocdf.cli._run_render", second_fails)
    target = tmp_path / "out.dot"
    code, out, err = run_cli(capsys, "render", "--output", str(target), *[str(document)] * 3)
    assert (code, out, err) == (2, "", "error: internal error: RuntimeError('boom')\n")
    assert len(calls) == 2
    assert target.read_text(encoding="utf-8") == expected


def test_render_memory_does_not_grow_with_the_inputs(tmp_path):
    """Each input's output is written when it is done, so the peak is one
    input's work, not the sum of every output. The class has at least 20
    features and flows: CPython keeps freed tuples of fewer items for
    reuse, and tracemalloc would count those as live."""
    cls = random_valid_class(random.Random(3), max_features=300)
    assert min(len(cls.features), len(cls.flows)) >= 20
    document = serialize(build_model([cls]))
    paths = []
    for index in range(40):
        path = tmp_path / f"doc{index}.json"
        path.write_bytes(document)
        paths.append(str(path))
    target = str(tmp_path / "out.dot")
    main(["render", "--output", target, paths[0]])  # imports the render stage

    def peak(inputs):
        tracemalloc.start()
        try:
            assert main(["render", "--output", target, *inputs]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak(paths[:5]), peak(paths)
    assert many < 1.5 * few, (few, many)
