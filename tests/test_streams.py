"""The CLI's streams: stdout is UTF-8 bytes whatever the locale, and every
stream fault has a defined stderr line and exit code. Each case runs
`python -m ocdf` in a subprocess, because a closed descriptor, a full disk
or a broken pipe is a property of the process."""

import os
import random
import subprocess
import sys

import pytest

from ocdf import build_model, serialize

from generators import random_valid_class

OCDF = [sys.executable, "-m", "ocdf"]
# Buffered standard streams, as a user gets them: with PYTHONUNBUFFERED a
# failed write leaves nothing behind for the interpreter's flush at exit.
ENV = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
STRASSE = "class Straße { private int x; public int get() { return this.x; } }\n"
BAD_DOCUMENT = (b'{"format_version":1,"classes":[{"name":"C","features":['
                b'{"id":"a","kind":"member","name":"a","decl":"int","visibility":"private"},'
                b'{"id":"b","kind":"member","name":"b","decl":"int","visibility":"private"}],'
                b'"flows":[{"kind":"data","source":"a","target":"b"}]}]}')
FULL_DISK = "[Errno 28] No space left on device"


def _shell(redirect: str, *argv: str) -> subprocess.CompletedProcess:
    """`ocdf ARGV REDIRECT` from a POSIX shell, say with `>&-`."""
    return subprocess.run(["sh", "-c", f'"$@" {redirect}', "sh", *OCDF, *argv],
                          capture_output=True, env=ENV)


def _document(tmp_path, name="model.json", document=BAD_DOCUMENT):
    path = tmp_path / name
    path.write_bytes(document)
    return str(path)


@pytest.mark.parametrize("document", [BAD_DOCUMENT, b'{"format_version":1,"classes":[]}'],
                         ids=["findings", "clean"])
def test_closed_stdout_is_a_write_failure(tmp_path, document):
    result = _shell(">&-", "validate", _document(tmp_path, document=document))
    assert (result.returncode, result.stderr) == (
        2, b"error: cannot write -: standard output is closed\n")


def test_closed_stderr_still_exits_2(tmp_path):
    result = _shell("2>&-", "validate", str(tmp_path / "missing.json"))
    assert (result.returncode, result.stdout) == (2, b"")


def test_failing_stderr_still_exits_2(tmp_path):
    """Descriptor 2 open for reading only: each write to it fails."""
    not_writable = tmp_path / "stderr"
    not_writable.write_bytes(b"")
    with open(not_writable, "rb") as stderr:
        result = subprocess.run([*OCDF, "validate", str(tmp_path / "missing.json")],
                                stdout=subprocess.PIPE, stderr=stderr, env=ENV)
    assert (result.returncode, result.stdout) == (2, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("to_stdout", [True, False], ids=["stdout", "output"])
def test_full_disk_is_a_write_failure(tmp_path, to_stdout):
    document = _document(tmp_path)
    if to_stdout:
        with open("/dev/full", "wb") as full:
            result = subprocess.run([*OCDF, "render", document], stdout=full,
                                    stderr=subprocess.PIPE, env=ENV)
        name = "-"
    else:
        result = subprocess.run([*OCDF, "render", "--output", "/dev/full", document],
                                capture_output=True, env=ENV)
        name = "/dev/full"
    assert (result.returncode, result.stderr.decode()) == (
        2, f"error: cannot write {name}: {FULL_DISK}\n")


def test_broken_pipe_stops_writing(tmp_path):
    """The reader goes away after 10 bytes of far more than a pipe holds: the
    run stops with one line, not an internal error or a failed flush at exit."""
    cls = random_valid_class(random.Random(3), max_features=300)
    document = _document(tmp_path, document=serialize(build_model([cls])))
    proc = subprocess.Popen([*OCDF, "render", *[document] * 40],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV)
    assert proc.stdout.read(10) == b"digraph oc"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert stderr == b"error: cannot write -: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
def test_stdout_is_utf8_whatever_the_locale(tmp_path, encoding):
    source = tmp_path / "u.moo"
    source.write_text(STRASSE, encoding="utf-8")
    target = tmp_path / "u.json"
    env = dict(ENV, PYTHONIOENCODING=encoding)
    to_file = subprocess.run([*OCDF, "extract", "--output", str(target), str(source)],
                             capture_output=True, env=env)
    piped = subprocess.run([*OCDF, "extract", str(source)], capture_output=True, env=env)
    assert (to_file.returncode, to_file.stderr) == (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == target.read_bytes()
    assert "Straße".encode("utf-8") in piped.stdout
    validated = subprocess.run([*OCDF, "validate", "-"], input=piped.stdout,
                               capture_output=True, env=env)
    assert (validated.returncode, validated.stdout, validated.stderr) == (0, b"", b"")


@pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
def test_failures_are_diagnostics_whatever_the_locale(tmp_path, encoding):
    """A load failure and a parse failure in a class whose name the locale
    cannot write: exit 2, nothing on stdout, and each stderr line is one
    diagnostic with the name escaped, never a traceback."""
    document = _document(tmp_path, "d.json", (
        '{"format_version":1,"classes":[{"name":"名","features":[],'
        '"flows":[{"kind":"data","source":"x","target":"y"}]}]}').encode("utf-8"))
    source = tmp_path / "s.moo"
    source.write_text("class 名 { public int f() { return this.y; } }\n", encoding="utf-8")
    env = dict(ENV, PYTHONIOENCODING=encoding)
    for argv, expected in (
            (["validate", document], [
                rf"{document}: E_DANGLING_REF class=\u540d subjects={end}: "
                f"flow endpoint '{end}' does not name a feature" for end in "xy"]),
            (["extract", str(source)], [
                rf"{source}: E_RESOLVE 1:35: name 'y' does not resolve to anything "
                r"in '\u540d' or its ancestors"])):
        result = subprocess.run([*OCDF, *argv], capture_output=True, env=env)
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr.decode("ascii").splitlines() == expected


def test_standard_input_that_is_the_output_is_read_first(tmp_path):
    """`ocdf render --output m.json - < m.json` renders m.json as it was."""
    document = _document(tmp_path, "m.json")
    expected = subprocess.run([*OCDF, "render", document], capture_output=True, check=True,
                              env=ENV)
    with open(document, "rb") as stdin:
        result = subprocess.run([*OCDF, "render", "--output", document, "-"], stdin=stdin,
                                capture_output=True, env=ENV)
    assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")
    with open(document, "rb") as handle:
        assert handle.read() == expected.stdout
