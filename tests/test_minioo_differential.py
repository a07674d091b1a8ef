"""The MiniOO front end against the original character-loop lexer and parser
kept in oracles.py: tokens (kind, text, line, column), syntax trees and error
lists must agree on the corpus, on generated programs and on randomly
damaged sources.

The one intended difference: the reference lexes any str.isdigit() run as an
integer, while integers are ASCII digits now, so every other digit is an
unexpected character. The comparisons fold that difference away: _fold()
turns each non-ASCII digit into '½', which, like such a digit in the new
lexer, goes on an identifier but starts no token, in both lexers. The new
lexer must also treat a source and its folded form alike.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ocdf.diagnostics import MiniOoError
from ocdf.minioo import ast, extract, extract_lazy_inherited, parse, parser
from ocdf.minioo.lexer import tokenize

from corpus_util import corpus_files
from generators import mutate_source, random_minioo_source
from oracles import interpreted_flows, reference_parse, reference_tokenize
from strategies import programs

GENERATED = 60
MUTANTS = 240


def _sources():
    corpus = [path.read_text(encoding="utf-8") for path in corpus_files()]
    rng = random.Random(6)
    generated = [random_minioo_source(rng) for _ in range(GENERATED)]
    pool = corpus + generated
    mutants = [mutate_source(rng, rng.choice(pool)) for _ in range(MUTANTS)]
    return {"corpus": corpus, "generated": generated, "mutated": mutants}


SOURCES = _sources()


def _fold(text):
    if text.isascii():
        return text
    return "".join("½" if ch.isdigit() and not ch.isascii() else ch for ch in text)


def _outcome(fn, source):
    try:
        return fn(source), None
    except MiniOoError as exc:
        return None, exc.errors


def _lex(source):
    """The new lexer's tokens or errors, with texts and messages folded."""
    tokens, errors = _outcome(tokenize, source)
    if errors is not None:
        return None, [e._replace(message=_fold(e.message)) for e in errors]
    return [(kind, _fold(text), line, column) for kind, text, line, column in tokens], None


def _check_tokens(source):
    ref_tokens, ref_errors = _outcome(reference_tokenize, _fold(source))
    if ref_tokens is not None:
        ref_tokens = [(t.kind, t.text, t.line, t.column) for t in ref_tokens]
    assert _lex(source) == _lex(_fold(source)) == (ref_tokens, ref_errors)


def _check(source):
    """Compare tokens, then trees or error lists; returns whether it parsed."""
    _check_tokens(source)
    program, errors = _outcome(parse, _fold(source))
    ref_program, ref_errors = _outcome(reference_parse, _fold(source))
    assert errors == ref_errors
    assert program == ref_program
    return program is not None


@pytest.mark.parametrize("kind", list(SOURCES))
def test_front_end_matches_reference(kind):
    parsed = sum(_check(source) for source in SOURCES[kind])
    if kind != "mutated":
        assert parsed == len(SOURCES[kind])


EDGE_CASES = [
    "", " \r\n\t", "// only a comment", "/", "a/b", "\f", "\v", '"', '"abc\\',
    'class C { public void f() { g("a\\\nb", 1); h(); } }',
    'class C { public void f() { return ";"; g(","); } }',
    "class C : { }", "class C { private int x; public", "class C { public void f( { } }",
    "class C { private const int f() { } }", "class C { public static const int x; }",
    "class C { static int x; private int y; }", "class C { public void f() { this.x = ; } }",
    "class C { public void f() { int x = 1 } }", "class C { public void f() { x y z; } }",
    "class C { public void f() { f(1,); this.; } }", "class C { } garbage class D { }",
]


@pytest.mark.parametrize("source", EDGE_CASES)
def test_edge_cases_match_reference(source):
    _check(source)


def test_mutants_reach_the_error_paths():
    outcomes = [_outcome(parse, source)[1] for source in SOURCES["mutated"]]
    messages = {e.message.split(" ")[0] for errors in outcomes if errors for e in errors}
    assert {"unexpected", "unterminated", "expected"} <= messages
    assert sum(errors is None for errors in outcomes) >= MUTANTS // 10


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.booleans().flatmap(lambda errors: programs(errors=errors)))
def test_grammar_built_programs_parse_as_the_reference_parses_them(source):
    """Trees with their spans, or error lists, agree with the reference
    while the parser lets go of every token behind it at each boundary."""
    with mock.patch.object(parser, "_PASSED", 0):
        assert _outcome(parse, source) == _outcome(reference_parse, source)


@pytest.mark.parametrize("source", [
    "x²", "²x", "1²", "²²", "٣", "½x", "é²",
    "_²", "a ²b", "²1²x",
])
def test_identifier_start_and_integer_digits(source):
    _check_tokens(source)


def test_generated_programs_extract_like_the_interpreter():
    for source in SOURCES["generated"]:
        program = parse(source)
        for cls in program.classes:
            for lazy, extractor in ((False, extract), (True, extract_lazy_inherited)):
                flows = {(f.kind.value, f.source, f.target)
                         for f in extractor(program, cls.name).flows}
                assert flows == interpreted_flows(program, cls.name, include_inherited=lazy)


def test_node_equality_is_type_sensitive():
    span = ast.Span(1, 1)
    assert ast.IntLit(span, 1) != ast.StrLit(span, 1)
    assert ast.IntLit(span, 1) == ast.IntLit(span=ast.Span(1, 1), value=1)
    assert ast.Span(1, 2) != (1, 2) and (1, 2) != ast.Span(1, 2)
    assert len({ast.IntLit(span, 1), ast.IntLit(span, 1)}) == 1
    assert str(span) == "1:1"
