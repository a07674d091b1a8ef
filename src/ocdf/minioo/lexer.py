"""Tokenizer for MiniOO source text.

Tokens: identifiers, integer and string literals, punctuation, and the
reserved words listed in KEYWORDS. `//` comments run to end of line.

A token is a plain ``(kind, text, line, column)`` tuple; a string literal's
text is its value with escapes resolved. Within one `tokenize` call, the
tokens of an identifier or keyword share one text object. The source is
scanned with one alternation of named patterns, tried in order at each
position, and lines and columns are counted from the offsets of newlines.
"""

from __future__ import annotations

import re
from enum import Enum

from ..diagnostics import Code, MiniOoError, SourceError


class TokKind(Enum):
    IDENT = "identifier"
    INT = "integer"
    STRING = "string"
    KEYWORD = "keyword"
    PUNCT = "punctuation"
    EOF = "end of input"


# The kinds as module globals, for the per-token loops (see `model.MEMBER`).
IDENT, INT, STRING = TokKind.IDENT, TokKind.INT, TokKind.STRING
KEYWORD, PUNCT, EOF = TokKind.KEYWORD, TokKind.PUNCT, TokKind.EOF

KEYWORDS = frozenset({
    "class", "public", "protected", "private",
    "static", "const", "return", "this",
})

Token = tuple[TokKind, str, int, int]

# An identifier starts with a character for which str.isalpha() holds, or
# "_", and goes on with \w, which is exactly str.isalnum() or "_". No regular
# expression class is exactly the start set, so "word" catches the runs that
# begin with another \w character and _word() sorts them out. Integers are
# ASCII digits only.
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in (
    ("space", r"[ \t\r\n]+|//[^\n]*"),
    ("ident", r"[A-Za-z_]\w*"),
    ("punct", r"[{}();,=:.]"),
    ("int", r"[0-9]+"),
    ("word", r"\w+"),
    ("string", r'"(?:\\.|[^"\\\n])*"'),
    ("unterminated", r'"(?:\\.|[^"\\\n])*\\?'),
    ("other", r"."),
)), re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_INT_RE = re.compile(r"[0-9]+")


def describe(token: Token) -> str:
    """Name a token in a diagnostic; a string literal's value is escaped as
    repr() does, so the diagnostic stays on one line."""
    if token[0] is EOF:
        return "end of input"
    return repr(token[1]) if token[0] is STRING else f"'{token[1]}'"


def tokenize(source: str) -> list[Token]:
    """Lex the whole input; raises MiniOoError listing every bad character
    and unterminated string."""
    tokens: list[Token] = []
    append = tokens.append
    # text -> its first str object, so a name's tokens hold one copy of it;
    # a memo of this call's, not sys.intern's process-wide table
    shared = {}.setdefault
    errors: list[SourceError] = []
    line, line_start = 1, 0  # line_start: offset of the current line's first character
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        text = m.group()
        if kind == "space":
            if "\n" in text:
                line += text.count("\n")
                line_start = m.start() + text.rindex("\n") + 1
            continue
        start = m.start()
        if kind == "ident":
            text = shared(text, text)
            append((KEYWORD if text in KEYWORDS else IDENT, text, line, start - line_start + 1))
        elif kind == "punct":
            append((PUNCT, text, line, start - line_start + 1))
        elif kind == "int":
            append((INT, text, line, start - line_start + 1))
        elif kind == "word":
            _word(text, start, line, line_start, tokens, errors, shared)
        elif kind == "other":
            errors.append(SourceError(Code.E_PARSE, f"unexpected character {text!r}",
                                      line, start - line_start + 1))
        else:
            if kind == "string":
                value = text[1:-1]
                if "\\" in value:
                    value = _ESCAPE_RE.sub(r"\1", value)
                append((STRING, value, line, start - line_start + 1))
            else:
                errors.append(SourceError(Code.E_PARSE, "unterminated string literal",
                                          line, start - line_start + 1))
            if "\n" in text:  # an escaped newline
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1

    if errors:
        raise MiniOoError(errors)
    append((EOF, "", line, len(source) - line_start + 1))
    return tokens


def _word(text: str, start: int, line: int, line_start: int,
          tokens: list[Token], errors: list[SourceError], shared) -> None:
    """Lex a run of \\w characters that does not start like an identifier.
    Leading characters that start nothing are errors; an ASCII digit starts
    an integer, and an identifier start takes the rest of the run."""
    i = 0
    while i < len(text):
        ch = text[i]
        column = start + i - line_start + 1
        if ch.isalpha() or ch == "_":
            name = text[i:]
            name = shared(name, name)
            tokens.append((KEYWORD if name in KEYWORDS else IDENT, name, line, column))
            return
        digits = _INT_RE.match(text, i)
        if digits:
            tokens.append((INT, digits.group(), line, column))
            i = digits.end()
        else:
            errors.append(SourceError(Code.E_PARSE, f"unexpected character {ch!r}",
                                      line, column))
            i += 1
