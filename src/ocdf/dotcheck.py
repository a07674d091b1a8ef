"""Syntax checker for the DOT subset this package emits.

Grammar accepted:

    graph    = "digraph" ID "{" { stmt } "}"
    stmt     = "subgraph" ID "{" { stmt } "}"
             | ID "=" value ";"
             | ID [ "->" ID ] [ "[" attr { "," attr } "]" ] ";"
    attr     = ID "=" value
    value    = ID | NUMBER | quoted string

An ID is a name of letters, digits and underscores, not starting with a
digit, that is none of DOT's keywords (node, edge, graph, digraph, subgraph,
strict) in any case: an unquoted keyword is never an ID in DOT.

Not a general DOT parser; it exists so emitted documents can be verified
without a graphviz installation.
"""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<num>-?\d+(\.\d+)?)
  | (?P<str>"(\\.|[^"\\])*")
  | (?P<arrow>->)
  | (?P<punct>[{}\[\]=;,])
    """,
    re.VERBOSE,
)
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*").fullmatch
_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def check_dot(text: str) -> list[str]:
    """Parse `text` against the emitted subset; returns problems, [] if ok."""
    tokens, problems = _tokenize(text)
    if problems:
        return problems
    parser = _Checker(tokens)
    parser.graph()
    return parser.problems


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            return tokens, [f"unexpected character {text[pos]!r} at offset {pos}"]
        if match.lastgroup != "ws":
            tokens.append(match.group())
        pos = match.end()
    return tokens, []


class _Checker:
    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.problems: list[str] = []

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str | None:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def error(self, message: str) -> None:
        self.problems.append(f"{message} near token {self.pos}")

    def expect(self, token: str) -> bool:
        if self.peek() == token:
            self.next()
            return True
        self.error(f"expected {token!r}, found {self.peek()!r}")
        return False

    def expect_id(self) -> bool:
        tok = self.peek()
        if _is_id(tok):
            self.next()
            return True
        if tok is not None and tok.lower() in _KEYWORDS:
            self.error(f"keyword {tok!r} used as an identifier")
        else:
            self.error(f"expected identifier, found {tok!r}")
        return False

    def is_value(self, tok: str | None) -> bool:
        return tok is not None and (
            _is_id(tok)
            or re.fullmatch(r"-?\d+(\.\d+)?", tok)
            or (tok.startswith('"') and tok.endswith('"')))

    def graph(self) -> None:
        if not (self.peek() == "digraph" and self.next() and self.expect_id()):
            self.error("document must start with 'digraph <id>'")
            return
        self.body()
        if self.peek() is not None:
            self.error(f"trailing tokens after closing brace: {self.peek()!r}")

    def body(self) -> None:
        if not self.expect("{"):
            return
        while self.peek() not in (None, "}"):
            if not self.statement():
                return
        self.expect("}")

    def statement(self) -> bool:
        if self.peek() == "subgraph":
            self.next()
            if not self.expect_id():
                return False
            self.body()
            return True
        if not self.expect_id():
            return False
        if self.peek() == "=":
            self.next()
            if not self.is_value(self.peek()):
                self.error(f"expected attribute value, found {self.peek()!r}")
                return False
            self.next()
            return self.expect(";")
        if self.peek() == "->":
            self.next()
            if not self.expect_id():
                return False
        if self.peek() == "[":
            if not self.attr_list():
                return False
        return self.expect(";")

    def attr_list(self) -> bool:
        self.expect("[")
        while True:
            if not self.expect_id():
                return False
            if not self.expect("="):
                return False
            if not self.is_value(self.peek()):
                self.error(f"expected attribute value, found {self.peek()!r}")
                return False
            self.next()
            if self.peek() == ",":
                self.next()
                continue
            break
        return self.expect("]")


def _is_id(tok: str | None) -> bool:
    return tok is not None and bool(_NAME(tok)) and tok.lower() not in _KEYWORDS
