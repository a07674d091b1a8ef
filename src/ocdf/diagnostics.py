"""Diagnostic codes, records, the exceptions that carry them, and the JSON report writer.

Every code maps to exactly one rule, worded once in the validator's rule
table. Records throughout the package are named tuples with `_Node`'s
equality rule.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Iterable


class TokenEnum(str, Enum):
    """A string enum whose str() and f-string form is the token itself."""

    def __str__(self) -> str:
        return self.value


class Code(TokenEnum):
    """Stable identifiers for every rule a tool in this package can report."""

    # Flow and feature constraint violations (found by the validator).
    E_CF_ENDPOINT = "E_CF_ENDPOINT"
    E_DF_ENDPOINT = "E_DF_ENDPOINT"
    E_CONST_WRITE = "E_CONST_WRITE"
    E_IFACE_VIS = "E_IFACE_VIS"
    E_METHOD_VIS = "E_METHOD_VIS"
    # Structural rules (enforced on build/load, re-checked by the validator).
    E_DANGLING_REF = "E_DANGLING_REF"
    E_DUP_ID = "E_DUP_ID"
    E_BAD_ENUM = "E_BAD_ENUM"
    E_PARSE = "E_PARSE"
    # Source extraction rules.
    E_NO_CLASS = "E_NO_CLASS"
    E_RESOLVE = "E_RESOLVE"
    E_INHERIT_CYCLE = "E_INHERIT_CYCLE"


class _Node:
    """Mixin for the named-tuple records: equality also compares the type."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


class Subject(_Node, namedtuple("Subject", "class_name ids", defaults=((),))):
    """What a diagnostic is about: a class and the feature/flow ids involved."""

    __slots__ = ()


class Diagnostic(_Node, namedtuple("Diagnostic", "code message subjects", defaults=((),))):
    __slots__ = ()

    def sort_key(self) -> tuple:
        first = self.subjects[0].class_name if self.subjects else ""
        return (first, self.code.value, tuple((s.class_name, s.ids) for s in self.subjects))

    def render_line(self) -> str:
        """One-line text form: ``CODE class=<name> subjects=<ids>: message``."""
        parts = [self.code.value]
        if self.subjects:
            parts.append(f"class={self.subjects[0].class_name}")
            ids = [i for s in self.subjects for i in s.ids]
            if ids:
                parts.append(f"subjects={','.join(ids)}")
        return _one_line(f"{' '.join(parts)}: {self.message}")


# The characters str.splitlines() breaks a line at.
_LINE_BREAK = re.compile("[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")


def _one_line(text: str) -> str:
    """`text` with each line break written as its repr escape, so that a name
    holding one cannot split a diagnostic across lines."""
    if text.splitlines() == [text]:  # no line break: one C-level scan, no copy
        return text
    return _LINE_BREAK.sub(lambda m: repr(m[0])[1:-1], text)


def findings_json(findings: Iterable[Diagnostic]) -> str:
    """The findings as an indented JSON list, without a final newline."""
    return indented_json([
        {"code": d.code.value, "severity": "error", "message": d.message,
         "subjects": [{"class": s.class_name, "ids": s.ids} for s in d.subjects]}
        for d in findings])


def indented_json(value, margin: str = "") -> str:
    """json.dumps(value, indent=2) for nested lists (or tuples) and dicts of
    str and int. `indent` sends json.dumps to its pure-Python encoder, so the
    layout is written here; each string goes through the C escaper that
    json.dumps (ensure_ascii=True) uses. `margin` is the indentation of the
    line that holds the value's closing bracket."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    inner = margin + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + indented_json(v, inner)
                 for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + margin + "}"
    if not value:
        return "[]"
    items = [indented_json(v, inner) for v in value]
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + margin + "]"


class SourceError(_Node, namedtuple("SourceError", "code message line column")):
    """An error anchored to a source position (parsing or extraction)."""

    __slots__ = ()

    def render_line(self) -> str:
        return _one_line(f"{self.code.value} {self.line}:{self.column}: {self.message}")


class OcdfError(Exception):
    """Base class for all failures raised by this package."""


class ModelError(OcdfError):
    """Raised when a model cannot be built or loaded; carries all findings."""

    def __init__(self, diagnostics: list[Diagnostic] | None = None) -> None:
        self.diagnostics = [] if diagnostics is None else diagnostics

    def __str__(self) -> str:
        return "; ".join(d.render_line() for d in self.diagnostics) or "invalid model"


class MiniOoError(OcdfError):
    """Raised when MiniOO source fails to parse or resolve."""

    def __init__(self, errors: list[SourceError] | None = None) -> None:
        self.errors = [] if errors is None else errors

    def __str__(self) -> str:
        return "; ".join(e.render_line() for e in self.errors) or "invalid source"
