"""Diagnostic codes, records, the exceptions that carry them, and the JSON report writer.

Every code maps to exactly one rule, worded once in the validator's rule
table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True, slots=True)
class Subject:
    """What a diagnostic is about: a class and the feature/flow ids involved."""

    class_name: str
    ids: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class Diagnostic:
    code: Code
    message: str
    subjects: tuple[Subject, ...] = ()

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
        return f"{' '.join(parts)}: {self.message}"


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


@dataclass(frozen=True, slots=True)
class SourceError:
    """An error anchored to a source position (parsing or extraction)."""

    code: Code
    message: str
    line: int
    column: int

    def render_line(self) -> str:
        return f"{self.code.value} {self.line}:{self.column}: {self.message}"


class OcdfError(Exception):
    """Base class for all failures raised by this package."""


@dataclass
class ModelError(OcdfError):
    """Raised when a model cannot be built or loaded; carries all findings."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def __str__(self) -> str:
        return "; ".join(d.render_line() for d in self.diagnostics) or "invalid model"


@dataclass
class MiniOoError(OcdfError):
    """Raised when MiniOO source fails to parse or resolve."""

    errors: list[SourceError] = field(default_factory=list)

    def __str__(self) -> str:
        return "; ".join(e.render_line() for e in self.errors) or "invalid source"
