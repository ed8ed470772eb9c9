"""Diagnostics: findings produced by parsing, resolution, and checking.

A Diagnostic is a value, never an exception by itself.  Checks return lists
of diagnostics and always run to completion; constructive operations (table
extension, attachment editing) raise ArchonError carrying a single
diagnostic, since their result would otherwise be unusable.

Two serializations are supported: a line-oriented text form
``SEVERITY CODE file:line:col message`` and a JSON array with fixed key
order (severity, code, span, message).
"""

from __future__ import annotations

import enum
import json
from typing import Iterable, NamedTuple, Optional


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


class Span(NamedTuple):
    """Half-open byte range [start, end) in a source text.

    line/col locate ``start`` (1-based).  Spans never cross file
    boundaries; the owning file is supplied at render time.
    """

    start: int
    end: int
    line: int
    col: int


def _equal(self, other) -> bool:
    return type(other) is type(self) and self[:-1] == other[:-1]


def span_blind(cls):
    """Make the named tuple ``cls`` (last field ``span``) equal by its other
    fields, only to its own type, and hashed by its first field, a name."""
    cls.__eq__ = _equal
    cls.__ne__ = lambda self, other: not _equal(self, other)
    cls.__hash__ = lambda self: hash(self[0])
    return cls


class Diagnostic(NamedTuple):
    severity: Severity
    code: str
    span: Optional[Span]
    message: str

    def render(self, file: str = "<input>") -> str:
        line = self.span.line if self.span else 0
        col = self.span.col if self.span else 0
        return f"{self.severity.value.upper()} {self.code} {file}:{line}:{col} {self.message}"

    def to_json_obj(self) -> dict:
        # Key order is part of the external contract.
        return {
            "severity": self.severity.value,
            "code": self.code,
            "span": self.span._asdict() if self.span else None,
            "message": self.message,
        }


def error(code: str, message: str, span: Optional[Span] = None) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, span, message)


def warning(code: str, message: str, span: Optional[Span] = None) -> Diagnostic:
    return Diagnostic(Severity.WARNING, code, span, message)


def has_errors(diags: Iterable[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)


def render_lines(diags: Iterable[Diagnostic], file: str = "<input>") -> str:
    return "".join(d.render(file) + "\n" for d in diags)


def render_json(diags: Iterable[Diagnostic]) -> str:
    return json.dumps([d.to_json_obj() for d in diags], indent=2) + "\n"


class ArchonError(Exception):
    """Raised by constructive operations whose result would be invalid."""

    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic

    @property
    def code(self) -> str:
        return self.diagnostic.code


def fail(code: str, message: str, span: Optional[Span] = None) -> ArchonError:
    """Build an ArchonError; callers write ``raise fail(...)``."""
    return ArchonError(error(code, message, span))
