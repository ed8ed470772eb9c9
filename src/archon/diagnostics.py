"""Diagnostics: findings produced by parsing, resolution, and checking.

A Diagnostic is a value, never an exception by itself.  Checks return lists
of diagnostics and always run to completion; constructive operations (table
extension, attachment editing) raise ArchonError carrying a single
diagnostic, since their result would otherwise be unusable.

Two serializations are supported: a line-oriented text form
``SEVERITY CODE file:line:col message`` and a JSON array with fixed key
order (severity, code, span, message).  ``json_text`` writes that array,
and the JSON graph too; ``json_pieces`` writes the plan's text piece by
piece, its stages and channels by the plan's own record writers.
"""

from __future__ import annotations

import enum
import json
from typing import Callable, Iterable, Iterator, NamedTuple, Optional


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
    return json_text([d.to_json_obj() for d in diags])


_escape = json.encoder.encode_basestring_ascii  # the C function json.dumps uses
_LITERALS = {True: "true", False: "false", None: "null"}  # looked up after an `is` test: 1 == True


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"`` for str, int, bool and None, and
    for lists, tuples and str-keyed dicts of them.

    With ``indent`` json.dumps falls back to its pure-Python encoder, which
    makes one string per token.  Here strings are escaped in C, each
    container's members are joined once and its text is made by one more
    join, which also takes the final newline.
    """
    return _encode(obj, "", "\n")


def json_pieces(members: dict, writers: Optional[dict[str, Callable]] = None) -> Iterator[str]:
    """``json_text(members)`` in pieces, one per member, for a dict whose
    values ``json_text`` takes or are iterators of them.  An iterator (a
    ``map``, say) is written as an array, one item per piece, and each item
    is made only when it is reached: so a writer holds one item at a time.
    A member named in ``writers`` is written as an array too, each item by
    its writer, which returns the item's text as ``json_text`` indents it
    there.
    """
    sep = "{\n  "
    for key, value in members.items():
        head, sep = sep + _escape(key) + ": ", ",\n  "
        write = writers.get(key) if writers else None
        if write is None and not isinstance(value, Iterator):
            yield head + _encode(value, "  ")
            continue
        empty = True
        for item in value:
            yield (head + "[\n    " if empty else ",\n    ") + (write(item) if write else _encode(item, "    "))
            empty = False
        yield head + "[]" if empty else "\n  ]"
    yield "\n}\n" if members else "{}\n"


def _encode(obj, pad: str, end: str = "") -> str:
    if isinstance(obj, str):
        return _escape(obj) + end
    if obj is None or obj is True or obj is False:
        return _LITERALS[obj] + end
    if isinstance(obj, int):
        return int.__repr__(obj) + end
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}" + end
        body = (",\n" + inner).join(
            [_escape(key) + ": " + _encode(value, inner) for key, value in obj.items()]
        )
        return "".join(("{\n", inner, body, "\n", pad, "}", end))
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]" + end
        if all(isinstance(item, str) for item in obj):
            body = (",\n" + inner).join(map(_escape, obj))
        else:
            body = (",\n" + inner).join([_encode(item, inner) for item in obj])
        return "".join(("[\n", inner, body, "\n", pad, "]", end))
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


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
