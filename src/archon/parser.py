"""Recursive-descent parser for the architecture notation.

The accepted surface:

    system    ::= "system" IDENT ("style" IDENT)? ("allow-skip")? "{" item* "}"
    item      ::= typedef | inst | conn | attach | pipeline | iodecl
    typedef   ::= "porttype" IDENT ";"?
                | "componenttype" IDENT "{" portdecl* "}"
                | "connectortype" IDENT "{" roledecl* "}"
    portdecl  ::= "port" IDENT ":" IDENT ("many")? ";"
    roledecl  ::= "role" IDENT "accepts" IDENT ("," IDENT)* "fill" INT ".." (INT | "*") ";"
    inst      ::= "component" IDENT ":" IDENT attr* ";"
    attr      ::= "impl" STRING | "replicas" INT | "layer" INT
                | "stateless" | "seed" STRING | "site" STRING
    conn      ::= "connector" IDENT ":" IDENT ";"
    attach    ::= "attach" IDENT "." IDENT "to" IDENT "." IDENT ";"
    pipeline  ::= "pipeline" IDENT ":" "input" ("|" IDENT "(" ")")+ "|" "output" ";"
    iodecl    ::= ("input" | "output") STRING ";"

Each attribute appears at most once in an ``inst``; a repeat is a
``DuplicateAttribute`` error.  Comments run from ``#`` to end of line.
Identifiers may contain interior hyphens (style names like
``pipes-and-filters``).  Stage calls take no arguments; anything between
the parentheses is rejected.

The scanner cuts the source into pieces with one ``findall`` and keeps
the non-trivia ones as two parallel lists, texts and start offsets; there
is no token object.  Line and column are found by bisect over the line
starts, only when a span is built.  The first error aborts the parse:
there is no partial tree and no multi-error recovery.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, compress
from operator import itemgetter
from typing import Iterable, Optional, Union

from .diagnostics import Span
from .model import (
    Attachment,
    ComponentType,
    Connector,
    ConnectorType,
    Instance,
    PortSpec,
    RoleSpec,
)
from .syntax import Declaration, IoDecl, PipelineDecl, PortTypeDef, SystemAst

MAX_SOURCE_BYTES = 1 << 20

KEYWORDS = frozenset(
    {
        "system",
        "style",
        "allow-skip",
        "porttype",
        "componenttype",
        "connectortype",
        "port",
        "role",
        "accepts",
        "fill",
        "many",
        "component",
        "connector",
        "attach",
        "to",
        "pipeline",
        "input",
        "output",
        "impl",
        "replicas",
        "layer",
        "stateless",
        "seed",
        "site",
    }
)

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_UNESCAPES = {v: "\\" + k for k, v in _ESCAPES.items()}

# A string literal up to, not including, its closing quote.
_STRING_OPEN = r'"(?:[^"\\\n]|\\[' + re.escape("".join(_ESCAPES)) + "])*"
# The pieces that tile a well-formed source: trivia, ident, int, string, punct.
_PIECE = re.compile(
    r"[ \t\r\n]+|#[^\n]*|[^\W\d][\w-]*|\d+|" + _STRING_OPEN + r'"|\.\.|[{};:.,|()*]'
)
# The first characters of trivia pieces, and of int and string tokens.
_TRIVIA_HEADS = frozenset(" \t\r\n#")
_LITERAL_HEAD = re.compile(r'[\d"]')
_PUNCT = frozenset(["..", *"{};:.,|()*"])
# Token texts that are not names.
_NOT_NAMES = KEYWORDS | _PUNCT | {""}
_ESCAPE = re.compile(r"\\(.)")
_LINE = re.compile(r"[^\n]*\n")


class ParseError(Exception):
    """Syntactic failure; the span points at the offending token."""

    def __init__(
        self,
        span: Span,
        expected: frozenset[str],
        found: str,
        message: str,
        code: str = "ParseError",
    ) -> None:
        super().__init__(message)
        self.span = span
        self.expected = expected
        self.found = found
        self.message = message
        self.code = code


def escape_string(value: str) -> str:
    """Render a string literal body in canonical escaped form."""
    out = []
    for ch in value:
        out.append(_UNESCAPES.get(ch, ch))
    return "".join(out)


def _line_starts(text: str) -> list[int]:
    return [0, *accumulate(map(len, _LINE.findall(text)))]


def _span(lines: list[int], start: int, end: int) -> Span:
    """[start, end) with the line and column of ``start``, given the line start offsets."""
    if start > end:
        raise ValueError(f"span start {start} > end {end}")
    line = bisect_right(lines, start)
    return Span(start, end, line, start - lines[line - 1] + 1)


def _kind(text: str) -> str:
    """A token's kind: 'eof', the punctuation itself, or by the first
    character 'string', 'int' or 'ident'."""
    if not text or text in _PUNCT:
        return text or "eof"
    head = text[0]
    return "string" if head == '"' else "int" if head.isdecimal() else "ident"


def _bad_head(ch: str) -> bool:
    """Whether ``ch`` is a word character that starts no identifier, such as ² or ½."""
    return ch.isalnum() and not (ch.isalpha() or ch.isdecimal())


def _first_fault(text: str) -> tuple[int, int]:
    """How many pieces tile ``text`` before its first fault, and the fault's offset."""
    count = pos = 0
    for m in _PIECE.finditer(text):
        if m.start() != pos or _bad_head(text[pos]):
            break
        count, pos = count + 1, m.end()
    return count, pos


def _scan_error(text: str, start: int) -> ParseError:
    """The error for the character at ``start``, where no token shape fits."""
    if text[start] == '"':
        end = re.compile(_STRING_OPEN).match(text, start).end()
        if end < len(text) and text[end] == "\\":
            end, message = min(end + 2, len(text)), "bad string escape"
        else:
            message = "unterminated string literal"
    else:
        end, message = start + 1, f"unexpected character {text[start]!r}"
    return ParseError(_span(_line_starts(text), start, end), frozenset(), text[start:end], message)


def tokenize(text: str) -> tuple[list[str], list[int], dict[int, Union[str, int]]]:
    """The tokens of ``text`` as two parallel lists, their texts and start
    offsets, each ending with end of input ("" at ``len(text)``); and the
    value of every int and string token, by index."""
    pieces = _PIECE.findall(text)
    starts = list(accumulate(map(len, pieces), initial=0))
    heads = "".join(map(itemgetter(0), pieces))
    fault = None
    if starts[-1] != len(text) or any(map(_bad_head, set(heads))):
        count, fault = _first_fault(text)  # the pieces after it are misplaced
        pieces, starts, heads = pieces[:count], starts[:count], heads[:count]
    keep = [head not in _TRIVIA_HEADS for head in heads]
    texts, offsets = list(compress(pieces, keep)), list(compress(starts, keep))
    values: dict[int, Union[str, int]] = {}
    for m in _LITERAL_HEAD.finditer("".join(compress(heads, keep))):
        i = m.start()
        word = texts[i]
        if word[0] == '"':
            body = word[1:-1]
            values[i] = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], body) if "\\" in body else body
            continue
        try:
            values[i] = int(word)
        except ValueError:  # more digits than int() converts
            span = _span(_line_starts(text), offsets[i], offsets[i] + len(word))
            raise ParseError(span, frozenset(), word, "integer literal too long") from None
    if fault is not None:
        raise _scan_error(text, fault)
    texts.append("")
    offsets.append(len(text))
    return texts, offsets, values


class _Parser:
    def __init__(self, text: str) -> None:
        self.texts, self.starts, self.values = tokenize(text)
        self.lines = _line_starts(text)
        self.pos = 0  # the index of the current token

    # -- token plumbing -----------------------------------------------------

    def advance(self) -> int:
        """Step past the current token; its index."""
        self.pos += 1
        return self.pos - 1

    def accept(self, word: str) -> bool:
        """Step past the punctuation or keyword ``word`` if it is next."""
        if self.texts[self.pos] != word:
            return False
        self.pos += 1
        return True

    def fail(self, expected: Iterable[str]) -> ParseError:
        text = self.texts[self.pos]
        start = self.starts[self.pos]
        names = ", ".join(sorted(e if e in ("ident", "int", "string") else f"'{e}'" for e in expected))
        shown = repr(text) if text else "end of input"
        span = _span(self.lines, start, start + len(text))
        return ParseError(span, frozenset(expected), text, f"expected {names}, found {shown}")

    def expect(self, word: str) -> None:
        """Step past the punctuation or keyword ``word``, which must be next."""
        if self.texts[self.pos] != word:
            raise self.fail({word})
        self.pos += 1

    def literal(self, *kinds: str) -> Union[str, int, None]:
        """The value of the next token, whose kind must be one of ``kinds``;
        None for punctuation."""
        if _kind(self.texts[self.pos]) not in kinds:
            raise self.fail(kinds)
        self.pos += 1
        return self.values.get(self.pos - 1)

    def name(self) -> str:
        """A non-keyword identifier."""
        text = self.texts[self.pos]
        if text in _NOT_NAMES or self.pos in self.values:  # int and string tokens have values
            raise self.fail({"ident"})
        self.pos += 1
        return text

    def span_from(self, first: int) -> Span:
        """From the start of token ``first`` to the end of the last token consumed."""
        last = self.pos - 1
        return _span(self.lines, self.starts[first], self.starts[last] + len(self.texts[last]))

    # -- grammar ------------------------------------------------------------

    def parse_system(self) -> SystemAst:
        self.expect("system")
        name = self.name()
        style: Optional[str] = self.name() if self.accept("style") else None
        allow_skip = self.accept("allow-skip")
        self.expect("{")
        decls = self.parse_items(_ITEMS, "}")
        self.expect("}")
        span = self.span_from(0)
        if self.texts[self.pos]:
            raise self.fail({"eof"})
        return SystemAst(name=name, style=style, allow_skip=allow_skip, declarations=decls, span=span)

    def parse_items(self, table: dict, end: str) -> tuple[Declaration, ...]:
        """Declarations, each dispatched on its keyword, up to the token
        ``end``: '}', or '' for end of input.

        A closing ``}`` is named among the expected tokens; end of input is not.
        """
        decls: list[Declaration] = []
        while (word := self.texts[self.pos]) != end:
            parse_one = table.get(word)
            if parse_one is None:
                raise self.fail({*table, end} if end else table)
            decls.append(parse_one(self))
        return tuple(decls)

    # Each declaration parser starts at its keyword, which parse_items or
    # the caller's loop has already matched.

    def _parse_port_type(self) -> PortTypeDef:
        first = self.advance()
        name = self.name()
        self.accept(";")  # terminator is optional here
        return PortTypeDef(name, span=self.span_from(first))

    def _parse_component_type(self) -> ComponentType:
        first = self.advance()
        name = self.name()
        self.expect("{")
        ports: list[PortSpec] = []
        while self.texts[self.pos] == "port":
            ports.append(self._parse_port_decl())
        self.expect("}")
        return ComponentType(name, tuple(ports), span=self.span_from(first))

    def _parse_port_decl(self) -> PortSpec:
        first = self.advance()
        name = self.name()
        self.expect(":")
        ptype = self.name()
        many = self.accept("many")
        self.expect(";")
        return PortSpec(name, ptype, many, span=self.span_from(first))

    def _parse_connector_type(self) -> ConnectorType:
        first = self.advance()
        name = self.name()
        self.expect("{")
        roles: list[RoleSpec] = []
        while self.texts[self.pos] == "role":
            roles.append(self._parse_role_decl())
        self.expect("}")
        return ConnectorType(name, tuple(roles), span=self.span_from(first))

    def _parse_role_decl(self) -> RoleSpec:
        first = self.advance()
        name = self.name()
        self.expect("accepts")
        accepts = [self.name()]
        while self.accept(","):
            accepts.append(self.name())
        self.expect("fill")
        min_fill = self.literal("int")
        self.expect("..")
        max_fill = self.literal("int", "*")  # None for '*', no bound
        self.expect(";")
        return RoleSpec(
            name,
            tuple(accepts),
            min_fill,  # type: ignore[arg-type]
            max_fill,  # type: ignore[arg-type]
            span=self.span_from(first),
        )

    def _parse_component(self) -> Instance:
        first = self.advance()
        name = self.name()
        self.expect(":")
        type_name = self.name()
        attrs: dict[str, Union[str, int, bool]] = {}  # in source order
        while (word := self.texts[self.pos]) in _ATTRS:
            if word in attrs:
                start = self.starts[self.pos]
                raise ParseError(_span(self.lines, start, start + len(word)), frozenset(), word,
                                 f"attribute '{word}' is already given", "DuplicateAttribute")
            self.pos += 1
            kind = _ATTRS[word]
            attrs[word] = self.literal(kind) if kind else True  # type: ignore[assignment]
        self.expect(";")
        return Instance(name, type_name, attrs, span=self.span_from(first))

    def _parse_connector(self) -> Connector:
        first = self.advance()
        name = self.name()
        self.expect(":")
        type_name = self.name()
        self.expect(";")
        return Connector(name, type_name, span=self.span_from(first))

    def _parse_attach(self) -> Attachment:
        first = self.advance()
        inst = self.name()
        self.expect(".")
        port = self.name()
        self.expect("to")
        conn = self.name()
        self.expect(".")
        role = self.name()
        self.expect(";")
        return Attachment(inst, port, conn, role, span=self.span_from(first))

    def _parse_pipeline(self) -> PipelineDecl:
        first = self.advance()
        name = self.name()
        self.expect(":")
        self.expect("input")
        stages: list[str] = []
        while True:
            self.expect("|")
            if stages and self.accept("output"):  # at least one stage before it
                break
            stages.append(self.name())
            self.expect("(")
            self.expect(")")
        self.expect(";")
        return PipelineDecl(name, tuple(stages), span=self.span_from(first))

    def _parse_iodecl(self) -> IoDecl:
        first = self.advance()
        path = self.literal("string")
        self.expect(";")
        return IoDecl(self.texts[first], path, span=self.span_from(first))  # type: ignore[arg-type]


# Component attributes and the token kind of their value; a flag has none.
_ATTRS = {"impl": "string", "seed": "string", "site": "string",
          "replicas": "int", "layer": "int", "stateless": None}

# The type definitions, which are all a library may hold.
_TYPEDEFS = {
    "porttype": _Parser._parse_port_type,
    "componenttype": _Parser._parse_component_type,
    "connectortype": _Parser._parse_connector_type,
}

# Every declaration a system body may hold, by its keyword.
_ITEMS = {
    **_TYPEDEFS,
    "component": _Parser._parse_component,
    "connector": _Parser._parse_connector,
    "attach": _Parser._parse_attach,
    "pipeline": _Parser._parse_pipeline,
    "input": _Parser._parse_iodecl,
    "output": _Parser._parse_iodecl,
}


def _check_size(text: str) -> None:
    if len(text.encode("utf-8")) > MAX_SOURCE_BYTES:
        raise ParseError(
            Span(0, 0, 1, 1),
            frozenset(),
            "",
            f"source exceeds {MAX_SOURCE_BYTES} bytes",
            code="OversizeInput",
        )


def parse(text: str) -> SystemAst:
    """Parse one system description; raises ParseError on the first fault."""
    _check_size(text)
    return _Parser(text).parse_system()


def parse_library(text: str) -> tuple[Declaration, ...]:
    """Parse a type library: a bare sequence of type definitions."""
    _check_size(text)
    return _Parser(text).parse_items(_TYPEDEFS, "")
