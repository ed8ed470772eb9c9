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

Comments run from ``#`` to end of line.  Identifiers may contain interior
hyphens (style names like ``pipes-and-filters``).  Stage calls take no
arguments; anything between the parentheses is rejected.

The first error aborts the parse: there is no partial tree and no
multi-error recovery.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Union

from .diagnostics import Span
from .syntax import (
    AttachDecl,
    ComponentTypeDef,
    ConnectorDecl,
    ConnectorTypeDef,
    Declaration,
    InstanceDecl,
    IoDecl,
    PipelineDecl,
    PortDecl,
    PortTypeDef,
    RoleDecl,
    SystemAst,
)

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
# One named group per token shape, tried in this order.
_TOKEN = re.compile(
    "|".join(
        f"(?P<{kind}>{pattern})"
        for kind, pattern in (
            ("skip", r"[ \t\r]+|#[^\n]*"),
            ("newline", r"\n"),
            ("ident", r"[^\W\d][\w-]*"),
            ("int", r"\d+"),
            ("string", _STRING_OPEN + '"'),
            ("punct", r"\.\.|[{};:.,|()*]"),
        )
    )
)
_ESCAPE = re.compile(r"\\(.)")


class Token(NamedTuple):
    kind: str  # 'ident', 'int', 'string', 'eof', or the punctuation itself
    text: str
    value: Union[str, int, None]
    start: int
    end: int
    line: int
    col: int

    @property
    def span(self) -> Span:
        return Span(self.start, self.end, self.line, self.col)


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


def _scan_error(text: str, start: int, line: int, col: int) -> ParseError:
    """The error for the character at ``start``, where no token shape fits."""
    if text[start] == '"':
        end = re.compile(_STRING_OPEN).match(text, start).end()
        if end < len(text) and text[end] == "\\":
            end, message = min(end + 2, len(text)), "bad string escape"
        else:
            message = "unterminated string literal"
    else:
        end, message = start + 1, f"unexpected character {text[start]!r}"
    return ParseError(Span(start, end, line, col), frozenset(), text[start:end], message)


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, ending with an ``eof`` token."""
    tokens: list[Token] = []
    pos = line_start = 0
    line = 1
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start, end = m.span()
        if start != pos:
            break  # no token shape fits at pos
        if kind == "ident" and not (text[start].isalpha() or text[start] == "_"):
            break  # \w also admits non-letters such as ² and ½
        pos = end
        if kind == "skip":
            continue
        if kind == "newline":
            line += 1
            line_start = end
            continue
        word = m.group()
        if kind == "ident":
            value: Union[str, int, None] = word
        elif kind == "punct":
            kind, value = word, None
        elif kind == "int":
            try:
                value = int(word)
            except ValueError:  # more digits than int() converts
                span = Span(start, end, line, start - line_start + 1)
                raise ParseError(span, frozenset(), word, "integer literal too long") from None
        else:
            value = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], word[1:-1])
        tokens.append(Token(kind, word, value, start, end, line, start - line_start + 1))
    if pos < len(text):
        raise _scan_error(text, pos, line, pos - line_start + 1)
    tokens.append(Token("eof", "", None, pos, pos, line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _describe(self, want: str) -> str:
        if want in ("ident", "int", "string"):
            return want
        return f"'{want}'"

    def fail(self, expected: frozenset[str], found: Token) -> ParseError:
        names = ", ".join(sorted(self._describe(e) for e in expected))
        shown = repr(found.text) if found.kind != "eof" else "end of input"
        return ParseError(found.span, expected, found.text, f"expected {names}, found {shown}")

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.fail(frozenset({kind}), tok)
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text != word:
            raise self.fail(frozenset({word}), tok)
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    def expect_name(self) -> Token:
        """A non-keyword identifier."""
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise self.fail(frozenset({"ident"}), tok)
        return self.advance()

    def span_from(self, first: Token, last: Token) -> Span:
        return Span(first.start, last.end, first.line, first.col)

    # -- grammar ------------------------------------------------------------

    def parse_system(self) -> SystemAst:
        first = self.expect_keyword("system")
        name = self.expect_name()
        style: Optional[str] = None
        if self.at_keyword("style"):
            self.advance()
            style = self.expect_name().text
        allow_skip = False
        if self.at_keyword("allow-skip"):
            self.advance()
            allow_skip = True
        self.expect("{")
        decls = self.parse_items(_ITEMS, "}")
        close = self.expect("}")
        self.expect("eof")
        return SystemAst(
            name=name.text,
            style=style,
            allow_skip=allow_skip,
            declarations=decls,
            span=self.span_from(first, close),
        )

    def parse_items(self, table: dict, end: str) -> tuple[Declaration, ...]:
        """Declarations, each dispatched on its keyword, up to a token of kind ``end``.

        A closing ``}`` is named among the expected tokens; end of input is not.
        """
        expected = frozenset(table) if end == "eof" else frozenset(table) | {end}
        decls: list[Declaration] = []
        while (tok := self.peek()).kind != end:
            parse_one = table.get(tok.text) if tok.kind == "ident" else None
            if parse_one is None:
                raise self.fail(expected, tok)
            decls.append(parse_one(self))
        return tuple(decls)

    # Each declaration parser starts at its keyword, which parse_items or
    # the caller's loop has already matched.

    def _parse_port_type(self) -> PortTypeDef:
        first = self.advance()
        name = self.expect_name()
        last = name
        if self.peek().kind == ";":  # terminator is optional here
            last = self.advance()
        return PortTypeDef(name.text, span=self.span_from(first, last))

    def _parse_component_type(self) -> ComponentTypeDef:
        first = self.advance()
        name = self.expect_name()
        self.expect("{")
        ports: list[PortDecl] = []
        while self.at_keyword("port"):
            ports.append(self._parse_port_decl())
        close = self.expect("}")
        return ComponentTypeDef(name.text, tuple(ports), span=self.span_from(first, close))

    def _parse_port_decl(self) -> PortDecl:
        first = self.advance()
        name = self.expect_name()
        self.expect(":")
        ptype = self.expect_name()
        many = False
        if self.at_keyword("many"):
            self.advance()
            many = True
        end = self.expect(";")
        return PortDecl(name.text, ptype.text, many, span=self.span_from(first, end))

    def _parse_connector_type(self) -> ConnectorTypeDef:
        first = self.advance()
        name = self.expect_name()
        self.expect("{")
        roles: list[RoleDecl] = []
        while self.at_keyword("role"):
            roles.append(self._parse_role_decl())
        close = self.expect("}")
        return ConnectorTypeDef(name.text, tuple(roles), span=self.span_from(first, close))

    def _parse_role_decl(self) -> RoleDecl:
        first = self.advance()
        name = self.expect_name()
        self.expect_keyword("accepts")
        accepts = [self.expect_name().text]
        while self.peek().kind == ",":
            self.advance()
            accepts.append(self.expect_name().text)
        self.expect_keyword("fill")
        min_fill = self.expect("int")
        self.expect("..")
        max_fill = self.advance()  # an int, or '*' for no bound, whose value is None
        if max_fill.kind not in ("int", "*"):
            raise self.fail(frozenset({"int", "*"}), max_fill)
        end = self.expect(";")
        return RoleDecl(
            name.text,
            tuple(accepts),
            min_fill.value,  # type: ignore[arg-type]
            max_fill.value,  # type: ignore[arg-type]
            span=self.span_from(first, end),
        )

    def _parse_component(self) -> InstanceDecl:
        first = self.advance()
        name = self.expect_name()
        self.expect(":")
        type_name = self.expect_name()
        attrs: list[tuple[str, Union[str, int, bool]]] = []
        while (tok := self.peek()).kind == "ident" and tok.text in _ATTRS:
            self.advance()
            kind = _ATTRS[tok.text]
            attrs.append((tok.text, self.expect(kind).value if kind else True))  # type: ignore[arg-type]
        end = self.expect(";")
        return InstanceDecl(name.text, type_name.text, tuple(attrs), span=self.span_from(first, end))

    def _parse_connector(self) -> ConnectorDecl:
        first = self.advance()
        name = self.expect_name()
        self.expect(":")
        type_name = self.expect_name()
        end = self.expect(";")
        return ConnectorDecl(name.text, type_name.text, span=self.span_from(first, end))

    def _parse_attach(self) -> AttachDecl:
        first = self.advance()
        inst = self.expect_name()
        self.expect(".")
        port = self.expect_name()
        self.expect_keyword("to")
        conn = self.expect_name()
        self.expect(".")
        role = self.expect_name()
        end = self.expect(";")
        return AttachDecl(inst.text, port.text, conn.text, role.text, span=self.span_from(first, end))

    def _parse_pipeline(self) -> PipelineDecl:
        first = self.advance()
        name = self.expect_name()
        self.expect(":")
        self.expect_keyword("input")
        stages: list[str] = []
        while True:
            self.expect("|")
            if self.at_keyword("output"):
                if not stages:  # at least one stage between input and output
                    raise self.fail(frozenset({"ident"}), self.peek())
                self.advance()
                break
            stage = self.expect_name()
            self.expect("(")
            self.expect(")")
            stages.append(stage.text)
        end = self.expect(";")
        return PipelineDecl(name.text, tuple(stages), span=self.span_from(first, end))

    def _parse_iodecl(self) -> IoDecl:
        first = self.advance()
        path = self.expect("string")
        end = self.expect(";")
        return IoDecl(first.text, path.value, span=self.span_from(first, end))  # type: ignore[arg-type]


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
    return _Parser(text).parse_items(_TYPEDEFS, "eof")
