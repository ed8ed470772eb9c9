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

from dataclasses import dataclass
from typing import Optional, Union

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

_PUNCT = {"{", "}", ";", ":", ".", ",", "|", "(", ")", "*"}

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_UNESCAPES = {v: "\\" + k for k, v in _ESCAPES.items()}


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident', 'int', 'string', 'eof', or the punctuation itself
    text: str
    value: Union[str, int, None]
    span: Span


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


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)

    def span_at(start: int, end: int, start_line: int, start_col: int) -> Span:
        return Span(start, end, start_line, start_col)

    def err(start: int, end: int, start_line: int, start_col: int, msg: str) -> ParseError:
        return ParseError(
            span_at(start, end, start_line, start_col), frozenset(), text[start:end], msg
        )

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        col = i - line_start + 1
        start = i
        if ch.isalpha() or ch == "_":
            i += 1
            while i < n and (text[i].isalnum() or text[i] in "_-"):
                i += 1
            word = text[start:i]
            tokens.append(Token("ident", word, word, span_at(start, i, line, col)))
            continue
        if ch.isdecimal():
            i += 1
            while i < n and text[i].isdecimal():
                i += 1
            word = text[start:i]
            tokens.append(Token("int", word, int(word), span_at(start, i, line, col)))
            continue
        if ch == '"':
            i += 1
            parts: list[str] = []
            while True:
                if i >= n or text[i] == "\n":
                    raise err(start, i, line, col, "unterminated string literal")
                c = text[i]
                if c == '"':
                    i += 1
                    break
                if c == "\\":
                    if i + 1 >= n or text[i + 1] not in _ESCAPES:
                        raise err(start, min(i + 2, n), line, col, "bad string escape")
                    parts.append(_ESCAPES[text[i + 1]])
                    i += 2
                    continue
                parts.append(c)
                i += 1
            tokens.append(
                Token("string", text[start:i], "".join(parts), span_at(start, i, line, col))
            )
            continue
        if ch == "." and i + 1 < n and text[i + 1] == ".":
            i += 2
            tokens.append(Token("..", "..", None, span_at(start, i, line, col)))
            continue
        if ch in _PUNCT:
            i += 1
            tokens.append(Token(ch, ch, None, span_at(start, i, line, col)))
            continue
        raise err(start, i + 1, line, col, f"unexpected character {ch!r}")

    col = n - line_start + 1
    tokens.append(Token("eof", "", None, Span(n, n, line, col)))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
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

    def expect_type_name(self) -> Token:
        # Type positions admit any identifier shape, including hyphenated
        # names, but still not keywords.
        return self.expect_name()

    def span_from(self, start: Span, end: Span) -> Span:
        return Span(start.start, end.end, start.line, start.col)

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
        decls: list[Declaration] = []
        while not self.peek().kind == "}":
            decls.append(self.parse_item())
        close = self.expect("}")
        self.expect("eof")
        return SystemAst(
            name=name.text,
            style=style,
            allow_skip=allow_skip,
            declarations=tuple(decls),
            span=self.span_from(first.span, close.span),
        )

    _ITEM_KEYWORDS = frozenset(
        {
            "porttype",
            "componenttype",
            "connectortype",
            "component",
            "connector",
            "attach",
            "pipeline",
            "input",
            "output",
        }
    )

    def parse_item(self) -> Declaration:
        tok = self.peek()
        if tok.kind == "ident":
            handler = {
                "porttype": self._parse_port_type,
                "componenttype": self._parse_component_type,
                "connectortype": self._parse_connector_type,
                "component": self._parse_component,
                "connector": self._parse_connector,
                "attach": self._parse_attach,
                "pipeline": self._parse_pipeline,
                "input": self._parse_input,
                "output": self._parse_output,
            }.get(tok.text)
            if handler is not None:
                return handler()
        raise self.fail(self._ITEM_KEYWORDS | {"}"}, tok)

    def _parse_port_type(self) -> PortTypeDef:
        first = self.expect_keyword("porttype")
        name = self.expect_name()
        end = name.span
        if self.peek().kind == ";":  # terminator is optional here
            end = self.advance().span
        return PortTypeDef(name.text, span=self.span_from(first.span, end))

    def _parse_component_type(self) -> ComponentTypeDef:
        first = self.expect_keyword("componenttype")
        name = self.expect_name()
        self.expect("{")
        ports: list[PortDecl] = []
        while self.at_keyword("port"):
            ports.append(self._parse_port_decl())
        close = self.expect("}")
        return ComponentTypeDef(name.text, tuple(ports), span=self.span_from(first.span, close.span))

    def _parse_port_decl(self) -> PortDecl:
        first = self.expect_keyword("port")
        name = self.expect_name()
        self.expect(":")
        ptype = self.expect_type_name()
        many = False
        if self.at_keyword("many"):
            self.advance()
            many = True
        end = self.expect(";")
        return PortDecl(name.text, ptype.text, many, span=self.span_from(first.span, end.span))

    def _parse_connector_type(self) -> ConnectorTypeDef:
        first = self.expect_keyword("connectortype")
        name = self.expect_name()
        self.expect("{")
        roles: list[RoleDecl] = []
        while self.at_keyword("role"):
            roles.append(self._parse_role_decl())
        close = self.expect("}")
        return ConnectorTypeDef(name.text, tuple(roles), span=self.span_from(first.span, close.span))

    def _parse_role_decl(self) -> RoleDecl:
        first = self.expect_keyword("role")
        name = self.expect_name()
        self.expect_keyword("accepts")
        accepts = [self.expect_type_name().text]
        while self.peek().kind == ",":
            self.advance()
            accepts.append(self.expect_type_name().text)
        self.expect_keyword("fill")
        min_fill = self.expect("int")
        self.expect("..")
        tok = self.peek()
        max_fill: Optional[int]
        if tok.kind == "int":
            max_fill = self.advance().value  # type: ignore[assignment]
        elif tok.kind == "*":
            max_fill = None
            self.advance()
        else:
            raise self.fail(frozenset({"int", "*"}), tok)
        end = self.expect(";")
        return RoleDecl(
            name.text,
            tuple(accepts),
            min_fill.value,  # type: ignore[arg-type]
            max_fill,
            span=self.span_from(first.span, end.span),
        )

    _ATTR_KEYWORDS = frozenset({"impl", "replicas", "layer", "stateless", "seed", "site"})

    def _parse_component(self) -> InstanceDecl:
        first = self.expect_keyword("component")
        name = self.expect_name()
        self.expect(":")
        type_name = self.expect_type_name()
        attrs: list[tuple[str, Union[str, int, bool]]] = []
        while True:
            tok = self.peek()
            if tok.kind != "ident" or tok.text not in self._ATTR_KEYWORDS:
                break
            self.advance()
            if tok.text in ("impl", "seed", "site"):
                attrs.append((tok.text, self.expect("string").value))  # type: ignore[arg-type]
            elif tok.text in ("replicas", "layer"):
                attrs.append((tok.text, self.expect("int").value))  # type: ignore[arg-type]
            else:  # stateless
                attrs.append((tok.text, True))
        end = self.expect(";")
        return InstanceDecl(
            name.text, type_name.text, tuple(attrs), span=self.span_from(first.span, end.span)
        )

    def _parse_connector(self) -> ConnectorDecl:
        first = self.expect_keyword("connector")
        name = self.expect_name()
        self.expect(":")
        type_name = self.expect_type_name()
        end = self.expect(";")
        return ConnectorDecl(name.text, type_name.text, span=self.span_from(first.span, end.span))

    def _parse_attach(self) -> AttachDecl:
        first = self.expect_keyword("attach")
        inst = self.expect_name()
        self.expect(".")
        port = self.expect_name()
        self.expect_keyword("to")
        conn = self.expect_name()
        self.expect(".")
        role = self.expect_name()
        end = self.expect(";")
        return AttachDecl(
            inst.text, port.text, conn.text, role.text, span=self.span_from(first.span, end.span)
        )

    def _parse_pipeline(self) -> PipelineDecl:
        first = self.expect_keyword("pipeline")
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
        return PipelineDecl(name.text, tuple(stages), span=self.span_from(first.span, end.span))

    def _parse_input(self) -> IoDecl:
        return self._parse_iodecl("input")

    def _parse_output(self) -> IoDecl:
        return self._parse_iodecl("output")

    def _parse_iodecl(self, direction: str) -> IoDecl:
        first = self.expect_keyword(direction)
        path = self.expect("string")
        end = self.expect(";")
        return IoDecl(direction, path.value, span=self.span_from(first.span, end.span))  # type: ignore[arg-type]


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
    p = _Parser(text)
    decls: list[Declaration] = []
    while p.peek().kind != "eof":
        tok = p.peek()
        if tok.kind == "ident" and tok.text in ("porttype", "componenttype", "connectortype"):
            decls.append(p.parse_item())
        else:
            raise p.fail(frozenset({"porttype", "componenttype", "connectortype"}), tok)
    return tuple(decls)
