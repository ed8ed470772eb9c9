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

One flow reads a system.  A source of ``_PATTERN_MIN_CHARS`` or more,
where a process's one-off pattern compile pays for itself on the first
parse, is read ahead by the patterns (``_Patterns``): one compiled
pattern per declaration shape, whose match groups make the records.
They read the header, then the declarations up to the first they do not
take (no match, a keyword where a name goes, a repeated attribute, an
integer ``int()`` cannot convert): in a valid source, the closing ``}``.
The token parser (``_Parser``) scans and parses from there; it reads
whole a smaller source, one whose header the patterns refuse or in which
a character such as ``²`` heads a token, and a library.  Every token the
patterns took is one it takes, so it raises the error a whole-text parse
would; it alone words the errors.

Its scanner blanks each comment to spaces, which keeps every offset,
then matches each token with the whitespace after it in one
``findall``; the token texts and start offsets are two parallel lists,
and there is no token object.  Line and column are found by bisect over
the line starts, only when a span is built.  The first error aborts the
parse: there is no partial tree and no multi-error recovery.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import cache, partial
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Union

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

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_UNESCAPES = {v: "\\" + k for k, v in _ESCAPES.items()}

# A string literal up to, not including, its closing quote.
_STRING_OPEN = r'"(?:[^"\\\n]|\\[' + re.escape("".join(_ESCAPES)) + "])*"
_TOKEN_SHAPES = r"[^\W\d][\w-]*|\d+|" + _STRING_OPEN + r'"|\.\.|[{};:.,|()*]'
_T = r"[ \t\r\n]*"  # trivia, once the comments are blanked
# A token (ident, int, string, punct) with the whitespace after it.
_TOKEN = re.compile(rf"(?:{_TOKEN_SHAPES}){_T}")
# Patterns that ``re`` compiles and caches on first use: the pieces that
# tile a well-formed source, trivia and tokens, for a faulty source; and a
# string literal, kept, or a comment, blanked, for a source with a ``#``.
_PIECE = r"[ \t\r\n]+|#[^\n]*|" + _TOKEN_SHAPES
_STRING_OR_COMMENT = rf'({_STRING_OPEN}")|#[^\n]*'
# The first characters of int and string tokens.
_LITERAL_HEAD = re.compile(r'[\d"]')
_PUNCT = frozenset(["..", *"{};:.,|()*"])
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


def _first_fault(text: str, start: int = 0) -> int:
    """The offset of the first character of ``text`` from ``start`` that starts
    no piece or heads one as ``²`` would, or ``len(text)``."""
    pos = start
    for m in re.compile(_PIECE).finditer(text, start):
        if m.start() != pos or _bad_head(text[pos]):
            break
        pos = m.end()
    return pos


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


def _unquote(word: str) -> str:
    """The value of the string literal ``word``."""
    body = word[1:-1]
    return _ESCAPE.sub(lambda e: _ESCAPES[e[1]], body) if "\\" in body else body


def _blank_comments(text: str, start: int = 0) -> str:
    """``text`` with spaces in place of each comment from ``start`` on, which
    keeps every offset; ``start`` is outside any comment or string."""
    if text.find("#", start) < 0:
        return text
    return text[:start] + re.sub(_STRING_OR_COMMENT, lambda c: c[1] or " " * len(c[0]), text[start:])


def _scan(text: str, start: int) -> tuple[list[str], list[int]]:
    """The tokens of ``text`` from ``start`` and their start offsets, with
    ``len(text)`` after the last, which falls short of it where a character
    fits no token."""
    text = _blank_comments(text, start)
    lead = len(text) - len(text[start:].lstrip(" \t\r\n"))
    pieces = _TOKEN.findall(text, lead)  # each token with the trivia after it
    return list(map(str.rstrip, pieces)), list(accumulate(map(len, pieces), initial=lead))


def tokenize(text: str, start: int = 0) -> tuple[list[str], list[int], dict[int, Union[str, int]]]:
    """The tokens of ``text`` from the offset ``start``, which must not fall in
    a token, comment or string, as two parallel lists, their texts and start
    offsets, each ending with end of input ("" at ``len(text)``); and the
    value of every int and string token, by index."""
    texts, starts = _scan(text, start)
    fault = len(text)
    if starts[-1] != fault or not text.isascii() and any(map(_bad_head, set(text[start:]))):
        fault = _first_fault(text, start)
        if fault < len(text):
            texts, starts = _scan(text[:fault], start)  # the tokens after it are misplaced
    values: dict[int, Union[str, int]] = {}
    for m in _LITERAL_HEAD.finditer("".join(map(itemgetter(0), texts))):
        i = m.start()
        word = texts[i]
        if word[0] == '"':
            values[i] = _unquote(word)
            continue
        try:
            values[i] = int(word)
        except ValueError:  # more digits than int() converts
            span = _span(_line_starts(text), starts[i], starts[i] + len(word))
            raise ParseError(span, frozenset(), word, "integer literal too long") from None
    if fault < len(text):
        raise _scan_error(text, fault)
    texts.append("")
    return texts, starts, values


class _Head(NamedTuple):
    """A system's header and the declarations read so far after it."""

    name: str
    style: Optional[str]
    allow_skip: bool
    declarations: tuple[Declaration, ...]
    start: int  # the offset of the keyword 'system'


class _Parser:
    """Recursive descent over the tokens of ``text`` from the offset ``start``,
    given the line starts ``lines`` or finding them."""

    def __init__(self, text: str, start: int = 0, lines: Optional[list[int]] = None) -> None:
        self.texts, self.starts, self.values = tokenize(text, start)
        self.lines = _line_starts(text) if lines is None else lines
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

    def parse_system(self, head: Optional[_Head] = None) -> SystemAst:
        """The system, from its header on or, given the ``head`` the patterns
        read, from the declarations after it."""
        if head is None:
            self.expect("system")
            name = self.name()
            style = self.name() if self.accept("style") else None
            head = _Head(name, style, self.accept("allow-skip"), (), self.starts[0])
            self.expect("{")
        decls = head.declarations + self.parse_items(_ITEMS, "}")
        end = self.starts[self.advance()] + 1  # parse_items stops only at the '}'
        if self.texts[self.pos]:
            raise self.fail({"eof"})
        return SystemAst(head.name, head.style, head.allow_skip, decls, _span(self.lines, head.start, end))

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

# The one keyword table: the declarations, the attributes and the words within them.
KEYWORDS = frozenset(
    [*_ITEMS, *_ATTRS, "system", "style", "allow-skip", "port", "role", "accepts", "fill", "many", "to"]
)
# Token texts that are not names.
_NOT_NAMES = KEYWORDS | _PUNCT | {""}


def _check_size(text: str) -> None:
    if len(text.encode("utf-8")) > MAX_SOURCE_BYTES:
        raise ParseError(
            Span(0, 0, 1, 1),
            frozenset(),
            "",
            f"source exceeds {MAX_SOURCE_BYTES} bytes",
            code="OversizeInput",
        )


# -- the patterns that read ahead ---------------------------------------------

# The length from which parse() reads ahead with the patterns.  Compiling them
# costs a process about 4 ms once; below this they save less than that on
# a source's first parse.
_PATTERN_MIN_CHARS = 1 << 16

_K = r"(?![\w-])"  # the end of a keyword or name
_N = r"[^\W\d][\w-]*" + _K
_S = _STRING_OPEN + '"'
_NEXT = rf"(){_T}([\w-]*)"
_PORT = rf"port{_K}{_T}({_N}){_T}:{_T}({_N})(?:{_T}(many){_K})?{_T};"
_ROLE = (
    rf"role{_K}{_T}({_N}){_T}accepts{_K}{_T}({_N}(?:{_T},{_T}{_N})*)"
    rf"{_T}fill{_K}{_T}(\d+){_T}\.\.{_T}(\d+|\*){_T};"
)
_VALUES = {"string": rf"{_T}{_S}", "int": rf"{_T}\d+", None: ""}  # by token kind
_ATTR = "|".join(rf"{key}{_K}{_VALUES[kind]}" for key, kind in _ATTRS.items())


def _name(name: str) -> str:
    """``name``, which must not be a keyword."""
    if name in KEYWORDS:
        raise ValueError(name)
    return name


def _names(names: tuple) -> tuple:
    """``names``, none of which may be a keyword."""
    if KEYWORDS.isdisjoint(names):
        return names
    raise ValueError(names)


class _Patterns:
    """One compiled pattern per declaration shape, and the methods that make
    each declaration's record from its match, span and the line starts.

    Each declaration's pattern starts after its keyword.  It ends with an
    empty group at the declaration's last token, then the trivia and the
    word after it; that word, the pattern's last group, picks the next
    pattern.  Trivia may sit between any two tokens, and no name or keyword
    may run on into a word, so the patterns cut tokens where the scanner
    does.
    """

    def __init__(self) -> None:
        self.header = re.compile(
            rf"{_T}(system){_K}{_T}({_N})(?:{_T}style{_K}{_T}({_N}))?(?:{_T}(allow-skip){_K})?{_T}\{{{_NEXT}"
        )
        # Within a declaration its matched pattern has checked: the parts one by one.
        self.ports = re.compile(rf"{_T}({_PORT})")
        self.roles = re.compile(rf"{_T}({_ROLE})")
        self.accepts = re.compile(rf"(?:{_T},)?{_T}({_N})")
        self.attrs = re.compile(rf"{_T}({'|'.join(_ATTRS)}){_K}(?:{_T}({_S}|\d+))?")
        self.stages = re.compile(rf"{_T}\|{_T}({_N}){_T}\({_T}\)")
        io = re.compile(rf"{_T}({_S}){_T};{_NEXT}")
        # Each declaration keyword -> its pattern and the method that makes its record.
        self.shapes = {
            "porttype": (re.compile(rf"{_T}({_N})(?:{_T};)?{_NEXT}"), self.port_type),
            "componenttype": (
                re.compile(rf"{_T}({_N}){_T}\{{((?:{_T}{_PORT})*){_T}\}}{_NEXT}"),
                self.component_type,
            ),
            "connectortype": (
                re.compile(rf"{_T}({_N}){_T}\{{((?:{_T}{_ROLE})*){_T}\}}{_NEXT}"),
                self.connector_type,
            ),
            "component": (
                re.compile(rf"{_T}({_N}){_T}:{_T}({_N})((?:{_T}(?:{_ATTR}))*){_T};{_NEXT}"),
                self.component,
            ),
            "connector": (re.compile(rf"{_T}({_N}){_T}:{_T}({_N}){_T};{_NEXT}"), self.connector),
            "attach": (
                re.compile(rf"{_T}({_N}){_T}\.{_T}({_N}){_T}to{_K}{_T}({_N}){_T}\.{_T}({_N}){_T};{_NEXT}"),
                self.attach,
            ),
            "pipeline": (
                re.compile(
                    rf"{_T}({_N}){_T}:{_T}input{_K}((?:{_T}\|{_T}{_N}{_T}\({_T}\))+){_T}\|{_T}output{_K}{_T};{_NEXT}"
                ),
                self.pipeline,
            ),
            "input": (io, partial(self.io_decl, "input")),
            "output": (io, partial(self.io_decl, "output")),
        }

    def read(self, text: str) -> Optional[tuple[_Head, int, list[int]]]:
        """The header of ``text`` with the declarations the patterns take after
        it, as ``_Parser.parse_system`` takes them; the offset of the first word
        they do not take, the closing ``}`` once they take every declaration;
        and the line starts.  None where they refuse the header or a character
        such as ``²`` heads a token."""
        if not text.isascii() and any(map(_bad_head, set(text))) and _first_fault(text) < len(text):
            return None
        text = _blank_comments(text)
        m = head = self.header.match(text)
        if m is None or not KEYWORDS.isdisjoint(head.group(2, 3)):
            return None
        lines = _line_starts(text)
        decls: list[Declaration] = []
        pos = m.start(m.lastindex)
        while (shape := self.shapes.get(m[m.lastindex])) is not None:
            pattern, build = shape
            if (m := pattern.match(text, m.end())) is None:
                break
            try:
                decls.append(build(m, _span(lines, pos, m.end(m.lastindex - 1)), lines))
            except ValueError:  # a keyword as a name, a repeated attribute, too many digits for int()
                break
            pos = m.start(m.lastindex)
        return _Head(head[2], head[3], head[4] is not None, tuple(decls), head.start(1)), pos, lines

    def port_type(self, m: re.Match, span: Span, lines: list[int]) -> PortTypeDef:
        return PortTypeDef(_name(m[1]), span)

    def component_type(self, m: re.Match, span: Span, lines: list[int]) -> ComponentType:
        ports = tuple(
            PortSpec(*_names(p.group(2, 3)), p[4] is not None, _span(lines, p.start(1), p.end(1)))
            for p in self.ports.finditer(m.string, m.start(2), m.end(2))
        )
        return ComponentType(_name(m[1]), ports, span)

    def connector_type(self, m: re.Match, span: Span, lines: list[int]) -> ConnectorType:
        roles = tuple(
            RoleSpec(
                _name(r[2]),
                _names(tuple(self.accepts.findall(m.string, r.start(3), r.end(3)))),
                int(r[4]),
                None if r[5] == "*" else int(r[5]),
                _span(lines, r.start(1), r.end(1)),
            )
            for r in self.roles.finditer(m.string, m.start(2), m.end(2))
        )
        return ConnectorType(_name(m[1]), roles, span)

    def component(self, m: re.Match, span: Span, lines: list[int]) -> Instance:
        attrs: dict[str, Union[str, int, bool]] = {}
        for key, value in self.attrs.findall(m.string, m.start(3), m.end(3)):
            if key in attrs:
                raise ValueError(key)  # a DuplicateAttribute error
            attrs[key] = True if not value else _unquote(value) if value[0] == '"' else int(value)
        return Instance(*_names(m.group(1, 2)), attrs, span)

    def connector(self, m: re.Match, span: Span, lines: list[int]) -> Connector:
        return Connector(*_names(m.group(1, 2)), span)

    def attach(self, m: re.Match, span: Span, lines: list[int]) -> Attachment:
        return Attachment(*_names(m.group(1, 2, 3, 4)), span)

    def pipeline(self, m: re.Match, span: Span, lines: list[int]) -> PipelineDecl:
        stages = _names(tuple(self.stages.findall(m.string, m.start(2), m.end(2))))
        return PipelineDecl(_name(m[1]), stages, span)

    def io_decl(self, kind: str, m: re.Match, span: Span, lines: list[int]) -> IoDecl:
        return IoDecl(kind, _unquote(m[1]), span)


@cache
def _patterns() -> _Patterns:
    """The pattern path, compiled on its first use."""
    return _Patterns()


def parse(text: str) -> SystemAst:
    """Parse one system description; raises ParseError on the first fault.

    The patterns read a source of ``_PATTERN_MIN_CHARS`` or more ahead; the
    token parser reads the rest of it, and every smaller source whole.
    """
    _check_size(text)
    if len(text) >= _PATTERN_MIN_CHARS and (ahead := _patterns().read(text)) is not None:
        head, start, lines = ahead
        return _Parser(text, start, lines).parse_system(head)
    return _Parser(text).parse_system()


def parse_library(text: str) -> tuple[Declaration, ...]:
    """Parse a type library: a bare sequence of type definitions."""
    _check_size(text)
    return _Parser(text).parse_items(_TYPEDEFS, "")
