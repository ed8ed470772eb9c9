"""Surface syntax: accepted sentences, rejection spans, size limit, and the
pattern path against the token parser."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from archon import parser
from archon.diagnostics import Span
from archon.model import Attachment, ComponentType, Connector, ConnectorType, Instance
from archon.parser import (
    MAX_SOURCE_BYTES,
    ParseError,
    _PATTERN_MIN_CHARS,
    _line_starts,
    _Parser,
    _patterns,
    _span,
    parse,
    parse_library,
    tokenize,
)
from archon.syntax import IoDecl, PipelineDecl, PortTypeDef


def test_minimal_system():
    ast = parse("system S { }")
    assert ast.name == "S"
    assert ast.style is None
    assert ast.declarations == ()


def test_style_and_instance():
    ast = parse('system S style pipes-and-filters { component A : Filter impl "./upper"; }')
    assert ast.style == "pipes-and-filters"
    (decl,) = ast.declarations
    assert isinstance(decl, Instance)
    assert decl.type_name == "Filter"
    assert decl.attrs == {"impl": "./upper"}


def test_truncated_attach_reports_identifier():
    with pytest.raises(ParseError) as exc:
        parse("system S { attach A.stdout to }")
    assert "ident" in exc.value.expected


def test_all_declaration_kinds():
    src = """
    # full tour
    system Big style layered allow-skip {
      porttype Telemetry;
      componenttype Probe {
        port out : StreamOut;
        port taps : Telemetry many;
      }
      connectortype Bus {
        role feed accepts Telemetry, StreamOut fill 1..*;
        role drain accepts StreamIn fill 0..4;
      }
      component A : Probe layer 2 stateless;
      component B : Filter impl "./b" replicas 3;
      connector p : Pipe;
      attach A.out to p.source;
      pipeline Main: input | B() | output;
      input "in.txt";
      output "out.txt";
    }
    """
    ast = parse(src)
    assert ast.name == "Big"
    assert ast.allow_skip
    kinds = [type(d) for d in ast.declarations]
    assert kinds == [
        PortTypeDef,
        ComponentType,
        ConnectorType,
        Instance,
        Instance,
        Connector,
        Attachment,
        PipelineDecl,
        IoDecl,
        IoDecl,
    ]
    bus = ast.declarations[2]
    assert bus.roles[0].max_fill is None
    assert bus.roles[1].max_fill == 4
    probe = ast.declarations[1]
    assert probe.ports[1].many


def test_pipeline_stages_and_shape():
    ast = parse("system S { pipeline P: input | A() | B() | C() | output; }")
    (p,) = ast.declarations
    assert isinstance(p, PipelineDecl)
    assert p.stages == ("A", "B", "C")


def test_pipeline_without_stages_rejected():
    with pytest.raises(ParseError):
        parse("system S { pipeline P: input | output; }")


def test_pipeline_stage_arguments_rejected():
    with pytest.raises(ParseError):
        parse("system S { pipeline P: input | A(1) | output; }")


def test_string_escapes():
    ast = parse('system S { component A : Filter seed "0\\n" impl "a\\\\b\\"c"; }')
    (decl,) = ast.declarations
    assert dict(decl.attrs) == {"seed": "0\n", "impl": 'a\\b"c'}


def test_integers_are_decimal_digits_only():
    ast = parse('system S { component A : Filter impl "cat" replicas ٣; }')  # Arabic-Indic 3
    assert list(ast.declarations[0].attrs.items()) == [("impl", "cat"), ("replicas", 3)]
    with pytest.raises(ParseError) as exc:
        parse('system S { component A : Filter impl "cat" replicas ²; }')  # superscript 2
    assert "unexpected character" in str(exc.value)


def test_bad_escape_rejected():
    with pytest.raises(ParseError):
        parse(r'system S { input "a\qb"; }')


def test_unterminated_string_rejected():
    with pytest.raises(ParseError):
        parse('system S { input "oops; }')


def test_comments_ignored():
    ast = parse("system S { # nothing here\n }")
    assert ast.declarations == ()


def test_oversize_input_rejected():
    filler = "#" + "x" * MAX_SOURCE_BYTES + "\n"
    with pytest.raises(ParseError) as exc:
        parse(filler + "system S { }")
    assert exc.value.code == "OversizeInput"


def test_error_span_is_token_boundary():
    src = "system S { component A : ; }"
    starts = set(tokenize(src)[1])
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert exc.value.span.start in starts


def test_spans_cover_declarations():
    src = 'system S {\n  component A : Filter;\n}\n'
    ast = parse(src)
    (decl,) = ast.declarations
    assert src[decl.span.start : decl.span.end] == "component A : Filter;"
    assert decl.span.line == 2
    assert decl.span.col == 3


def test_keyword_cannot_name_instance():
    with pytest.raises(ParseError):
        parse("system S { component attach : Filter; }")


def test_parse_library_accepts_typedefs_only():
    decls = parse_library(
        "porttype T;\ncomponenttype C { port x : T; }\nconnectortype K { role r accepts T fill 0..1; }"
    )
    assert [type(d) for d in decls] == [PortTypeDef, ComponentType, ConnectorType]
    with pytest.raises(ParseError):
        parse_library("component A : Filter;")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse("system S { } system T { }")


# (source, (code, (start, end, line, col), message, found)) for faults the
# scanner reports itself, before any grammar rule runs.
_SCAN_ERRORS = [
    ('system S { input "oops', ("ParseError", (17, 22, 1, 18), "unterminated string literal", '"oops')),
    ('system S { input "oops\n; }', ("ParseError", (17, 22, 1, 18), "unterminated string literal", '"oops')),
    (r'system S { input "a\qb"; }', ("ParseError", (17, 21, 1, 18), "bad string escape", r'"a\q')),
    ('system S { input "ab\\', ("ParseError", (17, 21, 1, 18), "bad string escape", '"ab\\')),
    ('system S {\r\n  input "x\\\n"; }', ("ParseError", (20, 24, 2, 9), "bad string escape", '"x\\\n')),
    ("system S { component A : Filter replicas ²; }", ("ParseError", (41, 42, 1, 42), "unexpected character '²'", "²")),
    ("system S {\n  @ }", ("ParseError", (13, 14, 2, 3), "unexpected character '@'", "@")),
    ("system S { component ½A : Filter; }", ("ParseError", (21, 22, 1, 22), "unexpected character '½'", "½")),
    ("system S { component A : Filter replicas " + "1" * 5000 + "; }",
     ("ParseError", (41, 5041, 1, 42), "integer literal too long", "1" * 5000)),
    # Of two faults the first in the source is reported.
    ("system S { @ component A : Filter replicas " + "1" * 5000 + "; }",
     ("ParseError", (11, 12, 1, 12), "unexpected character '@'", "@")),
    ("system S { component A : Filter replicas " + "1" * 5000 + "; @ }",
     ("ParseError", (41, 5041, 1, 42), "integer literal too long", "1" * 5000)),
]


@pytest.mark.parametrize("src, want", _SCAN_ERRORS)
def test_scanner_errors(src, want):
    with pytest.raises(ParseError) as exc:
        parse(src)
    err = exc.value
    span = (err.span.start, err.span.end, err.span.line, err.span.col)
    assert (err.code, span, err.message, err.found) == want


# (entry point, source, (code, (start, end, line, col), message, found,
# sorted expected)) for grammar faults: one row per failure point of every
# declaration rule, plus library, end-of-input and keyword-as-name rows.
_PARSE_ERRORS = [
    (parse, '',
     ('ParseError', (0, 0, 1, 1), "expected 'system', found end of input", '', ('system',))),
    (parse, 'component A : Filter;',
     ('ParseError', (0, 9, 1, 1), "expected 'system', found 'component'", 'component', ('system',))),
    (parse, 'system { }',
     ('ParseError', (7, 8, 1, 8), "expected ident, found '{'", '{', ('ident',))),
    (parse, 'system input { }',
     ('ParseError', (7, 12, 1, 8), "expected ident, found 'input'", 'input', ('ident',))),
    (parse, 'system S style { }',
     ('ParseError', (15, 16, 1, 16), "expected ident, found '{'", '{', ('ident',))),
    (parse, 'system S style layered ; { }',
     ('ParseError', (23, 24, 1, 24), "expected '{', found ';'", ';', ('{',))),
    (parse, 'system S allow-skip allow-skip { }',
     ('ParseError', (20, 30, 1, 21), "expected '{', found 'allow-skip'", 'allow-skip', ('{',))),
    (parse, 'system S {',
     ('ParseError', (10, 10, 1, 11), "expected 'attach', 'component', 'componenttype', 'connector', 'connectortype', 'input', 'output', 'pipeline', 'porttype', '}', found end of input", '', ('attach', 'component', 'componenttype', 'connector', 'connectortype', 'input', 'output', 'pipeline', 'porttype', '}'))),
    (parse, 'system S { ; }',
     ('ParseError', (11, 12, 1, 12), "expected 'attach', 'component', 'componenttype', 'connector', 'connectortype', 'input', 'output', 'pipeline', 'porttype', '}', found ';'", ';', ('attach', 'component', 'componenttype', 'connector', 'connectortype', 'input', 'output', 'pipeline', 'porttype', '}'))),
    (parse, 'system S { } system T { }',
     ('ParseError', (13, 19, 1, 14), "expected 'eof', found 'system'", 'system', ('eof',))),
    (parse, 'system S { porttype ; }',
     ('ParseError', (20, 21, 1, 21), "expected ident, found ';'", ';', ('ident',))),
    (parse, 'system S { porttype T x }',
     ('ParseError', (22, 23, 1, 23), "expected 'attach', 'component', 'componenttype', 'connector', 'connectortype', 'input', 'output', 'pipeline', 'porttype', '}', found 'x'", 'x', ('attach', 'component', 'componenttype', 'connector', 'connectortype', 'input', 'output', 'pipeline', 'porttype', '}'))),
    (parse, 'system S { componenttype { } }',
     ('ParseError', (25, 26, 1, 26), "expected ident, found '{'", '{', ('ident',))),
    (parse, 'system S { componenttype C port x : T; } }',
     ('ParseError', (27, 31, 1, 28), "expected '{', found 'port'", 'port', ('{',))),
    (parse, 'system S { componenttype C { role r accepts T fill 1..1; } }',
     ('ParseError', (29, 33, 1, 30), "expected '}', found 'role'", 'role', ('}',))),
    (parse, 'system S { componenttype C { port : T; } }',
     ('ParseError', (34, 35, 1, 35), "expected ident, found ':'", ':', ('ident',))),
    (parse, 'system S { componenttype C { port x T; } }',
     ('ParseError', (36, 37, 1, 37), "expected ':', found 'T'", 'T', (':',))),
    (parse, 'system S { componenttype C { port x : ; } }',
     ('ParseError', (38, 39, 1, 39), "expected ident, found ';'", ';', ('ident',))),
    (parse, 'system S { componenttype C { port x : T many many; } }',
     ('ParseError', (45, 49, 1, 46), "expected ';', found 'many'", 'many', (';',))),
    (parse, 'system S { connectortype { } }',
     ('ParseError', (25, 26, 1, 26), "expected ident, found '{'", '{', ('ident',))),
    (parse, 'system S { connectortype K role r accepts T fill 1..1; } }',
     ('ParseError', (27, 31, 1, 28), "expected '{', found 'role'", 'role', ('{',))),
    (parse, 'system S { connectortype K { port x : T; } }',
     ('ParseError', (29, 33, 1, 30), "expected '}', found 'port'", 'port', ('}',))),
    (parse, 'system S { connectortype K { role accepts T fill 1..1; } }',
     ('ParseError', (34, 41, 1, 35), "expected ident, found 'accepts'", 'accepts', ('ident',))),
    (parse, 'system S { connectortype K { role r T fill 1..1; } }',
     ('ParseError', (36, 37, 1, 37), "expected 'accepts', found 'T'", 'T', ('accepts',))),
    (parse, 'system S { connectortype K { role r accepts fill 1..1; } }',
     ('ParseError', (44, 48, 1, 45), "expected ident, found 'fill'", 'fill', ('ident',))),
    (parse, 'system S { connectortype K { role r accepts T, fill 1..1; } }',
     ('ParseError', (47, 51, 1, 48), "expected ident, found 'fill'", 'fill', ('ident',))),
    (parse, 'system S { connectortype K { role r accepts T 1..1; } }',
     ('ParseError', (46, 47, 1, 47), "expected 'fill', found '1'", '1', ('fill',))),
    (parse, 'system S { connectortype K { role r accepts T fill ..1; } }',
     ('ParseError', (51, 53, 1, 52), "expected int, found '..'", '..', ('int',))),
    (parse, 'system S { connectortype K { role r accepts T fill 1.1; } }',
     ('ParseError', (52, 53, 1, 53), "expected '..', found '.'", '.', ('..',))),
    (parse, 'system S { connectortype K { role r accepts T fill 1..; } }',
     ('ParseError', (54, 55, 1, 55), "expected '*', int, found ';'", ';', ('*', 'int'))),
    (parse, 'system S { connectortype K { role r accepts T fill 1.."2"; } }',
     ('ParseError', (54, 57, 1, 55), 'expected \'*\', int, found \'"2"\'', '"2"', ('*', 'int'))),
    (parse, 'system S { connectortype K { role r accepts T fill 1..* } }',
     ('ParseError', (56, 57, 1, 57), "expected ';', found '}'", '}', (';',))),
    (parse, 'system S { component : Filter; }',
     ('ParseError', (21, 22, 1, 22), "expected ident, found ':'", ':', ('ident',))),
    (parse, 'system S { component A Filter; }',
     ('ParseError', (23, 29, 1, 24), "expected ':', found 'Filter'", 'Filter', (':',))),
    (parse, 'system S { component A : ; }',
     ('ParseError', (25, 26, 1, 26), "expected ident, found ';'", ';', ('ident',))),
    (parse, 'system S { component A : Filter impl 3; }',
     ('ParseError', (37, 38, 1, 38), "expected string, found '3'", '3', ('string',))),
    (parse, 'system S { component A : Filter replicas "3"; }',
     ('ParseError', (41, 44, 1, 42), 'expected int, found \'"3"\'', '"3"', ('int',))),
    (parse, 'system S { component A : Filter layer; }',
     ('ParseError', (37, 38, 1, 38), "expected int, found ';'", ';', ('int',))),
    (parse, 'system S { component A : Filter seed x; }',
     ('ParseError', (37, 38, 1, 38), "expected string, found 'x'", 'x', ('string',))),
    (parse, 'system S { component A : Filter site; }',
     ('ParseError', (36, 37, 1, 37), "expected string, found ';'", ';', ('string',))),
    (parse, 'system S { component A : Filter stateless } }',
     ('ParseError', (42, 43, 1, 43), "expected ';', found '}'", '}', (';',))),
    (parse, 'system S { component attach : Filter; }',
     ('ParseError', (21, 27, 1, 22), "expected ident, found 'attach'", 'attach', ('ident',))),
    (parse, 'system S { component A : input; }',
     ('ParseError', (25, 30, 1, 26), "expected ident, found 'input'", 'input', ('ident',))),
    (parse, 'system S { connector : Pipe; }',
     ('ParseError', (21, 22, 1, 22), "expected ident, found ':'", ':', ('ident',))),
    (parse, 'system S { connector p Pipe; }',
     ('ParseError', (23, 27, 1, 24), "expected ':', found 'Pipe'", 'Pipe', (':',))),
    (parse, 'system S { connector p : ; }',
     ('ParseError', (25, 26, 1, 26), "expected ident, found ';'", ';', ('ident',))),
    (parse, 'system S { connector p : Pipe } }',
     ('ParseError', (30, 31, 1, 31), "expected ';', found '}'", '}', (';',))),
    (parse, 'system S { attach .stdout to p.source; }',
     ('ParseError', (18, 19, 1, 19), "expected ident, found '.'", '.', ('ident',))),
    (parse, 'system S { attach A stdout to p.source; }',
     ('ParseError', (20, 26, 1, 21), "expected '.', found 'stdout'", 'stdout', ('.',))),
    (parse, 'system S { attach A. to p.source; }',
     ('ParseError', (21, 23, 1, 22), "expected ident, found 'to'", 'to', ('ident',))),
    (parse, 'system S { attach A.stdout p.source; }',
     ('ParseError', (27, 28, 1, 28), "expected 'to', found 'p'", 'p', ('to',))),
    (parse, 'system S { attach A.stdout to } }',
     ('ParseError', (30, 31, 1, 31), "expected ident, found '}'", '}', ('ident',))),
    (parse, 'system S { attach A.stdout to p source; }',
     ('ParseError', (32, 38, 1, 33), "expected '.', found 'source'", 'source', ('.',))),
    (parse, 'system S { attach A.stdout to p.; }',
     ('ParseError', (32, 33, 1, 33), "expected ident, found ';'", ';', ('ident',))),
    (parse, 'system S { attach A.stdout to p.source } }',
     ('ParseError', (39, 40, 1, 40), "expected ';', found '}'", '}', (';',))),
    (parse, 'system S { pipeline : input | A() | output; }',
     ('ParseError', (20, 21, 1, 21), "expected ident, found ':'", ':', ('ident',))),
    (parse, 'system S { pipeline P input | A() | output; }',
     ('ParseError', (22, 27, 1, 23), "expected ':', found 'input'", 'input', (':',))),
    (parse, 'system S { pipeline P: | A() | output; }',
     ('ParseError', (23, 24, 1, 24), "expected 'input', found '|'", '|', ('input',))),
    (parse, 'system S { pipeline P: input A() | output; }',
     ('ParseError', (29, 30, 1, 30), "expected '|', found 'A'", 'A', ('|',))),
    (parse, 'system S { pipeline P: input | output; }',
     ('ParseError', (31, 37, 1, 32), "expected ident, found 'output'", 'output', ('ident',))),
    (parse, 'system S { pipeline P: input | () | output; }',
     ('ParseError', (31, 32, 1, 32), "expected ident, found '('", '(', ('ident',))),
    (parse, 'system S { pipeline P: input | A | output; }',
     ('ParseError', (33, 34, 1, 34), "expected '(', found '|'", '|', ('(',))),
    (parse, 'system S { pipeline P: input | A(1) | output; }',
     ('ParseError', (33, 34, 1, 34), "expected ')', found '1'", '1', (')',))),
    (parse, 'system S { pipeline P: input | A() output; }',
     ('ParseError', (35, 41, 1, 36), "expected '|', found 'output'", 'output', ('|',))),
    (parse, 'system S { pipeline P: input | A() | output } }',
     ('ParseError', (44, 45, 1, 45), "expected ';', found '}'", '}', (';',))),
    (parse, 'system S { input ; }',
     ('ParseError', (17, 18, 1, 18), "expected string, found ';'", ';', ('string',))),
    (parse, 'system S { output out.txt; }',
     ('ParseError', (18, 21, 1, 19), "expected string, found 'out'", 'out', ('string',))),
    (parse, 'system S { input "in.txt" } }',
     ('ParseError', (26, 27, 1, 27), "expected ';', found '}'", '}', (';',))),
    (parse, 'system S {\n  component A : Filter;\n  connector p : Pipe\n}\n',
     ('ParseError', (56, 57, 4, 1), "expected ';', found '}'", '}', (';',))),
    (parse, '# header\nsystem S {\r\n\tattach A.x to\n\n',
     ('ParseError', (37, 37, 5, 1), 'expected ident, found end of input', '', ('ident',))),
    (parse, 'system S {\n  component A : Filter; # one\n  component B : Filter impl "x" replicas 2 replicas;\n}',
     ('DuplicateAttribute', (84, 92, 3, 44), "attribute 'replicas' is already given", 'replicas', ())),
    (parse_library, 'system S { }',
     ('ParseError', (0, 6, 1, 1), "expected 'componenttype', 'connectortype', 'porttype', found 'system'", 'system', ('componenttype', 'connectortype', 'porttype'))),
    (parse_library, 'porttype T; component A : Filter;',
     ('ParseError', (12, 21, 1, 13), "expected 'componenttype', 'connectortype', 'porttype', found 'component'", 'component', ('componenttype', 'connectortype', 'porttype'))),
    (parse_library, 'porttype T; }',
     ('ParseError', (12, 13, 1, 13), "expected 'componenttype', 'connectortype', 'porttype', found '}'", '}', ('componenttype', 'connectortype', 'porttype'))),
    (parse_library, 'componenttype C {',
     ('ParseError', (17, 17, 1, 18), "expected '}', found end of input", '', ('}',))),
    (parse_library, 'porttype T;\nconnectortype K {\n  role r accepts T fill 1..1\n}',
     ('ParseError', (59, 60, 4, 1), "expected ';', found '}'", '}', (';',))),
    (parse_library, 'porttype',
     ('ParseError', (8, 8, 1, 9), 'expected ident, found end of input', '', ('ident',))),
    (parse, 'system S { component A : Filter impl "a" impl "b"; }',
     ('DuplicateAttribute', (41, 45, 1, 42), "attribute 'impl' is already given", 'impl', ())),
]


@pytest.mark.parametrize("entry, src, want", _PARSE_ERRORS)
def test_parse_errors(entry, src, want):
    with pytest.raises(ParseError) as exc:
        entry(src)
    err = exc.value
    span = (err.span.start, err.span.end, err.span.line, err.span.col)
    assert (err.code, span, err.message, err.found, tuple(sorted(err.expected))) == want


_BETWEEN_TOKENS = re.compile(r"(?:[ \t\r\n]|#[^\n]*)*")
_FRAGMENTS = [
    " ", "\t", "\n", "\r\n", "# note\n", "#",
    "system", "a-b", "_x", "été", "一", "x²", "٣", "42", '"s"', r'"\n\t\"\\"', '"一"',
    "{", "}", ";", ":", ".", "..", ",", "|", "(", ")", "*",
]


def test_a_span_never_ends_before_it_starts():
    with pytest.raises(ValueError):
        _span([0], 5, 4)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join))
def test_tokens_tile_the_source(src):
    texts, starts, values = tokenize(src)
    assert len(texts) == len(starts)
    assert texts[-1] == "" and starts[-1] == len(src)
    lines = _line_starts(src)
    end = 0
    for i, (text, start) in enumerate(zip(texts, starts)):
        assert text == src[start : start + len(text)]
        line = src.count("\n", 0, start) + 1
        col = start - src.rfind("\n", 0, start)
        assert _span(lines, start, start + len(text)) == Span(start, start + len(text), line, col)
        assert _BETWEEN_TOKENS.fullmatch(src, end, start)
        assert (i in values) == (text[:1] == '"' or text[:1].isdecimal())
        end = start + len(text)


# -- the pattern path against the token parser --------------------------------

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_gen", REPO / "perfbench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def _plain(value):
    """``value`` with each record as its type name and every field, span
    included, and each dict as its items in order."""
    if isinstance(value, tuple):
        return (type(value).__name__, *map(_plain, value))
    if isinstance(value, dict):
        return ("dict", *((key, _plain(v)) for key, v in value.items()))
    return value


def _error(err: ParseError) -> tuple:
    return err.code, tuple(err.span), err.message, err.found, tuple(sorted(err.expected))


def _both_paths_agree(src: str) -> bool:
    """The patterns read a source the token parser takes up to its closing
    '}', and the token parser resumed there and parse() give the whole-text
    tree, spans included.  In a source the token parser refuses, the
    patterns stop at or before the error, and the resumed parse and parse()
    raise the token parser's own error.  Whether the source is valid."""
    ahead = _patterns().read(src)
    try:
        want = _Parser(src).parse_system()
    except ParseError as err:
        if ahead is not None:  # None: a refused header, or a character such as ²
            head, start, lines = ahead
            assert start <= err.span.start
            with pytest.raises(ParseError) as resumed:
                _Parser(src, start, lines).parse_system(head)
            assert _error(resumed.value) == _error(err)
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert _error(exc.value) == _error(err)
        return False
    assert ahead is not None, "the patterns refused a valid header"
    head, start, lines = ahead
    assert start == want.span.end - 1, "the patterns stopped before the closing '}'"
    assert _plain(_Parser(src, start, lines).parse_system(head)) == _plain(want)
    assert _plain(parse(src)) == _plain(want)
    return True


@pytest.mark.parametrize("path", sorted((REPO / "tests" / "corpus").glob("*.arch")), ids=lambda p: p.name)
def test_both_paths_agree_on_the_corpus(path):
    assert _both_paths_agree(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("n, seed", [(10, 1), (250, 7), (1000, 7), (1000, 1007), (2000, 3)])
def test_both_paths_agree_on_generated_systems(n, seed):
    assert _both_paths_agree(gen.mixed_arch(n, seed))


def _scans(monkeypatch) -> list[int]:
    """The offset each later call of parser.tokenize scans from, in order."""
    starts: list[int] = []

    def scan(text: str, start: int = 0):
        starts.append(start)
        return tokenize(text, start)

    monkeypatch.setattr(parser, "tokenize", scan)
    return starts


def test_a_source_from_the_threshold_is_read_by_the_patterns(monkeypatch):
    """A smaller one compiles none: test_public_api checks a one-shot check."""
    large = gen.mixed_arch(1000, 7)
    assert len(large) >= _PATTERN_MIN_CHARS
    want = _Parser(large).parse_system()
    scans = _scans(monkeypatch)
    assert _plain(parse(large)) == _plain(want)
    assert scans == [large.rindex("}")]  # the token parser reads only the closing '}'


def test_a_refused_large_source_is_scanned_from_the_refused_declaration(monkeypatch):
    src = gen.mixed_arch(1000, 7)
    at = src.index("\n", len(src) * 9 // 10) + 1  # a line start at about 90% of the body
    src = f"{src[:at]}  attach A.;\n{src[at:]}"
    with pytest.raises(ParseError) as whole:
        _Parser(src).parse_system()
    scans = _scans(monkeypatch)
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert scans == [at + 2] and src.startswith("attach A.;", at + 2)
    assert _error(exc.value) == _error(whole.value)


def test_one_table_names_each_keyword():
    assert _patterns().shapes.keys() == parser._ITEMS.keys()
    assert parser.KEYWORDS == {
        "system", "style", "allow-skip", "porttype", "componenttype", "connectortype", "port", "role",
        "accepts", "fill", "many", "component", "connector", "attach", "to", "pipeline", "input",
        "output", "impl", "replicas", "layer", "stateless", "seed", "site",
    }


# A system with an '@' at every spot where a name goes.
_NAME_SPOTS = (
    "system @ style @ { porttype @; componenttype @ { port @ : @ many; }"
    " connectortype @ { role @ accepts @, @ fill 0..*; } component @ : @ impl \"x\";"
    " connector @ : @; attach @.@ to @.@; pipeline @: input | @() | @() | output; }"
).split("@")


@pytest.mark.parametrize("spot", range(len(_NAME_SPOTS) - 1))
def test_a_keyword_in_any_name_spot_is_refused(spot):
    names = ["A"] * (len(_NAME_SPOTS) - 1) + [""]
    assert _both_paths_agree("".join(map(str.__add__, _NAME_SPOTS, names)))
    names[spot] = "to"
    assert not _both_paths_agree("".join(map(str.__add__, _NAME_SPOTS, names)))


def test_two_words_run_together_read_as_one():
    src = "A".join(_NAME_SPOTS)
    texts, starts, _ = tokenize(src)
    for i in range(len(texts) - 2):
        if _WORDISH.match(texts[i][-1]) and _WORDISH.match(texts[i + 1]):
            _both_paths_agree(src[: starts[i] + len(texts[i])] + src[starts[i + 1] :])


# The spots a generated system varies, each as (well-formed, faulty) fragments.
_FRAGMENTS = {
    "gap": ([" ", "\t", "\n", "\r\n", "  # note: attach A.x to p.y;\n", "#\n", ""], ["", " #}", "\f"]),
    "name": (["A", "b-2", "_x", "Pipe", "été", "一", "x²", "a٣"], ["²", "½A", "attach", "many", "to", "3", "-"]),
    "string": (['"cat"', '""', r'"a\n\t\"\\b"', '"一 # not a comment"'], ['"x', r'"\q"', "cat", "3"]),
    "int": (["0", "1", "12", "٣"], ["²", '"3"', "-1", "9" * 5000]),
    "end": ([";"], ["", ","]),
    "style": (["", "style layered", "style pipes-and-filters"], ["style input", "style", "layered"]),
    "again": ([""], ['impl "a" impl "b"', "replicas 2 replicas 3", "stateless stateless"]),
    "after": ([""], ["}", "x", "system T { }"]),
}
_WORDISH = re.compile(r"[\w-]")
_KINDS = ["porttype", "componenttype", "connectortype", "component", "connector",
          "attach", "pipeline", "input", "output"]


@st.composite
def _systems(draw) -> str:
    """A well-formed system built from fragments, or one with a single
    well-formed fragment swapped for a faulty one of its kind."""

    def pick(kind: str) -> tuple[str, str]:
        return kind, draw(st.sampled_from(_FRAGMENTS[kind][0]))

    def some(make, least: int, most: int) -> list:
        return sum((make() for _ in range(draw(st.integers(least, most)))), [])

    def declaration() -> list:
        kind = draw(st.sampled_from(_KINDS))
        name = lambda: pick("name")  # noqa: E731
        if kind == "porttype":
            return [kind, name(), *draw(st.sampled_from([[";"], []]))]
        if kind == "componenttype":
            port = lambda: ["port", name(), ":", name(), *draw(st.sampled_from([[], ["many"]])), pick("end")]  # noqa: E731
            return [kind, name(), "{", *some(port, 0, 3), "}"]
        if kind == "connectortype":
            role = lambda: ["role", name(), "accepts", name(), *some(lambda: [",", name()], 0, 2),  # noqa: E731
                            "fill", pick("int"), "..", *draw(st.sampled_from([["*"], [pick("int")]])), pick("end")]
            return [kind, name(), "{", *some(role, 0, 2), "}"]
        if kind == "component":
            attrs = []
            for key in draw(st.lists(st.sampled_from(["impl", "seed", "site", "replicas", "layer", "stateless"]),
                                     max_size=3, unique=True)):
                attrs += [key] + ([] if key == "stateless" else [pick("string" if key in ("impl", "seed", "site") else "int")])
            return [kind, name(), ":", name(), *attrs, pick("again"), pick("end")]
        if kind == "connector":
            return [kind, name(), ":", name(), pick("end")]
        if kind == "attach":
            return [kind, name(), ".", name(), "to", name(), ".", name(), pick("end")]
        if kind == "pipeline":
            stage = lambda: ["|", name(), "(", ")"]  # noqa: E731
            return [kind, name(), ":", "input", *some(stage, 1, 3), "|", "output", pick("end")]
        return [kind, pick("string"), pick("end")]

    tokens = ["system", pick("name"), pick("style"), *draw(st.sampled_from([[], ["allow-skip"]])),
              "{", *some(declaration, 0, 6), "}", pick("after")]
    spots = []  # each token, a fixed word or a (kind, fragment) pick, with a gap picked before it
    for token in tokens:
        spots += [pick("gap"), token]
    spots.append(pick("gap"))
    fault = None
    if draw(st.booleans()):
        kinds = sorted({spot[0] for spot in spots if isinstance(spot, tuple)})
        kind = draw(st.sampled_from(kinds))  # gaps outnumber the rest: pick the kind first
        fault = draw(st.sampled_from([i for i, spot in enumerate(spots) if isinstance(spot, tuple) and spot[0] == kind]))
        spots[fault] = (kind, draw(st.sampled_from(_FRAGMENTS[kind][1])))
    out, run_on = "", False
    for i, spot in enumerate(spots):
        text = spot[1] if isinstance(spot, tuple) else spot
        run_on |= i == fault and not text  # only the faulty gap runs two words together
        if text:
            if not run_on and _WORDISH.match(out[-1:]) and _WORDISH.match(text):
                text = " " + text  # two words with no gap between them would make one
            out, run_on = out + text, False
    return out


@settings(max_examples=400, deadline=None)
@given(_systems())
def test_both_paths_agree_on_fragment_systems(src):
    _both_paths_agree(src)
