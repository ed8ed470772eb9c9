"""Surface syntax: accepted sentences, rejection spans, size limit."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from archon.diagnostics import Span
from archon.parser import MAX_SOURCE_BYTES, ParseError, parse, parse_library, tokenize
from archon.syntax import (
    AttachDecl,
    ComponentTypeDef,
    ConnectorDecl,
    ConnectorTypeDef,
    InstanceDecl,
    IoDecl,
    PipelineDecl,
    PortTypeDef,
)


def test_minimal_system():
    ast = parse("system S { }")
    assert ast.name == "S"
    assert ast.style is None
    assert ast.declarations == ()


def test_style_and_instance():
    ast = parse('system S style pipes-and-filters { component A : Filter impl "./upper"; }')
    assert ast.style == "pipes-and-filters"
    (decl,) = ast.declarations
    assert isinstance(decl, InstanceDecl)
    assert decl.type_name == "Filter"
    assert decl.attrs == (("impl", "./upper"),)


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
        ComponentTypeDef,
        ConnectorTypeDef,
        InstanceDecl,
        InstanceDecl,
        ConnectorDecl,
        AttachDecl,
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
    assert ast.declarations[0].attrs == (("impl", "cat"), ("replicas", 3))
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
    starts = {t.span.start for t in tokenize(src)}
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
    assert [type(d) for d in decls] == [PortTypeDef, ComponentTypeDef, ConnectorTypeDef]
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
]


@pytest.mark.parametrize("src, want", _SCAN_ERRORS)
def test_scanner_errors(src, want):
    with pytest.raises(ParseError) as exc:
        parse(src)
    err = exc.value
    span = (err.span.start, err.span.end, err.span.line, err.span.col)
    assert (err.code, span, err.message, err.found) == want


_BETWEEN_TOKENS = re.compile(r"(?:[ \t\r\n]|#[^\n]*)*")
_FRAGMENTS = [
    " ", "\t", "\n", "\r\n", "# note\n", "#",
    "system", "a-b", "_x", "été", "一", "x²", "٣", "42", '"s"', r'"\n\t\"\\"', '"一"',
    "{", "}", ";", ":", ".", "..", ",", "|", "(", ")", "*",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join))
def test_tokens_tile_the_source(src):
    tokens = tokenize(src)
    assert tokens[-1].kind == "eof" and tokens[-1].start == len(src)
    end = 0
    for tok in tokens:
        assert tok.text == src[tok.start : tok.end]
        assert tok.line == src.count("\n", 0, tok.start) + 1
        assert tok.col == tok.start - src.rfind("\n", 0, tok.start)
        assert tok.span == Span(tok.start, tok.end, tok.line, tok.col)
        assert _BETWEEN_TOKENS.fullmatch(src, end, tok.start)
        end = tok.end
