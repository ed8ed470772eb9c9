"""Canonical formatting: golden forms, round-trip, idempotency."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from archon.formatter import format_system
from archon.model import (
    Attachment,
    ComponentType,
    Connector,
    ConnectorType,
    Instance,
    PortSpec,
    RoleSpec,
)
from archon.parser import parse
from archon.syntax import IoDecl, PipelineDecl, PortTypeDef, SystemAst


def test_minimal_canonical_form():
    assert format_system(parse("system S { }")) == "system S {\n}\n"


def test_declarations_one_per_line():
    src = 'system S{component A:Filter impl "./a";connector p:Pipe;attach A.stdout to p.source;}'
    assert format_system(parse(src)) == (
        "system S {\n"
        '  component A : Filter impl "./a";\n'
        "  connector p : Pipe;\n"
        "  attach A.stdout to p.source;\n"
        "}\n"
    )


def test_nested_blocks_indent():
    src = "system S { componenttype T { port a : StreamIn; port b : StreamOut many; } }"
    assert format_system(parse(src)) == (
        "system S {\n"
        "  componenttype T {\n"
        "    port a : StreamIn;\n"
        "    port b : StreamOut many;\n"
        "  }\n"
        "}\n"
    )


def test_role_fill_rendering():
    src = "system S { connectortype K { role r accepts StreamIn fill 0..*; } }"
    out = format_system(parse(src))
    assert "role r accepts StreamIn fill 0..*;" in out


def test_string_attrs_escaped():
    src = 'system S { component A : Filter seed "0\\n"; }'
    out = format_system(parse(src))
    assert 'seed "0\\n"' in out
    assert parse(out).declarations == parse(src).declarations


def test_round_trip_equals_reparse():
    src = """
    system Pipes style pipes-and-filters {
      component A : Filter impl "./upper" stateless replicas 2;
      pipeline Main: input | A() | output;
      input "in.txt"; output "out.txt";
    }
    """
    first = parse(src)
    assert parse(format_system(first)) == first


def test_format_idempotent_on_source():
    src = 'system S {   component    A : Filter ;\n\n connector p : Pipe; }'
    once = format_system(parse(src))
    assert format_system(parse(once)) == once


# --- generated corpus ------------------------------------------------------

_name = st.from_regex(r"[a-z][a-z0-9]{0,5}", fullmatch=True).filter(
    lambda s: s not in {"to", "port", "role", "fill", "many", "input", "output",
                        "style", "system", "attach", "impl", "layer", "seed", "site"}
)
_type_name = st.sampled_from(["Filter", "Process", "DataStore", "StreamIn", "StreamOut"])
_string = st.text(
    alphabet=st.sampled_from(list("abc xyz/.-_\\\"\n\t")), max_size=12
)

_port_decl = st.builds(
    PortSpec,
    name=_name,
    port_type=_type_name,
    many=st.booleans(),
)
_role_decl = st.builds(
    RoleSpec,
    name=_name,
    accepts=st.lists(_type_name, min_size=1, max_size=3, unique=True).map(tuple),
    min_fill=st.integers(0, 3),
    max_fill=st.one_of(st.none(), st.integers(1, 9)),
)
_attr = st.one_of(
    st.tuples(st.just("impl"), _string),
    st.tuples(st.just("seed"), _string),
    st.tuples(st.just("site"), _string),
    st.tuples(st.just("replicas"), st.integers(1, 9)),
    st.tuples(st.just("layer"), st.integers(0, 9)),
    st.tuples(st.just("stateless"), st.just(True)),
)

_declaration = st.one_of(
    st.builds(PortTypeDef, name=_name),
    st.builds(ComponentType, name=_name, ports=st.lists(_port_decl, max_size=3).map(tuple)),
    st.builds(ConnectorType, name=_name, roles=st.lists(_role_decl, max_size=3).map(tuple)),
    st.builds(
        Instance,
        name=_name,
        type_name=_type_name,
        attrs=st.lists(_attr, max_size=3, unique_by=lambda kv: kv[0]).map(dict),
    ),
    st.builds(Connector, name=_name, type_name=_type_name),
    st.builds(Attachment, instance=_name, port=_name, connector=_name, role=_name),
    st.builds(PipelineDecl, name=_name, stages=st.lists(_name, min_size=1, max_size=4).map(tuple)),
    st.builds(IoDecl, direction=st.sampled_from(["input", "output"]), path=_string),
)

_system = st.builds(
    SystemAst,
    name=_name,
    style=st.one_of(st.none(), _name),
    allow_skip=st.booleans(),
    declarations=st.lists(_declaration, max_size=6).map(tuple),
)


@settings(max_examples=200, deadline=None)
@given(_system)
def test_generated_ast_round_trips(ast):
    text = format_system(ast)
    assert parse(text) == ast


@settings(max_examples=200, deadline=None)
@given(_system)
def test_format_parse_format_is_identity(ast):
    text = format_system(ast)
    assert format_system(parse(text)) == text
