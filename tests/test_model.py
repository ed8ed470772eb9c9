"""Core vocabulary: builtin table, type definitions, wiring edits."""

from __future__ import annotations

import dataclasses
from collections import namedtuple

import pytest
from hypothesis import given, strategies as st

from archon.diagnostics import ArchonError, Span, span_blind
from archon.model import (
    Architecture,
    Attachment,
    ComponentType,
    Connector,
    ConnectorType,
    ExternalBinding,
    Instance,
    PortSpec,
    RoleSpec,
    attach,
    builtin_type_table,
    define_component_type,
    define_connector_type,
    define_port_type,
    validate_arity,
)
from archon.syntax import IoDecl, PipelineDecl, PortTypeDef, SystemAst


def test_builtin_table_contents():
    table = builtin_type_table()
    assert set(table.component_types) == {"Filter", "Process", "DataStore"}
    assert set(table.connector_types) == {"Pipe", "RPC", "Event", "DataAccess"}
    pipe = table.connector("Pipe")
    assert [r.name for r in pipe.roles] == ["source", "sink"]
    flt = table.component("Filter")
    assert [p.name for p in flt.ports] == ["stdin", "stdout"]
    assert flt.port("stdin").port_type == "StreamIn"
    assert flt.port("stdout").port_type == "StreamOut"


def test_builtin_table_is_pure():
    assert builtin_type_table() == builtin_type_table()


def test_builtin_role_arities():
    table = builtin_type_table()
    event = table.connector("Event")
    assert event.role("announcer").min_fill == 1
    assert event.role("announcer").max_fill is None
    assert event.role("listener").min_fill == 0
    access = table.connector("DataAccess")
    assert access.role("store").max_fill == 1
    assert access.role("client").max_fill is None


def test_define_component_type_extends():
    table = builtin_type_table()
    extended = define_component_type(
        table,
        ComponentType(
            "Splitter", (PortSpec("in", "StreamIn", False), PortSpec("out", "StreamOut", True))
        ),
    )
    assert extended.component("Splitter") is not None
    assert table.component("Splitter") is None  # input untouched


def test_define_component_type_rejects_builtin_shadow():
    with pytest.raises(ArchonError) as exc:
        define_component_type(builtin_type_table(), ComponentType("Filter", ()))
    assert exc.value.code == "DuplicateType"


def test_define_component_type_rejects_repeated_port():
    with pytest.raises(ArchonError) as exc:
        define_component_type(
            builtin_type_table(),
            ComponentType("X", (PortSpec("a", "StreamIn"), PortSpec("a", "StreamOut"))),
        )
    assert exc.value.code == "BadPortSpec"


def test_define_connector_type_extends():
    table = define_connector_type(
        builtin_type_table(),
        ConnectorType(
            "Tee",
            (
                RoleSpec("in", ("StreamOut",), 1, 1),
                RoleSpec("out", ("StreamIn",), 2, None),
            ),
        ),
    )
    tee = table.connector("Tee")
    assert tee.role("out").max_fill is None


def test_define_connector_type_rejections():
    table = builtin_type_table()
    with pytest.raises(ArchonError) as exc:
        define_connector_type(table, ConnectorType("Pipe", ()))
    assert exc.value.code == "DuplicateType"
    with pytest.raises(ArchonError) as exc:
        define_connector_type(table, ConnectorType("Z", (RoleSpec("r", (), 0, 1),)))
    assert exc.value.code == "BadRoleSpec"
    with pytest.raises(ArchonError) as exc:
        define_connector_type(table, ConnectorType("Z", (RoleSpec("r", ("StreamIn",), 3, 2),)))
    assert exc.value.code == "BadRoleSpec"
    with pytest.raises(ArchonError) as exc:
        define_connector_type(table, ConnectorType("Z", (RoleSpec("r", ("StreamIn",) * 2, 0, 1),)))
    assert exc.value.code == "BadRoleSpec"


def test_compatible_with_developer_port_type():
    """A developer port type is a bare name that fills exactly the roles naming it."""
    base = builtin_type_table()
    table = define_port_type(base, "Telemetry")
    assert table.has_port_type("Telemetry") and not base.has_port_type("Telemetry")
    with pytest.raises(ArchonError) as exc:
        define_port_type(table, "Telemetry")
    assert exc.value.code == "DuplicateType"
    table = define_connector_type(
        table, ConnectorType("Probe", (RoleSpec("tap", ("Telemetry",), 0, None),))
    )
    assert table.connector("Probe").role("tap").accepts == ("Telemetry",)


def _two_filter_arch() -> Architecture:
    return Architecture(
        name="S",
        instances={
            "A": Instance("A", "Filter"),
            "B": Instance("B", "Filter"),
        },
        connectors={"p1": Connector("p1", "Pipe")},
    )


def test_attach_appends():
    table = builtin_type_table()
    arch = attach(_two_filter_arch(), table, "A", "stdout", "p1", "source")
    assert len(arch.attachments) == 1


def test_attach_duplicate_rejected():
    table = builtin_type_table()
    arch = attach(_two_filter_arch(), table, "A", "stdout", "p1", "source")
    with pytest.raises(ArchonError) as exc:
        attach(arch, table, "A", "stdout", "p1", "source")
    assert exc.value.code == "DuplicateAttachment"


def test_attach_multiplicity_one_enforced():
    table = builtin_type_table()
    arch = Architecture(
        name="S",
        instances={"A": Instance("A", "Filter")},
        connectors={"p1": Connector("p1", "Pipe"), "p2": Connector("p2", "Pipe")},
    )
    arch = attach(arch, table, "A", "stdin", "p1", "sink")
    with pytest.raises(ArchonError) as exc:
        attach(arch, table, "A", "stdin", "p2", "sink")
    assert exc.value.code == "PortMultiplicityExceeded"


@pytest.mark.parametrize(
    "args, code",
    [
        (("Z", "stdout", "p1", "source"), "UnknownInstance"),
        (("A", "nope", "p1", "source"), "UnknownPort"),
        (("A", "stdout", "zz", "source"), "UnknownConnector"),
        (("A", "stdout", "p1", "zz"), "UnknownRole"),
    ],
)
def test_attach_name_errors(args, code):
    with pytest.raises(ArchonError) as exc:
        attach(_two_filter_arch(), builtin_type_table(), *args)
    assert exc.value.code == code


def test_connector_index_follows_the_value():
    """Each value answers from its own tuple, even after its source's index was built."""
    table = builtin_type_table()
    source_only = attach(_two_filter_arch(), table, "A", "stdout", "p1", "source")
    assert source_only.attachments_of_connector("p1", "sink") == ()
    assert (source_only.pipe_edges, source_only.cycle_entries) == ((), {})
    wired = attach(source_only, table, "B", "stdin", "p1", "sink")
    assert [a.instance for a in wired.attachments_of_connector("p1")] == ["A", "B"]
    assert validate_arity(wired, table) == []
    assert (wired.pipe_edges, wired.cycle_entries) == ((("A", "B", "p1"),), {})
    assert source_only.attachments_of_connector("p1", "sink") == ()
    looped = attach(source_only, table, "A", "stdin", "p1", "sink")
    assert (looped.pipe_edges, looped.cycle_entries) == ((("A", "A", "p1"),), {"A": ("p1",)})
    assert (source_only.pipe_edges, wired.cycle_entries) == ((), {})

    unwired = dataclasses.replace(wired, attachments=wired.attachments[:1])
    assert unwired.attachments_of_connector("p1", "sink") == ()
    assert [d.code for d in validate_arity(unwired, table)] == ["RoleUnderfilled"]
    assert (unwired.pipe_edges, unwired.cycle_entries) == ((), {})
    assert unwired == source_only
    assert dataclasses.replace(looped, attachments=looped.attachments[:1]).cycle_entries == {}

    emptied = dataclasses.replace(wired, attachments=())
    assert emptied.attachments_of_connector("p1") == ()
    assert [d.code for d in validate_arity(emptied, table)] == ["RoleUnderfilled"] * 2
    assert emptied.pipe_edges == ()
    refilled = dataclasses.replace(emptied, attachments=wired.attachments[1:])
    assert [a.instance for a in refilled.attachments_of_connector("p1")] == ["B"]
    assert refilled.pipe_edges == ()
    assert dataclasses.replace(source_only, attachments=looped.attachments).cycle_entries == {
        "A": ("p1",)
    }
    assert wired.attachments_of_connector("p1", "sink")[0].instance == "B"
    assert wired.pipe_edges == (("A", "B", "p1"),)

    # The index and the graph are derived from the value, never fields of it.
    assert [f.name for f in dataclasses.fields(wired)] == [
        "name", "style", "instances", "connectors", "attachments",
        "externals", "input", "output", "allow_layer_skip",
    ]


def test_connector_lookups_cannot_change_the_index():
    """Every lookup hands out a tuple, so no caller can alter what later
    readers (plan, export, validate_arity) get from the same value."""
    table = builtin_type_table()
    wired = attach(_two_filter_arch(), table, "A", "stdout", "p1", "source")
    arch = dataclasses.replace(wired, externals=(ExternalBinding("output", "p1", "sink"),))
    lookups = [
        arch.attachments_of_connector("p1"),
        arch.attachments_of_connector("p1", "sink"),
        arch.attachments_of_connector("zz"),
        arch.externals_of_connector("p1"),
        arch.externals_of_connector("zz"),
    ]
    assert [type(found) for found in lookups] == [tuple] * 5
    assert arch.externals_of_connector("p1") is arch.externals_of_connector("p1")
    assert validate_arity(arch, table) == []


def test_validate_arity_underfilled_sink():
    table = builtin_type_table()
    arch = attach(_two_filter_arch(), table, "A", "stdout", "p1", "source")
    diags = validate_arity(arch, table)
    assert [d.code for d in diags] == ["RoleUnderfilled"]
    assert "p1.sink" in diags[0].message


def test_validate_arity_overfilled_source():
    table = builtin_type_table()
    arch = Architecture(
        name="S",
        instances={
            "A": Instance("A", "Filter"),
            "B": Instance("B", "Filter"),
            "C": Instance("C", "Filter"),
        },
        connectors={"p1": Connector("p1", "Pipe")},
    )
    arch = attach(arch, table, "A", "stdout", "p1", "source")
    arch = attach(arch, table, "B", "stdout", "p1", "source")
    arch = attach(arch, table, "C", "stdin", "p1", "sink")
    codes = [d.code for d in validate_arity(arch, table)]
    assert codes == ["RoleOverfilled"]


def test_validate_arity_event_listener_optional():
    table = builtin_type_table()
    arch = Architecture(
        name="S",
        instances={"A": Instance("A", "Process")},
        connectors={"e": Connector("e", "Event")},
    )
    arch = attach(arch, table, "A", "emit", "e", "announcer")
    assert validate_arity(arch, table) == []


def test_validate_arity_no_connectors():
    arch = Architecture(name="S", instances={"A": Instance("A", "Filter")})
    assert validate_arity(arch, builtin_type_table()) == []


_names = st.text(alphabet="abcdefgh", min_size=1, max_size=6)


@given(name=_names, port_type=st.sampled_from(["StreamIn", "StreamOut", "RpcCall"]))
def test_extension_is_monotone(name, port_type):
    """Queries on the base table answer identically after an extension."""
    base = builtin_type_table()
    try:
        extended = define_component_type(base, ComponentType("Ext_" + name, (PortSpec("p", port_type),)))
    except ArchonError:
        return
    for cname, ctype in base.component_types.items():
        assert extended.component(cname) == ctype
    for kname, ktype in base.connector_types.items():
        assert extended.connector(kname) == ktype


# --- records and their spans -----------------------------------------------

_HERE, _THERE = Span(0, 4, 1, 1), Span(30, 41, 3, 5)

# Each span-carrying record, built from its span; nested records carry the
# same span, so two builds differ only in spans.
_RECORDS = {
    "PortSpec": lambda s: PortSpec("stdin", "StreamIn", True, s),
    "RoleSpec": lambda s: RoleSpec("sink", ("StreamIn",), 0, None, s),
    "ComponentType": lambda s: ComponentType("T", (PortSpec("stdin", "StreamIn", span=s),), s),
    "ConnectorType": lambda s: ConnectorType("C", (RoleSpec("sink", ("StreamIn",), span=s),), s),
    "Instance": lambda s: Instance("A", "Filter", {"impl": "cat", "stateless": True}, s),
    "Connector": lambda s: Connector("p", "Pipe", s),
    "Attachment": lambda s: Attachment("A", "stdout", "p", "source", s),
    "PortTypeDef": lambda s: PortTypeDef("Bytes", s),
    "PipelineDecl": lambda s: PipelineDecl("P", ("A", "B"), s),
    "IoDecl": lambda s: IoDecl("input", "in.txt", s),
    "SystemAst": lambda s: SystemAst(
        "S", None, False, (Instance("A", "Filter", span=s), Connector("p", "Pipe", s)), s
    ),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_a_record_is_equal_whatever_its_span(name):
    here, there = _RECORDS[name](_HERE), _RECORDS[name](_THERE)
    assert here.span != there.span
    assert here == there and not here != there
    assert hash(here) == hash(there)
    assert here != _RECORDS[name](None)._replace(**{here._fields[0]: "other"})


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_a_record_equals_no_value_of_another_type(name):
    """Not the bare tuple, nor a record of another type with the same fields."""
    record = _RECORDS[name](_HERE)
    twin = span_blind(namedtuple("Twin", record._fields))._make(record)
    kin = [type(make(None)) for make in _RECORDS.values()]
    same_width = [
        cls._make(record) for cls in kin if cls is not type(record) and len(cls._fields) == len(record)
    ]
    for other in (tuple(record), twin, *same_width):
        assert not record == other and record != other
        assert not other == record and other != record
