"""Core vocabulary: typed components, typed connectors, and the wired graph.

Components expose named ports, connectors expose named roles, and a system
is a set of component instances whose ports are attached to connector
roles.  Which port may fill which role is decided by exact membership of
the port's type among the role's accepted types; there is no subtyping.

``ComponentType`` and ``ConnectorType`` (with their ``PortSpec`` and
``RoleSpec`` records) are what the parser emits for a ``componenttype`` or
``connectortype`` declaration, and ``define_*`` stores them in the table as
they are.  ``Instance``, ``Connector`` and ``Attachment`` are what it emits
for a ``component``, ``connector`` or ``attach`` declaration and what
pipeline expansion produces; resolution stores those records as they are.
An ``Architecture`` holds the file paths its external streams are bound to.

Every record but ``Architecture`` is a named tuple; a declaration record's
trailing span plays no part in its equality or hash (``span_blind``).
All values here are immutable.  Extending a type table (``define_*``) or
attaching a port (``attach``, ``attach_many``) returns a new value and
leaves the input untouched, so libraries of types compose without
mutation-order surprises and every value is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional

from . import topology
from .diagnostics import ArchonError, Diagnostic, Span, error, fail, span_blind

# Builtin port types.  Developer-defined port types are bare names added
# alongside these; compatibility never looks inside a name.
STREAM_IN = "StreamIn"
STREAM_OUT = "StreamOut"
RPC_CALL = "RpcCall"
RPC_DEF = "RpcDef"
EVENT_EMIT = "EventEmit"
EVENT_RECV = "EventRecv"
STORE_ACCESS = "StoreAccess"
STORE_PROVIDE = "StoreProvide"

BUILTIN_PORT_TYPES = (
    STREAM_IN,
    STREAM_OUT,
    RPC_CALL,
    RPC_DEF,
    EVENT_EMIT,
    EVENT_RECV,
    STORE_ACCESS,
    STORE_PROVIDE,
)

# Port types through which an instance initiates traffic; used to orient
# edges in exports and hub renderings.
OUTBOUND_PORT_TYPES = frozenset({STREAM_OUT, EVENT_EMIT, RPC_CALL, STORE_ACCESS})

PIPE_TYPE = "Pipe"

UNBOUNDED: Optional[int] = None


@span_blind
class PortSpec(NamedTuple):
    name: str
    port_type: str
    many: bool = False  # may be attached more than once
    span: Optional[Span] = None


@span_blind
class RoleSpec(NamedTuple):
    name: str
    accepts: tuple[str, ...]  # in source order
    min_fill: int = 1
    max_fill: Optional[int] = 1  # None = unbounded
    span: Optional[Span] = None


@span_blind
class ComponentType(NamedTuple):
    name: str
    ports: tuple[PortSpec, ...]
    span: Optional[Span] = None

    def port(self, name: str) -> Optional[PortSpec]:
        for p in self.ports:
            if p.name == name:
                return p
        return None


@span_blind
class ConnectorType(NamedTuple):
    name: str
    roles: tuple[RoleSpec, ...]
    span: Optional[Span] = None

    def role(self, name: str) -> Optional[RoleSpec]:
        for r in self.roles:
            if r.name == name:
                return r
        return None


class TypeTable(NamedTuple):
    """Registry of port, component, and connector types.

    The builtin entries are always present and can never be shadowed.
    """

    port_types: frozenset[str]
    component_types: Mapping[str, ComponentType]
    connector_types: Mapping[str, ConnectorType]

    def has_port_type(self, name: str) -> bool:
        return name in self.port_types

    def component(self, name: str) -> Optional[ComponentType]:
        return self.component_types.get(name)

    def connector(self, name: str) -> Optional[ConnectorType]:
        return self.connector_types.get(name)


def builtin_type_table() -> TypeTable:
    """The table every system starts from.

    Filter is the classic stream transformer (stdin/stdout); Process is the
    general component and carries one default port per port type except
    StoreProvide, which is DataStore's defining capability.  Refined
    component types with other port sets are declared by the developer.
    """
    filter_t = ComponentType(
        "Filter",
        (PortSpec("stdin", STREAM_IN), PortSpec("stdout", STREAM_OUT)),
    )
    process_t = ComponentType(
        "Process",
        (
            PortSpec("stdin", STREAM_IN),
            PortSpec("stdout", STREAM_OUT),
            PortSpec("call", RPC_CALL, True),
            PortSpec("serve", RPC_DEF, True),
            PortSpec("emit", EVENT_EMIT, True),
            PortSpec("listen", EVENT_RECV, True),
            PortSpec("access", STORE_ACCESS, True),
        ),
    )
    datastore_t = ComponentType("DataStore", (PortSpec("store", STORE_PROVIDE),))

    pipe_t = ConnectorType(
        PIPE_TYPE,
        (
            RoleSpec("source", (STREAM_OUT,), 1, 1),
            RoleSpec("sink", (STREAM_IN,), 1, 1),
        ),
    )
    rpc_t = ConnectorType(
        "RPC",
        (
            RoleSpec("caller", (RPC_CALL,), 1, 1),
            RoleSpec("definer", (RPC_DEF,), 1, 1),
        ),
    )
    event_t = ConnectorType(
        "Event",
        (
            RoleSpec("announcer", (EVENT_EMIT,), 1, UNBOUNDED),
            RoleSpec("listener", (EVENT_RECV,), 0, UNBOUNDED),
        ),
    )
    dataaccess_t = ConnectorType(
        "DataAccess",
        (
            RoleSpec("client", (STORE_ACCESS,), 1, UNBOUNDED),
            RoleSpec("store", (STORE_PROVIDE,), 1, 1),
        ),
    )

    return TypeTable(
        port_types=frozenset(BUILTIN_PORT_TYPES),
        component_types={t.name: t for t in (filter_t, process_t, datastore_t)},
        connector_types={t.name: t for t in (pipe_t, rpc_t, event_t, dataaccess_t)},
    )


def define_port_type(table: TypeTable, name: str) -> TypeTable:
    if table.has_port_type(name):
        raise fail("DuplicateType", f"port type '{name}' is already defined")
    return table._replace(port_types=table.port_types | {name})


def define_component_type(table: TypeTable, ctype: ComponentType) -> TypeTable:
    name, span = ctype.name, ctype.span
    if name in table.component_types or name in table.connector_types:
        raise fail("DuplicateType", f"component type '{name}' is already defined", span)
    seen: set[str] = set()
    for p in ctype.ports:
        if p.name in seen:
            raise fail("BadPortSpec", f"port '{p.name}' declared twice in '{name}'", span)
        seen.add(p.name)
        if not table.has_port_type(p.port_type):
            raise fail(
                "BadPortSpec",
                f"port '{p.name}' of '{name}' uses unknown port type '{p.port_type}'",
                span,
            )
    return table._replace(component_types={**table.component_types, name: ctype})


def define_connector_type(table: TypeTable, ctype: ConnectorType) -> TypeTable:
    name, span = ctype.name, ctype.span
    if name in table.connector_types or name in table.component_types:
        raise fail("DuplicateType", f"connector type '{name}' is already defined", span)
    seen: set[str] = set()
    for r in ctype.roles:
        if r.name in seen:
            raise fail("BadRoleSpec", f"role '{r.name}' declared twice in '{name}'", span)
        seen.add(r.name)
        if not r.accepts:
            raise fail("BadRoleSpec", f"role '{r.name}' of '{name}' accepts nothing", span)
        if r.min_fill < 0:
            raise fail("BadRoleSpec", f"role '{r.name}' of '{name}' has negative min fill", span)
        if r.max_fill is not None and (r.max_fill < 1 or r.min_fill > r.max_fill):
            raise fail(
                "BadRoleSpec",
                f"role '{r.name}' of '{name}' has fill range {r.min_fill}..{r.max_fill}",
                span,
            )
        for i, pt in enumerate(r.accepts):
            if not table.has_port_type(pt):
                raise fail(
                    "BadRoleSpec",
                    f"role '{r.name}' of '{name}' accepts unknown port type '{pt}'",
                    span,
                )
            if pt in r.accepts[:i]:
                raise fail("BadRoleSpec", f"role '{r.name}' of '{name}' accepts '{pt}' twice", span)
    return table._replace(connector_types={**table.connector_types, name: ctype})


# ---------------------------------------------------------------------------
# Architecture graph
# ---------------------------------------------------------------------------

EXT_INPUT = "input"
EXT_OUTPUT = "output"


@span_blind
class Instance(NamedTuple):
    name: str
    type_name: str
    # in source order; a flag attribute (stateless) has the value True
    attrs: Mapping[str, object] = MappingProxyType({})
    span: Optional[Span] = None


@span_blind
class Connector(NamedTuple):
    name: str
    type_name: str
    span: Optional[Span] = None


@span_blind
class Attachment(NamedTuple):
    instance: str
    port: str
    connector: str
    role: str
    span: Optional[Span] = None


class ExternalBinding(NamedTuple):
    """A connector role fed by, or draining to, a stream outside the system.

    ``direction`` names the stream: 'input' (it fills the role as a
    producer) or 'output' (it consumes from the role).
    """

    direction: str
    connector: str
    role: str


@dataclass(frozen=True)
class Architecture:
    name: str
    style: Optional[str] = None
    instances: Mapping[str, Instance] = field(default_factory=dict)
    connectors: Mapping[str, Connector] = field(default_factory=dict)
    attachments: tuple[Attachment, ...] = ()
    externals: tuple[ExternalBinding, ...] = ()
    # the external streams' file paths; None means "not bound"
    input: Optional[str] = None
    output: Optional[str] = None
    allow_layer_skip: bool = False

    # connector -> its attachments / external bindings in tuple order, and
    # the dataflow graph of the pipes.  Cached on the value, not fields: they
    # are rebuilt from the tuples for every new value, and play no part in
    # ``==`` or ``replace``.
    @cached_property
    def _by_connector(self) -> Mapping[str, tuple[Attachment, ...]]:
        return _index_by_connector(self.attachments)

    @cached_property
    def _externals_by_connector(self) -> Mapping[str, tuple[ExternalBinding, ...]]:
        return _index_by_connector(self.externals)

    @cached_property
    def pipe_edges(self) -> tuple[tuple[str, str, str], ...]:
        """Directed (producer, consumer, pipe) instance-to-instance edges, one
        per pipe with both sides attached to instances."""
        return tuple(
            (source.instance, sink.instance, conn.name)
            for conn in self.connectors.values()
            if conn.type_name == PIPE_TYPE
            for source in self.attachments_of_connector(conn.name, "source")
            for sink in self.attachments_of_connector(conn.name, "sink")
        )

    @cached_property
    def cycle_entries(self) -> Mapping[str, tuple[str, ...]]:
        """Instance on a cycle -> the pipes into it from its own strongly
        connected component (a self-loop included); found on first read.
        Read-only, so no caller can change what later readers see."""
        adj: dict[str, list[str]] = {}
        for producer, consumer, _ in self.pipe_edges:
            adj.setdefault(producer, []).append(consumer)
        sccs = topology.strongly_connected_components(sorted(self.instances), adj)
        scc_of = {member: idx for idx, scc in enumerate(sccs) for member in scc}
        entries: dict[str, list[str]] = {}
        for producer, consumer, pipe in self.pipe_edges:
            if scc_of[producer] == scc_of[consumer]:
                entries.setdefault(consumer, []).append(pipe)
        return MappingProxyType({name: tuple(pipes) for name, pipes in entries.items()})

    def attachments_of_connector(self, connector: str, role: Optional[str] = None) -> tuple[Attachment, ...]:
        found = self._by_connector.get(connector, ())
        return found if role is None else tuple(a for a in found if a.role == role)

    def externals_of_connector(self, connector: str) -> tuple[ExternalBinding, ...]:
        return self._externals_by_connector.get(connector, ())

    def bound_path(self, direction: str) -> Optional[str]:
        """The file the external stream ``direction`` is bound to; None if
        it is unbound or bound to ""."""
        return (self.input if direction == EXT_INPUT else self.output) or None


def _index_by_connector(items: Iterable) -> dict[str, tuple]:
    # tuples: no caller can change what later readers of the index see
    index: dict[str, list] = {}
    for item in items:
        index.setdefault(item.connector, []).append(item)
    return {name: tuple(found) for name, found in index.items()}


def _port_spec(table: TypeTable, inst: Instance, port: str) -> Optional[PortSpec]:
    ctype = table.component(inst.type_name)
    if ctype is None:
        return None
    return ctype.port(port)


def attach_many(
    arch: Architecture, table: TypeTable, attachments: Iterable[Attachment]
) -> tuple[Architecture, list[Diagnostic]]:
    """Append attachments in order, each checked against everything before it.

    A rejected attachment yields one diagnostic and is skipped; the ones
    after it still apply.
    """
    present = {(a.instance, a.port, a.connector, a.role) for a in arch.attachments}
    used = {(a.instance, a.port) for a in arch.attachments}
    added: list[Attachment] = []
    diags: list[Diagnostic] = []
    for new in attachments:
        diag = _attach_error(arch, table, new, present, used)
        if diag is not None:
            diags.append(diag)
            continue
        present.add((new.instance, new.port, new.connector, new.role))
        used.add((new.instance, new.port))
        added.append(new)
    return replace(arch, attachments=arch.attachments + tuple(added)), diags


def _attach_error(
    arch: Architecture,
    table: TypeTable,
    new: Attachment,
    present: set[tuple[str, str, str, str]],
    used: set[tuple[str, str]],
) -> Optional[Diagnostic]:
    """Why ``new`` may not follow the attachments in ``present``, or None."""
    instance, port, connector, role, span = new.instance, new.port, new.connector, new.role, new.span
    inst = arch.instances.get(instance)
    if inst is None:
        return error("UnknownInstance", f"no instance named '{instance}'", span)
    pspec = _port_spec(table, inst, port)
    if pspec is None:
        return error("UnknownPort", f"instance '{instance}' has no port '{port}'", span)
    conn = arch.connectors.get(connector)
    if conn is None:
        return error("UnknownConnector", f"no connector named '{connector}'", span)
    ctype = table.connector(conn.type_name)
    rspec = ctype.role(role) if ctype else None
    if rspec is None:
        return error("UnknownRole", f"connector '{connector}' has no role '{role}'", span)
    if (instance, port, connector, role) in present:
        return error(
            "DuplicateAttachment",
            f"{instance}.{port} is already attached to {connector}.{role}",
            span,
        )
    if not pspec.many and (instance, port) in used:
        return error(
            "PortMultiplicityExceeded",
            f"port {instance}.{port} has multiplicity one and is already attached",
            span,
        )
    return None


def attach(
    arch: Architecture,
    table: TypeTable,
    instance: str,
    port: str,
    connector: str,
    role: str,
    span: Optional[Span] = None,
) -> Architecture:
    """Append one attachment, re-establishing every structural invariant.

    The one-item case of ``attach_many``; raises its diagnostic.
    """
    arch, diags = attach_many(arch, table, [Attachment(instance, port, connector, role, span)])
    if diags:
        raise ArchonError(diags[0])
    return arch


def validate_arity(arch: Architecture, table: TypeTable) -> list[Diagnostic]:
    """One diagnostic per connector role outside its declared fill range."""
    diags: list[Diagnostic] = []
    for conn in arch.connectors.values():
        ctype = table.connector(conn.type_name)
        if ctype is None:
            continue  # resolution reports unknown connector types
        fills = [*arch.attachments_of_connector(conn.name), *arch.externals_of_connector(conn.name)]
        for rspec in ctype.roles:
            n = sum(f.role == rspec.name for f in fills)
            if n < rspec.min_fill:
                diags.append(
                    error(
                        "RoleUnderfilled",
                        f"role {conn.name}.{rspec.name} is filled {n} time(s), needs at least {rspec.min_fill}",
                        conn.span,
                    )
                )
            elif rspec.max_fill is not None and n > rspec.max_fill:
                diags.append(
                    error(
                        "RoleOverfilled",
                        f"role {conn.name}.{rspec.name} is filled {n} time(s), allows at most {rspec.max_fill}",
                        conn.span,
                    )
                )
    return diags
