"""Name resolution and conformance checking.

``resolve`` binds a syntax tree against a type table, folds inline type
definitions (the parsed records themselves) into a working copy, expands
pipeline shorthands, and yields a wired Architecture.  The check_* passes
then report findings without ever aborting early: every check runs and the
diagnostics aggregate.  External streams are checked against the paths the
Architecture holds; a caller with paths from elsewhere (the CLI's
``--input``/``--output``) puts them into the Architecture first.

Resolution is tolerant of declaration order: type definitions are applied
first, then instances/connectors/stream declarations, then pipelines and
attachments in source order, so a file may mention a name before its
declaration line.

The dataflow checks read the pipe graph the Architecture derives once:
``classify_topology`` its edges, the unused-seed warning its cycle data,
and the ``pipes-and-filters`` seeded-cycle rule asks
``topology.find_cycles`` for the cycles left without seeded instances.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, NamedTuple, Optional

from . import model
from .desugar import desugar_pipeline, filter_shaped
from .diagnostics import ArchonError, Diagnostic, error, has_errors, warning
from .model import (
    PIPE_TYPE,
    Architecture,
    Attachment,
    ComponentType,
    Connector,
    ConnectorType,
    Instance,
    TypeTable,
    STREAM_IN,
    STREAM_OUT,
)
from .syntax import IoDecl, PipelineDecl, PortTypeDef, SystemAst
from .topology import TopologyReport, classify_digraph, find_cycles

RPC_TYPE = "RPC"


class ResolveResult(NamedTuple):
    architecture: Optional[Architecture]  # None when errors were found
    table: TypeTable
    diagnostics: list[Diagnostic]


def fold_typedefs(table: TypeTable, declarations) -> tuple[TypeTable, list[Diagnostic]]:
    """Apply type definitions to a table copy; shadowing is a hard error.

    The parsed ComponentType and ConnectorType records enter the table as
    they are."""
    diags: list[Diagnostic] = []
    for decl in declarations:
        try:
            if isinstance(decl, PortTypeDef):
                table = model.define_port_type(table, decl.name)
            elif isinstance(decl, ComponentType):
                table = model.define_component_type(table, decl)
            elif isinstance(decl, ConnectorType):
                table = model.define_connector_type(table, decl)
        except ArchonError as exc:
            diags.append(
                exc.diagnostic
                if exc.diagnostic.span is not None
                else exc.diagnostic._replace(span=decl.span)
            )
    return table, diags


def resolve(ast: SystemAst, table: TypeTable) -> ResolveResult:
    # Pass 1: fold inline type definitions into a working table copy.
    table, diags = fold_typedefs(table, ast.declarations)

    arch = Architecture(name=ast.name, style=ast.style, allow_layer_skip=ast.allow_skip)
    instances: dict[str, Instance] = {}
    connectors: dict[str, Connector] = {}
    paths: dict[str, str] = {}  # external stream -> file

    # Pass 2: instances, connectors and stream declarations, so that a
    # pipeline may name a stage declared on a later line.
    for decl in ast.declarations:
        if isinstance(decl, Instance):
            if decl.name in instances or decl.name in connectors:
                diags.append(error("DuplicateName", f"name '{decl.name}' is already declared", decl.span))
                continue
            if table.component(decl.type_name) is None:
                diags.append(
                    error("UnknownType", f"unknown component type '{decl.type_name}'", decl.span)
                )
                continue
            instances[decl.name] = decl
        elif isinstance(decl, Connector):
            if decl.name in connectors or decl.name in instances:
                diags.append(error("DuplicateName", f"name '{decl.name}' is already declared", decl.span))
                continue
            if table.connector(decl.type_name) is None:
                diags.append(
                    error("UnknownType", f"unknown connector type '{decl.type_name}'", decl.span)
                )
                continue
            connectors[decl.name] = decl
        elif isinstance(decl, IoDecl):
            if decl.direction in paths:
                diags.append(
                    error("DuplicateName", f"{decl.direction} stream is already bound", decl.span)
                )
                continue
            paths[decl.direction] = decl.path

    # Pass 3: pipeline expansions, and the attachments and external
    # bindings in source order.
    attachments: list[Attachment] = []
    externals: list[model.ExternalBinding] = []
    for decl in ast.declarations:
        if isinstance(decl, Attachment):
            attachments.append(decl)
        elif isinstance(decl, PipelineDecl):
            expansion, pipe_diags = desugar_pipeline(decl, table, instances)
            diags.extend(pipe_diags)
            if expansion is None:
                continue
            attachments += expansion.attachments
            externals += (expansion.external_in, expansion.external_out)
            for inst in expansion.instances:
                if inst.name in instances:
                    continue  # sharing stages between pipelines is the point
                if inst.name in connectors:
                    diags.append(
                        error("DuplicateName", f"name '{inst.name}' is already declared", decl.span)
                    )
                    continue
                instances[inst.name] = inst
            for conn in expansion.connectors:
                if conn.name in connectors or conn.name in instances:
                    diags.append(
                        error("DuplicateName", f"name '{conn.name}' is already declared", decl.span)
                    )
                    continue
                connectors[conn.name] = conn

    arch = replace(
        arch,
        instances=instances,
        connectors=connectors,
        input=paths.get(model.EXT_INPUT),
        output=paths.get(model.EXT_OUTPUT),
    )

    # Pass 4: every attachment, validated in one batch, now that every name
    # is declared.
    arch, attach_diags = model.attach_many(arch, table, attachments)
    diags.extend(attach_diags)
    arch = replace(arch, externals=tuple(externals))

    if has_errors(diags):
        return ResolveResult(None, table, diags)
    return ResolveResult(arch, table, diags)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_types(arch: Architecture, table: TypeTable) -> list[Diagnostic]:
    """One TypeMismatch per attachment whose port type the role rejects."""
    diags: list[Diagnostic] = []
    for att in arch.attachments:
        inst = arch.instances[att.instance]
        pspec = table.component(inst.type_name).port(att.port)  # resolved earlier
        conn = arch.connectors[att.connector]
        rspec = table.connector(conn.type_name).role(att.role)
        if pspec.port_type not in rspec.accepts:
            diags.append(
                error(
                    "TypeMismatch",
                    f"port {att.instance}.{att.port} of type {pspec.port_type} "
                    f"cannot fill role {att.connector}.{att.role} "
                    f"(accepts {', '.join(sorted(rspec.accepts))})",
                    att.span,
                )
            )
    for ext in arch.externals:
        conn = arch.connectors[ext.connector]
        rspec = table.connector(conn.type_name).role(ext.role)
        virtual = STREAM_OUT if ext.direction == "input" else STREAM_IN
        if virtual not in rspec.accepts:
            diags.append(
                error(
                    "TypeMismatch",
                    f"external {ext.direction} stream cannot fill role {ext.connector}.{ext.role}",
                    conn.span,
                )
            )
    return diags


def check_completeness(arch: Architecture, table: TypeTable) -> list[Diagnostic]:
    """Arity validation plus reachability of external streams; an unbound
    stream's finding points at its pipeline."""
    diags = model.validate_arity(arch, table)
    for ext in arch.externals:
        if arch.bound_path(ext.direction) is None:
            diags.append(
                error(
                    "UnboundExternal" + ext.direction.capitalize(),
                    f"pipeline {ext.direction} at {ext.connector}.{ext.role} "
                    f"has no {ext.direction} binding",
                    arch.connectors[ext.connector].span,
                )
            )
    return diags


def dataflow_nodes(arch: Architecture, table: TypeTable) -> set[str]:
    """Instances that carry stream traffic: pipe-attached ones plus every
    filter node, so a stray unattached filter breaks linearity."""
    nodes: set[str] = set()
    for conn in arch.connectors.values():
        if conn.type_name != PIPE_TYPE:
            continue
        for att in arch.attachments_of_connector(conn.name):
            nodes.add(att.instance)
    for inst in arch.instances.values():
        ctype = table.component(inst.type_name)
        # a stream-only type with the filter convention
        if (
            ctype is not None
            and filter_shaped(ctype)
            and all(p.port_type in (STREAM_IN, STREAM_OUT) for p in ctype.ports)
        ):
            nodes.add(inst.name)
    return nodes


def classify_topology(arch: Architecture, table: TypeTable) -> TopologyReport:
    edges = [(a, b) for a, b, _ in arch.pipe_edges]
    return classify_digraph(dataflow_nodes(arch, table), edges)


# ---------------------------------------------------------------------------
# Styles
# ---------------------------------------------------------------------------


class StyleRule(NamedTuple):
    """Declarative constraint vocabulary for one architectural style.

    A None constraint means "unconstrained".  An instance conforms if its
    type name is in allowed_component_types, or all of the type's ports use
    port types from component_port_types.
    """

    name: str
    allowed_component_types: Optional[frozenset[str]] = None
    component_port_types: Optional[frozenset[str]] = None
    allowed_connector_types: Optional[frozenset[str]] = None
    required_instance_attrs: frozenset[str] = frozenset()
    forbid_unseeded_cycles: bool = False
    rpc_layer_discipline: bool = False


BUILTIN_STYLES: Mapping[str, StyleRule] = {
    "pipes-and-filters": StyleRule(
        name="pipes-and-filters",
        allowed_component_types=frozenset({"Filter"}),
        component_port_types=frozenset({STREAM_IN, STREAM_OUT}),
        allowed_connector_types=frozenset({"Pipe"}),
        forbid_unseeded_cycles=True,
    ),
    "layered": StyleRule(
        name="layered",
        required_instance_attrs=frozenset({"layer"}),
        rpc_layer_discipline=True,
    ),
    "event-based": StyleRule(
        name="event-based",
        allowed_connector_types=frozenset({"Event"}),
    ),
}


def _instance_conforms(rule: StyleRule, arch: Architecture, table: TypeTable, inst: Instance) -> bool:
    if rule.allowed_component_types is not None and inst.type_name in rule.allowed_component_types:
        return True
    if rule.component_port_types is not None:
        ctype = table.component(inst.type_name)
        if ctype is not None and all(p.port_type in rule.component_port_types for p in ctype.ports):
            return True
    return rule.allowed_component_types is None and rule.component_port_types is None


def check_style(arch: Architecture, table: TypeTable) -> list[Diagnostic]:
    """Enforce the system's declared style; empty when no style is set."""
    if arch.style is None:
        return []
    rule = BUILTIN_STYLES.get(arch.style)
    if rule is None:
        return [error("UnknownStyle", f"unknown style '{arch.style}'")]

    diags: list[Diagnostic] = []
    for inst in arch.instances.values():
        if not _instance_conforms(rule, arch, table, inst):
            diags.append(
                error(
                    "StyleViolation",
                    f"component type {inst.type_name} of '{inst.name}' is not allowed in style {rule.name}",
                    inst.span,
                )
            )
        for attr in sorted(rule.required_instance_attrs):
            if attr not in inst.attrs:
                diags.append(
                    error(
                        "StyleViolation",
                        f"instance '{inst.name}' is missing required attribute '{attr}' in style {rule.name}",
                        inst.span,
                    )
                )
    if rule.allowed_connector_types is not None:
        for conn in arch.connectors.values():
            if conn.type_name not in rule.allowed_connector_types:
                diags.append(
                    error(
                        "StyleViolation",
                        f"connector kind {conn.type_name} of '{conn.name}' is not allowed in style {rule.name}",
                        conn.span,
                    )
                )
    if rule.rpc_layer_discipline:
        diags.extend(_check_layer_discipline(arch))
    if rule.forbid_unseeded_cycles:
        diags.extend(_check_seeded_cycles(arch))
    return diags


def _check_layer_discipline(arch: Architecture) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for conn in arch.connectors.values():
        if conn.type_name != RPC_TYPE:
            continue
        callers = arch.attachments_of_connector(conn.name, "caller")
        definers = arch.attachments_of_connector(conn.name, "definer")
        for c in callers:
            for d in definers:
                lc = arch.instances[c.instance].attrs.get("layer")
                ld = arch.instances[d.instance].attrs.get("layer")
                if not isinstance(lc, int) or not isinstance(ld, int):
                    continue  # missing layers reported by the attribute rule
                ok = lc > ld if arch.allow_layer_skip else lc == ld + 1
                if not ok:
                    diags.append(
                        error(
                            "StyleViolation",
                            f"layer skip: {c.instance} (layer {lc}) calls {d.instance} "
                            f"(layer {ld}) over '{conn.name}'",
                            conn.span,
                        )
                    )
    return diags


def _check_seeded_cycles(arch: Architecture) -> list[Diagnostic]:
    seeded = {name for name, inst in arch.instances.items() if "seed" in inst.attrs}
    adj: dict[str, list[str]] = {}
    for a, b, _ in arch.pipe_edges:
        if a not in seeded and b not in seeded:
            adj.setdefault(a, []).append(b)
    return [
        error("StyleViolation", "cycle without a seeded instance: " + " -> ".join(cycle))
        for cycle in find_cycles(adj)
    ]


def _check_unused_seeds(arch: Architecture) -> list[Diagnostic]:
    """One UnusedSeed warning per seeded instance on no cycle, where the
    planner has no pipe to prime; cycle data is read only if one is seeded."""
    return [
        warning(
            "UnusedSeed",
            f"instance '{inst.name}' has a seed but is on no cycle; the seed is never sent",
            inst.span,
        )
        for inst in arch.instances.values()
        if "seed" in inst.attrs and inst.name not in arch.cycle_entries
    ]


def check_all(arch: Architecture, table: TypeTable) -> list[Diagnostic]:
    """Every check, aggregated; the full compile-side verdict."""
    return (
        check_types(arch, table)
        + check_completeness(arch, table)
        + check_style(arch, table)
        + _check_unused_seeds(arch)
    )
