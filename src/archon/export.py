"""Graph artifacts: DOT for eyes, JSON for tools.

Component instances come out as boxes labeled "name : Type".  A
connector whose type can hold only two endpoints collapses to a single
labeled edge from the first declared role's filler to the second's.
Wider connectors (event fan-out, shared store access) stay visible as
diamond hub nodes with one role-labeled edge per endpoint, oriented by
whether the attached port sends or receives.  External streams appear
as terminal nodes.  All output is sorted, so equal architectures yield
identical bytes.
"""

from __future__ import annotations

from typing import Optional

from .diagnostics import json_text
from .model import (
    EXT_INPUT,
    OUTBOUND_PORT_TYPES,
    UNBOUNDED,
    Architecture,
    Connector,
    ConnectorType,
    TypeTable,
)


def _edges(
    arch: Architecture, table: TypeTable
) -> list[tuple[Connector, Optional[ConnectorType], list[tuple[str, str, str]]]]:
    """Each connector by name, with its type and its (end, port, role)
    endpoints by role index, then end, then port; port "" = external."""
    edges = []
    for name, conn in sorted(arch.connectors.items()):
        ctype = table.connector(conn.type_name)
        role_index = {role.name: i for i, role in enumerate(ctype.roles)} if ctype else {}
        points = [(a.instance, a.port, a.role) for a in arch.attachments_of_connector(name)]
        points += [(ext.direction, "", ext.role) for ext in arch.externals_of_connector(name)]
        points.sort(key=lambda p: (role_index.get(p[2], 99), p[0], p[1]))
        edges.append((conn, ctype, points))
    return edges


# --- JSON -------------------------------------------------------------------


def to_json(arch: Architecture, table: TypeTable) -> str:
    obj = {
        "system": arch.name,
        "style": arch.style or "",
        "nodes": [
            {"name": name, "type": inst.type_name, "attrs": dict(sorted(inst.attrs.items()))}
            for name, inst in sorted(arch.instances.items())
        ],
        "edges": [
            {
                "connector": conn.name,
                "type": conn.type_name,
                "endpoints": [
                    {"end": end, "port": port, "role": role} for end, port, role in points
                ],
            }
            for conn, _, points in _edges(arch, table)
        ],
    }
    return json_text(obj)


# --- DOT --------------------------------------------------------------------


def _binary(ctype) -> bool:
    """Can this connector type never hold more than two endpoints?"""
    if ctype is None:
        return False
    total = 0
    for role in ctype.roles:
        if role.max_fill is UNBOUNDED:
            return False
        total += role.max_fill
    return total <= 2


def _dot_quote(text: str) -> str:
    if '"' in text or "\\" in text:
        text = text.replace("\\", "\\\\").replace('"', '\\"')
    return '"' + text + '"'


def _node_id(end: str, port: str) -> str:
    return _dot_quote("ext:" + end if port == "" else end)


def to_dot(arch: Architecture, table: TypeTable) -> str:
    lines = [f"digraph {arch.name} {{"]

    for name, inst in sorted(arch.instances.items()):
        label = f"{name} : {inst.type_name}"
        lines.append(f"  {_dot_quote(name)} [shape=box, label={_dot_quote(label)}];")

    edges = _edges(arch, table)
    terminals = sorted({end for _, _, points in edges for end, port, _ in points if port == ""})
    for term in terminals:
        lines.append(
            f"  {_dot_quote('ext:' + term)} [shape=plaintext, label={_dot_quote(term)}];"
        )

    hubs = []
    edge_lines = []
    for conn, ctype, points in edges:
        label = f"{conn.name} : {conn.type_name}"
        if _binary(ctype) and len(points) == 2:
            (tail, tport, _), (head, hport, _) = points
            edge_lines.append(
                f"  {_node_id(tail, tport)} -> {_node_id(head, hport)} "
                f"[label={_dot_quote(label)}];"
            )
            continue
        hub = _dot_quote(conn.name)
        hubs.append(f"  {hub} [shape=diamond, label={_dot_quote(label)}];")
        for end, port, role in points:
            port_type = None
            if port:
                inst = arch.instances.get(end)
                ctype_comp = table.component(inst.type_name) if inst else None
                spec = ctype_comp.port(port) if ctype_comp else None
                port_type = spec.port_type if spec else None
            outward = (port_type in OUTBOUND_PORT_TYPES) if port_type else (
                end == EXT_INPUT
            )
            if outward:
                edge_lines.append(
                    f"  {_node_id(end, port)} -> {hub} [label={_dot_quote(role)}];"
                )
            else:
                edge_lines.append(
                    f"  {hub} -> {_node_id(end, port)} [label={_dot_quote(role)}];"
                )

    lines.extend(hubs)
    lines.extend(edge_lines)
    lines.append("}")
    return "\n".join(lines) + "\n"
