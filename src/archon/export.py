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

import json
from dataclasses import dataclass

from .model import (
    EXT_INPUT,
    OUTBOUND_PORT_TYPES,
    UNBOUNDED,
    Architecture,
    TypeTable,
)


@dataclass(frozen=True)
class GraphNode:
    name: str
    type_name: str
    attrs: tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class GraphEdge:
    connector: str
    type_name: str
    endpoints: tuple[tuple[str, str, str], ...]  # (end, port, role); port "" = external


@dataclass(frozen=True)
class GraphDoc:
    system: str
    style: str
    nodes: tuple[GraphNode, ...]
    edges: tuple[GraphEdge, ...]


def graphdoc(arch: Architecture, table: TypeTable) -> GraphDoc:
    nodes = tuple(
        GraphNode(
            inst.name,
            inst.type_name,
            tuple(sorted(inst.attrs.items())),
        )
        for inst in sorted(arch.instances.values(), key=lambda i: i.name)
    )
    edges = []
    for conn in sorted(arch.connectors.values(), key=lambda c: c.name):
        ctype = table.connector(conn.type_name)
        role_index = {
            role.name: i for i, role in enumerate(ctype.roles)
        } if ctype else {}
        points = [(a.instance, a.port, a.role) for a in arch.attachments_of_connector(conn.name)]
        points += [(ext.stream, "", ext.role) for ext in arch.externals_of_connector(conn.name)]
        points.sort(key=lambda p: (role_index.get(p[2], 99), p[0], p[1]))
        edges.append(GraphEdge(conn.name, conn.type_name, tuple(points)))
    return GraphDoc(arch.name, arch.style or "", nodes, tuple(edges))


# --- JSON -------------------------------------------------------------------


def to_json(arch: Architecture, table: TypeTable) -> str:
    doc = graphdoc(arch, table)
    obj = {
        "system": doc.system,
        "style": doc.style,
        "nodes": [
            {"name": n.name, "type": n.type_name, "attrs": dict(n.attrs)}
            for n in doc.nodes
        ],
        "edges": [
            {
                "connector": e.connector,
                "type": e.type_name,
                "endpoints": [
                    {"end": end, "port": port, "role": role}
                    for end, port, role in e.endpoints
                ],
            }
            for e in doc.edges
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


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
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(arch: Architecture, table: TypeTable) -> str:
    doc = graphdoc(arch, table)
    lines = [f"digraph {doc.system} {{"]

    for node in doc.nodes:
        label = f"{node.name} : {node.type_name}"
        lines.append(f"  {_dot_quote(node.name)} [shape=box, label={_dot_quote(label)}];")

    terminals = sorted(
        {end for edge in doc.edges for end, port, _ in edge.endpoints if port == ""}
    )
    for term in terminals:
        lines.append(
            f"  {_dot_quote('ext:' + term)} [shape=plaintext, label={_dot_quote(term)}];"
        )

    hubs = []
    edge_lines = []
    for edge in doc.edges:
        ctype = table.connector(edge.type_name)

        def node_id(end: str, port: str) -> str:
            return _dot_quote("ext:" + end if port == "" else end)

        if _binary(ctype) and len(edge.endpoints) == 2:
            (tail, tport, _), (head, hport, _) = edge.endpoints
            label = f"{edge.connector} : {edge.type_name}"
            edge_lines.append(
                f"  {node_id(tail, tport)} -> {node_id(head, hport)} "
                f"[label={_dot_quote(label)}];"
            )
            continue
        hub = _dot_quote(edge.connector)
        hubs.append(
            f"  {hub} [shape=diamond, label="
            f"{_dot_quote(edge.connector + ' : ' + edge.type_name)}];"
        )
        for end, port, role in edge.endpoints:
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
                    f"  {node_id(end, port)} -> {hub} [label={_dot_quote(role)}];"
                )
            else:
                edge_lines.append(
                    f"  {hub} -> {node_id(end, port)} [label={_dot_quote(role)}];"
                )

    lines.extend(hubs)
    lines.extend(edge_lines)
    lines.append("}")
    return "\n".join(lines) + "\n"
