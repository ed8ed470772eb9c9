"""Canonical text rendering of a syntax tree.

One declaration per line, two-space indentation, LF line endings.  The
output is bit-exact for identical trees, parses back to an equal tree, and
reformatting formatted text is the identity.
"""

from __future__ import annotations

from .model import (
    Attachment,
    ComponentType,
    Connector,
    ConnectorType,
    Instance,
    PortSpec,
    RoleSpec,
)
from .parser import escape_string
from .syntax import Declaration, IoDecl, PipelineDecl, PortTypeDef, SystemAst

_INDENT = "  "


def _quote(value: str) -> str:
    return '"' + escape_string(value) + '"'


def _port_decl(p: PortSpec) -> str:
    many = " many" if p.many else ""
    return f"port {p.name} : {p.port_type}{many};"


def _role_decl(r: RoleSpec) -> str:
    accepts = ", ".join(r.accepts)
    top = "*" if r.max_fill is None else str(r.max_fill)
    return f"role {r.name} accepts {accepts} fill {r.min_fill}..{top};"


def _instance_decl(d: Instance) -> str:
    parts = [f"component {d.name} : {d.type_name}"]
    for key, value in d.attrs.items():
        if value is True:
            parts.append(key)
        elif isinstance(value, int):
            parts.append(f"{key} {value}")
        else:
            parts.append(f"{key} {_quote(str(value))}")
    return " ".join(parts) + ";"


def _pipeline_decl(d: PipelineDecl) -> str:
    stages = " | ".join(f"{s}()" for s in d.stages)
    return f"pipeline {d.name}: input | {stages} | output;"


def _declaration_lines(d: Declaration, depth: int) -> list[str]:
    pad = _INDENT * depth
    if isinstance(d, PortTypeDef):
        return [f"{pad}porttype {d.name};"]
    if isinstance(d, ComponentType):
        lines = [f"{pad}componenttype {d.name} {{"]
        lines += [f"{pad}{_INDENT}{_port_decl(p)}" for p in d.ports]
        lines.append(f"{pad}}}")
        return lines
    if isinstance(d, ConnectorType):
        lines = [f"{pad}connectortype {d.name} {{"]
        lines += [f"{pad}{_INDENT}{_role_decl(r)}" for r in d.roles]
        lines.append(f"{pad}}}")
        return lines
    if isinstance(d, Instance):
        return [pad + _instance_decl(d)]
    if isinstance(d, Connector):
        return [f"{pad}connector {d.name} : {d.type_name};"]
    if isinstance(d, Attachment):
        return [f"{pad}attach {d.instance}.{d.port} to {d.connector}.{d.role};"]
    if isinstance(d, PipelineDecl):
        return [pad + _pipeline_decl(d)]
    if isinstance(d, IoDecl):
        return [f"{pad}{d.direction} {_quote(d.path)};"]
    raise TypeError(f"unknown declaration {d!r}")


def format_system(ast: SystemAst) -> str:
    header = f"system {ast.name}"
    if ast.style is not None:
        header += f" style {ast.style}"
    if ast.allow_skip:
        header += " allow-skip"
    lines = [header + " {"]
    for d in ast.declarations:
        lines.extend(_declaration_lines(d, 1))
    lines.append("}")
    return "\n".join(lines) + "\n"
