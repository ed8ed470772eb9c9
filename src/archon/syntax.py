"""Syntax tree for the textual architecture notation.

Nodes store their source span for diagnostics, but spans are excluded from
equality: two trees are equal iff they describe the same system, which is
what the format round-trip contract needs.  Declaration order is preserved
exactly as written.  A ``component``, ``connector`` or ``attach``
declaration is the model's own Instance, Connector or Attachment; an
instance's attrs keep their source order, which equality ignores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .diagnostics import Span
from .model import Attachment, Connector, Instance


@dataclass(frozen=True)
class PortDecl:
    name: str
    port_type: str
    many: bool = False
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class RoleDecl:
    name: str
    accepts: tuple[str, ...]
    min_fill: int = 1
    max_fill: Optional[int] = 1  # None = '*'
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class PortTypeDef:
    name: str
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class ComponentTypeDef:
    name: str
    ports: tuple[PortDecl, ...]
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class ConnectorTypeDef:
    name: str
    roles: tuple[RoleDecl, ...]
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class PipelineDecl:
    name: str
    stages: tuple[str, ...]
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class IoDecl:
    direction: str  # 'input' | 'output'
    path: str
    span: Optional[Span] = field(default=None, compare=False)


Declaration = Union[
    PortTypeDef,
    ComponentTypeDef,
    ConnectorTypeDef,
    Instance,
    Connector,
    Attachment,
    PipelineDecl,
    IoDecl,
]


@dataclass(frozen=True)
class SystemAst:
    name: str
    style: Optional[str] = None
    allow_skip: bool = False
    declarations: tuple[Declaration, ...] = ()
    span: Optional[Span] = field(default=None, compare=False)
