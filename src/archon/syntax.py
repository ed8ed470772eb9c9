"""Syntax tree for the textual architecture notation.

Nodes store their source span for diagnostics, but spans are excluded from
equality: two trees are equal iff they describe the same system, which is
what the format round-trip contract needs.  Declaration order is preserved
exactly as written.

Only the ``porttype``, ``pipeline`` and ``input``/``output`` declarations
and the system itself have records here.  A ``componenttype`` or
``connectortype`` declaration is the model's own ComponentType or
ConnectorType, its ports and roles PortSpec and RoleSpec records; a
``component``, ``connector`` or ``attach`` declaration is the model's
Instance, Connector or Attachment.  An instance's attrs keep their source
order, which equality ignores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .diagnostics import Span
from .model import Attachment, ComponentType, Connector, ConnectorType, Instance


@dataclass(frozen=True)
class PortTypeDef:
    name: str
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
    ComponentType,
    ConnectorType,
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
