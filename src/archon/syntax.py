"""Syntax tree for the textual architecture notation.

Nodes are named tuples whose last field is their source span, kept for
diagnostics; ``span_blind`` leaves the span out of equality and hashing:
two trees are equal iff they describe the same system, which is what the
format round-trip contract needs.  Declaration order is preserved exactly
as written.

Only the ``porttype``, ``pipeline`` and ``input``/``output`` declarations
and the system itself have records here.  A ``componenttype`` or
``connectortype`` declaration is the model's own ComponentType or
ConnectorType, its ports and roles PortSpec and RoleSpec records; a
``component``, ``connector`` or ``attach`` declaration is the model's
Instance, Connector or Attachment.  An instance's attrs keep their source
order, which equality ignores.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .diagnostics import Span, span_blind
from .model import Attachment, ComponentType, Connector, ConnectorType, Instance


@span_blind
class PortTypeDef(NamedTuple):
    name: str
    span: Optional[Span] = None


@span_blind
class PipelineDecl(NamedTuple):
    name: str
    stages: tuple[str, ...]
    span: Optional[Span] = None


@span_blind
class IoDecl(NamedTuple):
    direction: str  # 'input' | 'output'
    path: str
    span: Optional[Span] = None


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


@span_blind
class SystemAst(NamedTuple):
    name: str
    style: Optional[str] = None
    allow_skip: bool = False
    declarations: tuple[Declaration, ...] = ()
    span: Optional[Span] = None
