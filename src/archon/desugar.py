"""Expansion of the pipeline shorthand into plain instances, pipes, and
attachments.

``pipeline P: input | A() | B() | output;`` becomes Filter instances A and
B (unless already declared), pipe connectors P_p0..P_p2, a chain of
attachments stdin/stdout-wise, and two external stream bindings: the
leading pipe's source is fed by the system input, the trailing pipe's sink
drains to the system output.  The expansion is purely structural; applying
it to a system that already contains it changes nothing.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .diagnostics import Diagnostic, error
from .model import (
    EXT_INPUT,
    EXT_OUTPUT,
    PIPE_TYPE,
    STREAM_IN,
    STREAM_OUT,
    Attachment,
    ComponentType,
    Connector,
    ExternalBinding,
    Instance,
    TypeTable,
)
from .syntax import PipelineDecl

STDIN = "stdin"
STDOUT = "stdout"


class PipelineExpansion(NamedTuple):
    """Model records produced from one pipeline statement."""

    instances: tuple[Instance, ...]
    connectors: tuple[Connector, ...]
    attachments: tuple[Attachment, ...]
    external_in: ExternalBinding
    external_out: ExternalBinding


def pipe_name(pipeline: str, index: int) -> str:
    return f"{pipeline}_p{index}"


def filter_shaped(ctype: ComponentType) -> bool:
    """The filter convention: a ``stdin`` stream in and a ``stdout`` stream out."""
    stdin = ctype.port(STDIN)
    stdout = ctype.port(STDOUT)
    return (
        stdin is not None
        and stdin.port_type == STREAM_IN
        and stdout is not None
        and stdout.port_type == STREAM_OUT
    )


def desugar_pipeline(
    stmt: PipelineDecl,
    table: TypeTable,
    declared: Mapping[str, Instance] | None = None,
) -> tuple[PipelineExpansion | None, list[Diagnostic]]:
    """Expand one pipeline statement against the instances already declared.

    Stages named in ``declared`` are reused, all others become fresh Filter
    instances.  On any diagnostic the expansion is withheld.
    """
    declared = declared or {}
    diags: list[Diagnostic] = []
    if not stmt.stages:
        return None, [error("EmptyPipeline", f"pipeline '{stmt.name}' has no stages", stmt.span)]

    new_instances: dict[str, Instance] = {}  # by name, in first-occurrence order
    for stage in stmt.stages:
        inst = declared.get(stage)
        if inst is None:
            if stage not in new_instances:
                new_instances[stage] = Instance(stage, "Filter", span=stmt.span)
            continue
        ctype = table.component(inst.type_name)
        if ctype is None or not filter_shaped(ctype):
            diags.append(
                error(
                    "StageNotAFilter",
                    f"stage '{stage}' has type '{inst.type_name}' without stdin/stdout stream ports",
                    stmt.span,
                )
            )
    if diags:
        return None, diags

    n = len(stmt.stages)
    connectors = tuple(
        Connector(pipe_name(stmt.name, i), PIPE_TYPE, span=stmt.span) for i in range(n + 1)
    )
    attachments: list[Attachment] = []
    for i, stage in enumerate(stmt.stages):
        attachments.append(
            Attachment(stage, STDIN, pipe_name(stmt.name, i), "sink", span=stmt.span)
        )
        attachments.append(
            Attachment(stage, STDOUT, pipe_name(stmt.name, i + 1), "source", span=stmt.span)
        )
    external_in = ExternalBinding(EXT_INPUT, pipe_name(stmt.name, 0), "source")
    external_out = ExternalBinding(EXT_OUTPUT, pipe_name(stmt.name, n), "sink")
    return (
        PipelineExpansion(
            tuple(new_instances.values()), connectors, tuple(attachments), external_in, external_out
        ),
        [],
    )
