"""Pipeline shorthand expansion: counts, chain order, stage screening."""

from __future__ import annotations

from archon.desugar import desugar_pipeline, pipe_name
from archon.model import Instance, builtin_type_table
from archon.syntax import PipelineDecl


def _expand(stages, declared=None):
    stmt = PipelineDecl("P", tuple(stages))
    return desugar_pipeline(stmt, builtin_type_table(), declared or {})


def test_three_stage_expansion_counts():
    expansion, diags = _expand(["A", "B", "C"])
    assert diags == []
    assert len(expansion.instances) == 3
    assert len(expansion.connectors) == 4
    assert len(expansion.attachments) == 6
    assert expansion.external_in.connector == "P_p0"
    assert expansion.external_in.role == "source"
    assert expansion.external_out.connector == "P_p3"
    assert expansion.external_out.role == "sink"


def test_single_stage_expansion():
    expansion, diags = _expand(["A"])
    assert diags == []
    assert len(expansion.instances) == 1
    assert len(expansion.connectors) == 2


def test_stage_order_preserved_on_chain():
    expansion, _ = _expand(["A", "B", "C"])
    chain = []
    for i in range(1, 3):
        pipe = pipe_name("P", i)
        src = next(a for a in expansion.attachments if a.connector == pipe and a.role == "source")
        dst = next(a for a in expansion.attachments if a.connector == pipe and a.role == "sink")
        chain.append((src.instance, dst.instance))
    assert chain == [("A", "B"), ("B", "C")]


def test_declared_stage_not_redeclared():
    expansion, diags = _expand(["A", "B"], declared={"A": Instance("A", "Filter")})
    assert diags == []
    assert [i.name for i in expansion.instances] == ["B"]


def test_datastore_stage_rejected():
    expansion, diags = _expand(["S"], declared={"S": Instance("S", "DataStore")})
    assert expansion is None
    assert [d.code for d in diags] == ["StageNotAFilter"]


def test_process_stage_accepted():
    # Anything with the stdin/stdout convention can sit in a pipeline.
    expansion, diags = _expand(["X"], declared={"X": Instance("X", "Process")})
    assert diags == []
    assert expansion.instances == ()


def test_empty_pipeline_diagnostic():
    expansion, diags = _expand([])
    assert expansion is None
    assert [d.code for d in diags] == ["EmptyPipeline"]


def test_expansion_is_pure():
    first, _ = _expand(["A", "B"])
    second, _ = _expand(["A", "B"])
    assert first == second
