"""Resolution, type matching, completeness, topology, and style checks."""

from __future__ import annotations

import cProfile
import gc
import itertools
import pstats
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from archon import model
from archon.checker import (
    BUILTIN_STYLES,
    ExternalIO,
    check_all,
    check_completeness,
    check_style,
    check_types,
    classify_topology,
    dataflow_edges,
    resolve,
)
from archon.model import builtin_type_table
from archon.parser import parse
from archon.plan import plan
from archon.topology import classify_digraph


def _resolve(src: str):
    return resolve(parse(src), builtin_type_table())


def _resolved_arch(src: str):
    result = _resolve(src)
    assert result.diagnostics == [], result.diagnostics
    return result.architecture, result.table


# --- resolve ---------------------------------------------------------------


def test_unknown_type_with_span_on_typo():
    src = "system S { component A : Fitler; }"
    result = _resolve(src)
    assert result.architecture is None
    (diag,) = result.diagnostics
    assert diag.code == "UnknownType"
    assert diag.span is not None


def test_duplicate_instance_name():
    result = _resolve("system S { component A : Filter; component A : Filter; }")
    assert [d.code for d in result.diagnostics] == ["DuplicateName"]


def test_three_stage_pipeline_resolves():
    arch, _ = _resolved_arch(
        'system S { pipeline P: input | A() | B() | C() | output; input "i"; output "o"; }'
    )
    assert len(arch.instances) == 3
    assert len(arch.connectors) == 4
    assert len(arch.attachments) == 6
    assert len(arch.externals) == 2


def test_inline_typedefs_fold_into_working_table():
    arch, table = _resolved_arch(
        """
        system S {
          componenttype Fan { port stdin : StreamIn; port stdout : StreamOut many; }
          component A : Fan;
        }
        """
    )
    assert table.component("Fan") is not None
    assert builtin_type_table().component("Fan") is None
    assert arch.instances["A"].type_name == "Fan"


def test_forward_references_allowed():
    arch, _ = _resolved_arch(
        """
        system S {
          attach A.stdout to p.source;
          component A : Filter;
          connector p : Pipe;
          component B : Filter;
          attach B.stdin to p.sink;
        }
        """
    )
    assert len(arch.attachments) == 2


def test_pipelines_share_declared_stages():
    arch, _ = _resolved_arch(
        """
        system S {
          component A : Filter;
          pipeline P: input | A() | output;
        }
        """
    )
    assert set(arch.instances) == {"A"}


_MIXED_ATTACHES = [
    "system S {",
    "  componenttype Fan { port stdin : StreamIn; port stdout : StreamOut many; }",
    "  component A : Fan; component B : Filter; component C : Filter;",
    "  connector p1 : Pipe; connector p2 : Pipe; connector p3 : Pipe;",
    "  attach A.stdout to p1.source;",
    "  attach A.stdout to p1.source;",
    "  attach B.stdin to p1.sink;",
    "  attach B.stdin to p2.sink;",
    "  attach B.stdout to p2.source;",
    "  attach B.nope to p3.source;",
    "  attach C.stdin to p2.sink;",
    "  pipeline P: input | D() | output;",
    "  attach A.stdout to p3.source;",
    '  input "i"; output "o";',
    "}",
]


def test_resolve_reports_every_bad_attachment_and_applies_the_rest(monkeypatch):
    bad = {6: "DuplicateAttachment", 8: "PortMultiplicityExceeded", 10: "UnknownPort"}
    batches = []
    attach_many = model.attach_many

    def spy(arch, table, attachments):
        result = attach_many(arch, table, attachments)
        batches.append(result[0])
        return result

    monkeypatch.setattr(model, "attach_many", spy)
    result = _resolve("\n".join(_MIXED_ATTACHES))
    assert result.architecture is None
    assert [(d.code, d.span.line, d.span.col) for d in result.diagnostics] == [
        (code, line, 3) for line, code in bad.items()
    ]
    (applied,) = batches  # every attachment is validated in one batch
    assert [a.span.line for a in applied.attachments] == [5, 7, 9, 11, 12, 12, 13]
    monkeypatch.undo()
    clean = [text for line, text in enumerate(_MIXED_ATTACHES, 1) if line not in bad]
    clean_arch, _ = _resolved_arch("\n".join(clean))
    assert applied.attachments == clean_arch.attachments


def _chain_and_diamonds(n: int) -> str:
    """About n instances: one n/2-stage pipeline and n/8 fork/join diamonds."""
    chain = [f"K{i}" for i in range(n // 2)]
    decls = [
        "componenttype Fan { port stdin : StreamIn; port stdout : StreamOut many; }",
        "componenttype Funnel { port stdin : StreamIn many; port stdout : StreamOut; }",
        *(f'component {k} : Filter impl "cat";' for k in chain),
        "pipeline Main: input | " + " | ".join(f"{k}()" for k in chain) + " | output;",
        'input "in.txt"; output "out.txt";',
    ]
    for u in range(n // 8):
        decls += [
            f'component F{u} : Fan impl "cat"; component J{u} : Funnel impl "cat";',
            f'component L{u} : Filter impl "cat"; component R{u} : Filter impl "cat";',
            f"connector f{u}a : Pipe; connector f{u}b : Pipe; connector j{u}a : Pipe; connector j{u}b : Pipe;",
            f"attach F{u}.stdout to f{u}a.source; attach L{u}.stdin to f{u}a.sink;",
            f"attach F{u}.stdout to f{u}b.source; attach R{u}.stdin to f{u}b.sink;",
            f"attach L{u}.stdout to j{u}a.source; attach J{u}.stdin to j{u}a.sink;",
            f"attach R{u}.stdout to j{u}b.source; attach J{u}.stdin to j{u}b.sink;",
        ]
    return "system Big {\n" + "\n".join(decls) + "\n}\n"


def _two_stage_pipelines(n: int) -> str:
    """n instances as n/2 two-stage pipeline statements over the system streams."""
    decls = [
        f'component A{i} : Filter impl "cat"; component B{i} : Filter impl "cat"; '
        f"pipeline P{i}: input | A{i}() | B{i}() | output;"
        for i in range(n // 2)
    ]
    return "system Many {\n" + "\n".join(decls) + '\ninput "in.txt"; output "out.txt";\n}\n'


def _replicated_chain(n: int) -> str:
    """n plan stages: one pipeline of n/4 instances, each fanned out to split, 2 replicas, merge."""
    names = [f"R{i}" for i in range(n // 4)]
    decls = [
        *(f'component {r} : Filter impl "cat" stateless replicas 2;' for r in names),
        "pipeline Main: input | " + " | ".join(f"{r}()" for r in names) + " | output;",
    ]
    return "system Farm {\n" + "\n".join(decls) + '\ninput "in.txt"; output "out.txt";\n}\n'


_COMPILE_INPUTS = (_chain_and_diamonds, _two_stage_pipelines, _replicated_chain)


def _compile(ast, table) -> None:
    result = resolve(ast, table)
    assert result.diagnostics == []
    assert check_all(result.architecture, result.table) == []
    plan(result.architecture, result.table)


def test_compile_passes_scale_linearly():
    """resolve + check_all + plan at N and 4N stages: ~4x when linear, ~16x when quadratic."""

    def best_of_3(source: str) -> float:
        ast, table = parse(source), builtin_type_table()
        times = []
        for _ in range(3):
            gc.collect()  # start each run without the previous run's garbage
            t0 = time.process_time()
            _compile(ast, table)
            times.append(time.process_time() - t0)
        return min(times)

    for system in _COMPILE_INPUTS:
        small, large = best_of_3(system(1000)), best_of_3(system(4000))
        assert large / small < 8, (system.__name__, small, large)


def test_compile_call_counts_scale_linearly():
    """The deterministic companion of the CPU gate: profiled function calls of
    parse, and of resolve + check_all + plan, each grow at most 4.2x for 4x
    the stages."""

    def calls(fn, *args) -> tuple[int, object]:
        profiler = cProfile.Profile()
        result = profiler.runcall(fn, *args)
        return pstats.Stats(profiler).total_calls, result

    for system in _COMPILE_INPUTS:
        counts = []
        for n in (1000, 4000):
            parse_calls, ast = calls(parse, system(n))
            compile_calls, _ = calls(_compile, ast, builtin_type_table())
            counts.append((parse_calls, compile_calls))
        for name, small, large in zip(("parse", "compile"), *counts):
            assert large / small <= 4.2, (system.__name__, name, small, large)


def test_pipeline_desugaring_call_counts_scale_linearly():
    """One pipeline of n undeclared stages: resolve's profiled calls grow at
    most 4.2x for 4x the stages (such stages have no impl, so no plan)."""

    def calls(n: int) -> int:
        chain = " | ".join(f"S{i}()" for i in range(n))
        source = f'system Long {{ pipeline P: input | {chain} | output; input "i"; output "o"; }}'
        ast, table = parse(source), builtin_type_table()
        profiler = cProfile.Profile()
        result = profiler.runcall(resolve, ast, table)
        assert result.diagnostics == [] and len(result.architecture.instances) == n
        return pstats.Stats(profiler).total_calls

    small, large = calls(1000), calls(4000)
    assert large / small <= 4.2, (small, large)


# --- check_types -----------------------------------------------------------


def test_stdout_to_sink_mismatch():
    arch, table = _resolved_arch(
        """
        system S {
          component A : Filter; component B : Filter;
          connector p : Pipe;
          attach A.stdout to p.sink;
          attach B.stdin to p.source;
        }
        """
    )
    codes = [d.code for d in check_types(arch, table)]
    assert codes == ["TypeMismatch", "TypeMismatch"]


def test_correct_pipe_wiring_clean():
    arch, table = _resolved_arch(
        """
        system S {
          component A : Filter; component B : Filter;
          connector p : Pipe;
          attach A.stdout to p.source;
          attach B.stdin to p.sink;
        }
        """
    )
    assert check_types(arch, table) == []


def test_rpc_call_on_event_listener_mismatch():
    arch, table = _resolved_arch(
        """
        system S {
          component A : Process;
          connector e : Event;
          attach A.call to e.listener;
        }
        """
    )
    assert [d.code for d in check_types(arch, table)] == ["TypeMismatch"]


def test_check_types_order_invariant():
    body = [
        "attach A.stdout to p.sink;",
        "attach B.stdin to p.source;",
        "attach A.call to e.listener;",
    ]
    rng = random.Random(7)
    results = set()
    for _ in range(6):
        rng.shuffle(body)
        src = (
            "system S { component A : Process; component B : Process; "
            "connector p : Pipe; connector e : Event; " + " ".join(body) + " }"
        )
        arch, table = _resolved_arch(src)
        diags = frozenset((d.code, d.message) for d in check_types(arch, table))
        results.add(diags)
    assert len(results) == 1


# --- check_completeness ----------------------------------------------------


def test_unbound_external_input_reported():
    arch, table = _resolved_arch("system S { pipeline P: input | A() | output; }")
    codes = {d.code for d in check_completeness(arch, table)}
    assert "UnboundExternalInput" in codes
    assert "UnboundExternalOutput" in codes


def test_cli_bindings_satisfy_externals():
    arch, table = _resolved_arch("system S { pipeline P: input | A() | output; }")
    io = ExternalIO(input="in.txt", output="out.txt")
    assert check_completeness(arch, table, io) == []


def test_fully_bound_pipeline_clean():
    arch, table = _resolved_arch(
        'system S { pipeline P: input | A() | output; input "i"; output "o"; }'
    )
    assert check_completeness(arch, table) == []


def test_dangling_connector_two_underfills():
    arch, table = _resolved_arch("system S { connector p : Pipe; }")
    codes = [d.code for d in check_completeness(arch, table)]
    assert codes == ["RoleUnderfilled", "RoleUnderfilled"]


def test_desugared_pipeline_fully_clean():
    arch, table = _resolved_arch(
        'system S style pipes-and-filters { pipeline P: input | A() | B() | output; input "i"; output "o"; }'
    )
    assert check_all(arch, table) == []


# --- topology --------------------------------------------------------------


def _diamond_arch():
    return _resolved_arch(
        """
        system S {
          componenttype Fan { port stdin : StreamIn; port stdout : StreamOut many; }
          componenttype Funnel { port stdin : StreamIn many; port stdout : StreamOut; }
          component A : Fan; component B : Filter; component C : Filter; component D : Funnel;
          connector p1 : Pipe; connector p2 : Pipe; connector p3 : Pipe; connector p4 : Pipe;
          attach A.stdout to p1.source; attach B.stdin to p1.sink;
          attach A.stdout to p2.source; attach C.stdin to p2.sink;
          attach B.stdout to p3.source; attach D.stdin to p3.sink;
          attach C.stdout to p4.source; attach D.stdin to p4.sink;
        }
        """
    )


def test_chain_is_linear():
    arch, table = _resolved_arch(
        'system S { pipeline P: input | A() | B() | C() | output; input "i"; output "o"; }'
    )
    report = classify_topology(arch, table)
    assert report.classification == frozenset({"linear"})


def test_diamond_forks_and_joins():
    arch, table = _diamond_arch()
    report = classify_topology(arch, table)
    assert report.classification == frozenset({"fork", "join"})
    assert report.forks == ("A",)
    assert report.joins == ("D",)


def test_two_cycle_detected():
    arch, table = _resolved_arch(
        """
        system S {
          component A : Filter; component B : Filter;
          connector p1 : Pipe; connector p2 : Pipe;
          attach A.stdout to p1.source; attach B.stdin to p1.sink;
          attach B.stdout to p2.source; attach A.stdin to p2.sink;
        }
        """
    )
    report = classify_topology(arch, table)
    assert report.classification == frozenset({"cyclic"})
    assert report.cycles == (("A", "B"),)


def _oracle_classify(nodes, edges):
    """Brute force: path enumeration for linearity, walk search for cycles."""
    nodes = sorted(set(nodes))
    forks = sorted(
        n for n in nodes if sum(1 for s, _ in edges if s == n) > 1
    )
    joins = sorted(n for n in nodes if sum(1 for _, t in edges if t == n) > 1)
    edge_set = set(edges)

    def reachable(frm):
        seen = set()
        frontier = [frm]
        while frontier:
            cur = frontier.pop()
            for s, t in edge_set:
                if s == cur and t not in seen:
                    seen.add(t)
                    frontier.append(t)
        return seen

    cyclic = any(n in reachable(n) for n in nodes)
    linear = False
    if not cyclic and not forks and not joins:
        for perm in itertools.permutations(nodes):
            if all((perm[i], perm[i + 1]) in edge_set for i in range(len(perm) - 1)) and len(
                edges
            ) == max(len(nodes) - 1, 0):
                linear = True
                break
        if not nodes:
            linear = True
    labels = set()
    if forks:
        labels.add("fork")
    if joins:
        labels.add("join")
    if cyclic:
        labels.add("cyclic")
    if linear:
        labels.add("linear")
    return labels, tuple(forks), tuple(joins)


def test_classifier_matches_oracle_on_small_graphs():
    nodes = ["a", "b", "c", "d"]
    pairs = [(s, t) for s in nodes for t in nodes]
    rng = random.Random(13)
    for _ in range(400):
        k = rng.randrange(0, 7)
        edges = rng.sample(pairs, k)
        report = classify_digraph(nodes, edges)
        labels, forks, joins = _oracle_classify(nodes, edges)
        assert report.classification == frozenset(labels), (edges, report)
        assert report.forks == forks
        assert report.joins == joins


def test_classifier_cycles_are_closed_walks():
    nodes = list("abcde")
    pairs = [(s, t) for s in nodes for t in nodes]
    rng = random.Random(99)
    for _ in range(200):
        edges = rng.sample(pairs, rng.randrange(0, 10))
        report = classify_digraph(nodes, edges)
        edge_set = set(edges)
        for cycle in report.cycles:
            for i, node in enumerate(cycle):
                nxt = cycle[(i + 1) % len(cycle)]
                assert (node, nxt) in edge_set


# --- styles ----------------------------------------------------------------


def test_pipes_and_filters_rejects_rpc_connector():
    arch, table = _resolved_arch(
        """
        system S style pipes-and-filters {
          component A : Process; component B : Process;
          connector r : RPC;
          attach A.call to r.caller; attach B.serve to r.definer;
        }
        """
    )
    diags = check_style(arch, table)
    assert any(d.code == "StyleViolation" and "connector kind" in d.message for d in diags)


def test_pipes_and_filters_accepts_stream_only_types():
    arch, table = _diamond_arch()
    styled = type(arch)(
        name=arch.name,
        style="pipes-and-filters",
        instances=arch.instances,
        connectors=arch.connectors,
        attachments=arch.attachments,
        externals=arch.externals,
        inputs=arch.inputs,
        outputs=arch.outputs,
    )
    assert check_style(styled, table) == []


def test_layered_skip_rejected_and_relaxed():
    src = """
    system S style layered %s {
      component A : Process layer 3;
      component B : Process layer 1;
      connector r : RPC;
      attach A.call to r.caller; attach B.serve to r.definer;
    }
    """
    arch, table = _resolved_arch(src % "")
    diags = check_style(arch, table)
    assert any("layer skip" in d.message for d in diags)
    arch, table = _resolved_arch(src % "allow-skip")
    assert check_style(arch, table) == []


def test_layered_requires_layer_attribute():
    arch, table = _resolved_arch(
        "system S style layered { component A : Process; }"
    )
    diags = check_style(arch, table)
    assert any("missing required attribute 'layer'" in d.message for d in diags)


def test_event_style_rejects_pipe():
    arch, table = _resolved_arch(
        """
        system S style event-based {
          component A : Filter; component B : Filter;
          connector p : Pipe;
          attach A.stdout to p.source; attach B.stdin to p.sink;
        }
        """
    )
    assert any(d.code == "StyleViolation" for d in check_style(arch, table))


def test_unknown_style_reported():
    arch, table = _resolved_arch("system S style baroque { }")
    assert [d.code for d in check_style(arch, table)] == ["UnknownStyle"]


def test_seeded_cycle_conforms_unseeded_does_not():
    src = """
    system S style pipes-and-filters {
      component A : Filter %s;
      component B : Filter;
      connector p1 : Pipe; connector p2 : Pipe;
      attach A.stdout to p1.source; attach B.stdin to p1.sink;
      attach B.stdout to p2.source; attach A.stdin to p2.sink;
    }
    """
    arch, table = _resolved_arch(src % 'seed "0\\n"')
    assert check_style(arch, table) == []
    arch, table = _resolved_arch(src % "")
    assert any("cycle without a seeded instance" in d.message for d in check_style(arch, table))


@settings(max_examples=60, deadline=None)
@given(st.permutations(["A", "B", "C", "D"]))
def test_style_conformance_alpha_invariant(new_names):
    src_template = """
    system S style pipes-and-filters {{
      component {0} : Filter; component {1} : Filter;
      connector p1 : Pipe;
      attach {0}.stdout to p1.source; attach {1}.stdin to p1.sink;
      component {2} : Process; component {3} : Process;
    }}
    """
    base_src = src_template.format("A", "B", "C", "D")
    renamed_src = src_template.format(*new_names)
    base_arch, base_table = _resolved_arch(base_src)
    renamed_arch, renamed_table = _resolved_arch(renamed_src)
    base_codes = sorted(d.code for d in check_style(base_arch, base_table))
    renamed_codes = sorted(d.code for d in check_style(renamed_arch, renamed_table))
    assert base_codes == renamed_codes
