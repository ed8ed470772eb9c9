import importlib
import json
import re
import shlex
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from archon import topology
from archon.checker import check_all, resolve
from archon.diagnostics import ArchonError
from archon.model import builtin_type_table
from archon.parser import parse
from archon.plan import MERGE, PROCESS, SPLIT, TEE, _split, plan, serialize_plan

plan_module = importlib.import_module("archon.plan")  # the package exports a plan() function
CORPUS = Path(__file__).parent / "corpus"


def _arch(src: str):
    result = resolve(parse(src), builtin_type_table())
    assert result.architecture is not None, result.diagnostics
    return result.architecture, result.table


def _plan(src: str):
    arch, table = _arch(src)
    return plan(arch, table)


PIPELINE = """
system S {
  component A : Filter impl "./a";
  component B : Filter impl "./b";
  component C : Filter impl "./c";
  pipeline P: input | A() | B() | C() | output;
  input "in.txt"; output "out.txt";
}
"""

DIAMOND = """
system S {
  componenttype Fan { port stdin : StreamIn; port stdout : StreamOut many; }
  componenttype Funnel { port stdin : StreamIn many; port stdout : StreamOut; }
  component A : Fan impl "./a"; component B : Filter impl "./b";
  component C : Filter impl "./c"; component D : Funnel impl "./d";
  connector p1 : Pipe; connector p2 : Pipe; connector p3 : Pipe; connector p4 : Pipe;
  attach A.stdout to p1.source; attach B.stdin to p1.sink;
  attach A.stdout to p2.source; attach C.stdin to p2.sink;
  attach B.stdout to p3.source; attach D.stdin to p3.sink;
  attach C.stdout to p4.source; attach D.stdin to p4.sink;
}
"""


def test_three_stage_pipeline_counts():
    built = _plan(PIPELINE)
    processes = [s for s in built.stages if s.kind == "process"]
    assert len(processes) == 3
    assert len(built.channels) == 4
    kinds = sorted(c.kind for c in built.channels)
    assert kinds == ["file-in", "file-out", "pipe", "pipe"]


def test_pipeline_start_order_consumers_first():
    built = _plan(PIPELINE)
    order = [s.name for s in built.stages]
    assert order.index("C") < order.index("B") < order.index("A")


def test_final_stage_is_writer_of_output_file():
    built = _plan(PIPELINE)
    assert built.final == "C"


def test_impl_is_shell_split():
    built = _plan(
        """
        system S {
          component A : Filter impl "python3 -c 'pass'";
          pipeline P: input | A() | output;
          input "i"; output "o";
        }
        """
    )
    assert built.stage("A").argv == ("python3", "-c", "pass")


# Whitespace shlex splits at and str.split() also splits at, the quotes and
# the backslash shlex reads, '#' (a comment only where shlex is asked to
# treat it so) and non-ASCII.
_IMPL_CHARS = st.one_of(st.sampled_from(" \t\r\n\x0b\x0c\x1c\x85\xa0\u2028\u3000'\"\\#aZ-é€\U0001f600"), st.characters())


@given(st.text(_IMPL_CHARS, max_size=40))
@settings(max_examples=500)
def test_impl_splits_as_shlex_splits(impl):
    try:
        want = tuple(shlex.split(impl))
    except ValueError as err:  # an open quote or a trailing backslash
        with pytest.raises(ValueError, match=re.escape(str(err))):
            _split(impl)
    else:
        assert _split(impl) == want


def test_missing_impl_rejected():
    with pytest.raises(ArchonError) as exc:
        _plan('system S { pipeline P: input | A() | output; input "i"; output "o"; }')
    assert exc.value.code == "MissingImplementation"
    assert exc.value.diagnostic.span[2:] == (1, 12)  # the pipeline that made A


def test_unbound_input_rejected_unless_io_given():
    src = 'system S { component A : Filter impl "./a"; pipeline P: input | A() | output; }'
    with pytest.raises(ArchonError) as exc:
        _plan(src)
    assert exc.value.code == "UnboundExternalInput"
    assert exc.value.diagnostic.span[2:] == (1, 45)
    arch, table = _arch(src)
    built = plan(replace(arch, input="i", output="o"), table)
    assert built.input == "i" and built.output == "o"


def test_diamond_gets_one_tee_one_merge():
    built = _plan(DIAMOND)
    kinds = sorted(s.kind for s in built.stages)
    assert kinds.count("tee") == 1
    assert kinds.count("merge") == 1
    tee = next(s for s in built.stages if s.kind == "tee")
    assert tee.reads == ("A.out",)
    assert sorted(tee.writes) == ["p1", "p2"]
    merge = next(s for s in built.stages if s.kind == "merge")
    assert sorted(merge.reads) == ["p3", "p4"]
    assert merge.writes == ("D.in",)


def test_plan_serialization_is_stable():
    texts = {serialize_plan(_plan(DIAMOND)) for _ in range(5)}
    assert len(texts) == 1
    obj = json.loads(texts.pop())
    assert list(obj) == [
        "system",
        "stages",
        "channels",
        "broker",
        "rpc",
        "relays",
        "final",
        "input",
        "output",
    ]


def _replicated(n: str) -> str:
    """PIPELINE with B stateless and, unless n is empty, ``replicas n``."""
    attrs = f"stateless replicas {n}" if n else "stateless"
    return PIPELINE.replace('component B : Filter impl "./b";',
                            f'component B : Filter impl "./b" {attrs};')


def test_fanout_expansion_shape():
    built = _plan(_replicated("4"))
    names = [s.name for s in built.stages]
    assert {"B.split", "B#0", "B#1", "B#2", "B#3", "B.merge"} <= set(names)
    assert "B" not in names
    split = built.stage("B.split")
    assert split.kind == SPLIT
    assert split.reads == ("P_p1",)
    assert split.writes == tuple(f"B.in#{i}" for i in range(4))
    merge = built.stage("B.merge")
    assert merge.kind == MERGE
    assert merge.reads == tuple(f"B.out#{i}" for i in range(4))
    assert merge.writes == ("P_p2",)
    for i in range(4):
        rep = built.stage(f"B#{i}")
        assert rep.replica == i
        assert rep.argv == ("./b",)
        assert rep.reads == (f"B.in#{i}",) and rep.writes == (f"B.out#{i}",)


def test_fanout_identity_at_one():
    assert serialize_plan(_plan(_replicated("1"))) == serialize_plan(_plan(_replicated("")))


def test_fanout_requires_stateless():
    src = PIPELINE.replace('component B : Filter impl "./b";',
                           'component B : Filter impl "./b" replicas 4;')
    with pytest.raises(ArchonError) as exc:
        _plan(src)
    assert exc.value.code == "NotStateless"
    assert exc.value.diagnostic.span[2:] == (4, 3)  # B's declaration


def test_fanout_needs_one_input_and_one_output():
    src = 'system S {\n  component B : Filter impl "./b" stateless replicas 2;\n}'
    with pytest.raises(ArchonError) as exc:
        _plan(src)
    assert exc.value.code == "FanoutUnsupported"
    assert "exactly one input and one output" in str(exc.value)
    assert exc.value.diagnostic.span[2:] == (2, 3)  # B's declaration


def test_replicas_attr_autoexpands():
    src = PIPELINE.replace('component B : Filter impl "./b";',
                           'component B : Filter impl "./b" stateless replicas 3;')
    built = _plan(src)
    assert built.stage("B") is None
    assert built.stage("B#2") is not None
    assert built.stage("B#2").stateless


FARM = """
system Farm {
  componenttype Fan { port stdin : StreamIn; port stdout : StreamOut many; }
  componenttype Funnel { port stdin : StreamIn many; port stdout : StreamOut; }
  component A : Filter impl "./a" stateless replicas 2;
  component B : Filter impl "./b" stateless replicas 3;
  pipeline Main: input | A() | B() | output;
  input "in.txt"; output "out.txt";
  component F : Fan impl "./f"; component J : Funnel impl "./j";
  component L : Filter impl "./l" stateless replicas 4;
  component R : Filter impl "./r" stateless replicas 1;
  connector f1 : Pipe; connector f2 : Pipe; connector j1 : Pipe; connector j2 : Pipe;
  attach F.stdout to f1.source; attach L.stdin to f1.sink;
  attach F.stdout to f2.source; attach R.stdin to f2.sink;
  attach L.stdout to j1.source; attach J.stdin to j1.sink;
  attach R.stdout to j2.source; attach J.stdin to j2.sink;
}
"""


def test_replicas_lower_in_name_order():
    built = _plan(FARM)
    assert [s.name for s in built.stages] == [
        "B.merge", "B#0", "B#1", "B#2", "B.split",
        "A.merge", "A#0", "A#1", "A.split",
        "J", "J.merge",
        "L.merge", "L#0", "L#1", "L#2", "L#3", "L.split",
        "R", "F.tee", "F",
    ]
    assert built.stage("L.split").reads == ("f1",) and built.stage("L.merge").writes == ("j1",)
    assert built.stage("R").replica == 0 and built.stage("R.split") is None
    assert built.stage("R").reads == ("f2",) and built.stage("R").writes == ("j2",)


FORKS = """
  componenttype Fan { port stdin : StreamIn; port stdout : StreamOut many; }
  componenttype Funnel { port stdin : StreamIn many; port stdout : StreamOut; }
  componenttype Both { port stdin : StreamIn many; port stdout : StreamOut many; }
"""

# Two pipes from A to B: B.merge reads A.tee twice.
PARALLEL_PIPES = """
system S {%s
  component A : Fan impl "./a"; component B : Funnel impl "./b";
  connector p1 : Pipe; connector p2 : Pipe;
  attach A.stdout to p1.source; attach B.stdin to p1.sink;
  attach A.stdout to p2.source; attach B.stdin to p2.sink;
}
""" % FORKS

# A seeded cycle with two pipes back into A, only p2 primed, so A, B and
# their tee and merges stay one component; X feeds it by two pipes.
SEEDED_TWO_INTO_ONE = """
system S {%s
  component X : Fan impl "./x";
  component A : Both impl "./a" seed "8\\n"; component B : Both impl "./b";
  connector q1 : Pipe; connector q2 : Pipe;
  connector p1 : Pipe; connector p2 : Pipe; connector p3 : Pipe;
  attach X.stdout to q1.source; attach A.stdin to q1.sink;
  attach X.stdout to q2.source; attach B.stdin to q2.sink;
  attach A.stdout to p1.source; attach B.stdin to p1.sink;
  attach B.stdout to p2.source; attach A.stdin to p2.sink;
  attach B.stdout to p3.source; attach A.stdin to p3.sink;
}
""" % FORKS

REPLICATED_FORK = """
system S {%s
  component A : Fan impl "./a";
  component R : Filter impl "./r" stateless replicas 3;
  component J : Funnel impl "./j";
  connector p1 : Pipe; connector p2 : Pipe; connector p3 : Pipe;
  attach A.stdout to p1.source; attach R.stdin to p1.sink;
  attach R.stdout to p2.source; attach J.stdin to p2.sink;
  attach A.stdout to p3.source; attach J.stdin to p3.sink;
}
""" % FORKS


@pytest.mark.parametrize(
    "source, order",
    [
        pytest.param(PARALLEL_PIPES, ["B", "B.merge", "A.tee", "A"], id="parallel-pipes"),
        pytest.param(
            SEEDED_TWO_INTO_ONE,
            ["A", "A.merge", "B", "B.merge", "B.tee", "X.tee", "X"],
            id="seeded-two-into-one",
        ),
        pytest.param(
            REPLICATED_FORK,
            ["J", "J.merge", "R.merge", "R#0", "R#1", "R#2", "R.split", "A.tee", "A"],
            id="replicated",
        ),
    ],
)
def test_start_order_counts_each_component_edge_once(source, order):
    built = _plan(source)
    assert [s.name for s in built.stages] == order
    assert len({s.name for s in built.stages}) == len(built.stages)


def _reference_start_order(names: list[str], edges: list[tuple[str, str]]) -> list[str]:
    """By definition: components by mutual reachability over the (consumer,
    producer) edges; each time, of the components whose consumers are all
    placed, the one with the smallest name goes next, its members sorted."""
    reach = {}
    for start in names:
        seen, todo = {start}, [start]
        while todo:
            node = todo.pop()
            for a, b in edges:
                if a == node and b not in seen:
                    seen.add(b)
                    todo.append(b)
        reach[start] = seen
    comp = {a: frozenset(b for b in names if b in reach[a] and a in reach[b]) for a in names}
    left, order = set(comp.values()), []
    while left:
        ready = [
            c for c in left
            if not any(comp[a] in left and comp[a] != c for a, b in edges if comp[b] == c)
        ]
        nxt = min(ready, key=min)
        order += sorted(nxt)
        left.remove(nxt)
    return order


@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()), max_size=14),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_start_order_matches_its_definition(graph):
    """Random stage graphs with parallel pipes, self-loops, cycles and primed
    pipes: each stage once, in the order the definition gives."""
    n, pipes = graph
    names = [f"s{i}" for i in range(n)]
    reads = {name: [] for name in names}
    writes = {name: [] for name in names}
    channels = {}
    for k, (writer, reader, primed) in enumerate(pipes):
        ch = f"c{k}"
        writes[names[writer]].append(ch)
        reads[names[reader]].append(ch)
        channels[ch] = plan_module.Channel(ch, "pipe", primer="1\n" if primed else "")
    stages = [
        plan_module.Stage(name, PROCESS, reads=tuple(reads[name]), writes=tuple(writes[name]))
        for name in reversed(names)
    ]
    writer_of = {ch: stage for stage in stages for ch in stage.writes}
    edges = [
        (names[reader], names[writer])
        for k, (writer, reader, primed) in enumerate(pipes)
        if not primed
    ]
    order = plan_module._start_order(stages, writer_of, channels)
    assert order == _reference_start_order(names, edges)


@pytest.mark.parametrize(
    "replicated, seeded",
    [
        pytest.param(0, False, id="0"),
        pytest.param(1, False, id="1"),
        pytest.param(6, False, id="6"),
        pytest.param(0, True, id="seeded"),
    ],
)
def test_plan_orders_stages_once(monkeypatch, replicated, seeded):
    calls = []
    scc = topology.strongly_connected_components

    def spy(nodes, adj):
        calls.append(len(nodes))
        return scc(nodes, adj)

    monkeypatch.setattr(topology, "strongly_connected_components", spy)
    names = [f"S{i}" for i in range(6)]
    seed = ' seed "1\\n"'
    decls = "".join(
        f'component {s} : Filter impl "./s"'
        f'{" stateless replicas 2" * (i < replicated)}{seed * (seeded and i == 0)};'
        for i, s in enumerate(names)
    )
    pipeline = "pipeline P: input | " + " | ".join(f"{s}()" for s in names) + " | output;"
    built = _plan(f'system S {{ {decls} {pipeline} input "i"; output "o"; }}')
    # the seed pass looks for cycles among the instances only if one is seeded
    assert calls == ([6] if seeded else []) + [len(built.stages)]


@pytest.mark.parametrize("seeded", [False, True])
def test_check_and_plan_share_one_instance_graph(monkeypatch, seeded):
    calls = []
    scc = topology.strongly_connected_components

    def spy(nodes, adj):
        calls.append(list(nodes))
        return scc(nodes, adj)

    monkeypatch.setattr(topology, "strongly_connected_components", spy)
    source = (CORPUS / "05_cycle.arch").read_text()
    arch, table = _arch(source if seeded else source.replace(' seed "8\\n"', ""))
    assert ("seed" in arch.instances["Tick"].attrs) == seeded
    check_all(arch, table)
    # the instance graph's components are found once, and only for a seed
    assert calls == ([["Tick", "Tock"]] if seeded else [])
    built = plan(arch, table)
    assert calls[-1] == sorted(s.name for s in built.stages)
    assert len(calls) == 1 + seeded


def test_missing_impl_reported_before_fanout_errors():
    with pytest.raises(ArchonError) as exc:
        _plan(
            """
            system S {
              component A : Filter impl "./a" replicas 2;
              component B : Filter;
              pipeline P: input | A() | B() | output;
              input "i"; output "o";
            }
            """
        )
    assert exc.value.code == "MissingImplementation"


SEEDED_PAIR = """
system S {
  component A : Filter impl "./a" seed "8\\n";
  component B : Filter impl "./b";
  connector p1 : Pipe; connector p2 : Pipe;
  attach A.stdout to p1.source; attach B.stdin to p1.sink;
  attach B.stdout to p2.source; attach A.stdin to p2.sink;
}
"""


def test_seeded_cycle_primes_the_broken_channel():
    built = _plan(SEEDED_PAIR)
    primed = {c.name: c.primer for c in built.channels if c.primer}
    assert primed == {"p2": "8\n"}
    assert [c.name for c in built.channels] == ["p1", "p2"]
    assert [s.name for s in built.stages] == ["B", "A"]
    assert built.stage("A").reads == ("p2",)
    assert json.loads(serialize_plan(built))["channels"][1] == {
        "name": "p2", "kind": "pipe", "path": "", "primer": "8\n",
    }


def test_cycle_entries_refuse_a_caller_edit():
    arch, table = _arch((CORPUS / "05_cycle.arch").read_text())
    before = plan(arch, table)
    assert arch.cycle_entries == {"Tick": ("back",), "Tock": ("fwd",)}
    with pytest.raises(AttributeError):
        arch.cycle_entries["Tick"].append("a_pipe")
    with pytest.raises(TypeError):
        arch.cycle_entries["Tick"] = ("a_pipe",)
    assert plan(arch, table) == before


@pytest.mark.parametrize("source", [SEEDED_PAIR, (CORPUS / "05_cycle.arch").read_text()])
def test_every_stage_of_a_seeded_plan_runs(source):
    built = _plan(source)
    assert {s.kind for s in built.stages} <= {PROCESS, TEE, MERGE, SPLIT}
    assert sum(bool(c.primer) for c in built.channels) == 1


def test_event_connector_sets_broker_endpoint():
    built = _plan(
        """
        system S {
          component A : Process impl "./a"; component B : Process impl "./b";
          connector e : Event;
          attach A.emit to e.announcer; attach B.listen to e.listener;
        }
        """
    )
    assert built.broker == "broker.sock"


def test_rpc_connector_gets_endpoint_and_relay_on_site_split():
    built = _plan(
        """
        system S {
          component A : Process impl "./a" site "east";
          component B : Process impl "./b" site "west";
          connector r : RPC;
          attach A.call to r.caller; attach B.serve to r.definer;
        }
        """
    )
    assert built.rpc == (("r", "rpc_r.sock"),)
    assert built.relays == (("r", "east", "west"),)


def test_same_site_rpc_has_no_relay():
    built = _plan(
        """
        system S {
          component A : Process impl "./a"; component B : Process impl "./b";
          connector r : RPC;
          attach A.call to r.caller; attach B.serve to r.definer;
        }
        """
    )
    assert built.relays == ()


def test_custom_connector_type_not_lowerable():
    with pytest.raises(ArchonError) as exc:
        _plan(
            """
            system S {
              connectortype Weird { role a accepts StreamOut fill 1..1; }
              component A : Filter impl "./a";
              connector w : Weird;
              attach A.stdout to w.a;
            }
            """
        )
    assert exc.value.code == "UnrealizableConnector"
    assert exc.value.diagnostic.span[2:] == (5, 15)
