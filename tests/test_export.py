import json

from archon.checker import resolve
from archon.export import to_dot, to_json
from archon.model import builtin_type_table
from archon.parser import parse


def _arch(src: str):
    result = resolve(parse(src), builtin_type_table())
    assert result.architecture is not None, result.diagnostics
    return result.architecture, result.table


PIPELINE = 'system S { pipeline P: input | A() | B() | C() | output; input "i"; output "o"; }'

EVENTS = """
system S {
  component E : Process; component L1 : Process; component L2 : Process;
  connector bus : Event;
  attach E.emit to bus.announcer;
  attach L1.listen to bus.listener; attach L2.listen to bus.listener;
}
"""

DIAMOND = """
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


def test_empty_system_golden():
    arch, table = _arch("system S { }")
    assert to_dot(arch, table) == "digraph S {\n}\n"


def test_pipeline_boxes_and_edges():
    arch, table = _arch(PIPELINE)
    dot = to_dot(arch, table)
    assert dot.count("shape=box") == 3
    assert dot.count("->") == 4
    assert '"ext:input"' in dot and '"ext:output"' in dot
    assert '"ext:input" -> "A"' in dot
    assert '"C" -> "ext:output"' in dot


def test_pipe_edge_label_names_connector_and_type():
    arch, table = _arch(PIPELINE)
    assert '[label="P_p1 : Pipe"]' in to_dot(arch, table)


def test_event_hub_rendering():
    arch, table = _arch(EVENTS)
    dot = to_dot(arch, table)
    assert dot.count("shape=diamond") == 1
    assert '"E" -> "bus" [label="announcer"];' in dot
    assert '"bus" -> "L1" [label="listener"];' in dot
    assert '"bus" -> "L2" [label="listener"];' in dot
    assert dot.count("->") == 3


def test_rpc_binary_edge_direction():
    arch, table = _arch(
        """
        system S {
          component A : Process; component B : Process;
          connector r : RPC;
          attach B.serve to r.definer; attach A.call to r.caller;
        }
        """
    )
    assert '"A" -> "B" [label="r : RPC"];' in to_dot(arch, table)


def test_dot_deterministic_and_order_insensitive():
    base_arch, table = _arch(EVENTS)
    base = to_dot(base_arch, table)
    assert all(to_dot(base_arch, table) == base for _ in range(5))
    shuffled = """
    system S {
      connector bus : Event;
      component L2 : Process;
      attach L2.listen to bus.listener;
      component E : Process; component L1 : Process;
      attach L1.listen to bus.listener;
      attach E.emit to bus.announcer;
    }
    """
    arch2, table2 = _arch(shuffled)
    assert to_dot(arch2, table2) == base


def test_json_counts_mirror_architecture():
    arch, table = _arch(DIAMOND)
    obj = json.loads(to_json(arch, table))
    assert len(obj["nodes"]) == len(arch.instances) == 4
    assert len(obj["edges"]) == len(arch.connectors) == 4
    assert [n["name"] for n in obj["nodes"]] == ["A", "B", "C", "D"]


def test_json_attrs_preserved():
    arch, table = _arch('system S { component A : Filter impl "./a" stateless; }')
    obj = json.loads(to_json(arch, table))
    assert obj["nodes"][0]["attrs"] == {"impl": "./a", "stateless": True}
