"""Lowering a checked architecture to a concrete process-and-channel plan.

A plan is a flat, serializable description of what to run:

* stages: OS processes (one per instance, or per replica after fan-out)
  plus synthetic coordinators.  ``tee`` duplicates every record to each
  of its outputs, ``merge`` interleaves inputs in arrival order,
  ``split`` deals records round-robin.  Records are newline-delimited.
* channels: the byte streams between stages.  ``pipe`` is an anonymous
  kernel pipe, ``file-in``/``file-out`` are the external bindings.  A
  pipe with a ``primer`` holds those bytes before any stage starts.
* broker / rpc endpoints: socket names, relative to a runtime directory
  that is chosen only when the plan is executed.  Keeping them symbolic
  makes the serialized plan reproducible byte for byte.

Stage order in the plan is start order: consumers before producers so
that every pipe has a reader by the time its writer starts.  A cycle
bootstrapped by a ``seed`` attribute is broken at the primed pipe into
the seeded instance.
"""

from __future__ import annotations

import heapq
import shlex
from collections import defaultdict
from typing import NamedTuple, Optional

from . import topology
from .checker import RPC_TYPE
from .diagnostics import Span, fail, json_text
from .model import EXT_INPUT, PIPE_TYPE, Architecture, TypeTable

EVENT_TYPE = "Event"
ACCESS_TYPE = "DataAccess"

PROCESS = "process"
TEE = "tee"
MERGE = "merge"
SPLIT = "split"

BROKER_ENDPOINT = "broker.sock"


class Stage(NamedTuple):
    name: str
    kind: str
    instance: str = ""
    replica: int = 0
    argv: tuple[str, ...] = ()
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    stateless: bool = False
    site: str = ""

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "instance": self.instance,
            "replica": self.replica,
            "argv": list(self.argv),
            "reads": list(self.reads),
            "writes": list(self.writes),
            "stateless": self.stateless,
            "site": self.site,
        }


class Channel(NamedTuple):
    name: str
    kind: str  # "pipe" | "file-in" | "file-out"
    path: str = ""
    primer: str = ""  # bytes in the pipe before any stage starts

    def to_json_obj(self) -> dict:
        return {"name": self.name, "kind": self.kind, "path": self.path, "primer": self.primer}


class BuildPlan(NamedTuple):
    system: str
    stages: tuple[Stage, ...]
    channels: tuple[Channel, ...]
    broker: str = ""
    rpc: tuple[tuple[str, str], ...] = ()
    relays: tuple[tuple[str, str, str], ...] = ()  # (connector, caller site, definer site)
    final: str = ""
    input: str = ""
    output: str = ""

    def stage(self, name: str) -> Optional[Stage]:
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    def to_json_obj(self) -> dict:
        return {
            "system": self.system,
            "stages": [s.to_json_obj() for s in self.stages],
            "channels": [c.to_json_obj() for c in self.channels],
            "broker": self.broker,
            "rpc": {conn: endpoint for conn, endpoint in self.rpc},
            "relays": [
                {"connector": c, "caller_site": a, "definer_site": b}
                for c, a, b in self.relays
            ],
            "final": self.final,
            "input": self.input,
            "output": self.output,
        }


def serialize_plan(built: BuildPlan) -> str:
    return json_text(built.to_json_obj())


def plan(arch: Architecture, table: TypeTable) -> BuildPlan:
    """Lower a checked architecture. Raises ArchonError on unmet bindings."""
    for conn in sorted(arch.connectors.values(), key=lambda c: c.name):
        if conn.type_name not in (PIPE_TYPE, RPC_TYPE, EVENT_TYPE, ACCESS_TYPE):
            raise fail(
                "UnrealizableConnector",
                f"no runtime realization for connector type '{conn.type_name}'",
                conn.span,
            )

    channels: dict[str, Channel] = {}
    reads: dict[str, list[str]] = {name: [] for name in arch.instances}
    writes: dict[str, list[str]] = {name: [] for name in arch.instances}

    pipe_names = sorted(
        c.name for c in arch.connectors.values() if c.type_name == PIPE_TYPE
    )
    for conn_name in pipe_names:
        span = arch.connectors[conn_name].span
        kind, path = "pipe", ""
        for ext in arch.externals_of_connector(conn_name):
            path = arch.bound_path(ext.direction)
            if path is None:
                raise fail(
                    "UnboundExternal" + ext.direction.capitalize(),
                    f"external {ext.direction} stream has no bound path",
                    span,
                )
            kind = "file-in" if ext.direction == EXT_INPUT else "file-out"
        channels[conn_name] = Channel(conn_name, kind, path)
        for att in arch.attachments_of_connector(conn_name, "source"):
            writes[att.instance].append(conn_name)
        for att in arch.attachments_of_connector(conn_name, "sink"):
            reads[att.instance].append(conn_name)

    _prime_cycles(arch, channels)

    node_names = sorted(arch.instances)
    synthetic: list[Stage] = []
    for inst_name in node_names:
        if len(writes[inst_name]) > 1:
            out_ch = f"{inst_name}.out"
            channels[out_ch] = Channel(out_ch, "pipe", "")
            synthetic.append(
                Stage(
                    name=f"{inst_name}.tee",
                    kind=TEE,
                    reads=(out_ch,),
                    writes=tuple(writes[inst_name]),
                )
            )
            writes[inst_name] = [out_ch]
        if len(reads[inst_name]) > 1:
            in_ch = f"{inst_name}.in"
            channels[in_ch] = Channel(in_ch, "pipe", "")
            synthetic.append(
                Stage(
                    name=f"{inst_name}.merge",
                    kind=MERGE,
                    reads=tuple(reads[inst_name]),
                    writes=(in_ch,),
                )
            )
            reads[inst_name] = [in_ch]

    processes: list[Stage] = []
    argvs: dict[str, tuple[str, ...]] = {}  # each distinct impl is split once
    for inst_name in node_names:
        inst = arch.instances[inst_name]
        impl = inst.attrs.get("impl")
        if not isinstance(impl, str) or not impl.strip():
            raise fail(
                "MissingImplementation",
                f"instance '{inst_name}' has no impl attribute",
                inst.span,
            )
        if impl not in argvs:
            argvs[impl] = tuple(shlex.split(impl))
        processes.append(
            Stage(
                name=inst_name,
                kind=PROCESS,
                instance=inst_name,
                replica=0,
                argv=argvs[impl],
                reads=tuple(reads[inst_name]),
                writes=tuple(writes[inst_name]),
                stateless="stateless" in inst.attrs,
                site=str(inst.attrs.get("site", "")),
            )
        )

    # Every process stage exists before any is fanned out, so a missing impl
    # is reported ahead of a fan-out error.
    stages: list[Stage] = list(synthetic)
    for process in processes:
        inst = arch.instances[process.name]
        n = inst.attrs.get("replicas")
        if isinstance(n, int) and n >= 2:
            stages += _fan_out(process, n, channels, inst.span)
        else:
            stages.append(process)

    broker = ""
    if any(c.type_name == EVENT_TYPE for c in arch.connectors.values()):
        broker = BROKER_ENDPOINT
    rpc = tuple(
        (c.name, f"rpc_{c.name}.sock")
        for c in sorted(arch.connectors.values(), key=lambda c: c.name)
        if c.type_name in (RPC_TYPE, ACCESS_TYPE)
    )

    def sites(connector: str, role: str) -> set[str]:
        return {
            str(arch.instances[a.instance].attrs.get("site", ""))
            for a in arch.attachments_of_connector(connector, role)
        }

    relays: list[tuple[str, str, str]] = []
    for conn in sorted(arch.connectors.values(), key=lambda c: c.name):
        if conn.type_name != RPC_TYPE:
            continue
        definer_site = min(sites(conn.name, "definer"), default="")
        for caller_site in sorted(sites(conn.name, "caller")):
            if caller_site != definer_site:
                relays.append((conn.name, caller_site, definer_site))

    draft = BuildPlan(
        system=arch.name,
        stages=(),
        channels=(),
        broker=broker,
        rpc=rpc,
        relays=tuple(relays),
        input=arch.input or "",
        output=arch.output or "",
    )
    return _finalize(draft, stages, channels)


def _prime_cycles(arch: Architecture, channels: dict[str, Channel]) -> None:
    """Put each seeded instance's primer on the first (by name) pipe into it
    from its own cycle, so the loop starts against a pipe that holds it."""
    for name, inst in arch.instances.items():
        primer = inst.attrs.get("seed")
        if isinstance(primer, str) and name in arch.cycle_entries:
            broken = min(arch.cycle_entries[name])
            channels[broken] = channels[broken]._replace(primer=primer)


def _fan_out(
    target: Stage, n: int, channels: dict[str, Channel], span: Optional[Span]
) -> list[Stage]:
    """split -> n replicas -> merge standing in for target; adds their pipes to
    channels.  A refusal points at ``span``, the target instance's."""
    if not target.stateless:
        raise fail(
            "NotStateless",
            f"instance '{target.name}' requests replicas without the stateless attribute",
            span,
        )
    if len(target.reads) != 1 or len(target.writes) != 1:
        raise fail(
            "FanoutUnsupported",
            f"stage '{target.name}' must have exactly one input and one output to fan out",
            span,
        )
    in_chs = [f"{target.name}.in#{i}" for i in range(n)]
    out_chs = [f"{target.name}.out#{i}" for i in range(n)]
    for ch in in_chs + out_chs:
        channels[ch] = Channel(ch, "pipe", "")
    replicas = [
        target._replace(name=f"{target.name}#{i}", replica=i, reads=(in_chs[i],), writes=(out_chs[i],))
        for i in range(n)
    ]
    return [
        Stage(name=f"{target.name}.split", kind=SPLIT, reads=target.reads, writes=tuple(in_chs)),
        *replicas,
        Stage(name=f"{target.name}.merge", kind=MERGE, reads=tuple(out_chs), writes=target.writes),
    ]


def _finalize(draft: BuildPlan, stages: list[Stage], channels: dict[str, Channel]) -> BuildPlan:
    """The draft with its stages in start order, channels sorted and the final stage."""
    writer_of = {ch: stage for stage in stages for ch in stage.writes}
    by_name = {s.name: s for s in stages}
    ordered = tuple(by_name[name] for name in _start_order(stages, writer_of, channels))
    chans = tuple(sorted(channels.values(), key=lambda c: c.name))
    final = next(
        (writer_of[c.name].name for c in chans if c.kind == "file-out" and c.name in writer_of),
        "",
    )
    return draft._replace(stages=ordered, channels=chans, final=final)


def _start_order(
    stages: list[Stage], writer_of: dict[str, Stage], channels: dict[str, Channel]
) -> list[str]:
    """Consumers before producers; ties and cycle interiors by name."""
    adj: dict[str, list[str]] = {s.name: [] for s in stages}
    for stage in stages:
        for ch in stage.reads:
            writer = writer_of.get(ch)
            # A primed pipe already holds what its reader needs first.
            if writer is not None and not channels[ch].primer:
                adj[stage.name].append(writer.name)

    names = sorted(adj)
    sccs = topology.strongly_connected_components(names, adj)
    comp_of = {name: idx for idx, comp in enumerate(sccs) for name in comp}
    comp_adj: dict[int, set[int]] = defaultdict(set)
    indeg = {idx: 0 for idx in range(len(sccs))}
    for src, targets in adj.items():
        for dst in targets:
            a, b = comp_of[src], comp_of[dst]
            if a != b and b not in comp_adj[a]:
                comp_adj[a].add(b)
                indeg[b] += 1

    heap = [(min(sccs[idx]), idx) for idx in indeg if indeg[idx] == 0]
    heapq.heapify(heap)
    order: list[str] = []
    while heap:
        _, idx = heapq.heappop(heap)
        order.extend(sorted(sccs[idx]))
        for nxt in sorted(comp_adj[idx]):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(heap, (min(sccs[nxt]), nxt))
    return order
