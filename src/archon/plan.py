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

Lowering is one pass over the connectors by name, which gives each its
runtime form (a pipe's channel, the broker, an endpoint, an RPC's
relays), then one over the instances by name, which gives each its
tee/merge and process stages; replicas are fanned out last, so a
missing ``impl`` is reported first.  Stage order in the plan is start
order: consumers before producers so that every pipe has a reader by
the time its writer starts.  A cycle bootstrapped by a ``seed``
attribute is broken at the primed pipe into the seeded instance.  The
serialized plan writes each stage and channel as its record's fields
in declaration order: one %-format per record type, built once from
its ``_fields``, takes each field's JSON text, made by the field's type
(strings by the C escaper ``json.dumps`` uses), so a record costs no
dict and no recursion.  ``to_json_obj`` is the same plan as JSON values.
"""

from __future__ import annotations

import heapq
import re
from json.encoder import encode_basestring_ascii as _escape  # the C function json_text uses
from typing import Callable, Iterator, NamedTuple, Optional

from . import topology
from .diagnostics import Span, fail, json_pieces
from .model import (
    ACCESS_TYPE,
    EVENT_TYPE,
    EXT_INPUT,
    PIPE_TYPE,
    RPC_TYPE,
    Architecture,
    TypeTable,
)

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


class Channel(NamedTuple):
    name: str
    kind: str  # "pipe" | "file-in" | "file-out"
    path: str = ""
    primer: str = ""  # bytes in the pipe before any stage starts


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
        """The plan's JSON members, in field order.  Each stage and channel is
        its record's fields; they are iterators that make each record's dict
        only when it is reached, as ``json_pieces`` takes them."""
        return {
            **self._asdict(),
            "stages": map(Stage._asdict, self.stages),
            "channels": map(Channel._asdict, self.channels),
            "rpc": dict(self.rpc),
            "relays": [
                {"connector": c, "caller_site": a, "definer_site": b}
                for c, a, b in self.relays
            ],
        }


def _strings(items: tuple[str, ...]) -> str:
    return "[\n        " + ",\n        ".join(map(_escape, items)) + "\n      ]" if items else "[]"


# The JSON text of a record's field, as an item of the plan's arrays, by its type.
_FIELD_TEXT = {str: _escape, int: int.__repr__, bool: ("false", "true").__getitem__, tuple: _strings}


def _record_writer(record: type) -> Callable[[tuple], str]:
    """The writer of a ``record`` as an item of the plan's arrays: one
    %-format, keys in field order, given each field's text by its type."""
    fmt = "{" + ",".join(f"\n      {_escape(name)}: %s" for name in record._fields) + "\n    }"
    return lambda r: fmt % tuple([_FIELD_TEXT[type(value)](value) for value in r])


_write_stage = _record_writer(Stage)
_write_channel = _record_writer(Channel)


def plan_pieces(built: BuildPlan) -> Iterator[str]:
    """The plan's text, one top-level member, stage or channel at a time:
    ``json_pieces(built.to_json_obj())``, with each stage and channel written
    from its record by its type's format."""
    members = {**built.to_json_obj(), "stages": built.stages, "channels": built.channels}
    return json_pieces(members, {"stages": _write_stage, "channels": _write_channel})


def serialize_plan(built: BuildPlan) -> str:
    return "".join(plan_pieces(built))


def plan(arch: Architecture, table: TypeTable) -> BuildPlan:
    """Lower a checked architecture. Raises ArchonError on unmet bindings."""
    connectors = sorted(arch.connectors.values(), key=lambda c: c.name)
    for conn in connectors:
        if conn.type_name not in (PIPE_TYPE, RPC_TYPE, EVENT_TYPE, ACCESS_TYPE):
            raise fail(
                "UnrealizableConnector",
                f"no runtime realization for connector type '{conn.type_name}'",
                conn.span,
            )

    def sites(connector: str, role: str) -> set[str]:
        return {
            str(arch.instances[a.instance].attrs.get("site", ""))
            for a in arch.attachments_of_connector(connector, role)
        }

    channels: dict[str, Channel] = {}
    reads: dict[str, list[str]] = {name: [] for name in arch.instances}
    writes: dict[str, list[str]] = {name: [] for name in arch.instances}
    broker = ""
    rpc: list[tuple[str, str]] = []
    relays: list[tuple[str, str, str]] = []
    for conn in connectors:
        if conn.type_name == PIPE_TYPE:
            kind, path = "pipe", ""
            for ext in arch.externals_of_connector(conn.name):
                path = arch.bound_path(ext.direction)
                if path is None:
                    raise fail(
                        "UnboundExternal" + ext.direction.capitalize(),
                        f"external {ext.direction} stream has no bound path",
                        conn.span,
                    )
                kind = "file-in" if ext.direction == EXT_INPUT else "file-out"
            channels[conn.name] = Channel(conn.name, kind, path)
            for att in arch.attachments_of_connector(conn.name):
                if att.role == "source":
                    writes[att.instance].append(conn.name)
                elif att.role == "sink":
                    reads[att.instance].append(conn.name)
        elif conn.type_name == EVENT_TYPE:
            broker = BROKER_ENDPOINT
        else:  # RPC or DataAccess: an endpoint, and an RPC's cross-site relays
            rpc.append((conn.name, f"rpc_{conn.name}.sock"))
            if conn.type_name == RPC_TYPE:
                definer_site = min(sites(conn.name, "definer"), default="")
                for caller_site in sorted(sites(conn.name, "caller")):
                    if caller_site != definer_site:
                        relays.append((conn.name, caller_site, definer_site))

    stages: list[Stage] = []
    fan_outs: list[tuple[Stage, int, Optional[Span]]] = []
    argvs: dict[str, tuple[str, ...]] = {}  # each distinct impl is split once
    for inst_name in sorted(arch.instances):
        inst = arch.instances[inst_name]
        ins, outs = tuple(reads[inst_name]), tuple(writes[inst_name])
        if len(outs) > 1:
            out_ch = f"{inst_name}.out"
            channels[out_ch] = Channel(out_ch, "pipe", "")
            stages.append(Stage(name=f"{inst_name}.tee", kind=TEE, reads=(out_ch,), writes=outs))
            outs = (out_ch,)
        if len(ins) > 1:
            in_ch = f"{inst_name}.in"
            channels[in_ch] = Channel(in_ch, "pipe", "")
            stages.append(Stage(name=f"{inst_name}.merge", kind=MERGE, reads=ins, writes=(in_ch,)))
            ins = (in_ch,)
        # A seeded cycle is broken at the first (by name) pipe into it from
        # its own cycle, which holds the seed before any stage starts.
        primer = inst.attrs.get("seed")
        if isinstance(primer, str) and inst_name in arch.cycle_entries:
            broken = min(arch.cycle_entries[inst_name])
            channels[broken] = channels[broken]._replace(primer=primer)
        impl = inst.attrs.get("impl")
        if not isinstance(impl, str) or not impl.strip():
            raise fail(
                "MissingImplementation",
                f"instance '{inst_name}' has no impl attribute",
                inst.span,
            )
        if impl not in argvs:
            argvs[impl] = _split(impl)
        process = Stage(
            inst_name, PROCESS, inst_name, 0, argvs[impl], ins, outs,
            "stateless" in inst.attrs, str(inst.attrs.get("site", "")),
        )
        n = inst.attrs.get("replicas")
        if isinstance(n, int) and n >= 2:
            fan_outs.append((process, n, inst.span))
        else:
            stages.append(process)

    # Every process stage exists before any is fanned out, so a missing impl
    # is reported ahead of a fan-out error.
    for process, n, span in fan_outs:
        stages += _fan_out(process, n, channels, span)

    writer_of = {ch: stage for stage in stages for ch in stage.writes}
    by_name = {s.name: s for s in stages}
    chans = tuple(sorted(channels.values(), key=lambda c: c.name))
    return BuildPlan(
        system=arch.name,
        stages=tuple(by_name[name] for name in _start_order(stages, writer_of, channels)),
        channels=chans,
        broker=broker,
        rpc=tuple(rpc),
        relays=tuple(relays),
        final=next(
            (writer_of[c.name].name for c in chans if c.kind == "file-out" and c.name in writer_of),
            "",
        ),
        input=arch.input or "",
        output=arch.output or "",
    )


_WORD = re.compile(r"[^ \t\r\n]+")


def _split(impl: str) -> tuple[str, ...]:
    """The words of ``impl`` as ``shlex.split`` finds them.  A line with no
    quote or backslash splits at runs of space, tab, CR and LF, as shlex
    does (``str.split`` would also split at \\x0b, \\x0c and \\xa0)."""
    if "'" in impl or '"' in impl or "\\" in impl:
        import shlex  # quoting and its errors, only where a line has them

        return tuple(shlex.split(impl))
    return tuple(_WORD.findall(impl))


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

    sccs = topology.strongly_connected_components(sorted(adj), adj)
    comp_of = {name: idx for idx, comp in enumerate(sccs) for name in comp}
    # Each component's successors once: counted[b] is the last component
    # that counted b.  Popping the adjacency frees it as it is read.
    succs: list[list[int]] = []
    indeg = [0] * len(sccs)
    counted = [-1] * len(sccs)
    for a, comp in enumerate(sccs):
        succ: list[int] = []
        for name in comp:
            for writer in adj.pop(name):
                b = comp_of[writer]
                if b != a and counted[b] != a:
                    counted[b] = a
                    succ.append(b)
                    indeg[b] += 1
        succs.append(succ)
    del comp_of, counted

    heap = [(min(comp), idx) for idx, comp in enumerate(sccs) if not indeg[idx]]
    heapq.heapify(heap)
    order: list[str] = []
    while heap:
        _, idx = heapq.heappop(heap)
        order.extend(sorted(sccs[idx]))
        for nxt in succs[idx]:
            indeg[nxt] -= 1
            if not indeg[nxt]:
                heapq.heappush(heap, (min(sccs[nxt]), nxt))
    return order
