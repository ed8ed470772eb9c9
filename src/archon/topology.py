"""Dataflow graph shape: linear chains, forks, joins, and cycles.

The graph is a multigraph: parallel edges between the same pair of nodes
are distinct streams and both count toward degree.  ``linear`` means the
whole node set lies on one directed path, and excludes every other label.

This module is the one home of the strongly-connected-components routine
and of representative cycles: the architecture's cycle data, the
``pipes-and-filters`` seeded-cycle rule and the planner's stage order all
call it.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, NamedTuple, Sequence

LINEAR = "linear"
FORK = "fork"
JOIN = "join"
CYCLIC = "cyclic"


class TopologyReport(NamedTuple):
    classification: frozenset[str]
    forks: tuple[str, ...]
    joins: tuple[str, ...]
    adjacency: dict[str, list[str]]  # the graph, for ``cycles``

    @property
    def cycles(self) -> tuple[tuple[str, ...], ...]:
        """``find_cycles`` of the graph, found on each read."""
        return find_cycles(self.adjacency) if CYCLIC in self.classification else ()


def find_cycles(adj: Mapping[str, Iterable[str]]) -> tuple[tuple[str, ...], ...]:
    """One closed walk per cyclic strongly connected set of ``adj``, sorted."""
    adj = {n: sorted(succ) for n, succ in adj.items()}
    cycles = [
        _representative_cycle(set(scc), adj)
        for scc in strongly_connected_components(list(adj), adj)
        if len(scc) > 1 or scc[0] in adj.get(scc[0], ())
    ]
    return tuple(sorted(cycles))


def strongly_connected_components(
    nodes: Sequence[str], adj: dict[str, list[str]]
) -> list[list[str]]:
    """Tarjan's algorithm, iterative to keep deep chains off the C stack."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = adj.get(node, [])
            while child_i < len(children):
                child = children[child_i]
                child_i += 1
                if child not in index:
                    work[-1] = (node, child_i)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def _representative_cycle(scc: set[str], adj: dict[str, list[str]]) -> tuple[str, ...]:
    """One closed walk inside a strongly connected set, smallest start node.

    BFS from the start node's first in-component successor back to the
    start; strong connectivity guarantees the search succeeds.
    """
    start = min(scc)
    for first in adj.get(start, []):
        if first == start:
            return (start,)
        if first not in scc:
            continue
        parent = {first: start}
        queue = deque([first])
        while queue:
            node = queue.popleft()
            for child in adj.get(node, []):
                if child == start:
                    path = [node]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                if child in scc and child not in parent:
                    parent[child] = node
                    queue.append(child)
    raise AssertionError(f"no closed walk found in component {sorted(scc)}")


def classify_digraph(
    nodes: Iterable[str], edges: Iterable[tuple[str, str]]
) -> TopologyReport:
    """Classify a directed multigraph by its dataflow shape."""
    node_list = sorted(set(nodes))
    out_deg = {n: 0 for n in node_list}
    in_deg = {n: 0 for n in node_list}
    adj: dict[str, list[str]] = {n: [] for n in node_list}
    for src, dst in edges:
        out_deg[src] += 1
        in_deg[dst] += 1
        adj[src].append(dst)

    forks = tuple(n for n in node_list if out_deg[n] > 1)
    joins = tuple(n for n in node_list if in_deg[n] > 1)

    labels: set[str] = set()
    if forks:
        labels.add(FORK)
    if joins:
        labels.add(JOIN)
    if _has_cycle(node_list, adj, in_deg):
        labels.add(CYCLIC)
    # With no fork, join or cycle every degree is at most one, so the graph
    # is disjoint paths: one path covers every node iff there are n - 1 edges.
    if not labels and sum(out_deg.values()) == max(len(node_list) - 1, 0):
        labels.add(LINEAR)
    return TopologyReport(frozenset(labels), forks, joins, adj)


def _has_cycle(nodes: list[str], adj: dict[str, list[str]], in_deg: dict[str, int]) -> bool:
    """Kahn's peel: a node that never runs out of in-edges lies on or after a cycle."""
    left = dict(in_deg)
    ready = [n for n in nodes if not left[n]]
    peeled = 0
    while ready:
        node = ready.pop()
        peeled += 1
        for child in adj[node]:
            left[child] -= 1
            if not left[child]:
                ready.append(child)
    return peeled < len(nodes)
