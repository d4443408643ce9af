"""Exact-degree spanning subgraphs via perfect matching.

A degree-target question on a host graph expands into a matching question:
each host vertex v becomes one "external" vertex per incident host edge plus
deg(v) - f(v) "core" vertices joined to all of v's externals; each host edge
becomes a single edge between the corresponding externals.  Perfect matchings
of the expansion correspond exactly to subgraphs of the host in which every
vertex v has degree f(v).

The matching engine is an augmenting-path search with blossom shrinking,
deterministic by fixed ascending scan order.  One engine call uses internal
mutable state; independent solves can run in parallel on separate calls.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .model import (
    Contradiction,
    GrcInstance,
    SimpleGraph,
    SolveOutcome,
)
from .preprocess import Core, as_core, possibility_graph, realized
from .reduce3 import lift_realization

# perfbench/tracing.py wraps these names in this module.
from .preprocess import eliminate_fixed_edges, verify_realization  # noqa: F401

# Degree targets, one entry per host vertex.
FactorFunction = tuple[int, ...]


def max_matching(g: SimpleGraph) -> frozenset[tuple[int, int]]:
    """Maximum-cardinality matching of a general graph."""
    n = g.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(g.edges):
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj:
        lst.sort()
    match = [-1] * n
    for u in range(n):  # greedy seed
        if match[u] == -1:
            for v in adj[u]:
                if match[v] == -1:
                    match[u] = v
                    match[v] = u
                    break
    for root in range(n):
        if match[root] == -1:
            _augment_from(root, adj, match, n)
    return frozenset((u, match[u]) for u in range(n) if match[u] > u)


def _augment_from(root: int, adj, match, n) -> bool:
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                stem = _lowest_common_base(v, to, match, parent, base)
                in_blossom = [False] * n
                _mark_blossom_path(v, stem, to, match, parent, base, in_blossom)
                _mark_blossom_path(to, stem, v, match, parent, base, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = stem
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    _flip_augmenting_path(to, match, parent)
                    return True
                used[match[to]] = True
                queue.append(match[to])
    return False


def _lowest_common_base(a: int, b: int, match, parent, base) -> int:
    seen = set()
    x = base[a]
    while True:
        seen.add(x)
        if match[x] == -1:
            break
        x = base[parent[match[x]]]
    y = base[b]
    while y not in seen:
        y = base[parent[match[y]]]
    return y


def _mark_blossom_path(v: int, stem: int, child: int, match, parent, base, in_blossom) -> None:
    while base[v] != stem:
        in_blossom[base[v]] = True
        in_blossom[base[match[v]]] = True
        parent[v] = child
        child = match[v]
        v = parent[match[v]]


def _flip_augmenting_path(v: int, match, parent) -> None:
    while v != -1:
        pv = parent[v]
        nxt = match[pv]
        match[v] = pv
        match[pv] = v
        v = nxt


@dataclass(frozen=True)
class GadgetMatchingGraph:
    """Expansion of (host, targets) whose perfect matchings are the host's
    degree-exact subgraphs."""

    graph: SimpleGraph
    edge_reps: dict  # host edge (u, v) -> representative expansion edge
    externals: tuple[tuple[int, ...], ...]
    cores: tuple[tuple[int, ...], ...]


def _check_targets(host: SimpleGraph, f) -> tuple[int, ...]:
    targets = tuple(int(x) for x in f)
    if len(targets) != host.vertex_count:
        raise ValueError(
            f"need one degree target per vertex: got {len(targets)} for n={host.vertex_count}")
    if any(x < 0 for x in targets):
        raise ValueError("degree targets must be nonnegative")
    return targets


def tutte_gadget(host: SimpleGraph, f) -> GadgetMatchingGraph | None:
    """Build the matching expansion, or None when some target exceeds a host degree."""
    targets = _check_targets(host, f)
    host_edges = sorted(host.edges)
    incident: list[list[int]] = [[] for _ in range(host.vertex_count)]
    for idx, (u, v) in enumerate(host_edges):
        incident[u].append(idx)
        incident[v].append(idx)
    ext_of: dict[tuple[int, int], int] = {}
    externals: list[tuple[int, ...]] = []
    cores: list[tuple[int, ...]] = []
    gadget_edges: list[tuple[int, int]] = []
    nxt = 0
    for v in range(host.vertex_count):
        if targets[v] > len(incident[v]):
            return None
        ext = []
        for e in incident[v]:
            ext_of[(v, e)] = nxt
            ext.append(nxt)
            nxt += 1
        core = list(range(nxt, nxt + len(incident[v]) - targets[v]))
        nxt += len(core)
        for c in core:
            for x in ext:
                gadget_edges.append((x, c))
        externals.append(tuple(ext))
        cores.append(tuple(core))
    edge_reps: dict[tuple[int, int], tuple[int, int]] = {}
    for idx, (u, v) in enumerate(host_edges):
        a, b = ext_of[(u, idx)], ext_of[(v, idx)]
        if a > b:
            a, b = b, a
        gadget_edges.append((a, b))
        edge_reps[(u, v)] = (a, b)
    return GadgetMatchingGraph(
        SimpleGraph(nxt, frozenset(gadget_edges)), edge_reps, tuple(externals), tuple(cores))


def solve_f_factor(host: SimpleGraph, f) -> SimpleGraph | None:
    """Spanning subgraph of ``host`` where vertex v has degree exactly f[v], or None."""
    gadget = tutte_gadget(host, f)
    if gadget is None:
        return None
    matching = max_matching(gadget.graph)
    if 2 * len(matching) != gadget.graph.vertex_count:
        return None
    chosen = [edge for edge, rep in sorted(gadget.edge_reps.items()) if rep in matching]
    result = SimpleGraph(host.vertex_count, frozenset(chosen))
    if result.degree_sequence() != _check_targets(host, f):
        raise RuntimeError("perfect matching of the expansion does not map to the targets")
    return result


def solve_width2(inst: GrcInstance | Core) -> SolveOutcome:
    """Decide an instance (or Core) whose cut sets all have size <= 2.

    Forced edges are eliminated, the survivors must form a degree-exact
    subgraph of the possibility graph, and the witness is lifted back through
    the Core's trace.
    """
    try:
        core = as_core(inst)
    except Contradiction as exc:
        return SolveOutcome.infeasible(str(exc), method="ffactor")
    if any(len(s) > 2 for s in core.cuts):
        raise ValueError("solve_width2 needs all cut sets of size <= 2")
    factor = solve_f_factor(possibility_graph(core), core.degrees)
    if factor is None:
        return SolveOutcome.infeasible(
            "possibility graph has no degree-exact spanning subgraph", method="ffactor")
    return realized(lift_realization(core.trace, factor), inst, "ffactor")
