"""Solver for instances whose possibility graph is a tree (or forest).

On a tree the degree targets admit at most one spanning subgraph: each leaf
either keeps its unique incident edge or drops it, forced by its target.  The
peeled candidate is then checked against every cut that is not a pair cut.
Forests are handled component-wise; this is a documented extension of the tree
case.
"""

from __future__ import annotations

from .model import Contradiction, GrcInstance, SimpleGraph, SolveOutcome, cut_size
from .preprocess import Core, as_core, possibility_graph, realized
from .reduce3 import lift_realization

# perfbench/tracing.py wraps these names in this module.
from .preprocess import eliminate_fixed_edges, verify_realization  # noqa: F401


def _component_count(g: SimpleGraph) -> int:
    parent = list(range(g.vertex_count))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return sum(1 for v in range(g.vertex_count) if find(v) == v)


def is_tree(g: SimpleGraph) -> bool:
    """True iff connected with exactly n - 1 edges."""
    if g.vertex_count == 0:
        return False
    return len(g.edges) == g.vertex_count - 1 and _component_count(g) == 1


def is_forest(g: SimpleGraph) -> bool:
    return len(g.edges) == g.vertex_count - _component_count(g)


def _peel(host: SimpleGraph, targets) -> set[tuple[int, int]] | None:
    """Unique degree-exact subgraph of a forest, or None when none exists."""
    adj = host.adjacency()
    residual = list(targets)
    alive = set(range(host.vertex_count))
    chosen: set[tuple[int, int]] = set()
    while alive:
        v = min(u for u in alive if len(adj[u]) <= 1)
        if adj[v]:
            if residual[v] > 1:
                return None
            if residual[v] == 1:
                u = next(iter(adj[v]))
                chosen.add((u, v) if u < v else (v, u))
                residual[u] -= 1
                if residual[u] < 0:
                    return None
            u = next(iter(adj[v]))
            adj[u].discard(v)
            adj[v].clear()
        elif residual[v] != 0:
            return None
        alive.discard(v)
    return chosen


def solve_tree(inst: GrcInstance | Core) -> SolveOutcome:
    """Decide an instance (or Core) whose (forced-edge-eliminated) possibility
    graph is a tree or forest; raises ValueError when it is not.

    The peeled subgraph meets the degrees and the pair verdicts by
    construction, so only the Core's other cuts are checked on it.
    """
    try:
        core = as_core(inst)
    except Contradiction as exc:
        return SolveOutcome.infeasible(str(exc), method="tree")
    host = possibility_graph(core)
    if not is_forest(host):
        raise ValueError("possibility graph is not a tree or forest")
    chosen = _peel(host, core.degrees)
    if chosen is None:
        return SolveOutcome.infeasible("leaf peeling cannot meet the degree targets", method="tree")
    peeled = SimpleGraph(host.vertex_count, frozenset(chosen))
    sizes = {s: cut_size(peeled, s) for s in core.cuts}
    violations = [f"cut {s}: size {sizes[s]} != required {ell}"
                  for s, ell in core.cuts.items() if sizes[s] != ell]
    if violations:
        return SolveOutcome.infeasible(
            "the unique degree-exact subgraph violates constraints: "
            + "; ".join(violations), method="tree")
    return realized(lift_realization(core.trace, peeled), inst, "tree")
