"""Instances whose possibility graph is a tree (or forest).

On a forest the degree targets admit at most one spanning subgraph: two
degree-exact subgraphs would differ by a nonempty subgraph whose degrees are
all even, and such a subgraph contains a cycle.  The matching route's pruning
(``ffactor._prune``) settles every edge of a forest, since each leaf has
target 0 or 1, that is 0 or its degree.  So ``ffactor.solve_on_host``
decides the forest route with an empty matching expansion, then checks every
cut that is not a pair cut on the unique factor.  ``is_forest`` tests the host.
"""

from __future__ import annotations

from .ffactor import solve_on_host
from .model import Contradiction, GrcInstance, SimpleGraph, SolveOutcome
from .preprocess import Core, as_core, possibility_graph

# perfbench/tracing.py wraps these names in this module.
from .preprocess import eliminate_fixed_edges, verify_realization  # noqa: F401
from .reduce3 import lift_realization  # noqa: F401


def is_forest(g: SimpleGraph) -> bool:
    """True iff no edge closes a cycle (union-find over the edges)."""
    parent = list(range(g.vertex_count))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def solve_tree(inst: GrcInstance | Core) -> SolveOutcome:
    """Decide an instance (or Core) whose (forced-edge-eliminated) possibility
    graph is a tree or forest; raises ValueError when it is not."""
    try:
        core = as_core(inst)
    except Contradiction as exc:
        return SolveOutcome.infeasible(str(exc), method="tree")
    host = possibility_graph(core)
    if not is_forest(host):
        raise ValueError("possibility graph is not a tree or forest")
    return solve_on_host(core, host, inst, "tree")
