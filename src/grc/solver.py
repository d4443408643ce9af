"""Dispatch pipeline: screen (which normalizes and builds the Core), then pick a solver.

The screen reads the instance as given: in one pass over the cuts it puts
each on its canonical side, tests it and builds the one Core (pair verdicts
classified); forced edges are then eliminated, and every route reads that
Core.  Its degree-exact subgraph of the possibility graph
(``ffactor.solve_on_host``) decides it when that graph is a forest (route
"tree": the subgraph is unique, and the other cuts are checked on it) or
when all cut sets have size <= 2 (route "ffactor").
Otherwise the size-3 rewrite plus matching runs when the guard admits it, and
pruned exhaustive search when cut sets are larger or the guard refuses; a
refused rewrite hands the search the Core it had reached.
The witness of any route is verified once, against the instance as given.
"""

from __future__ import annotations

from .model import (
    Contradiction,
    GrcInstance,
    SimpleGraph,
    SolveOutcome,
    verify_realization,
)
from .ffactor import solve_on_host, solve_width2
from .oracle import DEFAULT_NODE_BUDGET, oracle_solve
from .preprocess import Core, possibility_graph, screen_instance
from .reduce3 import UnsafeReduction, reduce_to_width2
from .treesolve import is_forest

# perfbench/tracing.py wraps these names in this module.
from .model import normalize  # noqa: F401
from .preprocess import eliminate_fixed_edges  # noqa: F401
from .reduce3 import lift_realization  # noqa: F401
from .treesolve import solve_tree  # noqa: F401

METHODS = ("auto", "tree", "ffactor", "reduce3", "oracle")


class MethodNotApplicable(ValueError):
    """A forced method cannot run on this instance."""


def _forest(core: Core) -> SimpleGraph | None:
    """The Core's possibility graph when it is a forest, else None; it is
    built only when it has at most n - 1 edges, as every forest does."""
    n = core.vertex_count
    if n * (n - 1) // 2 - len(core.forbidden) > n - 1:
        return None
    host = possibility_graph(core)
    return host if is_forest(host) else None


def solve(inst: GrcInstance, *, method: str = "auto",
          node_budget: int = DEFAULT_NODE_BUDGET) -> SolveOutcome:
    """Decide realizability; any witness is verified once, against ``inst``, before return."""
    if method not in METHODS:
        raise MethodNotApplicable(f"unknown method {method!r}, pick one of {METHODS}")
    try:
        core = screen_instance(inst)
    except Contradiction as exc:
        return SolveOutcome.infeasible(str(exc), method="screen")
    # pairs live in the Core's verdict sets, so this is 0 where width() reads 2
    w = max(map(len, core.cuts), default=0)
    limit = {"ffactor": 2, "reduce3": 3}.get(method)
    if limit is not None and w > limit:
        raise MethodNotApplicable(f"instance has cut sets of size {limit + 1} or more")
    try:
        core.eliminate()
    except Contradiction as exc:
        return SolveOutcome.infeasible(
            str(exc), method="preprocess" if method == "auto" else method)

    route = method
    forest = _forest(core) if method in ("auto", "tree") else None
    if method == "auto":
        route = ("tree" if forest is not None
                 else "ffactor" if w <= 2 else "reduce3" if w == 3 else "oracle")
    elif method == "tree" and forest is None:
        raise MethodNotApplicable("possibility graph is not a tree or forest")

    if route == "tree":
        outcome = solve_on_host(core, forest, core, "tree")
    elif route == "ffactor":
        outcome = solve_width2(core)
    elif route == "reduce3":
        try:
            reduced, _ = reduce_to_width2(core)
            outcome = solve_width2(reduced).with_method("reduce3")
        except UnsafeReduction as exc:
            if method == "reduce3":
                raise MethodNotApplicable(f"size-3 rewrite is unsafe here: {exc}") from exc
            outcome = oracle_solve(exc.core, node_budget)
        except Contradiction as exc:
            return SolveOutcome.infeasible(str(exc), method="reduce3")
    else:
        outcome = oracle_solve(core, node_budget)

    if outcome.witness is not None:
        report = verify_realization(outcome.witness, inst)
        if not report.ok:
            raise RuntimeError(f"witness failed final verification: {report.violations}")
    return outcome
