"""Dispatch pipeline: normalize, screen, build the Core once, then pick a solver.

The normalized instance becomes one Core (pair verdicts classified, forced
edges eliminated), and every route reads that Core: leaf peeling when its
possibility graph is a forest, the matching route when all cut sets have size
<= 2, the size-3 rewrite plus matching when the guard admits it, and pruned
exhaustive search otherwise (also as the fallback when the rewrite refuses).
The witness of any route is verified once, against the instance as given.
"""

from __future__ import annotations

from .model import (
    Contradiction,
    GrcInstance,
    SimpleGraph,
    SolveOutcome,
    normalize,
    verify_realization,
    width,
)
from .ffactor import solve_width2
from .oracle import DEFAULT_NODE_BUDGET, oracle_solve
from .preprocess import Core, as_core, possibility_graph, screen_instance
from .reduce3 import UnsafeReduction, reduce_to_width2
from .treesolve import _solve_on_forest, is_forest

# perfbench/tracing.py wraps these names in this module.
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
        norm = normalize(inst)
        screen_instance(norm)
    except Contradiction as exc:
        return SolveOutcome.infeasible(str(exc), method="screen")
    limit = {"ffactor": 2, "reduce3": 3}.get(method)
    if limit is not None and width(norm) > limit:
        raise MethodNotApplicable(f"instance has cut sets of size {limit + 1} or more")
    try:
        core = as_core(norm)
    except Contradiction as exc:
        return SolveOutcome.infeasible(
            str(exc), method="preprocess" if method == "auto" else method)

    route = method
    forest = _forest(core) if method in ("auto", "tree") else None
    if method == "auto":
        w = width(norm)
        route = ("tree" if forest is not None
                 else "ffactor" if w <= 2 else "reduce3" if w == 3 else "oracle")
    elif method == "tree" and forest is None:
        raise MethodNotApplicable("possibility graph is not a tree or forest")

    if route == "tree":
        outcome = _solve_on_forest(core, forest, core)
    elif route == "ffactor":
        outcome = solve_width2(core)
    elif route == "reduce3":
        try:
            reduced, _ = reduce_to_width2(core)
            outcome = solve_width2(reduced).with_method("reduce3")
        except UnsafeReduction as exc:
            if method == "reduce3":
                raise MethodNotApplicable(f"size-3 rewrite is unsafe here: {exc}") from exc
            outcome = oracle_solve(core, node_budget)
        except Contradiction as exc:
            return SolveOutcome.infeasible(str(exc), method="reduce3")
    else:
        outcome = oracle_solve(core, node_budget)

    if outcome.witness is not None:
        report = verify_realization(outcome.witness, inst)
        if not report.ok:
            raise RuntimeError(f"witness failed final verification: {report.violations}")
    return outcome
