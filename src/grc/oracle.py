"""Exhaustive reference solvers, the ground truth at desk scale.

Instances are decided by depth-first search over the undecided vertex pairs
of an eliminated Core (forbidden pairs are never branched on, forced edges
are placed before the search starts).  One generator, ``_realizations``,
yields every realization in search order: ``oracle_solve`` takes the first,
``enumerate_realizations`` the first ``cap``.  The solver hands it the Core
as given, or, when the size-3 rewrite is refused, the Core that rewrite had
reached.  Pruning: (a) a vertex's remaining demand must fit in its remaining
undecided pairs, (b) each cut's remaining demand must fit between 0 and its
remaining undecided crossing pairs.  The search is deterministic: pairs in
ascending order, include tried before exclude.

Also here: assignment enumeration for exactly-one-in-a-clause SAT and triple
search for three-dimensional matching, used to cross-check the hardness
instance generators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import Contradiction, GrcInstance, SimpleGraph, SolveOutcome, _integer
# perfbench/tracing.py wraps this name in this module.
from .model import verify_realization  # noqa: F401
from .preprocess import Core, as_core, realized
from .reduce3 import lift_realization

DEFAULT_NODE_BUDGET = 50_000_000


@dataclass(frozen=True)
class OneInThreeInstance:
    """CNF formula asked to have exactly one true literal per clause.

    Literals are signed 1-based integers: +3 is variable index 2 positive,
    -3 the same variable negated.  Clauses have two or three literals.  The
    count and the literals must be integers: a bool or a non-integral value
    raises, it is never truncated.
    """

    variable_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        count = _integer(self.variable_count, "variable count")
        object.__setattr__(self, "variable_count", count)
        if count < 0:
            raise ValueError("variable count must be nonnegative")
        canon = tuple(tuple(_integer(l, "literal") for l in clause) for clause in self.clauses)
        object.__setattr__(self, "clauses", canon)
        for clause in canon:
            if len(clause) not in (2, 3):
                raise ValueError(f"clauses must have two or three literals: {clause}")
            for lit in clause:
                if lit == 0 or abs(lit) > self.variable_count:
                    raise ValueError(f"literal {lit} out of range for {self.variable_count} variables")


@dataclass(frozen=True)
class ThreeDMInstance:
    """Triple system over three n-element sets, indices 0-based.

    ``n`` and the coordinates must be integers: a bool or a non-integral
    value raises, it is never truncated.
    """

    n: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        n = _integer(self.n, "n")
        object.__setattr__(self, "n", n)
        if n < 0:
            raise ValueError("n must be nonnegative")
        canon = tuple(tuple(_integer(v, "triple coordinate") for v in t) for t in self.triples)
        object.__setattr__(self, "triples", canon)
        for t in canon:
            if len(t) != 3 or any(v < 0 or v >= self.n for v in t):
                raise ValueError(f"triple {t} out of range for n={self.n}")


class _BudgetExhausted(RuntimeError):
    """The search visited more nodes than its budget allows."""


def _realizations(core: Core, node_budget: int, prune: bool = True):
    """Yield the realizations of the eliminated ``core``, lifted through its trace.

    Depth-first over the undecided pairs with an explicit stack, one entry per
    pair on the path, so the depth is not bounded by the recursion limit.
    Raises Contradiction when a demand exceeds the undecided pairs before the
    search starts, and _BudgetExhausted once it visits more than
    ``node_budget`` nodes.
    """
    n = core.vertex_count
    quota = list(core.degrees)
    pairs = [p for p in itertools.combinations(range(n), 2) if p not in core.forbidden]
    avail = [0] * n
    member_sets = [set(s) for s in core.cuts]
    need = list(core.cuts.values())
    cross_avail = [0] * len(member_sets)
    pair_cut_ids: list[tuple[int, ...]] = []
    for u, v in pairs:
        ids = tuple(i for i, m in enumerate(member_sets) if (u in m) != (v in m))
        pair_cut_ids.append(ids)
        avail[u] += 1
        avail[v] += 1
        for i in ids:
            cross_avail[i] += 1
    if prune and (any(q > a for q, a in zip(quota, avail))
                  or any(not 0 <= x <= c for x, c in zip(need, cross_avail))):
        raise Contradiction("degree or cut demands exceed the undecided pairs")
    total = len(pairs)

    def fits(u: int, v: int, ids) -> bool:
        return (not prune
                or (quota[u] <= avail[u] and quota[v] <= avail[v]
                    and all(need[i] <= cross_avail[i] for i in ids)))

    def take(u: int, v: int, ids, step: int) -> None:
        quota[u] -= step
        quota[v] -= step
        for i in ids:
            need[i] -= step

    tried: list[int] = []  # per pair on the path: 0 opened, 1 included, 2 excluded
    nodes = 0
    while True:
        nodes += 1
        if nodes > node_budget:
            raise _BudgetExhausted
        depth = len(tried)
        if depth < total:
            u, v = pairs[depth]
            avail[u] -= 1
            avail[v] -= 1
            for i in pair_cut_ids[depth]:
                cross_avail[i] -= 1
            tried.append(0)
        elif all(q == 0 for q in quota) and all(x == 0 for x in need):
            picked = [p for p, t in zip(pairs, tried) if t == 1]
            yield lift_realization(core.trace, SimpleGraph(n, picked))
        # Take the next branch of the deepest pair that has one left.
        while tried:
            depth = len(tried) - 1
            (u, v), ids = pairs[depth], pair_cut_ids[depth]
            state = tried.pop()
            if state == 1:
                take(u, v, ids, -1)
            if state == 0 and (not prune or (quota[u] > 0 and quota[v] > 0
                                             and all(need[i] > 0 for i in ids))):
                take(u, v, ids, 1)
                if fits(u, v, ids):
                    tried.append(1)
                    break
                take(u, v, ids, -1)
            if state < 2 and fits(u, v, ids):
                tried.append(2)
                break
            avail[u] += 1
            avail[v] += 1
            for i in ids:
                cross_avail[i] += 1
        else:
            return


def oracle_solve(inst: GrcInstance | Core, node_budget: int = DEFAULT_NODE_BUDGET, *,
                 prune: bool = True) -> SolveOutcome:
    """Exhaustive decision by pruned backtracking; the reference for all solvers.

    Accepts any valid instance, normalized or not, or a Core; fixed pairs are
    eliminated first.  Returns ResourceLimit (never a wrong answer) once the
    search visits more than ``node_budget`` nodes.
    """
    try:
        witness = next(_realizations(as_core(inst), node_budget, prune), None)
    except Contradiction as exc:
        return SolveOutcome.infeasible(str(exc), method="oracle")
    except _BudgetExhausted:
        return SolveOutcome.resource_limit(method="oracle")
    if witness is None:
        return SolveOutcome.infeasible("exhausted the search space", method="oracle")
    return realized(witness, inst, "oracle")


def enumerate_realizations(inst: GrcInstance, cap: int,
                           node_budget: int = DEFAULT_NODE_BUDGET) -> list[SimpleGraph]:
    """Up to ``cap`` distinct realizations, returned in ascending edge-set order.

    Intended for small instances (documented bound n <= 10); exceeding the
    node budget raises RuntimeError (``_BudgetExhausted``) rather than
    returning a partial answer silently.
    """
    try:
        results = list(itertools.islice(_realizations(as_core(inst), node_budget), max(cap, 0)))
    except Contradiction:
        return []
    except _BudgetExhausted:
        raise _BudgetExhausted("node budget exhausted during enumeration") from None
    results.sort(key=SimpleGraph.sorted_edges)
    return results


def sat_brute(f: OneInThreeInstance, k: int | None = None):
    """First assignment (ascending binary order, variable 0 least significant)
    giving every clause exactly one true literal, and exactly ``k`` true
    variables when ``k`` is given; None when there is none.

    Intended for formulas with at most 25 variables.
    """
    nv = f.variable_count
    clauses = f.clauses
    for mask in range(1 << nv):
        if k is not None and bin(mask).count("1") != k:
            continue
        ok = True
        for clause in clauses:
            hits = 0
            for lit in clause:
                value = (mask >> (abs(lit) - 1)) & 1
                if (lit > 0) == bool(value):
                    hits += 1
                    if hits > 1:
                        break
            if hits != 1:
                ok = False
                break
        if ok:
            return tuple(bool((mask >> i) & 1) for i in range(nv))
    return None


def tdm_brute(t: ThreeDMInstance):
    """Set of ``n`` pairwise-disjoint triples covering all three sides, or None.

    Branches on the smallest uncovered first-coordinate element; intended for
    n <= 6.  Returns the chosen triples sorted.
    """
    n = t.n
    by_x: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for triple in t.triples:
        by_x[triple[0]].append(triple)
    used_y = [False] * n
    used_z = [False] * n
    chosen: list[tuple[int, int, int]] = []

    def cover(i: int) -> bool:
        if i == n:
            return True
        for triple in by_x[i]:
            _, y, z = triple
            if used_y[y] or used_z[z]:
                continue
            used_y[y] = used_z[z] = True
            chosen.append(triple)
            if cover(i + 1):
                return True
            chosen.pop()
            used_y[y] = used_z[z] = False
        return False

    if cover(0):
        return tuple(sorted(chosen))
    return None
