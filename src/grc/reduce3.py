"""Rewrites size-3 cut constraints into pair constraints plus helper vertices.

A screened size-3 cut (S, ell) falls into one of four cases by d(S) - ell:
0, 2, 4, or 6, i.e. zero to three edges forced inside S.  Cases 0 and 6 are
pure pair constraints (forbid or fix all internal pairs).  The other two are
expressed with fresh helper vertices whose edges simulate the choice of
internal edges; that rewrite is only trusted when a safety guard holds, and a
lifting procedure maps witnesses of the rewritten instance back.
"""

from __future__ import annotations

import itertools
from enum import Enum

from .model import Contradiction, CutConstraint, GrcInstance, SimpleGraph
from .preprocess import (
    Case1Forbid,
    Case2Fix,
    Case3Gadget,
    Case4Gadget,
    Core,
    FixedEdgeEliminated,
    TraceRecord,
    _classify_pairs,
)
# perfbench/tracing.py wraps this name in this module.
from .preprocess import eliminate_fixed_edges  # noqa: F401


class Size3Case(Enum):
    """Case label = d(S) - ell = twice the number of forced internal edges."""

    CASE1 = 0
    CASE3 = 2
    CASE4 = 4
    CASE2 = 6


class UnsafeReduction(Exception):
    """The helper-vertex rewrite cannot be trusted here; fall back to search.

    ``core``, when set, is the eliminated Core the rewrite had reached, with
    the same realizations as its input; the search can start from it.
    """

    def __init__(self, offenders, core: Core | None = None):
        self.offenders = tuple(offenders)
        self.core = core
        msg = "; ".join(f"cut {o['set']}: {o['reason']}" for o in self.offenders)
        super().__init__(msg or "unsafe reduction")


_BY_GAP = {case.value: case for case in Size3Case}


def _size3_case(degrees, s: tuple[int, ...], ell: int) -> Size3Case | None:
    """The case of the size-3 cut (s, ell), or None when d(S) - ell is not 0, 2, 4 or 6."""
    return _BY_GAP.get(degrees[s[0]] + degrees[s[1]] + degrees[s[2]] - ell)


def classify_case(inst: GrcInstance | Core, cut: CutConstraint) -> Size3Case:
    if len(cut.members) != 3:
        raise ValueError(f"classification applies to size-3 cut sets, got {cut.members}")
    case = _size3_case(inst.degrees, cut.members, cut.ell)
    if case is None:
        diff = sum(inst.degrees[v] for v in cut.members) - cut.ell
        raise ValueError(
            f"cut {cut.members}: d(S) - ell = {diff} is not in {{0, 2, 4, 6}}; "
            "screen the instance first")
    return case


def _safety_violations(core: Core, s: tuple[int, ...]) -> list[dict]:
    """Reasons the helper-vertex rewrite of the cut on ``s`` cannot be trusted, if any."""
    out: list[dict] = []
    for u, v in itertools.combinations(s, 2):
        status = core.status(u, v)
        if status != "free":
            out.append({"set": list(s),
                        "reason": f"internal pair ({u},{v}) is already {status}"})
    for other in core.cuts:
        if other == s or len(other) < 3:
            continue
        shared = set(other) & set(s)
        if len(shared) >= 2:
            out.append({"set": list(s),
                        "reason": f"shares vertices {sorted(shared)} with cut {list(other)}"})
    return out


def gadget_safe(inst: GrcInstance, cut: CutConstraint) -> bool:
    """True iff no internal pair of the cut carries a pair constraint and no
    other cut of size >= 3 shares two or more vertices with it."""
    return not _safety_violations(_classify_pairs(inst.degrees, inst.cuts), cut.members)


_RECORDS = {Size3Case.CASE1: Case1Forbid, Size3Case.CASE2: Case2Fix,
            Size3Case.CASE3: Case3Gadget, Size3Case.CASE4: Case4Gadget}
_HELPER_DEGREES = {Size3Case.CASE3: (2,), Size3Case.CASE4: (3, 1)}


def _rewrite(core: Core, s: tuple[int, ...], case: Size3Case) -> TraceRecord:
    """Rewrite the cut on ``s`` in place, as apply_case1..4 describe; forced
    pairs wait for the next ``Core.eliminate``.  Returns the trace record."""
    del core.cuts[s]
    n = core.vertex_count
    extra = _HELPER_DEGREES.get(case, ())
    helpers = range(n, n + len(extra))
    core.degrees.extend(extra)
    for h in helpers:
        core.forbidden.update((z, h) for z in range(n) if z not in s)
    if case is Size3Case.CASE4:
        core.forbidden.add((n, n + 1))
        core.forced.update((z, n) for z in s)
    for u, v in itertools.combinations(s, 2):
        if case is not Size3Case.CASE2:
            core.forbidden.add((u, v))
        elif core.degrees[u] + core.degrees[v] < 2:
            raise Contradiction(f"cannot force edge ({u},{v}): "
                                f"degrees {core.degrees[u]},{core.degrees[v]} too small")
        else:
            core.forced.add((u, v))
    record = _RECORDS[case](s, *helpers)
    core.trace.append(record)
    return record


def _apply(inst: GrcInstance, cut: CutConstraint, case: Size3Case):
    if classify_case(inst, cut) is not case:
        raise ValueError(f"apply_{case.name.lower()} expects a cut with ell = d(S) - {case.value}")
    core = _classify_pairs(inst.degrees, inst.cuts)
    offenders = _safety_violations(core, cut.members) if case in _HELPER_DEGREES else []
    if offenders:
        raise UnsafeReduction(offenders)
    record = _rewrite(core, cut.members, case)
    return core.to_instance(), record


def apply_case1(inst: GrcInstance, cut: CutConstraint):
    """ell = d(S): every degree unit leaves S, so all internal pairs are forbidden."""
    return _apply(inst, cut, Size3Case.CASE1)


def apply_case2(inst: GrcInstance, cut: CutConstraint):
    """ell = d(S) - 6: all three internal edges are forced."""
    return _apply(inst, cut, Size3Case.CASE2)


def apply_case3(inst: GrcInstance, cut: CutConstraint):
    """ell = d(S) - 2: exactly one internal edge.

    A helper vertex x of degree 2, wired only into S, picks the two endpoints
    of that edge.  All internal pairs of S are forbidden, and x is forbidden
    from every vertex outside S (including helper vertices of other rewrites).
    """
    return _apply(inst, cut, Size3Case.CASE3)


def apply_case4(inst: GrcInstance, cut: CutConstraint):
    """ell = d(S) - 4: exactly two internal edges.

    Helper x (degree 3) is forced onto all of S, dropping each internal degree
    by one; helper y (degree 1) picks the vertex whose degree drops twice, the
    common endpoint of the two internal edges.  Internal pairs of S are
    forbidden, and both helpers are forbidden from everything outside S.
    """
    return _apply(inst, cut, Size3Case.CASE4)


def reduce_to_width2(inst: GrcInstance | Core, *, guard: bool = True):
    """Rewrite every size-3 cut, yielding an equivalent instance of width <= 2.

    Expects a normalized, screened instance, or a Core built from one (which
    is copied, not changed).  Forbid/fix rewrites run to a fixpoint, each one
    followed by forced-edge elimination and fresh cases for the remaining
    size-3 cuts.  The guard then runs once, and helper rewrites follow in
    ascending set order: each forces edges only onto its own new helper, which
    lies in no other cut, so no case moves; and under the guard the pairs it
    forbids lie inside no other remaining cut, so no guard verdict moves.
    Raises UnsafeReduction when the guard rejects a remaining cut (guard=False
    rewrites regardless: unsound in general, for diagnostics only), and
    Contradiction when the rewrites surface genuinely conflicting constraints.
    Returns the reduced instance (a Core for a Core) and the trace from the
    instance the input was built from.  An UnsafeReduction's ``core`` is the
    eliminated Core holding every forbid/fix rewrite made before the refusal.
    """
    from_instance = isinstance(inst, GrcInstance)
    work = _classify_pairs(inst.degrees, inst.cuts) if from_instance else inst.copy()
    if any(len(s) > 3 for s in work.cuts):
        raise ValueError("reduction handles instances of width <= 3 only")
    while True:
        work.eliminate()
        size3 = sorted(s for s in work.cuts if len(s) == 3)
        cases = {}
        for s in size3:
            cases[s] = _size3_case(work.degrees, s, work.cuts[s])
            if cases[s] is None:
                raise Contradiction(f"after forced-edge elimination, cut {s} demands "
                                    f"{work.cuts[s]}, outside the attainable sizes")
        target = next((s for s in size3 if cases[s] in (Size3Case.CASE1, Size3Case.CASE2)), None)
        if target is None:
            break
        _rewrite(work, target, cases[target])
    offenders = [o for s in size3 for o in _safety_violations(work, s)] if guard else []
    if offenders:
        raise UnsafeReduction(offenders, work)
    for s in size3:
        _rewrite(work, s, cases[s])
        work.eliminate()
    return (work.to_instance() if from_instance else work), tuple(work.trace)


def _neighbors_in(edges: set[tuple[int, int]], v: int) -> list[int]:
    return sorted(w for e in edges if v in e for w in e if w != v)


def lift_realization(trace, g_reduced: SimpleGraph) -> SimpleGraph:
    """Map a realization of the reduced instance back through the trace.

    Records are undone in reverse order: eliminated forced edges are re-added,
    a degree-2 helper x becomes the internal edge between its two neighbors, a
    helper pair (x, y) becomes the two internal edges at y's neighbor.  Any
    mismatch between trace and graph indicates a reduction bug and raises
    RuntimeError.
    """
    edges = {(u, v) if u < v else (v, u) for u, v in g_reduced.edges}
    n = g_reduced.vertex_count
    for rec in reversed(trace):
        if isinstance(rec, FixedEdgeEliminated):
            pair = (rec.u, rec.v) if rec.u < rec.v else (rec.v, rec.u)
            if pair[1] >= n:
                raise RuntimeError(f"eliminated edge {pair} references a removed vertex")
            if pair in edges:
                raise RuntimeError(f"edge {pair} already present while undoing its elimination")
            edges.add(pair)
        elif isinstance(rec, Case3Gadget):
            x = rec.aux_x
            if x != n - 1:
                raise RuntimeError(f"helper vertex {x} is not the top index {n - 1}")
            picked = _neighbors_in(edges, x)
            if len(picked) != 2 or any(v not in rec.s for v in picked):
                raise RuntimeError(f"helper {x} has neighbors {picked}, expected two inside {rec.s}")
            edges = {e for e in edges if x not in e}
            a, b = picked
            if (a, b) in edges:
                raise RuntimeError(f"internal edge ({a},{b}) already present")
            edges.add((a, b))
            n -= 1
        elif isinstance(rec, Case4Gadget):
            x, y = rec.aux_x, rec.aux_y
            if {x, y} != {n - 2, n - 1}:
                raise RuntimeError(f"helpers {x},{y} are not the top indices of {n} vertices")
            if _neighbors_in(edges, x) != sorted(rec.s):
                raise RuntimeError(f"helper {x} is not matched onto all of {rec.s}")
            y_nbrs = _neighbors_in(edges, y)
            if len(y_nbrs) != 1 or y_nbrs[0] not in rec.s:
                raise RuntimeError(f"helper {y} has neighbors {y_nbrs}, expected one inside {rec.s}")
            t = y_nbrs[0]
            edges = {e for e in edges if x not in e and y not in e}
            for w in rec.s:
                if w == t:
                    continue
                pair = (t, w) if t < w else (w, t)
                if pair in edges:
                    raise RuntimeError(f"internal edge {pair} already present")
                edges.add(pair)
            n -= 2
        else:
            # Case1Forbid / Case2Fix rewrites do not change the graph.
            pass
    return SimpleGraph(n, frozenset(edges))
