"""Screening and the Core, the one internal form of the solve pipeline.

A size-2 cut is a verdict on one vertex pair: demanded size d_u + d_v forbids
the edge, d_u + d_v - 2 forces it ("fixed").  ``_classify_pairs`` reads these
verdicts once into a ``Core``: residual degrees, forbidden and forced pair
sets, the other cuts with their residual demand, and the rewrite trace.
``Core.eliminate`` places the forced edges in one pass; every solver route
then works on the Core and never reads a size-2 cut again.  Public functions
still accept instances: ``as_core`` converts at entry, and ``to_instance`` or
``realized`` (which verifies the witness) at exit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

from .model import (Contradiction, CutConstraint, GrcInstance, SimpleGraph, SolveOutcome,
                    degree_sum, verify_realization)


# Rewrite records.  Applied in list order they turn the original instance into
# the reduced one; lift_realization walks them in reverse to map a reduced
# witness back.

@dataclass(frozen=True)
class FixedEdgeEliminated:
    u: int
    v: int


@dataclass(frozen=True)
class Case1Forbid:
    s: tuple[int, int, int]


@dataclass(frozen=True)
class Case2Fix:
    s: tuple[int, int, int]


@dataclass(frozen=True)
class Case3Gadget:
    s: tuple[int, int, int]
    aux_x: int


@dataclass(frozen=True)
class Case4Gadget:
    s: tuple[int, int, int]
    aux_x: int
    aux_y: int


TraceRecord = FixedEdgeEliminated | Case1Forbid | Case2Fix | Case3Gadget | Case4Gadget


def trace_to_json(trace) -> list[dict]:
    out = []
    for rec in trace:
        if isinstance(rec, FixedEdgeEliminated):
            out.append({"kind": "fixed_edge_eliminated", "u": rec.u, "v": rec.v})
        elif isinstance(rec, Case1Forbid):
            out.append({"kind": "case1_forbid", "s": list(rec.s)})
        elif isinstance(rec, Case2Fix):
            out.append({"kind": "case2_fix", "s": list(rec.s)})
        elif isinstance(rec, Case3Gadget):
            out.append({"kind": "case3_gadget", "s": list(rec.s), "x": rec.aux_x})
        elif isinstance(rec, Case4Gadget):
            out.append({"kind": "case4_gadget", "s": list(rec.s), "x": rec.aux_x, "y": rec.aux_y})
        else:
            raise TypeError(f"unknown trace record {rec!r}")
    return out


def trace_from_json(docs) -> tuple[TraceRecord, ...]:
    out: list[TraceRecord] = []
    for doc in docs:
        kind = doc.get("kind")
        if kind == "fixed_edge_eliminated":
            out.append(FixedEdgeEliminated(doc["u"], doc["v"]))
        elif kind == "case1_forbid":
            out.append(Case1Forbid(tuple(doc["s"])))
        elif kind == "case2_fix":
            out.append(Case2Fix(tuple(doc["s"])))
        elif kind == "case3_gadget":
            out.append(Case3Gadget(tuple(doc["s"]), doc["x"]))
        elif kind == "case4_gadget":
            out.append(Case4Gadget(tuple(doc["s"]), doc["x"], doc["y"]))
        else:
            raise ValueError(f"unknown trace record kind {kind!r}")
    return tuple(out)


def feasible_ell_set(inst: GrcInstance, s) -> frozenset[int]:
    """Attainable cut sizes for the set ``s``: d(S) - 2k for k internal edges."""
    members = set(s)
    if not members or len(members) >= inst.vertex_count:
        raise ValueError("cut set must be a nonempty proper subset of the vertices")
    total = degree_sum(inst, members)
    return frozenset(total - 2 * k for k in range(comb(len(members), 2) + 1) if total - 2 * k >= 0)


def screen_instance(inst: GrcInstance) -> None:
    """Necessary realizability checks; raises Contradiction when one fails.

    Passing is necessary but not sufficient.  A cut's demand is tested by
    arithmetic, exactly as membership in ``feasible_ell_set``: with gap =
    d(S) - ell, it needs gap >= 0, gap even and gap / 2 <= C(|S|, 2).  The
    instance's cut sets are trusted as validated by ``GrcInstance``.
    """
    n, degrees = inst.vertex_count, inst.degrees
    for v, d in enumerate(degrees):
        if d > n - 1:
            raise Contradiction(f"vertex {v} demands degree {d} but only {n - 1} partners exist")
    if sum(degrees) % 2:
        raise Contradiction("sum of degrees is odd")
    for cut in inst.cuts:
        s = cut.members
        k = len(s)
        total = degrees[s[0]] + degrees[s[1]] if k == 2 else sum([degrees[v] for v in s])
        gap = total - cut.ell
        # an even gap of 2j means j edges inside S, of at most C(k, 2) = k(k-1)/2
        if gap < 0 or gap % 2 or gap > k * (k - 1):
            raise Contradiction(
                f"cut {cut.members} demands size {cut.ell}, outside the attainable sizes")


@dataclass
class Core:
    """The one internal form every solver stage works on.

    ``forbidden`` and ``forced`` hold the pair verdicts, read once from the
    size-2 cuts; ``cuts`` maps every other cut set to its residual demand;
    ``trace`` lists the rewrites that lead here from the instance the Core was
    built from, so ``lift_realization(trace, g)`` maps a realization back.
    """

    degrees: list[int]
    forbidden: set[tuple[int, int]]
    forced: set[tuple[int, int]]
    cuts: dict[tuple[int, ...], int]
    trace: list[TraceRecord] = field(default_factory=list)

    @property
    def vertex_count(self) -> int:
        return len(self.degrees)

    def status(self, u: int, v: int) -> str:
        """Verdict on the pair: "fixed", "forbidden" or "free"."""
        pair = (u, v) if u < v else (v, u)
        if pair in self.forced:
            return "fixed"
        return "forbidden" if pair in self.forbidden else "free"

    def copy(self) -> Core:
        return Core(list(self.degrees), set(self.forbidden), set(self.forced),
                    dict(self.cuts), list(self.trace))

    def check_clash(self) -> None:
        clash = self.forced & self.forbidden
        if clash:
            raise Contradiction(f"pairs demanded both present and absent: {sorted(clash)}")

    def eliminate(self) -> None:
        """Place every forced edge, in ascending pair order, and forbid its pair.

        Placing (u, v) lowers d_u, d_v and the demand of every cut it crosses.
        A pair cut at u or v other than {u, v} loses one from both its demand
        and its degree sum, so no other verdict changes and one pass suffices.
        """
        self.check_clash()
        degrees, cuts = self.degrees, self.cuts
        pending = sorted(self.forced)
        for i, (u, v) in enumerate(pending):
            if degrees[u] == 0 or degrees[v] == 0:
                raise Contradiction(f"forced edge ({u},{v}) would drive a degree below zero")
            degrees[u] -= 1
            degrees[v] -= 1
            for s, ell in cuts.items():
                if (u in s) != (v in s):
                    if ell == 0:
                        raise Contradiction(
                            f"forced edge ({u},{v}) crosses cut {s} of demanded size 0")
                    cuts[s] = ell - 1
            # A later forced pair (a, b) sharing an endpoint is a crossed pair
            # cut; its demand d_a + d_b - 2, before this edge, is 0 exactly when
            # the degrees now sum to 1.
            for a, b in pending[i + 1:]:
                if (a in (u, v) or b in (u, v)) and degrees[a] + degrees[b] == 1:
                    raise Contradiction(
                        f"forced edge ({u},{v}) crosses cut {(a, b)} of demanded size 0")
            self.forbidden.add((u, v))
            self.trace.append(FixedEdgeEliminated(u, v))
        self.forced.clear()

    def to_instance(self) -> GrcInstance:
        """The equivalent instance: each pair verdict written back as a size-2 cut."""
        d = self.degrees
        pairs = [CutConstraint(p, d[p[0]] + d[p[1]] - 2) for p in sorted(self.forced)]
        pairs += [CutConstraint(p, d[p[0]] + d[p[1]]) for p in sorted(self.forbidden)]
        rest = [CutConstraint(s, ell) for s, ell in self.cuts.items()]
        return GrcInstance(tuple(d), (*pairs, *rest))


def _classify_pairs(inst: GrcInstance) -> Core:
    """Read each size-2 cut of ``inst`` as a verdict on its pair; nothing is eliminated."""
    core = Core(list(inst.degrees), set(), set(), {})
    for cut in inst.cuts:
        s = cut.members
        if len(s) != 2:
            if core.cuts.setdefault(s, cut.ell) != cut.ell:
                raise Contradiction(
                    f"cut set {s} demanded with two different sizes {core.cuts[s]} and {cut.ell}")
            continue
        total = inst.degrees[s[0]] + inst.degrees[s[1]]
        if cut.ell == total:
            core.forbidden.add(s)
        elif cut.ell == total - 2:
            core.forced.add(s)
        else:
            raise Contradiction(
                f"pair cut {s} demands {cut.ell}, but only {total} or {total - 2} are attainable")
    core.check_clash()
    return core


def as_core(inst: GrcInstance | Core) -> Core:
    """``inst`` classified and with its forced edges eliminated; a Core passes through."""
    if isinstance(inst, Core):
        return inst
    core = _classify_pairs(inst)
    core.eliminate()
    return core


def realized(witness: SimpleGraph, source: GrcInstance | Core, method: str) -> SolveOutcome:
    """Realizable outcome; ``witness`` is verified here when ``source`` is an
    instance, and by the caller (against its own instance) when it is a Core."""
    if isinstance(source, GrcInstance):
        report = verify_realization(witness, source)
        if not report.ok:
            raise RuntimeError(f"{method} witness failed verification: {report.violations}")
    return SolveOutcome.realizable(witness, method=method)


def build_pair_ledger(inst: GrcInstance) -> Core:
    """Classify every size-2 cut under the instance's current degrees; see ``Core.status``."""
    return _classify_pairs(inst)


def eliminate_fixed_edges(inst: GrcInstance):
    """Strip forced edges in ascending pair order; returns the reduced instance and trace.

    Removing a forced edge decrements both endpoint degrees and the demanded
    size of every cut the edge crosses; cuts it does not cross keep their size.
    The fixing pair cut itself is not crossed, so its unchanged size reads as
    "forbidden" under the new degrees.
    """
    core = as_core(inst)
    return core.to_instance(), tuple(core.trace)


def possibility_graph(inst: GrcInstance | Core) -> SimpleGraph:
    """Complete graph minus all forbidden pairs; supergraph of every realization.

    The instance or Core must carry no fixed pairs (run eliminate_fixed_edges first).
    """
    core = inst if isinstance(inst, Core) else _classify_pairs(inst)
    if core.forced:
        raise ValueError(
            f"fixed pairs remain, run eliminate_fixed_edges first: {sorted(core.forced)}")
    n = core.vertex_count
    return SimpleGraph(n, frozenset(
        p for p in itertools.combinations(range(n), 2) if p not in core.forbidden))
