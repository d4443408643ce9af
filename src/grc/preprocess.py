"""Screening and the Core, the one internal form of the solve pipeline.

A size-2 cut is a verdict on one vertex pair: demanded size d_u + d_v forbids
the edge, d_u + d_v - 2 forces it ("fixed").  The screen reads the instance
as given, in one pass over its cuts: it puts each cut on its canonical side
(``model._canonical_cuts``), tests its demand and merges it into the ``Core``
(``_classify_pairs``): residual degrees, forbidden and forced pair sets, the
other cuts with their residual demand, and the rewrite trace.
``Core.eliminate`` places the forced edges in one pass; every solver route
then works on the Core and never reads a size-2 cut again.  Public functions
still accept instances: ``as_core`` converts at entry, and ``to_instance`` or
``realized`` (which verifies the witness) at exit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from math import comb

from .model import (Contradiction, CutConstraint, GrcInstance, InvalidInstanceError,
                    SimpleGraph, SolveOutcome, _canonical_cuts, _integer, degree_sum,
                    verify_realization)


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


# The JSON form of each record: its kind, then one key per field in field
# order; the set ``s`` is written as a list.
_TRACE_JSON = {
    FixedEdgeEliminated: ("fixed_edge_eliminated", ("u", "v")),
    Case1Forbid: ("case1_forbid", ("s",)),
    Case2Fix: ("case2_fix", ("s",)),
    Case3Gadget: ("case3_gadget", ("s", "x")),
    Case4Gadget: ("case4_gadget", ("s", "x", "y")),
}


def trace_to_json(trace) -> list[dict]:
    out = []
    for rec in trace:
        if type(rec) not in _TRACE_JSON:
            raise TypeError(f"unknown trace record {rec!r}")
        kind, keys = _TRACE_JSON[type(rec)]
        doc = {"kind": kind}
        for key, f in zip(keys, fields(rec)):
            value = getattr(rec, f.name)
            doc[key] = list(value) if key == "s" else value
        out.append(doc)
    return out


def _trace_field(doc: dict, key: str):
    """The value of ``key`` in a trace record: ``s`` is a list of three
    integers, every other field an integer under the rule of ``_integer``."""
    if key not in doc:
        raise InvalidInstanceError(f"trace record {doc['kind']!r} has no {key!r}")
    value = doc[key]
    if key != "s":
        return _integer(value, f"trace field {key!r}")
    if not isinstance(value, list) or len(value) != 3:
        raise InvalidInstanceError(f"trace field 's' must be a list of three integers, got {value!r}")
    return tuple(_integer(v, "trace set member") for v in value)


def trace_from_json(docs) -> tuple[TraceRecord, ...]:
    """The records ``trace_to_json`` wrote; a malformed record, or one whose
    vertices are not distinct naturals, raises InvalidInstanceError."""
    out: list[TraceRecord] = []
    for doc in docs:
        if not isinstance(doc, dict):
            raise InvalidInstanceError(f"trace record must be an object, got {doc!r}")
        kind = doc.get("kind")
        for cls, (name, keys) in _TRACE_JSON.items():
            if name == kind:
                values = [_trace_field(doc, key) for key in keys]
                named = [*values[0], *values[1:]] if keys[0] == "s" else values
                if min(named) < 0 or len(set(named)) < len(named):
                    raise InvalidInstanceError(
                        f"trace record {kind!r} names vertices {named}, not distinct naturals")
                out.append(cls(*values))
                break
        else:
            raise InvalidInstanceError(f"unknown trace record kind {kind!r}")
    return tuple(out)


def feasible_ell_set(inst: GrcInstance, s) -> frozenset[int]:
    """Attainable cut sizes for the set ``s``: d(S) - 2k for k internal edges."""
    members = set(s)
    if not members or len(members) >= inst.vertex_count:
        raise ValueError("cut set must be a nonempty proper subset of the vertices")
    total = degree_sum(inst, members)
    return frozenset(total - 2 * k for k in range(comb(len(members), 2) + 1) if total - 2 * k >= 0)


def screen_instance(inst: GrcInstance) -> Core:
    """Necessary realizability checks; returns the Core, raises Contradiction.

    Passing is necessary but not sufficient.  After the vertex checks, every
    degree at most n - 1 and then an even degree sum, one pass over the cuts
    as given puts each on its canonical side (``_canonical_cuts``, the rule
    of ``normalize``), tests it and builds the Core; nothing is eliminated.
    """
    n, degrees = inst.vertex_count, inst.degrees
    for v, d in enumerate(degrees):
        if d > n - 1:
            raise Contradiction(f"vertex {v} demands degree {d} but only {n - 1} partners exist")
    if sum(degrees) % 2:
        raise Contradiction("sum of degrees is odd")
    return _classify_pairs(degrees, _canonical_cuts(inst))


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
        A later forced pair whose demand an edge drops to 0 has an endpoint at
        degree 0 by the time it is reached, so the degree check rejects it.
        """
        self.check_clash()
        degrees, cuts = self.degrees, self.cuts
        for u, v in sorted(self.forced):
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


def _classify_pairs(degrees: tuple[int, ...], cuts) -> Core:
    """The Core of ``degrees`` and ``cuts``, read in one pass; nothing is eliminated.

    A demand is tested as membership in ``feasible_ell_set``: gap = d(S) - ell
    must be twice the edges inside S, so even, with 0 <= gap <= 2 C(|S|, 2).
    A pair's gap is then 0, which forbids its edge, or 2, which forces it; a
    repeated pair may not do both, and a repeated larger set keeps its ell.
    The sets are trusted as validated by ``GrcInstance`` and read as written.
    """
    core = Core(list(degrees), set(), set(), {})
    for cut in cuts:
        s, ell = cut.members, cut.ell
        k = len(s)
        gap = (degrees[s[0]] + degrees[s[1]] if k == 2 else sum([degrees[v] for v in s])) - ell
        if gap < 0 or gap % 2 or gap > k * (k - 1):
            raise Contradiction(f"cut {s} demands size {ell}, outside the attainable sizes")
        if k == 2:
            (core.forced if gap else core.forbidden).add(s)
        elif core.cuts.setdefault(s, ell) != ell:
            raise Contradiction(
                f"cut set {s} demanded with two different sizes {core.cuts[s]} and {ell}")
    core.check_clash()
    return core


def as_core(inst: GrcInstance | Core) -> Core:
    """``inst`` classified and with its forced edges eliminated; a Core passes through."""
    if isinstance(inst, Core):
        return inst
    core = _classify_pairs(inst.degrees, inst.cuts)
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
    return _classify_pairs(inst.degrees, inst.cuts)


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
    core = inst if isinstance(inst, Core) else _classify_pairs(inst.degrees, inst.cuts)
    if core.forced:
        raise ValueError(
            f"fixed pairs remain, run eliminate_fixed_edges first: {sorted(core.forced)}")
    n = core.vertex_count
    return SimpleGraph(n, frozenset(
        p for p in itertools.combinations(range(n), 2) if p not in core.forbidden))
