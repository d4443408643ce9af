"""Core data model: labeled instances, simple graphs, cut evaluation, verification.

Vertex identity is the 0-based index.  All values are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum


class InvalidInstanceError(ValueError):
    """An instance, graph, or JSON document fails structural validation."""


class Contradiction(Exception):
    """The constraints are provably unsatisfiable by any simple graph."""


def _integer(value, what: str) -> int:
    """``value`` as an int; a bool or a non-integral value raises, it is never truncated."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidInstanceError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class CutConstraint:
    """Demands that the edge cut of ``members`` contain exactly ``ell`` edges.

    ``members`` is converted entry by entry (a bool or non-integral index
    raises), deduplicated and sorted; the set must be nonempty with
    nonnegative indices, and ``ell`` must be a natural number that is not a
    bool.

    This constructor checks everything it is given.  Producers that have
    already proved a pair canonical (``instance_from_json`` and the hardness
    encoders) build it with ``_pair_cut`` instead, so each explicit pair cut
    they make is checked once.
    """

    members: tuple[int, ...]
    ell: int

    def __post_init__(self) -> None:
        members = tuple(sorted({v if type(v) is int else _integer(v, "cut set vertex index")
                                for v in self.members}))
        object.__setattr__(self, "members", members)
        if not members:
            raise InvalidInstanceError("cut set must be nonempty")
        if members[0] < 0:
            raise InvalidInstanceError(f"cut set holds a negative vertex index: {members}")
        if not isinstance(self.ell, int) or isinstance(self.ell, bool) or self.ell < 0:
            raise InvalidInstanceError(f"cut size must be a natural number, got {self.ell!r}")


@dataclass(frozen=True)
class SimpleGraph:
    """Labeled simple graph: vertices ``0..n-1``, no loops, no parallel edges.

    Edge pairs are stored with the smaller endpoint first; any iterable of
    pairs is accepted and canonicalized.  The vertex count and the endpoints
    follow the integer rule of ``_integer``: a bool or a non-integral value
    raises, it is never truncated.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        n = self.vertex_count
        if type(n) is not int:
            n = _integer(n, "vertex count")
            object.__setattr__(self, "vertex_count", n)
        if n < 0:
            raise InvalidInstanceError("vertex count must be nonnegative")
        canon = set()
        for u, v in self.edges:
            if type(u) is not int or type(v) is not int:
                u, v = _integer(u, "edge endpoint"), _integer(v, "edge endpoint")
            if u == v:
                raise InvalidInstanceError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            if u < 0 or v >= n:
                raise InvalidInstanceError(f"edge ({u},{v}) out of range for n={n}")
            canon.add((u, v))
        object.__setattr__(self, "edges", frozenset(canon))

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def degree_sequence(self) -> tuple[int, ...]:
        degs = [0] * self.vertex_count
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return tuple(degs)

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(w for e in self.edges if v in e for w in e if w != v))


@dataclass(frozen=True)
class GrcInstance:
    """Problem input: per-vertex degree targets plus a list of cut constraints."""

    degrees: tuple[int, ...]
    cuts: tuple[CutConstraint, ...] = ()

    def __post_init__(self) -> None:
        degrees = _checked_degrees(self.degrees)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "cuts", tuple(self.cuts))
        _check_cuts_fit(self.cuts, len(degrees))

    @property
    def vertex_count(self) -> int:
        return len(self.degrees)


def _checked_degrees(degrees) -> tuple[int, ...]:
    """``degrees`` as a tuple of ints, at least one and none negative."""
    degrees = tuple(d if type(d) is int else _integer(d, "degree") for d in degrees)
    if not degrees:
        raise InvalidInstanceError("instance needs at least one vertex")
    if any(d < 0 for d in degrees):
        raise InvalidInstanceError("degrees must be nonnegative")
    return degrees


def _check_cuts_fit(cuts, n: int) -> None:
    """Raise for the first cut whose set is not a proper subset of ``0..n-1``."""
    for cut in cuts:
        if cut.members[-1] >= n:
            raise InvalidInstanceError(f"cut {cut.members} references vertices beyond n={n}")
        if len(cut.members) >= n:
            raise InvalidInstanceError(f"cut {cut.members} is not a proper subset of the vertices")


def _pair_cut(u: int, v: int, ell: int) -> CutConstraint:
    """The cut {u, v} of size ``ell``, built unchecked: the caller has proved
    ``u`` and ``v`` ints with ``0 <= u < v`` and ``ell`` a natural int."""
    cut = object.__new__(CutConstraint)
    object.__setattr__(cut, "members", (u, v))
    object.__setattr__(cut, "ell", ell)
    return cut


def _checked_instance(degrees, cuts: tuple[CutConstraint, ...]) -> GrcInstance:
    """An instance whose ``cuts`` the caller has already checked against
    n = len(degrees); the degrees are checked here as in ``GrcInstance``."""
    inst = object.__new__(GrcInstance)
    object.__setattr__(inst, "degrees", _checked_degrees(degrees))
    object.__setattr__(inst, "cuts", cuts)
    return inst


class Status(Enum):
    REALIZABLE = "realizable"
    INFEASIBLE = "infeasible"
    RESOURCE_LIMIT = "resource-limit"


@dataclass(frozen=True)
class SolveOutcome:
    """Decision result; a witness is present exactly when status is REALIZABLE."""

    status: Status
    witness: SimpleGraph | None = None
    method: str | None = None
    reason: str | None = None

    @classmethod
    def realizable(cls, witness: SimpleGraph, method: str | None = None) -> SolveOutcome:
        return cls(Status.REALIZABLE, witness=witness, method=method)

    @classmethod
    def infeasible(cls, reason: str | None = None, method: str | None = None) -> SolveOutcome:
        return cls(Status.INFEASIBLE, reason=reason, method=method)

    @classmethod
    def resource_limit(cls, method: str | None = None) -> SolveOutcome:
        return cls(Status.RESOURCE_LIMIT, method=method, reason="node budget exhausted")

    @property
    def is_realizable(self) -> bool:
        return self.status is Status.REALIZABLE

    def with_method(self, method: str) -> SolveOutcome:
        return SolveOutcome(self.status, self.witness, method, self.reason)


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[str, ...]


def cut_size(g: SimpleGraph, s) -> int:
    """Number of edges of ``g`` with exactly one endpoint in ``s``."""
    inside = frozenset(s)
    if any(v < 0 or v >= g.vertex_count for v in inside):
        raise ValueError(f"cut set {sorted(inside)} out of range for n={g.vertex_count}")
    if not inside or len(inside) >= g.vertex_count:
        raise ValueError("cut set must be a nonempty proper subset of the vertices")
    return sum(1 for u, v in g.edges if (u in inside) != (v in inside))


def degree_sum(inst: GrcInstance, s) -> int:
    """Total degree demand of the vertex set ``s``."""
    members = set(s)
    if any(v < 0 or v >= inst.vertex_count for v in members):
        raise ValueError(f"vertex set {sorted(members)} out of range for n={inst.vertex_count}")
    return sum(inst.degrees[v] for v in members)


def verify_realization(g: SimpleGraph, inst: GrcInstance) -> VerificationReport:
    """Check every degree target and every cut constraint; list all failures.

    A cut's size is counted from one adjacency build as the degree sum of its
    set minus twice the edges inside; a pair cut {u, v} is d_u + d_v minus 2
    when uv is an edge, in O(1).
    """
    if g.vertex_count != inst.vertex_count:
        raise ValueError(
            f"graph has {g.vertex_count} vertices but instance has {inst.vertex_count}")
    violations: list[str] = []
    degs = g.degree_sequence()
    for v in range(inst.vertex_count):
        if degs[v] != inst.degrees[v]:
            violations.append(f"vertex {v}: degree {degs[v]} != required {inst.degrees[v]}")
    adj = g.adjacency()
    for cut in inst.cuts:
        if len(cut.members) == 2:
            u, v = cut.members
            actual = degs[u] + degs[v] - (2 if v in adj[u] else 0)
        else:
            inside = set(cut.members)
            actual = sum(degs[v] - len(adj[v] & inside) for v in inside)
        if actual != cut.ell:
            violations.append(f"cut {cut.members}: size {actual} != required {cut.ell}")
    return VerificationReport(not violations, tuple(violations))


def width(inst: GrcInstance) -> int:
    """Largest cut-set size in the instance as given (0 when there are no cuts).

    Sets are counted as written; apply ``normalize`` first to count each on
    its smaller side.
    """
    return max((len(c.members) for c in inst.cuts), default=0)


def normalize(inst: GrcInstance) -> GrcInstance:
    """Canonicalize the cut list by the rule of ``_canonical_cuts``: larger
    sides complemented, single-vertex sets checked and dropped, duplicates
    merged.  Every kept set lies within the instance's vertices, so the
    result skips the cut checks."""
    return _checked_instance(inst.degrees, tuple(_canonical_cuts(inst)))


def _canonical_cuts(inst: GrcInstance):
    """Yield the cuts of ``inst`` in canonical form, in order, as they are read.

    Each set larger than half the vertices is replaced by its complement (the
    cut is identical); a half-sized set keeps the variant containing vertex 0.
    Single-vertex sets are degree statements: contradicting ones raise
    Contradiction, matching ones are dropped.  Duplicate sets are dropped;
    the same set demanded with two different sizes raises Contradiction.  A
    cut that is not complemented is yielded as the same object.
    """
    n = inst.vertex_count
    kept: dict[tuple[int, ...], CutConstraint] = {}
    for cut in inst.cuts:
        members = cut.members
        size = len(members)
        if size > n - size or (2 * size == n and 0 not in members):
            inside = set(members)
            members = tuple(v for v in range(n) if v not in inside)
        if len(members) == 1:
            v = members[0]
            if cut.ell != inst.degrees[v]:
                raise Contradiction(
                    f"cut on single vertex {v} demands {cut.ell} but its degree is {inst.degrees[v]}")
            continue
        first = kept.setdefault(members, cut)
        if first is not cut:
            if first.ell != cut.ell:
                raise Contradiction(
                    f"cut set {members} demanded with two different sizes {first.ell} and {cut.ell}")
            continue
        yield cut if members is cut.members else CutConstraint(members, cut.ell)


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, frozenset(itertools.combinations(range(n), 2)))


# ---------------------------------------------------------------------------
# Canonical JSON documents.
#
# Instance: {"version": 1, "degrees": [...], "cuts": [{"set": [...], "ell": k}, ...]}
# Graph:    {"n": int, "edges": [[i, j], ...]} with i < j, sorted lexicographically.
# ---------------------------------------------------------------------------

def instance_to_json(inst: GrcInstance) -> dict:
    return {
        "version": 1,
        "degrees": list(inst.degrees),
        "cuts": [{"set": list(c.members), "ell": c.ell} for c in inst.cuts],
    }


def instance_from_json(doc) -> GrcInstance:
    """The instance a document describes; every entry is checked exactly once.

    A cut entry that is a dict whose "set" is two plain ints u < v inside
    0..n-1, with n > 2, and whose "ell" is a plain natural int, is proved
    canonical here and built with ``_pair_cut``.  Any other entry goes through
    the ``CutConstraint`` constructor, and only those cuts are then checked
    against n, after the degrees, as ``GrcInstance`` would check them; the
    result is the same instance, or the same error, that the public
    constructors give.
    """
    if not isinstance(doc, dict):
        raise InvalidInstanceError("instance document must be a JSON object")
    version = doc.get("version", 1)
    if not isinstance(version, int) or isinstance(version, bool) or version != 1:
        raise InvalidInstanceError(f"unsupported instance document version {version!r}")
    degrees = doc.get("degrees")
    if not isinstance(degrees, list) or not all(isinstance(d, int) and not isinstance(d, bool) for d in degrees):
        raise InvalidInstanceError('"degrees" must be a list of integers')
    raw_cuts = doc.get("cuts", [])
    if not isinstance(raw_cuts, list):
        raise InvalidInstanceError('"cuts" must be a list')
    n = len(degrees)
    pairs_fit = n > 2
    cuts = []
    other_cuts = []
    for item in raw_cuts:
        if type(item) is dict:
            members = item.get("set")
            ell = item.get("ell")
            if type(members) is list and len(members) == 2 and type(ell) is int and ell >= 0:
                u, v = members
                if type(u) is int and type(v) is int and 0 <= u < v < n and pairs_fit:
                    cuts.append(_pair_cut(u, v, ell))
                    continue
        if not isinstance(item, dict) or "set" not in item or "ell" not in item:
            raise InvalidInstanceError(f'cut entries need "set" and "ell": {item!r}')
        members = item["set"]
        if not isinstance(members, list) or not all(isinstance(v, int) and not isinstance(v, bool) for v in members):
            raise InvalidInstanceError(f'cut "set" must be a list of integers: {members!r}')
        if not isinstance(item["ell"], int) or isinstance(item["ell"], bool):
            raise InvalidInstanceError(f'cut "ell" must be an integer: {item["ell"]!r}')
        cut = CutConstraint(tuple(members), item["ell"])
        other_cuts.append(cut)
        cuts.append(cut)
    inst = _checked_instance(tuple(degrees), tuple(cuts))
    _check_cuts_fit(other_cuts, n)
    return inst


def graph_to_json(g: SimpleGraph) -> dict:
    return {"n": g.vertex_count, "edges": [list(e) for e in g.sorted_edges()]}


def graph_from_json(doc) -> SimpleGraph:
    if not isinstance(doc, dict) or "n" not in doc:
        raise InvalidInstanceError('graph document must be an object with "n" and "edges"')
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InvalidInstanceError(f'"n" must be a nonnegative integer: {n!r}')
    raw = doc.get("edges", [])
    if not isinstance(raw, list):
        raise InvalidInstanceError('"edges" must be a list of pairs')
    edges = set()
    for item in raw:
        if (not isinstance(item, list) or len(item) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)):
            raise InvalidInstanceError(f"edge entries must be integer pairs: {item!r}")
        pair = (min(item), max(item))
        if pair in edges:
            raise InvalidInstanceError(f"edge {list(pair)} is listed twice")
        edges.add(pair)
    return SimpleGraph(n, frozenset(edges))
