"""Instance generators for the hard regimes, with decode maps.

Three constructions:

* ``monotone_to_21`` rewrites an all-positive exactly-one formula so that
  every variable occurs twice positive and once negative, preserving
  exactly-one satisfiability via chains of two-literal equivalence clauses.

* ``sat_to_grc`` encodes such a formula plus a true-count budget k as a
  width-4 instance: four degree-1 vertices per variable with a cut of size 2,
  three per clause with a cut of size 1, a collector vertex of degree
  n_vars - k wired to every variable's second "false" vertex (or that many
  degree-1 copies of it), and explicit pair cuts forbidding everything else.

* ``tdm_to_grc`` encodes a triple system with occurrence bound 3 as an
  all-degree-1 instance of width <= 6 whose possibility graph is bipartite
  and subcubic: one vertex per first/third-coordinate element, a chain pair
  per occurrence of a middle element, and a cut of size 2 per middle element
  forcing exactly one occurrence to reach outward.

Vertex numbering is deterministic and recorded in the returned map, which
also carries the generated instance so decoders are self-contained.  The
decoders read the map's vertex blocks; ``to_json`` is the form ``grc gen
--map`` writes, and the one place a vertex's role is spelled out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import (CutConstraint, GrcInstance, SimpleGraph, _checked_instance, _integer,
                    _pair_cut, verify_realization)
from .oracle import OneInThreeInstance, ThreeDMInstance


def two_one_violations(f: OneInThreeInstance) -> list[str]:
    """Why ``f`` is not in the two-positive/one-negative occurrence form."""
    pos = [0] * f.variable_count
    neg = [0] * f.variable_count
    for clause in f.clauses:
        for lit in clause:
            if lit > 0:
                pos[lit - 1] += 1
            else:
                neg[-lit - 1] += 1
    out = []
    for i in range(f.variable_count):
        if (pos[i], neg[i]) != (2, 1):
            out.append(f"variable {i + 1} occurs {pos[i]}x positive / {neg[i]}x negative")
    return out


def monotone_to_21(f: OneInThreeInstance) -> OneInThreeInstance:
    """Rewrite an all-positive formula into the (2,1) occurrence form.

    A variable with t >= 2 occurrences gains t-1 chained clones: clauses
    (x v ~a1), (a1 v ~a2), ..., (a_{t-1} v ~x) force them all equal under
    exactly-one semantics, and occurrences after the first are renamed to the
    clones.  A variable occurring once gains the always-exactly-one clause
    (x v ~x).  Exactly-one satisfiability is preserved.
    """
    occurrences: list[list[tuple[int, int]]] = [[] for _ in range(f.variable_count)]
    for j, clause in enumerate(f.clauses):
        for slot, lit in enumerate(clause):
            if lit < 0:
                raise ValueError(f"literal {lit} is negative; input must be all-positive")
            occurrences[lit - 1].append((j, slot))
    for i, occ in enumerate(occurrences):
        if not occ:
            raise ValueError(f"variable {i + 1} never occurs; give every variable at least one occurrence")
    new_clauses = [list(clause) for clause in f.clauses]
    next_var = f.variable_count
    for x, occ in enumerate(occurrences):
        t = len(occ)
        if t == 1:
            new_clauses.append([x + 1, -(x + 1)])
            continue
        clones = list(range(next_var, next_var + t - 1))
        next_var += t - 1
        for which, (j, slot) in enumerate(occ[1:]):
            new_clauses[j][slot] = clones[which] + 1
        chain = [x] + clones
        for a, b in zip(chain, chain[1:]):
            new_clauses.append([a + 1, -(b + 1)])
        new_clauses.append([chain[-1] + 1, -(x + 1)])
    return OneInThreeInstance(next_var, tuple(tuple(c) for c in new_clauses))


def _forbid_the_rest(degrees: tuple[int, ...], blocks: list[CutConstraint],
                     allowed: list[tuple[int, int]]) -> GrcInstance:
    """``blocks`` followed by a cut of size d_u + d_v, which forbids the edge,
    on every ascending pair outside ``allowed`` (pairs in either order).

    Each block lies inside the vertex range and has fewer members than it, and
    each generated pair is two ascending ints with a natural size, so with
    three or more vertices every cut is built once and not checked again.
    Below three a pair is the whole vertex set, which ``GrcInstance`` rejects.
    """
    total = len(degrees)
    allowed = {(a, b) if a < b else (b, a) for a, b in allowed}
    pairs = [_pair_cut(u, v, degrees[u] + degrees[v])
             for u, v in itertools.combinations(range(total), 2) if (u, v) not in allowed]
    if total < 3:
        return GrcInstance(degrees, (*blocks, *pairs))
    return _checked_instance(degrees, (*blocks, *pairs))


@dataclass(frozen=True)
class SatGadgetMap:
    """The vertex blocks of a sat_to_grc instance, with the formula and budget."""

    formula: OneInThreeInstance
    k: int
    all_ones: bool
    instance: GrcInstance
    var_blocks: tuple[tuple[int, int, int, int], ...]  # (T1, T2, F1, F2) per variable
    clause_blocks: tuple[tuple[int, int, int], ...]
    clause_literals: tuple[tuple[int | None, int | None, int | None], ...]  # None = artificial
    sink_vertices: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "all_ones": self.all_ones,
            "variables": [
                {"index": i, "T1": b[0], "T2": b[1], "F1": b[2], "F2": b[3]}
                for i, b in enumerate(self.var_blocks)
            ],
            "clauses": [
                {"index": j, "vertices": list(b),
                 "literals": [lit for lit in self.clause_literals[j]]}
                for j, b in enumerate(self.clause_blocks)
            ],
            "sinks": list(self.sink_vertices),
        }


def sat_to_grc(f: OneInThreeInstance, k: int, all_ones: bool = False):
    """Width-4 instance realizable iff ``f`` has an exactly-one assignment with
    exactly ``k`` true variables.  Returns (instance, map)."""
    problems = two_one_violations(f)
    if problems:
        raise ValueError("formula is not in (2,1) occurrence form: " + "; ".join(problems))
    k = _integer(k, "k")
    if not 0 <= k <= f.variable_count:
        raise ValueError(f"k={k} out of range 0..{f.variable_count}")
    nv = f.variable_count
    var_blocks = tuple((4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3) for i in range(nv))
    base = 4 * nv
    clause_blocks = []
    clause_literals = []
    for clause in f.clauses:
        clause_blocks.append((base, base + 1, base + 2))
        base += 3
        lits = tuple(clause) + (None,) * (3 - len(clause))
        clause_literals.append(lits)
    sink_count = 1 if not all_ones else nv - k
    sinks = tuple(range(base, base + sink_count))
    base += sink_count
    total = base
    if total == 0:
        raise ValueError("empty formula with all_ones and k = 0 yields no vertices")
    degrees = [1] * total
    if not all_ones:
        degrees[sinks[0]] = nv - k

    allowed = []
    for t1, t2, f1, f2 in var_blocks:
        allowed += [(t1, t2), (f1, f2)]
    for block in clause_blocks:
        allowed.extend(itertools.combinations(block, 2))
    positives_seen = [0] * nv
    for j, lits in enumerate(clause_literals):
        for slot, lit in enumerate(lits):
            if lit is None:
                continue
            var = abs(lit) - 1
            clause_vertex = clause_blocks[j][slot]
            if lit > 0:
                allowed.append((var_blocks[var][positives_seen[var]], clause_vertex))
                positives_seen[var] += 1
            else:
                allowed.append((var_blocks[var][2], clause_vertex))
    allowed.extend((block[3], s) for s in sinks for block in var_blocks)

    blocks = [CutConstraint(block, 2) for block in var_blocks]
    blocks.extend(CutConstraint(block, 1) for block in clause_blocks)
    inst = _forbid_the_rest(tuple(degrees), blocks, allowed)
    gm = SatGadgetMap(f, k, all_ones, inst, var_blocks, tuple(clause_blocks),
                      tuple(clause_literals), sinks)
    return inst, gm


def _check_exactly_one(f: OneInThreeInstance, assignment, k: int | None) -> None:
    for clause in f.clauses:
        hits = sum(1 for lit in clause if assignment[abs(lit) - 1] == (lit > 0))
        if hits != 1:
            raise RuntimeError(f"decoded assignment gives clause {clause} {hits} true literals")
    if k is not None and sum(assignment) != k:
        raise RuntimeError(f"decoded assignment has {sum(assignment)} true variables, expected {k}")


def decode_sat_witness(g: SimpleGraph, gm: SatGadgetMap) -> tuple[bool, ...]:
    """Assignment read off a realization: a variable is true iff its two
    "true" vertices are matched outside their block."""
    report = verify_realization(g, gm.instance)
    if not report.ok:
        raise ValueError("graph does not realize the generated instance: " + report.violations[0])
    assignment = []
    for block in gm.var_blocks:
        t1, t2 = block[0], block[1]
        inside = set(block)
        t1_out = any(w not in inside for w in g.neighbors(t1))
        t2_out = any(w not in inside for w in g.neighbors(t2))
        if t1_out != t2_out:
            raise RuntimeError(f"variable block {block} is inconsistently matched")
        assignment.append(t1_out)
    _check_exactly_one(gm.formula, assignment, gm.k)
    return tuple(assignment)


@dataclass(frozen=True)
class TdmGadgetMap:
    """The vertex blocks of a tdm_to_grc instance, with the triple system."""

    source: ThreeDMInstance
    instance: GrcInstance
    x_vertices: tuple[int, ...]
    z_vertices: tuple[int, ...]
    y_blocks: tuple[tuple[tuple[int, int], ...], ...]  # per middle element, (a, b) per occurrence
    occurrence_triples: tuple[tuple[int, ...], ...]    # per middle element, triple indices

    def to_json(self) -> dict:
        return {
            "x": list(self.x_vertices),
            "z": list(self.z_vertices),
            "y": [
                {"element": j,
                 "occurrences": [{"triple": t, "a": a, "b": b}
                                 for t, (a, b) in zip(self.occurrence_triples[j], block)]}
                for j, block in enumerate(self.y_blocks)
            ],
        }


def tdm_to_grc(t: ThreeDMInstance):
    """All-degree-1 instance of width <= 6, realizable iff the triple system
    has a perfect matching.  Possibility graph is bipartite and subcubic."""
    for axis, name in ((0, "first"), (1, "middle"), (2, "last")):
        counts = [0] * t.n
        for triple in t.triples:
            counts[triple[axis]] += 1
        for elem, c in enumerate(counts):
            if c > 3:
                raise ValueError(f"{name}-coordinate element {elem} occurs in {c} triples (bound is 3)")
    n = t.n
    x_vertices = tuple(range(n))
    base = n
    y_blocks = []
    occurrence_triples = []
    for j in range(n):
        occs = tuple(idx for idx, triple in enumerate(t.triples) if triple[1] == j)
        pairs = []
        for _ in occs:
            pairs.append((base, base + 1))
            base += 2
        y_blocks.append(tuple(pairs))
        occurrence_triples.append(occs)
    z_vertices = tuple(range(base, base + n))
    base += n
    total = base
    degrees = (1,) * total

    allowed = []
    for j in range(n):
        for (a, b), idx in zip(y_blocks[j], occurrence_triples[j]):
            xi, _, zk = t.triples[idx]
            allowed += [(x_vertices[xi], a), (a, b), (b, z_vertices[zk])]

    blocks = []
    for j in range(n):
        block = tuple(v for pair in y_blocks[j] for v in pair)
        if block:
            blocks.append(CutConstraint(block, 2))
    inst = _forbid_the_rest(degrees, blocks, allowed)
    gm = TdmGadgetMap(t, inst, x_vertices, z_vertices, tuple(y_blocks),
                      tuple(occurrence_triples))
    return inst, gm


def decode_tdm_witness(g: SimpleGraph, gm: TdmGadgetMap):
    """Triples whose chain pair reaches outward in the realization: the
    occurrence whose first vertex is matched into the first-coordinate side
    and second vertex into the last-coordinate side."""
    report = verify_realization(g, gm.instance)
    if not report.ok:
        raise ValueError("graph does not realize the generated instance: " + report.violations[0])
    t = gm.source
    x_set = set(gm.x_vertices)
    z_set = set(gm.z_vertices)
    chosen: list[tuple[int, int, int]] = []
    for j, block in enumerate(gm.y_blocks):
        hits = []
        for (a, b), idx in zip(block, gm.occurrence_triples[j]):
            a_out = any(w in x_set for w in g.neighbors(a))
            b_out = any(w in z_set for w in g.neighbors(b))
            if a_out != b_out:
                raise RuntimeError(f"occurrence pair ({a},{b}) is inconsistently matched")
            if a_out:
                hits.append(idx)
        if len(hits) != 1:
            raise RuntimeError(f"middle element {j} has {len(hits)} outward occurrences, expected 1")
        chosen.append(t.triples[hits[0]])
    used_x = [triple[0] for triple in chosen]
    used_z = [triple[2] for triple in chosen]
    if sorted(used_x) != list(range(t.n)) or sorted(used_z) != list(range(t.n)):
        raise RuntimeError("decoded triples do not cover the outer sides exactly once")
    return tuple(sorted(chosen))


def solve_21_by_k_sweep(f: OneInThreeInstance, decide) -> bool:
    """Exactly-one satisfiability via a sweep of the true-count budget:
    ``decide(f, k)`` for every k from 0 to the variable count."""
    problems = two_one_violations(f)
    if problems:
        raise ValueError("formula is not in (2,1) occurrence form: " + "; ".join(problems))
    return any(decide(f, k) for k in range(f.variable_count + 1))
