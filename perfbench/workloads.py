"""Seeded instance streams and the operation each workload times.

A workload is an endless stream of rounds.  Every round holds the same shapes
in the same order, so each run attempts the same mix however long it lasts,
and a round's instances are drawn from one ``random.Random`` seeded by the
workload name and the run's seed.  Instances are checked for repeats within
a stream, so no run solves one instance twice.

An operation starts from an instance's JSON document, as ``grc solve`` does
once the interpreter is up: ``instance_from_json`` -> ``solve`` ->
``graph_to_json`` of the witness.  Encoding operations first build that
document with the program's own generators and decode the witness after.
Only program calls happen inside an operation; generation and checks run
outside the timed region.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field

import checks


@dataclass
class Item:
    """One instance to decide, with the answer the benchmark derived itself."""

    shape: str
    expect: bool
    doc: dict | None = None              # instance document (dense-match, sparse-pairs)
    source: dict = field(default_factory=dict)  # source problem (encodings)


@dataclass
class Result:
    status: str
    method: str | None
    doc: dict                      # the instance document the program decided
    witness: dict | None = None    # graph document of the witness
    decoded: tuple | None = None   # assignment or triples read off the witness


# ---------------------------------------------------------------------------
# Generators.  Sizes are set so that every shape in a workload costs about
# the same, which keeps the per-operation latency distribution in one cluster
# (a median sitting between two clusters jumps from run to run).
# ---------------------------------------------------------------------------

def _pair_cut(u, v, ell):
    return {"set": [u, v], "ell": ell} if u < v else {"set": [v, u], "ell": ell}


def _degrees(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def planted(rng, n=26, m=46, forced_share=0.2, forbidden_share=0.3):
    """Planted graph; some of its edges forced, some of its non-edges forbidden."""
    edges = set(rng.sample(list(itertools.combinations(range(n), 2)), m))
    deg = _degrees(n, edges)
    cuts = []
    for u, v in itertools.combinations(range(n), 2):
        if (u, v) in edges:
            if rng.random() < forced_share:
                cuts.append(_pair_cut(u, v, deg[u] + deg[v] - 2))
        elif rng.random() < forbidden_share:
            cuts.append(_pair_cut(u, v, deg[u] + deg[v]))
    return Item("planted", True, {"version": 1, "degrees": deg, "cuts": cuts})


def bipartite_no(rng, n=48, m=96):
    """Both sides forbidden inside; degrees pushed until Gale-Ryser fails."""
    half = n // 2
    edges = set(rng.sample([(u, v) for u in range(half) for v in range(half, n)], m))
    deg = _degrees(n, edges)
    while checks.gale_ryser(deg[:half], deg[half:]):
        give = rng.choice([v for v in range(half) if deg[v] > 0])
        take = max((v for v in range(half) if v != give and deg[v] < n - half),
                   key=lambda v: (deg[v], -v))
        deg[give] -= 1
        deg[take] += 1
    cuts = [_pair_cut(u, v, deg[u] + deg[v])
            for side in (range(half), range(half, n))
            for u, v in itertools.combinations(side, 2)]
    return Item("bipartite-no", False, {"version": 1, "degrees": deg, "cuts": cuts})


def forced_heavy(rng, n=40):
    """All degrees 1 and a perfect matching forced by disjoint l=0 pair cuts."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = [_pair_cut(order[i], order[i + 1], 0) for i in range(0, n, 2)]
    cuts.sort(key=lambda c: c["set"])
    return Item("forced-heavy", True, {"version": 1, "degrees": [1] * n, "cuts": cuts})


def degree_only(rng, n=24, p=0.5, graphic=True):
    """Degree sequence of a random graph, or one moved off it until
    Erdos-Gallai fails (the degree sum, so the matching expansion, is kept)."""
    deg = _degrees(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
    if not graphic:
        while checks.erdos_gallai(deg):
            give = rng.choice([v for v in range(n) if deg[v] > 0])
            take = max((v for v in range(n) if v != give and deg[v] < n - 1),
                       key=lambda v: (deg[v], -v))
            deg[give] -= 1
            deg[take] += 1
    shape = "degree-only" if graphic else "degree-only-no"
    return Item(shape, graphic, {"version": 1, "degrees": deg, "cuts": []})


def _forbid_outside(n, allowed, deg):
    return [_pair_cut(u, v, deg[u] + deg[v])
            for u, v in itertools.combinations(range(n), 2) if (u, v) not in allowed]


def forest(rng, n=96, drop=9, forced=4):
    """Sparse forest possibility graph stated by explicit forbidden pairs;
    half of its edges planted."""
    perm = list(range(n))
    rng.shuffle(perm)
    tree = [(min(e), max(e)) for e in ((perm[i], perm[rng.randrange(i)]) for i in range(1, n))]
    allowed = set(rng.sample(tree, len(tree) - drop))
    planted_edges = rng.sample(sorted(allowed), len(allowed) // 2)
    deg = _degrees(n, planted_edges)
    cuts = _forbid_outside(n, allowed, deg)
    for u, v in rng.sample(planted_edges, forced):
        cuts.append(_pair_cut(u, v, deg[u] + deg[v] - 2))
    return Item("forest", True, {"version": 1, "degrees": deg, "cuts": cuts})


def guarded(rng, n=40, triples=8, extra=80):
    """Disjoint size-3 cuts whose internal pairs are free, on a sparse
    possibility graph stated by explicit forbidden pairs."""
    verts = rng.sample(range(n), 3 * triples)
    sets = [tuple(sorted(verts[3 * i:3 * i + 3])) for i in range(triples)]
    allowed = {p for s in sets for p in itertools.combinations(s, 2)}
    others = [p for p in itertools.combinations(range(n), 2) if p not in allowed]
    extra_edges = rng.sample(others, extra)
    allowed.update(extra_edges)
    planted_edges = extra_edges[:extra // 2]
    # Mostly one or two internal edges, the cases that add helper vertices;
    # a fixed mix keeps the rewrite's work alike from instance to instance.
    counts = [(0, 1, 1, 1, 2, 2, 2, 3)[i % 8] for i in range(triples)]
    rng.shuffle(counts)
    for s, count in zip(sets, counts):
        planted_edges.extend(rng.sample(list(itertools.combinations(s, 2)), count))
    deg = _degrees(n, planted_edges)
    cuts = _forbid_outside(n, allowed, deg)
    for s in sets:
        ell = sum(deg[v] for v in s) - 2 * sum(1 for e in planted_edges if e[0] in s and e[1] in s)
        cuts.append({"set": list(s), "ell": ell})
    return Item("guarded", True, {"version": 1, "degrees": deg, "cuts": cuts})


def planted_formula(rng, variables=9, clauses=4):
    """All-positive clauses of three variables with a planted exactly-one
    assignment; every variable occurs at least once."""
    while True:
        truth = [rng.random() < 0.35 for _ in range(variables)]
        true_vars = [i + 1 for i, t in enumerate(truth) if t]
        false_vars = [i + 1 for i, t in enumerate(truth) if not t]
        if not true_vars or len(false_vars) < 2:
            continue
        out = [tuple(sorted([rng.choice(true_vars), *rng.sample(false_vars, 2)]))
               for _ in range(clauses)]
        if len({v for c in out for v in c}) == variables and len(set(out)) == clauses:
            return out


def sat_items(rng, variables=9, clauses=4, per_formula=3):
    """One planted formula, encoded with one true-count that some
    exactly-one assignment reaches and with unreachable ones."""
    formula = planted_formula(rng, variables, clauses)
    weights = [sum(1 for c in formula for v in c if v == i + 1) for i in range(variables)]
    yes_counts = checks.exactly_one_counts(variables, formula, weights)
    total_vars = sum(weights)
    # The encoding has 4 vertices per variable and 3 per clause, all of degree
    # 1, and a collector of degree total_vars - k.  A k that makes the degree
    # sum odd fails the screen at once, so only the other parity is drawn.
    clause_count = clauses + sum(w if w >= 2 else 1 for w in weights)
    parity = (4 * total_vars + 3 * clause_count + total_vars) % 2
    valid = [k for k in range(total_vars + 1) if k % 2 == parity]
    ks = [rng.choice(sorted(yes_counts))]
    ks += rng.sample([k for k in valid if k not in yes_counts], per_formula - 1)
    src = {"variables": variables, "clauses": formula, "weights": weights}
    return [Item("sat13", k in yes_counts, source=dict(src, k=k)) for k in ks]


def tdm_item(rng, n=12, extra=10, solvable=True):
    """Triple system with occurrence bound 3, with or without a perfect matching."""
    while True:
        triples = set()
        if solvable:
            ys, zs = list(range(n)), list(range(n))
            rng.shuffle(ys)
            rng.shuffle(zs)
            triples.update(zip(range(n), ys, zs))
        target = len(triples) + extra if solvable else n + extra
        counts = [[0] * n for _ in range(3)]
        for t in triples:
            for axis in range(3):
                counts[axis][t[axis]] += 1
        tries = 0
        while len(triples) < target and tries < 1000:
            tries += 1
            t = tuple(rng.randrange(n) for _ in range(3))
            if t in triples or any(counts[a][t[a]] >= 3 for a in range(3)):
                continue
            triples.add(t)
            for axis in range(3):
                counts[axis][t[axis]] += 1
        triples = sorted(triples)
        if checks.has_perfect_triple_matching(n, triples) == solvable:
            shape = "3dm" if solvable else "3dm-no"
            return Item(shape, solvable, source={"n": n, "triples": triples})


def _dense_round(rng):
    return [planted(rng), bipartite_no(rng), forced_heavy(rng),
            degree_only(rng), degree_only(rng, graphic=False)]


def _sparse_round(rng):
    # Two shapes of near-equal cost, half and half, put the median in the gap
    # between their clusters; two to one puts it inside the larger one.
    return [forest(rng), guarded(rng), guarded(rng)]


def _encodings_round(rng):
    return [*sat_items(rng), tdm_item(rng), tdm_item(rng, n=14, extra=12, solvable=False)]


ROUNDS = {
    "dense-match": _dense_round,
    "sparse-pairs": _sparse_round,
    "encodings": _encodings_round,
}


def _fingerprint(item: Item) -> str:
    body = json.dumps([item.doc, item.source], sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


class Stream:
    """Rounds of distinct instances for one workload and seed."""

    def __init__(self, workload: str, seed: int):
        self.make_round = ROUNDS[workload]
        self.rng = random.Random(f"{workload}:{seed}")
        self.seen: set[str] = set()

    def next_round(self) -> list[Item]:
        while True:
            items = self.make_round(self.rng)
            prints = [_fingerprint(item) for item in items]
            if len(set(prints)) == len(prints) and self.seen.isdisjoint(prints):
                self.seen.update(prints)
                return items


# ---------------------------------------------------------------------------
# Operations.  ``grc`` is passed in and every call goes through its
# attributes, so the tracer can wrap them.
# ---------------------------------------------------------------------------

def _decide(grc, doc) -> tuple:
    inst = grc.instance_from_json(doc)
    out = grc.solve(inst)
    witness = None if out.witness is None else grc.graph_to_json(out.witness)
    return out, witness


def run(grc, item: Item) -> Result:
    """The timed operation for one instance."""
    if item.doc is not None:
        out, witness = _decide(grc, item.doc)
        return Result(out.status.value, out.method, item.doc, witness)
    src = item.source
    if item.shape == "sat13":
        formula = grc.OneInThreeInstance(src["variables"], tuple(map(tuple, src["clauses"])))
        inst, gmap = grc.sat_to_grc(grc.monotone_to_21(formula), src["k"])
        decode = grc.decode_sat_witness
    else:
        system = grc.ThreeDMInstance(src["n"], tuple(map(tuple, src["triples"])))
        inst, gmap = grc.tdm_to_grc(system)
        decode = grc.decode_tdm_witness
    doc = grc.instance_to_json(inst)
    out, witness = _decide(grc, doc)
    decoded = None if out.witness is None else decode(out.witness, gmap)
    return Result(out.status.value, out.method, doc, witness, decoded)


def problems(item: Item, result: Result) -> list[str]:
    """Why ``result`` is not a right answer for ``item``; empty when it is."""
    if result.status == "realizable":
        if not item.expect:
            return [f"{item.shape}: answered yes where the benchmark's check says no"]
        found = checks.witness_problems(result.doc, result.witness)
        src = item.source
        if item.shape == "sat13":
            found += checks.assignment_problems(
                src["variables"], src["clauses"], src["weights"], src["k"], result.decoded)
        elif item.shape in ("3dm", "3dm-no"):
            found += checks.matching_problems(src["n"], src["triples"], result.decoded)
        return found
    if result.status == "infeasible":
        return [f"{item.shape}: answered no where the benchmark's check says yes"] if item.expect else []
    return [f"{item.shape}: not decided ({result.status})"]
