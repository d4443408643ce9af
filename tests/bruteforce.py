"""Independent reference implementations and random generators for the tests.

Everything here re-derives answers from first principles (raw subset
enumeration, token packing) so the library code is checked against logic that
shares none of its machinery.  The one exception, ``differential_sweep``, runs
the library's two deciders against each other and checks their witnesses
with ``satisfies``.
"""

from __future__ import annotations

import itertools
from collections import Counter

from grc import (CutConstraint, GrcInstance, OneInThreeInstance, SimpleGraph, ThreeDMInstance,
                 oracle_solve, solve)


def all_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield SimpleGraph(n, frozenset(p for i, p in enumerate(pairs) if bits >> i & 1))


def satisfies(inst: GrcInstance, g: SimpleGraph) -> bool:
    degs = [0] * inst.vertex_count
    for u, v in g.edges:
        degs[u] += 1
        degs[v] += 1
    if tuple(degs) != inst.degrees:
        return False
    for cut in inst.cuts:
        inside = set(cut.members)
        crossing = sum(1 for u, v in g.edges if (u in inside) != (v in inside))
        if crossing != cut.ell:
            return False
    return True


def brute_realizations(inst: GrcInstance, cap: int | None = None) -> list[SimpleGraph]:
    """Every realization, in the subset order of ``all_graphs``; at most ``cap``.

    Subset ``bits`` picks pair i when bit i is set.  Each vertex and each cut
    gets the mask of the pairs it counts (incident, crossing); ``bits`` meets
    a target when its intersection with the mask has that many bits, and only
    the subsets meeting every target are built as graphs.
    """
    n = inst.vertex_count
    pairs = list(itertools.combinations(range(n), 2))
    targets = [(sum(1 << i for i, p in enumerate(pairs) if v in p), d)
               for v, d in enumerate(inst.degrees)]
    for cut in inst.cuts:
        inside = set(cut.members)
        mask = sum(1 << i for i, (u, v) in enumerate(pairs) if (u in inside) != (v in inside))
        targets.append((mask, cut.ell))
    out = []
    for bits in range(1 << len(pairs)):
        if all((bits & mask).bit_count() == count for mask, count in targets):
            out.append(SimpleGraph(n, frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)))
            if cap is not None and len(out) >= cap:
                break
    return out


def brute_realizable(inst: GrcInstance) -> bool:
    return bool(brute_realizations(inst, cap=1))


def brute_max_matching_size(g: SimpleGraph) -> int:
    edges = sorted(g.edges)

    def grow(idx: int, used: set[int]) -> int:
        best = 0
        for i in range(idx, len(edges)):
            u, v = edges[i]
            if u in used or v in used:
                continue
            best = max(best, 1 + grow(i + 1, used | {u, v}))
        return best

    return grow(0, set())


def achievable_degree_vectors(host: SimpleGraph) -> set[tuple[int, ...]]:
    edges = sorted(host.edges)
    out = set()
    for bits in range(1 << len(edges)):
        degs = [0] * host.vertex_count
        for i, (u, v) in enumerate(edges):
            if bits >> i & 1:
                degs[u] += 1
                degs[v] += 1
        out.add(tuple(degs))
    return out


# ---------------------------------------------------------------------------
# Random generators (all driven by a caller-supplied random.Random)
# ---------------------------------------------------------------------------

def random_instance(rng, n_max=7, deg_max=3, max_cuts=4, width_max=3, feasible_bias=0.85):
    n = rng.randint(2, n_max)
    degrees = tuple(rng.randint(0, min(deg_max, n - 1)) for _ in range(n))
    cuts = []
    for _ in range(rng.randint(0, max_cuts)):
        size = rng.randint(1, min(width_max, n - 1))
        members = tuple(sorted(rng.sample(range(n), size)))
        ds = sum(degrees[v] for v in members)
        if rng.random() < feasible_bias:
            options = [ds - 2 * k for k in range(size * (size - 1) // 2 + 1) if ds - 2 * k >= 0]
            ell = rng.choice(options) if options else 0
        else:
            ell = rng.randint(0, ds + 2)
        cuts.append(CutConstraint(members, ell))
    return GrcInstance(degrees, tuple(cuts))


def random_width2_instance(rng, n_max=7):
    n = rng.randint(2, n_max)
    degrees = tuple(rng.randint(0, n - 1) for _ in range(n))
    # a pair is a proper subset only when n >= 3
    pairs = list(itertools.combinations(range(n), 2)) if n >= 3 else []
    rng.shuffle(pairs)
    cuts = []
    for u, v in pairs[: rng.randint(0, min(5, len(pairs)))]:
        ds = degrees[u] + degrees[v]
        if ds >= 2 and rng.random() < 0.5:
            cuts.append(CutConstraint((u, v), ds - 2))  # force the edge
        else:
            cuts.append(CutConstraint((u, v), ds))  # exclude the edge
    return GrcInstance(degrees, tuple(cuts))


def random_width3_instance(rng, n=6):
    degrees = tuple(rng.randint(0, 3) for _ in range(n))
    cuts = []
    for _ in range(rng.randint(1, 2)):
        members = tuple(sorted(rng.sample(range(n), 3)))
        ds = sum(degrees[v] for v in members)
        options = [ds - 2 * k for k in range(4) if ds - 2 * k >= 0]
        cuts.append(CutConstraint(members, rng.choice(options) if options else 0))
    for _ in range(rng.randint(0, 2)):
        u, v = sorted(rng.sample(range(n), 2))
        ds = degrees[u] + degrees[v]
        if ds >= 2 and rng.random() < 0.5:
            cuts.append(CutConstraint((u, v), ds - 2))
        else:
            cuts.append(CutConstraint((u, v), ds))
    return GrcInstance(degrees, tuple(cuts))


def planted_instance(g: SimpleGraph, sets) -> GrcInstance:
    """The degrees of ``g``, with each set in ``sets`` demanding the cut size
    it has in ``g``."""
    cuts = []
    for s in sets:
        inside = set(s)
        cuts.append(CutConstraint(s, sum(1 for u, v in g.edges if (u in inside) != (v in inside))))
    return GrcInstance(g.degree_sequence(), tuple(cuts))


def random_planted_instance(rng):
    """A G(n, 1/2) graph on 6 to 8 vertices with 1 to 3 random triples, plus a
    random pair on half of the instances, each demanding its cut size in the
    graph; on 30% of the cuts that size is then moved by 2 either way (never
    below 0), so some instances are infeasible."""
    n = rng.randint(6, 8)
    edges = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    sets = [tuple(sorted(rng.sample(range(n), 3))) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        sets.append(tuple(sorted(rng.sample(range(n), 2))))
    inst = planted_instance(SimpleGraph(n, edges), sets)
    cuts = tuple(CutConstraint(c.members, max(0, c.ell + rng.choice((-2, 2))))
                 if rng.random() < 0.3 else c for c in inst.cuts)
    return GrcInstance(inst.degrees, cuts)


def differential_sweep(instances, planted: bool = False) -> Counter:
    """Solve each instance with ``solve`` and with ``oracle_solve``; assert that
    they agree on status, that every witness satisfies the instance and, for
    ``planted`` instances, that there is one.  Returns how often each
    ``solve`` method (route) ran."""
    routes: Counter = Counter()
    for inst in instances:
        out, ref = solve(inst), oracle_solve(inst)
        assert out.status == ref.status, (inst, out, ref)
        assert out.is_realizable or not planted, (inst, out)
        for witness in (out.witness, ref.witness):
            assert witness is None or satisfies(inst, witness), (inst, witness)
        routes[out.method] += 1
    return routes


def random_tree_edges(rng, n) -> list[tuple[int, int]]:
    return [(rng.randrange(i), i) for i in range(1, n)]


def random_tree_instance(rng, n_max=10, extra_cuts=True):
    """Instance whose possibility graph is a random labeled tree.

    Degrees are sampled from a random subgraph of the tree half the time (so
    realizable cases are common) and uniformly otherwise.
    """
    n = rng.randint(2, n_max)
    tree = set(random_tree_edges(rng, n))
    if rng.random() < 0.5:
        degrees = [0] * n
        for u, v in tree:
            if rng.random() < 0.6:
                degrees[u] += 1
                degrees[v] += 1
        degrees = tuple(degrees)
    else:
        degrees = tuple(rng.randint(0, min(3, n - 1)) for _ in range(n))
    cuts = [CutConstraint((u, v), degrees[u] + degrees[v])
            for u, v in itertools.combinations(range(n), 2) if (u, v) not in tree]
    if extra_cuts and n >= 3:
        for _ in range(rng.randint(0, 3)):
            size = rng.randint(2, min(4, n - 1))
            members = tuple(sorted(rng.sample(range(n), size)))
            ds = sum(degrees[v] for v in members)
            options = [ds - 2 * k for k in range(size * (size - 1) // 2 + 1) if ds - 2 * k >= 0]
            ell = rng.choice(options) if options and rng.random() < 0.8 else rng.randint(0, ds + 1)
            cuts.append(CutConstraint(members, ell))
    return GrcInstance(degrees, tuple(cuts))


def random_positive_formula(rng, max_vars=5):
    nv = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, 5)):
        size = rng.randint(2, min(3, nv)) if nv >= 2 else 2
        if nv < size:
            size = nv
        if size < 2:
            clauses.append((1, 1))  # degenerate, still two literals
            continue
        clauses.append(tuple(v + 1 for v in sorted(rng.sample(range(nv), size))))
    # every variable must occur at least once for the occurrence transform
    used = {abs(l) for c in clauses for l in c}
    for v in range(1, nv + 1):
        if v not in used:
            other = v % nv + 1
            if other == v:
                other = max(1, v - 1)
            if other == v:
                clauses.append((v, v))
            else:
                clauses.append(tuple(sorted((v, other))))
    return OneInThreeInstance(nv, tuple(clauses))


def random_21_formula(rng, nv):
    """Formula where each variable occurs twice positive, once negative."""
    for _ in range(1000):
        tokens = []
        for v in range(nv):
            tokens += [v + 1, v + 1, -(v + 1)]
        rng.shuffle(tokens)
        clauses = []
        ok = True
        i = 0
        while i < len(tokens):
            rem = len(tokens) - i
            if rem == 4:
                size = 2
            elif rem in (2, 3):
                size = rem
            else:
                size = rng.choice((2, 3))
            group = tokens[i:i + size]
            if len({abs(l) for l in group}) != size:
                ok = False
                break
            clauses.append(tuple(group))
            i += size
        if ok and clauses:
            return OneInThreeInstance(nv, tuple(clauses))
    raise RuntimeError(f"could not pack a (2,1) formula on {nv} variables")


def random_3dm(rng, n_max=3):
    n = rng.randint(1, n_max)
    candidates = list(itertools.product(range(n), repeat=3))
    rng.shuffle(candidates)
    counts = [[0] * n for _ in range(3)]
    triples = []
    for t in candidates:
        if len(triples) >= rng.randint(n, 3 * n):
            break
        if all(counts[axis][t[axis]] < 3 for axis in range(3)):
            triples.append(t)
            for axis in range(3):
                counts[axis][t[axis]] += 1
    return ThreeDMInstance(n, tuple(triples))
