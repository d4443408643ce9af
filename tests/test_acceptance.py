"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (zero tolerance); the random suites use fixed seeds.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import functools
import itertools
import random

from grc import (
    Contradiction,
    CutConstraint,
    GrcInstance,
    Status,
    UnsafeReduction,
    enumerate_realizations,
    erdos_gallai,
    havel_hakimi,
    lift_realization,
    max_matching,
    normalize,
    oracle_solve,
    possibility_graph,
    reduce_to_width2,
    sat_brute,
    sat_to_grc,
    screen_instance,
    solve,
    solve_tree,
    solve_width2,
    solve_f_factor,
    tdm_brute,
    tdm_to_grc,
    two_one_violations,
    verify_realization,
    width,
)
from tests.bruteforce import (
    achievable_degree_vectors,
    brute_max_matching_size,
    random_21_formula,
    random_3dm,
    random_instance,
    random_tree_edges,
    random_tree_instance,
    random_width2_instance,
    random_width3_instance,
)
from tests.test_hardness import FIG2, FIG3, bipartite


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number:02d} FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number:02d} PASS - {description}")
        return run
    return wrap


def _pipeline_safe(inst):
    """True when the instance never triggers the unsafe-rewrite refusal."""
    try:
        norm = normalize(inst)
        screen_instance(norm)
    except Contradiction:
        return True  # decided before any rewrite
    if width(norm) != 3:
        return True
    try:
        reduce_to_width2(norm)
    except UnsafeReduction:
        return False
    except Contradiction:
        pass
    return True


@criterion(1, "solve(auto) agrees with the oracle on 1000 random gadget-safe instances")
def test_criterion_01_oracle_agreement():
    rng = random.Random(0xC1)
    kept = 0
    while kept < 1000:
        inst = random_instance(rng, n_max=7, deg_max=3, max_cuts=4, width_max=3)
        if not _pipeline_safe(inst):
            continue
        kept += 1
        got = solve(inst)
        want = oracle_solve(inst)
        assert got.status == want.status, (inst, got, want)
        if got.is_realizable:
            assert verify_realization(got.witness, inst).ok, inst


@criterion(2, "size-3 rewrite preserves realizability on 500 gadget-safe width-3 instances")
def test_criterion_02_reduction_equivalence():
    rng = random.Random(0xC2)
    kept = 0
    while kept < 500:
        inst = random_width3_instance(rng, n=6)
        try:
            norm = normalize(inst)
            screen_instance(norm)
            if width(norm) != 3:
                continue
            reduced, trace = reduce_to_width2(norm)
        except (Contradiction, UnsafeReduction):
            continue
        kept += 1
        original = oracle_solve(norm)
        rewritten = oracle_solve(reduced)
        assert original.status == rewritten.status, inst
        if rewritten.is_realizable:
            lifted = lift_realization(trace, rewritten.witness)
            assert verify_realization(lifted, norm).ok, inst
            assert verify_realization(lifted, inst).ok, inst


@criterion(3, "guard necessity: unguarded rewrite flips the overlapping-cuts instance")
def test_criterion_03_guard_necessity():
    inst = GrcInstance((1, 1, 0, 0),
                       (CutConstraint((0, 1, 2), 0), CutConstraint((0, 1, 3), 0)))
    out = oracle_solve(inst)
    assert out.is_realizable
    assert out.witness.edges == frozenset({(0, 1)})
    reduced, _ = reduce_to_width2(inst, guard=False)
    assert oracle_solve(reduced).status is Status.INFEASIBLE
    try:
        reduce_to_width2(inst)
        raise AssertionError("guard should have refused the overlapping cuts")
    except UnsafeReduction:
        pass


@criterion(4, "degree-exact subgraphs match exhaustive search on all hosts <= 5 "
              "and the matching engine matches brute force on 200 random graphs")
def test_criterion_04_f_factor_correctness():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            host_edges = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
            from grc import SimpleGraph
            host = SimpleGraph(n, host_edges)
            achievable = achievable_degree_vectors(host)
            degs = host.degree_sequence()
            for f in itertools.product(*(range(d + 1) for d in degs)):
                factor = solve_f_factor(host, f)
                assert (factor is not None) == (tuple(f) in achievable), (host, f)
                if factor is not None:
                    assert factor.degree_sequence() == tuple(f)
                    assert factor.edges <= host.edges
    rng = random.Random(0xC4)
    for _ in range(200):
        n = rng.randint(1, 10)
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < rng.choice((0.2, 0.5, 0.8))]
        from grc import SimpleGraph
        g = SimpleGraph(n, frozenset(edges))
        assert len(max_matching(g)) == brute_max_matching_size(g), g


@criterion(5, "width-2 path agrees with the oracle on 1000 random instances")
def test_criterion_05_width2_agreement():
    rng = random.Random(0xC5)
    for _ in range(1000):
        inst = random_width2_instance(rng, n_max=7)
        got = solve_width2(inst)
        want = oracle_solve(inst)
        assert got.status == want.status, inst
        if got.is_realizable:
            assert verify_realization(got.witness, inst).ok, inst


@criterion(6, "exactly-one SAT encoding is sound for 200 formulas and every k; "
              "the 4-variable figure instance and its all-ones variant realize")
def test_criterion_06_sat_encoding():
    rng = random.Random(0xC6)
    for trial in range(200):
        nv = rng.choice((2, 2, 3, 3, 4, 4, 5, 5, 6, 7, 8))
        f = random_21_formula(rng, nv)
        assert not two_one_violations(f)
        for k in range(f.variable_count + 1):
            inst, _ = sat_to_grc(f, k)
            want = sat_brute(f, k) is not None
            got = oracle_solve(inst)
            assert got.status is not Status.RESOURCE_LIMIT
            assert want == got.is_realizable, (f, k)
    inst, _ = sat_to_grc(FIG2, 1)
    assert inst.vertex_count == 32
    assert oracle_solve(inst).is_realizable
    ones, _ = sat_to_grc(FIG2, 1, all_ones=True)
    assert ones.vertex_count == 34 and set(ones.degrees) == {1}
    assert oracle_solve(ones).is_realizable


@criterion(7, "triple-system encoding is sound for 200 instances with the "
              "figure instance realizable and the structural audit passing")
def test_criterion_07_tdm_encoding():
    fig, _ = tdm_to_grc(FIG3)
    assert fig.vertex_count == 18
    assert oracle_solve(fig).is_realizable
    rng = random.Random(0xC7)
    for _ in range(200):
        t = random_3dm(rng, n_max=3)
        inst, _ = tdm_to_grc(t)
        want = tdm_brute(t) is not None
        got = oracle_solve(inst)
        assert want == got.is_realizable, t
        assert width(inst) <= 6
        assert set(inst.degrees) == {1}
        pg = possibility_graph(inst)
        assert bipartite(pg), t
        assert max(pg.degree_sequence(), default=0) <= 3, t


@criterion(8, "occurrence-form transform preserves exactly-one satisfiability "
              "on 200 random positive formulas with exact (2,1) output")
def test_criterion_08_monotone_transform():
    from grc import monotone_to_21
    from tests.bruteforce import random_positive_formula
    rng = random.Random(0xC8)
    for _ in range(200):
        f = random_positive_formula(rng, max_vars=5)
        out = monotone_to_21(f)
        assert not two_one_violations(out), f
        assert all(len(c) in (2, 3) for c in out.clauses)
        assert (sat_brute(f) is not None) == (sat_brute(out) is not None), f


@criterion(9, "constructive realization succeeds exactly when the counting "
              "conditions accept, exhaustively for n <= 8")
def test_criterion_09_classical_baseline():
    for n in range(1, 9):
        for seq in itertools.combinations_with_replacement(range(n), n):
            accepted = erdos_gallai(seq)
            witness = havel_hakimi(seq)
            assert accepted == (witness is not None), seq
            if witness is not None:
                assert witness.degree_sequence() == tuple(seq), seq
    # labeled order is preserved too; the counting test is order-free
    rng = random.Random(0xC9)
    for _ in range(300):
        n = rng.randint(1, 8)
        seq = [rng.randint(0, n - 1) for _ in range(n)]
        witness = havel_hakimi(seq)
        assert erdos_gallai(seq) == (witness is not None), seq
        if witness is not None:
            assert witness.degree_sequence() == tuple(seq), seq


@criterion(10, "the tree route agrees with the oracle on 500 tree-possibility "
               "instances and the unique-subgraph property holds")
def test_criterion_10_tree_solver():
    rng = random.Random(0xCA)
    for _ in range(500):
        inst = random_tree_instance(rng, n_max=10)
        got = solve_tree(inst)
        want = oracle_solve(inst)
        assert got.status == want.status, inst
        if got.is_realizable:
            assert verify_realization(got.witness, inst).ok, inst
    for _ in range(200):
        n = rng.randint(2, 10)
        edges = random_tree_edges(rng, n)
        degrees = [0] * n
        for u, v in edges:
            if rng.random() < 0.5:
                degrees[u] += 1
                degrees[v] += 1
        tree = {tuple(sorted(e)) for e in edges}
        cuts = tuple(CutConstraint((u, v), degrees[u] + degrees[v])
                     for u, v in itertools.combinations(range(n), 2) if (u, v) not in tree)
        inst = GrcInstance(tuple(degrees), cuts)
        assert len(enumerate_realizations(inst, 3)) <= 1, inst
