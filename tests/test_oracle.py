import random

import pytest

from grc import (
    CutConstraint,
    GrcInstance,
    InvalidInstanceError,
    OneInThreeInstance,
    Status,
    ThreeDMInstance,
    enumerate_realizations,
    oracle_solve,
    sat_brute,
    solve,
    tdm_brute,
    verify_realization,
)
from tests.bruteforce import brute_realizations, random_instance


class TestOracleSolve:
    def test_single_edge(self):
        out = oracle_solve(GrcInstance((1, 1)))
        assert out.is_realizable and out.witness.edges == frozenset({(0, 1)})

    def test_guard_instance(self):
        inst = GrcInstance((1, 1, 0, 0),
                           (CutConstraint((0, 1, 2), 0), CutConstraint((0, 1, 3), 0)))
        out = oracle_solve(inst)
        assert out.is_realizable and out.witness.edges == frozenset({(0, 1)})

    def test_triangle_cut_too_large(self):
        out = oracle_solve(GrcInstance((2, 2, 2), (CutConstraint((0, 1), 4),)))
        assert out.status is Status.INFEASIBLE

    def test_budget_exhaustion(self):
        out = oracle_solve(GrcInstance((1, 1, 1, 1)), node_budget=2)
        assert out.status is Status.RESOURCE_LIMIT

    def test_handles_fixed_pairs_directly(self):
        inst = GrcInstance((2, 1, 1), (CutConstraint((0, 1), 1),))
        out = oracle_solve(inst)
        assert out.is_realizable and (0, 1) in out.witness.edges

    def test_exhaustive_against_subset_enumeration(self):
        rng = random.Random(808)
        for _ in range(250):
            inst = random_instance(rng, n_max=5)
            out = oracle_solve(inst)
            assert out.is_realizable == bool(brute_realizations(inst, cap=1)), inst
            if out.is_realizable:
                assert verify_realization(out.witness, inst).ok

    def test_pruning_soundness(self):
        rng = random.Random(909)
        for _ in range(150):
            inst = random_instance(rng, n_max=6)
            pruned = oracle_solve(inst)
            plain = oracle_solve(inst, prune=False)
            assert pruned.status == plain.status, inst

    @pytest.mark.parametrize("n", [46, 60])
    def test_deep_search_is_not_bounded_by_recursion(self, n):
        # more undecided pairs than Python's default recursion limit
        inst = GrcInstance((1,) * n, (CutConstraint((0, 1, 2, 3), 4),))
        out = solve(inst)
        assert out.method == "oracle" and out.is_realizable
        assert verify_realization(out.witness, inst).ok

    def test_deterministic_witness(self):
        inst = GrcInstance((1, 1, 1, 1))
        assert oracle_solve(inst).witness == oracle_solve(inst).witness


class TestEnumerate:
    def test_perfect_matchings_of_k4(self):
        out = enumerate_realizations(GrcInstance((1, 1, 1, 1)), 10)
        assert len(out) == 3

    def test_unique_triangle(self):
        out = enumerate_realizations(GrcInstance((2, 2, 2)), 10)
        assert len(out) == 1

    def test_infeasible_empty(self):
        assert enumerate_realizations(GrcInstance((1, 1, 1)), 10) == []

    def test_matches_subset_enumeration(self):
        rng = random.Random(4321)
        for _ in range(80):
            inst = random_instance(rng, n_max=5)
            mine = enumerate_realizations(inst, 10_000)
            brute = brute_realizations(inst)
            assert len(mine) == len(brute)
            assert {g.edges for g in mine} == {g.edges for g in brute}

    def test_cap_respected(self):
        out = enumerate_realizations(GrcInstance((1, 1, 1, 1)), 2)
        assert len(out) == 2

    def test_sorted_by_edge_set(self):
        out = enumerate_realizations(GrcInstance((1, 1, 1, 1)), 10)
        keys = [tuple(sorted(g.edges)) for g in out]
        assert keys == sorted(keys)


class TestSatBrute:
    def test_fig2_formula(self):
        f = OneInThreeInstance(4, ((-1, 3), (1, 2, 4), (1, -4), (-2, -3), (2, 3, 4)))
        assert sat_brute(f, 1) == (False, True, False, False)

    def test_tautology_pair(self):
        f = OneInThreeInstance(1, ((1, -1),))
        assert sat_brute(f, 0) is not None
        assert sat_brute(f, 1) is not None

    def test_two_true_violates(self):
        f = OneInThreeInstance(2, ((1, 2),))
        assert sat_brute(f, 2) is None

    def test_empty_formula(self):
        assert sat_brute(OneInThreeInstance(0, ()), 0) == ()

    def test_independent_reeval(self):
        rng = random.Random(6)
        from tests.bruteforce import random_21_formula
        for _ in range(30):
            f = random_21_formula(rng, rng.randint(2, 6))
            got = sat_brute(f)
            if got is None:
                continue
            for clause in f.clauses:
                hits = sum(1 for lit in clause if got[abs(lit) - 1] == (lit > 0))
                assert hits == 1


class TestTdmBrute:
    def test_fig3_triples(self):
        t = ThreeDMInstance(3, ((0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0), (2, 1, 1), (2, 2, 2)))
        assert tdm_brute(t) == ((0, 1, 1), (1, 0, 0), (2, 2, 2))

    def test_too_few_triples(self):
        assert tdm_brute(ThreeDMInstance(2, ((0, 0, 0),))) is None

    def test_single(self):
        assert tdm_brute(ThreeDMInstance(1, ((0, 0, 0),))) == ((0, 0, 0),)

    def test_solution_is_disjoint_cover(self):
        rng = random.Random(77)
        from tests.bruteforce import random_3dm
        for _ in range(60):
            t = random_3dm(rng)
            m = tdm_brute(t)
            if m is None:
                continue
            assert len(m) == t.n
            for axis in range(3):
                assert sorted(tr[axis] for tr in m) == list(range(t.n))


class TestTypes:
    def test_clause_size_enforced(self):
        with pytest.raises(ValueError):
            OneInThreeInstance(2, ((1,),))
        with pytest.raises(ValueError):
            OneInThreeInstance(2, ((1, 2, 1, 2),))

    def test_literal_range(self):
        with pytest.raises(ValueError):
            OneInThreeInstance(1, ((1, 2),))
        with pytest.raises(ValueError):
            OneInThreeInstance(1, ((0, 1),))

    def test_triple_range(self):
        with pytest.raises(ValueError):
            ThreeDMInstance(1, ((0, 0, 1),))

    def test_negative_sizes(self):
        with pytest.raises(ValueError, match="^variable count must be nonnegative$"):
            OneInThreeInstance(-1, ())
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            ThreeDMInstance(-1, ())


def test_source_problems_refuse_non_integers():
    # values are never truncated or coerced: floats, strings and bools raise
    for n, triples in ((True, ()), (2.0, ()), (2, ((0, 0, 0), (1, 1, 1.5))),
                       (2, ((0, 0, 0), (1, "1", 1))), (2, ((0, 0, 0), (1, 1, True)))):
        with pytest.raises(InvalidInstanceError, match="must be an integer"):
            ThreeDMInstance(n, triples)
    for count, clauses in ((3.9, ((1, 2, 3),)), (True, ((1, -1),)), (3, ((1, 2.0, 3),)),
                           (3, ((1, "2", 3),)), (3, ((1, True, 3),))):
        with pytest.raises(InvalidInstanceError, match="must be an integer"):
            OneInThreeInstance(count, clauses)
    assert ThreeDMInstance(2, ((0, 1, 1),)).triples == ((0, 1, 1),)
    assert OneInThreeInstance(3, ((1, -2, 3),)).clauses == ((1, -2, 3),)
