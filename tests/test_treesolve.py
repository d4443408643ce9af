import itertools
import random

import pytest

from grc import (
    CutConstraint,
    GrcInstance,
    SimpleGraph,
    enumerate_realizations,
    is_forest,
    oracle_solve,
    solve_tree,
    verify_realization,
)
from tests.bruteforce import brute_realizable, random_tree_edges, random_tree_instance


def path_graph(n):
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def tree_instance(n, tree_edges, degrees, extra=()):
    tree = {tuple(sorted(e)) for e in tree_edges}
    cuts = [CutConstraint((u, v), degrees[u] + degrees[v])
            for u, v in itertools.combinations(range(n), 2) if (u, v) not in tree]
    return GrcInstance(tuple(degrees), tuple(cuts) + tuple(extra))


class TestTreePredicates:
    def test_path_is_tree(self):
        assert is_forest(path_graph(4))

    def test_cycle_is_not(self):
        c4 = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert not is_forest(c4)

    def test_disjoint_edges_forest_not_tree(self):
        assert is_forest(SimpleGraph(4, [(0, 1), (2, 3)]))

    def test_single_vertex(self):
        assert is_forest(SimpleGraph(1))


class TestSolveTree:
    def test_path_realized(self):
        inst = tree_instance(3, [(0, 1), (1, 2)], (1, 2, 1))
        out = solve_tree(inst)
        assert out.is_realizable
        assert out.witness.edges == frozenset({(0, 1), (1, 2)})

    def test_path_infeasible_middle_leftover(self):
        inst = tree_instance(3, [(0, 1), (1, 2)], (1, 1, 1))
        assert not solve_tree(inst).is_realizable

    def test_star_with_cut(self):
        # possibility graph is the star centered at 0; the extra cut holds
        inst = tree_instance(4, [(0, 1), (0, 2), (0, 3)], (3, 1, 1, 1),
                             extra=(CutConstraint((1, 2), 2),))
        out = solve_tree(inst)
        assert out.is_realizable
        assert out.witness.edges == frozenset({(0, 1), (0, 2), (0, 3)})

    def test_candidate_failing_cut_is_infeasible(self):
        # unique subgraph exists but the size-3 cut wants the impossible
        inst = tree_instance(4, [(0, 1), (0, 2), (0, 3)], (3, 1, 1, 1),
                             extra=(CutConstraint((0, 1, 2), 0),))
        assert not solve_tree(inst).is_realizable

    def test_forest_components(self):
        inst = tree_instance(4, [(0, 1), (2, 3)], (1, 1, 1, 1))
        out = solve_tree(inst)
        assert out.is_realizable
        assert out.witness.edges == frozenset({(0, 1), (2, 3)})

    def test_rejects_non_forest(self):
        with pytest.raises(ValueError):
            solve_tree(GrcInstance((1, 1, 1, 1)))  # possibility graph is K4


def test_uniqueness_on_random_trees():
    rng = random.Random(123)
    for _ in range(150):
        n = rng.randint(2, 10)
        edges = random_tree_edges(rng, n)
        degrees = [0] * n
        for u, v in edges:
            if rng.random() < 0.5:
                degrees[u] += 1
                degrees[v] += 1
        inst = tree_instance(n, edges, tuple(degrees))
        assert len(enumerate_realizations(inst, 3)) <= 1


def test_agreement_with_oracle_random():
    rng = random.Random(321)
    for _ in range(250):
        inst = random_tree_instance(rng, n_max=9)
        out = solve_tree(inst)
        want = oracle_solve(inst)
        assert out.is_realizable == want.is_realizable, inst
        if out.is_realizable:
            assert verify_realization(out.witness, inst).ok


def test_agreement_with_brute_small():
    rng = random.Random(555)
    for _ in range(120):
        inst = random_tree_instance(rng, n_max=6)
        assert solve_tree(inst).is_realizable == brute_realizable(inst), inst
