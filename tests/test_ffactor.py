import itertools
import random

import pytest

from grc import (
    CutConstraint,
    GrcInstance,
    SimpleGraph,
    complete_graph,
    max_matching,
    oracle_solve,
    solve_f_factor,
    solve_width2,
    tutte_gadget,
    verify_realization,
)
from tests.bruteforce import (
    achievable_degree_vectors,
    all_graphs,
    brute_max_matching_size,
    brute_realizable,
    random_width2_instance,
)


def random_graph(rng, n, p=0.5):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return SimpleGraph(n, frozenset(edges))


class TestMaxMatching:
    def test_even_cycle_perfect(self):
        c4 = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert len(max_matching(c4)) == 2

    def test_odd_cycle(self):
        c5 = SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert len(max_matching(c5)) == 2

    def test_matching_is_valid(self):
        rng = random.Random(3)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 9))
            m = max_matching(g)
            seen = set()
            for u, v in m:
                assert g.has_edge(u, v)
                assert u not in seen and v not in seen
                seen.update((u, v))

    def test_blossom_case(self):
        # triangle with a pendant path: needs odd-cycle handling to reach size 2
        g = SimpleGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        assert len(max_matching(g)) == 2

    def test_exhaustive_small(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                assert len(max_matching(g)) == brute_max_matching_size(g)

    def test_random_against_brute(self):
        rng = random.Random(42)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 10), rng.choice((0.2, 0.5, 0.8)))
            assert len(max_matching(g)) == brute_max_matching_size(g)

    def test_deterministic(self):
        g = complete_graph(6)
        assert max_matching(g) == max_matching(g)


class TestTutteGadget:
    def test_k2_all_ones(self):
        gadget = tutte_gadget(SimpleGraph(2, [(0, 1)]), (1, 1))
        assert gadget.graph.vertex_count == 2
        assert len(gadget.graph.edges) == 1

    def test_path_middle_two(self):
        path = SimpleGraph(3, [(0, 1), (1, 2)])
        gadget = tutte_gadget(path, (1, 2, 1))
        m = max_matching(gadget.graph)
        assert 2 * len(m) == gadget.graph.vertex_count

    def test_triangle_all_ones_no_perfect_matching(self):
        gadget = tutte_gadget(complete_graph(3), (1, 1, 1))
        m = max_matching(gadget.graph)
        assert 2 * len(m) != gadget.graph.vertex_count

    def test_target_above_degree(self):
        assert tutte_gadget(SimpleGraph(2, [(0, 1)]), (2, 1)) is None

    def test_wrong_target_length(self):
        with pytest.raises(ValueError):
            tutte_gadget(SimpleGraph(2, [(0, 1)]), (1,))


class TestSolveFFactor:
    def test_triangle_itself(self):
        tri = complete_graph(3)
        assert solve_f_factor(tri, (2, 2, 2)) == tri

    def test_k4_perfect_matching(self):
        factor = solve_f_factor(complete_graph(4), (1, 1, 1, 1))
        assert factor.degree_sequence() == (1, 1, 1, 1)

    def test_zero_targets_isolated(self):
        factor = solve_f_factor(SimpleGraph(3, [(0, 1)]), (0, 0, 0))
        assert factor.edges == frozenset()

    @pytest.mark.parametrize("targets", [(1.9, 1.2), (True, True), ("1", 1)])
    def test_targets_are_never_truncated(self, targets):
        edge = SimpleGraph(2, [(0, 1)])
        with pytest.raises(ValueError, match="degree target must be an integer"):
            solve_f_factor(edge, targets)
        with pytest.raises(ValueError, match="degree target must be an integer"):
            tutte_gadget(edge, targets)

    def test_exhaustive_hosts_up_to_4(self):
        for n in range(1, 5):
            for host in all_graphs(n):
                achievable = achievable_degree_vectors(host)
                degs = host.degree_sequence()
                for f in itertools.product(*(range(d + 1) for d in degs)):
                    factor = solve_f_factor(host, f)
                    assert (factor is not None) == (tuple(f) in achievable), (host, f)
                    if factor is not None:
                        assert factor.degree_sequence() == tuple(f)
                        assert factor.edges <= host.edges

    def test_random_hosts(self):
        rng = random.Random(7)
        for _ in range(150):
            host = random_graph(rng, rng.randint(1, 8))
            degs = host.degree_sequence()
            f = tuple(rng.randint(0, d) for d in degs)
            factor = solve_f_factor(host, f)
            assert (factor is not None) == (f in achievable_degree_vectors(host))


class TestSolveWidth2:
    def test_single_edge(self):
        out = solve_width2(GrcInstance((1, 1)))
        assert out.is_realizable
        assert out.witness.edges == frozenset({(0, 1)})

    def test_forced_structure(self):
        inst = GrcInstance((1, 1, 1, 1),
                           (CutConstraint((0, 1), 2), CutConstraint((2, 3), 2)))
        out = solve_width2(inst)
        assert out.is_realizable
        assert out.witness.edges in (frozenset({(0, 2), (1, 3)}), frozenset({(0, 3), (1, 2)}))

    def test_rejects_width3(self):
        inst = GrcInstance((2, 2, 2, 2, 2, 2), (CutConstraint((0, 1, 2), 4),))
        with pytest.raises(ValueError, match="^solve_width2 needs all cut sets of size <= 2$"):
            solve_width2(inst)

    def test_triangle_unique_realization_blocked(self):
        out = solve_width2(GrcInstance((2, 2, 2), (CutConstraint((0, 1), 4),)))
        assert not out.is_realizable

    def test_fixed_edges_lifted_back(self):
        inst = GrcInstance((2, 1, 1), (CutConstraint((0, 1), 1),))
        out = solve_width2(inst)
        assert out.is_realizable
        assert (0, 1) in out.witness.edges
        assert verify_realization(out.witness, inst).ok

    def test_random_agreement_with_brute(self):
        rng = random.Random(13)
        for _ in range(300):
            inst = random_width2_instance(rng, n_max=6)
            out = solve_width2(inst)
            assert out.is_realizable == brute_realizable(inst), inst
            if out.is_realizable:
                assert verify_realization(out.witness, inst).ok

    def test_agreement_with_oracle(self):
        rng = random.Random(14)
        for _ in range(200):
            inst = random_width2_instance(rng, n_max=7)
            out = solve_width2(inst)
            assert out.is_realizable == oracle_solve(inst).is_realizable, inst


class TestAgainstNetworkx:
    def test_matching_cardinality(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(61)
        graphs = [random_graph(rng, rng.randint(2, 60), rng.choice((0.03, 0.08, 0.3)))
                  for _ in range(40)]
        for _ in range(40):
            host = random_graph(rng, rng.randint(3, 8))
            f = [rng.randint(0, d) for d in host.degree_sequence()]
            graphs.append(tutte_gadget(host, f).graph)
        for g in graphs:
            ref = nx.Graph()
            ref.add_nodes_from(range(g.vertex_count))
            ref.add_edges_from(g.edges)
            assert len(max_matching(g)) == len(nx.max_weight_matching(ref, maxcardinality=True))

