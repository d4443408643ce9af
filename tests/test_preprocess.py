import itertools
import random

import pytest

from grc import (
    Contradiction,
    CutConstraint,
    GrcInstance,
    build_pair_ledger,
    eliminate_fixed_edges,
    feasible_ell_set,
    lift_realization,
    possibility_graph,
    screen_instance,
    trace_from_json,
    trace_to_json,
    verify_realization,
)
from grc.preprocess import Case3Gadget, Case4Gadget, FixedEdgeEliminated
from tests.bruteforce import brute_realizable, brute_realizations, random_instance


class TestFeasibleEllSet:
    def test_three_vertices_degree_two(self):
        inst = GrcInstance((2, 2, 2, 0, 0, 0, 0))
        assert feasible_ell_set(inst, {0, 1, 2}) == {6, 4, 2, 0}

    def test_pair(self):
        inst = GrcInstance((1, 1, 0))
        assert feasible_ell_set(inst, {0, 1}) == {2, 0}

    def test_negative_values_excluded(self):
        inst = GrcInstance((0, 0, 0, 0))
        assert feasible_ell_set(inst, {0, 1, 2}) == {0}

    def test_invalid_set(self):
        with pytest.raises(ValueError):
            feasible_ell_set(GrcInstance((1, 1)), set())


class TestScreen:
    def test_odd_sum(self):
        with pytest.raises(Contradiction, match="odd"):
            screen_instance(GrcInstance((1, 1, 1)))

    def test_parity_of_cut(self):
        inst = GrcInstance((2, 2, 2, 0, 0, 0, 0), (CutConstraint((0, 1, 2), 5),))
        with pytest.raises(Contradiction, match="attainable"):
            screen_instance(inst)

    def test_degree_too_large(self):
        with pytest.raises(Contradiction, match="partners"):
            screen_instance(GrcInstance((3, 1, 1)))

    def test_star_passes(self):
        screen_instance(GrcInstance((3, 1, 1, 1)))

    def test_cut_test_is_membership_in_feasible_ell_set(self):
        # exhaustive: n <= 5, one cut of size 2 or 3, every degree vector with
        # d <= n - 1 and every demand up to two past the set's degree sum.  An
        # odd degree sum is refused before any cut is read.
        for n in range(3, 6):
            for degrees in itertools.product(range(n), repeat=n):
                base = GrcInstance(degrees)
                if sum(degrees) % 2:
                    with pytest.raises(Contradiction, match="odd"):
                        screen_instance(GrcInstance(degrees, (CutConstraint((0, 1), 0),)))
                    continue
                for k in (2, 3):
                    for s in itertools.combinations(range(n), k) if k < n else ():
                        attainable = feasible_ell_set(base, s)
                        for ell in range(sum(degrees[v] for v in s) + 3):
                            try:
                                screen_instance(GrcInstance(degrees, (CutConstraint(s, ell),)))
                            except Contradiction:
                                raised = True
                            else:
                                raised = False
                            assert raised == (ell not in attainable), (degrees, s, ell)


class TestPairLedger:
    def test_fixed(self):
        inst = GrcInstance((1, 1, 0), (CutConstraint((0, 1), 0),))
        ledger = build_pair_ledger(inst)
        assert ledger.status(0, 1) == "fixed"
        assert ledger.status(1, 0) == "fixed"

    def test_forbidden(self):
        inst = GrcInstance((1, 1, 0), (CutConstraint((0, 1), 2),))
        assert build_pair_ledger(inst).status(0, 1) == "forbidden"

    def test_conflict(self):
        inst = GrcInstance((2, 2, 0), (CutConstraint((0, 1), 2), CutConstraint((0, 1), 4)))
        with pytest.raises(Contradiction, match="both"):
            build_pair_ledger(inst)

    def test_invalid_ell(self):
        inst = GrcInstance((2, 2, 0), (CutConstraint((0, 1), 3),))
        with pytest.raises(Contradiction, match="attainable"):
            build_pair_ledger(inst)

    def test_free_default(self):
        assert build_pair_ledger(GrcInstance((1, 1))).status(0, 1) == "free"


class TestEliminateFixedEdges:
    def test_single_fixed_pair(self):
        inst = GrcInstance((1, 1, 0), (CutConstraint((0, 1), 0),))
        reduced, trace = eliminate_fixed_edges(inst)
        assert reduced.degrees == (0, 0, 0)
        assert reduced.cuts == (CutConstraint((0, 1), 0),)
        assert build_pair_ledger(reduced).status(0, 1) == "forbidden"
        assert trace == (FixedEdgeEliminated(0, 1),)

    def test_identity_without_fixed(self):
        inst = GrcInstance((1, 1), ())
        reduced, trace = eliminate_fixed_edges(inst)
        assert reduced == inst and trace == ()

    def test_degree_would_go_negative(self):
        inst = GrcInstance((0, 2, 0), (CutConstraint((0, 1), 0),))
        with pytest.raises(Contradiction, match="below zero"):
            eliminate_fixed_edges(inst)

    def test_crossing_pair_cut_stays_classified(self):
        # forced (0,1) shares vertex 0 with the excluded pair (0,2)
        inst = GrcInstance((2, 1, 1, 2),
                           (CutConstraint((0, 1), 1), CutConstraint((0, 2), 3)))
        reduced, trace = eliminate_fixed_edges(inst)
        assert trace == (FixedEdgeEliminated(0, 1),)
        assert reduced.degrees == (1, 0, 1, 2)
        ledger = build_pair_ledger(reduced)
        assert ledger.status(0, 1) == "forbidden"
        assert ledger.status(0, 2) == "forbidden"

    def test_crossing_size3_cut_adjusted(self):
        # forced edge (0,3) crosses the cut {0,1,2}: its demand drops by one
        inst = GrcInstance((1, 1, 1, 1),
                           (CutConstraint((0, 3), 0), CutConstraint((0, 1, 2), 1)))
        reduced, _ = eliminate_fixed_edges(inst)
        size3 = [c for c in reduced.cuts if len(c.members) == 3]
        assert size3 == [CutConstraint((0, 1, 2), 0)]

    def test_internal_size3_cut_untouched(self):
        inst = GrcInstance((1, 1, 0, 0),
                           (CutConstraint((0, 1), 0), CutConstraint((0, 1, 2), 0)))
        reduced, _ = eliminate_fixed_edges(inst)
        size3 = [c for c in reduced.cuts if len(c.members) == 3]
        assert size3 == [CutConstraint((0, 1, 2), 0)]

    def test_chained_elimination(self):
        # both pairs are fixed from the start (for (1,2): ell = d_1 + d_2 - 2 = 1);
        # eliminating (0,1) first leaves (1,2) fixed under the new degrees
        inst = GrcInstance((1, 2, 1),
                           (CutConstraint((0, 1), 1), CutConstraint((1, 2), 1)))
        reduced, trace = eliminate_fixed_edges(inst)
        assert [(r.u, r.v) for r in trace] == [(0, 1), (1, 2)]
        assert reduced.degrees == (0, 0, 0)

    def test_preserves_realizability_exactly(self):
        rng = random.Random(2024)
        checked = 0
        for _ in range(300):
            inst = random_instance(rng, n_max=6)
            try:
                reduced, trace = eliminate_fixed_edges(inst)
            except Contradiction:
                assert not brute_realizable(inst)
                continue
            assert brute_realizable(inst) == brute_realizable(reduced)
            checked += 1
            for g in brute_realizations(reduced, cap=3):
                lifted = lift_realization(trace, g)
                assert verify_realization(lifted, inst).ok
        assert checked > 100


class TestPossibilityGraph:
    def test_k3_minus_edge(self):
        inst = GrcInstance((1, 1, 2), (CutConstraint((0, 1), 2),))
        pg = possibility_graph(inst)
        assert pg.edges == frozenset({(0, 2), (1, 2)})

    def test_k4_when_free(self):
        assert len(possibility_graph(GrcInstance((1, 1, 1, 1))).edges) == 6

    def test_requires_elimination_first(self):
        inst = GrcInstance((1, 1, 0), (CutConstraint((0, 1), 0),))
        with pytest.raises(ValueError, match="eliminate_fixed_edges"):
            possibility_graph(inst)

    def test_supergraph_of_every_witness(self):
        rng = random.Random(5)
        for _ in range(120):
            inst = random_instance(rng, n_max=5)
            try:
                reduced, _ = eliminate_fixed_edges(inst)
            except Contradiction:
                continue
            pg = possibility_graph(reduced)
            for g in brute_realizations(reduced, cap=4):
                assert g.edges <= pg.edges


class TestTraceJson:
    def test_round_trip(self):
        trace = (FixedEdgeEliminated(0, 1), Case3Gadget((0, 1, 2), 5),
                 Case4Gadget((1, 2, 3), 6, 7))
        assert trace_from_json(trace_to_json(trace)) == trace

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            trace_from_json([{"kind": "mystery"}])
