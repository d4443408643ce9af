import random

import pytest

from grc import (
    Contradiction,
    CutConstraint,
    GrcInstance,
    Size3Case,
    SimpleGraph,
    UnsafeReduction,
    apply_case1,
    apply_case2,
    apply_case3,
    apply_case4,
    build_pair_ledger,
    classify_case,
    eliminate_fixed_edges,
    gadget_safe,
    lift_realization,
    normalize,
    oracle_solve,
    reduce_to_width2,
    screen_instance,
    verify_realization,
    width,
)
from grc import reduce3
from grc.preprocess import Case1Forbid, Case2Fix, Case3Gadget, Case4Gadget, FixedEdgeEliminated
from tests.bruteforce import (brute_realizable, planted_instance, random_overlapping_triples_instance,
                              random_planted_instance, random_width3_instance, reduce_one_at_a_time)


def cut3(members, ell):
    return CutConstraint(tuple(members), ell)


# Embeddings of the four single-cut shapes: S = {0,1,2} with degree 2 each,
# halo vertices absorbing the outward edges.
CASE_INSTANCES = {
    Size3Case.CASE1: GrcInstance((2, 2, 2, 2, 2, 2), (cut3((0, 1, 2), 6),)),
    Size3Case.CASE2: GrcInstance((2, 2, 2, 2, 2, 2), (cut3((0, 1, 2), 0),)),
    Size3Case.CASE3: GrcInstance((2, 2, 2, 2, 2, 0), (cut3((0, 1, 2), 4),)),
    Size3Case.CASE4: GrcInstance((2, 2, 2, 1, 1, 0), (cut3((0, 1, 2), 2),)),
}


class TestClassify:
    def test_all_four(self):
        for case, inst in CASE_INSTANCES.items():
            assert classify_case(inst, inst.cuts[0]) is case

    def test_rejects_other_sizes(self):
        inst = GrcInstance((1, 1, 0, 0), (CutConstraint((0, 1), 2),))
        with pytest.raises(ValueError):
            classify_case(inst, inst.cuts[0])

    def test_rejects_unscreened_difference(self):
        inst = GrcInstance((2, 2, 2, 0, 0, 0), (cut3((0, 1, 2), 5),))
        with pytest.raises(ValueError, match="screen"):
            classify_case(inst, inst.cuts[0])


class TestApplyCases:
    def test_case1_forbids_internal_pairs(self):
        inst = CASE_INSTANCES[Size3Case.CASE1]
        out, record = apply_case1(inst, inst.cuts[0])
        ledger = build_pair_ledger(out)
        assert all(ledger.status(u, v) == "forbidden" for u, v in [(0, 1), (0, 2), (1, 2)])
        assert record.s == (0, 1, 2)
        assert width(out) == 2

    def test_case1_idempotent_on_existing_forbid(self):
        inst = GrcInstance((2, 2, 2, 2, 2, 2),
                           (cut3((0, 1, 2), 6), CutConstraint((0, 1), 4)))
        out, _ = apply_case1(inst, inst.cuts[0])
        assert sum(1 for c in out.cuts if c.members == (0, 1)) == 1

    def test_case1_conflicts_with_fixed_pair(self):
        inst = GrcInstance((2, 2, 2, 2, 2, 2),
                           (cut3((0, 1, 2), 6), CutConstraint((0, 1), 2)))
        out, _ = apply_case1(inst, inst.cuts[0])
        with pytest.raises(Contradiction):
            build_pair_ledger(out)

    def test_case2_fixes_internal_pairs(self):
        inst = CASE_INSTANCES[Size3Case.CASE2]
        out, record = apply_case2(inst, inst.cuts[0])
        ledger = build_pair_ledger(out)
        assert all(ledger.status(u, v) == "fixed" for u, v in [(0, 1), (0, 2), (1, 2)])
        assert record.s == (0, 1, 2)

    def test_case2_fix_below_zero_raises(self):
        # forcing (0,1) would demand cut size -1: impossible outright
        inst = GrcInstance((0, 1, 5, 0, 0, 0), (cut3((0, 1, 2), 0),))
        with pytest.raises(Contradiction):
            apply_case2(inst, inst.cuts[0])

    def test_case2_infeasible_surfaces_at_elimination(self):
        # ell = d(S) - 6 = 0 but vertex 0 has degree 0: the forced edges
        # clash once elimination decrements the degrees
        inst = GrcInstance((0, 3, 3, 3, 3, 0, 0), (cut3((0, 1, 2), 0),))
        out, _ = apply_case2(inst, inst.cuts[0])
        with pytest.raises(Contradiction):
            eliminate_fixed_edges(out)

    def test_case3_structure(self):
        inst = CASE_INSTANCES[Size3Case.CASE3]
        out, record = apply_case3(inst, inst.cuts[0])
        assert isinstance(record, Case3Gadget)
        assert out.vertex_count == 7 and out.degrees[6] == 2
        ledger = build_pair_ledger(out)
        for z in (3, 4, 5):
            assert ledger.status(z, 6) == "forbidden"
        assert all(ledger.status(u, v) == "forbidden" for u, v in [(0, 1), (0, 2), (1, 2)])
        assert width(out) == 2

    def test_case4_structure(self):
        inst = CASE_INSTANCES[Size3Case.CASE4]
        out, record = apply_case4(inst, inst.cuts[0])
        assert isinstance(record, Case4Gadget)
        assert out.vertex_count == 8
        assert out.degrees[6] == 3 and out.degrees[7] == 1
        ledger = build_pair_ledger(out)
        for u in (0, 1, 2):
            assert ledger.status(u, 6) == "fixed"
        for z in (3, 4, 5):
            assert ledger.status(z, 7) == "forbidden"
        assert ledger.status(6, 7) == "forbidden"

    def test_wrong_case_refused(self):
        inst = CASE_INSTANCES[Size3Case.CASE3]
        with pytest.raises(ValueError, match=r"^apply_case1 expects a cut with ell = d\(S\) - 0$"):
            apply_case1(inst, inst.cuts[0])

    def test_unsafe_refused(self):
        inst = GrcInstance((2, 2, 2, 2, 2, 0),
                           (cut3((0, 1, 2), 4), CutConstraint((0, 1), 4)))
        with pytest.raises(UnsafeReduction):
            apply_case3(inst, inst.cuts[0])


class TestGadgetSafe:
    def test_lone_cut_free_pairs(self):
        inst = CASE_INSTANCES[Size3Case.CASE3]
        assert gadget_safe(inst, inst.cuts[0])

    def test_overlapping_size3_cuts(self):
        inst = GrcInstance((1, 1, 0, 0), (cut3((0, 1, 2), 0), cut3((0, 1, 3), 0)))
        assert not gadget_safe(inst, inst.cuts[0])
        assert not gadget_safe(inst, inst.cuts[1])

    def test_constrained_internal_pair(self):
        inst = GrcInstance((1, 1, 0, 0),
                           (cut3((0, 1, 2), 0), CutConstraint((0, 1), 2)))
        assert not gadget_safe(inst, inst.cuts[0])

    def test_naive_gadget_flips_answer(self):
        # infeasible instance: the cut wants one internal edge but (0,1), the
        # only viable one, is excluded
        inst = GrcInstance((1, 1, 0, 0),
                           (cut3((0, 1, 2), 0), CutConstraint((0, 1), 2)))
        assert not brute_realizable(inst)
        reduced, _ = reduce_to_width2(inst, guard=False)
        assert oracle_solve(reduced).is_realizable  # the unguarded rewrite is wrong here


class TestGuardNecessityRegression:
    INSTANCE = GrcInstance((1, 1, 0, 0), (cut3((0, 1, 2), 0), cut3((0, 1, 3), 0)))

    def test_oracle_realizable(self):
        out = oracle_solve(self.INSTANCE)
        assert out.is_realizable
        assert out.witness.edges == frozenset({(0, 1)})

    def test_unguarded_reduction_is_infeasible(self):
        reduced, _ = reduce_to_width2(self.INSTANCE, guard=False)
        assert not oracle_solve(reduced).is_realizable

    def test_guard_refuses(self):
        with pytest.raises(UnsafeReduction) as excinfo:
            reduce_to_width2(self.INSTANCE)
        offenders = excinfo.value.offenders
        assert any(o["set"] == [0, 1, 2] for o in offenders)
        assert any(o["set"] == [0, 1, 3] for o in offenders)


class TestReduceToWidth2:
    def test_case12_only_adds_no_vertices(self):
        inst = GrcInstance((2, 2, 2, 2, 2, 2), (cut3((0, 1, 2), 6),))
        reduced, trace = reduce_to_width2(inst)
        assert reduced.vertex_count == 6
        assert width(reduced) <= 2

    def test_single_cut_equivalence_all_cases(self):
        for case, inst in CASE_INSTANCES.items():
            reduced, trace = reduce_to_width2(inst)
            assert width(reduced) <= 2
            want = brute_realizable(inst)
            got = oracle_solve(reduced)
            assert want == got.is_realizable, case
            if got.is_realizable:
                lifted = lift_realization(trace, got.witness)
                assert verify_realization(lifted, inst).ok

    def test_width4_rejected(self):
        inst = GrcInstance((1,) * 8, (CutConstraint((0, 1, 2, 3), 4),))
        with pytest.raises(ValueError):
            reduce_to_width2(inst)

    def test_every_reduced_witness_lifts(self):
        from grc import enumerate_realizations
        for case, inst in CASE_INSTANCES.items():
            reduced, trace = reduce_to_width2(inst)
            for witness in enumerate_realizations(reduced, 50):
                lifted = lift_realization(trace, witness)
                assert verify_realization(lifted, inst).ok, (case, witness)

    def test_contradiction_after_elimination(self):
        # the forced internal edge (0,1) of a no-internal-edges cut is a genuine clash
        inst = GrcInstance((2, 2, 2, 2, 2, 2),
                           (cut3((0, 1, 2), 6), CutConstraint((0, 1), 2)))
        with pytest.raises(Contradiction, match="after forced-edge elimination"):
            reduce_to_width2(inst)

    def test_random_equivalence_with_guard(self):
        rng = random.Random(31415)
        kept = 0
        while kept < 150:
            inst = random_width3_instance(rng)
            try:
                norm = normalize(inst)
                screen_instance(norm)
                reduced, trace = reduce_to_width2(norm)
            except (Contradiction, UnsafeReduction):
                continue
            kept += 1
            want = brute_realizable(norm)
            got = oracle_solve(reduced)
            assert want == got.is_realizable, inst
            if got.is_realizable:
                lifted = lift_realization(trace, got.witness)
                assert verify_realization(lifted, norm).ok
                assert verify_realization(lifted, inst).ok


def _outcome(reduce, core, guard):
    """What one reduction gives: the Core and trace, or the error with its text,
    offenders and the Core it hands over."""
    try:
        out, trace = reduce(core, guard=guard)
        return "reduced", out, list(out.cuts), trace
    except UnsafeReduction as exc:
        return UnsafeReduction, str(exc), exc.offenders, exc.core, list(exc.core.cuts)
    except Contradiction as exc:
        return Contradiction, str(exc)


class TestRewriteOrder:
    @pytest.mark.parametrize("make, seed", [(random_planted_instance, 5),
                                            (random_overlapping_triples_instance, 9)],
                             ids=["sweep-sample", "overlapping-triples"])
    def test_matches_one_rewrite_per_pass(self, make, seed):
        # helper rewrites after one guard pass give what re-deriving every
        # case and re-running the guard after each rewrite gives
        rng = random.Random(seed)
        seen = set()
        for _ in range(1000):
            try:
                core = screen_instance(make(rng))
            except Contradiction:
                continue
            for guard in (True, False):
                got = _outcome(reduce_to_width2, core, guard)
                assert got == _outcome(reduce_one_at_a_time, core, guard), (core, guard)
                seen.add(got[0])
        assert seen == {"reduced", UnsafeReduction, Contradiction}

    def test_guard_runs_once_per_helper_rewrite(self, monkeypatch):
        # 20 disjoint triples with one or two internal edges (helper cases)
        # and two with none or three (forbid/fix cases), chained by one edge
        triples = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(22)]
        internal = [1 + i % 2 for i in range(20)] + [0, 3]
        edges = [(3 * i, 3 * i + 3) for i in range(21)]
        for s, count in zip(triples, internal):
            edges += [(s[0], s[1]), (s[1], s[2]), (s[0], s[2])][:count]
        core = screen_instance(planted_instance(SimpleGraph(66, edges), triples))
        calls = []
        guard = reduce3._safety_violations
        monkeypatch.setattr(reduce3, "_safety_violations",
                            lambda work, s: calls.append(s) or guard(work, s))
        _, trace = reduce_to_width2(core)
        assert calls == triples[:20]
        rewrites = [r for r in trace if not isinstance(r, FixedEdgeEliminated)]
        assert [type(r) for r in rewrites[:2]] == [Case1Forbid, Case2Fix]
        assert [r.s for r in rewrites[2:]] == triples[:20]


class TestLift:
    def test_empty_trace_identity(self):
        g = SimpleGraph(3, [(0, 1)])
        assert lift_realization((), g) == g

    def test_fixed_edge_record(self):
        g = SimpleGraph(3, [(1, 2)])
        lifted = lift_realization((FixedEdgeEliminated(0, 1),), g)
        assert lifted.edges == frozenset({(0, 1), (1, 2)})

    def test_case3_record_rebuilds_internal_edge(self):
        # helper 3 matched to vertices 1 and 2 stands for the edge (1,2)
        g = SimpleGraph(4, [(1, 3), (2, 3)])
        lifted = lift_realization((Case3Gadget((0, 1, 2), 3),), g)
        assert lifted.vertex_count == 3
        assert lifted.edges == frozenset({(1, 2)})

    def test_case4_record_rebuilds_two_edges(self):
        # x=3 matched onto S, y=4 matched to vertex 1: edges (0,1) and (1,2) return
        g = SimpleGraph(5, [(0, 3), (1, 3), (2, 3), (1, 4)])
        lifted = lift_realization((Case4Gadget((0, 1, 2), 3, 4),), g)
        assert lifted.vertex_count == 3
        assert lifted.edges == frozenset({(0, 1), (1, 2)})

    def test_mismatch_raises(self):
        g = SimpleGraph(4, [(0, 3)])
        with pytest.raises(RuntimeError):
            lift_realization((Case3Gadget((0, 1, 2), 3),), g)

    def test_fig1c_style_full_pipeline(self):
        inst = CASE_INSTANCES[Size3Case.CASE3]
        reduced, trace = reduce_to_width2(inst)
        out = oracle_solve(reduced)
        assert out.is_realizable
        lifted = lift_realization(trace, out.witness)
        report = verify_realization(lifted, inst)
        assert report.ok, report.violations
        # exactly one edge inside S, per ell = d(S) - 2
        internal = [e for e in lifted.edges if set(e) <= {0, 1, 2}]
        assert len(internal) == 1
