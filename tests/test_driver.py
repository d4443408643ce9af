import itertools
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grc
from grc import (
    Contradiction,
    CutConstraint,
    GrcInstance,
    MethodNotApplicable,
    SimpleGraph,
    Status,
    UnsafeReduction,
    cut_size,
    normalize,
    reduce_to_width2,
    screen_instance,
    solve,
    verify_realization,
    width,
)
from grc.preprocess import eliminate_fixed_edges, possibility_graph
from grc.treesolve import is_forest
from tests.bruteforce import brute_realizable, random_instance


def test_all_lists_every_public_name():
    public = {name for name, value in vars(grc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(grc.__all__) == public


class TestDispatch:
    def test_width3_goes_through_reduction(self):
        inst = GrcInstance((2, 2, 2, 2, 2, 0), (CutConstraint((0, 1, 2), 4),))
        out = solve(inst)
        assert out.method == "reduce3"
        assert out.is_realizable
        assert verify_realization(out.witness, inst).ok

    def test_width2_uses_matching(self):
        inst = GrcInstance((1, 1, 1, 1), (CutConstraint((0, 1), 2),))
        out = solve(inst)
        assert out.method == "ffactor" and out.is_realizable

    def test_tree_path(self):
        import itertools
        # pair cuts keep their identity under normalization only for n >= 5
        degrees = (1, 2, 2, 2, 1)
        tree = {(0, 1), (1, 2), (2, 3), (3, 4)}
        cuts = tuple(CutConstraint((u, v), degrees[u] + degrees[v])
                     for u, v in itertools.combinations(range(5), 2) if (u, v) not in tree)
        out = solve(GrcInstance(degrees, cuts))
        assert out.method == "tree" and out.is_realizable

    def test_unsafe_falls_back_to_oracle(self):
        # width-3 cuts surviving normalization that overlap in two vertices
        inst = GrcInstance((1, 1, 0, 0, 0, 0),
                           (CutConstraint((0, 1, 2), 0), CutConstraint((0, 1, 3), 0)))
        norm = normalize(inst)
        assert width(norm) == 3
        with pytest.raises(UnsafeReduction):
            reduce_to_width2(norm)
        out = solve(inst)
        assert out.method == "oracle"
        assert out.is_realizable and out.witness.edges == frozenset({(0, 1)})

    def test_refused_rewrite_hands_its_core_to_the_search(self):
        # the two sets share two vertices, so the guard refuses once the
        # case-1 rewrite of (0, 1, 6) has forbidden the pair (0, 6)
        inst = GrcInstance((2, 3, 1, 2, 1, 3, 2, 2),
                           (CutConstraint((0, 1, 6), 7), CutConstraint((0, 3, 6), 4)))
        core = screen_instance(inst)
        core.eliminate()
        with pytest.raises(UnsafeReduction) as refused:
            reduce_to_width2(core)
        settled = refused.value.core
        assert not settled.forced
        assert settled.trace[:len(core.trace)] == core.trace
        assert settled.forbidden >= {(0, 1), (0, 6), (1, 6)}
        # from the settled Core the search finds the same first witness,
        # within a budget the unrewritten Core runs out of
        out = solve(inst, node_budget=100)
        assert out.method == "oracle" and out.is_realizable
        assert out.witness.sorted_edges() == [(0, 2), (0, 3), (1, 3), (1, 4), (1, 5),
                                              (5, 6), (5, 7), (6, 7)]

    def test_width4_uses_oracle(self):
        inst = GrcInstance((1,) * 8, (CutConstraint((0, 1, 2, 3), 4),))
        out = solve(inst)
        assert out.method == "oracle" and out.is_realizable

    def test_screen_failures_reported(self):
        out = solve(GrcInstance((1, 1, 1)))
        assert out.status is Status.INFEASIBLE and out.method == "screen"

    def test_resource_limit_propagates(self):
        inst = GrcInstance((1,) * 8, (CutConstraint((0, 1, 2, 3), 4),))
        out = solve(inst, node_budget=2)
        assert out.status is Status.RESOURCE_LIMIT


class TestForcedMethods:
    def test_forced_oracle(self):
        out = solve(GrcInstance((1, 1)), method="oracle")
        assert out.method == "oracle" and out.is_realizable

    def test_forced_tree_inapplicable(self):
        with pytest.raises(MethodNotApplicable):
            solve(GrcInstance((1, 1, 1, 1)), method="tree")

    def test_forced_ffactor_inapplicable(self):
        inst = GrcInstance((2, 2, 2, 2, 2, 0), (CutConstraint((0, 1, 2), 4),))
        with pytest.raises(MethodNotApplicable):
            solve(inst, method="ffactor")

    def test_forced_reduce3_on_unsafe(self):
        inst = GrcInstance((1, 1, 0, 0, 0, 0),
                           (CutConstraint((0, 1, 2), 0), CutConstraint((0, 1, 3), 0)))
        with pytest.raises(MethodNotApplicable):
            solve(inst, method="reduce3")

    def test_unknown_method(self):
        with pytest.raises(MethodNotApplicable):
            solve(GrcInstance((1, 1)), method="magic")

    def test_forced_reduce3_works_on_width3(self):
        inst = GrcInstance((2, 2, 2, 2, 2, 0), (CutConstraint((0, 1, 2), 4),))
        out = solve(inst, method="reduce3")
        assert out.is_realizable


class TestMethodAgreement:
    def test_all_applicable_methods_agree(self):
        rng = random.Random(246)
        for _ in range(250):
            inst = random_instance(rng, n_max=7)
            answers = {}
            answers["auto"] = solve(inst).is_realizable
            answers["oracle"] = solve(inst, method="oracle").is_realizable
            try:
                norm = normalize(inst)
                screen_instance(norm)
            except Contradiction:
                assert answers["auto"] is False
                continue
            if width(norm) <= 2:
                answers["ffactor"] = solve(inst, method="ffactor").is_realizable
            if width(norm) <= 3:
                try:
                    answers["reduce3"] = solve(inst, method="reduce3").is_realizable
                except MethodNotApplicable:
                    pass
            try:
                elim, _ = eliminate_fixed_edges(norm)
                if is_forest(possibility_graph(elim)):
                    answers["tree"] = solve(inst, method="tree").is_realizable
            except Contradiction:
                pass
            assert len(set(answers.values())) == 1, (inst, answers)

    def test_agreement_with_brute_small(self):
        rng = random.Random(135)
        for _ in range(150):
            inst = random_instance(rng, n_max=5)
            assert solve(inst).is_realizable == brute_realizable(inst), inst

    def test_witnesses_always_verify(self):
        rng = random.Random(864)
        for _ in range(200):
            inst = random_instance(rng, n_max=7)
            out = solve(inst)
            if out.is_realizable:
                assert verify_realization(out.witness, inst).ok


def test_determinism():
    rng = random.Random(100)
    instances = [random_instance(rng, n_max=6) for _ in range(50)]
    for inst in instances:
        a, b = solve(inst), solve(inst)
        assert a.status == b.status and a.witness == b.witness and a.method == b.method


def _count_calls(monkeypatch, name):
    """Record the value of each call of ``name`` at every grc module that binds it."""
    calls = []
    for module in (grc.preprocess, grc.reduce3, grc.solver, grc.ffactor,
                   grc.treesolve, grc.oracle, grc.hardness):
        original = getattr(module, name, None)
        if original is not None:
            def counted(*args, _original=original, **kwargs):
                calls.append(_original(*args, **kwargs))
                return calls[-1]
            monkeypatch.setattr(module, name, counted)
    return calls


def _guarded_width3_instance():
    # Four disjoint triples with 0, 1, 2 and 3 planted internal edges (rewrite
    # cases 1, 3, 4 and 2), tied together by a few outside edges.
    triples = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
    edges = {(0, 3), (2, 6), (4, 9), (7, 12), (8, 13), (11, 13),
             (3, 4), (6, 7), (6, 8), (9, 10), (9, 11), (10, 11)}
    g = SimpleGraph(14, edges)
    cuts = tuple(CutConstraint(s, cut_size(g, s)) for s in triples)
    return GrcInstance(g.degree_sequence(), cuts)


def _forest_instance_with_forced_pairs():
    tree = [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6), (6, 7)]
    planted = [(0, 1), (1, 3), (3, 4), (5, 6)]
    degrees = SimpleGraph(8, planted).degree_sequence()
    cuts = [CutConstraint(p, degrees[p[0]] + degrees[p[1]])
            for p in itertools.combinations(range(8), 2) if p not in tree]
    cuts += [CutConstraint(p, degrees[p[0]] + degrees[p[1]] - 2) for p in ((1, 3), (5, 6))]
    return GrcInstance(degrees, tuple(cuts))


@pytest.mark.parametrize("make, route", [(_guarded_width3_instance, "reduce3"),
                                         (_forest_instance_with_forced_pairs, "tree")])
def test_each_stage_runs_once(monkeypatch, make, route):
    inst = make()
    normalized = _count_calls(monkeypatch, "normalize")
    classified = _count_calls(monkeypatch, "_classify_pairs")
    verified = _count_calls(monkeypatch, "verify_realization")
    hosts = _count_calls(monkeypatch, "possibility_graph")
    out = solve(inst)
    assert out.is_realizable and out.method == route
    # the screen canonicalizes the cuts in its own pass
    assert len(normalized) == 0
    assert len(classified) == 1
    assert len(verified) <= 1
    assert len(hosts) == 1


def test_forced_matching_builds_no_gadget(monkeypatch):
    # all degrees 1, a perfect matching forced by disjoint pair cuts of demand 0
    inst = GrcInstance((1,) * 40, tuple(CutConstraint((i, i + 1), 0) for i in range(0, 40, 2)))
    gadgets = _count_calls(monkeypatch, "tutte_gadget")
    hosts = _count_calls(monkeypatch, "possibility_graph")
    out = solve(inst)
    assert out.is_realizable and out.method == "ffactor"
    assert all(g.graph.vertex_count == 0 for g in gadgets)
    assert len(hosts) == 1


def test_forest_route_is_the_matching_route(monkeypatch):
    # a path host with a size-4 cut: no rewrite applies, and the f-factor
    # route's pruning settles every edge, so the expansion it builds is empty
    path = [(v, v + 1) for v in range(7)]
    planted = SimpleGraph(8, [(0, 1), (2, 3), (3, 4), (6, 7)])
    degrees = planted.degree_sequence()
    cuts = [CutConstraint(p, degrees[p[0]] + degrees[p[1]])
            for p in itertools.combinations(range(8), 2) if p not in path]
    cuts.append(CutConstraint((0, 1, 2, 3), cut_size(planted, (0, 1, 2, 3))))
    inst = GrcInstance(degrees, tuple(cuts))
    assert width(normalize(inst)) == 4
    gadgets = _count_calls(monkeypatch, "tutte_gadget")
    out = solve(inst)
    assert out.is_realizable and out.method == "tree"
    assert out.witness == planted
    assert gadgets and all(g.graph.vertex_count == 0 for g in gadgets)


def test_saturated_vertex_decides_no_without_gadget(monkeypatch):
    # vertex 0 takes every edge, which leaves 1..4 at target 0 and strands vertex 5
    gadgets = _count_calls(monkeypatch, "tutte_gadget")
    out = solve(GrcInstance((5, 1, 1, 1, 1, 3)))
    assert not out.is_realizable and out.method == "ffactor"
    assert gadgets == []


def _relabeled(inst, perm):
    degrees = [0] * inst.vertex_count
    for v, d in enumerate(inst.degrees):
        degrees[perm[v]] = d
    return GrcInstance(tuple(degrees), tuple(
        CutConstraint(tuple(perm[v] for v in c.members), c.ell) for c in inst.cuts))


def _complemented(inst):
    n = inst.vertex_count
    return GrcInstance(inst.degrees, tuple(
        CutConstraint(tuple(v for v in range(n) if v not in c.members), c.ell)
        for c in inst.cuts))


@st.composite
def small_instances(draw):
    """n <= 7, cut sets of size <= 3; demands read off a planted graph, or drawn."""
    n = draw(st.integers(2, 7))
    pairs = list(itertools.combinations(range(n), 2))
    g = SimpleGraph(n, [p for p in pairs if draw(st.booleans())])
    cuts = []
    for _ in range(draw(st.integers(0, 4))):
        members = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(3, n - 1)))
        planted = cut_size(g, members)
        cuts.append(CutConstraint(tuple(members), draw(st.sampled_from(
            [planted, planted, max(planted - 2, 0), planted + 2]))))
    return GrcInstance(g.degree_sequence(), tuple(cuts))


def _decide(inst):
    out = solve(inst)
    assert out.status is not Status.RESOURCE_LIMIT
    if out.is_realizable:
        assert verify_realization(out.witness, inst).ok
    return out.is_realizable


@settings(derandomize=True, max_examples=300)
@given(small_instances(), st.data())
def test_relabeling_keeps_the_decision(inst, data):
    perm = data.draw(st.permutations(range(inst.vertex_count)))
    assert _decide(inst) == _decide(_relabeled(inst, perm))


@settings(derandomize=True, max_examples=300)
@given(small_instances())
def test_complementing_cut_sets_keeps_the_decision(inst):
    assert _decide(inst) == _decide(_complemented(inst))
