import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from grc import (
    Contradiction,
    CutConstraint,
    GrcInstance,
    InvalidInstanceError,
    SimpleGraph,
    complete_graph,
    cut_size,
    degree_sum,
    graph_from_json,
    graph_to_json,
    instance_from_json,
    instance_to_json,
    normalize,
    verify_realization,
    width,
)
from grc.hardness import OneInThreeInstance, monotone_to_21, sat_to_grc
from tests.bruteforce import all_graphs, satisfies


def triangle():
    return SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])


def rebuilt(inst):
    """``inst`` rebuilt from its degrees, members and sizes by the public constructors."""
    return GrcInstance(inst.degrees, tuple(CutConstraint(c.members, c.ell) for c in inst.cuts))


@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return SimpleGraph(n, frozenset(chosen))


class TestSimpleGraph:
    def test_canonicalizes_edge_orientation(self):
        g = SimpleGraph(3, [(2, 0), (1, 0)])
        assert g.edges == frozenset({(0, 2), (0, 1)})

    def test_rejects_loops_and_range(self):
        with pytest.raises(InvalidInstanceError):
            SimpleGraph(3, [(1, 1)])
        with pytest.raises(InvalidInstanceError):
            SimpleGraph(3, [(0, 3)])
        with pytest.raises(InvalidInstanceError, match="^vertex count must be nonnegative$"):
            SimpleGraph(-1)

    def test_integer_rule(self):
        # a bool or a non-integral count or endpoint raises, it is never
        # truncated (so (0, 1.0) cannot reach verify_realization's list
        # indexing); an index-like value is read as the int it stands for
        class Index:
            def __index__(self):
                return 2

        for n, edges in ((3, [(0.5, 1)]), (True, []), (2.5, [(0, 1)]), (3, [(0, 1.0)]),
                         (3, [(False, 1)])):
            with pytest.raises(InvalidInstanceError, match="must be an integer"):
                SimpleGraph(n, edges)
        assert SimpleGraph(Index(), [(0, 1)]).vertex_count == 2
        g = SimpleGraph(3, [(Index(), 0)])
        assert g.edges == frozenset({(0, 2)})
        assert all(type(v) is int for e in g.edges for v in e)

    def test_degree_sequence_and_neighbors(self):
        g = triangle()
        assert g.degree_sequence() == (2, 2, 2)
        assert g.neighbors(0) == (1, 2)


class TestInstanceValidation:
    def test_rejects_empty_and_negative(self):
        with pytest.raises(InvalidInstanceError):
            GrcInstance(())
        with pytest.raises(InvalidInstanceError):
            GrcInstance((-1, 1))
        with pytest.raises(InvalidInstanceError, match="^cut set must be nonempty$"):
            CutConstraint((), 0)

    def test_rejects_full_set_cut(self):
        with pytest.raises(InvalidInstanceError):
            GrcInstance((1, 1), (CutConstraint((0, 1), 0),))

    def test_large_degrees_parse(self):
        # entries beyond n-1 are legal documents; screening flags them later
        inst = GrcInstance((5, 0, 0))
        assert inst.degrees == (5, 0, 0)

    def test_cut_members_sorted_dedup(self):
        c = CutConstraint((2, 0, 2), 1)
        assert c.members == (0, 2)
        # a canonical pair equals the same set built any other way
        assert CutConstraint((0, 2), 1) == CutConstraint([2, 0, 2], 1) == c

    def test_rejects_non_integral_entries(self):
        # entries are never truncated: floats, strings and bools are refused
        for members in ((0.9, 2.7), (0, 2.0), (True, 2), (0, False, 3), ("0", "2")):
            with pytest.raises(InvalidInstanceError, match="vertex index"):
                CutConstraint(members, 1)
        for degrees in ((1.9, 1.2, 0.5), (True, True), (1, 1.0), ("1", "1")):
            with pytest.raises(InvalidInstanceError, match="degree"):
                GrcInstance(degrees)

    def test_pair_path_keeps_every_check(self):
        with pytest.raises(InvalidInstanceError, match="negative"):
            CutConstraint((-1, 2), 0)
        for ell in (-1, 1.0):
            with pytest.raises(InvalidInstanceError, match="natural number"):
                CutConstraint((0, 1), ell)

    def test_rejects_bool_ell(self):
        for flag in (True, False):
            with pytest.raises(InvalidInstanceError, match="natural number"):
                CutConstraint((0, 1), flag)


class TestCutSize:
    def test_triangle_single_vertex(self):
        assert cut_size(triangle(), {0}) == 2

    def test_triangle_pair(self):
        assert cut_size(triangle(), {0, 1}) == 2

    def test_edgeless(self):
        assert cut_size(SimpleGraph(4), {0, 1}) == 0

    def test_rejects_empty_and_full(self):
        with pytest.raises(ValueError):
            cut_size(triangle(), set())
        with pytest.raises(ValueError):
            cut_size(triangle(), {0, 1, 2})
        with pytest.raises(ValueError, match=r"^cut set \[0, 5\] out of range for n=3$"):
            cut_size(SimpleGraph(3), (0, 5))

    @given(graphs())
    def test_complement_identity(self, g):
        n = g.vertex_count
        if n < 2:
            return
        for r in range(1, n):
            for s in itertools.combinations(range(n), r):
                comp = set(range(n)) - set(s)
                assert cut_size(g, s) == cut_size(g, comp)
                break  # one subset per size keeps the property test quick

    @given(graphs())
    def test_degree_sum_minus_internal(self, g):
        n = g.vertex_count
        if n < 2:
            return
        inst = GrcInstance(g.degree_sequence())
        rng = random.Random(7)
        for _ in range(5):
            r = rng.randint(1, n - 1)
            s = set(rng.sample(range(n), r))
            internal = sum(1 for u, v in g.edges if u in s and v in s)
            assert cut_size(g, s) == degree_sum(inst, s) - 2 * internal


class TestDegreeSum:
    def test_fig1_total(self):
        inst = GrcInstance((2, 2, 2))
        assert degree_sum(inst, {0, 1, 2}) == 6

    def test_empty_set(self):
        assert degree_sum(GrcInstance((3, 1)), set()) == 0

    def test_subset(self):
        assert degree_sum(GrcInstance((1, 1, 0, 0)), {0, 1}) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            degree_sum(GrcInstance((1, 1)), {5})


class TestVerifyRealization:
    def test_triangle_matches(self):
        inst = GrcInstance((2, 2, 2), (CutConstraint((0, 1), 2),))
        assert verify_realization(triangle(), inst).ok

    def test_triangle_violates(self):
        inst = GrcInstance((2, 2, 2), (CutConstraint((0, 1), 4),))
        report = verify_realization(triangle(), inst)
        assert not report.ok
        assert any("cut (0, 1)" in v for v in report.violations)

    def test_vertex_count_mismatch(self):
        with pytest.raises(ValueError):
            verify_realization(SimpleGraph(2), GrcInstance((0, 0, 0)))

    def test_reports_every_failure(self):
        inst = GrcInstance((1, 1, 1), (CutConstraint((0, 1), 1),))
        report = verify_realization(SimpleGraph(3), inst)
        assert len(report.violations) == 4  # three degrees and one cut

    @given(graphs())
    def test_pair_and_triple_cuts_agree_with_cut_size(self, g):
        n = g.vertex_count
        sets = [s for k in (2, 3) if k < n for s in itertools.combinations(range(n), k)]
        exact = tuple(CutConstraint(s, cut_size(g, s)) for s in sets)
        assert verify_realization(g, GrcInstance(g.degree_sequence(), exact)).ok
        off = tuple(CutConstraint(c.members, c.ell + 1) for c in exact)
        report = verify_realization(g, GrcInstance(g.degree_sequence(), off))
        assert report.violations == tuple(
            f"cut {c.members}: size {c.ell - 1} != required {c.ell}" for c in off)


class TestWidth:
    def test_mixed(self):
        inst = GrcInstance((0,) * 6, (CutConstraint((0, 1), 2), CutConstraint((0, 1, 2), 1)))
        assert width(inst) == 3

    def test_empty(self):
        assert width(GrcInstance((0, 0))) == 0

    def test_as_given_without_complementing(self):
        inst = GrcInstance((0,) * 6, (CutConstraint((0, 1, 2, 3), 0),))
        assert width(inst) == 4


class TestNormalize:
    def test_complement_to_degree_check(self):
        inst = GrcInstance((2, 1, 1, 2), (CutConstraint((1, 2, 3), 2),))
        assert normalize(inst).cuts == ()

    def test_complement_degree_check_conflict(self):
        inst = GrcInstance((1, 1, 1, 2), (CutConstraint((1, 2, 3), 2),))
        with pytest.raises(Contradiction):
            normalize(inst)

    def test_same_set_two_sizes(self):
        inst = GrcInstance((2, 2, 2, 2), (CutConstraint((0, 1), 2), CutConstraint((0, 1), 4)))
        with pytest.raises(Contradiction):
            normalize(inst)

    def test_dedup(self):
        inst = GrcInstance((2, 2, 2, 2), (CutConstraint((0, 1), 2), CutConstraint((0, 1), 2)))
        assert len(normalize(inst).cuts) == 1

    def test_dedup_keys_on_the_set(self):
        # one object listed twice is one cut, also when its larger side is given
        for cut in (CutConstraint((0, 1, 2), 3), CutConstraint((3, 4, 5, 6), 3)):
            inst = GrcInstance((1, 1, 1, 1, 0, 0, 0), (cut, cut))
            assert normalize(inst).cuts == (CutConstraint((0, 1, 2), 3),)

    def test_half_size_tie_keeps_vertex_zero(self):
        inst = GrcInstance((1, 1, 1, 1), (CutConstraint((2, 3), 2),))
        assert normalize(inst).cuts[0].members == (0, 1)

    def test_larger_side_complemented(self):
        inst = GrcInstance((1,) * 6, (CutConstraint((0, 1, 2, 3), 2),))
        assert normalize(inst).cuts[0].members == (4, 5)

    def test_reuses_every_cut_it_keeps(self, monkeypatch):
        inst, _ = sat_to_grc(monotone_to_21(OneInThreeInstance(3, ((1, 2, 3), (1, 2)))), 1)
        built = []
        post_init = CutConstraint.__post_init__
        monkeypatch.setattr(CutConstraint, "__post_init__",
                            lambda cut: built.append(cut) or post_init(cut))
        norm = normalize(inst)
        assert built == []
        assert all(a is b for a, b in zip(norm.cuts, inst.cuts, strict=True))

    def test_verification_invariant_under_normalize(self):
        # exhaustive over all graphs for a handful of small instances
        rng = random.Random(11)
        from tests.bruteforce import random_instance
        for _ in range(40):
            inst = random_instance(rng, n_max=5)
            try:
                norm = normalize(inst)
            except Contradiction:
                assert not any(satisfies(inst, g) for g in all_graphs(inst.vertex_count))
                continue
            for g in all_graphs(inst.vertex_count):
                assert verify_realization(g, inst).ok == verify_realization(g, norm).ok


class TestJson:
    def test_instance_round_trip(self):
        inst = GrcInstance((2, 2, 2), (CutConstraint((0, 1), 2),))
        doc = instance_to_json(inst)
        assert instance_from_json(doc) == inst
        assert instance_to_json(instance_from_json(doc)) == doc

    def test_graph_round_trip(self):
        g = triangle()
        doc = graph_to_json(g)
        assert graph_from_json(doc) == g
        assert doc["edges"] == sorted(doc["edges"])

    def test_json_text_stable(self):
        doc = instance_to_json(GrcInstance((1, 1), ()))
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            instance_to_json(instance_from_json(doc)), sort_keys=True)

    def test_bad_documents(self):
        with pytest.raises(InvalidInstanceError):
            instance_from_json({"degrees": "nope"})
        with pytest.raises(InvalidInstanceError):
            instance_from_json({"degrees": [1, 1], "cuts": [{"set": [0]}]})
        with pytest.raises(InvalidInstanceError):
            instance_from_json({"version": 9, "degrees": [1, 1]})
        for version in (True, 1.0, "1"):
            with pytest.raises(InvalidInstanceError, match="unsupported instance document version"):
                instance_from_json({"version": version, "degrees": [1, 1]})
        for members in ([0, True], [0.0, 1], [0, "1"], (0, 1)):
            with pytest.raises(InvalidInstanceError, match="list of integers"):
                instance_from_json({"degrees": [1, 1, 0], "cuts": [{"set": members, "ell": 0}]})
        # Entries next to the canonical pair cuts: each is refused with its own
        # message, wherever it stands in the list.
        good = {"set": [0, 1], "ell": 2}
        for degrees, entry, message in (
                ([1, 1, 0], {"set": [-1, 2], "ell": 0}, "cut set holds a negative vertex index: (-1, 2)"),
                ([1, 1, 0], {"set": [0, 3], "ell": 1}, "cut (0, 3) references vertices beyond n=3"),
                ([1, 1], {"set": [0, 1], "ell": 2}, "cut (0, 1) is not a proper subset of the vertices"),
                ([1, 1, 0], {"set": [0, 2], "ell": -1}, "cut size must be a natural number, got -1"),
                ([1, 1, 0], {"set": [0, 2], "ell": True}, 'cut "ell" must be an integer: True'),
                ([1, 1, 0], {"set": [0, 2], "ell": 1.0}, 'cut "ell" must be an integer: 1.0'),
                ([1, 1, 0], {"set": [0, 2]}, """cut entries need "set" and "ell": {'set': [0, 2]}"""),
                ([1, 1, 0], [0, 2], 'cut entries need "set" and "ell": [0, 2]')):
            for cuts in ([entry], [good, entry], [entry, good]):
                if len(degrees) == 2 and entry is not cuts[0]:
                    continue  # at n = 2 the good pair is itself the whole vertex set
                with pytest.raises(InvalidInstanceError) as err:
                    instance_from_json({"degrees": degrees, "cuts": cuts})
                assert str(err.value) == message
        # degree checks hold when every cut is a canonical pair
        for degrees, message in (([1, -1, 0], "degrees must be nonnegative"),
                                 ([], "instance needs at least one vertex")):
            with pytest.raises(InvalidInstanceError) as err:
                instance_from_json({"degrees": degrees, "cuts": [good] if degrees else []})
            assert str(err.value) == message
        with pytest.raises(InvalidInstanceError):
            graph_from_json({"n": 2, "edges": [[0, 0]]})
        for edges in ([[0, 1], [1, 0]], [[0, 1], [0, 1]]):
            with pytest.raises(InvalidInstanceError, match="listed twice"):
                graph_from_json({"n": 2, "edges": edges})

    def test_pair_sets_parse_like_any_set(self):
        doc = {"degrees": [1, 1, 0, 0], "cuts": [{"set": [1, 0], "ell": 2}, {"set": [2, 2], "ell": 0},
                                                 {"set": [0, 1], "ell": 2}]}
        assert [c.members for c in instance_from_json(doc).cuts] == [(0, 1), (2,), (0, 1)]
        for members, canon in (([1, 0], (0, 1)), ([0, 0], (0,)), ([0, 2], (0, 2)), ([2, 2, 0], (0, 2))):
            inst = instance_from_json({"degrees": [1, 1, 0], "cuts": [{"set": members, "ell": 1}]})
            assert inst.cuts == (CutConstraint(canon, 1),)
            assert rebuilt(inst) == inst

    def test_pair_document_builds_each_cut_once(self, monkeypatch):
        n = 7
        pairs = {"degrees": [1] * n,
                 "cuts": [{"set": list(p), "ell": 2} for p in itertools.combinations(range(n), 2)]}
        encoded = instance_to_json(sat_to_grc(monotone_to_21(OneInThreeInstance(3, ((1, 2, 3), (1, 2)))), 1)[0])
        for doc in (pairs, encoded):
            built = []
            for cls in (CutConstraint, GrcInstance):
                post_init = cls.__post_init__
                monkeypatch.setattr(cls, "__post_init__",
                                    lambda obj, post_init=post_init: built.append(obj) or post_init(obj))
            inst = instance_from_json(doc)
            monkeypatch.undo()
            # no instance and only the cuts that are not pairs run the constructor's checks
            assert all(type(c) is CutConstraint for c in built)
            assert [c.members for c in built] == [c.members for c in inst.cuts if len(c.members) > 2]
            assert rebuilt(inst) == inst
            assert instance_to_json(inst) == {"version": 1, **doc}

    def test_trusted_instances_equal_the_checked_ones(self):
        # every producer of unchecked pair cuts gives what the public
        # constructors give on the same members and sizes
        from grc.preprocess import eliminate_fixed_edges
        from tests.bruteforce import random_instance, random_width3_instance
        rng = random.Random(23)
        for _ in range(300):
            inst = random_instance(rng) if rng.random() < 0.5 else random_width3_instance(rng)
            docs = [instance_to_json(inst)]
            if inst.vertex_count > 2:
                docs.append({"degrees": list(inst.degrees),
                             "cuts": [{"set": list(p), "ell": inst.degrees[p[0]] + inst.degrees[p[1]]}
                                      for p in itertools.combinations(range(inst.vertex_count), 2)]})
            for doc in docs:
                parsed = instance_from_json(doc)
                assert rebuilt(parsed) == parsed
            try:
                norm = normalize(inst)
                reduced, _ = eliminate_fixed_edges(norm)
            except Contradiction:
                continue
            assert rebuilt(norm) == norm
            assert rebuilt(reduced) == reduced

    def test_complete_graph(self):
        assert len(complete_graph(4).edges) == 6
