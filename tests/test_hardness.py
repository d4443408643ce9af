import itertools
import random

import pytest

from grc import (
    CutConstraint,
    GrcInstance,
    InvalidInstanceError,
    OneInThreeInstance,
    SimpleGraph,
    ThreeDMInstance,
    decode_sat_witness,
    decode_tdm_witness,
    monotone_to_21,
    oracle_solve,
    possibility_graph,
    sat_brute,
    sat_to_grc,
    solve_21_by_k_sweep,
    tdm_brute,
    tdm_to_grc,
    two_one_violations,
    verify_realization,
    width,
)
from tests.bruteforce import random_21_formula, random_3dm, random_positive_formula

FIG2 = OneInThreeInstance(4, ((-1, 3), (1, 2, 4), (1, -4), (-2, -3), (2, 3, 4)))
FIG3 = ThreeDMInstance(3, ((0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0), (2, 1, 1), (2, 2, 2)))


def block_builds(monkeypatch, encode, *args):
    """The encoder's output and the member sets that went through ``CutConstraint.__post_init__``."""
    built = []
    post_init = CutConstraint.__post_init__
    monkeypatch.setattr(CutConstraint, "__post_init__",
                        lambda cut: built.append(tuple(cut.members)) or post_init(cut))
    inst, gm = encode(*args)
    monkeypatch.undo()
    # the unchecked cuts are the ones the public constructors would give
    assert GrcInstance(inst.degrees, tuple(CutConstraint(c.members, c.ell) for c in inst.cuts)) == inst
    return inst, gm, built


def bipartite(g):
    color = [None] * g.vertex_count
    adj = g.adjacency()
    for start in range(g.vertex_count):
        if color[start] is not None:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if color[w] is None:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


class TestMonotoneTo21:
    def test_single_occurrence_gains_tautology(self):
        f = OneInThreeInstance(2, ((1, 2),))
        out = monotone_to_21(f)
        assert not two_one_violations(out)
        assert (1, -1) in out.clauses or any(set(c) == {1, -1} for c in out.clauses)

    def test_double_occurrence_gains_one_clone(self):
        f = OneInThreeInstance(1, ((1, 1),))  # degenerate but two occurrences
        out = monotone_to_21(f)
        assert out.variable_count == 2
        assert not two_one_violations(out)

    def test_rejects_negative_literals(self):
        with pytest.raises(ValueError):
            monotone_to_21(OneInThreeInstance(2, ((1, -2),)))

    def test_rejects_unused_variable(self):
        with pytest.raises(ValueError):
            monotone_to_21(OneInThreeInstance(2, ((1, 1),)))

    def test_equisatisfiable_random(self):
        rng = random.Random(2718)
        for _ in range(120):
            f = random_positive_formula(rng, max_vars=5)
            out = monotone_to_21(f)
            assert not two_one_violations(out), (f, out)
            assert (sat_brute(f) is not None) == (sat_brute(out) is not None), f

    def test_clause_sizes(self):
        rng = random.Random(9)
        for _ in range(40):
            f = random_positive_formula(rng, max_vars=4)
            out = monotone_to_21(f)
            assert all(len(c) in (2, 3) for c in out.clauses)


class TestSatToGrc:
    def test_fig2_shape(self):
        inst, gm = sat_to_grc(FIG2, 1)
        assert inst.vertex_count == 32
        assert inst.degrees[gm.sink_vertices[0]] == 3
        assert width(inst) == 4

    def test_fig2_realizable_and_decodes(self):
        inst, gm = sat_to_grc(FIG2, 1)
        out = oracle_solve(inst)
        assert out.is_realizable
        assert decode_sat_witness(out.witness, gm) == (False, True, False, False)

    def test_fig2_all_ones(self):
        inst, gm = sat_to_grc(FIG2, 1, all_ones=True)
        assert inst.vertex_count == 34
        assert set(inst.degrees) == {1}
        assert oracle_solve(inst).is_realizable

    def test_unsatisfiable_k(self):
        # the formula has no exactly-one assignment with zero true variables
        assert sat_brute(FIG2, 0) is None
        inst, _ = sat_to_grc(FIG2, 0)
        assert not oracle_solve(inst).is_realizable

    def test_rejects_non_21_form(self):
        with pytest.raises(ValueError):
            sat_to_grc(OneInThreeInstance(2, ((1, 2),)), 0)
        with pytest.raises(ValueError):
            sat_to_grc(FIG2, 9)
        with pytest.raises(ValueError, match="^empty formula with all_ones and k = 0 yields no vertices$"):
            sat_to_grc(OneInThreeInstance(0, ()), 0, all_ones=True)

    def test_rejects_non_integer_k(self):
        # the budget sets a degree, so it is never truncated or read from a bool
        for k in (1.5, 1.0, True):
            with pytest.raises(InvalidInstanceError, match="k must be an integer"):
                sat_to_grc(FIG2, k)

    def test_roles_total(self):
        # the variable blocks, clause blocks and sinks partition the vertices
        inst, gm = sat_to_grc(FIG2, 1)
        vertices = [*itertools.chain(*gm.var_blocks), *itertools.chain(*gm.clause_blocks),
                    *gm.sink_vertices]
        assert sorted(vertices) == list(range(inst.vertex_count))

    def test_possibility_graph_structure(self):
        # 2 block edges per variable, 3 per clause, 3 wiring edges per
        # variable, one collector edge per variable
        inst, gm = sat_to_grc(FIG2, 1)
        pg = possibility_graph(inst)
        assert len(pg.edges) == 2 * 4 + 3 * 5 + 3 * 4 + 4
        for t1, t2, f1, f2 in gm.var_blocks:
            assert pg.has_edge(t1, t2) and pg.has_edge(f1, f2)
            assert pg.has_edge(f2, gm.sink_vertices[0])

    def test_decode_rejects_non_realization(self):
        inst, gm = sat_to_grc(FIG2, 1)
        with pytest.raises(ValueError):
            decode_sat_witness(SimpleGraph(inst.vertex_count), gm)

    def test_encode_decode_round_trip(self):
        # build the forward realization for a known assignment, then decode it
        rng = random.Random(31)
        for _ in range(40):
            f = random_21_formula(rng, rng.randint(2, 5))
            assignment = sat_brute(f)
            if assignment is None:
                continue
            k = sum(assignment)
            inst, gm = sat_to_grc(f, k)
            edges = set()
            clause_false: dict[int, list[int]] = {j: [] for j in range(len(f.clauses))}
            positives_seen = [0] * f.variable_count
            for j, lits in enumerate(gm.clause_literals):
                for slot, lit in enumerate(lits):
                    if lit is None:
                        clause_false[j].append(gm.clause_blocks[j][slot])
                        continue
                    var = abs(lit) - 1
                    vertex = gm.clause_blocks[j][slot]
                    if lit > 0:
                        tv = gm.var_blocks[var][positives_seen[var]]
                        positives_seen[var] += 1
                        if assignment[var]:
                            edges.add(tuple(sorted((tv, vertex))))
                        else:
                            clause_false[j].append(vertex)
                    else:
                        if not assignment[var]:
                            edges.add(tuple(sorted((gm.var_blocks[var][2], vertex))))
                        else:
                            clause_false[j].append(vertex)
            for i, block in enumerate(gm.var_blocks):
                if assignment[i]:
                    edges.add((block[2], block[3]))
                else:
                    edges.add((block[0], block[1]))
                    edges.add(tuple(sorted((block[3], gm.sink_vertices[0]))))
            for j, leftovers in clause_false.items():
                assert len(leftovers) == 2
                edges.add(tuple(sorted(leftovers)))
            g = SimpleGraph(inst.vertex_count, frozenset(edges))
            assert verify_realization(g, inst).ok, (f, assignment)
            assert decode_sat_witness(g, gm) == assignment


def test_pair_cuts_are_built_once(monkeypatch):
    # only the block cuts run the constructor's checks; the generated pairs do not
    for all_ones in (False, True):
        inst, gm, built = block_builds(monkeypatch, sat_to_grc, FIG2, 1, all_ones)
        assert built == [*gm.var_blocks, *gm.clause_blocks]
        assert len(inst.cuts) > 10 * len(built)
    inst, gm, built = block_builds(monkeypatch, tdm_to_grc, FIG3)
    assert built == [tuple(v for pair in block for v in pair) for block in gm.y_blocks if block]
    assert len(inst.cuts) > 10 * len(built)


def test_two_vertex_encoding_is_refused_as_before():
    # one element and no triples: the lone pair cut is the whole vertex set
    with pytest.raises(InvalidInstanceError, match="not a proper subset"):
        tdm_to_grc(ThreeDMInstance(1, ()))


class TestEndToEndSat:
    def test_small_formulas_all_k(self):
        rng = random.Random(1618)
        for _ in range(40):
            f = random_21_formula(rng, rng.randint(2, 5))
            for k in range(f.variable_count + 1):
                inst, gm = sat_to_grc(f, k)
                want = sat_brute(f, k) is not None
                out = oracle_solve(inst)
                assert want == out.is_realizable, (f, k)
                if out.is_realizable:
                    decoded = decode_sat_witness(out.witness, gm)
                    assert sum(decoded) == k

    def test_k_sweep_with_reduction_backend(self):
        def backend(f, k):
            inst, _ = sat_to_grc(f, k)
            return oracle_solve(inst).is_realizable

        assert solve_21_by_k_sweep(FIG2, backend) is True

    def test_k_sweep_false_when_chained_equal(self):
        # (x v ~y), (y v ~x) force x == y, then (x v y) can never have exactly one
        f = OneInThreeInstance(2, ((1, -2), (2, -1), (1, 2)))
        assert not two_one_violations(f)
        assert solve_21_by_k_sweep(f, lambda ff, k: sat_brute(ff, k) is not None) is False

    def test_k_sweep_empty_formula(self):
        f = OneInThreeInstance(0, ())
        assert solve_21_by_k_sweep(f, lambda ff, k: sat_brute(ff, k) is not None) is True

    def test_k_sweep_rejects_non_21_form(self):
        f = OneInThreeInstance(1, ((1, 1),))
        with pytest.raises(ValueError, match=r"^formula is not in \(2,1\) occurrence form: "
                                             r"variable 1 occurs 2x positive / 0x negative$"):
            solve_21_by_k_sweep(f, lambda ff, k: True)


class TestTdmToGrc:
    def test_fig3_shape(self):
        inst, gm = tdm_to_grc(FIG3)
        assert inst.vertex_count == 18
        assert set(inst.degrees) == {1}
        assert width(inst) == 6

    def test_fig3_realizable_and_decodes(self):
        inst, gm = tdm_to_grc(FIG3)
        out = oracle_solve(inst)
        assert out.is_realizable
        assert decode_tdm_witness(out.witness, gm) == ((0, 1, 1), (1, 0, 0), (2, 2, 2))

    def test_possibility_graph_bipartite_subcubic(self):
        inst, _ = tdm_to_grc(FIG3)
        pg = possibility_graph(inst)
        assert bipartite(pg)
        assert max(pg.degree_sequence()) <= 3

    def test_unsolvable_small(self):
        inst, _ = tdm_to_grc(ThreeDMInstance(2, ((0, 0, 0),)))
        assert not oracle_solve(inst).is_realizable

    def test_decode_rejects_non_realization(self):
        inst, gm = tdm_to_grc(ThreeDMInstance(1, ((0, 0, 0),)))
        with pytest.raises(ValueError, match="^graph does not realize the generated instance: "
                                             "vertex 0: degree 0 != required 1$"):
            decode_tdm_witness(SimpleGraph(inst.vertex_count), gm)

    def test_occurrence_bound_enforced(self):
        t = ThreeDMInstance(4, tuple((0, y, y) for y in range(4)))
        with pytest.raises(ValueError, match="bound"):
            tdm_to_grc(t)

    def test_encode_decode_round_trip(self):
        rng = random.Random(55)
        for _ in range(60):
            t = random_3dm(rng)
            m = tdm_brute(t)
            if m is None:
                continue
            inst, gm = tdm_to_grc(t)
            chosen = set(m)
            edges = set()
            for j, block in enumerate(gm.y_blocks):
                for (a, b), idx in zip(block, gm.occurrence_triples[j]):
                    triple = t.triples[idx]
                    if triple in chosen and triple[1] == j:
                        xi, _, zk = triple
                        edges.add(tuple(sorted((gm.x_vertices[xi], a))))
                        edges.add(tuple(sorted((b, gm.z_vertices[zk]))))
                        chosen.discard(triple)
                    else:
                        edges.add((a, b))
            g = SimpleGraph(inst.vertex_count, frozenset(edges))
            assert verify_realization(g, inst).ok, t
            assert decode_tdm_witness(g, gm) == m


def test_end_to_end_3dm_random():
    rng = random.Random(99)
    for _ in range(60):
        t = random_3dm(rng)
        inst, gm = tdm_to_grc(t)
        want = tdm_brute(t) is not None
        out = oracle_solve(inst)
        assert want == out.is_realizable, t
        pg = possibility_graph(inst)
        assert bipartite(pg) and max(pg.degree_sequence(), default=0) <= 3
        assert width(inst) <= 6 and set(inst.degrees) == {1}


def test_two_one_violation_messages():
    f = OneInThreeInstance(2, ((1, 2),))
    msgs = two_one_violations(f)
    assert len(msgs) == 2 and "variable 1" in msgs[0]
