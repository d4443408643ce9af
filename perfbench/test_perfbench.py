"""Tests of the benchmark itself: seeded generation, the answer checks, and
the tracing wrappers.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import itertools
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import grc  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.ROUNDS)


@pytest.fixture(scope="module")
def decided():
    """One round of every workload with the program's results."""
    return {w: [(item, workloads.run(grc, item)) for item in workloads.Stream(w, 11).next_round()]
            for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_instances(workload):
    def rounds(seed):
        stream = workloads.Stream(workload, seed)
        return [(i.shape, i.expect, i.doc, i.source) for _ in range(2) for i in stream.next_round()]

    assert rounds(5) == rounds(5)
    assert rounds(5) != rounds(6)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_round_has_fixed_shapes_and_no_repeats(workload):
    stream = workloads.Stream(workload, 3)
    first, second = stream.next_round(), stream.next_round()
    assert [i.shape for i in first] == [i.shape for i in second]
    prints = [workloads._fingerprint(i) for i in first + second]
    assert len(set(prints)) == len(prints)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_program_answers_pass_the_checks(decided, workload):
    for item, result in decided[workload]:
        assert workloads.problems(item, result) == []
    assert {item.expect for item, _ in decided[workload]} == (
        {True} if workload == "sparse-pairs" else {True, False})


def _flip_one_edge(graph_doc):
    edges = {tuple(e) for e in graph_doc["edges"]}
    edges ^= {(0, 1)}
    return {"n": graph_doc["n"], "edges": [list(e) for e in sorted(edges)]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_reject_a_flipped_edge(decided, workload):
    for item, result in decided[workload]:
        if result.witness is not None:
            assert checks.witness_problems(result.doc, _flip_one_edge(result.witness))
            bad = workloads.Result(result.status, result.method, result.doc,
                                   _flip_one_edge(result.witness), result.decoded)
            assert workloads.problems(item, bad)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_reject_a_wrong_answer(decided, workload):
    for item, result in decided[workload]:
        if result.status == "realizable":
            flipped = workloads.Result("infeasible", result.method, result.doc)
        else:
            flipped = workloads.Result("realizable", result.method, result.doc,
                                       {"n": len(result.doc["degrees"]), "edges": []})
        assert workloads.problems(item, flipped)


def test_checks_reject_wrong_decoded_answers(decided):
    for item, result in decided["encodings"]:
        if result.decoded is None:
            continue
        src = item.source
        if item.shape == "sat13":
            wrong = (not result.decoded[0],) + tuple(result.decoded[1:])
            assert checks.assignment_problems(
                src["variables"], src["clauses"], src["weights"], src["k"], wrong)
        else:
            x, y, z = result.decoded[0]
            wrong = ((x, y, (z + 1) % src["n"]),) + tuple(result.decoded[1:])
            assert checks.matching_problems(src["n"], src["triples"], wrong)


def _graphic_by_enumeration(degrees):
    n = len(degrees)
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        deg = [0] * n
        for i, (u, v) in enumerate(pairs):
            if bits >> i & 1:
                deg[u] += 1
                deg[v] += 1
        if deg == list(degrees):
            return True
    return False


def test_erdos_gallai_matches_enumeration():
    for degrees in itertools.product(range(4), repeat=4):
        assert checks.erdos_gallai(degrees) == _graphic_by_enumeration(degrees), degrees


def test_gale_ryser_matches_enumeration():
    for left in itertools.product(range(3), repeat=2):
        for right in itertools.product(range(3), repeat=2):
            want = any(
                [sum(m[i][j] for j in range(2)) for i in range(2)] == list(left)
                and [sum(m[i][j] for i in range(2)) for j in range(2)] == list(right)
                for m in ([bits[:2], bits[2:]] for bits in itertools.product((0, 1), repeat=4)))
            assert checks.gale_ryser(left, right) == want, (left, right)


def test_tracer_restores_every_function():
    def bound():
        return {(m, a): getattr(getattr(grc, m) if m else grc, a)
                for m, a, _, _ in tracing.WRAPPED}

    before = bound()
    tracer = tracing.Tracer(grc)
    tracer.install()
    try:
        assert all(fn is not before[key] for key, fn in bound().items())
    finally:
        tracer.restore()
    assert bound() == before


def test_traced_counters_repeat_and_answers_agree(decided):
    items = [item for w in WORKLOADS for item, _ in decided[w]]
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer(grc)
        tracer.install()
        try:
            results = [workloads.run(grc, item) for item in items]
        finally:
            tracer.restore()
        counts.append(tracer.counts)
        assert all(not workloads.problems(i, r) for i, r in zip(items, results))
        assert all(span[3] >= span[2] for span in tracer.spans)
    assert counts[0] == counts[1]
    metrics = tracer.metrics(len(items))
    assert metrics["solver.route_ffactor"]["value"] > 0
    assert metrics["reduce3.helper_vertices"]["value"] > 0
    assert metrics["hardness.encoded_cuts"]["value"] > 0
