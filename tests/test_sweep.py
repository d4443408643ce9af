"""Differential sweeps: ``solve`` against ``oracle_solve`` on planted instances.

The exhaustive form is left out of the default run (marker ``exhaustive``);
run it with ``pytest -m exhaustive tests/test_sweep.py``.
"""

import itertools
import random

import pytest

from tests.bruteforce import all_graphs, differential_sweep, planted_instance, random_planted_instance


def test_planted_sweep_agrees_with_the_oracle():
    rng = random.Random(5)
    routes = differential_sweep(random_planted_instance(rng) for _ in range(1000))
    assert sum(routes.values()) == 1000
    # the sample reaches both the screen and the size-3 rewrite
    assert routes["screen"] and routes["reduce3"]


# On six vertices a triple is half the set, so its canonical side holds vertex 0.
_TRIPLES = [t for t in itertools.combinations(range(6), 3) if 0 in t]


@pytest.mark.exhaustive
@pytest.mark.parametrize("sets", [(t,) for t in _TRIPLES] + list(itertools.combinations(_TRIPLES, 2)),
                         ids=lambda sets: "-".join("".join(map(str, t)) for t in sets))
def test_every_graph_on_six_vertices(sets):
    # 2**15 graphs per cut list; graphs that give the same instance are solved once
    instances = dict.fromkeys(planted_instance(g, sets) for g in all_graphs(6))
    differential_sweep(instances, planted=True)
