import itertools
import random

import pytest

from grc import InvalidInstanceError, erdos_gallai, havel_hakimi


class TestErdosGallai:
    def test_triangle(self):
        assert erdos_gallai([2, 2, 2])

    def test_odd_sum(self):
        assert not erdos_gallai([1, 1, 1])

    def test_degree_exceeds_n_minus_1(self):
        assert not erdos_gallai([3, 1, 1])

    def test_order_free(self):
        assert erdos_gallai([1, 3, 2, 2]) == erdos_gallai([3, 2, 2, 1])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            erdos_gallai([-1, 1])


class TestHavelHakimi:
    def test_single_edge(self):
        g = havel_hakimi([1, 1])
        assert g.edges == frozenset({(0, 1)})

    def test_triangle(self):
        g = havel_hakimi([2, 2, 2])
        assert len(g.edges) == 3

    def test_k4(self):
        g = havel_hakimi([3, 3, 3, 3])
        assert len(g.edges) == 6

    def test_label_preservation(self):
        g = havel_hakimi([1, 3, 0, 2, 2])
        assert g.degree_sequence() == (1, 3, 0, 2, 2)

    def test_not_graphic(self):
        assert havel_hakimi([1, 1, 1]) is None
        assert havel_hakimi([3, 1, 1]) is None

    def test_deterministic(self):
        a = havel_hakimi([2, 2, 2, 2, 2])
        b = havel_hakimi([2, 2, 2, 2, 2])
        assert a == b


def test_agreement_exhaustive_small():
    # multiset-exhaustive up to n = 6; labeled spot checks cover the ordering
    for n in range(1, 7):
        for seq in itertools.combinations_with_replacement(range(n), n):
            graphic = erdos_gallai(seq)
            witness = havel_hakimi(seq)
            assert graphic == (witness is not None), seq
            if witness is not None:
                assert witness.degree_sequence() == tuple(seq)


def test_agreement_random_permutations():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(1, 8)
        seq = [rng.randint(0, n - 1) for _ in range(n)]
        graphic = erdos_gallai(seq)
        witness = havel_hakimi(seq)
        assert graphic == (witness is not None), seq
        if witness is not None:
            assert witness.degree_sequence() == tuple(seq)


@pytest.mark.parametrize("check, degrees", [
    (havel_hakimi, (True, True)),
    (havel_hakimi, (1.0, 1)),
    (erdos_gallai, [1, 1, 0.0]),
    (erdos_gallai, [False, 0]),
])
def test_degrees_follow_the_integer_rule(check, degrees):
    with pytest.raises(InvalidInstanceError, match="degree must be an integer"):
        check(degrees)
