import itertools
import random

import pytest

from bilbiq import (
    CapacityExceeded,
    NotInvertible,
    enumerate_module,
    inv_scalar,
    units,
)
from bilbiq.modular import span_size

from conftest import reference_span_size


class TestInvScalar:
    def test_examples(self):
        assert inv_scalar(3, 4) == 3
        assert inv_scalar(2, 5) == 3

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            inv_scalar(2, 4)

    @pytest.mark.parametrize("n", range(2, 31))
    def test_involution_on_units(self, n):
        us = set(units(n))
        for u in us:
            v = inv_scalar(u, n)
            assert v in us
            assert inv_scalar(v, n) == u
            assert u * v % n == 1


class TestUnits:
    def test_examples(self):
        assert units(4) == [1, 3]
        assert units(5) == [1, 2, 3, 4]
        assert units(2) == [1]

    def test_ascending(self):
        assert units(12) == sorted(units(12))


class TestEnumerateModule:
    def test_small(self):
        assert enumerate_module(2, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_cardinality(self):
        assert len(enumerate_module(4, 2)) == 16
        assert len(enumerate_module(3, 3)) == 27

    def test_zero_first(self):
        assert enumerate_module(5, 2)[0] == (0, 0)

    def test_capacity(self, monkeypatch):
        monkeypatch.setenv("BBQ_CARRIER_BOUND", "10")
        with pytest.raises(CapacityExceeded):
            enumerate_module(4, 2)


class TestSpanSize:
    def test_empty(self):
        assert span_size([], 4, 2) == 1

    def test_cyclic(self):
        assert span_size([(1, 0)], 4, 2) == 4

    def test_two_generators(self):
        assert span_size([(2, 0), (0, 2)], 4, 2) == 4

    def test_size_divides(self):
        vecs = enumerate_module(4, 2)
        for gens in itertools.combinations(vecs, 2):
            size = span_size(gens, 4, 2)
            assert 16 % size == 0
            assert size == reference_span_size(gens, 4, 2)

    @pytest.mark.parametrize(
        "n, m", [(4, 2), (6, 2), (8, 2), (9, 2), (12, 2), (4, 3), (6, 3), (2, 5)]
    )
    def test_matches_reference(self, n, m):
        # Seeded sets of 0-5 drawn generators; every third set also holds
        # the zero vector and every fourth one generator twice.
        rng = random.Random(100 * n + m)
        vecs = enumerate_module(n, m)
        for i in range(60):
            gens = [rng.choice(vecs) for _ in range(rng.randrange(6))]
            if i % 3 == 0:
                gens.append((0,) * m)
            if i % 4 == 0 and gens:
                gens.append(rng.choice(gens))
            rng.shuffle(gens)
            assert span_size(gens, n, m) == reference_span_size(gens, n, m), gens
