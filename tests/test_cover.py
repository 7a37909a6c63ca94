"""Greedy shift covers: worked examples, prefix bound, budget audit."""

import random
from math import ceil, log

import pytest

from hbasis.cover import (complement_size_bound, gains_naive,
                          greedy_shift_cover, k_complement)
from hbasis.sumset import ResidueSet, residue_sumset


class TestGreedyShiftCover:
    def test_full_base_one_shift(self):
        z4 = ResidueSet.full(4)
        res = greedy_shift_cover(z4, z4, 1)
        assert res.X.members == (0,) and len(res.remainder) == 0

    def test_half_interval(self):
        res = greedy_shift_cover(ResidueSet.from_iterable(4, [0, 1]),
                                 ResidueSet.full(4), 2)
        assert res.X.members == (0, 2) and len(res.remainder) == 0

    def test_singleton_base(self):
        res = greedy_shift_cover(ResidueSet.from_iterable(4, [0]),
                                 ResidueSet.full(4), 2)
        assert len(res.remainder) == 2
        assert len(res.remainder) <= (1 - 1 / 4) ** 2 * 4

    def test_rejects_empty_base(self):
        with pytest.raises(ValueError):
            greedy_shift_cover(ResidueSet.from_iterable(4, ()), ResidueSet.full(4), 1)

    def test_fft_gains_match_naive(self):
        rng = random.Random(7)
        for q in (5, 16, 37, 128):
            members = sorted(rng.sample(range(q), rng.randint(1, q)))
            A = ResidueSet.from_iterable(q, members)
            b_members = sorted(rng.sample(range(q), rng.randint(1, q)))
            expected = gains_naive(A, b_members)
            # one greedy step must pick the naive argmax (smallest on ties)
            res = greedy_shift_cover(A, ResidueSet.from_iterable(q, b_members), 1)
            assert res.picks[0] == expected.index(max(expected))

    def test_prefix_bound_randomized(self):
        rng = random.Random(2024)
        for _ in range(40):
            q = rng.randint(8, 256)
            A = ResidueSet.from_iterable(
                q, rng.sample(range(q), rng.randint(1, q)))
            B = ResidueSet.from_iterable(
                q, rng.sample(range(q), rng.randint(1, q)))
            t = rng.randint(1, q)
            res = greedy_shift_cover(A, B, t)
            for j, left in enumerate(res.uncovered_trace, start=1):
                assert left <= (1 - len(A) / q) ** j * len(B) + 1e-9

    def test_determinism(self):
        q = 64
        A = ResidueSet.from_iterable(q, range(0, 64, 5))
        B = ResidueSet.full(q)
        a = greedy_shift_cover(A, B, 10)
        b = greedy_shift_cover(A, B, 10)
        assert a.picks == b.picks


class TestKComplement:
    def test_full_base(self):
        fam = k_complement(ResidueSet.full(8), 1)
        assert [X.members for X in fam.families] == [(0,)]
        assert fam.complete and not fam.over_budget

    def test_half_interval_z8(self):
        fam = k_complement(ResidueSet.from_iterable(8, [0, 1, 2, 3]), 1)
        assert fam.families[0].members == (0, 4)
        assert fam.complete
        assert fam.total_shifts <= complement_size_bound(8, 4, 1)

    def test_singleton_base(self):
        for q in (4, 9, 16):
            fam = k_complement(ResidueSet.from_iterable(q, [0]), 1)
            assert fam.families[0].members == tuple(range(q))
            assert fam.complete

    def test_trivial_modulus(self):
        fam = k_complement(ResidueSet.from_iterable(1, [0]), 1)
        assert fam.complete and fam.families == ()

    def test_completeness_verified_by_sumset(self):
        rng = random.Random(5)
        for _ in range(20):
            q = rng.choice((32, 64, 128))
            k = rng.choice((1, 2, 3))
            size = rng.randint(ceil(q ** 0.5), q)
            A = ResidueSet.from_iterable(q, rng.sample(range(q), size))
            fam = k_complement(A, k)
            assert len(fam.families) == k
            assert len(residue_sumset(A, fam.families)) == q
            assert fam.complete

    def test_budget_audit(self):
        rng = random.Random(11)
        for q in (64, 256):
            for k in (1, 2, 3):
                for _ in range(5):
                    size = rng.randint(ceil(q ** 0.5), q)
                    A = ResidueSet.from_iterable(q, rng.sample(range(q), size))
                    fam = k_complement(A, k)
                    assert not fam.over_budget
                    assert fam.total_shifts <= complement_size_bound(q, size, k)

    def test_union_size_le_total(self):
        A = ResidueSet.from_iterable(32, [0, 3, 7])
        fam = k_complement(A, 2)
        assert fam.union_size <= fam.total_shifts


class TestComplementSizeBound:
    def test_examples(self):
        assert complement_size_bound(8, 4, 1) == 8
        assert complement_size_bound(8, 8, 1) == 6
        assert complement_size_bound(2, 1, 1) == 3

    def test_formula(self):
        q, alpha, k = 100, 10, 2
        expected = k * ceil((q * log(q) / alpha) ** (1 / k)) + ceil(log(q))
        assert complement_size_bound(q, alpha, k) == expected
