"""Sumset oracle: worked examples, brute-force equivalence, and properties."""

import tracemalloc
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbasis.construct import digit_basis
from hbasis.sumset import (BasisSet, Certificate, ResidueSet, coverage_layers,
                           h_fold_coverage, n_of, residue_sumset, verify_basis,
                           witness)


def brute_coverage(elements, h, limit):
    """Direct enumeration of all h-multisets; the independent oracle."""
    return {s for combo in combinations_with_replacement(elements, h)
            if (s := sum(combo)) <= limit}


def passwise_coverage(elements, h, limit):
    """Exactly-h sums in [0, limit] by a pass-wise layer DP over numpy bools:
    layer j is one shifted OR of layer j - 1 per element.  Shares no code
    with the bitmask recurrence in hbasis.sumset."""
    layer = np.zeros(limit + 1, dtype=bool)
    layer[0] = True
    for _ in range(h):
        nxt = np.zeros_like(layer)
        for a in elements:
            if a <= limit:
                nxt[a:] |= layer[:limit + 1 - a]
        layer = nxt
    return layer


small_basis = st.lists(st.integers(0, 50), min_size=1, max_size=6,
                       unique=True).map(lambda xs: BasisSet(tuple(sorted(xs))))


class TestBasisSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BasisSet(())

    def test_rejects_unsorted_and_negative(self):
        with pytest.raises(ValueError):
            BasisSet((3, 1))
        with pytest.raises(ValueError):
            BasisSet((-1, 2))

    def test_from_iterable_dedups(self):
        assert BasisSet.from_iterable([3, 0, 3, 1]).elements == (0, 1, 3)

    def test_membership(self):
        A = BasisSet((0, 1, 3, 4))
        assert all(v in A for v in (0, 1, 3, 4))
        assert 2 not in A
        assert -1 not in A
        assert 5 not in A

    @given(small_basis, st.integers(-5, 60))
    @settings(max_examples=100, deadline=None)
    def test_membership_matches_tuple(self, A, v):
        assert (v in A) == (v in A.elements)


class TestCoverage:
    def test_two_fold_of_binary(self):
        assert h_fold_coverage(BasisSet((0, 1)), 2, 4).to_sorted() == (0, 1, 2)

    def test_all_zero_addends(self):
        assert h_fold_coverage(BasisSet((0,)), 5, 10).to_sorted() == (0,)

    def test_pair_sums(self):
        cov = h_fold_coverage(BasisSet((0, 1, 3)), 2, 10)
        assert cov.to_sorted() == (0, 1, 2, 3, 4, 6)

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            h_fold_coverage(BasisSet((0, 1)), 0, 4)

    @given(small_basis, st.integers(1, 5), st.integers(0, 120))
    @settings(max_examples=150, deadline=None)
    def test_every_layer_matches_brute_enumeration(self, A, h, limit):
        # decompose's backtracking reads the lower layers, not only the top
        layers = coverage_layers(A, h, limit)
        assert len(layers) == h + 1 and layers[0] == 1
        for i in range(1, h + 1):
            expected = sum(1 << z for z in brute_coverage(A.elements, i, limit))
            assert layers[i] == expected, i

    @given(small_basis, st.integers(1, 4), st.integers(0, 120))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_enumeration(self, A, h, limit):
        got = set(h_fold_coverage(A, h, limit).to_sorted())
        assert got == brute_coverage(A.elements, h, limit)

    @given(small_basis, st.integers(1, 3), st.integers(0, 60),
           st.integers(0, 50))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_elements(self, A, h, limit, extra):
        bigger = BasisSet.from_iterable(A.elements + (extra,))
        small = h_fold_coverage(A, h, limit).bits
        large = h_fold_coverage(bigger, h, limit).bits
        assert small & ~large == 0

    @given(small_basis, st.integers(1, 3), st.integers(0, 60))
    @settings(max_examples=80, deadline=None)
    def test_nesting_with_zero(self, A, h, limit):
        withz = BasisSet.from_iterable(A.elements + (0,))
        lo = h_fold_coverage(withz, h, limit).bits
        hi = h_fold_coverage(withz, h + 1, limit).bits
        assert lo & ~hi == 0


class TestNOf:
    def test_examples(self):
        assert n_of(BasisSet((0, 1, 3)), 2) == 4
        assert n_of(BasisSet((1, 2)), 2) is None
        assert n_of(BasisSet((0, 1, 3, 4)), 2) == 8
        assert n_of(BasisSet((0, 1, 2, 5)), 1) == 2
        assert n_of(BasisSet((2, 3)), 1) is None

    def test_singleton_zero(self):
        assert n_of(BasisSet((0,)), 3) == 0

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=7, unique=True),
           st.booleans(), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_enumeration(self, elems, with_zero, h):
        A = BasisSet.from_iterable(elems + [0] if with_zero else elems)
        if 0 not in A:
            assert n_of(A, h) is None
            return
        covered = brute_coverage(A.elements, h, h * A.max)
        n = 0
        while n + 1 in covered:
            n += 1
        assert n_of(A, h) == n


class TestVerify:
    def test_ok(self):
        assert verify_basis(BasisSet((0, 1, 3, 4)), 2, 8).ok

    def test_gap(self):
        cert = verify_basis(BasisSet((0, 1, 3, 4)), 2, 9)
        assert not cert.ok and cert.first_gap == 9

    def test_trivial(self):
        assert verify_basis(BasisSet((0,)), 3, 0).ok

    def test_all_elements_above_n(self):
        # no element takes part, so 0 is already uncovered
        cert = verify_basis(BasisSet((5, 9)), 2, 4)
        assert not cert.ok and cert.first_gap == 0

    def test_n_zero(self):
        assert verify_basis(BasisSet((0, 7)), 4, 0).ok
        assert verify_basis(BasisSet((1, 2)), 4, 0).first_gap == 0

    @pytest.mark.parametrize("h, n", [(0, 5), (-1, 5), (2, -1)])
    def test_rejects_bad_h_and_n(self, h, n):
        with pytest.raises(ValueError):
            verify_basis(BasisSet((0, 1)), h, n)

    def test_far_gap(self):
        # the gap lies past 95% of [0, n], long after the first checks.
        # Without 21*22^3 a top digit of 21 costs two addends, which leaves
        # two for the lower digits: the least sum needing three is the gap.
        n = 22 ** 4 - 1
        A = BasisSet(digit_basis(22, 4).elements[:-1])
        gap = 21 * 22 ** 3 + 22 ** 2 + 22 + 1
        assert gap == 224_115 > 0.95 * n
        assert int(np.argmin(passwise_coverage(A.elements, 4, n))) == gap
        assert verify_basis(A, 4, n) == Certificate(ok=False, first_gap=gap)

    def test_early_gap_allocates_no_window(self):
        # {0, 1} misses 3 at h = 2; no mask over [0, 2**28] (32 MB) is built
        tracemalloc.start()
        try:
            cert = verify_basis(BasisSet((0, 1)), 2, 2 ** 28)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert == Certificate(ok=False, first_gap=3)
        assert peak < 16 * 2 ** 20

    def test_false_claim_gap_at_one(self):
        A = BasisSet.from_iterable(set(digit_basis(10, 4).elements) - {1})
        assert verify_basis(A, 4, 10 ** 4 - 1).first_gap == 1

    @given(st.lists(st.integers(0, 150), min_size=1, max_size=9, unique=True),
           st.booleans(), st.integers(1, 6),
           st.one_of(st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129]),
                     st.integers(0, 200)))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_enumeration(self, elems, with_zero, h, n):
        A = BasisSet.from_iterable(elems + [0] if with_zero else elems)
        covered = brute_coverage(A.elements, h, n)
        gap = next((z for z in range(n + 1) if z not in covered), None)
        cert = verify_basis(A, h, n)
        assert cert.ok == (gap is None)
        assert cert.first_gap == gap


class TestWitness:
    def test_examples(self):
        assert witness(BasisSet((0, 1, 3)), 2, 4) == (1, 3)
        assert witness(BasisSet((0, 1, 3)), 2, 5) is None
        assert witness(BasisSet((0, 2)), 3, 0) == (0, 0, 0)

    @given(small_basis, st.integers(1, 4), st.integers(0, 120))
    @settings(max_examples=150, deadline=None)
    def test_consistent_with_coverage(self, A, h, z):
        cov = h_fold_coverage(A, h, z)
        w = witness(A, h, z)
        if z in cov:
            assert w is not None
            assert len(w) == h and sum(w) == z
            assert all(a in A.elements for a in w)
        else:
            assert w is None


class TestResidueSet:
    def test_membership(self):
        R = ResidueSet.from_iterable(8, [0, 3, 7])
        assert all(v in R for v in (0, 3, 7))
        assert 4 not in R
        assert -1 not in R
        assert 8 not in R
        assert 11 not in R

    def test_rejects_mask_outside_window(self):
        with pytest.raises(ValueError):
            ResidueSet(8, 1 << 8)
        with pytest.raises(ValueError):
            ResidueSet(8, -1)
        with pytest.raises(ValueError):
            ResidueSet(0, 0)
        assert len(ResidueSet(8, (1 << 8) - 1)) == 8

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_rejects_member_outside_z_q(self, bad):
        with pytest.raises(ValueError, match=r"members must lie in \[0, q-1\]"):
            ResidueSet.from_iterable(8, [0, bad])

    def test_full(self):
        assert ResidueSet.full(5).members == (0, 1, 2, 3, 4)
        assert ResidueSet.full(1).members == (0,)

    @given(st.integers(1, 200), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_plain_set(self, q, data):
        values = data.draw(st.lists(st.integers(0, q - 1), max_size=40))
        R = ResidueSet.from_iterable(q, values)
        plain = set(values)
        assert len(R) == len(plain)
        assert R.members == tuple(sorted(plain))
        for v in range(-2, q + 2):
            assert (v in R) == (v in plain)


class TestResidueSumset:
    def test_examples(self):
        rs = lambda *m: ResidueSet.from_iterable(4, m)
        assert residue_sumset(rs(0), [rs(0, 1)]).members == (0, 1)
        assert residue_sumset(rs(0, 1), [rs(0, 2)]).members == (0, 1, 2, 3)
        assert residue_sumset(rs(0, 2), [rs(0, 2)]).members == (0, 2)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            residue_sumset(ResidueSet.from_iterable(4, [0]),
                           [ResidueSet.from_iterable(5, [0])])

    @given(st.integers(2, 24), st.data())
    @settings(max_examples=60, deadline=None)
    def test_identity_family(self, q, data):
        members = data.draw(st.lists(st.integers(0, q - 1), min_size=1,
                                     unique=True))
        H = ResidueSet.from_iterable(q, members)
        out = residue_sumset(H, [ResidueSet.from_iterable(q, [0])])
        assert out.members == H.members
