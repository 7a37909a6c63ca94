"""Sumset oracle: worked examples, brute-force equivalence, and properties."""

from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbasis.sumset import (BasisSet, ResidueSet, h_fold_coverage, n_of,
                           residue_sumset, verify_basis, witness)


def brute_coverage(elements, h, limit):
    """Direct enumeration of all h-multisets; the independent oracle."""
    return {s for combo in combinations_with_replacement(elements, h)
            if (s := sum(combo)) <= limit}


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

    def test_singleton_zero(self):
        assert n_of(BasisSet((0,)), 3) == 0


class TestVerify:
    def test_ok(self):
        assert verify_basis(BasisSet((0, 1, 3, 4)), 2, 8).ok

    def test_gap(self):
        cert = verify_basis(BasisSet((0, 1, 3, 4)), 2, 9)
        assert not cert.ok and cert.first_gap == 9

    def test_trivial(self):
        assert verify_basis(BasisSet((0,)), 3, 0).ok


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
