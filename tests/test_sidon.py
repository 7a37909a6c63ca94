"""Bose-Chowla construction, field building, B_k checking, exact Phi_k."""

from itertools import product

import pytest

from hbasis.arith import GuardError
from hbasis.sidon import (GF, FieldSpec, _is_irreducible, bose_chowla,
                          build_field, is_bk, phi_exact)


class TestBuildField:
    def test_gf9(self):
        assert build_field(3, 2).modulus == (2, 1, 1)

    def test_gf4(self):
        assert build_field(2, 2).modulus == (1, 1, 1)

    def test_gf25_is_lex_minimal_primitive(self):
        spec = build_field(5, 2)
        # independent scan: no lex-earlier monic quadratic may be primitive
        for coeffs in product(range(5), repeat=2):
            f = coeffs + (1,)
            if f >= spec.modulus:
                break
            assert not _is_primitive(f, 5, 2)
        assert _is_primitive(spec.modulus, 5, 2)

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            build_field(9, 2)


def _is_primitive(f, p, k):
    if f[0] == 0 or not _is_irreducible(f, p):
        return False
    gf = GF(FieldSpec(p, k, f))
    order = p ** k - 1
    seen = gf.theta
    for d in range(1, order):
        if seen == gf.one:
            return False
        seen = gf.mul_theta(seen)
    return seen == gf.one


class TestBoseChowla:
    def test_gf9_instance(self):
        s = bose_chowla(3, 2)
        assert s.elements == (1, 6, 7)
        assert s.order_modulus == 8

    @pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (5, 2), (3, 3), (5, 3)])
    def test_size_and_membership(self, p, k):
        s = bose_chowla(p, k)
        assert len(s) == p
        assert 1 in s.elements
        assert is_bk(s.elements, k, s.order_modulus)
        assert is_bk(s.elements, k)

    def test_gf25_passes_bk(self):
        s = bose_chowla(5, 2)
        assert len(s) == 5 and max(s.elements) <= 23
        assert is_bk(s.elements, 2, 24)


class TestIsBk:
    def test_examples(self):
        assert is_bk({0, 1, 3}, 2)
        assert not is_bk({0, 1, 2}, 2)
        assert is_bk({1, 6, 7}, 2, 8)

    def test_subset_closure(self):
        base = bose_chowla(7, 2).elements
        assert is_bk(base[:4], 2, 48)
        assert is_bk(base[2:], 2)


class TestPhiExact:
    def test_examples(self):
        assert phi_exact(3, 2) == (3, (0, 1, 3))
        assert phi_exact(6, 2) == (4, (0, 1, 4, 6))
        assert phi_exact(0, 2) == (1, (0,))

    def test_monotone_in_n(self):
        sizes = [phi_exact(n, 2)[0] for n in range(13)]
        assert sizes == sorted(sizes)

    def test_witness_is_bk(self):
        for n in (5, 9, 12):
            size, wit = phi_exact(n, 3)
            assert len(wit) == size
            assert is_bk(wit, 3)

    def test_guard(self):
        with pytest.raises(GuardError):
            phi_exact(10_000, 3)
