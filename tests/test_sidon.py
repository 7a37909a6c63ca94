"""Bose-Chowla construction, field building, B_k checking, exact Phi_k."""

import hashlib
import json
from itertools import product

import pytest

from hbasis.arith import GuardError
from hbasis.sidon import bose_chowla, build_field, is_bk, phi_exact

_PRIMES_50 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
PINNED_CASES = ([(p, 2) for p in _PRIMES_50]
                + [(p, 3) for p in _PRIMES_50 if p < 30]
                + [(p, 4) for p in (2, 3, 5, 7, 11)]
                + [(p, 5) for p in (2, 3, 5)]
                + [(2, k) for k in range(6, 13)])
# SHA-256 of the compact JSON list of [p, k, modulus, elements] over
# PINNED_CASES, recorded with the earlier polynomial-arithmetic field search
PINNED_TABLE_SHA256 = "ef65dbbdb82a90c5cebdf7cdd19836ff28dc338004a7cb02a64a9ce0b84c25c8"
PHI_CASES = ([(n, 2) for n in range(31)] + [(n, 3) for n in range(25)]
             + [(n, 4) for n in range(13)])
# SHA-256 over f"{n} {k} {phi_exact(n, k)}\n" for PHI_CASES, recorded with
# the earlier set-based backtracking
PHI_SHA256 = "d80c3c07aaa9897bcfa5771ca2d95bb566578a0a39051920fa7af61381fff20d"


class TestBuildField:
    def test_gf9(self):
        assert build_field(3, 2).modulus == (2, 1, 1)

    def test_gf4(self):
        assert build_field(2, 2).modulus == (1, 1, 1)

    def test_gf25_is_lex_minimal_primitive(self):
        _assert_lex_minimal_primitive(5, 2)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_cubic_is_lex_minimal_primitive(self, p):
        _assert_lex_minimal_primitive(p, 3)

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            build_field(9, 2)

    def test_pinned_table(self):
        rows = [[p, k, list(build_field(p, k).modulus), list(bose_chowla(p, k).elements)]
                for p, k in PINNED_CASES]
        blob = json.dumps(rows, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == PINNED_TABLE_SHA256


def _assert_lex_minimal_primitive(p, k):
    spec = build_field(p, k)
    # independent scan: no lex-earlier monic polynomial may be primitive
    for coeffs in product(range(p), repeat=k):
        f = coeffs + (1,)
        if f >= spec.modulus:
            break
        assert not _is_primitive(f, p, k)
    assert _is_primitive(spec.modulus, p, k)


def _is_primitive(f, p, k):
    """Reference test for degree <= 3: no root in F_p, and x of order p^k - 1."""
    assert k <= 3
    if any(sum(c * r ** i for i, c in enumerate(f)) % p == 0 for r in range(p)):
        return False
    order = p ** k - 1
    power = [1] + [0] * (k - 1)  # x^d mod f, constant term first
    for d in range(1, order + 1):
        # multiply by x, then replace x^k by -(f_0 + ... + f_{k-1} x^{k-1})
        power = [0] + power
        top = power.pop()
        power = [(c - top * fi) % p for c, fi in zip(power, f)]
        if power == [1] + [0] * (k - 1):
            return d == order
    return False


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

    def test_pinned_sizes_and_witnesses(self):
        digest = hashlib.sha256()
        for n, k in PHI_CASES:
            digest.update(f"{n} {k} {phi_exact(n, k)}\n".encode())
        assert digest.hexdigest() == PHI_SHA256
