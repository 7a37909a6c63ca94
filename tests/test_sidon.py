"""Bose-Chowla construction, field building and B_k checking against a brute-force set walk."""

import hashlib
import json
import random
import tracemalloc
from itertools import combinations_with_replacement, product

import pytest

from hbasis.sidon import bose_chowla, is_bk
from hbasis.sumset import layers_bytes

_PRIMES_50 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
PINNED_CASES = ([(p, 2) for p in _PRIMES_50]
                + [(p, 3) for p in _PRIMES_50 if p < 30]
                + [(p, 4) for p in (2, 3, 5, 7, 11)]
                + [(p, 5) for p in (2, 3, 5)]
                + [(2, k) for k in range(6, 13)])
# SHA-256 of the compact JSON list of [p, k, modulus, elements] over
# PINNED_CASES, recorded with the earlier polynomial-arithmetic field search
PINNED_TABLE_SHA256 = "ef65dbbdb82a90c5cebdf7cdd19836ff28dc338004a7cb02a64a9ce0b84c25c8"


class TestBuildField:
    def test_gf9(self):
        assert bose_chowla(3, 2).field.modulus == (2, 1, 1)

    def test_gf4(self):
        assert bose_chowla(2, 2).field.modulus == (1, 1, 1)

    def test_gf25_is_lex_minimal_primitive(self):
        _assert_lex_minimal_primitive(5, 2)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_cubic_is_lex_minimal_primitive(self, p):
        _assert_lex_minimal_primitive(p, 3)

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            bose_chowla(9, 2)

    def test_pinned_table(self):
        sets = [bose_chowla(p, k) for p, k in PINNED_CASES]
        rows = [[p, k, list(s.field.modulus), list(s.elements)]
                for (p, k), s in zip(PINNED_CASES, sets)]
        blob = json.dumps(rows, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == PINNED_TABLE_SHA256


def _assert_lex_minimal_primitive(p, k):
    spec = bose_chowla(p, k).field
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


def is_bk_brute(S, k, modulus=None):
    """Reference: every k-multiset sum of S, reduced mod modulus when given, in a
    Python set; a repeated element gives two equal multisets."""
    sums = set()
    for combo in combinations_with_replacement(sorted(S), k):
        s = sum(combo) if modulus is None else sum(combo) % modulus
        if s in sums:
            return False
        sums.add(s)
    return True


def collisions(S, k, modulus=None):
    """Multisets of S, counted with S's repeats, minus their distinct sums."""
    combos = list(combinations_with_replacement(sorted(S), k))
    return len(combos) - len({sum(c) if modulus is None else sum(c) % modulus for c in combos})


MODULI = (None, *range(1, 81))


class TestIsBk:
    def test_examples(self):
        assert is_bk({0, 1, 3}, 2)
        assert not is_bk({0, 1, 2}, 2)
        assert is_bk({1, 6, 7}, 2, 8)

    def test_subset_closure(self):
        base = bose_chowla(7, 2).elements
        assert is_bk(base[:4], 2, 48)
        assert is_bk(base[2:], 2)

    def test_agrees_with_brute_force(self):
        # lists with repeats and negatives, k = 1..4, over the integers and mod 1..80
        rng = random.Random(41)
        for k in range(1, 5):
            for _ in range(40):
                S = rng.choices(range(-15, 40), k=rng.randint(0, 7))
                for m in MODULI:
                    assert is_bk(S, k, m) == is_bk_brute(S, k, m), (S, k, m)

    def test_near_misses(self):
        # B_k sets plus one element that makes exactly one pair of multisets
        # share a sum (or a residue), over the integers and mod the field order
        found = 0
        for p, k in ((5, 2), (7, 2), (3, 3), (5, 3), (3, 4)):
            s = bose_chowla(p, k)
            for m in (None, s.order_modulus):
                assert is_bk(s.elements, k, m)
                for x in range(-3 * s.order_modulus, 3 * s.order_modulus):
                    S = s.elements + (x,)
                    if collisions(S, k, m) == 1:
                        found += 1
                        assert not is_bk(S, k, m) and not is_bk_brute(S, k, m), (S, k, m)
        assert found >= 50

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_repeated_element(self, k):
        for S in ([3, 3], [0, 1, 3, 3], list(bose_chowla(7, 2).elements) * 2):
            for m in MODULI:
                assert not is_bk(S, k, m) and not is_bk_brute(S, k, m), (S, k, m)

    def test_negative_elements_translate(self):
        s = bose_chowla(7, 3)
        for shift in (-1000, -s.elements[-1], 0, 17):
            moved = [e + shift for e in s.elements]
            assert is_bk(moved, 3) and is_bk(moved, 3, s.order_modulus)
            assert not is_bk(moved + [moved[0] + moved[1] - moved[2]], 2)

    def test_empty_set(self):
        for k in range(1, 5):
            for m in MODULI:
                assert is_bk([], k, m) and is_bk_brute([], k, m)

    def test_rejects_bad_k_and_modulus(self):
        for k in (0, -1):
            with pytest.raises(ValueError):
                is_bk({0, 1}, k)
        for m in (0, -1, -7):
            with pytest.raises(ValueError):
                is_bk({0, 1}, 2, m)

    def test_wide_set_small_modulus(self):
        # reduced mod 3 first, so no layer spans the set's width of 1e7
        assert is_bk((0, 10 ** 7), 1, 3)
        assert not is_bk((0, 10 ** 7 - 1), 1, 3)
        assert not is_bk((0, 1, 10 ** 7), 2, 3)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_peak_within_layers_model(self, k):
        # sparse sets, so the layers dominate: no modulus, moduli that fold
        # a few times or many, and one past every sum
        rng = random.Random(k)
        S = sorted(rng.sample(range(1, 2 ** 20), 40))
        limit = k * S[-1]
        for m in (None, 3, 997, limit // 2 + 1, limit + 1):
            tracemalloc.start()
            try:
                is_bk(S, k, m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= layers_bytes(k, limit), (k, m, peak)
