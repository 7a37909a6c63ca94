"""Closed-form bound evaluators: worked values and ordering properties."""

import math
import sys
from fractions import Fraction

import pytest

from hbasis.bounds import (bose_chowla_lower, bound_reports,
                           hammerer_hofmeister, hofmeister_lower,
                           improved_quadratic, rohrbach, rohrbach_quadratic,
                           zeta_upper_hofmeister, zeta_upper_theorem1)
from hbasis.construct import tau
from hbasis.search import extremal_n
from hbasis.sidon import bose_chowla


class TestRohrbach:
    def test_examples(self):
        assert rohrbach(2, 4) == (4, 15)
        assert rohrbach(1, 7) == (7, 8)
        assert rohrbach(3, 3) == (1, 20)

    def test_lower_is_exact_rational(self):
        lo, _ = rohrbach(3, 2)
        assert lo == Fraction(8, 27)

    def test_unprintable_refused_before_computing(self):
        # 1370**1370 has 4,298 digits and 1371**1371 4,301; C(14200, 7100) has
        # 4,272 and C(14400, 7200) 4,333; (5/1e7)**1e7 would take minutes
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for h, k in ((1370, 1), (7100, 7100)):
                lo, hi = rohrbach(h, k)
                assert len(str(max(lo.numerator, lo.denominator, hi))) <= 4300
            for h, k in ((1371, 1), (7200, 7200), (10 ** 7, 5)):
                with pytest.raises(ValueError, match="4300-digit limit"):
                    rohrbach(h, k)
        finally:
            sys.set_int_max_str_digits(old)


class TestQuadraticFamily:
    def test_rohrbach_quadratic(self):
        assert rohrbach_quadratic(4) == 12
        assert rohrbach_quadratic(0) == 0
        assert rohrbach_quadratic(10) == 45

    def test_hammerer_hofmeister(self):
        assert hammerer_hofmeister(6) == 10
        assert hammerer_hofmeister(3) == Fraction(5, 2)
        assert hammerer_hofmeister(0) == 0

    def test_improved_quadratic(self):
        assert improved_quadratic(7) == 14
        assert improved_quadratic(14) == 56
        assert improved_quadratic(1) == Fraction(2, 7)

    def test_coefficient_ordering(self):
        # k^2 coefficients: 1/4 < 10/36 < 2/7
        assert Fraction(1, 4) < Fraction(10, 36) < Fraction(2, 7)
        k = 10 ** 6
        assert (rohrbach_quadratic(k) - 2 * k < hammerer_hofmeister(k)
                < improved_quadratic(k))


class TestHofmeister:
    def test_examples(self):
        assert hofmeister_lower(3, 3) == Fraction(4, 3)
        assert hofmeister_lower(6, 6) == Fraction(16, 9)
        assert hofmeister_lower(5, 5) == Fraction(32, 21)

    def test_dominates_rohrbach_lower(self):
        for h in range(1, 9):
            for k in range(1, 9):
                assert hofmeister_lower(h, k) >= rohrbach(h, k)[0]


class TestZetaUppers:
    def test_hofmeister_value(self):
        expected = 1000 ** (1 / 3) * 3 / (4 / 3) ** (1 / 3)
        assert zeta_upper_hofmeister(3, 1000) == pytest.approx(expected)

    def test_hofmeister_h1(self):
        assert zeta_upper_hofmeister(1, 500) == pytest.approx(
            500 / (4 / 3) ** (1 / 3))

    def test_hofmeister_monotone_in_n(self):
        vals = [zeta_upper_hofmeister(3, n) for n in (10, 100, 1000, 10000)]
        assert vals == sorted(vals)

    def test_theorem1_in_regime(self):
        n = math.ceil(math.e ** 9)
        value, ok = zeta_upper_theorem1(3, n)
        assert ok
        expected = n ** (1 / 3) * (3 / math.e + 2.32 * math.log(math.log(n)))
        assert value == pytest.approx(expected)

    def test_theorem1_out_of_regime(self):
        _, ok = zeta_upper_theorem1(5, 10 ** 6)
        assert not ok

    def test_coefficient_identity(self):
        t = tau()
        assert abs((math.exp(t) - math.exp(-1)) / t - 2.32) <= 0.01


class TestBoseChowlaLower:
    def test_values(self):
        assert bose_chowla_lower(8, 2) == pytest.approx(math.sqrt(8))
        assert bose_chowla_lower(1, 5) == 1

    def test_matches_construction_size(self):
        for p, k in [(3, 2), (5, 2), (7, 2)]:
            n = p ** k - 1
            assert len(bose_chowla(p, k)) >= bose_chowla_lower(n, k) - 1


class TestBoundReports:
    def test_nk_family(self):
        names = {r.name for r in bound_reports(2, k=4)}
        assert {"rohrbach_lower", "rohrbach_upper", "rohrbach_quadratic",
                "hammerer_hofmeister", "improved_quadratic",
                "hofmeister_lower"} == names

    def test_zeta_family_flags_dropped_terms(self):
        for r in bound_reports(3, n=1000):
            assert r.asymptotic_terms_dropped == "o(h)"

    def test_rejects_ambiguous_inputs(self):
        with pytest.raises(ValueError):
            bound_reports(2, k=3, n=10)

    def test_every_exact_value_within_print_limit(self, monkeypatch):
        # (1/1369)^1369 has 4,294 digits and passes rohrbach's check, but
        # hofmeister_lower's denominator 3^456 1369^1369 has about 4,512; at
        # h = 1368 the 2s cancel and it has about 4,233
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        with pytest.raises(ValueError, match="^hofmeister_lower at h=1369, k=1 runs to over "
                                             "4300 digits, past Python's 4300-digit limit"):
            bound_reports(1369, k=1)
        for r in bound_reports(1368, k=1):
            assert len(str(r.value)) < 2 * 4300


class TestAgainstExactSearch:
    # the proven n(h, k) counts 0 among its k elements and the closed forms
    # count positive denominations, so each k is compared with bounds at k - 1
    K_MAX = {2: 12, 3: 8, 4: 7, 5: 6, 6: 6}

    def test_every_bound_holds_up_to_its_stated_drop(self):
        compared, over = 0, []
        for h, k_max in self.K_MAX.items():
            for k in range(2, k_max + 1):
                exact = extremal_n(h, k)
                assert exact.proof_of_optimality, (h, k)
                for r in bound_reports(h, k - 1):
                    compared += 1
                    if r.direction == "upper":
                        assert exact.value <= r.value, (r.name, h, k)
                    elif r.value > exact.value:
                        # only the stated delta <= 1 may lift a lower bound past n(h, k)
                        assert r.asymptotic_terms_dropped == "delta <= 1", (r.name, h, k)
                        assert r.value <= exact.value + 1, (r.name, h, k)
                        over.append((r.name, h, k))
        assert compared == 135
        assert over == [("rohrbach_quadratic", 2, k) for k in (2, 3, 4, 6, 7, 8)]
