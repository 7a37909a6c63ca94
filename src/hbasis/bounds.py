"""Closed-form evaluators for the classical n(h,k) and zeta(h,n) bounds.

Exact rational arithmetic (fractions.Fraction) wherever the formula
permits; floating point only for fractional powers and logarithms.
Dropped asymptotic terms are flagged on every report so main terms are
never presented as exact bounds.  Logarithms are natural throughout.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, e, gcd, lgamma, log, log10


@dataclass(frozen=True)
class BoundReport:
    name: str
    value: object  # Fraction, int, or float
    direction: str  # "lower" | "upper"
    asymptotic_terms_dropped: str | None = None
    note: str | None = None


def rohrbach(h: int, k: int) -> tuple[Fraction, int]:
    """(k/h)^h <= n(h,k) <= C(k+h, h); ValueError, before computing them, if
    either passes Python's int printing limit (sys.get_int_max_str_digits())."""
    if h < 1 or k < 1:
        raise ValueError("need h >= 1, k >= 1")
    # (k/h)^h is (k/g)^h / (h/g)^h, g = gcd(h, k); a limit of 0 means none
    digits = max(h * log10(max(h, k) // gcd(h, k)),
                 (lgamma(h + k + 1) - lgamma(h + 1) - lgamma(k + 1)) / log(10))
    if 0 < (limit := sys.get_int_max_str_digits()) <= digits:
        raise ValueError(f"rohrbach bounds at h={h}, k={k} run to {ceil(digits)} digits, "
                         f"past Python's {limit}-digit limit for printing an int")
    return Fraction(k, h) ** h, comb(k + h, h)


def rohrbach_quadratic(k: int) -> Fraction:
    """n(2,k) lower bound k^2/4 + 2k; the delta <= 1 correction is dropped."""
    if k < 0:
        raise ValueError("need k >= 0")
    return Fraction(k * k, 4) + 2 * k


def hammerer_hofmeister(k: int) -> Fraction:
    """n(2,k) lower bound (10/9)(k^2/4)."""
    if k < 0:
        raise ValueError("need k >= 0")
    return Fraction(10, 9) * Fraction(k * k, 4)


def improved_quadratic(k: int) -> Fraction:
    """n(2,k) lower bound (2/7)k^2."""
    if k < 0:
        raise ValueError("need k >= 0")
    return Fraction(2, 7) * k * k


def hofmeister_lower(h: int, k: int) -> Fraction:
    """Main term (4/3)^{floor(h/3)} (8/7)^{floor((h mod 3)/2)} (k/h)^h.

    The -O(k^{h-1}) term is dropped.
    """
    if h < 1 or k < 1:
        raise ValueError("need h >= 1, k >= 1")
    thirds = h // 3
    halves = (h - 3 * thirds) // 2
    return Fraction(4, 3) ** thirds * Fraction(8, 7) ** halves * Fraction(k, h) ** h


def zeta_upper_hofmeister(h: int, n: int) -> float:
    """Main term n^{1/h} h / (4/3)^{1/3}; the o(h) term is dropped."""
    if h < 1 or n < 1:
        raise ValueError("need h >= 1, n >= 1")
    return n ** (1.0 / h) * h / (4.0 / 3.0) ** (1.0 / 3.0)


def zeta_upper_theorem1(h: int, n: int) -> tuple[float, bool]:
    """Main term n^{1/h} (h/e + 2.32 ln ln n), with the n >= e^{h^2} flag.

    The o(h) term is dropped; the flag is false whenever the stated regime
    does not hold, which at desk scale is almost always.
    """
    if h < 1 or n < 3:
        raise ValueError("need h >= 1, n >= 3")
    value = n ** (1.0 / h) * (h / e + 2.32 * log(log(n)))
    return value, log(n) >= h * h


def bose_chowla_lower(n: int, k: int) -> float:
    """Main term n^{1/k} of the Phi_k(n) lower bound; o(n^{1/k}) dropped."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1, k >= 1")
    return n ** (1.0 / k)


def bound_reports(h: int, k: int | None = None, n: int | None = None) -> list[BoundReport]:
    """All bounds applicable to the given inputs, for tables and ledgers."""
    if (k is None) == (n is None):
        raise ValueError("give exactly one of k, n")
    reports: list[BoundReport] = []
    if k is not None:
        lo, hi = rohrbach(h, k)
        reports.append(BoundReport("rohrbach_lower", lo, "lower"))
        reports.append(BoundReport("rohrbach_upper", hi, "upper"))
        if h == 2:
            reports.append(BoundReport("rohrbach_quadratic", rohrbach_quadratic(k), "lower",
                                       asymptotic_terms_dropped="delta <= 1"))
            reports.append(BoundReport("hammerer_hofmeister", hammerer_hofmeister(k), "lower"))
            reports.append(BoundReport("improved_quadratic", improved_quadratic(k), "lower"))
        reports.append(BoundReport("hofmeister_lower", hofmeister_lower(h, k), "lower",
                                   asymptotic_terms_dropped="O(k^(h-1))"))
    else:
        reports.append(BoundReport("zeta_upper_hofmeister", zeta_upper_hofmeister(h, n), "upper",
                                   asymptotic_terms_dropped="o(h)"))
        value, regime_ok = zeta_upper_theorem1(h, n)
        reports.append(BoundReport("zeta_upper_theorem1", value, "upper",
                                   asymptotic_terms_dropped="o(h)",
                                   note=f"regime n >= e^(h^2) {'holds' if regime_ok else 'does not hold'}"))
    return reports
