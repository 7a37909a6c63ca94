"""Greedy shift covers in Z_q and k-complement families.

The existence arguments behind the shift-cover bound and the k-complement
size bound are realized constructively: each greedy round picks the shift
covering the most still-uncovered elements (ties to the smallest shift),
which by averaging removes at least an |A|/q fraction of the uncovered
mass and therefore meets the per-round bound |B \\ (A + X_j)| <=
(1 - |A|/q)^j |B|.

Per-round gains for all q shifts come from one circular cross-correlation
(FFT); counts are integers, so rounding restores exactness and the
smallest-shift tie-break is an argmax over exact values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log

import numpy as np

from .sumset import ResidueSet, residue_sumset


@dataclass(frozen=True)
class ShiftCover:
    """Greedy shift-cover outcome, with the pick order and per-step trace."""

    X: ResidueSet
    remainder: ResidueSet
    picks: tuple[int, ...]          # shifts in greedy order
    uncovered_trace: tuple[int, ...]  # |B \ (A + X_j)| after each pick


@dataclass(frozen=True)
class ComplementFamily:
    """Families X_1..X_k with A + X_1 + ... + X_k = Z_q when complete."""

    q: int
    base: ResidueSet
    families: tuple[ResidueSet, ...]
    complete: bool
    over_budget: bool

    @property
    def family_sizes(self) -> tuple[int, ...]:
        return tuple(len(X) for X in self.families)

    @property
    def total_shifts(self) -> int:
        return sum(self.family_sizes)

    @property
    def union_size(self) -> int:
        """|X_1 u ... u X_k|, the size of the complement."""
        u = set()
        for X in self.families:
            u.update(X.members)
        return len(u)


def _gains_fft(fa_conj: np.ndarray, uncovered: np.ndarray, q: int) -> np.ndarray:
    """gains[x] = |(A + x) & U| for all shifts x, via circular correlation."""
    spec = np.fft.rfft(uncovered.astype(np.float64)) * fa_conj
    return np.rint(np.fft.irfft(spec, q)).astype(np.int64)


def gains_naive(A: ResidueSet, uncovered_members) -> list[int]:
    """Reference gain computation; cross-checked against the FFT path in tests."""
    q = A.q
    unc = set(uncovered_members)
    return [sum(1 for a in A.members if (a + x) % q in unc) for x in range(q)]


def _greedy(a_arr: np.ndarray, fa_conj: np.ndarray, uncovered: np.ndarray,
            q: int, budget) -> tuple[list[int], list[int]]:
    picks: list[int] = []
    trace: list[int] = []
    while uncovered.any() and (budget is None or len(picks) < budget):
        gains = _gains_fft(fa_conj, uncovered, q)
        x = int(np.argmax(gains))
        picks.append(x)
        uncovered[(a_arr + x) % q] = False
        trace.append(int(uncovered.sum()))
    return picks, trace


def greedy_shift_cover(A: ResidueSet, B: ResidueSet, t: int) -> ShiftCover:
    """Up to t greedy shifts of A covering B; remainder = B \\ (A + X)."""
    if len(A) == 0:
        raise ValueError("base set must be non-empty")
    if A.q != B.q:
        raise ValueError("modulus mismatch")
    if t < 0:
        raise ValueError("shift budget must be >= 0")
    q = A.q
    a_arr = np.array(A.members, dtype=np.int64)
    ind = np.zeros(q, dtype=np.float64)
    ind[a_arr] = 1.0
    fa_conj = np.conj(np.fft.rfft(ind))
    uncovered = np.zeros(q, dtype=bool)
    uncovered[list(B.members)] = True
    picks, trace = _greedy(a_arr, fa_conj, uncovered, q, t)
    remainder = ResidueSet(q, tuple(int(v) for v in np.flatnonzero(uncovered)))
    return ShiftCover(X=ResidueSet.from_iterable(q, picks), remainder=remainder,
                      picks=tuple(picks), uncovered_trace=tuple(trace))


def complement_size_bound(q: int, alpha: int, k: int) -> int:
    """k * ceil((q ln q / alpha)^{1/k}) + ceil(ln q)."""
    if q < 2 or alpha < 1 or k < 1:
        raise ValueError("need q >= 2, alpha >= 1, k >= 1")
    return k * ceil((q * log(q) / alpha) ** (1.0 / k)) + ceil(log(q))


def k_complement(A: ResidueSet, k: int) -> ComplementFamily:
    """Greedy k-complement of A in Z_q.

    Rounds 1..k-1 grow the base with budget t = ceil((q ln q / |A|)^{1/k});
    the final round gets t + ceil(ln q).  The final round runs greedy to a
    full cover; over_budget records that it needed more than its budget.
    Completeness is re-verified through the sumset module, never assumed.
    """
    if len(A) == 0:
        raise ValueError("base set must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    q = A.q
    if q == 1:
        return ComplementFamily(q=1, base=A, families=(), complete=True, over_budget=False)

    t = ceil((q * log(q) / len(A)) ** (1.0 / k))
    full = ResidueSet.full(q)
    families: list[ResidueSet] = []
    cur = A
    for _ in range(k - 1):
        res = greedy_shift_cover(cur, full, t)
        families.append(res.X)
        cur = residue_sumset(cur, [res.X])

    res = greedy_shift_cover(cur, full, q)
    over_budget = len(res.picks) > t + ceil(log(q))
    families.append(res.X)

    covered = residue_sumset(A, families)
    complete = len(covered) == q
    return ComplementFamily(q=q, base=A, families=tuple(families),
                            complete=complete, over_budget=over_budget)
