"""Greedy shift covers in Z_q and k-complement families.

The existence arguments behind the shift-cover bound and the k-complement
size bound are realized constructively: each greedy round picks the shift
covering the most still-uncovered elements (ties to the smallest shift),
which by averaging removes at least an |A|/q fraction of the uncovered
mass and therefore meets the per-round bound |B \\ (A + X_j)| <=
(1 - |A|/q)^j |B|.

Sets stay bitmasks (ResidueSet) throughout: a pick clears the rotated base
from the uncovered mask, and popcounts give the trace.  numpy only feeds
the FFTs.  Each round seeds the gains of all q shifts with one circular
cross-correlation of the unpacked base and uncovered masks.  When the base
A lies in a window [0, L) short against q, the round then keeps that array
current locally: picking x newly covers R = U & (A + x), and only the
shifts x + d with |d| < L can lose gain, each by |(A + x + d) & R|, a
linear correlation of A's window with R - x that one power-of-two FFT of
length >= 2L computes.  A base whose window FFT would be longer than q/2
saves nothing that way and recomputes the full correlation before every
pick instead.  Counts are integers, so rounding restores exactness on both
paths and the smallest-shift tie-break is an argmax over exact values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log

import numpy as np

from .arith import check_bytes, rotate, to_bools
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

    base: ResidueSet
    families: tuple[ResidueSet, ...]
    complete: bool
    over_budget: bool

    @property
    def q(self) -> int:
        return self.base.q

    @property
    def family_sizes(self) -> tuple[int, ...]:
        return tuple(len(X) for X in self.families)

    @property
    def total_shifts(self) -> int:
        return sum(self.family_sizes)

    @property
    def union(self) -> ResidueSet:
        """X_1 u ... u X_k, the complement itself."""
        bits = 0
        for X in self.families:
            bits |= X.bits
        return ResidueSet(self.q, bits)

    @property
    def union_size(self) -> int:
        return len(self.union)


def _gains_fft(fa_conj: np.ndarray, uncovered: np.ndarray, q: int) -> np.ndarray:
    """gains[x] = |(A + x) & U| for all shifts x, via circular correlation."""
    spec = np.fft.rfft(uncovered.astype(np.float64)) * fa_conj
    return np.rint(np.fft.irfft(spec, q)).astype(np.int64)


def gains_bytes(q: int) -> int:
    """Peak bytes of a gains pass over Z_q: measured 33.0-33.8 per residue at q = 2**20."""
    return 34 * q


def _window_len(base_len: int, q: int) -> int:
    """FFT length of the windowed drop for a base inside [0, base_len), or 0.

    The power of two >= 2 * base_len keeps every difference in
    (-base_len, base_len) apart.  0 selects the full recompute when that
    length exceeds q/2: between q/2 and q the window's per-pick work
    measured slower than one full FFT on smooth q such as 270,000.
    """
    n = 1 << (2 * base_len - 1).bit_length()
    return n if 2 * n <= q else 0


def _subtract_drop(gains: np.ndarray, window_conj: np.ndarray, base_len: int,
                   covered: int, x: int) -> None:
    """gains[x + d] -= |(A + x + d) & R| in place, for every d in (-L, L).

    R is what picking x newly covered, and no shift outside x + (-L, L)
    loses gain.  covered = R - x is a subset of A, so it lies in A's window
    [0, L), L = base_len.  window_conj is the conjugated rfft of that window
    at the even _window_len length n = 2 * (bins - 1).
    """
    n = 2 * (window_conj.size - 1)
    spec = np.fft.rfft(to_bools(covered, base_len).astype(np.float64), n) * window_conj
    # corr[d mod n] = |(A + d) & covered|; roll puts d = -(L - 1) first
    corr = np.roll(np.fft.irfft(spec, n), base_len - 1)[:2 * base_len - 1]
    gains[np.arange(x - base_len + 1, x + base_len) % gains.size] -= np.rint(corr).astype(np.int64)


def greedy_shift_cover(A: ResidueSet, B: ResidueSet, t: int) -> ShiftCover:
    """Up to t greedy shifts of A covering B; remainder = B \\ (A + X).

    One FFT seeds the gains of all q shifts.  If A's window [0, L) is short
    against q (_window_len), each pick then subtracts its windowed drop;
    otherwise the gains are recomputed in full before each pick.  Both keep
    exact integer gains, so the picks (argmax, smallest shift on ties) do
    not depend on the path.  Over-budget gains_bytes(q) raise GuardError
    before any array is allocated.
    """
    if len(A) == 0:
        raise ValueError("base set must be non-empty")
    if A.q != B.q:
        raise ValueError("modulus mismatch")
    if t < 0:
        raise ValueError("shift budget must be >= 0")
    q = A.q
    check_bytes(gains_bytes(q), f"gains over Z_{q}")
    base_len = A.bits.bit_length()
    n = _window_len(base_len, q)
    base = to_bools(A.bits, q).astype(np.float64)
    fa_conj = np.conj(np.fft.rfft(base))
    window_conj = np.conj(np.fft.rfft(base[:base_len], n)) if n else None
    del base
    uncovered = B.bits
    picks: list[int] = []
    trace: list[int] = []
    gains = None
    while uncovered and len(picks) < t:
        if gains is None:
            gains = _gains_fft(fa_conj, to_bools(uncovered, q), q)
        x = int(np.argmax(gains))
        covered = uncovered & rotate(A.bits, x, q)
        uncovered ^= covered
        picks.append(x)
        trace.append(uncovered.bit_count())
        if n:
            _subtract_drop(gains, window_conj, base_len, rotate(covered, -x, q), x)
        else:
            gains = None  # freed before the next full recompute
    return ShiftCover(X=ResidueSet.from_iterable(q, picks), remainder=ResidueSet(q, uncovered),
                      picks=tuple(picks), uncovered_trace=tuple(trace))


def complement_size_bound(q: int, alpha: int, k: int) -> int:
    """k * ceil((q ln q / alpha)^{1/k}) + ceil(ln q)."""
    if q < 2 or alpha < 1 or k < 1:
        raise ValueError("need q >= 2, alpha >= 1, k >= 1")
    return k * ceil((q * log(q) / alpha) ** (1.0 / k)) + ceil(log(q))


def k_complement(A: ResidueSet, k: int) -> ComplementFamily:
    """Greedy k-complement of A in Z_q.

    Rounds 1..k-1 grow the base with budget t = ceil((q ln q / |A|)^{1/k});
    each targets all of Z_q, so the grown base A + X_1 + ... + X_j is Z_q
    minus that round's greedy remainder.  The final round gets
    t + ceil(ln q) and runs greedy to a full cover; over_budget records
    that it needed more than its budget.  Completeness is re-verified
    through the sumset module, never assumed: the grown base
    A + X_1 + ... + X_{k-1} plus the final family must be all of Z_q.
    Over-budget gains_bytes(q) raise GuardError before any q-bit mask.
    """
    if len(A) == 0:
        raise ValueError("base set must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    q = A.q
    if q == 1:
        return ComplementFamily(base=A, families=(), complete=True, over_budget=False)
    check_bytes(gains_bytes(q), f"gains over Z_{q}")

    t = ceil((q * log(q) / len(A)) ** (1.0 / k))
    full = ResidueSet.full(q)
    families: list[ResidueSet] = []
    cur = A
    for _ in range(k - 1):
        res = greedy_shift_cover(cur, full, t)
        families.append(res.X)
        cur = ResidueSet(q, full.bits ^ res.remainder.bits)

    res = greedy_shift_cover(cur, full, q)
    over_budget = len(res.picks) > t + ceil(log(q))
    families.append(res.X)

    complete = len(residue_sumset(cur, [res.X])) == q
    return ComplementFamily(base=A, families=tuple(families),
                            complete=complete, over_budget=over_budget)
