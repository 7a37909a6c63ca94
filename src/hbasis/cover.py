"""Greedy shift covers in Z_q and k-complement families.

The existence arguments behind the shift-cover bound and the k-complement
size bound are realized constructively: each greedy round picks the shift
covering the most still-uncovered elements (ties to the smallest shift),
which by averaging removes at least an |A|/q fraction of the uncovered
mass and therefore meets the per-round bound |B \\ (A + X_j)| <=
(1 - |A|/q)^j |B|.

Sets stay bitmasks (ResidueSet) throughout: a pick clears the rotated base
from the uncovered mask, and popcounts give the trace.  numpy only feeds
the FFTs, all through `_correlate`, which works in buffers its caller
allocates once per round.  Each round seeds the gains of all q shifts with
one circular cross-correlation of the unpacked base and uncovered masks.
When the base A lies in a window [0, L) short against q, the round then
keeps that array current locally: picking x newly covers R = U & (A + x),
and only the shifts x + d with |d| < L can lose gain, each by
|(A + x + d) & R|, a linear correlation of A's window with R - x.  One FFT
pair computes it at the least even 5-smooth length n >= 2L - 1, which
keeps every lag apart.  The window is taken whenever the power of two
>= 2L is shorter than q, which also keeps the 2L - 1 shifts of the drop
distinct mod q; a base whose power of two would be q or longer
recomputes the full q-point correlation before every pick instead.
Counts are whole numbers up to q <= 2**26 (the memory budget), exact in
float64 (below 2**53) once rounded, so both paths hold exact gains and the
smallest-shift tie-break is an argmax over exact values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log

import numpy as np

from .arith import check_bytes, iroot_ceil, rotate, to_bools
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


def _correlate(mask: int, length: int, conj: np.ndarray, buf: np.ndarray,
               spec: np.ndarray) -> np.ndarray:
    """buf[d] = |(S + d) & M| over Z_n, n = buf.size, rounded, in place; returns buf.

    M is bits 0..length-1 of mask, zero-padded to n, and conj is the
    conjugated length-n rfft of S.  buf (float64, n) and spec (complex,
    conj's shape) are the caller's, so a round reuses them pick after pick.
    """
    buf[:length] = to_bools(mask, length)
    buf[length:] = 0
    np.fft.rfft(buf, out=spec)
    spec *= conj
    np.fft.irfft(spec, buf.size, out=buf)
    return np.rint(buf, out=buf)


def gains_bytes(q: int) -> int:
    """Peak bytes of a gains pass over Z_q: the seed holds A's spectrum, the gains and
    a spectrum buffer, about 24q; measured 25.1-25.9 per residue at q = 2**20 and
    3 * 2**18, and 33.7 with a window FFT of q - 1 points (about 8q + 24n per pick)."""
    return 34 * q


def _fast_len(m: int) -> int:
    """Least even 2**a * 3**b * 5**c >= m: an FFT length pocketfft splits into radix 2-5."""
    best = 1 << max(m - 1, 1).bit_length()  # the least even power of two >= m
    p5 = 1
    while p5 < best:
        odd = p5
        while odd < best:
            n = 2 * odd
            while n < m:
                n *= 2
            best = min(best, n)
            odd *= 3
        p5 *= 5
    return best


def _window_len(base_len: int, q: int) -> int:
    """FFT length of the windowed drop for a base inside [0, base_len), or 0.

    The window is taken iff the power of two >= 2 * base_len is shorter
    than q: then 2 * base_len - 1 < q, so the drop's shifts x + d never meet
    mod q.  0 selects the full recompute.  The length returned is
    _fast_len(2 * base_len - 1), the least even 5-smooth n >= 2L - 1, never
    longer than that power of two: 259,200 against 2**18 in round 2 of
    (5, 1e7).  n >= 2L - 1 keeps every lag of the drop's linear correlation
    unwrapped, and evenness gives its spectrum n/2 + 1 bins.  The rule stays
    on the power of two, so each base keeps its path and its memory peak: a
    rule on n itself would window k_complement's short base at q = 2**20 in
    its second round, at n = 983,040 and a 32.7q peak.  A shorter FFT is not
    always a cheaper pick: on the smooth q = 270,000 with base_len = 131,000
    (n = 2**18 then), 25 picks measured 0.17 s in full and 0.18-0.21 s
    windowed, and at q = 625 with n = 512 the window's fixed per-pick work
    outweighs its FFT saving.
    """
    if 1 << (2 * base_len - 1).bit_length() >= q:
        return 0
    return _fast_len(2 * base_len - 1)


def _subtract_drop(gains: np.ndarray, window_conj: np.ndarray, buf: np.ndarray,
                   spec: np.ndarray, base_len: int, covered: int, x: int) -> None:
    """gains[x + d] -= |(A + x + d) & R| in place, for every d in (-L, L).

    R is what picking x newly covered, and no shift outside x + (-L, L)
    loses gain.  covered = R - x is a subset of A, so it lies in A's window
    [0, L), L = base_len.  window_conj is the conjugated rfft of that window
    at the _window_len length n = buf.size, and buf and spec are the
    round's buffers of n and n/2 + 1 points.
    """
    span = 2 * base_len - 1
    # covered moved up to [L - 1, 2L - 1): drop[i] = |(A + i - (L - 1)) & covered|,
    # unwrapped for i < span since n >= 2L - 1
    drop = _correlate(covered << (base_len - 1), span, window_conj, buf, spec)[:span]
    # gains[lo:lo + span] mod q, as at most two slices (span < q)
    lo = (x - base_len + 1) % gains.size
    head = min(span, gains.size - lo)
    gains[lo:lo + head] -= drop[:head]
    if head < span:
        gains[:span - head] -= drop[head:]


def greedy_shift_cover(A: ResidueSet, B: ResidueSet, t: int) -> ShiftCover:
    """Up to t greedy shifts of A covering B; remainder = B \\ (A + X).

    One FFT seeds the gains of all q shifts.  If A's window [0, L) is short
    against q (_window_len), each pick then subtracts its windowed drop;
    otherwise the gains are recomputed in full before each pick.  Both keep
    exact gains (whole float64 counts up to q <= 2**26), so the picks
    (argmax, smallest shift on ties) do not depend on the path.  Each path
    allocates its FFT buffers once per round, not per pick.
    Over-budget gains_bytes(q) raise GuardError before any array is allocated.
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
    fa_conj = np.conj(np.fft.rfft(to_bools(A.bits, q)))
    gains, spec = np.empty(q), np.empty(q // 2 + 1, complex)
    uncovered = B.bits
    if n:
        if uncovered and t:
            _correlate(uncovered, q, fa_conj, gains, spec)
        # only the seed reads A's q-point spectrum and its buffer: free them
        # before the window's, so a pick's FFTs of length n < q peak near 8q + 24n bytes
        fa_conj = spec = None
        window_conj = np.conj(np.fft.rfft(to_bools(A.bits, base_len), n))
        buf, spec = np.empty(n), np.empty(n // 2 + 1, complex)
    picks: list[int] = []
    trace: list[int] = []
    while uncovered and len(picks) < t:
        if not n:
            _correlate(uncovered, q, fa_conj, gains, spec)
        x = int(np.argmax(gains))
        covered = uncovered & rotate(A.bits, x, q)
        uncovered ^= covered
        picks.append(x)
        trace.append(uncovered.bit_count())
        if n and uncovered and len(picks) < t:  # the last pick's drop would go unread
            _subtract_drop(gains, window_conj, buf, spec, base_len, rotate(covered, -x, q), x)
    return ShiftCover(X=ResidueSet.from_iterable(q, picks), remainder=ResidueSet(q, uncovered),
                      picks=tuple(picks), uncovered_trace=tuple(trace))


def complement_size_bound(q: int, alpha: int, k: int) -> int:
    """k * ceil((q ln q / alpha)^{1/k}) + ceil(ln q).

    Where q ln q / alpha passes the float range, the root is replaced by an
    integer upper bound, iroot_ceil(ceil(q b / alpha), k) with b the bit
    length of q (b > ln q), so no q is refused for its size.
    """
    if q < 2 or alpha < 1 or k < 1:
        raise ValueError("need q >= 2, alpha >= 1, k >= 1")
    try:
        root = ceil((q * log(q) / alpha) ** (1.0 / k))
    except OverflowError:
        root = iroot_ceil(-(-q * q.bit_length() // alpha), k)
    return k * root + ceil(log(q))


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
