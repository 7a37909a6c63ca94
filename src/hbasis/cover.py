"""Greedy shift covers in Z_q and k-complement families.

The existence arguments behind the shift-cover bound and the k-complement
size bound are realized constructively: each greedy round picks the shift
covering the most still-uncovered elements (ties to the smallest shift),
which by averaging removes at least an |A|/q fraction of the uncovered
mass and therefore meets the per-round bound |B \\ (A + X_j)| <=
(1 - |A|/q)^j |B|.

Sets enter and leave as bitmasks (ResidueSet).  Inside a round, B's
uncovered part U is a packed bit array: picking x reads and clears only
its bytes over [x, x + L) mod q, for a base A inside the window [0, L), and
that yields R - x, R = U & (A + x) what the pick newly covers.  The
remainder is packed back into a mask once, at the end of the round.  The
FFTs all run through `_correlate`, which works in buffers its caller
allocates once per round.  The gains of all q shifts start at |A|
when B is all of Z_q, as in every round k_complement runs; a partial B
seeds them with one circular cross-correlation of A and B.  When A's window
is short against q, the round then keeps the gains current locally: only
the shifts x + d with |d| < L can lose gain, each by |(A + x + d) & R|, a
linear correlation of A's window with R - x.  One FFT pair computes it at
the least even 5-smooth length n >= 2L - 1, which keeps every lag apart,
and the argmax reads maxima of blocks of gains, refreshed only where a
drop changed them, so such a pick does no q-point work.  The window is
taken whenever the power of two >= 2L is shorter than q, which also keeps
the 2L - 1 shifts of the drop distinct mod q; a base whose power of two
would be q or longer recomputes the full q-point correlation before every
pick after the first instead.  Counts are whole numbers up to q <= 2**26
(the memory budget), exact in float64 (below 2**53) once rounded, so both
paths hold exact gains, the gain of the pick is |R|, and the smallest-shift
tie-break is an argmax over exact values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log
from typing import TYPE_CHECKING

from .arith import check_bytes, iroot_ceil, to_bools
from .sumset import ResidueSet, residue_sumset

# numpy only for the annotations: each function that runs it imports it,
# so importing hbasis loads no numpy
if TYPE_CHECKING:
    import numpy as np

_BLOCK = 4096  # gains per block of the argmax's block maxima


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


def _correlate(buf: np.ndarray, conj: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """buf[d] = |(S + d) & M| over Z_n, n = buf.size, rounded, in place; returns buf.

    On entry buf holds M's indicator, zero-padded to n, and conj is the
    conjugated length-n rfft of S.  buf (float64, n) and spec (complex,
    conj's shape) are the caller's, so a round reuses them pick after pick.
    """
    import numpy as np

    np.fft.rfft(buf, out=spec)
    spec *= conj
    np.fft.irfft(spec, buf.size, out=buf)
    return np.rint(buf, out=buf)


def gains_bytes(q: int) -> int:
    """Peak bytes of a gains pass over Z_q.

    The full path and a partial B's seed hold A's q-point spectrum, the
    gains and a spectrum buffer, about 24q: 25.7-26.4 per residue measured
    at q = 2**20.  A windowed round on B = Z_q holds no q-point spectrum,
    only the gains and the window's FFT buffers, about 8q + 24n for a
    window FFT of n < q points: 9.3 per residue at q = 2**20 with n = 2**15,
    and 33.3 at n = q - 1, the case this model is kept for.
    """
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


def _arc(start: int, length: int, q: int):
    """[start, start + length) mod q, for 0 < length <= q, as at most two slices (lo, hi)."""
    lo = start % q
    yield lo, min(lo + length, q)
    if lo + length > q:
        yield 0, lo + length - q


def _bit_range(packed: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Bits lo..hi-1 of a little-endian packed mask: the unpacked bytes that hold
    them (bools), and the view of those bits inside."""
    import numpy as np

    bits = np.unpackbits(packed[lo >> 3:(hi + 7) >> 3], bitorder="little").view(bool)
    return bits, bits[lo & 7:(lo & 7) + hi - lo]


def _take(uncovered: np.ndarray, base: np.ndarray, base_len: int, q: int, x: int,
          out: np.ndarray | None) -> None:
    """Cover A + x: clear it from the packed uncovered mask of Z_q.

    A lies in [0, L), L = base_len, packed in base, so only the bytes over
    [x, x + L) mod q are unpacked, at most two runs.  out, of length L or
    None, receives R - x's indicator, R what the pick newly covers:
    out[a] = 1 iff a is in A and x + a was uncovered.
    """
    import numpy as np

    a = 0
    for lo, hi in _arc(x, base_len, q):
        bits, unc = _bit_range(uncovered, lo, hi)
        hit = _bit_range(base, a, a + hi - lo)[1]
        np.logical_and(unc, hit, out=hit)
        unc ^= hit
        # written back before the next run, which shares a byte with this one when L is near q
        uncovered[lo >> 3:(hi + 7) >> 3] = np.packbits(bits, bitorder="little")
        if out is not None:
            out[a:a + hi - lo] = hit
        a += hi - lo


def _subtract_drop(gains: np.ndarray, window_conj: np.ndarray, buf: np.ndarray,
                   spec: np.ndarray, base_len: int, x: int) -> list[tuple[int, int]]:
    """gains[x + d] -= |(A + x + d) & R| in place, for every d in (-L, L); returns
    the slices (lo, hi) of gains it changed.

    R is what picking x newly covered, and no shift outside x + (-L, L)
    loses gain.  R - x is a subset of A, so it lies in A's window [0, L),
    L = base_len; on entry buf[L - 1:2L - 1] holds its indicator.
    window_conj is the conjugated rfft of that window at the _window_len
    length n = buf.size, and buf and spec are the round's buffers of n and
    n/2 + 1 points.
    """
    span = 2 * base_len - 1
    # R - x moved up to [L - 1, 2L - 1): drop[i] = |(A + i - (L - 1)) & (R - x)|,
    # unwrapped for i < span since n >= 2L - 1
    buf[:base_len - 1] = 0
    buf[span:] = 0
    drop = _correlate(buf, window_conj, spec)
    arcs = list(_arc(x - base_len + 1, span, gains.size))  # span < q
    i = 0
    for lo, hi in arcs:
        gains[lo:hi] -= drop[i:i + hi - lo]
        i += hi - lo
    return arcs


def _refresh(gains: np.ndarray, block_max: np.ndarray, lo: int, hi: int) -> None:
    """Recompute the maxima of the _BLOCK-gain blocks that meet gains[lo:hi] (the last
    block may be short)."""
    import numpy as np

    b0, b1 = lo // _BLOCK, -(-hi // _BLOCK)
    block_max[b0:b1] = np.maximum.reduceat(gains[b0 * _BLOCK:b1 * _BLOCK],
                                           np.arange(0, (b1 - b0) * _BLOCK, _BLOCK))


def greedy_shift_cover(A: ResidueSet, B: ResidueSet, t: int) -> ShiftCover:
    """Up to t greedy shifts of A covering B; remainder = B \\ (A + X).

    The gains of all q shifts start at |A| when B is all of Z_q, and
    otherwise from one q-point correlation (the seed).  If A's window
    [0, L) is short against q (_window_len), each pick then subtracts its
    windowed drop; otherwise the gains are recomputed in full before each
    pick after the first.  Both keep exact gains (whole float64 counts up
    to q <= 2**26), so the picks (argmax, smallest shift on ties) do not
    depend on the path.  The argmax reads per-block maxima, refreshed only
    where the gains changed.  B's uncovered part stays a packed bit array
    for the round, and a pick touches only its bytes over [x, x + L).  Each
    path allocates its FFT buffers once per round, not per pick.
    Over-budget gains_bytes(q) raise GuardError before any array is allocated.
    """
    import numpy as np

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
    uncovered = np.frombuffer(bytearray(B.bits.to_bytes((q + 7) // 8, "little")), np.uint8)
    base = np.frombuffer(A.bits.to_bytes((base_len + 7) // 8, "little"), np.uint8)
    left = len(B)
    # on B = Z_q every shift of A covers |A| residues; a partial B is seeded
    gains = np.full(q, float(len(A)) if left == q else 0.0)
    seed = 0 < left < q and t > 0
    if seed or not n:  # A's q-point spectrum feeds the seed and the full recomputes
        fa_conj = np.conj(np.fft.rfft(to_bools(A.bits, q)))
        spec = np.empty(q // 2 + 1, complex)
    if seed:
        gains[:] = to_bools(B.bits, q)
        _correlate(gains, fa_conj, spec)
    if n:
        # free the seed's q-point spectrum and buffer before the window's, so a
        # pick's FFTs of length n < q peak near 8q + 24n bytes
        fa_conj = spec = None
        window_conj = np.conj(np.fft.rfft(to_bools(A.bits, base_len), n))
        # pocketfft allocates scratch of about n doubles per transform.  glibc
        # maps a block that size afresh each call, page faults and all, until
        # freeing a larger mapped block raises its threshold: this untouched
        # one of 2n doubles does, so the drops' scratch reuses heap pages.
        # `cli.main` fixes both thresholds first (`arith.keep_heap`), so this
        # matters only to library callers, such as a direct `build_theorem1`
        np.empty(2 * n)
        buf, spec = np.empty(n), np.empty(n // 2 + 1, complex)
    block_max = np.empty(-(-q // _BLOCK))
    _refresh(gains, block_max, 0, q)
    picks: list[int] = []
    trace: list[int] = []
    while left and len(picks) < t:
        if picks and not n:  # the full path's first pick reads the seed or the |A| fill
            gains[:] = np.unpackbits(uncovered, count=q, bitorder="little")
            _correlate(gains, fa_conj, spec)
            _refresh(gains, block_max, 0, q)
        b = int(block_max.argmax()) * _BLOCK  # the first block holding the maximum
        x = b + int(gains[b:b + _BLOCK].argmax())
        left -= int(gains[x])  # the exact gain of x is |R|
        _take(uncovered, base, base_len, q, x, buf[base_len - 1:2 * base_len - 1] if n else None)
        picks.append(x)
        trace.append(left)
        if n and left and len(picks) < t:  # the last pick's drop would go unread
            for lo, hi in _subtract_drop(gains, window_conj, buf, spec, base_len, x):
                _refresh(gains, block_max, lo, hi)
    return ShiftCover(X=ResidueSet.from_iterable(q, picks),
                      remainder=ResidueSet(q, int.from_bytes(uncovered.tobytes(), "little")),
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
