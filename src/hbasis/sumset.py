"""Exact h-fold sumset computation over [0, limit] and over Z_q.

Coverage is a dense bitmask from the `arith` bitset kernel, built by one
recurrence, `_grow`: the j-sums S_j of the elements taken so far (S_0 = 1)
grow by each element e, S_j |= S_{j-1} << e for j = 1..h ascending, so
S_{j-1} already holds e (repetition allowed).  An operand longer than
[0, limit - e] is clipped first; that is sound because every element is
non-negative.  `coverage_layers` grows full layers by this step: B's
layers in `construct.build_theorem1`, and the tests' reference.
`_first_gap` (and so `verify_basis` and `n_of`) grows only the bits a later
element can still read: S_1..S_{h-1} by this step with limit n - e, and
S_h, which is only checked, above the prefix already checked.
`search.extremal_n` inlines the same recurrence on purpose: a `_grow` call
per child made the benchmark's search ladder, (h, k) = (2, 11) (3, 8)
(4, 7) (6, 6), slower in 6 of 6 alternating runs (median 0.77 s inline
against 1.23 s with the call, 2-core host).

A subset of Z_q (ResidueSet) is a mask too, over [0, q-1]; shifts in Z_q
are rotations of that mask.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .arith import (bits_to_sorted, check_bytes, lowest_clear, mask_bytes,
                    mask_of, rotate, window)


@dataclass(frozen=True)
class BasisSet:
    """Sorted, distinct non-negative integers; candidate or verified h-basis."""

    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(self.elements)
        object.__setattr__(self, "elements", elems)
        if not elems:
            raise ValueError("empty basis set")
        if elems[0] < 0:
            raise ValueError("negative element in basis set")
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise ValueError("elements must be strictly increasing")

    @classmethod
    def from_iterable(cls, values) -> "BasisSet":
        return cls(tuple(sorted(set(values))))

    def __len__(self):
        return len(self.elements)

    def __contains__(self, v):
        i = bisect_left(self.elements, v)
        return i < len(self.elements) and self.elements[i] == v

    @property
    def max(self) -> int:
        return self.elements[-1]


@dataclass(frozen=True)
class ResidueSet:
    """Subset of Z_q as a bitmask over [0, q-1]: bit v set iff v is a member."""

    q: int
    bits: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("modulus must be >= 1")
        if self.bits < 0 or self.bits.bit_length() > self.q:
            raise ValueError("mask must lie in [0, 2**q - 1]")

    @classmethod
    def from_iterable(cls, q: int, values) -> "ResidueSet":
        values = tuple(values)
        if values and (min(values) < 0 or max(values) >= q):
            raise ValueError("members must lie in [0, q-1]")
        return cls(q, mask_of(values))

    @classmethod
    def full(cls, q: int) -> "ResidueSet":
        return cls(q, window(q - 1))

    def __len__(self):
        return self.bits.bit_count()

    def __contains__(self, v):
        return 0 <= v < self.q and (self.bits >> v) & 1 == 1

    @property
    def members(self) -> tuple[int, ...]:
        return bits_to_sorted(self.bits)


@dataclass(frozen=True)
class Certificate:
    """Outcome of a basis verification: ok, or the least uncovered integer."""

    ok: bool
    first_gap: int | None = None


def _grow(S: list[int], e: int, limit: int) -> None:
    """Add element e to the layer list S = [S_0, ..., S_h] in place.

    S_j |= S_{j-1} << e for j = 1..h ascending.  An operand is clipped to
    [0, limit - e] only when it is longer, so no layer grows past limit;
    the clip mask is built at the first such operand and lives for one call.
    """
    room = limit - e
    clip = None
    for j in range(1, len(S)):
        src = S[j - 1]
        if src.bit_length() > room + 1:
            if clip is None:
                clip = window(room)
            src &= clip
        S[j] |= src << e


def layers_bytes(h: int, limit: int) -> int:
    """Peak bytes of h + 1 layers over [0, limit] grown by `_grow`: at most h + 3 masks (layer i
    holds min(i e, limit) bits while e is added), plus ~40 bytes per layer.  This models the
    peak of `coverage_layers`; for `verify_basis` and `n_of` it is an upper bound (digit bases
    at n = 2e6 and 8e6 peak at 3.0 masks at h = 2 up to 12.3 at h = 12, against h + 3)."""
    return (h + 3) * mask_bytes(limit) + 40 * (h + 1)


def coverage_layers(A: BasisSet, h: int, limit: int) -> list[int]:
    """Bitmasks of the exactly-i sumsets for i = 0..h, each clipped to [0, limit].

    layers[i] has bit z set iff z is a sum of exactly i elements of A
    (layers[0] = 1, the empty sum); `backtrack_witness` reads the lower ones.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    if limit < 0:
        raise ValueError("limit must be >= 0")
    check_bytes(layers_bytes(h, limit), f"{h + 1} sum layers over [0, {limit}]")
    layers = [1] + [0] * h
    for e in A.elements:
        if e > limit:
            break
        _grow(layers, e, limit)
    return layers


def n_of(A: BasisSet, h: int):
    """Largest n with [0, n] contained in the exactly-h sumset, or None.

    None iff 0 is not in A: then 0 has no h-representation and no interval
    [0, n] is covered.  No covered run can pass h*max(A), so the scan stops
    there.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    if A.elements[0] != 0:
        return None
    limit = h * A.max
    gap = _first_gap(A.elements, h, limit)
    return limit if gap is None else gap - 1


def verify_basis(A: BasisSet, h: int, n: int) -> Certificate:
    """Decision form of [0, n] subset of hA, with the least gap on failure."""
    if h < 1:
        raise ValueError("h must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    gap = _first_gap(A.elements, h, n)
    if gap is None:
        return Certificate(ok=True)
    return Certificate(ok=False, first_gap=gap)


def _first_gap(elements: tuple[int, ...], h: int, n: int):
    """Least z in [0, n] that is no sum of exactly h elements, or None.

    The elements are added one at a time in ascending order, and only bits a
    later step can still read are grown.  S_1..S_{h-1} are read only as shift
    sources for the current element e or a later one, so only their bits in
    [0, n - e] matter: they grow by `_grow` with limit n - e, and not at all
    once 2e > n.  S_h is only checked.  It is held as top = S_h >> o, where
    every z < o is already checked covered, and grows by
    (S_{h-1} & [0, n - e]) << (e - o), as e >= o.  After element e_i no later
    sum can fall below e_{i+1}, so the bits of S_h below it are final; they are
    checked on a doubling schedule (O(n) bits in total), the first gap found
    is the least one, and a covered prefix is shifted out of top.
    """
    check_bytes(layers_bytes(h, n), f"{h + 1} sum layers over [0, {n}]")
    elems = [e for e in elements if e <= n]
    if not elems or elems[0] > 0:
        return 0  # 0 is a sum of h elements only as 0 + ... + 0
    low = [1] + [0] * (h - 1)
    top = o = due = 0
    for i, e in enumerate(elems):
        room = n - e
        if 2 * e <= n:
            _grow(low, e, room)
        src = low[-1]
        if src.bit_length() > room + 1:
            src &= window(room)
        top |= src << (e - o)
        final = elems[i + 1] - 1 if i + 1 < len(elems) else n
        if final >= due:
            gap = lowest_clear(top, final - o)
            if gap is not None:
                return gap + o
            top >>= final + 1 - o
            o = final + 1
            due = min(2 * final + 1, n)
    return None


def backtrack_witness(layers: list[int], elements: tuple[int, ...], h: int, z: int) -> tuple[int, ...]:
    """Backtrack a precomputed layer stack; caller guarantees z is covered."""
    out = []
    rem = z
    for i in range(h, 1, -1):
        for a in reversed(elements):
            if a <= rem and (layers[i - 1] >> (rem - a)) & 1:
                out.append(a)
                rem -= a
                break
        else:
            raise AssertionError("layer backtracking failed on a covered value")
    if rem not in elements:
        raise AssertionError("layer backtracking failed on a covered value")
    out.append(rem)
    return tuple(sorted(out))


def residue_sumset(H: ResidueSet, families) -> ResidueSet:
    """H + X_1 + ... + X_k in Z_q, all operands sharing the modulus."""
    q = H.q
    acc = H.bits
    for X in families:
        if X.q != q:
            raise ValueError("modulus mismatch in residue sumset")
        nxt = 0
        for x in X.members:
            nxt |= rotate(acc, x, q)
        acc = nxt
    return ResidueSet(q, acc)
