"""Exact h-fold sumset computation over [0, limit] and over Z_q.

Coverage is a dense bitmask from the `arith` bitset kernel, built by one
recurrence, `_grow`: the j-sums S_j of the elements taken so far (S_0 = 1)
grow by each element e, S_j |= S_{j-1} << e for j = 1..h ascending, so
S_{j-1} already holds e (repetition allowed).  Each layer S_j has a cap
c_j, the largest sum it must hold, and takes no bit of S_{j-1} past
c_j - e; that is sound because every element is non-negative.
`coverage_layers` gives every layer the cap limit and so grows full layers:
the B_k check `sidon.is_bk`, and the tests' reference.
`_first_gap` (and so `verify_basis` and `n_of`) grows only the bits a later
element can still read: S_j, for j < h, up to n - (h - j) e, as h - j more
elements, each >= e, must follow, and S_h, which is only checked, above the
prefix already checked.  Each has its own peak model: `layers_bytes` and
`verify_bytes`.
`search.extremal_n` inlines the same recurrence on purpose: a `_grow` call
per child made the benchmark's search ladder, (h, k) = (2, 11) (3, 8)
(4, 7) (6, 6), slower in 6 of 6 alternating runs (median 0.77 s inline
against 1.23 s with the call, 2-core host).

A subset of Z_q (ResidueSet) is a mask too, over [0, q-1]; shifts in Z_q
are rotations of that mask.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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


def _grow(S: list[int], e: int, cap: int, step: int) -> None:
    """Add element e to the layer list S = [S_0, ..., S_m] in place.

    S_j needs only its sums in [0, c_j], with c_j = cap - (m - j) step and
    0 <= step <= e: one cap for every layer at step 0, falling by step per
    layer below S_m otherwise.  For j = 1..m ascending, so that S_{j-1}
    already holds e (repetition allowed), S_j |= S_{j-1} << e takes only
    S_{j-1}'s bits in [0, c_j - e]; a layer with c_j < e does not grow.  At
    step < e that range is narrower than c_{j-1}, so the operand is clipped
    to it and S_j gets no bit past c_j; the clip mask is built at the first
    such operand and shared by the layers with the same range.  At step = e
    the range is c_{j-1} itself: S_{j-1}'s bits past it make only bits of S_j
    past c_j, which are dead too, so S_{j-1} is cut to its cap, in place,
    only once it is more than a quarter past it (`_trim`).
    """
    m = len(S) - 1
    first = m - (cap - e) // step if step else 1  # least j with c_j >= e
    clip_room = clip = None
    for j in range(max(first, 1), m + 1):
        room = cap - (m - j) * step - e
        if step == e:
            src = _trim(S, j - 1, room)
        else:
            src = S[j - 1]
            if src.bit_length() > room + 1:
                if room != clip_room:
                    clip_room, clip = room, window(room)
                src &= clip
        S[j] |= src << e


def _trim(S: list[int], j: int, cap: int) -> int:
    """S[j], first cut to [0, cap] in place if it is more than a quarter past cap."""
    if S[j].bit_length() > cap + 1 + (cap + 1) // 4:
        S[j] &= window(cap)
    return S[j]


def layers_bytes(h: int, limit: int) -> int:
    """Peak bytes of `coverage_layers`' h + 1 layers over [0, limit]: at most h + 3 masks (layer
    i holds min(i e, limit) bits while e is added), plus ~40 bytes per layer.  `plan_params`
    also refuses a verify by it: from 16 KiB up it is at least `verify_bytes`."""
    return (h + 3) * mask_bytes(limit) + 40 * (h + 1)


def verify_bytes(h: int, n: int) -> int:
    """Peak bytes of `_first_gap` over [0, n] at h: an upper bound, used to refuse.

    The layer list is 8 bytes per layer, and a layer that never grows holds
    a cached small int.  S_j grows at some element e >= 1 only if
    (h - j + 1) e <= n, so only g = min(h, n) - 1 of S_1..S_{h-1} grow, those
    with j >= h - g; each costs an int header (32 bytes with its rounding)
    and its bits.  A bit enters S_j with some element e, as a sum of j
    elements <= e, from an operand at most a quarter past its cap, so it lies
    below min(j e + 1, 5/4 (n + 1 - (h - j) e)) <= 5 j (n + 1) / (4 h) + 1:
    the first term while e <= 5 (n + 1) / (4 h), the second past it.  Summed
    over the growing layers that is 5 g (2h - g - 1) / (8h) masks over
    [0, n].  S_{h-1} is at most a quarter past n - e, so top stays below
    5/4 (n + 1) bits, and at most two more ints of that size live beside it:
    a shifted operand and its OR, a trim mask and the cut layer, or
    `lowest_clear`'s two.  That is 15/4 masks, and 1 KiB covers the small
    objects of the call.  Digit bases at n = 2e6 peak at 2.7 masks (h = 2),
    4.0 (h = 6) and 8.0 (h = 12), against 4.4, 6.9 and 10.6 here; see
    `layers_bytes` for `coverage_layers`.
    """
    g = max(min(h, n) - 1, 0)
    mask = mask_bytes(n)
    return (8 * h + 32 * g - 5 * g * (2 * h - g - 1) * mask // -(8 * h)
            - 15 * mask // -4 + 1024)


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
        _grow(layers, e, limit, 0)
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
    sources: a sum in S_j reaches S_h only through h - j more elements, each
    at least the current element e, so only S_j's bits in
    [0, n - (h - j) e] are live.  They grow by `_grow` with those caps, and
    S_j not at all once (h - j + 1) e > n.  A layer is cut back to its cap
    only once it is more than a quarter past it (`_trim`): a bit past a cap
    only makes sums past n, so it cannot change the answer, and the caps
    only shrink as e grows.  S_h is only checked.  It is held as
    top = S_h >> o, where every z < o is already checked covered, and grows
    by S_{h-1} << (e - o), as e >= o; S_{h-1} is trimmed to [0, n - e] by
    the same rule, so top may hold sums past n, which are never read.  After
    element e_i no later sum can fall below e_{i+1}, so the bits of S_h below
    it are final; they are checked on a doubling schedule (O(n) bits in
    total), the first gap found is the least one, and a covered prefix is
    shifted out of top.
    """
    check_bytes(verify_bytes(h, n), f"{h + 1} sum layers over [0, {n}]")
    end = bisect_right(elements, n)
    if not end or elements[0] > 0:
        return 0  # 0 is a sum of h elements only as 0 + ... + 0
    low = [1] * h  # S_0..S_{h-1} once 0, the least element, is added
    top = o = due = 0
    for i in range(end):
        e = elements[i]
        room = n - e
        if e:
            _grow(low, e, room, e)  # S_j's cap is n - (h - j) e
        top |= _trim(low, h - 1, room) << (e - o)
        final = elements[i + 1] - 1 if i + 1 < end else n
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
