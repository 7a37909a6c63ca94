"""Exact h-fold sumset computation over [0, limit] and over Z_q.

Coverage is a dense bitmask from the `arith` bitset kernel: pass i+1 of the
dynamic program ORs shifted copies of pass i, one shift per element, so
after h-1 passes bit z is set iff z is a sum of exactly h elements
(repetition allowed).  Masking to [0, limit] between passes is sound
because every element is non-negative.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .arith import bits_to_sorted, lowest_clear, mask_of, rotate, window


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
class CoverageMap:
    """Bitmask over [0, limit]: bit z set iff z is a sum of exactly h elements."""

    limit: int
    h: int
    bits: int

    def __contains__(self, z: int) -> bool:
        return 0 <= z <= self.limit and (self.bits >> z) & 1 == 1

    def first_gap(self):
        """Least uncovered integer in [0, limit], or None if fully covered."""
        return lowest_clear(self.bits, self.limit)

    def to_sorted(self) -> tuple[int, ...]:
        return bits_to_sorted(self.bits)


@dataclass(frozen=True)
class ResidueSet:
    """Subset of Z_q together with its modulus q."""

    q: int
    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if self.q < 1:
            raise ValueError("modulus must be >= 1")
        if any(a >= b for a, b in zip(members, members[1:])):
            raise ValueError("members must be strictly increasing")
        if members and (members[0] < 0 or members[-1] >= self.q):
            raise ValueError("members must lie in [0, q-1]")

    @classmethod
    def from_iterable(cls, q: int, values) -> "ResidueSet":
        return cls(q, tuple(sorted(set(values))))

    @classmethod
    def full(cls, q: int) -> "ResidueSet":
        return cls(q, tuple(range(q)))

    def __len__(self):
        return len(self.members)

    def __contains__(self, v):
        i = bisect_left(self.members, v)
        return i < len(self.members) and self.members[i] == v

    @property
    def mask(self) -> int:
        return mask_of(self.members)


@dataclass(frozen=True)
class Certificate:
    """Outcome of a basis verification: ok, or the least uncovered integer."""

    ok: bool
    first_gap: int | None = None


def coverage_layers(A: BasisSet, h: int, limit: int) -> list[int]:
    """Bitmasks of the exactly-i sumsets for i = 1..h, each clipped to [0, limit].

    layers[i] (1-based; layers[0] unused) has bit z set iff z is a sum of
    exactly i elements of A.  Shared by witness backtracking.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    if limit < 0:
        raise ValueError("limit must be >= 0")
    clip = window(limit)
    elems = [a for a in A.elements if a <= limit]
    layers = [0] * (h + 1)
    layers[1] = mask_of(elems)
    for i in range(2, h + 1):
        cur = layers[i - 1]
        nxt = 0
        for a in elems:
            nxt |= cur << a
        layers[i] = nxt & clip
    return layers


def h_fold_coverage(A: BasisSet, h: int, limit: int) -> CoverageMap:
    """Exactly-h sums of A (repetition allowed) intersected with [0, limit]."""
    layers = coverage_layers(A, h, limit)
    return CoverageMap(limit=limit, h=h, bits=layers[h])


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
    gap = h_fold_coverage(A, h, limit).first_gap()
    return limit if gap is None else gap - 1


def verify_basis(A: BasisSet, h: int, n: int) -> Certificate:
    """Decision form of [0, n] subset of hA, with the least gap on failure."""
    if n < 0:
        raise ValueError("n must be >= 0")
    gap = h_fold_coverage(A, h, n).first_gap()
    if gap is None:
        return Certificate(ok=True)
    return Certificate(ok=False, first_gap=gap)


def witness(A: BasisSet, h: int, z: int):
    """A multiset of exactly h elements of A summing to z, or None.

    Reconstructed by DP-layer backtracking, largest feasible element first;
    the ordering is fixed so identical inputs give identical witnesses.
    """
    if z < 0:
        raise ValueError("z must be >= 0")
    layers = coverage_layers(A, h, z)
    if not (layers[h] >> z) & 1:
        return None
    return backtrack_witness(layers, A.elements, h, z)


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
    acc = H.mask
    for X in families:
        if X.q != q:
            raise ValueError("modulus mismatch in residue sumset")
        nxt = 0
        for x in X.members:
            nxt |= rotate(acc, x, q)
        acc = nxt
    return ResidueSet(q, bits_to_sorted(acc))
