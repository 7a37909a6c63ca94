"""Bitset kernel and shared integer helpers (primes, integer roots).

A set of non-negative integers is held as a Python int bitmask: bit v is
set iff v is in the set.  The shared mask operations live here: building
a mask, unpacking it to a numpy bool array or decoding it to a sorted
tuple, the [0, limit] window and its lowest clear bit, rotation in Z_q,
and folding [0, limit] into Z_q.  `to_bools` and `bits_to_sorted` import
numpy when first called, so importing this module loads none and the
big-int commands (`verify`, `search`, `sidon`, `bounds`, `table`) never
do.  The greedy in `cover` keeps its own packed-byte helpers for a
round's uncovered set: `to_bytes` and `frombuffer` when a round starts,
`_bit_range` and `_take` (`unpackbits`, `packbits`) per pick, and
`from_bytes` for the remainder.  One memory budget, MAX_BYTES, bounds
every exhaustive routine: each compares its peak model
(`sumset.layers_bytes`, `sumset.verify_bytes`, `cover.gains_bytes`) with
it through `check_bytes` before it allocates, and `window` keeps a
backstop, a mask over [0, limit].  No guard allocates.
"""

from __future__ import annotations

from math import ceil, floor, log2
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# 2 GiB: above every benchmarked and pinned instance (verify at h = 6,
# n = 22**6 - 1 models ~104 MB, ~136 MB in plan_params' guard) and below
# the gains model at q = 2**26 + 1 (~2.28e9 bytes), so no gains pass runs
# on more than 2**26 points
MAX_BYTES = 1 << 31


class GuardError(RuntimeError):
    """Raised when an exhaustive routine is asked for an instance beyond its guard."""


def iroot_ceil(n: int, k: int) -> int:
    """Smallest r with r**k >= n: exact integer Newton down from just above the root.

    Newton is exact from any start at or above the floor root, but above it
    each step shrinks r only by about a factor 1 - 1/k, so the start is
    2**y rounded up, y = log2(n)/k plus a slack of 2**-40 (1 + y).  log2 of
    an int reads its leading bits and bit length, within 2**-50 (1 + log2 n);
    the slack covers that, the division and 2.0**f, so the start lies
    provably above n**(1/k) and within a relative 2**-39 (1 + y) of it.
    """
    if n <= 0:
        return 0
    if k == 1:
        return n
    y = log2(n) / k
    y += (1 + y) * 2.0 ** -40
    i = floor(y)
    m = ceil(2.0 ** (y - i) * 2.0 ** 52) + 1  # above 2**(y - i + 52)
    r = m << (i - 52) if i >= 52 else -(-m >> (52 - i))  # ceil(m / 2**(52 - i))
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r if r ** k == n else r + 1


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def next_prime_at_least(n: int) -> int:
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending.  Trial division; fine at desk scale."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def mask_of(values) -> int:
    """Mask with bit v set for each v in values, all non-negative.

    Linear in the values and the mask: bits are set in a bytearray that is
    converted once.  ORing one `1 << v` per value into a growing int would
    rebuild the int each time, O(k q) for k values below q.
    """
    values = tuple(values)
    if not values:
        return 0
    if min(values) < 0:
        raise ValueError("mask positions must be non-negative")
    buf = bytearray(max(values) // 8 + 1)
    for v in values:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def to_bools(bits: int, q: int) -> np.ndarray:
    """Bits 0..q-1 of a mask below 2**q as a length-q numpy bool array."""
    import numpy as np

    raw = np.frombuffer(bits.to_bytes((q + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=q, bitorder="little").view(bool)


def bits_to_sorted(bits: int) -> tuple[int, ...]:
    """Set bits of a non-negative mask, ascending, as Python ints.  Linear time."""
    import numpy as np

    return tuple(np.flatnonzero(to_bools(bits, bits.bit_length())).tolist())


def check_bytes(need: int, what: str) -> None:
    """GuardError if `what` would hold more than MAX_BYTES at its peak; allocates nothing."""
    if need > MAX_BYTES:
        raise GuardError(f"{what} would pass the {MAX_BYTES}-byte memory budget")


def mask_bytes(limit: int) -> int:
    """Bytes of a Python int mask over [0, limit]: CPython keeps 30 bits per 4-byte digit."""
    return 4 * (limit // 30 + 1)


def window(limit: int) -> int:
    """Mask of [0, limit], after the budget check on that mask."""
    check_bytes(mask_bytes(limit), f"a mask over [0, {limit}]")
    return (1 << (limit + 1)) - 1


def lowest_clear(bits: int, limit: int):
    """Least v in [0, limit] whose bit is clear in the non-negative mask bits, or None."""
    check_bytes(mask_bytes(limit), f"a mask over [0, {limit}]")
    # bits ^ (bits + 1) is all ones over [0, v], v the lowest clear bit
    v = (bits ^ (bits + 1)).bit_length() - 1
    return v if v <= limit else None


def rotate(mask: int, shift: int, q: int) -> int:
    """Cyclic shift of a mask over Z_q: bit v moves to bit (v + shift) mod q."""
    shift %= q
    if shift == 0:
        return mask
    return ((mask << shift) | (mask >> (q - shift))) & window(q - 1)


def fold(bits: int, limit: int, q: int) -> int:
    """Fold a mask over [0, limit] into Z_q: bit r set iff some set v = r (mod q)."""
    chunk = window(q - 1)
    acc = 0
    for off in range(0, limit + 1, q):
        acc |= (bits >> off) & chunk
    return acc
