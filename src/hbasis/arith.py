"""Bitset kernel and shared integer helpers (primes, integer roots).

A set of non-negative integers is held as a Python int bitmask: bit v is
set iff v is in the set.  Every conversion and layout operation on such
masks lives here: building a mask, decoding it to a sorted tuple, the
[0, limit] window and its lowest clear bit, rotation in Z_q, and folding
[0, limit] into Z_q.  Windows wider than MAX_MASK_BITS are refused with
GuardError before anything is allocated.
"""

from __future__ import annotations

import numpy as np

MAX_MASK_BITS = 1 << 32


class GuardError(RuntimeError):
    """Raised when an exhaustive routine is asked for an instance beyond its guard."""


def iroot_ceil(n: int, k: int) -> int:
    """Smallest integer r with r**k >= n.  Exact integer arithmetic."""
    if n <= 0:
        return 0
    if k == 1:
        return n
    r = round(n ** (1.0 / k))
    while r ** k >= n:
        r -= 1
    while r ** k < n:
        r += 1
    return r


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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
    # a plain loop: on the small sets of the search path it beats numpy 10x
    m = 0
    for v in values:
        m |= 1 << v
    return m


def bits_to_sorted(bits: int) -> tuple[int, ...]:
    """Set bits of a non-negative mask, ascending, as Python ints.  Linear time."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return tuple(np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist())


def window(limit: int) -> int:
    """Mask of [0, limit]; GuardError before allocation past MAX_MASK_BITS bits."""
    if limit + 1 > MAX_MASK_BITS:
        raise GuardError(f"bitmask over [0, {limit}] exceeds {MAX_MASK_BITS} bits")
    return (1 << (limit + 1)) - 1


def lowest_clear(bits: int, limit: int):
    """Least v in [0, limit] whose bit is clear, or None if all are set."""
    hole = ~bits & window(limit)
    if hole == 0:
        return None
    return (hole & -hole).bit_length() - 1


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
