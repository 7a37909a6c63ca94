"""Bitset kernel and shared integer helpers (primes, integer roots).

A set of non-negative integers is held as a Python int bitmask: bit v is
set iff v is in the set.  Every conversion and layout operation on such
masks lives here: building a mask, unpacking it to a numpy bool array
(the one mask-to-numpy conversion) or decoding it to a sorted tuple, the
[0, limit] window and its lowest clear bit, rotation in Z_q, and folding
[0, limit] into Z_q.  The size guards are comparisons: `check_mask_bits`
refuses a mask over [0, limit] wider than MAX_MASK_BITS with GuardError,
and callers test q against MAX_FFT_LEN before any gains FFT.  A window
mask is built only where a mask operation uses it, never to run a guard.
"""

from __future__ import annotations

import numpy as np

MAX_MASK_BITS = 1 << 32
# a full gains pass holds ~45 bytes per residue (uint8 unpack, float64
# input, complex spectrum, float64 and int64 outputs): ~3 GB at 2**26
MAX_FFT_LEN = 1 << 26


class GuardError(RuntimeError):
    """Raised when an exhaustive routine is asked for an instance beyond its guard."""


def iroot_ceil(n: int, k: int) -> int:
    """Smallest r with r**k >= n: exact integer Newton down from 1 << ceil(bits/k)."""
    if n <= 0:
        return 0
    if k == 1:
        return n
    r = 1 << -(-n.bit_length() // k)
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
    # a plain loop: the one caller, ResidueSet.from_iterable, gets CLI members
    # or greedy picks, a few thousand values at most
    m = 0
    for v in values:
        m |= 1 << v
    return m


def to_bools(bits: int, q: int) -> np.ndarray:
    """Bits 0..q-1 of a mask below 2**q as a length-q numpy bool array."""
    raw = np.frombuffer(bits.to_bytes((q + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=q, bitorder="little").view(bool)


def bits_to_sorted(bits: int) -> tuple[int, ...]:
    """Set bits of a non-negative mask, ascending, as Python ints.  Linear time."""
    return tuple(np.flatnonzero(to_bools(bits, bits.bit_length())).tolist())


def check_mask_bits(limit: int) -> None:
    """GuardError if a mask over [0, limit] would pass MAX_MASK_BITS bits; allocates nothing."""
    if limit + 1 > MAX_MASK_BITS:
        raise GuardError(f"bitmask over [0, {limit}] exceeds {MAX_MASK_BITS} bits")


def window(limit: int) -> int:
    """Mask of [0, limit], after the check_mask_bits guard."""
    check_mask_bits(limit)
    return (1 << (limit + 1)) - 1


def lowest_clear(bits: int, limit: int):
    """Least v in [0, limit] whose bit is clear in the non-negative mask bits, or None."""
    check_mask_bits(limit)
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
