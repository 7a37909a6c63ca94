"""Bitset kernel: round trips and byte-identity with the pure-int definitions."""

import ctypes
import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbasis.arith import (MAX_BYTES, GuardError, bits_to_sorted, fold,
                          iroot_ceil, is_prime, keep_heap, lowest_clear,
                          mask_of, next_prime_at_least, prime_factors, rotate,
                          to_bools, window)


# Reference definitions in plain integer arithmetic, without numpy.

def ref_bits_to_sorted(bits):
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def ref_rotate(mask, shift, q):
    shift %= q
    if shift == 0:
        return mask
    full = (1 << q) - 1
    return ((mask << shift) | (mask >> (q - shift))) & full


def ref_fold(bits, limit, q):
    chunk_mask = (1 << q) - 1
    acc = 0
    for off in range(0, limit + 1, q):
        acc |= (bits >> off) & chunk_mask
    return acc


def ref_mask_of(values):
    return sum(1 << v for v in set(values))


positions = st.lists(st.integers(0, 300), max_size=40)


class TestDecode:
    @pytest.mark.parametrize("values", [(), (0,), (7,), (8,), (63,), (64,),
                                        (0, 7, 8, 63, 64), (1, 65, 128)])
    def test_edge_bits(self, values):
        got = bits_to_sorted(mask_of(values))
        assert got == values == ref_bits_to_sorted(ref_mask_of(values))
        assert all(type(v) is int for v in got)

    @given(positions)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, values):
        m = mask_of(values)
        assert m == ref_mask_of(values)
        got = bits_to_sorted(m)
        assert got == ref_bits_to_sorted(m) == tuple(sorted(set(values)))
        assert all(type(v) is int for v in got)

    def test_rejects_negative_positions(self):
        with pytest.raises(ValueError):
            mask_of((3, -1))

    def test_million_bit_mask(self):
        rng = random.Random(5)
        values = {0, 10 ** 6 - 1} | set(rng.sample(range(10 ** 6), 1000))
        m = mask_of(values)
        assert m.bit_length() == 10 ** 6
        got = bits_to_sorted(m)
        assert got == ref_bits_to_sorted(m) == tuple(sorted(values))
        assert all(type(v) is int for v in got)


class TestToBools:
    @given(st.integers(1, 300), st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, q, data):
        values = data.draw(st.lists(st.integers(0, q - 1), max_size=40))
        m = mask_of(values)
        arr = to_bools(m, q)
        assert arr.dtype == bool and arr.shape == (q,)
        assert [v for v in range(q) if arr[v]] == sorted(set(values))
        assert mask_of(int(v) for v in arr.nonzero()[0]) == m

    def test_empty(self):
        assert to_bools(0, 0).shape == (0,)

    def test_mask_wider_than_q_rejected(self):
        with pytest.raises(OverflowError):
            to_bools(1 << 16, 9)


class TestIrootCeil:
    @given(st.integers(1, 10 ** 80) | st.integers(1, 2 ** 4000),
           st.integers(1, 9) | st.integers(1, 1200))
    @settings(max_examples=300, deadline=None)
    def test_brackets_the_root(self, n, k):
        r = iroot_ceil(n, k)
        assert r ** k >= n > (r - 1) ** k

    @pytest.mark.parametrize("r", [1, 2, 3, 10, 2999])
    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_exact_powers_and_neighbours(self, r, k):
        assert iroot_ceil(r ** k, k) == r
        assert iroot_ceil(r ** k + 1, k) == r + 1
        assert iroot_ceil(r ** k - 1, k) == (r if r > 1 else 0)

    @pytest.mark.parametrize("n, k, r", [(10 ** 400, 2, 10 ** 200),
                                         (3 ** 200, 2, 3 ** 100),
                                         (10 ** 300, 2, 10 ** 150)])
    def test_beyond_float_range(self, n, k, r):
        # a float seed overflows on the first and never converges on the others
        assert iroot_ceil(n, k) == r

    @pytest.mark.parametrize("n, k", [
        (2 ** 1000 * factorial(1000), 1000),   # the root has 12 bits; a start at
        (2 ** 1000 * factorial(1000) + 1, 999),  # 1 << ceil(bits/k) took 274 steps
        (factorial(1021) * 7 ** 1021, 1021),
        (3 ** 5000 - 1, 500),
        (10 ** 3000, 7),                          # log2(n) past the float range of n
        ((2 ** 61 - 1) ** 40, 40),               # an exact power with a 61-bit root
        ((2 ** 61 - 1) ** 40 + 1, 40),
        (2, 1000),                                # root just above 1
    ])
    def test_large_k(self, n, k):
        r = iroot_ceil(n, k)
        assert r ** k >= n > (r - 1) ** k

    def test_non_positive(self):
        assert iroot_ceil(0, 3) == 0
        assert iroot_ceil(-5, 2) == 0


class TestRotateFold:
    @given(st.integers(1, 200), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rotate_matches_reference(self, q, data):
        members = data.draw(st.lists(st.integers(0, q - 1), max_size=30))
        shift = data.draw(st.integers(-3 * q, 3 * q))
        m = mask_of(members)
        got = rotate(m, shift, q)
        assert got == ref_rotate(m, shift, q)
        assert got == mask_of((v + shift) % q for v in members)

    @given(st.integers(1, 200), st.integers(0, 600), st.data())
    @settings(max_examples=200, deadline=None)
    def test_fold_matches_reference(self, q, limit, data):
        values = data.draw(st.lists(st.integers(0, limit), max_size=30))
        m = mask_of(values)
        got = fold(m, limit, q)
        assert got == ref_fold(m, limit, q)
        assert got == mask_of(v % q for v in values)


class TestWindow:
    def test_lowest_clear(self):
        assert lowest_clear(0, 0) == 0
        assert lowest_clear(0b1011, 3) == 2
        assert lowest_clear(0b1111, 3) is None
        assert lowest_clear(0b1111, 4) == 4
        # bits set past limit do not count
        assert lowest_clear(0b11110111, 2) is None
        assert lowest_clear(0b1011 | 1 << 100, 3) == 2
        full = (1 << 200) - 1
        assert lowest_clear(full, 150) is None
        assert lowest_clear(full ^ 1 << 150, 150) == 150
        assert lowest_clear(full ^ 1 << 151, 150) is None

    def test_guard_trips_before_allocation(self):
        with pytest.raises(GuardError):
            window(8 * MAX_BYTES)  # a mask of more than MAX_BYTES bytes
        with pytest.raises(GuardError):
            lowest_clear(0, 10 ** 12)


class TestKeepHeap:
    """`keep_heap` against a fake `ctypes.CDLL` that records its mallopt calls."""

    @staticmethod
    def fake_libc(monkeypatch, returns=(1, 1), raises=None, where="load"):
        calls = []

        class Mallopt:
            def __call__(self, param, value):
                assert (self.argtypes, self.restype) == ((ctypes.c_int,) * 2, ctypes.c_int)
                calls.append((param, value))
                if where == "call" and raises:
                    raise raises
                return returns[len(calls) - 1]

        class Libc:
            def __init__(self, name):
                assert name is None  # the process's own symbols
                if where == "load" and raises:
                    raise raises
                self.mallopt = Mallopt()

        monkeypatch.setattr(ctypes, "CDLL", Libc)
        return calls

    def test_mmap_threshold_first_then_trim(self, monkeypatch):
        calls = self.fake_libc(monkeypatch)
        keep_heap()
        assert calls == [(-3, 1 << 30), (-1, 1 << 30)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
        assert MAX_BYTES // 2 == 1 << 30 < 2 ** 31  # fits mallopt's C int

    def test_no_trim_unless_the_mmap_threshold_took(self, monkeypatch):
        calls = self.fake_libc(monkeypatch, returns=(0,))  # musl's mallopt
        keep_heap()
        assert calls == [(-3, 1 << 30)]

    @pytest.mark.parametrize("where", ["load", "call"])
    @pytest.mark.parametrize("exc", [OSError, AttributeError, TypeError])
    def test_no_glibc_is_a_silent_no_op(self, monkeypatch, exc, where):
        calls = self.fake_libc(monkeypatch, raises=exc("no mallopt"), where=where)
        assert keep_heap() is None
        assert calls == ([] if where == "load" else [(-3, 1 << 30)])


class TestPrimes:
    def test_against_sieve(self):
        limit = 5000
        sieve = [False, False] + [True] * (limit - 2)
        for d in range(2, int(limit ** 0.5) + 1):
            if sieve[d]:
                sieve[d * d::d] = [False] * len(sieve[d * d::d])
        primes = [v for v in range(limit) if sieve[v]]
        for n in range(-5, limit):
            assert is_prime(n) == (n >= 0 and sieve[n]), n
        for n in range(2, limit):
            factors = [p for p in primes if n % p == 0]
            assert prime_factors(n) == factors, n
        for n in range(-5, primes[-1] + 1):
            assert next_prime_at_least(n) == next(p for p in primes if p >= n), n
