"""Bitset kernel: round trips and byte-identity with the pure-int definitions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbasis.arith import (MAX_MASK_BITS, GuardError, bits_to_sorted, fold,
                          lowest_clear, mask_of, rotate, window)


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

    def test_million_bit_mask(self):
        rng = random.Random(5)
        values = {0, 10 ** 6 - 1} | set(rng.sample(range(10 ** 6), 1000))
        m = mask_of(values)
        assert m.bit_length() == 10 ** 6
        got = bits_to_sorted(m)
        assert got == ref_bits_to_sorted(m) == tuple(sorted(values))
        assert all(type(v) is int for v in got)


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

    def test_guard_trips_before_allocation(self):
        with pytest.raises(GuardError):
            window(MAX_MASK_BITS)
        with pytest.raises(GuardError):
            lowest_clear(0, 10 ** 12)
