"""Sumset oracle: worked examples, brute-force equivalence, and properties."""

import random
import tracemalloc
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbasis.arith import (MAX_BYTES, GuardError, bits_to_sorted, iroot_ceil,
                          lowest_clear)
from hbasis.construct import digit_basis
from hbasis.sumset import (BasisSet, Certificate, ResidueSet, backtrack_witness,
                           coverage_layers, layers_bytes, n_of, residue_sumset,
                           verify_basis, verify_bytes)


def brute_coverage(elements, h, limit):
    """Direct enumeration of all h-multisets; the independent oracle."""
    return {s for combo in combinations_with_replacement(elements, h)
            if (s := sum(combo)) <= limit}


def passwise_coverage(elements, h, limit):
    """Exactly-h sums in [0, limit] by a pass-wise layer DP over numpy bools:
    layer j is one shifted OR of layer j - 1 per element.  Shares no code
    with the bitmask recurrence in hbasis.sumset."""
    layer = np.zeros(limit + 1, dtype=bool)
    layer[0] = True
    for _ in range(h):
        nxt = np.zeros_like(layer)
        for a in elements:
            if a <= limit:
                nxt[a:] |= layer[:limit + 1 - a]
        layer = nxt
    return layer


small_basis = st.lists(st.integers(0, 50), min_size=1, max_size=6,
                       unique=True).map(lambda xs: BasisSet(tuple(sorted(xs))))


class TestBasisSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BasisSet(())

    def test_rejects_unsorted_and_negative(self):
        with pytest.raises(ValueError):
            BasisSet((3, 1))
        with pytest.raises(ValueError):
            BasisSet((-1, 2))

    def test_from_iterable_dedups(self):
        assert BasisSet.from_iterable([3, 0, 3, 1]).elements == (0, 1, 3)

    def test_membership(self):
        A = BasisSet((0, 1, 3, 4))
        assert all(v in A for v in (0, 1, 3, 4))
        assert 2 not in A
        assert -1 not in A
        assert 5 not in A

    @given(small_basis, st.integers(-5, 60))
    @settings(max_examples=100, deadline=None)
    def test_membership_matches_tuple(self, A, v):
        assert (v in A) == (v in A.elements)


def top_layer(A, h, limit):
    """Bitmask of the exactly-h sums of A in [0, limit]."""
    return coverage_layers(A, h, limit)[h]


class TestCoverage:
    def test_two_fold_of_binary(self):
        assert bits_to_sorted(top_layer(BasisSet((0, 1)), 2, 4)) == (0, 1, 2)

    def test_all_zero_addends(self):
        assert bits_to_sorted(top_layer(BasisSet((0,)), 5, 10)) == (0,)

    def test_pair_sums(self):
        cov = top_layer(BasisSet((0, 1, 3)), 2, 10)
        assert bits_to_sorted(cov) == (0, 1, 2, 3, 4, 6)

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            coverage_layers(BasisSet((0, 1)), 0, 4)

    @given(small_basis, st.integers(1, 5), st.integers(0, 120))
    @settings(max_examples=150, deadline=None)
    def test_every_layer_matches_brute_enumeration(self, A, h, limit):
        # backtrack_witness reads the lower layers, not only the top
        layers = coverage_layers(A, h, limit)
        assert len(layers) == h + 1 and layers[0] == 1
        for i in range(1, h + 1):
            expected = sum(1 << z for z in brute_coverage(A.elements, i, limit))
            assert layers[i] == expected, i

    @given(small_basis, st.integers(1, 4), st.integers(0, 120))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_enumeration(self, A, h, limit):
        got = set(bits_to_sorted(top_layer(A, h, limit)))
        assert got == brute_coverage(A.elements, h, limit)

    @given(small_basis, st.integers(1, 3), st.integers(0, 60),
           st.integers(0, 50))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_elements(self, A, h, limit, extra):
        bigger = BasisSet.from_iterable(A.elements + (extra,))
        small = top_layer(A, h, limit)
        large = top_layer(bigger, h, limit)
        assert small & ~large == 0

    @given(small_basis, st.integers(1, 3), st.integers(0, 60))
    @settings(max_examples=80, deadline=None)
    def test_nesting_with_zero(self, A, h, limit):
        withz = BasisSet.from_iterable(A.elements + (0,))
        lo = top_layer(withz, h, limit)
        hi = top_layer(withz, h + 1, limit)
        assert lo & ~hi == 0


class TestNOf:
    def test_examples(self):
        assert n_of(BasisSet((0, 1, 3)), 2) == 4
        assert n_of(BasisSet((1, 2)), 2) is None
        assert n_of(BasisSet((0, 1, 3, 4)), 2) == 8
        assert n_of(BasisSet((0, 1, 2, 5)), 1) == 2
        assert n_of(BasisSet((2, 3)), 1) is None

    def test_singleton_zero(self):
        assert n_of(BasisSet((0,)), 3) == 0

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=7, unique=True),
           st.booleans(), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_enumeration(self, elems, with_zero, h):
        A = BasisSet.from_iterable(elems + [0] if with_zero else elems)
        if 0 not in A:
            assert n_of(A, h) is None
            return
        covered = brute_coverage(A.elements, h, h * A.max)
        n = 0
        while n + 1 in covered:
            n += 1
        assert n_of(A, h) == n


class TestVerify:
    def test_ok(self):
        assert verify_basis(BasisSet((0, 1, 3, 4)), 2, 8).ok

    def test_gap(self):
        cert = verify_basis(BasisSet((0, 1, 3, 4)), 2, 9)
        assert not cert.ok and cert.first_gap == 9

    def test_trivial(self):
        assert verify_basis(BasisSet((0,)), 3, 0).ok

    def test_all_elements_above_n(self):
        # no element takes part, so 0 is already uncovered
        cert = verify_basis(BasisSet((5, 9)), 2, 4)
        assert not cert.ok and cert.first_gap == 0

    def test_n_zero(self):
        assert verify_basis(BasisSet((0, 7)), 4, 0).ok
        assert verify_basis(BasisSet((1, 2)), 4, 0).first_gap == 0

    @pytest.mark.parametrize("h, n", [(0, 5), (-1, 5), (2, -1)])
    def test_rejects_bad_h_and_n(self, h, n):
        with pytest.raises(ValueError):
            verify_basis(BasisSet((0, 1)), h, n)

    def test_far_gap(self):
        # the gap lies past 95% of [0, n], long after the first checks.
        # Without 21*22^3 a top digit of 21 costs two addends, which leaves
        # two for the lower digits: the least sum needing three is the gap.
        n = 22 ** 4 - 1
        A = BasisSet(digit_basis(22, 4).elements[:-1])
        gap = 21 * 22 ** 3 + 22 ** 2 + 22 + 1
        assert gap == 224_115 > 0.95 * n
        assert int(np.argmin(passwise_coverage(A.elements, 4, n))) == gap
        assert verify_basis(A, 4, n) == Certificate(ok=False, first_gap=gap)

    def test_early_gap_allocates_no_window(self):
        # {0, 1} misses 3 at h = 2; no mask over [0, 2**28] (32 MB) is built
        tracemalloc.start()
        try:
            cert = verify_basis(BasisSet((0, 1)), 2, 2 ** 28)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert == Certificate(ok=False, first_gap=3)
        assert peak < 16 * 2 ** 20

    def test_false_claim_gap_at_one(self):
        A = BasisSet.from_iterable(set(digit_basis(10, 4).elements) - {1})
        assert verify_basis(A, 4, 10 ** 4 - 1).first_gap == 1

    @given(st.lists(st.integers(0, 150), min_size=1, max_size=9, unique=True),
           st.booleans(), st.integers(1, 6),
           st.one_of(st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129]),
                     st.integers(0, 200)))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_enumeration(self, elems, with_zero, h, n):
        A = BasisSet.from_iterable(elems + [0] if with_zero else elems)
        covered = brute_coverage(A.elements, h, n)
        gap = next((z for z in range(n + 1) if z not in covered), None)
        cert = verify_basis(A, h, n)
        assert cert.ok == (gap is None)
        assert cert.first_gap == gap


def full_layers_gap(A, h, n):
    """Least z in [0, n] outside hA, read off `coverage_layers`, which keeps
    every layer over [0, n]: no per-layer cap and no offset on the top layer."""
    return lowest_clear(coverage_layers(A, h, n)[h], n)


def perturbed_digit_bases(count, seed):
    """Digit bases {j b^i} with a few elements dropped or added, and n near
    b^h - 1: (A, h, n) triples, some fully covered and some with a gap."""
    rng = random.Random(seed)
    for _ in range(count):
        b, h = rng.randint(2, 7), rng.randint(1, 5)
        elems = set(digit_basis(b, h).elements)
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                elems.discard(rng.choice(sorted(elems)))
            else:
                elems.add(rng.randrange(b ** h + 5))
        yield (BasisSet.from_iterable(elems or {0}), h,
               max(b ** h - 1 + rng.randint(-3, 3), 0))


class TestFirstGapAgainstFullLayers:
    """`verify_basis` and `n_of` grow each lower layer S_j only over
    [0, n - (h - j) e] and hold the top layer above its checked prefix; full
    layers must agree."""

    def test_perturbed_digit_bases(self):
        outcomes = {True: 0, False: 0}
        for A, h, n in perturbed_digit_bases(600, seed=32):
            gap = full_layers_gap(A, h, n)
            assert verify_basis(A, h, n) == Certificate(gap is None, gap), (A, h, n)
            outcomes[gap is None] += 1
            if 0 in A:
                limit = h * A.max
                top_gap = full_layers_gap(A, h, limit)
                assert n_of(A, h) == (limit if top_gap is None else top_gap - 1)
            else:
                assert n_of(A, h) is None
        assert min(outcomes.values()) >= 100, outcomes

    @pytest.mark.parametrize("m", [1, 2, 5, 30])
    def test_element_at_half_n(self, m):
        # n = m + m needs S_1 to hold m, added by the element e = n/2 itself
        A = BasisSet(tuple(range(m + 1)))
        assert verify_basis(A, 2, 2 * m).ok
        assert verify_basis(A, 2, 2 * m + 1).first_gap == 2 * m + 1
        assert n_of(A, 2) == 2 * m

    @pytest.mark.parametrize("m", [2, 5, 30])
    def test_element_just_past_half_n(self, m):
        # e = n/2 + 1 grows no lower layer; n = e + (m - 1) needs the bit
        # n - e of S_1, the last one the cap keeps
        A = BasisSet(tuple(range(m)) + (m + 1,))
        assert full_layers_gap(A, 2, 2 * m) is None
        assert verify_basis(A, 2, 2 * m).ok
        assert verify_basis(A, 3, 2 * m).ok

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_element_equal_to_n(self, h):
        # [0, 8] needs two addends from {0..4}; n = 9 needs the element 9
        A = BasisSet((0, 1, 2, 3, 4, 9))
        gap = 5 if h == 1 else None
        assert full_layers_gap(A, h, 9) == gap
        assert verify_basis(A, h, 9) == Certificate(gap is None, gap)
        assert verify_basis(BasisSet((0, 1, 2, 3, 4)), 2, 9).first_gap == 9

    @pytest.mark.parametrize("h", [3, 4, 6])
    @pytest.mark.parametrize("m", [1, 2, 5, 12])
    def test_each_layer_last_growth(self, h, m):
        # S_j grows with e only while (h - j + 1) e <= n.  At n = (h - j + 1) m
        # the element m = n / (h - j + 1) is the last to grow S_j (j = 1: n = h m,
        # m = n / h), and in {0..m-1, m+1} the element m + 1 is just past it
        assert verify_basis(BasisSet(tuple(range(m + 1))), h, h * m).ok
        for A in (BasisSet(tuple(range(m + 1))), BasisSet(tuple(range(m)) + (m + 1,))):
            for j in range(1, h):
                for n in ((h - j + 1) * m - 1, (h - j + 1) * m, (h - j + 1) * m + 1):
                    gap = full_layers_gap(A, h, n)
                    assert verify_basis(A, h, n) == Certificate(gap is None, gap), (A, j, n)
            top_gap = full_layers_gap(A, h, h * A.max)
            assert n_of(A, h) == (h * A.max if top_gap is None else top_gap - 1)

    @pytest.mark.parametrize("h", [9, 12])
    def test_more_layers_than_n(self, h):
        # h > n: S_j with h - j + 1 > n never grows, so it stays {0}
        for A in (BasisSet((0, 1, 3, 4)), BasisSet((0, 2, 3)), BasisSet((0, 1, 2))):
            for n in range(h):
                gap = full_layers_gap(A, h, n)
                assert verify_basis(A, h, n) == Certificate(gap is None, gap), (A, n)

    def test_h_one(self):
        assert verify_basis(BasisSet((0, 1, 2, 3)), 1, 3).ok
        assert verify_basis(BasisSet((0, 1, 2, 3)), 1, 4).first_gap == 4
        assert verify_basis(BasisSet((0, 2, 3)), 1, 3).first_gap == 1
        assert n_of(BasisSet((0, 1, 2, 5)), 1) == 2

    def test_zero_missing(self):
        A = BasisSet((1, 2, 3))
        assert verify_basis(A, 2, 5) == Certificate(ok=False, first_gap=0)
        assert full_layers_gap(A, 2, 5) == 0
        assert n_of(A, 2) is None

    def test_gap_right_after_the_offset_moves(self):
        # h = 1, A = {0, 1, 3}: the check after 0 covers [0, 0] and moves the
        # offset to 1; the check after 1 covers [1, 2] and finds 2
        assert verify_basis(BasisSet((0, 1, 3)), 1, 5).first_gap == 2
        # h = 2, A = {0, 1, 2, 5}: the checks after 0, 1 and 2 cover [0, 4]
        # and move the offset to 5; the check after 5 finds 8 = 5 + 3
        A = BasisSet((0, 1, 2, 5))
        assert full_layers_gap(A, 2, 10) == 8
        assert verify_basis(A, 2, 10).first_gap == 8
        assert n_of(A, 2) == 7


def traced_peak(fn, *args):
    """tracemalloc peak, in bytes, of one call fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLayersModel:
    """`layers_bytes` models `coverage_layers` and `verify_bytes` models
    `verify_basis`: each must bound the measured peak and lie within 2x of it."""

    MODELS = ((verify_basis, verify_bytes), (coverage_layers, layers_bytes))

    @pytest.mark.parametrize("h", [2, 6, 12])
    def test_bounds_measured_peak(self, h):
        n = 2 * 10 ** 6
        A = digit_basis(iroot_ceil(n + 1, h), h)
        for fn, model in self.MODELS:
            peak = traced_peak(fn, A, h, n)
            assert peak <= model(h, n) <= 2 * peak, fn.__name__

    def test_verify_model_over_a_longer_range(self):
        h, n = 6, 8 * 10 ** 6
        A = digit_basis(iroot_ceil(n + 1, h), h)
        peak = traced_peak(verify_basis, A, h, n)
        assert peak <= verify_bytes(h, n) <= 2 * peak

    def test_many_layers_over_a_short_range(self):
        # each layer is a list slot and an int.  coverage_layers keeps 1e5
        # full layers over [0, n]; verify grows S_j only while
        # (h - j + 1) e <= n, so at most n - 1 of its lower layers ever leave
        # the cached small int 1, and its peak is the list
        h = 10 ** 5
        A = BasisSet((0, 1, 3, 4))
        for n in (8, 16):
            for fn, model in self.MODELS:
                peak = traced_peak(fn, A, h, n)
                assert peak <= model(h, n) <= 2 * peak, (fn.__name__, n)

    def test_plan_guard_covers_verify(self):
        # plan_params refuses verify by layers_bytes, so it must admit no plan
        # whose verify its own model would refuse.  Below 16 KiB, verify_bytes'
        # 1 KiB of small objects, which layers_bytes leaves out, can be more
        ns = [2 ** k - 1 + d for k in range(1, 41) for d in (0, 1)]
        ns += [10 ** 6, 2 * 10 ** 6, 22 ** 6 - 1, 10 ** 8, 3 * 10 ** 9]
        for h in list(range(1, 31)) + [64, 10 ** 3, 10 ** 5, 10 ** 9]:
            for n in ns:
                if layers_bytes(h, n) >= 16 * 1024:
                    assert layers_bytes(h, n) >= verify_bytes(h, n), (h, n)

    def test_verify_peaks_below_full_layers(self):
        # each lower layer capped at n - (h - j) e, and the offset top layer
        n = 2 * 10 ** 6
        for h in (6, 12):
            A = digit_basis(iroot_ceil(n + 1, h), h)
            capped = traced_peak(verify_basis, A, h, n)
            full = traced_peak(coverage_layers, A, h, n)
            assert capped < 0.65 * full, (h, capped, full)

    def test_over_budget_refused_before_allocation(self):
        # 13 layers over [0, 2**32 - 1] model ~8.6 GB (verify ~6.1 GB);
        # 1e9 layers over [0, 8] ~44 GB (verify's layer list alone 8 GB)
        A = BasisSet((0, 1, 3, 4))
        for h, n in ((12, 2 ** 32 - 1), (10 ** 9, 8)):
            assert layers_bytes(h, n) > MAX_BYTES
            assert verify_bytes(h, n) > MAX_BYTES
            for fn in (verify_basis, coverage_layers):
                with pytest.raises(GuardError):
                    traced_peak(fn, A, h, n)


class TestWitness:
    def test_examples(self):
        A = BasisSet((0, 1, 3))
        layers = coverage_layers(A, 2, 5)
        assert backtrack_witness(layers, A.elements, 2, 4) == (1, 3)
        assert not (layers[2] >> 5) & 1
        zeros = BasisSet((0, 2))
        assert backtrack_witness(coverage_layers(zeros, 3, 0), zeros.elements, 3, 0) == (0, 0, 0)

    @given(small_basis, st.integers(1, 4), st.integers(0, 120))
    @settings(max_examples=150, deadline=None)
    def test_consistent_with_coverage(self, A, h, z):
        layers = coverage_layers(A, h, z)
        covered = z in brute_coverage(A.elements, h, z)
        assert (layers[h] >> z) & 1 == covered
        if covered:
            w = backtrack_witness(layers, A.elements, h, z)
            assert len(w) == h and sum(w) == z
            assert all(a in A.elements for a in w)


class TestResidueSet:
    def test_membership(self):
        R = ResidueSet.from_iterable(8, [0, 3, 7])
        assert all(v in R for v in (0, 3, 7))
        assert 4 not in R
        assert -1 not in R
        assert 8 not in R
        assert 11 not in R

    def test_rejects_mask_outside_window(self):
        with pytest.raises(ValueError):
            ResidueSet(8, 1 << 8)
        with pytest.raises(ValueError):
            ResidueSet(8, -1)
        with pytest.raises(ValueError):
            ResidueSet(0, 0)
        assert len(ResidueSet(8, (1 << 8) - 1)) == 8

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_rejects_member_outside_z_q(self, bad):
        with pytest.raises(ValueError, match=r"members must lie in \[0, q-1\]"):
            ResidueSet.from_iterable(8, [0, bad])

    def test_full(self):
        assert ResidueSet.full(5).members == (0, 1, 2, 3, 4)
        assert ResidueSet.full(1).members == (0,)

    @given(st.integers(1, 200), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_plain_set(self, q, data):
        values = data.draw(st.lists(st.integers(0, q - 1), max_size=40))
        R = ResidueSet.from_iterable(q, values)
        plain = set(values)
        assert len(R) == len(plain)
        assert R.members == tuple(sorted(plain))
        for v in range(-2, q + 2):
            assert (v in R) == (v in plain)


class TestResidueSumset:
    def test_examples(self):
        rs = lambda *m: ResidueSet.from_iterable(4, m)
        assert residue_sumset(rs(0), [rs(0, 1)]).members == (0, 1)
        assert residue_sumset(rs(0, 1), [rs(0, 2)]).members == (0, 1, 2, 3)
        assert residue_sumset(rs(0, 2), [rs(0, 2)]).members == (0, 2)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            residue_sumset(ResidueSet.from_iterable(4, [0]),
                           [ResidueSet.from_iterable(5, [0])])

    @given(st.integers(2, 24), st.data())
    @settings(max_examples=60, deadline=None)
    def test_identity_family(self, q, data):
        members = data.draw(st.lists(st.integers(0, q - 1), min_size=1,
                                     unique=True))
        H = ResidueSet.from_iterable(q, members)
        out = residue_sumset(H, [ResidueSet.from_iterable(q, [0])])
        assert out.members == H.members
