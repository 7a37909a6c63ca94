"""Greedy shift covers: worked examples, prefix bound, budget audit."""

import hashlib
import random
import tracemalloc
from math import ceil, exp, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbasis import cover
from hbasis.arith import bits_to_sorted, rotate, to_bools
from hbasis.construct import build_theorem1, plan_params
from hbasis.cover import (_correlate, _fast_len, _subtract_drop, _window_len,
                          complement_size_bound, gains_bytes,
                          greedy_shift_cover, k_complement)
from hbasis.sumset import ResidueSet, residue_sumset


def gains_naive(A: ResidueSet, uncovered_members) -> list[int]:
    """Reference gain computation, cross-checked against the FFT path."""
    q = A.q
    unc = set(uncovered_members)
    return [sum(1 for a in A.members if (a + x) % q in unc) for x in range(q)]


class TestGreedyShiftCover:
    def test_full_base_one_shift(self):
        z4 = ResidueSet.full(4)
        res = greedy_shift_cover(z4, z4, 1)
        assert res.X.members == (0,) and len(res.remainder) == 0

    def test_half_interval(self):
        res = greedy_shift_cover(ResidueSet.from_iterable(4, [0, 1]),
                                 ResidueSet.full(4), 2)
        assert res.X.members == (0, 2) and len(res.remainder) == 0

    def test_singleton_base(self):
        res = greedy_shift_cover(ResidueSet.from_iterable(4, [0]),
                                 ResidueSet.full(4), 2)
        assert len(res.remainder) == 2
        assert len(res.remainder) <= (1 - 1 / 4) ** 2 * 4

    def test_rejects_empty_base(self):
        with pytest.raises(ValueError):
            greedy_shift_cover(ResidueSet.from_iterable(4, ()), ResidueSet.full(4), 1)

    def test_fft_gains_match_naive(self):
        rng = random.Random(7)
        for q in (5, 16, 37, 128):
            members = sorted(rng.sample(range(q), rng.randint(1, q)))
            A = ResidueSet.from_iterable(q, members)
            b_members = sorted(rng.sample(range(q), rng.randint(1, q)))
            expected = gains_naive(A, b_members)
            # one greedy step must pick the naive argmax (smallest on ties)
            res = greedy_shift_cover(A, ResidueSet.from_iterable(q, b_members), 1)
            assert res.picks[0] == expected.index(max(expected))

    def test_prefix_bound_randomized(self):
        rng = random.Random(2024)
        for _ in range(40):
            q = rng.randint(8, 256)
            A = ResidueSet.from_iterable(
                q, rng.sample(range(q), rng.randint(1, q)))
            B = ResidueSet.from_iterable(
                q, rng.sample(range(q), rng.randint(1, q)))
            t = rng.randint(1, q)
            res = greedy_shift_cover(A, B, t)
            for j, left in enumerate(res.uncovered_trace, start=1):
                assert left <= (1 - len(A) / q) ** j * len(B) + 1e-9

    def test_determinism(self):
        q = 64
        A = ResidueSet.from_iterable(q, range(0, 64, 5))
        B = ResidueSet.full(q)
        a = greedy_shift_cover(A, B, 10)
        b = greedy_shift_cover(A, B, 10)
        assert a.picks == b.picks


def naive_greedy(A, B, t):
    """Reference greedy: gains_naive before every pick, first maximum wins."""
    q = A.q
    unc = set(B.members)
    picks, trace = [], []
    while unc and len(picks) < t:
        gains = gains_naive(A, unc)
        x = gains.index(max(gains))
        picks.append(x)
        unc -= {(a + x) % q for a in A.members}
        trace.append(len(unc))
    return tuple(picks), tuple(trace)


def naive_remainder(A, B, picks):
    """B \\ (A + X), one residue at a time."""
    q = A.q
    covered = {(a + x) % q for a in A.members for x in picks}
    return ResidueSet.from_iterable(q, [b for b in B.members if b not in covered])


def windowed_gains_oracle(A, B, t):
    """Drive _subtract_drop pick by pick as the window path does, in one pair of
    buffers for the round (the float one starts as garbage, so a drop that
    left its head or tail unzeroed would show), checking the maintained gains
    against a full _correlate (and gains_naive at q <= 64) after every pick,
    and that no gain outside the slices the drop returns moved; returns the
    picks."""
    q, base_len = A.q, A.bits.bit_length()
    n = _window_len(base_len, q)
    fa_conj = np.conj(np.fft.rfft(to_bools(A.bits, q).astype(np.float64)))
    window_conj = np.conj(np.fft.rfft(to_bools(A.bits, base_len).astype(np.float64), n))
    buf, spec = np.full(n, 7.0), np.empty(n // 2 + 1, complex)

    def full_gains(mask):
        return _correlate(to_bools(mask, q).astype(np.float64), fa_conj,
                          np.empty(q // 2 + 1, complex))

    uncovered = B.bits
    gains = full_gains(uncovered)
    picks = []
    while uncovered and len(picks) < t:
        x = int(np.argmax(gains))
        picks.append(x)
        covered = uncovered & rotate(A.bits, x, q)
        uncovered ^= covered
        buf[base_len - 1:2 * base_len - 1] = to_bools(rotate(covered, -x, q), base_len)
        before = gains.copy()
        arcs = _subtract_drop(gains, window_conj, buf, spec, base_len, x)
        outside = np.ones(q, bool)
        for lo, hi in arcs:
            outside[lo:hi] = False
        assert sum(hi - lo for lo, hi in arcs) == 2 * base_len - 1
        assert gains[outside].tolist() == before[outside].tolist()
        assert gains.tolist() == full_gains(uncovered).tolist()
        if q <= 64:
            assert gains.tolist() == gains_naive(A, bits_to_sorted(uncovered))
    return tuple(picks)


def random_instances(count, seed):
    """(A, B, t) with A packed in [0, L) (bit L - 1 set), B empty, full or
    random, and t from 0 up to q."""
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.randint(2, 96)
        base_len = rng.randint(1, q if rng.random() < 0.5 else max(1, q // 4))
        dense = rng.random()
        A = ResidueSet.from_iterable(q, [v for v in range(base_len - 1) if rng.random() < dense]
                                     + [base_len - 1])
        kind = rng.random()
        if kind < 0.1:
            B = ResidueSet(q, 0)
        elif kind < 0.4:
            B = ResidueSet.full(q)
        else:
            B = ResidueSet.from_iterable(q, [v for v in range(q) if rng.random() < 0.6])
        yield A, B, rng.randint(0, q)


class TestIncrementalGains:
    def test_path_rule(self):
        # window whenever the power of two >= 2L is shorter than q; its
        # transforms then run at the least even 5-smooth length >= 2L - 1
        assert _window_len(8, 32) == 16 and _window_len(8, 31) == 16
        assert _window_len(8, 17) == 16 and _window_len(8, 16) == 0
        assert _window_len(9, 33) == 18 and _window_len(9, 32) == 0
        assert _window_len(1, 4) == 2 and _window_len(1, 3) == 2 and _window_len(1, 2) == 0
        # both rounds of (5, 1e7), the construct workload, take the window
        assert _window_len(2733, 456_976) == 5760
        assert _window_len(128_589, 456_976) == 259_200
        # (4, 1e6) round 2, below half the length of q
        assert _window_len(253_741, 1 << 20) == 512_000

    def test_fast_len_brute_force(self):
        def smooth(v):
            for f in (2, 3, 5):
                while v % f == 0:
                    v //= f
            return v == 1

        expected, n = [], 2
        for m in range(1, 20_001):
            while n < m or not smooth(n):
                n += 2
            expected.append(n)
        assert [_fast_len(m) for m in range(1, 20_001)] == expected

    def test_window_rule_sweep(self):
        # the smooth length never moves a base between the paths: the rule
        # reads the power of two, and the length is exact (n >= 2L - 1) and even
        for base_len in range(1, 300):
            pow2 = 1 << (2 * base_len - 1).bit_length()
            for q in range(base_len, 700):
                n = _window_len(base_len, q)
                assert (n != 0) == (pow2 < q), (base_len, q)
                if n:
                    assert n == _fast_len(2 * base_len - 1) and n % 2 == 0
                    assert 2 * base_len - 1 <= n <= pow2

    def test_random_instances_against_oracles(self):
        paths = {"window": 0, "full": 0}
        wraps = {"high": 0, "low": 0}
        for A, B, t in random_instances(240, seed=6):
            q, base_len = A.q, A.bits.bit_length()
            res = greedy_shift_cover(A, B, t)
            assert (res.picks, res.uncovered_trace) == naive_greedy(A, B, t)
            assert res.remainder == naive_remainder(A, B, res.picks)
            if _window_len(base_len, q):
                paths["window"] += 1
                assert windowed_gains_oracle(A, B, t) == res.picks
                wraps["high"] += any(x > q - base_len for x in res.picks)
                wraps["low"] += any(x < base_len - 1 for x in res.picks)
            else:
                paths["full"] += 1
        assert paths == {"window": 168, "full": 72}
        assert wraps["high"] > 0 and wraps["low"] > 0

    @pytest.mark.parametrize("q, members, b_members, t", [
        (64, range(8), [60, 62, 63, 0, 1], 3),   # first pick 58 wraps past q - L
        (64, range(8), range(2, 10), 2),         # pick 2: drop window starts below 0
        (32, [0, 7], range(32), 32),             # window FFT N = 16 = q/2
        (31, [0, 7], range(31), 31),             # N = 16 > q/2: windowed
        (32, [0, 8], range(32), 32),             # one bit longer, N = 32 = q: full path
        (40, [0, 1], range(40), 40),             # every pick is a tie
        (64, [0, 3, 5], range(64), 0),           # t = 0
        (64, [0, 3, 5], [], 5),                  # empty B
        (17, [0, 7], range(17), 17),             # N = q - 1: window path at its limit
        (16, [0, 7], range(16), 16),             # N = q: full path
        (300, [0, 3, 50, 119], range(300), 40),  # n = 2L = 240, not a power of two
        (257, range(0, 120, 7), range(257), 30),  # pow2 256 = q - 1: n = 240, windowed
        (250, [0, 3, 50, 119], range(250), 40),  # n = 240 < q < 256: full path
        (10_000, [0, 1], [4095, 4096], 2),     # the maximum ends the first block of gains
        (10_000, [0, 1], [4096, 4097, 8191, 8192], 3),  # a tie across blocks: the first wins
        (8193, [0, 1], [8192, 0, 4095, 4096, 12], 4),   # a last block of one gain; 8192 wraps
    ])
    def test_edge_cases(self, q, members, b_members, t):
        A = ResidueSet.from_iterable(q, members)
        B = ResidueSet.from_iterable(q, b_members)
        res = greedy_shift_cover(A, B, t)
        assert (res.picks, res.uncovered_trace) == naive_greedy(A, B, t)
        assert res.remainder == naive_remainder(A, B, res.picks)
        if _window_len(A.bits.bit_length(), q):
            assert windowed_gains_oracle(A, B, t) == res.picks

    @pytest.mark.parametrize("members, b_members, t, long", [
        (range(0, 100, 3), range(1000), 20, []),  # windowed, B = Z_q: no seed, no recompute
        (range(0, 100, 3), range(0, 1000, 2), 20, ["rfft", "rfft", "irfft"]),  # seeded
        ([0, 5, 17, 999], range(1000), 1, ["rfft"]),  # full path, one pick: A's spectrum only
    ])
    def test_q_point_transforms(self, monkeypatch, members, b_members, t, long):
        # every transform of length q that a round runs, in order: a windowed
        # round on B = Z_q starts its gains at |A| and runs none
        q, lengths = 1000, []
        rfft, irfft = np.fft.rfft, np.fft.irfft

        def rec_rfft(a, n=None, *args, **kwargs):
            lengths.append(("rfft", n or len(a)))
            return rfft(a, n, *args, **kwargs)

        def rec_irfft(a, n=None, *args, **kwargs):
            lengths.append(("irfft", n))
            return irfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", rec_rfft)
        monkeypatch.setattr(np.fft, "irfft", rec_irfft)
        A = ResidueSet.from_iterable(q, members)
        B = ResidueSet.from_iterable(q, b_members)
        res = greedy_shift_cover(A, B, t)
        assert bool(_window_len(A.bits.bit_length(), q)) == (members != [0, 5, 17, 999])
        assert (res.picks, res.uncovered_trace) == naive_greedy(A, B, t)
        assert [kind for kind, n in lengths if n == q] == long

    @pytest.mark.parametrize("n, h, q", [(10 ** 5, 4, 5832), (10 ** 4, 3, 10_648)])
    def test_real_base_past_half_q(self, monkeypatch, n, h, q):
        # the default plan's round 1, whose window FFT lies in (q/2, q)
        rounds = []
        greedy = cover.greedy_shift_cover

        def recorded(*args):
            rounds.append((args, greedy(*args)))
            return rounds[-1][1]

        monkeypatch.setattr(cover, "greedy_shift_cover", recorded)
        build_theorem1(plan_params(n, h))
        (A, B, t), res = rounds[0]
        assert A.q == q and q < 2 * _window_len(A.bits.bit_length(), q) < 2 * q
        assert windowed_gains_oracle(A, B, t) == res.picks


class TestKComplement:
    def test_full_base(self):
        fam = k_complement(ResidueSet.full(8), 1)
        assert [X.members for X in fam.families] == [(0,)]
        assert fam.complete and not fam.over_budget

    def test_half_interval_z8(self):
        fam = k_complement(ResidueSet.from_iterable(8, [0, 1, 2, 3]), 1)
        assert fam.families[0].members == (0, 4)
        assert fam.complete
        assert fam.total_shifts <= complement_size_bound(8, 4, 1)

    def test_size_bound_past_the_float_range(self):
        # q ln q / alpha is no float here: the root is bounded above by an
        # integer one that reads q's bit length b > ln q in place of ln q
        for q, alpha, k in [(2 ** 1100, 2 ** 1090, 1), (2 ** 1023, 1, 3), (3 ** 700, 5, 2)]:
            root = exp((log(q) + log(log(q)) - log(alpha)) / k)
            slack = (q.bit_length() / log(q)) ** (1 / k)
            bound = complement_size_bound(q, alpha, k) - ceil(log(q))
            assert k * root <= bound <= k * (root * slack * (1 + 1e-9) + 1), (q, alpha, k)

    def test_singleton_base(self):
        for q in (4, 9, 16):
            fam = k_complement(ResidueSet.from_iterable(q, [0]), 1)
            assert fam.families[0].members == tuple(range(q))
            assert fam.complete

    def test_trivial_modulus(self):
        fam = k_complement(ResidueSet.from_iterable(1, [0]), 1)
        assert fam.complete and fam.families == ()

    def test_completeness_verified_by_sumset(self):
        rng = random.Random(5)
        for _ in range(20):
            q = rng.choice((32, 64, 128))
            k = rng.choice((1, 2, 3))
            size = rng.randint(ceil(q ** 0.5), q)
            A = ResidueSet.from_iterable(q, rng.sample(range(q), size))
            fam = k_complement(A, k)
            assert len(fam.families) == k
            assert len(residue_sumset(A, fam.families)) == q
            assert fam.complete

    def test_complete_iff_from_scratch_sumset(self):
        # reference: A + X_1 + ... + X_k rebuilt from A, not from the
        # stack k_complement grows round by round
        rng = random.Random(8)
        for _ in range(120):
            q = rng.randint(1, 96)
            k = rng.choice((1, 2, 3))
            A = ResidueSet.from_iterable(q, rng.sample(range(q), rng.randint(1, q)))
            fam = k_complement(A, k)
            assert (len(residue_sumset(A, fam.families)) == q) == fam.complete

    @given(st.integers(1, 96), st.data())
    @settings(max_examples=200, deadline=None)
    def test_grown_base_is_full_minus_remainder(self, q, data):
        # the identity k_complement grows its base by in rounds 1..k-1
        A = ResidueSet.from_iterable(
            q, data.draw(st.lists(st.integers(0, q - 1), min_size=1, unique=True)))
        full = ResidueSet.full(q)
        res = greedy_shift_cover(A, full, data.draw(st.integers(0, q)))
        assert full.bits ^ res.remainder.bits == residue_sumset(A, [res.X]).bits

    def test_budget_audit(self):
        rng = random.Random(11)
        for q in (64, 256):
            for k in (1, 2, 3):
                for _ in range(5):
                    size = rng.randint(ceil(q ** 0.5), q)
                    A = ResidueSet.from_iterable(q, rng.sample(range(q), size))
                    fam = k_complement(A, k)
                    assert not fam.over_budget
                    assert fam.total_shifts <= complement_size_bound(q, size, k)

    def test_union_size_le_total(self):
        A = ResidueSet.from_iterable(32, [0, 3, 7])
        fam = k_complement(A, 2)
        assert fam.union_size <= fam.total_shifts


class TestGainsModel:
    def test_bounds_measured_peak(self):
        # the windowed and the full-recompute greedy path, and both rounds of k = 2.
        # On B = Z_q the windowed round holds no q-point spectrum: its peak is the
        # gains (8q) and the window's buffers, 9.3 bytes per residue measured, so
        # that row gets its own upper bound instead of 2 * peak >= gains_bytes(q).
        # The full path measured 26.4 (A's spectrum, the gains, a spectrum buffer
        # and a pick's unpacked window over all of Z_q), k_complement 25.7
        q = 1 << 20
        full = ResidueSet.full(q)
        short = ResidueSet(q, (1 << 16384) - 1)
        wide = ResidueSet.from_iterable(q, [0, 5, 17, q - 1])
        assert _window_len(16384, q) and not _window_len(q, q)
        for fn, args, most, modelled in ((greedy_shift_cover, (short, full, 3), 10, False),
                                         (greedy_shift_cover, (wide, full, 3), 28, True),
                                         (k_complement, (short, 2), 28, True)):
            tracemalloc.start()
            try:
                fn(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= gains_bytes(q), fn.__name__
            assert peak <= most * q, fn.__name__
            assert gains_bytes(q) <= 2 * peak or not modelled, fn.__name__

    @pytest.mark.parametrize("q, base_len, per_residue", [
        (3 << 18, 200_000, 28),       # window FFT 400,000 in (q/2, q): 20.9 measured
        ((1 << 19) + 1, 1 << 18, 34),  # window FFT 2**19 = q - 1: 33.3 measured
    ])
    def test_window_past_half_q(self, q, base_len, per_residue):
        # a window FFT of n < q points costs about 8q + 24n bytes per pick
        base = ResidueSet(q, (1 << base_len) - 1)
        assert q < 2 * _window_len(base_len, q) < 2 * q
        tracemalloc.start()
        try:
            greedy_shift_cover(base, ResidueSet.full(q), 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= gains_bytes(q) <= 2 * peak
        assert peak <= per_residue * q


class TestComplementSizeBound:
    def test_examples(self):
        assert complement_size_bound(8, 4, 1) == 8
        assert complement_size_bound(8, 8, 1) == 6
        assert complement_size_bound(2, 1, 1) == 3

    def test_formula(self):
        q, alpha, k = 100, 10, 2
        expected = k * ceil((q * log(q) / alpha) ** (1 / k)) + ceil(log(q))
        assert complement_size_bound(q, alpha, k) == expected


class TestPinnedPicks:
    # SHA-256 over every greedy round's picks and uncovered trace while
    # build_theorem1 builds C on four default plans, recorded while every
    # pick still came from its own full-length FFT.  Round 1 of each plan,
    # the only round of (3, 2e5) (231 picks) included, runs on the windowed
    # drop, and so does round 2 of (5, 1e7) (32 picks, power of two 2**18 <
    # q = 456,976, transforms of 259,200 points); round 2 of (5, 1e6) and
    # (6, 1e7), whose power of two would not be shorter than q, recomputes
    # in full.
    PLANS = ((10 ** 6, 5), (10 ** 7, 6), (2 * 10 ** 5, 3), (10 ** 7, 5))
    DIGEST = "e1488d507e198a21fbfda4865f1b91207f4af3efd78402ba98fc190e835b8cc7"

    def test_picks_and_traces(self, monkeypatch):
        rounds = []
        greedy = cover.greedy_shift_cover

        def recorded(*args):
            rounds.append(greedy(*args))
            return rounds[-1]

        monkeypatch.setattr(cover, "greedy_shift_cover", recorded)
        digest = hashlib.sha256()
        for n, h in self.PLANS:
            rounds.clear()
            build_theorem1(plan_params(n, h))
            for i, r in enumerate(rounds, start=1):
                digest.update(f"{n} {h} {i} {r.picks} {r.uncovered_trace}\n".encode())
        assert digest.hexdigest() == self.DIGEST
