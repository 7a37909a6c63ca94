"""Greedy shift covers: worked examples, prefix bound, budget audit."""

import hashlib
import random
import tracemalloc
from math import ceil, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbasis import cover
from hbasis.arith import bits_to_sorted, rotate, to_bools
from hbasis.construct import build_theorem1, plan_params
from hbasis.cover import (_gains_fft, _subtract_drop, _window_len,
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


def windowed_gains_oracle(A, B, t):
    """Drive _subtract_drop pick by pick as the window path does, checking
    the maintained gains against _gains_fft (and gains_naive at q <= 64)
    after every pick; returns the picks."""
    q, base_len = A.q, A.bits.bit_length()
    n = _window_len(base_len, q)
    fa_conj = np.conj(np.fft.rfft(to_bools(A.bits, q).astype(np.float64)))
    window_conj = np.conj(np.fft.rfft(to_bools(A.bits, base_len).astype(np.float64), n))
    uncovered = B.bits
    gains = _gains_fft(fa_conj, to_bools(uncovered, q), q)
    picks = []
    while uncovered and len(picks) < t:
        x = int(np.argmax(gains))
        picks.append(x)
        covered = uncovered & rotate(A.bits, x, q)
        uncovered ^= covered
        _subtract_drop(gains, window_conj, base_len, rotate(covered, -x, q), x)
        assert gains.tolist() == _gains_fft(fa_conj, to_bools(uncovered, q), q).tolist()
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
        # window when its power-of-two FFT (>= 2L) is at most q/2
        assert _window_len(8, 32) == 16
        assert _window_len(8, 31) == 0
        assert _window_len(9, 32) == 0
        assert _window_len(1, 4) == 2 and _window_len(1, 3) == 0
        # (5, 1e7) round 1; (4, 1e6) round 2, half the length of q
        assert _window_len(2733, 456_976) == 8192
        assert _window_len(253_741, 1 << 20) == 1 << 19

    def test_random_instances_against_oracles(self):
        paths = {"window": 0, "full": 0}
        wraps = {"high": 0, "low": 0}
        for A, B, t in random_instances(240, seed=6):
            q, base_len = A.q, A.bits.bit_length()
            res = greedy_shift_cover(A, B, t)
            assert (res.picks, res.uncovered_trace) == naive_greedy(A, B, t)
            if _window_len(base_len, q):
                paths["window"] += 1
                assert windowed_gains_oracle(A, B, t) == res.picks
                wraps["high"] += any(x > q - base_len for x in res.picks)
                wraps["low"] += any(x < base_len - 1 for x in res.picks)
            else:
                paths["full"] += 1
        assert paths == {"window": 124, "full": 116}
        assert wraps["high"] > 0 and wraps["low"] > 0

    @pytest.mark.parametrize("q, members, b_members, t", [
        (64, range(8), [60, 62, 63, 0, 1], 3),   # first pick 58 wraps past q - L
        (64, range(8), range(2, 10), 2),         # pick 2: drop window starts below 0
        (32, [0, 7], range(32), 32),             # 2N = q: window path at its limit
        (31, [0, 7], range(31), 31),             # one residue less: full path
        (32, [0, 8], range(32), 32),             # one bit longer: full path
        (40, [0, 1], range(40), 40),             # every pick is a tie
        (64, [0, 3, 5], range(64), 0),           # t = 0
        (64, [0, 3, 5], [], 5),                  # empty B
    ])
    def test_edge_cases(self, q, members, b_members, t):
        A = ResidueSet.from_iterable(q, members)
        B = ResidueSet.from_iterable(q, b_members)
        res = greedy_shift_cover(A, B, t)
        assert (res.picks, res.uncovered_trace) == naive_greedy(A, B, t)
        if _window_len(A.bits.bit_length(), q):
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
        # the windowed and the full-recompute greedy path, and both rounds of k = 2
        q = 1 << 20
        full = ResidueSet.full(q)
        short = ResidueSet(q, (1 << 16384) - 1)
        wide = ResidueSet.from_iterable(q, [0, 5, 17, q - 1])
        assert _window_len(16384, q) and not _window_len(q, q)
        for fn, args in ((greedy_shift_cover, (short, full, 3)),
                         (greedy_shift_cover, (wide, full, 3)),
                         (k_complement, (short, 2))):
            tracemalloc.start()
            try:
                fn(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= gains_bytes(q) <= 2 * peak, fn.__name__


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
    # drop; round 2 of the other three recomputes in full.
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
