"""Construction pipeline: tau, planning, digit bases, assembly, decompose."""

import dataclasses
import functools
import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from hbasis import construct
from hbasis.arith import MAX_BYTES, GuardError, next_prime_at_least
from hbasis.construct import (DecompositionError, InfeasibleParameters,
                              build_theorem1, decompose, digit_basis,
                              plan_params, tau)
from hbasis.cover import gains_bytes
from hbasis.sidon import bose_chowla
from hbasis.sumset import BasisSet, coverage_layers, layers_bytes, n_of, verify_basis


class TestTau:
    def test_residual(self):
        t = tau()
        assert abs(math.exp(t) * (1 - t) - math.exp(-1)) <= 1e-12

    def test_in_unit_interval(self):
        assert 0.8 < tau() < 0.9

    def test_coefficient(self):
        t = tau()
        coeff = (math.exp(t) - math.exp(-1)) / t
        assert abs(coeff - 2.32) <= 0.01


class TestPlanParams:
    def test_formula_infeasible_at_desk_scale(self):
        # ln ln 10^6 ~ 2.626 gives k = 4, a = 7 >= h: grid must engage
        plan = plan_params(10 ** 6, 4)
        assert plan.feasibility == "grid-fallback"
        assert 1 <= plan.k <= plan.a < 4

    def test_override(self):
        plan = plan_params(10 ** 6, 4, 1, 2)
        assert plan.feasibility == "override"
        assert (plan.p, plan.m, plan.q) == (32, 2048, 32768)

    def test_p_value(self):
        assert plan_params(10 ** 6, 4).p == 32

    def test_invalid_override(self):
        with pytest.raises(InfeasibleParameters):
            plan_params(1000, 4, 3, 2)
        with pytest.raises(InfeasibleParameters):
            plan_params(1000, 4, 2, 4)

    def test_override_without_headroom_refused(self):
        # q = 4**4 = 256 and p' = 11, so max(B) <= 11**3 - 2 and the overshoot
        # bound (3 * 1329 + 255) // 256 = 16 passes h = 6; built, it failed on 37 z
        with pytest.raises(InfeasibleParameters, match="headroom"):
            plan_params(2000, 6, 1, 3)

    def test_h_too_small(self):
        with pytest.raises(InfeasibleParameters):
            plan_params(1000, 2)

    def test_grid_respects_constraints(self):
        for h, n in [(3, 10 ** 3), (4, 10 ** 4), (5, 10 ** 5), (6, 10 ** 5)]:
            plan = plan_params(n, h)
            assert 1 <= plan.k <= plan.a < h
            assert plan.q == plan.p ** (h - plan.a + plan.k)


class TestPlanBudget:
    def test_unbuildable_plans_refused_before_any_work(self):
        # (1000, 40): q = 2**32 and a B_29 walk over 29**29 steps; (1e6, 30): a
        # B_19 walk over 17**19; (100, 1000) and (100, 100000): q = 2**986 and
        # 2**99976, and m = p**(h-a) (h-a)! too large to take a root of;
        # (2**32 - 1, 12): a verify modelled at ~8.6 GB
        for n, h in ((1000, 40), (10 ** 6, 30), (100, 1000), (100, 10 ** 5),
                     (2 ** 32 - 1, 12)):
            tracemalloc.start()
            try:
                with pytest.raises(GuardError):
                    plan_params(n, h)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2 ** 20, (n, h)

    def test_grid_checks_only_the_chosen_pair(self):
        # the unchosen pair (1, 1) at (6, 1e8) has q = 22**6, over the budget
        assert gains_bytes(22 ** 6) > MAX_BYTES
        plan = plan_params(10 ** 8, 6)
        assert (plan.k, plan.a, plan.q, plan.feasibility) == (2, 4, 234_256, "grid-fallback")

    def test_formula_plans_fit(self):
        # the paper's own (k, a) at h = 9..16: 22 pairs fit 1 <= k <= a < h and
        # the budget; (h, n) = (14, 1e4), (15, 1e4), (15, 1e6), (16, 1e6) and
        # (16, 1e8) leave decompose no headroom and plan on the grid instead
        plans = [plan_params(n, h) for h in range(9, 17) for n in (10 ** 4, 10 ** 6, 10 ** 8)]
        assert sum(p.feasibility == "formula-derived" for p in plans) == 17

    @pytest.mark.parametrize("n,h,feasibility", [(10 ** 8, 6, "grid-fallback"),
                                                 (10 ** 8, 12, "formula-derived")])
    def test_b_layers_model_bounds_measured_peak(self, n, h, feasibility):
        plan = plan_params(n, h)
        assert plan.feasibility == feasibility
        h_a = plan.h - plan.a
        B = BasisSet(bose_chowla(plan.p_prime, h_a).elements)
        tracemalloc.start()
        try:
            coverage_layers(B, h_a, h_a * B.max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the model that plan_params checks, from p' alone: B lies below p'**(h-a)
        assert peak <= layers_bytes(h_a, h_a * plan.p_prime ** h_a) <= 2 * peak


class TestPinnedPlans:
    # SHA-256 over repr(plan_params(n, h, k, a)), or the exception's type and
    # message, for 836 inputs: 16 values of n at h = 1..30, every override
    # pair at h = 3..8 and n = 1e4..1e7, and the default plans at h = 9..16,
    # n in {1e4, 1e6, 1e8}.  Re-pinned when p became the least integer with
    # p^h > n and one headroom rule came to cover formula pairs (grid
    # fallback) and overrides (refused); each plan is also checked for both.
    NS = (2, 3, 10, 100, 1000, 10 ** 4, 10 ** 5, 2 * 10 ** 5, 10 ** 6, 10 ** 7,
          22 ** 6 - 1, 10 ** 8, 10 ** 9, 2 ** 31, 3 * 10 ** 9, 2 ** 32 - 1)
    DIGEST = "e513d9290528a3b2296331519e7afd7b65423d4c4621ed2b4eec8c92248ae812"

    def inputs(self):
        yield from ((n, h, None, None) for n in self.NS for h in range(1, 31))
        for h in range(3, 9):
            for n in (10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7):
                yield from ((n, h, k, a) for a in range(1, h) for k in range(1, a + 1))
        yield from ((n, h, None, None) for h in range(9, 17) for n in (10 ** 4, 10 ** 6, 10 ** 8))

    def test_every_plan_and_refusal(self):
        digest = hashlib.sha256()
        count = 0
        for n, h, k, a in self.inputs():
            try:
                plan = plan_params(n, h, k, a)
            except (ValueError, GuardError) as exc:
                line = f"{type(exc).__name__}: {exc}"
            else:
                line = repr(plan)
                h_a, q = h - plan.a, plan.q
                max_b = plan.p_prime - 1 if h_a == 1 else plan.p_prime ** h_a - 2
                assert plan.p ** h > n >= (plan.p - 1) ** h, line
                assert h * q > n or (h_a * max_b + plan.k * (q - 1)) // q < h, line
            digest.update((line + "\n").encode())
            count += 1
        assert (count, digest.hexdigest()) == (836, self.DIGEST)

    def test_one_field_size_per_a(self, monkeypatch):
        # the grid at (2, 60) walks a = 1..58: one p' per a, none per (k, a) pair
        calls = []

        def counted(m):
            calls.append(m)
            return next_prime_at_least(m)

        monkeypatch.setattr(construct, "next_prime_at_least", counted)
        plan = plan_params(2, 60)
        assert (plan.k, plan.a, plan.q, plan.feasibility) == (1, 58, 8, "grid-fallback")
        assert len(calls) <= 58 + 1


class TestDigitBasis:
    def test_base3(self):
        db = digit_basis(3, 2)
        assert db.elements == (0, 1, 2, 3, 6)
        assert n_of(db, 2) == 9

    def test_binary(self):
        db = digit_basis(2, 3)
        assert db.elements == (0, 1, 2, 4)
        assert n_of(db, 3) >= 7

    def test_single_digit(self):
        for b in (2, 5, 9):
            db = digit_basis(b, 1)
            assert db.elements == tuple(range(b))
            assert n_of(db, 1) == b - 1

    def test_covers_full_range(self):
        for b in (2, 4, 7):
            for h in (2, 3):
                assert n_of(digit_basis(b, h), h) >= b ** h - 1


class TestBuildTheorem1:
    def test_small_override(self):
        plan = plan_params(10 ** 4, 3, 1, 2)
        assert (plan.p, plan.q) == (22, 484)
        res = build_theorem1(plan)
        assert res.verified
        assert set(res.sizes) == {"A", "B", "C", "D", "G"}
        assert n_of(res.basis, 3) >= 10 ** 4

    def test_degenerate_b1_path(self):
        # h - a = 1: B is an interval and the B_1 condition is vacuous
        plan = plan_params(10 ** 4, 3, 1, 2)
        res = build_theorem1(plan)
        assert res.comp_b == tuple(range(plan.p_prime))

    def test_d_size_formula(self):
        plan = plan_params(10 ** 5, 4)
        res = build_theorem1(plan)
        assert len(res.comp_d) == 1 + (plan.p - 1) * (plan.a - plan.k)

    def test_union_accounting(self):
        plan = plan_params(10 ** 4, 3, 1, 2)
        res = build_theorem1(plan)
        parts = (set(res.comp_a) | set(res.comp_b)
                 | set(res.comp_c) | set(res.comp_d))
        assert set(res.basis.elements) == parts
        assert len(res.basis) <= sum(
            len(c) for c in (res.comp_a, res.comp_b, res.comp_c, res.comp_d))

    def test_decomposition_data_outside_repr_and_eq(self):
        plan = plan_params(10 ** 4, 3, 1, 2)
        res = build_theorem1(plan)
        text = repr(res)
        assert all(name not in text for name in ("b_layers", "y_combos", "y_first"))
        assert build_theorem1(plan) == res

    # (n, h, k, a): multi-lift (max H >= q), a perfect power that failed at
    # z = n while p^h = n, two small overrides and a default plan
    START_PLANS = ((10 ** 5, 7, None, None), (10 ** 5, 5, 2, 4), (10 ** 4, 4, 1, 3),
                   (10 ** 4, 3, 1, 2), (10 ** 5, 4, None, None))

    @pytest.mark.parametrize("n,h,k,a", START_PLANS)
    def test_scan_start_is_first_liftable_combo(self, n, h, k, a):
        res = build_theorem1(plan_params(n, h, k, a))
        q, combos = res.plan.q, res.y_combos
        h_bits = res.b_layers[res.plan.h - res.plan.a]
        # H mod q from H itself: every x <= max(H) set in H's mask
        h_res = {x % q for x in range(h_bits.bit_length()) if (h_bits >> x) & 1}
        oracle = [next((c for c, (y, _) in enumerate(combos) if (r - y) % q in h_res),
                       len(combos)) for r in range(q)]
        assert list(combos) == sorted(combos)
        assert res.y_first.dtype == np.int32 and res.y_first.shape == (q,)
        assert not res.y_first.flags.writeable
        assert res.y_first.tolist() == oracle

    def test_verification_is_exhaustive(self):
        plan = plan_params(2000, 3, 1, 2)
        res = build_theorem1(plan)
        assert res.verified == verify_basis(res.basis, 3, 2000).ok

    def test_incomplete_complement_is_not_verified(self, monkeypatch):
        # G still covers [0, n], but residues no combo lifts would make
        # decompose fail: the result is not verified, so decompose refuses it
        real = construct.k_complement
        monkeypatch.setattr(construct, "k_complement",
                            lambda A, k: dataclasses.replace(real(A, k), complete=False))
        res = build_theorem1(plan_params(10 ** 4, 3, 1, 2))
        assert verify_basis(res.basis, 3, 10 ** 4).ok and res.first_gap is None
        assert not res.verified
        with pytest.raises(ValueError, match="verified"):
            decompose(10 ** 4, res)


@pytest.fixture(scope="module")
def result():
    return build_theorem1(plan_params(10 ** 5, 4))


class TestDecompose:

    def test_zero(self, result):
        w = decompose(0, result)
        assert w.addends == (0,) * 4

    def test_head_interval_uses_a(self, result):
        q = result.plan.q
        for z in (1, 17, 4 * q - 1):
            w = decompose(z, result)
            assert w.from_a == w.addends
            assert sum(w.addends) == z and len(w.addends) == 4
            assert all(x in result.comp_a for x in w.addends)

    def test_composite_path_components(self, result):
        plan = result.plan
        z = plan.h * plan.q + 12345
        w = decompose(z, result)
        assert sum(w.addends) == z and len(w.addends) == plan.h
        assert len(w.from_b) == plan.h - plan.a
        assert len(w.from_c) == plan.k
        assert len(w.from_d) == plan.a - plan.k
        assert all(x in result.comp_b for x in w.from_b)
        assert all(x in result.comp_c for x in w.from_c)
        assert all(x in set(result.comp_d) | {0} for x in w.from_d)

    def test_random_roundtrip(self, result):
        rng = random.Random(99)
        n, h = result.plan.n, result.plan.h
        for _ in range(300):
            z = rng.randrange(n + 1)
            w = decompose(z, result)
            assert sum(w.addends) == z and len(w.addends) == h

    def test_rejects_out_of_range(self, result):
        with pytest.raises(ValueError):
            decompose(result.plan.n + 1, result)


def _decompose_every_z(res):
    basis, h = set(res.basis.elements), res.plan.h
    assert res.verified
    for z in range(res.plan.n + 1):
        w = decompose(z, res)
        assert sum(w.addends) == z and len(w.addends) == h and basis.issuperset(w.addends)


class TestEveryZDecomposes:
    def test_default_and_every_override(self, monkeypatch):
        # h = 3..6 on the perfect powers 1000 = 10**3, 4096 = 4**6 = 8**4 =
        # 16**3 and 10**4, where p^h = n used to fail at z = n; B's set is
        # cached because (4096, 6, 1, 1) and (1e4, 6, 1, 1) share p' = 17
        monkeypatch.setattr(construct, "bose_chowla", functools.lru_cache(None)(bose_chowla))
        refused = []
        for n in (1000, 4096, 10 ** 4):
            for h in range(3, 7):
                pairs = [(None, None)] + [(k, a) for a in range(1, h) for k in range(1, a + 1)]
                for k, a in pairs:
                    try:
                        plan = plan_params(n, h, k, a)
                    except InfeasibleParameters:
                        refused.append((n, h, k, a))
                        continue
                    _decompose_every_z(build_theorem1(plan))
        assert refused == [(4096, 6, 1, 3), (10 ** 4, 6, 1, 3)]

    @pytest.mark.parametrize("n,h,feasibility", [(10 ** 4, 9, "formula-derived"),
                                                 (10 ** 4, 14, "grid-fallback")])
    def test_formula_regime(self, n, h, feasibility):
        # at (1e4, 14) the formula pair (3, 9) has no headroom; built, it
        # failed on 5,142 of the 10,001 z, and the grid pair (1, 12) fails none
        plan = plan_params(n, h)
        assert plan.feasibility == feasibility
        _decompose_every_z(build_theorem1(plan))


class TestPinnedWitnesses:
    # SHA-256 over the witness (or "err") of every z <= n on three plans,
    # recorded before the head-interval path moved from layer backtracking
    # to the base-b digit expansion.  Re-pinned when plans took p^h > n: the
    # perfect power (1e4, 4, 1, 3) moved from p = 10 (one "err", at z = n)
    # to p = 11; the other two plans are unchanged.
    PLANS = ((10 ** 4, 3, 1, 2), (10 ** 5, 4, None, None), (10 ** 4, 4, 1, 3))
    DIGEST = "fa132375eddb9fbd178e0c8daf8f1f69754171650b9671ca23634405f9a1a8a9"

    def test_every_witness(self):
        digest = hashlib.sha256()
        for n, h, k, a in self.PLANS:
            res = build_theorem1(plan_params(n, h, k, a))
            for z in range(n + 1):
                try:
                    w = decompose(z, res)
                    line = f"{z} {w.addends} {w.from_a} {w.from_b} {w.from_c} {w.from_d}\n"
                except DecompositionError:
                    line = f"{z} err\n"
                digest.update(line.encode())
        assert digest.hexdigest() == self.DIGEST


class TestPinnedDefaultScan:
    # SHA-256 over the witness (or "err") of the decompose benchmark's query
    # shape on the default (1e7, 6) plan: 765 family combos, most of them
    # skipped by the per-residue scan start.  20,000 z from Random(0) plus
    # the top window [n - 999, n], recorded while every scan began at the
    # first combo.
    DIGEST = "15e786dd8b10b67b46bed9fd6d994caed935a7768fb28e505f139d64c335bdf0"

    def test_benchmark_queries(self):
        res = build_theorem1(plan_params(10 ** 7, 6))
        n = res.plan.n
        assert len(res.y_combos) == 765
        rng = random.Random(0)
        zs = [rng.randint(0, n) for _ in range(20_000)] + list(range(n - 999, n + 1))
        digest = hashlib.sha256()
        for z in zs:
            try:
                w = decompose(z, res)
                line = f"{z} {w.addends} {w.from_a} {w.from_b} {w.from_c} {w.from_d}\n"
            except DecompositionError:
                line = f"{z} err\n"
            digest.update(line.encode())
        assert digest.hexdigest() == self.DIGEST


class TestPinnedMultiLift:
    # SHA-256 over the witness (or "err") of every z <= n on the default
    # (1e5, 7) plan, where max(H) = 236 >= q = 216: three residues of H
    # lift only to x >= q, so the x loop in decompose steps past a lift
    # outside H, and 3,192 witnesses take such an x.  Recorded while
    # decompose still tested each residue against H mod q first.
    DIGEST = "63e1b7044608740e7705c23d5e39db625c74ba012c4ffb459b1cfe810acd0194"

    def test_every_witness(self):
        res = build_theorem1(plan_params(10 ** 5, 7))
        plan = res.plan
        assert (plan.q, (plan.h - plan.a) * res.comp_b[-1]) == (216, 236)
        digest = hashlib.sha256()
        for z in range(plan.n + 1):
            try:
                w = decompose(z, res)
                line = f"{z} {w.addends} {w.from_a} {w.from_b} {w.from_c} {w.from_d}\n"
            except DecompositionError:
                line = f"{z} err\n"
            digest.update(line.encode())
        assert digest.hexdigest() == self.DIGEST
