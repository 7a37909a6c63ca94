"""Construction pipeline: tau, planning, digit bases, assembly, decompose."""

import hashlib
import math
import random
import tracemalloc

import pytest

from hbasis.arith import MAX_BYTES, GuardError
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
        # the paper's own (k, a) at h = 9..16: 22 plans, all within the budget
        plans = [plan_params(n, h) for h in range(9, 17) for n in (10 ** 4, 10 ** 6, 10 ** 8)]
        assert sum(p.feasibility == "formula-derived" for p in plans) == 22

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
        assert "b_layers" not in text and "y_combos" not in text
        assert build_theorem1(plan) == res

    def test_verification_is_exhaustive(self):
        plan = plan_params(2000, 3, 1, 2)
        res = build_theorem1(plan)
        assert res.verified == verify_basis(res.basis, 3, 2000).ok


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


class TestPinnedWitnesses:
    # SHA-256 over the witness (or "err") of every z <= n on three plans,
    # recorded before the head-interval path moved from layer backtracking
    # to the base-b digit expansion.  The (1e4, 4, 1, 3) plan keeps its
    # known DecompositionError at z = n.
    PLANS = ((10 ** 4, 3, 1, 2), (10 ** 5, 4, None, None), (10 ** 4, 4, 1, 3))
    DIGEST = "b9404e4d0cde526fcd956d976206e612e2795b6c665e69beef8882ee18b05d75"

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
