"""Branch-and-bound search against the exhaustive oracle."""

import random

import pytest

from hbasis.arith import GuardError
from hbasis.bounds import rohrbach
from hbasis.search import (BudgetExhausted, extremal_n, oracle_exhaustive,
                           zeta_exact)
from hbasis.sumset import BasisSet, n_of, verify_basis


class TestExtremalN:
    def test_h1_is_interval(self):
        for k in range(1, 7):
            res = extremal_n(1, k)
            assert res.value == k - 1
            assert res.witness == tuple(range(k))

    def test_anchors(self):
        assert extremal_n(2, 3).value == 4
        assert extremal_n(2, 3).witness == (0, 1, 2)
        assert extremal_n(2, 4).value == 8
        assert extremal_n(2, 4).witness == (0, 1, 3, 4)

    def test_witness_verifies_and_is_tight(self):
        for h, k in [(2, 4), (3, 3), (2, 5)]:
            res = extremal_n(h, k)
            wit = BasisSet(res.witness)
            assert verify_basis(wit, h, res.value).ok
            assert not verify_basis(wit, h, res.value + 1).ok

    def test_bracket(self):
        # The closed-form bracket counts denominations excluding 0, while
        # witnesses here count 0 in their cardinality, so compare at k - 1.
        for h in (1, 2, 3):
            for k in (1, 2, 3, 4, 5):
                res = extremal_n(h, k)
                lo, hi = (0, 1) if k == 1 else rohrbach(h, k - 1)
                assert lo <= res.value <= hi

    def test_monotone_in_k(self):
        vals = [extremal_n(2, k).value for k in range(1, 7)]
        assert vals == sorted(vals)

    def test_budget_exhaustion_flagged(self):
        res = extremal_n(3, 6, node_budget=10)
        assert not res.proof_of_optimality

    def test_deterministic_node_counts(self):
        a = extremal_n(2, 5)
        b = extremal_n(2, 5)
        assert a.nodes_explored == b.nodes_explored
        assert a.witness == b.witness


class TestSuccessorRule:
    def test_larger_element_strands_first_gap(self):
        rng = random.Random(3)
        for _ in range(30):
            h = rng.randint(1, 3)
            prefix = sorted(rng.sample(range(20), rng.randint(1, 4)))
            if prefix[0] != 0:
                prefix[0] = 0
            P = BasisSet.from_iterable(prefix)
            base = n_of(P, h)
            e = base + 2 + rng.randint(0, 5)
            bigger = BasisSet.from_iterable(P.elements + (e, e + 3))
            assert n_of(bigger, h) == base


class TestOracle:
    def test_agrees_with_branch_and_bound(self):
        for h in (1, 2, 3):
            for k in (1, 2, 3, 4):
                a = extremal_n(h, k)
                b = oracle_exhaustive(h, k)
                assert (a.value, a.proof_of_optimality) == (b.value, True)

    def test_examples(self):
        assert oracle_exhaustive(2, 2).value == 2
        assert oracle_exhaustive(2, 2).witness == (0, 1)
        assert oracle_exhaustive(2, 3).value == 4

    def test_guard(self):
        with pytest.raises(GuardError):
            oracle_exhaustive(2, 12)


class TestZetaExact:
    def test_example(self):
        k, wit = zeta_exact(2, 8)
        assert k == 4
        assert verify_basis(BasisSet(wit), 2, 8).ok

    def test_trivial_n0(self):
        assert zeta_exact(3, 0) == (1, (0,))

    def test_h1(self):
        for n in (0, 3, 6):
            k, wit = zeta_exact(1, n)
            assert k == n + 1
            assert wit == tuple(range(n + 1))

    def test_budget_raises(self):
        with pytest.raises(BudgetExhausted):
            zeta_exact(3, 10 ** 6, node_budget=50)
