"""Exact n(h,k) and zeta(h,n) on small instances by branch-and-bound.

Convention: 0 must be an element (it is the only way 0 gets an exactly-h
representation) and it counts toward |A|.  Classical postage-stamp tables
count denominations without 0 and are therefore offset by one in k; the
exhaustive oracle here is the ground truth instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .arith import GuardError
from .bounds import rohrbach
from .sumset import BasisSet, n_of


@dataclass(frozen=True)
class SearchResult:
    h: int
    k: int
    value: int
    witness: tuple[int, ...]
    nodes_explored: int
    proof_of_optimality: bool


class BudgetExhausted(RuntimeError):
    pass


def _optimistic_reach(h: int, n0: int, remaining: int, cap: int) -> int:
    """Admissible bound: every element obeys e <= reach+1, so one more
    element lifts the reach to at most h*(reach+1); cap is Rohrbach's
    C(k+h, h)."""
    b = n0
    for _ in range(remaining):
        b = h * (b + 1)
        if b >= cap:
            return cap
    return min(b, cap)


def extremal_n(h: int, k: int, node_budget: int = 1_000_000) -> SearchResult:
    """Exact max of n(h, A) over |A| = k, depth-first with the successor rule
    a_next <= n(h, prefix) + 1 (a larger element strands the first gap) and
    incumbent pruning.  proof_of_optimality is false iff the budget ran out.
    """
    if h < 1 or k < 1:
        raise ValueError("need h >= 1, k >= 1")
    cap = comb(k + h, h)
    best_val = -1
    best_wit: tuple[int, ...] = ()
    nodes = 0
    exhausted = False

    def dfs(prefix: list[int], reach: int):
        nonlocal best_val, best_wit, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        if len(prefix) == k:
            if reach > best_val:
                best_val = reach
                best_wit = tuple(prefix)
            return
        if _optimistic_reach(h, reach, k - len(prefix), cap) <= best_val:
            return
        for e in range(prefix[-1] + 1, reach + 2):
            prefix.append(e)
            dfs(prefix, n_of(BasisSet(tuple(prefix)), h))
            prefix.pop()
            if exhausted:
                return

    dfs([0], 0)
    return SearchResult(h=h, k=k, value=best_val, witness=best_wit,
                        nodes_explored=nodes, proof_of_optimality=not exhausted)


def oracle_exhaustive(h: int, k: int) -> SearchResult:
    """Plain enumeration of all k-subsets of [0, C(k+h, h)] containing 0.

    C(k+h, h) is Rohrbach's upper bound on n(h, k).  Independent of the
    branch-and-bound path; no pruning beyond the guard.
    """
    if h < 1 or k < 1:
        raise ValueError("need h >= 1, k >= 1")
    max_element = rohrbach(h, k)[1]
    if comb(max_element, k - 1) > 5_000_000:
        raise GuardError(f"oracle too large: C({max_element}, {k - 1}) subsets")
    best_val = -1
    best_wit: tuple[int, ...] = ()
    count = 0
    for rest in combinations(range(1, max_element + 1), k - 1):
        count += 1
        value = n_of(BasisSet((0,) + rest), h)
        if value is not None and value > best_val:
            best_val = value
            best_wit = (0,) + rest
    return SearchResult(h=h, k=k, value=best_val, witness=best_wit,
                        nodes_explored=count, proof_of_optimality=True)


def zeta_exact(h: int, n: int, node_budget: int = 1_000_000):
    """Smallest k with n(h,k) >= n, by iterative deepening on k.

    Returns (k_min, witness); the witness is a k_min-element h-basis of [0, n].
    """
    if h < 1 or n < 0:
        raise ValueError("need h >= 1, n >= 0")
    k = 1
    while True:
        res = extremal_n(h, k, node_budget)
        if not res.proof_of_optimality:
            raise BudgetExhausted(f"node budget exhausted at k={k}")
        if res.value >= n:
            return k, res.witness
        k += 1
