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

from .arith import GuardError, check_bytes, mask_bytes
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

    Each node carries its prefix's masks S_1..S_h, S_j the sums of at most j
    elements (0 is in every prefix, so S_h is the exactly-h sumset), and its
    reach n(h, prefix).  A child extends them by S'_j = S_j | (S'_{j-1} << e)
    for j = 1..h ascending, and resumes the reach scan from the parent's,
    since a child only gains sums.  Nodes wait on an explicit stack, children
    pushed largest first, so the visit order is the recursive one at any k.
    The first expansion at each new largest reach checks the memory budget
    for its node and children: (reach + 2) h masks of h (reach + 1) bits.
    """
    if h < 1 or k < 1:
        raise ValueError("need h >= 1, k >= 1")
    check_bytes(8 * h, f"the root's {h} search layers")  # one tuple slot each
    cap = comb(k + h, h)
    best_val = -1
    best_wit: tuple[int, ...] = ()
    nodes = 0
    exhausted = False
    checked = -1
    stack = [((0,), (1,) * h, 0)]
    while stack:
        prefix, layers, reach = stack.pop()
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            break
        if len(prefix) == k:
            if reach > best_val:
                best_val = reach
                best_wit = prefix
            continue
        if _optimistic_reach(h, reach, k - len(prefix), cap) <= best_val:
            continue
        if reach > checked:
            check_bytes((reach + 2) * h * mask_bytes(h * (reach + 1)),
                        f"the children of a search node at reach {reach}, h = {h},")
            checked = reach
        for e in range(reach + 1, prefix[-1], -1):
            grown = []
            s = 1
            for layer in layers:
                s = layer | (s << e)
                grown.append(s)
            hole = ~(s >> (reach + 1))
            stack.append((prefix + (e,), tuple(grown),
                          reach + (hole & -hole).bit_length() - 1))
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
