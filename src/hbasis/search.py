"""Exact n(h,k) and zeta(h,n) on small instances by branch-and-bound.

Convention: 0 must be an element (it is the only way 0 gets an exactly-h
representation) and it counts toward |A|.  Classical postage-stamp tables
count denominations without 0 and are therefore offset by one in k; the
exhaustive oracle here is the ground truth instead.

The search prunes a prefix by two admissible bounds on what its
completions can reach: each new element lifts the reach n to at most
h(n + 1), and with r elements to add Rohrbach's counting argument on the
prefix's real sum counts S_j leaves at most sum_i |S_{h-i}| C(r+i-1, i)
sums.  Children of a node one element short of k are leaves, evaluated in
the node's own loop rather than pushed.
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
    C(k+h, h).  At h = 1 each step adds one, so the bound is closed-form;
    at h >= 2 the loop meets cap within log_h(cap) steps."""
    if h == 1:
        return min(n0 + remaining, cap)
    b = n0
    for _ in range(remaining):
        b = h * (b + 1)
        if b >= cap:
            return cap
    return min(b, cap)


def _count_weights(h: int, r: int) -> list[int]:
    """[C(r+h-j-1, h-j) for j = 0..h]: the multisets of h - j of r new
    elements, each paired with the prefix's S_j in the count bound.  Built
    by C(r+i-1, i) = C(r+i-2, i-1) (r+i-1) / i; a comb per entry took 1.1 s
    against 8 ms at h = 3000, r = 99,999."""
    c = [1]
    for i in range(1, h + 1):
        c.append(c[-1] * (r + i - 1) // i)
    return c[::-1]


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

    A node with r elements still to add is pruned when it cannot beat the
    incumbent by either bound: `_optimistic_reach`, then the count bound.
    Every sum of at most h elements of the completed set is a sum of at
    most h - i prefix elements plus i of the r new ones, so at most
    sum_{i=0..h} |S_{h-i}| C(r+i-1, i) values (|S_0| = 1) are reachable and
    the reach is at most that count minus 1 (Rohrbach's argument on the
    prefix's real sum counts).  The carried masks are unclipped, so their
    popcounts are exact.  Both prunes are strict, so the witness stays the
    first strict improvement in visit order.

    At r = 1 every child is a leaf, so the node evaluates them in its own
    loop in ascending e, the order the stack would pop them: each builds
    only its S_h chain, counts as a node under the budget and is compared
    with the incumbent.  Value, witness and nodes_explored are those of
    pushing them.
    """
    if h < 1 or k < 1 or node_budget < 1:
        raise ValueError("need h >= 1, k >= 1, node_budget >= 1")
    check_bytes(8 * h, f"the root's {h} search layers")  # one tuple slot each
    cap = comb(k + h, h)
    # r -> _count_weights(h, r), built as the search first reaches r: a full
    # table is k (h + 1) binomials before the memory budget can refuse anything
    weights: dict[int, list[int]] = {}
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
        r = k - len(prefix)
        if r == 0:
            if reach > best_val:
                best_val = reach
                best_wit = prefix
            continue
        if _optimistic_reach(h, reach, r, cap) <= best_val:
            continue
        w = weights.get(r)
        if w is None:
            w = weights[r] = _count_weights(h, r)
        count = w[0]
        for j, layer in enumerate(layers, 1):
            count += w[j] * layer.bit_count()
        if count <= best_val + 1:
            continue
        if reach > checked:
            check_bytes((reach + 2) * h * mask_bytes(h * (reach + 1)),
                        f"the children of a search node at reach {reach}, h = {h},")
            checked = reach
        if r == 1:
            # a leaf beats the incumbent iff its S_h holds all of [0, best_val + 1]
            low = (2 << (best_val + 1)) - 1
            for e in range(prefix[-1] + 1, reach + 2):
                nodes += 1
                if nodes > node_budget:
                    exhausted = True
                    break
                s = 1
                for layer in layers:
                    s = layer | (s << e)
                if ~s & low:
                    continue
                hole = ~(s >> (reach + 1))
                best_val = reach + (hole & -hole).bit_length() - 1
                best_wit = prefix + (e,)
                low = (2 << (best_val + 1)) - 1
            if exhausted:
                break
            continue
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
