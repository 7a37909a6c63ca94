"""B_k (Sidon-type) sequences via the Bose-Chowla finite-field construction.

A primitive root theta of GF(p^k) gives B = { d_a : theta^{d_a} = theta + a,
a in F_p }: a p-element set whose k-element multiset sums are pairwise
distinct modulo p^k - 1 (hence also over the integers).

The field is found by one power walk per candidate modulus f, which needs
no polynomial arithmetic beyond multiplying by theta:

- If theta = x mod f has order exactly p^k - 1, then F_p[x]/(f) has
  p^k - 1 units among its p^k elements, so it is a field and f is
  irreducible (and primitive).  The same walk yields the discrete logs.
- The norm of theta, (-1)^k f(0), must generate F_p^*: the norm map onto
  F_p^* is a surjective homomorphism, so it sends a generator to one.
  Candidates failing this are skipped without a walk.

Field elements are length-k coefficient tuples, constant term first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import comb

from .arith import GuardError, is_prime, prime_factors
from .sumset import _grow


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^k) described by a monic primitive modulus (coefficients constant first)."""

    p: int
    k: int
    modulus: tuple[int, ...]


@dataclass(frozen=True)
class SidonSet:
    """Sorted B_k set in [0, order_modulus - 1], with the field it came from."""

    elements: tuple[int, ...]
    field: FieldSpec

    @property
    def k(self) -> int:
        return self.field.k

    @property
    def order_modulus(self) -> int:
        return self.field.p ** self.field.k - 1

    def __len__(self):
        return len(self.elements)


def _power_walk(f, p: int, k: int):
    """Logs d with theta^d = theta + a if theta = x mod f has order p^k - 1, else None."""
    order = p ** k - 1
    # theta^k = -(f_0 + f_1 theta + ... + f_{k-1} theta^{k-1})
    red = tuple((-c) % p for c in f[:-1])
    one = (1,) + (0,) * (k - 1)
    linear = (1,) + (0,) * (k - 2)  # theta + a has coordinates (a, 1, 0, ..., 0)
    cur = (0,) + linear
    logs = []
    for d in range(1, order):
        if cur == one:
            return None
        if cur[1:] == linear:
            logs.append(d)
        top = cur[-1]
        cur = (0,) + cur[:-1]
        if top:
            cur = tuple((c + top * r) % p for c, r in zip(cur, red))
    return logs if cur == one else None


def build_field(p: int, k: int) -> FieldSpec:
    """Lexicographically smallest monic primitive degree-k polynomial over F_p.

    Primitive (not merely irreducible): the residue class of x must generate
    the full multiplicative group, so that theta + a has a discrete log for
    every a in F_p.
    """
    return bose_chowla(p, k).field


def bose_chowla(p: int, k: int) -> SidonSet:
    """B = { d : theta^d = theta + a, a in F_p } in Z_{p^k - 1}; |B| = p, 1 in B.

    theta is x modulo the field of build_field(p, k); the logs come from the
    same power walk that proves the modulus primitive.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 2:
        raise ValueError("degree must be >= 2")
    factors = prime_factors(p - 1)
    generators = {g for g in range(1, p) if all(pow(g, (p - 1) // r, p) != 1 for r in factors)}
    for coeffs in product(range(p), repeat=k):
        f = coeffs + (1,)
        # a primitive theta has norm (-1)^k f(0) generating F_p^*
        if (-1) ** k * f[0] % p not in generators:
            continue
        logs = _power_walk(f, p, k)
        if logs is not None:
            break
    else:
        raise RuntimeError("no primitive polynomial found; internal bug")
    if len(logs) != p:
        raise RuntimeError("power-table walk found a wrong number of logs; internal bug")
    return SidonSet(tuple(logs), FieldSpec(p, k, f))


def is_bk(S, k: int, modulus: int | None = None) -> bool:
    """True iff all k-element multiset sums of S are pairwise distinct.

    Exhaustive over all C(|S|+k-1, k) multisets; sums reduced mod modulus
    when given.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    elems = sorted(S)
    sums = set()
    for combo in combinations_with_replacement(elems, k):
        s = sum(combo)
        if modulus is not None:
            s %= modulus
        if s in sums:
            return False
        sums.add(s)
    return True


def phi_exact(n: int, k: int):
    """Maximum B_k subset of [0, n] by exhaustive backtracking.

    Returns (size, witness) with the lexicographically smallest witness
    among maximizers.  sums[j] is the mask of all j-element multiset sums
    of the current S.  Adding e grows a copy of them by `sumset._grow`,
    S'_j = S_j | (S'_{j-1} << e) for j = 1..k ascending.  S u {e} has
    C(|S|+k, k) k-element multisets, so e is kept iff S'_k has exactly that
    many bits, that is, iff all its k-sums are distinct.  Guarded: intended
    for n up to ~60 at k = 2.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    if (n + 1) ** k > 300_000:
        raise GuardError(f"phi_exact range too large: n={n}, k={k}")

    best_set: tuple[int, ...] = ()

    def extend(S, sums, start):
        nonlocal best_set
        if len(S) > len(best_set):
            best_set = tuple(S)
        for e in range(start, n + 1):
            if len(S) + (n - e + 1) <= len(best_set):
                break
            grown = sums.copy()
            _grow(grown, e, k * n)  # no k-sum of [0, n] passes k*n: no clip
            if grown[k].bit_count() == comb(len(S) + k, k):
                S.append(e)
                extend(S, grown, e + 1)
                S.pop()

    extend([], [1] + [0] * k, 0)
    return len(best_set), best_set
