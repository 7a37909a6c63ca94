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
from itertools import product
from math import comb

from .arith import fold, is_prime, prime_factors
from .sumset import BasisSet, coverage_layers


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


def bose_chowla(p: int, k: int) -> SidonSet:
    """B = { d : theta^d = theta + a, a in F_p } in Z_{p^k - 1}; |B| = p, 1 in B.

    theta is x modulo f, the lexicographically smallest monic primitive (not
    merely irreducible) degree-k polynomial over F_p, so theta + a has a log
    for every a in F_p; the logs come from the walk that proves f primitive.
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
    """True iff the C(|S| + k - 1, k) k-multisets of S, repeats kept (so a repeat
    answers False), have distinct sums, or distinct residues mod modulus.

    S is reduced mod modulus and translated to start at 0, which keeps those
    sums apart or together; the popcount of its top `coverage_layers` layer,
    folded into Z_modulus, then counts them.  Peak `layers_bytes(k, k max S)`.
    """
    if k < 1 or (modulus is not None and modulus < 1):
        raise ValueError("need k >= 1 and modulus >= 1")
    elems = sorted(S if modulus is None else (e % modulus for e in S))
    if not elems:
        return True
    low, limit = elems[0], k * (elems[-1] - elems[0])
    top = coverage_layers(BasisSet.from_iterable(e - low for e in elems), k, limit)[k]
    if modulus is not None and modulus <= limit:
        top = fold(top, limit, modulus)
    return top.bit_count() == comb(len(elems) + k - 1, k)
