"""B_k (Sidon-type) sequences via the Bose-Chowla finite-field construction.

A primitive root theta of GF(p^k) gives B = { d_a : theta^{d_a} = theta + a,
a in F_p }: a p-element set whose k-element multiset sums are pairwise
distinct modulo p^k - 1 (hence also over the integers).  Discrete logs come
from one full power-table walk.

Polynomials over F_p are coefficient tuples, constant term first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product

from .arith import GuardError, is_prime, prime_factors


# ---------------------------------------------------------------------------
# Polynomial arithmetic over F_p

def _ptrim(f):
    i = len(f)
    while i > 0 and f[i - 1] == 0:
        i -= 1
    return tuple(f[:i])


def _pmul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % p
    return _ptrim(out)


def _pmod(f, m, p):
    f = list(f)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(f) - 1 >= dm and any(f):
        if f[-1] == 0:
            f.pop()
            continue
        c = (f[-1] * inv_lead) % p
        off = len(f) - 1 - dm
        for i, mi in enumerate(m):
            f[off + i] = (f[off + i] - c * mi) % p
        f.pop()
    return _ptrim(f)


def _pmulmod(f, g, m, p):
    return _pmod(_pmul(f, g, p), m, p)


def _ppowmod(f, e, m, p):
    result = (1,)
    base = _pmod(f, m, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, m, p)
        base = _pmulmod(base, base, m, p)
        e >>= 1
    return result


def _pgcd(f, g, p):
    while g:
        f, g = g, _pmod(f, g, p)
    if f:
        inv = pow(f[-1], -1, p)
        f = tuple((c * inv) % p for c in f)
    return f


def _is_irreducible(f, p):
    """Rabin's test: x^{p^k} == x mod f and gcd(x^{p^{k/r}} - x, f) = 1."""
    k = len(f) - 1
    x = (0, 1)
    if _psub(_ppowmod(x, p ** k, f, p), x, p) != ():
        return False
    for r in prime_factors(k):
        xd = _ppowmod(x, p ** (k // r), f, p)
        if _pgcd(f, _psub(xd, x, p), p) != (1,):
            return False
    return True


def _psub(f, g, p):
    n = max(len(f), len(g))
    out = [0] * n
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out[i] = (a - b) % p
    return _ptrim(out)


# ---------------------------------------------------------------------------
# Field construction

@dataclass(frozen=True)
class FieldSpec:
    """GF(p^k) described by a monic primitive modulus (coefficients constant first)."""

    p: int
    k: int
    modulus: tuple[int, ...]


class GF:
    """Arithmetic in GF(p^k) mod a fixed modulus; elements are length-k tuples."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.k = spec.k
        self.order = spec.p ** spec.k - 1
        # theta^k = -(m_0 + m_1 theta + ... + m_{k-1} theta^{k-1})
        self._red = tuple((-c) % spec.p for c in spec.modulus[:-1])
        self.one = (1,) + (0,) * (spec.k - 1)
        self.theta = (0, 1) + (0,) * (spec.k - 2)

    def mul_theta(self, u):
        p, k = self.p, self.k
        top = u[k - 1]
        shifted = (0,) + u[: k - 1]
        if top == 0:
            return shifted
        return tuple((shifted[i] + top * self._red[i]) % p for i in range(k))

    def mul(self, u, v):
        raw = _pmod(_pmul(u, v, self.p), self.spec.modulus, self.p)
        return raw + (0,) * (self.k - len(raw))

    def pow(self, u, e):
        e %= self.order
        result = self.one
        base = u
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result


def build_field(p: int, k: int) -> FieldSpec:
    """Lexicographically smallest monic primitive degree-k polynomial over F_p.

    Primitive (not merely irreducible): the residue class of x must generate
    the full multiplicative group, so that theta + a has a discrete log for
    every a in F_p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 2:
        raise ValueError("degree must be >= 2")
    order = p ** k - 1
    order_factors = prime_factors(order)
    for coeffs in product(range(p), repeat=k):
        f = coeffs + (1,)
        if f[0] == 0:
            continue  # x divides f
        if not _is_irreducible(f, p):
            continue
        gf = GF(FieldSpec(p, k, f))
        if all(gf.pow(gf.theta, order // r) != gf.one for r in order_factors):
            return FieldSpec(p, k, f)
    raise RuntimeError("no primitive polynomial found; internal bug")


# ---------------------------------------------------------------------------
# Sidon sets

@dataclass(frozen=True)
class SidonSet:
    """Sorted B_k set in [0, order_modulus - 1] with its modular reduction."""

    elements: tuple[int, ...]
    order_modulus: int
    k: int

    def __len__(self):
        return len(self.elements)


def bose_chowla(p: int, k: int) -> SidonSet:
    """B = { d : theta^d = theta + a, a in F_p } in Z_{p^k - 1}; |B| = p, 1 in B.

    Logs collected in one walk over all powers of theta.
    """
    spec = build_field(p, k)
    return bose_chowla_from_field(spec)


def bose_chowla_from_field(spec: FieldSpec) -> SidonSet:
    gf = GF(spec)
    n = gf.order
    found = []
    cur = gf.one
    for d in range(1, n):
        cur = gf.mul_theta(cur)
        # theta + a has coordinates (a, 1, 0, ..., 0)
        if cur[1] == 1 and all(c == 0 for c in cur[2:]):
            found.append(d)
    if len(found) != spec.p:
        raise RuntimeError("power-table walk found a wrong number of logs; internal bug")
    return SidonSet(tuple(sorted(found)), order_modulus=n, k=spec.k)


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
    among maximizers.  Guarded: intended for n up to ~60 at k = 2.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    if (n + 1) ** k > 300_000:
        raise GuardError(f"phi_exact range too large: n={n}, k={k}")

    best_size = 0
    best_set: tuple[int, ...] = ()

    def extend(S, sums_by_order, start):
        nonlocal best_size, best_set
        if len(S) > best_size:
            best_size = len(S)
            best_set = tuple(S)
        for e in range(start, n + 1):
            if len(S) + (n - e + 1) <= best_size:
                break
            new_k = []
            ok = True
            for c in range(1, k + 1):
                for s in sums_by_order[k - c]:
                    new_k.append(c * e + s)
            seen = sums_by_order[k]
            if len(set(new_k)) != len(new_k) or any(v in seen for v in new_k):
                ok = False
            if not ok:
                continue
            nxt = []
            for j in range(k + 1):
                grown = set(sums_by_order[j])
                for c in range(1, j + 1):
                    for s in sums_by_order[j - c]:
                        grown.add(c * e + s)
                nxt.append(grown)
            S.append(e)
            extend(S, nxt, e + 1)
            S.pop()

    # sums_by_order[j] = all j-element multiset sums of the current S
    initial = [set() for _ in range(k + 1)]
    initial[0].add(0)
    extend([], initial, 0)
    return best_size, best_set
