"""Composite h-basis construction: parameter planning, component assembly,
mandatory self-verification, and per-integer decomposition witnesses.

The basis G for [0, n] is the union of four components:

  A  digit basis covering the head interval [0, h*q];
  B  a B_{h-a} set from the Bose-Chowla construction (an interval when
     h-a = 1, where the property is vacuous);
  C  the union of a k-complement of H = (h-a)B in Z_q, so every residue
     class mod q is reachable as x + y with x in H and y a sum of k
     elements of C;
  D  digit multiples {j p^i} on the high exponents, absorbing the
     quotient part of z once the residue is matched.

Every built result is checked end-to-end by an exhaustive sumset
computation over [0, n]; nothing is reported as a basis on faith.
`verified` also requires the k-complement's own exhaustive completeness
check, the certificate decompose's residue path rests on, so a G that
covers [0, n] while a residue has no family combo is not verified.
The result also keeps, outside its repr and equality, what decompose
reads and nothing already held elsewhere: the family combos, a
per-residue index into them, a lift table for H, and the place values of
A's and D's digits.  So a query shifts no mask and walks no layer
stack.

The index y_first[r] is the least combo c with r - y_c mod q in H mod q,
or the combo count if none has it, which k_complement's exhaustive
completeness check rules out.  It takes 4q bytes (int32), inside the
gains_bytes(q) = 34q that plan_params already checks for the greedy over
the same Z_q.

The lift table maps each residue class of H mod q to the least x in H in
that class and its B-multiset.  B is a B_{h-a} set (Bose-Chowla), so each
x in H is the sum of exactly one multiset of h-a elements of B (checked by
`sidon.is_bk`).  The table is filled by one walk over those multisets before
the greedy, and H mod q, the greedy's base and the residues y_first shifts, is
read off its keys.  `_lifts_bytes` models it, and plan_params checks the model
beside B's layers before anything is built.

Every plan carries the invariant decompose relies on: p^h > n, and the
headroom of `_headroom` (h*q > n, or (h-a) max(B) + k(q-1) < h*q).  So
the first pick is final.  For z = s*q + r >= h*q, the combo y = y_first[r]
and its least lift x in H give an overshoot t = (x + y - r)/q <= h - 1 < s,
and s - t <= n // q < p^{a-k}: the quotient is a digit string of D.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import ceil, comb, exp, factorial, log, prod
from types import MappingProxyType

import numpy as np

from .arith import bits_to_sorted, check_bytes, iroot_ceil, next_prime_at_least
from .cover import ComplementFamily, complement_size_bound, gains_bytes, k_complement
from .sidon import bose_chowla, is_bk
# backtrack_witness and coverage_layers stay bound here for perfbench's
# tracer; decompose reads the lift table, and is_bk checks B
from .sumset import (BasisSet, ResidueSet, backtrack_witness,  # noqa: F401
                     coverage_layers, layers_bytes, verify_basis)


def tau() -> float:
    """Unique root in (0,1) of e^t (1-t) = e^{-1}, by bisection to 1e-12.

    (e^tau - e^{-1}) / tau is the 2.32 coefficient of the headline bound.
    """
    target = exp(-1.0)
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-13:
        mid = (lo + hi) / 2.0
        if exp(mid) * (1.0 - mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


_TAU = tau()


@dataclass(frozen=True)
class ConstructionPlan:
    n: int
    h: int
    p: int       # least p with p^h > n
    k: int
    a: int       # 1 <= k <= a < h
    m: int       # p^{h-a} (h-a)!
    q: int       # p^{h-a+k}
    p_prime: int  # smallest prime >= ceil(m^{1/(h-a)})
    feasibility: str  # "formula-derived" | "grid-fallback" | "override"

    @property
    def tau(self) -> float:
        return _TAU


@dataclass(frozen=True)
class ConstructionResult:
    plan: ConstructionPlan
    basis: BasisSet
    comp_a: tuple[int, ...]
    comp_b: tuple[int, ...]
    comp_c: tuple[int, ...]
    comp_d: tuple[int, ...]
    complement: ComplementFamily
    verified: bool
    first_gap: int | None
    # Read by decompose only.  y_combos holds (sum, sorted parts) for one
    # shift per family, in (sum, family-order parts) order; y_first (int32,
    # read-only, 4q bytes) holds per residue r the least combo index c with
    # r - y_c in H mod q, len(y_combos) where no combo lifts r; lifts (a
    # read-only mapping) takes each residue of H mod q, H = (h-a)B, to
    # (x, B-multiset), x the least element of H in that class; a_digits is
    # (b, places) for A = digit_basis(b, h) and d_digits (p, places) for D,
    # places the (digit place, addend unit) pairs, (b^i, b^i) and
    # (p^i, p^(h-a+k+i)).
    y_combos: tuple[tuple[int, tuple[int, ...]], ...] = field(repr=False, compare=False)
    y_first: np.ndarray = field(repr=False, compare=False)
    lifts: MappingProxyType = field(repr=False, compare=False)
    a_digits: tuple[int, tuple[tuple[int, int], ...]] = field(repr=False, compare=False)
    d_digits: tuple[int, tuple[tuple[int, int], ...]] = field(repr=False, compare=False)

    @property
    def sizes(self) -> dict:
        return {
            "A": len(self.comp_a), "B": len(self.comp_b),
            "C": len(self.comp_c), "D": len(self.comp_d),
            "G": len(self.basis),
        }

    @property
    def size_ratio(self) -> float:
        """|G| / n^{1/h}, for trend inspection against the headline bound."""
        return len(self.basis) / self.plan.n ** (1.0 / self.plan.h)


class InfeasibleParameters(ValueError):
    pass


class DecompositionError(RuntimeError):
    """No family combo lifts z's residue into H: a construction counterexample."""


def _b_field(p: int, h_a: int) -> tuple[int, int]:
    """(p', max B bound): p' the least prime >= (p^{h-a} (h-a)!)^{1/(h-a)}, the field
    of B's Bose-Chowla B_{h-a} set, below p'^{h-a} - 1; B = [0, p') at h-a = 1."""
    p_prime = next_prime_at_least(iroot_ceil(p ** h_a * factorial(h_a), h_a))
    return p_prime, p_prime - 1 if h_a == 1 else p_prime ** h_a - 2


def _headroom(n: int, h: int, h_a: int, k: int, q: int, max_b: int) -> bool:
    """h*q > n (every z <= n takes A's digit path), or a lift x <= (h-a) max(B)
    plus a combo y <= k(q-1) stays below h*q, so their overshoot is at most h - 1."""
    return h * q > n or h_a * max_b + k * (q - 1) < h * q


def _grid_pair(n: int, h: int, p: int) -> tuple[int, int, int]:
    """(k, a, p') in 1 <= k <= a <= h-2 of least |G| ledger, ties to the least k, then a.

    The ledger adds |A| (digit basis of [0, hq]), p', complement_size_bound and |D|.
    Only pairs with `_headroom` are ranked (q and max(B) step per k and a), so with
    p^h > n decompose's first pick is final: t <= h-1 < s and s - t <= n // q < p^{a-k}.
    """
    best = None
    # A's digit base b (b^h > h q) per exponent e of q = p^e, e = h - a + k in 3..h
    digit_base = {e: iroot_ceil(h * p ** e + 1, h) for e in range(3, h + 1)}
    for a in range(1, h - 1):
        h_a = h - a
        p_prime, max_b = _b_field(p, h_a)
        alpha = q = p ** h_a
        for k in range(1, a + 1):
            q *= p
            if not _headroom(n, h, h_a, k, q, max_b):
                continue
            size = (1 + (digit_base[h_a + k] - 1) * h + p_prime
                    + complement_size_bound(q, alpha, k) + 1 + (p - 1) * (a - k))
            best = min(best, (size, k, a, p_prime)) if best else (size, k, a, p_prime)
    if best is None:
        raise InfeasibleParameters(f"no feasible (k, a) pair for n={n}, h={h}")
    return best[1:]


def _gains_q(p: int, e: int) -> int:
    """q = p^e after its greedy gains pass fits the memory budget."""
    check_bytes(gains_bytes(p ** e), f"gains over Z_q, q = {p}^{e},")
    return p ** e


def _lifts_bytes(q: int, p_prime: int, h_a: int) -> int:
    """Peak bytes of the lift table: one entry per residue of H mod q, so at most
    min(q, C(p' + h-a - 1, h-a)) as |B| = p', each at most about 256 + 8(h-a) bytes
    (a dict slot and its resize, the key, the (x, parts) pair, x and the parts
    tuple).  Tables of 47,278 to 1.16M entries measured 225-243 bytes per entry."""
    return min(q, comb(p_prime + h_a - 1, h_a)) * (256 + 8 * h_a)


def plan_params(n: int, h: int, k: int | None = None, a: int | None = None) -> ConstructionPlan:
    """Pick (k, a): paper formulas when feasible, else a grid over small pairs.

    p is the least integer with p^h > n.  Every plan keeps `_headroom`, so
    decompose's first pick is always final (module docstring).  The formula
    k = ceil(ln ln n / tau), a = k + ceil(2 ln h) is taken when 1 <= k <= a < h
    and it has headroom; otherwise `_grid_pair` walks 1 <= k <= a <= h-2 and
    minimizes the predicted |G| ledger over pairs with headroom.  An override
    that breaks either rule is refused.  p is taken once and p' once per a;
    a verify, gains, B layer stack or lift table over the memory budget is
    refused before the plan is built, and a formula or override pair's gains
    before its p'.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    check_bytes(layers_bytes(h, n), f"verify over [0, {n}] at h = {h}")
    if h < 3:
        raise InfeasibleParameters("pipeline needs h >= 3; use digit_basis or search")
    if (k is None) != (a is None):
        raise ValueError("override k and a together")
    p, p_prime = iroot_ceil(n + 1, h), None
    if k is not None:
        if not (1 <= k <= a < h):
            raise InfeasibleParameters(f"override violates 1 <= k <= a < h: k={k}, a={a}")
        feasibility = "override"
    else:
        k = ceil(log(log(n)) / _TAU)
        a = k + ceil(2 * log(h))
        feasibility = "formula-derived"
    if 1 <= k <= a < h:
        q = _gains_q(p, h - a + k)
        p_prime, max_b = _b_field(p, h - a)
        if not _headroom(n, h, h - a, k, q, max_b):
            if feasibility == "override":
                raise InfeasibleParameters(
                    f"override leaves decompose no headroom at n={n}, h={h}: k={k}, a={a}")
            p_prime = None
    if p_prime is None:  # the formula pair does not fit: grid fallback
        k, a, p_prime = _grid_pair(n, h, p)
        feasibility = "grid-fallback"
        q = _gains_q(p, h - a + k)

    # B's layers (B < p'^(h-a)) before its walk
    h_a = h - a
    check_bytes(layers_bytes(h_a, h_a * p_prime ** h_a), f"B's layers, p' = {p_prime},")
    check_bytes(_lifts_bytes(q, p_prime, h_a), f"B's lift table, p' = {p_prime},")
    return ConstructionPlan(n=n, h=h, p=p, k=k, a=a, m=p ** h_a * factorial(h_a),
                            q=q, p_prime=p_prime, feasibility=feasibility)


def digit_basis(b: int, h: int) -> BasisSet:
    """{j b^i : 0 <= j < b, 0 <= i < h}: an h-basis of [0, b^h - 1].

    Base-b representation with h digits; digit j at position i contributes
    the addend j b^i, zero digits contribute the addend 0.
    """
    if b < 2 or h < 1:
        raise ValueError("need b >= 2, h >= 1")
    return BasisSet.from_iterable(j * b ** i for j in range(b) for i in range(h))


def _lift_table(b_elems: tuple[int, ...], h_a: int, q: int) -> dict[int, tuple[int, tuple[int, ...]]]:
    """{x mod q: (x, parts)}: parts an ascending multiset of h_a elements of B (given
    ascending), x = sum(parts) the least such sum in its residue class."""
    lifts = {}
    for parts in combinations_with_replacement(b_elems, h_a):
        x = sum(parts)
        r = x % q
        if r not in lifts or x < lifts[r][0]:
            lifts[r] = (x, parts)
    return lifts


def _combos_bytes(q: int, sizes: tuple[int, ...]) -> int:
    """Peak bytes of `_family_combos` over k families of the given sizes in Z_q.

    Each of the prod(sizes) combos is held twice at the end: a (sum, parts)
    pair in the sorted list, with its list slot and a fresh int for the sum,
    and its (sum, sorted parts) copy.  Each part is a tuple slot in both, so
    a combo costs about 240 + 16k bytes; 300 + 16k leaves room for the
    lists' spare slots.  Decoding a family's members unpacks its mask, at
    most 9q/8 bytes.  tracemalloc read 253-410 bytes per combo at k = 2..11
    (60,000 to 1.68M combos), 14-23% under this model.
    """
    return prod(sizes) * (300 + 16 * len(sizes)) + 9 * q // 8


def _family_combos(families: tuple[ResidueSet, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(sum, sorted parts) of every combo of one shift per family, in
    (sum, family-order parts) order."""
    combos = [(0, ())]
    for X in families:
        members = X.members  # decoded from the mask on every read
        combos = [(s + x, parts + (x,)) for s, parts in combos for x in members]
    combos.sort()
    return tuple((s, tuple(sorted(parts))) for s, parts in combos)


def build_theorem1(plan: ConstructionPlan) -> ConstructionResult:
    """Assemble A, B, C, D per the plan and verify the result exhaustively.

    verified holds iff G covers [0, n] and the complement family is complete.
    The family combos are refused by `_combos_bytes` after the greedy, once
    their count is known, and before the first is built.
    """
    n, h, p, k, a, q = plan.n, plan.h, plan.p, plan.k, plan.a, plan.q
    h_a = h - a

    if h_a == 1:
        # every set is a B_1 set; the interval is the densest choice
        b_elems = tuple(range(plan.p_prime))
    else:
        b_elems = bose_chowla(plan.p_prime, h_a).elements
    if not is_bk(b_elems, h_a):
        raise AssertionError("B is not a B_{h-a} set: two multisets share a sum")

    lifts = _lift_table(b_elems, h_a, q)
    complement = k_complement(ResidueSet.from_iterable(q, lifts), k)
    check_bytes(_combos_bytes(q, complement.family_sizes),
                f"the family combos of sizes {complement.family_sizes}")
    c_elems = bits_to_sorted(complement.union.bits)

    d_elems = tuple(sorted({0} | {j * p ** i
                                  for j in range(1, p)
                                  for i in range(h_a + k, h)}))

    a_base = iroot_ceil(h * q + 1, h)
    a_set = digit_basis(a_base, h)

    basis = BasisSet.from_iterable(a_set.elements + b_elems + c_elems + d_elems)
    cert = verify_basis(basis, h, n)

    y_combos = _family_combos(complement.families)
    # H mod q repeats no residue, so each assignment hits distinct indices;
    # walking the combos in reverse leaves the least c per residue
    h_res = np.fromiter(lifts, np.int64, len(lifts))
    y_first = np.full(q, len(y_combos), np.int32)
    for c in range(len(y_combos) - 1, -1, -1):
        y_first[(h_res + y_combos[c][0]) % q] = c
    y_first.flags.writeable = False

    return ConstructionResult(plan=plan, basis=basis,
                              comp_a=a_set.elements, comp_b=b_elems,
                              comp_c=c_elems, comp_d=d_elems,
                              complement=complement,
                              verified=cert.ok and complement.complete,
                              first_gap=cert.first_gap,
                              y_combos=y_combos, y_first=y_first, lifts=MappingProxyType(lifts),
                              a_digits=(a_base, tuple((a_base ** i, a_base ** i)
                                                      for i in range(h))),
                              d_digits=(p, tuple((p ** i, p ** (h_a + k + i))
                                                 for i in range(a - k))))


@dataclass(frozen=True)
class DecompositionWitness:
    z: int
    addends: tuple[int, ...]       # sorted, exactly h entries
    from_a: tuple[int, ...]        # head-interval path: all h from A
    from_b: tuple[int, ...]
    from_c: tuple[int, ...]
    from_d: tuple[int, ...]


def _digit_terms(v: int, digits: tuple[int, tuple[tuple[int, int], ...]]) -> list[int]:
    """d_i * unit_i for the digits d_i = v // place_i % base of v, lowest first."""
    base, places = digits
    return [v // place % base * unit for place, unit in places]


def decompose(z: int, result: ConstructionResult) -> DecompositionWitness:
    """Express z as exactly h addends drawn from the claimed components.

    z < h*q < b^h is the sum of its h base-b digit terms d_i b^i, all in A;
    largest-first backtracking over A's layers would return the same terms.
    Otherwise z = s*q + r is matched residue-first: y is the combo y_first[r],
    the first with some x in H = (h-a)B and x + y == r (mod q), and the lift
    table gives x, the least such lift, with its B-multiset.  The plan's
    headroom makes that first pick final: the overshoot t = (x + y - r)/q is
    at most ((h-a) max(B) + k(q-1)) // q <= h-1 < s, and s - t <= n // q <
    p^{a-k} since p^h > n, so s - t is written in base p on D's exponents.  A
    residue that no combo lifts is a construction counterexample and is
    raised, never papered over.
    """
    plan = result.plan
    if not result.verified:
        raise ValueError("decompose requires a verified result")
    if not 0 <= z <= plan.n:
        raise ValueError("z out of range")
    q = plan.q

    if z < plan.h * q:
        addends = tuple(sorted(_digit_terms(z, result.a_digits)))
        return DecompositionWitness(z, addends, addends, (), (), ())

    s, r = divmod(z, q)
    c = result.y_first.item(r)
    if c == len(result.y_combos):
        raise DecompositionError(f"no family combo lifts r={r} into H, so z={z} (s={s}) fails")
    y, from_c = result.y_combos[c]
    x, from_b = result.lifts[(r - y) % q]
    from_d = tuple(_digit_terms(s - (x + y - r) // q, result.d_digits))
    addends = tuple(sorted(from_b + from_c + from_d))
    if sum(addends) != z or len(addends) != plan.h:
        raise AssertionError("decomposition arithmetic failed")
    return DecompositionWitness(z, addends, (), from_b, from_c, from_d)
