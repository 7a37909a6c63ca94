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
The result also keeps, outside its repr and equality, what decompose
reads and nothing already held elsewhere: A's digit base, B's layer stack
and the family combos.  H mod q is the complement's base, and
max(H) = (h-a) max(B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, exp, factorial, log

from .arith import (bits_to_sorted, check_bytes, fold, iroot_ceil,
                    next_prime_at_least)
from .cover import ComplementFamily, complement_size_bound, gains_bytes, k_complement
from .sidon import bose_chowla
from .sumset import (BasisSet, ResidueSet, backtrack_witness,
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
    p: int       # ceil(n^{1/h})
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
    # Read by decompose only.  A = digit_basis(a_base, h) with a_base^h > h*q;
    # b_layers[i] holds the exactly-i sums of B over [0, max(H)]; y_combos
    # holds (sum, parts) for one shift per family, sorted.
    a_base: int = field(repr=False, compare=False)
    b_layers: tuple[int, ...] = field(repr=False, compare=False)
    y_combos: tuple[tuple[int, tuple[int, ...]], ...] = field(repr=False, compare=False)

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
    """A z admitted no in-headroom decomposition: a construction counterexample."""


def _plan_for(n: int, h: int, k: int, a: int, feasibility: str) -> ConstructionPlan:
    p = iroot_ceil(n, h)
    m = p ** (h - a) * factorial(h - a)
    q = p ** (h - a + k)
    p_prime = next_prime_at_least(iroot_ceil(m, h - a))
    return ConstructionPlan(n=n, h=h, p=p, k=k, a=a, m=m, q=q,
                            p_prime=p_prime, feasibility=feasibility)


def _estimated_size(plan: ConstructionPlan) -> int:
    """Predicted |G| ledger from component-size estimates (grid selection key)."""
    h, p, k, a, q = plan.h, plan.p, plan.k, plan.a, plan.q
    size_a = 1 + (iroot_ceil(h * q + 1, h) - 1) * h
    size_b = plan.p_prime
    size_c = complement_size_bound(q, p ** (h - a), k)
    size_d = 1 + (p - 1) * (a - k)
    return size_a + size_b + size_c + size_d


def _pair_has_headroom(plan: ConstructionPlan, n: int) -> bool:
    """Whether decompose can stay within its arithmetic headroom for this pair.

    Degenerate pairs with h*q > n never leave the digit-basis path.  Otherwise
    the worst-case quotient t of x + y by q must stay below h, with max(B)
    bounded through the actual p'.
    """
    h, a, k, q = plan.h, plan.a, plan.k, plan.q
    if h * q > n:
        return True
    h_a = h - a
    max_b = plan.p_prime - 1 if h_a == 1 else plan.p_prime ** h_a - 2
    t_bound = (h_a * max_b + k * (q - 1)) // q
    return t_bound <= h - 1


def plan_params(n: int, h: int, k: int | None = None, a: int | None = None) -> ConstructionPlan:
    """Pick (k, a): paper formulas when feasible, else a grid over small pairs.

    The formula k = ceil(ln ln n / tau), a = k + ceil(2 ln h) is only
    feasible for large h; at desk scale the grid enumerates 1 <= k <= a <=
    h-2, keeps pairs whose decomposition headroom holds, and minimizes the
    predicted |G| ledger.  Explicit overrides bypass both after validation.
    A verify, gains or B layer stack over the memory budget is refused first.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    check_bytes(layers_bytes(h, n), f"verify over [0, {n}] at h = {h}")
    if h < 3:
        raise InfeasibleParameters("pipeline needs h >= 3; use digit_basis or search")
    if (k is None) != (a is None):
        raise ValueError("override k and a together")
    if k is not None:
        if not (1 <= k <= a < h):
            raise InfeasibleParameters(f"override violates 1 <= k <= a < h: k={k}, a={a}")
        feasibility = "override"
    else:
        k = ceil(log(log(n)) / _TAU)
        a = k + ceil(2 * log(h))
        feasibility = "formula-derived"
    if not 1 <= k <= a < h:  # the formula pair does not fit: grid fallback
        best = None
        for a_g in range(1, h - 1):
            for k_g in range(1, a_g + 1):
                plan = _plan_for(n, h, k_g, a_g, "grid-fallback")
                if not _pair_has_headroom(plan, n):
                    continue
                key = (_estimated_size(plan), k_g, a_g)
                best = min(best, key) if best else key
        if best is None:
            raise InfeasibleParameters(f"no feasible (k, a) pair for n={n}, h={h}")
        _, k, a = best
        feasibility = "grid-fallback"

    # the chosen pair only: gains before m and p', B's layers (B < p'^(h-a)) before its walk
    p, e = iroot_ceil(n, h), h - a + k
    check_bytes(gains_bytes(p ** e), f"gains over Z_q, q = {p}^{e},")
    plan = _plan_for(n, h, k, a, feasibility)
    check_bytes(layers_bytes(h - a, (h - a) * plan.p_prime ** (h - a)),
                f"B's layers, p' = {plan.p_prime},")
    return plan


def digit_basis(b: int, h: int) -> BasisSet:
    """{j b^i : 0 <= j < b, 0 <= i < h}: an h-basis of [0, b^h - 1].

    Base-b representation with h digits; digit j at position i contributes
    the addend j b^i, zero digits contribute the addend 0.
    """
    if b < 2 or h < 1:
        raise ValueError("need b >= 2, h >= 1")
    return BasisSet.from_iterable(j * b ** i for j in range(b) for i in range(h))


def build_theorem1(plan: ConstructionPlan) -> ConstructionResult:
    """Assemble A, B, C, D per the plan and verify the result exhaustively."""
    n, h, p, k, a, q = plan.n, plan.h, plan.p, plan.k, plan.a, plan.q
    h_a = h - a

    if h_a == 1:
        # every set is a B_1 set; the interval is the densest choice
        b_elems = tuple(range(plan.p_prime))
    else:
        b_elems = bose_chowla(plan.p_prime, h_a).elements

    b_set = BasisSet(b_elems)
    limit_h = h_a * b_set.max
    b_layers = coverage_layers(b_set, h_a, limit_h)

    complement = k_complement(ResidueSet(q, fold(b_layers[h_a], limit_h, q)), k)
    c_elems = bits_to_sorted(complement.union.bits)

    d_elems = tuple(sorted({0} | {j * p ** i
                                  for j in range(1, p)
                                  for i in range(h_a + k, h)}))

    b_digit = iroot_ceil(h * q + 1, h)
    a_set = digit_basis(b_digit, h)

    basis = BasisSet.from_iterable(a_set.elements + b_elems + c_elems + d_elems)
    cert = verify_basis(basis, h, n)

    # all (sum, parts) combos drawing one shift from each family
    combos = [(0, ())]
    for X in complement.families:
        combos = [(s + x, parts + (x,)) for s, parts in combos for x in X.members]

    return ConstructionResult(plan=plan, basis=basis,
                              comp_a=a_set.elements, comp_b=b_elems,
                              comp_c=c_elems, comp_d=d_elems,
                              complement=complement,
                              verified=cert.ok, first_gap=cert.first_gap,
                              a_base=b_digit, b_layers=tuple(b_layers),
                              y_combos=tuple(sorted(combos)))


@dataclass(frozen=True)
class DecompositionWitness:
    z: int
    addends: tuple[int, ...]       # sorted, exactly h entries
    from_a: tuple[int, ...]        # head-interval path: all h from A
    from_b: tuple[int, ...]
    from_c: tuple[int, ...]
    from_d: tuple[int, ...]


def _digit_terms(v: int, b: int, count: int, unit: int = 1) -> tuple[int, ...]:
    """d_i * b^i * unit for the base-b digits d_0 .. d_{count-1} of v, lowest first."""
    return tuple(v // b ** i % b * b ** i * unit for i in range(count))


def decompose(z: int, result: ConstructionResult) -> DecompositionWitness:
    """Express z as exactly h addends drawn from the claimed components.

    z < h*q < b^h is the sum of its h base-b digit terms d_i b^i, all in A;
    largest-first backtracking over A's layers would return the same terms.
    Otherwise z = s*q + r is matched residue-first: some family combo y and
    some x in H = (h-a)B satisfy x + y == r (mod q); their overshoot
    t = (x + y - r)/q is folded into the quotient, and s - t is written in
    base p on D's exponents.
    Failure to find in-range (x, y) is a construction counterexample and is
    raised, never papered over.
    """
    plan = result.plan
    if not result.verified:
        raise ValueError("decompose requires a verified result")
    if not 0 <= z <= plan.n:
        raise ValueError("z out of range")
    h, p, k, a, q = plan.h, plan.p, plan.k, plan.a, plan.q
    h_a = h - a

    if z < h * q:
        addends = tuple(sorted(_digit_terms(z, result.a_base, h)))
        return DecompositionWitness(z=z, addends=addends, from_a=addends,
                                    from_b=(), from_c=(), from_d=())

    h_bits = result.b_layers[h_a]
    h_mod_bits = result.complement.base.bits
    limit_h = h_a * result.comp_b[-1]
    s, r = divmod(z, q)
    d_cap = p ** (a - k)
    for y_sum, y_parts in result.y_combos:
        rho = (r - y_sum) % q
        if not (h_mod_bits >> rho) & 1:
            continue
        x = rho
        while x <= limit_h:
            if (h_bits >> x) & 1:
                t = (x + y_sum - r) // q
                quot = s - t
                if 0 <= quot < d_cap:
                    from_b = backtrack_witness(result.b_layers, result.comp_b, h_a, x)
                    from_d = _digit_terms(quot, p, a - k, p ** (h_a + k))
                    addends = tuple(sorted(from_b + y_parts + from_d))
                    if sum(addends) != z or len(addends) != h:
                        raise AssertionError("decomposition arithmetic failed")
                    return DecompositionWitness(z=z, addends=addends, from_a=(),
                                                from_b=from_b, from_c=tuple(sorted(y_parts)),
                                                from_d=from_d)
            x += q
    raise DecompositionError(
        f"no decomposition within headroom for z={z} (s={s}, r={r})")
