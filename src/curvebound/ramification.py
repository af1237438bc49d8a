"""Genus and p-rank bookkeeping for Galois covers, in exact rationals.

Covers the Hurwitz genus formula, the Deuring-Shafarevich formula, tame
Kummer-cover genera, and the two-branch-point enumeration that classifies
even-genus actions of the two sporadic candidate groups.  No floating point
enters any computation here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .classical import GroupFacts, factor_prime_power

HURWITZ_COEFF = 84


@dataclass(frozen=True)
class WildStabilizer:
    """Wild one-point stabilizer shape: p-part of order q1, cyclic part E1."""

    q1: int
    E1: int

    def __post_init__(self):
        p, _ = factor_prime_power(self.q1)
        if gcd(self.E1, p) != 1:
            raise ValueError(f"complement order {self.E1} not coprime to {p}")
        if not 1 <= self.E1 <= self.q1 - 1:
            raise ValueError(f"complement order {self.E1} exceeds {self.q1 - 1}")


def wild_different(w: WildStabilizer):
    """(e, d) for a wild point with trivial second ramification group.

    e = q1*E1 and the different exponent is d = (e - 1) + (q1 - 1).
    """
    e = w.q1 * w.E1
    return e, e + w.q1 - 2


@dataclass(frozen=True)
class RamSignature:
    """Quotient genus with a multiset of (e, d, count) branch-point data."""

    quotient_genus: int
    points: tuple  # of (ramification index, different exponent, count)

    def __post_init__(self):
        if self.quotient_genus < 0:
            raise ValueError("negative quotient genus")
        for e, d, count in self.points:
            if e < 2 or count < 1:
                raise ValueError(f"invalid branch entry ({e},{d},{count})")
            if d < e - 1:
                raise ValueError(f"different exponent {d} below tame minimum {e - 1}")


def hurwitz_genus(order_g: int, sig: RamSignature) -> Fraction:
    """Genus of the cover from 2g - 2 = |G|(2ḡ - 2 + Σ count·d/e).

    Exact rational; the caller decides what to do with non-integral or
    negative values (they mean the signature is infeasible).
    """
    if order_g < 1:
        raise ValueError("group order must be positive")
    total = Fraction(2 * (sig.quotient_genus - 1))
    for e, d, count in sig.points:
        total += Fraction(count * d, e)
    return 1 + Fraction(order_g, 2) * total


def deuring_shafarevich(order_s: int, quotient_p_rank: int, short_orbit_sizes) -> int:
    """p-rank of the cover under a p-group action with the given short orbits."""
    factor_prime_power(order_s)  # rejects orders that are not prime powers
    gamma = order_s * (quotient_p_rank - 1) + 1
    for size in short_orbit_sizes:
        if size < 1 or order_s % size != 0 or size >= order_s:
            raise ValueError(f"short orbit size {size} invalid for order {order_s}")
        gamma += order_s - size
    return gamma


def kummer_genus(m: int, exponents, p: int) -> int:
    """Genus of y^m = prod (x - a_i)^{lambda_i} with distinct a_i, p not dividing m.

    All branch indices are m/gcd(m, lambda); the place at infinity carries the
    exponent -sum(lambda).  Tame throughout, so d = e - 1 everywhere.
    """
    if m <= 1:
        raise ValueError("cover degree must be at least 2")
    if p > 1 and m % p == 0:
        raise ValueError(f"cover degree {m} divisible by the characteristic {p}")
    exponents = [lam for lam in exponents if lam % m != 0]
    total = -2 * m
    branch = list(exponents) + [-sum(exponents)]
    for lam in branch:
        e = m // gcd(m, lam % m) if lam % m else 1
        total += m - m // e
    if total % 2 != 0:
        raise ValueError("non-integral genus: inconsistent branch data")
    g = total // 2 + 1
    if g < 0:
        raise ValueError("negative genus: inconsistent branch data")
    return g


@dataclass(frozen=True)
class Candidate:
    """One admissible two-point signature with its filter flags.

    ``passes_parity`` records g even; ``passes_hurwitz_filter`` records
    |G| > 84(g-1), the standing assumption the enumeration works under.
    ``p_group_stabilizer`` marks E1 = 1 rows (stabilizer is a p-group, where
    the 24(g-1) bound already excludes the branch) and ``small_wild_part``
    marks q1 = p, E1 = 2 rows (excluded by the 84(g-1) elementary-abelian
    bound); both are reported, never silently dropped.
    """

    e1: int
    d1: int
    e2: int
    d2: int
    q1: int
    E1: int
    g: int
    passes_parity: bool
    passes_hurwitz_filter: bool
    p_group_stabilizer: bool
    small_wild_part: bool
    case_tag: str = "iii"


def enumerate_case_iii(facts: GroupFacts):
    """All integral-genus two-point signatures: one wild and one tame branch.

    The quotient is rational; candidates with integral g >= 2 are kept and
    annotated, in canonical (e1, e2) order.  Output is deterministic.
    """
    out = []
    for q1, e_one in facts.wild_catalog:
        w = WildStabilizer(q1, e_one)
        e1, d1 = wild_different(w)
        for e2 in facts.tame_catalog:
            sig = RamSignature(0, ((e1, d1, 1), (e2, e2 - 1, 1)))
            g = hurwitz_genus(facts.order, sig)
            if g.denominator != 1 or g < 2:
                continue
            g_int = int(g)
            out.append(
                Candidate(
                    e1=e1,
                    d1=d1,
                    e2=e2,
                    d2=e2 - 1,
                    q1=q1,
                    E1=e_one,
                    g=g_int,
                    passes_parity=(g_int % 2 == 0),
                    passes_hurwitz_filter=(facts.order > HURWITZ_COEFF * (g_int - 1)),
                    p_group_stabilizer=(e_one == 1),
                    small_wild_part=(q1 == facts.p and e_one == 2),
                )
            )
    out.sort(key=lambda c: (c.e1, c.e2))
    return out


def case_i_ii_coefficient(facts: GroupFacts) -> Fraction:
    """max over the wild catalog of 2*E1*q1/(q1 - 2).

    In the one-wild-point cases the group order equals this coefficient times
    (g - 1) or is bounded by it, so comparing against 84 settles them.
    """
    if not facts.wild_catalog:
        raise ValueError("empty wild catalog")
    best = Fraction(0)
    for q1, e_one in facts.wild_catalog:
        if q1 <= 2:
            raise ValueError(f"wild part {q1} too small for the coefficient")
        best = max(best, Fraction(2 * e_one * q1, q1 - 2))
    return best


class UnboundedInstanceError(ValueError):
    """The linear instance admits infinitely many non-negative solutions."""


def solve_branch_data(equations, unknowns: int):
    """All non-negative integer solutions of a linear system, exhaustively.

    ``equations`` is a list of (coefficients, rhs) pairs with one coefficient
    per unknown.  Every unknown must have a positive coefficient in at least
    one equation whose other coefficients are non-negative, otherwise the
    instance is unbounded and refused.
    """
    bounds = []
    for i in range(unknowns):
        best = None
        for coeffs, rhs in equations:
            if len(coeffs) != unknowns:
                raise ValueError("coefficient count mismatch")
            if coeffs[i] > 0 and all(c >= 0 for c in coeffs) and rhs >= 0:
                limit = rhs // coeffs[i]
                best = limit if best is None else min(best, limit)
        if best is None:
            raise UnboundedInstanceError(f"unknown {i} is unbounded")
        bounds.append(best)
    solutions = []
    assignment = [0] * unknowns

    def walk(i):
        if i == unknowns:
            if all(sum(c * x for c, x in zip(coeffs, assignment)) == rhs for coeffs, rhs in equations):
                solutions.append(tuple(assignment))
            return
        for value in range(bounds[i] + 1):
            assignment[i] = value
            walk(i + 1)
        assignment[i] = 0

    walk(0)
    return solutions
