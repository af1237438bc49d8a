"""Genus and p-rank bookkeeping for Galois covers, on integers.

Covers the Hurwitz genus formula, the Deuring-Shafarevich formula, and the
two-branch-point enumeration that classifies even-genus actions of the two
sporadic candidate groups.  Rationals are cleared to integers before they are
compared; no floating point or ``Fraction`` enters any computation here.
"""

from __future__ import annotations

from math import gcd, lcm

from . import Record
from .arith import factor_prime_power

HURWITZ_COEFF = 84


def wild_different(q1: int, E1: int):
    """(e, d) of a wild point: p-part of order q1, cyclic part E1, trivial second ramification group.

    e = q1*E1 and the different exponent is d = (e - 1) + (q1 - 1).
    """
    e = q1 * E1
    return e, e + q1 - 2


def hurwitz_genus(order_g: int, quotient_genus: int, points) -> int | None:
    """Genus g of the cover from 2g - 2 = |G|(2ḡ - 2 + Σ count·d/e), None if g is not integral.

    ``points`` holds (e, d, count) entries.  The sum is cleared over L = lcm
    of the e, so g is integral iff 2(g - 1)·L is a multiple of 2L.  Negative
    and None values mean the signature is infeasible; the caller decides.
    """
    if order_g < 1:
        raise ValueError("group order must be positive")
    if quotient_genus < 0:
        raise ValueError("negative quotient genus")
    for e, d, count in points:
        if e < 2 or count < 1:
            raise ValueError(f"invalid branch entry ({e},{d},{count})")
        if d < e - 1:
            raise ValueError(f"different exponent {d} below tame minimum {e - 1}")
    clear = lcm(*(e for e, _, _ in points))
    total = order_g * (2 * (quotient_genus - 1) * clear + sum(count * d * (clear // e) for e, d, count in points))
    gm1, rest = divmod(total, 2 * clear)
    return None if rest else gm1 + 1


def deuring_shafarevich(order_s: int, quotient_p_rank: int, short_orbit_sizes) -> int:
    """p-rank of the cover under a p-group action with the given short orbits."""
    factor_prime_power(order_s)  # rejects orders that are not prime powers
    gamma = order_s * (quotient_p_rank - 1) + 1
    for size in short_orbit_sizes:
        if size < 1 or order_s % size != 0 or size >= order_s:
            raise ValueError(f"short orbit size {size} invalid for order {order_s}")
        gamma += order_s - size
    return gamma


class Candidate(Record):
    """One admissible two-point signature with its filter flags.

    ``passes_parity`` records g even; ``passes_hurwitz_filter`` records
    |G| > 84(g-1), the standing assumption the enumeration works under.
    ``p_group_stabilizer`` marks E1 = 1 rows (stabilizer is a p-group, where
    the 24(g-1) bound already excludes the branch) and ``small_wild_part``
    marks q1 = p, E1 = 2 rows (excluded by the 84(g-1) elementary-abelian
    bound); both are reported, never silently dropped.
    """

    __slots__ = ("e1", "d1", "e2", "d2", "q1", "E1", "g", "passes_parity", "passes_hurwitz_filter",
                 "p_group_stabilizer", "small_wild_part")

    def __init__(self, e1: int, d1: int, e2: int, d2: int, q1: int, E1: int, g: int, passes_parity: bool,
                 passes_hurwitz_filter: bool, p_group_stabilizer: bool, small_wild_part: bool):
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "e2", e2)
        object.__setattr__(self, "d2", d2)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "E1", E1)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "passes_parity", passes_parity)
        object.__setattr__(self, "passes_hurwitz_filter", passes_hurwitz_filter)
        object.__setattr__(self, "p_group_stabilizer", p_group_stabilizer)
        object.__setattr__(self, "small_wild_part", small_wild_part)


def enumerate_case_iii(facts):
    """All integral-genus two-point signatures of a GroupFacts: one wild and one tame branch.

    The quotient is rational; candidates with integral g >= 2 are kept and
    annotated, in canonical (e1, e2) order.  Output is deterministic.
    """
    out = []
    for q1, e_one in facts.wild_catalog:
        e1, d1 = wild_different(q1, e_one)
        for e2 in facts.tame_catalog:
            g = hurwitz_genus(facts.order, 0, ((e1, d1, 1), (e2, e2 - 1, 1)))
            if g is None or g < 2:
                continue
            out.append(
                Candidate(
                    e1=e1,
                    d1=d1,
                    e2=e2,
                    d2=e2 - 1,
                    q1=q1,
                    E1=e_one,
                    g=g,
                    passes_parity=(g % 2 == 0),
                    passes_hurwitz_filter=(facts.order > HURWITZ_COEFF * (g - 1)),
                    p_group_stabilizer=(e_one == 1),
                    small_wild_part=(q1 == facts.p and e_one == 2),
                )
            )
    out.sort(key=lambda c: (c.e1, c.e2))
    return out


def case_i_ii_coefficient(facts):
    """max over the wild catalog of 2*E1*q1/(q1 - 2), as a (numerator,
    denominator) pair in lowest terms; candidates are compared by
    cross-multiplication.

    In the one-wild-point cases the group order equals this coefficient times
    (g - 1) or is bounded by it, so comparing against 84 settles them.
    """
    if not facts.wild_catalog:
        raise ValueError("empty wild catalog")
    num, den = 0, 1
    for q1, e_one in facts.wild_catalog:
        if q1 <= 2:
            raise ValueError(f"wild part {q1} too small for the coefficient")
        if 2 * e_one * q1 * den > num * (q1 - 2):
            num, den = 2 * e_one * q1, q1 - 2
    common = gcd(num, den)
    return num // common, den // common
