"""Genus and p-rank bookkeeping for Galois covers, on integers.

Covers the Hurwitz genus formula, the Deuring-Shafarevich formula, and the
two-branch-point enumeration behind the even-genus actions of the two sporadic
candidate groups.  The enumeration returns plain (q1, E1, e2, g) tuples; the
``enumerate`` command labels them.  Rationals are cleared to integers before
they are compared; no floating point or ``Fraction`` enters any computation
here.
"""

from __future__ import annotations

from math import gcd, lcm

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


def enumerate_case_iii(facts):
    """(q1, E1, e2, g) for each two-point signature of a GroupFacts: one wild and one tame branch.

    The quotient is rational; signatures with integral g >= 2 are kept, sorted
    by (e1, e2) with e1 = q1*E1, which at one prime fixes (q1, E1).  The
    labels a report puts on them are ``cli.cmd_enumerate``'s.
    """
    out = []
    for q1, e_one in facts.wild_catalog:
        e1, d1 = wild_different(q1, e_one)
        for e2 in facts.tame_catalog:
            g = hurwitz_genus(facts.order, 0, ((e1, d1, 1), (e2, e2 - 1, 1)))
            if g is not None and g >= 2:
                out.append((q1, e_one, e2, g))
    out.sort(key=lambda row: (row[0] * row[1], row[2]))
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
