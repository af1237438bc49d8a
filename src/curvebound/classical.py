"""Closed-form orders for the classical families, and the enumeration's group facts.

The PSL/PGL/PSU/PGU orders are exact integer formulas.  ``group_facts``
computes the wild and tame catalogs of any permutation group at a prime
dividing its order, by a live subgroup search; it is the only path that
uses the group layer, and imports it on first call.
"""

from __future__ import annotations

from math import gcd

from . import Record
from .arith import factor_prime_power, factorize


def family_order(family: str, q: int) -> int:
    """Exact order of PSL(2,q), PGL(2,q), PSL(3,q), PGL(3,q), PSU(3,q) or PGU(3,q) at a prime power q.

    The PGL/PGU order is the PSL/PSU order times gcd(2, q-1), gcd(3, q-1)
    or gcd(3, q+1) respectively.
    """
    factor_prime_power(q)  # raises unless q is a prime power
    if family in ("PSL2", "PGL2"):
        order, centre = q * (q * q - 1), gcd(2, q - 1)
    elif family in ("PSL3", "PGL3"):
        order, centre = q**3 * (q**3 - 1) * (q * q - 1), gcd(3, q - 1)
    elif family in ("PSU3", "PGU3"):
        order, centre = q**3 * (q**3 + 1) * (q * q - 1), gcd(3, q + 1)
    else:
        raise ValueError(f"unknown family {family!r}")
    return order // centre if family.startswith("PS") else order


class GroupFacts(Record):
    """Enumeration-ready facts: wild stabilizer shapes and tame orders.

    ``wild_catalog`` holds sorted (q1, E1) pairs and ``tame_catalog`` the
    sorted cyclic prime-to-p orders >= 2.
    """

    __slots__ = ("p", "order", "wild_catalog", "tame_catalog")

    def __init__(self, p: int, order: int, wild_catalog: tuple, tame_catalog: tuple):
        for q1, e1 in wild_catalog:
            if gcd(e1, p) != 1 or not 1 <= e1 <= q1 - 1:
                raise ValueError(f"invalid wild entry ({q1},{e1})")
            d, _ = factor_prime_power(q1)
            if d != p:
                raise ValueError(f"wild entry ({q1},{e1}) is not a {p}-power")
        for e in tame_catalog:
            if e < 2 or gcd(e, p) != 1:
                raise ValueError(f"invalid tame order {e}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "wild_catalog", wild_catalog)
        object.__setattr__(self, "tame_catalog", tame_catalog)


def group_facts(group, p: int) -> GroupFacts:
    """Wild and tame catalogs of a permutation group at an odd prime p dividing its order.

    The wild catalog lists the wild one-point stabilizer shapes Q ⋊ C of an
    ordinary curve, Q elementary abelian (Nakajima, 1987), by a live
    subgroup search: for every elementary abelian Q among the subgroups of
    one Sylow p-subgroup, the prime-to-p element orders E of N(Q) are the
    orders of the cyclic complements C, filtered by the ordinary-stabilizer
    constraint E <= |Q| - 1.  The tame catalog is the element-order set
    minus 1 and multiples of p.
    """
    if p == 2 or p not in dict(factorize(group.order())):
        raise ValueError(f"{p} is not an odd prime dividing the group order {group.order()}")
    from .permgroup import p_subgroup_class_reps

    wild = {
        (q.order(), e)
        for q in p_subgroup_class_reps(group, p)
        if q.is_elementary_abelian(p)
        for e in group.normalizer(q).element_order_set()
        if e % p and e <= q.order() - 1
    }
    tame = {e for e in group.element_order_set() if e > 1 and e % p != 0}
    return GroupFacts(
        p=p,
        order=group.order(),
        wild_catalog=tuple(sorted(wild)),
        tame_catalog=tuple(sorted(tame)),
    )
