"""Closed-form orders for the classical families and sporadic group facts.

The PSL/PGL/PSU/PGU orders, times an outer factor of field automorphisms,
are exact integer formulas.  Facts about the two sporadic candidates (the
alternating group on 7 points and the Mathieu group on 11 points) are always
recomputed from their permutation representations, never read from a table.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import permgroup
from .fppoly import factorize

FAMILIES = ("PSL2", "PGL2", "PSL3", "PGL3", "PSU3", "PGU3", "ALT7", "M11")
SPORADIC_WILD_PRIMES = {"ALT7": (3, 5, 7), "M11": (3, 5, 11)}


def factor_prime_power(q: int):
    """(d, k) with q = d^k and d prime; raises if q is not a prime power."""
    factors = factorize(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    return factors[0]


def field_aut_divisors(q: int):
    """Odd divisors of k where q = d^k: the admissible outer cyclic orders."""
    _, k = factor_prime_power(q)
    return {r for r in range(1, k + 1) if k % r == 0 and r % 2 == 1}


@dataclass(frozen=True)
class FamilySpec:
    """One candidate group: a classical family at q, or a sporadic name.

    ``field_aut_factor`` is the order of the outer cyclic factor acting by
    field automorphisms; it must be an odd divisor of k.
    """

    family: str
    q: int | None = None
    field_aut_factor: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in ("ALT7", "M11"):
            if self.q is not None or self.field_aut_factor != 1:
                raise ValueError("sporadic groups take no q or outer factor")
            return
        if self.q is None:
            raise ValueError(f"{self.family} requires a prime power q")
        outer = field_aut_divisors(self.q)
        if self.family in ("PSL2", "PGL2"):
            if self.q < 5 or self.q % 2 == 0:
                raise ValueError("PSL(2,q) case requires odd q >= 5")
        elif self.family in ("PSL3", "PGL3"):
            if self.q % 4 != 3:
                raise ValueError("PSL(3,q) case requires q = 3 mod 4")
        elif self.family in ("PSU3", "PGU3"):
            if self.q % 4 != 1:
                raise ValueError("PSU(3,q) case requires q = 1 mod 4")
        if self.field_aut_factor not in outer:
            raise ValueError(f"outer factor {self.field_aut_factor} not in {sorted(outer)}")


def family_order(spec: FamilySpec) -> int:
    """Exact order of the group described by ``spec``."""
    q = spec.q
    if spec.family in ("ALT7", "M11"):
        return permgroup.load_group(spec.family.lower()).order()
    if spec.family == "PSL2":
        base = q * (q - 1) * (q + 1) // 2
    elif spec.family == "PGL2":
        base = q * (q - 1) * (q + 1)
    elif spec.family == "PSL3":
        base = q**3 * (q**3 - 1) * (q**2 - 1) // gcd(3, q - 1)
    elif spec.family == "PGL3":
        base = q**3 * (q**3 - 1) * (q**2 - 1)
    elif spec.family == "PSU3":
        base = q**3 * (q**2 - 1) * (q**3 + 1) // gcd(3, q + 1)
    else:  # PGU3
        base = q**3 * (q**2 - 1) * (q**3 + 1)
    return base * spec.field_aut_factor


@dataclass(frozen=True)
class GroupFacts:
    """Enumeration-ready facts: wild stabilizer shapes and tame orders."""

    name: str
    p: int
    order: int
    wild_catalog: tuple  # sorted (q1, E1) pairs
    tame_catalog: tuple  # sorted cyclic prime-to-p orders >= 2

    def __post_init__(self):
        for q1, e1 in self.wild_catalog:
            if gcd(e1, self.p) != 1 or e1 > q1 - 1:
                raise ValueError(f"invalid wild entry ({q1},{e1})")
            d, _ = factor_prime_power(q1)
            if d != self.p:
                raise ValueError(f"wild entry ({q1},{e1}) is not a {self.p}-power")
        for e in self.tame_catalog:
            if e < 2 or gcd(e, self.p) != 1:
                raise ValueError(f"invalid tame order {e}")


def sporadic_facts(name: str, p: int) -> GroupFacts:
    """Wild and tame catalogs for ALT7 or M11 at a wild prime p.

    The wild catalog is recomputed by a live subgroup search: for every
    elementary abelian Q among the subgroups of one Sylow p-subgroup, the
    prime-to-p element orders of N(Q) (``permgroup.complement_orders``) give
    the cyclic complements, filtered by the ordinary-stabilizer constraint
    E <= |Q| - 1.  The tame catalog is the element-order set minus 1 and
    multiples of p.
    """
    key = name.upper()
    if key not in SPORADIC_WILD_PRIMES:
        raise ValueError(f"unsupported sporadic group {name!r}")
    if p not in SPORADIC_WILD_PRIMES[key]:
        raise ValueError(f"unsupported characteristic {p} for {key}")
    group = permgroup.load_group(key.lower())
    wild = {
        (q.order(), e)
        for q, orders in permgroup.complement_orders(group, p)
        if q.is_elementary_abelian(p)
        for e in orders
        if e <= q.order() - 1
    }
    tame = {e for e in group.element_order_set() if e > 1 and e % p != 0}
    return GroupFacts(
        name=key,
        p=p,
        order=group.order(),
        wild_catalog=tuple(sorted(wild)),
        tame_catalog=tuple(sorted(tame)),
    )
