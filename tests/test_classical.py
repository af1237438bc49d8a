import pytest
from oracles import shipped_facts

from curvebound.classical import (
    GroupFacts,
    factor_prime_power,
    family_order,
    group_facts,
)
from curvebound.perm import Permutation
from curvebound.permgroup import PermGroup


def test_prime_power_recognition():
    assert factor_prime_power(125) == (5, 3)
    assert factor_prime_power(7) == (7, 1)
    assert factor_prime_power(3**9) == (3, 9)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            factor_prime_power(bad)


def test_family_orders():
    assert family_order("PSL2", 5) == 60
    assert family_order("PSU3", 5) == 126000
    assert family_order("PSL3", 3) == 5616


@pytest.mark.parametrize("q", [5, 7, 9, 13, 25, 27, 125])
def test_pgl2_is_twice_psl2(q):
    assert family_order("PGL2", q) == 2 * family_order("PSL2", q)


@pytest.mark.parametrize("q", [3, 7, 11, 19, 27])
def test_pgl3_index(q):
    from math import gcd

    assert family_order("PGL3", q) == gcd(3, q - 1) * family_order("PSL3", q)


def test_congruence_validation():
    """The orders hold off the chains' congruence classes too: only a q that is not a
    prime power, or an unknown family, is refused."""
    textbook = {("PSL2", 4): 60, ("PSL2", 8): 504, ("PSL3", 2): 168, ("PSL3", 5): 372000,
                ("PSU3", 3): 6048, ("PSU3", 4): 62400}
    assert {key: family_order(*key) for key in textbook} == textbook
    assert family_order("PGL2", 4) == 60 and family_order("PGU3", 5) == 3 * 126000
    with pytest.raises(ValueError):
        family_order("PSL2", 15)  # q must be a prime power
    with pytest.raises(ValueError):
        family_order("ALT7", 7)


def test_sporadic_facts_alt7():
    f7 = shipped_facts("ALT7", 7)
    assert f7.wild_catalog == ((7, 1), (7, 3))
    assert sorted(q * e for q, e in f7.wild_catalog) == [7, 21]
    assert f7.tame_catalog == (2, 3, 4, 5, 6)

    f3 = shipped_facts("ALT7", 3)
    assert sorted(q * e for q, e in f3.wild_catalog) == [3, 6, 9, 18, 36]
    assert 72 not in {q * e for q, e in f3.wild_catalog}
    assert f3.tame_catalog == (2, 4, 5, 7)

    f5 = shipped_facts("ALT7", 5)
    assert sorted(q * e for q, e in f5.wild_catalog) == [5, 10, 20]


def test_sporadic_facts_m11():
    f3 = shipped_facts("M11", 3)
    assert f3.wild_catalog == ((3, 1), (3, 2), (9, 1), (9, 2), (9, 4), (9, 8))
    assert sorted(q * e for q, e in f3.wild_catalog) == [3, 6, 9, 18, 36, 72]
    assert f3.tame_catalog == (2, 4, 5, 8, 11)

    f11 = shipped_facts("M11", 11)
    assert f11.wild_catalog == ((11, 1), (11, 5))
    assert f11.tame_catalog == (2, 3, 4, 5, 6, 8)

    f5 = shipped_facts("M11", 5)
    assert sorted(q * e for q, e in f5.wild_catalog) == [5, 10, 20]
    assert f5.tame_catalog == (2, 3, 4, 6, 8, 11)


def test_sporadic_facts_invariants():
    for name, primes in (("ALT7", (3, 5, 7)), ("M11", (3, 5, 11))):
        for p in primes:
            facts = shipped_facts(name, p)
            for q1, e1 in facts.wild_catalog:
                assert e1 <= q1 - 1
                assert facts.order % (q1 * e1) == 0
            for e in facts.tame_catalog:
                assert e >= 2 and e % p != 0


def test_sporadic_facts_recomputed_not_cached():
    a = shipped_facts("ALT7", 5)
    b = shipped_facts("ALT7", 5)
    assert a == b
    assert a is not b


def test_sporadic_facts_rejects_bad_pairs():
    with pytest.raises(ValueError):
        shipped_facts("ALT7", 11)
    with pytest.raises(ValueError):
        shipped_facts("M11", 7)


def _group(cycles, degree):
    return PermGroup([Permutation.parse(c, degree) for c in cycles])


# Catalogs derived by hand from the normalizers of the Sylow subgroups, which are of prime order here:
# in A5, N(C3) = S3 and N(C5) = D10; in PSL(2,7), N(C3) = S3 and N(C7) = C7 ⋊ C3.
OTHER_GROUPS = [
    pytest.param(["(1,2,3)", "(3,4,5)"], 5, 60, 3, ((3, 1), (3, 2)), (2, 5), id="A5-3"),
    pytest.param(["(1,2,3)", "(3,4,5)"], 5, 60, 5, ((5, 1), (5, 2)), (2, 3), id="A5-5"),
    pytest.param(["(1,2,3,4,5,6,7)", "(2,3)(4,7)"], 7, 168, 3, ((3, 1), (3, 2)), (2, 4, 7), id="PSL27-3"),
    pytest.param(["(1,2,3,4,5,6,7)", "(2,3)(4,7)"], 7, 168, 7, ((7, 1), (7, 3)), (2, 3, 4), id="PSL27-7"),
]


@pytest.mark.parametrize("cycles, degree, order, p, wild, tame", OTHER_GROUPS)
def test_group_facts_of_groups_other_than_the_candidates(cycles, degree, order, p, wild, tame):
    facts = group_facts(_group(cycles, degree), p)
    assert (facts.p, facts.order) == (p, order)
    assert facts.wild_catalog == wild
    assert facts.tame_catalog == tame


@pytest.mark.parametrize("p", [2, 4, 9, 11, 13])
def test_group_facts_refuses_p_not_an_odd_prime_divisor(alt7, p):
    with pytest.raises(ValueError, match=f"^{p} is not an odd prime dividing the group order 2520$"):
        group_facts(alt7, p)


def test_group_facts_validation():
    with pytest.raises(ValueError):
        GroupFacts(3, 27, ((9, 12),), ())  # complement not coprime
    with pytest.raises(ValueError):
        GroupFacts(3, 27, ((9, 16),), ())  # complement above q1 - 1
    with pytest.raises(ValueError):
        GroupFacts(3, 27, ((25, 4),), ())  # wild part not a power of p
    with pytest.raises(ValueError):
        GroupFacts(3, 27, (), (3,))  # tame order divisible by p
