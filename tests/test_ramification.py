import random
from fractions import Fraction

import pytest
from oracles import UnboundedInstanceError, hurwitz_genus_reference, shipped_facts, solve_branch_data

from curvebound.classical import GroupFacts
from curvebound.fppoly import FpPoly
from curvebound.prank import CurveModel, UnsupportedModelError
from curvebound.ramification import (
    case_i_ii_coefficient,
    deuring_shafarevich,
    enumerate_case_iii,
    hurwitz_genus,
    wild_different,
)

# the twelve wild (e, d) pairs printed across the two sporadic case analyses
PRINTED_WILD_PAIRS = [
    ((7, 1), (7, 12)),
    ((7, 3), (21, 26)),
    ((9, 2), (18, 25)),
    ((9, 4), (36, 43)),
    ((11, 1), (11, 20)),
    ((11, 5), (55, 64)),
    ((3, 1), (3, 4)),
    ((3, 2), (6, 7)),
    ((9, 1), (9, 16)),
    ((9, 8), (72, 79)),
    ((5, 1), (5, 8)),
    ((5, 4), (20, 23)),
]


@pytest.mark.parametrize("qe,expected", PRINTED_WILD_PAIRS)
def test_wild_different_reproduces_printed_pairs(qe, expected):
    q1, e1 = qe
    assert wild_different(q1, e1) == expected


def test_wild_stabilizer_validation():
    # GroupFacts is the one place a wild stabilizer shape (q1, E1) is checked
    with pytest.raises(ValueError):
        GroupFacts(3, 2520, ((9, 9),), ())  # complement shares the prime
    with pytest.raises(ValueError):
        GroupFacts(3, 2520, ((9, 16),), ())  # complement too large
    with pytest.raises(ValueError):
        GroupFacts(3, 2520, ((12, 1),), ())  # not a prime power


@pytest.mark.parametrize("e1", [0, -1])
def test_group_facts_refuse_a_complement_below_one(e1):
    with pytest.raises(ValueError):
        GroupFacts(3, 2520, ((9, e1),), ())


def test_signature_validation():
    with pytest.raises(ValueError):
        hurwitz_genus(2520, 0, ((4, 2, 1),))  # d below e - 1
    with pytest.raises(ValueError):
        hurwitz_genus(2520, -1, ())
    hurwitz_genus(2520, 0, ((4, 3, 2), (72, 79, 1)))


def test_hurwitz_named_values():
    assert hurwitz_genus(7920, 0, ((72, 79, 1), (11, 10, 1))) == 26
    assert hurwitz_genus(2520, 0, ((20, 23, 1), (7, 6, 1))) == 10
    # unramified covers: g = n(g_bar - 1) + 1
    assert hurwitz_genus(1, 5, ()) == 5
    assert hurwitz_genus(12, 3, ()) == 25
    # non-integral and negative answers are returned, not raised
    assert hurwitz_genus(2520, 0, ((3, 4, 1), (2, 1, 1))) == -209
    assert hurwitz_genus(10, 0, ((7, 6, 1),)) is None
    assert hurwitz_genus(60, 0, ((2, 1, 1),)) < 2


def test_hurwitz_genus_matches_the_rational_formula():
    rng = random.Random(20261019)
    seen = {"negative": 0, "non-integral": 0}
    for _ in range(5000):
        points = []
        for _ in range(rng.randrange(4)):
            e = rng.randrange(2, 80)
            points.append((e, e - 1 + rng.randrange(3 * e), rng.randrange(1, 4)))
        order, quotient_genus = rng.randrange(1, 10000), rng.randrange(3)
        g = hurwitz_genus(order, quotient_genus, tuple(points))
        exact = hurwitz_genus_reference(order, quotient_genus, points)
        assert g == (exact if exact.denominator == 1 else None), (order, quotient_genus, points)
        seen["negative"] += g is not None and g < 0
        seen["non-integral"] += g is None
    assert min(seen.values()) > 100, seen


def test_hurwitz_integrality_crosscheck():
    # candidate constructor and direct evaluation must agree on 2g - 2
    facts = shipped_facts("M11", 3)
    for cand in enumerate_case_iii(facts):
        g = hurwitz_genus(facts.order, 0, ((cand.e1, cand.d1, 1), (cand.e2, cand.d2, 1)))
        assert g == cand.g
        lhs = Fraction(2 * cand.g - 2)
        rhs = facts.order * (Fraction(-2) + Fraction(cand.d1, cand.e1) + Fraction(cand.d2, cand.e2))
        assert lhs == rhs


def test_deuring_shafarevich_instances():
    assert deuring_shafarevich(5, 2, [1]) == 10
    assert deuring_shafarevich(9, 2, [1, 1]) == 26
    assert deuring_shafarevich(8, 1, []) == 1
    assert deuring_shafarevich(27, 1, []) == 1
    with pytest.raises(ValueError):
        deuring_shafarevich(6, 1, [])  # not a prime power
    with pytest.raises(ValueError):
        deuring_shafarevich(9, 1, [5])  # orbit size must divide the order


def test_kummer_genus_errors():
    # the Kummer genus formula needs a cover degree m >= 2 prime to p
    with pytest.raises(UnsupportedModelError):
        CurveModel(1, FpPoly(5, (0, 1)), 5)
    with pytest.raises(UnsupportedModelError):
        CurveModel(5, FpPoly(5, (0, -1, 0, 1)), 5)  # x^3 - x, three simple roots


# frozen candidate tables, keyed (e1, e2) -> g - 1; every one recomputed by
# the two-point Hurwitz instance in test_hurwitz_integrality_crosscheck
EXPECTED_EVEN_ROWS = {
    ("ALT7", 5): {(5, 4): 441, (10, 4): 63, (20, 7): 9},
    ("ALT7", 7): {(7, 4): 585},
    ("ALT7", 3): {(3, 4): 105, (9, 4): 665, (18, 4): 175, (36, 7): 65},
    ("M11", 3): {(72, 11): 25, (18, 8): 1045, (9, 8): 2585, (6, 8): 165, (36, 8): 275, (3, 8): 825},
    ("M11", 5): {(5, 8): 1881, (10, 8): 693, (20, 8): 99},
    ("M11", 11): {(11, 8): 2745, (55, 8): 153},
}

EXPECTED_SURVIVORS = {
    ("ALT7", 5): {10},
    ("ALT7", 7): set(),
    ("ALT7", 3): set(),
    ("M11", 3): {26},
    ("M11", 5): set(),
    ("M11", 11): set(),
}


@pytest.mark.parametrize("name,p", sorted(EXPECTED_EVEN_ROWS))
def test_enumerate_even_rows(name, p):
    facts = shipped_facts(name, p)
    candidates = enumerate_case_iii(facts)
    even = {(c.e1, c.e2): c.g - 1 for c in candidates if c.passes_parity}
    assert even == EXPECTED_EVEN_ROWS[(name, p)]
    survivors = {c.g for c in candidates if c.passes_parity and c.passes_hurwitz_filter}
    assert survivors == EXPECTED_SURVIVORS[(name, p)]


def test_enumerate_alt7_char3_lemma_flags():
    facts = shipped_facts("ALT7", 3)
    candidates = enumerate_case_iii(facts)
    kept = {
        (c.e1, c.e2): c.g
        for c in candidates
        if c.passes_parity and not c.p_group_stabilizer and not c.small_wild_part
    }
    assert kept == {(18, 4): 176, (36, 7): 66}
    flagged = {(c.e1, c.e2) for c in candidates if c.passes_parity and c.p_group_stabilizer}
    assert flagged == {(3, 4), (9, 4)}


def test_enumerate_deterministic(alt7):
    facts = shipped_facts("ALT7", 5)
    first = enumerate_case_iii(facts)
    second = enumerate_case_iii(shipped_facts("ALT7", 5))
    assert first == second
    keys = [(c.e1, c.e2) for c in first]
    assert keys == sorted(keys)


def test_all_candidates_have_integral_genus_at_least_two():
    for name, p in EXPECTED_EVEN_ROWS:
        for cand in enumerate_case_iii(shipped_facts(name, p)):
            assert isinstance(cand.g, int)
            assert cand.g >= 2


def _coefficient(name, p):
    return Fraction(*case_i_ii_coefficient(shipped_facts(name, p)))


def test_case_coefficients():
    assert _coefficient("ALT7", 3) == 12
    assert _coefficient("ALT7", 5) == Fraction(40, 3)
    assert _coefficient("ALT7", 7) == Fraction(42, 5)
    assert _coefficient("M11", 3) == Fraction(144, 7)
    assert _coefficient("M11", 5) == Fraction(40, 3)
    assert _coefficient("M11", 11) == Fraction(110, 9)
    for name, primes in (("ALT7", (3, 5, 7)), ("M11", (3, 5, 11))):
        for p in primes:
            assert _coefficient(name, p) < 84


def test_coefficient_is_in_lowest_terms():
    assert case_i_ii_coefficient(shipped_facts("ALT7", 3)) == (12, 1)
    assert case_i_ii_coefficient(shipped_facts("M11", 3)) == (144, 7)


def test_coefficient_single_entry():
    facts = GroupFacts(5, 20, ((5, 1),), (2,))
    assert Fraction(*case_i_ii_coefficient(facts)) == Fraction(2 * 5, 3)


def test_solver_instances():
    # 18 = 10(gbar - 1) + 8s, rewritten over non-negative unknowns
    assert solve_branch_data([((10, 8), 28)], 2) == [(2, 1)]
    # bare two-unknown instance has two solutions
    assert solve_branch_data([((3, 2), 10)], 2) == [(0, 5), (2, 2)]
    # adding the fixed-point budget (6 points with stabilizer order >= 2)
    assert solve_branch_data([((3, 2), 10), ((1, 2), 6)], 2) == [(2, 2)]
    # 18 = 8(gt - 1) + 23 + delta
    assert solve_branch_data([((8, 1), 3)], 2) == [(0, 3)]
    # deuring-shafarevich inversions: 9 = 5(x-1)+4 and 25 = 9(x-1)+16
    assert solve_branch_data([((5,), 10)], 1) == [(2,)]
    assert solve_branch_data([((9,), 18)], 1) == [(2,)]


def test_solver_unbounded():
    with pytest.raises(UnboundedInstanceError):
        solve_branch_data([((1, -1), 4)], 2)
