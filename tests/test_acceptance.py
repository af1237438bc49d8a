"""Acceptance suite: every reproduction target at its exact tolerance.

Each test prints one PASS line when its criterion holds; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  All assertions are
exact (integer or rational); runtime budgets are measured in-process.
"""

import random
import time
from fractions import Fraction

import pytest
from oracles import (
    chain_passes,
    compare_at,
    p_rank,
    scale_x,
    shift_x,
    shipped_facts,
    sign_at_infinity,
    solve_branch_data,
    zeta_prank_oracle,
)

from curvebound import bounds, permgroup
from curvebound.fppoly import FpPoly, squarefree_decomposition
from curvebound.prank import (
    ZETA_POINT_CAP,
    CurveModel,
    UnsupportedModelError,
    normalization_genus,
    parse_curve,
)
from curvebound.ramification import (
    case_i_ii_coefficient,
    deuring_shafarevich,
    enumerate_case_iii,
    hurwitz_genus,
    wild_different,
)

F = Fraction


def _even_rows(name, char):
    return [c for c in enumerate_case_iii(shipped_facts(name, char)) if c.passes_parity]


def test_criterion_1_alt7_enumeration():
    start = time.perf_counter()

    rows5 = _even_rows("ALT7", 5)
    assert {(c.e1, c.e2, c.g - 1) for c in rows5} == {(5, 4, 441), (10, 4, 63), (20, 7, 9)}
    assert [c.g for c in rows5 if c.passes_hurwitz_filter] == [10]

    rows7 = _even_rows("ALT7", 7)
    assert [(c.g, c.passes_hurwitz_filter) for c in rows7] == [(586, False)]

    rows3 = _even_rows("ALT7", 3)
    narrowed = {
        (c.e1, c.d1): c.g
        for c in rows3
        if not c.p_group_stabilizer and not c.small_wild_part
    }
    assert narrowed == {(18, 25): 176, (36, 43): 66}
    assert all(
        not c.passes_hurwitz_filter for c in rows3 if (c.e1, c.d1) in ((18, 25), (36, 43))
    )

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: alt7 enumeration exact for chars 5/7/3 ({elapsed:.3f}s)")


def test_criterion_2_m11_enumeration():
    start = time.perf_counter()

    rows11 = _even_rows("M11", 11)
    assert {(c.e1, c.e2, c.g) for c in rows11} == {(11, 8, 2746), (55, 8, 154)}
    assert all(not c.passes_hurwitz_filter for c in rows11)
    printed = [c for c in rows11 if c.e1 == 11]
    assert printed and printed[0].g == 2746 and printed[0].e2 == 8

    rows5 = _even_rows("M11", 5)
    assert {c.g - 1 for c in rows5} == {1881, 693, 99}
    assert all(not c.passes_hurwitz_filter for c in rows5)

    rows3 = _even_rows("M11", 3)
    survivors = [c for c in rows3 if c.passes_hurwitz_filter]
    assert [(c.e1, c.d1, c.e2, c.d2, c.g) for c in survivors] == [(72, 79, 11, 10, 26)]
    tame8 = {c.g - 1 for c in rows3 if c.e2 == 8}
    assert tame8 == {1045, 2585, 165, 275, 825}

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 2: m11 enumeration exact for chars 11/5/3, survivor g=26 ({elapsed:.3f}s)")


def test_criterion_3_case_coefficients():
    values = {
        ("ALT7", 3): F(*case_i_ii_coefficient(shipped_facts("ALT7", 3))),
        ("ALT7", 5): F(*case_i_ii_coefficient(shipped_facts("ALT7", 5))),
        ("ALT7", 7): F(*case_i_ii_coefficient(shipped_facts("ALT7", 7))),
        ("M11", 3): F(*case_i_ii_coefficient(shipped_facts("M11", 3))),
    }
    assert values[("ALT7", 3)] == 12
    assert values[("ALT7", 5)] == F(40, 3)  # catalog scan; 12 is the p=3 value
    assert values[("ALT7", 7)] == F(42, 5)
    assert values[("M11", 3)] == F(144, 7)
    assert all(v < 84 for v in values.values())
    assert max(v for (name, _), v in values.items() if name == "ALT7") == F(40, 3)
    print("\nPASS criterion 3: coefficients exact (alt7 p=3: 12, p=5: 40/3, p=7: 42/5; m11 p=3: 144/7), all < 84")


def test_criterion_4_group_certification(alt7, m11):
    start = time.perf_counter()

    assert alt7.order() == 2520
    assert m11.order() == 7920
    stab = alt7.point_stabilizer(0)
    assert stab.order() == 360
    assert len(permgroup.closure_elements(list(stab.generators), 7)) == 360
    assert alt7.normalizer(alt7.sylow_subgroup(7)).order() == 21
    syl3 = m11.sylow_subgroup(3)
    normal3 = m11.normalizer(syl3)
    assert normal3.order() == 144
    assert m11.order() // normal3.order() == 55
    assert syl3.order() == 9 and syl3.is_elementary_abelian(3)
    assert sorted(alt7.element_order_set()) == [1, 2, 3, 4, 5, 6, 7]
    assert sorted(m11.element_order_set()) == [1, 2, 3, 4, 5, 6, 8, 11]
    per_p = {p: permgroup.max_solvable_with_cyclic_complement(alt7, p) for p in (3, 5, 7)}
    assert per_p == {3: 36, 5: 20, 7: 21}  # per-prime stabilizer shapes
    assert max(per_p.values()) == 36  # the bound the one-wild-point cases consume
    assert all(v <= 36 for v in per_p.values())

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nPASS criterion 4: group certification (orders, normalizers, sylow shapes, 36) ({elapsed:.2f}s)")


def test_criterion_5_bound_audit():
    for cid in bounds.chain_ids():
        steps = bounds.chain_steps(cid)
        reports = bounds.audit_chain(cid)
        for step, report in zip(steps, reports):
            assert report.verdict == step.expect, step.step_id
            if step.kind == "dominates" and step.expect == "holds":
                b1, b2, g_min, _ = step.params
                assert compare_at(b1, b2, g_min) < 0
                assert compare_at(b1, b2, g_min + 1) < 0
                if g_min > 2:
                    compare_at(b1, b2, g_min - 1)  # evaluable below threshold
                assert sign_at_infinity(b1, b2) < 0  # tail dominance persists

    assert bounds.holds_at(bounds.MAIN, 7920, 26)
    assert 7920 > 84 * (26 - 1) == 2100
    assert not bounds.holds_at(bounds.HURWITZ, 7920, 26)
    assert 2520 == 84 * (31 - 1)
    assert not bounds.holds_at(bounds.HURWITZ, 2520, 31)
    print("\nPASS criterion 5: every registry step verifies at its threshold and +-1, tails dominated; "
          "(7920,26) and (2520,31) classified exactly")


def test_criterion_6_prank_reproduction():
    start = time.perf_counter()

    # y^2 = x^5 + 3x + 1 over GF(5) has L(t) = 1 + 25t^4; y^2 = x^2 (x^5 + 3x + 1) is
    # its nodal presentation, read on the same smooth model
    named = [("y^2 = x^5 - x", 3, 2), ("y^2 = x^5 + 3*x + 1", 5, 0), ("y^2 = x^5 - x", 5, 0),
             ("y^2 = x^7 + 3*x^3 + x^2", 5, 0)]
    for expr, p, gamma in named:
        m = parse_curve(expr, p)
        assert p_rank(m) == gamma
        assert zeta_prank_oracle(m) == gamma
    m1 = parse_curve("y^2 = x^5 - x", 3)
    assert normalization_genus(m1) == 2 and p_rank(m1) == normalization_genus(m1)
    assert normalization_genus(parse_curve("y^2 = x^7 + 3*x^3 + x^2", 5)) == 2
    with pytest.raises(UnsupportedModelError, match="genus 0"):
        parse_curve("y^2 = x^5 - 1", 5)  # (x - 1)^5: a rational curve

    rng = random.Random(2024)
    for p in (3, 5):
        for degree in (5, 6):
            done = 0
            while done < 25:
                coeffs = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
                f = FpPoly(p, coeffs)
                if f.degree != degree or any(mult > 1 for _, mult in squarefree_decomposition(f)):
                    continue
                m = CurveModel(2, f, p)
                assert p_rank(m) == zeta_prank_oracle(m)
                done += 1

    base = FpPoly(5, (1, 3, 0, 1, 0, 2))
    model = CurveModel(2, base, 5)
    reference = p_rank(model)
    for c in range(1, 5):
        assert p_rank(CurveModel(2, shift_x(base, c), 5)) == reference
    for u in range(2, 5):
        assert p_rank(CurveModel(2, scale_x(base, u), 5)) == reference

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 6: p-rank reproduction and 100 random agreement samples ({elapsed:.2f}s)")


def test_criterion_6b_zeta_oracle_at_the_tower_cap():
    # the costliest parsed models the point cap admits: at p = 7 and genus 7 the
    # oracle counts over GF(7^7) = 823,543 elements, 1.1-1.4 s measured on a 2-vCPU VM
    m = parse_curve("y^2 = x^15 + x^9 + x^4 + 1", 7)
    assert normalization_genus(m) == 7 and 7**7 <= ZETA_POINT_CAP < 7**8
    start = time.perf_counter()
    gamma = zeta_prank_oracle(m)
    elapsed = time.perf_counter() - start
    assert gamma == p_rank(m) == 7
    assert elapsed < 4.5
    print(f"\nPASS criterion 6b: zeta oracle at p = 7, genus 7 agrees with Cartier ({elapsed:.2f}s)")


def test_criterion_6b_zeta_oracle_on_a_repeated_factor_at_deg_32():
    # y^2 = a^2 b with deg a = 12 and deg b = 8: deg f = 32 at genus 3, verified over
    # GF(31^4); each count runs on b, since a^2 is a square: 1.0-1.1 s measured on a 2-vCPU VM
    a = FpPoly(31, (2, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1))
    b = FpPoly(31, (1, 2, 3, 4, 5, 6, 7, 8, 1))
    f = a * a * b
    m = parse_curve("y^2 = " + " + ".join(f"{c}*x^{k}" for k, c in enumerate(f.coeffs)), 31)
    assert squarefree_decomposition(m.f) == ((b, 1), (a, 2))
    assert m.f.degree == 32 and normalization_genus(m) == 3 and 31**4 <= ZETA_POINT_CAP
    start = time.perf_counter()
    gamma = zeta_prank_oracle(m)
    elapsed = time.perf_counter() - start
    assert gamma == p_rank(m) == 3
    assert elapsed < 3.2
    print(f"\nPASS criterion 6b: zeta oracle at p = 31, deg f = 32, genus 3 agrees with Cartier ({elapsed:.2f}s)")


def test_criterion_7_ramification_suite():
    start = time.perf_counter()

    printed_pairs = {
        (7, 1): (7, 12), (7, 3): (21, 26),
        (9, 2): (18, 25), (9, 4): (36, 43),
        (11, 1): (11, 20), (11, 5): (55, 64),
        (3, 1): (3, 4), (3, 2): (6, 7), (9, 1): (9, 16), (9, 8): (72, 79),
        (5, 1): (5, 8), (5, 4): (20, 23),
    }
    assert len(printed_pairs) == 12
    for (q1, e1), expected in printed_pairs.items():
        assert wild_different(q1, e1) == expected

    assert deuring_shafarevich(5, 2, [1]) == 10  # 9 = 5(x-1) + 4 at x = 2
    assert deuring_shafarevich(9, 2, [1, 1]) == 26  # 25 = 9(x-1) + 16 at x = 2
    assert solve_branch_data([((5,), 10)], 1) == [(2,)]
    assert solve_branch_data([((9,), 18)], 1) == [(2,)]

    assert solve_branch_data([((10, 8), 28)], 2) == [(2, 1)]
    assert solve_branch_data([((3, 2), 10), ((1, 2), 6)], 2) == [(2, 2)]
    assert solve_branch_data([((8, 1), 3)], 2) == [(0, 3)]

    # Kummer genera of y^4 = x (x - 1)^2 (x - 2)^2 and y^4 = x (x^10 + x + 1)^2 over GF(5)
    simple = FpPoly(5, (0, 1))
    assert normalization_genus(CurveModel(4, simple * FpPoly(5, (-1, 1)) ** 2 * FpPoly(5, (-2, 1)) ** 2, 5)) == 2
    assert normalization_genus(CurveModel(4, simple * FpPoly(5, (1, 1) + (0,) * 8 + (1,)) ** 2, 5)) == 10

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 7: twelve (e,d) pairs, branch-data instances, Kummer genera exact ({elapsed:.3f}s)")


def test_criterion_8_internal_consistency():
    # large genera have no external reference: both code paths must agree and
    # every candidate genus must come out integral
    for name, p, expected in (("ALT7", 7, 586), ("M11", 11, 2746)):
        facts = shipped_facts(name, p)
        cands = [c for c in enumerate_case_iii(facts) if c.passes_parity and c.g == expected]
        assert len(cands) == 1
        cand = cands[0]
        direct = hurwitz_genus(facts.order, 0, ((cand.e1, cand.d1, 1), (cand.e2, cand.d2, 1)))
        assert direct == expected
        assert (2 * expected - 2) % 2 == 0
    for cid in bounds.chain_ids():
        assert chain_passes(cid)
    print("\nPASS criterion 8: two-path recomputation agrees for g=586 and g=2746; audit self-consistent")
