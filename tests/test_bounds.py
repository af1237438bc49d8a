import importlib
import pathlib
import random
import re
import time
from fractions import Fraction
from math import lcm

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import chain_passes, compare_at, sign_at_infinity

from curvebound import bounds
from curvebound.arith import is_prime
from curvebound.bounds import (
    HURWITZ,
    MAIN,
    PowerBound,
    Step,
    classify,
    dominates,
    holds_at,
    poly_positive_from,
)

F = Fraction
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
REGISTRY_CONSTANTS = (
    "292.42", "508.64", "821.37", "47.2", "86.72", "133", "266", "345", "463",
    "290", "595.21", "720", "766", "961.09", "1750.24",
)


def mp_value(b: PowerBound, g: int) -> mpmath.mpf:
    with mpmath.workdps(60):
        base = mpmath.mpf(g + b.shift)
        return mpmath.mpf(b.coeff.numerator) / b.coeff.denominator * (b.mult * base**b.num) ** (mpmath.mpf(1) / b.den)


def test_holds_at_named_values():
    assert holds_at(MAIN, 7920, 26)
    assert not holds_at(HURWITZ, 2520, 31)  # equality, so the strict bound fails
    assert holds_at(PowerBound(F(1, 1000)), 0, 2)
    assert holds_at(MAIN, 1, 2)


def test_holds_at_monotone_in_value():
    for value in (0, 10, 2762, 2763):
        expected = value < float(mp_value(MAIN, 2))
        assert holds_at(MAIN, value, 2) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=10**4))
def test_holds_at_matches_high_precision(value, g):
    exact = holds_at(MAIN, value, g)
    with mpmath.workdps(60):
        approx = mpmath.mpf(value) < mp_value(MAIN, g)
    assert exact == approx


def test_dominates_named_steps():
    b_linear = PowerBound(F(60), shift=-1)
    b_775 = PowerBound(F(31, 4), shift=-1, num=3, den=2, mult=60)
    assert dominates(b_linear, b_775, 2).verdict == "holds"
    b_048 = PowerBound(F(12, 25), shift=-1, num=3, den=2, mult=60)
    assert dominates(b_linear, b_048, 266).verdict == "holds"
    # below the true crossover (262) the small-constant step fails
    report = dominates(b_linear, b_048, 2, 300)
    assert report.verdict == "fails"
    assert report.witness == 2
    # equality is a strict failure
    same = PowerBound(F(5), num=3, den=2)
    assert dominates(same, same, 2, 100).verdict == "fails"


def test_dominates_smallest_witness_exact():
    b_linear = PowerBound(F(60), shift=-1)
    b_048 = PowerBound(F(12, 25), shift=-1, num=3, den=2, mult=60)
    # scan for the first g where the dominance starts holding
    first_ok = next(g for g in range(2, 400) if compare_at(b_linear, b_048, g) < 0)
    assert first_ok == 262
    report = dominates(b_linear, b_048, 250, 400)
    assert report.verdict == "fails" and report.witness == 250


def test_dominates_requires_nonempty_range():
    with pytest.raises(ValueError):
        dominates(MAIN, MAIN, 10, 5)


def test_dominates_tail_reversal_detected():
    higher = PowerBound(F(1), num=2, den=1)
    lower = PowerBound(F(1000), num=1, den=1)
    report = dominates(higher, lower, 2)
    assert report.verdict in ("fails", "holds-on-range")


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=10**6))
def test_dominates_pointwise_equals_shortcut(g):
    # per-integer comparison agrees with the checkpoint shortcut machinery
    b1 = PowerBound(F(472, 10), shift=1, num=3, den=2)
    b2 = PowerBound(F(8672, 100), num=3, den=2)
    pointwise = compare_at(b1, b2, g) < 0
    ranged = dominates(b1, b2, g, g).verdict == "holds"
    assert pointwise == ranged


def test_dominates_brute_window_agreement():
    b1 = PowerBound(F(6676, 100), shift=1, num=7, den=4)
    b2 = PowerBound(F(133), num=7, den=4)
    brute = [g for g in range(2, 5000) if compare_at(b1, b2, g) >= 0]
    assert brute == [2]
    assert dominates(b1, b2, 3).verdict == "holds"
    assert dominates(b1, b2, 2, 5000).witness == 2


def test_registry_chain_ids_and_errors():
    ids = bounds.chain_ids()
    assert set(ids) == {"prelim", "psl2_case1", "psl2_case2", "psu3", "psl3", "headline"}
    with pytest.raises(KeyError):
        bounds.audit_chain("nosuch")


def test_each_step_is_audited_once_per_process(monkeypatch):
    seen = []

    def spy(check):
        def audit(*params):
            seen.append(params)
            return check(*params)
        return audit

    monkeypatch.setattr(bounds, "_KIND_DISPATCH", {kind: spy(check) for kind, check in bounds._KIND_DISPATCH.items()})
    bounds._audited.cache_clear()
    try:
        first, second = bounds.audit_all(), bounds.audit_all()
    finally:
        bounds._audited.cache_clear()
    params = [step.params for cid in bounds.chain_ids() for step in bounds.chain_steps(cid)]
    assert len(params) == 65
    assert seen == params
    assert first == second


def test_every_kind_has_a_step_and_every_step_a_kind():
    kinds = {step.kind for cid in bounds.chain_ids() for step in bounds.chain_steps(cid)}
    assert set(bounds._KIND_DISPATCH) == kinds
    assert bounds._KIND_DISPATCH["dominates"] is dominates
    assert bounds._KIND_DISPATCH["poly"] is poly_positive_from


def test_a_row_note_is_the_step_note_then_the_checkers(monkeypatch):
    b1, b2 = PowerBound(F(1)), PowerBound(F(1), num=2)
    tail = "tail: exponents 1/1 vs 2/1, dominance persists at infinity"
    assert dominates(b1, b2, 2).note == tail
    noted = Step("t.noted", "dominates", "noted step", (b1, b2, 2, None), note="g < g^2")
    bare = Step("t.bare", "dominates", "bare step", (b1, b2, 2, None))
    monkeypatch.setattr(bounds, "registry", lambda: {"t": [noted, bare]})
    bounds._audited.cache_clear()
    try:
        reports = bounds.audit_chain("t")
    finally:
        bounds._audited.cache_clear()
    assert [r.note for r in reports] == [f"g < g^2; {tail}", tail]
    assert [r.verdict for r in reports] == ["holds", "holds"]


def test_mutating_an_audit_result_leaves_the_next_one_unchanged():
    expected = {cid: list(reports) for cid, reports in bounds.audit_all().items()}
    mutated = bounds.audit_all()
    mutated["psl3"].clear()
    mutated["headline"].append(mutated["prelim"][0])
    mutated["prelim"].reverse()
    del mutated["psu3"]
    bounds.audit_chain("psl2_case1").pop()
    assert bounds.audit_all() == expected
    assert bounds.audit_chain("psl2_case1") == expected["psl2_case1"]
    with pytest.raises(KeyError):
        bounds.audit_chain("nosuch")


def test_every_chain_passes():
    for cid in bounds.chain_ids():
        assert chain_passes(cid), cid


def test_slip_steps_fail_exactly_as_frozen():
    slips = [
        (step, cid)
        for cid in bounds.chain_ids()
        for step in bounds.chain_steps(cid)
        if step.slip
    ]
    assert len(slips) == 4
    for step, cid in slips:
        report = {s.step_id: r for s, r in zip(bounds.chain_steps(cid), bounds.audit_chain(cid))}[step.step_id]
        assert report.verdict == "fails"
        assert report.witness is not None


def test_registry_covers_the_constant_inventory():
    text = " ".join(
        step.note + step.anchor + str(step.params)
        for cid in bounds.chain_ids()
        for step in bounds.chain_steps(cid)
    )
    for constant in REGISTRY_CONSTANTS:
        numerator = constant.replace(".", "")
        assert numerator in text.replace(", ", ",") or constant in text, constant


def test_const_steps_against_high_precision():
    for cid in bounds.chain_ids():
        for step in bounds.chain_steps(cid):
            if step.kind != "const":
                continue
            coeff, radicand, root, rhs = step.params
            exact = F(coeff) ** root * F(radicand) <= F(rhs) ** root
            rad = F(radicand)
            with mpmath.workdps(60):
                lhs = (
                    mpmath.mpf(F(coeff).numerator) / F(coeff).denominator
                    * (mpmath.mpf(rad.numerator) / rad.denominator) ** (mpmath.mpf(1) / root)
                )
                approx = lhs <= mpmath.mpf(F(rhs).numerator) / F(rhs).denominator
            assert exact == approx, step.step_id


def test_dominance_steps_against_high_precision():
    for cid in bounds.chain_ids():
        for step in bounds.chain_steps(cid):
            if step.kind != "dominates":
                continue
            b1, b2, g_min, _ = step.params
            for g in (g_min, g_min + 1, g_min + 1000, 10**6 + 7):
                exact = compare_at(b1, b2, g) < 0
                with mpmath.workdps(60):
                    approx = mp_value(b1, g) < mp_value(b2, g)
                assert exact == approx, (step.step_id, g)


def test_threshold_and_neighbours_hold():
    for cid in bounds.chain_ids():
        for step, report in zip(bounds.chain_steps(cid), bounds.audit_chain(cid)):
            if step.kind != "dominates" or step.expect != "holds":
                continue
            b1, b2, g_min, _ = step.params
            assert compare_at(b1, b2, g_min) < 0, step.step_id
            assert compare_at(b1, b2, g_min + 1) < 0, step.step_id
            assert report.verdict == "holds"


def test_sharpness_notes_name_the_exact_threshold():
    """A dominates note's "sharp near N", "sharp at N" or "razor-thin at g = N" names t or t - 1,
    where t is the least g >= 2 from which the strict comparison holds on every integer below 2000."""
    pinned = {}
    for cid in bounds.chain_ids():
        for step in bounds.chain_steps(cid):
            match = re.search(r"(?:sharp (?:near|at)|razor-thin at g =) (\d+)", step.note)
            if step.kind != "dominates" or not match:
                continue
            b1, b2, _, _ = step.params
            t = 2000
            while t > 2 and compare_at(b1, b2, t - 1) < 0:
                t -= 1
            assert int(match.group(1)) in (t, t - 1), (step.step_id, step.note, t)
            pinned[step.step_id] = int(match.group(1))
    assert sorted(pinned.values()) == [2, 10, 10, 22, 39, 262]


def test_poly_positive():
    assert poly_positive_from((1, -5, 10, -11, 5), 2).verdict == "holds"
    assert poly_positive_from((-1, 0, 1), 2).verdict == "holds"  # g^2 - 1 from 2
    assert poly_positive_from((-1, 0, 1), 1).verdict == "fails"  # zero at 1
    assert poly_positive_from((0,), 1).verdict == "fails"
    assert poly_positive_from((5, -1), 1).verdict == "fails"  # negative leading coefficient


def test_poly_positive_beyond_float_range():
    # the root bound needs a square root of 10^400, past the largest float
    report = poly_positive_from([-(10**400), 0, 1], 0)
    assert (report.verdict, report.witness) == ("fails", 0)


def audit_step(step):
    return bounds._KIND_DISPATCH[step.kind](*step.params)


def test_outer_factor_rows_fail_on_a_constant_too_large_for_the_base_cases():
    # 64*2^2 = 256 > 25*3^2 = 225: c = 1.6 needs p >= 5; 289*1 <= 300 but 289*4 > 900
    for c in (F(8, 5), F(17, 10)):
        step = Step("t.outer", "outer_factor", "outer factor count", (3, c))
        assert audit_step(step).verdict == "fails", c
    assert audit_step(Step("t.outer", "outer_factor", "outer factor count", (5, F(8, 5)))).verdict == "holds"


def test_poly_row_for_a_step_ratio_too_small_fails():
    # (f+1)^2 < 2f^2, i.e. f^2 - 2f - 1 > 0, is false at f = 2
    report = audit_step(Step("t.ratio", "poly", "step ratio", ((-1, -2, 1), 2)))
    assert (report.verdict, report.witness) == ("fails", 2)


def test_outer_factor_bound_holds_for_every_small_prime_and_exponent():
    """c^2 f^2 <= p^f for every f < 200 at every prime p <= 47 with p >= p_min."""
    steps = [step for step in bounds.chain_steps("prelim") if step.kind == "outer_factor"]
    assert [step.params for step in steps] == [(5, F(8, 5)), (3, F(109, 100))]
    for p_min, c in (step.params for step in steps):
        for p in (p for p in range(p_min, 48) if is_prime(p)):
            for f in range(1, 200):
                assert c.numerator**2 * f * f <= c.denominator**2 * p**f, (p_min, c, p, f)


def test_audit_rows_match_the_benchmark_reference(monkeypatch):
    """The library-warm workload hashes these rows against its frozen digest, so a registry
    edit that changes a verdict or a witness fails here as well as there."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    refs = importlib.import_module("refs")
    rows = [[cid, i, r.verdict, r.witness] for cid, reps in bounds.audit_all().items() for i, r in enumerate(reps)]
    assert refs.audit_digest(rows) == refs.AUDIT_ALL_SHA256


@pytest.mark.parametrize("k", range(2, 8))
def test_integer_kth_root_is_the_floor_root(k):
    radicands = list(range(300)) + [10**e + d for e in range(1, 401, 7) for d in (-1, 0, 1)]
    radicands += [x**k + d for x in (2**64, 3**200, 10**57) for d in (-1, 0, 1)]
    for n in radicands:
        x = bounds._integer_kth_root(n, k)
        assert x**k <= n < (x + 1) ** k, (n, k)


def test_min_even_genus_matches_a_walk_from_two():
    rng = random.Random(18)
    order_bounds = [rng.randrange(10 ** rng.randrange(1, 9)) for _ in range(500)]
    for order_bound in order_bounds + [0, 1, 168, 169, 84 * 12 * 11, 84 * 12 * 11 + 1, 10**8]:
        g = 2
        while 84 * g * (g - 1) < order_bound:
            g += 2
        assert bounds._min_even_genus(order_bound) == g, order_bound


def test_classify_named_pairs():
    assert classify(7920, 26) == {"nakajima", "main-7/4"}
    assert "hurwitz" not in classify(2520, 10)
    assert classify(2520, 31) >= {"hurwitz", "nakajima", "main-7/4"}
    assert classify(1, 2) == {"hurwitz", "nakajima", "solvable-3/2", "main-7/4"}
    with pytest.raises(ValueError):
        classify(10, 1)


def test_power_bound_validation():
    with pytest.raises(ValueError):
        PowerBound(F(0))
    with pytest.raises(ValueError):
        PowerBound(F(1), den=0)
    # refused when built, a float coefficient included
    for coeff, kwargs in ((F(-1, 3), {}), (F(1), {"mult": 0}), (F(1), {"num": -1}), (0.5, {})):
        with pytest.raises(ValueError):
            PowerBound(coeff, **kwargs)
    with pytest.raises(ValueError):
        holds_at(HURWITZ, 10, 0)  # g + shift negative is refused at g < 1


# -- the Fraction formulas the integer kernels replaced, kept as oracles ------


def frac_raised(b: PowerBound, g: int, power: int) -> Fraction:
    k = power // b.den
    return F(b.coeff) ** power * F(b.mult) ** k * F(g + b.shift) ** (b.num * k)


def frac_compare_at(b1, b2, g):
    power = lcm(b1.den, b2.den)
    lhs, rhs = frac_raised(b1, g, power), frac_raised(b2, g, power)
    return (lhs > rhs) - (lhs < rhs)


def frac_holds_at(b, value, g):
    return F(value) ** b.den < frac_raised(b, g, b.den)


def frac_sign_at_infinity(b1, b2):
    power = lcm(b1.den, b2.den)
    alpha, beta = b1.num * power // b1.den, b2.num * power // b2.den
    if alpha != beta:
        return 1 if alpha > beta else -1
    lhs = F(b1.coeff) ** power * F(b1.mult) ** (power // b1.den)
    rhs = F(b2.coeff) ** power * F(b2.mult) ** (power // b2.den)
    if lhs != rhs:
        return 1 if lhs > rhs else -1
    if b1.shift != b2.shift and alpha > 0:
        return 1 if b1.shift > b2.shift else -1
    return 0


def frac_poly_positive_from(coeffs, start):
    """(verdict, witness) by Fraction evaluation up to the Lagrange root bound."""
    coeffs = [F(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return "fails", start
    lead, n = coeffs[-1], len(coeffs) - 1
    if lead <= 0:
        return "fails", None
    worst = 0
    for i, c in enumerate(coeffs[:-1]):
        if c < 0:
            worst = max(worst, bounds._integer_kth_root(int(F(-c) / lead) + 1, n - i) + 1)
    for x in range(start, max(start, 2 * worst + 2) + 1):
        acc = F(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        if acc <= 0:
            return "fails", x
    return "holds", None


def linear_smallest_failure(b1, b2, g_min, g_max):
    """The least g in [g_min, g_max] with b1(g) >= b2(g), walking one g at a time; None if none."""
    return next((g for g in range(g_min, g_max + 1) if compare_at(b1, b2, g) >= 0), None)


@st.composite
def power_bounds(draw, max_coeff=10**6, max_den=10**4, max_mult=90):
    """Positive bounds with shift -1..1 and exponent num/den up to 17/12."""
    den = draw(st.integers(1, 12))
    return PowerBound(
        F(draw(st.integers(1, max_coeff)), draw(st.integers(1, max_den))),
        shift=draw(st.integers(-1, 1)),
        num=draw(st.integers(0, 17 * den // 12)),
        den=den,
        mult=draw(st.integers(1, max_mult)),
    )


@settings(max_examples=100, deadline=None)
@given(power_bounds(), power_bounds(), st.integers(1, 10**12))
def test_integer_kernels_match_fraction_oracle(b1, b2, g):
    assert compare_at(b1, b2, g) == frac_compare_at(b1, b2, g)
    # equal exponents reach the coefficient test, equal coefficients the shift test
    for other in (b2, PowerBound(b2.coeff, b2.shift, b1.num, b1.den, b2.mult),
                  PowerBound(b1.coeff, b2.shift, b1.num, b1.den, b1.mult)):
        assert sign_at_infinity(b1, other) == frac_sign_at_infinity(b1, other)


@settings(max_examples=100, deadline=None)
@given(power_bounds(), st.integers(1, 10**12), st.integers(0, 10**40))
def test_holds_at_matches_fraction_oracle(b, g, value):
    # the floor of the bound and one above it exercise the equality edge
    cleared = frac_raised(b, g, b.den)
    near = bounds._integer_kth_root(cleared.numerator // cleared.denominator, b.den)
    for v in (value, near, near + 1):
        assert holds_at(b, v, g) == frac_holds_at(b, v, g)


@st.composite
def rational_polys(draw):
    """Fraction coefficients with unlike denominators, like the registry's pg0..pg2, leading one >= 1."""
    lower = draw(st.lists(st.fractions(min_value=-1000, max_value=1000, max_denominator=50), max_size=3))
    den = draw(st.integers(1, 10))
    return lower + [F(draw(st.integers(den, 20 * den)), den)]


@settings(max_examples=60, deadline=None)
@given(rational_polys(), st.integers(0, 10))
def test_poly_positive_matches_fraction_oracle(coeffs, start):
    report = poly_positive_from(coeffs, start)
    assert (report.verdict, report.witness) == frac_poly_positive_from(coeffs, start)


@settings(max_examples=150, deadline=None)
@given(power_bounds(max_coeff=200, max_den=20, max_mult=5), power_bounds(max_coeff=200, max_den=20, max_mult=5),
       st.integers(1, 60), st.integers(0, 400))
def test_bisected_witness_matches_linear_walk(b1, b2, g_min, width):
    g_max = g_min + width
    report = dominates(b1, b2, g_min, g_max)
    first_bad = linear_smallest_failure(b1, b2, g_min, g_max)
    assert report.verdict == ("holds" if first_bad is None else "fails")
    assert report.witness == first_bad
    unbounded = dominates(b1, b2, g_min)
    if unbounded.verdict == "fails":
        w = unbounded.witness
        assert compare_at(b1, b2, w) >= 0 and (w == g_min or compare_at(b1, b2, w - 1) < 0)
        assert w == first_bad if first_bad is not None else w > g_max
    elif first_bad is not None:
        # a failure that only the reversal at infinity reveals still carries no witness
        assert unbounded.verdict == "holds-on-range"


def test_bisected_witness_is_fast_on_a_wide_range():
    start = time.perf_counter()
    report = dominates(PowerBound(F(1), num=2), PowerBound(F(10**5)), 2, 10**9)
    elapsed = time.perf_counter() - start
    assert (report.verdict, report.witness) == ("fails", 10**5)
    assert elapsed < 0.1
