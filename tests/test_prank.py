import random
import time
import tracemalloc
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    cartier_matrix_two_formulas,
    coeff,
    count_points_every_x,
    evaluate,
    field_tables_reference,
    kummer_denominator,
    mat_mul,
    p_rank,
    poly_mul_reference,
    pow_foldl,
    pow_mod,
    rank_mod_p,
    regular_monomials,
    scale_x,
    shift_x,
    stable_rank_by_squaring,
    zeta_prank_oracle,
)

from curvebound import prank
from curvebound.arith import is_prime
from curvebound.fppoly import PRIME_BOUND, FpPoly, _slot_width, field_tables, squarefree_decomposition
from curvebound.prank import (
    PRIME_CAP,
    ZETA_POINT_CAP,
    CartierMatrix,
    CurveModel,
    UnsupportedModelError,
    cartier_matrix,
    charpoly_mod_p,
    count_points,
    differential_basis,
    l_polynomial_p_rank,
    normalization_genus,
    parse_curve,
    stable_rank,
    zeta_l_polynomial,
)
from curvebound.ramification import hurwitz_genus


def model(expr, p):
    return parse_curve(expr, p)


# y^2 = x^7 + 3x^3 + x^2 = x^2 (x^5 + 3x + 1) over GF(5) has a node at x = 0; its
# smooth model y^2 = x^5 + 3x + 1 has genus 2, L(t) = 1 + 25t^4 and p-rank 0
NODAL = "y^2 = x^7 + 3*x^3 + x^2"
GAMMA_ZERO = "y^2 = x^5 + 3*x + 1"


# -- polynomial layer ---------------------------------------------------------


def test_fppoly_arithmetic():
    f = FpPoly(5, (1, 2, 3))
    g = FpPoly(5, (4, 1))
    assert (f * g).coeffs == (4, 4, 4, 3)
    q, r = f.divmod(g)
    assert r.degree < g.degree
    assert [(coeff(q * g, k) + coeff(r, k)) % 5 for k in range(3)] == list(f.coeffs)
    assert evaluate(f, 2) == (1 + 4 + 12) % 5


def test_fppoly_power_routes_agree():
    f = FpPoly(3, (2, 0, 1, 1))
    assert (f**4).coeffs == pow_foldl(f, 4).coeffs
    f5 = FpPoly(5, (1, 1, 0, 0, 0, 4))
    assert (f5**2).coeffs == pow_foldl(f5, 2).coeffs


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.lists(st.integers(0, 6), max_size=7),
       st.lists(st.integers(0, 6), max_size=5), st.integers(0, 40))
def test_modular_power_is_the_reduced_power(p, f, m, e):
    f, m = FpPoly(p, f), FpPoly(p, m)
    assume(not m.is_zero())
    assert pow_mod(f, e, m) == (f**e) % m


def test_is_prime_matches_a_sieve_below_2_16():
    sieve = bytearray([0, 0]) + bytearray([1]) * (2**16 - 1)
    for d in range(2, 2**8 + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, 2**16 + 1, d)))
    assert [n for n in range(2**16 + 1) if is_prime.__wrapped__(n)] == [n for n, flag in enumerate(sieve) if flag]


@pytest.mark.parametrize("p", [65536, 65537, 2**61 - 1, 2**64 - 59, 3825123056546413051,
                               318665857834031151167461])
def test_fppoly_refuses_p_at_the_prime_bound_at_once(p):
    """Each p is at least 2^16, prime or not, and is refused before any trial
    division, which for 2^61 - 1 alone would take about 1.5 * 10^9 steps."""
    assert p >= PRIME_BOUND
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"is not a prime below {PRIME_BOUND}"):
        FpPoly(p, (1, 1))
    assert time.perf_counter() - start < 0.01


def test_slot_width_refuses_more_than_8_bytes():
    assert [_slot_width(b) for b in (0, 255, 256, 2**16, 2**32 - 1, 2**32, 2**64 - 1)] == [1, 1, 2, 4, 4, 8, 8]
    with pytest.raises(OverflowError):
        _slot_width(2**64)


PACKED_PRIMES = (2, 3, 5, 7, 31, 61, 211, 65521)  # 65521: the largest prime below 2^16


def _random_poly(rng, p, degree):
    """A polynomial of the given degree over GF(p); the zero polynomial for degree -1."""
    if degree < 0:
        return FpPoly(p, ())
    return FpPoly(p, [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)])


def test_packed_products_match_the_schoolbook_product():
    rng = random.Random(61)
    for p in PACKED_PRIMES:
        zero, top = FpPoly(p, ()), FpPoly(p, [p - 1] * 65)  # every slot sum at its widest
        cases = [(zero, top), (top, zero), (zero, zero), (FpPoly(p, (p - 1,)), top), (top, top)]
        cases += [(_random_poly(rng, p, rng.randrange(-1, 65)), _random_poly(rng, p, rng.randrange(-1, 65)))
                  for _ in range(60)]
        for f, g in cases:
            assert f * g == poly_mul_reference(f, g), (p, f.coeffs, g.coeffs)


def test_packed_powers_match_the_left_fold():
    """Degrees 0-64 and exponents 0-40, with degree times exponent kept small
    enough for the schoolbook left fold."""
    rng = random.Random(211)
    for p in PACKED_PRIMES:
        zero, constant = FpPoly(p, ()), FpPoly(p, (p - 1,))
        cases = [(zero, 0), (zero, 1), (zero, 7), (constant, 0), (constant, 40),
                 (FpPoly(p, [p - 1] * 9), 40), (FpPoly(p, [p - 1] * 65), 5)]
        for _ in range(40):
            degree = rng.randrange(65)
            cases.append((_random_poly(rng, p, degree), rng.randrange(min(40, 320 // max(degree, 1)) + 1)))
        for f, k in cases:
            assert f**k == pow_foldl(f, k), (p, f.coeffs, k)


def test_squarefree_decomposition():
    p = 5
    f = FpPoly(p, (0, 1)) * FpPoly(p, (-1, 1)) ** 2 * FpPoly(p, (-2, 1)) ** 2
    parts = {(poly.coeffs, mult) for poly, mult in squarefree_decomposition(f)}
    assert parts == {((0, 1), 1), ((2, 2, 1), 2)}  # (x-1)(x-2) = x^2 + 2x + 2
    frobenius = FpPoly(5, (-1, 0, 0, 0, 0, 1))  # x^5 - 1 = (x-1)^5
    assert [(poly.coeffs, mult) for poly, mult in squarefree_decomposition(frobenius)] == [((4, 1), 5)]


def test_squarefree_decomposition_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(11)
    for _ in range(120):
        p = rng.choice((3, 5, 7))
        # products of random factors, some raised to powers that p divides
        f = FpPoly(p, (rng.randrange(1, p),))
        for _ in range(rng.randrange(1, 5)):
            factor = FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 4))] + [1])
            f = f * factor ** rng.choice((1, 1, 2, 3, p, p + 1))
        expected = set()
        for poly, mult in sympy.Poly(list(reversed(f.coeffs)), x, modulus=p).sqf_list()[1]:
            monic = FpPoly(p, [int(c) for c in reversed(poly.all_coeffs())]).monic()
            expected.add((monic.coeffs, mult))
        parts = squarefree_decomposition(f)
        assert {(poly.coeffs, mult) for poly, mult in parts} == expected, f
        assert [mult for _, mult in parts] == sorted(mult for _, mult in parts)
        product = FpPoly(p, (1,))
        for poly, mult in parts:
            product = product * poly**mult
        assert product == f.monic()


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 3), (7, 4)])
def test_field_tables_describe_the_field(p, k):
    log, zech = field_tables(p, k)
    q = p**k
    assert sorted(log[1:]) == list(range(q - 1))  # a bijection onto 0..q-2
    antilog = [0] * (q - 1)
    for a in range(1, q):
        antilog[log[a]] = a

    def add(a, b):  # digitwise, the encoding's addition
        return sum((a // p**j + b // p**j) % p * p**j for j in range(k))

    for i in range(q - 1):
        one_plus = add(1, antilog[i])
        assert zech[i] == (log[one_plus] if one_plus else -1)
    # multiplication by x (log + 1) is additive on the encoding, so products
    # taken through the logs distribute over the digitwise sum
    rng = random.Random(p * k)
    elements = range(1, q)
    pairs = [(a, b) for a in elements for b in elements] if q <= 125 else [
        (rng.randrange(1, q), rng.randrange(1, q)) for _ in range(5000)
    ]
    times_x = [0] + [antilog[(log[a] + 1) % (q - 1)] for a in elements]
    for a, b in pairs:
        assert times_x[add(a, b)] == add(times_x[a], times_x[b])
    # GF(p) is 0..p-1: its products through the logs are the integers mod p
    for a in range(1, p):
        for b in range(1, p):
            assert antilog[(log[a] + log[b]) % (q - 1)] == a * b % p
    assert field_tables(p, k) is field_tables(p, k)


def test_field_tables_cache_is_bounded():
    for p, k in [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in (1, 2, 3, 4) if p**k <= 200]:
        field_tables(p, k)
    info = field_tables.cache_info()
    assert info.maxsize == 16 and info.currsize <= info.maxsize


SMALL_FIELDS = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                for k in range(1, 15) if p**k <= 2 * 10**4]


def test_field_tables_match_the_polynomial_reference():
    """Both arrays, hence the primitive modulus: x^k has the log k, and its code
    holds the modulus's reduction whenever p^k - 1 > k, that is, for every field
    here but GF(2)."""
    assert len(SMALL_FIELDS) == 54
    for p, k in SMALL_FIELDS:
        assert field_tables(p, k) == field_tables_reference(p, k), (p, k)


@pytest.mark.parametrize("p,k", [(3, 10), (7, 5)])
def test_field_tables_peak_memory_is_the_two_arrays(p, k):
    """A successor table of p^k ints would take over 4 times the 8 bytes per element
    of the two returned arrays."""
    tracemalloc.start()
    try:
        field_tables.__wrapped__(p, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * p**k


# -- models and genus -----------------------------------------------------------


def test_genus_of_models():
    assert normalization_genus(model("y^2 = x^5 - x", 3)) == 2
    assert normalization_genus(model("y^2 = x^3 + 1", 5)) == 1
    f = FpPoly(5, (0, 1)) * FpPoly(5, (-1, 1)) ** 2 * FpPoly(5, (-2, 1)) ** 2
    assert normalization_genus(CurveModel(4, f, 5)) == 2
    # the node drops the presentation's arithmetic genus 3 to the smooth genus 2
    assert normalization_genus(model(NODAL, 5)) == 2
    # x^5 - 1 = (x - 1)^5 over GF(5): a rational curve, refused
    with pytest.raises(UnsupportedModelError, match="genus 0"):
        model("y^2 = x^5 - 1", 5)


def test_genus_read_off_squarefree_parts():
    # root multiplicities (1, 2, 2) under m = 4: x (x - 1)^2 (x - 2)^2
    f = FpPoly(5, (0, 1)) * FpPoly(5, (-1, 1)) ** 2 * FpPoly(5, (-2, 1)) ** 2
    assert normalization_genus(CurveModel(4, f, 5)) == 2
    # one simple root and ten double roots under m = 4: x (x^10 + x + 1)^2
    f = FpPoly(5, (0, 1)) * FpPoly(5, (1, 1) + (0,) * 8 + (1,)) ** 2
    assert [(a.degree, lam) for a, lam in squarefree_decomposition(f)] == [(1, 1), (10, 2)]
    assert normalization_genus(CurveModel(4, f, 5)) == 10
    # hyperelliptic: five, three and six simple roots
    assert normalization_genus(model("y^2 = x^5 - x", 7)) == 2
    assert normalization_genus(model("y^2 = x^3 + 1", 5)) == 1
    assert normalization_genus(model("y^2 = x^6 - x", 3)) == 2


def test_genus_agrees_with_riemann_hurwitz_on_random_models():
    """normalization_genus against ``hurwitz_genus`` of the cyclic cover of P^1: one
    point (e, e - 1, 1) per root of a part a^lam and at infinity (lam = deg f),
    e = m / gcd(m, lam) > 1, with the sum cleared over the lcm of the e."""
    rng = random.Random(24)
    checked = repeated = 0
    for _ in range(3000):
        p = rng.choice((3, 5, 7, 11, 13))
        m = rng.choice([m for m in range(2, 9) if m % p])
        f = FpPoly(p, (rng.randrange(1, p),))
        for _ in range(rng.randrange(1, 4)):
            f = f * FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 4))] + [1]) ** rng.randrange(1, 5)
        try:
            curve = CurveModel(m, f, p)
        except UnsupportedModelError:
            continue
        lams = [lam for a, lam in squarefree_decomposition(f) for _ in range(a.degree)] + [f.degree]
        points = [(e, e - 1, 1) for e in (m // gcd(m, lam) for lam in lams) if e > 1]
        assert normalization_genus(curve) == hurwitz_genus(m, 0, points), (m, p, f)
        checked += 1
        repeated += max(lams[:-1]) > 1
    assert checked >= 1000 and repeated >= 300, (checked, repeated)


def test_degree_13_model_over_gf11():
    # trial-division factoring needed about half a minute for this model
    f = "4*x^13 + 10*x^12 + 4*x^11 + 6*x^10 + 5*x^9 + 2*x^8 + 9*x^7 + 8*x^5 + 6*x^4 + 7*x^3 + 2*x^2 + 5"
    m = model("y^2 = " + f, 11)
    assert normalization_genus(m) == 6
    assert p_rank(m) == 6


def test_model_validation():
    with pytest.raises(UnsupportedModelError):
        model("y^2 = x^2", 5)  # perfect square: cover splits
    with pytest.raises(UnsupportedModelError):
        model("y^5 = x^3 + 1", 5)  # p divides m
    with pytest.raises(UnsupportedModelError):
        model("y = x^3 + 1", 5)  # m = 1
    with pytest.raises(UnsupportedModelError):
        model("y^2 = x + 1", 5)  # genus 0
    with pytest.raises(UnsupportedModelError):
        CurveModel(2, FpPoly(2, (1, 1, 1)), 2)  # p must be odd


def test_parse_curve_errors():
    with pytest.raises(ValueError):
        parse_curve("y^2 - x^5", 5)
    with pytest.raises(ValueError):
        parse_curve("z^2 = x^5 - x", 5)
    with pytest.raises(ValueError):
        parse_curve("y^2 = x^5 - w", 5)


# -- Cartier matrices ------------------------------------------------------------


def test_cartier_matrix_named_values():
    assert cartier_matrix(model("y^2 = x^5 - x", 3)).entries == ((0, 2), (1, 0))
    assert cartier_matrix(model(GAMMA_ZERO, 5)).entries == ((0, 0), (0, 0))
    assert cartier_matrix(model(NODAL, 5)) == cartier_matrix(model(GAMMA_ZERO, 5))
    assert cartier_matrix(model("y^2 = x^5 - x", 5)).entries == ((0, 0), (0, 0))


def test_cartier_elliptic_hasse_invariant():
    # the 1x1 matrix holds the coefficient of x^(p-1) in f^((p-1)/2)
    m = model("y^2 = x^3 + x", 5)
    h = m.f ** 2
    assert cartier_matrix(m).entries == ((coeff(h, 4),),)


def _squarefree(rng, p, degree, dense=False):
    """A random squarefree f of the given degree over GF(p); every coefficient nonzero if dense."""
    low = 1 if dense else 0
    while True:
        f = FpPoly(p, [rng.randrange(low, p) for _ in range(degree)] + [rng.randrange(1, p)])
        if all(mult == 1 for _, mult in squarefree_decomposition(f)):
            return f


def test_cartier_matrix_computes_one_power_per_stratum(monkeypatch):
    """y^7 = a dense f of degree 32 over GF(31) has genus 93 but only 6 strata y^b,
    and y^2 = f has one; each stratum needs one power of f."""
    y7 = CurveModel(7, _squarefree(random.Random(31), 31, 32, dense=True), 31)
    y2 = model("y^2 = x^9 + 3*x^4 + x + 1", 31)
    calls = []
    power = FpPoly.__pow__

    def counted(f, k):
        calls.append(k)
        return power(f, k)

    monkeypatch.setattr(FpPoly, "__pow__", counted)
    matrix = cartier_matrix(y7)
    assert matrix.size == 93
    assert len({b for _, b in matrix.basis}) == 6
    assert len(calls) == len(set(calls)) == 6
    calls.clear()
    assert cartier_matrix(y2).size == 4
    assert calls == [15]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_cartier_matrix_matches_the_two_formula_reference(m):
    rng = random.Random(m)
    for p in (3, 5, 7, 11, 13):
        if p % m == 0:
            continue
        for degree in range(3, 10):
            curve = CurveModel(m, _squarefree(rng, p, degree), p)
            assert cartier_matrix(curve) == cartier_matrix_two_formulas(curve), (m, p, curve.f.coeffs)


def test_cartier_matrix_matches_the_two_formula_reference_non_squarefree():
    """Models with a multiplicity of m or more are read on the presented f:
    y^2 = x (x-1)^2 (x-2)^3 (x-3) (x-4) over GF(7), of genus 1, has the one
    differential (x-1) (x-2) dx / y, and y^3 = x^4 (x-1) (x-2) over GF(7) the
    one differential x^2 dx / y^2.  These are dx / y and dx / y^2 on the models
    with the repeated factors taken out, y^2 = x (x-2) (x-3) (x-4) and
    y^3 = x (x-1) (x-2), and the matrices are theirs."""
    x = [FpPoly(7, (-a, 1)) for a in range(5)]
    one = FpPoly.constant(7, 1)
    nodal = CurveModel(2, x[0] * x[1] ** 2 * x[2] ** 3 * x[3] * x[4], 7)
    smooth = CurveModel(2, x[0] * x[2] * x[3] * x[4], 7)
    assert differential_basis(nodal) == {1: (x[1] * x[2], 1)}
    assert differential_basis(smooth) == {1: (one, 1)}
    assert cartier_matrix(nodal).size == normalization_genus(nodal) == 1
    assert cartier_matrix(nodal) == cartier_matrix_two_formulas(nodal) == cartier_matrix(smooth)
    cubic = CurveModel(3, x[0] ** 4 * x[1] * x[2], 7)
    smooth = CurveModel(3, x[0] * x[1] * x[2], 7)
    assert differential_basis(cubic) == {2: (x[0] ** 2, 1)}
    assert differential_basis(smooth) == {2: (one, 1)}
    assert cartier_matrix(cubic).size == normalization_genus(cubic) == 1
    assert cartier_matrix(cubic) == cartier_matrix_two_formulas(cubic) == cartier_matrix(smooth)
    rng = random.Random(7)
    compared = 0
    for p, m in ((3, 2), (5, 2), (7, 2), (5, 3), (7, 3), (5, 4), (7, 4)):
        for _ in range(10):
            f = _squarefree(rng, p, rng.randrange(1, 5))
            f = f * _squarefree(rng, p, rng.randrange(1, 3)) ** rng.randrange(m, 2 * m + 1)
            try:
                curve = CurveModel(m, f, p)
            except UnsupportedModelError:
                continue
            assert cartier_matrix(curve) == cartier_matrix_two_formulas(curve), (m, p, f.coeffs)
            compared += 1
    assert compared >= 50


def test_cartier_matrix_on_squarefree_f_runs_no_division(monkeypatch):
    """Every c_b is 1 on squarefree f, and the entries are read off the powers
    of f with no polynomial division."""
    curve = model("y^4 = x^3 + x + 1", 5)
    assert all(c_b.degree == 0 for c_b, _ in differential_basis(curve).values())
    expected = cartier_matrix_two_formulas(curve)
    monkeypatch.setattr(FpPoly, "divmod", None)
    assert cartier_matrix(curve) == expected


def test_stable_rank_values():
    nonsingular = cartier_matrix(model("y^2 = x^5 - x", 3))
    assert stable_rank(nonsingular) == 2
    zero = cartier_matrix(model(GAMMA_ZERO, 5))
    assert stable_rank(zero) == 0
    from curvebound.prank import CartierMatrix

    nilpotent = CartierMatrix(p=3, entries=((0, 1), (0, 0)), basis=((1, 1), (2, 1)))
    assert stable_rank(nilpotent) == 0  # rank drops when the product is iterated
    assert stable_rank(CartierMatrix(p=3, entries=(), basis=())) == 0


def test_stable_rank_of_nilpotent_jordan_blocks():
    """A nilpotent block of size n >= 2 keeps rank 1 in M^(n-1), so one power too few fails."""
    from curvebound.prank import CartierMatrix

    def matrix(rows):
        basis = tuple((a, 1) for a in range(1, len(rows) + 1))
        return CartierMatrix(p=3, entries=tuple(map(tuple, rows)), basis=basis)

    for n in range(1, 10):
        block = [[int(j == i + 1) for j in range(n)] for i in range(n)]
        assert stable_rank(matrix(block)) == 0, n
        beside_identity = [row + [0] for row in block] + [[0] * n + [1]]
        assert stable_rank(matrix(beside_identity)) == 1, n


def test_stable_rank_idempotent_beyond_genus():
    for expr, p in (("y^2 = x^5 - x", 3), ("y^2 = x^6 + x + 1", 3), ("y^2 = x^5 + x^3 + 1", 5)):
        matrix = cartier_matrix(model(expr, p))
        g = matrix.size
        base = stable_rank(matrix)
        power = matrix.entries
        for _ in range(2 * g - 1):
            power = mat_mul(power, matrix.entries, p)
        assert rank_mod_p(power, p) == base  # rank of M^(2g) equals rank of M^g
        assert base <= _plain_rank(matrix)


def _plain_rank(matrix):
    return rank_mod_p(matrix.entries, matrix.p)


def _matrix_of(rows, p):
    return CartierMatrix(p=p, entries=tuple(map(tuple, rows)), basis=tuple((a, 1) for a in range(1, len(rows) + 1)))


def test_stable_rank_matches_squaring_on_random_cartier_matrices():
    rng = random.Random(300)
    shapes = [(p, m) for p in (3, 5, 7, 11, 13) for m in (2, 3, 4) if p % m]
    non_ordinary = 0
    for i in range(300):
        p, m = shapes[i % len(shapes)]
        matrix = cartier_matrix(CurveModel(m, _squarefree(rng, p, rng.randrange(3, 9)), p))
        rank = stable_rank(matrix)
        assert rank == stable_rank_by_squaring(matrix), (p, m, matrix.entries)
        non_ordinary += rank < matrix.size
    assert non_ordinary >= 100


def _inverse_mod_p(rows, p):
    """The inverse over GF(p) by Gauss-Jordan elimination, None if rows is singular."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [(x - factor * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _random_invertible(rng, n, p):
    """(P, P^-1) for a random invertible n x n matrix P over GF(p)."""
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        inverse = _inverse_mod_p(rows, p)
        if inverse is not None:
            return rows, inverse


def _planted(rng, n, p):
    """(M, r): M = P N P^-1 for a random invertible P, where N is block diagonal
    with nilpotent Jordan blocks and one invertible block of size r."""
    r = rng.randrange(n + 1)
    blocks = [_random_invertible(rng, r, p)[0]] if r else []
    left = n - r
    while left:
        size = rng.randrange(1, left + 1)
        blocks.append([[int(j == i + 1) for j in range(size)] for i in range(size)])
        left -= size
    rng.shuffle(blocks)
    planted, offset = [[0] * n for _ in range(n)], 0
    for block in blocks:
        for i, row in enumerate(block):
            planted[offset + i][offset:offset + len(row)] = row
        offset += len(block)
    conj, inverse = _random_invertible(rng, n, p)
    return mat_mul(mat_mul(conj, planted, p), inverse, p), r


def test_stable_rank_matches_squaring_on_planted_nilpotent_blocks():
    rng = random.Random(400)
    for i in range(400):
        p = (2, 3, 5, 7, 31)[i % 5]
        rows, rank = _planted(rng, rng.randrange(1, 26), p)
        matrix = _matrix_of(rows, p)
        assert stable_rank(matrix) == stable_rank_by_squaring(matrix) == rank, (p, rows)


def _det_mod_p(rows, p):
    rows = [list(row) for row in rows]
    det = 1
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col] % p
        inv = pow(rows[col][col], -1, p)
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] * inv % p
            rows[r] = [(x - factor * y) % p for x, y in zip(rows[r], rows[col])]
    return det % p


def test_charpoly_is_det_of_x_minus_m_at_every_point():
    """Over GF(31) a polynomial of degree n < 31 is fixed by its values, so
    det(x0 I - M) at every x0 pins det(xI - M) down."""
    p = 31
    rng = random.Random(31)
    for n in range(13):
        for rows in ([[rng.randrange(p) for _ in range(n)] for _ in range(n)], _planted(rng, n, p)[0]):
            coeffs = charpoly_mod_p(rows, p)
            assert len(coeffs) == n + 1 and coeffs[-1] == 1
            for x0 in range(p):
                shifted = [[(x0 * (i == j) - c) % p for j, c in enumerate(row)] for i, row in enumerate(rows)]
                assert evaluate(FpPoly(p, coeffs), x0) == _det_mod_p(shifted, p), (rows, x0)


def test_cartier_p_rank_at_the_caps_corner():
    """y^8 = a dense f of degree 32 over GF(31), genus 105: the largest Cartier
    matrix the prank caps admit.  Best of three in-process runs.  On a shared
    2-vCPU VM one run took about 0.02 s (median of 30), and 1.3 s when the
    stable rank squared the matrix."""
    corner = CurveModel(8, _squarefree(random.Random(31), 31, 32, dense=True), 31)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        rank = stable_rank(cartier_matrix(corner))
        times.append(time.perf_counter() - start)
    assert rank == 57
    assert min(times) < 0.25, times


def test_p_rank_named_values():
    assert p_rank(model("y^2 = x^5 - x", 3)) == 2
    assert p_rank(model(GAMMA_ZERO, 5)) == p_rank(model(NODAL, 5)) == 0
    assert p_rank(model("y^2 = x^5 - x", 5)) == 0
    assert p_rank(m := model("y^2 = x^5 - x", 3)) == normalization_genus(m)
    assert p_rank(m := model(GAMMA_ZERO, 5)) != normalization_genus(m)
    assert p_rank(m := model("y^2 = x^5 - x", 5)) != normalization_genus(m)


def test_p_rank_between_zero_and_genus():
    rng = random.Random(5)
    for _ in range(20):
        p = rng.choice((3, 5))
        coeffs = [rng.randrange(p) for _ in range(6)] + [rng.randrange(1, p)]
        try:
            m = CurveModel(2, FpPoly(p, coeffs), p)
        except UnsupportedModelError:
            continue
        assert 0 <= p_rank(m) <= normalization_genus(m)


# -- zeta oracle -------------------------------------------------------------------


def test_point_counts_hand_checked():
    m = model("y^2 = x^5 - x", 3)
    assert count_points(m, 1) == 4  # three affine branch points plus one at infinity
    assert count_points(m, 2) == 6
    # the node's two branches are two places of the smooth model
    assert count_points(model(NODAL, 5), 1) == count_points(model(GAMMA_ZERO, 5), 1) == 6


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (5, 3), (7, 2), (7, 3), (7, 4), (11, 3), (11, 5)])
def test_point_counts_against_brute_force(p, m):
    # squarefree f with gcd(m, deg f) = 1: the affine curve is smooth and one
    # rational place lies over infinity
    rng = random.Random(1000 * p + m)
    samples = 0
    while samples < 6:
        degree = rng.randrange(3, 8)
        coeffs = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
        f = FpPoly(p, coeffs)
        if gcd(m, degree) != 1 or any(mult > 1 for _, mult in squarefree_decomposition(f)):
            continue
        mth_powers = [pow(y, m, p) for y in range(p)]
        affine = sum(mth_powers.count(evaluate(f, x)) for x in range(p))
        assert count_points(CurveModel(m, f, p), 1) == 1 + affine, f
        samples += 1


def test_orbit_count_is_the_every_x_count():
    """Random y^m = f whose first factor, of degree 2 or 3, is repeated, so that
    some roots of multiplicity lam with gcd(m, lam) > 1 lie outside GF(p)."""
    rng = random.Random(16)
    wild = samples = 0
    while samples < 64:
        p = rng.choice((3, 5, 7))
        m = rng.choice([m for m in (2, 3, 4, 6) if m % p])
        f = FpPoly(p, (rng.randrange(1, p),))
        for degree, mults in (((2, 3), (2, 3, 4)), ((1, 2, 3), (1, 1, 2, 3)), ((1, 2), (1, 2))):
            factor = FpPoly(p, [rng.randrange(p) for _ in range(rng.choice(degree))] + [1])
            f = f * factor ** rng.choice(mults)
        if f.degree > 12:
            continue
        try:
            curve = CurveModel(m, f, p)
        except UnsupportedModelError:
            continue
        # a squarefree part with fewer roots in GF(p) than its degree has the rest outside
        wild += any(gcd(m, mult) > 1 and poly.degree > [evaluate(poly, a) for a in range(p)].count(0)
                    for poly, mult in squarefree_decomposition(f))
        for r in range(1, 5):  # fields of up to 7^4 = 2401 elements
            assert count_points(curve, r) == count_points_every_x(curve, r), (m, f, r)
        samples += 1
    assert wild >= 12


def test_point_count_at_a_root_of_multiplicity_m_minus_1():
    """y^4 = (x - 2)^3 (x^2 + 2) over GF(5): the root 2 climbs three Hasse derivatives and is
    not reduced mod m, and x^2 + 2, irreducible over GF(5), has its roots in GF(25)."""
    f = FpPoly(5, (3, 1)) ** 3 * FpPoly(5, (2, 0, 1))
    assert squarefree_decomposition(f) == ((FpPoly(5, (2, 0, 1)), 1), (FpPoly(5, (3, 1)), 3))
    curve = CurveModel(4, f, 5)
    # over GF(5): one place over the root 2, four over x = 3 where f = 1, one at infinity
    assert count_points(curve, 1) == 6
    for r in (1, 2, 3):
        assert count_points(curve, r) == count_points_every_x(curve, r), r


def test_point_count_cap_refused_before_tables():
    m = model("y^2 = x^5 - x", 3)
    r = 1
    while 3**r <= ZETA_POINT_CAP:
        r += 1
    before = field_tables.cache_info()
    with pytest.raises(UnsupportedModelError):
        count_points(m, r)
    assert field_tables.cache_info() == before


def test_zeta_l_polynomials():
    assert zeta_l_polynomial(model("y^2 = x^5 - x", 3)) == (1, 0, -2, 0, 9)
    assert zeta_l_polynomial(model(GAMMA_ZERO, 5)) == zeta_l_polynomial(model(NODAL, 5)) == (1, 0, 0, 0, 25)


def test_zeta_oracle_past_the_prime_cap_stays_under_the_point_cap():
    # the largest field the oracle builds for a parsed curve: GF(31^4), at p = 31 and genus 3 or 4
    assert ZETA_POINT_CAP == PRIME_CAP ** 4 == 923521
    curve = CurveModel(2, FpPoly(211, (1, 3, 0, 0, 0, 1)), 211)
    start = time.perf_counter()
    rank = l_polynomial_p_rank(zeta_l_polynomial(curve), 211)
    assert time.perf_counter() - start < 2.0
    assert rank == stable_rank(cartier_matrix(curve)) == 2


def test_zeta_oracle_named_values():
    assert zeta_prank_oracle(model("y^2 = x^5 - x", 3)) == 2
    assert zeta_prank_oracle(model(GAMMA_ZERO, 5)) == zeta_prank_oracle(model(NODAL, 5)) == 0
    assert zeta_prank_oracle(model("y^2 = x^5 - x", 5)) == 0
    assert zeta_prank_oracle(model("y^2 = x^3 + x", 5)) == p_rank(model("y^2 = x^3 + x", 5)) == 1


def test_zeta_weil_bounds():
    # reconstructed numerators satisfy |N_r - q^r - 1| <= 2 g sqrt(q)^r
    for expr, p in (("y^2 = x^5 - x", 3), ("y^2 = x^6 + x + 1", 5), ("y^3 = x^4 + x + 2", 5)):
        m = model(expr, p)
        g = normalization_genus(m)
        for r in range(1, g + 1):
            n = count_points(m, r)
            assert (n - p**r - 1) ** 2 <= 4 * g * g * p**r


def test_cartier_agrees_with_zeta_on_random_non_squarefree():
    """y^m = f with a repeated factor, m in {2, 3, 4}, deg f <= 9 and smooth genus
    <= 3: every model has the zeta oracle's p-rank."""
    rng = random.Random(7)
    compared = dict.fromkeys((2, 3, 4), 0)
    for _ in range(3000):
        p = rng.choice((3, 5, 7))
        m = rng.choice([m for m in (2, 3, 4) if m % p])
        f = FpPoly(p, (rng.randrange(1, p),))
        for _ in range(rng.randrange(1, 4)):
            f = f * FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 4))] + [1]) ** rng.randrange(1, 5)
        if f.degree > 9 or all(mult == 1 for _, mult in squarefree_decomposition(f)):
            continue
        try:
            curve = CurveModel(m, f, p)
        except UnsupportedModelError:
            continue
        if normalization_genus(curve) > 3:
            continue
        assert p_rank(curve) == zeta_prank_oracle(curve), (m, p, f.coeffs)
        compared[m] += 1
    # every draw of smooth genus <= 3 is compared; the monomial basis refused 34
    # of the m = 3 draws and 89 of the m = 4 draws
    assert compared == {2: 88, 3: 128, 4: 144}, compared


def test_cartier_agrees_with_zeta_above_genus_3():
    """y^m = f of smooth genus 4 to 8 over GF(3), GF(5) and GF(7), m in {2, 3, 4},
    f squarefree or with a repeated factor: every field of the oracle's tower,
    the verification count's included, has at most 3^9 = 19683 elements."""
    rng = random.Random(27)
    by_genus = dict.fromkeys(range(4, 9), 0)
    by_prime = dict.fromkeys((3, 5, 7), 0)
    squarefree = 0
    for _ in range(1000):
        p = rng.choice((3, 5, 7))
        m = rng.choice([m for m in (2, 3, 4) if m % p])
        f = FpPoly(p, (rng.randrange(1, p),))
        for _ in range(rng.randrange(1, 4)):
            f = f * FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 6))] + [1]) ** rng.choice((1, 1, 2, 3))
        if f.degree > 16:
            continue
        try:
            curve = CurveModel(m, f, p)
        except UnsupportedModelError:
            continue
        g = normalization_genus(curve)
        if g < 4 or p ** (g + 1) > 3**9:
            continue
        assert p_rank(curve) == zeta_prank_oracle(curve), (m, p, f.coeffs)
        by_genus[g] += 1
        by_prime[p] += 1
        squarefree += all(mult == 1 for _, mult in squarefree_decomposition(f))
    assert by_genus == {4: 47, 5: 14, 6: 25, 7: 11, 8: 5}, by_genus
    assert by_prime == {3: 54, 5: 31, 7: 17}, by_prime
    assert squarefree == 28  # and 74 with a repeated factor


@pytest.mark.parametrize("p,degrees", [(3, (5, 6)), (5, (5, 6))])
def test_cartier_agrees_with_zeta_on_random_squarefree(p, degrees):
    rng = random.Random(100 * p)
    for degree in degrees:
        samples = 0
        while samples < 25:
            coeffs = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
            f = FpPoly(p, coeffs)
            if f.degree != degree or any(mult > 1 for _, mult in squarefree_decomposition(f)):
                continue
            m = CurveModel(2, f, p)
            assert p_rank(m) == zeta_prank_oracle(m), f.coeffs
            samples += 1


def test_superelliptic_cartier_agrees_with_zeta():
    m3 = model("y^3 = x^4 + x + 2", 5)
    assert normalization_genus(m3) == 3
    assert p_rank(m3) == zeta_prank_oracle(m3) == 2
    m4 = model("y^4 = x^3 + x + 1", 5)
    assert p_rank(m4) == zeta_prank_oracle(m4)
    m32 = model("y^3 = x^4 + x^2 + x", 7)
    assert p_rank(m32) == zeta_prank_oracle(m32)


def test_substitution_invariance():
    rng = random.Random(17)
    for p in (3, 5):
        count = 0
        while count < 8:
            coeffs = [rng.randrange(p) for _ in range(5)] + [rng.randrange(1, p)]
            f = FpPoly(p, coeffs)
            if any(mult > 1 for _, mult in squarefree_decomposition(f)):
                continue
            base = p_rank(CurveModel(2, f, p))
            for c in range(1, p):
                assert p_rank(CurveModel(2, shift_x(f, c), p)) == base
            for u in range(2, p):
                assert p_rank(CurveModel(2, scale_x(f, u), p)) == base
            count += 1


def test_differential_basis_is_every_regular_monomial():
    """The closed-form strata against a check of every a at every place, on
    models with repeated factors, x = 0 among them, and every m up to the cap:
    the regular differentials x^(a-1) c_b dx / y^b number the genus."""
    rng = random.Random(8)
    checked = 0
    for _ in range(1500):
        p = rng.choice((3, 5, 7, 11))
        m = rng.choice([m for m in range(2, 9) if m % p])
        f = FpPoly(p, (0,) * rng.randrange(3) + (rng.randrange(1, p),))
        for _ in range(rng.randrange(1, 4)):
            f = f * FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 3))] + [1]) ** rng.randrange(1, 6)
        if f.degree > 16:
            continue
        try:
            curve = CurveModel(m, f, p)
        except UnsupportedModelError:
            continue
        regular = regular_monomials(curve)
        assert len(regular) == normalization_genus(curve), (m, p, f.coeffs)
        strata = differential_basis(curve)
        assert regular == tuple((a, b) for b, (_, n_b) in strata.items() for a in range(1, n_b + 1))
        assert all(kummer_denominator(curve, b)[0] == c_b for b, (c_b, _) in strata.items())
        checked += 1
    assert checked >= 750


def test_cartier_reads_a_model_no_monomial_basis_spans():
    """y^4 = x (x-1)^2 (x-2)^2 over GF(5): x^(a-1) dx / y^b spans one of the two
    regular differentials; (x-1) (x-2) dx / y^3 is the other."""
    f = FpPoly(5, (0, 1)) * FpPoly(5, (-1, 1)) ** 2 * FpPoly(5, (-2, 1)) ** 2
    za = CurveModel(4, f, 5)
    matrix = cartier_matrix(za)
    assert matrix.basis == ((1, 1), (1, 3))
    assert stable_rank(matrix) == zeta_prank_oracle(za) == 2


def test_cartier_matrix_raises_when_an_image_leaves_the_basis(monkeypatch):
    """With c_3 given a factor x too many, the image of x (x-1) (x-2) dx / y^3
    fails the exact division by c_3, which raises rather than drop the
    remainder."""
    f = FpPoly(5, (0, 1)) * FpPoly(5, (-1, 1)) ** 2 * FpPoly(5, (-2, 1)) ** 2
    za = CurveModel(4, f, 5)
    strata = differential_basis(za)
    c_3, n_3 = strata[3]
    strata[3] = (c_3 * FpPoly(5, (0, 1)), n_3)
    monkeypatch.setattr(prank, "differential_basis", lambda model: strata)
    with pytest.raises(ArithmeticError, match="not regular"):
        cartier_matrix(za)


def test_quotient_quartic_family_ranks():
    # y^4 = x(x-1)^2(x-a)^2: 5-rank 2 away from a = -1, rank 0 at a = -1, by both routes
    for a, expected in ((2, 2), (3, 2), (4, 0)):
        f = FpPoly(5, (0, 1)) * FpPoly(5, (-1, 1)) ** 2 * FpPoly(5, (-a, 1)) ** 2
        za = CurveModel(4, f, 5)
        assert zeta_prank_oracle(za) == expected
        assert p_rank(za) == expected


def test_mixed_quintic_family_discrepancy():
    # y^2 = a5 x^5 + a3 x^3 + a0: both routes agree with each other on rank 1,
    # never matching the quartic family's rank 2; the nonzero entries sit in
    # the second column only, forcing matrix rank <= 1
    for a5, a3, a0 in ((1, 1, 1), (1, 2, 1), (2, 1, 3), (1, 4, 2), (3, 3, 1), (4, 2, 2)):
        m = CurveModel(2, FpPoly(5, (a0, 0, 0, a3, 0, a5)), 5)
        matrix = cartier_matrix(m)
        assert matrix.entries[0][0] == 0 and matrix.entries[1][0] == 0
        cartier = p_rank(m)
        zeta = zeta_prank_oracle(m)
        assert cartier == zeta == 1
        assert cartier != 2


def test_zeta_caps(monkeypatch):
    """The tower is the oracle's one cap: genus 4 at p = 3 (fields up to 3^5) is
    answered, genus 5 at p = 31 (31^5 above the cap) is refused before any count."""
    genus_4 = model("y^2 = x^9 + x + 1", 3)
    assert normalization_genus(genus_4) == 4
    assert zeta_prank_oracle(genus_4) == p_rank(genus_4) == 0
    genus_5 = model("y^2 = x^11 + x + 1", 31)
    assert normalization_genus(genus_5) == 5

    def no_count(model, r):
        raise AssertionError(f"counted points over GF(p^{r})")

    monkeypatch.setattr(prank, "count_points", no_count)
    with pytest.raises(UnsupportedModelError, match="field tower exceeds the point-count cap"):
        zeta_l_polynomial(genus_5)


@pytest.mark.parametrize("r_bad, message", [
    (2, "non-integral"),  # s_2 + s_1 c_1 turns odd, so c_2 is not an integer
    (3, r"point count over GF\(p\^3\) is 29, L-polynomial predicts 28"),  # the verification count
])
def test_zeta_oracle_raises_on_counts_that_contradict_each_other(r_bad, message, monkeypatch):
    """y^2 = x^5 - x over GF(3), genus 2, with one point too many over GF(3^r_bad)."""
    honest = prank.count_points
    monkeypatch.setattr(prank, "count_points", lambda model, r: honest(model, r) + (r == r_bad))
    with pytest.raises(ArithmeticError, match=message):
        zeta_l_polynomial(model("y^2 = x^5 - x", 3))
