"""Reference routes and conveniences that only the tests call.

None of these is on a reproduction path, so they live here rather than in
the package: a polynomial's coefficient read past its degree, second routes
to values the package computes (a schoolbook product and a left-fold power,
field tables by polynomial arithmetic, point counts over every x, a p-rank
read off point counts and one by squaring the Cartier matrix, the Cartier
matrix by two rules), properties read off a stabilizer chain, the Hurwitz
genus in exact rationals, and the exhaustive branch-data solver; and the
shipped groups built once per test session.
"""

from array import array
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, gcd
from operator import mul

from curvebound import bounds, permgroup
from curvebound.arith import factorize
from curvebound.classical import group_facts
from curvebound.fppoly import FpPoly, field_tables, squarefree_decomposition
from curvebound.prank import (
    ZETA_POINT_CAP,
    CartierMatrix,
    UnsupportedModelError,
    _evaluate_log,
    cartier_matrix,
    l_polynomial_p_rank,
    normalization_genus,
    stable_rank,
    zeta_l_polynomial,
)

# -- polynomials over GF(p) ---------------------------------------------------


def coeff(f: FpPoly, k: int) -> int:
    """The coefficient of x^k in f, 0 past either end."""
    return f.coeffs[k] if 0 <= k < len(f.coeffs) else 0


def pow_foldl(f: FpPoly, k: int) -> FpPoly:
    """Plain left-fold power by schoolbook products; a second route to ``f**k``."""
    result = FpPoly.constant(f.p, 1)
    for _ in range(k):
        result = poly_mul_reference(result, f)
    return result


def poly_mul_reference(f: FpPoly, g: FpPoly) -> FpPoly:
    """Schoolbook product, reduced once at the end; a second route to ``f * g``."""
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1) if f.coeffs and g.coeffs else []
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return FpPoly(f.p, out)


def pow_mod(f: FpPoly, k: int, modulus: FpPoly) -> FpPoly:
    """f^k mod ``modulus`` by square and multiply, reducing at each step."""
    result = FpPoly.constant(f.p, 1) % modulus
    square = f % modulus
    while k:
        if k & 1:
            result = result * square % modulus
        square = square * square % modulus
        k >>= 1
    return result


def evaluate(f: FpPoly, x: int) -> int:
    acc = 0
    for c in reversed(f.coeffs):
        acc = (acc * x + c) % f.p
    return acc


def shift_x(f: FpPoly, c: int) -> FpPoly:
    """The polynomial f(x + c), summed coefficientwise over the powers (x + c)^i."""
    out = [0] * len(f.coeffs)
    xc = FpPoly(f.p, (c, 1))
    power = FpPoly.constant(f.p, 1)
    for a in f.coeffs:
        for k, b in enumerate(power.coeffs):
            out[k] += a * b
        power = power * xc
    return FpPoly(f.p, out)


def scale_x(f: FpPoly, u: int) -> FpPoly:
    """The polynomial f(u*x); u must be a unit."""
    if u % f.p == 0:
        raise ValueError("scale factor must be a unit")
    return FpPoly(f.p, [c * pow(u, i, f.p) for i, c in enumerate(f.coeffs)])


# -- finite fields and point counts -------------------------------------------


def field_tables_reference(p: int, k: int):
    """``field_tables(p, k)`` by polynomial arithmetic: the order of x is tested
    with ``pow_mod`` on every monic degree-k candidate in turn, and the log walk
    multiplies a coefficient list by x one step at a time."""
    n = p**k - 1
    x = FpPoly(p, (0, 1))
    cofactors = [n // r for r, _ in factorize(n)]
    for tail in product(range(p), repeat=k):
        modulus = FpPoly(p, tail[::-1] + (1,))
        if pow_mod(x, n, modulus).coeffs == (1,) and all(
            pow_mod(x, e, modulus).coeffs != (1,) for e in cofactors
        ):
            break
    reduction = [(-c) % p for c in modulus.coeffs[:k]]
    weights = [p**j for j in range(k)]
    log = array("i", [-1]) * (n + 1)
    digits = [1] + [0] * (k - 1)
    for i in range(n):
        log[sum(c * w for c, w in zip(digits, weights))] = i
        top = digits[-1]
        digits = [(c + top * r) % p for c, r in zip([0] + digits[:-1], reduction)]
    zech = array("i", [-1]) * n
    for a in range(1, n + 1):
        b = a + 1 if a % p != p - 1 else a + 1 - p
        if b:
            zech[log[a]] = log[b]
    return log, zech


def count_points_every_x(model, r: int) -> int:
    """``count_points(model, r)`` with the local rule evaluated at every x of
    GF(p^r), not once per Frobenius orbit."""
    m, p, f = model.m, model.p, model.f
    q = p**r
    if q > ZETA_POINT_CAP:
        raise UnsupportedModelError(f"field size {q} exceeds the point-count cap")
    log, zech = field_tables(p, r)
    n = q - 1
    derivatives = [[log[comb(j, k) * c % p] for j, c in enumerate(f.coeffs) if j >= k]
                   for k in range(f.degree + 1)]
    total = 0
    for x0 in range(-1, n):
        for lam, coeffs in enumerate(derivatives):
            u = coeffs[0] if x0 < 0 else _evaluate_log(coeffs, x0, zech, n)  # at x = 0, the constant term
            if u >= 0:
                break
        d = gcd(gcd(m, lam), n)
        if u % d == 0:
            total += d
    dd = gcd(gcd(m, f.degree), n)
    total += dd if log[f.leading()] % dd == 0 else 0
    return total


# -- p-ranks -------------------------------------------------------------------


def mat_mul(a, b, p):
    """The product of square matrices a and b over GF(p), as rows."""
    columns = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, column)) % p for column in columns) for row in a)


def rank_mod_p(mat, p):
    """Rank over GF(p) by Gauss-Jordan elimination."""
    rows = [list(r) for r in mat]
    n = len(rows)
    rank = 0
    col = 0
    while rank < n and col < n:
        pivot = next((r for r in range(rank, n) if rows[r][col] % p), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col] % p:
                factor = rows[r][col]
                rows[r] = [(x - factor * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def kummer_denominator(model, b: int):
    """(c_b, v) with c_b the monic polynomial of greatest degree whose m-th
    power divides f^b, found by trial division of f^b by the powers of each
    squarefree part a of f, and v[a] the power of a in c_b."""
    fb = model.f ** b
    c_b, v = FpPoly.constant(model.p, 1), {}
    for a, _ in squarefree_decomposition(model.f):
        v[a] = 0
        while (fb % a ** ((v[a] + 1) * model.m)).is_zero():
            v[a] += 1
        c_b = c_b * a ** v[a]
    return c_b, v


def regular_monomials(model):
    """The (a, b), 1 <= a <= deg f and 0 < b < m, for which x^(a-1) c_b dx / y^b
    has no pole, c_b from ``kummer_denominator``: its order is checked at the
    places over every root of f and at infinity, one a at a time; a second
    route to ``differential_basis``."""
    m, deg = model.m, model.f.degree
    e_inf = m // gcd(m, deg)
    found = []
    for b in range(1, m):
        c_b, v = kummer_denominator(model, b)
        for a in range(1, deg + 1):
            orders = [-(a - 1 + c_b.degree) * e_inf - (e_inf + 1) + b * deg * e_inf // m]
            for poly, lam in squarefree_decomposition(model.f):
                e, ord_y = m // gcd(m, lam), lam // gcd(m, lam)
                at_root = (e - 1) + e * v[poly] - b * ord_y
                if poly.coeffs[0] == 0:  # a place over x = 0, where x vanishes to order e
                    orders.append((a - 1) * e + at_root)
                if poly.coeffs != (0, 1):  # a place over a root other than 0
                    orders.append(at_root)
            if min(orders) >= 0:
                found.append((a, b))
    return tuple(found)


def stable_rank_by_squaring(matrix: CartierMatrix) -> int:
    """``stable_rank`` as the rank of M^k with g <= k < 2g: by Fitting's lemma
    rank(M^k) is the same for every k >= g, so M is squared
    (g-1).bit_length() times."""
    product = matrix.entries
    for _ in range((matrix.size - 1).bit_length()):
        product = mat_mul(product, product, matrix.p)
    return rank_mod_p(product, matrix.p)


def p_rank(model) -> int:
    """The Cartier route: the stable rank of the Cartier matrix."""
    return stable_rank(cartier_matrix(model))


def zeta_prank_oracle(model) -> int:
    """The point-count route: the degree of the zeta numerator reduced mod p."""
    return l_polynomial_p_rank(zeta_l_polynomial(model), model.p)


def cartier_matrix_two_formulas(model) -> CartierMatrix:
    """The Cartier matrix by two separate rules, one power of f per column.

    For m = 2 the rule is read on the model y^2 = f / s^2, where
    s = prod a^(lam // 2) over f = c prod a^lam: the (i,j) entry is the
    coefficient c_(i*p - j) of f^((p-1)/2), 1 <= i, j <= g for the smooth
    genus g.  For m > 2 the column of x^(a-1) c_b dx / y^b, on the basis of
    ``regular_monomials``, is read off x^(a-1) c_b f^((b'p-b)/m), b'p = b
    (mod m), with b' found by search: its coefficients of x^(np - 1), n >= 1,
    divided exactly by c_b'.
    """
    m, p, f = model.m, model.p, model.f
    if m == 2:
        s = FpPoly.constant(p, 1)
        for a, lam in squarefree_decomposition(f):
            s = s * a ** (lam // 2)
        f, rest = f.divmod(s ** 2)
        assert rest.is_zero()
        g = normalization_genus(model)
        h = f ** ((p - 1) // 2)
        rows = tuple(tuple(coeff(h, i * p - j) for j in range(1, g + 1)) for i in range(1, g + 1))
        return CartierMatrix(p=p, entries=rows, basis=tuple((j, 1) for j in range(1, g + 1)))
    basis = regular_monomials(model)
    rows = [[0] * len(basis) for _ in basis]
    for j, (a, b) in enumerate(basis):
        b_prime = next(bp for bp in range(1, m) if (bp * p) % m == b % m)
        poly = FpPoly(p, (0,) * (a - 1) + (1,)) * kummer_denominator(model, b)[0] * f ** ((b_prime * p - b) // m)
        image = FpPoly(p, [coeff(poly, n * p - 1) for n in range(1, poly.degree // p + 2)])
        column, rest = image.divmod(kummer_denominator(model, b_prime)[0])
        assert rest.is_zero() and column.degree < sum(b_t == b_prime for _, b_t in basis)
        for i, (a_t, b_t) in enumerate(basis):
            if b_t == b_prime:
                rows[i][j] = coeff(column, a_t - 1)
    return CartierMatrix(p=p, entries=tuple(tuple(r) for r in rows), basis=basis)


# -- permutation groups ----------------------------------------------------------


@cache
def shipped_group(name: str):
    """The group of a shipped generator file (``alt7`` or ``m11``), built once per session."""
    return permgroup.load_group(name)


def shipped_facts(name: str, p: int):
    """``group_facts`` of a shipped group named as in the tests' tables (``ALT7``, ``M11``)."""
    return group_facts(shipped_group(name.lower()), p)


def base(group):
    """The base points of the stabilizer chain, top first."""
    return tuple(level._base_point for level in group._chain())


def strong_generators(group):
    return tuple(sorted({s for level in group._chain() for s in level.generators}))


def is_solvable(group) -> bool:
    """True iff the derived series reaches the trivial group."""
    current = group
    while current.order() > 1:
        derived = current.derived_subgroup()
        if derived.order() == current.order():
            return False
        current = derived
    return True


# -- bound chains ------------------------------------------------------------------


def compare_at(b1, b2, g: int) -> int:
    """Sign of b1(g) - b2(g), decided exactly."""
    return bounds._comparator(b1, b2)[0](g)


def sign_at_infinity(b1, b2) -> int:
    """Sign of b1 - b2 for all large g."""
    return bounds._comparator(b1, b2)[1]


def chain_passes(chain_id: str) -> bool:
    """True iff every step verdict matches its frozen expectation."""
    steps, reports = bounds.chain_steps(chain_id), bounds.audit_chain(chain_id)
    return all(report.verdict == step.expect for step, report in zip(steps, reports))


# -- branch data -------------------------------------------------------------------


def hurwitz_genus_reference(order_g: int, quotient_genus: int, points) -> Fraction:
    """g from 2g - 2 = |G|(2ḡ - 2 + Σ count·d/e), summed term by term as a Fraction."""
    total = Fraction(2 * (quotient_genus - 1))
    for e, d, count in points:
        total += Fraction(count * d, e)
    return 1 + Fraction(order_g, 2) * total


class UnboundedInstanceError(ValueError):
    """The linear instance admits infinitely many non-negative solutions."""


def solve_branch_data(equations, unknowns: int):
    """All non-negative integer solutions of a linear system, exhaustively.

    ``equations`` is a list of (coefficients, rhs) pairs with one coefficient
    per unknown.  Every unknown must have a positive coefficient in at least
    one equation whose other coefficients are non-negative, otherwise the
    instance is unbounded and refused.
    """
    limits = []
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
        limits.append(best)
    solutions = []
    assignment = [0] * unknowns

    def walk(i):
        if i == unknowns:
            if all(sum(c * x for c, x in zip(coeffs, assignment)) == rhs for coeffs, rhs in equations):
                solutions.append(tuple(assignment))
            return
        for value in range(limits[i] + 1):
            assignment[i] = value
            walk(i + 1)
        assignment[i] = 0

    walk(0)
    return solutions
