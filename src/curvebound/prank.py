"""Cartier operators, p-ranks and a zeta-function oracle for y^m = f(x).

Models live over the prime field GF(p) with p odd and p not dividing m.  The
p-rank is the stable rank of the Cartier operator on regular differentials,
read off the characteristic polynomial of its matrix; an independent oracle
recovers the same number from point counts over the extension tower via the
numerator of the zeta function.  Both routes are exact; agreement between
them is part of the test contract.
"""

from __future__ import annotations

import re
from math import comb, gcd

from . import Record
from .fppoly import FpPoly, field_tables, squarefree_decomposition

# Caps on a parsed curve, checked before any list is sized or any trial division runs.
# The Cartier route raises f to at most m - 1 powers of degree below p deg f, then reduces
# a g x g matrix to Hessenberg form.  At the corner (p = 31, m = 8, a dense f of degree 32,
# genus 105) a cold ``prank`` takes 0.13-0.17 s on a 2-vCPU VM, 0.02 s of it for the matrix
# and its stable rank.
PRIME_CAP = 31
COVER_DEGREE_CAP = 8
POLY_DEGREE_CAP = 32
# The zeta oracle counts over GF(p^r) for r <= g, refuses a model whose GF(p^g) is above the
# point cap, and verifies GF(p^(g+1)) when it fits.  In-process on a 2-vCPU VM, y^2 = a squarefree
# f at the costliest admitted towers takes 1.1-1.4 s (p = 7, genus 7; p = 31, genus 3 or 4),
# 0.9-1.1 s (p = 3, genus 11), 0.6-0.8 s (p = 5, genus 8); RSS 22 MB.  A repeated factor costs
# no more, since each count reduces the multiplicities mod m: y^2 = a^2 b at deg f = 32 (p = 31,
# genus 3) takes 1.0-1.1 s.
ZETA_POINT_CAP = PRIME_CAP**4


class UnsupportedModelError(ValueError):
    """The model violates a documented precondition of this machinery."""


class CurveModel(Record):
    """Superelliptic presentation y^m = f(x) over GF(p) of a curve of genus >= 1.

    The cover must be irreducible: no prime divisor of m may divide every
    multiplicity in the factorization of f.  Repeated factors are allowed
    (they arise when a characteristic-zero model degenerates mod p); the
    genus, Cartier data and point counts all refer to the smooth model, read
    off the presented f: see ``normalization_genus`` and
    ``differential_basis``.
    """

    __slots__ = ("m", "f", "p")

    def __init__(self, m: int, f: FpPoly, p: int):
        if p < 3 or p != f.p:
            raise UnsupportedModelError("model requires an odd prime matching the polynomial")
        if m < 2 or m % p == 0:
            raise UnsupportedModelError("cover degree must be >= 2 and prime to p")
        if f.is_zero() or f.degree < 1:
            raise UnsupportedModelError("right-hand side must be non-constant")
        if gcd(m, *(mult for _, mult in squarefree_decomposition(f))) > 1:
            raise UnsupportedModelError("cover splits: an m-th root of f exists up to scalars")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "p", p)
        if normalization_genus(self) < 1:
            raise UnsupportedModelError("model has genus 0")


def normalization_genus(model: CurveModel) -> int:
    """Genus of the smooth model, the quantity the point-count oracle sees.

    Over each root of a squarefree part a^lam of f lie gcd(m, lam) places,
    each with index e = m / gcd(m, lam); the place at infinity is the same
    with lam = deg f.  p does not divide m, so the cover is tame, d = e - 1,
    and Riemann-Hurwitz over P^1 reads 2g - 2 = -2m + sum over the parts of
    deg(a) (m - gcd(m, lam)) + (m - gcd(m, deg f)).
    """
    m = model.m
    total = m - gcd(m, model.f.degree) - 2 * m
    for a, lam in squarefree_decomposition(model.f):
        total += a.degree * (m - gcd(m, lam))
    return total // 2 + 1


def differential_basis(model: CurveModel) -> dict:
    """The regular differentials stratum by stratum, as {b: (c_b, n_b)}: the
    basis is x^k c_b dx / y^b for 0 <= k < n_b, over the strata with n_b > 0.

    For f = c prod a^lam, c_b = prod a^floor(b lam / m) (Bouw, Compositio
    Math. 126, 2001; Elkin, J. Algebra 327, 2011).  Over a root of a of index
    e = m / gcd(m, lam), x - alpha has order e and y order lam e / m, so
    c_b dx / y^b has order e - 1 - e {b lam / m} >= 0 there, the fractional
    part being a multiple of 1/e below 1.  At infinity the order bounds
    k + deg c_b + 1 by (b deg f - gcd(m, deg f)) / m.  The strata are the
    eigenspaces of y -> zeta y, and the n_b sum to ``normalization_genus``.
    On squarefree f every c_b is 1.
    """
    m, deg = model.m, model.f.degree
    parts = squarefree_decomposition(model.f)
    one = FpPoly.constant(model.p, 1)
    strata = {}
    for b in range(1, m):
        c_b = one
        for a, lam in parts:
            if b * lam >= m:
                c_b = c_b * a ** (b * lam // m)
        n_b = (b * deg - gcd(m, deg)) // m - c_b.degree
        if n_b > 0:
            strata[b] = (c_b, n_b)
    return strata


class CartierMatrix(Record):
    """Matrix of the Cartier operator on the ordered basis of
    ``differential_basis``: ``entries`` are its rows over GF(p), ``basis`` the
    (a, b) pairs, b outer and a inner, with (a, b) standing for
    x^(a-1) c_b dx / y^b."""

    __slots__ = ("p", "entries", "basis")

    def __init__(self, p: int, entries: tuple, basis: tuple):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "basis", basis)

    @property
    def size(self) -> int:
        return len(self.entries)


def cartier_matrix(model: CurveModel) -> CartierMatrix:
    """Cartier action on the presented model: the (a, b) column lists the
    coefficients of the image of x^(a-1) c_b dx / y^b over the basis.

    With b'p = b + mt, 1 / y^b = f^t / y^(b'p), so the image is
    C(x^(a-1) h dx) / y^b' for h = c_b f^t, computed once per stratum, and
    C(x^(a-1) h dx) = R dx with R_n = h_((n+1)p - a).  R is divided exactly
    by c_b', and the quotient's coefficient of x^(a'-1) is the entry on
    (a', b').  When c_b' = 1, as on squarefree f, the entry is h_(a'p - a)
    itself; for m = 2 that is the classical rule with h = f^((p-1)/2).
    """
    m, p, f = model.m, model.p, model.f
    strata = differential_basis(model)
    offsets, basis = {}, []
    for b, (_, n_b) in strata.items():
        offsets[b] = len(basis)
        basis.extend((a, b) for a in range(1, n_b + 1))
    p_inv = pow(p, -1, m)
    rows = [[0] * len(basis) for _ in basis]
    for b, (c_b, n_b) in strata.items():
        b_prime = b * p_inv % m
        if b_prime not in strata:
            continue
        c_prime, n_prime = strata[b_prime]
        h = f ** ((b_prime * p - b) // m)
        if c_b.degree:
            h = c_b * h
        padded = (0,) * n_b + h.coeffs + (0,) * (n_prime * p)  # h_k at n_b + k
        if not c_prime.degree:
            # the entry on (a', b') is h_(a'p - a): over a = 1, ..., n_b that is
            # h_(a'p - n_b), ..., h_(a'p - 1) reversed, one slice per row
            for i, a_prime in enumerate(range(1, n_prime + 1), offsets[b_prime]):
                rows[i][offsets[b]:offsets[b] + n_b] = padded[a_prime * p:a_prime * p + n_b][::-1]
            continue
        for j, a in enumerate(range(1, n_b + 1), offsets[b]):
            column, rest = FpPoly(p, padded[n_b + p - a::p]).divmod(c_prime)
            if rest.coeffs or len(column.coeffs) > n_prime:
                raise ArithmeticError(f"the Cartier image of basis pair ({a}, {b}) is not regular")
            for i, entry in enumerate(column.coeffs, offsets[b_prime]):
                rows[i][j] = entry
    return CartierMatrix(p=p, entries=tuple(map(tuple, rows)), basis=tuple(basis))


def charpoly_mod_p(entries, p: int):
    """det(xI - M) over GF(p) for the square matrix with rows ``entries``, as
    coefficients, constant term first.

    Similarity transforms bring M to upper Hessenberg form H (Cohen, *A Course
    in Computational Algebraic Number Theory*, 2.2.4); then the determinants
    P_k of the leading k x k blocks of xI - H satisfy P_(k+1) = x P_k -
    sum_(i <= k) h_ik h_(i+1,i) ... h_(k,k-1) P_i, a sum that stops at the first
    zero on the subdiagonal.  O(n^3) field operations, fewer on block-sparse M.
    """
    h = [[x % p for x in row] for row in entries]
    n = len(h)
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if h[i][m - 1]), m)
        if pivot != m:
            h[m], h[pivot] = h[pivot], h[m]
            for row in h:
                row[m], row[pivot] = row[pivot], row[m]
        if not h[m][m - 1]:
            continue
        inv = pow(h[m][m - 1], -1, p)
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % p
            if u:
                # row i -= u row m, then column m += u column i: a similarity
                h[i] = [(a - u * b) % p for a, b in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % p
    polys = [[1]]
    for k in range(n):
        poly, t = [0] + polys[k], 1
        for i in range(k, -1, -1):
            u = t * h[i][k] % p
            for j, c in enumerate(polys[i]):
                poly[j] -= u * c
            t = t * h[i][i - 1] % p if i else 0
            if not t:
                break
        polys.append([c % p for c in poly])
    return tuple(polys[n])


def stable_rank(matrix: CartierMatrix) -> int:
    """Rank of M * M^(p) * ... * M^(p^(g-1)), the p-rank of the model.

    The twist M^(p^i) raises every entry to the p^i-th power, which fixes
    the prime field, so the product is the plain power M^g.  By Fitting's
    lemma the rank of M^g is g - v, where v is the multiplicity of 0 as a
    root of det(xI - M), the index of the first nonzero coefficient of
    ``charpoly_mod_p``.
    """
    coeffs = charpoly_mod_p(matrix.entries, matrix.p)
    return matrix.size - next(v for v, c in enumerate(coeffs) if c)


# -- zeta-function oracle -----------------------------------------------------


def count_points(model: CurveModel, r: int) -> int:
    """Degree-one places of the smooth model over GF(p^r).

    Over each x the local rule applies: an unramified x contributes the
    m-th-power-residue count of f(x); a root of multiplicity lam contributes
    the solutions of w^d = u with d = gcd(m, lam) and u the unit part; the
    place at infinity follows the same rule with d = gcd(m, deg f) and the
    leading coefficient as unit.  Each d divides m, so the count is the same
    for c prod a^(lam mod m) as for f = c prod a^lam: the two differ by an
    m-th power, which keeps every gcd(m, lam), deg f mod m and the class of
    each unit part mod d.  A multiplicity of at least m is reduced so.

    f has coefficients in GF(p), so Frobenius x -> x^p keeps the multiplicity
    of a root and raises the unit part to the p-th power: in logs, x0 -> p x0
    and u -> p u mod n = p^r - 1.  d divides n, which is prime to p, so
    whether d divides u is the same along the orbit, and each cyclotomic
    coset of p mod n is evaluated once and weighted by its size.
    """
    m, p, f = model.m, model.p, model.f
    q = p**r
    if q > ZETA_POINT_CAP:
        raise UnsupportedModelError(f"field size {q} exceeds the point-count cap")
    parts = squarefree_decomposition(f)
    if parts[-1][1] >= m:
        f = FpPoly.constant(p, f.leading())
        for a, lam in parts:
            f = f * a ** (lam % m)
    log, zech = field_tables(p, r)
    n = q - 1
    # Hasse derivatives D^k f as logs: D^k f(x0) is the t^k coefficient of f(x0 + t); k >= 1 built at roots only
    def hasse(k):
        return [log[comb(j, k) * c % p] for j, c in enumerate(f.coeffs) if j >= k]
    f_logs = hasse(0)
    # x = 0: the multiplicity is the index of f's first nonzero coefficient, the unit part that coefficient
    lam = next(k for k, c in enumerate(f.coeffs) if c)
    d = gcd(m, lam, n)
    total = d if log[f.coeffs[lam]] % d == 0 else 0
    unramified = gcd(m, n)
    for x0, size in _frobenius_orbits(p, n):
        u, d = _evaluate_log(f_logs, x0, zech, n), unramified
        if u < 0:  # a root: its multiplicity lam and the unit part u there
            lam = 1
            while (u := _evaluate_log(hasse(lam), x0, zech, n)) < 0:
                lam += 1
            d = gcd(m, lam, n)
        if u % d == 0:
            total += size * d
    dd = gcd(m, f.degree, n)
    total += dd if log[f.leading()] % dd == 0 else 0
    return total


def _frobenius_orbits(p: int, n: int):
    """(x0, size): the least log x0 of each cyclotomic coset of p mod n, the
    orbit of a nonzero x under x -> x^p.  A log is passed over as soon as its
    walk around the coset meets a smaller one, so nothing the size of the
    field is stored."""
    for x0 in range(n):
        size, y = 1, x0 * p % n
        while y > x0:
            size += 1
            y = y * p % n
        if y == x0:
            yield x0, size


def _evaluate_log(coeffs, x0, zech, n):
    """Horner evaluation at the nonzero x of log x0, with Zech addition; the
    coefficients and the value are logs, -1 for zero."""
    acc = -1
    for c in reversed(coeffs):
        if acc < 0:
            acc = c
        elif c < 0:
            acc = (acc + x0) % n
        else:  # acc x + c, where acc x has log acc + x0
            z = zech[(c - acc - x0) % n]
            acc = -1 if z < 0 else (acc + x0 + z) % n
    return acc


def zeta_l_polynomial(model: CurveModel):
    """Coefficients of the zeta numerator L(t) of the smooth model, exact.

    Needs point counts over GF(p), ..., GF(p^g) for the normalization genus g,
    refusing the model before any count when GF(p^g) is above the point cap;
    the rest of L(t) comes from the functional equation.  When GF(p^(g+1))
    fits under the cap, its count is verified against the prediction; counts
    that contradict each other raise ArithmeticError.
    """
    g = normalization_genus(model)
    p = model.p
    if p**g > ZETA_POINT_CAP:
        raise UnsupportedModelError("field tower exceeds the point-count cap")
    power_sums = [p**r + 1 - count_points(model, r) for r in range(1, g + 1)]
    coeffs = [1]
    for k in range(1, g + 1):
        value = power_sums[k - 1] + _newton_sum(power_sums, coeffs, k)
        if value % k != 0:
            raise ArithmeticError("inconsistent point counts (non-integral symmetric function)")
        coeffs.append(-value // k)
    coeffs += [p ** (g - k) * coeffs[k] for k in range(g - 1, -1, -1)]
    if p ** (g + 1) <= ZETA_POINT_CAP:
        # the same identity read for s_(g+1)
        k = g + 1
        predicted = p**k + 1 + k * coeffs[k] + _newton_sum(power_sums, coeffs, k)
        actual = count_points(model, k)
        if predicted != actual:
            raise ArithmeticError(f"point count over GF(p^{k}) is {actual}, L-polynomial predicts {predicted}")
    return tuple(coeffs)


def _newton_sum(power_sums, coeffs, k: int) -> int:
    """Sum of s_i * c_(k-i) over 0 < i < k: Newton's identity k*c_k + s_k + sum = 0
    ties the coefficients c of L(t) = prod (1 - alpha_i t) to the power sums
    s_r = p^r + 1 - N_r of the alpha_i, and gives c_k or s_k from the others."""
    return sum(power_sums[i - 1] * coeffs[k - i] for i in range(1, k))


def l_polynomial_p_rank(coeffs, p: int) -> int:
    """Degree of the zeta numerator ``coeffs`` reduced mod p."""
    return max((k for k, c in enumerate(coeffs) if c % p != 0), default=0)


# -- curve-expression parsing --------------------------------------------------


def parse_curve(text: str, p: int) -> CurveModel:
    """Parse ``y^m = <integer polynomial in x>`` into a model over GF(p).

    Refuses p outside 2..``PRIME_CAP``, m above ``COVER_DEGREE_CAP`` and f
    of degree above ``POLY_DEGREE_CAP`` before any work that grows with them.
    """
    if not 2 <= p <= PRIME_CAP:
        raise ValueError(f"p = {p} is not a prime in 2..{PRIME_CAP}")
    lhs, _, rhs = text.partition("=")
    if not rhs:
        raise ValueError("curve expression needs '='")
    lhs = lhs.replace(" ", "")
    match = re.fullmatch(r"y(?:\^(\d+))?", lhs)
    if not match:
        raise ValueError(f"left side must be y^m, got {lhs!r}")
    m = int(match.group(1) or 1)
    if m > COVER_DEGREE_CAP:
        raise ValueError(f"m = {m} exceeds the cap of {COVER_DEGREE_CAP}")
    coeffs = _parse_poly(rhs, p)
    return CurveModel(m=m, f=FpPoly(p, coeffs), p=p)


def _parse_poly(text: str, p: int):
    text = text.replace(" ", "").replace("**", "^").replace("-", "+-")
    terms = [t for t in text.split("+") if t]
    coeffs = {}
    for term in terms:
        match = re.fullmatch(r"(-?)(\d*)(?:\*?(x)(?:\^(\d+))?)?", term)
        if not match or (not match.group(2) and not match.group(3)):
            raise ValueError(f"cannot parse term {term!r}")
        sign = -1 if match.group(1) else 1
        coeff = int(match.group(2)) if match.group(2) else 1
        if match.group(3):
            exp = int(match.group(4)) if match.group(4) else 1
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
    size = max(coeffs) + 1 if coeffs else 0
    if size > POLY_DEGREE_CAP + 1:
        raise ValueError(f"degree {size - 1} exceeds the cap of {POLY_DEGREE_CAP}")
    out = [0] * size
    for e, c in coeffs.items():
        out[e] = c % p
    return out
