"""Polynomials over prime fields and log tables of their extensions.

Polynomials are coefficient tuples over GF(p), constant term first, with a
nonzero leading coefficient (the zero polynomial is the empty tuple).
Factoring is reduced to what the curve code reads, the squarefree
decomposition.  A field GF(p^k) is given by its log and Zech tables over a
deterministic primitive modulus, so the arithmetic behind point counts is
table lookups and integer additions.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import product

from .arith import factorize, is_prime


class FpPoly:
    """Dense polynomial over GF(p)."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        c = [x % p for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("FpPoly is immutable")

    @classmethod
    def x(cls, p):
        return cls(p, (0, 1))

    @classmethod
    def constant(cls, p, c):
        return cls(p, (c,))

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        return isinstance(other, FpPoly) and self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("mixed characteristics")

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return FpPoly(self.p, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __mul__(self, other):
        if isinstance(other, int):
            return FpPoly(self.p, [c * other for c in self.coeffs])
        self._check(other)
        if self.is_zero() or other.is_zero():
            return FpPoly(self.p, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return FpPoly(self.p, out)

    __rmul__ = __mul__

    def __pow__(self, k: int, modulus=None):
        """self^k by square and multiply; ``pow(f, k, m)`` reduces mod m at each step."""
        if k < 0:
            raise ValueError("negative power")
        reduce = (lambda f: f) if modulus is None else (lambda f: f % modulus)
        result = reduce(FpPoly.constant(self.p, 1))
        square = reduce(self)
        while k:
            if k & 1:
                result = reduce(result * square)
            square = reduce(square * square)
            k >>= 1
        return result

    def divmod(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        p = self.p
        inv_lead = pow(other.leading(), p - 2, p)
        rem = list(self.coeffs)
        deg_o = other.degree
        if self.degree < deg_o:
            return FpPoly(p, ()), self
        quot = [0] * (self.degree - deg_o + 1)
        for i in range(self.degree - deg_o, -1, -1):
            c = rem[i + deg_o] % p
            if c:
                factor = c * inv_lead % p
                quot[i] = factor
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= factor * b
        return FpPoly(p, quot), FpPoly(p, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def derivative(self):
        return FpPoly(self.p, [i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self):
        if self.is_zero():
            return self
        return self * pow(self.leading(), self.p - 2, self.p)

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}x" if c != 1 else "x")
            else:
                terms.append(f"{c}x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(reversed(terms))


@lru_cache(maxsize=4096)
def squarefree_decomposition(f: FpPoly):
    """((a, i), ...) with each a monic, squarefree and non-constant, the parts
    pairwise coprime, sorted by i, and monic f = prod a^i.

    Yun's gcd loop splits off the parts whose multiplicity is prime to p; what
    is left is a p-th power, whose root (every p-th coefficient, since
    Frobenius fixes GF(p)) is decomposed with multiplicities scaled by p.
    """
    if f.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    p = f.p
    out = []
    c = f.gcd(f.derivative())
    w = f.monic() // c
    i = 1
    while w.degree > 0:
        y = w.gcd(c)
        if w.degree > y.degree:
            out.append((w // y, i))
        w, c, i = y, c // y, i + 1
    if c.degree > 0:
        root = FpPoly(p, c.coeffs[::p])
        out.extend((a, mult * p) for a, mult in squarefree_decomposition(root))
    return tuple(sorted(out, key=lambda part: part[1]))


@lru_cache(maxsize=None)
def field_tables(p: int, k: int):
    """(log, zech) for GF(p^k), as arrays of 4-byte ints.

    An element is the integer whose base-p digits are its coefficients, so GF(p)
    is 0..p-1.  The modulus is the first monic degree-k polynomial, constant term
    varying fastest, modulo which x has order n = p^k - 1; no reducible one
    passes, as its unit group is smaller.  log[a] is the log of a to base x,
    log[0] = -1, and zech[i] = log(1 + x^i), -1 where 1 + x^i = 0.
    """
    if k < 1:
        raise ValueError("extension degree must be positive")
    n = p**k - 1
    x = FpPoly.x(p)
    cofactors = [n // r for r, _ in factorize(n)]
    for tail in product(range(p), repeat=k):
        modulus = FpPoly(p, tail[::-1] + (1,))
        if pow(x, n, modulus).coeffs == (1,) and all(
            pow(x, e, modulus).coeffs != (1,) for e in cofactors
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
