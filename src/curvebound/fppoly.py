"""Polynomials over prime fields and small extension towers.

Polynomials are coefficient tuples over GF(p), constant term first, with a
nonzero leading coefficient (the zero polynomial is the empty tuple).
Extension fields GF(p^k) are realized as quotients by the lexicographically
first monic irreducible of degree k, so towers are deterministic.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FpPoly:
    """Dense polynomial over GF(p)."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        if not _is_prime(p):
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

    def __sub__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return FpPoly(self.p, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self):
        return FpPoly(self.p, [-c for c in self.coeffs])

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

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = FpPoly.constant(self.p, 1)
        square = self
        while k:
            if k & 1:
                result = result * square
            square = square * square
            k >>= 1
        return result

    def pow_foldl(self, k: int):
        """Plain left-fold power; a second route for reproducibility checks."""
        result = FpPoly.constant(self.p, 1)
        for _ in range(k):
            result = result * self
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
        if a.is_zero():
            return a
        inv = pow(a.leading(), self.p - 2, self.p)
        return a * inv

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def shift_x(self, c: int):
        """The polynomial f(x + c)."""
        out = FpPoly(self.p, ())
        xc = FpPoly(self.p, (c, 1))
        power = FpPoly.constant(self.p, 1)
        for a in self.coeffs:
            out = out + power * a
            power = power * xc
        return out

    def scale_x(self, u: int):
        """The polynomial f(u*x); u must be a unit."""
        if u % self.p == 0:
            raise ValueError("scale factor must be a unit")
        return FpPoly(self.p, [c * pow(u, i, self.p) for i, c in enumerate(self.coeffs)])

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


@lru_cache(maxsize=None)
def first_irreducible(p: int, degree: int) -> FpPoly:
    """Lexicographically first monic irreducible of the given degree."""
    if degree == 1:
        return FpPoly.x(p)
    for tail in product(range(p), repeat=degree):
        poly = FpPoly(p, list(tail) + [1])
        if _is_irreducible(poly):
            return poly
    raise RuntimeError("no irreducible found")  # impossible


def _prime_divisors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(poly: FpPoly) -> bool:
    """Rabin test: x^(p^d) = x mod poly and gcd(x^(p^(d/r)) - x, poly) = 1."""
    p = poly.p
    d = poly.degree
    if d <= 0:
        return False
    if d == 1:
        return True
    x = FpPoly.x(p)
    for r in _prime_divisors(d):
        power = x
        for _ in range(d // r):
            power = _pow_p(power, p, poly)
        if not (power - x).gcd(poly).coeffs == (1,):
            return False
    power = x
    for _ in range(d):
        power = _pow_p(power, p, poly)
    return ((power - x) % poly).is_zero()


def _pow_p(poly: FpPoly, p: int, modulus: FpPoly) -> FpPoly:
    result = FpPoly.constant(poly.p, 1)
    square = poly
    k = p
    while k:
        if k & 1:
            result = (result * square) % modulus
        square = (square * square) % modulus
        k >>= 1
    return result


@lru_cache(maxsize=4096)
def factor_multiplicities(f: FpPoly):
    """(irreducible, multiplicity) pairs by trial division, smallest degree first.

    Dividing by monic candidates in degree order needs no irreducibility
    test: a composite divisor would have had its own factors stripped first.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    p = f.p
    remaining = f.monic()
    out = []
    d = 1
    while remaining.degree > 0:
        if 2 * d > remaining.degree:
            out.append((remaining, 1))
            break
        for tail in product(range(p), repeat=d):
            candidate = FpPoly(p, list(tail) + [1])
            mult = 0
            while True:
                quot, rem = remaining.divmod(candidate)
                if rem.is_zero():
                    remaining = quot
                    mult += 1
                else:
                    break
            if mult:
                out.append((candidate, mult))
            if remaining.degree < 2 * d:
                break
        d += 1
    return tuple(out)


class ExtField:
    """GF(p^k) as GF(p)[x] modulo a deterministic irreducible.

    Elements are coefficient tuples of length k.
    """

    def __init__(self, p: int, k: int):
        if k < 1:
            raise ValueError("extension degree must be positive")
        self.p = p
        self.k = k
        self.modulus = first_irreducible(p, k)
        self.size = p**k

    def zero(self):
        return (0,) * self.k

    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def embed(self, a: int):
        return (a % self.p,) + (0,) * (self.k - 1)

    def elements(self):
        for tup in product(range(self.p), repeat=self.k):
            yield tup

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        out = [0] * (2 * self.k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        rem = FpPoly(self.p, out) % self.modulus
        c = list(rem.coeffs) + [0] * (self.k - len(rem.coeffs))
        return tuple(c)

    def pow(self, a, n: int):
        result = self.one()
        square = a
        while n:
            if n & 1:
                result = self.mul(result, square)
            square = self.mul(square, square)
            n >>= 1
        return result

    def is_zero(self, a):
        return all(c == 0 for c in a)
