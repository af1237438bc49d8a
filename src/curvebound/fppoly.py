"""Polynomials over prime fields and log tables of their extensions.

Polynomials are coefficient tuples over GF(p), constant term first, with a
nonzero leading coefficient (the zero polynomial is the empty tuple).  p is
a prime below ``PRIME_BOUND`` = 2^16; a larger p is refused before any trial
division.  A product packs each factor into one integer, with slots of 1 to
8 bytes, wide enough that no coefficient of the integer product carries into
the next, so the arithmetic is one CPython big-integer product and the
coefficients are reduced mod p once, when unpacked; a power is square and
multiply over such products.
Factoring is reduced to what the curve code reads, the squarefree
decomposition.  A field GF(p^k) is given by its log and Zech tables over a
deterministic primitive modulus, so the arithmetic behind point counts is
table lookups and integer additions.  The tables are built on plain integers:
candidate moduli with a root in GF(p) are skipped, the order of x is tested
by square and multiply on coefficient lists, and each step of the log walk
is two lookups in tables of O(p sqrt(p^k)) entries.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import islice, product

from . import Record
from .arith import factorize, is_prime

PRIME_BOUND = 2**16  # (p - 1)^2 < 2^32: a product with fewer than 2^32 terms packs in 8-byte slots


class FpPoly(Record):
    """Dense polynomial over GF(p); its own equality and hash are faster than Record's."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        if p >= PRIME_BOUND or not is_prime(p):
            raise ValueError(f"{p} is not a prime below {PRIME_BOUND}")
        c = [x % p for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(c))

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

    def __eq__(self, other):
        return isinstance(other, FpPoly) and self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("mixed characteristics")

    def __mul__(self, other):
        if isinstance(other, int):
            return FpPoly(self.p, [c * other for c in self.coeffs])
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FpPoly(self.p, ())
        # a coefficient of the integer product is at most max(b) sum(a), and max(a) sum(b)
        width = _slot_width(min(max(b) * sum(a), max(a) * sum(b)))
        return _unpacked(self.p, _packed(a, width) * _packed(b, width), width, len(a) + len(b) - 1)

    def __pow__(self, k: int):
        """self^k by square and multiply, from the leading bit of k down."""
        if k < 0:
            raise ValueError("negative power")
        if not k:
            return FpPoly.constant(self.p, 1)
        result = self
        for bit in bin(k)[3:]:
            result = result * result
            if bit == "1":
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


# Kronecker substitution: coefficients c_i below 2^(8w) pack into the integer
# sum c_i 2^(8wi), and a product of polynomials is the product of the integers
# while no coefficient of the integer product overflows its w-byte slot.  Bytes
# are in the machine's order, so that array items are slots; on a big-endian
# machine that packs the reversed polynomial, and reversal commutes with products.
_ORDER = sys.byteorder
_TYPECODES = {array(code).itemsize: code for code in "QIHB"}


def _slot_width(bound: int) -> int:
    """The least array item size, in bytes, that holds every integer up to ``bound``."""
    width = -(-bound.bit_length() // 8)
    if width > 8:
        raise OverflowError(f"a product coefficient up to {bound} needs {width}-byte slots")
    return min(size for size in _TYPECODES if size >= width)


def _packed(coeffs, width: int) -> int:
    return int.from_bytes(array(_TYPECODES[width], coeffs).tobytes(), _ORDER)


def _unpacked(p: int, n: int, width: int, slots: int) -> FpPoly:
    """The polynomial packed into ``n``; the constructor reduces its coefficients mod p."""
    return FpPoly(p, array(_TYPECODES[width], n.to_bytes(slots * width, _ORDER)))


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


@lru_cache(maxsize=16)
def field_tables(p: int, k: int):
    """(log, zech) for GF(p^k), as arrays of 4-byte ints.

    An element is the integer whose base-p digits are its coefficients, so GF(p)
    is 0..p-1.  The modulus is the first monic degree-k polynomial, constant term
    varying fastest, modulo which x has order n = p^k - 1; no reducible one
    passes, as its unit group is smaller.  For k > 1 a candidate with a root
    in GF(p), 0 included, is reducible and skipped; the others are tested for
    x^(n/r) != 1, r each prime dividing n, and then x^n = 1, on coefficient
    lists.  The 16 most recently used fields are kept, 8 bytes per element.
    log[a] is the log of a to base x, log[0] = -1, and zech[i] = log(1 + x^i),
    -1 where 1 + x^i = 0.

    The log walk multiplies by x, which takes the code t p^(k-1) + rest to
    rest x + t x^k.  rest is split into a low and a high half of its digits,
    and for each top digit t two tables give each half shifted up with its
    share of t x^k added: a step is two lookups and an addition, and the
    tables hold O(p sqrt(p^k)) entries.
    """
    if k < 1:
        raise ValueError("extension degree must be positive")
    n = p**k - 1
    one = [1] + [0] * (k - 1)
    cofactors = [n // r for r, _ in factorize(n)]
    for tail in product(range(p), repeat=k):
        coeffs = tail[::-1] + (1,)
        if k > 1 and any(sum(c * a**j for j, c in enumerate(coeffs)) % p == 0 for a in range(p)):
            continue
        reduction = [(-c) % p for c in coeffs[:k]]
        # most rejected candidates fall at a cofactor, so x^n = 1 is tested last
        if all(_x_power(e, reduction, p, k) != one for e in cofactors) and (
            _x_power(n, reduction, p, k) == one
        ):
            break
    top, half = p ** (k - 1), p ** ((k - 1) // 2)
    low = [_times_x_table(t, reduction, p, range(1, (k + 1) // 2), t * reduction[0] % p)
           for t in range(p)]
    high = [_times_x_table(t, reduction, p, range((k + 1) // 2, k), 0) for t in range(p)]
    log = array("i", [-1]) * (n + 1)
    a = 1
    for i in range(n):
        log[a] = i
        t, rest = divmod(a, top)
        hi, lo = divmod(rest, half)
        a = low[t][lo] + high[t][hi]
    # 1 + a is the code a + 1 unless a's constant digit is p - 1, which wraps to 0
    zech = array("i", [-1]) * n
    for i, j in zip(islice(log, 1, None), islice(log, 2, None)):
        zech[i] = j
    for a in range(p - 1, n + 1, p):
        zech[log[a]] = log[a + 1 - p]
    return log, zech


def _x_power(e: int, reduction, p: int, k: int):
    """x^e modulo x^k - sum(reduction[j] x^j), as k coefficients, constant term first."""
    result = [1] + [0] * (k - 1)
    for bit in bin(e)[2:]:
        square = [0] * (2 * k)
        for i, a in enumerate(result, bit == "1"):  # squared, then times x on a 1 bit
            if a:
                for j, b in enumerate(result, i):
                    square[j] += a * b
        for d in range(2 * k - 1, k - 1, -1):
            c = square[d] % p
            if c:
                for j, r in enumerate(reduction, d - k):
                    square[j] += c * r
        result = [c % p for c in square[:k]]
    return result


def _times_x_table(t: int, reduction, p: int, positions, start: int):
    """The code of v x + t x^k on the digit ``positions`` that v's digits move to,
    indexed by v, plus ``start``: the constant digit, which only t x^k sets."""
    entries = [start]
    for j in positions:
        r, weight = t * reduction[j] % p, p**j
        entries = [e + (d + r) % p * weight for d in range(p) for e in entries]
    return entries
