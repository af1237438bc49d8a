"""Permutations of {1..n}, stored 0-based, with cycle-notation parsing.

A ``Permutation`` is the tuple of its images: ``p[i]`` is the image of
point i and ``len(p)`` is its degree.  It compares, hashes and sorts as that
tuple, so it equals a plain tuple with the same images.  Only the public
constructor ``Permutation(images)`` checks that the images are a
permutation; products, inverses, conjugates, powers, identities and
extensions are built from images that are one by construction, without the
check.  Values are immutable; all operations return new objects, so sharing
permutations across threads is safe.

Composition is left-to-right: ``(p * q)(x) = q(p(x))``.
"""

from __future__ import annotations

import re
from math import lcm


class DegreeMismatchError(ValueError):
    """Operands act on different numbers of points."""


_CYCLE_RE = re.compile(r"\(\s*(\d+(?:\s*[, ]\s*\d+)*)\s*\)")


class Permutation(tuple):
    __slots__ = ()

    def __init__(self, images):
        if sorted(self) != list(range(len(self))):
            raise ValueError(f"not a permutation of 0..{len(self) - 1}: {tuple(self)!r}")

    @property
    def degree(self) -> int:
        return len(self)

    @property
    def images(self) -> tuple:
        return tuple(self)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return tuple.__new__(cls, range(degree))

    @classmethod
    def from_cycles(cls, cycles, degree: int = 0) -> "Permutation":
        """Build from 1-based cycles, e.g. ``[(1, 2, 3), (4, 5)]``."""
        n = degree
        for cyc in cycles:
            if cyc:
                n = max(n, max(cyc))
        images = list(range(n))
        for cyc in cycles:
            if len(cyc) != len(set(cyc)):
                raise ValueError(f"repeated point in cycle {cyc!r}")
            for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
                if not 1 <= a <= n:
                    raise ValueError(f"point {a} out of range 1..{n}")
                images[a - 1] = b - 1
        return cls(images)

    @classmethod
    def parse(cls, text: str, degree: int = 0) -> "Permutation":
        """Parse cycle notation like ``(1,2,3)(4 5)``; ``()`` is the identity."""
        stripped = re.sub(r"\s", " ", text).strip()
        if stripped in ("", "()"):
            return cls.identity(degree)
        consumed = re.sub(_CYCLE_RE, "", stripped).replace("(", "").replace(")", "").strip()
        if consumed:
            raise ValueError(f"cannot parse permutation {text!r}")
        cycles = [
            tuple(int(tok) for tok in re.split(r"[, ]+", m.group(1)))
            for m in _CYCLE_RE.finditer(stripped)
        ]
        return cls.from_cycles(cycles, degree)

    def extended(self, degree: int) -> "Permutation":
        """The same permutation acting on a larger point set."""
        if degree < len(self):
            raise ValueError("cannot shrink a permutation")
        return tuple.__new__(Permutation, (*self, *range(len(self), degree)))

    __call__ = tuple.__getitem__

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self) != len(other):
            raise DegreeMismatchError(f"degree {len(self)} != {len(other)}")
        return tuple.__new__(Permutation, map(other.__getitem__, self))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, j in enumerate(self):
            inv[j] = i
        return tuple.__new__(Permutation, inv)

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(len(self))
        square = self
        while k:
            if k & 1:
                result = result * square
            square = square * square
            k >>= 1
        return result

    def conjugate(self, g: "Permutation") -> "Permutation":
        """g^-1 * self * g, built in one pass: it sends g(i) to g(self(i))."""
        if len(self) != len(g):
            raise DegreeMismatchError(f"degree {len(self)} != {len(g)}")
        images = [0] * len(self)
        for i, j in enumerate(self):
            images[g[i]] = g[j]
        return tuple.__new__(Permutation, images)

    def is_identity(self) -> bool:
        return self == tuple(range(len(self)))

    def cycles(self):
        """Nontrivial cycles as 1-based tuples, each starting at its least point."""
        seen = set()
        out = []
        for i in range(len(self)):
            if i in seen or self[i] == i:
                continue
            cyc = [i]
            j = self[i]
            while j != i:
                seen.add(j)
                cyc.append(j)
                j = self[j]
            out.append(tuple(k + 1 for k in cyc))
        return out

    def order(self) -> int:
        """The lcm of the cycle lengths, found by one walk over the points."""
        seen = bytearray(len(self))
        lengths = set()
        for start in range(len(self)):
            if seen[start]:
                continue
            j, length = start, 0
            while not seen[j]:
                seen[j] = 1
                j = self[j]
                length += 1
            lengths.add(length)
        return lcm(*lengths)

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def min_moved(self):
        for i, j in enumerate(self):
            if i != j:
                return i
        return None

    def __repr__(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)
