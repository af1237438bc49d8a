"""Permutations of {1..n}, stored 0-based, with cycle-notation parsing.

Values are immutable and hashable; all operations return new objects, so
sharing permutations across threads is safe.

Composition is left-to-right: ``(p * q)(x) = q(p(x))``.
"""

from __future__ import annotations

import re
from math import lcm


class DegreeMismatchError(ValueError):
    """Operands act on different numbers of points."""


_CYCLE_RE = re.compile(r"\(\s*(\d+(?:\s*[, ]\s*\d+)*)\s*\)")


class Permutation:
    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

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
        if degree < self.degree:
            raise ValueError("cannot shrink a permutation")
        return Permutation(self.images + tuple(range(self.degree, degree)))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise DegreeMismatchError(f"degree {self.degree} != {other.degree}")
        o = other.images
        return Permutation(tuple(o[i] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.degree)
        square = self
        while k:
            if k & 1:
                result = result * square
            square = square * square
            k >>= 1
        return result

    def conjugate(self, g: "Permutation") -> "Permutation":
        """g^-1 * self * g, built in one pass: it sends g(i) to g(self(i))."""
        if self.degree != g.degree:
            raise DegreeMismatchError(f"degree {self.degree} != {g.degree}")
        gi = g.images
        images = [0] * self.degree
        for i, j in enumerate(self.images):
            images[gi[i]] = gi[j]
        return Permutation(images)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self):
        """Nontrivial cycles as 1-based tuples, each starting at its least point."""
        seen = set()
        out = []
        for i in range(self.degree):
            if i in seen or self.images[i] == i:
                continue
            cyc = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(k + 1 for k in cyc))
        return out

    def order(self) -> int:
        return lcm(1, *(len(c) for c in self.cycles()))

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def min_moved(self):
        for i, j in enumerate(self.images):
            if i != j:
                return i
        return None

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)
