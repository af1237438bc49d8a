"""Permutations of {1..n}, stored 0-based as bytes, with cycle-notation parsing.

A ``Permutation`` is the ``bytes`` of its images: ``p[i]`` is the image of
point i and ``len(p)`` is its degree, at most 256.  Permutations of one
degree sort as the tuples of their images; hashes follow the hash seed.
Only the public constructor ``Permutation(images)`` checks that the images
are a permutation; all other operations build from images that are one.
Values are immutable, so sharing permutations across threads is safe.

Composition is left-to-right: ``(p * q)(x) = q(p(x))``.  It is one
``p.translate(q.table())``, where ``q.table()`` is q padded by the identity
on n..255; an inverse is one ``bytes.maketrans``.
"""

from __future__ import annotations

import re
from math import lcm

_IDENTITY = bytes(range(256))
_PAD = tuple(_IDENTITY[n:] for n in range(257))  # _PAD[n]: the identity on n..255
_new = bytes.__new__  # a Permutation from images that are one, without the check


class DegreeMismatchError(ValueError):
    """Operands act on different numbers of points."""


_CYCLE_RE = re.compile(r"\(\s*(\d+(?:\s*[, ]\s*\d+)*)\s*\)")


class Permutation(bytes):
    __slots__ = ()

    def __init__(self, images):
        # bytes() already refused values above 255, so the images are 0..n-1 iff
        # deleting them all from 0..n-1 leaves nothing and n is at most 256
        if len(self) > 256 or _IDENTITY[: len(self)].translate(None, self):
            raise ValueError(f"not a permutation of 0..{len(self) - 1}: {tuple(self)!r}")

    @property
    def degree(self) -> int:
        return len(self)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return _new(cls, range(degree))

    @classmethod
    def from_cycles(cls, cycles, degree: int = 0) -> "Permutation":
        """Build from 1-based cycles, e.g. ``[(1, 2, 3), (4, 5)]``."""
        n = max([degree] + [max(cyc) for cyc in cycles if cyc])
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
        return _new(Permutation, self + bytes(range(len(self), degree)))

    __call__ = bytes.__getitem__

    def table(self) -> bytes:
        """The 256-byte translation table of self: ``p.translate(q.table())`` holds p * q."""
        return self + _PAD[len(self)]

    def inverse_table(self) -> bytes:
        """The translation table of self's inverse."""
        return bytes.maketrans(self, _IDENTITY[: len(self)])

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self) != len(other):
            raise DegreeMismatchError(f"degree {len(self)} != {len(other)}")
        return _new(Permutation, self.translate(other + _PAD[len(other)]))

    def inverse(self) -> "Permutation":
        return _new(Permutation, self.inverse_table()[: len(self)])

    def __pow__(self, k: int) -> "Permutation":
        return _new(Permutation, power(self, k) if k >= 0 else power(self.inverse(), -k))

    def conjugate(self, g: "Permutation") -> "Permutation":
        """g^-1 * self * g: it sends g(i) to g(self(i)), one translate and one maketrans."""
        if len(self) != len(g):
            raise DegreeMismatchError(f"degree {len(self)} != {len(g)}")
        return _new(Permutation, bytes.maketrans(g, self.translate(g + _PAD[len(g)]))[: len(g)])

    def is_identity(self) -> bool:
        return self == _IDENTITY[: len(self)]

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
        """The lcm of the cycle lengths."""
        return lcm(*map(len, self.cycles()))

    def min_moved(self):
        return next((i for i, j in enumerate(self) if i != j), None)

    def __repr__(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)

    __str__ = __repr__


def power(images: bytes, e: int) -> bytes:
    """The images of g^e, for g's images and e >= 0, by square-and-multiply on tables."""
    pad, result = _PAD[len(images)], _IDENTITY[: len(images)]
    while e:
        if e & 1:
            result = result.translate(images + pad)
        images, e = images.translate(images + pad), e >> 1
    return result
