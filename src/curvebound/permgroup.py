"""Exact permutation-group engine: stabilizer chains grown by Schreier's lemma.

Every group is one level of its own stabilizer chain: a base point, the
transversal of its orbit, and the point's stabilizer as a group again.  One
orbit routine serves the whole engine.  It runs a BFS over the generators
and returns the transversal and the Schreier generators of the stabilizer.
Adding a generator reruns it on the base point and passes each Schreier
generator that is not yet a member down to the stabilizer, so every level
generates exactly the stabilizer of its base point.  Point stabilizers,
normalizers (stabilizers of an element set under conjugation) and subgroup
class sizes (orbit lengths) come from the same routine.  Order, membership
and solvability are derived from the chain.  A Sylow subgroup grows by the
least p-element of the group's sorted elements that normalizes it and lies
outside it; the p-subgroups inside it are chains grown one generator at a
time, and simplicity is decided by normal closures of elements of prime
order in Sylow centres.  No group fact is ever read from a table.

Groups are immutable once constructed and every operation is pure, so shared
instances are safe under concurrent use.  Generators are added in sorted
order (a Sylow subgroup's in growth order) and Schreier generators are taken
sorted, which makes every output bit-identical across runs.
"""

from __future__ import annotations

import os
import re
from functools import lru_cache

from .fppoly import factorize
from .perm import DegreeMismatchError, Permutation

ELEMENT_SCAN_CAP = 10**7


class SizeCapExceededError(ValueError):
    """The operation refuses to run above its documented size cap."""


class PermGroup:
    """A finite permutation group, stored as the top level of its stabilizer chain.

    A nontrivial group keeps a base point, that point's transversal and the
    point's stabilizer, itself a ``PermGroup``; the trivial group has no base
    point and ends the chain.
    """

    def __init__(self, generators, degree=None):
        generators = list(generators)
        if degree is None:
            if not generators:
                raise ValueError("degree required for an empty generator list")
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatchError(f"generator degree {g.degree} != {degree}")
        self.degree = degree
        self.generators = ()
        self._base_point = None
        self._transversal = {}
        self._stabilizer = None
        self._order = 1
        self._elements = None
        self._element_orders = None
        for g in sorted(set(generators)):
            if g not in self:
                self._add(g)

    # -- construction ------------------------------------------------------

    def _add(self, g):
        """Extend the group by g, a permutation outside it.

        Only for a group no caller holds yet, so that returned groups stay
        immutable.  The orbit of the base point is recomputed under the new
        generators, and every Schreier generator outside the stabilizer
        extends the stabilizer in turn.
        """
        self.generators += (g,)
        if self._stabilizer is None:
            self._base_point = g.min_moved()
            self._stabilizer = PermGroup([], self.degree)
        self._transversal, schreier = self._orbit(self._base_point, lambda pt, h: h(pt))
        for s in schreier:
            if s not in self._stabilizer:
                self._stabilizer._add(s)
        self._order = len(self._transversal) * self._stabilizer._order

    def _orbit(self, x, act):
        """Orbit of x under ``act(y, g)`` as a transversal, and the Schreier generators.

        The orbit is found by BFS over the generators; ``transversal[y]``
        carries x to y.  By Schreier's lemma the elements t_y g t_act(y,g)^-1
        generate the stabilizer of x; they are returned deduplicated and
        sorted, so every run builds the same chain.
        """
        transversal = {x: self.identity()}
        frontier = [x]
        schreier = set()
        while frontier:
            new = []
            for y in frontier:
                t = transversal[y]
                for g in self.generators:
                    z = act(y, g)
                    u = transversal.get(z)
                    if u is None:
                        transversal[z] = t * g
                        new.append(z)
                    else:
                        schreier.add(t * g * u.inverse())
            frontier = new
        return transversal, sorted(schreier)

    def _chain(self):
        """The levels of the stabilizer chain that have a base point, top first."""
        level = self
        while level._stabilizer is not None:
            yield level
            level = level._stabilizer

    # -- certificate queries -----------------------------------------------

    def order(self) -> int:
        return self._order

    @property
    def base(self):
        return tuple(level._base_point for level in self._chain())

    @property
    def strong_generators(self):
        return tuple(sorted({s for level in self._chain() for s in level.generators}))

    def sift(self, g: Permutation) -> Permutation:
        """Strip g through the stabilizer chain; identity iff g is a member."""
        if g.degree != self.degree:
            raise DegreeMismatchError(f"degree {g.degree} != group degree {self.degree}")
        for level in self._chain():
            t = level._transversal.get(g(level._base_point))
            if t is None:
                return g
            g = g * t.inverse()
        return g

    def __contains__(self, g: Permutation) -> bool:
        return self.sift(g).is_identity()

    def __len__(self):
        return self._order

    def is_trivial(self) -> bool:
        return self._order == 1

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def elements(self):
        """All elements, sorted; cached.  Refuses above the element-scan cap."""
        if self._elements is None:
            if self._order > ELEMENT_SCAN_CAP:
                raise SizeCapExceededError(f"order {self._order} exceeds {ELEMENT_SCAN_CAP}")
            elems = [self.identity()]
            for level in reversed(list(self._chain())):
                elems = [h * t for h in elems for t in level._transversal.values()]
            elems.sort()
            self._elements = tuple(elems)
        return self._elements

    def element_order_set(self):
        """Set of element orders, cached; closed under divisors by Lagrange on ⟨x⟩."""
        if self._element_orders is None:
            self._element_orders = frozenset(g.order() for g in self.elements())
        return self._element_orders

    def subgroup(self, gens) -> "PermGroup":
        gens = list(gens)
        for g in gens:
            if g not in self:
                raise ValueError("generator outside the group")
        return PermGroup(gens, self.degree)

    def point_stabilizer(self, point: int) -> "PermGroup":
        """Stabilizer of a point (0-based)."""
        _, schreier = self._orbit(point, lambda pt, g: g(pt))
        return PermGroup(schreier, self.degree)

    # -- derived structure ---------------------------------------------------

    def normal_closure(self, seed_gens) -> "PermGroup":
        """Smallest normal subgroup containing seed_gens.

        Every conjugate of a generator of the closure by a generator of the
        group that is not yet a member extends the closure; once none is
        left, the group normalizes the closure.
        """
        closure = PermGroup(seed_gens, self.degree)
        i = 0
        while i < len(closure.generators):
            n = closure.generators[i]
            for g in self.generators:
                c = n.conjugate(g)
                if c not in closure:
                    closure._add(c)
            i += 1
        return closure

    def derived_subgroup(self) -> "PermGroup":
        commutators = [
            a.inverse() * b.inverse() * a * b
            for a in self.generators
            for b in self.generators
        ]
        return self.normal_closure([c for c in commutators if not c.is_identity()])

    def is_solvable(self) -> bool:
        """True iff the derived series reaches the trivial group."""
        current = self
        while current.order() > 1:
            derived = current.derived_subgroup()
            if derived.order() == current.order():
                return False
            current = derived
        return True

    def is_abelian(self) -> bool:
        return all(a * b == b * a for a in self.generators for b in self.generators)

    def is_elementary_abelian(self, p: int) -> bool:
        """Abelian and generated by elements of order p, so every element has order p or 1."""
        return self.is_abelian() and all(g.order() == p for g in self.generators)

    def is_simple(self) -> bool:
        """Nontrivial with no proper nontrivial normal subgroup, decided on Sylow centres.

        A normal subgroup N > 1 meets a Sylow r-subgroup P, for r a prime
        dividing |N|, in a nontrivial normal subgroup of P, which meets Z(P).
        So the group is simple iff, for each prime r dividing its order, one
        element of each subgroup of order r in Z(P) has it as normal closure.
        """
        if self._order == 1:
            return False
        for r, _ in factorize(self._order):
            sylow = self.sylow_subgroup(r)
            covered = set()
            for z in sylow.elements():
                if z in covered or z.order() != r or any(z * g != g * z for g in sylow.generators):
                    continue
                covered.update(z**i for i in range(1, r))
                if self.normal_closure([z]).order() != self._order:
                    return False
        return True

    # -- Sylow machinery -----------------------------------------------------

    def sylow_subgroup(self, p: int) -> "PermGroup":
        """A Sylow p-subgroup, grown deterministically inside the group's sorted elements.

        From the trivial group P, joins the least p-element of the group
        outside P that normalizes P (one exists until P is Sylow) until the
        p-part of the order is reached; trivial when p does not divide the
        order.  The generators come in growth order.
        """
        p_part = p ** dict(factorize(self._order)).get(p, 0)
        sylow = PermGroup([], self.degree)
        while sylow._order < p_part:
            sylow._add(next(y for y in self.elements() if p_part % y.order() == 0 and y not in sylow
                            and all(h.conjugate(y) in sylow for h in sylow.generators)))
        return sylow

    def normalizer(self, subgroup: "PermGroup") -> "PermGroup":
        """N_G(H): the stabilizer of H's element set under conjugation."""
        _, schreier = self._conjugates_of(subgroup)
        return PermGroup(schreier, self.degree)

    def conjugacy_class_size_of_subgroup(self, subgroup: "PermGroup") -> int:
        """Number of G-conjugates of H: the length of its conjugation orbit."""
        transversal, _ = self._conjugates_of(subgroup)
        return len(transversal)

    def _conjugates_of(self, subgroup):
        if subgroup.degree != self.degree:
            raise DegreeMismatchError("subgroup degree differs")
        for h in subgroup.generators:
            if h not in self:
                raise ValueError("not a subgroup: generator outside the group")
        return self._orbit(
            frozenset(subgroup.elements()),
            lambda elements, g: frozenset(h.conjugate(g) for h in elements),
        )


# -- oracles and p-subgroups ----------------------------------------------


def closure_elements(gens, degree=None):
    """Exhaustive closure of a generator list; an oracle independent of the stabilizer chain."""
    if not gens:
        return {Permutation.identity(degree)} if degree else set()
    degree = max([degree or 0] + [g.degree for g in gens])
    gens = [g.extended(degree) for g in gens]
    seen = {Permutation.identity(degree)}
    frontier = [Permutation.identity(degree)]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def p_subgroup_class_reps(group: PermGroup, p: int):
    """Nontrivial subgroups of one Sylow p-subgroup, sorted by element set.

    Grown from the trivial group by joining each subgroup found to one
    element of each of its other cosets in the Sylow subgroup.  Every
    p-subgroup is conjugate to one of these, enough to survey shapes Q ⋊ C.
    """
    sylow = group.sylow_subgroup(p)
    found = {}
    frontier = [PermGroup([], group.degree)]
    while frontier:
        sub = frontier.pop()
        tried = set(sub.elements())
        for x in sylow.elements():
            if x not in tried:
                tried.update(x * h for h in sub.elements())
                joined = PermGroup(sub.generators + (x,), group.degree)
                if joined.elements() not in found:
                    found[joined.elements()] = joined
                    frontier.append(joined)
    return [found[key] for key in sorted(found)]


def complement_orders(group: PermGroup, p: int):
    """(Q, orders) for each Q from ``p_subgroup_class_reps``: the prime-to-p element orders of N(Q).

    These are the orders of the cyclic complements C that make Q ⋊ C a
    subgroup; 1 is always among them.
    """
    return [
        (q, {n for n in group.normalizer(q).element_order_set() if n % p})
        for q in p_subgroup_class_reps(group, p)
    ]


def max_solvable_with_cyclic_complement(group: PermGroup, p: int) -> int:
    """Largest |Q|·|C| with Q a p-subgroup and C cyclic of coprime order in N(Q).

    Such Q ⋊ C subgroups are exactly the solvable subgroups whose Sylow
    p-subgroup is normal with a cyclic complement, the shape wild one-point
    stabilizers take.  0 when p does not divide the order.
    """
    return max((q.order() * max(orders) for q, orders in complement_orders(group, p)), default=0)


# -- generator files --------------------------------------------------------

DATA_ENV_VAR = "CURVEBOUND_DATA"
_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
MAX_DEGREE = 100  # largest degree or point of a generator file; the shipped files use 7 and 11


def parse_generator_file(text: str):
    """Parse a generator file: one cycle-notation permutation per line.

    Blank lines and ``#`` comments are skipped; an optional ``degree: n``
    header fixes the degree, otherwise the largest moved point is used.  A
    file without generators is refused, and so, before any permutation is
    built, is one with a degree or point above ``MAX_DEGREE``.
    """
    degree = 0
    raw = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("degree:"):
            degree = int(line.split(":", 1)[1])
            continue
        raw.append(line)
    if not raw:
        raise ValueError("no generators")
    largest = max([degree] + [int(tok) for line in raw for tok in re.findall(r"\d+", line)])
    if largest > MAX_DEGREE:
        raise ValueError(f"degree {largest} exceeds the cap of {MAX_DEGREE}")
    perms = [Permutation.parse(line) for line in raw]
    degree = max([degree] + [g.degree for g in perms])
    return [g.extended(degree) for g in perms], degree


def generator_file_path(name: str) -> str:
    return os.path.join(os.environ.get(DATA_ENV_VAR) or _DATA_DIR, f"{name}.txt")


def load_group(name: str) -> PermGroup:
    """The group of a generator file (``alt7`` or ``m11``), cached per resolved
    path: a process that points ``CURVEBOUND_DATA`` elsewhere reads that file."""
    return _group_at(generator_file_path(name))


@lru_cache(maxsize=None)
def _group_at(path: str) -> PermGroup:
    with open(path, encoding="ascii") as handle:
        return PermGroup(*parse_generator_file(handle.read()))
