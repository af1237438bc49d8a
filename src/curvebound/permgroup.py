"""Exact permutation-group engine: stabilizer chains grown by Schreier's lemma.

Every group is one level of its own stabilizer chain: a base point, the
transversal of its orbit, and the point's stabilizer as a group again.  One
orbit routine serves the whole engine.  It runs a BFS over the generators
and returns the transversal and the Schreier generators of the stabilizer.
Adding a generator reruns it on the base point and passes each Schreier
generator that is not yet a member down to the stabilizer, so every level
generates exactly the stabilizer of its base point.  Point stabilizers,
normalizers (stabilizers of an element set under conjugation) and subgroup
class sizes (orbit lengths) come from the same routine.  Order, membership,
Sylow subgroups and solvability are derived from the chain.  No group fact
is ever read from a table.

Groups are immutable once constructed and every operation is pure, so shared
instances are safe under concurrent use.  Generators are added in sorted
order and Schreier generators are taken sorted, which makes every output
bit-identical across runs.
"""

from __future__ import annotations

import os
from math import gcd

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
        self._class_reps = None
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

    def __iter__(self):
        return iter(self.elements())

    def element_order_set(self):
        """Set of element orders; closed under divisors by Lagrange on ⟨x⟩."""
        return set(g.order() for g in self.elements())

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

    def conjugacy_class_reps(self):
        """Minimal representative of each element conjugacy class, sorted."""
        if self._class_reps is None:
            remaining = set(self.elements())
            reps = []
            while remaining:
                x = min(remaining)
                reps.append(x)
                orbit = {x}
                frontier = [x]
                while frontier:
                    y = frontier.pop()
                    for g in self.generators:
                        c = y.conjugate(g)
                        if c not in orbit:
                            orbit.add(c)
                            frontier.append(c)
                remaining -= orbit
            self._class_reps = tuple(reps)
        return self._class_reps

    def is_simple(self) -> bool:
        """Nontrivial, and every nontrivial class generates the whole group."""
        if self._order == 1:
            return False
        for rep in self.conjugacy_class_reps():
            if rep.is_identity():
                continue
            if self.normal_closure([rep]).order() != self._order:
                return False
        return True

    # -- Sylow machinery -----------------------------------------------------

    def sylow_subgroup(self, p: int) -> "PermGroup":
        """A Sylow p-subgroup, grown deterministically along normalizers.

        Starts from the least element of order p and extends inside the
        normalizer chain until the full p-part of the order is reached.
        Returns the trivial group when p does not divide the order.
        """
        p_part = 1
        n = self._order
        while n % p == 0:
            p_part *= p
            n //= p
        if p_part == 1:
            return PermGroup([], self.degree)
        seed = None
        for g in self.elements():
            k = g.order()
            if k % p == 0:
                seed = g ** (k // p)
                break
        current = PermGroup([seed], self.degree)
        while current.order() < p_part:
            normalizer = self.normalizer(current)
            for y in normalizer.elements():
                k = y.order()
                if k > 1 and p_part % k == 0 and y not in current:
                    current = PermGroup(list(current.generators) + [y], self.degree)
                    break
            else:
                raise RuntimeError("sylow extension stalled")  # unreachable by Sylow theory
        return current

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
    """Exhaustive closure of a generator list; independent of the BSGS path."""
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


def _subgroup_key(elements):
    return tuple(sorted(g.images for g in elements))


def p_subgroup_class_reps(group: PermGroup, p: int):
    """Nontrivial subgroups of one Sylow p-subgroup, deduplicated by key.

    Every p-subgroup of the group is conjugate to one of these, so they are
    enough to survey stabilizer shapes Q ⋊ C.
    """
    syl = group.sylow_subgroup(p)
    if syl.is_trivial():
        return []
    elems = syl.elements()
    found = {}
    frontier = []
    for x in elems:
        if x.is_identity():
            continue
        sub = frozenset(closure_elements([x]))
        key = _subgroup_key(sub)
        if key not in found:
            found[key] = (sub, (x,))
            frontier.append((sub, (x,)))
    while frontier:
        sub, gens = frontier.pop()
        for x in elems:
            if x in sub:
                continue
            joined = frozenset(closure_elements(list(gens) + [x]))
            key = _subgroup_key(joined)
            if key not in found:
                new = (joined, tuple(list(gens) + [x]))
                found[key] = new
                frontier.append(new)
    reps = []
    for key in sorted(found):
        sub, gens = found[key]
        reps.append(PermGroup(list(gens), group.degree))
    return reps


def max_solvable_with_cyclic_complement(group: PermGroup, p: int) -> int:
    """Largest |Q|·|C| with Q a p-subgroup and C cyclic of coprime order in N(Q).

    Such Q ⋊ C subgroups are exactly the solvable subgroups whose Sylow
    p-subgroup is normal with a cyclic complement, the shape wild one-point
    stabilizers take.
    """
    best = 0
    for q_rep in p_subgroup_class_reps(group, p):
        normal = group.normalizer(q_rep)
        complement_orders = [1]
        for g in normal.elements():
            k = g.order()
            if gcd(k, p) == 1:
                complement_orders.append(k)
        best = max(best, q_rep.order() * max(complement_orders))
    return best


# -- generator files --------------------------------------------------------

DATA_ENV_VAR = "CURVEBOUND_DATA"
_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def parse_generator_file(text: str):
    """Parse a generator file: one cycle-notation permutation per line.

    Blank lines and ``#`` comments are skipped; an optional ``degree: n``
    header fixes the degree, otherwise the largest moved point is used.
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
    perms = [Permutation.parse(line) for line in raw]
    degree = max([degree] + [g.degree for g in perms])
    return [g.extended(degree) for g in perms], degree


def generator_file_path(name: str, data_dir=None) -> str:
    directory = data_dir or os.environ.get(DATA_ENV_VAR) or _DATA_DIR
    return os.path.join(directory, f"{name}.txt")


def load_group(name: str, data_dir=None) -> PermGroup:
    """Load and build a group from its generator file (``alt7`` or ``m11``)."""
    path = generator_file_path(name, data_dir)
    with open(path, encoding="ascii") as handle:
        gens, degree = parse_generator_file(handle.read())
    if not gens:
        raise ValueError(f"no generators in {path}")
    return PermGroup(gens, degree)
