"""Exact permutation-group engine: base and strong generating set certificates.

The certificate is built with a deterministic (non-randomized) Schreier-Sims
pass: a scan over all Schreier generators runs until every one of them sifts
to the identity, which is exactly the textbook criterion for the stabilizer
chain to be correct.  Order, membership, Sylow subgroups and solvability are
derived from the chain; point stabilizers, normalizers and subgroup class
sizes come from one orbit-stabilizer routine.  No group fact is ever read
from a table.

Groups are immutable once constructed and every operation is pure, so shared
instances are safe under concurrent use.  All scans run in sorted element
order, which makes every output bit-identical across runs.
"""

from __future__ import annotations

import os
from math import gcd

from .perm import DegreeMismatchError, Permutation

ELEMENT_SCAN_CAP = 10**7


class SizeCapExceededError(ValueError):
    """The operation refuses to run above its documented size cap."""


class _Level:
    """One stabilizer-chain level: a base point, its orbit and transversal."""

    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point):
        self.point = point
        self.gens = []
        self.transversal = {}

    def rebuild(self):
        # BFS in sorted order; transversal[c] maps self.point to c.
        ident = Permutation.identity(self.gens[0].degree) if self.gens else None
        self.transversal = {self.point: ident}
        frontier = [self.point]
        while frontier:
            frontier.sort()
            new = []
            for c in frontier:
                t = self.transversal[c]
                for g in self.gens:
                    d = g(c)
                    if d not in self.transversal:
                        self.transversal[d] = t * g
                        new.append(d)
            frontier = new


class PermGroup:
    """A finite permutation group with a verified BSGS certificate."""

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
        self.generators = tuple(sorted(set(g for g in generators if not g.is_identity())))
        self._levels = []
        self._strong = []
        self._elements = None
        self._class_reps = None
        self._build()
        self._order = 1
        for level in self._levels:
            self._order *= len(level.transversal)

    # -- construction ------------------------------------------------------

    def _build(self):
        for g in self.generators:
            self._insert(g)
        while True:
            residue = self._violating_schreier_residue()
            if residue is None:
                break
            self._insert(residue)

    def _insert(self, g):
        residue = self.sift(g)
        if residue.is_identity():
            return
        if all(residue(level.point) == level.point for level in self._levels):
            self._levels.append(_Level(residue.min_moved()))
        self._strong.append(residue)
        self._strong.sort()
        prefix_fixed = []
        for level in self._levels:
            level.gens = [s for s in self._strong if all(s(p) == p for p in prefix_fixed)]
            level.rebuild()
            prefix_fixed.append(level.point)

    def _violating_schreier_residue(self):
        for level in self._levels:
            for c in sorted(level.transversal):
                t = level.transversal[c]
                for g in level.gens:
                    u = level.transversal[g(c)]
                    residue = self.sift(t * g * u.inverse())
                    if not residue.is_identity():
                        return residue
        return None

    # -- certificate queries -----------------------------------------------

    def order(self) -> int:
        return self._order

    @property
    def base(self):
        return tuple(level.point for level in self._levels)

    @property
    def strong_generators(self):
        return tuple(self._strong)

    def sift(self, g: Permutation) -> Permutation:
        """Strip g through the stabilizer chain; identity iff g is a member."""
        if g.degree != self.degree:
            raise DegreeMismatchError(f"degree {g.degree} != group degree {self.degree}")
        for level in self._levels:
            c = g(level.point)
            t = level.transversal.get(c)
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
            for level in reversed(self._levels):
                elems = [h * t for h in elems for t in level.transversal.values()]
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
        _, stabilizer = self._orbit_stabilizer(point, lambda pt, g: g(pt))
        return stabilizer

    def _orbit_stabilizer(self, x, act):
        """Orbit of x under ``act(y, g)`` as a transversal, and its stabilizer.

        The orbit is found by BFS over the generators; ``transversal[y]``
        carries x to y.  By Schreier's lemma the elements t_y g t_act(y,g)^-1
        generate the stabilizer.  They are deduplicated and sorted, and one is
        kept only when it lies outside the group generated by those kept
        before it, so every run builds the same chain from few generators.
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
        gens = []
        stabilizer = PermGroup(gens, self.degree)
        for s in sorted(schreier):
            if s not in stabilizer:
                gens.append(s)
                stabilizer = PermGroup(gens, self.degree)
        return transversal, stabilizer

    # -- derived structure ---------------------------------------------------

    def normal_closure(self, seed_gens) -> "PermGroup":
        gens = sorted(set(seed_gens))
        closure = PermGroup(gens, self.degree)
        changed = True
        while changed:
            changed = False
            for n in list(gens):
                for g in self.generators:
                    c = n.conjugate(g)
                    if c not in closure:
                        gens.append(c)
                        closure = PermGroup(gens, self.degree)
                        changed = True
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
        if not self.is_abelian():
            return False
        return all(g.order() == p for g in self.elements() if not g.is_identity())

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
                if k > 1 and _is_p_power(k, p) and y not in current:
                    current = PermGroup(list(current.generators) + [y], self.degree)
                    break
            else:
                raise RuntimeError("sylow extension stalled")  # unreachable by Sylow theory
        return current

    def normalizer(self, subgroup: "PermGroup") -> "PermGroup":
        """N_G(H): the stabilizer of H's element set under conjugation."""
        _, stabilizer = self._conjugates_of(subgroup)
        return stabilizer

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
        return self._orbit_stabilizer(
            frozenset(subgroup.elements()),
            lambda elements, g: frozenset(h.conjugate(g) for h in elements),
        )


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


# -- module-level operation surface ---------------------------------------


def group_from_generators(gens, degree=None) -> PermGroup:
    """Group generated by ``gens``; an empty list gives the trivial group."""
    if not gens and degree is None:
        raise ValueError("degree required for the trivial group")
    return PermGroup(gens, degree)


def order(group: PermGroup) -> int:
    return group.order()


def is_member(group: PermGroup, x: Permutation) -> bool:
    return x in group


def is_solvable(group: PermGroup) -> bool:
    return group.is_solvable()


def sylow_subgroup(group: PermGroup, p: int) -> PermGroup:
    return group.sylow_subgroup(p)


def normalizer(group: PermGroup, subgroup: PermGroup) -> PermGroup:
    return group.normalizer(subgroup)


def element_order_set(group: PermGroup):
    if group.order() > ELEMENT_SCAN_CAP:
        raise SizeCapExceededError(f"order {group.order()} exceeds {ELEMENT_SCAN_CAP}")
    return group.element_order_set()


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


# -- p-subgroups ------------------------------------------------------------


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
