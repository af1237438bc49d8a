"""Exact permutation-group engine: stabilizer chains grown by Schreier's lemma.

Every group is one level of its own stabilizer chain: a base point, the
transversal of its orbit, and the point's stabilizer as a group again.  One
orbit routine serves the whole engine.  It runs a BFS over the generators,
extends a transversal in place and returns the Schreier generators of the
stabilizer that come from (point, generator) pairs it had not seen.  Adding
a generator extends the base point's orbit: the new generator is applied to
the old points and every generator to the new ones.  Each Schreier
generator that is not yet a member passes down to the stabilizer, so every
level generates exactly the stabilizer of its base point.  The stabilizer of
the base point is the next level, and that of another point of its orbit is
the next level conjugated by the transversal element that carries the base
point there: the conjugate's chain is read off level by level, and nothing
is sifted.  The stabilizers of other points, normalizers (stabilizers of an
element set under conjugation) and subgroup class sizes (orbit lengths) come
from the orbit routine; an orbit's stabilizer takes its Schreier generators
only until it reaches the order |G| / |orbit|.  Each conjugation orbit of
subgroups is computed once per group: the normalizer of any other point of
the orbit is the first one's conjugated chain.  The order is read off the
chain, and a membership test strips the element through it level by level,
stopping at the first image outside an orbit.  A Sylow subgroup grows by
the least p-element outside it that normalizes it, met in a walk of the
group's elements in sorted order that holds one path down a chain; the
p-subgroups inside it are chains grown one generator at a time, and
simplicity is decided by normal closures of elements of prime order in
Sylow centres.  No group fact is ever read from a table.  Element scans,
membership tests and orbits compose by ``bytes.translate`` (see ``perm``).
A chain keeps its entries and their inverse tables as plain ``bytes``, made
by translates of tables it already holds; only generators are ``Permutation``s.

A group's generators and chain are fixed once it is constructed.  Four
caches are filled on first use, and an entry once written never changes:
the sorted elements, the set of element orders, the Sylow subgroup of each
prime, and the normalizers by conjugation orbit.  A race can only compute
an entry twice, with equal results, so shared instances are safe under
concurrent use.  Generators are added in sorted order (a Sylow subgroup's in
growth order) and Schreier generators are taken sorted, which makes every
output bit-identical.
"""

from __future__ import annotations

import os
import re

from .arith import factorize
from .perm import DegreeMismatchError, Permutation, power

# One scan's peak by tracemalloc, per element of S9 at degree 9 and at degree 100: the sorted
# elements 80 and 168 B, the order walk 119 and 210 B, about degree + 110 B: 366 B at degree 256.
ELEMENT_SCAN_CAP = 2**30 // 406  # 2,644,684 elements: one group's scan stays under 1 GiB
_new = bytes.__new__  # a Permutation from images that are one by construction, without the check
_IDENTITY = bytes(range(256))  # a residue g of degree n is the identity iff it is a prefix of this
_blank = object.__new__  # _blank(PermGroup)._trivial(n): a new chain level, without __init__'s generator handling


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
        self._trivial(degree)
        for g in sorted(set(generators)):
            if g not in self:
                self._add(g)

    # -- construction ------------------------------------------------------

    def _trivial(self, degree):
        """Store the fields of the trivial group of this degree and return self."""
        self.degree = degree
        self.generators = ()
        self._moves = ()  # (generator, its table, its inverse's images) for each generator, in order
        self._base_point = None
        self._transversal = {}  # orbit point -> images of the element carrying the base point there
        self._inverses = {}  # orbit point -> that element's inverse table
        self._stabilizer = None
        self._order = 1
        self._elements = None
        self._order_set = None
        self._sylows = {}  # prime -> the Sylow subgroup grown for it
        self._normalizers = {}  # each subgroup element set met -> (t, N(H0)); see _orbit_entry
        return self

    def _add(self, g):
        """Extend the group by g, a permutation outside it.

        Only for a group no caller holds yet, so that returned groups stay
        immutable.  The base point's orbit is extended under g in place, and
        every new Schreier generator outside the stabilizer extends the
        stabilizer in turn.
        """
        self.generators += (g,)
        self._moves += ((g, g.table(), g.inverse_table()[: self.degree]),)
        if self._stabilizer is None:
            self._base_point = g.min_moved()
            self._stabilizer = _blank(PermGroup)._trivial(self.degree)
            self._transversal, self._inverses = self._root(self._base_point)
        for s in self._orbit(self._transversal, self._inverses, len(self.generators) - 1):
            if s not in self._stabilizer:
                self._stabilizer._add(_new(Permutation, s))
        self._order = len(self._transversal) * self._stabilizer._order

    def _root(self, x):
        """The transversal and inverse tables of the orbit {x}, to extend with ``_orbit``."""
        return {x: _IDENTITY[: self.degree]}, {x: _IDENTITY}

    def _orbit(self, transversal, inverses, seen=0, act=None):
        """Close an orbit in place under the generators; return the new Schreier generators.

        The generators act on points, or through ``act(y, g, table)``.  A new
        point z = y^g gets the images of t_z = t_y g and the table of its
        inverse g^-1 t_y^-1, one translate each.  The pairs of a point already in the
        orbit with one of the first ``seen`` generators were handled before:
        the old points meet only the later generators, and the BFS runs over
        every generator from each point it adds.  By Schreier's lemma the
        elements t_y g t_act(y,g)^-1 of all pairs generate the stabilizer of
        the root.  Those of the pairs handled here are returned as images,
        deduplicated, without the identity, and sorted.
        """
        moves, pad = self._moves, _IDENTITY[self.degree :]
        frontier, first = list(transversal), moves[seen:]
        schreier = set()
        while frontier:
            new = []
            for y in frontier:
                t, t_inverse = transversal[y], inverses[y]
                for g, table, g_inverse in first:
                    z = table[y] if act is None else act(y, g, table)
                    tg = t.translate(table)
                    inverse = inverses.get(z)
                    if inverse is None:
                        transversal[z] = tg
                        inverses[z] = g_inverse.translate(t_inverse) + pad
                        new.append(z)
                    else:
                        schreier.add(tg.translate(inverse))
            frontier, first = new, moves
        schreier.discard(_IDENTITY[: self.degree])
        return sorted(schreier)

    def _chain(self):
        """The levels of the stabilizer chain that have a base point, top first."""
        level = self
        while level._stabilizer is not None:
            yield level
            level = level._stabilizer

    # -- certificate queries -----------------------------------------------

    def order(self) -> int:
        return self._order

    def __contains__(self, g: Permutation) -> bool:
        """Strip g through the stabilizer chain: a member iff every level has its
        base point's image in the orbit and the residue is the identity."""
        if len(g) != self.degree:
            raise DegreeMismatchError(f"degree {len(g)} != group degree {self.degree}")
        level = self
        while level._stabilizer is not None:
            inverse = level._inverses.get(g[level._base_point])
            if inverse is None:
                return False
            g = g.translate(inverse)
            level = level._stabilizer
        return _IDENTITY.startswith(g)

    def __len__(self):
        return self._order

    def elements(self):
        """All elements, sorted; cached.  Refuses above the element-scan cap."""
        if self._elements is None:
            elems = sorted(self._products())
            for i, g in enumerate(elems):  # in place: each element's bytes go as its Permutation comes
                elems[i] = _new(Permutation, g)
            self._elements = tuple(elems)
        return self._elements

    def _products(self):
        """The images of every element, unsorted: one translate per element and level."""
        if self._order > ELEMENT_SCAN_CAP:
            raise SizeCapExceededError(f"order {self._order} exceeds {ELEMENT_SCAN_CAP}")
        elems, pad = [_IDENTITY[: self.degree]], _IDENTITY[self.degree :]
        for level in reversed(list(self._chain())):
            tables = [t + pad for t in level._transversal.values()]
            elems = [h.translate(table) for h in elems for table in tables]
        return elems

    def _walk_levels(self, p):
        """The levels of ``_sorted_walk(p)``, top first.  Refuses above the scan cap.

        Level k is the transversal of k in H_k: H_0 is the group, H_(k+1) the
        stabilizer of k in H_k, and a point H_k fixes has no level.  H_(k+1), the
        identity's identity child, is skipped when p does not divide its order.
        """
        if self._order > ELEMENT_SCAN_CAP:
            raise SizeCapExceededError(f"order {self._order} exceeds {ELEMENT_SCAN_CAP}")
        n, level, levels = self.degree, self, []
        for k in range(n):
            transversal, inverses = level._root(k)
            level._orbit(transversal, inverses)
            if len(transversal) > 1:
                level = level.point_stabilizer(k)
                levels.append((list(transversal.values()), _IDENTITY[:n] if level._order % p else None))
        return levels

    def _sorted_walk(self, p=1, levels=None):
        """The images of every element in sorted order, in memory linear in the degree.

        As H_k fixes every point below k, elements sort as their images of the
        levels' points.  Depth first, a post-map t stands for the elements H_k t,
        its children the products u t over level k, sorted.
        """
        levels, n, pad = levels or self._walk_levels(p), self.degree, _IDENTITY[self.degree :]
        paths = [iter([_IDENTITY[:n]])]  # paths[d]: the post-maps at depth d still to expand
        while paths:
            if len(paths) > len(levels):
                yield from paths.pop()
            elif (t := next(paths[-1], None)) is None:
                paths.pop()
            else:
                entries, skip = levels[len(paths) - 1]
                children = sorted([u.translate(t + pad) for u in entries])
                if skip in children:
                    children.remove(skip)
                paths.append(iter(children))

    def element_order_set(self):
        """Set of element orders, cached: the divisors of the orders of the cyclic subgroups
        walked by translates, each from an element no earlier walk met."""
        if self._order_set is None:
            elems, identity, pad = self._products(), _IDENTITY[: self.degree], _IDENTITY[self.degree :]
            uncovered, walked = set(elems), set()
            for g in elems:
                if g in uncovered:
                    x, table, k = g, g + pad, 1
                    while x != identity:
                        uncovered.discard(x)
                        x, k = x.translate(table), k + 1
                    walked.add(k)
            self._order_set = frozenset(d for k in walked for d in range(1, k + 1) if k % d == 0)
        return self._order_set

    def subgroup(self, gens) -> "PermGroup":
        gens = list(gens)
        for g in gens:
            if g not in self:
                raise ValueError("generator outside the group")
        return PermGroup(gens, self.degree)

    def point_stabilizer(self, point: int) -> "PermGroup":
        """Stabilizer of a point (0-based), refused outside 0..degree-1.

        For the base point b, the chain's next level.  For another point x of
        b's orbit, that level conjugated by the transversal element t that
        carries b to x: t^-1 G_b t = G_x.  Otherwise grown from x's orbit.
        """
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} outside 0..{self.degree - 1}")
        if point == self._base_point:
            return self._stabilizer
        t = self._transversal.get(point)
        if t is not None:
            return self._stabilizer._conjugated(t)
        transversal, inverses = self._root(point)
        return self._root_stabilizer(transversal, self._orbit(transversal, inverses))

    def _conjugated(self, t) -> "PermGroup":
        """t^-1 G t with its chain read off this one, nothing sifted.

        t^-1 G^(i) t is the pointwise stabilizer of t(b_0), ..., t(b_(i-1)) in
        t^-1 G t, so every level keeps its order: its base point b becomes
        t(b), and each entry, generator and inverse u becomes t^-1 u t, the
        images of t^-1 (made once) translated through u's table and t's.
        """
        n, pad = self.degree, _IDENTITY[self.degree :]
        t_table, t_inverse = t + pad, bytes.maketrans(t, _IDENTITY[:n])[:n]
        conjugate = top = _blank(PermGroup)._trivial(n)
        for level in self._chain():
            conjugate.generators = tuple(_new(Permutation, t_inverse.translate(table).translate(t_table))
                                         for _, table, _ in level._moves)
            conjugate._moves = tuple((g, g + pad, t_inverse.translate(inverse + pad).translate(t_table))
                                     for g, (_, _, inverse) in zip(conjugate.generators, level._moves))
            conjugate._base_point, conjugate._order = t[level._base_point], level._order
            conjugate._transversal = {t[x]: t_inverse.translate(u + pad).translate(t_table)
                                      for x, u in level._transversal.items()}
            conjugate._inverses = {t[x]: t_inverse.translate(u).translate(t_table) + pad
                                   for x, u in level._inverses.items()}
            conjugate._stabilizer = conjugate = _blank(PermGroup)._trivial(n)  # link the next level, then fill it
        return top

    def _root_stabilizer(self, transversal, schreier) -> "PermGroup":
        """The stabilizer of an orbit's root, from the orbit and its sorted Schreier generators.

        The group itself when the orbit is the root alone.  Otherwise the
        generators are added in order until the chain reaches the order
        |G| / |orbit|: after each ``_add`` the chain is complete for the group
        generated so far, and by Lagrange a subgroup of the stabilizer with
        the stabilizer's order is the whole stabilizer.
        """
        if len(transversal) == 1:
            return self
        order = self._order // len(transversal)
        stabilizer = _blank(PermGroup)._trivial(self.degree)
        for s in schreier:
            if stabilizer._order == order:
                break
            if s not in stabilizer:
                stabilizer._add(_new(Permutation, s))
        return stabilizer

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
        commutators = [a.inverse() * b.inverse() * a * b for a in self.generators for b in self.generators]
        return self.normal_closure([c for c in commutators if not c.is_identity()])

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
        At a composite order, a proper derived subgroup settles it at once.
        """
        primes = factorize(self._order)
        if not primes or (primes != ((self._order, 1),) and self.derived_subgroup()._order < self._order):
            return False
        for r, _ in primes:
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
        """A Sylow p-subgroup, grown deterministically along the group's sorted elements; cached.

        From the trivial group P, joins the least p-element of the group
        outside P that normalizes P (one exists until P is Sylow) until the
        p-part of the order is reached; trivial when p does not divide the
        order.  The candidates come from ``_sorted_walk`` over levels built once
        per call.  The generators come in growth order.
        """
        if p not in self._sylows:
            identity, p_part = _IDENTITY[: self.degree], p ** dict(factorize(self._order)).get(p, 0)
            sylow = _blank(PermGroup)._trivial(self.degree)
            levels = self._walk_levels(p) if p_part > 1 else None
            while sylow._order < p_part:
                sylow._add(_new(Permutation, next(
                    y for y in self._sorted_walk(p, levels) if power(y, p_part) == identity and y not in sylow
                    and all(h.conjugate(y) in sylow for h in sylow.generators))))
            self._sylows.setdefault(p, sylow)
        return self._sylows[p]

    def normalizer(self, subgroup: "PermGroup") -> "PermGroup":
        """N_G(H): the stabilizer of H's element set under conjugation.

        The group itself when H is normal; otherwise t^-1 N(H0) t, where the
        conjugation orbit of H was found from H0 and t carries H0 to H.
        """
        t, root = self._orbit_entry(subgroup)
        return root if _IDENTITY.startswith(t) else root._conjugated(t)

    def conjugacy_class_size_of_subgroup(self, subgroup: "PermGroup") -> int:
        """Number of G-conjugates of H: |G| / |N_G(H)|, its conjugation-orbit length."""
        return self._order // self._orbit_entry(subgroup)[1]._order

    def _orbit_entry(self, subgroup):
        """(t, N(H0)) with H = t^-1 H0 t, H0 the first subgroup of H's conjugation orbit met."""
        key = frozenset(subgroup.elements())
        if key not in self._normalizers:
            transversal, schreier = self._conjugates_of(subgroup)
            root = self._root_stabilizer(transversal, schreier)
            for conjugate, t in transversal.items():
                self._normalizers[conjugate] = (t, root)
        return self._normalizers[key]

    def _conjugates_of(self, subgroup):
        if subgroup.degree != self.degree:
            raise DegreeMismatchError("subgroup degree differs")
        for h in subgroup.generators:
            if h not in self:
                raise ValueError("not a subgroup: generator outside the group")
        transversal, inverses = self._root(frozenset(subgroup.elements()))
        # g^-1 h g sends g(i) to g(h(i)); the conjugates stay plain bytes, equal to the Permutations
        schreier = self._orbit(transversal, inverses, act=lambda elements, g, table: frozenset(
            bytes.maketrans(g, h.translate(table))[: self.degree] for h in elements))
        return transversal, schreier


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
    frontier = [_blank(PermGroup)._trivial(group.degree)]
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
    """The group of a generator file (``alt7`` or ``m11``), built afresh on each call
    from the file ``generator_file_path`` names, so ``CURVEBOUND_DATA`` is read every time."""
    with open(generator_file_path(name), encoding="ascii") as handle:
        return PermGroup(*parse_generator_file(handle.read()))
