"""Engine checks backed by exhaustive-closure oracles on small groups."""

import math
import random
import time

import pytest
from oracles import base, is_solvable, strong_generators

from curvebound.classical import family_order, group_facts
from curvebound.cli import cmd_group_audit
from curvebound.fppoly import factorize
from curvebound.perm import DegreeMismatchError, Permutation
from curvebound.permgroup import (
    ELEMENT_SCAN_CAP,
    PermGroup,
    SizeCapExceededError,
    closure_elements,
    load_group,
    p_subgroup_class_reps,
    parse_generator_file,
)


IDENTITY_TABLE = bytes(range(256))


def sym(n):
    return PermGroup([Permutation.parse("(1,2)", n), Permutation.parse(f"({','.join(str(i) for i in range(1, n + 1))})", n)])


def brute_derived_series_solvable(group):
    """Oracle: derived series through full element-set commutator closures."""
    elements = set(group.elements())
    degree = group.degree
    while len(elements) > 1:
        commutators = {a.inverse() * b.inverse() * a * b for a in elements for b in elements}
        derived = closure_elements(sorted(commutators), degree)
        if len(derived) == len(elements):
            return False
        elements = derived
    return True


def test_trivial_group():
    g = PermGroup([], degree=7)
    assert g.order() == 1
    assert Permutation.identity(7) in g
    assert g.element_order_set() == {1}


def test_three_cycle_generators_give_alt7():
    gens = [Permutation.from_cycles([(1, 2, k)], 7) for k in range(3, 8)]
    group = PermGroup(gens)
    assert group.order() == 2520


def test_order_matches_closure_oracle_random_small():
    rng = random.Random(7)
    degree = 5
    all_perms = [Permutation(p) for p in __import__("itertools").permutations(range(degree))]
    for _ in range(12):
        gens = rng.sample(all_perms, 2)
        group = PermGroup(gens, degree)
        assert group.order() == len(closure_elements(gens, degree))


def test_order_matches_closure_oracle_degree_eight():
    cases = [
        [Permutation.parse("(1,2,3,4,5,6,7,8)"), Permutation.parse("(1,2)", 8)],  # sym8 too big: cap below
        [Permutation.parse("(1,2,3,4)(5,6,7,8)"), Permutation.parse("(1,5)(2,6)(3,7)(4,8)")],
        [Permutation.parse("(1,2,3)(4,5,6)", 8), Permutation.parse("(3,4)(7,8)")],
    ]
    for gens in cases[1:]:
        group = PermGroup(gens, 8)
        closure = closure_elements(gens, 8)
        assert group.order() == len(closure) <= 5040


def test_membership_agrees_with_closure_on_sym6_subgroup():
    gens = [Permutation.parse("(1,2,3)", 6), Permutation.parse("(4,5,6)", 6), Permutation.parse("(1,4)(2,5)(3,6)", 6)]
    group = PermGroup(gens, 6)
    closure = closure_elements(gens, 6)
    assert group.order() == len(closure)
    from itertools import permutations

    for images in permutations(range(6)):
        x = Permutation(images)
        assert (x in group) == (x in closure)


def test_membership_rejects_degree_mismatch():
    group = sym(4)
    with pytest.raises(DegreeMismatchError):
        Permutation.parse("(1,2)", 5) in group


def test_parity_membership(alt7):
    assert Permutation.parse("(1,2)", 7) not in alt7
    assert Permutation.parse("(1,2,3)", 7) in alt7
    assert Permutation.identity(7) in alt7


def test_random_products_are_members(alt7):
    rng = random.Random(11)
    gens = list(alt7.generators)
    for _ in range(20):
        word = [rng.choice(gens) for _ in range(rng.randint(1, 8))]
        x = Permutation.identity(7)
        for w in word:
            x = x * w
        assert x in alt7


def test_order_product_of_orbit_lengths(m11):
    levels = list(m11._chain())
    assert [level._base_point for level in levels] == list(base(m11))
    # M11 is sharply 4-transitive on 11 points.
    assert [len(level._transversal) for level in levels] == [11, 10, 9, 8]
    for level in levels:
        assert all(s(level._base_point) == level._base_point for s in level._stabilizer.generators)
        assert level.order() == len(level._transversal) * level._stabilizer.order()
    assert m11.order() == 11 * 10 * 9 * 8 == 7920
    assert levels[-1]._stabilizer.order() == 1


def test_is_solvable_against_derived_oracle(alt7):
    c7c3 = alt7.normalizer(alt7.sylow_subgroup(7))
    assert c7c3.order() == 21
    assert is_solvable(c7c3)
    assert brute_derived_series_solvable(c7c3)

    s4 = sym(4)
    assert is_solvable(s4) == brute_derived_series_solvable(s4) is True

    a5 = PermGroup([Permutation.parse("(1,2,3)", 5), Permutation.parse("(3,4,5)", 5)])
    assert not is_solvable(a5)
    assert not brute_derived_series_solvable(a5)
    assert not is_solvable(alt7)
    assert is_solvable(PermGroup([], degree=3))


def test_element_order_set_closed_under_divisors(m11, alt7):
    for group in (m11, alt7, sym(4)):
        orders = group.element_order_set()
        for n in orders:
            for d in range(1, n + 1):
                if n % d == 0:
                    assert d in orders


def normalizer_walk_sylow(group, p):
    """Reference: from the trivial group, join the least p-element of the current
    subgroup's normalizer outside it, rebuilding the normalizer at every stage."""
    p_part = p ** dict(factorize(group.order())).get(p, 0)
    current = PermGroup([], group.degree)
    while current.order() < p_part:
        y = next(y for y in group.normalizer(current).elements()
                 if p_part % y.order() == 0 and y not in current)
        current = PermGroup(current.generators + (y,), group.degree)
    return current


def test_sylow_divides_and_is_full_p_part(alt7, m11):
    for group, primes in ((alt7, (2, 3, 5, 7)), (m11, (2, 3, 5, 11))):
        for p in primes:
            syl = group.sylow_subgroup(p)
            assert syl.elements() == normalizer_walk_sylow(group, p).elements()
            order = group.order()
            p_part = 1
            while order % p == 0:
                p_part *= p
                order //= p
            assert syl.order() == p_part
            assert group.order() % syl.order() == 0


def test_sylow_of_trivial_and_nondividing():
    s4 = sym(4)
    assert s4.sylow_subgroup(5).order() == 1
    assert PermGroup([], degree=4).sylow_subgroup(3).order() == 1


def test_normalizer_contains_subgroup_and_index_is_class_size(alt7):
    syl = alt7.sylow_subgroup(7)
    normal = alt7.normalizer(syl)
    for g in syl.generators:
        assert g in normal
    # A7 has 120 Sylow 7-subgroups: 720 elements of order 7, six to each
    assert alt7.order() // normal.order() == 120


def test_normalizer_of_whole_group(alt7):
    assert alt7.normalizer(alt7).order() == alt7.order()


def test_normalizer_rejects_non_subgroup():
    s4 = sym(4)
    outside = PermGroup([Permutation.parse("(1,2,3,4,5)", 5)])
    with pytest.raises((ValueError, DegreeMismatchError)):
        s4.normalizer(outside)


def brute_normalizer(closure, subgroup):
    """Oracle: N_G(H) as the elements of the exhaustive closure of G that conjugate H into itself."""
    h_set = set(subgroup.elements())
    return {g for g in closure if all(h.conjugate(g) in h_set for h in subgroup.generators)}


def check_normalizers_against_brute_scan(group):
    """Every p-subgroup from ``p_subgroup_class_reps``, at every prime, against the brute scan."""
    closure = closure_elements(list(group.generators), group.degree)
    for p, _ in factorize(group.order()):
        for sub in [group.sylow_subgroup(p)] + p_subgroup_class_reps(group, p):
            normalizer = group.normalizer(sub)
            assert set(normalizer.elements()) == brute_normalizer(closure, sub)


@pytest.mark.parametrize("name", ["alt7", "m11"])
def test_normalizer_against_brute_scan(name, request):
    check_normalizers_against_brute_scan(request.getfixturevalue(name))


@pytest.mark.parametrize("name", ["alt7", "m11"])
def test_normalizer_of_a_conjugate_does_not_depend_on_the_cache(name, request):
    """N(H) and N(H^g) are the same groups whichever of the two is asked for first."""
    group = request.getfixturevalue(name)
    for p, _ in factorize(group.order()):
        sub = p_subgroup_class_reps(group, p)[0]
        g = next(g for g in group.elements() if any(h.conjugate(g) not in sub for h in sub.generators))
        conj = group.subgroup([h.conjugate(g) for h in sub.generators])
        first, second = PermGroup(group.generators), PermGroup(group.generators)
        sub_first, conj_cached = first.normalizer(sub), first.normalizer(conj)
        conj_first, sub_cached = second.normalizer(conj), second.normalizer(sub)
        assert sub_first.elements() == sub_cached.elements()
        assert conj_first.elements() == conj_cached.elements()
        assert set(conj_first.elements()) == {n.conjugate(g) for n in sub_first.elements()}


def test_each_conjugation_orbit_is_computed_once(monkeypatch):
    """group-audit m11 meets 4 orbits of subgroups and the M11 facts at p = 3 meet 2."""
    calls = []
    conjugates_of = PermGroup._conjugates_of
    monkeypatch.setattr(PermGroup, "_conjugates_of", lambda self, sub: calls.append(sub) or conjugates_of(self, sub))
    cmd_group_audit("m11")
    assert len(calls) == 4
    calls.clear()
    group_facts(load_group("m11"), 3)
    assert len(calls) == 2


def test_normalizer_of_a_normal_subgroup_is_the_group(alt7):
    assert alt7.normalizer(alt7) is alt7
    s4 = sym(4)
    v4 = s4.subgroup([Permutation.parse("(1,2)(3,4)", 4), Permutation.parse("(1,3)(2,4)", 4)])
    assert s4.normalizer(v4) is s4


S4_SUBGROUPS = [
    pytest.param(["(1,2)"], 6, id="C2-transposition"),
    pytest.param(["(1,2)(3,4)"], 3, id="C2-double-transposition"),
    pytest.param(["(1,2,3)"], 4, id="C3"),
    pytest.param(["(1,2)(3,4)", "(1,3)(2,4)"], 1, id="V4-normal"),
    pytest.param(["(1,2)", "(3,4)"], 3, id="V4-nonnormal"),
    pytest.param(["(1,2,3,4)"], 3, id="C4"),
    pytest.param(["(1,2,3,4)", "(1,3)"], 3, id="D8"),
]


@pytest.mark.parametrize("gens, size", S4_SUBGROUPS)
def test_conjugacy_class_size_of_subgroup_sym4(gens, size):
    s4 = sym(4)
    sub = s4.subgroup([Permutation.parse(g, 4) for g in gens])
    assert s4.order() // s4.normalizer(sub).order() == size


@pytest.mark.parametrize("name", ["alt7", "m11", "sym4", "sym5", "sym6"])
def test_orders_and_point_stabilizers_against_sympy(name, request):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    group = sym(int(name[3:])) if name.startswith("sym") else request.getfixturevalue(name)
    other = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g)) for g in group.generators]
    )
    assert group.order() == other.order()
    for i in range(group.degree):
        assert group.point_stabilizer(i).order() == other.stabilizer(i).order()


def max_solvable_with_cyclic_complement(group, p):
    """The largest |Q||C| over the wild catalog, the value group-audit checks."""
    return max(q * e for q, e in group_facts(group, p).wild_catalog)


def test_max_solvable_with_cyclic_complement(alt7, m11):
    assert max_solvable_with_cyclic_complement(alt7, 3) == 36
    assert max_solvable_with_cyclic_complement(alt7, 5) == 20
    assert max_solvable_with_cyclic_complement(alt7, 7) == 21
    assert max_solvable_with_cyclic_complement(m11, 3) == 72
    assert max_solvable_with_cyclic_complement(m11, 5) == 20
    assert max_solvable_with_cyclic_complement(m11, 11) == 55


def test_p_subgroup_reps_inside_one_sylow(m11):
    reps = p_subgroup_class_reps(m11, 3)
    orders = sorted(r.order() for r in reps)
    assert orders == [3, 3, 3, 3, 9]


def test_deterministic_rebuild(alt7):
    again = PermGroup(list(alt7.generators), 7)
    assert base(again) == base(alt7)
    assert strong_generators(again) == strong_generators(alt7)
    assert tuple(again.elements()) == tuple(alt7.elements())


def test_generator_file_parsing():
    text = """
    # a comment
    degree: 8

    (1,2,3)
    (4 5)(6,7)
    """
    gens, degree = parse_generator_file(text)
    assert degree == 8
    assert len(gens) == 2
    assert all(g.degree == 8 for g in gens)


def _random_small_generators(rng, n):
    """One to three random generators of degree n of a group of order at most 5040.

    Either they permute the points inside the blocks of a random partition
    into parts of at most four points, or they preserve a random system of
    equal blocks, permuting the blocks among themselves (wreath products).
    """
    points = list(range(n))
    rng.shuffle(points)
    gens = []
    if rng.random() < 0.5:
        blocks = []
        while points:
            size = rng.randint(1, min(4, len(points)))
            blocks.append(points[:size])
            points = points[size:]
        for _ in range(rng.randint(1, 3)):
            images = list(range(n))
            for block in blocks:
                for a, b in zip(block, rng.sample(block, len(block))):
                    images[a] = b
            gens.append(Permutation(images))
        return gens
    sizes = [b for b in range(1, n + 1) if n % b == 0 and _wreath_order(b, n // b) <= 5040]
    b = rng.choice(sizes)
    blocks = [points[i:i + b] for i in range(0, n, b)]
    for _ in range(rng.randint(1, 3)):
        images = list(range(n))
        for block, target in zip(blocks, rng.sample(blocks, len(blocks))):
            for a, c in zip(block, rng.sample(target, b)):
                images[a] = c
        gens.append(Permutation(images))
    return gens


def _wreath_order(b, k):
    return math.factorial(b) ** k * math.factorial(k)


RANDOM_SETS = [
    pytest.param(_random_small_generators(random.Random(1000 * n + i), n), id=f"deg{n}-{i}")
    for n in range(2, 11)
    for i in range(4)
]


def check_chain_against_closure(group, closure, probes):
    """Order, elements and membership as the closure's, and every level the stabilizer of its base point."""
    assert group.order() == len(closure)
    assert set(group.elements()) == closure
    for x in probes:
        assert (x in group) == (x in closure)
    level = group
    for point in base(group):
        assert level._base_point == point
        assert set(level._stabilizer.elements()) == {x for x in level.elements() if x(point) == point}
        assert level._inverses.keys() == level._transversal.keys()
        for y, t in level._transversal.items():
            assert t[point] == y
            assert t.translate(level._inverses[y]) == Permutation.identity(group.degree)
            assert (t + IDENTITY_TABLE[group.degree :]).translate(level._inverses[y]) == IDENTITY_TABLE
        assert [g for g, _, _ in level._moves] == list(level.generators)
        for g, table, inverse in level._moves:
            assert table == g.table()
            assert g.translate(inverse + IDENTITY_TABLE[group.degree :]) == Permutation.identity(group.degree)
            assert inverse.translate(table) == Permutation.identity(group.degree)
        level = level._stabilizer
    assert level.order() == 1


@pytest.mark.parametrize("gens", RANDOM_SETS)
def test_random_groups_against_closure(gens):
    n = gens[0].degree
    group = PermGroup(gens, n)
    closure = closure_elements(gens, n)
    assert all(g in group for g in gens)
    assert set(group.generators) <= set(gens)
    rng = random.Random(n)
    check_chain_against_closure(group, closure, [Permutation(rng.sample(range(n), n)) for _ in range(200)])


def grown_one_at_a_time(sequence, degree):
    """A chain grown through ``_add`` by every permutation of the sequence outside it, in order."""
    grown = PermGroup([], degree)
    for g in sequence:
        if g not in grown:
            grown._add(g)
    return grown


def check_grown_against_built(gens, prefix, seed):
    """Grow ⟨gens⟩ by the members in ``prefix``, then the generators; compare with the group built at once."""
    n = gens[0].degree
    closure = closure_elements(gens, n)
    grown, built = grown_one_at_a_time(list(prefix) + list(gens), n), PermGroup(gens, n)
    rng = random.Random(seed)
    members = sorted(closure)
    probes = [Permutation(rng.sample(range(n), n)) for _ in range(100)] + rng.sample(members, min(100, len(members)))
    check_chain_against_closure(grown, closure, probes)
    assert grown.order() == built.order()
    assert grown.elements() == built.elements()
    assert [x in grown for x in probes] == [x in built for x in probes]
    return grown


@pytest.mark.parametrize("gens", RANDOM_SETS)
def test_chain_grown_one_generator_at_a_time(gens):
    n = gens[0].degree
    rng = random.Random(n)
    prefix = [rng.choice(sorted(closure_elements(gens, n))) for _ in range(6)]
    check_grown_against_built(gens, prefix, n)


@pytest.mark.parametrize("name", ["alt7", "m11"])
def test_sporadic_chain_grown_one_generator_at_a_time(name, request):
    # Sylow growth order: each of these generators extends the chain by a little.
    group = request.getfixturevalue(name)
    prefix = [g for p in (2, 3, 5) for g in group.sylow_subgroup(p).generators]
    grown = check_grown_against_built(list(group.generators), prefix, 19)
    assert len(grown.generators) > len(group.generators) + 2


def test_later_generator_moving_a_point_below_the_base_point():
    # ⟨(4,5,6)⟩ has base point 3 (0-based); (1,4) and then (2,3) move points below it.
    sequence = [_cycle((4, 5, 6), 6), _cycle((1, 4), 6), _cycle((2, 3), 6)]
    grown = grown_one_at_a_time(sequence, 6)
    assert grown.generators == tuple(sequence)
    assert base(grown)[0] == 3 > min(base(grown))
    assert sequence[1].min_moved() == 0 and sequence[2].min_moved() == 1
    closure = closure_elements(sequence, 6)
    assert len(closure) == 24 * 2
    rng = random.Random(6)
    check_chain_against_closure(grown, closure, [Permutation(rng.sample(range(6), 6)) for _ in range(200)])
    assert grown.elements() == PermGroup(sequence, 6).elements()


def orbit_of(group, point):
    """Oracle: the orbit of a point under the generators, by a BFS over their images."""
    orbit, frontier = {point}, [point]
    while frontier:
        frontier = [g(y) for y in frontier for g in group.generators if g(y) not in orbit]
        orbit.update(frontier)
    return orbit


def check_point_stabilizers(group):
    """Every point's stabilizer against a fresh Schreier–Sims build from that point's own orbit.

    The base point's stabilizer is the chain's next level and a point the
    group fixes has the group itself; at every point the stabilizer's order
    times the orbit's length is |G|.
    """
    for point in range(group.degree):
        stab = group.point_stabilizer(point)
        fresh = PermGroup(map(Permutation, group._orbit(*group._root(point))), group.degree)
        orbit = orbit_of(group, point)
        assert stab.order() == fresh.order()
        assert stab.order() * len(orbit) == group.order()
        assert stab.elements() == fresh.elements()
        assert (stab is group._stabilizer) == (point == group._base_point)
        assert (stab is group) == (len(orbit) == 1)
        assert (stab is group.point_stabilizer(point)) == (point == group._base_point or len(orbit) == 1)


def check_conjugated_chains(group, seed):
    """The stabilizer of every point (conjugated from the chain on the base orbit, grown by
    ``_root_stabilizer`` off it), and the normalizer of every conjugate of one Sylow
    subgroup, are full chains: checked against the closure of G and 200 strangers."""
    closure = closure_elements(list(group.generators), group.degree)
    rng = random.Random(seed)
    strangers = [Permutation(rng.sample(range(group.degree), group.degree)) for _ in range(200)]
    for x in range(group.degree):
        expected = {g for g in closure if g(x) == x}
        check_chain_against_closure(group.point_stabilizer(x), expected, sorted(expected) + strangers)
    for p, _ in factorize(group.order())[-1:]:  # the largest prime; none for the trivial group
        sylow = group.sylow_subgroup(p)
        conjugates = {}
        for g in sorted(closure):
            conjugates.setdefault(frozenset(h.conjugate(g) for h in sylow.elements()), g)
        assert len(conjugates) == group.order() // group.normalizer(sylow).order()
        for g in conjugates.values():
            sub = group.subgroup([h.conjugate(g) for h in sylow.generators])
            expected = brute_normalizer(closure, sub)
            check_chain_against_closure(group.normalizer(sub), expected, sorted(expected) + strangers)


@pytest.mark.parametrize("gens", RANDOM_SETS)
def test_point_stabilizers_random_groups(gens):
    check_point_stabilizers(PermGroup(gens, gens[0].degree))


@pytest.mark.parametrize("name", ["alt7", "m11"])
def test_point_stabilizers_sporadic(name, request):
    group = request.getfixturevalue(name)
    assert group.point_stabilizer(group._base_point) is group._stabilizer
    check_point_stabilizers(group)


@pytest.mark.parametrize("gens", RANDOM_SETS)
def test_conjugated_chains_random_groups(gens):
    check_conjugated_chains(PermGroup(gens, gens[0].degree), gens[0].degree)


@pytest.mark.parametrize("name", ["alt7", "m11"])
def test_conjugated_chains_sporadic(name, request):
    check_conjugated_chains(request.getfixturevalue(name), 25)


@pytest.mark.parametrize("name", ["alt7", "m11"])
def test_conjugated_chains_run_no_orbit_and_sift_nothing(name, monkeypatch):
    group = load_group(name)
    sylow = group.sylow_subgroup(max(p for p, _ in factorize(group.order())))
    g = next(g for g in group.elements() if any(h.conjugate(g) not in sylow for h in sylow.generators))
    conj = group.subgroup([h.conjugate(g) for h in sylow.generators])
    root = group.normalizer(sylow)
    calls = []
    for method in ("_orbit", "_add", "__contains__"):
        original = getattr(PermGroup, method)
        monkeypatch.setattr(PermGroup, method, lambda self, *args, original=original, method=method:
                            calls.append(method) or original(self, *args))
    stabilizers = {x: group.point_stabilizer(x) for x in group._transversal}
    normalizer = group.normalizer(conj)
    assert calls == []
    assert group._normalizers[frozenset(conj.elements())][0] != Permutation.identity(group.degree)
    assert normalizer.order() == root.order()
    assert all(stab.order() * len(group._transversal) == group.order() for stab in stabilizers.values())


STANDARD_GENERATORS = {"alt7": ["(1,2,3)", "(1,2,3,4,5,6,7)"],
                       "m11": ["(1,2,3,4,5,6,7,8,9,10,11)", "(3,7,11,8)(4,10,5,6)"]}


@pytest.mark.parametrize("name", ["alt7", "m11"])
def test_whole_group_from_generators_conjugated_by_a_random_word(name, request):
    """The shape of the benchmark's whole-group builds: ``subgroup()`` of the standard
    generators conjugated by a random word of 4 to 10 letters in them and their inverses."""
    parent = request.getfixturevalue(name)
    n = parent.degree
    gens = [Permutation.parse(g, n) for g in STANDARD_GENERATORS[name]]
    letters = gens + [g.inverse() for g in gens]
    rng = random.Random(30)
    for _ in range(4):
        w = Permutation.identity(n)
        for _ in range(rng.randint(4, 10)):
            w = w * rng.choice(letters)
        group = parent.subgroup([g.conjugate(w) for g in gens])
        assert group.order() == parent.order()
        assert group.elements() == parent.elements()
        for x in range(n):
            stab = group.point_stabilizer(x)
            assert stab.order() == parent.order() // len(orbit_of(group, x))
            assert set(stab.elements()) == {g for g in parent.elements() if g[x] == x}


@pytest.mark.parametrize("point", [11, 99, -1, 300])
def test_point_stabilizer_refuses_points_outside_the_degree(m11, point):
    # Past the degree, the 256-byte tables read as the identity: every generator would fix the point.
    with pytest.raises(ValueError):
        m11.point_stabilizer(point)


@pytest.mark.parametrize("gens", RANDOM_SETS)
def test_normalizer_against_brute_scan_random_groups(gens):
    check_normalizers_against_brute_scan(PermGroup(gens, gens[0].degree))


@pytest.mark.parametrize("gens", RANDOM_SETS)
def test_random_groups_against_sympy(gens):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    n = gens[0].degree
    group = PermGroup(gens, n)
    other = combinatorics.PermutationGroup([combinatorics.Permutation(list(g)) for g in gens])
    assert group.order() == other.order()
    for i in range(n):
        assert group.point_stabilizer(i).order() == other.stabilizer(i).order()


def _cycle(points, n):
    return Permutation.parse("(" + ",".join(str(i) for i in points) + ")", n)


M24_GENERATORS = [
    "(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23)",
    "(3,17,10,7,9)(4,13,14,19,5)(8,18,11,12,23)(15,20,22,21,16)",
    "(1,24)(2,23)(3,12)(4,16)(5,18)(6,10)(7,20)(8,14)(9,21)(11,17)(13,22)(15,19)",
]


@pytest.mark.parametrize("name, gens, order, depth", [
    pytest.param("S16", [_cycle((1, 2), 16), _cycle(range(1, 17), 16)], math.factorial(16), 15, id="S16"),
    pytest.param("A16", [_cycle((1, 2, 3), 16), _cycle(range(2, 17), 16)], math.factorial(16) // 2, 14,
                 id="A16"),
    pytest.param("M24", [Permutation.parse(g, 24) for g in M24_GENERATORS], 244823040, 7, id="M24"),
])
def test_large_group_orders(name, gens, order, depth):
    group = PermGroup(gens)
    assert group.order() == order
    assert len(base(group)) == depth
    assert all(g in group for g in gens)
    assert (_cycle((1, 2), gens[0].degree) in group) == (name == "S16")


def brute_is_simple(group):
    """Oracle: nontrivial, and the full conjugacy class of every x != 1 generates the group."""
    elements = closure_elements(list(group.generators), group.degree)
    remaining = {x for x in elements if not x.is_identity()}
    if not remaining:
        return False
    while remaining:
        x = min(remaining)
        conjugates = {x.conjugate(g) for g in elements}
        if len(closure_elements(sorted(conjugates), group.degree)) != len(elements):
            return False
        remaining -= conjugates
    return True


NAMED_GROUPS = [
    pytest.param([], 3, 1, False, id="trivial"),
    pytest.param(["(1,2)"], 2, 2, True, id="C2"),
    pytest.param(["(1,2,3)"], 3, 3, True, id="C3"),
    pytest.param(["(1,2,3,4)"], 4, 4, False, id="C4"),
    pytest.param(["(1,2,3,4,5)"], 5, 5, True, id="C5"),
    pytest.param(["(1,2,3,4,5,6,7,8,9)"], 9, 9, False, id="C9"),
    pytest.param(["(1,2,3)", "(4,5,6)"], 6, 9, False, id="C3xC3"),
    pytest.param(["(1,2)(3,4)", "(1,3)(2,4)"], 4, 4, False, id="V4"),
    pytest.param(["(1,2)", "(1,2,3)"], 3, 6, False, id="S3"),
    pytest.param(["(1,2,3)", "(2,3,4)"], 4, 12, False, id="A4"),
    pytest.param(["(1,2,3,4)", "(1,3)"], 4, 8, False, id="D8"),
    pytest.param(["(1,2)", "(1,2,3,4)"], 4, 24, False, id="S4"),
    pytest.param(["(1,2,3)", "(3,4,5)"], 5, 60, True, id="A5"),
    pytest.param(["(1,2)", "(1,2,3,4,5)"], 5, 120, False, id="S5"),
    pytest.param(["(1,2,3)", "(2,3,4,5,6)"], 6, 360, True, id="A6"),
    pytest.param(["(1,2,3)", "(3,4,5)", "(6,7)"], 7, 120, False, id="A5xC2"),
    pytest.param(["(1,2,3,4,5,6,7)", "(2,3)(4,7)"], 7, 168, True, id="PSL27"),
]


@pytest.mark.parametrize("gens, degree, order, simple", NAMED_GROUPS)
def test_is_simple_named_groups(gens, degree, order, simple):
    group = PermGroup([Permutation.parse(g, degree) for g in gens], degree)
    assert group.order() == order
    assert group.is_simple() == brute_is_simple(group) == simple


@pytest.mark.parametrize("n", [3, 4, 5, 6, 12])
def test_is_simple_stops_at_a_proper_derived_subgroup(n):
    # S_12 lies far above the element-scan cap, so it has to be settled before any Sylow growth.
    assert sym(n).is_simple() is False
    assert sym(n).derived_subgroup().order() == math.factorial(n) // 2


def test_element_scans_refuse_above_the_cap_at_once():
    s12 = sym(12)
    assert s12.order() == math.factorial(12) > ELEMENT_SCAN_CAP
    start = time.perf_counter()
    for scan in (s12.elements, s12.element_order_set, lambda: s12.sylow_subgroup(2)):
        with pytest.raises(SizeCapExceededError):
            scan()
    assert time.perf_counter() - start < 0.2


@pytest.mark.parametrize("gens", [p for p in RANDOM_SETS if PermGroup(p.values[0]).order() <= 720])
def test_is_simple_random_groups(gens):
    group = PermGroup(gens, gens[0].degree)
    assert group.is_simple() == brute_is_simple(group)


def brute_p_subgroups(sylow):
    """Oracle: the cyclic subgroups of a Sylow subgroup closed under joins, by exhaustive closure."""
    elements = [x for x in sylow.elements() if not x.is_identity()]
    found = set()
    frontier = [(frozenset([Permutation.identity(sylow.degree)]), [])]
    while frontier:
        sub, gens = frontier.pop()
        for x in elements:
            if x not in sub:
                joined = frozenset(closure_elements(gens + [x], sylow.degree))
                if joined not in found:
                    found.add(joined)
                    frontier.append((joined, gens + [x]))
    return found


@pytest.mark.parametrize("gens", RANDOM_SETS)
def test_sylow_and_p_subgroups_random_groups(gens):
    group = PermGroup(gens, gens[0].degree)
    for p, k in factorize(group.order()):
        sylow = group.sylow_subgroup(p)
        assert sylow.order() == p**k
        assert sylow.elements() == normalizer_walk_sylow(group, p).elements()
        assert all(g in group for g in sylow.generators)
        reps = p_subgroup_class_reps(group, p)
        keys = [q.elements() for q in reps]
        assert keys == sorted(set(keys))
        assert {frozenset(key) for key in keys} == brute_p_subgroups(sylow)


WALKED_GROUPS = RANDOM_SETS + [
    pytest.param("alt7", id="alt7"),
    pytest.param("m11", id="m11"),
    pytest.param([Permutation.parse("(2,3,4)", 6), Permutation.parse("(3,4,5,6)", 6)], id="fixes-point-1"),
    pytest.param([], id="trivial"),
]


def _walked_group(gens):
    return load_group(gens) if isinstance(gens, str) else PermGroup(gens, gens[0].degree if gens else 5)


@pytest.mark.parametrize("gens", WALKED_GROUPS)
def test_sorted_walk_is_the_sorted_elements(gens):
    group = _walked_group(gens)
    walked = list(group._sorted_walk())
    assert all(type(y) is bytes for y in walked)
    assert walked == [bytes(x) for x in group.elements()]


@pytest.mark.parametrize("gens", WALKED_GROUPS)
def test_pruned_walk_skips_only_elements_of_order_prime_to_p(gens):
    group = _walked_group(gens)
    for p, _ in factorize(group.order()):
        walked = list(group._sorted_walk(p))
        assert walked == sorted(walked)
        kept = set(walked)
        assert all(math.gcd(x.order(), p) == 1 for x in group.elements() if x not in kept)


@pytest.mark.parametrize("gens", RANDOM_SETS)
def test_element_order_set_against_closure(gens):
    group = PermGroup(gens, gens[0].degree)
    assert group.element_order_set() == {g.order() for g in closure_elements(gens, gens[0].degree)}


def test_sporadic_facts_never_sort_the_whole_group():
    m11 = load_group("m11")
    assert m11.is_simple()
    assert sorted(m11.element_order_set()) == [1, 2, 3, 4, 5, 6, 8, 11]
    for p in (3, 5, 11):
        group_facts(m11, p)
    assert m11._elements is None


def test_sylow_subgroups_are_cached_per_prime():
    group = load_group("alt7")
    for p in (2, 3, 5, 7):
        assert group.sylow_subgroup(p) is group.sylow_subgroup(p)


def _psl3(q):
    """PSL(3,q), q prime, on the q^2 + q + 1 points of PG(2,q), from the transvection
    (x, y, z) -> (x + y, y, z) and the cyclic coordinate permutation."""
    points = [(1, x, y) for x in range(q) for y in range(q)] + [(0, 1, y) for y in range(q)] + [(0, 0, 1)]
    index = {v: i for i, v in enumerate(points)}

    def normalized(v):
        lead = pow(next(c for c in v if c % q), -1, q)
        return tuple(c * lead % q for c in v)

    return PermGroup([Permutation([index[normalized(image(*v))] for v in points])
                      for image in (lambda x, y, z: (x + y, y, z), lambda x, y, z: (y, z, x))])


def test_psl37_sylow_7_without_the_element_table():
    start = time.perf_counter()
    group = _psl3(7)
    assert group.degree == 57 and group.order() == family_order("PSL3", 7) == 1876896
    sylow = group.sylow_subgroup(7)
    assert sylow.order() == 343
    assert all(g in group and g.order() == 7 for g in sylow.generators)
    assert not sylow.is_elementary_abelian(7)  # the unitriangular group is not abelian
    assert group._elements is None
    assert time.perf_counter() - start < 1.0
