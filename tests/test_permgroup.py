"""Engine checks backed by exhaustive-closure oracles on small groups."""

import math
import random

import pytest

from curvebound.fppoly import factorize
from curvebound.perm import DegreeMismatchError, Permutation
from curvebound.permgroup import (
    PermGroup,
    closure_elements,
    max_solvable_with_cyclic_complement,
    p_subgroup_class_reps,
    parse_generator_file,
)


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
    assert [level._base_point for level in levels] == list(m11.base)
    # M11 is sharply 4-transitive on 11 points.
    assert [len(level._transversal) for level in levels] == [11, 10, 9, 8]
    for level in levels:
        assert all(s(level._base_point) == level._base_point for s in level._stabilizer.generators)
        assert level.order() == len(level._transversal) * level._stabilizer.order()
    assert m11.order() == 11 * 10 * 9 * 8 == 7920
    assert levels[-1]._stabilizer.is_trivial()


def test_is_solvable_against_derived_oracle(alt7):
    c7c3 = alt7.normalizer(alt7.sylow_subgroup(7))
    assert c7c3.order() == 21
    assert c7c3.is_solvable()
    assert brute_derived_series_solvable(c7c3)

    s4 = sym(4)
    assert s4.is_solvable() == brute_derived_series_solvable(s4) is True

    a5 = PermGroup([Permutation.parse("(1,2,3)", 5), Permutation.parse("(3,4,5)", 5)])
    assert not a5.is_solvable()
    assert not brute_derived_series_solvable(a5)
    assert not alt7.is_solvable()
    assert PermGroup([], degree=3).is_solvable()


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
    # class size times normalizer order equals the group order
    assert normal.order() * alt7.conjugacy_class_size_of_subgroup(syl) == alt7.order()


def test_normalizer_of_whole_group(alt7):
    assert alt7.normalizer(alt7).order() == alt7.order()


def test_normalizer_rejects_non_subgroup():
    s4 = sym(4)
    outside = PermGroup([Permutation.parse("(1,2,3,4,5)", 5)])
    with pytest.raises((ValueError, DegreeMismatchError)):
        s4.normalizer(outside)


def brute_normalizer_order(closure, subgroup):
    """Oracle: |N_G(H)| by filtering the exhaustive closure of G by conjugation."""
    h_set = set(subgroup.elements())
    return sum(all(h.conjugate(g) in h_set for h in subgroup.generators) for g in closure)


@pytest.mark.parametrize("name", ["alt7", "m11"])
def test_normalizer_against_brute_scan(name, request):
    group = request.getfixturevalue(name)
    closure = closure_elements(list(group.generators), group.degree)
    for p in {"alt7": (2, 3, 5, 7), "m11": (2, 3, 5, 11)}[name]:
        for sub in [group.sylow_subgroup(p)] + p_subgroup_class_reps(group, p):
            assert group.normalizer(sub).order() == brute_normalizer_order(closure, sub)


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
    assert s4.conjugacy_class_size_of_subgroup(sub) == size
    assert size * s4.normalizer(sub).order() == 24


@pytest.mark.parametrize("name", ["alt7", "m11", "sym4", "sym5", "sym6"])
def test_orders_and_point_stabilizers_against_sympy(name, request):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    group = sym(int(name[3:])) if name.startswith("sym") else request.getfixturevalue(name)
    other = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.images)) for g in group.generators]
    )
    assert group.order() == other.order()
    for i in range(group.degree):
        assert group.point_stabilizer(i).order() == other.stabilizer(i).order()


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
    assert again.base == alt7.base
    assert again.strong_generators == alt7.strong_generators
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


@pytest.mark.parametrize("gens", RANDOM_SETS)
def test_random_groups_against_closure(gens):
    n = gens[0].degree
    group = PermGroup(gens, n)
    closure = closure_elements(gens, n)
    assert group.order() == len(closure)
    assert set(group.elements()) == closure
    assert all(g in group for g in gens)
    assert set(group.generators) <= set(gens)
    rng = random.Random(n)
    probes = [Permutation(rng.sample(range(n), n)) for _ in range(200)]
    for x in probes:
        assert (x in group) == (x in closure)
    level = group
    for point in group.base:
        assert level._base_point == point
        assert set(level._stabilizer.elements()) == {x for x in level.elements() if x(point) == point}
        level = level._stabilizer
    assert level.is_trivial()


@pytest.mark.parametrize("gens", RANDOM_SETS)
def test_random_groups_against_sympy(gens):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    n = gens[0].degree
    group = PermGroup(gens, n)
    other = combinatorics.PermutationGroup([combinatorics.Permutation(list(g.images)) for g in gens])
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
    assert len(group.base) == depth
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


@pytest.mark.parametrize("gens", [p for p in RANDOM_SETS if PermGroup(p.values[0]).order() <= 720])
def test_is_simple_random_groups(gens):
    group = PermGroup(gens, gens[0].degree)
    assert group.is_simple() == brute_is_simple(group)


def brute_p_subgroups(sylow):
    """Oracle: the cyclic subgroups of a Sylow subgroup closed under joins, by exhaustive closure."""
    elements = [x for x in sylow.elements() if not x.is_identity()]
    found = set()
    frontier = [(frozenset([sylow.identity()]), [])]
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
