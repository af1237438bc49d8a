import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvebound.perm import DegreeMismatchError, Permutation


def perms(degree):
    return st.permutations(range(degree)).map(Permutation)


def test_parse_cycles():
    g = Permutation.parse("(1,2,3,4,5,6,7,8,9,10,11)")
    assert g.degree == 11
    assert g(0) == 1 and g(10) == 0
    h = Permutation.parse("(3,7,11,8)(4,10,5,6)")
    assert h.degree == 11
    assert h(2) == 6 and h(7) == 2

    assert Permutation.parse("()", 4) == Permutation.identity(4)
    assert Permutation.parse("(1 2) (3 4)") == Permutation.from_cycles([(1, 2), (3, 4)])


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Permutation.parse("(1,2,,3)")
    with pytest.raises(ValueError):
        Permutation.parse("nonsense")
    with pytest.raises(ValueError):
        Permutation.from_cycles([(1, 1, 2)])


def test_repr_roundtrip():
    g = Permutation.parse("(1,2,3)(5,6)")
    assert Permutation.parse(repr(g), g.degree) == g


def test_composition_convention():
    a = Permutation.parse("(1,2)", 3)
    b = Permutation.parse("(2,3)", 3)
    # left-to-right: apply a first
    assert (a * b)(0) == b(a(0))
    assert a * b == Permutation.parse("(1,3,2)", 3)


def test_mixed_degree_rejected():
    with pytest.raises(DegreeMismatchError):
        Permutation.parse("(1,2)") * Permutation.parse("(1,2,3)")


def test_order_and_parity():
    g = Permutation.parse("(1,2,3,4,5)(6,7)", 7)
    assert g.order() == 10
    assert sum(len(c) - 1 for c in g.cycles()) % 2 == 1
    assert sum(len(c) - 1 for c in Permutation.parse("(1,2,3)", 7).cycles()) % 2 == 0
    assert Permutation.identity(5).order() == 1


@settings(max_examples=60, deadline=None)
@given(perms(6), perms(6))
def test_inverse_and_associativity(a, b):
    assert (a * a.inverse()).is_identity()
    assert (a * b).inverse() == b.inverse() * a.inverse()
    assert a.conjugate(b) == b.inverse() * a * b


@settings(max_examples=60, deadline=None)
@given(perms(6), perms(6), perms(6))
def test_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(perms(7), st.integers(min_value=-6, max_value=12))
def test_pow_matches_iteration(a, k):
    expected = Permutation.identity(7)
    step = a if k >= 0 else a.inverse()
    for _ in range(abs(k)):
        expected = expected * step
    assert a**k == expected


def test_conjugate_moves_cycles():
    g = Permutation.parse("(1,2,3)", 5)
    s = Permutation.parse("(3,4)", 5)
    assert g.conjugate(s) == Permutation.parse("(1,2,4)", 5)


@settings(max_examples=60, deadline=None)
@given(perms(6), perms(6))
def test_compares_as_its_images(a, b):
    assert (a < b) == (tuple(a) < tuple(b))
    assert (a == b) == (tuple(a) == tuple(b))
    assert len(a) == a.degree
    assert Permutation(tuple(a)) == a


@settings(max_examples=60, deadline=None)
@given(perms(6), perms(6), st.integers(min_value=-6, max_value=12))
def test_derived_permutations_are_valid_permutations(a, b, k):
    for x in (a * b, a.inverse(), a.conjugate(b), a**k, Permutation.identity(6), a.extended(9)):
        assert type(x) is Permutation
        assert Permutation(tuple(x)) == x


def test_public_constructor_validates():
    for bad in ([0, 0, 1], [1, 2], (i for i in (0, 2, 2))):
        with pytest.raises(ValueError):
            Permutation(bad)


def test_degree_is_at_most_256():
    assert Permutation(range(256)).degree == Permutation.identity(256).degree == 256
    with pytest.raises(ValueError):
        Permutation(range(257))
    with pytest.raises(ValueError):
        Permutation.identity(257)
    with pytest.raises(ValueError):
        Permutation.identity(3).extended(257)
    # 257 images that cover every byte value: bytes() takes them, the length test refuses them
    with pytest.raises(ValueError):
        Permutation(list(range(256)) + [0])


def test_attributes_cannot_be_assigned():
    g = Permutation.parse("(1,2)", 3)
    for name in ("images", "degree", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, (0, 1, 2))


@settings(max_examples=80, deadline=None)
@given(perms(9))
def test_order_is_lcm_of_cycle_lengths(a):
    assert a.order() == math.lcm(1, *(len(c) for c in a.cycles()))
    assert (a ** a.order()).is_identity()
