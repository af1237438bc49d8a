"""Certification of the two sporadic candidate groups from their files."""

import pytest
from oracles import shipped_group

from curvebound import permgroup
from curvebound.perm import Permutation
from curvebound.permgroup import PermGroup, closure_elements


def test_alt7_certificate(alt7):
    assert alt7.order() == 2520
    assert alt7.order() == __import__("math").factorial(7) // 2
    assert alt7.is_simple()
    assert sorted(alt7.element_order_set()) == [1, 2, 3, 4, 5, 6, 7]
    assert 8 not in alt7.element_order_set()


def test_m11_certificate(m11):
    assert m11.order() == 7920
    assert m11.is_simple()
    assert sorted(m11.element_order_set()) == [1, 2, 3, 4, 5, 6, 8, 11]


def test_alt7_sylow_normalizers(alt7):
    syl7 = alt7.sylow_subgroup(7)
    assert syl7.order() == 7
    assert alt7.normalizer(syl7).order() == 21
    syl5 = alt7.sylow_subgroup(5)
    assert alt7.normalizer(syl5).order() == 20
    syl3 = alt7.sylow_subgroup(3)
    assert syl3.order() == 9
    assert syl3.is_elementary_abelian(3)
    assert alt7.normalizer(syl3).order() == 36


def test_m11_sylow3_facts(m11):
    syl3 = m11.sylow_subgroup(3)
    assert syl3.order() == 9
    assert syl3.is_elementary_abelian(3)
    normal = m11.normalizer(syl3)
    assert normal.order() == 144
    assert m11.order() // normal.order() == 55


def test_m11_sylow11_normalizer(m11):
    syl11 = m11.sylow_subgroup(11)
    assert syl11.order() == 11
    assert m11.normalizer(syl11).order() == 55


def test_alt7_point_stabilizer_closure_crosscheck(alt7):
    stab = alt7.point_stabilizer(0)
    assert stab.order() == 360
    assert len(closure_elements(list(stab.generators), 7)) == 360
    assert all(g(0) == 0 for g in stab.generators)


def test_sylow2_shapes(alt7, m11):
    # even-genus structure theory: dihedral for alt7, semidihedral for m11
    s2_alt7 = alt7.sylow_subgroup(2)
    assert s2_alt7.order() == 8
    orders_alt7 = sorted(g.order() for g in s2_alt7.elements())
    assert orders_alt7 == [1] + [2] * 5 + [4] * 2  # dihedral of order 8
    s2_m11 = m11.sylow_subgroup(2)
    assert s2_m11.order() == 16
    orders_m11 = sorted(g.order() for g in s2_m11.elements())
    assert orders_m11 == [1] + [2] * 5 + [4] * 6 + [8] * 4  # semidihedral of order 16


def _built(cycles, degree):
    return PermGroup([Permutation.parse(c, degree) for c in cycles])


# The 2-local premise: a dihedral or semidihedral Sylow 2-subgroup S has a cyclic
# subgroup of index 2, so an element of order |S|/2.  A8's, of order 64 and
# exponent 4, has none: the control.
SYLOW2_CASES = [
    pytest.param(lambda: shipped_group("alt7"), 8, 4, True, id="alt7"),
    pytest.param(lambda: shipped_group("m11"), 16, 8, True, id="m11"),
    pytest.param(lambda: _built(["(1,2,3)", "(3,4,5)"], 5), 4, 2, True, id="A5"),
    pytest.param(lambda: _built(["(1,2,3)", "(2,3,4,5,6)"], 6), 8, 4, True, id="A6"),
    pytest.param(lambda: _built(["(1,2,3,4,5,6,7)", "(2,3)(4,7)"], 7), 8, 4, True, id="PSL27"),
    pytest.param(lambda: _built(["(1,2,3)", "(2,3,4,5,6,7,8)"], 8), 64, 4, False, id="A8"),
]


@pytest.mark.parametrize("build, size, largest, half", SYLOW2_CASES)
def test_sylow2_has_an_element_of_half_its_order(build, size, largest, half):
    sylow = build().sylow_subgroup(2)
    orders = sylow.element_order_set()
    assert (sylow.order(), max(orders)) == (size, largest)
    assert (size // 2 in orders) is half


def test_loading_respects_env_override(tmp_path, monkeypatch):
    target = tmp_path / "alt7.txt"
    target.write_text("degree: 7\n(1,2,3)\n(1,2,3,4,5,6,7)\n")
    monkeypatch.setenv(permgroup.DATA_ENV_VAR, str(tmp_path))
    group = permgroup.load_group("alt7")
    assert group.order() == 2520


def test_truncated_file_fails_integrity(tmp_path, monkeypatch):
    target = tmp_path / "alt7.txt"
    target.write_text("degree: 7\n(1,2,3)\n")  # missing the 7-cycle
    monkeypatch.setenv(permgroup.DATA_ENV_VAR, str(tmp_path))
    group = permgroup.load_group("alt7")
    assert group.order() != 2520


def test_file_facts_never_trusted(alt7):
    # rebuilding from raw generator text reproduces every certified number
    fresh = PermGroup([Permutation.parse("(1,2,3)", 7), Permutation.parse("(1,2,3,4,5,6,7)", 7)])
    assert fresh.order() == alt7.order()
    assert fresh.element_order_set() == alt7.element_order_set()
