"""The immutable records: frozen fields, equality and hashing by value, and a stable repr."""

from fractions import Fraction

import pytest

from curvebound import Record
from curvebound.bounds import AuditReport, PowerBound, Step
from curvebound.classical import GroupFacts
from curvebound.fppoly import FpPoly
from curvebound.prank import CartierMatrix, CurveModel
from curvebound.ramification import Candidate

F = Fraction

# One record of each class, each with the repr the frozen dataclasses printed for it.
RECORDS = [
    (lambda: PowerBound(F(84), shift=-1),
     "PowerBound(coeff=Fraction(84, 1), shift=-1, num=1, den=1, mult=1)"),
    (lambda: AuditReport("fails", 3, note="x"),
     "AuditReport(verdict='fails', witness=3, note='x')"),
    (lambda: Step("prelim.ln5", "outer_factor", "outer factor count over q = 5^k", (5, F(8, 5)),
                  note="64f^2 <= 25*5^f at f = 1 and 2"),
     "Step(step_id='prelim.ln5', kind='outer_factor', anchor='outer factor count over q = 5^k', "
     "params=(5, Fraction(8, 5)), slip=False, note='64f^2 <= 25*5^f at f = 1 and 2')"),
    (lambda: GroupFacts(p=3, order=2520, wild_catalog=((3, 2),), tame_catalog=(2, 4)),
     "GroupFacts(p=3, order=2520, wild_catalog=((3, 2),), tame_catalog=(2, 4))"),
    (lambda: CurveModel(2, FpPoly(3, (0, 2, 0, 0, 0, 1)), 3), "CurveModel(m=2, f=x^5 + 2x, p=3)"),
    (lambda: CartierMatrix(p=3, entries=((0, 2), (1, 0)), basis=((1, 1), (2, 1))),
     "CartierMatrix(p=3, entries=((0, 2), (1, 0)), basis=((1, 1), (2, 1)))"),
    (lambda: Candidate(e1=7, d1=12, e2=2, d2=1, q1=7, E1=1, g=271, passes_parity=False,
                       passes_hurwitz_filter=False, p_group_stabilizer=True, small_wild_part=False),
     "Candidate(e1=7, d1=12, e2=2, d2=1, q1=7, E1=1, g=271, passes_parity=False, "
     "passes_hurwitz_filter=False, p_group_stabilizer=True, small_wild_part=False)"),
]
IDS = [text.split("(", 1)[0] for _, text in RECORDS]


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(make, text):
    record = make()
    for name in record.__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert make() == record


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(make, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, name) for name in a.__slots__))
    assert len({a, b}) == 1


def test_polynomial_fields_cannot_be_assigned_or_deleted():
    poly = FpPoly(5, (1, 2, 3))
    for name in ("p", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(poly, name, 1)
        with pytest.raises(AttributeError):
            delattr(poly, name)
    assert poly == FpPoly(5, (1, 2, 3)) and poly.degree == 2


# Two record classes with the same slots: equal values must not make their records equal.
class _Left(Record):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


class _Right(Record):
    __slots__ = ("a", "b")
    __init__ = _Left.__init__


def test_records_differ_by_any_field_and_by_class():
    bound = PowerBound(F(84), shift=-1)
    assert bound != PowerBound(F(84), shift=-1, mult=2)
    assert bound != PowerBound(F(84))
    assert _Left(9, 4)._values() == _Right(9, 4)._values() and _Left(9, 4) != _Right(9, 4)
    assert bound != (F(84), -1, 1, 1, 1)


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_form(make, text):
    assert repr(make()) == text


def test_defaults_and_properties():
    assert PowerBound(F(2)) == PowerBound(F(2), 0, 1, 1, 1)
    assert AuditReport("holds") == AuditReport("holds", None, "")
    step = Step("s", "const", "anchor", ())
    assert (step.slip, step.note, step.expect) == (False, "", "holds")
    assert Step("s", "const", "anchor", (), slip=True).expect == "fails"
    assert CartierMatrix(3, ((0, 2), (1, 0)), ((1, 1), (2, 1))).size == 2
    assert isinstance(Step.expect, property) and isinstance(CartierMatrix.size, property)
