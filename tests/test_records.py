"""The 14 frozen value classes behave as records: each prints, compares and
hashes by its fields in order, refuses writes, fills its defaults, matches
positionally, and FamilyId alone is ordered."""

from fractions import Fraction

import pytest

from toriclct.database import (CrossCheckReport, Database, FamilyId, FamilyRecord,
                               FanCheck, LctStatus, load_builtin)
from toriclct.formulas import DelPezzoDescriptor, EquivariantLct
from toriclct.geometry import HalfSpace, HPolytope, SmithDecomposition
from toriclct.toric import GroupAction, RaySet, ToricLctReport

F = Fraction
P3 = RaySet(((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)))
CHECK = FanCheck(FamilyId(1, 17), F(1, 4), F(1, 4), (F(-1), F(-1), F(-1)), (-1, -1, -1))
SWAP = (((1, 0), (0, 1)), ((0, 1), (1, 0)))

# (instance, field names in order, literal repr)
RECORDS = [
    (FamilyId(2, 36), ("rank", "index"), "FamilyId(rank=2, index=36)"),
    (LctStatus("exact_all", "3/7"), ("kind", "value"),
     "LctStatus(kind='exact_all', value=Fraction(3, 7))"),
    (FamilyRecord(FamilyId(1, 17), LctStatus("exact_all", F(1, 4)),
                  "toric: projective 3-space", P3),
     ("id", "status", "provenance", "fan", "notes"),
     "FamilyRecord(id=FamilyId(rank=1, index=17), status=LctStatus(kind='exact_all', "
     "value=Fraction(1, 4)), provenance='toric: projective 3-space', "
     "fan=RaySet(rays=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))), notes=None)"),
    (load_builtin(), ("records",), None),
    (CHECK, ("family", "expected", "computed", "witness_vertex", "witness_ray"),
     "FanCheck(family=FamilyId(rank=1, index=17), expected=Fraction(1, 4), "
     "computed=Fraction(1, 4), witness_vertex=(Fraction(-1, 1), Fraction(-1, 1), "
     "Fraction(-1, 1)), witness_ray=(-1, -1, -1))"),
    (CrossCheckReport((CHECK,)), ("checks",), f"CrossCheckReport(checks=({CHECK!r},))"),
    (DelPezzoDescriptor(8, degree8_type="product"),
     ("degree", "nodes", "has_cuspidal_anticanonical", "has_tacnodal_anticanonical",
      "has_eckardt_point", "degree8_type"),
     "DelPezzoDescriptor(degree=8, nodes=0, has_cuspidal_anticanonical=False, "
     "has_tacnodal_anticanonical=False, has_eckardt_point=False, "
     "degree8_type='product')"),
    (EquivariantLct(F(2), "p"), ("value", "provenance"),
     "EquivariantLct(value=Fraction(2, 1), provenance='p')"),
    (HalfSpace((1, "1/2"), -1), ("normal", "offset"),
     "HalfSpace(normal=(Fraction(1, 1), Fraction(1, 2)), offset=Fraction(-1, 1))"),
    (HPolytope((HalfSpace((1,), -1), HalfSpace((-1,), -2))), ("halfspaces",),
     "HPolytope(halfspaces=(HalfSpace(normal=(Fraction(1, 1),), offset=Fraction(-1, 1)), "
     "HalfSpace(normal=(Fraction(-1, 1),), offset=Fraction(-2, 1))))"),
    (SmithDecomposition(((1, 1), (3, 2)), ((1, 0), (0, 6)), ((-1, 3), (1, -2))),
     ("u", "d", "v"),
     "SmithDecomposition(u=((1, 1), (3, 2)), d=((1, 0), (0, 6)), v=((-1, 3), (1, -2)))"),
    (P3, ("rays",), "RaySet(rays=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)))"),
    (GroupAction(SWAP), ("elements",),
     "GroupAction(elements=(((1, 0), (0, 1)), ((0, 1), (1, 0))))"),
    (ToricLctReport(F(1, 3), F(2), (F(-1), F(-1)), (-1, -1)),
     ("lct", "max_pairing", "witness_vertex", "witness_ray"),
     "ToricLctReport(lct=Fraction(1, 3), max_pairing=Fraction(2, 1), "
     "witness_vertex=(Fraction(-1, 1), Fraction(-1, 1)), witness_ray=(-1, -1))"),
]
IDS = [type(obj).__name__ for obj, _, _ in RECORDS]


def _values(obj, fields):
    return tuple(getattr(obj, name) for name in fields)


def test_every_value_class_is_listed():
    assert sorted(IDS) == sorted(
        ["FamilyId", "LctStatus", "FamilyRecord", "Database", "FanCheck",
         "CrossCheckReport", "DelPezzoDescriptor", "EquivariantLct", "HalfSpace",
         "HPolytope", "SmithDecomposition", "RaySet", "GroupAction", "ToricLctReport"])


@pytest.mark.parametrize("obj, fields, text", RECORDS, ids=IDS)
def test_repr_lists_the_fields_in_order(obj, fields, text):
    if text is None:  # Database: 105 records
        text = f"Database(records={obj.records!r})"
        assert text.startswith("Database(records=(FamilyRecord(id=FamilyId(rank=1, "
                               "index=1), status=LctStatus(kind='exact_general', "
                               "value=Fraction(1, 1)), provenance=")
    assert repr(obj) == text
    assert type(obj).__match_args__ == fields


@pytest.mark.parametrize("obj, fields, text", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_fields(obj, fields, text):
    copy = type(obj)(**{name: getattr(obj, name) for name in fields})
    assert copy is not obj
    assert copy == obj and not copy != obj
    assert hash(copy) == hash(obj) == hash(_values(obj, fields))
    assert obj != _values(obj, fields)
    assert obj != object()


@pytest.mark.parametrize("obj, fields, text", RECORDS, ids=IDS)
def test_instances_refuse_writes(obj, fields, text):
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert _values(obj, fields) == _values(type(obj)(*_values(obj, fields)), fields)


def test_defaults():
    assert LctStatus("unknown").value is None
    record = FamilyRecord(FamilyId(1, 1), LctStatus("unknown", None), "p")
    assert (record.fan, record.notes) == (None, None)
    surface = DelPezzoDescriptor(5)
    assert (surface.nodes, surface.has_cuspidal_anticanonical,
            surface.has_tacnodal_anticanonical, surface.has_eckardt_point,
            surface.degree8_type) == (0, False, False, False, None)
    assert surface == DelPezzoDescriptor(5, 0, False, False, False, None)


def test_family_id_is_ordered_by_rank_then_index():
    a, b = FamilyId(1, 17), FamilyId(2, 3)
    assert a < b and a <= b and b > a and b >= a
    assert a <= FamilyId(1, 17) and a >= FamilyId(1, 17)
    assert not (b < a or b <= a or a > b or a >= b)
    ids = [FamilyId(3, 2), FamilyId(1, 5), FamilyId(2, 36), FamilyId(1, 4)]
    assert [str(i) for i in sorted(ids)] == ["1.4", "1.5", "2.36", "3.2"]
    for other in ((1, 17), "1.17", 1):
        for compare in (lambda x, y: x < y, lambda x, y: x <= y,
                        lambda x, y: x > y, lambda x, y: x >= y):
            with pytest.raises(TypeError):
                compare(a, other)
    with pytest.raises(TypeError):
        RaySet(((1,),)) < RaySet(((1,),))


def test_positional_match():
    match FamilyId(4, 5):
        case FamilyId(rank, index):
            assert (rank, index) == (4, 5)
        case _:
            pytest.fail("no match")
    match LctStatus("upper_bound", "6/7"):
        case LctStatus("upper_bound", value):
            assert value == F(6, 7)
        case _:
            pytest.fail("no match")
    match ToricLctReport(F(1, 3), F(2), (F(-1), F(-1)), (-1, -1)):
        case ToricLctReport(lct, _, _, ray):
            assert (lct, ray) == (F(1, 3), (-1, -1))
        case _:
            pytest.fail("no match")


@pytest.mark.parametrize("args, kwargs", [
    ((1,), {}), ((1, 2, 3), {}), ((1,), {"rank": 1}), ((1, 2), {"idx": 2}),
    ((), {"index": 2}), ((), {"rank": 1, "index": 2, "notes": None})])
def test_bad_calls_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        FamilyId(*args, **kwargs)


def test_keyword_and_default_calls_bind_like_positional_ones():
    assert FamilyId(index=2, rank=1) == FamilyId(1, index=2) == FamilyId(1, 2)
    assert (DelPezzoDescriptor(8, degree8_type="nonproduct")
            == DelPezzoDescriptor(8, 0, False, False, False, "nonproduct"))
    with pytest.raises(TypeError):
        LctStatus()
