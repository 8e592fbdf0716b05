"""Input checks that no other test reaches: one malformed input per
rejection branch, and the CLI's guard against an engine that disagrees
with a closed form."""

import io
from fractions import Fraction
from types import SimpleNamespace

import pytest

from toriclct import cli
from toriclct.database import export_table, import_table, load_builtin
from toriclct.errors import DegenerateSubdivision, GroupNotClosed, ParseError
from toriclct.formulas import double_cover_lct, fermat_cse, p1_product_lct
from toriclct.geometry import (HPolytope, _decimal, _rational, dot,
                               fixed_subspace, smith_normal_form)
from toriclct.toric import (GroupAction, RaySet, ToricLctReport, parse_fan,
                            projective_space_fan, star_subdivide)

EYE2 = ((1, 0), (0, 1))
SWAP2 = ((0, 1), (1, 0))
P2_FAN = "1,0\n0,1\n-1,-1\n\n"

REJECTIONS = [
    ("dot", lambda: dot((1, 2), (1,)), ValueError, "dimension mismatch"),
    ("HPolytope", lambda: HPolytope(()), ValueError, "at least one halfspace"),
    ("smith_normal_form", lambda: smith_normal_form(((1, 2),)), ValueError,
     "square"),
    ("fixed_subspace", lambda: fixed_subspace([]), ValueError,
     "at least one matrix"),
    ("fixed_subspace float", lambda: fixed_subspace([((1.0, 0), (0, 1))]),
     ValueError, "non-integer entry"),
    ("RaySet", lambda: RaySet(()), ValueError, "at least one ray"),
    ("GroupAction empty", lambda: GroupAction(()), ValueError,
     "at least one element"),
    ("GroupAction mixed size", lambda: GroupAction((EYE2, ((1,),))),
     ValueError, "square of one dimension"),
    ("GroupAction repeated", lambda: GroupAction((EYE2, SWAP2, SWAP2)),
     GroupNotClosed, "repeated"),
    ("generate cap string", lambda: GroupAction.generate([SWAP2], cap="5"),
     ValueError, "cap '5' is not an integer"),
    ("generate cap float", lambda: GroupAction.generate([SWAP2], cap=1.5),
     ValueError, r"cap 1\.5 is not an integer"),
    ("generate cap 0", lambda: GroupAction.generate([EYE2], cap=0),
     ValueError, "cap 0 is below 1"),
    ("generate cap negative", lambda: GroupAction.generate([EYE2], cap=-3),
     ValueError, "cap -3 is below 1"),
    ("ToricLctReport witness",
     lambda: ToricLctReport(Fraction(1, 3), Fraction(2), (-1, -1), (1, 0)),
     ValueError, "witness pairing"),
    ("ToricLctReport lct",
     lambda: ToricLctReport(Fraction(1, 2), Fraction(2), (Fraction(1),), (2,)),
     ValueError, r"report inconsistent: lct != 1/\(1\+max_pairing\)"),
    ("ToricLctReport witness over mixed denominators",
     lambda: ToricLctReport(Fraction(1, 3), Fraction(2),
                            (Fraction(1, 2), Fraction(1, 3)), (1, 1)),
     ValueError, "witness pairing"),
    ("ToricLctReport witness length",
     lambda: ToricLctReport(Fraction(1, 3), Fraction(2),
                            (Fraction(-1), Fraction(-1)), (-1, -1, 0)),
     ValueError, "dimension mismatch: 2 vs 3"),
    ("ToricLctReport float lct",
     lambda: ToricLctReport(0.5, 1.0, (1.0, 0.0), (1, 0)),
     ValueError, r"^lct 0\.5 is not an exact rational"),
    ("ToricLctReport float max_pairing",
     lambda: ToricLctReport(Fraction(1, 2), 1.0, (Fraction(1), Fraction(0)), (1, 0)),
     ValueError, r"^max_pairing 1\.0 is not an exact rational"),
    ("ToricLctReport float vertex entry",
     lambda: ToricLctReport(Fraction(1, 2), Fraction(1), (1.0, Fraction(0)), (1, 0)),
     ValueError, r"^witness_vertex \(1\.0, Fraction\(0, 1\)\) has a non-rational entry"),
    ("ToricLctReport float ray entry",
     lambda: ToricLctReport(Fraction(1, 2), Fraction(1), (Fraction(1), Fraction(0)), (1.0, 0)),
     ValueError, r"^witness_ray \(1\.0, 0\) has a non-integer entry"),
    ("star_subdivide empty", lambda: star_subdivide(projective_space_fan(2), []),
     DegenerateSubdivision, "empty subset"),
    ("parse_fan duplicate ray", lambda: parse_fan("1,0\n0,1\n1,0\n-1,-1\n"),
     ParseError, "line 1: rays must be pairwise distinct"),
    ("parse_fan zero ray", lambda: parse_fan("\n1,0\n0,1\n0,0\n-1,-1\n"),
     ParseError, "line 2: zero vector is not a ray"),
    ("parse_fan group row", lambda: parse_fan(P2_FAN + "1,0,0\n"),
     ParseError, "line 5: expected 4 row-major entries"),
    ("parse_fan token with an underscore", lambda: parse_fan("1,0\n0,1\n-1,-1_0\n"),
     ParseError, "^line 3: '-1_0' is not an integer$"),
    ("parse_fan token with a plus sign", lambda: parse_fan("1,0\n+0,1\n-1,-1\n"),
     ParseError, "^line 2: '\\+0' is not an integer$"),
    ("parse_fan non-ASCII digit", lambda: parse_fan("1,0\n0,1\n-1,-\u0661\n"),
     ParseError, "^line 3: '-\u0661' is not an integer$"),
    # the builtin table has 251 lines, so an appended block's rows start at 254
    ("import_table fan block token",
     lambda: import_table(export_table(load_builtin()) + "\n[fan 2.6]\n1\n-1_0\n"),
     ParseError, "^line 255: '-1_0' is not an integer$"),
    ("import_table fan block non-ASCII digit",
     lambda: import_table(export_table(load_builtin()) + "\n[fan 2.6]\n\u0661\n-1\n"),
     ParseError, "^line 254: '\u0661' is not an integer$"),
    ("import_table value token",
     lambda: import_table(export_table(load_builtin()).replace("|exact_general|1|",
                                                               "|exact_general|1_0/10|", 1)),
     ParseError, "^line 1: status value '1_0/10' is not an exact rational$"),
    ("parse_fan group not closed",
     lambda: parse_fan(P2_FAN + "1,0,0,1\n0,1,1,0\n0,-1,1,-1\n"),
     ParseError, "not closed under product"),
    ("double_cover_lct", lambda: double_cover_lct(1, 1), ValueError,
     "n >= 2"),
    ("fermat_cse", lambda: fermat_cse([0]), ValueError, "positive integers"),
    ("p1_product_lct", lambda: p1_product_lct(2), ValueError, r"\(0, 1\]"),
]


@pytest.mark.parametrize("call, error, match", [r[1:] for r in REJECTIONS],
                         ids=[r[0] for r in REJECTIONS])
def test_malformed_input_is_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("-0", 0), ("007", 7), (" -12\t", -12), ("\u00a03\n", 3)])
def test_an_integer_token_is_a_sign_and_ascii_digits(text, value):
    assert _decimal(text) == value and type(_decimal(text)) is int


@pytest.mark.parametrize("text", [
    "", " ", "-", "+1", "1_0", "- 1", "--1", "1.0", "1e3", "0x1", "\u0661",
    "\u00b2", "\uff11", "-\u0661"])
def test_any_other_token_is_not_an_integer(text):
    with pytest.raises(ValueError, match="is not an integer$"):
        _decimal(text)


@pytest.mark.parametrize("text, value", [
    ("1", 1), ("1/1", 1), ("1.0", 1), ("0.25", Fraction(1, 4)), (" 6/14\t", Fraction(3, 7)),
    ("-0.5", Fraction(-1, 2)), ("-007/2", Fraction(-7, 2))])
def test_a_rational_token_is_an_integer_token_then_digits_after_a_slash_or_point(text, value):
    assert _rational(text, "value") == value and type(_rational(text, "value")) is Fraction


@pytest.mark.parametrize("text", [
    "", "\u0662/\u0663", "1/\u0663", "1_0/30", "1/2_0", "1e-1", "1.5e3", "+1/3", "1/+2",
    "1/-2", ".5", "1.", "1/", "/2", "1 /2", "1/2/3", "1/0"])
def test_any_other_string_is_not_an_exact_rational(text):
    with pytest.raises(ValueError, match="is not an exact rational$"):
        _rational(text, "value")


def test_report_takes_int_fields():
    report = ToricLctReport(1, 0, (0, 0), (1, 0))
    assert (report.lct, report.max_pairing) == (1, 0)


@pytest.mark.parametrize("argv", [
    ("wps", "1", "1", "2"),
    ("bundle", "--base-dim", "2", "--twists", "1"),
])
def test_engine_disagreeing_with_the_formula_fails(monkeypatch, argv):
    monkeypatch.setattr(cli, "toric_lct",
                        lambda rays: SimpleNamespace(lct=Fraction(1, 99)))
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(list(argv), stdout=out, stderr=err) == 1
    assert out.getvalue() == "" and "disagrees" in err.getvalue()
