"""Acceptance gate. Ten criteria, one test each; every test prints a single
PASS or FAIL line so the verdict survives in any run log. All comparisons
are exact, no tolerances anywhere."""

import io
import itertools
import random
import sys
from fractions import Fraction

from conftest import (criterion_6_setups, criterion_6_subgroups,
                      oracle_vertices_2d, random_bounded_poly,
                      random_unimodular, transform_rays)

from toriclct.cli import run
from toriclct.database import (cross_check_toric, export_table, import_table,
                               load_builtin, lookup, query)
from toriclct.formulas import (DelPezzoDescriptor, cubic_surface_lct,
                               del_pezzo_lct, fermat_cse, monomial_cse,
                               wps_lct)
from toriclct.geometry import enumerate_vertices, smith_normal_form
from toriclct.toric import (GroupAction, bundle_lct_closed_form, product_fan,
                            projective_space_fan, projectivized_bundle_fan,
                            toric_lct, wps_fan)

F = Fraction


def report(number: int, description: str, check) -> None:
    # write past pytest's capture so the verdict line always reaches the log
    try:
        check()
    except BaseException:
        print(f"FAIL criterion {number}: {description}", file=sys.__stdout__)
        raise
    print(f"PASS criterion {number}: {description}", file=sys.__stdout__)


# ---------------------------------------------------------------------------


def test_criterion_01_projective_spaces():
    def check():
        for n in range(1, 5):
            assert toric_lct(projective_space_fan(n)).lct == F(1, n + 1)

    report(1, "projective space thresholds 1/(n+1) for n = 1..4", check)


def test_criterion_02_stored_fans():
    def check():
        db = load_builtin()
        expected = {"2.33": F(1, 4), "2.35": F(1, 4), "2.36": F(1, 5),
                    "2.34": F(1, 3), "3.27": F(1, 2), "3.31": F(1, 3)}
        for fid, value in expected.items():
            assert toric_lct(lookup(db, fid).fan).lct == value
        result = cross_check_toric(db)
        assert result.passed and len(result.checks) == 18

    report(2, "named stored fans recompute correctly; full cross-check passes",
           check)


def test_criterion_03_bundle_formula_vs_engine():
    def check():
        cases = 0
        for n, k in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)):
            for twists in itertools.product(range(4), repeat=k):
                formula = bundle_lct_closed_form(n, twists)
                engine = toric_lct(projectivized_bundle_fan(n, twists)).lct
                assert formula == engine
                cases += 1
        assert cases == 108

    report(3, "split bundle closed form matches the fan engine on 108 cases",
           check)


def test_criterion_04_wps_formula_vs_engine():
    def check():
        vectors = ((1, 1), (1, 1, 1), (1, 1, 1, 1), (1, 1, 2), (1, 1, 3),
                   (1, 2, 3), (2, 3, 5), (1, 1, 2, 3), (1, 2, 2, 3),
                   (3, 4, 5), (1, 1, 1, 2, 3), (1, 1, 2, 6, 9))
        assert len(vectors) >= 10
        assert {(1, 1, 2), (1, 1, 2, 3), (1, 1, 1, 2, 3)} <= set(vectors)
        for weights in vectors:
            assert len(weights) <= 5
            assert wps_lct(weights) == toric_lct(wps_fan(weights)).lct

    report(4, "weighted projective formula matches the fan engine on "
              "12 weight vectors", check)


def test_criterion_05_symmetric_thresholds_reach_one():
    def check():
        p1 = projective_space_fan(1)
        p2 = projective_space_fan(2)
        sign = GroupAction((((1,),), ((-1,),)))
        s3 = GroupAction.generate([((0, 1), (1, 0)), ((0, -1), (1, -1))])
        assert toric_lct(p1, sign).lct == 1
        assert toric_lct(p2, s3).lct == 1
        assert toric_lct(p1).lct == F(1, 2)
        assert toric_lct(p2).lct == F(1, 3)

    report(5, "full symmetry lifts the threshold to 1 where the plain value "
              "is 1/2 and 1/3", check)


def test_criterion_06_invariance_monotonicity_products():
    def check():
        rng = random.Random(2026)

        # lattice change of basis cannot move the threshold
        bases = (projective_space_fan(2), wps_fan((1, 1, 2)),
                 lookup(load_builtin(), "2.33").fan)
        transforms = 0
        for fan in bases:
            plain = toric_lct(fan).lct
            for _ in range(100):
                u = random_unimodular(rng, fan.dim)
                assert toric_lct(transform_rays(u, fan)).lct == plain
                transforms += 1
        assert transforms == 300

        # shrinking the group can only shrink the threshold
        for fan, full, sub in criterion_6_subgroups(rng, criterion_6_setups()):
            assert set(sub.elements) <= set(full.elements)
            plain = toric_lct(fan).lct
            middle = toric_lct(fan, sub).lct
            top = toric_lct(fan, full).lct
            assert plain <= middle <= top

        # product fans take the worse factor's threshold, exactly
        fans = [rec.fan for rec in load_builtin().records
                if rec.fan is not None]
        values = {id(fan): toric_lct(fan).lct for fan in fans}
        pairs = 0
        for a, b in itertools.combinations(fans, 2):
            expected = min(values[id(a)], values[id(b)])
            assert toric_lct(product_fan(a, b)).lct == expected
            pairs += 1
        assert pairs == 153

    report(6, "unimodular invariance (300 transforms), group monotonicity "
              "(50 pairs), product rule (153 pairs)", check)


def test_criterion_07_database_integrity():
    def check():
        db = load_builtin()
        assert len(db.records) == 105
        by_rank = {r: 0 for r in range(1, 6)}
        by_kind = {}
        for rec in db.records:
            by_rank[rec.id.rank] += 1
            by_kind[rec.status.kind] = by_kind.get(rec.status.kind, 0) + 1
        assert by_rank == {1: 17, 2: 36, 3: 31, 4: 13, 5: 8}
        assert by_kind == {"exact_all": 64, "exact_general": 20,
                           "upper_bound": 14, "unknown": 7}

        exact_values = {rec.status.value for rec in db.records
                        if rec.status.kind in ("exact_all", "exact_general")}
        assert exact_values <= {F(1, 5), F(1, 4), F(1, 3), F(3, 7), F(1, 2),
                                F(2, 3), F(3, 4), F(1)}

        for fid in ("1.11", "1.12", "1.13", "1.14", "1.15", "2.32", "3.27"):
            assert lookup(db, fid).status.value == F(1, 2)
        assert lookup(db, "2.35").status.value == F(1, 4)
        assert lookup(db, "4.5").status.value == F(3, 7)

        for fid, bound in (("1.8", F(6, 7)), ("1.9", F(4, 5)),
                           ("1.10", F(2, 3))):
            rec = lookup(db, fid)
            assert rec.status.kind == "upper_bound"
            assert rec.status.value == bound

        open_ids = {str(r.id) for r in query(db, status_kind="unknown")}
        assert open_ids == {"1.2", "1.3", "1.4", "1.5", "1.6", "1.7", "2.6"}

    report(7, "database shape, value range, index-two families, bounds, and "
              "open set all verify", check)


def test_criterion_08_surface_formulas():
    def check():
        smooth = {1: F(1), 2: F(5, 6), 3: F(3, 4), 4: F(2, 3), 5: F(1, 2),
                  6: F(1, 2), 7: F(1, 3), 9: F(1, 3)}
        for degree, value in smooth.items():
            assert del_pezzo_lct(DelPezzoDescriptor(degree)) == value
        assert del_pezzo_lct(
            DelPezzoDescriptor(1, has_cuspidal_anticanonical=True)) == F(5, 6)
        assert del_pezzo_lct(
            DelPezzoDescriptor(2, has_tacnodal_anticanonical=True)) == F(3, 4)
        assert del_pezzo_lct(
            DelPezzoDescriptor(3, has_eckardt_point=True)) == F(2, 3)
        assert del_pezzo_lct(
            DelPezzoDescriptor(8, degree8_type="product")) == F(1, 2)
        assert del_pezzo_lct(
            DelPezzoDescriptor(8, degree8_type="nonproduct")) == F(1, 3)
        assert del_pezzo_lct(DelPezzoDescriptor(4, nodes=1)) == F(1, 2)
        assert del_pezzo_lct(DelPezzoDescriptor(5, nodes=1)) == F(1, 2)
        assert del_pezzo_lct(DelPezzoDescriptor(6, nodes=1)) == F(1, 3)

        assert cubic_surface_lct(["A1"]) == F(2, 3)
        assert cubic_surface_lct(["A1", "A1"]) == F(1, 2)
        assert cubic_surface_lct(["A4"]) == F(1, 3)
        assert cubic_surface_lct(["A5"]) == F(1, 4)
        assert cubic_surface_lct(["E6"]) == F(1, 6)

        rng = random.Random(99)
        checked = 0
        for _ in range(1000):
            exps = tuple(rng.randint(1, 12)
                         for _ in range(rng.randint(1, 6)))
            assert fermat_cse(exps) >= monomial_cse(exps)
            checked += 1
        assert checked == 1000

    report(8, "del Pezzo table, cubic singularity outcomes, and the power "
              "sum dominance hold", check)


def test_criterion_09_geometry_oracles():
    def check():
        rng = random.Random(23)
        for _ in range(50):
            poly = random_bounded_poly(rng)
            mine = enumerate_vertices(poly)
            oracle = oracle_vertices_2d(poly)
            assert sorted(oracle) == list(mine)

        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(1, 4)
            mat = tuple(tuple(rng.randint(-9, 9) for _ in range(n))
                        for _ in range(n))
            dec = smith_normal_form(mat)
            assert dec.reconstructs(mat)
            diag = [dec.d[i][i] for i in range(n)]
            assert all(x >= 0 for x in diag)
            for i in range(n - 1):
                if diag[i + 1]:
                    assert diag[i] != 0 and diag[i + 1] % diag[i] == 0

    report(9, "vertex enumeration agrees with an angular sort oracle; "
              "normal form reconstructs 100 random matrices", check)


def test_criterion_10_serialization_and_cli_stability():
    def check():
        db = load_builtin()
        text = export_table(db)
        assert export_table(import_table(text)) == text

        for argv in (["db", "--export", "-"],
                     ["family", "--list", "--machine"],
                     ["toric", "--rays", "1,0;0,1;-1,-1", "--machine"],
                     ["db", "--cross-check", "--machine"]):
            outputs = []
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                assert run(list(argv), stdout=out, stderr=err) == 0
                assert err.getvalue() == ""
                outputs.append(out.getvalue())
            assert outputs[0] == outputs[1] and outputs[0]

    report(10, "table round trip is byte identical; machine output is byte "
               "stable across runs", check)
