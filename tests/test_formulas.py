"""Closed-form threshold and singularity-exponent formulas."""

import random
from fractions import Fraction

import pytest

from toriclct.errors import (NotWellFormed, OutOfRegime, UnknownKey,
                             UnsupportedDescriptor)
from toriclct.formulas import (CUBIC_SINGULARITY_TYPES, KNOWN_EQUIVARIANT,
                               DelPezzoDescriptor, cubic_surface_lct,
                               del_pezzo_lct, double_cover_lct, fermat_cse,
                               hypersurface_lct, known_equivariant_lct,
                               monomial_cse, p1_product_lct, product_lct,
                               wps_lct)
from toriclct.toric import toric_lct, wps_fan

F = Fraction


# ---------------------------------------------------------------------------
# weighted projective spaces


def test_wps_values():
    assert wps_lct((1, 1)) == F(1, 2)
    assert wps_lct((1, 1, 1, 1)) == F(1, 4)
    assert wps_lct((1, 1, 2)) == F(1, 4)
    assert wps_lct((1, 1, 2, 6, 9)) == F(1, 19)


def test_wps_order_insensitive():
    assert wps_lct((2, 1, 1)) == wps_lct((1, 1, 2)) == F(1, 4)


def test_wps_rejects_bad_weights():
    with pytest.raises(NotWellFormed):
        wps_lct((2, 2, 3))
    with pytest.raises(ValueError):
        wps_lct((1, 0, 1))
    with pytest.raises(ValueError):
        wps_lct((1,))


def test_wps_rejects_non_integer_weights():
    for bad in (2.7, 2.0, F(3, 2)):
        with pytest.raises(ValueError, match="non-integer"):
            wps_lct((1, 1, bad))
    assert wps_lct((1, 1, 2)) == F(1, 4)


def test_wps_matches_engine():
    for weights in ((1, 1), (1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 1, 2, 3)):
        assert wps_lct(weights) == toric_lct(wps_fan(weights)).lct


# ---------------------------------------------------------------------------
# hypersurfaces and double covers


def test_hypersurface_values():
    assert hypersurface_lct(4, 2) == F(1, 3)
    assert hypersurface_lct(3, 1) == F(1, 3)
    assert hypersurface_lct(5, 3) == F(1, 3)


def test_hypersurface_regime():
    with pytest.raises(OutOfRegime):
        hypersurface_lct(4, 4)
    with pytest.raises(OutOfRegime):
        hypersurface_lct(3, 5)
    with pytest.raises(ValueError):
        hypersurface_lct(1, 1)
    with pytest.raises(ValueError):
        hypersurface_lct(3, 0)


def test_hypersurface_and_double_cover_reject_non_integers():
    for lct in (hypersurface_lct, double_cover_lct):
        for n, m in ((4.0, 2), (4, 2.0), (F(4), 2), (4, 2.5)):
            with pytest.raises(ValueError, match="non-integer"):
                lct(n, m)


def test_double_cover_values():
    assert double_cover_lct(4, 3) == F(1, 2)
    assert double_cover_lct(5, 2) == F(1, 4)
    assert double_cover_lct(3, 2) == F(1, 2)


def test_double_cover_regime():
    with pytest.raises(OutOfRegime):
        double_cover_lct(3, 3)
    with pytest.raises(OutOfRegime):
        double_cover_lct(3, 1)
    with pytest.raises(OutOfRegime):
        double_cover_lct(4, 5)


# ---------------------------------------------------------------------------
# singularity exponents


def test_monomial_cse():
    assert monomial_cse((1, 1, 1)) == 1
    assert monomial_cse((2, 3)) == F(1, 3)
    assert monomial_cse((5,)) == F(1, 5)


def test_monomial_cse_rejects_bad_input():
    with pytest.raises(ValueError):
        monomial_cse(())
    with pytest.raises(ValueError):
        monomial_cse((1, 0))
    with pytest.raises(ValueError):
        monomial_cse((1, -2))


def test_cse_rejects_non_integer_exponents():
    for cse in (monomial_cse, fermat_cse):
        for bad in (2.5, 2.0, F(3, 2)):
            with pytest.raises(ValueError, match="non-integer"):
                cse((2, bad))
    assert (monomial_cse((2, 3)), fermat_cse((2, 3))) == (F(1, 3), F(5, 6))


def test_fermat_cse():
    assert fermat_cse((2, 2)) == 1
    assert fermat_cse((2, 3, 7)) == F(41, 42)
    assert fermat_cse((4,)) == F(1, 4)


def test_fermat_dominates_monomial():
    rng = random.Random(5)
    for _ in range(100):
        exps = tuple(rng.randint(1, 9)
                     for _ in range(rng.randint(1, 5)))
        assert fermat_cse(exps) >= monomial_cse(exps)


def test_fermat_caps_at_one():
    assert fermat_cse((1, 1)) == 1
    assert fermat_cse((2, 2, 2, 2)) == 1


# ---------------------------------------------------------------------------
# products


def test_product_rule():
    assert product_lct(F(1, 3), F(1, 2)) == F(1, 3)
    assert product_lct(F(1, 2), F(1, 2)) == F(1, 2)
    assert product_lct(F(1), F(2, 3)) == F(2, 3)


def test_product_rule_range_check():
    with pytest.raises(ValueError):
        product_lct(F(0), F(1, 2))
    with pytest.raises(ValueError):
        product_lct(F(1, 2), F(3, 2))


def test_p1_product():
    assert p1_product_lct(F(2, 3)) == F(1, 2)
    assert p1_product_lct(F(1, 3)) == F(1, 3)
    assert p1_product_lct(F(1, 2)) == F(1, 2)


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/0", F(1, 3) + 0.0],
                         ids=["float", "float_half", "zero_denominator", "float_sum"])
def test_product_rules_take_only_exact_thresholds(bad):
    with pytest.raises(ValueError):
        product_lct(bad, 1)
    with pytest.raises(ValueError):
        product_lct(F(1, 2), bad)
    with pytest.raises(ValueError):
        p1_product_lct(bad)


def test_product_rules_read_ints_fractions_and_strings_exactly():
    assert product_lct(1, "1/3") == product_lct("0.5", F(1, 3)) == F(1, 3)
    assert p1_product_lct("1/3") == F(1, 3) and p1_product_lct(1) == F(1, 2)
    assert type(product_lct(1, 1)) is Fraction


# ---------------------------------------------------------------------------
# del Pezzo surfaces


def test_del_pezzo_smooth_values():
    assert del_pezzo_lct(DelPezzoDescriptor(1)) == 1
    assert del_pezzo_lct(DelPezzoDescriptor(2)) == F(5, 6)
    assert del_pezzo_lct(DelPezzoDescriptor(3)) == F(3, 4)
    assert del_pezzo_lct(DelPezzoDescriptor(4)) == F(2, 3)
    assert del_pezzo_lct(DelPezzoDescriptor(5)) == F(1, 2)
    assert del_pezzo_lct(DelPezzoDescriptor(6)) == F(1, 2)
    assert del_pezzo_lct(DelPezzoDescriptor(7)) == F(1, 3)
    assert del_pezzo_lct(DelPezzoDescriptor(9)) == F(1, 3)


def test_del_pezzo_flagged_values():
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


def test_del_pezzo_one_node_values():
    assert del_pezzo_lct(DelPezzoDescriptor(4, nodes=1)) == F(1, 2)
    assert del_pezzo_lct(DelPezzoDescriptor(5, nodes=1)) == F(1, 2)
    assert del_pezzo_lct(DelPezzoDescriptor(6, nodes=1)) == F(1, 3)


def test_del_pezzo_totality():
    # every descriptor the type admits gets a value in the published range
    descriptors = [
        DelPezzoDescriptor(1), DelPezzoDescriptor(1, has_cuspidal_anticanonical=True),
        DelPezzoDescriptor(2), DelPezzoDescriptor(2, has_tacnodal_anticanonical=True),
        DelPezzoDescriptor(3), DelPezzoDescriptor(3, has_eckardt_point=True),
        DelPezzoDescriptor(4), DelPezzoDescriptor(4, nodes=1),
        DelPezzoDescriptor(5), DelPezzoDescriptor(5, nodes=1),
        DelPezzoDescriptor(6), DelPezzoDescriptor(6, nodes=1),
        DelPezzoDescriptor(7),
        DelPezzoDescriptor(8, degree8_type="product"),
        DelPezzoDescriptor(8, degree8_type="nonproduct"),
        DelPezzoDescriptor(9),
    ]
    assert len(descriptors) == 16
    allowed = {F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(5, 6), F(1)}
    for d in descriptors:
        assert del_pezzo_lct(d) in allowed


def test_del_pezzo_unsupported():
    with pytest.raises(UnsupportedDescriptor):
        del_pezzo_lct(DelPezzoDescriptor(7, nodes=1))
    with pytest.raises(UnsupportedDescriptor, match="cubic"):
        del_pezzo_lct(DelPezzoDescriptor(3, nodes=1))
    with pytest.raises(UnsupportedDescriptor):
        del_pezzo_lct(DelPezzoDescriptor(4, has_eckardt_point=True))
    with pytest.raises(UnsupportedDescriptor):
        del_pezzo_lct(DelPezzoDescriptor(1, has_tacnodal_anticanonical=True))
    with pytest.raises(UnsupportedDescriptor):
        del_pezzo_lct(DelPezzoDescriptor(8))
    with pytest.raises(UnsupportedDescriptor):
        del_pezzo_lct(DelPezzoDescriptor(5, degree8_type="product"))
    with pytest.raises(UnsupportedDescriptor):
        del_pezzo_lct(DelPezzoDescriptor(0))
    with pytest.raises(UnsupportedDescriptor):
        del_pezzo_lct(DelPezzoDescriptor(10))
    with pytest.raises(UnsupportedDescriptor):
        del_pezzo_lct(DelPezzoDescriptor(4, nodes=2))


# ---------------------------------------------------------------------------
# singular cubic surfaces


def test_cubic_single_node():
    assert cubic_surface_lct(["A1"]) == F(2, 3)


def test_cubic_worst_cases():
    assert cubic_surface_lct(["A5"]) == F(1, 4)
    assert cubic_surface_lct(["A5", "A1"]) == F(1, 4)
    assert cubic_surface_lct(["D5"]) == F(1, 4)
    assert cubic_surface_lct(["E6"]) == F(1, 6)


def test_cubic_third_cases():
    assert cubic_surface_lct(["A4"]) == F(1, 3)
    assert cubic_surface_lct(["A4", "A1"]) == F(1, 3)
    assert cubic_surface_lct(["D4"]) == F(1, 3)
    assert cubic_surface_lct(["A2", "A2"]) == F(1, 3)
    assert cubic_surface_lct(["A2", "A2", "A2"]) == F(1, 3)


def test_cubic_half_cases():
    assert cubic_surface_lct(["A1", "A1"]) == F(1, 2)
    assert cubic_surface_lct(["A2"]) == F(1, 2)
    assert cubic_surface_lct(["A3"]) == F(1, 2)
    assert cubic_surface_lct(["A2", "A1"]) == F(1, 2)
    # D4 paired with extra singularities leaves the "exactly D4" case
    assert cubic_surface_lct(["D4", "A1"]) == F(1, 2)


def test_cubic_order_insensitive():
    assert cubic_surface_lct(["A1", "A4"]) == cubic_surface_lct(["A4", "A1"])


def test_cubic_rejects_bad_input():
    with pytest.raises(ValueError):
        cubic_surface_lct([])
    with pytest.raises(ValueError):
        cubic_surface_lct(["A6"])
    with pytest.raises(ValueError):
        cubic_surface_lct(["E8"])
    assert CUBIC_SINGULARITY_TYPES == ("A1", "A2", "A3", "A4", "A5",
                                       "D4", "D5", "E6")


# ---------------------------------------------------------------------------
# recorded symmetric thresholds


def test_known_equivariant_entries():
    assert known_equivariant_lct("dP5_S5").value == 2
    assert known_equivariant_lct("dP5_A5").value == 2
    assert known_equivariant_lct("FermatCubic_Aut").value == 4
    assert known_equivariant_lct("P2_A6").value == 2
    for key in KNOWN_EQUIVARIANT:
        assert known_equivariant_lct(key).provenance


def test_known_equivariant_unknown_key():
    with pytest.raises(UnknownKey, match="dP5_S5"):
        known_equivariant_lct("nonsense")


# Every descriptor over degree 0..10, nodes 0..2, at most one flag and every
# degree8_type: the ones below get their value, all others raise.
DEL_PEZZO_GRID_VALUES = {
    (1, 0, "cuspidal", None): F(5, 6), (1, 0, None, None): F(1),
    (2, 0, "tacnodal", None): F(3, 4), (2, 0, None, None): F(5, 6),
    (3, 0, "eckardt", None): F(2, 3), (3, 0, None, None): F(3, 4),
    (4, 0, None, None): F(2, 3), (4, 1, None, None): F(1, 2),
    (5, 0, None, None): F(1, 2), (5, 1, None, None): F(1, 2),
    (6, 0, None, None): F(1, 2), (6, 1, None, None): F(1, 3),
    (7, 0, None, None): F(1, 3),
    (8, 0, None, "product"): F(1, 2), (8, 0, None, "nonproduct"): F(1, 3),
    (9, 0, None, None): F(1, 3),
}


def test_del_pezzo_descriptor_grid():
    flags = {None: {}, "cuspidal": {"has_cuspidal_anticanonical": True},
             "tacnodal": {"has_tacnodal_anticanonical": True},
             "eckardt": {"has_eckardt_point": True}}
    seen = {}
    for degree in range(11):
        for nodes in range(3):
            for flag, kwargs in flags.items():
                for deg8 in (None, "product", "nonproduct"):
                    key = (degree, nodes, flag, deg8)
                    try:
                        seen[key] = del_pezzo_lct(DelPezzoDescriptor(
                            degree, nodes=nodes, degree8_type=deg8, **kwargs))
                    except UnsupportedDescriptor:
                        pass
    assert seen == DEL_PEZZO_GRID_VALUES


def test_del_pezzo_degree8_type_is_no_flag():
    for degree, flag in ((1, "cuspidal"), (2, "tacnodal"), (3, "Eckardt")):
        with pytest.raises(UnsupportedDescriptor):
            DelPezzoDescriptor(degree, degree8_type=flag)
