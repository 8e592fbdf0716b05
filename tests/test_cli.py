"""Command line behavior: exit codes, human and machine output, byte
stability."""

import io

import pytest

from toriclct.cli import run
from toriclct.database import export_table, load_builtin

P2_RAYS = "1,0;0,1;-1,-1"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# parser level


def test_no_arguments_is_usage_error():
    code, _, err = invoke()
    assert code == 2 and "usage" in err


def test_help_exits_zero():
    code, out, _ = invoke("--help")
    assert code == 0 and "toric" in out


def test_unknown_subcommand():
    code, _, _ = invoke("frobnicate")
    assert code == 2


# ---------------------------------------------------------------------------
# toric


def test_toric_machine_output_exact():
    code, out, err = invoke("toric", "--rays", P2_RAYS, "--machine")
    assert code == 0 and err == ""
    assert out == ("lct=1/3\n"
                   "max_pairing=2\n"
                   "witness_vertex=-1,-1\n"
                   "witness_ray=-1,-1\n")


def test_toric_human_output():
    code, out, _ = invoke("toric", "--rays", P2_RAYS)
    assert code == 0
    assert "lct = 1/3" in out
    assert "witness vertex = (-1, -1)" in out


def test_toric_with_group():
    code, out, _ = invoke("toric", "--rays", P2_RAYS,
                          "--group", "0,1,1,0;0,-1,1,-1")
    assert code == 0
    assert "group order = 6" in out
    assert "lct = 1" in out


def test_toric_group_needs_square_matrices():
    code, _, err = invoke("toric", "--rays", P2_RAYS, "--group", "0,1,1")
    assert code == 1 and "entries" in err


def test_toric_incomplete_fan():
    code, _, err = invoke("toric", "--rays", "1,0;0,1")
    assert code == 1 and "FanNotComplete" in err


def test_toric_requires_a_source():
    code, _, _ = invoke("toric")
    assert code == 2


def test_toric_rays_and_file_conflict():
    code, _, _ = invoke("toric", "--rays", P2_RAYS, "--fan-file", "x")
    assert code == 2


def test_toric_fan_file(tmp_path):
    path = tmp_path / "fan.txt"
    path.write_text("1,0\n0,1\n-1,-1\n")
    code, out, _ = invoke("toric", "--fan-file", str(path), "--machine")
    assert code == 0 and out.startswith("lct=1/3\n")


def test_toric_fan_file_with_group(tmp_path):
    path = tmp_path / "fan.txt"
    path.write_text("1,0\n0,1\n-1,-1\n\n1,0,0,1\n0,1,1,0\n0,-1,1,-1\n"
                    "-1,1,-1,0\n1,-1,0,-1\n-1,0,-1,1\n")
    code, out, _ = invoke("toric", "--fan-file", str(path), "--machine")
    assert code == 0 and out.startswith("lct=1\n")
    code, _, err = invoke("toric", "--fan-file", str(path),
                          "--group", "0,1,1,0")
    assert code == 1 and "drop --group" in err


def test_toric_missing_file():
    code, _, err = invoke("toric", "--fan-file", "/no/such/file")
    assert code == 1 and "error" in err


# ---------------------------------------------------------------------------
# wps and bundle


def test_wps():
    code, out, _ = invoke("wps", "1", "1", "2", "--machine")
    assert code == 0 and out == "lct=1/4\n"


def test_wps_human_shows_weights():
    code, out, _ = invoke("wps", "1", "1", "2", "3")
    assert code == 0
    assert "weights = (1, 1, 2, 3)" in out and "lct = 1/7" in out


def test_wps_rejects_zero_weight():
    code, _, err = invoke("wps", "1", "1", "0")
    assert code == 1 and "positive" in err


def test_wps_rejects_ill_formed():
    code, _, err = invoke("wps", "2", "2", "3")
    assert code == 1 and "NotWellFormed" in err


def test_bundle_machine():
    code, out, _ = invoke("bundle", "--base-dim", "2", "--twists", "1",
                          "--machine")
    assert code == 0 and out == "lct=1/4\n"


def test_bundle_human_shows_both_routes():
    code, out, _ = invoke("bundle", "--base-dim", "2", "--twists", "2")
    assert code == 0
    assert "base dimension = 2" in out
    assert "twists = (2)" in out
    assert "closed form = 1/5" in out
    assert "fan engine = 1/5" in out


def test_bundle_rejects_negative_twist():
    code, _, err = invoke("bundle", "--base-dim", "2", "--twists", "-1")
    assert code == 1 and "error" in err


# ---------------------------------------------------------------------------
# formula subcommands


def test_cse_monomial():
    code, out, _ = invoke("cse", "--monomial", "2,3", "--machine")
    assert code == 0 and out == "lct=1/3\n"


def test_cse_fermat():
    code, out, _ = invoke("cse", "--fermat", "2,3,7")
    assert code == 0 and "cse = 41/42" in out


def test_cse_flags_are_exclusive():
    code, _, _ = invoke("cse", "--monomial", "2", "--fermat", "2")
    assert code == 2
    code, _, _ = invoke("cse")
    assert code == 2


def test_hypersurface():
    code, out, _ = invoke("hypersurface", "--ambient", "4", "--degree", "2",
                          "--machine")
    assert code == 0 and out == "lct=1/3\n"


def test_hypersurface_out_of_regime():
    code, _, err = invoke("hypersurface", "--ambient", "3", "--degree", "3")
    assert code == 1 and "OutOfRegime" in err


def test_double_cover():
    code, out, _ = invoke("double-cover", "--ambient", "4", "--degree", "3",
                          "--machine")
    assert code == 0 and out == "lct=1/2\n"


def test_product():
    code, out, _ = invoke("product", "1/3", "1/2", "--machine")
    assert code == 0 and out == "lct=1/3\n"


def test_p1_product():
    code, out, _ = invoke("p1-product", "2/3", "--machine")
    assert code == 0 and out == "lct=1/2\n"


@pytest.mark.parametrize("argv", [
    ("product", "1/0", "1/2"),
    ("p1-product", "2/0"),
    ("family", "--list", "--value", "1/0"),
    ("product", "1/x", "1/2"),
])
def test_bad_fraction_is_a_usage_error(argv):
    code, out, err = invoke(*argv)
    assert code == 2 and out == "" and "invalid Fraction value" in err


def test_dp_smooth():
    code, out, _ = invoke("dp", "--degree", "5", "--machine")
    assert code == 0 and out == "lct=1/2\n"


def test_dp_flags():
    code, out, _ = invoke("dp", "--degree", "3", "--eckardt", "--machine")
    assert code == 0 and out == "lct=2/3\n"
    code, out, _ = invoke("dp", "--degree", "8", "--deg8", "product",
                          "--machine")
    assert code == 0 and out == "lct=1/2\n"
    code, out, _ = invoke("dp", "--degree", "6", "--nodes", "1", "--machine")
    assert code == 0 and out == "lct=1/3\n"


def test_dp_flag_conflicts_are_usage_errors():
    code, _, _ = invoke("dp", "--degree", "1", "--cuspidal", "--tacnodal")
    assert code == 2
    code, _, _ = invoke("dp", "--degree", "4", "--nodes", "2")
    assert code == 2


def test_dp_unsupported_descriptor():
    code, _, err = invoke("dp", "--degree", "7", "--nodes", "1")
    assert code == 1 and "UnsupportedDescriptor" in err
    code, _, err = invoke("dp", "--degree", "8")
    assert code == 1 and "deg8" in err.replace("degree 8", "deg8")


def test_cubic_sing():
    code, out, _ = invoke("cubic-sing", "A4,A1", "--machine")
    assert code == 0 and out == "lct=1/3\n"
    code, _, err = invoke("cubic-sing", "Z9")
    assert code == 1


# ---------------------------------------------------------------------------
# family and db


def test_family_human():
    code, out, _ = invoke("family", "3.27")
    assert code == 0
    assert "family 3.27" in out
    assert "rank = 3" in out
    assert "status = exact value for every smooth member" in out
    assert "lct = 1/2" in out
    assert "fan rays = 6" in out


def test_family_upper_bound_rendering():
    code, out, _ = invoke("family", "1.10")
    assert code == 0 and "lct <= 2/3" in out


def test_family_notes_rendering():
    code, out, _ = invoke("family", "3.24")
    assert code == 0 and "notes = " in out


def test_family_machine():
    code, out, _ = invoke("family", "4.5", "--machine")
    assert code == 0
    assert out.startswith("status=exact_all\nlct=3/7\n")


def test_family_unknown_id():
    code, _, err = invoke("family", "9.9")
    assert code == 1 and "InvalidId" in err


def test_family_needs_id_or_list():
    code, _, err = invoke("family")
    assert code == 1 and "--list" in err


def test_family_list_rank_filter():
    code, out, _ = invoke("family", "--list", "--rank", "5")
    assert code == 0 and len(out.splitlines()) == 8


def test_family_list_value_filter():
    code, out, _ = invoke("family", "--list", "--value", "3/7")
    assert code == 0 and out.splitlines() == ["4.5  rank=4  exact_all  3/7"]


def test_family_list_machine_matches_export():
    code, out, _ = invoke("family", "--list", "--machine")
    assert code == 0
    expected = [ln for ln in export_table(load_builtin()).splitlines()
                if "|" in ln]
    assert out.splitlines() == expected


def test_db_summary():
    code, out, _ = invoke("db")
    assert code == 0 and "families = 105" in out and "stored fans = 18" in out
    code, out, _ = invoke("db", "--machine")
    assert code == 0
    assert "families=105" in out and "exact_all=64" in out and "fans=18" in out


def test_db_cross_check():
    code, out, _ = invoke("db", "--cross-check")
    assert code == 0 and "fan checks passed = 18/18" in out
    code, out, _ = invoke("db", "--cross-check", "--machine")
    assert code == 0 and out.endswith("status=pass\n")
    assert "3.27=pass" in out


def test_db_export_stdout_is_exact_table():
    code, out, err = invoke("db", "--export", "-")
    assert code == 0 and err == ""
    assert out == export_table(load_builtin())


def test_db_export_file_and_import(tmp_path):
    path = tmp_path / "table.txt"
    code, out, _ = invoke("db", "--export", str(path))
    assert code == 0 and f"wrote {path}" in out
    code, out, _ = invoke("db", "--import", str(path))
    assert code == 0 and "families = 105" in out


def test_db_import_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a table\n")
    code, _, err = invoke("db", "--import", str(path))
    assert code == 1 and "line 1" in err


def test_db_import_missing_file():
    code, _, err = invoke("db", "--import", "/no/such/table")
    assert code == 1 and "error" in err


def test_db_modes_are_exclusive():
    code, _, _ = invoke("db", "--cross-check", "--export", "-")
    assert code == 2


# ---------------------------------------------------------------------------
# equivariant


def test_equivariant_lists_keys():
    code, out, _ = invoke("equivariant")
    assert code == 0
    assert out.splitlines() == ["FermatCubic_Aut", "P2_A6", "dP5_A5", "dP5_S5"]


def test_equivariant_lookup():
    code, out, _ = invoke("equivariant", "dP5_S5", "--machine")
    assert code == 0 and out.startswith("lct=2\nprovenance=")


def test_equivariant_unknown_key():
    code, _, err = invoke("equivariant", "dP9_X9")
    assert code == 1 and "UnknownKey" in err


# ---------------------------------------------------------------------------
# stability


@pytest.mark.parametrize("argv", [
    ("db", "--export", "-"),
    ("family", "--list", "--machine"),
    ("toric", "--rays", P2_RAYS, "--machine"),
    ("db", "--cross-check", "--machine"),
])
def test_machine_output_is_byte_stable(argv):
    first = invoke(*argv)
    second = invoke(*argv)
    assert first == second and first[0] == 0
