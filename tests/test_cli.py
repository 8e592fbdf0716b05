"""Command line behavior: exit codes, human and machine output, byte
stability."""

import argparse
import io
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from toriclct.cli import _SUBCOMMANDS, _build_parser, run
from toriclct.database import export_table, load_builtin

P2_RAYS = "1,0;0,1;-1,-1"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# start-up


def test_cli_import_loads_no_dataclasses_machinery():
    # each CLI call is a fresh process; these modules cost about 20 ms of it
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys; before = set(sys.modules); import toriclct.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    loaded = set(done.stdout.split())
    assert "toriclct.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize", "copy"})


def test_the_module_runs_as_a_script():
    # python -m toriclct.cli is the CLI: its output and its exit status
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "toriclct.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    done = module("db", "--machine")
    code, out, _ = invoke("db", "--machine")
    assert code == 0 and out
    assert (done.returncode, done.stdout) == (0, out)
    assert module("bogus").returncode == 2


@pytest.mark.parametrize("argv, built", [
    (("toric", "--rays", P2_RAYS, "--machine"), 2),
    (("db", "--machine"), 2),
    (("wps", "-h"), 2),
    (("dp", "--degree", "3", "--bogus"), 2),
    (("--help",), 14),
    ((), 14),
    (("frobnicate",), 14),
])
def test_a_call_builds_only_its_own_subcommands_parser(calls, argv, built):
    # the top-level parser plus one subparser, or plus all 13 for help and
    # the errors that print the whole tree
    built_parsers = calls(argparse.ArgumentParser, "__init__")
    invoke(*argv)
    assert len(built_parsers) == built


# ---------------------------------------------------------------------------
# parser level


def test_no_arguments_is_usage_error():
    code, _, err = invoke()
    assert code == 2 and "usage" in err
    assert err.endswith("error: the following arguments are required: command\n")


def test_help_exits_zero():
    code, out, _ = invoke("--help")
    assert code == 0 and "toric" in out


def test_unknown_subcommand():
    code, _, _ = invoke("frobnicate")
    assert code == 2


# subcommand: (a valid call, a call missing a required argument, a bad type=
# value, a mutually exclusive conflict); None where the subcommand has none
PARSER_CASES = {
    "toric": (["--rays", P2_RAYS, "--group", "0,1,1,0"], [], ["--rays", "1,x"],
              ["--rays", P2_RAYS, "--fan-file", "fan.txt"]),
    "wps": (["1", "1", "2", "3"], [], ["1", "x"], None),
    "bundle": (["--base-dim", "2", "--twists", "1,2"], ["--base-dim", "2"],
               ["--base-dim", "x", "--twists", "1"], None),
    "cse": (["--monomial", "2,3,5"], [], ["--fermat", "2,,5"],
            ["--monomial", "2,3", "--fermat", "2,3"]),
    "hypersurface": (["--ambient", "4", "--degree", "2"], ["--ambient", "4"],
                     ["--ambient", "x", "--degree", "2"], None),
    "double-cover": (["--ambient", "4", "--degree", "3"], ["--degree", "3"],
                     ["--ambient", "4", "--degree", "3/2"], None),
    "product": (["1/3", "1/2"], ["1/3"], ["1/3", "x"], None),
    "p1-product": (["2/3"], [], ["2/x"], None),
    "dp": (["--degree", "8", "--deg8", "product"], ["--eckardt"], ["--degree", "x"],
           ["--degree", "1", "--cuspidal", "--tacnodal"]),
    "cubic-sing": (["A4,A1"], [], None, None),
    "family": (["--list", "--rank", "2", "--value", "1/2"], None, ["--list", "--rank", "x"],
               None),
    "db": (["--import", "table.txt"], None, None, ["--cross-check", "--export", "-"]),
    "equivariant": (["dP5_S5"], None, None, None),
}


def parse(parser, argv):
    """(namespace as a dict or None, exit code, stdout, stderr) of parse_args."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            namespace, code = vars(parser.parse_args(argv)), 0
        except SystemExit as exc:
            namespace, code = None, exc.code
    return namespace, code, out.getvalue(), err.getvalue()


def test_parser_cases_cover_every_subcommand():
    assert list(PARSER_CASES) == list(_SUBCOMMANDS) and len(_SUBCOMMANDS) == 13


@pytest.mark.parametrize("name", PARSER_CASES)
def test_one_subcommand_parser_matches_the_full_tree(name):
    valid, missing, bad_type, conflict = PARSER_CASES[name]
    cases = [(valid, 0), (valid + ["--machine"], 0), (["-h"], 0), (valid + ["--bogus"], 2),
             (valid + ["--machine=yes"], 2)]
    cases += [(tail, 2) for tail in (missing, bad_type, conflict) if tail is not None]
    for tail, expected_code in cases:
        argv = [name, *tail]
        got = parse(_build_parser(name), argv)
        assert got == parse(_build_parser(), argv), argv
        assert got[1] == expected_code, argv
        assert (got[0] is None) == (expected_code != 0 or tail == ["-h"]), argv
    # an unrecognized argument prints the top-level usage, naming every subcommand
    usage = " ".join(parse(_build_parser(name), [name, *valid, "--bogus"])[3].split())
    assert usage.startswith("usage: toriclct [-h] {" + ",".join(_SUBCOMMANDS) + "} ...")


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


def test_toric_strings_starting_with_a_minus_sign_attach_with_equals():
    rays, group = "-1,0;1,0;0,1;0,-1", "-1,0,0,-1"
    assert invoke("toric", "--rays", rays, "--machine")[0] == 2
    code, out, err = invoke("toric", f"--rays={rays}", f"--group={group}", "--machine")
    assert code == 0 and err == ""
    assert out == ("lct=1\n"
                   "max_pairing=0\n"
                   "witness_vertex=0,0\n"
                   "witness_ray=-1,0\n")


def test_toric_group_needs_square_matrices():
    code, _, err = invoke("toric", "--rays", P2_RAYS, "--group", "0,1,1")
    assert code == 1 and "entries" in err


@pytest.mark.parametrize("group", [";", ""])
def test_toric_empty_group_list_is_an_error(group):
    code, out, err = invoke("toric", "--rays", P2_RAYS, f"--group={group}")
    assert code == 1 and out == "" and "need at least one generator" in err


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


@pytest.mark.parametrize("action", ["default", "error"])
def test_toric_warning_is_one_stderr_line(action):
    # a non-primitive ray warns; the process's warning filters do not matter
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        code, out, err = invoke("toric", "--rays", "2,0;0,1;-1,-1", "--machine")
    assert code == 0
    assert out == invoke("toric", "--rays", P2_RAYS, "--machine")[1]
    assert err == "warning: ray (2, 0) normalized to primitive (1, 0)\n"


def test_toric_warnings_precede_the_error():
    code, out, err = invoke("toric", "--rays", "2,0;0,1;-1,-1", "--group", "0,1")
    assert code == 1 and out == ""
    assert err == ("warning: ray (2, 0) normalized to primitive (1, 0)\n"
                   "error: ValueError: expected 4 row-major entries\n")


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


@pytest.mark.parametrize("argv, option", [
    (("toric", "--rays", "1,0;0,1;-1,x"), "--rays"),
    (("toric", "--rays", P2_RAYS, "--group", "0,1,1,x"), "--group"),
    (("cse", "--monomial", "2,x"), "--monomial"),
    (("cse", "--fermat", "2,3.0"), "--fermat"),
    (("bundle", "--base-dim", "1", "--twists", "1.5"), "--twists"),
    # a blank token is an error in every integer list
    (("cse", "--monomial", "2,,3"), "--monomial"),
    (("cse", "--fermat", "2,3,"), "--fermat"),
    (("bundle", "--base-dim", "1", "--twists", "1,,2"), "--twists"),
    (("toric", "--rays", "1,,0;0,1;-1,-1"), "--rays"),
    (("toric", "--rays", P2_RAYS, "--group", "0,1,,1,0"), "--group"),
    # a token is an optional '-' and ASCII digits, in lists and scalars alike
    (("toric", "--rays=1,0;0,1;-1,-\u0661"), "--rays"),
    (("toric", "--rays", "1,0;0,1;1_0,-1"), "--rays"),
    (("bundle", "--base-dim", "1", "--twists", "+1"), "--twists"),
    (("bundle", "--base-dim", "1_0", "--twists", "1"), "--base-dim"),
    (("bundle", "--base-dim", "\u0662", "--twists", "1"), "--base-dim"),
    (("wps", "1", "1_0", "1"), "weights"),
    (("wps", "1", "+1", "\u0661"), "weights"),
])
def test_bad_integer_list_is_a_usage_error_naming_the_option(argv, option):
    code, out, err = invoke(*argv, "--machine")
    assert code == 2 and out == ""
    assert f"argument {option}: invalid " in err and "invalid literal" not in err


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


@pytest.mark.parametrize("argv, message", [
    (("1.1", "--list"), "give a family id or --list, not both"),
    (("1.1", "--list", "--rank", "2"), "give a family id or --list, not both"),
    (("1.1", "--rank", "2"), "--rank, --status and --value filter --list only"),
    (("1.1", "--status", "exact_all"), "filter --list only"),
    (("1.1", "--value", "1/2"), "filter --list only"),
    (("--rank", "2"), "filter --list only"),
    (("--status", "unknown"), "filter --list only"),
    (("--value", "3/7", "--machine"), "filter --list only"),
])
def test_family_rejects_arguments_it_would_ignore(argv, message):
    code, out, err = invoke("family", *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: ValueError: ")
    assert message in err


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
