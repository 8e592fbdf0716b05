"""The full stdout of each subcommand, in human and --machine mode, pinned
as literal text: a reordered, relabelled or reformatted line fails here."""

import io

import pytest

from toriclct.cli import run

P2_RAYS = "1,0;0,1;-1,-1"
S3_GENERATORS = "0,1,1,0;0,-1,1,-1"
# P2 followed by a group block: the identity and the swap of the first
# two rays
FAN_WITH_GROUP = "1,0\n0,1\n-1,-1\n\n1,0,0,1\n0,1,1,0\n"

# (argv, human stdout, --machine stdout); every case exits 0
CASES = [
    (("toric", "--rays", P2_RAYS),
     "lct = 1/3\n"
     "max pairing = 2\n"
     "witness vertex = (-1, -1)\n"
     "witness ray = (-1, -1)\n",
     "lct=1/3\n"
     "max_pairing=2\n"
     "witness_vertex=-1,-1\n"
     "witness_ray=-1,-1\n"),
    (("toric", "--rays", P2_RAYS, "--group", S3_GENERATORS),
     "group order = 6\n"
     "lct = 1\n"
     "max pairing = 0\n"
     "witness vertex = (0, 0)\n"
     "witness ray = (-1, -1)\n",
     "lct=1\n"
     "max_pairing=0\n"
     "witness_vertex=0,0\n"
     "witness_ray=-1,-1\n"),
    (("toric", "--fan-file", "-"),
     "group order = 2\n"
     "lct = 1/3\n"
     "max pairing = 2\n"
     "witness vertex = (-1, -1)\n"
     "witness ray = (-1, -1)\n",
     "lct=1/3\n"
     "max_pairing=2\n"
     "witness_vertex=-1,-1\n"
     "witness_ray=-1,-1\n"),
    (("wps", "1", "1", "2", "3"),
     "weights = (1, 1, 2, 3)\n"
     "lct = 1/7\n",
     "lct=1/7\n"),
    (("bundle", "--base-dim", "2", "--twists", "1,2"),
     "base dimension = 2\n"
     "twists = (1, 2)\n"
     "closed form = 1/6\n"
     "fan engine = 1/6\n",
     "lct=1/6\n"),
    (("cse", "--monomial", "2,3,5"),
     "cse = 1/5\n",
     "lct=1/5\n"),
    (("cse", "--fermat", "2,3,7"),
     "cse = 41/42\n",
     "lct=41/42\n"),
    (("hypersurface", "--ambient", "4", "--degree", "2"),
     "lct = 1/3\n",
     "lct=1/3\n"),
    (("double-cover", "--ambient", "4", "--degree", "3"),
     "lct = 1/2\n",
     "lct=1/2\n"),
    (("product", "1/3", "1/2"),
     "lct = 1/3\n",
     "lct=1/3\n"),
    (("p1-product", "2/3"),
     "lct = 1/2\n",
     "lct=1/2\n"),
    (("dp", "--degree", "5"),
     "lct = 1/2\n",
     "lct=1/2\n"),
    (("dp", "--degree", "3", "--eckardt"),
     "lct = 2/3\n",
     "lct=2/3\n"),
    (("dp", "--degree", "8", "--deg8", "nonproduct"),
     "lct = 1/3\n",
     "lct=1/3\n"),
    (("cubic-sing", "A4,A1"),
     "lct = 1/3\n",
     "lct=1/3\n"),
    (("family", "3.27"),
     "family 3.27\n"
     "rank = 3\n"
     "status = exact value for every smooth member\n"
     "lct = 1/2\n"
     "provenance = toric: P1 x P1 x P1\n"
     "fan rays = 6\n",
     "status=exact_all\n"
     "lct=1/2\n"
     "provenance=toric: P1 x P1 x P1\n"),
    (("family", "1.8"),
     "family 1.8\n"
     "rank = 1\n"
     "status = upper bound\n"
     "lct <= 6/7\n"
     "provenance = explicit low-threshold anticanonical divisor\n",
     "status=upper_bound\n"
     "lct=6/7\n"
     "provenance=explicit low-threshold anticanonical divisor\n"),
    (("family", "1.2"),
     "family 1.2\n"
     "rank = 1\n"
     "status = open\n"
     "provenance = no sharp bound established\n"
     "notes = smooth quartic threefold: 3/4 <= lct <= 1, at least 16/21 "
     "for a general member, and exactly 3/4 when the quartic contains a "
     "suitable cone\n",
     "status=unknown\n"
     "provenance=no sharp bound established\n"),
    (("db",),
     "families = 105\n"
     "exact for every smooth member = 64\n"
     "exact for a general member = 20\n"
     "upper bound only = 14\n"
     "open = 7\n"
     "stored fans = 18\n",
     "families=105\n"
     "exact_all=64\n"
     "exact_general=20\n"
     "upper_bound=14\n"
     "unknown=7\n"
     "fans=18\n"),
    (("equivariant",),
     "FermatCubic_Aut\n"
     "P2_A6\n"
     "dP5_A5\n"
     "dP5_S5\n",
     "FermatCubic_Aut\n"
     "P2_A6\n"
     "dP5_A5\n"
     "dP5_S5\n"),
    (("equivariant", "dP5_S5"),
     "lct = 2\n"
     "provenance = quintic del Pezzo surface with its symmetric-group "
     "action\n",
     "lct=2\n"
     "provenance=quintic del Pezzo surface with its symmetric-group "
     "action\n"),
]


@pytest.mark.parametrize("machine", [False, True], ids=["human", "machine"])
@pytest.mark.parametrize("argv,human,machine_out", CASES,
                         ids=[" ".join(c[0]) for c in CASES])
def test_stdout_is_pinned(monkeypatch, argv, human, machine_out, machine):
    monkeypatch.setattr("sys.stdin", io.StringIO(FAN_WITH_GROUP))
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv) + (["--machine"] if machine else []),
               stdout=out, stderr=err)
    assert (code, out.getvalue(), err.getvalue()) == (
        0, machine_out if machine else human, "")
