"""Mutation check of the test suite.

Each row of MUTANTS is a one-line change to the package. The script applies
each one alone to a temporary copy of the tree and runs the tests there in a
child process: a mutant is killed when the tests fail, and survives when
they pass. The kind says what should kill it: a "fault" changes a result,
and a "cost" changes only the work done, which the pinned work counts of the
tests must catch.

    python tools/mutants.py                              # the whole suite
    python tools/mutants.py --tests tests/test_toric.py  # the named tests

Before anything runs, each row's old text must occur exactly once in its
file, so the table follows the code; then the unmutated copy must pass the
same tests. Each child runs under an address-space limit of MEMORY_MB, set
in the child only, and a timeout of TIMEOUT seconds. A mutant stopped by
either, or by a signal, counts as killed and is reported as such: without
its point limit, _orbit grows an infinite orbit until memory runs out.

Exit status: 0 when every mutant is killed, 1 when any survives, 2 when a
row does not match or the unmutated copy fails. It is not part of the
tier-1 suite: the whole table takes several minutes.
"""

import argparse
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds per child
MEMORY_MB = 1024  # address-space limit per child
GEOMETRY = "src/toriclct/geometry.py"
TORIC = "src/toriclct/toric.py"
DATABASE = "src/toriclct/database.py"
FORMULAS = "src/toriclct/formulas.py"
SCAN = "mp.bit_count() >= d and mq.bit_count() >= d and any("
SWITCH = "if len(pos) * len(neg) > 2 * (len(pos) + len(neg)) * (d - 1):"
TIE = "if c or (y < x if t == den else [a * den for a in y] < [a * t for a in x]):"

# (name, file, exact old text, new text, kind)
MUTANTS = [
    # the double description
    ("adjacency_d_minus_1", GEOMETRY, "if common.bit_count() < d - 2 or (",
     "if common.bit_count() < d - 1 or (", "fault"),
    ("no_third_ray_scan", GEOMETRY, SCAN, "False and any(", "fault"),
    ("own_mask_as_third_ray", GEOMETRY, "and m != mp and m != mq", "and m != mp",
     "fault"),
    ("scan_every_pair", GEOMETRY, SCAN, "any(", "cost"),
    ("hashed_always", GEOMETRY, SWITCH, "if True:", "cost"),
    ("hashed_never", GEOMETRY, SWITCH, "if False:", "cost"),
    ("first_cone_not_negated", GEOMETRY,
     "primitive_vector(row if det > 0 else [-x for x in row])",
     "primitive_vector(row)", "fault"),
    ("hashed_pairs_unsorted", GEOMETRY, "found.sort()", "found", "fault"),
    ("echelon_skip_only_on_f_zero", GEOMETRY, "if r != top and (f or p != d):",
     "if r != top and f:", "fault"),
    ("echelon_past_last_pivot", GEOMETRY,
     "if top == n:\n            break", "if top == n:\n            continue", "cost"),
    ("vertex_with_t_zero", GEOMETRY,
     "if rays is None or any(z[0] == 0 for z, _ in rays):", "if rays is None:", "fault"),
    # the threshold read-off
    ("ties_skipped", TORIC, "if c < 0:", "if c <= 0:", "fault"),
    ("ties_compare_x_alone", TORIC, TIE, "if c or y < x:", "fault"),
    ("ties_never_replace", TORIC, TIE, "if c:", "fault"),
    ("rowless_ray_default_0", TORIC, "default=t) - t", "default=0) - t", "fault"),
    ("witness_ray_near_max", TORIC, "best[slot.get(row, 0)] - den == num)",
     "best[slot.get(row, 0)] - den >= num - 1)", "fault"),
    ("no_group_rank_check", TORIC,
     "if len(_echelon(rays, rays.dim)[1]) < rays.dim:", "if False:", "fault"),
    ("fixed_subspace_of_g", TORIC, "basis = _fixed_subspace(transposes)",
     "basis = _fixed_subspace(gens)", "fault"),
    ("picks_checked_again", TORIC, "basis = _fixed_subspace(transposes)",
     "basis = fixed_subspace(transposes)", "cost"),
    # the fan constructors
    ("projective_space_rays_checked", TORIC,
     "return RaySet._from_checked(identity_matrix(n) + ((-1,) * n,))",
     "return RaySet(identity_matrix(n) + ((-1,) * n,))", "cost"),
    # the group layer
    ("no_permutation_check", TORIC,
     "return None if None in s or len(set(s)) < len(s) else s",
     "return None if None in s else s", "fault"),
    ("no_final_span_check", TORIC, "if span is None or len(span) != len(self):",
     "if span is None:", "fault"),
    ("perm_of_every_candidate", TORIC, "if tuple(map(at.__getitem__, g)) in heads:",
     "if perm(g) and tuple(map(at.__getitem__, g)) in heads:", "cost"),
    ("no_cap_break", TORIC, "            if len(span) > cap:\n                break\n",
     "", "cost"),
    ("no_cap_break_after_pick", TORIC,
     "        if len(span) > cap:\n            break\n    return picks, span",
     "    return picks, span", "cost"),
    ("orbit_without_limit", TORIC, "if len(points) == limit:", "if False:", "fault"),
    ("generate_without_det_check", TORIC, '_check_unimodular(gens, "generator")',
     "None", "fault"),
    # Smith normal form and fixed subspaces
    ("smith_no_sign_fix", GEOMETRY, "if m[t][t] < 0:", "if False:", "fault"),
    ("smith_no_divisibility_repair", GEOMETRY, "if offender is None:", "if True:",
     "fault"),
    ("fixed_subspace_d_for_d_squared", GEOMETRY, "vec = [d * d * (c == free)",
     "vec = [d * (c == free)", "fault"),
    # the text formats
    ("ints_read_by_int", TORIC, 'return [_decimal(tok) for tok in text.split(",")]',
     'return [int(tok) for tok in text.split(",")]', "fault"),
    ("blocks_split_by_splitlines", TORIC, r're.split(r"\r\n?|\n", text)',
     "text.splitlines()", "fault"),
    # the records layer
    ("ids_other_than_family_ids", DATABASE,
     "if not all([r.id.__class__ is FamilyId for r in records]):", "if False:", "fault"),
    ("no_duplicate_id_check", DATABASE, "if len(set(ids)) != len(ids):", "if False:",
     "fault"),
    ("no_coverage_check", DATABASE, "if ids != _ID_PAIRS:", "if False:", "fault"),
    ("no_status_count_check", DATABASE, 'if counts != {"exact_all": 64,',
     'if False and counts != {"exact_all": 64,', "fault"),
    ("record_status_unchecked", DATABASE,
     "if not isinstance(self.status, LctStatus):", "if False:", "fault"),
    ("record_fan_unchecked", DATABASE,
     "if not (self.fan is None or isinstance(self.fan, RaySet)):", "if False:", "fault"),
    ("unknown_with_value", DATABASE, "if self.value is not None:", "if False:", "fault"),
    ("p1_product_one_third", FORMULAS, "product_lct(Fraction(1, 2), a)",
     "product_lct(Fraction(1, 3), a)", "fault"),
]


def _unmatched() -> list[str]:
    """The names of the rows whose old text does not occur exactly once."""
    return [name for name, path, old, _, _ in MUTANTS
            if (ROOT / path).read_text().count(old) != 1]


def _run(tree: Path, tests) -> str:
    """The verdict of one pytest child in tree: passed, failed, or stopped
    by the timeout, the address-space limit or a signal."""
    def limit():
        size = MEMORY_MB << 20
        resource.setrlimit(resource.RLIMIT_AS, (size, size))

    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # the copy's pytest settings point at its src
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT,
            preexec_fn=limit)
    except subprocess.TimeoutExpired:
        return "stopped by the timeout"
    if done.returncode == 0:
        return "passed"
    if "MemoryError" in done.stdout + done.stderr:
        return "stopped by the memory limit"
    if done.returncode < 0:
        return f"stopped by {signal.Signals(-done.returncode).name}"
    return "failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests", nargs="+", default=[], metavar="PATH",
                        help="pytest paths or node ids (default: the whole suite)")
    args = parser.parse_args(argv)
    unmatched = _unmatched()
    if unmatched:
        print(f"old text not found exactly once: {', '.join(unmatched)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".bench_build"))
        verdict = _run(tree, args.tests)
        if verdict != "passed":
            print(f"the unmutated tree {verdict}", file=sys.stderr)
            return 2
        survivors = []
        for name, path, old, new, kind in MUTANTS:
            target = tree / path
            text = target.read_text()
            target.write_text(text.replace(old, new))
            start = time.monotonic()
            try:
                verdict = _run(tree, args.tests)
            finally:
                target.write_text(text)
            if verdict == "passed":
                survivors.append(name)
            status = "survived" if verdict == "passed" else "killed" + (
                "" if verdict == "failed" else f" ({verdict})")
            print(f"{name:32} {kind:6} {status:40} {time.monotonic() - start:6.1f} s",
                  flush=True)
    print(f"killed {len(MUTANTS) - len(survivors)} of {len(MUTANTS)}; "
          f"survived: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
