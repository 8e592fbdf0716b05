"""The package's fixed outputs on the benchmark's inputs, hashed to one digest.

For seeds 1 to 3, the outputs are the repr of every `products` and
`symmetric` report, and the exit code, stdout and stderr of every `catalog`
invocation, run in process by `workloads.run_in_process`; then, once, the
exported table. The inputs always come from this tree's `bench/`, which is
imported and not changed, so two trees are compared on the same requests.

    python tools/outputs.py                    # the SHA-256 of this tree
    python tools/outputs.py --diff ../parent   # and of another checkout

Each tree's package is imported from its own `src/` in a child process that
writes no bytecode. With --diff, the first output that differs is printed,
and the exit status is 1 when any does.
"""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from operator import itemgetter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
SHOWN = 600  # characters of each side of a differing output


def outputs(src: Path) -> list[tuple[str, str]]:
    """(label, output) for each output of the package under src, in order."""
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    from run import import_package
    from workloads import _catalog_invocations, products, run_in_process, symmetric

    mods = import_package(src)
    out = []
    for seed in SEEDS:
        # a symmetric request returns (group, report)
        for name, build, report in (("products", products, lambda r: r),
                                    ("symmetric", symmetric, itemgetter(1))):
            for i, request in enumerate(build(mods, random.Random(seed)).requests):
                try:
                    text = repr(report(request.call()))
                except Exception as exc:  # a failure is an output too
                    text = repr(exc)
                out.append((f"{name} seed {seed} #{i} {request.label}", text))
        invocations, _ = _catalog_invocations(mods, random.Random(seed))
        for i, (argv, stdin_text, _) in enumerate(invocations):
            out.append((f"catalog seed {seed} #{i} {' '.join(argv)}",
                        repr(run_in_process(mods["cli"], argv, stdin_text))))
    database = mods["database"]
    out.append(("export", database.export_table(database.load_builtin())))
    return out


def outputs_of(tree: Path) -> list[tuple[str, str]]:
    """outputs of tree/src, computed in a child process."""
    code = ("import json, sys; from pathlib import Path; from outputs import outputs; "
            "json.dump(outputs(Path(sys.argv[1])), sys.stdout)")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "tools"))
    proc = subprocess.run([sys.executable, "-c", code, str(tree.resolve() / "src")],
                          capture_output=True, text=True, env=env, check=True)
    return [tuple(pair) for pair in json.loads(proc.stdout)]


def digest(pairs) -> str:
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--diff", type=Path, metavar="CHECKOUT",
                        help="another checkout whose outputs to compare")
    args = parser.parse_args(argv)
    trees = [ROOT] + ([args.diff] if args.diff else [])
    for tree in trees:
        if not (tree / "src" / "toriclct" / "__init__.py").is_file():
            parser.error(f"{tree}/src/toriclct not found")
    sides = [outputs_of(tree) for tree in trees]
    for tree, pairs in zip(trees, sides):
        print(f"{digest(pairs)}  {len(pairs)} outputs  {tree}")
    if not args.diff:
        return 0
    ours, theirs = sides
    for i, (a, b) in enumerate(zip(ours, theirs)):
        if a != b:
            print(f"first difference, output {i}:")
            for tree, (label, text) in zip(trees, (a, b)):
                print(f"  {tree}: {label}\n    {text[:SHOWN]}")
            return 1
    if len(ours) != len(theirs):
        print(f"first difference: {len(ours)} outputs against {len(theirs)}")
        return 1
    print("no output differs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
