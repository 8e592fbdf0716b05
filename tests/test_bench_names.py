"""The names the benchmark's traced run rebinds must stay bound: a refactor
that drops one breaks `bench/run.py --trace 1`, which the tests would not
otherwise notice. Past those, toric imports from geometry only what it
uses, every test module uses each name it imports, every public definition
in the package has a caller in src/ or a traced binding (or is cli.main),
and every test oracle has an elimination of its own."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "bench" / "layers.py"
SRC = ROOT / "src" / "toriclct"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_places() -> list[tuple[str, str]]:
    places = [place for bindings in _layers().SPAN_BINDINGS.values()
              for place in bindings]
    return places + [("toric", "mat_mul")]


def test_traced_names_are_bound():
    places = _traced_places()
    missing = [f"{module}.{attr}" for module, attr in places
               if attr not in vars(importlib.import_module(f"toriclct.{module}"))]
    group_action = importlib.import_module("toriclct.toric").GroupAction
    missing += [f"GroupAction.{attr}" for attr in ("__post_init__", "generate")
                if attr not in vars(group_action)]
    assert missing == []


def test_toric_imports_from_geometry_only_names_it_uses_or_the_trace_rebinds():
    # the traced run rebinds is_bounded, enumerate_vertices, fixed_subspace
    # and mat_mul in toric, so those stay imported whether or not toric
    # calls them; any other unused import is dead
    tree = ast.parse((ROOT / "src" / "toriclct" / "toric.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "geometry"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rebound = {attr for module, attr in _traced_places() if module == "toric"}
    assert imported and sorted(imported - used - rebound) == []


def test_test_modules_use_every_name_they_import():
    unused = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_public_definitions_have_a_use_and_the_oracles_an_elimination_of_their_own():
    # a public top-level function or class is named elsewhere in src/,
    # rebound by the traced run or the console script cli.main; one that is
    # none of these, exported or not, is a second route kept only for the
    # tests
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    kept = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    kept |= {attr for _, attr in _traced_places()}
    unused = [f"{module}.{node.name}" for module, tree in sorted(trees.items())
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in kept
              and (module, node.name) != ("cli", "main")]
    assert unused == []

    # every oracle and inverse_unimodular, with every conftest helper they
    # reach, name no elimination of the package's
    eliminations = {"_echelon", "fixed_subspace", "mat_det", "mat_rank",
                    "solve_square_system"}
    conftest = ast.parse((ROOT / "tests" / "conftest.py").read_text())
    imported = {alias.name for node in ast.walk(conftest)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported.isdisjoint(eliminations)
    names = {node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
             for node in conftest.body if isinstance(node, ast.FunctionDef)}
    starts = [name for name in names if name.startswith("oracle_")] + ["inverse_unimodular"]
    reached, todo = set(), list(starts)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += names[name] & names.keys()
    assert "oracle_echelon" in starts and reached > set(starts)
    assert set().union(*map(names.get, reached)).isdisjoint(eliminations)
