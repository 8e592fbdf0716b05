"""The names the benchmark's traced run rebinds must stay bound: a refactor
that drops one breaks `bench/run.py --trace 1`, which the tests would not
otherwise notice. Past those, toric imports from geometry only what it
uses."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "bench" / "layers.py"


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
