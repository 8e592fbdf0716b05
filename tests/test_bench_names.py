"""The names the benchmark's traced run rebinds must stay bound: a refactor
that drops one breaks `bench/run.py --trace 1`, which the tests would not
otherwise notice."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_bound():
    places = [place for bindings in _layers().SPAN_BINDINGS.values()
              for place in bindings]
    places.append(("toric", "mat_mul"))
    missing = [f"{module}.{attr}" for module, attr in places
               if attr not in vars(importlib.import_module(f"toriclct.{module}"))]
    group_action = importlib.import_module("toriclct.toric").GroupAction
    missing += [f"GroupAction.{attr}" for attr in ("__post_init__", "generate")
                if attr not in vars(group_action)]
    assert missing == []
