"""toriclct benchmark: three seeded closed-loop workloads, measured end to end
and, in a separate traced run, layer by layer.

Run from the repository root:

    python3 bench/run.py --workload products --seed 1 --seconds 30 --trace 0

One process sends one request at a time and waits for it (a single-caller
closed loop, no threads); the catalog workload's CLI subprocesses also run
one at a time. A run sends whole passes over the workload's request list
until --seconds have elapsed, so every run of every seed times the same mix.
End-to-end times are scaled to a reference machine speed, read by a probe
loop before each request (see PROBE_STEPS).
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a stamp and a readable summary.
See bench/README.md for the workloads, the metrics and the layer table.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import Rebinding, Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 11
CHILD_REPEATS = 5
# A run stops at the first pass boundary after --seconds, and mid-pass after
# this many seconds, so it always ends well inside its time limit.
HARD_STOP_S = 150.0
MODULES = ("geometry", "toric", "database", "formulas", "cli")
# The machine's speed drifts by tens of percent over tens of seconds, for
# every process alike. A fixed pure-Python loop, timed before each request,
# reads the current speed, and end-to-end times are scaled to the speed at
# which the loop takes REFERENCE_PROBE_S (about its median time on a 2-vCPU
# 2.1 GHz VM under Python 3.11). Raw wall times go into the stamp.
PROBE_STEPS = 20000
REFERENCE_PROBE_S = 0.0015
# Work counts that must repeat exactly between traced passes of one seed.
DETERMINISTIC = ("geometry.is_bounded.calls", "geometry.enumerate_vertices.calls",
                 "geometry.fixed_subspace.calls", "toric.toric_lct.calls",
                 "formulas.calls", "geometry.vertices", "geometry.corner_subsets",
                 "toric.GroupAction.mat_mul.calls", "toric.GroupAction.order_sum",
                 "database.export_bytes")
UNITS = {"calls_per_s": "1/s", "call_p50_ms": "ms", "call_p90_ms": "ms",
         "peak_rss_mb": "MB", "cli.interpreter_ms": "ms", "cli.import_ms": "ms",
         "tracing.overhead_frac": "ratio", "geometry.vertex_yield": "ratio",
         "database.export_bytes": "B"}


def unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def import_package(src: Path) -> dict:
    """Import the package afresh from src: short module name -> module."""
    for name in [n for n in sys.modules if n == "toriclct" or n.startswith("toriclct.")]:
        del sys.modules[name]
    importlib.import_module("toriclct")
    mods = {short: importlib.import_module(f"toriclct.{short}") for short in MODULES}
    origin = Path(mods["toric"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"toriclct was imported from {origin}, not from {src}")
    return mods


def attribute_snapshot(mods) -> dict:
    snap = {}
    for short, module in mods.items():
        for key, value in vars(module).items():
            snap[(short, key)] = value
    for key, value in vars(mods["toric"].GroupAction).items():
        snap[("GroupAction", key)] = value
    return snap


def unchanged(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(before[k] is after[k] for k in before)


def child_ms(env, root, code: str) -> float:
    """Median over CHILD_REPEATS of a fresh interpreter running code, in ms.
    When code prints a number, that number is the sample instead."""
    samples = []
    for _ in range(CHILD_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              cwd=root, env=env, timeout=60, check=True)
        wall = (time.perf_counter() - start) * 1e3
        text = proc.stdout.decode().strip()
        samples.append(float(text) if text else wall)
    return statistics.median(samples)


def stamp(args, root: Path, src: Path, env) -> dict:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              cwd=root, timeout=30)
        commit = proc.stdout.decode().strip() or None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cli.interpreter_ms": child_ms(env, root, "pass")}


def probe() -> float:
    """Seconds that a fixed pure-Python loop takes: the machine's speed now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_STEPS):
        total += i * i % 7
    return time.perf_counter() - start


def speed_scale(probes) -> float:
    """Factor that turns a wall time measured at the speed the probes read
    into a time at the reference speed."""
    return REFERENCE_PROBE_S / statistics.median(probes)


def run_pass(requests, tracer=None, deadline=None, probes=None):
    """Send each request once, in order, probing the machine's speed before
    each one when given a probes list. Returns (latencies, failed labels,
    whether the pass completed before deadline)."""
    latencies, failures = [], []
    for i, req in enumerate(requests):
        if probes is not None:
            probes.append(probe())
        start = time.perf_counter()
        try:
            result = req.call() if tracer is None else tracer.request_span(i, req.call)
        except Exception as exc:  # a failed request is counted, not fatal
            result = exc
        latencies.append(time.perf_counter() - start)
        try:
            ok = not isinstance(result, Exception) and req.check(result)
        except Exception:
            ok = False
        if not ok:
            failures.append(f"{req.label}: {result!r}"[:300])
        if deadline is not None and time.perf_counter() > deadline:
            return latencies, failures, False
    return latencies, failures, True


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def timed_run(workload, mods, seconds: float, catalog: bool):
    """Whole passes until seconds have elapsed. Each pass's latencies are
    scaled by the speed its probes read. A request's typical latency is the
    median of its scaled latencies over the passes; the quantiles and the
    rate are taken over those, so that a few stalled subprocess starts do
    not move them."""
    before = attribute_snapshot(mods)
    latencies, probes, failures, passes = [], [], [], 0
    scaled = [[] for _ in workload.requests]
    start = time.perf_counter()
    hard_stop = start + HARD_STOP_S
    while True:
        pass_probes = []
        lat, fail, whole = run_pass(workload.requests, deadline=hard_stop,
                                    probes=pass_probes)
        scale = speed_scale(pass_probes)
        for samples, t in zip(scaled, lat):
            samples.append(t * scale)
        latencies += lat
        probes += pass_probes
        failures += fail
        passes += whole
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or not whole:
            break
    attempted = len(latencies)
    answered = attempted - len(failures)
    typical = [statistics.median(samples) for samples in scaled if samples]
    metrics = {
        "calls_per_s": answered / attempted * len(typical) / sum(typical),
        "call_p50_ms": statistics.median(typical) * 1e3,
        "call_p90_ms": statistics.quantiles(typical, n=10)[8] * 1e3,
        "peak_rss_mb": peak_rss_mb(children=catalog),
    }
    wall = {
        "calls_per_s": answered / elapsed,
        "call_p50_ms": statistics.median(latencies) * 1e3,
        "call_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
    }
    problems = [] if unchanged(before, attribute_snapshot(mods)) else [
        "an untraced run changed a toriclct module attribute"]
    return metrics, attempted, failures, problems, {
        "passes": passes, "elapsed_s": elapsed, "wall": wall,
        "probe_ms": statistics.median(probes) * 1e3}


def traced_run(workload, mods, root, env, seconds: float):
    """An untraced pass and two traced passes over the same requests, then
    more untraced and traced pairs while the total is under --seconds. The
    layer metrics are per pass, averaged over the traced passes, whose
    deterministic counts must agree exactly."""
    requests = workload.replay or workload.requests
    before = attribute_snapshot(mods)
    untraced, traced, per_pass, failures = [], [], [], []

    def untraced_pass():
        start = time.perf_counter()
        failures.extend(run_pass(requests)[1])
        untraced.append(time.perf_counter() - start)

    def traced_pass():
        tracer = Tracer()
        with Rebinding(tracer, mods):
            start = time.perf_counter()
            failures.extend(run_pass(requests, tracer)[1])
            traced.append(time.perf_counter() - start)
        per_pass.append(tracer.metrics())

    untraced_pass()
    traced_pass()
    traced_pass()
    while sum(untraced) + sum(traced) < seconds:
        untraced_pass()
        traced_pass()
    attempted = len(requests) * (len(untraced) + len(traced))
    problems = []
    if not unchanged(before, attribute_snapshot(mods)):
        problems.append("the traced run did not restore every toriclct attribute")
    drift = {k: [m[k] for m in per_pass] for k in DETERMINISTIC
             if any(m[k] != per_pass[0][k] for m in per_pass)}
    if drift:
        problems.append(f"deterministic counts differ between traced passes: {drift}")
    metrics = {k: statistics.fmean(m[k] for m in per_pass) for k in per_pass[0]}
    metrics.update({k: per_pass[0][k] for k in DETERMINISTIC})
    metrics["tracing.overhead_frac"] = (statistics.fmean(traced)
                                        / statistics.fmean(untraced) - 1)
    metrics["cli.interpreter_ms"] = child_ms(env, root, "pass")
    metrics["cli.import_ms"] = child_ms(env, root, (
        "import time; t = time.perf_counter(); import toriclct.cli; "
        "print((time.perf_counter() - t) * 1e3)"))
    return metrics, attempted, failures, problems, {
        "traced_passes": len(traced), "untraced_pass_s": statistics.median(untraced),
        "traced_pass_s": statistics.median(traced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "toriclct" / "__init__.py").is_file():
        print("bench: ./src/toriclct not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    setup_times, setup_wall = [], []
    for _ in range(SETUP_REPEATS):
        scale = speed_scale([probe() for _ in range(5)])
        start = time.perf_counter()
        mods = import_package(src)
        rng = random.Random(args.seed)
        if args.workload == "catalog":
            workload = WORKLOADS["catalog"](mods, rng, root, env)
        else:
            workload = WORKLOADS[args.workload](mods, rng)
        setup_wall.append(time.perf_counter() - start)
        setup_times.append(setup_wall[-1] * scale)
    setup_s = statistics.median(setup_times)

    info = stamp(args, root, src, env)
    if args.trace:
        metrics, attempted, failures, problems, extra = traced_run(
            workload, mods, root, env, args.seconds)
    else:
        metrics, attempted, failures, problems, extra = timed_run(
            workload, mods, args.seconds, args.workload == "catalog")
        metrics = {"setup_s": setup_s, **metrics}
        extra["wall"]["setup_s"] = statistics.median(setup_wall)
    info.update(extra, **workload.info)
    print("stamp " + json.dumps(info, sort_keys=True))
    failed = len(failures)
    for line in failures[:10]:
        print(f"bench: wrong or failed request: {line}", file=sys.stderr)
    for line in problems:
        print(f"bench: {line}", file=sys.stderr)
    summary = [f"{name} = {value:.6g} {unit(name)}" for name, value in metrics.items()]
    summary.append(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted} requests)")
    print(f"{args.workload}: " + "; ".join(summary))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
