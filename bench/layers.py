"""Layer tracing from outside the package.

The traced run rebinds the public names that the `toriclct` modules import
or call to timing wrappers, records one span per wrapped call, and puts
every original back afterwards. Nothing under `src/` is changed: the spans
sit at the module boundaries, which are the layers.

A span is (name, parent index, request id, start, end). Spans stay in memory
until the run ends. A span's self time is its duration minus the durations
of its direct child spans; calls are strictly nested (one thread), so the
children never overlap.
"""

from __future__ import annotations

import functools
import time
from math import comb

# Span name -> the (module, attribute) places it is bound. A name that is
# missing raises before the run starts, so a renamed or removed function
# shows up as an error instead of a silent zero count.
SPAN_BINDINGS = {
    "geometry.is_bounded": [("geometry", "is_bounded"), ("toric", "is_bounded")],
    "geometry.enumerate_vertices": [("geometry", "enumerate_vertices"),
                                    ("toric", "enumerate_vertices")],
    "geometry.fixed_subspace": [("geometry", "fixed_subspace"),
                                ("toric", "fixed_subspace")],
    "toric.toric_lct": [("toric", "toric_lct"), ("database", "toric_lct"),
                        ("cli", "toric_lct")],
    "database.load_builtin": [("database", "load_builtin"), ("cli", "load_builtin")],
    "database.cross_check_toric": [("database", "cross_check_toric"),
                                   ("cli", "cross_check_toric")],
    "database.export_table": [("database", "export_table"), ("cli", "export_table")],
    "database.import_table": [("database", "import_table"), ("cli", "import_table")],
    "formulas": [("cli", name) for name in (
        "wps_lct", "hypersurface_lct", "double_cover_lct", "monomial_cse",
        "fermat_cse", "product_lct", "p1_product_lct", "del_pezzo_lct",
        "cubic_surface_lct", "known_equivariant_lct")],
    "cli.run": [("cli", "run")],
}

SELF_TIMED = ("geometry.is_bounded", "geometry.enumerate_vertices",
              "geometry.fixed_subspace", "toric.toric_lct",
              "toric.GroupAction.generate", "toric.GroupAction.validate",
              "database.load_builtin", "database.cross_check_toric",
              "database.export_table", "database.import_table", "formulas",
              "cli.run")
COUNTED = ("geometry.is_bounded", "geometry.enumerate_vertices",
           "geometry.fixed_subspace", "toric.toric_lct", "formulas")


class Tracer:
    """In-memory span recorder plus the work counters measured at the same
    boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, request, start, end]
        self.stack: list[int] = []
        self.request = -1
        self.counts = {"geometry.vertices": 0, "geometry.corner_subsets": 0,
                       "toric.GroupAction.mat_mul.calls": 0,
                       "toric.GroupAction.order_sum": 0,
                       "database.export_bytes": 0}

    def span(self, name, fn, after=None):
        """A wrapper of fn that records a span called name; after(result,
        *args) updates the counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            record = [name, parent, self.request, time.perf_counter(), None]
            self.spans.append(record)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(result, *args)
            return result

        return traced

    def request_span(self, request_id, fn):
        """Run fn as the root span of one request."""
        self.request = request_id
        return self.span("request", fn)()

    def metrics(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = dict.fromkeys(SELF_TIMED, 0.0)
        calls = dict.fromkeys(COUNTED, 0)
        for i, (name, _, _, start, end) in enumerate(self.spans):
            if name in self_s:
                self_s[name] += end - start - child_time[i]
            if name in calls:
                calls[name] += 1
        out = {f"{name}.calls": n for name, n in calls.items()}
        out.update(self.counts)
        subsets = self.counts["geometry.corner_subsets"]
        out["geometry.vertex_yield"] = (
            self.counts["geometry.vertices"] / subsets if subsets else 0.0)
        out.update({f"{name}.self_s": s for name, s in self_s.items()})
        return out


def _count_vertices(tracer):
    def after(vertices, poly):
        tracer.counts["geometry.vertices"] += len(vertices)
        tracer.counts["geometry.corner_subsets"] += comb(len(poly.halfspaces), poly.dim)
    return after


def _count_order(tracer):
    def after(group, *_):
        tracer.counts["toric.GroupAction.order_sum"] += len(group)
    return after


def _count_export(tracer):
    def after(text, *_):
        tracer.counts["database.export_bytes"] += len(text.encode())
    return after


class Rebinding:
    """Context manager that installs the tracer's wrappers on the given
    modules (a dict of short name -> module) and restores every original
    object on exit."""

    def __init__(self, tracer: Tracer, modules: dict):
        self.tracer = tracer
        self.modules = modules
        self.saved: list[tuple[object, str, object]] = []

    def _install(self, owner, attr, make):
        if attr not in vars(owner):
            raise LookupError(
                f"traced name {getattr(owner, '__name__', owner)}.{attr} is no "
                f"longer bound; the benchmark's tracing table needs updating")
        original = vars(owner)[attr]
        self.saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self):
        t = self.tracer
        hooks = {"geometry.enumerate_vertices": _count_vertices(t),
                 "database.export_table": _count_export(t)}
        try:
            for name, places in SPAN_BINDINGS.items():
                for module, attr in places:
                    self._install(self.modules[module], attr,
                                  lambda fn, name=name: t.span(name, fn, hooks.get(name)))
            # GroupAction is wrapped on the class: its constructor checks
            # (validate) run inside generate, and every group product goes
            # through toric.mat_mul, which is counted but not timed.
            group_action = self.modules["toric"].GroupAction
            self._install(group_action, "__post_init__",
                          lambda fn: t.span("toric.GroupAction.validate", fn))
            self._install(group_action, "generate",
                          lambda cm: classmethod(t.span(
                              "toric.GroupAction.generate", cm.__func__, _count_order(t))))

            def count_mat_mul(fn):
                @functools.wraps(fn)
                def counted(a, b):
                    t.counts["toric.GroupAction.mat_mul.calls"] += 1
                    return fn(a, b)
                return counted

            self._install(self.modules["toric"], "mat_mul", count_mat_mul)
        except BaseException:
            self.restore()
            raise
        return t

    def restore(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()

    def __exit__(self, *exc):
        self.restore()
        return False
