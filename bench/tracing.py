"""Per-layer spans and counts, recorded from outside the package.

install() wraps public callables of kellipse's modules (functions, and the
methods of Metric, SumField, SelfMap and IntervalUnion) and rebinds every
module-level name that refers to them, so calls made inside the package go
through the wrappers too.

Each wrapped call is a span. A thread keeps its own stack of open spans and
its own tables, merged at the end, so the counts repeat exactly even when the
3D tracer evaluates slabs on its thread pool. Self time is a span's duration
minus the durations of the spans it encloses on the same thread; a span that
a pool thread opens has no parent, so the main thread's sample_3d self time
includes its wait for the pool. Busy time is the inclusive duration of the
outermost span of a name on a thread, summed over threads.

Calls into SumField.values are attributed by their caller: from trace_2d (the
grid and saddle centres) or from the 3D slab evaluator to tracer.grid, from
the bisection routine to tracer.refine (one call per round), and, inside a
min_radius span, to geometry.min_radius.field_rows.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

GRID_CALLERS = {"trace_2d", "slab"}
REFINE_CALLERS = {"_bisect_edges"}
POINTWISE = {"Ek1", "Ek2", "E'k1", "E'k2", "E'''k1", "E''k2"}
PAIR_FIT = {"Ek3", "E'k3", "E'''k4", "Bk3"}
ONSET_PAIRS = {"E'''k2", "E'''k3"}


class Tracer:
    def __init__(self, misses0: int):
        self.enabled = False
        self.misses0 = misses0      # fixed_point_set cache misses before the traced ops
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = {"stack": [], "self": defaultdict(float), "busy": defaultdict(float),
                  "count": defaultdict(int)}
            self._local.st = st
            with self._lock:
                self._tables.append(st)
        return st

    def count(self, name, n=1):
        self._state()["count"][name] += n

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span; before(st, args, kwargs) and after(st, args, result) add counts."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            st = self._state()
            stack = st["stack"]
            if before is not None:
                before(st, args, kwargs)
            outer = all(frame[0] != name for frame in stack)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                st["self"][name] += dur - frame[2]
                if outer:
                    st["busy"][name] += dur
                st["count"][name] += 1
                if stack:
                    stack[-1][2] += dur
            if after is not None:
                after(st, args, result)
            return result

        return wrapper

    def totals(self):
        out = {"self": defaultdict(float), "busy": defaultdict(float), "count": defaultdict(int)}
        with self._lock:
            for st in self._tables:
                for key in out:
                    for name, v in st[key].items():
                        out[key][name] += v
        return out

    def metrics(self, ke):
        t = self.totals()
        s, b, c = t["self"], t["busy"], t["count"]
        misses = ke.fixed_point_set.cache_info().misses - self.misses0
        return {
            "metric.distance.calls": c["metric.distance"],
            "metric.distance.self_s": s["metric.distance"],
            "metric.distance_field.rows": c["rows:distance_field"],
            "metric.distance_field.self_s": s["metric.distance_field"],
            "geometry.values.rows": c["rows:values"],
            "geometry.values.self_s": s["geometry.values"],
            "geometry.value.calls": c["geometry.value"],
            "geometry.value.self_s": s["geometry.value"],
            "geometry.min_radius.calls": c["geometry.min_radius"],
            "geometry.min_radius.self_s": s["geometry.min_radius"],
            "geometry.min_radius.field_rows": c["rows:min_radius"],
            "geometry.weiszfeld.iterations": c["weiszfeld.iterations"],
            "geometry.solve_1d.calls": c["geometry.solve_1d"],
            "geometry.solve_1d.self_s": s["geometry.solve_1d"],
            "tracer.grid.rows": c["rows:grid"],
            "tracer.grid.busy_s": b["tracer.grid"],
            "tracer.refine.rows": c["rows:refine"],
            "tracer.refine.rounds": c["tracer.refine"],
            "tracer.refine.busy_s": b["tracer.refine"],
            "tracer.trace_2d.self_s": s["tracer.trace_2d"],
            "tracer.sample_3d.self_s": s["tracer.sample_3d"],
            "tracer.export.self_s": s["tracer.export"],
            "tracer.vertices": c["vertices"],
            "verifier.plan.busy_s": b["verifier.plan"],
            "verifier.pairs": c["pairs"],
            "verifier.selfmap.calls": c["verifier.selfmap"],
            "verifier.pointwise.busy_s": b["verifier.pointwise"],
            "verifier.pair_fit.busy_s": b["verifier.pair_fit"],
            "verifier.onset_pairs.busy_s": b["verifier.onset_pairs"],
            "verifier.identity.busy_s": b["verifier.identity"],
            "piecewise.is_fixed_kellipse.calls": c["piecewise.is_fixed_kellipse"],
            "piecewise.is_fixed_kellipse.self_s": s["piecewise.is_fixed_kellipse"],
            "piecewise.fixed_kellipse_radii.self_s": s["piecewise.fixed_kellipse_radii"],
            "piecewise.fixed_point_set.misses": misses,
            "intervals.contains.calls": c["intervals.contains"],
            "intervals.contains.self_s": s["intervals.contains"],
            "scene.load.busy_s": b["scene.load"],
            "cli.main.self_s": s["cli.main"],
        }


def _rebind(old, new):
    """Point every kellipse module-level name bound to `old` at `new`."""
    for name, mod in list(sys.modules.items()):
        if name == "kellipse" or name.startswith("kellipse."):
            for attr, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, attr, new)


def install(ke) -> Tracer:
    import kellipse.cli as cli
    import kellipse.geometry as geometry
    import kellipse.intervals as intervals
    import kellipse.metric as metric
    import kellipse.piecewise as piecewise
    import kellipse.scene as scene
    import kellipse.tracer as tracer
    import kellipse.verifier as verifier

    tr = Tracer(piecewise.fixed_point_set.cache_info().misses)

    def rows(key):
        def before(st, args, kwargs):
            st["count"]["rows:" + key] += len(args[1])
        return before

    def values_before(st, args, kwargs):
        n = len(args[1])
        st["count"]["rows:values"] += n
        if any(frame[0] == "geometry.min_radius" for frame in st["stack"]):
            st["count"]["rows:min_radius"] += n

    # SumField.values is attributed to grid / refine by its caller's code name
    values = tr.span("geometry.values", geometry.SumField.values, before=values_before)
    grid = tr.span("tracer.grid", values, before=rows("grid"))
    refine = tr.span("tracer.refine", values, before=rows("refine"))

    def values_dispatch(self, pts):
        caller = sys._getframe(1).f_code.co_name
        if caller in GRID_CALLERS:
            return grid(self, pts)
        if caller in REFINE_CALLERS:
            return refine(self, pts)
        return values(self, pts)

    def vertices_2d(st, args, res):
        st["count"]["vertices"] += sum(len(p) for p in res.polylines)

    def vertices_3d(st, args, res):
        st["count"]["vertices"] += len(res.points)

    def weiszfeld_after(st, args, res):
        st["count"]["weiszfeld.iterations"] += res.iterations

    def pairs_ratio(st, args, kwargs):
        st["count"]["pairs"] += 1

    # check_condition gets one span per condition family; Ik goes on to
    # check_identity_condition, which has its own
    orig_check = verifier.check_condition
    family = {cid: name for name, ids in (("pointwise", POINTWISE), ("pair_fit", PAIR_FIT),
                                          ("onset_pairs", ONSET_PAIRS)) for cid in ids}
    checks = {name: tr.span("verifier." + name, orig_check) for name in set(family.values())}

    def check_condition(condition_id, m, e, plan):
        if condition_id in ONSET_PAIRS and tr.enabled:
            n = len(plan.on_ellipse)
            tr.count("pairs", n * n if condition_id == "E'''k3" else n * (n - 1) // 2)
        run = checks.get(family.get(condition_id), orig_check)
        return run(condition_id, m, e, plan)

    # methods
    metric.Metric.distance = tr.span("metric.distance", metric.Metric.distance)
    metric.Metric.distance_field = tr.span("metric.distance_field", metric.Metric.distance_field,
                                           before=rows("distance_field"))
    geometry.SumField.values = values_dispatch
    geometry.SumField.value = tr.span("geometry.value", geometry.SumField.value)
    verifier.SelfMap.__call__ = tr.span("verifier.selfmap", verifier.SelfMap.__call__)
    intervals.IntervalUnion.contains = tr.span("intervals.contains", intervals.IntervalUnion.contains)

    # module-level functions, rebound wherever they were imported
    for old, new in [
        (geometry.min_radius, tr.span("geometry.min_radius", geometry.min_radius)),
        (geometry.weiszfeld, tr.span("geometry.weiszfeld", geometry.weiszfeld, after=weiszfeld_after)),
        (geometry.solve_1d, tr.span("geometry.solve_1d", geometry.solve_1d)),
        (tracer.trace_2d, tr.span("tracer.trace_2d", tracer.trace_2d, after=vertices_2d)),
        (tracer.sample_3d, tr.span("tracer.sample_3d", tracer.sample_3d, after=vertices_3d)),
        (tracer.export_csv, tr.span("tracer.export", tracer.export_csv)),
        (tracer.export_svg, tr.span("tracer.export", tracer.export_svg)),
        (verifier.default_plan, tr.span("verifier.plan", verifier.default_plan)),
        (verifier.exhaustive_plan, tr.span("verifier.plan", verifier.exhaustive_plan)),
        (verifier.pair_ratio, tr.span("verifier.pair_ratio", verifier.pair_ratio, before=pairs_ratio)),
        (verifier.check_condition, check_condition),
        (verifier.check_identity_condition, tr.span("verifier.identity", verifier.check_identity_condition)),
        (piecewise.is_fixed_kellipse, tr.span("piecewise.is_fixed_kellipse", piecewise.is_fixed_kellipse)),
        (piecewise.fixed_kellipse_radii, tr.span("piecewise.fixed_kellipse_radii",
                                                 piecewise.fixed_kellipse_radii)),
        (scene.load_scene, tr.span("scene.load", scene.load_scene)),
        (cli.main, tr.span("cli.main", cli.main)),
    ]:
        _rebind(old, new)
    return tr
