"""Spans around the public lipfree functions, for the traced run.

Each public function is wrapped at the module attribute where its callers
look it up (``lipfree.extension.norm_value``, ``lipfree.suites.run_suite``,
...), so the library itself is unchanged.  Every call records a span
(id, parent, name, start, end) in memory plus the counts measured at that
boundary.  A span's self time is its duration minus the time its child
spans cover; calls run on one thread, so children never overlap.

Nothing in these workloads waits on a queue, a lock or I/O, so spans carry
no wait time.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager

import numpy as np

ROOT = "bench"

# (module, attribute, layer name of its spans)
PATCH_POINTS = (
    ("lipfree.freenorm", "free_norm_p1", "freenorm.free_norm_p1"),
    ("lipfree.suites", "free_norm_p1", "freenorm.free_norm_p1"),
    ("lipfree.suites", "free_norm_exact_small", "freenorm.free_norm_exact_small"),
    ("lipfree.suites", "free_norm_upper", "freenorm.free_norm_upper"),
    ("lipfree.extension", "norm_value", "freenorm.norm_value"),
    ("lipfree.decomposition", "norm_value", "freenorm.norm_value"),
    ("lipfree.suites", "norm_value", "freenorm.norm_value"),
    ("lipfree.extension", "doubling_constant_upper",
     "metric.doubling_constant_upper"),
    ("lipfree.extension", "maximal_separated_net",
     "metric.maximal_separated_net"),
    ("lipfree.suites", "maximal_separated_net", "metric.maximal_separated_net"),
    ("lipfree.suites", "whitney_cover", "extension.whitney_cover"),
    ("lipfree.suites", "weight_variation_check",
     "extension.weight_variation_check"),
    ("lipfree.suites", "doubling_extension_map",
     "extension.doubling_extension_map"),
    ("lipfree.suites", "amenability_defect", "extension.amenability_defect"),
    ("lipfree.decomposition", "verify_pst_identity",
     "decomposition.verify_pst_identity"),
    ("lipfree.suites", "verify_pst_identity",
     "decomposition.verify_pst_identity"),
    ("lipfree.decomposition", "measure_map_into_sum",
     "decomposition.measure_map_into_sum"),
    ("lipfree.suites", "verify_separated_inverse",
     "decomposition.verify_separated_inverse"),
    ("lipfree.suites", "run_suite", "suites.run_suite"),
)

SUITES = ("whitney", "norm-oracle", "amenability", "decomposition")
# "zero": the all-zero shortcut that returns before any solver runs
REGIMES = ("transport", "oracle", "upper", "zero")

# per-layer metrics, in report order: (name, unit)
METRICS = (
    ("freenorm.free_norm_p1.calls", "count"),
    ("freenorm.free_norm_p1.self_s", "s"),
    ("freenorm.norm_value.calls", "count"),
    ("freenorm.norm_value.self_s", "s"),
    ("freenorm.norm_value.mean_us", "us"),
    ("freenorm.norm_value.exact_ratio", "ratio"),
    *((f"freenorm.norm_value.{r}.{k}", u) for r in REGIMES
      for k, u in (("calls", "count"), ("self_s", "s"))),
    ("freenorm.free_norm_exact_small.calls", "count"),
    ("freenorm.free_norm_exact_small.self_s", "s"),
    ("freenorm.free_norm_upper.calls", "count"),
    ("freenorm.free_norm_upper.self_s", "s"),
    ("metric.doubling_constant_upper.calls", "count"),
    ("metric.doubling_constant_upper.self_s", "s"),
    ("metric.doubling_constant_upper.balls", "count"),
    ("metric.maximal_separated_net.calls", "count"),
    ("metric.maximal_separated_net.self_s", "s"),
    ("extension.whitney_cover.self_s", "s"),
    ("extension.weight_variation_check.self_s", "s"),
    ("extension.doubling_extension_map.self_s", "s"),
    ("extension.doubling_extension_map.pairs", "count"),
    ("extension.amenability_defect.self_s", "s"),
    ("decomposition.verify_pst_identity.self_s", "s"),
    ("decomposition.measure_map_into_sum.self_s", "s"),
    ("decomposition.measure_map_into_sum.pairs", "count"),
    ("decomposition.verify_separated_inverse.self_s", "s"),
    *((f"suites.run_suite.{s}.self_s", "s") for s in SUITES),
    ("bench.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# metrics that are exact counts: equal across runs with one seed
COUNT_METRICS = tuple(name for name, unit in METRICS if unit == "count") + (
    "freenorm.norm_value.exact_ratio",)


def binder(fn):
    """Fast positional/keyword binding against ``fn``'s signature."""
    params = list(inspect.signature(fn).parameters.values())
    names = [p.name for p in params]
    defaults = {p.name: p.default for p in params
                if p.default is not inspect.Parameter.empty}

    def bind(args, kwargs):
        out = dict(defaults)
        out.update(zip(names, args))
        out.update(kwargs)
        return out
    return bind


def _norm_value_attrs(bind, abs_tol):
    """Regime of one ``norm_value`` call, following its documented dispatch."""
    def attrs(args, kwargs, result):
        a = bind(args, kwargs)
        space, p = a["space"], a["p"]
        vec = np.asarray(a["vec"], dtype=float)
        prefer, limit = a["prefer"], a["exact_limit"]
        if np.abs(vec).max(initial=0.0) <= abs_tol:
            regime = "zero"
        elif prefer == "p1" or (prefer == "auto" and p == 1.0):
            regime = "transport"
        elif prefer == "upper":
            regime = "upper"
        elif a["certify"] and space.n <= limit:
            regime = "oracle"
        else:
            support = np.count_nonzero(vec) + (vec[space.base] == 0.0)
            regime = "oracle" if support <= limit else "upper"
        return {"regime": regime, "exact": bool(result[1])}
    return attrs


def _pairs(space):
    """Unordered point pairs of a map's domain; both maps measure them all."""
    return space.n * (space.n - 1) // 2


def _attr_makers():
    """Span attributes by layer name, computed from a call and its result."""
    from lipfree import decomposition, extension, freenorm, metric, suites

    ext_bind = binder(extension.doubling_extension_map)
    mm_bind = binder(decomposition.measure_map_into_sum)
    suite_bind = binder(suites.run_suite)

    def ext_attrs(args, kwargs, result):
        a = ext_bind(args, kwargs)
        return {"pairs": _pairs(a["space"]) if a["measure"] else 0}

    return {
        "freenorm.norm_value": _norm_value_attrs(
            binder(freenorm.norm_value), metric.ABS_TOL),
        "metric.doubling_constant_upper":
            lambda args, kwargs, result: {"balls": len(result.covers)},
        "extension.doubling_extension_map": ext_attrs,
        "decomposition.measure_map_into_sum": lambda args, kwargs, result: {
            "pairs": _pairs(mm_bind(args, kwargs)["family"].space)},
        "suites.run_suite": lambda args, kwargs, result: {
            "suite": suite_bind(args, kwargs)["config"].suite},
    }


@contextmanager
def patched(points):
    """Replace ``module.attr`` by ``make(original)`` for each
    (module name, attr, make) in ``points``; restore on exit."""
    saved = []
    try:
        for mod_name, attr, make in points:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, make(orig))
        yield
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


class Tracer:
    """In-memory span recorder for one traced round."""

    def __init__(self):
        # [id, parent, name, start, end, attrs, done]; ``done`` follows the
        # attribute bookkeeping, which is kept out of every self time
        self.spans = []
        self._stack = []

    def _wrap(self, fn, name, attrs_of):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0,
                    None, 0.0]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if attrs_of is not None:
                span[5] = attrs_of(args, kwargs, result)
            span[6] = clock()
            return result
        traced.__wrapped__ = fn
        return traced

    def run(self, body):
        """Call ``body()`` inside the root span with every patch point wrapped."""
        makers = _attr_makers()
        with patched([(mod, attr, lambda fn, name=name: self._wrap(
                fn, name, makers.get(name))) for mod, attr, name in PATCH_POINTS]):
            return self._wrap(body, ROOT, None)()


def self_times(spans):
    """Self time of every span: its duration minus the time its children
    cover, their attribute bookkeeping included."""
    selfs = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] >= 0:
            selfs[s[1]] -= s[6] - s[3]
    return selfs


def bookkeeping(spans):
    """Time spent computing span attributes, outside every self time."""
    return sum(s[6] - s[4] for s in spans)


def aggregate(spans):
    """Per-layer metrics of one traced round (``trace.overhead_s`` aside)."""
    selfs = self_times(spans)
    out = {name: 0.0 if unit == "s" else 0 for name, unit in METRICS}
    exact = 0
    for span, own in zip(spans, selfs):
        name, attrs = span[2], span[5] or {}
        if name == ROOT:
            out["bench.self_s"] += own
            continue
        if name == "suites.run_suite":
            key = f"suites.run_suite.{attrs.get('suite')}.self_s"
            if key in out:
                out[key] += own
            continue
        if f"{name}.calls" in out:
            out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
        for key in ("balls", "pairs"):
            if key in attrs:
                out[f"{name}.{key}"] += attrs[key]
        if name == "freenorm.norm_value":
            exact += attrs.get("exact", False)
            if attrs.get("regime") in REGIMES:
                out[f"{name}.{attrs['regime']}.calls"] += 1
                out[f"{name}.{attrs['regime']}.self_s"] += own
    calls = out["freenorm.norm_value.calls"]
    if calls:
        out["freenorm.norm_value.mean_us"] = (
            1e6 * out["freenorm.norm_value.self_s"] / calls)
        out["freenorm.norm_value.exact_ratio"] = exact / calls
    return out


def write_spans(tracers, path):
    """One span per line: round, id, parent, name, start, end (seconds)."""
    with open(path, "w") as fh:
        fh.write("round\tid\tparent\tname\tstart\tend\n")
        for r, tracer in enumerate(tracers):
            for s in tracer.spans:
                fh.write(f"{r}\t{s[0]}\t{s[1]}\t{s[2]}\t{s[3]:.9f}\t"
                         f"{s[4]:.9f}\n")
