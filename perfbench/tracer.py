"""Outside-in tracing of semiflat: span wrappers, span files, layer metrics.

`install()` wraps public functions of each semiflat module after import.
Every binding of a wrapped function inside the package is replaced, so
call sites that imported the function by name (scenario.py and
asymptotics.py import metric_at, periods_at, chern_curvature_norm, ...)
are traced too.  A span is [name, start, end, parent, scenario, raised];
spans stay in memory until `Tracer.write` dumps them as JSON.

The radial integrands are counted, not spanned: `base_profile` is wrapped
to return a copy of the frozen profile whose two integrands bump a
counter.  Chern-norm field evaluations are counted the same way.

`layer_metrics()` turns span files into the per-layer metrics the
benchmark reports.  A span's self time is its duration minus the time of
its direct children.  This module imports only the standard library, so
the benchmark's parent process can aggregate spans without numpy.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import statistics
import sys
from time import perf_counter

# (module, function) pairs wrapped with a span named "<module>.<function>".
FUNCTIONS = (
    ("scenario", "run_scenario"), ("scenario", "build_context"),
    ("scenario", "emit_decay_csv"),
    ("kodaira", "fiber_product"),
    ("metric", "metric_at"), ("metric", "periods_at"), ("metric", "ma_residual"),
    ("diffgeo", "chern_curvature_norm"), ("diffgeo", "closedness_residual"),
    ("asymptotics", "error_decay_fit"), ("asymptotics", "curvature_decay_fit"),
    ("asymptotics", "volume_growth_fit"), ("asymptotics", "sob_check"),
    ("asymptotics", "tangent_cone"), ("asymptotics", "base_profile"),
    ("weierstrass", "wp_lattice"), ("weierstrass", "wp_prime_lattice"),
    ("weierstrass", "cubic_residual"), ("weierstrass", "volume_pullback_ratio"),
    ("eguchi_hanson", "gluing_report"), ("eguchi_hanson", "eh_metric"),
    ("eguchi_hanson", "glued_positive"), ("eguchi_hanson", "a_max"),
)
# (module, class, method) triples wrapped with a span named "<module>.<method>".
METHODS = (
    ("asymptotics", "AsymptoticChart", "pulled_h"),
    ("asymptotics", "BaseProfile", "dist"), ("asymptotics", "BaseProfile", "volume"),
    ("asymptotics", "BaseProfile", "invert_dist"),
    ("scenario", "Report", "to_json"),
)
FITS = ("asymptotics.error_decay_fit", "asymptotics.curvature_decay_fit",
        "asymptotics.volume_growth_fit", "asymptotics.sob_check")
RADIAL = ("asymptotics.dist", "asymptotics.volume", "asymptotics.invert_dist")
CHECK_PREFIX = "scenario.check."


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.counters: dict[str, list[int]] = {}
        self.scenarios: list[str] = []
        self._stack: list[int] = []
        self._scenario = -1

    def counter(self, name: str) -> list[int]:
        return self.counters.setdefault(name, [0])

    def wrap(self, name: str, fn, before=None, after=None):
        """`fn` recording a span per call.  `before(args, kwargs)` returns the
        arguments to call with; `after(args, result)` returns the result."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self._scenario, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            return out if after is None else after(args, out)

        return traced

    def write(self, path: str, **extra) -> None:
        payload = {"names": self.names, "spans": self.spans, "scenarios": self.scenarios,
                   "counters": {k: v[0] for k, v in self.counters.items()}, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _counted(fn, box: list[int]):
    def counted(*args):
        box[0] += 1
        return fn(*args)
    return counted


def _rebind(original, replacement) -> int:
    """Replace every module-level binding of `original` in the package."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "semiflat" or modname.startswith("semiflat.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap the semiflat package in place; call once per process."""
    import importlib
    mods = {m: importlib.import_module(f"semiflat.{m}")
            for m in {m for m, _ in FUNCTIONS} | {m for m, _, _ in METHODS}}

    def enter_scenario(args, kwargs):
        cfg = args[0] if args else kwargs.get("cfg")
        tracer._scenario = len(tracer.scenarios)
        tracer.scenarios.append(cfg["name"] if isinstance(cfg, dict) else os.fspath(cfg))
        return args, kwargs

    fields = tracer.counter("diffgeo.chern_field_evals")

    def count_field(args, kwargs):
        return (_counted(args[0], fields),) + tuple(args[1:]), kwargs

    integrands = tracer.counter("asymptotics.profile_integrand_calls")

    def count_integrands(args, profile):
        return dataclasses.replace(
            profile, sqrt_g_radial=_counted(profile.sqrt_g_radial, integrands),
            area_density=_counted(profile.area_density, integrands))

    report_bytes = tracer.counter("scenario.report_bytes")

    def add_csv_bytes(args, out):
        report_bytes[0] += os.path.getsize(args[0])
        return out

    def add_json_bytes(args, out):
        report_bytes[0] += len(out.encode("utf-8"))
        return out

    hooks = {
        "scenario.run_scenario": {"before": enter_scenario},
        "diffgeo.chern_curvature_norm": {"before": count_field},
        "scenario.emit_decay_csv": {"after": add_csv_bytes},
        "scenario.to_json": {"after": add_json_bytes},
        "asymptotics.base_profile": {"after": count_integrands},
    }
    for modname, attr in FUNCTIONS:
        name = f"{modname}.{attr}"
        original = getattr(mods[modname], attr)
        wrapped = tracer.wrap(name, original, **hooks.get(name, {}))
        if _rebind(original, wrapped) == 0:
            raise RuntimeError(f"no binding of {name} found to wrap")
    for modname, clsname, attr in METHODS:
        cls = getattr(mods[modname], clsname)
        name = f"{modname}.{attr}"
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), **hooks.get(name, {})))
    checks = mods["scenario"]._CHECKS
    for check, fn in list(checks.items()):
        checks[check] = tracer.wrap(CHECK_PREFIX + check, fn)


# ---------------------------------------------------------------------------
# aggregation (parent side)
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(span_files: list[dict], checks: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its processes."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    counters: dict[str, int] = {}
    errors = 0
    periods_in_metric = 0
    import_s = []
    for sf in span_files:
        names, spans = sf["names"], sf["spans"]
        import_s.append(sf["import_s"])
        for k, v in sf["counters"].items():
            counters[k] = counters.get(k, 0) + v
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        metric_id = names.index("metric.metric_at") if "metric.metric_at" in names else -1
        under_metric = [False] * len(spans)
        for i, (nid, t0, t1, parent, _, raised) in enumerate(spans):
            name = names[nid]
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + dur - child[i]
            if parent >= 0:
                under_metric[i] = spans[parent][0] == metric_id or under_metric[parent]
            if name == "metric.periods_at" and under_metric[i]:
                periods_in_metric += 1
            if raised and name.startswith(CHECK_PREFIX):
                errors += 1

    def n(name):
        return calls.get(name, 0)

    out = {
        "cli.import_s": statistics.median(import_s),
        "scenario.build_context_s": total.get("scenario.build_context", 0.0),
        "scenario.report_io_s": (total.get("scenario.to_json", 0.0)
                                 + total.get("scenario.emit_decay_csv", 0.0)),
        "scenario.report_bytes": counters.get("scenario.report_bytes", 0),
        "scenario.checks_run": sum(v for k, v in calls.items() if k.startswith(CHECK_PREFIX)),
        "scenario.check_errors": errors,
        "kodaira.fiber_product_calls": n("kodaira.fiber_product"),
        "kodaira.fiber_product_s": total.get("kodaira.fiber_product", 0.0),
        "metric.metric_at_calls": n("metric.metric_at"),
        "metric.metric_at_self_s": self_s.get("metric.metric_at", 0.0),
        "metric.periods_at_calls": n("metric.periods_at"),
        "metric.periods_at_self_s": self_s.get("metric.periods_at", 0.0),
        "metric.periods_per_metric_at": _ratio(periods_in_metric, n("metric.metric_at")),
        "metric.ma_residual_calls": n("metric.ma_residual"),
        "diffgeo.chern_norm_calls": n("diffgeo.chern_curvature_norm"),
        "diffgeo.chern_norm_self_s": self_s.get("diffgeo.chern_curvature_norm", 0.0),
        "diffgeo.field_evals_per_chern_norm": _ratio(
            counters.get("diffgeo.chern_field_evals", 0), n("diffgeo.chern_curvature_norm")),
        "diffgeo.closedness_calls": n("diffgeo.closedness_residual"),
        "diffgeo.closedness_self_s": self_s.get("diffgeo.closedness_residual", 0.0),
        "asymptotics.pulled_h_calls": n("asymptotics.pulled_h"),
        "asymptotics.pulled_h_self_s": self_s.get("asymptotics.pulled_h", 0.0),
        "asymptotics.fit_self_s": sum(self_s.get(f, 0.0) for f in FITS),
        "asymptotics.profile_integrand_calls":
            counters.get("asymptotics.profile_integrand_calls", 0),
        "asymptotics.dist_calls": n("asymptotics.dist"),
        "asymptotics.invert_dist_calls": n("asymptotics.invert_dist"),
        "asymptotics.integrand_calls_per_radius": _ratio(
            counters.get("asymptotics.profile_integrand_calls", 0), n("asymptotics.invert_dist")),
        "asymptotics.radial_self_s": sum(self_s.get(f, 0.0) for f in RADIAL),
        "weierstrass.wp_lattice_calls": n("weierstrass.wp_lattice"),
        "weierstrass.self_s": layer_self.get("weierstrass", 0.0),
        "eguchi_hanson.glued_positive_calls": n("eguchi_hanson.glued_positive"),
        "eguchi_hanson.self_s": layer_self.get("eguchi_hanson", 0.0),
    }
    for check in checks:
        out[f"scenario.check_s.{check}"] = total.get(CHECK_PREFIX + check, 0.0)
    return out
