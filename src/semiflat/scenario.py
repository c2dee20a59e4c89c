"""Scenario configuration, check orchestration, and report/CSV emission.

A scenario is a flat-key JSON object selecting a model, a list of checks,
and the sampling and radius-window parameters.  Reports are deterministic
for a fixed seed: each check draws its sample points from its own stream of
the package SplitMix64 generator, split from the seed, the JSON is emitted
with sorted keys, and wall times go to the log stream only.  Exit codes:
0 all checks passed, 1 any check failed, 2 malformed configuration.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# Every metric scenario needs these.  asymptotics, eguchi_hanson, lattice
# and weierstrass are imported inside the checks that call them (and
# eguchi_hanson by build_context for an eh scenario), so a CLI run loads
# (and, without a bytecode cache, compiles) only what its checks use.
from .diffgeo import FDScheme, closedness_residual
from .errors import ScenarioError, SemiflatError
from .kodaira import (FiberKind, FiberType, ProductModel, PuncturedPoint, canonical_coefficient,
                      classify_asymptotics, correction_exponent, discriminant_coefficient,
                      fiber_product, isotrivial_case13, isotrivial_coefficient, local_model)
from .metric import (VolumeFormSpec, _fiber_terms, christoffel_closed, christoffel_general,
                     effective_g, ma_residual, metric_at, periods_at)
from .rng import SplitMix64

_SCHEMA: dict[str, tuple[type, bool]] = {
    # key -> (type, required)
    "name": (str, True),
    "model_kind": (str, True),       # pair | isotrivial | elliptic | eh | weierstrass
    "left": (str, False),
    "right": (str, False),
    "m_left": (int, False),
    "m_right": (int, False),
    "b_left": (int, False),
    "b_right": (int, False),
    "fiber": (str, False),
    "m": (int, False),
    "b": (int, False),
    "case": (int, False),
    "epsilon": (float, False),
    "k0_re": (float, False),
    "k0_im": (float, False),
    "checks": (list, True),
    "samples": (int, False),
    "seed": (int, False),
    "r_min": (float, False),
    "r_max": (float, False),
    "n_radii": (int, False),
    "eh_a": (float, False),
    "eh_delta": (float, False),
    "grid_z": (int, False),
    "grid_v": (int, False),
}

# keys whose value must be positive: a count of zero would run a check over
# no points, and a pass over nothing is no pass
_POSITIVE = ("epsilon", "samples", "n_radii", "r_min", "r_max", "grid_z", "grid_v", "b")

_CHECK_ALIASES = {"closed": "closedness", "cone": "tangent_cone", "volume": "volume_growth"}

_MODEL_CHECKS = {
    "pair": {"ma", "closedness", "error_decay", "curvature_decay", "volume_growth",
             "tangent_cone", "sob", "canonical", "fiber_volume", "christoffel"},
    "isotrivial": {"ma", "closedness", "flatness", "error_decay", "tangent_cone",
                   "canonical", "fiber_volume", "christoffel"},
    "elliptic": {"ma", "closedness", "christoffel"},
    "eh": {"eh_gluing"},
    "weierstrass": {"weierstrass"},
}

# the pair checks each asymptotic class cannot run: an ALG/ALH model has a
# flat chart and no radial profile, a star model the reverse
_CHART_ONLY = {"error_decay", "curvature_decay"}
_STAR_ONLY = {"volume_growth", "sob"}
_NOT_FOR_CLASS = {"ALG": _STAR_ONLY, "ALH": _STAR_ONLY,
                  "ALH_star": _CHART_ONLY, "ALG_star": _CHART_ONLY}


# The pass rule of each relation, on the measured value m, the expected
# value e and the tolerance t.  A one-sided relation reads its bound from t;
# its e is the ideal value and enters no comparison.
_RELATIONS: dict[str, Callable] = {
    "within": lambda m, e, t: abs(m - e) < t,
    "at_least": lambda m, e, t: m >= t,
    "above": lambda m, e, t: m > t,
    "below": lambda m, e, t: m < t,
    "equal": lambda m, e, t: m == e,          # exact rationals
}


@dataclass(frozen=True)
class Condition:
    """One stated condition of a check: a measured value, the expected value
    with its provenance, the tolerance, and the relation that decides."""

    relation: str
    measured: object
    expected: object
    tolerance: object
    provenance: str

    @property
    def holds(self) -> bool:
        return bool(_RELATIONS[self.relation](self.measured, self.expected, self.tolerance))


@dataclass
class CheckResult:
    """A check's conditions and the measured values that enter none.

    The verdict is derived: a check passes when it states a condition and
    every condition holds.  A check that raised states none, so it fails.
    """

    name: str
    conditions: dict[str, Condition]
    info: dict
    note: str = ""
    wall_time: float = 0.0
    csv_rows: Optional[list[tuple[float, str, float]]] = None

    @property
    def passed(self) -> bool:
        return bool(self.conditions) and all(c.holds for c in self.conditions.values())

    @property
    def measured(self) -> dict:
        return {**self.info, **{k: c.measured for k, c in self.conditions.items()}}


@dataclass
class Report:
    scenario: dict
    tolerance_scale: float
    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> str:
        payload = {
            "scenario": self.scenario,
            "tolerance_scale": self.tolerance_scale,
            "passed": self.passed,
            "checks": [
                {
                    "name": r.name,
                    "status": "pass" if r.passed else "fail",
                    "measured": _jsonable(r.measured),
                    "expected": _jsonable({k: c.expected for k, c in r.conditions.items()}),
                    "tolerance": _jsonable({k: c.tolerance for k, c in r.conditions.items()}),
                    "provenance": {k: c.provenance for k, c in r.conditions.items()},
                    "relation": {k: c.relation for k, c in r.conditions.items()},
                    "note": r.note,
                }
                for r in sorted(self.results, key=lambda r: r.name)
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)


def _jsonable(d: dict) -> dict:
    return {k: _json_value(v) for k, v in d.items()}


def _json_value(v):
    """v as strict JSON (RFC 8259): a fraction as "p/q", a numpy scalar as
    a Python number, and a float that is not finite, which JSON cannot
    write, as null."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, (list, tuple)):
        return [_json_value(y) for y in v]
    return v


def load_scenario(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return validate_scenario(cfg)


def validate_scenario(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ScenarioError("scenario must be a JSON object")
    for key in cfg:
        if key not in _SCHEMA:
            raise ScenarioError(f"unknown scenario key: {key!r}")
    for key, (typ, required) in _SCHEMA.items():
        if key in cfg:
            val = cfg[key]
            if isinstance(val, bool):           # JSON true is no count
                raise ScenarioError(f"{key} must be {typ.__name__}")
            if typ is float and isinstance(val, int):
                val = float(val)
                cfg[key] = val
            if not isinstance(val, typ):
                raise ScenarioError(f"{key} must be {typ.__name__}")
            if typ is float and not math.isfinite(val):     # json reads NaN, Infinity
                raise ScenarioError(f"{key} must be finite, got {val!r}")
        elif required:
            raise ScenarioError(f"missing required key: {key!r}")
    for key in _POSITIVE:
        if key in cfg and not cfg[key] > 0:
            raise ScenarioError(f"{key} must be positive, got {cfg[key]!r}")
    # the name is the stem of the report and CSV files
    if not cfg["name"] or set(cfg["name"]) & set("/\\\0"):
        raise ScenarioError(f"name must be a non-empty file stem, got {cfg['name']!r}")
    kind = cfg["model_kind"]
    if kind not in _MODEL_CHECKS:
        raise ScenarioError(f"unknown model_kind {kind!r}")
    if not all(isinstance(c, str) for c in cfg["checks"]):
        raise ScenarioError("checks must be a list of check names")
    checks = [_CHECK_ALIASES.get(c, c) for c in cfg["checks"]]
    if not checks:
        raise ScenarioError("empty check list")
    if twice := sorted({c for c in checks if checks.count(c) > 1}):
        raise ScenarioError(f"checks named more than once: {twice}")
    allowed = _MODEL_CHECKS[kind]
    for c in checks:
        if c not in allowed:
            raise ScenarioError(f"check {c!r} not applicable to model_kind {kind!r}")
    cfg["checks"] = checks
    if kind == "pair" and ("left" not in cfg or "right" not in cfg):
        raise ScenarioError("pair scenarios need 'left' and 'right'")
    if kind == "elliptic" and "fiber" not in cfg:
        raise ScenarioError("elliptic scenarios need 'fiber'")
    return cfg


def _fiber_type(kind_name: str, m: Optional[int], b: Optional[int]) -> FiberType:
    try:
        kind = FiberKind(kind_name)
    except ValueError as exc:
        raise ScenarioError(f"unknown fiber kind {kind_name!r}") from exc
    kwargs = {}
    if kind in (FiberKind.I, FiberKind.Istar):
        kwargs["b"] = b if b is not None else 1
    elif m is not None:
        kwargs["m_mult"] = m
    try:
        return FiberType(kind, **kwargs)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


@dataclass
class Context:
    """A scenario's model, and its chart (ALG/ALH and isotrivial models) or
    radial profile (star models): each built on first read, through the
    `asymptotics` module so that a rebound builder is seen, and shared by
    every check of the scenario."""

    cfg: dict
    model: object          # ProductModel | LocalModel | EHConfig | None
    vf: VolumeFormSpec
    eps: float

    @cached_property
    def chart(self):
        from . import asymptotics
        return asymptotics.to_chart(self.model, self.eps, self.vf)

    @cached_property
    def profile(self):
        from . import asymptotics
        return asymptotics.base_profile(self.model, self.eps, self.vf)


def _configured(keys: str, make: Callable, **kwargs):
    """make(**kwargs), with the ValueError of an out-of-range setting raised
    as the ScenarioError of the scenario keys it came from."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{keys}: {exc}") from exc


def _volume_form(cfg: dict, default_k0_re: float) -> VolumeFormSpec:
    k0 = complex(cfg.get("k0_re", default_k0_re), cfg.get("k0_im", 0.0))
    return _configured("k0_re, k0_im", VolumeFormSpec, k0=k0)


def build_context(cfg: dict) -> Context:
    eps = float(cfg.get("epsilon", 1.0))
    kind = cfg["model_kind"]
    if kind in ("pair", "isotrivial", "elliptic"):
        model = _catalog_model(cfg)
        return Context(cfg=cfg, model=model, vf=_volume_form(cfg, model.default_k0.real),
                       eps=eps)
    model = None
    if kind == "eh":
        from .eguchi_hanson import EHConfig
        model = _configured("eh_a, eh_delta", EHConfig, a=float(cfg.get("eh_a", 0.05)),
                            delta=float(cfg.get("eh_delta", 1.0)))
    return Context(cfg=cfg, model=model, vf=VolumeFormSpec(k0=1.0), eps=eps)


def _catalog_model(cfg: dict):
    """The catalog model of a pair, isotrivial or elliptic scenario.  A
    catalog error (a pair without a complete model, a failed construction
    self-check) is a ScenarioError of the scenario, and so is a check that
    the pair's asymptotic class cannot run."""
    kind = cfg["model_kind"]
    if kind == "isotrivial" and cfg.get("case", 13) != 13:
        raise ScenarioError("only the case-13 isotrivial model carries metric checks; "
                            "other cases enter through the canonical coefficient")
    try:
        if kind == "pair":
            pm = fiber_product(_fiber_type(cfg["left"], cfg.get("m_left"), cfg.get("b_left")),
                               _fiber_type(cfg["right"], cfg.get("m_right"), cfg.get("b_right")))
            cls = classify_asymptotics(pm)
            if wrong := _NOT_FOR_CLASS[cls.kind].intersection(cfg["checks"]):
                raise ScenarioError(f"{sorted(wrong)} do not apply to {pm.label()}, "
                                    f"an {cls.kind} model")
            return pm
        if kind == "isotrivial":
            return isotrivial_case13()
        return local_model(_fiber_type(cfg["fiber"], cfg.get("m"), cfg.get("b")))
    except ScenarioError:
        raise
    except SemiflatError as exc:
        raise ScenarioError(str(exc)) from exc


def sample_points(model, rng: SplitMix64, n: int):
    """n seeded in-chart samples as one batch: |z| in [0.05, 0.5], off the
    slit, v in the cell.  Returns a PuncturedPoint whose s is an array of
    length n and a tuple of m arrays v_j: axis 0 is the sample axis, the
    batch axis of metric_at and periods_at and the stack axis of the
    christoffel_general and lattice stacks.  Each sample takes 2 + 2m
    draws, in the order r, arg, then two cell coordinates per fiber factor,
    each mapped to its range as SplitMix64.uniform(lo, hi) maps it."""
    def between(lo, hi, x):
        return lo + (hi - lo) * x

    u = rng.uniforms(n * (2 + 2 * model.m)).reshape(n, -1).T
    k = model.k if model.m == 2 else model.d
    r = between(0.05, 0.5, u[0]) ** (1.0 / k)
    th = between(0.04 / k, (2 * math.pi - 0.04) / k, u[1])
    pt = PuncturedPoint(s=r * np.exp(1j * th), d=k)
    tau = model.tau(pt.s)
    v = tuple(between(0.05, 0.95, u[2 + 2 * j]) * tau[2 * j]
              + between(0.05, 0.95, u[3 + 2 * j]) * tau[2 * j + 1] for j in range(model.m))
    return pt, v


def _radii(cfg: dict, default_lo: float, default_hi: float, default_n: int = 13,
           spacing: Callable = np.geomspace):
    """The radius window of a check: the scenario's r_min, r_max and n_radii,
    each defaulting to the check's own.  Raises ScenarioError unless
    r_min < r_max, checked once both are resolved."""
    lo = float(cfg.get("r_min", default_lo))
    hi = float(cfg.get("r_max", default_hi))
    if not lo < hi:
        raise ScenarioError(f"r_min {lo:g} must be below r_max {hi:g} (defaults "
                            f"for this check: {default_lo:g}, {default_hi:g})")
    return spacing(lo, hi, int(cfg.get("n_radii", default_n)))


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _check_ma(ctx: Context, rng: SplitMix64) -> CheckResult:
    n = int(ctx.cfg.get("samples", 100))
    pt, v = sample_points(ctx.model, rng, n)
    h = metric_at(ctx.model, ctx.eps, ctx.vf, pt, v)
    g_eff = effective_g(ctx.model, ctx.vf, pt.z).tolist()      # base_terms' call, its bits
    # the oracle stays per point: one cofactor determinant per matrix, on
    # Python numbers, whatever assembled the stack.  numpy folds the
    # residuals: its max is NaN when one is, Python's max is not
    worst = float(np.fromiter(map(ma_residual, h, g_eff), float, n).max())
    return CheckResult(name="ma", info={"samples": n}, conditions={
        "max_residual": Condition("within", worst, 0.0, 1e-10,
                                  "DERIVED: determinant identity oracle")})


def _check_closedness(ctx: Context, rng: SplitMix64) -> CheckResult:
    model = ctx.model
    pt, v = sample_points(model, rng, 2)
    k = pt.d

    def fld(x: np.ndarray) -> np.ndarray:
        # the stencil as one numpy batch of metric_at, as `ma` evaluates
        # its samples (docs/decisions.md, "`ma` and `closedness`
        # evaluate their points as one numpy batch")
        zv = np.ascontiguousarray(x).view(complex)      # columns z, v_1, ..., v_m
        return metric_at(model, ctx.eps, ctx.vf, PuncturedPoint(s=zv[:, 0] ** (1.0 / k), d=k),
                         tuple(zv[:, 1:].T))

    z = pt.z
    x = np.column_stack([z.real, z.imag] + [w for vj in v for w in (vj.real, vj.imag)])
    residuals, orders = zip(*(closedness_residual(fld, xi, FDScheme(step=1e-4),
                                                  (abs(zi),) + (1.0,) * model.m)
                              for xi, zi in zip(x, z)))
    worst_res, worst_order = float(np.max(residuals)), float(np.min(orders))
    note = ("min_order not measured, taken as infinite: at both samples the residual "
            "at step h was already below the 1e-10 floor" if worst_order == math.inf else "")
    return CheckResult(name="closedness", info={}, note=note, conditions={
        "max_residual": Condition("within", worst_res, 0.0, 1e-6,
                                  "DERIVED: FD convergence oracle"),
        "min_order": Condition("at_least", worst_order, 2.0, 1.9,
                               "DERIVED: truncation order of central differences")})


def _check_flatness(ctx: Context, rng: SplitMix64) -> CheckResult:
    from . import asymptotics as asy
    chart = ctx.chart
    b1, b2 = np.array(asy._beta_samples(chart, rng, 6)).T
    alphas = asy._fit_radii(chart, [(2.0 + 5.0 * i) * chart.alpha0 for i in range(6)])
    dev = float(np.max(np.abs(chart.pulled_h(np.array(alphas), (b1, b2)) - chart.flat_h)))
    (alpha,) = asy._fit_radii(chart, [4.0 * chart.alpha0])
    x = np.array([alpha.real, alpha.imag, 0.3, 0.2, 0.25, 0.35])
    [[curv]] = asy._batch_norms(chart, [(x, (abs(alpha), 1.0, 1.0))], (FDScheme(step=2e-3),))
    return CheckResult(name="flatness", info={}, conditions={
        "max_coefficient_deviation": Condition("within", dev, 0.0, 1e-12,
                                               "PAPER: isotrivial ansatz is flat"),
        "curvature_norm": Condition("within", curv, 0.0, 1e-6,
                                    "PAPER: isotrivial ansatz is flat")})


def _qmin(pm: ProductModel) -> float:
    return min(correction_exponent(pm.left), correction_exponent(pm.right))


@dataclass(frozen=True)
class _DecayCheck:
    """What tells the two decay checks apart; `_check_decay` does the rest.

    A law decays through the channel |z|^(c q) with d further derivatives:
    on an ALG chart, |z| = |alpha/alpha0|^(-p) gives the exponent
    -(c p q + d); on an ALH chart, the rate c q times the chart's rate."""

    fit: str                 # sampler in `asymptotics`, by name: a rebound attribute is seen
    alh_r_max: float         # default ALH radii: linspace(5, alh_r_max, alh_n)
    alh_n: int
    channel: float           # c
    derivatives: float       # d
    tol: float               # absolute on an exponent, relative on a rate
    provenance: str          # the law, formatted with q
    flat_key: str
    flat_tol: float
    flat_provenance: str
    label: str               # CSV observable


_DECAY_CHECKS = {
    "error_decay": _DecayCheck(
        fit="error_decay_fit", alh_r_max=25.0, alh_n=11, channel=1.0, derivatives=0.0,
        tol=0.05, provenance="leading diagonal channel |z|^q, q={q:g}",
        flat_key="max_deviation", flat_tol=1e-12,
        flat_provenance="PAPER: exact flatness", label="deviation"),
    "curvature_decay": _DecayCheck(
        fit="curvature_decay_fit", alh_r_max=20.0, alh_n=9, channel=0.5, derivatives=2.0,
        tol=0.1, provenance="Wronskian channel |z|^(q/2) with one alpha-derivative, q={q:g}",
        flat_key="max_norm", flat_tol=1e-10,
        flat_provenance="TRIVIAL: flat model", label="curvature"),
}


def _check_decay(name: str, ctx: Context, rng: SplitMix64) -> CheckResult:
    from . import asymptotics as asy
    spec = _DECAY_CHECKS[name]
    pm, chart = ctx.model, ctx.chart
    if chart.kind == "exp":
        radii = _radii(ctx.cfg, 5.0, spec.alh_r_max, spec.alh_n, np.linspace)
    else:
        radii = _radii(ctx.cfg, 1e2, 1e5)
    fit, rows = getattr(asy, spec.fit)(chart, radii, rng)
    csv = [(r, spec.label, v) for r, v in rows]
    q = _qmin(pm)
    worst = float(np.max([v for _, v in rows]))
    if fit.kind == "flat" and math.isinf(q):
        return CheckResult(name=name, info={"kind": "flat"}, csv_rows=csv, conditions={
            spec.flat_key: Condition("within", worst, 0.0, spec.flat_tol,
                                     spec.flat_provenance)})
    published, note = None, ""
    if chart.kind == "power":
        key, expect = "exponent", -(spec.channel * chart.p * q + spec.derivatives)
        tol = spec.tol
        published = _PAPER_DECAY.get((pm.left, pm.right), {}).get(name)
    else:
        key, expect = "rate", spec.channel * q * chart.rate
        tol = spec.tol * expect
    prov = spec.provenance.format(q=q)
    if published is None:
        prov = "DERIVED: " + prov
    elif abs(expect - published) < 1e-12:
        prov = "PAPER: " + prov
    else:
        prov = "DERIVED: " + prov + "; see decisions record for the differing published exponent"
        note = (f"published exponent {published} = {float(published):.6g}; "
                f"measured - published = {fit.exponent_or_rate - published:.6g}")
    if fit.kind == "flat":
        # every value under the floor on a model that decays: the window shows
        # no law, so the law's condition is stated unmeasured, and fails
        return CheckResult(name=name, csv_rows=csv,
                           info={"kind": "flat", "window": fit.window, spec.flat_key: worst},
                           conditions={key: Condition("within", math.nan, expect, tol, prov)})
    return CheckResult(name=name, info={"ss_res_over_ss_tot": fit.ss_res_over_ss_tot},
                       note=note, csv_rows=csv, conditions={
                           key: Condition("within", fit.exponent_or_rate, expect, tol, prov)})


def _check_volume_growth(ctx: Context, rng: SplitMix64) -> CheckResult:
    from . import asymptotics as asy
    cls = classify_asymptotics(ctx.model)
    radii = _radii(ctx.cfg, 1e2, 1e6)
    fit, rows = asy.volume_growth_fit(ctx.profile, radii)
    return CheckResult(
        name="volume_growth", csv_rows=[(r, "volume", v) for r, v in rows],
        info={"ss_res_over_ss_tot": fit.ss_res_over_ss_tot,
              "quad_rel_err": ctx.profile.quad_rel_err(float(max(radii)))},
        conditions={"exponent": Condition("within", fit.exponent_or_rate,
                                          float(cls.volume_exponent), 0.05,
                                          "PAPER: geodesic-ball growth order")})


def _check_sob(ctx: Context, rng: SplitMix64) -> CheckResult:
    from . import asymptotics as asy
    cls = classify_asymptotics(ctx.model)
    radii = _radii(ctx.cfg, 1e2, 1e6, 9)
    rep = asy.sob_check(ctx.profile, float(cls.volume_exponent), cls.cone, radii)
    conditions = {
        f"clause{i}_inf": Condition("above", rep[f"clause{i}_inf"], "positive", 0.0,
                                    f"PAPER: SOB(beta) clause ({i}) with a finite "
                                    "positive constant")
        for i in (1, 2)}
    conditions["stability_ratio"] = Condition(
        "below", float(np.max([rep["clause1_stable"], rep["clause2_stable"]])), 1.0, 10.0,
        "DERIVED: each clause constant is stable over the radius window")
    return CheckResult(name="sob", conditions=conditions, note=rep["connectivity"],
                       info={k: v for k, v in rep.items()
                             if isinstance(v, float) and k not in conditions})


def _check_tangent_cone(ctx: Context, rng: SplitMix64) -> CheckResult:
    from . import asymptotics as asy
    pm = ctx.model
    cls = classify_asymptotics(pm)
    cone = asy.tangent_cone(pm, ctx.eps, ctx.vf)
    info = {"kind": cls.cone, "measured_sequence": list(cone.measured)}
    notes = []
    if cls.angle_over_pi is not None:
        notes.append(f"cone angle {cls.angle_over_pi} pi is the classification's, "
                     "not measured")
    if cls.kind in ("ALG", "ALH"):
        key, expect, tol = "base_coefficient", 0.5, 0.01
        prov = "DERIVED: flat value of the pulled base coefficient in the chart"
    else:
        key = "limit_coefficient"
        prov = "DERIVED: substitution into the explicit base metric"
        if cls.kind == "ALH_star":
            expect = asy.ray_limit_coefficient(pm, ctx.eps, ctx.vf)
            paper = pm.left.b * abs(ctx.vf.k(0.5)) ** 2 / (2 * math.pi * ctx.eps)
            label = "published display constant"
        else:
            expect = asy.cone_limit_coefficient(pm, ctx.eps, ctx.vf)
            # the paper displays the ALG* constant for Istar x IVstar only
            paper = None
            if (pm.left.kind.value, pm.right.kind.value) == ("Istar", "IVstar"):
                paper = 216 * math.sqrt(3) * pm.left.b * abs(ctx.vf.k0) ** 2 / ctx.eps ** 2
                label = "published display constant (IVstar row)"
        tol = 0.01 * expect
        if paper is not None:
            prov += "; see decisions record for the differing published display constant"
            notes.append(f"{label} {paper:.6g}; measured/published = "
                         f"{cone.limit_coefficient / paper:.6g}")
    return CheckResult(name="tangent_cone", info=info, note="; ".join(notes), conditions={
        key: Condition("within", cone.limit_coefficient, expect, tol, prov)})


# the paper's canonical-divisor table, by the kinds of the product's factors
_PAPER_CANONICAL = {("Istar", "Istar"): Fraction(-1, 2), ("Istar", "IIstar"): Fraction(-1, 2),
                    ("Istar", "IIIstar"): Fraction(-1, 2), ("Istar", "IVstar"): Fraction(-1, 3),
                    ("IIstar", "IIIstar"): Fraction(-8, 12)}

# the paper's displayed decay exponents, by the product's fiber types
_PAPER_DECAY = {(FiberType(FiberKind.IIstar, m_mult=2), FiberType(FiberKind.IIIstar, m_mult=1)):
                {"error_decay": Fraction(-12, 7), "curvature_decay": Fraction(-31, 12)}}


def _check_canonical(ctx: Context, rng: SplitMix64) -> CheckResult:
    pm = ctx.model
    got = canonical_coefficient(pm)
    if ctx.cfg["model_kind"] == "isotrivial":
        derived, rule = isotrivial_coefficient(pm.k), "DERIVED: invariant-monomial power count"
        published, source = Fraction(-2, pm.k), "PAPER: pole order 2, multiplicity k"
    else:
        derived, rule = (discriminant_coefficient(pm), "DERIVED: Kodaira's canonical bundle "
                         "formula, 1 - 1/k - (n1+n2)/12 with n = ord Delta - ord_inf j")
        published = _PAPER_CANONICAL.get((pm.left.kind.value, pm.right.kind.value))
        source = "PAPER: canonical-divisor table"
    conditions = {"coefficient": Condition("equal", got, derived, 0, rule)}
    if published is not None:
        conditions["published"] = Condition("equal", got, published, 0, source)
    return CheckResult(name="canonical", info={}, conditions=conditions)


def _check_fiber_volume(ctx: Context, rng: SplitMix64) -> CheckResult:
    # the Siegel route shares no code with metric, so an error in the
    # pairing or the eps scaling of _fiber_terms shows as a disagreement
    from . import lattice
    pm = ctx.model
    nu = pm.nu
    pt, _ = sample_points(pm, rng, 4)
    periods = periods_at(pm, pt)
    F, _ = _fiber_terms(pm, pt, periods, eps=ctx.eps)
    fam = lattice.product_family(periods[0])
    H = lattice.scaled_h(lattice.hermitian_h(fam), fam.Q, ctx.eps, 2)
    oracle = [H[:, j, j].real / nu[j] for j in range(2)]
    worst = float(np.max(np.abs(np.subtract(F, oracle)) / oracle))
    return CheckResult(name="fiber_volume", info={}, conditions={
        "max_fiber_coeff_rel_err": Condition(
            "within", worst, 0.0, 1e-8,
            "DERIVED: Siegel oracle, F_j = H(eps)[j, j] / nu_j of the period lattice; "
            "each factor has area eps")})


def _check_christoffel(ctx: Context, rng: SplitMix64) -> CheckResult:
    model = ctx.model
    pt, v = sample_points(model, rng, 8)
    periods = periods_at(model, pt)
    g1 = np.stack(christoffel_closed(model, pt, v, periods))
    g2 = np.stack(christoffel_general(*periods, v))
    # each sample's disagreement at its own scale
    scale = np.maximum(1.0, np.abs(g1).max(axis=0))
    worst = float(np.max(np.abs(g1 - g2).max(axis=0) / scale))
    return CheckResult(name="christoffel", info={}, conditions={
        "max_rel_disagreement": Condition("within", worst, 0.0, 1e-12,
                                          "DERIVED: closed form vs stacked inverse")})


def _check_eh(ctx: Context, rng: SplitMix64) -> CheckResult:
    from . import eguchi_hanson as eh
    delta = ctx.model.delta
    rep = eh.gluing_report(ctx.model, rng)
    # 24 annulus points on the diagonal |z_i|^2 = u/3, one stacked call per scale
    u = 1.0 + delta * (np.arange(24) + 0.5) / 24
    z = np.repeat(np.sqrt(u / 3)[:, None], 3, axis=1)
    ratios3 = [float(np.max(np.abs(eh.eh_metric(eh.EHConfig(a=aa, delta=delta), z)
                                   - np.eye(3)))) / aa ** 3 for aa in (0.02, 0.04, 0.08)]
    return CheckResult(name="eh_gluing", info={"dev_over_a3": ratios3}, conditions={
        "det_residual": Condition("within", rep["max_det_residual_inside"], 0.0,
                                  1e-10, "DERIVED: rank-one-update identity"),
        "min_eigenvalue": Condition("above", rep["min_eigenvalue"], "positive", 0.0,
                                    "PAPER: the glued metric is positive definite"),
        "a_max": Condition("above", rep["a_max"], "above eh_a", ctx.model.a,
                           "PAPER: the gluing holds for every small enough scale a; "
                           "the configured eh_a must be one"),
        "dev_over_a3_spread": Condition(
            "within", float(np.max(ratios3) / np.min(ratios3)) - 1.0, 0.0, 0.2,
            "DERIVED: sharp closeness order; the published bound C_k a^2 holds a fortiori")})


def _check_weierstrass(ctx: Context, rng: SplitMix64) -> CheckResult:
    from . import weierstrass as wst
    nz = int(ctx.cfg.get("grid_z", 5))
    nv = int(ctx.cfg.get("grid_v", 5))
    b = int(ctx.cfg.get("b", 1))
    cubic, ratio = [], []
    for i in range(nz):
        z = (0.08 + 0.42 * i / max(nz - 1, 1)) * cmath.exp(1j * (0.3 + 0.8 * i))
        ed = wst.EllipticData(z=z, b=b)
        for j in range(nv):
            v = (0.18 + 0.5 * j / max(nv - 1, 1)) + 0.13j * (j + 1)
            wprime = wst.wp_prime(ed, v)
            cubic.append(wst.cubic_residual(ed, v, wprime))
            ratio.append(wst.volume_pullback_ratio(ed, v, wprime))
    return CheckResult(name="weierstrass", info={}, conditions={
        "max_cubic_residual": Condition(
            "within", float(np.max(cubic)), 0.0, 1e-8,
            "DERIVED: the embedding identity itself, relative to max(1, |4X^3|)"),
        "max_ratio_deviation": Condition(
            "within", float(np.max(ratio)), 0.0, 1e-8,
            "DERIVED: FD Jacobian oracle, relative to max(|2 pi i y|, 4 pi |X|^(3/2))")})


# Each check in execution order: cheap exact checks, then metric-level, then
# fits.  run_scenario splits one rng stream per check in this order, so a new
# order changes the reports.  The benchmark tracer wraps the values in place.
_CHECKS: dict[str, Callable] = {
    "canonical": _check_canonical,
    "christoffel": _check_christoffel,
    "fiber_volume": _check_fiber_volume,
    "ma": _check_ma,
    "closedness": _check_closedness,
    "flatness": _check_flatness,
    "weierstrass": _check_weierstrass,
    "eh_gluing": _check_eh,
    "error_decay": partial(_check_decay, "error_decay"),
    "curvature_decay": partial(_check_decay, "curvature_decay"),
    "volume_growth": _check_volume_growth,
    "tangent_cone": _check_tangent_cone,
    "sob": _check_sob,
}

def _scaled(result: CheckResult, scale: float) -> CheckResult:
    """result with each `within` and `below` tolerance, an upper bound on an
    error, times scale; the checks state their bounds at scale 1."""
    for key, c in result.conditions.items():
        if c.relation in ("within", "below"):
            result.conditions[key] = replace(c, tolerance=c.tolerance * scale)
    return result


def emit_decay_csv(path: str | Path, rows: list[tuple[float, str, float]]) -> None:
    """CSV with header radius,observable,value; UTF-8, LF, full double precision."""
    lines = ["radius,observable,value"]
    for r, name, val in rows:
        lines.append(f"{r:.17g},{name},{val:.17g}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def run_scenario(cfg: dict | str | Path, out_dir: str | Path | None = None,
                 seed: Optional[int] = None, tolerance_scale: float = 1.0,
                 log=None) -> Report:
    """Execute a scenario's checks in the order of `_CHECKS` and write its
    artifacts.  The tolerance of every `within` and `below` condition is
    multiplied by tolerance_scale here, and no other bound is.

    Per-check status lines go to `log`; None means sys.stderr as it is at
    the call, so a redirect around the call captures them.  Malformed
    configuration raises ScenarioError, also when a check finds it (a
    radius window that is empty once its defaults are resolved), as does a
    tolerance scale that is not finite and positive.
    """
    log = sys.stderr if log is None else log
    if not (math.isfinite(tolerance_scale) and tolerance_scale > 0):
        raise ScenarioError(f"tolerance scale must be finite and positive, "
                            f"got {tolerance_scale!r}")
    if not isinstance(cfg, dict):
        cfg = load_scenario(cfg)
    else:
        cfg = validate_scenario(dict(cfg))
    if seed is not None:
        cfg["seed"] = int(seed)
    ctx = build_context(cfg)
    master = SplitMix64(int(cfg.get("seed", 0)))
    report = Report(scenario=cfg, tolerance_scale=tolerance_scale)
    for name in sorted(cfg["checks"], key=list(_CHECKS).index):
        # per-check stream, split in execution order: adding or removing a
        # check changes the streams of the checks after it
        rng = master.split()
        t0 = time.perf_counter()
        try:
            result = _scaled(_CHECKS[name](ctx, rng), tolerance_scale)
        except ScenarioError:
            raise                       # malformed configuration, not a failed check
        except SemiflatError as exc:
            result = CheckResult(name=name, conditions={}, info={},
                                 note=f"{type(exc).__name__}: {exc}")
        result.wall_time = time.perf_counter() - t0
        report.results.append(result)
        print(f"[{cfg['name']}] {name}: {'pass' if result.passed else 'FAIL'}"
              f" ({result.wall_time:.2f}s)", file=log)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{cfg['name']}_report.json").write_text(report.to_json() + "\n",
                                                        encoding="utf-8")
        for r in report.results:
            if r.csv_rows:
                emit_decay_csv(out / f"{cfg['name']}_{r.name}.csv", r.csv_rows)
    return report
