"""Charts, decay fits, volume growth, SOB clauses, tangent cones."""

import cmath
import contextlib
import dataclasses
import io
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflat import asymptotics
from semiflat.asymptotics import (AsymptoticChart, BaseProfile, DecayFit, _batch_norms,
                                  _fit_radii, _power_profile, base_profile,
                                  cone_limit_coefficient, curvature_decay_fit,
                                  error_decay_fit,
                                  ray_limit_coefficient, sob_check, tangent_cone,
                                  to_chart, volume_growth_fit)
from semiflat.cli import bundled_path
from semiflat.diffgeo import ChernStencil, FDScheme, chern_curvature_norm
from semiflat.errors import DegenerateLattice, FitRejected, NoConvergence, Unsupported
from semiflat.kodaira import (FiberKind, FiberType, classify_asymptotics, fiber_product,
                              finite_kinds, isotrivial_case13)
from semiflat.metric import ComplexPairs, VolumeFormSpec, base_terms, metric_at
from semiflat.rng import SplitMix64
from semiflat.scenario import run_scenario

FK = FiberKind
VF1 = VolumeFormSpec(k0=1.0)


def iistar_iiistar():
    return fiber_product(FiberType(FK.IIstar), FiberType(FK.IIIstar))


def test_alg_chart_anchor_and_sector():
    chart = to_chart(iistar_iiistar(), 1.0, VF1)
    assert abs(chart.p - 12 / 7) < 1e-14
    assert abs(chart.alpha0 - 24 * 3 ** 0.25 / 7) < 1e-12
    assert abs(chart.sector[1] - 7 * math.pi / 6) < 1e-14


def test_alh_chart_rate_and_strip():
    pm = fiber_product(FiberType(FK.III), FiberType(FK.IIIstar))
    eps = 0.8
    vf = VolumeFormSpec(k0=1.3)
    chart = to_chart(pm, eps, vf)
    assert abs(chart.rate - eps / (2 * math.sqrt(2) * 1.3)) < 1e-14
    assert abs(chart.sector[1] - 4 * math.sqrt(2) * math.pi * 1.3 / eps) < 1e-12


def test_star_radial_chart():
    # a star model has no flat chart; its profile carries the radial
    # normalization r ~ (C_r/2) L^2 of Istar x Istar
    ss = fiber_product(FiberType(FK.Istar, b=1), FiberType(FK.Istar, b=2))
    with pytest.raises(Unsupported):
        to_chart(ss, 0.9, VolumeFormSpec(k0=1.2))
    profile = base_profile(ss, 0.9, VolumeFormSpec(k0=1.2))
    cr = math.sqrt(2 * 1 * 2) * 1.2 / (math.pi * 0.9)
    for L in (50.0, 400.0):
        assert abs(profile.dist(L) / (0.5 * cr * L * L) - 1.0) < 1e-3


def test_chart_roundtrip():
    # the base point of the pullback maps back to alpha through the chart
    # formula, on the branch of log z in (-2 pi, 0]
    for pm in (iistar_iiistar(),
               fiber_product(FiberType(FK.III), FiberType(FK.IIIstar))):
        chart = to_chart(pm, 1.0, VF1)
        rng = SplitMix64(9)
        for _ in range(6):
            if chart.kind == "power":
                alpha = rng.uniform(50, 5000) * cmath.exp(1j * rng.uniform(
                    0.05, chart.sector[1] - 0.05))
            else:
                alpha = rng.uniform(3, 30) / chart.rate + 1j * rng.uniform(
                    0.05, chart.sector[1] / 4)
            pt = chart._alpha_terms(alpha)[0]
            lg = cmath.log(pt.z)
            if lg.imag > 0:
                lg -= 2j * math.pi
            back = (chart.alpha0 * cmath.exp(-lg / chart.p) if chart.kind == "power"
                    else -lg / chart.rate)
            assert abs(back - alpha) < 1e-10 * abs(alpha)


def python_complex_pulled_h(chart, alpha: complex, b1: complex, b2: complex) -> np.ndarray:
    """Oracle: the pulled-back matrix at one point, with its per-point part
    written on Python complex (the formulas of metric.hermitian_entries and
    AsymptoticChart._pulled before they moved to float pairs).  The terms of
    alpha alone come from the same _alpha_terms and base_terms."""
    pt, c1, c2, dz, dc1, dc2 = chart._alpha_terms(alpha)
    (tau, dt), imp, F, _, B = base_terms(chart.model, chart.eps, chart.vf, pt)
    h = [0] * 9
    fiber = []
    for j, v in enumerate((c1 * b1, c2 * b2)):
        gamma = ((tau[2 * j].conjugate() * v).imag * dt[2 * j + 1]
                 - (tau[2 * j + 1].conjugate() * v).imag * dt[2 * j]) / imp[j]
        fiber.append(F[j] * abs(gamma) ** 2)
        h[j + 1] = -F[j] * gamma
        h[(j + 1) * 3] = -F[j] * gamma.conjugate()
        h[(j + 1) * 4] = F[j]
    h[0] = B + sum(fiber)
    J = np.array([dz, 0, 0, dc1 * b1, c1, 0, dc2 * b2, 0, c2], dtype=complex).reshape(3, 3)
    return J.T @ np.array(h, dtype=complex).reshape(3, 3) @ J.conj()


def _distinct_rows(points: np.ndarray) -> np.ndarray:
    """The rows of `points` with distinct bytes (0.0 is not -0.0), in order
    of first appearance."""
    rows = {}
    for row in points:
        rows.setdefault(row.tobytes(), row)
    return np.array(list(rows.values()))


@pytest.mark.parametrize("left, right, radius", [(FK.IIstar, FK.IIIstar, 3e3),
                                                 (FK.III, FK.IIIstar, 12.0)],
                         ids=["alg", "alh"])
def test_batched_pulled_h_is_a_stack_of_scalar_calls(left, right, radius):
    # the points of one radius of the curvature fit (both stencils, each
    # point once), against the Python complex formula point by point, bit
    # for bit
    chart = to_chart(fiber_product(FiberType(left), FiberType(right)), 0.9,
                     VolumeFormSpec(k0=1.2))
    (alpha,) = _fit_radii(chart, [radius])
    x = np.array([alpha.real, alpha.imag, 0.3, -0.0, 0.7, 0.45])
    scales = (abs(alpha), 4.0, 4.0)
    points = _distinct_rows(np.concatenate(
        [ChernStencil(x, FDScheme(step=s), scales).points for s in (2e-3, 1e-3)]))
    z = points.view(complex)
    batch = chart.pulled_h(z[:, 0], (z[:, 1], z[:, 2]))
    oracle = np.array([python_complex_pulled_h(chart, *p) for p in z.tolist()])
    assert batch.shape == (217, 3, 3)
    assert np.array_equal(batch.view(np.uint64), oracle.view(np.uint64))
    one = chart.pulled_h(alpha, (complex(0.3, -0.0), 0.7 + 0.45j))
    assert np.array_equal(one.view(np.uint64), oracle[0].view(np.uint64))


def _recorded_norms(monkeypatch) -> list:
    """Patch the curvature fit's Chern norm to record, for each call, its
    stencil and the points of each call to its field."""
    norms = []
    chern_norm = asymptotics.chern_curvature_norm

    def recorded(field, stencil):
        calls = []

        def counted(points):
            calls.append(points)
            return field(points)

        norms.append((stencil, calls))
        return chern_norm(counted, stencil)

    monkeypatch.setattr(asymptotics, "chern_curvature_norm", recorded)
    return norms


def test_each_chern_norm_reads_its_own_stencil_slice(monkeypatch):
    # the norms of a batch read their stencils' slices of one pulled_h
    # call: each norm gets the stencil of its radius and step, built once,
    # calls its field once on that stencil's points, and reads the matrices
    # that pulled_h gives those points alone, bit for bit
    chart = to_chart(iistar_iiistar(), 0.9, VolumeFormSpec(k0=1.2))
    at = [(np.array([alpha.real, alpha.imag, 0.3, -0.0, 0.7, 0.45]), (abs(alpha), 4.0, 4.0))
          for alpha in _fit_radii(chart, [3e3, 1e4])]
    steps = (FDScheme(step=2e-3), FDScheme(step=1e-3))
    norms = _recorded_norms(monkeypatch)
    values = _batch_norms(chart, at, steps)
    assert len(norms) == 4
    expected = [ChernStencil(x, scheme, scales) for x, scales in at for scheme in steps]
    for (stencil, calls), other, value in zip(norms, expected, sum(values, [])):
        assert stencil.points.tobytes() == other.points.tobytes()
        (called,) = calls
        assert called is stencil.points
        z = stencil.points.view(complex)
        alone = chart.pulled_h(z[:, 0], (z[:, 1], z[:, 2]))
        assert value == stencil.norm(alone)


def test_batched_pulled_h_raises_outside_the_validity_disk():
    # periods that lose their orientation outside |s| < 1/2 (on the cover
    # of the right factor): a batch with one point there raises.  pulled_h
    # runs the closures on ComplexPairs, so the swap is an array select
    pm = iistar_iiistar()
    tau = pm.right_model.tau

    def shrunk(s):
        t1, t2 = tau(s)
        inside = abs(s) < 0.5

        def select(a, b):
            return ComplexPairs(np.where(inside, a.real, b.real), np.where(inside, a.imag, b.imag))

        return select(t1, t2), select(t2, t1)

    bad = dataclasses.replace(pm, right_model=dataclasses.replace(pm.right_model, tau=shrunk))
    chart = dataclasses.replace(to_chart(pm, 1.0, VF1), model=bad)
    mid = 0.5 * sum(chart.sector)
    inside = 1e4 * chart.alpha0 * cmath.exp(1j * mid)
    outside = 2.0 * chart.alpha0 * cmath.exp(1j * mid)
    betas = (0.3 + 0.2j, 0.25 + 0.35j)
    chart.pulled_h(inside, betas)
    with pytest.raises(DegenerateLattice):
        chart.pulled_h(outside, betas)
    with pytest.raises(DegenerateLattice):
        chart.pulled_h(np.array([inside, outside, inside]),
                       (np.full(3, betas[0]), np.full(3, betas[1])))


@pytest.mark.parametrize("left, right", [(FK.IIstar, FK.IIIstar), (FK.III, FK.IIIstar)],
                         ids=["power", "exponential"])
def test_fit_radii_are_python_complex(left, right):
    # the radii of a window are numpy floats; the chart points built from
    # them must be Python complex, so that both fits place their points, and
    # the curvature fit scales its stencils, with Python's arithmetic
    chart = to_chart(fiber_product(FiberType(left), FiberType(right)), 1.0, VF1)
    alphas = _fit_radii(chart, np.geomspace(1e2, 1e5, 13))
    assert {type(a) for a in alphas} == {complex}


def test_error_decay_iistar_iiistar():
    fit, rows = error_decay_fit(to_chart(iistar_iiistar(), 1.0, VF1),
                                np.geomspace(1e2, 1e5, 13), SplitMix64(0xDECAF))
    assert fit.kind == "power"
    assert abs(fit.exponent_or_rate + 12 / 7) < 0.05
    assert fit.ss_res_over_ss_tot < 0.01
    # exponent stability: upper half-window moves the fit by < half of 0.05
    fit_hi, _ = error_decay_fit(to_chart(iistar_iiistar(), 1.0, VF1),
                                np.geomspace(10 ** 3.5, 1e5, 8), SplitMix64(0xDECAF))
    assert abs(fit_hi.exponent_or_rate - fit.exponent_or_rate) < 0.025


def test_error_decay_alh_rate():
    eps, k0 = 1.0, 1.0
    pm = fiber_product(FiberType(FK.III), FiberType(FK.IIIstar))
    fit, _ = error_decay_fit(to_chart(pm, eps, VolumeFormSpec(k0=k0)),
                             np.linspace(5, 25, 11), SplitMix64(0xDECAF))
    assert fit.kind == "exponential"
    rate = eps / (2 * math.sqrt(2) * k0)
    assert abs(fit.exponent_or_rate - rate) < 0.05 * rate


@pytest.mark.parametrize("left,right,i1i2", [
    (FK.II, FK.IIstar, 3 / 4), (FK.IV, FK.IVstar, 3 / 4)])
def test_error_decay_other_alh_pairs(left, right, i1i2):
    # rate = q_min * base rate, q = 2m/3 per hexagonal factor
    pm = fiber_product(FiberType(left), FiberType(right))
    fit, _ = error_decay_fit(to_chart(pm, 1.0, VF1), np.linspace(6, 26, 11), SplitMix64(0xDECAF))
    base_rate = 1.0 / math.sqrt(8 * i1i2)
    m_left = pm.left_model.fiber.m_mult
    m_right = pm.right_model.fiber.m_mult
    qmin = min(2 * m_left / 3, 2 * m_right / 3)
    expect = qmin * base_rate
    assert abs(fit.exponent_or_rate - expect) < 0.05 * expect


def test_error_decay_case13_flat():
    c13 = isotrivial_case13()
    vf = VolumeFormSpec(k0=c13.default_k0)
    fit, rows = error_decay_fit(to_chart(c13, 0.7, vf), np.geomspace(1e2, 1e5, 8),
                                SplitMix64(0xDECAF))
    assert fit.kind == "flat"
    assert max(d for _, d in rows) < 1e-12


def test_curvature_decay_alg():
    fit, _ = curvature_decay_fit(to_chart(iistar_iiistar(), 1.0, VF1),
                                 np.geomspace(1e2, 1e5, 13), SplitMix64(0xCAFE))
    # leading channel: one alpha-derivative of the Wronskian cross term,
    # exponent -(p q/2 + 2) with p = 12/7, q = 1
    assert abs(fit.exponent_or_rate + 20 / 7) < 0.1


def _recorded_pulled_h(monkeypatch) -> list:
    """Patch pulled_h to record the alphas of each call."""
    alphas = []
    pulled_h = AsymptoticChart.pulled_h

    def recorded(self, alpha, betas):
        alphas.append(np.atleast_1d(alpha))
        return pulled_h(self, alpha, betas)

    monkeypatch.setattr(AsymptoticChart, "pulled_h", recorded)
    return alphas


def test_curvature_decay_evaluates_290_rows_over_37_alphas_per_radius(monkeypatch):
    # both stencils of a radius, 145 points each, repeats kept; pulled_h
    # computes the terms of alpha alone once for each of the 37 distinct
    # alphas of a radius: x and its shifts along Re and Im alpha
    alphas = _recorded_pulled_h(monkeypatch)
    radii = np.geomspace(1e2, 1e5, 13)
    curvature_decay_fit(to_chart(iistar_iiistar(), 1.0, VF1), radii, SplitMix64(0xCAFE))
    assert sum(len(a) for a in alphas) == 290 * len(radii)
    assert sum(len(np.unique(a)) for a in alphas) == 37 * len(radii)


def _bundled_decay(name: str, seed: int) -> dict:
    cfg = json.loads(bundled_path(f"{name}.json").read_text())
    if "curvature_decay" not in cfg["checks"]:
        cfg["checks"] = cfg["checks"] + ["curvature_decay"]
    report = run_scenario(cfg, seed=seed, log=io.StringIO())
    (result,) = [r for r in report.results if r.name == "curvature_decay"]
    return result.measured


def test_decay_check_builds_its_chart_once(monkeypatch):
    # the checks of a scenario read the chart of its context, so a scenario
    # builds one, however many of its checks read it
    built = []

    def counted(*args):
        built.append(args)
        return to_chart(*args)

    monkeypatch.setattr(asymptotics, "to_chart", counted)
    for name, checks in (("pair_iistar_x_iiistar", ["error_decay", "curvature_decay"]),
                         ("isotrivial_case13", ["flatness", "error_decay"])):
        cfg = json.loads(bundled_path(f"{name}.json").read_text())
        cfg["checks"] = checks
        built.clear()
        report = run_scenario(cfg, seed=1, log=io.StringIO())
        assert [r.passed for r in report.results] == [True, True]
        assert len(built) == 1, name


def test_star_checks_share_one_profile(monkeypatch):
    # volume_growth and sob read the profile of the scenario's context, each
    # of its two distance tables is integrated once, and each table solves
    # a radius once: the 13 radii both checks ask for and the r_max of
    # quad_rel_err on the full-width table, r_max alone on the half-width one
    built, widths, solves = [], [], []
    init, solve = asymptotics._PanelTable.__init__, asymptotics._PanelTable._solve

    def counted(*args):
        built.append(args)
        return base_profile(*args)

    def table(self, profile, width):
        widths.append(width)
        init(self, profile, width)

    def counted_solve(self, r):
        solves.append(self.h)
        return solve(self, r)

    monkeypatch.setattr(asymptotics, "base_profile", counted)
    monkeypatch.setattr(asymptotics._PanelTable, "__init__", table)
    monkeypatch.setattr(asymptotics._PanelTable, "_solve", counted_solve)
    cfg = json.loads(bundled_path("pair_istar_x_ivstar.json").read_text())
    cfg["checks"] = ["volume_growth", "sob"]
    report = run_scenario(cfg, seed=1, log=io.StringIO())
    assert [r.passed for r in report.results] == [True, True]
    assert len(built) == 1
    assert sorted(widths) == [0.25, 0.5]
    assert {h: solves.count(h) for h in widths} == {0.5: 13, 0.25: 1}


def test_star_radial_measurements_keep_their_bits():
    # volume_growth and sob read one Newton solve per radius and table; the
    # values of the bundled scenario at seed 1 are pinned to the last bit
    report = run_scenario(json.loads(bundled_path("pair_istar_x_iiistar.json").read_text()),
                          seed=1, log=io.StringIO())
    measured = {r.name: r.measured for r in report.results}
    growth, sob = measured["volume_growth"], measured["sob"]
    assert growth["exponent"] == 1.9605370472343349
    assert growth["quad_rel_err"] == 0.0
    assert {k: sob[k] for k in ("clause1_sup", "clause1_inf", "clause1_stable",
                                "clause2_sup", "clause2_inf", "clause2_stable",
                                "quad_rel_err")} == {
        "clause1_sup": 1.2879066850922716, "clause1_inf": 0.8311526108127104,
        "clause1_stable": 1.5495429700123806, "clause2_sup": 0.0024968883595852696,
        "clause2_inf": 0.0012934152131350827, "clause2_stable": 1.930461567351688,
        "quad_rel_err": 0.0}


def test_flatness_curvature_norm_keeps_its_bits():
    # flatness reads its one norm through _batch_norms; the value of the
    # bundled scenario at seed 1 is pinned to the last bit
    report = run_scenario(json.loads(bundled_path("isotrivial_case13.json").read_text()),
                          seed=1, log=io.StringIO())
    (flatness,) = [r for r in report.results if r.name == "flatness"]
    assert flatness.measured["curvature_norm"] == 7.527988733765852e-10


@pytest.mark.parametrize("left, right", [(("I0star", None), ("IVstar", 4)),
                                         (("IIIstar", 5), ("IIIstar", 5))],
                         ids=["i0star_x_ivstar4", "iiistar5_x_iiistar5"])
def test_decay_under_the_floor_fails_where_the_model_decays(left, right):
    # at seed 1 every deviation and every norm of these pairs sits under its
    # flat floor on the default window, but q is finite: the law's condition
    # is stated unmeasured and fails, with the window and the largest value
    cfg = {"name": "flat_window", "model_kind": "pair", "left": left[0], "right": right[0],
           "checks": ["error_decay", "curvature_decay"]}
    for side, (_, m) in (("left", left), ("right", right)):
        if m is not None:
            cfg[f"m_{side}"] = m
    report = run_scenario(cfg, seed=1, log=io.StringIO())
    for result, key in zip(report.results, ("max_deviation", "max_norm")):
        assert not result.passed and result.note == ""
        (cond,) = result.conditions.values()
        assert math.isnan(cond.measured) and cond.expected < 0
        assert cond.provenance.startswith("DERIVED: ")
        assert result.info["kind"] == "flat" and result.info["window"] == (1e2, 1e5)
        assert result.info[key] < {"max_deviation": 1e-12, "max_norm": 1e-8}[key]


def test_decay_of_the_isotrivial_model_passes_flat():
    cfg = json.loads(bundled_path("isotrivial_case13.json").read_text())
    cfg["checks"] = ["error_decay"]
    (result,) = run_scenario(cfg, seed=1, log=io.StringIO()).results
    assert result.passed and result.info == {"kind": "flat"}
    assert result.conditions["max_deviation"].provenance == "PAPER: exact flatness"


# the decay exponents the paper displays: for IIstar[m=2] x IIIstar[m=1]
# only (docs/decisions.md, entry 1)
PUBLISHED_DECAY = {("IIstar", 2, "IIIstar", 1): {"error_decay": -12 / 7,
                                                 "curvature_decay": -31 / 12}}


def _fiber_variants(kind: FiberKind) -> list[FiberType]:
    """The fiber types of `kind` with j-multiplicity up to 5 (I0star has none)."""
    if kind is FK.I0star:
        return [FiberType(kind)]
    out = []
    for m in range(1, 6):
        with contextlib.suppress(ValueError):
            out.append(FiberType(kind, m_mult=m))
    return out


def complete_alg_pairs() -> list[tuple[FiberType, FiberType]]:
    kinds = finite_kinds()
    pairs = []
    for i, a in enumerate(kinds):
        for b in kinds[i:]:
            for left in _fiber_variants(a):
                for right in _fiber_variants(b):
                    with contextlib.suppress(Unsupported):
                        if classify_asymptotics(fiber_product(left, right)).kind == "ALG":
                            pairs.append((left, right))
    return pairs


def test_decay_provenance_names_the_paper_only_where_it_displays_the_value(monkeypatch):
    # every fit is stubbed to one power fit, so each complete ALG pair states
    # its exponent condition, also where the default window rejects the fit.
    # PAPER is read exactly where the published exponent equals the derived
    # one; a differing published exponent is named in the note and provenance
    fit = DecayFit(kind="power", exponent_or_rate=-1.0, window=(1e2, 1e5),
                   ss_res_over_ss_tot=0.0)
    for name in ("error_decay_fit", "curvature_decay_fit"):
        monkeypatch.setattr(asymptotics, name, lambda *args: (fit, [(1e2, 1.0)]))
    seen = {"PAPER": 0, "differing": 0}
    wrong = []
    pairs = complete_alg_pairs()
    assert len(pairs) > 30
    for left, right in pairs:
        cfg = {"name": "alg", "model_kind": "pair", "left": left.kind.value,
               "right": right.kind.value, "checks": ["error_decay", "curvature_decay"]}
        cfg.update({k: t.m_mult for k, t in (("m_left", left), ("m_right", right)) if t.m_mult})
        published = PUBLISHED_DECAY.get((left.kind.value, left.m_mult, right.kind.value,
                                         right.m_mult), {})
        for r in run_scenario(cfg, seed=1, log=io.StringIO()).results:
            (cond,) = r.conditions.values()
            paper = r.name in published and abs(published[r.name] - cond.expected) < 1e-12
            differs = r.name in published and not paper
            if (cond.provenance.startswith("PAPER: ") != paper
                    or ("published" in cond.provenance) != differs
                    or ("published exponent" in r.note) != differs):
                wrong.append(f"{left.label()} x {right.label()} {r.name}: "
                             f"{cond.provenance} | {r.note}")
            seen["PAPER"] += paper
            seen["differing"] += differs
    assert wrong == []
    assert seen == {"PAPER": 1, "differing": 1}


def test_curvature_decay_reproduces_bit_for_bit():
    # The fits read Chern norms whose second differences sit near the
    # rounding floor, so they reproduce only bit for bit: one ulp more in
    # h[0, 0] of the metric inside pulled_h moved 31 of the 80 ALG/ALH
    # benchmark inputs by more than 1e-5 (the worst by 0.084) and flipped
    # one status (see docs/decisions.md).  The rule binds everything up to
    # the curvature tensor R, whose entries are cancelling sums of those
    # differences: a faster metric stack must keep these values.  The
    # frame product after R is a fixed linear map of R, outside the rule;
    # its Kronecker form moved the last rate here by one ulp.
    assert _bundled_decay("pair_i0star_x_iistar", 1)["exponent"] == -4.001551262062714
    assert _bundled_decay("pair_ii_x_iistar", 1)["rate"] == 0.1409752304994331
    assert _bundled_decay("pair_iii_x_iiistar", 1)["rate"] == 0.17732160719020987
    assert _bundled_decay("pair_iistar_x_iiistar", 1)["exponent"] == -2.8871518023940443
    assert _bundled_decay("pair_iv_x_ivstar", 1)["rate"] == 0.1409732829287297


CHART_PAIRS = ("pair_i0star_x_iistar", "pair_ii_x_iistar", "pair_iii_x_iiistar",
               "pair_iistar_x_iiistar", "pair_iv_x_ivstar")


def _entry(x, i: int):
    """Entry i of a ComplexPairs or float array, as a Python number."""
    if isinstance(x, ComplexPairs):
        return complex(float(x.real[i]), float(x.imag[i]))
    return float(x[i])


def _flat_terms(pt, scales, base) -> list:
    """pt.s, the chart scales and every term of base_terms, in one list."""
    (tau, dt), imp, F, g_eff, B = base
    return [pt.s, *scales, *tau, *dt, *imp, *F, g_eff, B]


@pytest.mark.parametrize("name", CHART_PAIRS)
def test_fit_alpha_terms_are_the_scalar_alpha_terms(monkeypatch, name):
    # pulled_h computes the terms of alpha alone (_alpha_terms and
    # base_terms) on ComplexPairs, for every distinct alpha of its batch at
    # once; each entry must have the bits of the scalar call at that alpha
    batches = []
    alpha_terms = AsymptoticChart._alpha_terms

    def recorded(self, alpha):
        out = alpha_terms(self, alpha)
        if isinstance(alpha, ComplexPairs):
            pt, *scales = out
            batches.append((self, alpha, pt, scales,
                            base_terms(self.model, self.eps, self.vf, pt)))
        return out

    monkeypatch.setattr(AsymptoticChart, "_alpha_terms", recorded)
    cfg = json.loads(bundled_path(f"{name}.json").read_text())
    cfg["checks"] = ["curvature_decay"]
    run_scenario(cfg, seed=1, log=io.StringIO())
    # 37 distinct alphas per radius: x and its shifts along Re and Im alpha
    assert sum(len(alpha.real) for _, alpha, *_ in batches) == 37 * cfg["n_radii"]
    for chart, alpha, pt, scales, base in batches:
        batch = _flat_terms(pt, scales, base)
        for i in range(len(alpha.real)):
            pt1, *scales1 = chart._alpha_terms(_entry(alpha, i))
            point = _flat_terms(pt1, scales1, base_terms(chart.model, chart.eps, chart.vf, pt1))
            got = np.array([_entry(x, i) for x in batch], dtype=complex)
            assert np.array_equal(got.view(np.uint64), np.array(point, dtype=complex).view(np.uint64))


@pytest.mark.parametrize("n_radii", [13, 40])
def test_curvature_fit_makes_one_pulled_h_call_per_batch(monkeypatch, n_radii):
    # one pulled_h call per batch of at most 7 radii, as few batches as
    # that allows; one norm per radius and step, each calling its field once
    alphas = _recorded_pulled_h(monkeypatch)
    norms = _recorded_norms(monkeypatch)
    curvature_decay_fit(to_chart(iistar_iiistar(), 1.0, VF1),
                        np.geomspace(1e2, 1e5, n_radii), SplitMix64(0xCAFE))
    assert len(alphas) == -(-n_radii // 7)
    assert all(len(a) <= 7 * 290 for a in alphas)
    assert len(norms) == 2 * n_radii
    assert all(len(calls) == 1 for _, calls in norms)


def test_curvature_decay_case13_flat():
    c13 = isotrivial_case13()
    vf = VolumeFormSpec(k0=c13.default_k0)
    fit, rows = curvature_decay_fit(to_chart(c13, 0.7, vf), np.geomspace(1e2, 1e4, 5),
                                    SplitMix64(0xCAFE))
    assert fit.kind == "flat"
    assert max(c for _, c in rows) < 1e-8


def euclidean_profile() -> BaseProfile:
    """Flat-plane sanity profile: g = |dz|^2 in direct radius with eps = 1,
    so the volume of a ball of radius R is pi R^2."""
    return _power_profile(0.0, 1.0, 1.0, 0, 1.0, 1)


def test_volume_growth_exponents():
    ss = fiber_product(FiberType(FK.Istar, b=1), FiberType(FK.Istar, b=2))
    prof = base_profile(ss, 0.9, VolumeFormSpec(k0=1.2))
    fit, _ = volume_growth_fit(prof, np.geomspace(1e2, 1e6, 13))
    assert abs(fit.exponent_or_rate - 1.5) < 0.05

    s4 = fiber_product(FiberType(FK.Istar, b=2), FiberType(FK.IVstar))
    prof4 = base_profile(s4, 1.1, VolumeFormSpec(k0=0.7))
    fit4, _ = volume_growth_fit(prof4, np.geomspace(1e2, 1e6, 13))
    assert abs(fit4.exponent_or_rate - 2.0) < 0.05

    fe, _ = volume_growth_fit(euclidean_profile(), np.geomspace(1e2, 1e6, 13))
    assert abs(fe.exponent_or_rate - 2.0) < 1e-6


def test_sob_clauses():
    ss = fiber_product(FiberType(FK.Istar, b=1), FiberType(FK.Istar, b=2))
    prof = base_profile(ss, 0.9, VolumeFormSpec(k0=1.2))
    rep = sob_check(prof, 1.5, "ray", np.geomspace(1e2, 1e6, 9))
    assert rep["clause1_inf"] > 0 and rep["clause2_inf"] > 0
    assert rep["clause1_stable"] < 1.5 and rep["clause2_stable"] < 1.5

    s4 = fiber_product(FiberType(FK.Istar, b=1), FiberType(FK.IVstar))
    prof4 = base_profile(s4, 1.0, VF1)
    rep4 = sob_check(prof4, 2.0, "cone", np.geomspace(1e2, 1e6, 9))
    assert rep4["clause1_inf"] > 0 and rep4["clause2_inf"] > 0

    # euclidean sanity: the clause-1 constant is pi itself
    repe = sob_check(euclidean_profile(), 2.0, "cone", np.geomspace(1e2, 1e6, 9))
    assert abs(repe["clause1_sup"] - math.pi) < 1e-6
    assert abs(repe["clause1_inf"] - math.pi) < 1e-6


STAR_RIGHT = {"istar": FiberType(FK.Istar, b=1), "iistar": FiberType(FK.IIstar),
              "iiistar": FiberType(FK.IIIstar), "ivstar": FiberType(FK.IVstar)}


def star_profile(right: str, eps: float, k0: float) -> BaseProfile:
    pm = fiber_product(FiberType(FK.Istar, b=2), STAR_RIGHT[right])
    return base_profile(pm, eps, VolumeFormSpec(k0=k0))


@pytest.mark.parametrize("eps,k0", [(0.5, 1.5), (2.0, -0.7)])
@pytest.mark.parametrize("right", sorted(STAR_RIGHT))
def test_radial_profile_against_mpmath(right, eps, k0):
    # closed forms (every volume; Istar x Istar distance) and the panel
    # table (Istar x E-star distance) against adaptive mpmath quadrature of
    # the same integrands
    prof = star_profile(right, eps, k0)
    closed = prof.power_law is not None
    assert closed == (right == "istar")
    dist_tol = 1e-12 if closed else 1e-10
    L_far = prof.invert_dist(1e6)
    for L in (prof.L0 + 0.3, prof.L0 + 2.0, 0.5 * (prof.L0 + L_far), L_far):
        knots = mpmath.linspace(prof.L0, L, 17)
        for got, fn, scale, tol in ((prof.dist(L), prof.sqrt_g_radial, 1.0, dist_tol),
                                    (prof.volume(L), prof.area_density,
                                     prof.eps * 2 * math.pi, 1e-12)):
            want = scale * float(mpmath.quad(lambda t: float(fn(float(t))), knots))
            assert abs(got / want - 1.0) < tol, (L, got, want)
    err = prof.quad_rel_err(1e6)
    assert err == 0.0 if closed else 0.0 <= err < 1e-12


@pytest.mark.parametrize("right", sorted(STAR_RIGHT))
def test_invert_dist_roundtrip(right):
    prof = star_profile(right, 1.0, 1.0)
    for L in (prof.L0 + 0.01, prof.L0 + 1.0, prof.L0 + 7.25, 13.7, 40.0, 300.0):
        assert abs(prof.invert_dist(prof.dist(L)) / L - 1.0) < 1e-12


def test_bounded_distance_raises():
    # dist tends to 1: no radius over 1 is reached, however far the table grows
    prof = BaseProfile(L0=0.0, sqrt_g_radial=lambda L: np.exp(-L),
                       area_density=lambda L: np.exp(-L), area=lambda L: -math.exp(-L),
                       eps=1.0)
    assert abs(prof.dist(40.0) - 1.0) < 1e-12
    assert abs(prof.invert_dist(0.5) - math.log(2.0)) < 1e-12
    # a failed solve is not kept: asked again, the radius fails again
    for _ in range(2):
        with pytest.raises(NoConvergence):
            prof.invert_dist(2.0)


# the eps and k0 grid of the star_radial benchmark workload
STAR_EPSILONS = (0.5, 0.75, 1.0, 1.5, 2.0)
STAR_K0 = (-1.5, -1.0, -0.7, 0.7, 1.0, 1.5)
# few enough radii that asks repeat, so that answers come from a table's
# kept solves: the star checks' 1e2 and 1e6 ends, one radius between them
# and one off their grid
STAR_RADII = (1e2, 2154.4346900318824, 31415.9, 1e6)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(right=st.sampled_from(["iistar", "iiistar", "ivstar"]),
       eps=st.sampled_from(STAR_EPSILONS), k0=st.sampled_from(STAR_K0),
       asks=st.lists(st.tuples(st.sampled_from(["invert_dist", "quad_rel_err"]),
                               st.one_of(st.sampled_from(STAR_RADII),
                                         st.floats(1e2, 1e6))), min_size=1, max_size=5))
def test_profile_answers_as_a_fresh_one(right, eps, k0, asks):
    # the two distance tables of a profile grow with what is asked of it,
    # and each keeps the radii it has solved; every answer, in any order,
    # after any others and asked again or not, has the bits of a fresh
    # profile asked for that radius alone
    shared = star_profile(right, eps, k0)
    for method, r in asks:
        fresh = star_profile(right, eps, k0)
        assert getattr(shared, method)(r).hex() == getattr(fresh, method)(r).hex(), (method, r)


def test_replaced_profile_integrates_once():
    # a copy made by dataclasses.replace builds its own table; each radius
    # costs a few vectorized integrand calls and gives the original's values
    calls = [0]

    def counted(fn):
        def wrapper(L):
            calls[0] += 1
            return fn(L)
        return wrapper

    prof = star_profile("ivstar", 1.1, 0.7)
    prof.invert_dist(1e3)
    copy = dataclasses.replace(prof, sqrt_g_radial=counted(prof.sqrt_g_radial),
                               area_density=counted(prof.area_density))
    radii = np.geomspace(1e2, 1e6, 13)
    fit, rows = volume_growth_fit(copy, radii)
    assert 0 < calls[0] < 100 * len(radii)
    assert (fit, rows) == volume_growth_fit(prof, radii)


def test_tangent_cone_alg_and_alh():
    # the classification names the cone or ray; tangent_cone measures its coefficient
    pm = iistar_iiistar()
    cone = tangent_cone(pm, 1.0, VF1)
    cls = classify_asymptotics(pm)
    assert cls.cone == "cone" and cls.angle_over_pi == Fraction(7, 6)
    assert abs(cone.limit_coefficient - 0.5) < 0.005
    alh = fiber_product(FiberType(FK.IV), FiberType(FK.IVstar))
    ray = tangent_cone(alh, 1.0, VF1)
    cls = classify_asymptotics(alh)
    assert cls.cone == "ray" and cls.angle_over_pi is None
    assert abs(ray.limit_coefficient - 0.5) < 0.005


def test_tangent_cone_ray_coefficient():
    eps, k0 = 0.9, 1.2
    ss = fiber_product(FiberType(FK.Istar, b=1), FiberType(FK.Istar, b=2))
    vf = VolumeFormSpec(k0=k0)
    cone = tangent_cone(ss, eps, vf)
    cls = classify_asymptotics(ss)
    assert cls.cone == "ray" and cls.angle_over_pi is None
    honest = ray_limit_coefficient(ss, eps, vf)
    assert abs(honest - 1 * 2 * k0 ** 2 / (2 * math.pi ** 2 * eps ** 2)) < 1e-14
    assert abs(cone.limit_coefficient / honest - 1.0) < 0.01


def test_tangent_cone_star_cone_coefficient():
    eps, k0, b = 1.1, 0.7, 2
    pm = fiber_product(FiberType(FK.Istar, b=b), FiberType(FK.IVstar))
    vf = VolumeFormSpec(k0=k0)
    cone = tangent_cone(pm, eps, vf)
    assert classify_asymptotics(pm).angle_over_pi == Fraction(1, 3)
    honest = cone_limit_coefficient(pm, eps, vf)
    assert abs(honest - 216 * math.sqrt(3) * b * k0 ** 2 / (math.pi * eps ** 2)) < 1e-10
    assert abs(cone.limit_coefficient / honest - 1.0) < 0.01


def test_star_curvature_decay_istar_istar():
    # measured total-space curvature of the ansatz: |Rm| ~ C L^{-4} with
    # L = -log|z|, i.e. |Rm| ~ C'/r^2 since r ~ L^2.  Step-size-robust FD
    # measurement; the published display shows an exponentially small law
    # instead (see docs/decisions.md).
    eps, k0 = 1.0, 1.0
    ss = fiber_product(FiberType(FK.Istar, b=1), FiberType(FK.Istar, b=1))
    vf = VolumeFormSpec(k0=k0)
    from semiflat.kodaira import PuncturedPoint

    Ls, vals = [], []
    for L in (2.0, 3.0, 4.5, 6.0, 8.0):
        z = math.exp(-L) * cmath.exp(0.7j)
        s = z ** 0.5

        def field(xs):
            def at(x):
                zz = complex(x[0], x[1])
                pt = PuncturedPoint(s=zz ** 0.5, d=2)
                return metric_at(ss, eps, vf, pt,
                                 (complex(x[2], x[3]), complex(x[4], x[5])))
            return np.array([at(x) for x in xs])

        x = np.array([z.real, z.imag, 0.2 * abs(s), 0.1 * abs(s),
                      -0.15 * abs(s), 0.12 * abs(s)])
        nrm = chern_curvature_norm(field, ChernStencil(x, FDScheme(step=1e-3),
                                                       (abs(z), abs(s), abs(s))))
        Ls.append(L)
        vals.append(nrm)
    slope = np.polyfit(np.log(Ls), np.log(vals), 1)[0]
    assert abs(slope + 4.0) < 0.4
    # r ~ (C_r/2) L^2, so the same data expresses quadratic curvature decay
    prof = base_profile(ss, eps, vf)
    rs = [prof.dist(L) for L in Ls]
    slope_r = np.polyfit(np.log(rs), np.log(vals), 1)[0]
    assert abs(slope_r + 2.0) < 0.3


def test_fit_rejected_narrow_window():
    with pytest.raises(FitRejected):
        DecayFit(kind="power", exponent_or_rate=-1.0, window=(100.0, 300.0),
                 ss_res_over_ss_tot=0.0)
    with pytest.raises(FitRejected):
        DecayFit(kind="power", exponent_or_rate=-1.0, window=(1e2, 1e5), ss_res_over_ss_tot=0.5)
