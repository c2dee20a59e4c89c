"""Charts, decay fits, volume growth, SOB clauses, tangent cones."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

import semiflat as sf
from semiflat.asymptotics import deviation_derivative_exponent
from semiflat.rng import SplitMix64

FK = sf.FiberKind
VF1 = sf.VolumeFormSpec(k0=1.0)


def iistar_iiistar():
    return sf.fiber_product(sf.FiberType(FK.IIstar), sf.FiberType(FK.IIIstar))


def test_alg_chart_anchor_and_sector():
    chart = sf.to_chart(iistar_iiistar(), 1.0, VF1)
    assert abs(chart.p - 12 / 7) < 1e-14
    assert abs(chart.alpha0 - 24 * 3 ** 0.25 / 7) < 1e-12
    assert abs(chart.sector[1] - 7 * math.pi / 6) < 1e-14


def test_alh_chart_rate_and_strip():
    pm = sf.fiber_product(sf.FiberType(FK.III), sf.FiberType(FK.IIIstar))
    eps = 0.8
    vf = sf.VolumeFormSpec(k0=1.3)
    chart = sf.to_chart(pm, eps, vf)
    assert abs(chart.rate - eps / (2 * math.sqrt(2) * 1.3)) < 1e-14
    assert abs(chart.sector[1] - 4 * math.sqrt(2) * math.pi * 1.3 / eps) < 1e-12


def test_star_radial_chart():
    # Istar x Istar gets the radial normalization r ~ (C_r/2) L^2
    ss = sf.fiber_product(sf.FiberType(FK.Istar, b=1), sf.FiberType(FK.Istar, b=2))
    chart = sf.to_chart(ss, 0.9, sf.VolumeFormSpec(k0=1.2))
    assert chart.kind == "radial"
    cr = math.sqrt(2 * 1 * 2) * 1.2 / (math.pi * 0.9)
    for L in (50.0, 400.0):
        assert abs(chart.profile.dist(L) / (0.5 * cr * L * L) - 1.0) < 1e-3


def test_chart_roundtrip():
    for pm in (iistar_iiistar(),
               sf.fiber_product(sf.FiberType(FK.III), sf.FiberType(FK.IIIstar))):
        chart = sf.to_chart(pm, 1.0, VF1)
        rng = SplitMix64(9)
        for _ in range(6):
            if chart.kind == "power":
                alpha = rng.uniform(50, 5000) * cmath.exp(1j * rng.uniform(
                    0.05, chart.sector[1] - 0.05))
            else:
                alpha = rng.uniform(3, 30) / chart.rate + 1j * rng.uniform(
                    0.05, chart.sector[1] / 4)
            pt, _ = chart.to_base(alpha, (0.1, 0.1))
            assert abs(chart.inverse(pt) - alpha) < 1e-10 * abs(alpha)


def test_error_decay_iistar_iiistar():
    fit, rows = sf.error_decay_fit(iistar_iiistar(), 1.0, VF1,
                                   np.geomspace(1e2, 1e5, 13))
    assert fit.kind == "power"
    assert abs(fit.exponent_or_rate + 12 / 7) < 0.05
    assert fit.r2 < 0.01
    # exponent stability: upper half-window moves the fit by < half of 0.05
    fit_hi, _ = sf.error_decay_fit(iistar_iiistar(), 1.0, VF1,
                                   np.geomspace(10 ** 3.5, 1e5, 8))
    assert abs(fit_hi.exponent_or_rate - fit.exponent_or_rate) < 0.025


def test_error_decay_alh_rate():
    eps, k0 = 1.0, 1.0
    pm = sf.fiber_product(sf.FiberType(FK.III), sf.FiberType(FK.IIIstar))
    fit, _ = sf.error_decay_fit(pm, eps, sf.VolumeFormSpec(k0=k0),
                                np.linspace(5, 25, 11))
    assert fit.kind == "exponential"
    rate = eps / (2 * math.sqrt(2) * k0)
    assert abs(fit.exponent_or_rate - rate) < 0.05 * rate


@pytest.mark.parametrize("left,right,i1i2", [
    (FK.II, FK.IIstar, 3 / 4), (FK.IV, FK.IVstar, 3 / 4)])
def test_error_decay_other_alh_pairs(left, right, i1i2):
    # rate = q_min * base rate, q = 2m/3 per hexagonal factor
    pm = sf.fiber_product(sf.FiberType(left), sf.FiberType(right))
    fit, _ = sf.error_decay_fit(pm, 1.0, VF1, np.linspace(6, 26, 11))
    base_rate = 1.0 / math.sqrt(8 * i1i2)
    m_left = pm.left_model.fiber.m_mult
    m_right = pm.right_model.fiber.m_mult
    qmin = min(2 * m_left / 3, 2 * m_right / 3)
    expect = qmin * base_rate
    assert abs(fit.exponent_or_rate - expect) < 0.05 * expect


def test_error_decay_case13_flat():
    c13 = sf.isotrivial_case13()
    vf = sf.VolumeFormSpec(k0=c13.default_k0)
    fit, rows = sf.error_decay_fit(c13, 0.7, vf, np.geomspace(1e2, 1e5, 8))
    assert fit.kind == "flat"
    assert max(d for _, d in rows) < 1e-12


def test_derivative_improvement():
    # alpha-derivative of the deviation gains one inverse power of |alpha|
    radii = np.geomspace(1e2, 1e4, 8)
    fit, _ = sf.error_decay_fit(iistar_iiistar(), 1.0, VF1, radii)
    dslope = deviation_derivative_exponent(iistar_iiistar(), 1.0, VF1, radii)
    assert abs(dslope - (fit.exponent_or_rate - 1.0)) < 0.15


def test_curvature_decay_alg():
    fit, _ = sf.curvature_decay_fit(iistar_iiistar(), 1.0, VF1,
                                    np.geomspace(1e2, 1e5, 13))
    # leading channel: one alpha-derivative of the Wronskian cross term,
    # exponent -(p q/2 + 2) with p = 12/7, q = 1
    assert abs(fit.exponent_or_rate + 20 / 7) < 0.1


def test_curvature_decay_case13_flat():
    c13 = sf.isotrivial_case13()
    vf = sf.VolumeFormSpec(k0=c13.default_k0)
    fit, rows = sf.curvature_decay_fit(c13, 0.7, vf, np.geomspace(1e2, 1e4, 5))
    assert fit.kind == "flat"
    assert max(c for _, c in rows) < 1e-8


def test_volume_growth_exponents():
    ss = sf.fiber_product(sf.FiberType(FK.Istar, b=1), sf.FiberType(FK.Istar, b=2))
    prof = sf.base_profile(ss, 0.9, sf.VolumeFormSpec(k0=1.2))
    fit, _ = sf.volume_growth_fit(prof, np.geomspace(1e2, 1e6, 13))
    assert abs(fit.exponent_or_rate - 1.5) < 0.05

    s4 = sf.fiber_product(sf.FiberType(FK.Istar, b=2), sf.FiberType(FK.IVstar))
    prof4 = sf.base_profile(s4, 1.1, sf.VolumeFormSpec(k0=0.7))
    fit4, _ = sf.volume_growth_fit(prof4, np.geomspace(1e2, 1e6, 13))
    assert abs(fit4.exponent_or_rate - 2.0) < 0.05

    fe, _ = sf.volume_growth_fit(sf.euclidean_profile(), np.geomspace(1e2, 1e6, 13))
    assert abs(fe.exponent_or_rate - 2.0) < 1e-6


def test_sob_clauses():
    ss = sf.fiber_product(sf.FiberType(FK.Istar, b=1), sf.FiberType(FK.Istar, b=2))
    prof = sf.base_profile(ss, 0.9, sf.VolumeFormSpec(k0=1.2))
    rep = sf.sob_check(prof, 1.5, np.geomspace(1e2, 1e6, 9))
    assert rep["clause1_inf"] > 0 and rep["clause2_inf"] > 0
    assert rep["clause1_stable"] < 1.5 and rep["clause2_stable"] < 1.5

    s4 = sf.fiber_product(sf.FiberType(FK.Istar, b=1), sf.FiberType(FK.IVstar))
    prof4 = sf.base_profile(s4, 1.0, VF1)
    rep4 = sf.sob_check(prof4, 2.0, np.geomspace(1e2, 1e6, 9))
    assert rep4["clause1_inf"] > 0 and rep4["clause2_inf"] > 0

    # euclidean sanity: the clause-1 constant is pi itself
    repe = sf.sob_check(sf.euclidean_profile(), 2.0, np.geomspace(1e2, 1e6, 9))
    assert abs(repe["clause1_sup"] - math.pi) < 1e-6
    assert abs(repe["clause1_inf"] - math.pi) < 1e-6


def test_tangent_cone_alg_and_alh():
    cone = sf.tangent_cone(iistar_iiistar(), 1.0, VF1)
    assert cone.kind == "cone" and cone.angle_over_pi == Fraction(7, 6)
    assert abs(cone.limit_coefficient - 0.5) < 0.005
    pm = sf.fiber_product(sf.FiberType(FK.IV), sf.FiberType(FK.IVstar))
    ray = sf.tangent_cone(pm, 1.0, VF1)
    assert ray.kind == "ray"


def test_tangent_cone_ray_coefficient():
    eps, k0 = 0.9, 1.2
    ss = sf.fiber_product(sf.FiberType(FK.Istar, b=1), sf.FiberType(FK.Istar, b=2))
    vf = sf.VolumeFormSpec(k0=k0)
    cone = sf.tangent_cone(ss, eps, vf)
    assert cone.kind == "ray" and cone.cauchy_ok
    honest = sf.ray_limit_coefficient(ss, eps, vf)
    assert abs(honest - 1 * 2 * k0 ** 2 / (2 * math.pi ** 2 * eps ** 2)) < 1e-14
    assert abs(cone.limit_coefficient / honest - 1.0) < 0.01


def test_tangent_cone_star_cone_coefficient():
    eps, k0, b = 1.1, 0.7, 2
    pm = sf.fiber_product(sf.FiberType(FK.Istar, b=b), sf.FiberType(FK.IVstar))
    vf = sf.VolumeFormSpec(k0=k0)
    cone = sf.tangent_cone(pm, eps, vf)
    assert cone.angle_over_pi == Fraction(1, 3)
    honest = sf.cone_limit_coefficient(pm, eps, vf)
    assert abs(honest - 216 * math.sqrt(3) * b * k0 ** 2 / (math.pi * eps ** 2)) < 1e-10
    assert abs(cone.limit_coefficient / honest - 1.0) < 0.01


def test_star_curvature_decay_istar_istar():
    # measured total-space curvature of the ansatz: |Rm| ~ C L^{-4} with
    # L = -log|z|, i.e. |Rm| ~ C'/r^2 since r ~ L^2.  Step-size-robust FD
    # measurement; the published display shows an exponentially small law
    # instead (see docs/decisions.md).
    eps, k0 = 1.0, 1.0
    ss = sf.fiber_product(sf.FiberType(FK.Istar, b=1), sf.FiberType(FK.Istar, b=1))
    vf = sf.VolumeFormSpec(k0=k0)
    from semiflat.diffgeo import FDScheme, chern_curvature_norm
    from semiflat.kodaira import PuncturedPoint

    Ls, vals = [], []
    for L in (2.0, 3.0, 4.5, 6.0, 8.0):
        z = math.exp(-L) * cmath.exp(0.7j)
        s = z ** 0.5

        def field(x):
            zz = complex(x[0], x[1])
            pt = PuncturedPoint(s=zz ** 0.5, d=2)
            return sf.metric_at(ss, eps, vf, pt,
                                (complex(x[2], x[3]), complex(x[4], x[5]))).h

        x = np.array([z.real, z.imag, 0.2 * abs(s), 0.1 * abs(s),
                      -0.15 * abs(s), 0.12 * abs(s)])
        nrm = chern_curvature_norm(field, x, FDScheme(step=1e-3, order=2,
                                                      richardson=True),
                                   (abs(z), abs(s), abs(s)))
        Ls.append(L)
        vals.append(nrm)
    slope = np.polyfit(np.log(Ls), np.log(vals), 1)[0]
    assert abs(slope + 4.0) < 0.4
    # r ~ (C_r/2) L^2, so the same data expresses quadratic curvature decay
    prof = sf.base_profile(ss, eps, vf)
    rs = [prof.dist(L) for L in Ls]
    slope_r = np.polyfit(np.log(rs), np.log(vals), 1)[0]
    assert abs(slope_r + 2.0) < 0.3


def test_fit_rejected_narrow_window():
    with pytest.raises(sf.FitRejected):
        sf.DecayFit(kind="power", exponent_or_rate=-1.0, window=(100.0, 300.0),
                    r2=0.0)
    with pytest.raises(sf.FitRejected):
        sf.DecayFit(kind="power", exponent_or_rate=-1.0, window=(1e2, 1e5), r2=0.5)
