"""Eguchi-Hanson potential, closed-form metric, and cutoff gluing."""

import cmath
import io
import json
import math

import mpmath as mp
import numpy as np
import pytest

from semiflat.cli import bundled_path
from semiflat.eguchi_hanson import (EHConfig, _cutoff, a_max, eh_metric, eh_potential,
                                    glued_metric_eigenvalues, gluing_report,
                                    sphere_shell_samples)
from semiflat.errors import OriginSingular
from semiflat.rng import SplitMix64
from semiflat.scenario import run_scenario

ZETA3 = cmath.exp(2j * cmath.pi / 3)


def test_flat_limit_small_a():
    cfg = EHConfig(a=1e-6)
    for u in (0.3, 0.7, 1.4):
        assert abs(eh_potential(cfg, u) - u) < 1e-5


def test_far_field_decay_exponent():
    # series oracle: f_a(u) - u = -a^3/(6 u^2) + O(a^6), so the fitted
    # u-exponent of |f - u| is -2
    cfg = EHConfig(a=0.05)
    us = np.geomspace(2.0, 200.0, 12)
    devs = [abs(eh_potential(cfg, u) - u) for u in us]
    slope = np.polyfit(np.log(us), np.log(devs), 1)[0]
    assert abs(slope + 2.0) < 0.1
    # and the series coefficient itself
    u = 5.0
    assert abs((eh_potential(cfg, u) - u) + cfg.a ** 3 / (6 * u * u)) < 1e-9


def test_fd_hessian_matches_closed_form():
    rng = SplitMix64(77)
    cfg = EHConfig(a=0.17)
    for _ in range(4):
        z = tuple(complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
                  for _ in range(3))
        if sum(abs(c) ** 2 for c in z) < 0.05:
            continue

        def pot(x):
            zz = tuple(complex(x[2 * i], x[2 * i + 1]) for i in range(3))
            u = sum(abs(c) ** 2 for c in zz)
            return np.array([[eh_potential(cfg, u)]], dtype=complex)

        from semiflat.diffgeo import richardson, wirtinger_second
        x = np.array([w for c in z for w in (c.real, c.imag)])
        H = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                H[i, j] = richardson(lambda h: wirtinger_second(pot, x, i, j, h),
                                     1e-3)[0, 0]
        assert np.max(np.abs(H - eh_metric(cfg, z))) < 1e-8


def test_det_identity_and_flat_a():
    rng = SplitMix64(78)
    for _ in range(6):
        a = rng.uniform(0.02, 0.5)
        z = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3))
        g = eh_metric(EHConfig(a=a), z)
        assert abs(np.linalg.det(g).real - 1.0) < 1e-12
    tiny = eh_metric(EHConfig(a=1e-7), (0.5 + 0.1j, 0.2 - 0.3j, 0.1 + 0.4j))
    assert np.max(np.abs(tiny - np.eye(3))) < 1e-12


def test_z3_invariance():
    cfg = EHConfig(a=0.2)
    z = (0.4 + 0.1j, -0.3 + 0.25j, 0.2 - 0.5j)
    zr = tuple(ZETA3 * c for c in z)
    assert np.max(np.abs(eh_metric(cfg, zr) - eh_metric(cfg, z))) < 1e-12
    # a (..., 3) stack gives the (..., 3, 3) stack of the single-point matrices
    stack = eh_metric(cfg, [[z, zr]])
    assert stack.shape == (1, 2, 3, 3)
    assert np.array_equal(stack[0, 0], eh_metric(cfg, z))
    assert np.array_equal(stack[0, 1], eh_metric(cfg, zr))


def test_closeness_order_is_cubic():
    # sharp trend: max |g - I| / a^3 stable within 20% as a halves; the
    # quadratic normalization grows linearly and is reported, not stable
    ratios3, ratios2 = [], []
    for a in (0.02, 0.04, 0.08):
        cfg = EHConfig(a=a)
        dev = 0.0
        for i in range(24):
            u = 1.0 + (i + 0.5) / 24
            z = (math.sqrt(u / 3) + 0j,) * 3
            dev = max(dev, float(np.max(np.abs(eh_metric(cfg, z) - np.eye(3)))))
        ratios3.append(dev / a ** 3)
        ratios2.append(dev / a ** 2)
    assert max(ratios3) / min(ratios3) - 1 < 0.2
    assert max(ratios2) / min(ratios2) > 3.0   # the a^2 trend is not flat


def test_glued_potential_regions():
    # the cutoff and its first two u-derivatives: EH inside, flat outside
    cfg = EHConfig(a=0.1, delta=0.5)
    inner = np.array([-3.0, 0.2, 0.8, 1.0, np.nextafter(1.0, 2.0), 1.0001])
    outer = np.array([1.4999, 1.5 - 1e-15, 1.5, 1.6, 1e300])
    for u, want in ((inner, 1.0), (outer, 0.0)):
        chi, d1, d2 = _cutoff(cfg, u)
        assert np.all(chi == want) and np.all(d1 == 0.0) and np.all(d2 == 0.0)
    u = np.linspace(1.05, 1.45, 25)             # inside the annulus
    chi, d1, d2 = _cutoff(cfg, u)
    assert np.all((0 < chi) & (chi < 1)) and np.all(d1 < 0)
    assert np.all(np.diff(chi) < 0)
    # at the middle of the annulus chi = 1/2 and chi'' = 0 by symmetry
    chi, d1, d2 = _cutoff(cfg, 1.25)
    assert chi == 0.5 and abs(d2) < 1e-12
    # outside the annulus the glued form is the flat one exactly
    assert glued_metric_eigenvalues(cfg, 1.7) == (1.0, 1.0)


def test_positivity_sweep_and_a_max():
    am = a_max(1.0)
    assert am > 0.0
    eigs = glued_metric_eigenvalues(EHConfig(a=min(0.5 * am, 0.2), delta=1.0), 1.3)
    assert min(eigs) > 0


def _mp_glued_potential(a, delta, u):
    """Phi_a(u) = u + chi (f_a(u) - u) in mpmath, from the definitions alone."""
    t = (u - 1) / delta
    chi = 1 if t <= 0 else 0 if t >= 1 else 1 / (1 + mp.exp(1 / (1 - t) - 1 / t))
    y = mp.cbrt(1 + (u / a) ** 3)
    zeta = mp.exp(2j * mp.pi / 3)
    f = mp.cbrt(a ** 3 + u ** 3) + a / 3 * sum(zeta ** j * mp.log(y - zeta ** j)
                                              for j in range(3)).real
    return u + chi * (f - u)


def test_radial_derivative_closed_forms():
    # the closed-form (Phi', Phi' + u Phi'') against 40-digit mpmath
    # derivatives of Phi, on both sides of the annulus, at its edges and inside
    for a, delta in ((0.05, 1.0), (0.3, 0.5), (0.9, 1.0), (1.5, 0.25)):
        us = np.array([0.5, 0.9, 1.0, 1.0 + 1e-3 * delta, 1.0 + 0.1 * delta,
                       1.0 + 0.5 * delta, 1.0 + 0.9 * delta, 1.0 + delta - 1e-3 * delta,
                       1.0 + delta, 2.6])
        e1, e2 = glued_metric_eigenvalues(EHConfig(a=a, delta=delta), us)
        with mp.workdps(40):
            for u, got1, got2 in zip(us, e1, e2):
                u = mp.mpf(float(u))
                p1, p2 = (mp.diff(lambda x: _mp_glued_potential(mp.mpf(a), mp.mpf(delta), x),
                                  u, k) for k in (1, 2))
                assert abs(got1 - p1) < 1e-10
                assert abs(got2 - (p1 + u * p2)) < 1e-10


def test_gluing_report_keys():
    # the shell samples draw as 7 uniform() calls per point did
    rng, ref = SplitMix64(2024), []
    for _ in range(24):
        v = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)])
        ref.append(v * math.sqrt(rng.uniform(0.5, 2.5)) / np.linalg.norm(v))
    z = sphere_shell_samples(SplitMix64(2024), 24, 0.5, 2.5)
    assert np.max(np.abs(z - np.array(ref))) < 1e-15
    rep = gluing_report(EHConfig(a=0.05, delta=1.0))
    assert rep["min_eigenvalue"] > 0
    assert rep["max_det_residual_inside"] < 1e-10
    assert rep["a_max"] > 0


def test_origin_singular():
    with pytest.raises(OriginSingular):
        eh_metric(EHConfig(a=0.1), (0j, 0j, 0j))


def test_eh_gluing_fails_for_a_scale_above_a_max():
    # a_max is about 0.988 for the bundled delta = 1; the bundled eh_a is 0.05
    cfg = json.loads(bundled_path("eh_gluing.json").read_text())
    cfg["eh_a"] = 1.5
    (result,) = run_scenario(cfg, log=io.StringIO()).results
    a_max_condition = result.conditions["a_max"]
    assert a_max_condition.measured < a_max_condition.tolerance == 1.5
    assert not a_max_condition.holds and not result.passed
