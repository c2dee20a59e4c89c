"""Eguchi-Hanson potential, closed-form metric, and cutoff gluing."""

import cmath
import io
import json
import math

import numpy as np
import pytest

from semiflat.cli import bundled_path
from semiflat.eguchi_hanson import (EHConfig, a_max, cutoff, eh_metric, eh_potential,
                                    glued_metric_eigenvalues, glued_potential_u,
                                    gluing_report)
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
    cfg = EHConfig(a=0.1, delta=0.5)
    assert cutoff(cfg, 0.8) == 1.0
    assert cutoff(cfg, 1.6) == 0.0
    assert abs(glued_potential_u(cfg, 0.7) - eh_potential(cfg, 0.7)) < 1e-15
    assert glued_potential_u(cfg, 1.7) == 1.7
    u = 1.08                                  # inside the annulus
    chi = cutoff(cfg, u)
    assert 0 < chi < 1
    assert abs(glued_potential_u(cfg, u)
               - (u + chi * (eh_potential(cfg, u) - u))) < 1e-15


def test_positivity_sweep_and_a_max():
    am = a_max(1.0)
    assert am > 0.0
    eigs = glued_metric_eigenvalues(EHConfig(a=min(0.5 * am, 0.2), delta=1.0), 1.3)
    assert min(eigs) > 0


def test_radial_derivative_closed_forms():
    cfg = EHConfig(a=0.23)
    u = 0.9
    # f' = (1 + a^3/u^3)^(1/3), the conformal factor of eh_metric, and its derivative
    phi = (1.0 + (cfg.a / u) ** 3) ** (1.0 / 3.0)
    dphi = (u * (cfg.a ** 3 + u ** 3) ** (-2.0 / 3.0)
            - (cfg.a ** 3 + u ** 3) ** (1.0 / 3.0) / u ** 2)
    h = 1e-6
    fd1 = (eh_potential(cfg, u + h) - eh_potential(cfg, u - h)) / (2 * h)
    assert abs(fd1 - phi) < 1e-9
    fd2 = (eh_potential(cfg, u + h) - 2 * eh_potential(cfg, u)
           + eh_potential(cfg, u - h)) / h ** 2
    assert abs(fd2 - dphi) < 1e-4


def test_gluing_report_keys():
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
