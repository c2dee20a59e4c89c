"""Weierstrass wp, the Kodaira cubic, and the volume-form pullback."""

import cmath
import io
import json
import math

import numpy as np
import pytest

from semiflat import weierstrass
from semiflat.cli import bundled_path
from semiflat.errors import BranchPoint, NotConvergent, PolePoint
from semiflat.rng import SplitMix64
from semiflat.scenario import run_scenario
from semiflat.weierstrass import (EllipticData, cubic_residual, eisenstein_g4_g6,
                                  g2_series, g3_series, gauss_reduce, reduce_argument,
                                  volume_pullback_ratio, wp, wp_lattice, wp_prime)


def brute_wp(v, w1, w2, radius):
    """Raw symmetric-box lattice sum, no tail correction: the oracle."""
    n1 = int(radius / abs(w1)) + 2
    n2 = int(radius / abs(w2)) + 2
    m, n = np.meshgrid(np.arange(-n1, n1 + 1), np.arange(-n2, n2 + 1), indexing="ij")
    lam = m * w1 + n * w2
    mask = (np.abs(lam) > 1e-12) & (np.abs(lam) <= radius)
    lam = lam[mask]
    return 1 / v ** 2 + np.sum(1 / (v - lam) ** 2 - 1 / lam ** 2)


def brute_g(w1, w2, radius, power):
    n1 = int(radius / abs(w1)) + 2
    n2 = int(radius / abs(w2)) + 2
    m, n = np.meshgrid(np.arange(-n1, n1 + 1), np.arange(-n2, n2 + 1), indexing="ij")
    lam = m * w1 + n * w2
    mask = (np.abs(lam) > 1e-12) & (np.abs(lam) <= radius)
    return np.sum(1.0 / lam[mask] ** power)


def test_wp_against_brute_force():
    ed = EllipticData(z=0.2, b=1)
    v = 0.3 + 0.1j
    ours = wp(ed, v)
    oracle = brute_wp(v, 1.0, ed.tau, 800.0)
    assert abs(ours - oracle) < 1e-8


def test_evenness_and_periodicity():
    ed = EllipticData(z=0.3, b=1)
    rng = SplitMix64(3)
    for _ in range(5):
        v = complex(rng.uniform(0.1, 0.6), rng.uniform(0.02, 0.2))
        assert abs(wp(ed, -v) - wp(ed, v)) < 1e-12 * max(1, abs(wp(ed, v)))
        assert abs(wp(ed, v + 1) - wp(ed, v)) < 1e-11 * max(1, abs(wp(ed, v)))
        assert abs(wp(ed, v + ed.tau) - wp(ed, v)) < 1e-11 * max(1, abs(wp(ed, v)))


def test_truncation_radius_doubling():
    ed = EllipticData(z=0.2, b=1)
    v = 0.35 + 0.08j
    a = wp(ed, v, radius=30.0)
    b = wp(ed, v, radius=60.0)
    assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def test_eisenstein_identity_with_direct_sums():
    # (wp')^2 = 4 wp^3 - g4hat wp - g6hat with Eisenstein g4hat = 60 G4,
    # g6hat = 140 G6 computed by direct lattice sums
    ed = EllipticData(z=0.2, b=1)
    G4_direct = brute_g(1.0, ed.tau, 400.0, 4)
    G6_direct = brute_g(1.0, ed.tau, 400.0, 6)
    G4, G6 = eisenstein_g4_g6(ed.q)
    assert abs(G4 - G4_direct) < 1e-8 * max(1.0, abs(G4))
    assert abs(G6 - G6_direct) < 1e-8 * max(1.0, abs(G6))
    v = 0.3 + 0.1j
    w = wp(ed, v)
    wprime = wp_prime(ed, v)
    resid = wprime ** 2 - (4 * w ** 3 - 60 * G4_direct * w - 140 * G6_direct)
    assert abs(resid) < 1e-9 * max(1.0, abs(w) ** 3)


def test_g_series_values():
    assert g2_series(0.0) == 0.0
    assert g3_series(0.0) == 0.0
    # brute-force long summation oracle at z = 0.1
    z = 0.1
    g2_brute = 20 * sum(n ** 3 * z ** n / (1 - z ** n) for n in range(1, 10000))
    g3_brute = sum((7 * n ** 5 + 5 * n ** 3) * z ** n / (1 - z ** n)
                   for n in range(1, 10000)) / 3
    assert abs(g2_series(z) - g2_brute) < 1e-12
    assert abs(g3_series(z) - g3_brute) < 1e-12
    with pytest.raises(NotConvergent):
        g2_series(0.97)
    with pytest.raises(NotConvergent):
        g3_series(1.2)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_homogeneity(seed):
    # wp(c v | c Lambda) = c^-2 wp(v | Lambda)
    rng = SplitMix64(seed)
    ed = EllipticData(z=0.25, b=1)
    G4, G6 = eisenstein_g4_g6(ed.q)
    c = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
    v = 0.3 + 0.07j
    lhs = wp_lattice(c * v, c * 1.0, c * ed.tau, G4 / c ** 4, G6 / c ** 6)
    rhs = wp(ed, v) / c ** 2
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_cubic_residual_grid():
    for z in (0.2, 0.1 + 0.25j, 0.4 * cmath.exp(2.0j)):
        ed = EllipticData(z=z, b=1)
        for v in (0.3 + 0.1j, 0.45 + 0.21j):
            assert cubic_residual(ed, v, wp_prime(ed, v)) < 1e-8


def test_cubic_residual_lattice_periodic():
    ed = EllipticData(z=0.2, b=1)
    v = 0.3 + 0.1j
    shifted = v + ed.tau
    assert abs(cubic_residual(ed, v, wp_prime(ed, v))
               - cubic_residual(ed, shifted, wp_prime(ed, shifted))) < 1e-8


def test_degeneration_limit():
    # z -> 0: g2, g3 -> 0 and the cubic tends to the nodal y^2 = 4x^3 + x^2
    for z in (1e-3, 1e-5):
        assert abs(g2_series(z)) < 25 * z * 1.1
        assert abs(g3_series(z)) < 5 * z * 1.1


def test_volume_pullback_ratio():
    # dx/dv = 2 pi i y at every v: the constant form dx/y = 2 pi i dv
    ed = EllipticData(z=0.2, b=1)
    for v in (0.3 + 0.1j, 0.52 + 0.17j):
        assert volume_pullback_ratio(ed, v, wp_prime(ed, v)) < 1e-8
    # 0.022 from the pole at 0: a fixed step of 3e-4 misses by 3.9e-7, the
    # step 1e-3 |v_r| by 1.2e-11
    v = 0.02 + 0.01j
    assert volume_pullback_ratio(ed, v, wp_prime(ed, v)) < 1e-10


# the 27 of the 300 grids with b in {1, 2, 3} and grid_z, grid_v in 1..10 that
# failed while the cubic residual was absolute and the ratio deviation was
# |ratio - 1|: next to a branch point (|wp'| down to 2.9e-3) or a pole
# (|X|^3 large)
ABSOLUTE_BOUND_MISSES = [
    (1, 3, 7), (1, 7, 6), *((1, 8, n) for n in range(3, 11)),
    *((1, 9, n) for n in (2, 3, 4, 5, 7, 8, 9, 10)), *((1, 10, n) for n in (2, 3, 7, 8, 9, 10)),
    (2, 3, 7), (2, 4, 6), (3, 8, 5)]


@pytest.mark.parametrize("b, grid_z, grid_v", [(1, 7, 9), (3, 4, 6)] + ABSOLUTE_BOUND_MISSES)
def test_check_passes_on_grids_near_a_pole(b, grid_z, grid_v):
    # the first two grids have points within about 0.05 of a lattice point,
    # where a fixed finite-difference step missed the 1e-8 ratio bound (3.4e-7,
    # 4.6e-6); the others are near a pole or a branch point
    cfg = {"name": "near_pole", "model_kind": "weierstrass", "b": b,
           "grid_z": grid_z, "grid_v": grid_v, "checks": ["weierstrass"]}
    (result,) = run_scenario(cfg, log=io.StringIO()).results
    assert result.passed, result.measured


def test_check_that_measured_nothing_fails(monkeypatch):
    # a branch point is an error of the check, not a grid point to skip: a
    # check whose every ratio raises has measured nothing and must not pass
    def branch_point(ed, v, wprime):
        raise BranchPoint("wp' vanishes: branch point of the cubic")

    monkeypatch.setattr(weierstrass, "volume_pullback_ratio", branch_point)
    cfg = json.loads(bundled_path("weierstrass_i1.json").read_text())
    (result,) = run_scenario(cfg, log=io.StringIO()).results
    assert not result.passed
    assert result.note.startswith("BranchPoint:"), result.note


def test_b_cover_sublattice_consistency():
    # the b=2 lattice is the index-2 sublattice {m + 2 n tau} of the b=1 one
    ed1 = EllipticData(z=0.2, b=1)
    ed2 = EllipticData(z=0.2, b=2)
    assert abs(ed2.tau - 2 * ed1.tau) < 1e-15
    v = 0.3 + 0.12j
    ours = wp(ed2, v)
    oracle = brute_wp(v, 1.0, 2 * ed1.tau, 600.0)
    assert abs(ours - oracle) < 1e-7 * max(1.0, abs(ours))
    assert cubic_residual(ed2, v, wp_prime(ed2, v)) < 1e-8


def test_pole_and_branch_errors():
    ed = EllipticData(z=0.2, b=1)
    with pytest.raises(PolePoint):
        wp(ed, 1e-10 + 0j)
    with pytest.raises(PolePoint):
        wp(ed, 1.0 + ed.tau)          # a lattice point
    # wp' vanishes at the half-period 1/2
    with pytest.raises(BranchPoint):
        volume_pullback_ratio(ed, 0.5 + 0j, wp_prime(ed, 0.5 + 0j))


def test_gauss_reduction_and_argument():
    w1, w2 = 1.0 + 0j, 0.256j
    b1, b2 = gauss_reduce(w1, w2)
    assert abs(b1) <= abs(b2)
    v = 7.3 + 2.9j
    vr = reduce_argument(v, w1, w2)
    # difference is a lattice vector
    c1 = (vr - v).real / 1.0
    c2 = (vr - v).imag / 0.256
    assert abs(c1 - round(c1)) < 1e-9 and abs(c2 - round(c2)) < 1e-9
    assert abs(vr) <= abs(v)
