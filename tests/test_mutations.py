"""Mutation table: every registered check can be made to fail.

Each row injects one fault into the code a check measures (never into the
oracle it compares with), runs the check alone on a bundled scenario, and
asserts that it passes without the fault and fails with it.  A check that
no fault can fail is a check in name only.  This is mutation analysis by
hand (DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE
Computer 11(4), 1978).  `test_every_registered_check_has_a_row` keeps the
table complete: a new check needs a row.  `NAN_ROWS` puts a NaN into what
each check but `canonical` measures, and the check must fail, also where a
Python `max` or `min` fold would drop the NaN.

The decay rows change an exponent, not a constant: a constant factor on
the metric (Gamma doubled, B doubled) leaves a fitted decay exponent where
it was.
"""

import io
import itertools
import re
import json
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np
import pytest

from semiflat import asymptotics, eguchi_hanson, kodaira, metric, scenario, weierstrass
from semiflat.cli import bundled_path, main
from semiflat.errors import SemiflatError
from semiflat.kodaira import FiberKind, FiberType
from semiflat.scenario import build_context, load_scenario, run_scenario


def _wrap(monkeypatch, module, name: str, make: Callable) -> None:
    """Replace module.name by make(original), in every module of the package
    that imported it by name, so that every caller sees the fault."""
    original = getattr(module, name)
    mutant = make(original)
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("semiflat") and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, mutant)


def base_doubled(mp):
    def make(original):
        def doubled(*args):
            *terms, B = original(*args)
            return (*terms, 2 * B)
        return doubled
    _wrap(mp, metric, "base_terms", make)


def gamma_sign_flipped(mp):
    # Gamma^j = [Im(conj(tau_1) v) tau_2' + Im(conj(tau_2) v) tau_1'] / Im(...)
    def flipped(periods, imp, v):
        tau, dt = periods
        return [(metric._im_pair(tau[2 * j], v[j]) * dt[2 * j + 1]
                 + metric._im_pair(tau[2 * j + 1], v[j]) * dt[2 * j]) / p
                for j, p in enumerate(imp)]
    _wrap(mp, metric, "_christoffel", lambda original: flipped)


def gamma_doubled(mp):
    _wrap(mp, metric, "_christoffel",
          lambda original: lambda *args: [2 * g for g in original(*args)])


def volume_form_power_shifted(mp):
    # g(z) = k0 / z^2 becomes k0 |z|^0.1 / z^2
    _wrap(mp, metric, "effective_g",
          lambda original: lambda model, vf, z: original(model, vf, z) * abs(z) ** 0.1)


def pairing_scaled(mp):
    _wrap(mp, metric, "_im_pair", lambda original: lambda a, b: 1.01 * original(a, b))


def iiistar_periods_with_m_plus_2(mp):
    # the periods carry 1 - z^{(m+2)/2}; the expected exponents keep m
    def make(original):
        def build(t):
            if t.kind is FiberKind.IIIstar:
                t = FiberType(t.kind, m_mult=t.m_mult + 2)
            return original(t)
        return build
    _wrap(mp, kodaira, "_pow_model", make)


def area_power_raised(mp):
    # the area density of the Istar x Istar profile grows like L^3, not L^2
    _wrap(mp, asymptotics, "_power_profile",
          lambda original: lambda L0, eps, cr, m, ca, n:
          original(L0, eps, cr, m, ca, n + 1))


def area_scale_doubled(mp):
    # the area density of the Istar x Istar profile is twice its closed form
    _wrap(mp, asymptotics, "_power_profile",
          lambda original: lambda L0, eps, cr, m, ca, n:
          original(L0, eps, cr, m, 2 * ca, n))


def curvature_norm(name: str, *norms):
    """The Chern norm replaced by the cycle of `norms`."""
    def mutate(mp):
        values = itertools.cycle(norms)
        _wrap(mp, asymptotics, "chern_curvature_norm",
              lambda original: lambda *args: next(values))
    mutate.__name__ = name
    return mutate


def pole_order_one(mp):
    # the pole order of Omega = (k(z)/z^2) dz dv1 dv2 read as 1, not 2
    _wrap(mp, kodaira, "canonical_coefficient",
          lambda original: lambda pm: Fraction((pm.k - 1) + pm.a1 + pm.a2 - pm.k, pm.k))


def relabelled(kind: FiberKind, row_of: FiberKind):
    """The catalog row of `kind` replaced by the row of `row_of`: the model
    is self-consistent, so only an oracle that does not read the row sees it."""
    def mutate(mp):
        mp.setitem(kodaira._FINITE_TABLE, kind, kodaira._FINITE_TABLE[row_of])
    mutate.__name__ = f"{kind.value}_given_{row_of.value}_row"
    return mutate


def never_positive(mp):
    _wrap(mp, eguchi_hanson, "glued_positive", lambda original: lambda cfg: False)


def bridge_coefficient(mp):
    # 60 G_4 = (4 pi^4 / 3) (1 + 13 g2) instead of (1 + 12 g2)
    def make(original):
        def bridge(g2, g3):
            G4, G6 = original(g2, g3)
            return G4 + (4 * math.pi ** 4 / 3) * g2 / 60.0, G6
        return bridge
    _wrap(mp, weierstrass, "_bridge", make)


def wp_prime_sign_flipped(mp):
    # Y enters the cubic squared, so only the pullback ratio sees the sign
    _wrap(mp, weierstrass, "wp_prime", lambda original: lambda ed, v: -original(ed, v))


def _note(expected: str):
    def then(result):
        assert result.note == expected
    return then


def _measured(key: str, holds: Callable[[float], bool]):
    def then(result):
        assert holds(result.measured[key]), result.measured[key]
    return then


def _fails(*keys: str):
    def then(result):
        assert not any(result.conditions[key].holds for key in keys), result.measured
    return then


def _ratio_minus_one_cubic_blind(result):
    assert result.measured["max_cubic_residual"] < 1e-12, result.measured
    assert abs(result.measured["max_ratio_deviation"] - 2.0) < 1e-8, result.measured


@dataclass(frozen=True)
class Row:
    check: str
    scenario: str
    mutation: Callable
    then: Callable = lambda result: None     # further assertions on the failed result

    @property
    def id(self) -> str:
        return f"{self.check}-{self.mutation.__name__}-{self.scenario}"


ROWS = [
    # det h = 2 |g_eff|^2 with B doubled, so the residual is 1
    Row("ma", "elliptic_iv", base_doubled, _measured("max_residual", lambda r: abs(r - 1) < 1e-12)),
    Row("ma", "pair_iistar_x_iiistar", base_doubled,
        _measured("max_residual", lambda r: abs(r - 1) < 1e-12)),
    Row("closedness", "pair_iistar_x_iiistar", gamma_sign_flipped),
    Row("flatness", "isotrivial_case13", volume_form_power_shifted),
    # the fits measure the shifted exponents: -12/7 +- 0.05 and -20/7 +- 0.1
    # are expected, about -2.29 and -3.13 come out
    Row("error_decay", "pair_iistar_x_iiistar", iiistar_periods_with_m_plus_2,
        _measured("exponent", lambda e: e < -2.2)),
    Row("curvature_decay", "pair_iistar_x_iiistar", iiistar_periods_with_m_plus_2,
        _measured("exponent", lambda e: e < -3.0)),
    # a broken curvature norm fails the check; it does not fall back to a flat pass
    Row("curvature_decay", "pair_iistar_x_iiistar", curvature_norm("norm_steps_disagree", 1.0, 1.5),
        _note("FitRejected: 13 of 13 radii rejected, none kept at or over 1e-08")),
    Row("curvature_decay", "pair_iistar_x_iiistar",
        curvature_norm("norm_flat_over_tolerance", 5e-9), _note("")),
    Row("volume_growth", "pair_istar_x_istar", area_power_raised),
    Row("sob", "pair_istar_x_istar", area_power_raised),
    Row("tangent_cone", "pair_iistar_x_iiistar", base_doubled,
        _measured("base_coefficient", lambda c: abs(c - 1.0) < 1e-3)),
    Row("tangent_cone", "pair_istar_x_istar", area_scale_doubled),
    Row("canonical", "pair_iistar_x_iiistar", pole_order_one),
    Row("canonical", "pair_ii_x_iistar", pole_order_one),
    Row("canonical", "isotrivial_case13", pole_order_one),
    # a relabelled row keeps c = (k - alpha - beta - 1)/k; the discriminant orders see it
    Row("canonical", "pair_iii_x_iiistar", relabelled(FiberKind.III, FiberKind.IIIstar),
        _fails("coefficient")),
    Row("canonical", "pair_iv_x_ivstar", relabelled(FiberKind.IV, FiberKind.IVstar),
        _fails("coefficient")),
    Row("canonical", "pair_ii_x_iistar", relabelled(FiberKind.II, FiberKind.IIstar),
        _fails("coefficient")),
    # the Siegel oracle does not go through _im_pair
    Row("fiber_volume", "pair_istar_x_ivstar", pairing_scaled,
        _measured("max_fiber_coeff_rel_err", lambda e: e > 5e-3)),
    Row("christoffel", "pair_iistar_x_iiistar", gamma_doubled),
    Row("eh_gluing", "eh_gluing", never_positive,
        _note("NotPositive: glued form not positive even for tiny a")),
    Row("weierstrass", "weierstrass_i1", bridge_coefficient),
    # the ratio reads -1 and the cubic residual stays at rounding level
    Row("weierstrass", "weierstrass_i1", wp_prime_sign_flipped, _ratio_minus_one_cubic_blind),
]


def _run_alone(row: Row):
    cfg = json.loads(bundled_path(f"{row.scenario}.json").read_text())
    assert row.check in cfg["checks"]
    cfg["checks"] = [row.check]
    (result,) = run_scenario(cfg, seed=1, log=io.StringIO()).results
    return result


def test_every_registered_check_has_a_row():
    assert set(scenario._CHECKS) - {row.check for row in ROWS} == set()


# ---------------------------------------------------------------------------
# a NaN fails its check
# ---------------------------------------------------------------------------
#
# Python's max and min drop a NaN that is not their first argument (every
# comparison with it is false), and a decay fit's radius filter would drop a
# NaN radius as rounding noise.  Each row puts a NaN into what a check
# measures, past the first sample where it can, and the check must fail.


def metric_at_nan(mp):
    def make(original):
        def all_nan(*args):
            return np.full_like(original(*args), math.nan)
        return all_nan
    _wrap(mp, metric, "metric_at", make)


def metric_at_nan_at_second_sample(mp):
    def make(original):
        def second_nan(*args):
            h = original(*args)
            h[1] = math.nan
            return h
        return second_nan
    _wrap(mp, metric, "metric_at", make)


def cubic_residual_nan(mp):
    _wrap(mp, weierstrass, "cubic_residual", lambda original: lambda ed, v, wprime: math.nan)


def volume_pullback_ratio_nan(mp):
    _wrap(mp, weierstrass, "volume_pullback_ratio",
          lambda original: lambda ed, v, wprime: math.nan)


def left_fiber_coefficient_nan(mp):
    def make(original):
        def left_nan(*args, **kwargs):
            F, imp = original(*args, **kwargs)
            return (np.full_like(F[0], math.nan), *F[1:]), imp
        return left_nan
    _wrap(mp, metric, "_fiber_terms", make)


def eh_metric_nan_at_middle_scale(mp):
    # the closeness ratio is read at a = 0.02, 0.04, 0.08
    _wrap(mp, eguchi_hanson, "eh_metric", lambda original: lambda cfg, z: (
        np.full_like(original(cfg, z), math.nan) if cfg.a == 0.04 else original(cfg, z)))


def volume_nan_beyond_1e4(mp):
    # radii 1e2 .. 1e6: the volumes of the first radii stay finite
    def make(original):
        def profile(*args):
            prof = original(*args)
            L_mid = prof.invert_dist(1e4)
            return replace(
                prof, area=lambda L: math.nan if L > L_mid else prof.area(L))
        return profile
    _wrap(mp, asymptotics, "base_profile", make)


def pulled_h_nan(name: str, lo: float, hi: float):
    """The chart metric NaN wherever lo < |alpha| < hi; on an ALG chart
    |alpha| is the radius."""
    def mutate(mp):
        original = asymptotics.AsymptoticChart.pulled_h

        def pulled_h(self, alpha, betas):
            r = np.abs(alpha)
            return np.where(((lo < r) & (r < hi))[..., None, None], math.nan,
                            original(self, alpha, betas))
        mp.setattr(asymptotics.AsymptoticChart, "pulled_h", pulled_h)
    mutate.__name__ = name
    return mutate


def christoffel_closed_nan(mp):
    _wrap(mp, metric, "christoffel_closed", lambda original: lambda *args: tuple(
        np.full_like(g, math.nan) for g in original(*args)))


def area_density_nan(mp):
    def make(original):
        def profile(*args):
            prof = original(*args)
            return replace(prof, area_density=lambda L: np.full_like(L, math.nan))
        return profile
    _wrap(mp, asymptotics, "base_profile", make)


NAN_ROWS = [
    Row("ma", "pair_iistar_x_iiistar", metric_at_nan_at_second_sample,
        _measured("max_residual", math.isnan)),
    Row("closedness", "elliptic_iv", metric_at_nan, _fails("max_residual", "min_order")),
    Row("weierstrass", "weierstrass_i1", cubic_residual_nan,
        _measured("max_cubic_residual", math.isnan)),
    Row("weierstrass", "weierstrass_i1", volume_pullback_ratio_nan,
        _measured("max_ratio_deviation", math.isnan)),
    Row("fiber_volume", "pair_istar_x_ivstar", left_fiber_coefficient_nan,
        _measured("max_fiber_coeff_rel_err", math.isnan)),
    Row("eh_gluing", "eh_gluing", eh_metric_nan_at_middle_scale,
        _measured("dev_over_a3_spread", math.isnan)),
    Row("sob", "pair_istar_x_istar", volume_nan_beyond_1e4,
        _measured("clause1_inf", math.isnan)),
    # radii 1e2 .. 1e6: the fit rejects the first NaN volume before it regresses
    Row("volume_growth", "pair_istar_x_istar", volume_nan_beyond_1e4,
        _note("FitRejected: non-finite value at radius 21544.3")),
    Row("christoffel", "pair_iistar_x_iiistar", christoffel_closed_nan,
        _measured("max_rel_disagreement", math.isnan)),
    Row("flatness", "isotrivial_case13", pulled_h_nan("pulled_h_nan", 0.0, math.inf),
        _measured("max_coefficient_deviation", math.isnan)),
    # radii 1e2 .. 1e5: a fit does not drop a NaN radius as rounding noise
    Row("error_decay", "pair_iistar_x_iiistar", pulled_h_nan("pulled_h_nan_mid", 5e2, 5e3),
        _note("FitRejected: non-finite value at radius 562.341")),
    Row("curvature_decay", "pair_iistar_x_iiistar", pulled_h_nan("pulled_h_nan_mid", 5e2, 5e3),
        _note("FitRejected: non-finite value at radius 562.341")),
    Row("tangent_cone", "pair_iistar_x_iiistar", pulled_h_nan("pulled_h_nan_mid", 5e2, 5e3)),
    Row("tangent_cone", "pair_istar_x_istar", area_density_nan),
]


@pytest.mark.parametrize("row", ROWS + NAN_ROWS, ids=lambda row: row.id)
def test_check_fails_under_mutation(monkeypatch, row):
    assert _run_alone(row).passed
    row.mutation(monkeypatch)
    result = _run_alone(row)
    assert not result.passed
    row.then(result)


def test_every_float_check_has_a_nan_row():
    # canonical compares exact rationals, which cannot be NaN
    assert set(scenario._CHECKS) - {row.check for row in NAN_ROWS} == {"canonical"}


# ---------------------------------------------------------------------------
# the catalog's construction-time self-check, kodaira._verify_local
# ---------------------------------------------------------------------------


def iiistar_monodromy_inverted(mp):
    d, A, *rest = kodaira._FINITE_TABLE[FiberKind.IIIstar]
    inverse = ((A[1][1], -A[0][1]), (-A[1][0], A[0][0]))
    mp.setitem(kodaira._FINITE_TABLE, FiberKind.IIIstar, (d, inverse, *rest))


def case13_right_monodromy_swapped(mp):
    # the right factor (periods z^{2/3}, coordinate power 4) gets the left's A
    def make(original):
        def build(**fields):
            if fields["coord_power"] == 4:
                fields["A"] = ((1, -1), (1, 0))
            return original(**fields)
        return build
    _wrap(mp, kodaira, "LocalModel", make)


CATALOG_ROWS = [
    ("elliptic_iiistar", iiistar_monodromy_inverted,
     r"deck/period inconsistency for IIIstar\[m=1\]"),
    ("pair_iistar_x_iiistar", iiistar_monodromy_inverted,
     r"deck/period inconsistency for IIIstar\[m=1\]"),
    ("isotrivial_case13", case13_right_monodromy_swapped,
     "deck/period inconsistency for isotrivial case 13, right factor"),
]


@pytest.mark.parametrize("name,mutation,message", CATALOG_ROWS,
                         ids=[f"{m.__name__}-{n}" for n, m, _ in CATALOG_ROWS])
def test_catalog_self_check_raises_under_mutation(monkeypatch, name, mutation, message):
    path = bundled_path(f"{name}.json")
    build_context(load_scenario(path))
    mutation(monkeypatch)
    with pytest.raises(SemiflatError, match=message):
        build_context(load_scenario(path))


@pytest.mark.parametrize("name,mutation,message", CATALOG_ROWS,
                         ids=[f"{m.__name__}-{n}" for n, m, _ in CATALOG_ROWS])
def test_cli_reports_a_catalog_self_check_failure_as_a_scenario_error(
        monkeypatch, capsys, tmp_path, name, mutation, message):
    # for every model kind: exit code 2 and the message, not a traceback
    mutation(monkeypatch)
    assert main(["run", f"{name}.json", "--out", str(tmp_path)]) == 2
    assert re.search("scenario error: " + message, capsys.readouterr().err)
