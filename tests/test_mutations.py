"""Mutation table: every registered check can be made to fail.

Each row injects one fault into the code a check measures (never into the
oracle it compares with), runs the check alone on a bundled scenario, and
asserts that it passes without the fault and fails with it.  A check that
no fault can fail is a check in name only.  This is mutation analysis by
hand (DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE
Computer 11(4), 1978).  `test_every_registered_check_has_a_row` keeps the
table complete: a new check needs a row.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

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


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.id)
def test_check_fails_under_mutation(monkeypatch, row):
    assert _run_alone(row).passed
    row.mutation(monkeypatch)
    result = _run_alone(row)
    assert not result.passed
    row.then(result)


def test_every_registered_check_has_a_row():
    assert set(scenario._CHECKS) - {row.check for row in ROWS} == set()


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
