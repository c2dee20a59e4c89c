"""Asymptotic charts, decay fitting, volume growth, and tangent cones.

The chart for an ALG-type model (cone angle theta = 2 pi (alpha+beta-k)/k)
is z = (alpha/alpha0)^(-p), v_j = (alpha/alpha0)^(-p a_j / k) beta_j with
p = k/(alpha+beta-k); for an ALH-type model z = exp(-c alpha),
v_j = exp(-c a_j alpha / k) beta_j.  The anchors

    alpha0 = p |k0| sqrt(8 nu1 nu2 I1 I2) / eps,
    c      = eps / (|k0| sqrt(8 nu1 nu2 I1 I2)),

with I_j the limit lattice pairings Im(mu_j), normalize the pulled-back
base coefficient to 1/2, so the flat comparison model is

    h_flat = diag(1/2, eps/(2 nu1 I1), eps/(2 nu2 I2)).

Deviation observables follow the (1 + Error) form of the source ansatz:
the fitted quantity is the maximal relative *diagonal* deviation.  The
off-diagonal Christoffel residue carries a separate, slower channel
(|z|^{m/2} from the period Wronskian) which is reported by the curvature
fit but deliberately not mixed into the error fit.

Radial geometry of the star-like models is handled entirely in
L = -log|z| to avoid under/overflow: the base coefficients reduce to
closed forms C L^w e^{q L} with small exponents.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .diffgeo import FDScheme, chern_curvature_norm, first_partial
from .errors import FitRejected, NoConvergence, Unsupported
from .kodaira import (Classification, FiberKind, ProductModel, PuncturedPoint,
                      classify_asymptotics)
from .metric import VolumeFormSpec, metric_at
from .rng import SplitMix64


@dataclass(frozen=True)
class DecayFit:
    """Fitted power exponent or exponential rate with its regression residual."""

    kind: str                    # power | exponential | flat | exp_sqrt
    exponent_or_rate: float
    window: tuple[float, float]
    r2: float                    # residual measure: SS_res / SS_tot of the fit

    def __post_init__(self):
        if self.kind == "power" and self.window[0] > 0:
            decades = math.log10(self.window[1] / self.window[0])
            if decades < 1.5:
                raise FitRejected(f"power-fit window spans only {decades:.2f} decades")
        if self.kind == "exponential":
            efold = abs(self.exponent_or_rate) * (self.window[1] - self.window[0])
            if efold < 3:
                raise FitRejected(f"exponential window spans only {efold:.2f} e-foldings")
        if self.kind in ("power", "exponential") and self.r2 >= 0.01:
            raise FitRejected(f"regression residual {self.r2:.3e} >= 0.01")


def _ols(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line fit; returns (slope, intercept, SSres/SStot)."""
    A = np.vstack([xs, np.ones_like(xs)]).T
    coef, _, _, _ = np.linalg.lstsq(A, ys, rcond=None)
    resid = ys - A @ coef
    sstot = float(np.sum((ys - ys.mean()) ** 2))
    ssres = float(np.sum(resid ** 2))
    return float(coef[0]), float(coef[1]), (ssres / sstot if sstot > 0 else 0.0)


@dataclass(frozen=True)
class AsymptoticChart:
    """Coordinate change to the asymptotically flat frame of a classified model."""

    model: ProductModel
    classification: Classification
    kind: str                  # power | exp
    eps: float
    vf: VolumeFormSpec
    p: float                   # power: z = (alpha/alpha0)^(-p); exp: unused
    rate: float                # exp: z = exp(-rate alpha); power: unused
    alpha0: float
    sector: tuple[float, float]       # admissible arg(alpha) (power) / Im(alpha) (exp)
    flat_h: np.ndarray
    limit_moduli: tuple[complex, complex]

    def base_point(self, alpha: complex) -> PuncturedPoint:
        s = self._s(alpha)
        return PuncturedPoint(s=s, d=self.model.k)

    def _log_w(self, alpha: complex) -> complex:
        # log(alpha/alpha0) with the phase taken in the chart sector (0, theta),
        # which may exceed pi; principal powers would branch wrongly there
        w = alpha / self.alpha0
        ph = cmath.phase(w)
        if ph <= 0:
            ph += 2 * math.pi
        return complex(math.log(abs(w)), ph)

    def _s(self, alpha: complex) -> complex:
        k = self.model.k
        if self.kind == "power":
            return cmath.exp(-self.p / k * self._log_w(alpha))
        return cmath.exp(-self.rate * alpha / k)

    def _scales(self, alpha: complex) -> tuple[complex, complex]:
        k, a1, a2 = self.model.k, self.model.a1, self.model.a2
        if self.kind == "power":
            lw = self._log_w(alpha)
            return (cmath.exp(-self.p * a1 / k * lw),
                    cmath.exp(-self.p * a2 / k * lw))
        return (cmath.exp(-self.rate * a1 * alpha / k),
                cmath.exp(-self.rate * a2 * alpha / k))

    def to_base(self, alpha: complex,
                betas: Sequence[complex]) -> tuple[PuncturedPoint, tuple[complex, complex]]:
        c1, c2 = self._scales(alpha)
        return self.base_point(alpha), (c1 * betas[0], c2 * betas[1])

    def inverse(self, pt: PuncturedPoint) -> complex:
        # along the chart arg z = -(p or rate)-multiple of arg alpha lies in
        # (-2 pi, 0); pick that branch of log z
        z = pt.z
        lg = cmath.log(z)
        if lg.imag > 0:
            lg -= 2j * math.pi
        if self.kind == "power":
            return self.alpha0 * cmath.exp(-lg / self.p)
        return -lg / self.rate

    def jacobian(self, alpha: complex, betas: Sequence[complex]) -> np.ndarray:
        k, a1, a2 = self.model.k, self.model.a1, self.model.a2
        z = self._s(alpha) ** k
        c1, c2 = self._scales(alpha)
        if self.kind == "power":
            dz = -(self.p / alpha) * z
            dc1 = -(self.p * a1 / (k * alpha)) * c1
            dc2 = -(self.p * a2 / (k * alpha)) * c2
        else:
            dz = -self.rate * z
            dc1 = -(self.rate * a1 / k) * c1
            dc2 = -(self.rate * a2 / k) * c2
        return np.array([[dz, 0, 0],
                         [dc1 * betas[0], c1, 0],
                         [dc2 * betas[1], 0, c2]], dtype=complex)

    def pulled_h(self, alpha: complex, betas: Sequence[complex]) -> np.ndarray:
        """Hermitian matrix of the ansatz in the (alpha, beta1, beta2) coframe."""
        pt, v = self.to_base(alpha, betas)
        sample = metric_at(self.model, self.eps, self.vf, pt, v)
        J = self.jacobian(alpha, betas)
        return J.T @ sample.h @ J.conj()


@dataclass(frozen=True)
class RadialChart:
    """Asymptotic description of a star-like model: radial normalization only.

    For Istar x Istar the radial distance satisfies r ~ (C_r/2) L^2 with
    L = -log|z| (the |log z|^2 normalization); for Istar x E-star it grows
    like a power of |z|^{-1} with a sqrt-log factor.
    """

    model: ProductModel
    classification: Classification
    kind: str            # radial
    profile: "BaseProfile"


def to_chart(pm: ProductModel, eps: float, vf: VolumeFormSpec):
    """Asymptotic chart: a flat (alpha, beta) chart for ALG/ALH models, the
    radial profile wrapper for star-like ones."""
    cls = classify_asymptotics(pm)
    if cls.kind not in ("ALG", "ALH"):
        return RadialChart(model=pm, classification=cls, kind="radial",
                           profile=base_profile(pm, eps, vf))
    nu = getattr(pm, "nu", (1, 1))
    i1 = pm.left_model.modulus_limit.imag
    i2 = pm.right_model.modulus_limit.imag
    anchor = abs(vf.k0) * math.sqrt(8.0 * nu[0] * nu[1] * i1 * i2) / eps
    flat = np.diag([0.5, eps / (2 * nu[0] * i1), eps / (2 * nu[1] * i2)]).astype(complex)
    if cls.kind == "ALG":
        p = pm.k / (pm.alpha + pm.beta - pm.k)
        alpha0 = p * anchor
        sector = (0.0, float(cls.angle_over_pi) * math.pi)
        return AsymptoticChart(model=pm, classification=cls, kind="power", eps=eps,
                               vf=vf, p=p, rate=0.0, alpha0=alpha0, sector=sector,
                               flat_h=flat,
                               limit_moduli=(pm.left_model.modulus_limit,
                                             pm.right_model.modulus_limit))
    rate = 1.0 / anchor
    sector = (0.0, 2 * math.pi / rate)
    return AsymptoticChart(model=pm, classification=cls, kind="exp", eps=eps, vf=vf,
                           p=0.0, rate=rate, alpha0=0.0, sector=sector, flat_h=flat,
                           limit_moduli=(pm.left_model.modulus_limit,
                                         pm.right_model.modulus_limit))


def _beta_samples(chart: AsymptoticChart, rng: SplitMix64,
                  n: int) -> list[tuple[complex, complex]]:
    mu1, mu2 = chart.limit_moduli
    out = []
    for _ in range(n):
        b1 = rng.uniform(0.1, 0.9) + rng.uniform(0.1, 0.9) * mu1
        b2 = rng.uniform(0.1, 0.9) + rng.uniform(0.1, 0.9) * mu2
        out.append((b1, b2))
    return out


def _diag_deviation(chart: AsymptoticChart, alpha: complex,
                    betas: Sequence[complex]) -> float:
    h = chart.pulled_h(alpha, betas)
    flat = chart.flat_h
    return max(abs(h[j, j].real / flat[j, j].real - 1.0) for j in range(3))


def _fit_radii(chart: AsymptoticChart, radii: Sequence[float]) -> list[complex]:
    lo, hi = chart.sector
    mid = 0.5 * (lo + hi)
    if chart.kind == "power":
        return [r * cmath.exp(1j * mid) for r in radii]
    return [r / chart.rate + 1j * mid / 2 for r in radii]


def fit_decay(chart: AsymptoticChart, radii: Sequence[float], values: np.ndarray,
              keep: np.ndarray, flat_below: float) -> DecayFit:
    """Regression of log `values` over the radii that `keep` marks.

    Values all under `flat_below` give a flat fit.  Otherwise `keep` must
    leave a value at or over `flat_below`, or FitRejected is raised: the
    rejected radii hid the decay.  ALG charts fit a power exponent against
    log radius; ALH charts fit a rate against Re(alpha) = radius /
    chart.rate, the window reported in the same units.
    """
    if values.max() < flat_below:
        return DecayFit(kind="flat", exponent_or_rate=0.0,
                        window=(min(radii), max(radii)), r2=0.0)
    if not (values[keep] >= flat_below).any():
        raise FitRejected(f"{int((~keep).sum())} of {len(keep)} radii rejected, "
                          f"none kept at or over {flat_below:g}")
    rs = np.asarray(radii, dtype=float)[keep]
    logs = np.log(values[keep])
    if chart.kind == "power":
        slope, _, r2 = _ols(np.log(rs), logs)
        return DecayFit(kind="power", exponent_or_rate=slope,
                        window=(float(rs.min()), float(rs.max())), r2=r2)
    xs = rs / chart.rate
    slope, _, r2 = _ols(xs, logs)
    return DecayFit(kind="exponential", exponent_or_rate=-slope,
                    window=(float(xs.min()), float(xs.max())), r2=r2)


def error_decay_fit(pm: ProductModel, eps: float, vf: VolumeFormSpec,
                    radii: Sequence[float], rng: SplitMix64 | None = None,
                    n_beta: int = 3) -> tuple[DecayFit, list[tuple[float, float]]]:
    """Decay of the relative diagonal deviation from the flat limit model.

    For ALG models the fit is log-deviation against log|alpha| (power
    exponent); for ALH models against Re(alpha) in rate-normalized units
    (radii are interpreted as rate * Re(alpha)).  Returns the fit and the
    per-radius rows (radius, deviation).
    """
    chart = to_chart(pm, eps, vf)
    if chart.kind == "radial":
        raise Unsupported("deviation fits need an ALG/ALH chart; star models "
                          "are measured through volume growth and cones")
    rng = rng or SplitMix64(0xDECAF)
    betas = _beta_samples(chart, rng, n_beta)
    alphas = _fit_radii(chart, radii)
    rows = []
    for r, alpha in zip(radii, alphas):
        dev = max(_diag_deviation(chart, alpha, b) for b in betas)
        rows.append((float(r), dev))
    devs = np.array([d for _, d in rows])
    keep = devs > 1e-13          # below this the deviation is rounding noise
    return fit_decay(chart, radii, devs, keep, flat_below=1e-12), rows


def deviation_derivative_exponent(pm: ProductModel, eps: float, vf: VolumeFormSpec,
                                  radii: Sequence[float],
                                  beta: tuple[complex, complex] = (0.31 + 0.17j,
                                                                   0.43 - 0.11j),
                                  ) -> float:
    """Fitted power exponent of |d(deviation)/d Re(alpha)| for ALG models.

    The derivative of the base-coefficient deviation gains one inverse
    power of |alpha|; comparing with the deviation exponent tests the
    derivative-improvement property.
    """
    chart = to_chart(pm, eps, vf)
    if chart.kind != "power":
        raise Unsupported("derivative-improvement fits apply to ALG charts")
    scheme = FDScheme(step=1e-4, order=2, richardson=True)
    mid = 0.5 * (chart.sector[0] + chart.sector[1])
    vals = []
    for r in radii:
        alpha = r * cmath.exp(1j * mid)

        def dev00(x: np.ndarray) -> np.ndarray:
            a = complex(x[0], x[1])
            h = chart.pulled_h(a, beta)
            return np.array([[h[0, 0].real / chart.flat_h[0, 0].real - 1.0]],
                            dtype=complex)

        x = np.array([alpha.real, alpha.imag])
        d = first_partial(dev00, x, 0, scheme, scale=abs(alpha))
        vals.append(abs(d[0, 0]))
    slope, _, _ = _ols(np.log(np.asarray(radii, dtype=float)),
                       np.log(np.asarray(vals)))
    return slope


def curvature_decay_fit(pm: ProductModel, eps: float, vf: VolumeFormSpec,
                        radii: Sequence[float], rng: SplitMix64 | None = None,
                        scheme: FDScheme | None = None,
                        ) -> tuple[DecayFit, list[tuple[float, float]]]:
    """Decay of the Chern curvature norm along the asymptotic chart.

    Each point is measured at two step sizes; points where the two disagree
    by more than 15%, or that do not fall below 0.8 of the smallest trusted
    value before them, sit on the rounding-noise floor of the second
    differences and are excluded from the regression (they remain in the
    returned rows); FitRejected is raised when none is left.  The
    fiber-direction steps are taken wide (the chart metric is low-degree
    polynomial in beta, so this costs no truncation).
    """
    chart = to_chart(pm, eps, vf)
    if chart.kind == "radial":
        raise Unsupported("curvature fits along a chart need an ALG/ALH model")
    scheme = scheme or FDScheme(step=2e-3, order=2, richardson=True)
    half = FDScheme(step=scheme.step / 2, order=scheme.order,
                    richardson=scheme.richardson)
    rng = rng or SplitMix64(0xCAFE)
    beta = _beta_samples(chart, rng, 1)[0]
    alphas = _fit_radii(chart, radii)
    rows = []
    trusted = []
    for r, alpha in zip(radii, alphas):

        def field(x: np.ndarray) -> np.ndarray:
            a = complex(x[0], x[1])
            b = (complex(x[2], x[3]), complex(x[4], x[5]))
            return chart.pulled_h(a, b)

        x = np.array([alpha.real, alpha.imag, beta[0].real, beta[0].imag,
                      beta[1].real, beta[1].imag])
        scales = (abs(alpha), 4.0, 4.0)
        v1 = chern_curvature_norm(field, x, scheme, scales)
        v2 = chern_curvature_norm(field, x, half, scales)
        rows.append((float(r), v2))
        ok = v1 > 0 and v2 > 0 and abs(v1 / v2 - 1.0) < 0.15
        # the observable decays strictly along the chart; a plateau marks noise
        if ok and any(trusted):
            smallest = min(v for (_, v), t in zip(rows[:-1], trusted) if t)
            ok = v2 < 0.8 * smallest
        trusted.append(ok)
    vals = np.array([v for _, v in rows])
    return fit_decay(chart, radii, vals, np.array(trusted), flat_below=1e-8), rows


# ---------------------------------------------------------------------------
# radial profiles of the star-like models (all in L = -log|z|)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseProfile:
    """Radial data of a star-like base metric, parameterized by L = -log|z|.

    sqrt_g_radial(L) integrates to the radial distance; area_density(L) is
    the area element per unit L and unit angle.  Closed forms keep every
    exponential factor explicit so no |z| power is ever materialized.
    """

    label: str
    L0: float
    sqrt_g_radial: Callable[[float], float]
    area_density: Callable[[float], float]
    eps: float
    angular_extent: float = 2 * math.pi

    def dist(self, L: float, n: int = 2000) -> float:
        Ls = np.linspace(self.L0, L, n)
        return float(np.trapezoid([self.sqrt_g_radial(x) for x in Ls], Ls))

    def volume(self, L: float, n: int = 2000) -> float:
        Ls = np.linspace(self.L0, L, n)
        dens = [self.area_density(x) for x in Ls]
        return self.eps * self.angular_extent * float(np.trapezoid(dens, Ls))

    def invert_dist(self, r: float) -> float:
        lo, hi = self.L0 + 1e-9, self.L0 + 4.0
        while self.dist(hi) < r:
            hi *= 1.6
            if hi > 1e7:
                raise NoConvergence("radial inversion ran away")
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if self.dist(mid) < r:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def base_profile(pm: ProductModel, eps: float, vf: VolumeFormSpec) -> BaseProfile:
    """Closed-form radial profile of a star-like product model."""
    cls = classify_asymptotics(pm)
    k0 = abs(vf.k0)
    if vf.coeffs:
        raise Unsupported("radial profiles assume a constant volume coefficient k")
    L0 = math.log(2.0)
    if cls.kind == "ALH_star":
        b1, b2 = pm.left.b, pm.right.b
        cr = math.sqrt(2.0 * b1 * b2) * k0 / (math.pi * eps)
        ca = 2.0 * b1 * b2 * k0 ** 2 / (math.pi ** 2 * eps ** 2)
        return BaseProfile(label=pm.label(), L0=L0,
                           sqrt_g_radial=lambda L: cr * L,
                           area_density=lambda L: ca * L * L, eps=eps)
    if cls.kind == "ALG_star":
        b = pm.left.b
        rm = pm.right_model
        i2 = rm.modulus_limit.imag
        # right-factor pairing: I2 (1 - e^{-q L}) e^{-2 a2 L / k}
        q = factor_correction_exponent(rm)
        w = 3.0 - 2.0 * pm.a2 / pm.k          # B e^{-2L} = C L (1-e^{-qL}) e^{(w-2) L}
        c2 = 2.0 * b * k0 ** 2 * i2 / (math.pi * eps ** 2)
        exp_half = 0.5 * (w - 2.0)

        def sqrtg(L: float) -> float:
            return math.sqrt(2.0 * c2 * L * (1.0 - math.exp(-q * L))) * math.exp(exp_half * L)

        def areaden(L: float) -> float:
            return 2.0 * c2 * L * (1.0 - math.exp(-q * L)) * math.exp((w - 2.0) * L)

        return BaseProfile(label=pm.label(), L0=L0, sqrt_g_radial=sqrtg,
                           area_density=areaden, eps=eps)
    raise Unsupported(f"no radial profile for {cls.kind}")


def factor_correction_exponent(lm) -> float:
    """Exponent q with Im(conj(tau1) tau2) = I (1 - |z|^q) |z|^{2a/k} for a factor.

    Pure-power factors (I0star, the isotrivial quotients) have no correction
    and return infinity.
    """
    m = lm.fiber.m_mult
    if m is None:
        return math.inf
    if lm.fiber.kind in (FiberKind.II, FiberKind.IIstar, FiberKind.IV, FiberKind.IVstar):
        return 2.0 * m / 3.0
    return float(m)


def euclidean_profile(eps: float = 1.0) -> BaseProfile:
    """Flat-disk-complement sanity profile: g = |dz|^2 in direct radius."""
    return BaseProfile(label="euclidean", L0=0.0,
                       sqrt_g_radial=lambda r: 1.0,
                       area_density=lambda r: r, eps=eps)


def volume_growth_fit(profile: BaseProfile,
                      radii: Sequence[float]) -> tuple[DecayFit, list[tuple[float, float]]]:
    """Fit log Vol(B(x0, r)) against log r over the given radii."""
    rows = []
    for r in radii:
        L = profile.invert_dist(float(r))
        rows.append((float(r), profile.volume(L)))
    slope, _, r2 = _ols(np.log(np.asarray([r for r, _ in rows])),
                        np.log(np.asarray([v for _, v in rows])))
    fit = DecayFit(kind="power", exponent_or_rate=slope,
                   window=(min(radii), max(radii)), r2=r2)
    return fit, rows


def sob_check(profile: BaseProfile, beta: float,
              radii: Sequence[float], shrink: float = 0.1) -> dict:
    """Numeric check of the volume-growth clauses of the SOB(beta) condition.

    Clause (1): Vol(B(x0, R)) <= C R^beta -- reports sup of Vol/R^beta.
    Clause (2): Vol(B(x, d/2)) >= d^beta / C for far points x -- reports inf
    of the contained-region volume over d^beta, using the per-family
    containment regions (a log-annulus for ray-collapse models, a thin
    annulus sector for cone models).  The annulus-connectivity clause is
    structural for circle-fibered bases and is reported, not computed.
    """
    c1 = []
    c2 = []
    for r in radii:
        L = profile.invert_dist(float(r))
        c1.append(profile.volume(L) / float(r) ** beta)
        if profile.label == "euclidean":
            inner = profile.invert_dist(max(float(r) / 2, profile.L0 + 1e-6))
            region = profile.volume(L) - profile.volume(inner)
        elif beta < 1.75:       # ray collapse: full annulus (1-shrink) L .. L
            Ls = np.linspace((1 - shrink) * L, L, 800)
            region = profile.eps * profile.angular_extent * float(
                np.trapezoid([profile.area_density(x) for x in Ls], Ls))
        else:                   # cone: thin annulus, angular fraction shrink/pi
            Ls = np.linspace(L - math.log(1 + shrink), L, 400)
            region = profile.eps * 2 * shrink * float(
                np.trapezoid([profile.area_density(x) for x in Ls], Ls))
        c2.append(region / float(r) ** beta)
    return {
        "beta": beta,
        "clause1_sup": max(c1), "clause1_inf": min(c1),
        "clause2_sup": max(c2), "clause2_inf": min(c2),
        "clause1_stable": max(c1) / min(c1),
        "clause2_stable": max(c2) / min(c2),
        "connectivity": "structural: circle-fibered base, annuli are connected",
    }


# ---------------------------------------------------------------------------
# tangent cones
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeDescription:
    kind: str                         # ray | cone
    angle_over_pi: Optional[Fraction]
    limit_coefficient: Optional[float]
    measured: tuple[float, ...]
    cauchy_ok: bool


def _cauchy_ok(vals: Sequence[float], tol: float = 0.02) -> bool:
    return all(abs(vals[i + 1] / vals[i] - 1.0) < tol for i in range(len(vals) - 1))


def tangent_cone(pm: ProductModel, eps: float, vf: VolumeFormSpec,
                 decades: int = 4) -> ConeDescription:
    """Tangent cone at infinity via the model's rescaling maps.

    ALG models: exact cone of angle 2 (alpha+beta-k) pi / k, read off the
    chart sector; the pulled base coefficient is verified to converge to
    its flat value 1/2.  ALH models: ray.  Star-like models: the explicit
    rescaling maps are evaluated across `decades` decades of the scale
    parameter and the rescaled coefficient must be Cauchy.
    """
    cls = classify_asymptotics(pm)
    k0 = abs(vf.k0)
    if cls.kind in ("ALG", "ALH"):
        chart = to_chart(pm, eps, vf)
        mid = 0.5 * (chart.sector[0] + chart.sector[1])
        vals = []
        for i in range(decades):
            if chart.kind == "power":
                alpha = 10.0 ** (2 + i) * cmath.exp(1j * mid)
            else:
                alpha = (8.0 * (i + 1)) / chart.rate + 1j * mid / 2
            h = chart.pulled_h(alpha, (0j, 0j))
            vals.append(h[0, 0].real)
        if not _cauchy_ok(vals):
            raise NoConvergence(f"chart base coefficient not Cauchy: {vals}")
        return ConeDescription(kind=cls.cone,
                               angle_over_pi=cls.angle_over_pi,
                               limit_coefficient=vals[-1], measured=tuple(vals),
                               cauchy_ok=True)
    if cls.kind == "ALH_star":
        b1, b2 = pm.left.b, pm.right.b
        s_par = 1.7
        ca = 2.0 * b1 * b2 * k0 ** 2 / (math.pi ** 2 * eps ** 2)  # 2 B |z|^2 = ca L^2
        vals = []
        for i in range(decades):
            lam = 10.0 ** (-4 - 2 * i)
            t = math.sqrt(s_par / lam)
            L = t + math.log(2.0)
            grr = ca * L * L        # Riemannian (dt, dt) coefficient
            vals.append(lam ** 2 * grr / (4 * lam * s_par))
        if not _cauchy_ok(vals):
            raise NoConvergence(f"ray rescaling not Cauchy: {vals}")
        return ConeDescription(kind="ray", angle_over_pi=None,
                               limit_coefficient=vals[-1], measured=tuple(vals),
                               cauchy_ok=True)
    # ALG_star: Phi_lambda(alpha) = (alpha/alpha_lam)^{-P} with P the cone
    # power 2k/(k-2a2) (the angle is 2 pi / P), alpha_lam -> 0 and
    # lam = alpha_lam |log alpha_lam|^{-1/2}
    profile = base_profile(pm, eps, vf)
    P = 2.0 * pm.k / (pm.k - 2.0 * pm.a2)
    a0 = 2.0
    vals = []
    xs = []
    for i in range(decades):
        al = 10.0 ** (-(5 + 8 * i))
        L = P * (math.log(a0) - math.log(al))
        Bz2 = 0.5 * profile.area_density(L)          # B e^{-2L}
        lam_sq = al ** 2 / abs(math.log(al))
        vals.append(lam_sq * Bz2 * P ** 2 / a0 ** 2)
        xs.append(1.0 / abs(math.log(al)))
    if not _cauchy_ok(vals, tol=0.25):
        raise NoConvergence(f"cone rescaling not Cauchy: {vals}")
    # the limit is approached affinely in 1/|log alpha_lam|
    slope, intercept, _ = _ols(np.asarray(xs), np.asarray(vals))
    return ConeDescription(kind="cone", angle_over_pi=cls.angle_over_pi,
                           limit_coefficient=intercept, measured=tuple(vals),
                           cauchy_ok=True)


def ray_limit_coefficient(pm: ProductModel, eps: float, vf: VolumeFormSpec) -> float:
    """Closed-form honest limit of the ray rescaling: b1 b2 |k(1/2)|^2/(2 pi^2 eps^2)."""
    b1, b2 = pm.left.b, pm.right.b
    return b1 * b2 * abs(vf.k(0.5)) ** 2 / (2 * math.pi ** 2 * eps ** 2)


def cone_limit_coefficient(pm: ProductModel, eps: float, vf: VolumeFormSpec) -> float:
    """Closed-form honest limit of the cone rescaling for Istar x E-star models.

    Derived by substituting the rescaling map into the explicit base
    coefficient; for Istar(b) x IVstar it is 216 sqrt(3) b |k(0)|^2 / (pi eps^2).
    """
    cls = classify_asymptotics(pm)
    if cls.kind != "ALG_star":
        raise Unsupported("cone limit coefficient applies to Istar x E-star")
    b = pm.left.b
    i2 = pm.right_model.modulus_limit.imag
    P = 2.0 * pm.k / (pm.k - 2.0 * pm.a2)   # cone power; angle is 2 pi / P
    return 2.0 * b * abs(vf.k0) ** 2 * i2 * P ** 3 / (math.pi * eps ** 2)
