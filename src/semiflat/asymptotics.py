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

`AsymptoticChart.pulled_h` evaluates a batch of points; one point is a
batch of one.  The terms that depend on alpha alone (chart scales, periods,
fiber and base coefficients) are computed for all distinct alphas of the
batch at once, and the rest as a few array passes, all on
`metric.ComplexPairs`, whose arithmetic rounds as Python complex and cmath
do, so each matrix has the same bits in every batch.  A call has a fixed
cost of about half a millisecond, so each fit makes few: the error fit one
for all its radii and fiber points, the tangent cone one for its four
scales, and the curvature fit one per batch of up to `_RADII_PER_BATCH`
radii, the points of both stencils of each concatenated, repeats kept.
Each Chern norm of the batch reads its own stencil's slice of it.  The
curvature fit reproduces only bit for bit (docs/decisions.md).

Radial geometry of the star-like models is handled entirely in
L = -log|z| to avoid under/overflow: the base coefficients reduce to
closed forms C L^w e^{q L} with small exponents.  The area density
always has an elementary antiderivative, so every volume, and every SOB
containment region (a difference of two volumes), is a closed form.  For
Istar x Istar the distance and its inverse are closed forms too
(r = C_r (L^2 - L0^2) / 2).  The distance of an Istar x E-star profile,
the square root of such a density, is integrated once, into a cumulative
table of Gauss-Legendre panels that distance and inversion read.  The
table solves each radius once and keeps the answer.  A scenario builds one
profile (`scenario.Context.profile`), so its checks share the table, and
`volume_growth` and `sob` one Newton solve per radius.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .diffgeo import ChernStencil, chern_curvature_norm
from .errors import DegenerateLattice, FitRejected, NoConvergence, Unsupported
from .kodaira import (ProductModel, PuncturedPoint, array_namespace, classify_asymptotics,
                      correction_exponent)
from .metric import (ComplexPairs, VolumeFormSpec, base_terms, filled, hermitian_entries,
                     real_log)
from .rng import SplitMix64


@dataclass(frozen=True)
class DecayFit:
    """Fitted power exponent or exponential rate with its regression residual."""

    kind: str                    # power | exponential | flat
    exponent_or_rate: float
    window: tuple[float, float]
    ss_res_over_ss_tot: float    # residual measure of the fit (not R^2, which is 1 minus it)

    def __post_init__(self):
        if self.kind == "power" and self.window[0] > 0:
            decades = math.log10(self.window[1] / self.window[0])
            if decades < 1.5:
                raise FitRejected(f"power-fit window spans only {decades:.2f} decades")
        if self.kind == "exponential":
            efold = abs(self.exponent_or_rate) * (self.window[1] - self.window[0])
            if efold < 3:
                raise FitRejected(f"exponential window spans only {efold:.2f} e-foldings")
        res = self.ss_res_over_ss_tot
        if self.kind in ("power", "exponential") and not res < 0.01:
            raise FitRejected(f"regression residual {res:.3e} >= 0.01" if math.isfinite(res)
                              else f"non-finite regression residual {res}")


def _ols(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line fit; returns (slope, intercept, SSres/SStot)."""
    A = np.vstack([xs, np.ones_like(xs)]).T
    coef, _, _, _ = np.linalg.lstsq(A, ys, rcond=None)
    resid = ys - A @ coef
    sstot = float(np.sum((ys - ys.mean()) ** 2))
    ssres = float(np.sum(resid ** 2))
    # SStot = 0 (constant ys) fits exactly; a NaN SStot gives a NaN ratio
    return float(coef[0]), float(coef[1]), (ssres / sstot if sstot != 0 else 0.0)


@dataclass(frozen=True)
class AsymptoticChart:
    """Coordinate change to the asymptotically flat frame of a classified model."""

    model: ProductModel
    kind: str                  # power | exp
    eps: float
    vf: VolumeFormSpec
    p: float                   # power: z = (alpha/alpha0)^(-p); exp: unused
    rate: float                # exp: z = exp(-rate alpha); power: 0.0
    alpha0: float
    sector: tuple[float, float]       # admissible arg(alpha) (power) / Im(alpha) (exp)
    flat_h: np.ndarray

    @property
    def limit_moduli(self) -> tuple[complex, complex]:     # of tau2/tau1, per factor
        return (self.model.left_model.modulus_limit, self.model.right_model.modulus_limit)

    def _log_w(self, alpha):
        # log(alpha/alpha0) with the phase taken in the chart sector (0, theta),
        # which may exceed pi; principal powers would branch wrongly there
        w = alpha / self.alpha0
        ph = array_namespace(w).phase(w)
        ph = ph + 2 * math.pi * (ph <= 0)
        return type(w)(real_log(abs(w)), ph)     # complex or ComplexPairs

    def _alpha_terms(self, alpha) -> tuple:
        """Base point, fiber scales c_j and Jacobian entries at alpha:
        (pt, c1, c2, dz, dc1, dc2), with v_j = c_j beta_j.  alpha is a
        Python complex, or ComplexPairs for many alphas at once, each
        entry with the bits of a Python complex alpha."""
        k, a1, a2 = self.model.k, self.model.a1, self.model.a2
        xp = array_namespace(alpha)
        if self.kind == "power":
            lw = self._log_w(alpha)
            c1 = xp.exp(-self.p * a1 / k * lw)
            c2 = xp.exp(-self.p * a2 / k * lw)
            s = xp.exp(-self.p / k * lw)
            dz = -(self.p / alpha) * s ** k
            dc1 = -(self.p * a1 / (k * alpha)) * c1
            dc2 = -(self.p * a2 / (k * alpha)) * c2
        else:
            c1 = xp.exp(-self.rate * a1 * alpha / k)
            c2 = xp.exp(-self.rate * a2 * alpha / k)
            s = xp.exp(-self.rate * alpha / k)
            dz = -self.rate * s ** k
            dc1 = -(self.rate * a1 / k) * c1
            dc2 = -(self.rate * a2 / k) * c2
        r = np.atleast_1d(abs(s))
        off = ~((0 < r) & (r < 1))
        if off.any():
            # |alpha| <= alpha0 on an ALG chart, or |z| underflowing to 0
            i = int(off.argmax())
            a = complex(np.atleast_1d(alpha.real)[i], np.atleast_1d(alpha.imag)[i])
            raise DegenerateLattice(f"chart point alpha = {a:.6g} (alpha0 = {self.alpha0:.6g}) "
                                    f"maps to |s| = {r[i]:.6g}, outside 0 < |s| < 1")
        return PuncturedPoint(s=s, d=k), c1, c2, dz, dc1, dc2

    def pulled_h(self, alpha, betas) -> np.ndarray:
        """Hermitian matrix of the ansatz in the (alpha, beta1, beta2) coframe.

        A complex alpha and a pair of complex betas give one 3 x 3 matrix,
        as a batch of one point.  A 1-D array of alphas and a pair of arrays
        (or numbers) of betas give the (N, 3, 3) stack.  Everything runs on
        `metric.ComplexPairs`, the terms that depend on alpha alone (chart
        scales, periods, fiber and base coefficients) once per distinct
        alpha, so every matrix has the bits of the Python complex formulas
        whatever batch it is in.  Raises DegenerateLattice if any point lies
        outside the validity disk.
        """
        alphas, b1, b2 = np.broadcast_arrays(*(np.atleast_1d(np.asarray(z, dtype=complex))
                                               for z in (alpha, *betas)))
        h = self._pulled(alphas, b1, b2)
        return h[0] if np.ndim(alpha) == 0 else h

    def _pulled(self, alphas: np.ndarray, b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
        h, J = self._entries(alphas, b1, b2)
        Jh = J.transpose(0, 2, 1) @ h
        # J^T h conj(J), with conj(J) and the product written over J and h,
        # which are not read again (a smaller peak; the same bits)
        return np.matmul(Jh, np.conjugate(J, out=J), out=h)

    def _entries(self, alphas: np.ndarray, b1: np.ndarray,
                 b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (N, 3, 3) stacks of h in the (z, v1, v2) coframe and of the
        Jacobian d(z, v1, v2)/d(alpha, beta1, beta2) at the points."""
        # chart alphas have no zero part, so equal values have equal bits
        distinct, index = np.unique(alphas, return_inverse=True)
        alpha = ComplexPairs(distinct.real, distinct.imag)
        # the terms of alpha alone, once per distinct alpha, then at each point
        pt, *scales = self._alpha_terms(alpha)
        (tau, dt), imp, F, _, B = base_terms(self.model, self.eps, self.vf, pt)

        def at_points(terms):
            return tuple(x[index] for x in terms)

        c1, c2, dz, dc1, dc2 = at_points(scales)
        b1, b2 = ComplexPairs.of((b1, b2))
        # the base terms at the points live only through this call
        h = filled(hermitian_entries(((at_points(tau), at_points(dt)), at_points(imp),
                                      at_points(F), None, B[index]), (c1 * b1, c2 * b2)),
                   index.shape)
        J = filled((dz, 0, 0, dc1 * b1, c1, 0, dc2 * b2, 0, c2), index.shape)
        return h.reshape(-1, 3, 3), J.reshape(-1, 3, 3)


def to_chart(pm: ProductModel, eps: float, vf: VolumeFormSpec) -> AsymptoticChart:
    """The flat (alpha, beta) chart of an ALG/ALH model.

    Star-like models have no such chart and raise Unsupported; they are
    measured through `base_profile`, volume growth and tangent cones.
    """
    cls = classify_asymptotics(pm)
    if cls.kind not in ("ALG", "ALH"):
        raise Unsupported(f"{cls.kind} models have no ALG/ALH chart; they are "
                          "measured through volume growth and cones")
    nu = pm.nu
    i1 = pm.left_model.modulus_limit.imag
    i2 = pm.right_model.modulus_limit.imag
    anchor = abs(vf.k0) * math.sqrt(8.0 * nu[0] * nu[1] * i1 * i2) / eps
    flat = np.diag([0.5, eps / (2 * nu[0] * i1), eps / (2 * nu[1] * i2)]).astype(complex)
    if cls.kind == "ALG":
        p = pm.k / (pm.alpha + pm.beta - pm.k)
        alpha0 = p * anchor
        sector = (0.0, float(cls.angle_over_pi) * math.pi)
        return AsymptoticChart(model=pm, kind="power", eps=eps,
                               vf=vf, p=p, rate=0.0, alpha0=alpha0, sector=sector,
                               flat_h=flat)
    rate = 1.0 / anchor
    sector = (0.0, 2 * math.pi / rate)
    return AsymptoticChart(model=pm, kind="exp", eps=eps, vf=vf,
                           p=0.0, rate=rate, alpha0=0.0, sector=sector, flat_h=flat)


def _beta_samples(chart: AsymptoticChart, rng: SplitMix64,
                  n: int) -> list[tuple[complex, complex]]:
    mu1, mu2 = chart.limit_moduli
    # one array draw, then Python arithmetic: the bits of 4n uniform() calls
    u = (0.1 + (0.9 - 0.1) * rng.uniforms(4 * n)).reshape(n, 4).tolist()
    return [(x1 + y1 * mu1, x2 + y2 * mu2) for x1, y1, x2, y2 in u]


def _fit_radii(chart: AsymptoticChart, radii: Sequence[float]) -> list[complex]:
    """The chart point of each radius, as a Python complex: numpy radii
    would make numpy complex scalars, and both fits, `tangent_cone` and the
    flatness check build their points, and the curvature fit and the
    flatness check their stencil scales, with Python's arithmetic."""
    lo, hi = chart.sector
    mid = 0.5 * (lo + hi)
    if chart.kind == "power":
        return [float(r) * cmath.exp(1j * mid) for r in radii]
    return [float(r) / chart.rate + 1j * mid / 2 for r in radii]


def fit_decay(rate: float, radii: Sequence[float], values: np.ndarray,
              keep: np.ndarray, flat_below: float) -> DecayFit:
    """Regression of log `values` over the radii that `keep` marks.

    Values all under `flat_below` give a flat fit.  Otherwise `keep` must
    leave a value at or over `flat_below`, or FitRejected is raised: the
    rejected radii hid the decay.  A rate of 0 fits a power exponent
    against log radius (an ALG chart, whose `rate` is 0.0, and volume
    growth); a positive rate (an ALH chart's) fits a rate against
    Re(alpha) = radius / rate, the window reported in the same units.  A
    value that is not finite raises FitRejected; `keep` would otherwise
    drop it as noise.
    """
    finite = np.isfinite(values)
    if not finite.all():
        raise FitRejected(f"non-finite value at radius {radii[np.argmin(finite)]:g}")
    if values.max() < flat_below:
        return DecayFit(kind="flat", exponent_or_rate=0.0,
                        window=(min(radii), max(radii)), ss_res_over_ss_tot=0.0)
    if not (values[keep] >= flat_below).any():
        raise FitRejected(f"{int((~keep).sum())} of {len(keep)} radii rejected, "
                          f"none kept at or over {flat_below:g}")
    rs = np.asarray(radii, dtype=float)[keep]
    logs = np.log(values[keep])
    if rate == 0:
        slope, _, resid = _ols(np.log(rs), logs)
        return DecayFit(kind="power", exponent_or_rate=slope,
                        window=(float(rs.min()), float(rs.max())), ss_res_over_ss_tot=resid)
    xs = rs / rate
    slope, _, resid = _ols(xs, logs)
    return DecayFit(kind="exponential", exponent_or_rate=-slope,
                    window=(float(xs.min()), float(xs.max())), ss_res_over_ss_tot=resid)


def error_decay_fit(chart: AsymptoticChart, radii: Sequence[float], rng: SplitMix64
                    ) -> tuple[DecayFit, list[tuple[float, float]]]:
    """Decay of the relative diagonal deviation from the flat limit model.

    For ALG models the fit is log-deviation against log|alpha| (power
    exponent); for ALH models against Re(alpha) in rate-normalized units
    (radii are interpreted as rate * Re(alpha)); the deviation at a radius
    is the largest over three fiber points.  Returns the fit and the
    per-radius rows (radius, deviation).
    """
    betas = np.array(_beta_samples(chart, rng, 3))
    alphas = np.repeat(_fit_radii(chart, radii), len(betas))
    b1, b2 = np.tile(betas, (len(radii), 1)).T
    h = chart.pulled_h(alphas, (b1, b2))
    diag = np.diagonal(h, axis1=1, axis2=2).real.reshape(len(radii), len(betas), 3)
    devs = np.abs(diag / chart.flat_h.diagonal().real - 1.0).max(axis=(1, 2))
    rows = [(float(r), dev) for r, dev in zip(radii, devs)]
    keep = devs > 1e-13          # below this the deviation is rounding noise
    return fit_decay(chart.rate, radii, devs, keep, flat_below=1e-12), rows


# the most radii whose stencils one pulled_h call of the curvature fit
# evaluates.  A call costs about 0.6 ms before its first point, more than
# one radius (290 points, 37 distinct alphas) saves on it; a 13-radius fit
# in one call allocates 2.2 MB at its peak (tracemalloc), against 1.2 MB in
# calls of up to 7 radii and 0.2 MB in calls of one.
_RADII_PER_BATCH = 7


def _batch_norms(chart: AsymptoticChart, at: Sequence[tuple], steps: Sequence[float],
                 ) -> list[list[float]]:
    """The Chern norm at each step of each radius (x, scales) of `at`, all
    read from one pulled_h batch of every stencil's points.  Each stencil is
    built once, and its norm's field returns that stencil's slice of the
    batch.  The curvature fit and the `flatness` check both take their
    norms here, the only caller of `chern_curvature_norm`."""
    stencils = [ChernStencil(x, step, scales) for x, scales in at for step in steps]
    z = np.concatenate([s.points for s in stencils]).view(complex)
    h = chart.pulled_h(z[:, 0], (z[:, 1], z[:, 2]))
    ends = np.cumsum([len(s.points) for s in stencils])[:-1]
    norms = [chern_curvature_norm(lambda points, hs=hs: hs, s)
             for s, hs in zip(stencils, np.split(h, ends))]
    return [norms[i:i + len(steps)] for i in range(0, len(norms), len(steps))]


def curvature_decay_fit(chart: AsymptoticChart, radii: Sequence[float], rng: SplitMix64
                        ) -> tuple[DecayFit, list[tuple[float, float]]]:
    """Decay of the Chern curvature norm along the asymptotic chart.

    Each point is measured at the steps 2e-3 and 1e-3; points where the two
    disagree by more than 15%, or that do not fall below 0.8 of the smallest
    trusted value before them, sit on the rounding-noise floor of the second
    differences and are excluded from the regression (they remain in the
    returned rows); FitRejected is raised when none is left.  The
    fiber-direction steps are taken wide (the chart metric is low-degree
    polynomial in beta, so this costs no truncation).
    """
    steps = (2e-3, 1e-3)
    beta = _beta_samples(chart, rng, 1)[0]
    # each radius: its point x and coordinate scales
    at = [(np.array([alpha.real, alpha.imag, beta[0].real, beta[0].imag,
                     beta[1].real, beta[1].imag]), (abs(alpha), 4.0, 4.0))
          for alpha in _fit_radii(chart, radii)]
    batches = -(-len(at) // _RADII_PER_BATCH)     # as few as the cap allows, of equal size
    norms = []
    for b in range(batches):
        norms += _batch_norms(chart, at[b * len(at) // batches:(b + 1) * len(at) // batches],
                              steps)
    rows = []
    trusted = []
    for r, (v1, v2) in zip(radii, norms):
        rows.append((float(r), v2))
        ok = v1 > 0 and v2 > 0 and abs(v1 / v2 - 1.0) < 0.15
        # the observable decays strictly along the chart; a plateau marks noise
        if ok and any(trusted):
            smallest = min(v for (_, v), t in zip(rows[:-1], trusted) if t)
            ok = v2 < 0.8 * smallest
        trusted.append(ok)
    vals = np.array([v for _, v in rows])
    return fit_decay(chart.rate, radii, vals, np.array(trusted), flat_below=1e-8), rows


# ---------------------------------------------------------------------------
# radial profiles of the star-like models (all in L = -log|z|)
# ---------------------------------------------------------------------------


# 8-point Gauss-Legendre rule on [-1, 1], exact for polynomials of degree 15.
# Hard-coded: computing it would import numpy.polynomial or start up BLAS.
_GL_X = np.array([-0.9602898564975363, -0.7966664774136267, -0.525532409916329,
                  -0.1834346424956498, 0.1834346424956498, 0.525532409916329,
                  0.7966664774136267, 0.9602898564975363])
_GL_W = np.array([0.10122853629037626, 0.22238103445337448, 0.31370664587788727,
                  0.362683783378362, 0.362683783378362, 0.31370664587788727,
                  0.22238103445337448, 0.10122853629037626])
_PANEL_WIDTH = 0.5          # width in L of one Gauss-Legendre panel
_FIRST_PANELS = 16          # a table starts with this many panels and doubles
_MAX_PANELS = 1 << 15       # a radius not reached within this many panels is unreachable
_NEWTON_STEPS = 50


def _gauss(fn: Callable, a: float, b: float) -> float:
    """Integral of `fn` over [a, b] by one 8-point Gauss-Legendre panel."""
    half = 0.5 * (b - a)
    return half * float(fn(a + half + half * _GL_X) @ _GL_W)


class _PanelTable:
    """Cumulative radial distance of a profile over fixed panels, and its
    inverse.

    Panel j spans [L0 + j h, L0 + (j+1) h], h = `_PANEL_WIDTH`;
    `cum_dist[j]` integrates sqrt_g_radial from L0 to its left edge.  The
    table doubles its panel count until it covers what is asked, so its
    entries do not depend on the order of the requests.  Nor, then, does
    the Newton solve of a radius, so the table solves each radius once and
    keeps its L: a radius asked again gets the bits of its first solve.  A
    solve that raises is not kept.
    """

    def __init__(self, profile: "BaseProfile"):
        self.profile, self.h = profile, _PANEL_WIDTH
        self.cum_dist = np.zeros(1)
        self._solved: dict[float, float] = {}

    @property
    def panels(self) -> int:
        return len(self.cum_dist) - 1

    def _grow(self) -> None:
        n = self.panels
        m = max(2 * n, _FIRST_PANELS)
        if m > _MAX_PANELS:
            raise NoConvergence(f"radial distance stays under {self.cum_dist[-1]:.6g} "
                                f"up to L = {self.profile.L0 + n * self.h:g}")
        half = 0.5 * self.h
        mids = self.profile.L0 + self.h * np.arange(n, m) + half
        nodes = mids[:, None] + half * _GL_X
        d = self.cum_dist[-1] + np.cumsum(half * (self.profile.sqrt_g_radial(nodes) @ _GL_W))
        if not np.isfinite(d).all():
            raise NoConvergence("radial integrand not finite on "
                                f"[{mids[0] - half:g}, {mids[-1] + half:g}]")
        self.cum_dist = np.concatenate([self.cum_dist, d])

    def _panel(self, L: float) -> tuple[int, float]:
        """Index and left edge of the panel holding L, growing the table to it."""
        while L > self.profile.L0 + self.panels * self.h:
            self._grow()
        j = min(max(int((L - self.profile.L0) // self.h), 0), self.panels - 1)
        return j, self.profile.L0 + j * self.h

    def dist_at(self, L: float) -> float:
        j, edge = self._panel(L)
        return float(self.cum_dist[j]) + _gauss(self.profile.sqrt_g_radial, edge, L)

    def invert(self, r: float) -> float:
        """L with dist_at(L) = r, solved on the first ask for r."""
        r = float(r)
        L = self._solved.get(r)
        if L is None:
            L = self._solved[r] = self._solve(r)
        return L

    def _solve(self, r: float) -> float:
        """Linear interpolation between the panel edges around r, then Newton
        steps kept inside that panel."""
        while self.cum_dist[-1] < r:
            self._grow()
        j = min(max(int(np.searchsorted(self.cum_dist, r, side="right")) - 1, 0),
                self.panels - 1)
        lo = self.profile.L0 + j * self.h
        hi = lo + self.h
        d0, d1 = float(self.cum_dist[j]), float(self.cum_dist[j + 1])
        L = lo + self.h * (r - d0) / (d1 - d0) if d1 > d0 else lo
        for _ in range(_NEWTON_STEPS):
            slope = float(self.profile.sqrt_g_radial(L))
            if not slope > 0:
                raise NoConvergence(f"radial integrand {slope} at L = {L:g}")
            step = (self.dist_at(L) - r) / slope
            L = min(max(L - step, lo), hi)
            if abs(step) <= 1e-13 * max(abs(L), 1.0):
                return L
        raise NoConvergence(f"radial inversion of r = {r:g} did not converge")


@dataclass(frozen=True)
class BaseProfile:
    """Radial data of a star-like base metric, parameterized by L = -log|z|.

    sqrt_g_radial(L) integrates to the radial distance; area_density(L) is
    the area element per unit L and unit angle, and area(L) its
    antiderivative, so volume(L) = eps 2 pi (area(L) - area(L0)).  The
    densities take and return numpy arrays, and keep every exponential
    factor explicit so no |z| power is ever materialized.

    A profile with `power_law = (cr, m)` has sqrt_g_radial = cr L^m, and
    its distance integrates and inverts in closed form.  Any other profile
    integrates its distance once: a cumulative table of 8-point
    Gauss-Legendre panels of width 0.5 in L is built on first use and
    doubled until it covers the largest L or radius asked for.  dist adds
    the partial panel to the cumulative sum; invert_dist interpolates
    between panel edges and finishes with Newton steps, using
    sqrt_g_radial as the derivative.  The table's entries do not depend on
    the order of the requests, so a profile answers each as a fresh one
    would, and the table solves each radius once: an ask it has answered
    reads the kept L.  The table is not a field, so `dataclasses.replace`
    gives a copy that builds its own.
    """

    L0: float
    sqrt_g_radial: Callable[[np.ndarray], np.ndarray]
    area_density: Callable[[np.ndarray], np.ndarray]
    area: Callable[[float], float]
    eps: float
    power_law: Optional[tuple[float, float]] = None

    @cached_property
    def _table(self) -> _PanelTable:
        return _PanelTable(self)

    def dist(self, L: float) -> float:
        if self.power_law is None:
            return self._table.dist_at(L)
        cr, m = self.power_law
        return cr * (L ** (m + 1) - self.L0 ** (m + 1)) / (m + 1)

    def volume(self, L: float) -> float:
        return self.eps * (2 * math.pi) * (self.area(L) - self.area(self.L0))

    def invert_dist(self, r: float) -> float:
        if self.power_law is None:
            return self._table.invert(r)
        cr, m = self.power_law
        return (self.L0 ** (m + 1) + (m + 1) * r / cr) ** (1.0 / (m + 1))


def _power_profile(L0: float, eps: float, cr: float, m: float, ca: float,
                   n: float) -> BaseProfile:
    return BaseProfile(L0=L0, sqrt_g_radial=lambda L: cr * L ** m,
                       area_density=lambda L: ca * L ** n,
                       area=lambda L: ca * L ** (n + 1) / (n + 1), eps=eps,
                       power_law=(cr, m))


def base_profile(pm: ProductModel, eps: float, vf: VolumeFormSpec) -> BaseProfile:
    """Closed-form radial profile of a star-like product model."""
    cls = classify_asymptotics(pm)
    k0 = abs(vf.k0)
    L0 = math.log(2.0)
    if cls.kind == "ALH_star":
        b1, b2 = pm.left.b, pm.right.b
        cr = math.sqrt(2.0 * b1 * b2) * k0 / (math.pi * eps)
        ca = 2.0 * b1 * b2 * k0 ** 2 / (math.pi ** 2 * eps ** 2)
        return _power_profile(L0, eps, cr, 1, ca, 2)
    if cls.kind == "ALG_star":
        b = pm.left.b
        i2 = pm.right_model.modulus_limit.imag
        # right-factor pairing: I2 (1 - e^{-q L}) e^{-2 a2 L / k}
        q = correction_exponent(pm.right)
        w = 2.0 + float(cls.angle_over_pi)    # B e^{-2L} = C L (1-e^{-qL}) e^{(w-2) L}
        c2 = 2.0 * b * k0 ** 2 * i2 / (math.pi * eps ** 2)
        exp_half = 0.5 * (w - 2.0)

        def sqrtg(L: np.ndarray) -> np.ndarray:
            return np.sqrt(2.0 * c2 * L * (1.0 - np.exp(-q * L))) * np.exp(exp_half * L)

        def areaden(L: np.ndarray) -> np.ndarray:
            return 2.0 * c2 * L * (1.0 - np.exp(-q * L)) * np.exp((w - 2.0) * L)

        # int L e^{cL} dL = e^{cL} (L/c - 1/c^2), at c = e1 = w - 2 and
        # c = e2 = w - 2 - q, both nonzero for every allowed multiplicity
        e1, e2 = w - 2.0, w - 2.0 - q

        def area(L: float) -> float:
            return 2.0 * c2 * (math.exp(e1 * L) * (L / e1 - 1.0 / e1 ** 2)
                               - math.exp(e2 * L) * (L / e2 - 1.0 / e2 ** 2))

        return BaseProfile(L0=L0, sqrt_g_radial=sqrtg, area_density=areaden, area=area,
                           eps=eps)
    raise Unsupported(f"no radial profile for {cls.kind}")


def volume_growth_fit(profile: BaseProfile,
                      radii: Sequence[float]) -> tuple[DecayFit, list[tuple[float, float]]]:
    """Fit log Vol(B(x0, r)) against log r over all the given radii."""
    rows = [(float(r), profile.volume(profile.invert_dist(float(r)))) for r in radii]
    vols = np.array([v for _, v in rows])
    # no volume is noise and none makes a fit flat
    return fit_decay(0.0, radii, vols, np.full(len(rows), True), flat_below=-math.inf), rows


# width of the clause-2 containment regions: the annulus ((1 - w) L, L) of a
# ray-collapse model, the radial depth log(1 + w) and angle 2 w of a cone
_SOB_SHRINK = 0.1


def sob_check(profile: BaseProfile, beta: float, cone: str,
              radii: Sequence[float]) -> dict:
    """Numeric check of the volume-growth clauses of the SOB(beta) condition.

    Clause (1): Vol(B(x0, R)) <= C R^beta -- reports sup of Vol/R^beta.
    Clause (2): Vol(B(x, d/2)) >= d^beta / C for far points x -- reports inf
    of the contained-region volume over d^beta, using the containment region
    of the classified tangent cone `cone` (a log-annulus for a "ray", a thin
    annulus sector for a "cone").  The annulus-connectivity clause is not
    computed: it is taken as structural for a circle-fibered base, and
    `connectivity` says so.  Fewer than 2 radii raise FitRejected: one
    radius cannot show that a constant is stable.
    """
    if len(radii) < 2:
        raise FitRejected(f"{len(radii)} radius in the window; the clause constants "
                          "need at least 2 to be stable")
    c1 = []
    c2 = []
    for r in radii:
        L = profile.invert_dist(float(r))
        vol = profile.volume(L)
        c1.append(vol / float(r) ** beta)
        # each region is the fraction `frac` of the annulus inner .. L
        if cone == "ray":       # ray collapse: full annulus (1-shrink) L .. L
            inner, frac = (1 - _SOB_SHRINK) * L, 1.0
        else:                   # cone: thin annulus, angular fraction shrink/pi
            inner, frac = L - math.log(1 + _SOB_SHRINK), _SOB_SHRINK / math.pi
        c2.append(frac * (vol - profile.volume(inner)) / float(r) ** beta)
    # numpy folds: a NaN constant reaches the report, where Python's max drops it
    c1, c2 = np.array(c1), np.array(c2)
    return {
        "beta": beta,
        "clause1_sup": float(c1.max()), "clause1_inf": float(c1.min()),
        "clause2_sup": float(c2.max()), "clause2_inf": float(c2.min()),
        "clause1_stable": float(c1.max() / c1.min()),
        "clause2_stable": float(c2.max() / c2.min()),
        "connectivity": "annulus connectivity not computed; taken as structural "
                        "for a circle-fibered base",
    }


# ---------------------------------------------------------------------------
# tangent cones
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeDescription:
    limit_coefficient: float
    measured: tuple[float, ...]


def _cauchy_ok(vals: Sequence[float], tol: float = 0.02) -> bool:
    return all(abs(vals[i + 1] / vals[i] - 1.0) < tol for i in range(len(vals) - 1))


_CONE_DECADES = 4           # rescalings a tangent cone is read from


def tangent_cone(pm: ProductModel, eps: float, vf: VolumeFormSpec) -> ConeDescription:
    """Tangent cone at infinity via the model's rescaling maps.

    ALG models: exact cone of angle 2 (alpha+beta-k) pi / k, read off the
    chart sector; the pulled base coefficient is verified to converge to
    its flat value 1/2.  ALH models: ray.  Star-like models: the explicit
    rescaling maps are evaluated at four decades of the scale
    parameter and the rescaled coefficient must be Cauchy.
    """
    cls = classify_asymptotics(pm)
    if cls.kind in ("ALG", "ALH"):
        chart = to_chart(pm, eps, vf)
        radii = [10.0 ** (2 + i) if chart.kind == "power" else 8.0 * (i + 1)
                 for i in range(_CONE_DECADES)]
        alphas = _fit_radii(chart, radii)
        vals = chart.pulled_h(np.array(alphas), (0j, 0j))[:, 0, 0].real.tolist()
        if not _cauchy_ok(vals):
            raise NoConvergence(f"chart base coefficient not Cauchy: {vals}")
        return ConeDescription(limit_coefficient=vals[-1], measured=tuple(vals))
    profile = base_profile(pm, eps, vf)        # star-like from here on
    if cls.kind == "ALH_star":
        s_par = 1.7
        vals = []
        for i in range(_CONE_DECADES):
            lam = 10.0 ** (-4 - 2 * i)
            t = math.sqrt(s_par / lam)
            L = t + math.log(2.0)
            grr = profile.area_density(L)     # 2 B |z|^2: the Riemannian (dt, dt) coefficient
            vals.append(lam ** 2 * grr / (4 * lam * s_par))
        if not _cauchy_ok(vals):
            raise NoConvergence(f"ray rescaling not Cauchy: {vals}")
        return ConeDescription(limit_coefficient=vals[-1], measured=tuple(vals))
    # ALG_star: Phi_lambda(alpha) = (alpha/alpha_lam)^{-P} with P the cone
    # power (the angle is 2 pi / P), alpha_lam -> 0 and
    # lam = alpha_lam |log alpha_lam|^{-1/2}
    P = float(2 / cls.angle_over_pi)
    a0 = 2.0
    vals = []
    xs = []
    for i in range(_CONE_DECADES):
        al = 10.0 ** (-(5 + 8 * i))
        L = P * (math.log(a0) - math.log(al))
        Bz2 = 0.5 * profile.area_density(L)          # B e^{-2L}
        lam_sq = al ** 2 / abs(math.log(al))
        vals.append(lam_sq * Bz2 * P ** 2 / a0 ** 2)
        xs.append(1.0 / abs(math.log(al)))
    if not _cauchy_ok(vals, tol=0.25):
        raise NoConvergence(f"cone rescaling not Cauchy: {vals}")
    # the limit is approached affinely in 1/|log alpha_lam|
    _, intercept, _ = _ols(np.asarray(xs), np.asarray(vals))
    return ConeDescription(limit_coefficient=intercept, measured=tuple(vals))


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
    P = float(2 / cls.angle_over_pi)        # cone power; angle is 2 pi / P
    return 2.0 * b * abs(vf.k0) ** 2 * i2 * P ** 3 / (math.pi * eps ** 2)
