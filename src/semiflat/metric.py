"""Pointwise semi-flat metric evaluation and the Monge-Ampere identity.

The Kahler form is represented by its Hermitian coefficient matrix h in the
coordinate coframe (dz, dv1, ..., dvm), assembled from

    base   B = |g_eff|^2 / prod_j F_j,
    fiber  F_j = eps / (2 nu_j Im(conj(tau) tau')_j),
    mixed  h[0, j] = -F_j Gamma^j,  h[j, 0] = -F_j conj(Gamma^j),

with the flat-connection Christoffel symbols Gamma^j in closed form.  The
determinant identity det h = |g_eff|^2 is the coordinate form of the
Calabi-Yau condition omega^{m+1} = const * Omega wedge conj(Omega); the
wedge constant is pinned once by the flat calibration case instead of
rederiving sign conventions (the m = 1 and m = 2 normalizations of the
source construction differ, and calibration removes that risk).  For m = 1
the effective volume coefficient is g/sqrt(2), matching the hyperkahler
normalization omega^2 = Omega wedge conj(Omega) built from Omega/sqrt(2).

The periods, F_j, g_eff and B depend on the base point alone
(`base_terms`); Gamma^j and the entries of h also depend on v
(`hermitian_entries`).  A caller that evaluates many fiber points over one
base point computes the first part once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DegenerateLattice, SingularPeriods
from .kodaira import FiberKind, FiberType, LocalModel, ProductModel, PuncturedPoint

Model = Union[LocalModel, ProductModel]


@dataclass(frozen=True)
class VolumeFormSpec:
    """Holomorphic volume coefficient g(z) = k(z)/z^2 with k(0) = k0 != 0.

    k defaults to the constant k0; polynomial higher terms may be supplied
    as coeffs = (c1, c2, ...) meaning k(z) = k0 + c1 z + c2 z^2 + ...
    """

    k0: complex = 1.0 + 0j
    coeffs: tuple[complex, ...] = ()

    def __post_init__(self):
        if self.k0 == 0:
            raise ValueError("k0 must be nonzero")

    def k(self, z: complex) -> complex:
        acc = complex(self.k0)
        for i, c in enumerate(self.coeffs, start=1):
            acc += c * z ** i
        return acc

    def g(self, z: complex) -> complex:
        return self.k(z) / z ** 2


@dataclass(frozen=True)
class MetricSample:
    """A point together with the Hermitian matrix of omega and the Omega coefficient."""

    point: PuncturedPoint
    v: tuple[complex, ...]
    h: np.ndarray
    omega_coeff: complex      # effective holomorphic volume coefficient g_eff
    eps: float
    m: int


def period_maps(model: Model):
    """(tau, dtau/ds) as functions of the cover coordinate s, for either model kind.

    `period_maps(model)[0](pt.s)` is the period vector alone, for callers
    that need no derivative.
    """
    if model.m == 1:
        return model.tau, model.dtau_ds
    return model.tau4, model.dtau4_ds


def periods_at(model: Model, pt: PuncturedPoint):
    """Period vector and its z-derivative at a cover point."""
    s = pt.s
    tau_of, dtau_of = period_maps(model)
    tau = tau_of(s)
    dts = dtau_of(s)
    dz_ds = pt.d * s ** (pt.d - 1)
    dtau_dz = tuple(d / dz_ds for d in dts)
    return tau, dtau_dz


def _im_pair(a: complex, b: complex) -> float:
    return (a.conjugate() * b).imag


def _fiber_terms(model: Model, pt: PuncturedPoint, periods, eps: float | None = None,
                 ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Fiber coefficients F_j = eps / (2 nu_j Im(conj(tau_1) tau_2)_j) when
    eps is given, and the pairings Im(conj(tau_1) tau_2)_j.

    `periods` is the (tau, dtau/dz) pair of periods_at at pt, computed once
    by the caller.  Raises DegenerateLattice unless every pairing is
    positive.
    """
    if eps is not None and eps <= 0:
        raise ValueError("eps must be positive")
    tau = periods[0]
    nu = getattr(model, "nu", (1,) * model.m)
    F, imp = [], []
    for j in range(model.m):
        p = _im_pair(tau[2 * j], tau[2 * j + 1])
        if p <= 0:
            raise DegenerateLattice(f"Im pairing {j} non-positive at s={pt.s}")
        imp.append(p)
        if eps is not None:
            F.append(eps / (2.0 * nu[j] * p))
    return tuple(F), tuple(imp)


def _christoffel(periods, imp: Sequence[float], v: Sequence[complex]) -> list[complex]:
    tau, dt = periods
    gamma = []
    for j, p in enumerate(imp):
        gamma.append((_im_pair(tau[2 * j], v[j]) * dt[2 * j + 1]
                      - _im_pair(tau[2 * j + 1], v[j]) * dt[2 * j]) / p)
    return gamma


def christoffel_closed(model: Model, pt: PuncturedPoint,
                       v: Sequence[complex]) -> tuple[complex, ...]:
    """Closed-form Christoffel symbols of the flat lattice connection.

    Gamma^j = [Im(conj(tau_1) v_j) tau_2' - Im(conj(tau_2) v_j) tau_1'] /
    Im(conj(tau_1) tau_2), per fiber factor.
    """
    periods = periods_at(model, pt)
    return tuple(_christoffel(periods, _fiber_terms(model, pt, periods)[1], v))


def christoffel_general(tau: Sequence[complex], dtau_dz: Sequence[complex],
                        v: Sequence[complex]) -> tuple[complex, ...]:
    """Gamma = (dT/dz) (T; conj T)^{-1} (v; conj v) for an arbitrary family."""
    m = len(v)
    T = np.zeros((m, 2 * m), dtype=complex)
    dT = np.zeros((m, 2 * m), dtype=complex)
    for j in range(m):
        T[j, 2 * j: 2 * j + 2] = tau[2 * j: 2 * j + 2]
        dT[j, 2 * j: 2 * j + 2] = dtau_dz[2 * j: 2 * j + 2]
    stack = np.vstack([T, T.conj()])
    if np.linalg.cond(stack) > 1e12:
        raise SingularPeriods("stacked period matrix is numerically singular")
    vv = np.concatenate([np.asarray(v, dtype=complex),
                         np.asarray(v, dtype=complex).conj()])
    return tuple(dT @ np.linalg.solve(stack, vv))


def effective_g(model: Model, vf: VolumeFormSpec, z: complex) -> complex:
    """g_eff feeding the determinant identity: g for m=2, g/sqrt(2) for m=1."""
    g = vf.g(z)
    return g / math.sqrt(2.0) if model.m == 1 else g


def base_terms(model: Model, eps: float, vf: VolumeFormSpec, pt: PuncturedPoint) -> tuple:
    """The terms of metric_at that depend on the base point alone:
    (periods, pairings, F, g_eff, B), with the periods of periods_at, the
    pairings Im(conj(tau_1) tau_2)_j, the fiber coefficients F_j and the
    base coefficient B = |g_eff|^2 / prod_j F_j.

    Raises DegenerateLattice outside the model's validity disk.
    """
    periods = periods_at(model, pt)
    F, imp = _fiber_terms(model, pt, periods, eps)
    g_eff = effective_g(model, vf, pt.z)
    return periods, imp, F, g_eff, abs(g_eff) ** 2 / math.prod(F)


def hermitian_entries(base: tuple, v: Sequence[complex]) -> list[complex]:
    """Entries of the Hermitian matrix h at fiber coordinates v, row by row,
    as Python numbers; `base` is what base_terms gives at the base point."""
    periods, imp, F, _, B = base
    m = len(F)
    h = [0] * ((m + 1) * (m + 1))
    fiber = []
    for j, gamma in enumerate(_christoffel(periods, imp, v)):
        fiber.append(F[j] * abs(gamma) ** 2)
        h[j + 1] = -F[j] * gamma
        h[(j + 1) * (m + 1)] = -F[j] * gamma.conjugate()
        h[(j + 1) * (m + 2)] = F[j]
    h[0] = B + sum(fiber)
    return h


def metric_at(model: Model, eps: float, vf: VolumeFormSpec,
              pt: PuncturedPoint, v: Sequence[complex]) -> MetricSample:
    """Assemble the semi-flat Hermitian matrix at a cover point.

    Valid while both Im pairings are positive (inside the model's validity
    disk); raises DegenerateLattice otherwise.
    """
    m = model.m
    if len(v) != m:
        raise ValueError(f"need {m} fiber coordinates")
    base = base_terms(model, eps, vf, pt)
    h = np.array(hermitian_entries(base, v), dtype=complex).reshape(m + 1, m + 1)
    return MetricSample(point=pt, v=tuple(v), h=h, omega_coeff=base[3], eps=eps, m=m)


def elliptic_metric_at(model: LocalModel, eps: float, vf: VolumeFormSpec,
                       pt: PuncturedPoint, v: complex) -> MetricSample:
    """m = 1 instance of metric_at (2 x 2 Hermitian matrix)."""
    return metric_at(model, eps, vf, pt, (v,))


_CALIBRATION: dict[int, float] = {}


def _flat_sample(m: int) -> MetricSample:
    # unit square lattices, g = 1, eps = 2: the calibration anchor
    def tau(s):
        return (1.0 + 0j, 1j)

    def dtau(s):
        return (0j, 0j)

    lm = LocalModel(fiber=FiberType(FiberKind.I0star), d=1, A=((1, 0), (0, 1)),
                    deck_exponent=0, coord_power=0, tau=tau, dtau_ds=dtau,
                    deck_multiplier=lambda s: 1.0 + 0j, deck_tau=tau,
                    modulus_limit=1j)
    pt = PuncturedPoint(s=0.5 + 0j, d=1)
    vf = VolumeFormSpec(k0=0.25 + 0j)   # g(z) = 1 at z = 1/2
    if m == 1:
        return metric_at(lm, 2.0, vf, pt, (0.1 + 0.1j,))
    pm = ProductModel(left=lm.fiber, right=lm.fiber, left_model=lm,
                      right_model=lm, k=1, alpha=0, beta=0, a1=0, a2=0,
                      label_override="flat calibration")
    return metric_at(pm, 2.0, vf, pt, (0.1 + 0.1j, 0.2 - 0.1j))


def calibration_constant(m: int) -> float:
    """Wedge constant c with c det(h) = |g_eff|^2, fixed by the flat case."""
    if m not in _CALIBRATION:
        sample = _flat_sample(m)
        det = np.linalg.det(sample.h).real
        _CALIBRATION[m] = abs(sample.omega_coeff) ** 2 / det
    return _CALIBRATION[m]


def ma_residual(sample: MetricSample) -> float:
    """Relative residual of the Monge-Ampere determinant identity.

    Returns |c det(h) - |g_eff|^2| / |g_eff|^2; zero means the Calabi-Yau
    identity holds exactly at this point.
    """
    c = calibration_constant(sample.m)
    det = np.linalg.det(sample.h).real
    target = abs(sample.omega_coeff) ** 2
    return abs(c * det - target) / target
