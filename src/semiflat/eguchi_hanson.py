"""Eguchi-Hanson potential on the C^3/Z_3 resolution model and cutoff gluing.

The closed forms:

    f_a(u)   = (a^3 + u^3)^(1/3)
               + (a/3) sum_j zeta3^j log((1 + u^3/a^3)^(1/3) - zeta3^j)
    g_{i jbar} = (1 + a^3/u^3)^(1/3)
                 (delta_ij - a^3/(a^3+u^3) * conj(z_i) z_j / u),   u = |z|^2.

f_a is the global Kahler potential of g (f' equals the conformal factor
exactly, and det g = 1 identically by the rank-one update identity).  The
glued potential interpolates to the flat one through a smooth cutoff whose
derivatives vanish to all orders at both ends of the annulus.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotPositive, OriginSingular
from .rng import SplitMix64

_ZETA3 = cmath.exp(2j * cmath.pi / 3)


@dataclass(frozen=True)
class EHConfig:
    """Gluing configuration: EH scale a, cutoff annulus [1, 1+delta]."""

    a: float
    delta: float = 1.0

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("a must be positive")
        if not (0 < self.delta <= 1):
            raise ValueError("delta must lie in (0, 1]")


def eh_potential(cfg: EHConfig, u: float) -> float:
    """Kahler potential f_a(u); the conjugate log pair is folded to 2 Re."""
    if u <= 0:
        raise ValueError("u must be positive")
    a = cfg.a
    y = (1.0 + (u / a) ** 3) ** (1.0 / 3.0)
    head = (a ** 3 + u ** 3) ** (1.0 / 3.0)
    logs = math.log(y - 1.0) + 2.0 * (_ZETA3 * cmath.log(y - _ZETA3)).real
    return head + (a / 3.0) * logs


def eh_metric(cfg: EHConfig, z: Sequence[complex]) -> np.ndarray:
    """Closed-form EH metric matrix at z in C^3 \\ {0}."""
    z = [complex(c) for c in z]
    u = sum(abs(c) ** 2 for c in z)
    if u == 0:
        raise OriginSingular("EH closed form is singular at the origin")
    a = cfg.a
    phi = (1.0 + a ** 3 / u ** 3) ** (1.0 / 3.0)
    lam = a ** 3 / ((a ** 3 + u ** 3) * u)
    g = np.empty((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            g[i, j] = phi * ((1.0 if i == j else 0.0) - lam * z[i].conjugate() * z[j])
    return g


def _bump(x: float) -> float:
    return math.exp(-1.0 / x) if x > 0 else 0.0


def cutoff(cfg: EHConfig, u: float) -> float:
    """Smooth step: 1 for u <= 1, 0 for u >= 1+delta, flat to all orders at both ends."""
    t = (u - 1.0) / cfg.delta
    if t <= 0:
        return 1.0
    if t >= 1:
        return 0.0
    lo, hi = _bump(1.0 - t), _bump(t)
    return lo / (lo + hi)


def glued_potential_u(cfg: EHConfig, u: float) -> float:
    """Phi_a(u) = u + chi(u) (f_a(u) - u); EH inside, flat outside the annulus."""
    chi = cutoff(cfg, u)
    if chi == 0.0:
        return u
    return u + chi * (eh_potential(cfg, u) - u)


def _radial_derivatives(cfg: EHConfig, u: float) -> tuple[float, float]:
    """(Phi', Phi'') by central differences of step 1e-5; exact enough for
    eigenvalue signs."""
    h = 1e-5
    up, mid, down = (glued_potential_u(cfg, v) for v in (u + h, u, u - h))
    d1 = (up - down) / (2 * h)
    d2 = (up - 2 * mid + down) / (h * h)
    return d1, d2


def glued_metric_eigenvalues(cfg: EHConfig, u: float) -> tuple[float, float]:
    """Eigenvalues of the complex Hessian of Phi_a(|z|^2): (Phi', Phi' + u Phi'').

    The Hessian of a radial potential is Phi' I + Phi'' conj(z) z^t, so its
    spectrum is Phi' (multiplicity 2) and Phi' + u Phi''.
    """
    d1, d2 = _radial_derivatives(cfg, u)
    return d1, d1 + u * d2


def glued_positive(cfg: EHConfig) -> bool:
    """Positivity sweep of the glued Hessian over u in [0.5, 1 + delta + 0.5],
    at the midpoints of 160 equal cells."""
    for i in range(160):
        u = 0.5 + (cfg.delta + 1.0) * (i + 0.5) / 160
        lo = min(glued_metric_eigenvalues(cfg, u))
        if lo <= 0:
            return False
    return True


def a_max(delta: float) -> float:
    """Largest EH scale up to 2 keeping the glued form positive, by 40
    bisection steps.  Raises NotPositive when the form is not positive even
    at a = 1e-4."""
    lo, hi = 1e-4, 2.0
    if not glued_positive(EHConfig(a=lo, delta=delta)):
        raise NotPositive("glued form not positive even for tiny a")
    if glued_positive(EHConfig(a=hi, delta=delta)):
        return hi
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if glued_positive(EHConfig(a=mid, delta=delta)):
            lo = mid
        else:
            hi = mid
    return lo


def sphere_shell_samples(rng: SplitMix64, n: int, r_min: float,
                         r_max: float) -> list[tuple[complex, complex, complex]]:
    """Seeded sample points on shells |z|^2 in [r_min, r_max]."""
    out = []
    for _ in range(n):
        v = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)])
        nrm = math.sqrt(sum(abs(c) ** 2 for c in v))
        u = rng.uniform(r_min, r_max)
        v = v * (math.sqrt(u) / nrm)
        out.append((v[0], v[1], v[2]))
    return out


def gluing_report(cfg: EHConfig, seed: int = 2024) -> dict:
    """Quantitative closeness/positivity summary of the gluing.

    Keys: min eigenvalue of the glued Hessian over 24 shell samples, maximum
    |det g - 1| inside u <= 1, and the empirical a_max for this delta.
    """
    rng = SplitMix64(seed)
    samples = sphere_shell_samples(rng, 24, 0.5, 1.0 + cfg.delta + 0.5)
    min_eig = math.inf
    for z in samples:
        u = sum(abs(c) ** 2 for c in z)
        min_eig = min(min_eig, min(glued_metric_eigenvalues(cfg, u)))
    max_det = 0.0
    for z in samples:
        u = sum(abs(c) ** 2 for c in z)
        if u <= 1.0:
            det = np.linalg.det(eh_metric(cfg, z)).real
            max_det = max(max_det, abs(det - 1.0))
    return {
        "min_eigenvalue": min_eig,
        "max_det_residual_inside": max_det,
        "a_max": a_max(cfg.delta),
    }
