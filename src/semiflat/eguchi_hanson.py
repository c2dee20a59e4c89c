"""Eguchi-Hanson potential on the C^3/Z_3 resolution model and cutoff gluing.

The closed forms, with u = |z|^2:

    f_a(u)   = (a^3 + u^3)^(1/3)
               + (a/3) sum_j zeta3^j log((1 + u^3/a^3)^(1/3) - zeta3^j)
    f_a'(u)  = (1 + a^3/u^3)^(1/3),   f_a''(u) = -a^3 u^-4 (1 + a^3/u^3)^(-2/3)
    g_{i jbar} = f_a'(u) (delta_ij - a^3/(a^3+u^3) * conj(z_i) z_j / u).

f_a is the global Kahler potential of g (f' equals the conformal factor
exactly, and det g = 1 identically by the rank-one update identity).  The
glued potential Phi_a = u + chi (f_a - u) interpolates to the flat one
through the smooth step chi = 1/(1 + e^q), q = 1/(1-t) - 1/t,
t = (u-1)/delta, whose derivatives vanish to all orders at both ends of the
annulus.  Every function of u or z takes a number or a numpy array.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

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


def eh_potential(cfg: EHConfig, u):
    """Kahler potential f_a(u); the conjugate log pair is folded to 2 Re."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ValueError("u must be positive")
    a = cfg.a
    y = (1.0 + (u / a) ** 3) ** (1.0 / 3.0)
    head = (a ** 3 + u ** 3) ** (1.0 / 3.0)
    logs = np.log(y - 1.0) + 2.0 * (_ZETA3 * np.log(y - _ZETA3)).real
    return head + (a / 3.0) * logs


def eh_metric(cfg: EHConfig, z) -> np.ndarray:
    """Closed-form EH metric at z in C^3 \\ {0}: a (..., 3) stack of points
    gives the (..., 3, 3) stack of matrices."""
    z = np.asarray(z, dtype=complex)
    u = np.sum(np.abs(z) ** 2, axis=-1)
    if np.any(u == 0):
        raise OriginSingular("EH closed form is singular at the origin")
    a3 = cfg.a ** 3
    phi = (1.0 + a3 / u ** 3) ** (1.0 / 3.0)
    lam = a3 / ((a3 + u ** 3) * u)
    outer = z.conj()[..., :, None] * z[..., None, :]
    return phi[..., None, None] * (np.eye(3) - lam[..., None, None] * outer)


def _cutoff(cfg: EHConfig, u):
    """(chi, chi', chi'') of the smooth step: (1, 0, 0) for u <= 1 and
    (0, 0, 0) for u >= 1 + delta.

    chi is the logistic of q written through e^-|q|, which cannot overflow.
    t is clipped to [1e-3, 1 - 1e-3]: there e^-|q| <= e^-998 already
    underflows to 0, so the clip changes no value and keeps 1/t^3 finite.
    """
    d = cfg.delta
    t = np.clip((np.asarray(u, dtype=float) - 1.0) / d, 1e-3, 1.0 - 1e-3)
    q = 1.0 / (1.0 - t) - 1.0 / t
    q1 = 1.0 / (1.0 - t) ** 2 + 1.0 / t ** 2
    q2 = 2.0 / (1.0 - t) ** 3 - 2.0 / t ** 3
    e = np.exp(-np.abs(q))
    chi = np.where(q > 0, e, 1.0) / (1.0 + e)
    s = e / (1.0 + e) ** 2                     # chi (1 - chi)
    d1 = -s * q1 / d
    d2 = -((1.0 - 2.0 * chi) * d1 * q1 + s * q2 / d) / d
    return chi, d1, d2


def glued_metric_eigenvalues(cfg: EHConfig, u):
    """Eigenvalues of the complex Hessian of Phi_a(|z|^2): (Phi', Phi' + u Phi'').

    The Hessian of a radial potential is Phi' I + Phi'' conj(z) z^t, so its
    spectrum is Phi' (multiplicity 2) and Phi' + u Phi''.  From
    Phi = u + chi (f - u):

        Phi'  = 1 + chi' (f - u) + chi (f' - 1)
        Phi'' = chi'' (f - u) + 2 chi' (f' - 1) + chi f''
    """
    u = np.asarray(u, dtype=float)
    df = eh_potential(cfg, u) - u
    a3 = cfg.a ** 3
    w = 1.0 + a3 / u ** 3
    f1 = w ** (1.0 / 3.0)
    f2 = -a3 / u ** 4 * w ** (-2.0 / 3.0)
    chi, c1, c2 = _cutoff(cfg, u)
    d1 = 1.0 + c1 * df + chi * (f1 - 1.0)
    d2 = c2 * df + 2.0 * c1 * (f1 - 1.0) + chi * f2
    return d1, d1 + u * d2


def glued_positive(cfg: EHConfig) -> bool:
    """Positivity sweep of the glued Hessian over u in [0.5, 1 + delta + 0.5],
    at the midpoints of 160 equal cells."""
    u = 0.5 + (cfg.delta + 1.0) * (np.arange(160) + 0.5) / 160
    return bool(np.all(np.minimum(*glued_metric_eigenvalues(cfg, u)) > 0))


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
                         r_max: float) -> np.ndarray:
    """n seeded points z in C^3 with |z|^2 in [r_min, r_max], as an (n, 3)
    array.  Each point takes 7 draws: Re and Im in [-1, 1] of each of the 3
    direction components, then |z|^2."""
    x = rng.uniforms(7 * n).reshape(n, 7)
    v = -1.0 + 2.0 * x[:, :6]
    v = v[:, 0::2] + 1j * v[:, 1::2]
    u = r_min + (r_max - r_min) * x[:, 6]
    return v * (np.sqrt(u) / np.linalg.norm(v, axis=1))[:, None]


def gluing_report(cfg: EHConfig, rng: SplitMix64) -> dict:
    """Quantitative closeness/positivity summary of the gluing.

    Keys: min eigenvalue of the glued Hessian over 24 shell samples drawn
    from rng, maximum |det g - 1| inside u <= 1, and the empirical a_max for
    this delta.
    """
    z = sphere_shell_samples(rng, 24, 0.5, 1.0 + cfg.delta + 0.5)
    u = np.sum(np.abs(z) ** 2, axis=-1)
    det = np.linalg.det(eh_metric(cfg, z[u <= 1.0])).real
    return {
        "min_eigenvalue": float(np.min(np.minimum(*glued_metric_eigenvalues(cfg, u)))),
        "max_det_residual_inside": float(np.max(np.abs(det - 1.0), initial=0.0)),
        "a_max": a_max(cfg.delta),
    }
