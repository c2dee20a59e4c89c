"""Weierstrass wp for the I_b local model and its Kodaira cubic.

The lattice is Lambda(z) = Z + Z (b / 2 pi i) log z, which equals the
q = z^b lattice of the nodal-degeneration family.  wp is computed by a
direct lattice sum over a centrally symmetric index box, plus the analytic
Laurent tail

    sum_{|lam| > R} [1/(v-lam)^2 - 1/lam^2]
      = 3 v^2 S_4 + 5 v^4 S_6 + 7 v^6 S_8 + 9 v^8 S_10 + O(v^10 S_12),
    S_p = G_p - sum_{|lam| <= R} lam^{-p},

so doubling the cut radius moves the value at the 1e-13 level already for
modest R.  G_4 and G_6 come from the model's own q-series through the
normalization bridge fixed by matching the cubic (see below); G_8, G_10
follow from the classical recursion.  Argument reduction into the
fundamental cell uses a Gauss-reduced basis.

Normalization bridge (fixed by matching the Kodaira cubic
Y^2 = 4X^3 + X^2 - g2 X - g3 under X = -1/12 - wp/(4 pi^2),
Y = i wp'/(8 pi^3)):

    60 G_4  = (4 pi^4 / 3)  (1 + 12 g2(q))
    140 G_6 = (8 pi^6 / 27) (1 + 18 g2(q)) - 64 pi^6 g3(q).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BranchPoint, NotConvergent, PolePoint

_SERIES_TOL = 1e-14
_POLICY_RADIUS = 0.95
_RADIUS = 30.0           # lattice points with |lam| <= _RADIUS are summed directly
_POLE_TOL = 1e-8         # an argument this close to a lattice point is a pole


@dataclass(frozen=True)
class EllipticData:
    """I_b lattice data: basis (1, (b/2 pi i) log z) at a base point z."""

    z: complex
    b: int = 1

    def __post_init__(self):
        if not (0 < abs(self.z) < 1):
            raise ValueError("need 0 < |z| < 1")
        if self.b < 1:
            raise ValueError("b must be >= 1")

    @property
    def tau(self) -> complex:
        return self.b * cmath.log(self.z) / (2j * math.pi)

    @property
    def q(self) -> complex:
        return self.z ** self.b


def g2_series(z: complex) -> complex:
    """g2(z) = 20 sum n^3 z^n / (1 - z^n), truncated by its geometric tail."""
    return _qseries(z, lambda n: 20.0 * n ** 3)


def g3_series(z: complex) -> complex:
    """g3(z) = (1/3) sum (7 n^5 + 5 n^3) z^n / (1 - z^n)."""
    return _qseries(z, lambda n: (7.0 * n ** 5 + 5.0 * n ** 3) / 3.0)


def _qseries(z: complex, coeff) -> complex:
    if abs(z) >= 1:
        raise NotConvergent("q-series diverges for |z| >= 1")
    if abs(z) > _POLICY_RADIUS:
        raise NotConvergent(f"|z| > {_POLICY_RADIUS}: outside the tail-bound policy disk")
    if z == 0:
        return 0j
    acc = 0j
    r = abs(z)
    n = 1
    while True:
        term = coeff(n) * z ** n / (1 - z ** n)
        acc += term
        # geometric tail bound: remaining terms < coeff(n+1) r^{n+1}/(1-r)^2-ish
        if n > 4 and coeff(n + 1) * r ** (n + 1) / (1 - r) < _SERIES_TOL:
            break
        n += 1
        if n > 20000:  # unreachable inside the policy disk
            raise NotConvergent("series failed to converge")
    return acc


def eisenstein_g4_g6(q: complex) -> tuple[complex, complex]:
    """G_4 and G_6 of the lattice Z + Z tau, q = e^{2 pi i tau}, via the bridge."""
    g2 = g2_series(q)
    g3 = g3_series(q)
    gh2 = (4 * math.pi ** 4 / 3) * (1 + 12 * g2)
    gh3 = (8 * math.pi ** 6 / 27) * (1 + 18 * g2) - 64 * math.pi ** 6 * g3
    return gh2 / 60.0, gh3 / 140.0


def gauss_reduce(w1: complex, w2: complex) -> tuple[complex, complex]:
    """Gauss-reduced basis (shortest vectors first) of Z w1 + Z w2."""
    a, b = w1, w2
    if abs(a) < abs(b):
        a, b = b, a
    for _ in range(64):
        mu = round((a * b.conjugate()).real / abs(b) ** 2)
        a = a - mu * b
        if abs(a) >= abs(b):
            break
        a, b = b, a
    return b, a  # shortest first


def reduce_argument(v: complex, w1: complex, w2: complex) -> complex:
    """Representative of v modulo the lattice with near-minimal norm."""
    b1, b2 = gauss_reduce(w1, w2)
    det = (b1.real * b2.imag - b1.imag * b2.real)
    c1 = (v.real * b2.imag - v.imag * b2.real) / det
    c2 = (b1.real * v.imag - b1.imag * v.real) / det
    v0 = v - round(c1) * b1 - round(c2) * b2
    best = v0
    for m in (-1, 0, 1):
        for n in (-1, 0, 1):
            cand = v0 - m * b1 - n * b2
            if abs(cand) < abs(best):
                best = cand
    return best


@lru_cache(maxsize=256)
def _box(w1: complex, w2: complex, radius: float) -> tuple:
    b1, b2 = gauss_reduce(w1, w2)
    n1 = int(radius / abs(b1)) + 2
    n2 = int(radius / abs(b2)) + 2
    m, n = np.meshgrid(np.arange(-n1, n1 + 1), np.arange(-n2, n2 + 1), indexing="ij")
    lam = m * b1 + n * b2
    mask = (np.abs(lam) > 1e-12) & (np.abs(lam) <= radius)
    lam = np.ascontiguousarray(lam[mask])
    il2 = 1.0 / lam ** 2
    il4 = il2 * il2
    il6 = il4 * il2
    s = {2: il2.sum(), 4: il4.sum(), 6: il6.sum(),
         8: (il6 * il2).sum(), 10: (il6 * il4).sum()}
    return lam, s


def _tail_sums(w1: complex, w2: complex, radius: float,
               G4: complex, G6: complex) -> dict[int, complex]:
    _, s = _box(w1, w2, radius)
    G8 = (3.0 / 7.0) * G4 * G4
    G10 = (5.0 / 11.0) * G4 * G6
    return {4: G4 - s[4], 6: G6 - s[6], 8: G8 - s[8], 10: G10 - s[10]}


def wp_lattice(v: complex, w1: complex, w2: complex, G4: complex, G6: complex,
               radius: float = _RADIUS, reduce_v: bool = True) -> complex:
    """wp(v | Z w1 + Z w2) by tail-corrected direct summation over |lam| <= radius."""
    if reduce_v:
        v = reduce_argument(v, w1, w2)
    if abs(v) < _POLE_TOL:
        raise PolePoint(f"v is within {_POLE_TOL:g} of a lattice point")
    lam, _ = _box(w1, w2, radius)
    core = 1.0 / v ** 2 + np.sum(1.0 / (v - lam) ** 2 - 1.0 / lam ** 2)
    S = _tail_sums(w1, w2, radius, G4, G6)
    tail = 3 * v ** 2 * S[4] + 5 * v ** 4 * S[6] + 7 * v ** 6 * S[8] + 9 * v ** 8 * S[10]
    return complex(core + tail)


def wp_prime_lattice(v: complex, w1: complex, w2: complex, G4: complex,
                     G6: complex) -> complex:
    """wp'(v) = -2 sum (v - lam)^{-3} with the analogous tail correction."""
    v = reduce_argument(v, w1, w2)
    if abs(v) < _POLE_TOL:
        raise PolePoint(f"v is within {_POLE_TOL:g} of a lattice point")
    lam, _ = _box(w1, w2, _RADIUS)
    core = -2.0 / v ** 3 + np.sum(-2.0 / (v - lam) ** 3)
    S = _tail_sums(w1, w2, _RADIUS, G4, G6)
    # -2 (v-lam)^{-3} = 2 lam^{-3} sum_j C(j+2, 2) (v/lam)^j; odd S vanish
    tail = 2 * (3 * v * S[4] + 10 * v ** 3 * S[6] + 21 * v ** 5 * S[8]
                + 36 * v ** 7 * S[10])
    return complex(core + tail)


def _lattice_of(ed: EllipticData) -> tuple[complex, complex, complex, complex]:
    w1, w2 = 1.0 + 0j, ed.tau
    G4, G6 = eisenstein_g4_g6(ed.q)
    return w1, w2, G4, G6


def wp(ed: EllipticData, v: complex, radius: float = _RADIUS) -> complex:
    """Weierstrass wp for the I_b lattice at base point z."""
    w1, w2, G4, G6 = _lattice_of(ed)
    return wp_lattice(v, w1, w2, G4, G6, radius)


def wp_prime(ed: EllipticData, v: complex) -> complex:
    w1, w2, G4, G6 = _lattice_of(ed)
    return wp_prime_lattice(v, w1, w2, G4, G6)


def kodaira_xy(ed: EllipticData, v: complex) -> tuple[complex, complex]:
    """Affine coordinates of the embedding into the Kodaira cubic."""
    x = -1.0 / 12.0 - wp(ed, v) / (4 * math.pi ** 2)
    y = 1j * wp_prime(ed, v) / (8 * math.pi ** 3)
    return x, y


def cubic_residual(ed: EllipticData, v: complex) -> float:
    """|Y^2 - (4X^3 + X^2 - g2 X - g3)| at the image of v."""
    x, y = kodaira_xy(ed, v)
    g2 = g2_series(ed.q)
    g3 = g3_series(ed.q)
    return abs(y * y - (4 * x ** 3 + x * x - g2 * x - g3))


def volume_pullback_ratio(ed: EllipticData, v: complex) -> complex:
    """(dx/dv) / y divided by 2 pi i; the contract value is 1.

    dx/dv is measured by a fourth-order central finite difference of the
    embedding, of step 3e-4, so the check is independent of the closed form
    wp' = dx/dv * (-4 pi^2).
    """
    h = 3e-4
    w1, w2, G4, G6 = _lattice_of(ed)
    vr = reduce_argument(v, w1, w2)
    wprime = wp_prime(ed, vr)
    if abs(wprime) < 1e-8:
        raise BranchPoint("wp' vanishes: branch point of the cubic")

    def x_of(vv: complex) -> complex:
        return -1.0 / 12.0 - wp_lattice(vv, w1, w2, G4, G6, reduce_v=False) / (4 * math.pi ** 2)

    dxdv = (-x_of(vr + 2 * h) + 8 * x_of(vr + h)
            - 8 * x_of(vr - h) + x_of(vr - 2 * h)) / (12 * h)
    y = 1j * wprime / (8 * math.pi ** 3)
    return dxdv / y / (2j * math.pi)
