"""Pointwise semi-flat metric evaluation and the Monge-Ampere identity.

The Kahler form is represented by its Hermitian coefficient matrix h in the
coordinate coframe (dz, dv1, ..., dvm), assembled from

    base   B = |g_eff|^2 / prod_j F_j,
    fiber  F_j = eps / (2 nu_j Im(conj(tau) tau')_j),
    mixed  h[0, j] = -F_j Gamma^j,  h[j, 0] = -F_j conj(Gamma^j),

with the flat-connection Christoffel symbols Gamma^j in closed form.  The
determinant identity det h = |g_eff|^2 is the coordinate form of the
Calabi-Yau condition omega^{m+1} = const * Omega wedge conj(Omega), and
it holds with constant 1 by construction: the Schur complement of the
fiber block diag(F_j) leaves h[0, 0] - sum_j F_j |Gamma^j|^2 = B, so
det h = B prod_j F_j = |g_eff|^2.  `ma_residual` measures that identity
directly, with no constant fitted from the code it checks.  For m = 1
the effective volume coefficient is g/sqrt(2), matching the hyperkahler
normalization omega^2 = Omega wedge conj(Omega) built from Omega/sqrt(2).

The periods, F_j, g_eff and B depend on the base point alone
(`base_terms`); Gamma^j and the entries of h also depend on v
(`hermitian_entries`).  A caller that evaluates many fiber points over one
base point computes the first part once.

Batch axis.  `periods_at`, `_fiber_terms`, `base_terms`,
`hermitian_entries`, `metric_at` and `christoffel_closed` take either one
point (a `PuncturedPoint` with a complex s, and complex fiber coordinates
v) or a batch of N points (s and every v_j 1-D arrays of length N).  The
same expressions run on both, after the array API standard
(https://data-apis.org/array-api/); a batch gives h with shape
(N, m+1, m+1) and g_eff with shape (N,).  `christoffel_general` solves the
(N, 2m, 2m) stack of a batch's period matrices at once.

Rounding.  Each expression is written once, in complex notation, and the
number type decides how it rounds.  A point runs on Python `complex` and
`cmath`, the reference.  A batch of `metric_at` (`ma`, `closedness`) runs
numpy's complex arrays from the period closures to h, so it may differ from
a scalar call in the last bits (docs/decisions.md, "`ma` and `closedness`
evaluate their points as one numpy batch"); so do the `periods_at`
batches of `christoffel` and `fiber_volume`.  Only
`AsymptoticChart.pulled_h` runs on `ComplexPairs`, float64 arrays whose
operators follow CPython 3.11's `complex` operation by operation and whose
namespace applies `cmath` per entry: its closures, `base_terms` and the
entries of h have the bits of a point at every position (docs/decisions.md,
"`curvature_decay` reproduces only bit for bit").
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DegenerateLattice, SingularPeriods
from .kodaira import LocalModel, ProductModel, PuncturedPoint, every

Model = Union[LocalModel, ProductModel]


@dataclass(frozen=True)
class VolumeFormSpec:
    """Holomorphic volume coefficient g(z) = k/z^2, with k the constant k0 != 0:
    Omega = (k0/z^2) dz dv."""

    k0: complex = 1.0 + 0j

    def __post_init__(self):
        if self.k0 == 0:
            raise ValueError("k0 must be nonzero")

    def k(self, z: complex) -> complex:
        """k(z) = k0 for every z."""
        return complex(self.k0)

    def g(self, z: complex) -> complex:
        return self.k(z) / z ** 2


@dataclass(frozen=True)
class MetricSample:
    """The Hermitian matrix of omega at a point and the Omega coefficient
    there; for a batch, the (N, m+1, m+1) stack and the (N,) coefficients."""

    h: np.ndarray
    omega_coeff: complex      # effective holomorphic volume coefficient g_eff


def periods_at(model: Model, pt: PuncturedPoint):
    """Period vector and its z-derivative at a cover point: `model.tau` and
    `model.dtau_ds`, two periods of a LocalModel or four of a ProductModel."""
    s = pt.s
    tau = model.tau(s)
    dts = model.dtau_ds(s)
    dz_ds = pt.d * s ** (pt.d - 1)
    dtau_dz = tuple(d / dz_ds for d in dts)
    return tau, dtau_dz


class ComplexPairs:
    """Complex numbers held as two float64 arrays (or numbers), real and
    imaginary, whose arithmetic rounds at every position as CPython 3.11's
    `complex` does, operation by operation:

    - a real operand x is (x, 0.0), so its 0.0 terms stay: `1 - sp` is
      (1 - re, 0.0 - im), whose imaginary part is +0.0 where `-sp.imag`
      gives -0.0;
    - the product is `_Py_c_prod`, (ar br - ai bi, ar bi + ai br);
    - the quotient is `_Py_c_quot`, Smith's algorithm (R. L. Smith,
      "Algorithm 116: Complex division", CACM 5(8), 1962), divided through
      by the larger of |br| and |bi|;
    - `** n` for an integer n is `c_powu`: square and multiply, starting
      from 1+0j;
    - abs is libm `hypot`.

    `exp` and `phase` of its namespace apply `cmath` per entry
    (`__array_namespace__`).  numpy's complex loops, and its `exp` and
    `arctan2` where numpy dispatches them to SVML, round differently
    (docs/decisions.md).  `AsymptoticChart.pulled_h` is its one client."""

    __slots__ = ("real", "imag")
    __array_ufunc__ = None       # an ndarray operand defers to the reflected method

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

    @classmethod
    def of(cls, zs: Sequence) -> tuple:
        """Each complex number or array of zs as ComplexPairs."""
        return tuple(cls(z.real, z.imag) for z in zs)

    @staticmethod
    def _parts(x) -> tuple:
        if isinstance(x, (ComplexPairs, complex)):
            return x.real, x.imag
        return x, 0.0

    def __array_namespace__(self):
        return _PairMath

    def __getitem__(self, key) -> "ComplexPairs":
        return ComplexPairs(self.real[key], self.imag[key])

    def __add__(self, other) -> "ComplexPairs":
        """The sum; it commutes bit for bit, so it is also the reflected sum."""
        br, bi = self._parts(other)
        return ComplexPairs(self.real + br, self.imag + bi)

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexPairs":
        br, bi = self._parts(other)
        return ComplexPairs(self.real - br, self.imag - bi)

    def __rsub__(self, other) -> "ComplexPairs":
        ar, ai = self._parts(other)
        return ComplexPairs(ar - self.real, ai - self.imag)

    def __neg__(self) -> "ComplexPairs":
        return ComplexPairs(-self.real, -self.imag)

    def __mul__(self, other) -> "ComplexPairs":
        """The product in CPython's order (`_Py_c_prod`); it commutes bit
        for bit, so it is also the reflected product."""
        br, bi = self._parts(other)
        return ComplexPairs(self.real * br - self.imag * bi, self.real * bi + self.imag * br)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ComplexPairs":
        """self ** n for an integer 0 <= n <= 100, as CPython's `c_powu`
        (n = 0 gives 1+0j, as its `c_powi` does)."""
        if not (isinstance(n, int) and 0 <= n <= 100):
            return NotImplemented
        result, power = ComplexPairs(1.0, 0.0), self
        while n:
            if n & 1:
                result = result * power
            n >>= 1
            if n:
                power = power * power
        return result

    def __truediv__(self, other) -> "ComplexPairs":
        if isinstance(other, (ComplexPairs, complex)):
            return _quotient(self.real, self.imag, other.real, other.imag)
        # by a real p: the branch |p| >= |0.0| of _Py_c_quot, by (p, 0.0)
        ratio = 0.0 / other
        denom = other + 0.0 * ratio
        return ComplexPairs((self.real + self.imag * ratio) / denom,
                            (self.imag - self.real * ratio) / denom)

    def __rtruediv__(self, other) -> "ComplexPairs":
        return _quotient(*self._parts(other), self.real, self.imag)

    def conjugate(self) -> "ComplexPairs":
        return ComplexPairs(self.real, -self.imag)

    def __abs__(self):
        return np.hypot(self.real, self.imag)


def _quotient(ar, ai, br, bi) -> ComplexPairs:
    """(ar + i ai) / (br + i bi) as `_Py_c_quot`: both numerator terms and
    the denominator are divided through by br where |br| >= |bi|, and by bi
    elsewhere; each branch keeps its own operand order, so a tie
    |br| == |bi| takes the first, as CPython does."""
    by_re = np.abs(br) >= np.abs(bi)
    big, small = np.where(by_re, br, bi), np.where(by_re, bi, br)
    ratio = small / big
    denom = big + small * ratio
    real = np.where(by_re, ar, ai) + np.where(by_re, ai, ar) * ratio
    imag = np.where(by_re, ai - ar * ratio, ai * ratio - ar)
    return ComplexPairs(real / denom, imag / denom)


def _each(fn: Callable, z: ComplexPairs, dtype) -> np.ndarray:
    """fn applied to each entry of z as a Python complex."""
    c = np.empty(np.broadcast(z.real, z.imag).shape, dtype=complex)
    c.real, c.imag = z.real, z.imag
    return np.array([fn(w) for w in c.ravel().tolist()], dtype=dtype).reshape(c.shape)


class _PairMath:
    """The math namespace of ComplexPairs: `cmath` per entry."""

    @staticmethod
    def exp(z: ComplexPairs) -> ComplexPairs:
        out = _each(cmath.exp, z, complex)
        return ComplexPairs(out.real, out.imag)

    @staticmethod
    def phase(z: ComplexPairs) -> np.ndarray:
        return _each(cmath.phase, z, float)


def real_log(x):
    """math.log of a float, or of each entry of a float array: numpy's log
    does not round as libm's on every host (docs/decisions.md)."""
    if isinstance(x, np.ndarray):
        return np.array([math.log(v) for v in x.ravel().tolist()]).reshape(x.shape)
    return math.log(x)


def _square(x):
    """x ** 2 as Python rounds a float's: libm pow.  An array takes
    np.float_power(x, 2.0), which rounds the same (x * x and np.square do
    not)."""
    return np.float_power(x, 2.0) if isinstance(x, np.ndarray) else x ** 2


def _im_pair(a, b):
    """Im(conj(a) b), rounded as Python's (a.conjugate() * b).imag, for
    complex numbers, complex arrays and ComplexPairs."""
    return a.real * b.imag - a.imag * b.real


def _fiber_terms(model: Model, pt: PuncturedPoint, periods, eps: float | None = None,
                 ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Fiber coefficients F_j = eps / (2 nu_j Im(conj(tau_1) tau_2)_j) when
    eps is given, and the pairings Im(conj(tau_1) tau_2)_j.

    `periods` is the (tau, dtau/dz) pair of periods_at at pt, computed once
    by the caller.  Raises DegenerateLattice unless every pairing is
    positive, at every point of a batch.
    """
    if eps is not None and eps <= 0:
        raise ValueError("eps must be positive")
    tau = periods[0]
    nu = model.nu
    F, imp = [], []
    for j in range(model.m):
        p = _im_pair(tau[2 * j], tau[2 * j + 1])
        if not every(p > 0):
            bad = ~np.ravel(p > 0)
            at = complex(np.ravel(pt.s.real)[bad][0], np.ravel(pt.s.imag)[bad][0])
            raise DegenerateLattice(f"Im pairing {j} non-positive at s={at}")
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


def christoffel_closed(model: Model, pt: PuncturedPoint, v: Sequence[complex],
                       periods=None) -> tuple[complex, ...]:
    """Closed-form Christoffel symbols of the flat lattice connection.

    Gamma^j = [Im(conj(tau_1) v_j) tau_2' - Im(conj(tau_2) v_j) tau_1'] /
    Im(conj(tau_1) tau_2), per fiber factor.  `periods` is periods_at(model,
    pt), computed here unless the caller already has it.
    """
    if periods is None:
        periods = periods_at(model, pt)
    return tuple(_christoffel(periods, _fiber_terms(model, pt, periods)[1], v))


def christoffel_general(tau: Sequence[complex], dtau_dz: Sequence[complex],
                        v: Sequence[complex]) -> tuple[complex, ...]:
    """Gamma = (dT/dz) (T; conj T)^{-1} (v; conj v) for an arbitrary family.

    At a point, the periods and v are numbers and Gamma is a tuple of m
    numbers; over a batch (the periods_at of a batch, v_j arrays of N
    samples) the (N, 2m, 2m) stack is solved at once and each Gamma^j is an
    array.  Raises SingularPeriods, naming the sample, if any stacked
    period matrix has a condition number above 1e12.
    """
    m = len(v)
    lead = np.broadcast(*tau, *v).shape
    stack = np.zeros(lead + (2 * m, 2 * m), dtype=complex)     # (T; conj T)
    dT = np.zeros(lead + (m, 2 * m), dtype=complex)
    vv = np.empty(lead + (2 * m, 1), dtype=complex)             # (v; conj v)
    for j in range(m):
        for c in (2 * j, 2 * j + 1):
            stack[..., j, c], dT[..., j, c] = tau[c], dtau_dz[c]
        vv[..., j, 0] = v[j]
    stack[..., m:, :] = stack[..., :m, :].conj()
    vv[..., m:, :] = vv[..., :m, :].conj()
    bad = np.flatnonzero(np.linalg.cond(stack) > 1e12)
    if bad.size:
        where = f" at sample {bad[0]}" if lead else ""
        raise SingularPeriods(f"stacked period matrix is numerically singular{where}")
    gamma = (dT @ np.linalg.solve(stack, vv))[..., 0]
    return tuple(np.moveaxis(gamma, -1, 0))


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
    return periods, imp, F, g_eff, _square(abs(g_eff)) / math.prod(F)


def hermitian_entries(base: tuple, v: Sequence[complex]) -> list[complex]:
    """Entries of the Hermitian matrix h at fiber coordinates v, row by row:
    Python numbers at a point, numpy arrays over a `metric_at` batch, and
    ComplexPairs and float arrays (or constants) over a `pulled_h` batch;
    `base` is what base_terms gives at the base point(s)."""
    periods, imp, F, _, B = base
    m = len(F)
    h = [0] * ((m + 1) * (m + 1))
    fiber = []
    for j, gamma in enumerate(_christoffel(periods, imp, v)):
        fiber.append(F[j] * _square(abs(gamma)))
        h[j + 1] = -F[j] * gamma
        h[(j + 1) * (m + 1)] = -F[j] * gamma.conjugate()
        h[(j + 1) * (m + 2)] = F[j]
    h[0] = B + sum(fiber)
    return h


def filled(entries: Sequence, lead: tuple) -> np.ndarray:
    """The complex array of shape lead + (K,) with entry k of the last axis
    from entries[k]: for a point (lead ()), numbers; for a batch, numbers,
    arrays of shape lead or ComplexPairs."""
    if not lead:
        return np.array(entries, dtype=complex)
    out = np.empty(lead + (len(entries),), dtype=complex)
    re, im = out.real, out.imag
    for k, x in enumerate(entries):
        re[..., k], im[..., k] = x.real, x.imag
    return out


def metric_at(model: Model, eps: float, vf: VolumeFormSpec,
              pt: PuncturedPoint, v: Sequence[complex]) -> MetricSample:
    """Assemble the semi-flat Hermitian matrix at a cover point, or the
    stack of them over a batch of points (see the module docstring).

    Valid while both Im pairings are positive (inside the model's validity
    disk); raises DegenerateLattice otherwise, also for one bad point of a
    batch.
    """
    m = model.m
    if len(v) != m:
        raise ValueError(f"need {m} fiber coordinates")
    base = base_terms(model, eps, vf, pt)
    lead = pt.s.shape if isinstance(pt.s, np.ndarray) else ()
    h = filled(hermitian_entries(base, v), lead)
    return MetricSample(h=h.reshape(lead + (m + 1, m + 1)), omega_coeff=base[3])


def elliptic_metric_at(model: LocalModel, eps: float, vf: VolumeFormSpec,
                       pt: PuncturedPoint, v: complex) -> MetricSample:
    """m = 1 instance of metric_at (2 x 2 Hermitian matrix)."""
    return metric_at(model, eps, vf, pt, (v,))


def laplace_det(h) -> complex:
    """det h of a 2 x 2 or 3 x 3 matrix (an ndarray or nested lists) by
    cofactor (Laplace) expansion along the first row, on Python numbers.
    Raises ValueError for any other size: a fiber has m = 1 or 2."""
    if isinstance(h, np.ndarray):
        h = h.tolist()
    if len(h) == 2:
        (a, b), (c, d) = h
        return a * d - b * c
    if len(h) == 3:
        (a, b, c), (d, e, f), (g, i, j) = h
        return a * (e * j - f * i) - b * (d * j - f * g) + c * (d * i - e * g)
    raise ValueError(f"need a 2 x 2 or 3 x 3 matrix, got {np.shape(h)}")


def ma_residual(sample: MetricSample) -> float:
    """Relative residual of the Monge-Ampere determinant identity.

    Returns |det(h) - |g_eff|^2| / |g_eff|^2; zero means the Calabi-Yau
    identity holds exactly at this point.  det h is `laplace_det` of the
    one (m+1) x (m+1) matrix of the sample, which may be an ndarray or
    nested lists.
    """
    g = abs(sample.omega_coeff)
    target = g * g
    return abs(laplace_det(sample.h).real - target) / target
