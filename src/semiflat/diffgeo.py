"""Finite-difference checks: closedness, Chern curvature, Ricci flatness, positivity.

All differentiation happens in real coordinates (Re/Im of each complex
coordinate) with central stencils; Wirtinger combinations are assembled
afterwards, which keeps the schemes standard and avoids branch crossings.
A field is any callable x in R^n -> complex Hermitian matrix, where n is
even and the complex coordinates are (x[0] + i x[1], x[2] + i x[3], ...).

The stencils of one closedness residual or one Chern-curvature norm share
points (d and dbar take the same partials, the mixed partial (i, j) repeats
(j, i)), so both checks evaluate their field once per distinct point
(`memoized`).  A field must therefore be pure: its value depends on x only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import StepTooSmall

Field = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FDScheme:
    """Central-difference configuration."""

    step: float = 1e-4
    order: int = 2
    richardson: bool = True

    def __post_init__(self):
        if not (1e-8 <= self.step <= 1e-2):
            raise ValueError("step must lie in [1e-8, 1e-2]")
        if self.order not in (2, 4):
            raise ValueError("order must be 2 or 4")


def memoized(field: Field) -> Field:
    """`field` evaluated once per distinct point, keyed on the bytes of x.

    A repeated point returns the array of its first evaluation, marked
    read-only, so a caller that writes to it raises ValueError instead of
    changing what the next caller reads.
    """
    cache: dict[bytes, np.ndarray] = {}

    def memo(x: np.ndarray) -> np.ndarray:
        key = x.tobytes()
        out = cache.get(key)
        if out is None:
            out = np.asarray(field(x)).view()
            out.flags.writeable = False
            cache[key] = out
        return out

    return memo


def _d1(field: Field, x: np.ndarray, i: int, h: float, order: int) -> np.ndarray:
    e = np.zeros_like(x)
    e[i] = h
    if order == 2:
        return (field(x + e) - field(x - e)) / (2 * h)
    return (-field(x + 2 * e) + 8 * field(x + e)
            - 8 * field(x - e) + field(x - 2 * e)) / (12 * h)


def first_partial(field: Field, x: np.ndarray, i: int, scheme: FDScheme,
                  scale: float = 1.0) -> np.ndarray:
    h = scheme.step * scale
    d = _d1(field, x, i, h, scheme.order)
    if scheme.richardson:
        d2 = _d1(field, x, i, h / 2, scheme.order)
        p = scheme.order
        d = (2 ** p * d2 - d) / (2 ** p - 1)
    return d


def _d2_pure(field: Field, x: np.ndarray, i: int, h: float) -> np.ndarray:
    e = np.zeros_like(x)
    e[i] = h
    return (field(x + e) - 2 * field(x) + field(x - e)) / (h * h)


def _d2_mixed(field: Field, x: np.ndarray, i: int, j: int, h: float) -> np.ndarray:
    ei = np.zeros_like(x)
    ej = np.zeros_like(x)
    ei[i] = h
    ej[j] = h
    return (field(x + ei + ej) - field(x + ei - ej)
            - field(x - ei + ej) + field(x - ei - ej)) / (4 * h * h)


def second_partial(field: Field, x: np.ndarray, i: int, j: int, scheme: FDScheme,
                   scale: float = 1.0) -> np.ndarray:
    h = scheme.step * scale
    f = _d2_pure if i == j else _d2_mixed
    args = (field, x, i) if i == j else (field, x, i, j)
    d = f(*args, h)
    if scheme.richardson:
        d2 = f(*args, h / 2)
        d = (4 * d2 - d) / 3
    return d


def wirtinger_first(field: Field, x: np.ndarray, a: int, scheme: FDScheme,
                    scale: float = 1.0, bar: bool = False) -> np.ndarray:
    """d/dxi_a (or d/d conj(xi_a)) of the field at x."""
    dx = first_partial(field, x, 2 * a, scheme, scale)
    dy = first_partial(field, x, 2 * a + 1, scheme, scale)
    return 0.5 * (dx + 1j * dy) if bar else 0.5 * (dx - 1j * dy)


def wirtinger_second(field: Field, x: np.ndarray, a: int, b: int, scheme: FDScheme,
                     scale_a: float = 1.0, scale_b: float = 1.0) -> np.ndarray:
    """d^2 / (dxi_a d conj(xi_b)) of the field at x."""
    i, j = 2 * a, 2 * b
    s = math.sqrt(scale_a * scale_b)
    dxx = second_partial(field, x, i, j, scheme, s)
    dyy = second_partial(field, x, i + 1, j + 1, scheme, s)
    dxy = second_partial(field, x, i, j + 1, scheme, s)
    dyx = second_partial(field, x, i + 1, j, scheme, s)
    return 0.25 * (dxx + dyy + 1j * (dxy - dyx))


def _closedness_at_step(field: Field, x: np.ndarray, h: float, order: int,
                        scales: Sequence[float]) -> tuple[float, float]:
    n = x.size // 2
    sub = FDScheme(step=min(h, 1e-2), order=order, richardson=False)
    d = [wirtinger_first(field, x, a, sub, scales[a]) for a in range(n)]
    dbar = [wirtinger_first(field, x, a, sub, scales[a], bar=True) for a in range(n)]
    scale = max(float(np.max(np.abs(m))) for m in d + dbar)
    res = 0.0
    # d omega = 0: (d_l h_{jk} - d_j h_{lk}) and (dbar_l h_{jk} - dbar_k h_{jl})
    for l in range(n):
        for j in range(l + 1, n):
            for k in range(n):
                res = max(res, abs(d[l][j, k] - d[j][l, k]))
    for l in range(n):
        for k in range(l + 1, n):
            for j in range(n):
                res = max(res, abs(dbar[l][j, k] - dbar[k][j, l]))
    return res, max(scale, 1e-300)


def closedness_residual(field: Field, x: np.ndarray, scheme: FDScheme,
                        scales: Sequence[float] | None = None) -> tuple[float, float]:
    """Relative |d omega| residual and the fitted convergence order.

    The residual is the largest d-omega component divided by the largest
    first-derivative component, measured at steps h, h/2, h/4.  The form is
    exactly closed, so the residual is pure truncation and must shrink at
    the scheme's nominal order until rounding noise takes over; when the
    first residual already sits at the noise floor the order is reported as
    infinity, and StepTooSmall is raised if shrinking the step makes things
    worse above that floor.
    """
    n = x.size // 2
    scales = tuple(scales) if scales is not None else (1.0,) * n
    field = memoized(field)
    h = scheme.step
    pairs = [_closedness_at_step(field, x, h / 2 ** k, scheme.order, scales)
             for k in range(3)]
    r = [res / scl for res, scl in pairs]
    if r[0] < 1e-10:
        return r[0], math.inf
    if r[1] > 1.3 * r[0] or r[2] > 1.3 * r[1]:
        raise StepTooSmall(f"closedness residuals {r} grow as the step shrinks")
    orders = []
    for k in range(2):
        if r[k + 1] > 0 and r[k] > 0:
            orders.append(math.log2(r[k] / r[k + 1]))
    fitted = sum(orders) / len(orders) if orders else math.inf
    return r[2], fitted


def chern_curvature(field: Field, x: np.ndarray, scheme: FDScheme,
                    scales: Sequence[float] | None = None) -> np.ndarray:
    """Chern curvature tensor R[i, jbar, k, lbar] of the Hermitian field.

    R_{i jbar k lbar} = -d_k dbar_l h_{i jbar}
                        + h^{q pbar} (d_k h_{i pbar}) (dbar_l h_{q jbar}).
    """
    n = x.size // 2
    scales = tuple(scales) if scales is not None else (1.0,) * n
    h0 = field(x)
    hinv = np.linalg.inv(h0)
    d = [wirtinger_first(field, x, a, scheme, scales[a]) for a in range(n)]
    dbar = [wirtinger_first(field, x, a, scheme, scales[a], bar=True) for a in range(n)]
    dim = h0.shape[0]
    R = np.zeros((dim, dim, dim, dim), dtype=complex)
    for k in range(dim):
        for l in range(dim):
            dd = wirtinger_second(field, x, k, l, scheme, scales[k], scales[l])
            # sum_{p,q} d_k h_{i pbar} hinv[pbar, q] dbar_l h_{q jbar}
            corr = d[k] @ hinv @ dbar[l]
            R[:, :, k, l] = -dd + corr
    return R


def chern_curvature_norm(field: Field, x: np.ndarray, scheme: FDScheme,
                         scales: Sequence[float] | None = None) -> float:
    """Pointwise norm |Rm| of the Chern curvature with respect to the field.

    Computed as the Frobenius norm of the curvature tensor in an
    h-orthonormal frame (Cholesky transform), which is manifestly
    nonnegative and frame-independent.
    """
    field = memoized(field)
    h0 = field(x)
    L = np.linalg.cholesky(0.5 * (h0 + h0.conj().T))
    A = np.linalg.inv(L.conj().T)        # A^dagger h A = I
    R = chern_curvature(field, x, scheme, scales)
    T = np.einsum("ijkl,ia,jb,kc,ld->abcd", R, A, A.conj(), A, A.conj())
    return float(np.sqrt(np.sum(np.abs(T) ** 2)))


def ricci_scalar_residual(field: Field, x: np.ndarray, scheme: FDScheme,
                          scales: Sequence[float] | None = None) -> float:
    """|i d dbar log det h| coefficient magnitude (Ricci form of a Kahler field)."""
    n = x.size // 2
    scales = tuple(scales) if scales is not None else (1.0,) * n

    def logdet(xx: np.ndarray) -> np.ndarray:
        sign, ld = np.linalg.slogdet(field(xx))
        return np.array([[ld]], dtype=complex)

    res = 0.0
    for a in range(n):
        for b in range(n):
            val = wirtinger_second(logdet, x, a, b, scheme, scales[a], scales[b])
            res = max(res, abs(val[0, 0]))
    return res


def positivity(h: np.ndarray) -> float:
    """Smallest eigenvalue via the Hermitian-to-real symmetric embedding."""
    h = np.asarray(h, dtype=complex)
    a, b = h.real, h.imag
    big = np.block([[a, -b], [b, a]])
    big = 0.5 * (big + big.T)
    return float(np.linalg.eigvalsh(big).min())
