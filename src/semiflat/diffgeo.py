"""Finite-difference checks: closedness, Chern curvature, Ricci flatness, positivity.

All differentiation happens in real coordinates (Re/Im of each complex
coordinate) with central second-order stencils; Wirtinger combinations are
assembled afterwards, which keeps the schemes standard and avoids branch
crossings.  A field is any callable x in R^n -> complex Hermitian matrix,
where n is even and the complex coordinates are (x[0] + i x[1],
x[2] + i x[3], ...).

Two schemes are fixed, and only their step is set:

- closedness takes plain central differences at steps h, h/2 and h/4, and
  reads the convergence order off the three residuals;
- the Chern curvature norm (and the Ricci residual) takes central
  differences at steps h and h/2 and combines them with one Richardson
  step (`richardson`), which cancels the h^2 error term.

The stencils of one closedness residual or one Chern-curvature norm share
points (d and dbar take the same partials, the mixed partial (i, j) repeats
(j, i)), so both checks evaluate their field once per distinct point.  A
field must therefore be pure: its value depends on x only.  Closedness
evaluates its stencils pointwise through `memoized`.  A Chern norm lists
its distinct points first (`ChernStencil`), so a caller can evaluate them
in one batch, and forms every difference from the stacked values with the
floating-point operations of the pointwise formulas: the norm does not
depend, to the last bit, on which way it was evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .errors import StepTooSmall

Field = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FDScheme:
    """The finite-difference step h, in units of each coordinate's scale."""

    step: float = 1e-4

    def __post_init__(self):
        if not (1e-8 <= self.step <= 1e-2):
            raise ValueError("step must lie in [1e-8, 1e-2]")


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


def first_partial(field: Field, x: np.ndarray, i: int, h: float) -> np.ndarray:
    """d/dx_i of the field at x by the central difference of step h."""
    e = np.zeros_like(x)
    e[i] = h
    return (field(x + e) - field(x - e)) / (2 * h)


def second_partial(field: Field, x: np.ndarray, i: int, j: int, h: float) -> np.ndarray:
    """d^2/(dx_i dx_j) of the field at x by the central difference of step h."""
    ei = np.zeros_like(x)
    ei[i] = h
    if i == j:
        return (field(x + ei) - 2 * field(x) + field(x - ei)) / (h * h)
    ej = np.zeros_like(x)
    ej[j] = h
    return (field(x + ei + ej) - field(x + ei - ej)
            - field(x - ei + ej) + field(x - ei - ej)) / (4 * h * h)


def richardson(difference: Callable[[float], np.ndarray], h: float) -> np.ndarray:
    """One Richardson step on a second-order difference taken at steps h
    and h/2: (4 D(h/2) - D(h)) / 3, which cancels the h^2 error term."""
    return (4 * difference(h / 2) - difference(h)) / 3


def wirtinger_first(field: Field, x: np.ndarray, a: int, h: float,
                    bar: bool = False) -> np.ndarray:
    """d/dxi_a (or d/d conj(xi_a)) of the field at x, step h."""
    dx = first_partial(field, x, 2 * a, h)
    dy = first_partial(field, x, 2 * a + 1, h)
    return 0.5 * (dx + 1j * dy) if bar else 0.5 * (dx - 1j * dy)


def wirtinger_second(field: Field, x: np.ndarray, a: int, b: int, h: float) -> np.ndarray:
    """d^2 / (dxi_a d conj(xi_b)) of the field at x, step h."""
    i, j = 2 * a, 2 * b
    dxx = second_partial(field, x, i, j, h)
    dyy = second_partial(field, x, i + 1, j + 1, h)
    dxy = second_partial(field, x, i, j + 1, h)
    dyx = second_partial(field, x, i + 1, j, h)
    return 0.25 * (dxx + dyy + 1j * (dxy - dyx))


def _closedness_at_step(field: Field, x: np.ndarray, h: float,
                        scales: Sequence[float]) -> tuple[float, float]:
    n = x.size // 2
    d = [wirtinger_first(field, x, a, h * scales[a]) for a in range(n)]
    dbar = [wirtinger_first(field, x, a, h * scales[a], bar=True) for a in range(n)]
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
    first-derivative component, measured with plain central differences at
    steps h, h/2, h/4.  The form is exactly closed, so the residual is pure
    truncation and must shrink at second order until rounding noise takes over; when the
    first residual already sits at the noise floor the order is reported as
    infinity, and StepTooSmall is raised if shrinking the step makes things
    worse above that floor.
    """
    n = x.size // 2
    scales = tuple(scales) if scales is not None else (1.0,) * n
    field = memoized(field)
    h = scheme.step
    pairs = [_closedness_at_step(field, x, h / 2 ** k, scales) for k in range(3)]
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


@lru_cache(maxsize=8)
def _chern_layout(n: int) -> SimpleNamespace:
    """Stencil rows of one Chern-curvature norm, in the order the pointwise
    formulas evaluate them, and where each difference reads its rows.

    Row r is x, shifted by `mult1[r]` times step `slot[r]` along `dir1[r]`
    and then by `mult2[r]` times that step along `dir2[r]` (a multiplier 0
    adds nothing).  Row 0 is x itself.  The steps of one level are the
    first-partial steps [i] of the 2n real directions, then the
    second-partial steps [k, l] of the coordinate pairs; level 1 halves
    level 0, for the Richardson step.  `first` (2, 2n, 2) holds the rows
    x+e, x-e of each first difference; `pure` (P, 3) the rows x+e, x, x-e
    and `mixed` (Q, 4) the rows ++, +-, -+, -- of each second difference,
    and `pure_at`, `mixed_at` its place in the (2, n, n, 4) stack of second
    partials.
    """
    dim = 2 * n
    per_level = dim + n * n
    rows = {(0, 0, 0, 0, 0): 0}

    def row(d1: int, m1: int, slot: int, d2: int = 0, m2: int = 0) -> int:
        # (x + e_i) + e_j and (x + e_j) + e_i have the same bytes for every x
        key = (d1, m1, d2, m2, slot) if m2 == 0 or d1 < d2 else (d2, m2, d1, m1, slot)
        return rows.setdefault(key, len(rows))

    first = np.array([[[row(i, mult, t * per_level + i) for mult in (1, -1)]
                       for i in range(dim)] for t in range(2)])
    pure, pure_at, mixed, mixed_at = [], [], [], []
    for k in range(n):
        for l in range(n):
            pairs = ((2 * k, 2 * l), (2 * k + 1, 2 * l + 1),
                     (2 * k, 2 * l + 1), (2 * k + 1, 2 * l))
            for c, (i, j) in enumerate(pairs):
                for t in range(2):
                    # sqrt(s_k s_l) = sqrt(s_l s_k): (k, l) and (l, k) share a step
                    slot = t * per_level + dim + min(k, l) * n + max(k, l)
                    at = ((t * n + k) * n + l) * 4 + c
                    if i == j:
                        pure.append([row(i, 1, slot), 0, row(i, -1, slot)])
                        pure_at.append(at)
                    else:
                        mixed.append([row(i, s1, slot, j, s2)
                                      for s1 in (1, -1) for s2 in (1, -1)])
                        mixed_at.append(at)
    dir1, mult1, dir2, mult2, slot = (np.array(col) for col in zip(*rows))
    layout = SimpleNamespace(dir1=dir1, mult1=mult1, dir2=dir2, mult2=mult2, slot=slot,
                             first=first, pure=np.array(pure), pure_at=np.array(pure_at),
                             mixed=np.array(mixed), mixed_at=np.array(mixed_at))
    for a in vars(layout).values():      # shared by every stencil of this shape
        a.flags.writeable = False
    return layout


def distinct_points(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of `points`, in order of first appearance, and the
    index of each row among them.  Rows are compared by their bytes, so
    0.0 and -0.0 differ."""
    points = np.ascontiguousarray(points, dtype=float)
    width = points.shape[1] * points.itemsize
    raw = points.tobytes()
    ids: dict[bytes, int] = {}
    index = [ids.setdefault(raw[a:a + width], len(ids)) for a in range(0, len(raw), width)]
    distinct = np.frombuffer(b"".join(ids), dtype=float).reshape(len(ids), -1)
    return distinct.copy(), np.array(index, dtype=int)


class ChernStencil:
    """The stencil of one Chern-curvature norm at x, each point listed once.

    `points` holds the distinct stencil points, in the order the pointwise
    formulas first evaluate them; `norm` takes the field's matrices at
    those points.  Every point is formed with the float operations of the
    pointwise formulas (x + e, (x + e_i) - e_j, ...), signed zeros
    included, and every difference, Richardson step, Wirtinger combination
    and product is a stacked array expression in their operation order, so
    the norm is bit for bit the one the pointwise formulas give:
    `first_partial` and `second_partial` at steps h and h/2, `richardson`,
    then the Wirtinger combinations of `wirtinger_first` and
    `wirtinger_second`.
    """

    def __init__(self, x: np.ndarray, scheme: FDScheme,
                 scales: Sequence[float] | None = None):
        x = np.asarray(x, dtype=float)
        n = x.size // 2
        scales = tuple(scales) if scales is not None else (1.0,) * n
        self.n = n
        lay = self._layout = _chern_layout(n)
        steps = [scheme.step * scales[i // 2] for i in range(2 * n)]
        steps += [scheme.step * math.sqrt(scales[k] * scales[l])
                  for k in range(n) for l in range(n)]
        self._steps = np.array(steps + [h / 2 for h in steps])
        h = self._steps[lay.slot]
        rows = np.arange(len(h))
        e1 = np.zeros((len(h), x.size))
        e1[rows, lay.dir1] = np.abs(lay.mult1) * h
        e2 = np.zeros((len(h), x.size))
        e2[rows, lay.dir2] = h
        p = np.where((lay.mult1 > 0)[:, None], x + e1,
                     np.where((lay.mult1 < 0)[:, None], x - e1, x))
        p = np.where((lay.mult2 > 0)[:, None], p + e2,
                     np.where((lay.mult2 < 0)[:, None], p - e2, p))
        self.points, self._index = distinct_points(p)

    def norm(self, values: np.ndarray) -> float:
        """|Rm| from the stack of the field's matrices at `points`.

        Computed as the Frobenius norm of the curvature tensor
        R_{i jbar k lbar} = -d_k dbar_l h_{i jbar}
                            + h^{q pbar} (d_k h_{i pbar}) (dbar_l h_{q jbar})
        in an h-orthonormal frame (Cholesky transform), which is manifestly
        nonnegative and frame-independent.
        """
        lay, n = self._layout, self.n
        f = np.asarray(values)[self._index]
        h0 = f[0]
        if h0.shape != (n, n):
            raise ValueError(f"field matrices are {h0.shape}, need {(n, n)}")
        h1 = self._steps.reshape(2, -1)[:, :2 * n, None, None]
        fp = lay.first
        d1 = (f[fp[..., 0]] - f[fp[..., 1]]) / (2 * h1)
        d1 = (4 * d1[1] - d1[0]) / 3
        dx, dy = d1[0::2], d1[1::2]
        d = 0.5 * (dx - 1j * dy)
        dbar = 0.5 * (dx + 1j * dy)
        hp = self._steps[lay.slot[lay.pure[:, 0]]][:, None, None]
        pure = (f[lay.pure[:, 0]] - 2 * f[lay.pure[:, 1]] + f[lay.pure[:, 2]]) / (hp * hp)
        hm = self._steps[lay.slot[lay.mixed[:, 0]]][:, None, None]
        mixed = (f[lay.mixed[:, 0]] - f[lay.mixed[:, 1]]
                 - f[lay.mixed[:, 2]] + f[lay.mixed[:, 3]]) / (4 * hm * hm)
        d2 = np.empty((2 * n * n * 4, n, n), dtype=np.result_type(pure, mixed))
        d2[lay.pure_at] = pure
        d2[lay.mixed_at] = mixed
        d2 = d2.reshape(2, n, n, 4, n, n)
        d2 = (4 * d2[1] - d2[0]) / 3
        # [k, l]: dxx, dyy, dxy, dyx of the pair (xi_k, conj xi_l)
        dd = 0.25 * (d2[:, :, 0] + d2[:, :, 1] + 1j * (d2[:, :, 2] - d2[:, :, 3]))
        corr = (d @ np.linalg.inv(h0))[:, None] @ dbar[None, :]
        R = np.ascontiguousarray((-dd + corr).transpose(2, 3, 0, 1))
        L = np.linalg.cholesky(0.5 * (h0 + h0.conj().T))
        A = np.linalg.inv(L.conj().T)        # A^dagger h A = I
        T = np.einsum("ijkl,ia,jb,kc,ld->abcd", R, A, A.conj(), A, A.conj())
        return float(np.sqrt(np.sum(np.abs(T) ** 2)))


def chern_curvature_norm(field: Field, x: np.ndarray, scheme: FDScheme,
                         scales: Sequence[float] | None = None) -> float:
    """Pointwise norm |Rm| of the Chern curvature with respect to the field.

    The field is called once per distinct point of the stencil
    (`ChernStencil`); its matrices are n x n for x in R^{2n}.
    """
    stencil = ChernStencil(x, scheme, scales)
    return stencil.norm(np.array([field(p) for p in stencil.points]))


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
            h = scheme.step * math.sqrt(scales[a] * scales[b])
            val = richardson(lambda s: wirtinger_second(logdet, x, a, b, s), h)
            res = max(res, abs(val[0, 0]))
    return res


def positivity(h: np.ndarray) -> float:
    """Smallest eigenvalue via the Hermitian-to-real symmetric embedding."""
    h = np.asarray(h, dtype=complex)
    a, b = h.real, h.imag
    big = np.block([[a, -b], [b, a]])
    big = 0.5 * (big + big.T)
    return float(np.linalg.eigvalsh(big).min())
