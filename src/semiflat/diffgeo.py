"""Finite-difference checks: closedness, Chern curvature, Ricci flatness.

All differentiation happens in real coordinates (Re/Im of each complex
coordinate) with central second-order stencils; Wirtinger combinations are
assembled afterwards, which keeps the schemes standard and avoids branch
crossings.  The complex coordinates of a point x in R^{2n} are
(x[0] + i x[1], x[2] + i x[3], ...).

A `Field` takes stacked points: it maps a (P, 2n) array of real points to
the (P, n, n) stack of complex Hermitian matrices at them, and must be
pure (each matrix depends on its own row only).  `closedness_residual`
and `chern_curvature_norm` call the field once, on all the points of their
stencils; `ricci_scalar_residual`, a test oracle, calls it once per point
with a stack of one row.

Two schemes are fixed, and their step h is an argument:

- closedness takes plain central differences at steps h, h/2 and h/4, and
  reads the convergence order off the three residuals;
- the Chern curvature norm (and the Ricci residual) takes central
  differences at steps h and h/2 and combines them with one Richardson
  step (`richardson`), which cancels the h^2 error term.

`first_partial`, `second_partial`, `wirtinger_second` and `richardson`
are the pointwise formulas, on a function of one point; the closedness
residual and the Chern curvature tensor reproduce them to the last bit.
Closedness takes the two real partials of each coordinate once and forms
d and dbar from them, so it lists 12n points: the points x + e, x - e of
`first_partial` at each step and real direction.  The stencils of one Chern norm share points,
and its layout lists each point once by construction: d and dbar take
the same partials, the mixed partial (i, j) repeats (j, i), and the pure
second partial (i, i) of a diagonal pair (k, k) takes the rows x + e,
x - e of the first partial along i, because its step h sqrt(s_k s_k) is
the first-partial step h s_k to the last bit (`ChernStencil`).  A caller
that evaluates the stencils of many norms in one batch builds each
`ChernStencil` once, lists its points in the batch, and hands each norm
its stencil and a field that returns that stencil's slice of the batch.
Both checks form every point with the float operations of the pointwise
formulas and every difference from the stacked values in their operation
order: a closedness residual or a curvature tensor does not depend, to
the last bit, on which way its field was evaluated.  The Chern norm then
contracts the tensor in an h-orthonormal frame (`frame_norm`), a fixed
linear map of the tensor.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .errors import StepTooSmall

# (P, 2n) stacked points -> (P, n, n) stacked matrices
Field = Callable[[np.ndarray], np.ndarray]
# one point (2n,) -> one matrix (n, n): the pointwise formulas' argument
PointFunction = Callable[[np.ndarray], np.ndarray]


def first_partial(field: PointFunction, x: np.ndarray, i: int, h: float) -> np.ndarray:
    """d/dx_i of the field at x by the central difference of step h."""
    e = np.zeros_like(x)
    e[i] = h
    return (field(x + e) - field(x - e)) / (2 * h)


def second_partial(field: PointFunction, x: np.ndarray, i: int, j: int, h: float) -> np.ndarray:
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


def wirtinger_second(field: PointFunction, x: np.ndarray, a: int, b: int, h: float) -> np.ndarray:
    """d^2 / (dxi_a d conj(xi_b)) of the field at x, step h."""
    i, j = 2 * a, 2 * b
    dxx = second_partial(field, x, i, j, h)
    dyy = second_partial(field, x, i + 1, j + 1, h)
    dxy = second_partial(field, x, i, j + 1, h)
    dyx = second_partial(field, x, i + 1, j, h)
    return 0.25 * (dxx + dyy + 1j * (dxy - dyx))


def closedness_residual(field: Field, x: np.ndarray, step: float,
                        scales: Sequence[float] | None = None) -> tuple[float, float]:
    """Relative |d omega| residual and the fitted convergence order.

    The residual is the largest d-omega component divided by the largest
    first-derivative component, measured with plain central differences at
    steps h, h/2, h/4, h being `step` times each coordinate's scale.  The
    form is exactly closed, so the residual is pure truncation and must
    shrink at second order until rounding noise takes over; when the
    first residual already sits at the noise floor the order is reported as
    infinity, and StepTooSmall is raised if shrinking the step makes things
    worse above that floor.  A residual that is not finite makes the order NaN.

    The field is called once, on the 12n points x + e, x - e of
    `first_partial` at each step and real direction; each residual is the
    one the pointwise formulas give, bit for bit.
    """
    n = x.size // 2
    scales = tuple(scales) if scales is not None else (1.0,) * n
    # [level, direction]: first_partial's step at h / 2 ** level
    steps = np.array([[step / 2 ** k * scales[i // 2] for i in range(2 * n)] for k in range(3)])
    e = np.zeros((3, 2 * n) + x.shape, dtype=x.dtype)
    e[:, range(2 * n), range(2 * n)] = steps
    points = np.stack([x + e, x - e], axis=2).reshape(-1, x.size)
    f = field(points).reshape(3, 2 * n, 2, n, n)
    partial = (f[:, :, 0] - f[:, :, 1]) / (2 * steps)[..., None, None]
    dx, dy = partial[:, 0::2], partial[:, 1::2]
    d = 0.5 * (dx - 1j * dy)           # [level, a]: the matrix d_a h
    dbar = 0.5 * (dx + 1j * dy)
    scale = np.maximum(np.abs(d).max(axis=(1, 2, 3)), np.abs(dbar).max(axis=(1, 2, 3)))
    # d omega = 0: (d_l h_{jk} - d_j h_{lk}) and (dbar_l h_{jk} - dbar_k h_{jl}), l < j, k
    lo, hi = np.triu_indices(n, 1)
    dbar_t = dbar.transpose(0, 1, 3, 2)
    diff = np.concatenate([d[:, lo, hi] - d[:, hi, lo],
                           dbar_t[:, lo, hi] - dbar_t[:, hi, lo]], axis=1)
    # hypot rounds as abs of one complex entry; np.abs of a complex array may not
    res = np.hypot(diff.real, diff.imag).max(axis=(1, 2), initial=0.0)
    r = [float(res[k]) / max(float(scale[k]), 1e-300) for k in range(3)]
    if not all(map(math.isfinite, r)):
        return r[2], math.nan
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


def _off_diagonal(n: int) -> list[tuple[int, int]]:
    """The coordinate pairs k < l, in the order of their step slots."""
    return list(itertools.combinations(range(n), 2))


@lru_cache(maxsize=8)
def _chern_layout(n: int) -> SimpleNamespace:
    """Stencil rows of one Chern-curvature norm, each point once, in the
    order the pointwise formulas first evaluate them, and where each
    difference reads its rows.

    Row r is x, shifted by `mult1[r]` times step `slot[r]` along `dir1[r]`
    and then by `mult2[r]` times that step along `dir2[r]` (a multiplier 0
    adds nothing).  Row 0 is x itself.  The steps of one level are the
    first-partial steps [i] of the 2n real directions, then the
    second-partial steps of the coordinate pairs k < l; level 1 halves
    level 0, for the Richardson step.  A diagonal pair (k, k) takes the
    step h sqrt(s_k s_k), which is h s_k, the first-partial step of
    directions 2k and 2k + 1 (`ChernStencil`): its second partials read
    that slot, so a pure partial (i, i) shares its rows x + e, x - e with
    the first partial along i.  `first` (2, 2n, 2) holds the rows x+e,
    x-e of each first difference; `pure` (P, 3) the rows x+e, x, x-e and
    `mixed` (Q, 4) the rows ++, +-, -+, -- of each second difference, and
    `pure_at`, `mixed_at` its place in the (2, n, n, 4) stack of second
    partials.
    """
    dim = 2 * n
    off = _off_diagonal(n)
    per_level = dim + len(off)
    # sqrt(s_k s_l) = sqrt(s_l s_k): (k, l) and (l, k) share a step
    pair_slot = {(k, k): 2 * k for k in range(n)}
    for c, (k, l) in enumerate(off):
        pair_slot[k, l] = pair_slot[l, k] = dim + c
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
                    at = ((t * n + k) * n + l) * 4 + c
                    if i == j:      # k == l: the rows of the first partial along i
                        slot = t * per_level + i
                        pure.append([row(i, 1, slot), 0, row(i, -1, slot)])
                        pure_at.append(at)
                    else:
                        slot = t * per_level + pair_slot[k, l]
                        mixed.append([row(i, s1, slot, j, s2)
                                      for s1 in (1, -1) for s2 in (1, -1)])
                        mixed_at.append(at)
    dir1, mult1, dir2, mult2, slot = (np.array(col) for col in zip(*rows))
    # a shift adds e with its zeros signed: x + (-0.0) is x for every x, and
    # x + (+0.0) turns -0.0 into +0.0, as x + e does; x - e is x + (-e)
    zero1, zero2 = (np.where((m > 0)[:, None], 0.0, -0.0) * np.ones(dim) for m in (mult1, mult2))
    layout = SimpleNamespace(dir1=dir1, mult1=mult1, dir2=dir2, mult2=mult2, slot=slot,
                             zero1=zero1, zero2=zero2,
                             at1=np.flatnonzero(mult1), at2=np.flatnonzero(mult2),
                             first=first, pure=np.array(pure), pure_at=np.array(pure_at),
                             mixed=np.array(mixed), mixed_at=np.array(mixed_at))
    for a in vars(layout).values():      # shared by every stencil of this shape
        a.flags.writeable = False
    return layout


class ChernStencil:
    """The stencil of one Chern-curvature norm at x, each point listed once.

    `points` holds the stencil points, in the order the pointwise formulas
    first evaluate them; `curvature` takes the field's matrices at those
    points.  The layout (`_chern_layout`) merges every repeated
    shift of x symbolically, so no rows are compared: 17, 65 and 145 rows
    for n = 1, 2 and 3.  The pointwise formulas take the step h sqrt(s_k s_l) for the
    coordinate pair (k, l).  For k = l that is h sqrt(s_k * s_k), and
    sqrt(s * s) is s to the last bit for every double s whose square is a
    finite normal number (the correctly rounded root undoes the correctly
    rounded square), so a diagonal pair reads the first-partial step h s_k
    and its pure partials share the first partials' rows.  A scale that is
    not positive, or whose square overflows or underflows, raises
    ValueError.

    Every point is formed with the float operations of the pointwise
    formulas (x + e, (x + e_i) - e_j, ...), signed zeros included, and
    every difference, Richardson step, Wirtinger combination and product
    is a stacked array expression in their operation order, so `curvature`
    is bit for bit the tensor the pointwise formulas give: `first_partial`
    and `second_partial` at steps h and h/2, `richardson`, then the
    Wirtinger combinations d = (dx - i dy) / 2, dbar = (dx + i dy) / 2 and
    those of `wirtinger_second`.  `chern_curvature_norm` contracts that
    tensor with its frame (`frame_norm`), a fixed linear map, whose
    rounding is not the pointwise formulas'.
    """

    def __init__(self, x: np.ndarray, step: float,
                 scales: Sequence[float] | None = None):
        x = np.asarray(x, dtype=float)
        n = x.size // 2
        scales = tuple(map(float, scales)) if scales is not None else (1.0,) * n
        for s in scales:
            # s * s normal: sqrt(s * s) is s to the last bit
            if not (s > 0 and sys.float_info.min <= s * s <= sys.float_info.max):
                raise ValueError(f"scale {s!r} is not positive or its square "
                                 "overflows or underflows")
        self.n = n
        lay = self._layout = _chern_layout(n)
        steps = [step * scales[i // 2] for i in range(2 * n)]
        steps += [step * math.sqrt(scales[k] * scales[l]) for k, l in _off_diagonal(n)]
        self._steps = np.array(steps + [h / 2 for h in steps])
        h = self._steps[lay.slot]
        p = x
        for at, d, mult, zero in ((lay.at1, lay.dir1, lay.mult1, lay.zero1),
                                  (lay.at2, lay.dir2, lay.mult2, lay.zero2)):
            e = zero.copy()
            e[at, d[at]] = mult[at] * h[at]
            p = p + e
        self.points = p
        for a in (self.points, self._steps):
            a.flags.writeable = False

    def curvature(self, values: np.ndarray) -> np.ndarray:
        """The curvature tensor R[i, j, k, l] = R_{i jbar k lbar} from the
        stack of the field's matrices at `points`:

            R_{i jbar k lbar} = -d_k dbar_l h_{i jbar}
                                + h^{q pbar} (d_k h_{i pbar}) (dbar_l h_{q jbar}),

        bit for bit the tensor of the pointwise formulas.
        """
        lay, n = self._layout, self.n
        f = np.asarray(values)
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
        return np.ascontiguousarray((-dd + corr).transpose(2, 3, 0, 1))


def frame_norm(R: np.ndarray, h: np.ndarray) -> float:
    """Frobenius norm of the tensor R[i, j, k, l] = R_{i jbar k lbar} in an
    h-orthonormal frame.

    The frame is A = inv(L^H), L the Cholesky factor of (h + h^H) / 2, so
    A^H h A = I, and the tensor in that frame is
    T_{abcd} = R_{ijkl} A_{ia} conj(A)_{jb} A_{kc} conj(A)_{ld}.  With R as
    the (n^2, n^2) matrix M[(i, j), (k, l)] and B = A (x) conj(A), the
    Kronecker product, T is the matrix B^T M B: two n^2 x n^2 products.
    """
    n = len(h)
    L = np.linalg.cholesky(0.5 * (h + h.conj().T))
    A = np.linalg.inv(L.conj().T)        # A^dagger h A = I
    B = (A[:, None, :, None] * A.conj()[None, :, None, :]).reshape(n * n, n * n)
    return float(np.linalg.norm(B.T @ R.reshape(n * n, n * n) @ B))


def chern_curvature_norm(field: Field, stencil: ChernStencil) -> float:
    """Pointwise norm |Rm| of the Chern curvature with respect to the field,
    at the point and steps of `stencil`: the Frobenius norm of
    `stencil.curvature` in an h-orthonormal frame at x (`frame_norm`),
    which is nonnegative and frame-independent.

    The field is called once, on `stencil.points` (each point once); its
    matrices are n x n for points in R^{2n}.
    """
    values = np.asarray(field(stencil.points))
    return frame_norm(stencil.curvature(values), values[0])


def ricci_scalar_residual(field: Field, x: np.ndarray, step: float,
                          scales: Sequence[float] | None = None) -> float:
    """|i d dbar log det h| coefficient magnitude (Ricci form of a Kahler field).

    A test oracle on the pointwise formulas: the field is called once per
    stencil point, on a stack of one row."""
    n = x.size // 2
    scales = tuple(scales) if scales is not None else (1.0,) * n

    def logdet(xx: np.ndarray) -> np.ndarray:
        sign, ld = np.linalg.slogdet(field(xx[None])[0])
        return np.array([[ld]], dtype=complex)

    res = 0.0
    for a in range(n):
        for b in range(n):
            h = step * math.sqrt(scales[a] * scales[b])
            val = richardson(lambda s: wirtinger_second(logdet, x, a, b, s), h)
            res = max(res, abs(val[0, 0]))
    return res
