"""Finite-difference battery, closedness, curvature, Ricci flatness."""

import cmath
import math

import numpy as np
import pytest

from semiflat.asymptotics import to_chart
from semiflat.diffgeo import (ChernStencil, chern_curvature_norm,
                              closedness_residual, first_partial, frame_norm,
                              ricci_scalar_residual, richardson, second_partial,
                              wirtinger_second)
from semiflat.eguchi_hanson import EHConfig, eh_metric
from semiflat.errors import StepTooSmall
from semiflat.kodaira import (FiberKind, FiberType, PuncturedPoint, fiber_product,
                              isotrivial_case13)
from semiflat.metric import ComplexPairs, VolumeFormSpec, _square, metric_at, real_log


def stacked(f):
    """The field of the point function f: f over the rows of a (P, 2n) stack."""
    return lambda xs: np.array([f(x) for x in xs])


def test_fd_battery_polynomial_exponential():
    # nominal order on an analytic test field before trusting it elsewhere;
    # for a holomorphic field d/dx equals the complex derivative
    def f(x):
        z = complex(x[0], x[1])
        return np.array([[np.exp(z) * z ** 2]], dtype=complex)

    x0 = np.array([0.3, 0.2])
    z0 = complex(*x0)
    exact = np.exp(z0) * (z0 ** 2 + 2 * z0)
    assert abs(first_partial(f, x0, 0, 1e-3)[0, 0] - exact) < 5e-6

    # mixed wirtinger second derivative of |z|^4: d/dz dzbar = 4 |z|^2, in
    # the Chern-curvature scheme (one Richardson step)
    def g(x):
        z = complex(x[0], x[1])
        return np.array([[abs(z) ** 4]], dtype=complex)

    got = richardson(lambda h: wirtinger_second(g, x0, 0, 0, h), 1e-4)[0, 0]
    assert abs(got - 4 * abs(z0) ** 2) < 1e-8


def test_closedness_flat_and_convergence_order():
    flat = stacked(lambda x: np.eye(3, dtype=complex))
    res, order = closedness_residual(flat, np.zeros(6), 1e-3)
    assert res < 1e-13 and order == math.inf

    vf = VolumeFormSpec(k0=0.8 + 0.1j)
    pm = fiber_product(FiberType(FiberKind.IIstar),
                       FiberType(FiberKind.IIIstar))

    def field(x):
        z = complex(x[0], x[1])
        pt = PuncturedPoint(s=z ** (1.0 / pm.k), d=pm.k)
        return metric_at(pm, 1.3, vf, pt,
                         (complex(x[2], x[3]), complex(x[4], x[5])))

    z0 = (0.9 * cmath.exp(0.43j)) ** 12
    x0 = np.array([z0.real, z0.imag, 0.3, 0.2, -0.1, 0.4])
    res, order = closedness_residual(stacked(field), x0, 1e-4,
                                     (abs(z0), 1.0, 1.0))
    assert res < 1e-6
    assert order >= 1.9


def test_closedness_case13():
    c13 = isotrivial_case13()
    vf = VolumeFormSpec(k0=c13.default_k0)

    def field(x):
        z = complex(x[0], x[1])
        pt = PuncturedPoint(s=z ** (1.0 / 6.0), d=6)
        return metric_at(c13, 0.7, vf, pt,
                         (complex(x[2], x[3]), complex(x[4], x[5])))

    z0 = (0.6 * cmath.exp(0.9j)) ** 6
    x0 = np.array([z0.real, z0.imag, 0.05, 0.02, 0.03, -0.04])
    res, order = closedness_residual(stacked(field), x0, 1e-4,
                                     (abs(z0), 1.0, 1.0))
    assert res < 1e-6 and order >= 1.9


def test_curvature_flat_zero():
    flat = stacked(lambda x: np.diag([2.0, 1.0, 0.5]).astype(complex))
    assert chern_curvature_norm(flat, ChernStencil(np.zeros(6), 1e-4)) < 1e-10


def test_curvature_eh_nonzero_ricci_flat():
    cfg = EHConfig(a=0.3)

    @stacked
    def ehf(x):
        return eh_metric(cfg, (complex(x[0], x[1]), complex(x[2], x[3]),
                               complex(x[4], x[5])))

    x0 = np.array([0.5, 0.1, -0.3, 0.2, 0.25, -0.4])
    norm_in = chern_curvature_norm(ehf, ChernStencil(x0, 1e-3))
    assert norm_in > 1e-3
    # |Rm| decays in u: the same shell direction further out is flatter
    x1 = 2.5 * x0
    assert chern_curvature_norm(ehf, ChernStencil(x1, 1e-3)) < norm_in
    # det g = 1 means Ricci vanishes identically
    assert ricci_scalar_residual(ehf, x0, 1e-3) < 1e-6


def test_case13_chart_curvature_zero():
    c13 = isotrivial_case13()
    vf = VolumeFormSpec(k0=c13.default_k0)
    chart = to_chart(c13, 0.7, vf)
    mid = 0.5 * sum(chart.sector)
    alpha = 9.0 * cmath.exp(1j * mid)

    @stacked
    def field(x):
        return chart.pulled_h(complex(x[0], x[1]),
                              (complex(x[2], x[3]), complex(x[4], x[5])))

    x0 = np.array([alpha.real, alpha.imag, 0.31, 0.12, 0.2, 0.4])
    norm = chern_curvature_norm(field, ChernStencil(x0, 2e-3,
                                                    (abs(alpha), 1.0, 1.0)))
    assert norm < 1e-6


def test_semiflat_ricci_vanishes():
    # det h is |g|^2-proportional, so -i d dbar log det h = 0
    vf = VolumeFormSpec(k0=1.0)
    pm = fiber_product(FiberType(FiberKind.Istar, b=1),
                       FiberType(FiberKind.IVstar))

    @stacked
    def field(x):
        z = complex(x[0], x[1])
        pt = PuncturedPoint(s=z ** (1.0 / pm.k), d=pm.k)
        return metric_at(pm, 1.0, vf, pt,
                         (complex(x[2], x[3]), complex(x[4], x[5])))

    z0 = 0.2 * cmath.exp(1.2j)
    x0 = np.array([z0.real, z0.imag, 0.1, 0.02, 0.05, -0.03])
    assert ricci_scalar_residual(field, x0, 1e-3,
                                 (abs(z0), 1.0, 1.0)) < 1e-6


def test_step_too_small_detection():
    # a closed smooth background plus a sub-step ripple: the residual grows
    # as the step shrinks toward the ripple wavelength
    lam = 2.9e-5

    @stacked
    def fld(x):
        xi0 = complex(x[0], x[1])
        xi1 = complex(x[2], x[3])
        ripple = 1e-7 * math.sin(x[0] / lam)
        return np.array([[1.0 + abs(xi1) ** 2, np.conj(xi0) * xi1],
                         [xi0 * np.conj(xi1), 1.0 + abs(xi0) ** 2 + ripple]],
                        dtype=complex)

    with pytest.raises(StepTooSmall):
        closedness_residual(fld, np.array([0.3, 0.1, 0.2, 0.4]), 1e-3)


def counted(field):
    """The field and the number of rows of each call made to it."""
    calls = []

    def wrapper(xs):
        calls.append(len(xs))
        return field(xs)

    return wrapper, calls


def test_chern_norm_evaluates_each_point_once():
    # d and dbar take the same first partials and the mixed partial (i, j)
    # repeats (j, i): the 326 stencil evaluations of a 3-coordinate field
    # fall on 145 distinct points, evaluated in one call
    cfg = EHConfig(a=0.3)
    ehf, calls = counted(stacked(lambda x: eh_metric(
        cfg, (complex(x[0], x[1]), complex(x[2], x[3]), complex(x[4], x[5])))))
    x0 = np.array([0.5, 0.1, -0.3, 0.2, 0.25, -0.4])
    chern_curvature_norm(ehf, ChernStencil(x0, 1e-3, (1.7, 4.0, 4.0)))
    assert len(calls) == 1 and calls[0] <= 145


def _distinct_row_count(points: np.ndarray) -> int:
    """The number of rows of `points` with distinct bytes (0.0 is not -0.0)."""
    return len({row.tobytes() for row in points})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chern_stencil_lists_each_point_once(n):
    # the layout merges every repeat symbolically: no two rows of `points`
    # have the same bytes, for any x and scales
    rng = np.random.default_rng(19 * n)
    for _ in range(20):
        x = rng.normal(size=2 * n) * 10 ** rng.uniform(-2, 2, 2 * n)
        scales = 10 ** rng.uniform(-3, 3, n)
        step = 10 ** rng.uniform(-6, -2)
        points = ChernStencil(x, step, scales).points
        assert _distinct_row_count(points) == len(points)
    assert len(points) == {1: 17, 2: 65, 3: 145}[n]


def test_diagonal_second_partials_take_the_first_partial_step():
    # the pointwise formulas take the step h sqrt(s_k s_k) for the pair
    # (k, k), and sqrt(s * s) is s to the last bit while s * s is normal,
    # so the stencil reads the first-partial step h s_k there
    s = 10 ** np.random.default_rng(19).uniform(-100, 100, 100_000)
    assert np.array_equal(np.sqrt(s * s), s)
    for scale in (0.0, -1.0, 1e-160, 1e160, math.inf, math.nan):
        with pytest.raises(ValueError, match="scale"):
            ChernStencil(np.zeros(4), 1e-4, (1.0, scale))


def _pointwise_curvature(field, x, step, scales):
    """The curvature tensor R[i, j, k, l] from the pointwise stencil
    formulas, one matrix at a time: the reference for
    `ChernStencil.curvature`.  Each real partial is taken at steps h and h/2
    and combined by one Richardson step, then the Wirtinger derivatives are
    formed."""
    n = x.size // 2
    h0 = field(x)
    hinv = np.linalg.inv(h0)

    def extrapolated(partial, *args, h):
        return (4 * partial(field, x, *args, h / 2) - partial(field, x, *args, h)) / 3

    d, dbar = [], []
    for a in range(n):
        h = step * scales[a]
        dx = extrapolated(first_partial, 2 * a, h=h)
        dy = extrapolated(first_partial, 2 * a + 1, h=h)
        d.append(0.5 * (dx - 1j * dy))
        dbar.append(0.5 * (dx + 1j * dy))
    R = np.zeros((n,) * 4, dtype=complex)
    for k in range(n):
        for l in range(n):
            h = step * math.sqrt(scales[k] * scales[l])
            i, j = 2 * k, 2 * l
            dxx = extrapolated(second_partial, i, j, h=h)
            dyy = extrapolated(second_partial, i + 1, j + 1, h=h)
            dxy = extrapolated(second_partial, i, j + 1, h=h)
            dyx = extrapolated(second_partial, i + 1, j, h=h)
            dd = 0.25 * (dxx + dyy + 1j * (dxy - dyx))
            R[:, :, k, l] = -dd + d[k] @ hinv @ dbar[l]
    return R


def _einsum_frame_norm(R, h):
    """The Frobenius norm of R in the frame A = inv(L^H), L the Cholesky
    factor of (h + h^H) / 2, by one five-operand einsum: the oracle for
    `frame_norm`."""
    L = np.linalg.cholesky(0.5 * (h + h.conj().T))
    A = np.linalg.inv(L.conj().T)
    T = np.einsum("ijkl,ia,jb,kc,ld->abcd", R, A, A.conj(), A, A.conj())
    return float(np.sqrt(np.sum(np.abs(T) ** 2)))


def test_chern_norm_equals_the_pointwise_formulas_bit_for_bit():
    # the stacked curvature tensor is the pointwise one bit for bit (as
    # integers, so that -0.0 and 0.0 differ); the norm is the einsum's
    # frame contraction of it to rounding
    cfg = EHConfig(a=0.3)

    def ehf(x):
        return eh_metric(cfg, (complex(x[0], x[1]), complex(x[2], x[3]),
                               complex(x[4], x[5])))

    chart = to_chart(fiber_product(FiberType(FiberKind.IIstar),
                                   FiberType(FiberKind.IIIstar)), 1.0, VolumeFormSpec(k0=0.9))
    alpha = 500 * cmath.exp(0.5j * sum(chart.sector))

    def pulled(x):
        return chart.pulled_h(complex(x[0], x[1]), (complex(x[2], x[3]), complex(x[4], x[5])))

    def real2(x):
        return np.array([[2 + x[0] ** 2, 0.1 * x[1]], [0.1 * x[1], 1 + x[2] ** 2 * x[3]]])

    step = 1e-3
    cases = [(ehf, np.array([0.5, 0.1, -0.3, 0.2, 0.25, -0.4]), (1.7, 4.0, 4.0)),
             (ehf, np.array([0.5, -0.0, 0.0, 0.2, -0.0, -0.4]), (1.0, 1.0, 1.0)),
             (pulled, np.array([alpha.real, alpha.imag, 0.3, 0.1, 0.2, 0.4]),
              (abs(alpha), 4.0, 4.0)),
             (real2, np.array([0.3, 0.2, 0.7, -0.1]), (2.0, 0.5))]
    for field, x, scales in cases:
        stencil = ChernStencil(x, step, scales)
        values = stacked(field)(stencil.points)
        R = _pointwise_curvature(field, x, step, scales)
        assert np.array_equal(stencil.curvature(values).view(np.uint64), R.view(np.uint64))
        oracle = _einsum_frame_norm(R, field(x))
        assert abs(chern_curvature_norm(stacked(field), stencil) / oracle - 1.0) <= 1e-14


def _random_hermitian(rng, n, condition):
    """A Hermitian positive-definite n x n matrix with condition number
    `condition` and a random unitary eigenbasis."""
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    eig = 10 ** rng.uniform(-2, 2) * np.geomspace(1.0, condition, n)
    return (Q * eig) @ Q.conj().T


def _random_tensor(rng, n, scale):
    return scale * (rng.normal(size=(n,) * 4) + 1j * rng.normal(size=(n,) * 4))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frame_norm_agrees_with_the_einsum(n):
    # over the magnitudes of |Rm| the curvature fits see, and metrics up to
    # condition number 1e6
    rng = np.random.default_rng(31 * n)
    for scale in 10.0 ** np.arange(-21, 3, 1.5):
        for condition in (1.0, 1e3, 1e6):
            R = _random_tensor(rng, n, scale)
            h = _random_hermitian(rng, n, condition)
            assert abs(frame_norm(R, h) / _einsum_frame_norm(R, h) - 1.0) <= 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_frame_norm_is_invariant_under_a_unitary_change_of_frame(n):
    # the frame A becomes U^-1 A: R takes U where frame_norm applies A and
    # conj(U) where it applies conj(A), and h, which the frame reads as
    # A^H h A, becomes U^H h U.  Rounding U^H h U
    # moves h by about 1e-16 |h|, which moves the norm by up to that times
    # the condition number of h, so h is kept at condition 100 or below
    rng = np.random.default_rng(53 * n)
    for _ in range(50):
        R = _random_tensor(rng, n, 10 ** rng.uniform(-21, 2))
        h = _random_hermitian(rng, n, 10 ** rng.uniform(0, 2))
        U, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        moved = np.einsum("ijkl,ia,jb,kc,ld->abcd", R, U, U.conj(), U, U.conj())
        assert abs(frame_norm(moved, U.conj().T @ h @ U) / frame_norm(R, h) - 1.0) <= 1e-13


def _pointwise_closedness(field, x, step, scales):
    """The closedness residual and order from the pointwise formulas, one
    matrix at a time: the reference for the stacked closedness_residual.
    d and dbar are formed from `first_partial` at steps h, h/2 and h/4."""
    n = x.size // 2
    r = []
    for k in range(3):
        h = step / 2 ** k
        d, dbar = [], []
        for a in range(n):
            dx = first_partial(field, x, 2 * a, h * scales[a])
            dy = first_partial(field, x, 2 * a + 1, h * scales[a])
            d.append(0.5 * (dx - 1j * dy))
            dbar.append(0.5 * (dx + 1j * dy))
        scale = max(float(np.max(np.abs(m))) for m in d + dbar)
        res = 0.0
        for l in range(n):
            for j in range(l + 1, n):
                for c in range(n):
                    res = max(res, abs(d[l][j, c] - d[j][l, c]))
        for l in range(n):
            for c in range(l + 1, n):
                for j in range(n):
                    res = max(res, abs(dbar[l][j, c] - dbar[c][j, l]))
        r.append(res / max(scale, 1e-300))
    if r[0] < 1e-10:
        return r[0], math.inf
    orders = [math.log2(r[k] / r[k + 1]) for k in range(2) if r[k + 1] > 0 and r[k] > 0]
    return r[2], sum(orders) / len(orders) if orders else math.inf


def test_closedness_equals_the_pointwise_formulas_bit_for_bit():
    cfg = EHConfig(a=0.3)

    def ehf(x):
        return eh_metric(cfg, (complex(x[0], x[1]), complex(x[2], x[3]),
                               complex(x[4], x[5])))

    chart = to_chart(fiber_product(FiberType(FiberKind.IIstar),
                                   FiberType(FiberKind.IIIstar)), 1.0, VolumeFormSpec(k0=0.9))
    alpha = 500 * cmath.exp(0.5j * sum(chart.sector))

    def pulled(x):
        return chart.pulled_h(complex(x[0], x[1]), (complex(x[2], x[3]), complex(x[4], x[5])))

    def real2(x):
        return np.array([[2 + x[0] ** 2, 0.1 * x[1]], [0.1 * x[1], 1 + x[2] ** 2 * x[3]]])

    cases = [(ehf, np.array([0.5, 0.1, -0.3, 0.2, 0.25, -0.4]), (1.7, 4.0, 4.0)),
             (ehf, np.array([0.5, -0.0, 0.0, 0.2, -0.0, -0.4]), (1.0, 1.0, 1.0)),
             (pulled, np.array([alpha.real, alpha.imag, 0.3, 0.1, 0.2, 0.4]),
              (abs(alpha), 4.0, 4.0)),
             (real2, np.array([0.3, 0.2, 0.7, -0.1]), (2.0, 0.5))]
    step = 1e-3
    for field, x, scales in cases:
        assert (closedness_residual(stacked(field), x, step, scales)
                == _pointwise_closedness(field, x, step, scales))


def test_closedness_evaluates_each_point_once():
    # d and dbar share their first partials: 3 steps x 3 coordinates x
    # 2 real directions x 2 points, where the stencils make 72 evaluations,
    # all in one call
    flat, calls = counted(stacked(lambda x: np.eye(3, dtype=complex)))
    closedness_residual(flat, np.zeros(6), 1e-3)
    assert calls == [36]


def _bits_equal(a, b) -> bool:
    # integer views: == on floats takes -0.0 for 0.0
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def test_stacked_numpy_ops_are_bit_identical():
    # ChernStencil and the batched pulled_h compute on stacks what the
    # pointwise formulas compute matrix by matrix; the curvature fits
    # reproduce only bit for bit, so each stacked op must round like the
    # per-matrix one at every position of the stack
    why = ("numpy/BLAS rounds a stacked op differently from the per-matrix one; "
           "see docs/decisions.md, 'curvature_decay reproduces only bit for bit'")
    rng = np.random.default_rng(8)

    def cplx(*shape):
        return (rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
                + 1j * rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape))

    A, B = cplx(37, 3, 3), cplx(37, 3, 3)
    assert _bits_equal(A.transpose(0, 2, 1) @ B @ A.conj(),
                       [a.T @ b @ a.conj() for a, b in zip(A, B)]), why
    assert _bits_equal((A @ B[0])[:, None] @ B[None, :5],
                       [[a @ B[0] @ b for b in B[:5]] for a in A]), why
    steps = rng.uniform(1e-4, 1e-2, (37, 1, 1))
    for op in (np.add, np.subtract, np.multiply, np.divide):
        whole = op(A, B)
        assert _bits_equal(whole, [op(a, b) for a, b in zip(A, B)]), why
        assert _bits_equal(op(A[1::2], B[1::2]), whole[1::2]), why
        assert _bits_equal(op(A, steps), [op(a, float(h[0, 0])) for a, h in zip(A, steps)]), why
        assert _bits_equal(op(0.5, A), [op(0.5, a) for a in A]), why
        assert _bits_equal(op(1j, A), [op(1j, a) for a in A]), why


def test_real_split_arithmetic_rounds_as_python_complex():
    # metric.py computes the entries of h on (re, im) float arrays in the
    # operation order of CPython 3.11's complex, so that a batch has the bits
    # of Python complex arithmetic at every position (numpy's own complex
    # loops do not); each assertion names one fact a numpy or libm upgrade
    # could break
    rng = np.random.default_rng(14)
    n = 20000

    def floats():
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
        x[rng.random(n) < 0.05] = 0.0
        x[rng.random(n) < 0.05] = -0.0
        return x

    ar, ai, br, bi = floats(), floats(), floats(), floats()
    p = np.abs(floats()) + 1e-3
    a = [complex(x, y) for x, y in zip(ar.tolist(), ai.tolist())]
    b = [complex(x, y) for x, y in zip(br.tolist(), bi.tolist())]

    def pairs_equal(pairs, zs):
        return (_bits_equal(pairs.real, [z.real for z in zs])
                and _bits_equal(pairs.imag, [z.imag for z in zs]))

    A, B = ComplexPairs(ar, ai), ComplexPairs(br, bi)
    assert pairs_equal(A * B, [u * v for u, v in zip(a, b)]), \
        "complex * complex is (ar br - ai bi, ar bi + ai br)"
    assert pairs_equal(ar * B, [x * v for x, v in zip(ar.tolist(), b)]), \
        "float * complex is (x, 0.0) * b, 0.0 terms included"
    assert pairs_equal(A / p, [u / q for u, q in zip(a, p.tolist())]), \
        "complex / float is _Py_c_quot by (p, 0.0)"
    assert pairs_equal(A - B, [u - v for u, v in zip(a, b)]), "complex - complex"
    assert _bits_equal(abs(A), [abs(u) for u in a]), "np.hypot rounds as abs(complex)"
    assert _bits_equal(_square(abs(A)), [abs(u) ** 2 for u in a]), \
        "np.float_power(x, 2.0) rounds as Python's x ** 2 (libm pow)"
    assert _bits_equal(sum([ar, br]), [sum([x, y]) for x, y in zip(ar.tolist(), br.tolist())]), \
        "sum of two floats is (0.0 + f0) + f1"


def test_complex_pairs_operators_and_namespace_round_as_python_complex():
    # the terms of alpha alone (chart scales, period closures, g_eff) run on
    # ComplexPairs in a batch and on Python complex at a point; every
    # operator and function they use must give a point's bits at every
    # position, signed zeros included
    rng = np.random.default_rng(15)
    n = 20000

    def floats(lo=-8, hi=9):
        x = rng.standard_normal(n) * 10.0 ** rng.integers(lo, hi, n)
        x[rng.random(n) < 0.05] = 0.0
        x[rng.random(n) < 0.05] = -0.0
        return x

    ar, ai, br, bi = floats(), floats(), floats(), floats()
    # ties |br| == |bi|, of either sign, and both Smith branches
    tie = rng.random(n) < 0.1
    bi[tie] = np.where(rng.random(tie.sum()) < 0.5, 1.0, -1.0) * br[tie]
    nonzero = (br != 0) | (bi != 0)
    assert (np.abs(br) > np.abs(bi)).sum() > n // 3 and (np.abs(br) < np.abs(bi)).sum() > n // 3
    assert (tie & (br != 0)).sum() > n // 20
    a = [complex(x, y) for x, y in zip(ar.tolist(), ai.tolist())]
    b = [complex(x, y) for x, y in zip(br.tolist(), bi.tolist())]
    A, B = ComplexPairs(ar, ai), ComplexPairs(br, bi)

    def pairs_equal(pairs, zs, where=slice(None)):
        shape = np.shape(ar[where])
        return (_bits_equal(np.broadcast_to(pairs.real, shape), [z.real for z in zs])
                and _bits_equal(np.broadcast_to(pairs.imag, shape), [z.imag for z in zs]))

    x, c = 0.75, -1.5 + 0.0j
    assert pairs_equal(A + B, [u + v for u, v in zip(a, b)]), "complex + complex"
    assert pairs_equal(A + x, [u + x for u in a]), "complex + float is + (x, 0.0)"
    assert pairs_equal(1 + A, [1 + u for u in a]), "reflected +"
    assert pairs_equal(c + A, [c + u for u in a]), "reflected + of a complex"
    assert pairs_equal(1 - A, [1 - u for u in a]), "reflected - is (1, 0.0) - a: 0.0 - im"
    assert pairs_equal(c - A, [c - u for u in a]), "reflected - of a complex"
    assert pairs_equal(-A, [-u for u in a]), "unary -"
    for k in range(13):
        assert pairs_equal(A ** k, [u ** k for u in a]), f"** {k} is c_powu from 1+0j"
    assert pairs_equal(A[nonzero] / B[nonzero],
                       [u / v for u, v, keep in zip(a, b, nonzero) if keep], nonzero), \
        "complex / complex is _Py_c_quot, both branches, ties to the first"
    assert pairs_equal(c / B[nonzero], [c / v for v, keep in zip(b, nonzero) if keep],
                       nonzero), "reflected complex / complex"
    assert pairs_equal(x / B[nonzero], [x / v for v, keep in zip(b, nonzero) if keep],
                       nonzero), "reflected float / complex is (x, 0.0) / b"

    xp = A.__array_namespace__()
    small = ComplexPairs(floats(-8, 3), floats(-8, 3))      # no overflow in exp
    s = [complex(u, v) for u, v in zip(small.real.tolist(), small.imag.tolist())]
    assert pairs_equal(xp.exp(small), [cmath.exp(u) for u in s]), "exp is cmath.exp per entry"
    live = (ar != 0) | (ai != 0)
    assert _bits_equal(xp.phase(A), [cmath.phase(u) for u in a]), "phase is cmath.phase per entry"
    assert _bits_equal(real_log(abs(A[live])),
                       [math.log(abs(u)) for u, keep in zip(a, live) if keep]), \
        "a real log is math.log per entry"
