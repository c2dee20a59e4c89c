"""Finite-difference battery, closedness, curvature, Ricci flatness, positivity."""

import cmath
import math

import numpy as np
import pytest

from semiflat.asymptotics import to_chart
from semiflat.diffgeo import (FDScheme, chern_curvature_norm, closedness_residual,
                              first_partial, memoized, positivity, ricci_scalar_residual,
                              richardson, second_partial, wirtinger_second)
from semiflat.eguchi_hanson import EHConfig, eh_metric
from semiflat.errors import StepTooSmall
from semiflat.kodaira import (FiberKind, FiberType, PuncturedPoint, fiber_product,
                              isotrivial_case13)
from semiflat.metric import VolumeFormSpec, metric_at


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
    flat = lambda x: np.eye(3, dtype=complex)
    res, order = closedness_residual(flat, np.zeros(6), FDScheme(step=1e-3))
    assert res < 1e-13 and order == math.inf

    vf = VolumeFormSpec(k0=0.8 + 0.1j)
    pm = fiber_product(FiberType(FiberKind.IIstar),
                       FiberType(FiberKind.IIIstar))

    def field(x):
        z = complex(x[0], x[1])
        pt = PuncturedPoint(s=z ** (1.0 / pm.k), d=pm.k)
        return metric_at(pm, 1.3, vf, pt,
                         (complex(x[2], x[3]), complex(x[4], x[5]))).h

    z0 = (0.9 * cmath.exp(0.43j)) ** 12
    x0 = np.array([z0.real, z0.imag, 0.3, 0.2, -0.1, 0.4])
    res, order = closedness_residual(field, x0, FDScheme(step=1e-4),
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
                         (complex(x[2], x[3]), complex(x[4], x[5]))).h

    z0 = (0.6 * cmath.exp(0.9j)) ** 6
    x0 = np.array([z0.real, z0.imag, 0.05, 0.02, 0.03, -0.04])
    res, order = closedness_residual(field, x0, FDScheme(step=1e-4),
                                     (abs(z0), 1.0, 1.0))
    assert res < 1e-6 and order >= 1.9


def test_curvature_flat_zero():
    flat = lambda x: np.diag([2.0, 1.0, 0.5]).astype(complex)
    assert chern_curvature_norm(flat, np.zeros(6), FDScheme()) < 1e-10


def test_curvature_eh_nonzero_ricci_flat():
    cfg = EHConfig(a=0.3)

    def ehf(x):
        return eh_metric(cfg, (complex(x[0], x[1]), complex(x[2], x[3]),
                               complex(x[4], x[5])))

    x0 = np.array([0.5, 0.1, -0.3, 0.2, 0.25, -0.4])
    norm_in = chern_curvature_norm(ehf, x0, FDScheme(step=1e-3))
    assert norm_in > 1e-3
    # |Rm| decays in u: the same shell direction further out is flatter
    x1 = 2.5 * x0
    assert chern_curvature_norm(ehf, x1, FDScheme(step=1e-3)) < norm_in
    # det g = 1 means Ricci vanishes identically
    assert ricci_scalar_residual(ehf, x0, FDScheme(step=1e-3)) < 1e-6


def test_case13_chart_curvature_zero():
    c13 = isotrivial_case13()
    vf = VolumeFormSpec(k0=c13.default_k0)
    chart = to_chart(c13, 0.7, vf)
    mid = 0.5 * sum(chart.sector)
    alpha = 9.0 * cmath.exp(1j * mid)

    def field(x):
        return chart.pulled_h(complex(x[0], x[1]),
                              (complex(x[2], x[3]), complex(x[4], x[5])))

    x0 = np.array([alpha.real, alpha.imag, 0.31, 0.12, 0.2, 0.4])
    norm = chern_curvature_norm(field, x0, FDScheme(step=2e-3),
                                (abs(alpha), 1.0, 1.0))
    assert norm < 1e-6


def test_semiflat_ricci_vanishes():
    # det h is |g|^2-proportional, so -i d dbar log det h = 0
    vf = VolumeFormSpec(k0=1.0)
    pm = fiber_product(FiberType(FiberKind.Istar, b=1),
                       FiberType(FiberKind.IVstar))

    def field(x):
        z = complex(x[0], x[1])
        pt = PuncturedPoint(s=z ** (1.0 / pm.k), d=pm.k)
        return metric_at(pm, 1.0, vf, pt,
                         (complex(x[2], x[3]), complex(x[4], x[5]))).h

    z0 = 0.2 * cmath.exp(1.2j)
    x0 = np.array([z0.real, z0.imag, 0.1, 0.02, 0.05, -0.03])
    assert ricci_scalar_residual(field, x0, FDScheme(step=1e-3),
                                 (abs(z0), 1.0, 1.0)) < 1e-6


def test_positivity_examples():
    assert abs(positivity(np.eye(3)) - 1.0) < 1e-14
    assert abs(positivity(np.diag([2.0, 1.0, 1e-7])) - 1e-7) < 1e-16
    h = np.array([[2.0, 1j], [-1j, 2.0]])
    assert abs(positivity(h) - 1.0) < 1e-12


def test_step_too_small_detection():
    # a closed smooth background plus a sub-step ripple: the residual grows
    # as the step shrinks toward the ripple wavelength
    lam = 2.9e-5

    def fld(x):
        xi0 = complex(x[0], x[1])
        xi1 = complex(x[2], x[3])
        ripple = 1e-7 * math.sin(x[0] / lam)
        return np.array([[1.0 + abs(xi1) ** 2, np.conj(xi0) * xi1],
                         [xi0 * np.conj(xi1), 1.0 + abs(xi0) ** 2 + ripple]],
                        dtype=complex)

    with pytest.raises(StepTooSmall):
        closedness_residual(fld, np.array([0.3, 0.1, 0.2, 0.4]), FDScheme(step=1e-3))


def test_fd_scheme_validation():
    with pytest.raises(ValueError):
        FDScheme(step=1e-9)
    with pytest.raises(ValueError):
        FDScheme(step=0.1)


def counted(field):
    calls = [0]

    def wrapper(x):
        calls[0] += 1
        return field(x)

    return wrapper, calls


def test_chern_norm_evaluates_each_point_once():
    # d and dbar take the same first partials and the mixed partial (i, j)
    # repeats (j, i): the 326 stencil evaluations of a 3-coordinate field
    # fall on 145 distinct points
    cfg = EHConfig(a=0.3)
    ehf, calls = counted(lambda x: eh_metric(
        cfg, (complex(x[0], x[1]), complex(x[2], x[3]), complex(x[4], x[5]))))
    x0 = np.array([0.5, 0.1, -0.3, 0.2, 0.25, -0.4])
    chern_curvature_norm(ehf, x0, FDScheme(step=1e-3), (1.7, 4.0, 4.0))
    assert calls[0] <= 145


def _pointwise_chern_norm(field, x, scheme, scales):
    """|Rm| from the pointwise stencil formulas, one matrix at a time: the
    reference for the stacked ChernStencil.  Each real partial is taken at
    steps h and h/2 and combined by one Richardson step, then the Wirtinger
    derivatives are formed."""
    n = x.size // 2
    h0 = field(x)
    hinv = np.linalg.inv(h0)

    def extrapolated(partial, *args, h):
        return (4 * partial(field, x, *args, h / 2) - partial(field, x, *args, h)) / 3

    d, dbar = [], []
    for a in range(n):
        h = scheme.step * scales[a]
        dx = extrapolated(first_partial, 2 * a, h=h)
        dy = extrapolated(first_partial, 2 * a + 1, h=h)
        d.append(0.5 * (dx - 1j * dy))
        dbar.append(0.5 * (dx + 1j * dy))
    R = np.zeros((n,) * 4, dtype=complex)
    for k in range(n):
        for l in range(n):
            h = scheme.step * math.sqrt(scales[k] * scales[l])
            i, j = 2 * k, 2 * l
            dxx = extrapolated(second_partial, i, j, h=h)
            dyy = extrapolated(second_partial, i + 1, j + 1, h=h)
            dxy = extrapolated(second_partial, i, j + 1, h=h)
            dyx = extrapolated(second_partial, i + 1, j, h=h)
            dd = 0.25 * (dxx + dyy + 1j * (dxy - dyx))
            R[:, :, k, l] = -dd + d[k] @ hinv @ dbar[l]
    L = np.linalg.cholesky(0.5 * (h0 + h0.conj().T))
    A = np.linalg.inv(L.conj().T)
    T = np.einsum("ijkl,ia,jb,kc,ld->abcd", R, A, A.conj(), A, A.conj())
    return float(np.sqrt(np.sum(np.abs(T) ** 2)))


def test_chern_norm_equals_the_pointwise_formulas_bit_for_bit():
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

    scheme = FDScheme(step=1e-3)
    cases = [(ehf, np.array([0.5, 0.1, -0.3, 0.2, 0.25, -0.4]), (1.7, 4.0, 4.0)),
             (ehf, np.array([0.5, -0.0, 0.0, 0.2, -0.0, -0.4]), (1.0, 1.0, 1.0)),
             (pulled, np.array([alpha.real, alpha.imag, 0.3, 0.1, 0.2, 0.4]),
              (abs(alpha), 4.0, 4.0)),
             (real2, np.array([0.3, 0.2, 0.7, -0.1]), (2.0, 0.5))]
    for field, x, scales in cases:
        assert (chern_curvature_norm(field, x, scheme, scales)
                == _pointwise_chern_norm(field, x, scheme, scales))


def test_closedness_evaluates_each_point_once():
    # d and dbar share their first partials: 3 steps x 3 coordinates x
    # 2 real directions x 2 points, where the stencils make 72 calls
    flat, calls = counted(lambda x: np.eye(3, dtype=complex))
    closedness_residual(flat, np.zeros(6), FDScheme(step=1e-3))
    assert calls[0] == 36


def test_memoized_values_are_read_only():
    fld, calls = counted(lambda x: np.diag([x[0], 1.0]).astype(complex))
    memo = memoized(fld)
    x = np.array([0.5, 0.25])
    out = memo(x)
    assert memo(x.copy()) is out and calls[0] == 1
    with pytest.raises(ValueError):
        out[0, 0] = 2.0
    memo(np.array([0.5, 0.5]))
    assert calls[0] == 2


def _bits_equal(a, b) -> bool:
    return np.array_equal(np.asarray(a).view(float), np.asarray(b).view(float))


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
