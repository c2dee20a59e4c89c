"""Semi-flat metric assembly, Christoffel symbols, Monge-Ampere identity."""

import cmath
import math

import numpy as np
import pytest

from semiflat.errors import DegenerateLattice, SingularPeriods
from semiflat.kodaira import (FiberKind, FiberType, LocalModel, ProductModel,
                              PuncturedPoint, fiber_product, finite_kinds,
                              isotrivial_case13, local_model)
from semiflat.lattice import hermitian_h, product_family, scaled_h
from semiflat.metric import (MetricSample, VolumeFormSpec, _fiber_terms, christoffel_closed,
                             christoffel_general, elliptic_metric_at, laplace_det, ma_residual,
                             metric_at, periods_at)
from semiflat.rng import SplitMix64

FK = FiberKind


def sample(model, rng):
    from semiflat.scenario import sample_point
    return sample_point(model, rng)


def all_product_pairs():
    kinds = finite_kinds()
    pairs = []
    for i, a in enumerate(kinds):
        for b in kinds[i:]:
            pairs.append(fiber_product(FiberType(a), FiberType(b)))
    pairs.append(fiber_product(FiberType(FK.Istar, b=1),
                               FiberType(FK.Istar, b=2)))
    for kind in (FK.IIstar, FK.IIIstar, FK.IVstar):
        pairs.append(fiber_product(FiberType(FK.Istar, b=1),
                                   FiberType(kind)))
    return pairs


def flat_sample(m: int):
    """metric_at on unit square lattices with g = 1 and eps = 2, where h is
    the identity off the v-dependent mixed terms."""
    def tau(s):
        return (1.0 + 0j, 1j)

    def dtau(s):
        return (0j, 0j)

    lm = LocalModel(fiber=FiberType(FK.I0star), d=1, A=((1, 0), (0, 1)),
                    deck_exponent=0, coord_power=0, tau=tau, dtau_ds=dtau,
                    deck_multiplier=lambda s: 1.0 + 0j, deck_tau=tau,
                    modulus_limit=1j)
    pt = PuncturedPoint(s=0.5 + 0j, d=1)
    vf = VolumeFormSpec(k0=0.25 + 0j)   # g(z) = 1 at z = 1/2
    if m == 1:
        return metric_at(lm, 2.0, vf, pt, (0.1 + 0.1j,))
    pm = ProductModel(left=lm.fiber, right=lm.fiber, left_model=lm,
                      right_model=lm, k=1, alpha=0, beta=0, a1=0, a2=0,
                      label_override="flat")
    return metric_at(pm, 2.0, vf, pt, (0.1 + 0.1j, 0.2 - 0.1j))


def test_flat_calibration_identity_matrix():
    # the flat case needs no wedge constant: det h = |g_eff|^2 exactly
    s = flat_sample(2)
    assert np.max(np.abs(s.h - np.eye(3))) < 1e-15
    assert ma_residual(s) < 1e-15
    assert ma_residual(flat_sample(1)) < 1e-15


def test_case13_displayed_coefficients():
    c13 = isotrivial_case13()
    vf = VolumeFormSpec(k0=c13.default_k0)
    eps = 0.7
    pt = PuncturedPoint(s=0.6 * cmath.exp(0.9j), d=6)
    v = (0.21 - 0.11j, 0.05 + 0.3j)
    samp = metric_at(c13, eps, vf, pt, v)
    z = pt.z
    assert abs(samp.h[1, 1] - eps / (2 * math.sqrt(3)) * abs(z) ** (-1 / 3)) < 1e-14
    assert abs(samp.h[2, 2] - eps / (2 * math.sqrt(3)) * abs(z) ** (-4 / 3)) < 1e-14
    base = abs(z) ** (5 / 3) / (12 * eps ** 2 * abs(z) ** 4)
    gam = christoffel_closed(c13, pt, v)
    expected00 = base + samp.h[1, 1].real * abs(gam[0]) ** 2 \
        + samp.h[2, 2].real * abs(gam[1]) ** 2
    assert abs(samp.h[0, 0] - expected00) < 1e-12 * abs(expected00)


def test_case13_christoffel_closed_form():
    c13 = isotrivial_case13()
    pt = PuncturedPoint(s=0.6 * cmath.exp(0.9j), d=6)
    v = (0.21 - 0.11j, 0.05 + 0.3j)
    g1, g2 = christoffel_closed(c13, pt, v)
    assert abs(g1 - v[0] / (6 * pt.z)) < 1e-14
    assert abs(g2 - 2 * v[1] / (3 * pt.z)) < 1e-14


def test_pairing_closed_forms():
    # phase terms cancel in the Im pairings: for (IIstar, IIIstar) with
    # m = (2, 1), Im(t1-bar t2) = (sqrt3/2)(1-|z|^{2m1/3})|z|^{1/3} and
    # Im(t3-bar t4) = (1-|z|^{m2})|z|^{1/2}
    pm = fiber_product(FiberType(FK.IIstar), FiberType(FK.IIIstar))
    s = 0.82 * cmath.exp(0.37j)
    t = pm.tau(s)
    z = s ** 12
    i12 = (t[0].conjugate() * t[1]).imag
    i34 = (t[2].conjugate() * t[3]).imag
    assert abs(i12 - math.sqrt(3) / 2 * (1 - abs(z) ** (4 / 3)) * abs(z) ** (1 / 3)) < 1e-14
    assert abs(i34 - (1 - abs(z)) * abs(z) ** 0.5) < 1e-14


def test_istar_istar_base_coefficient():
    # base term of the star x star ansatz: b1 b2 |k|^2 L^2 / (pi^2 eps^2 |z|^2)
    b1, b2, eps, k0 = 1, 3, 0.8, 1.4
    pm = fiber_product(FiberType(FK.Istar, b=b1), FiberType(FK.Istar, b=b2))
    vf = VolumeFormSpec(k0=k0)
    pt = PuncturedPoint(s=0.09 * cmath.exp(1.3j), d=2)
    samp = metric_at(pm, eps, vf, pt, (0j, 0j))
    z = pt.z
    L = -math.log(abs(z))
    expect = b1 * b2 * k0 ** 2 * L ** 2 / (math.pi ** 2 * eps ** 2 * abs(z) ** 2)
    assert abs(samp.h[0, 0].real / expect - 1.0) < 1e-12


def test_ib_fiber_block_log_factor():
    # I_b: Im(t1-bar t2) = (b/2 pi) L, so the fiber coefficient is pi eps/(b L)
    b, eps = 3, 1.2
    lm = local_model(FiberType(FK.I, b=b))
    pt = PuncturedPoint(s=0.2 * cmath.exp(0.9j), d=1)
    samp = elliptic_metric_at(lm, eps, VolumeFormSpec(), pt, 0.1 + 0.1j)
    L = -math.log(abs(pt.z))
    assert abs(samp.h[1, 1].real - math.pi * eps / (b * L)) < 1e-13


def test_istar_christoffel_structure():
    # exact decomposition for the log factor: with L = -log|z|,
    # Gamma = v (1 - 1/L) / (2z) + conj(v) / (2 |z| L), independent of b
    pm = fiber_product(FiberType(FK.Istar, b=2), FiberType(FK.IVstar))
    pt = PuncturedPoint(s=0.4 * cmath.exp(0.8j), d=pm.k)
    z = pt.z
    L = -math.log(abs(z))
    v1 = 0.02 - 0.013j
    g1, _ = christoffel_closed(pm, pt, (v1, 0.01))
    expect = v1 * (1 - 1 / L) / (2 * z) + v1.conjugate() / (2 * abs(z) * L)
    assert abs(g1 - expect) < 1e-13 * max(1.0, abs(expect))


def test_christoffel_constant_lattice_vanishes():
    s = flat_sample(2)
    assert np.max(np.abs(s.h - np.diag(np.diag(s.h)))) < 1e-15


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_christoffel_general_agrees_with_closed(seed):
    rng = SplitMix64(seed)
    models = [fiber_product(FiberType(FK.IIstar), FiberType(FK.IIIstar)),
              fiber_product(FiberType(FK.Istar, b=2), FiberType(FK.IVstar)),
              isotrivial_case13(),
              local_model(FiberType(FK.Istar, b=1)),
              local_model(FiberType(FK.I, b=2))]
    for model in models:
        for _ in range(8):
            pt, v = sample(model, rng)
            tau, dtz = periods_at(model, pt)
            g1 = christoffel_closed(model, pt, v)
            g2 = christoffel_general(tau, dtz, v)
            scale = max(1.0, max(abs(g) for g in g1))
            assert max(abs(a - b) for a, b in zip(g1, g2)) < 1e-12 * scale


@pytest.mark.parametrize("model", [
    fiber_product(FiberType(FK.IIstar), FiberType(FK.IIIstar)),
    fiber_product(FiberType(FK.Istar, b=1), FiberType(FK.IVstar)),
    isotrivial_case13(),
    local_model(FiberType(FK.I, b=2)),           # a constant period in the batch
    local_model(FiberType(FK.Istar, b=1))],
    ids=["IIstar_x_IIIstar", "Istar1_x_IVstar", "case13", "I2", "Istar1"])
def test_stacked_christoffel_general_equals_scalar_calls(model):
    from semiflat.scenario import sample_points
    pt, v = sample_points(model, SplitMix64(5), 8)
    tau, dtz = periods_at(model, pt)
    stacked = christoffel_general(tau, dtz, v)
    assert len(stacked) == model.m and all(g.shape == (8,) for g in stacked)

    def at(xs, i):
        return tuple(complex(np.broadcast_to(x, (8,))[i]) for x in xs)

    for i in range(8):
        one = christoffel_general(at(tau, i), at(dtz, i), at(v, i))
        scale = max(1.0, max(abs(g) for g in one))
        # per sample, relative to that sample (equal bit for bit where measured)
        assert max(abs(g[i] - g1) for g, g1 in zip(stacked, one)) <= 1e-14 * scale


def test_a_singular_sample_fails_the_stacked_solve():
    # samples 1 and 3 are numerically singular; the first is named
    tau = (np.ones(4, dtype=complex), np.array([1j, 1.0 + 1e-14j, 0.5 + 1j, 2.0 + 1e-15j]))
    v = (np.full(4, 0.1 + 0.1j),)
    with pytest.raises(SingularPeriods, match="singular at sample 1$"):
        christoffel_general(tau, (0j, 0j), v)


def test_ma_residual_all_models():
    rng = SplitMix64(42)
    vf = VolumeFormSpec(k0=0.8 + 0.3j)
    for pm in all_product_pairs():
        for _ in range(10):
            pt, v = sample(pm, rng)
            assert ma_residual(metric_at(pm, 1.3, vf, pt, v)) < 1e-10
    for kind in finite_kinds():
        lm = local_model(FiberType(kind))
        for _ in range(10):
            pt, v = sample(lm, rng)
            assert ma_residual(elliptic_metric_at(lm, 0.9, vf, pt, v[0])) < 1e-10


# |laplace_det - LU det| / |det|: n! products of n entries each, so about
# n! * cond(h) * 2^-53 for the cofactor sum, and the LU's own error is of
# that order; 1e-13 holds that for condition numbers up to 100
DET_REL = 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_laplace_det_is_the_lu_det_on_hermitian_positive_matrices(n):
    # random Hermitian positive-definite matrices, eigenvalues 0.1 ... 10
    rng = np.random.default_rng(19 + n)
    for _ in range(500):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        h = (q * 10 ** rng.uniform(-1, 1, n)) @ q.conj().T
        h = 0.5 * (h + h.conj().T)
        lu = np.linalg.det(h)
        assert abs(laplace_det(h) - lu) <= DET_REL * abs(lu)


def test_laplace_det_is_the_lu_det_on_metric_samples():
    rng = SplitMix64(19)
    vf = VolumeFormSpec(k0=0.8 + 0.3j)
    models = (all_product_pairs() + [isotrivial_case13()]
              + [local_model(FiberType(kind)) for kind in finite_kinds()])
    for model in models:
        for _ in range(5):
            h = metric_at(model, 1.3, vf, *sample(model, rng)).h
            lu = np.linalg.det(h)
            assert abs(laplace_det(h) - lu) <= DET_REL * abs(lu)


def test_ma_residual_reads_an_array_or_nested_lists():
    rng = SplitMix64(7)
    vf = VolumeFormSpec(k0=1.2)
    for model in (fiber_product(FiberType(FK.IIstar), FiberType(FK.IIIstar)),
                  local_model(FiberType(FK.IV))):
        s = metric_at(model, 0.9, vf, *sample(model, rng))
        listed = MetricSample(s.h.tolist(), complex(s.omega_coeff))
        assert ma_residual(listed) == ma_residual(s)
    # the oracle expands 2 x 2 and 3 x 3 matrices only: no fiber has m > 2
    for bad in (np.eye(1), np.eye(4), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]):
        with pytest.raises(ValueError):
            ma_residual(MetricSample(bad, 1.0))


def test_christoffel_check_evaluates_its_periods_once(monkeypatch):
    # the check hands its periods to christoffel_closed, which then makes
    # no periods_at call of its own; the closed form is the same either way
    from semiflat import metric, scenario
    ctx = scenario.build_context(scenario.validate_scenario(
        {"name": "x", "checks": ["christoffel"], "model_kind": "pair",
         "left": "IIstar", "right": "IIIstar"}))
    pt, v = scenario.sample_points(ctx.model, SplitMix64(3), 8)
    periods = periods_at(ctx.model, pt)
    assert np.array_equal(christoffel_closed(ctx.model, pt, v, periods),
                          christoffel_closed(ctx.model, pt, v))
    calls = []

    def counted(model, pt):
        calls.append(pt)
        return periods_at(model, pt)

    monkeypatch.setattr(metric, "periods_at", counted)
    monkeypatch.setattr(scenario, "periods_at", counted)
    assert scenario._check_christoffel(ctx, SplitMix64(3)).passed
    assert len(calls) == 1


@pytest.mark.parametrize("cfg", [
    {"model_kind": "elliptic", "fiber": "IV"},
    {"model_kind": "pair", "left": "IIstar", "right": "IIIstar"},
], ids=["elliptic", "pair"])
def test_ma_check_computes_periods_once_per_sample(monkeypatch, cfg):
    # the sampler reads tau alone; the periods of the samples come from one
    # batched metric_at, so the check makes one periods_at call holding
    # every sample, and no sample's periods are evaluated twice
    from semiflat import metric, scenario
    ctx = scenario.build_context(scenario.validate_scenario(
        {"name": "x", "checks": ["ma"], "samples": 7, **cfg}))
    calls = []

    def counted(model, pt):
        calls.append(pt)
        return periods_at(model, pt)

    monkeypatch.setattr(metric, "periods_at", counted)
    monkeypatch.setattr(scenario, "periods_at", counted)
    assert scenario._check_ma(ctx, SplitMix64(3)).passed
    assert len(calls) == 1
    assert np.shape(calls[0].s) == (7,)
    assert len(set(np.asarray(calls[0].s).tolist())) == 7


@pytest.mark.parametrize("cfg", [
    {"model_kind": "elliptic", "fiber": "IV"},
    {"model_kind": "pair", "left": "IIstar", "right": "IIIstar"},
], ids=["elliptic", "pair"])
def test_ma_check_calls_the_oracle_once_per_sample(monkeypatch, cfg):
    # the determinant oracle stays per point: one ma_residual call on each
    # (m+1) x (m+1) matrix of the batch
    from semiflat import scenario
    ctx = scenario.build_context(scenario.validate_scenario(
        {"name": "x", "checks": ["ma"], "samples": 7, **cfg}))
    shapes = []

    def counted(sample):
        shapes.append(np.shape(sample.h))
        return ma_residual(sample)

    monkeypatch.setattr(scenario, "ma_residual", counted)
    assert scenario._check_ma(ctx, SplitMix64(3)).passed
    m = ctx.model.m
    assert shapes == [(m + 1, m + 1)] * 7


def test_positive_definite_in_chart():
    rng = SplitMix64(4242)
    vf = VolumeFormSpec()
    pm = fiber_product(FiberType(FK.IIstar), FiberType(FK.IIIstar))
    for _ in range(20):
        pt, v = sample(pm, rng)
        assert np.linalg.eigvalsh(metric_at(pm, 1.0, vf, pt, v).h).min() > 0
    lm = local_model(FiberType(FK.IV))
    pt = PuncturedPoint(s=0.3 * cmath.exp(0.5j), d=3)
    assert np.linalg.eigvalsh(elliptic_metric_at(lm, 1.0, vf, pt, 0.2 + 0.1j).h).min() > 0


def test_eps_scaling():
    # base block ~ eps^-2, fiber blocks ~ eps, det h eps-independent
    vf = VolumeFormSpec(k0=1.0)
    pm = fiber_product(FiberType(FK.IIstar), FiberType(FK.IIIstar))
    pt = PuncturedPoint(s=0.85 * cmath.exp(0.3j), d=12)
    v = (0.1 + 0.05j, -0.02 + 0.08j)
    h1 = metric_at(pm, 1.0, vf, pt, v).h
    h2 = metric_at(pm, 2.0, vf, pt, v).h
    assert abs(h2[1, 1] / h1[1, 1] - 2.0) < 1e-13
    assert abs(h2[2, 2] / h1[2, 2] - 2.0) < 1e-13
    base1 = h1[0, 0].real - (h1[1, 1].real * abs(h1[0, 1] / h1[1, 1]) ** 2
                             + h1[2, 2].real * abs(h1[0, 2] / h1[2, 2]) ** 2)
    base2 = h2[0, 0].real - (h2[1, 1].real * abs(h2[0, 1] / h2[1, 1]) ** 2
                             + h2[2, 2].real * abs(h2[0, 2] / h2[2, 2]) ** 2)
    assert abs(base2 / base1 - 0.25) < 1e-12
    assert abs(np.linalg.det(h2).real / np.linalg.det(h1).real - 1.0) < 1e-12


def test_fiber_areas_and_volume():
    # H(eps) of the Siegel route gives each factor of the period lattice area
    # eps; F_j is its diagonal over nu_j, so the quotient fiber has volume eps^2
    eps = 1.7
    for model, s in ((fiber_product(FiberType(FK.II), FiberType(FK.IVstar)),
                      0.8 * cmath.exp(0.2j)),
                     (isotrivial_case13(), 0.5 * cmath.exp(1.0j))):
        pt = PuncturedPoint(s=s, d=model.k)
        periods = periods_at(model, pt)
        tau = periods[0]
        F, _ = _fiber_terms(model, pt, periods, eps=eps)
        fam = product_family(tau)
        H = scaled_h(hermitian_h(fam), fam.Q, eps, 2).H
        nu = getattr(model, "nu", (1, 1))
        for j in range(2):
            area = 2 * H[j, j].real * (tau[2 * j].conjugate() * tau[2 * j + 1]).imag
            assert abs(area / eps - 1) < 1e-12
            assert abs(F[j] * nu[j] / H[j, j].real - 1) < 1e-12
        assert abs(H[0, 1]) < 1e-12 * H[0, 0].real


def test_degenerate_lattice_raises():
    # a reversed-orientation family (Im pairing < 0) must be rejected
    from semiflat.kodaira import LocalModel

    bad = LocalModel(fiber=FiberType(FK.I0star), d=2, A=((-1, 0), (0, -1)),
                     deck_exponent=1, coord_power=1,
                     tau=lambda s: (s, -1j * s),
                     dtau_ds=lambda s: (1.0 + 0j, -1j),
                     deck_multiplier=lambda s: -1.0 + 0j,
                     deck_tau=lambda s: (-s, 1j * s),
                     modulus_limit=-1j)
    pt = PuncturedPoint(s=0.4 + 0.1j, d=2)
    with pytest.raises(DegenerateLattice):
        elliptic_metric_at(bad, 1.0, VolumeFormSpec(), pt, 0.1 + 0.1j)


def test_singular_periods_raises():
    tau = (1.0 + 0j, 1.0 + 1e-14j)
    with pytest.raises(SingularPeriods):
        christoffel_general(tau, (0j, 0j), (0.1 + 0j,))


def test_ib_and_ibstar_ma():
    rng = SplitMix64(5)
    vf = VolumeFormSpec(k0=1.0)
    for ft in (FiberType(FK.I, b=1), FiberType(FK.I, b=3),
               FiberType(FK.Istar, b=1), FiberType(FK.Istar, b=2)):
        lm = local_model(ft)
        for _ in range(10):
            pt, v = sample(lm, rng)
            assert ma_residual(elliptic_metric_at(lm, 1.0, vf, pt, v[0])) < 1e-10


def _ma_scenarios():
    from semiflat.cli import bundled_path, bundled_scenarios
    from semiflat.scenario import load_scenario
    cfgs = [load_scenario(bundled_path(name)) for name in bundled_scenarios()]
    return [c for c in cfgs if "ma" in c["checks"]]


@pytest.mark.parametrize("cfg", _ma_scenarios(), ids=lambda c: c["name"])
def test_batched_metric_at_is_the_scalar_metric_at_per_point(cfg):
    # every bundled model with an `ma` check: finite pairs, Istar pairs,
    # the nu = (2, 2) isotrivial model, and the m = 1 models with I_b and
    # I_b*; numpy's loops may round differently from Python complex
    # arithmetic in the last bit, and no more
    from semiflat.scenario import build_context, sample_points
    ctx = build_context(cfg)
    model = ctx.model
    pt, v = sample_points(model, SplitMix64(11), 200)
    batch = metric_at(model, ctx.eps, ctx.vf, pt, v)
    assert batch.h.shape == (200, model.m + 1, model.m + 1)
    for i in range(200):
        one = metric_at(model, ctx.eps, ctx.vf, PuncturedPoint(s=complex(pt.s[i]), d=pt.d),
                        tuple(complex(vj[i]) for vj in v))
        assert np.max(np.abs(batch.h[i] - one.h)) <= 1e-14 * np.max(np.abs(one.h))
        assert abs(batch.omega_coeff[i] - one.omega_coeff) <= 1e-14 * abs(one.omega_coeff)


def test_only_pulled_h_runs_on_complex_pairs(monkeypatch):
    # a metric_at batch (ma, closedness) runs numpy's complex arithmetic from
    # the period closures to h; ComplexPairs, which round as Python complex,
    # serve the chart's pulled_h alone
    from semiflat import metric
    from semiflat.asymptotics import to_chart
    from semiflat.cli import bundled_path
    from semiflat.scenario import build_context, load_scenario, sample_points
    made = []
    init = metric.ComplexPairs.__init__

    def counted(self, real, imag):
        made.append(self)
        init(self, real, imag)

    monkeypatch.setattr(metric.ComplexPairs, "__init__", counted)
    contexts = [build_context(load_scenario(bundled_path(f"{name}.json")))
                for name in ("pair_iistar_x_iiistar", "elliptic_i2")]
    for ctx in contexts:
        pt, v = sample_points(ctx.model, SplitMix64(5), 50)
        batch = metric_at(ctx.model, ctx.eps, ctx.vf, pt, v)
        assert batch.h.shape == (50, ctx.model.m + 1, ctx.model.m + 1)
        assert made == [], ctx.cfg["name"]
    chart = to_chart(contexts[0].model, contexts[0].eps, contexts[0].vf)
    alphas = np.array([r * chart.alpha0 * cmath.exp(0.5j * chart.sector[1]) for r in (2.0, 4.0)])
    assert chart.pulled_h(alphas, (0.3 + 0.2j, 0.4 + 0.1j)).shape == (2, 3, 3)
    assert made


def test_sample_point_is_the_first_of_sample_points():
    # one sampler: sample_point takes the draws of sample_points(model, rng, 1)
    # and ends in the same state
    from semiflat.scenario import sample_point, sample_points
    for model in (fiber_product(FiberType(FK.IIstar), FiberType(FK.IIIstar)),
                  local_model(FiberType(FK.I, b=2))):
        one, many = SplitMix64(8), SplitMix64(8)
        pts, vs = sample_points(model, many, 5)
        for i in range(5):
            pt, v = sample_point(model, one)
            assert type(pt.s) is complex and all(type(x) is complex for x in v)
            assert abs(pt.s - pts.s[i]) <= 1e-15
            assert max(abs(a - b[i]) for a, b in zip(v, vs)) <= 1e-15
        assert one.next_u64() == many.next_u64()


def test_batch_with_one_bad_point_raises():
    # the orientation of this family flips at |s| = 1/2; a batch is valid
    # only when every point is
    flips = LocalModel(fiber=FiberType(FK.I0star), d=1, A=((1, 0), (0, 1)),
                       deck_exponent=0, coord_power=0,
                       tau=lambda s: (1.0 + 0j, 1j * (0.5 - abs(s))),
                       dtau_ds=lambda s: (0j, -0.5j * s.conjugate() / abs(s)),
                       deck_multiplier=lambda s: 1.0 + 0j, deck_tau=lambda s: (1.0 + 0j, 0j),
                       modulus_limit=1j)
    s = np.array([0.1, 0.2 + 0.1j, 0.3j, 0.25])
    v = (np.full(4, 0.1 + 0.1j),)
    good = elliptic_metric_at(flips, 1.0, VolumeFormSpec(), PuncturedPoint(s=s, d=1), v[0])
    assert good.h.shape == (4, 2, 2)
    s[2] = 0.7j
    with pytest.raises(DegenerateLattice, match=r"0\.7j"):
        elliptic_metric_at(flips, 1.0, VolumeFormSpec(), PuncturedPoint(s=s, d=1), v[0])


def test_punctured_point_validates_every_entry():
    PuncturedPoint(s=np.array([0.5, 0.2j]), d=2)
    for bad in (np.array([0.5, 1.0]), np.array([0.0, 0.5j])):
        with pytest.raises(ValueError):
            PuncturedPoint(s=bad, d=2)
