"""Catalog rows, fiber products, canonical coefficients, classification."""

import cmath
import io
import math
from fractions import Fraction

import pytest

from semiflat.errors import ScenarioError, Unsupported, UnsupportedPair
from semiflat.kodaira import (FiberKind, FiberType, canonical_coefficient,
                              classify_asymptotics, det_a, discriminant_coefficient,
                              fiber_product, finite_kinds, isotrivial_case13,
                              isotrivial_coefficient, local_model, monodromy_order)
from semiflat.rng import SplitMix64
from semiflat.scenario import run_scenario

FK = FiberKind


def test_iv_realization():
    lm = local_model(FiberType(FK.IV))     # default m = 2
    assert lm.d == 3
    assert lm.A == ((-1, 1), (-1, 0))
    s = 0.4 * cmath.exp(0.6j)
    t1, _ = lm.tau(s)
    # (1 - z^{m/3}) z^{2/3} realized on the cover: z^{m/3} = s^m here
    assert abs(t1 - (1 - s ** 2) * s ** 2) < 1e-15


def test_ibstar_periods_and_monodromy():
    lm = local_model(FiberType(FK.Istar, b=3))
    assert lm.d == 2
    assert lm.A == ((-1, -3), (0, -1))
    s = 0.3 * cmath.exp(1.1j)
    t1, t2 = lm.tau(s)
    assert abs(t1 - s) < 1e-15
    z = s * s
    assert abs(t2 - 3 / (2j * math.pi) * cmath.sqrt(z) * cmath.log(z)) < 1e-13 \
        or abs(t2 + 3 / (2j * math.pi) * cmath.sqrt(z) * cmath.log(z)) < 1e-13
    assert monodromy_order(lm.A) == math.inf


def test_iistar_deck_exponent():
    lm = local_model(FiberType(FK.IIstar))
    assert lm.deck_exponent == 5 and lm.d == 6


@pytest.mark.parametrize("kind,order", [
    (FK.I0star, 2), (FK.II, 6), (FK.IIstar, 6), (FK.III, 4),
    (FK.IIIstar, 4), (FK.IV, 3), (FK.IVstar, 3)])
def test_monodromy_orders(kind, order):
    A = local_model(FiberType(kind)).A
    assert monodromy_order(A) == order
    assert det_a(A) == 1


def test_ib_order_infinite():
    assert monodromy_order(local_model(FiberType(FK.I, b=4)).A) == math.inf


@pytest.mark.parametrize("seed", [11, 22, 33])
@pytest.mark.parametrize("kind", list(finite_kinds()) + [FK.Istar])
def test_deck_period_compatibility(kind, seed):
    # tau(zeta_d s) (analytically continued for log models) equals the
    # A-transform of tau(s)
    ft = FiberType(kind, b=2) if kind is FK.Istar else FiberType(kind)
    lm = local_model(ft)
    rng = SplitMix64(seed)
    A = lm.A
    for _ in range(8):
        s = rng.complex_annulus(0.1, 0.6, 0.05, 2 * math.pi / lm.d - 0.05)
        t1, t2 = lm.tau(s)
        n1, n2 = lm.deck_tau(s)
        scale = max(abs(t1), abs(t2), 1.0)
        assert abs(n1 - (t1 * A[0][0] + t2 * A[1][0])) < 1e-12 * scale
        assert abs(n2 - (t1 * A[0][1] + t2 * A[1][1])) < 1e-12 * scale


def _deck_models():
    """Every local model: the catalog rows and both isotrivial factors."""
    types = [FiberType(k) for k in finite_kinds()]
    types += [FiberType(FK.II, m_mult=4), FiberType(FK.IIIstar, m_mult=3),
              FiberType(FK.I, b=1), FiberType(FK.I, b=2),
              FiberType(FK.Istar, b=1), FiberType(FK.Istar, b=2)]
    c13 = isotrivial_case13()
    return ([pytest.param(local_model(t), id=t.label()) for t in types]
            + [pytest.param(c13.left_model, id="case13 left"),
               pytest.param(c13.right_model, id="case13 right")])


@pytest.mark.parametrize("lm", _deck_models())
def test_deck_multiplier_is_the_period_ratio(lm):
    # the deck multiplier, the period ratio tau_1(s) / tau_1(zeta_d s),
    # tends to the tabulated zeta_d^e as s -> 0: the correction 1 - s^p of
    # the first period puts it at most 2 |s|^p off, with p >= 1
    root = cmath.exp(2j * cmath.pi * lm.deck_exponent / lm.d)
    for theta in (0.1, 1.0, 2.5, 4.0, 6.0):
        s = 1e-6 * cmath.exp(1j * theta)
        assert abs(lm.deck_multiplier(s) - root) < 2e-6


def test_fiber_product_iistar_iiistar():
    pm = fiber_product(FiberType(FK.IIstar), FiberType(FK.IIIstar))
    assert (pm.k, pm.alpha, pm.beta, pm.a1, pm.a2) == (12, 10, 9, 2, 3)
    s = 0.8 * cmath.exp(0.25j)
    t = pm.tau(s)
    # tau1(z) = (1 - z^{m1/3}) z^{1/6} on the 12-cover with m1 = 2
    assert abs(t[0] - (1 - s ** 8) * s ** 2) < 1e-14


def test_case13_model_data():
    # the product data comes from the two factor models
    c13 = isotrivial_case13()
    assert (c13.k, c13.alpha, c13.beta, c13.a1, c13.a2) == (6, 5, 2, 1, 4)
    assert c13.nu == (2, 2)
    s = 0.5 * cmath.exp(0.3j)
    # tau-lattice stability under s -> zeta_6 s, blockwise integral
    t = c13.tau(s)
    z6 = cmath.exp(2j * cmath.pi / 6)
    tn = c13.tau(z6 * s)
    assert abs(tn[0] - (t[0] + t[1])) < 1e-14      # left block: [[1,-1],[1,0]]
    assert abs(tn[1] - (-t[0])) < 1e-14
    assert abs(tn[2] - (-t[2] - t[3])) < 1e-14     # right block: [[-1,1],[-1,0]]
    assert abs(tn[3] - t[2]) < 1e-14


def test_fiber_product_alh_criterion():
    pm = fiber_product(FiberType(FK.III), FiberType(FK.IIIstar))
    assert pm.k == 4 and pm.alpha + pm.beta == pm.k
    assert classify_asymptotics(pm).kind == "ALH"


def test_fiber_product_istar_istar_periods():
    pm = fiber_product(FiberType(FK.Istar, b=1), FiberType(FK.Istar, b=2))
    assert pm.k == 2
    s = 0.4 * cmath.exp(0.8j)
    t = pm.tau(s)
    z = s * s
    assert abs(t[0] - s) < 1e-14
    assert abs(t[1] - (1 / (2j * math.pi)) * s * cmath.log(z)) < 1e-13
    assert abs(t[3] - (2 / (2j * math.pi)) * s * cmath.log(z)) < 1e-13


CANONICAL_CASES = [
    ((FK.IIstar, None), (FK.IIIstar, None), Fraction(-8, 12)),
    ((FK.Istar, 1), (FK.Istar, 2), Fraction(-1, 2)),
    ((FK.Istar, 1), (FK.IIstar, None), Fraction(-1, 2)),
    ((FK.Istar, 1), (FK.IIIstar, None), Fraction(-1, 2)),
    ((FK.Istar, 1), (FK.IVstar, None), Fraction(-1, 3)),
]


@pytest.mark.parametrize("left,right,expect", CANONICAL_CASES)
def test_canonical_coefficients(left, right, expect):
    lt = FiberType(left[0], b=left[1]) if left[1] else FiberType(left[0])
    rt = FiberType(right[0], b=right[1]) if right[1] else FiberType(right[0])
    pm = fiber_product(lt, rt)
    assert canonical_coefficient(pm) == expect


def test_canonical_cross_check_finite():
    # power counting equals (k - alpha - beta - 1)/k for every finite pair
    kinds = finite_kinds()
    for i, a in enumerate(kinds):
        for b in kinds[i:]:
            pm = fiber_product(FiberType(a), FiberType(b))
            assert canonical_coefficient(pm) == Fraction(
                pm.k - pm.alpha - pm.beta - 1, pm.k)


@pytest.mark.parametrize("k,expect", [(2, Fraction(-1)), (3, Fraction(-2, 3)),
                                      (4, Fraction(-1, 2)), (5, Fraction(-2, 5)),
                                      (6, Fraction(-1, 3)), (12, Fraction(-1, 6))])
def test_isotrivial_coefficients(k, expect):
    assert isotrivial_coefficient(k) == expect


def test_classification_angles():
    pm = fiber_product(FiberType(FK.IIstar), FiberType(FK.IIIstar))
    assert classify_asymptotics(pm).angle_over_pi == Fraction(7, 6)
    ss = fiber_product(FiberType(FK.Istar, b=1), FiberType(FK.Istar, b=1))
    cls = classify_asymptotics(ss)
    assert cls.cone == "ray" and cls.volume_exponent == Fraction(3, 2)
    for kind, angle in [(FK.IIstar, Fraction(2, 3)), (FK.IIIstar, Fraction(1, 2)),
                        (FK.IVstar, Fraction(1, 3))]:
        pm2 = fiber_product(FiberType(FK.Istar, b=1), FiberType(kind))
        cls2 = classify_asymptotics(pm2)
        assert cls2.angle_over_pi == angle and cls2.volume_exponent == Fraction(2)


def test_unsupported_pairs():
    # fiber_product builds every pair without an I_b factor, with Istar on
    # the left; classify_asymptotics alone says which have a complete model
    with pytest.raises(UnsupportedPair):
        fiber_product(FiberType(FK.I, b=1), FiberType(FK.II))
    swapped = fiber_product(FiberType(FK.IV), FiberType(FK.Istar, b=1))
    assert (swapped.left.kind, swapped.right.kind) == (FK.Istar, FK.IV)
    for pm in (swapped, fiber_product(FiberType(FK.Istar, b=1), FiberType(FK.I0star)),
               fiber_product(FiberType(FK.II), FiberType(FK.III))):      # alpha+beta < k
        with pytest.raises(Unsupported, match="has no complete model"):
            classify_asymptotics(pm)


def _fiber_types() -> list[FiberType]:
    """Every fiber type fiber_product takes: each finite kind at every
    allowed m <= 7, and Istar with b = 1, 2, 3."""
    out = [FiberType(FK.I0star)] + [FiberType(FK.Istar, b=b) for b in (1, 2, 3)]
    for kind in finite_kinds():         # I0star takes no m and is already in
        for m in range(1, 8):
            try:
                out.append(FiberType(kind, m_mult=m))
            except ValueError:
                pass
    return out


def _pair_scenario(left: FiberType, right: FiberType) -> dict:
    cfg = {"name": "pair", "model_kind": "pair", "checks": ["canonical"]}
    for side, t in (("left", left), ("right", right)):
        cfg[side] = t.kind.value
        if t.kind is FK.Istar:
            cfg[f"b_{side}"] = t.b
        elif t.m_mult is not None:
            cfg[f"m_{side}"] = t.m_mult
    return cfg


def test_classification_is_the_support_rule():
    # every pair fiber_product builds: a classified one has a negative
    # canonical bundle, an unclassified one is a scenario error (exit 2)
    types = _fiber_types()
    pairs = [(a, b) for i, a in enumerate(types) for b in types[i:]]
    assert len(pairs) == 253
    classified, negative_unclassified = 0, set()
    for a, b in pairs:
        pm = fiber_product(a, b)
        # Kodaira's formula from the discriminant orders equals the power count
        assert discriminant_coefficient(pm) == canonical_coefficient(pm), pm.label()
        try:
            classify_asymptotics(pm)
        except Unsupported:
            with pytest.raises(ScenarioError, match="has no complete model"):
                run_scenario(_pair_scenario(a, b), log=io.StringIO())
            if canonical_coefficient(pm) < 0:
                negative_unclassified.add((pm.left.kind, pm.right.kind))
            continue
        assert canonical_coefficient(pm) < 0, pm.label()
        classified += 1
    assert classified == 136
    # c < 0 exactly when a complete model exists holds for finite x finite
    # pairs only: Istar x I0star has c = -1/2 and no classified model
    assert negative_unclassified == {(FK.Istar, FK.I0star)}
    assert canonical_coefficient(fiber_product(FiberType(FK.Istar, b=1),
                                               FiberType(FK.I0star))) == Fraction(-1, 2)


def test_m_congruence_validation():
    with pytest.raises(ValueError):
        FiberType(FK.IV, m_mult=1)      # needs m = 2 mod 3
    with pytest.raises(ValueError):
        FiberType(FK.III, m_mult=2)     # needs m odd
    FiberType(FK.IV, m_mult=5)
    FiberType(FK.III, m_mult=3)
