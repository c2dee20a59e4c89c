"""Local models of Kodaira singular fibers and their fiber products.

Every multi-valued ingredient (fractional powers of z, log z) is realized
as a single-valued closure of the uniformizer s on the branched cover
z = s^d, so branch questions never arise downstream.  A LocalModel packs,
for one fiber type: the cover degree d, the integer monodromy matrix A,
the deck action (s, w) -> (zeta_d s, zeta_d^e h(s) w), the coordinate
power a with v = (unit) * s^a * w, and the two period functions of s with
their s-derivatives.  A ProductModel does the same for a pair of elliptic
fibers pulled back to the common lcm cover; its data (k, the deck exponents
alpha, beta and the coordinate powers) comes from the two factor models and
drives the canonical-divisor arithmetic and the asymptotic classification.

All discrete data (A, orders, k, alpha, beta, coordinate powers, canonical
coefficients) is exact integer / rational arithmetic; floating point only
enters through the period closures.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional

from .errors import Unsupported, UnsupportedPair, UnsupportedType
from .rng import SplitMix64

ZETA3 = cmath.exp(2j * cmath.pi / 3)

IntMat = tuple[tuple[int, int], tuple[int, int]]


class FiberKind(str, Enum):
    I = "I"
    Istar = "Istar"
    II = "II"
    IIstar = "IIstar"
    III = "III"
    IIIstar = "IIIstar"
    IV = "IV"
    IVstar = "IVstar"
    I0star = "I0star"


# finite-monodromy table rows: kind -> (cover degree d, monodromy A,
# coordinate power a', lattice family, default j-multiplicity m).  The
# allowed multiplicities are those congruent to the default one modulo the
# family's modulus.
_FINITE_TABLE: dict[FiberKind, tuple[int, IntMat, int, str, int]] = {
    FiberKind.II: (6, ((0, 1), (-1, 1)), 5, "hex", 1),
    FiberKind.IIstar: (6, ((1, -1), (1, 0)), 1, "hex", 2),
    FiberKind.III: (4, ((0, 1), (-1, 0)), 3, "square", 1),
    FiberKind.IIIstar: (4, ((0, -1), (1, 0)), 1, "square", 1),
    FiberKind.IV: (3, ((-1, 1), (-1, 0)), 2, "hex", 2),
    FiberKind.IVstar: (3, ((0, -1), (1, -1)), 1, "hex", 1),
}

# lattice family -> (m-congruence modulus, limit modulus zeta of tau2/tau1, c in
# the second period zeta (1 - c s^p) s^a; the int -1 keeps the bits of 1 + s^p)
_FAMILY = {"hex": (3, ZETA3, ZETA3), "square": (2, 1j, -1)}


@dataclass(frozen=True)
class FiberType:
    """A Kodaira fiber type, with b for I_b / I_b* and the j-multiplicity m."""

    kind: FiberKind
    b: int = 0
    m_mult: Optional[int] = None

    def __post_init__(self):
        kind = FiberKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind in (FiberKind.I, FiberKind.Istar):
            if self.b < 1:
                raise ValueError(f"{kind.value} requires b >= 1")
            if self.m_mult is not None:
                raise ValueError("m_mult applies only to the six finite m-types")
        elif kind is FiberKind.I0star:
            if self.b != 0 or self.m_mult is not None:
                raise ValueError("I0star takes neither b nor m_mult")
        else:
            if self.b != 0:
                raise ValueError("b applies only to I_b and I_b*")
            *_, fam, r = _FINITE_TABLE[kind]
            m = self.m_mult if self.m_mult is not None else r
            mod = _FAMILY[fam][0]
            if m < 1 or m % mod != r % mod:
                raise ValueError(f"{kind.value} needs m = {r} (mod {mod}), got {m}")
            object.__setattr__(self, "m_mult", m)

    @property
    def finite_monodromy(self) -> bool:
        return self.kind not in (FiberKind.I, FiberKind.Istar)

    def label(self) -> str:
        if self.kind in (FiberKind.I, FiberKind.Istar):
            return f"{self.kind.value}({self.b})"
        if self.kind is FiberKind.I0star:
            return "I0star"
        return f"{self.kind.value}[m={self.m_mult}]"


def array_namespace(x):
    """The math namespace for x, after the array API standard: cmath for a
    number (a Python number, or a numpy scalar, which subclasses one), and
    for an array the namespace it names by `__array_namespace__()`.  The
    period closures go through it, so one body serves a point and a batch
    of points."""
    return cmath if isinstance(x, (int, float, complex)) else x.__array_namespace__()


def every(mask) -> bool:
    """Whether a Python bool, or every entry of a numpy bool array, is true."""
    return mask if isinstance(mask, bool) else bool(mask.all())


@dataclass(frozen=True)
class PuncturedPoint:
    """A point on the branched s-cover of the punctured disk, z = s^d.

    s is a complex number, or a 1-D array of them for a batch of points
    over one cover; every entry is validated.
    """

    s: complex
    d: int

    def __post_init__(self):
        r = abs(self.s)
        if not every((0 < r) & (r < 1)):
            raise ValueError("need 0 < |s| < 1")
        if self.d < 1:
            raise ValueError("cover degree must be positive")

    @property
    def z(self) -> complex:
        return self.s ** self.d


@dataclass(frozen=True)
class LocalModel:
    """One catalog row realized as closures of s (single-valued on the cover)."""

    fiber: FiberType
    d: int
    A: IntMat
    deck_exponent: int           # e in the multiplier zeta_d^e h(s)
    coord_power: int             # a with v = (unit) * s^a * w
    tau: Callable[[complex], tuple[complex, complex]]
    dtau_ds: Callable[[complex], tuple[complex, complex]]
    deck_tau: Callable[[complex], tuple[complex, complex]]  # periods after one loop
    modulus_limit: complex       # lim of tau2/tau1 along the cover

    m = 1          # fiber complex dimension of an elliptic model
    nu = (1,)      # lattice volume factor of the one fiber factor
    default_k0 = 1.0 + 0j

    def deck_multiplier(self, s: complex) -> complex:
        """tau_1(s) / tau_1(zeta_d s), the multiplier zeta_d^e h(s) that
        factors Phi through the deck action."""
        return self.tau(s)[0] / self.deck_tau(s)[0]

    def label(self) -> str:
        return self.fiber.label()


def _correction_power(t: FiberType) -> int:
    """p with s^p = z^{m/3} (hex) or z^{m/2} (square) on the cover z = s^d of a
    finite m-type; integral by the m-congruence."""
    d, *_, fam, _ = _FINITE_TABLE[t.kind]
    return d * t.m_mult // _FAMILY[fam][0]


def correction_exponent(t: FiberType) -> float:
    """Exponent q with Im(conj(tau1) tau2) = I (1 - |z|^q) |z|^{2a'/d} for a
    factor of type t.  The periods of `_pow_model` carry 1 - s^p = 1 - z^{p/d},
    and the pairing depends on it through |s^p|^2 alone, so q = 2p/d.  Pure
    powers (I0star, also the placeholder type of the isotrivial factors) have
    no correction and return infinity."""
    if t.kind not in _FINITE_TABLE:
        return math.inf
    return 2 * _correction_power(t) / _FINITE_TABLE[t.kind][0]


def _pow_model(t: FiberType) -> LocalModel:
    d, A, ap, fam, _ = _FINITE_TABLE[t.kind]
    p = _correction_power(t)
    _, zeta, c = _FAMILY[fam]
    zd = cmath.exp(2j * cmath.pi / d)

    def tau(s: complex) -> tuple[complex, complex]:
        sp = s ** p
        sa = s ** ap
        return ((1 - sp) * sa, zeta * (1 - c * sp) * sa)

    def dtau_ds(s: complex) -> tuple[complex, complex]:
        sp = s ** p
        sa1 = s ** (ap - 1)
        return (sa1 * (ap - (ap + p) * sp),
                zeta * sa1 * (ap - c * (ap + p) * sp))

    def deck_tau(s: complex) -> tuple[complex, complex]:
        return tau(zd * s)

    return LocalModel(fiber=t, d=d, A=A, deck_exponent=d - ap, coord_power=ap,
                      tau=tau, dtau_ds=dtau_ds, deck_tau=deck_tau, modulus_limit=zeta)


def _pure_power_model(t: FiberType, d: int, A: IntMat, e: int, ap: int,
                      zeta: complex) -> LocalModel:
    """Periods (s^a, zeta s^a) on the cover z = s^d (I0star and the isotrivial
    factors); a + e = 0 (mod d), so tau(s)/tau(zeta_d s) is zeta_d^e."""
    zd = cmath.exp(2j * cmath.pi / d)

    def tau(s: complex) -> tuple[complex, complex]:
        sa = s ** ap
        return (sa, zeta * sa)

    def dtau_ds(s: complex) -> tuple[complex, complex]:
        sa1 = s ** (ap - 1)
        return (ap * sa1, ap * zeta * sa1)

    return LocalModel(fiber=t, d=d, A=A, deck_exponent=e, coord_power=ap,
                      tau=tau, dtau_ds=dtau_ds, deck_tau=lambda s: tau(zd * s),
                      modulus_limit=zeta)


def _ib_model(t: FiberType) -> LocalModel:
    b = t.b
    c = b / (2j * math.pi)

    def tau(s: complex) -> tuple[complex, complex]:
        return (1.0 + 0j, c * array_namespace(s).log(s))

    def dtau_ds(s: complex) -> tuple[complex, complex]:
        return (0j, c / s)

    def deck_tau(s: complex) -> tuple[complex, complex]:
        # one counterclockwise loop: log z -> log z + 2 pi i
        return (1.0 + 0j, c * cmath.log(s) + b)

    return LocalModel(fiber=t, d=1, A=((1, b), (0, 1)), deck_exponent=0,
                      coord_power=0, tau=tau, dtau_ds=dtau_ds,
                      deck_tau=deck_tau, modulus_limit=0j)


def _ibstar_model(t: FiberType) -> LocalModel:
    b = t.b
    c = b / (1j * math.pi)

    def tau(s: complex) -> tuple[complex, complex]:
        return (s, c * s * array_namespace(s).log(s))

    def dtau_ds(s: complex) -> tuple[complex, complex]:
        return (1.0 + 0j, c * (array_namespace(s).log(s) + 1))

    def deck_tau(s: complex) -> tuple[complex, complex]:
        # continuation along s -> e^{i pi} s: log s -> log s + i pi
        return (-s, -c * s * (cmath.log(s) + 1j * math.pi))

    return LocalModel(fiber=t, d=2, A=((-1, -b), (0, -1)), deck_exponent=1,
                      coord_power=1, tau=tau, dtau_ds=dtau_ds,
                      deck_tau=deck_tau, modulus_limit=0j)


def _mat_mul(a: IntMat, b: IntMat) -> IntMat:
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]))


_ID: IntMat = ((1, 0), (0, 1))


def det_a(A: IntMat) -> int:
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def monodromy_order(A: IntMat) -> float:
    """Smallest n with A^n = I by exact integer powers; inf for the
    monodromy of I_b and I_b*."""
    acc = A
    for n in range(1, 13):
        if acc == _ID:
            return n
        acc = _mat_mul(acc, A)
    return math.inf


def _verify_local(model: LocalModel, label: str) -> None:
    if det_a(model.A) != 1:
        raise UnsupportedType(f"det A != 1 for {label}")
    if model.fiber.finite_monodromy:
        order = monodromy_order(model.A)
        if order not in (2, 3, 4, 6):
            raise UnsupportedType(f"unexpected monodromy order {order}")
    rng = SplitMix64(0x5EED)
    A = model.A
    for _ in range(8):
        s = rng.complex_annulus(0.05, 0.55 ** (1.0 / model.d), 0.05, 2 * math.pi - 0.05)
        t1, t2 = model.tau(s)
        n1, n2 = model.deck_tau(s)
        e1 = abs(n1 - (t1 * A[0][0] + t2 * A[1][0]))
        e2 = abs(n2 - (t1 * A[0][1] + t2 * A[1][1]))
        scale = max(abs(t1), abs(t2), 1.0)
        if max(e1, e2) > 1e-12 * scale:
            raise UnsupportedType(
                f"deck/period inconsistency for {label} at s={s:.3f}: "
                f"{max(e1, e2):.2e}")


def local_model(t: FiberType) -> LocalModel:
    """Catalog lookup; every model is numerically self-checked at construction."""
    if t.kind in _FINITE_TABLE:
        model = _pow_model(t)
    elif t.kind is FiberKind.I0star:
        model = _pure_power_model(t, 2, ((-1, 0), (0, -1)), 1, 1, 1j)
    elif t.kind is FiberKind.I:
        model = _ib_model(t)
    elif t.kind is FiberKind.Istar:
        model = _ibstar_model(t)
    else:  # pragma: no cover
        raise UnsupportedType(str(t.kind))
    _verify_local(model, t.label())
    return model


# ---------------------------------------------------------------------------
# fiber products
# ---------------------------------------------------------------------------

_E_STAR = {FiberKind.IIstar, FiberKind.IIIstar, FiberKind.IVstar}


@dataclass(frozen=True)
class Classification:
    """Asymptotic class of a product model.

    angle_over_pi is the cone angle divided by pi (exact rational) for the
    ALG and star-ALG families; volume_exponent is the geodesic-ball growth
    order for the star families.
    """

    kind: str                               # ALG | ALH | ALH_star | ALG_star
    angle_over_pi: Optional[Fraction] = None
    volume_exponent: Optional[Fraction] = None
    cone: str = "cone"                      # cone | ray


@dataclass(frozen=True)
class ProductModel:
    """Fiber product of two elliptic local models on the common s-cover z = s^k.

    k, alpha, beta, a1 and a2 come from the factor models; `left` and `right`
    are the requested fiber types, whose expected exponents the checks read.
    `tau` and `dtau_ds` give the four periods (left pair, then right pair) and
    their s-derivatives under a LocalModel's names, so both kinds read alike."""

    left: FiberType
    right: FiberType
    left_model: LocalModel
    right_model: LocalModel
    nu: tuple[int, int] = (1, 1)     # per-factor lattice volume factor (quotient models)
    label_override: Optional[str] = None
    default_k0: complex = 1.0 + 0j
    k: int = field(init=False)
    alpha: int = field(init=False)
    beta: int = field(init=False)
    a1: int = field(init=False)
    a2: int = field(init=False)

    m = 2

    def __post_init__(self):
        lm, rm = self.left_model, self.right_model
        k = math.lcm(lm.d, rm.d)
        el, er = k // lm.d, k // rm.d
        for name, value in (("k", k), ("alpha", lm.deck_exponent * el % k),
                            ("beta", rm.deck_exponent * er % k),
                            ("a1", lm.coord_power * el), ("a2", rm.coord_power * er)):
            object.__setattr__(self, name, value)

    @property
    def e_left(self) -> int:
        return self.k // self.left_model.d

    @property
    def e_right(self) -> int:
        return self.k // self.right_model.d

    def tau(self, s: complex) -> tuple[complex, complex, complex, complex]:
        t1, t2 = self.left_model.tau(s ** self.e_left)
        t3, t4 = self.right_model.tau(s ** self.e_right)
        return (t1, t2, t3, t4)

    def dtau_ds(self, s: complex) -> tuple[complex, complex, complex, complex]:
        el, er = self.e_left, self.e_right
        d1, d2 = self.left_model.dtau_ds(s ** el)
        d3, d4 = self.right_model.dtau_ds(s ** er)
        cl = el * s ** (el - 1)
        cr = er * s ** (er - 1)
        return (d1 * cl, d2 * cl, d3 * cr, d4 * cr)

    def deck_multipliers(self, s: complex) -> tuple[complex, complex]:
        return (self.left_model.deck_multiplier(s ** self.e_left),
                self.right_model.deck_multiplier(s ** self.e_right))

    @property
    def monodromy_finite(self) -> tuple[bool, bool]:
        return (self.left.finite_monodromy, self.right.finite_monodromy)

    def label(self) -> str:
        if self.label_override:
            return self.label_override
        return f"{self.left.label()} x {self.right.label()}"


def fiber_product(left: FiberType, right: FiberType) -> ProductModel:
    """Build the fiber-product model of a pair of fiber types.

    Every pair without an I_b factor is built (those products resolve
    crepantly and carry no complete metric of this kind); an Istar factor
    goes on the left.  Whether the pair has a complete model is for
    `classify_asymptotics` to say, not this constructor.
    """
    if left.kind is FiberKind.I or right.kind is FiberKind.I:
        raise UnsupportedPair("I_b admits no supported fiber-product model")
    if right.kind is FiberKind.Istar and left.kind is not FiberKind.Istar:
        left, right = right, left
    return ProductModel(left=left, right=right, left_model=local_model(left),
                        right_model=local_model(right))


def canonical_coefficient(pm: ProductModel) -> Fraction:
    """Coefficient c with K = c [F] on the compactified fiber product.

    Order count of the pullback of Omega = (k(z)/z^2) dz dv1 dv2 through
    (z, v1, v2) = (s^k, u1 s^{a1} w1, u2 s^{a2} w2): the s-order is
    (k-1) + a1 + a2 - 2k, divided by the fiber multiplicity k.
    """
    return Fraction((pm.k - 1) + pm.a1 + pm.a2 - 2 * pm.k, pm.k)


# kind -> n = ord(Delta) - ord_inf(j) (Tate, LNM 476; Silverman, Advanced Topics IV.9);
# I_b* has ord(Delta) = 6 + b and a pole of j of order b, so n = 6, not 6 + b
_DISCRIMINANT_ORDER = {FiberKind.II: 2, FiberKind.III: 3, FiberKind.IV: 4, FiberKind.I0star: 6,
                       FiberKind.Istar: 6, FiberKind.IVstar: 8, FiberKind.IIIstar: 9,
                       FiberKind.IIstar: 10}


def discriminant_coefficient(pm: ProductModel) -> Fraction:
    """`canonical_coefficient` by Kodaira's canonical bundle formula (Barth-Hulek-Peters-
    Van de Ven, V.12), reading no coordinate power: c = 1 - 1/k - (n1 + n2)/12."""
    n = _DISCRIMINANT_ORDER[pm.left.kind] + _DISCRIMINANT_ORDER[pm.right.kind]
    return 1 - Fraction(1, pm.k) - Fraction(n, 12)


# isotrivial quotient cases: k -> rows of invariant-monomial exponents over
# (s, w1, w2) chosen so the three monomials form coordinates at a generic
# point of the reduced central fiber
_ISOTRIVIAL_COORDS: dict[int, tuple[tuple[int, int, int], ...]] = {
    2: ((1, 1, 0), (0, 2, 0), (0, 0, 1)),
    3: ((1, 1, 0), (0, 3, 0), (0, 0, 3)),
    4: ((1, 3, 0), (0, 4, 0), (0, 0, 1)),
    5: ((1, 1, 0), (0, 5, 0), (0, 2, 1)),
    6: ((1, 1, 0), (0, 6, 0), (0, 0, 3)),
    12: ((1, 2, 1), (0, 6, 0), (0, 0, 4)),
}


def _det3(rows: tuple[tuple[int, int, int], ...]) -> int:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def isotrivial_coefficient(case_k: int) -> Fraction:
    """Canonical coefficient -2/k of an isotrivial quotient model.

    Power counting on Omega = s^{-2} ds dw1 dw2 through the stored
    invariant-monomial coordinates: the wedge of the three coordinate
    differentials is det(E) s^{P-1} w1^{Q-1} w2^{R-1} ds dw1 dw2 with
    (P, Q, R) the column sums of the exponent matrix E, so Omega has pole
    order (P+1)/p_f along the reduced fiber and the fiber has multiplicity
    k/p_f, with p_f the s-exponent of the unique s-bearing coordinate.
    """
    if case_k not in _ISOTRIVIAL_COORDS:
        raise Unsupported(f"no isotrivial case data for k={case_k}")
    rows = _ISOTRIVIAL_COORDS[case_k]
    if _det3(rows) == 0:
        raise Unsupported("stored coordinates are degenerate")
    s_rows = [r for r in rows if r[0] > 0]
    if len(s_rows) != 1:
        raise Unsupported("need exactly one s-bearing coordinate")
    p_f = s_rows[0][0]
    P = sum(r[0] for r in rows)
    pole = Fraction(2 + P - 1, p_f)
    mult = Fraction(case_k, p_f)
    if pole.denominator != 1 or mult.denominator != 1:
        raise Unsupported("non-integral pole order or multiplicity")
    return -pole / mult


def classify_asymptotics(pm: ProductModel) -> Classification:
    """Asymptotic class per the fiber-pair dichotomy; the one rule for which
    pairs have a complete model.

    finite x finite with alpha+beta > k is ALG with cone angle
    2 (alpha+beta-k) pi / k; alpha+beta = k is ALH; Istar x Istar collapses
    to a ray with volume growth 3/2; Istar x E-star opens a cone of angle
    2pi/3, pi/2, pi/3 with volume growth 2.  Every other pair (finite x
    finite with alpha+beta < k, Istar x {II, III, IV, I0star}) raises
    Unsupported.  The Istar x E-star angle is (k - 2 a2) pi / k, 2 pi / P for
    the cone power P of the tangent-cone rescaling z ~ alpha^{-P}.
    """
    total = pm.alpha + pm.beta
    if all(pm.monodromy_finite) and total > pm.k:
        return Classification(kind="ALG", angle_over_pi=Fraction(2 * (total - pm.k), pm.k))
    if all(pm.monodromy_finite) and total == pm.k:
        return Classification(kind="ALH", cone="ray")
    if pm.left.kind is FiberKind.Istar and pm.right.kind is FiberKind.Istar:
        return Classification(kind="ALH_star", volume_exponent=Fraction(3, 2),
                              cone="ray")
    if pm.left.kind is FiberKind.Istar and pm.right.kind in _E_STAR:
        return Classification(kind="ALG_star",
                              angle_over_pi=Fraction(pm.k - 2 * pm.a2, pm.k),
                              volume_exponent=Fraction(2, 1))
    raise Unsupported(f"{pm.label()} has no complete model: it is neither finite x finite "
                      "with alpha+beta >= k nor Istar x {Istar, IIstar, IIIstar, IVstar}")


def isotrivial_case13() -> ProductModel:
    """The hexagonal swap quotient (k = 6 isotrivial case) as a product-like model.

    Periods z^{1/6}, zeta3 z^{1/6}, z^{2/3}, zeta3 z^{2/3} on the 6-cover;
    the true fiber lattice has index 4 in the naive product lattice, which
    the per-factor volume factors nu = (2, 2) account for.  The volume form
    is g(z) = -1/(12 z^2).
    """
    # placeholder type of both factors: finite monodromy, pure-power periods
    hexa = FiberType(FiberKind.I0star)
    lm = _pure_power_model(hexa, 6, ((1, -1), (1, 0)), 5, 1, ZETA3)
    rmm = _pure_power_model(hexa, 6, ((-1, 1), (-1, 0)), 2, 4, ZETA3)
    pm = ProductModel(left=hexa, right=hexa, left_model=lm, right_model=rmm, nu=(2, 2),
                      label_override="isotrivial case 13",
                      default_k0=-1.0 / 12.0 + 0j)
    for side, factor in (("left", lm), ("right", rmm)):
        _verify_local(factor, f"{pm.label()}, {side} factor")
    return pm


def finite_kinds() -> tuple[FiberKind, ...]:
    """The seven finite-monodromy fiber kinds."""
    return (FiberKind.I0star, *_FINITE_TABLE)
