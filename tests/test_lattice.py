"""Siegel normalization and the Hermitian metric coefficient."""

import json
import math

import numpy as np
import pytest

from semiflat.cli import bundled_path
from semiflat.errors import NotPositive, SingularPolarization
from semiflat.lattice import (HermitianForm, PolarizedFamily, _symplectic_basis, hermitian_h,
                              product_family, scaled_h, siegel_normalize, standard_symplectic)
from semiflat.rng import SplitMix64
from semiflat.scenario import build_context, sample_points, validate_scenario

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def unit_square():
    return PolarizedFamily(T=np.array([[1.0, 1j]]), Q=J2, m=1)


def block_q():
    Q = np.zeros((4, 4))
    Q[:2, :2] = J2
    Q[2:, 2:] = J2
    return Q


def test_siegel_already_normalized():
    sd = siegel_normalize(unit_square())
    assert np.allclose(sd.S, np.eye(2))
    assert abs(sd.R[0, 0] - 1) < 1e-15
    assert abs(sd.Z[0, 0] - 1j) < 1e-15


def test_siegel_product_family_permutation():
    taus = (0.9 + 0.1j, 0.3 + 0.8j, 1.1 - 0.05j, 0.2 + 0.95j)
    fam = product_family(taus)
    sd = siegel_normalize(fam)
    expect_s = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1.0]])
    assert np.array_equal(sd.S, expect_s)
    assert abs(sd.R[0, 0] - taus[0]) < 1e-14
    assert abs(sd.R[1, 1] - taus[2]) < 1e-14
    assert abs(sd.Z[0, 0] - taus[1] / taus[0]) < 1e-14
    assert abs(sd.Z[1, 1] - taus[3] / taus[2]) < 1e-14


def test_siegel_random_reconstruction_residual():
    # random Siegel data pushed through a random symplectic basis change must
    # normalize back with a tiny reconstruction residual
    rng = SplitMix64(7)
    for _ in range(12):
        t1 = rng.complex_annulus(0.5, 1.5)
        t2 = rng.complex_annulus(0.5, 1.5)
        if (np.conj(t1) * t2).imag <= 0.05:
            continue
        fam = PolarizedFamily(T=np.array([[t1, t2]]), Q=J2, m=1)
        sd = siegel_normalize(fam)
        assert sd.Z[0, 0].imag > 0
        recon = sd.R @ np.hstack([np.eye(fam.m), sd.Z])      # TS = R (I, Z)
        assert np.max(np.abs(fam.T @ sd.S - recon)) < 1e-12


def test_hermitian_h_unit_square():
    H = hermitian_h(unit_square()).H
    assert abs(H[0, 0] - 0.5) < 1e-15


def test_hermitian_h_product_diag():
    taus = (1.0 + 0j, 0.4 + 1.1j, 0.8 - 0.2j, 0.1 + 0.9j)
    fam = product_family(taus)
    H = hermitian_h(fam).H
    i12 = (np.conj(taus[0]) * taus[1]).imag
    i34 = (np.conj(taus[2]) * taus[3]).imag
    assert abs(H[0, 0] - 1.0 / (2 * i12)) < 1e-13
    assert abs(H[1, 1] - 1.0 / (2 * i34)) < 1e-13
    assert abs(H[0, 1]) < 1e-13


def test_hermitian_h_case13_true_lattice():
    # the index-4 fiber lattice of the hexagonal swap quotient, with the
    # principal polarization: H(eps) = eps*H has the quotient-model values
    z3 = np.exp(2j * np.pi / 3)
    s = 0.55 * np.exp(0.31j)
    z = s ** 6
    cols = [np.array([s, s ** 4]), z3 * np.array([s, s ** 4]),
            np.array([s, -s ** 4]), z3 * np.array([s, -s ** 4])]
    T = np.column_stack(cols)
    fam = PolarizedFamily(T=T, Q=block_q(), m=2)
    eps = 0.7
    Heps = scaled_h(hermitian_h(fam), fam.Q, eps, 2).H
    assert abs(Heps[0, 0] - eps / (2 * math.sqrt(3)) * abs(z) ** (-1 / 3)) < 1e-12
    assert abs(Heps[1, 1] - eps / (2 * math.sqrt(3)) * abs(z) ** (-4 / 3)) < 1e-12


def test_scaled_h_scale_one_m1():
    # for m=1 the scale is eps/sqrt(det Q) and equals one at eps = sqrt(det Q)
    Q = 2.0 * J2
    fam = PolarizedFamily(T=np.array([[1.0, 1j]]), Q=Q, m=1)
    H = hermitian_h(fam)
    Hs = scaled_h(H, Q, math.sqrt(np.linalg.det(Q)), 1)
    assert np.allclose(Hs.H, H.H)


def test_scaled_h_direct_arithmetic():
    H = HermitianForm(H=np.array([[0.5]]))
    out = scaled_h(H, J2, 2.0, 1)
    assert abs(out.H[0, 0] - 1.0) < 1e-15


def _random_sl2z(rng: SplitMix64) -> np.ndarray:
    gens = [np.array([[1, 1], [0, 1]]), np.array([[1, -1], [0, 1]]),
            np.array([[0, -1], [1, 0]])]
    A = np.eye(2, dtype=int)
    for _ in range(6):
        A = A @ gens[rng.next_u64() % 3]
    return A


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_h_invariant_under_symplectic_basis_change(seed):
    # well-definedness: T -> T A with A^t Q A = Q leaves H unchanged
    rng = SplitMix64(seed)
    taus = (1.0 + 0j, 0.4 + 1.1j, 0.8 - 0.2j, 0.1 + 0.9j)
    fam = product_family(taus)
    # symplectic-for-Q matrices conjugated from Sp(4, Z) for the standard form
    S = siegel_normalize(fam).S
    B = np.zeros((2, 2), dtype=int)
    B[0, 0] = rng.next_u64() % 3 - 1
    B[1, 1] = rng.next_u64() % 3 - 1
    B[0, 1] = B[1, 0] = rng.next_u64() % 3 - 1
    U = _random_sl2z(rng)
    u_inv_t = np.array([[U[1, 1], -U[1, 0]], [-U[0, 1], U[0, 0]]])  # exact for det 1
    AJ = np.block([[np.eye(2, dtype=int), B], [np.zeros((2, 2), dtype=int),
                   np.eye(2, dtype=int)]]) @ \
        np.block([[U, np.zeros((2, 2), dtype=int)],
                  [np.zeros((2, 2), dtype=int), u_inv_t]])
    A = S @ AJ @ np.linalg.inv(S)
    assert np.max(np.abs(A.T @ fam.Q @ A - fam.Q)) < 1e-12
    fam2 = PolarizedFamily(T=fam.T @ A, Q=fam.Q, m=2)
    H1 = hermitian_h(fam).H
    H2 = hermitian_h(fam2).H
    assert np.max(np.abs(H1 - H2)) < 1e-10


def test_type_one_one_criterion():
    # Pi^t Q Pi = 0 with Pi the first m columns of (T; conj T)^{-1}: the
    # polarization of a product family is of type (1, 1)
    fam = product_family((1.0 + 0j, 0.4 + 1.1j, 0.8 - 0.2j, 0.1 + 0.9j))
    pi = np.linalg.inv(np.vstack([fam.T, fam.T.conj()]))[:, :fam.m]
    assert np.max(np.abs(pi.T @ fam.Q @ pi)) < 1e-12


def test_singular_polarization_rejected():
    with pytest.raises(SingularPolarization):
        PolarizedFamily(T=np.array([[1.0, 1j]]),
                        Q=np.array([[0.0, 1.0], [1.0, 0.0]]), m=1)


def test_symplectic_basis_is_built_once_per_q_and_read_only():
    # product_family's Q never changes: its S is built and checked once
    S = siegel_normalize(product_family((1.0 + 0j, 0.4 + 1.1j, 0.8 - 0.2j, 0.1 + 0.9j))).S
    assert _symplectic_basis(block_q(), 2) is S
    assert np.max(np.abs(S.T @ block_q() @ S - standard_symplectic(2))) < 1e-12
    with pytest.raises(ValueError):
        S[0, 0] = 2.0
    # a Q that fails is not cached: its S^t Q S check raises on every call
    for Q, why in ((np.array([[0.0, 1.0], [1.0, 0.0]]), "standard symplectic"),
                   (np.zeros((2, 2)), "pivots")):
        for _ in range(2):
            with pytest.raises(SingularPolarization, match=why):
                _symplectic_basis(Q, 1)


def test_not_positive_for_wrong_orientation():
    fam = PolarizedFamily(T=np.array([[1j, 1.0]]), Q=J2, m=1)
    with pytest.raises(NotPositive):
        siegel_normalize(fam)


# --- stacks of period matrices --------------------------------------------

STACK_REL = 1e-14         # stacked against per-sample results, relative to the sample


def bundled_taus(name: str, n: int = 5) -> tuple:
    """The four periods of n seeded samples of a bundled pair scenario, each
    an array of n entries, as the fiber_volume check draws them."""
    cfg = validate_scenario(json.loads(bundled_path(f"{name}.json").read_text()))
    model = build_context(cfg).model
    pt, _ = sample_points(model, SplitMix64(cfg["seed"]), n)
    return tuple(np.broadcast_to(t, pt.s.shape) for t in model.tau(pt.s))


def sample_of(taus: tuple, i: int) -> tuple:
    return tuple(complex(t[i]) for t in taus)


def assert_close(stacked: np.ndarray, single: np.ndarray):
    assert stacked.shape == single.shape
    assert np.max(np.abs(stacked - single)) <= STACK_REL * np.max(np.abs(single))


@pytest.mark.parametrize("name", ["pair_istar_x_ivstar", "pair_iistar_x_iiistar",
                                  "pair_ii_x_iistar", "pair_istar_x_istar"])
def test_stacked_oracle_equals_per_sample_calls(name):
    taus = bundled_taus(name)
    fam = product_family(taus)
    assert fam.T.shape == (5, 2, 4)
    sd = siegel_normalize(fam)
    H = hermitian_h(fam)
    Heps = scaled_h(H, fam.Q, 0.7, 2).H
    assert H.H.shape == Heps.shape == (5, 2, 2)
    for i in range(5):
        one = product_family(sample_of(taus, i))
        sd1 = siegel_normalize(one)
        H1 = hermitian_h(one)
        assert np.array_equal(sd.S, sd1.S)
        assert_close(sd.R[i], sd1.R)
        assert_close(sd.Z[i], sd1.Z)
        assert_close(H.H[i], H1.H)
        assert_close(Heps[i], scaled_h(H1, one.Q, 0.7, 2).H)


def test_one_wrongly_oriented_sample_fails_the_stack():
    taus = [np.array(t) for t in bundled_taus("pair_istar_x_ivstar")]
    taus[2][3], taus[3][3] = taus[3][3], taus[2][3]       # sample 3: Im Z < 0
    with pytest.raises(NotPositive, match="Im Z is not positive definite at sample 3 "):
        siegel_normalize(product_family(taus))
    taus[0][4], taus[1][4] = taus[1][4], taus[0][4]       # and sample 4: the first is named
    with pytest.raises(NotPositive, match="at sample 3 "):
        hermitian_h(product_family(taus))


def test_one_singular_sample_fails_the_stack():
    taus = [np.array(t) for t in bundled_taus("pair_iistar_x_iiistar")]
    taus[0][1] = 0.0                                        # sample 1: R is singular
    with pytest.raises(NotPositive, match="TS is singular at sample 1"):
        hermitian_h(product_family(taus))


def test_routes_to_h_inverse_agree_at_each_sample_scale():
    # sample 0 breaks the Riemann relation by 1e-10 (an entry off the block
    # diagonal), inside the 1e-9 bound on the asymmetry of Z; its two routes
    # to H^{-1} then disagree far beyond 1e-12 at its own scale |H^{-1}| ~ 1.
    # Sample 1 is a valid lattice 1e3 times larger, |H^{-1}| ~ 1e6: at the
    # scale of the whole batch, sample 0 would pass.
    T = np.array([[1.0, 0.4 + 1.1j, 0, 0], [0, 0, 0.8 - 0.2j, 0.1 + 0.9j]])
    bent = T.copy()
    bent[0, 2] = 1e-10
    fam = PolarizedFamily(T=np.stack([bent, 1e3 * T]), Q=block_q(), m=2)
    with pytest.raises(NotPositive, match="routes to H\\^\\{-1\\} disagree .* at sample 0"):
        hermitian_h(fam)
    hermitian_h(PolarizedFamily(T=1e3 * T, Q=block_q(), m=2))
