"""Rank-2 and rank-4 lattice arithmetic and polarized-family normal forms.

A polarized family is the linear-algebra core of a torus fibration over a
point: an m x 2m complex period matrix T whose columns span a lattice in
C^m over the reals, together with a constant antisymmetric real pairing Q.
The operations here put (T, Q) into Siegel normal form TS = R(I, Z) with Z
in the Siegel upper half-plane, and produce the fiberwise Hermitian metric
coefficient H with

    H^{-1} = 2 conj(R) Im(Z) R^t = i conj(T) Q^{-1} T^t,

computed both ways as a cross-check.  Scaled to H(eps), its diagonal is
the independent oracle of the `fiber_volume` check for the fiber
coefficients F_j that `metric` assembles.

Stack axis.  T may be one m x 2m matrix or a stack of them, shape
(..., m, 2m), one per sample; Q is shared.  R, Z and H then carry the same
leading axes, and a single matrix is the stack of none.  Every self-check
holds per matrix, at that matrix's own scale, and raises if any one
matrix fails it, naming its sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotPositive, SingularPolarization

STD_TOL = 1e-12          # exact identities in double precision


def _maxabs(a: np.ndarray) -> np.ndarray:
    """max |a| of each matrix of a stack (a number for a single matrix)."""
    return np.max(np.abs(a), axis=(-2, -1), initial=0.0)


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _refuse(bad, error: type, message: str, min_eigenvalue=None) -> None:
    """Raise error if any matrix of a stack is bad (one flag per matrix).

    The message names the first bad sample, and its min_eigenvalue when
    one is given.
    """
    bad = np.asarray(bad)
    if not bad.any():
        return
    at = tuple(np.argwhere(bad)[0].tolist())
    if at:
        message += f" at sample {at[0] if len(at) == 1 else at}"
    if min_eigenvalue is not None:
        message += f" (min eigenvalue {float(np.asarray(min_eigenvalue)[at]):.3e})"
    raise error(message)


def _positive_definite(a: np.ndarray, what: str) -> None:
    """Raise NotPositive unless each Hermitian matrix of the stack a is
    positive definite."""
    w = np.linalg.eigvalsh(a).min(axis=-1)
    _refuse(w <= 0, NotPositive, f"{what} is not positive definite", w)


@dataclass(frozen=True)
class PolarizedFamily:
    """Period matrix T (m x 2m, or a stack (..., m, 2m)) with constant
    antisymmetric polarization Q."""

    T: np.ndarray
    Q: np.ndarray
    m: int

    def __post_init__(self):
        T = np.asarray(self.T, dtype=complex)
        Q = np.asarray(self.Q, dtype=float)
        if self.m not in (1, 2):
            raise ValueError("only fiber dimensions m=1 and m=2 are supported")
        if T.shape[-2:] != (self.m, 2 * self.m):
            raise ValueError(f"T must be {self.m}x{2 * self.m} (or a stack of them), "
                             f"got {T.shape}")
        if Q.shape != (2 * self.m, 2 * self.m):
            raise ValueError(f"Q must be {2 * self.m}x{2 * self.m}, got {Q.shape}")
        if not np.array_equal(Q, -Q.T):
            raise SingularPolarization("Q is not exactly antisymmetric")
        if abs(np.linalg.det(Q)) < 1e-300:
            raise SingularPolarization("Q is singular")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "Q", Q)


@dataclass(frozen=True)
class SiegelData:
    """Output of the Siegel normalization: S real symplectic-izing, TS = R(I, Z)."""

    S: np.ndarray
    R: np.ndarray
    Z: np.ndarray


def standard_symplectic(m: int) -> np.ndarray:
    J = np.zeros((2 * m, 2 * m))
    J[:m, m:] = np.eye(m)
    J[m:, :m] = -np.eye(m)
    return J


def _symplectic_basis(Q: np.ndarray, m: int) -> np.ndarray:
    """S with S^t Q S the standard symplectic form, built and checked once
    for each of the last 8 (Q, m), keyed on Q's bits; S is read-only."""
    return _symplectic_basis_of(np.ascontiguousarray(Q, dtype=float).tobytes(), m)


@lru_cache(maxsize=8)
def _symplectic_basis_of(q: bytes, m: int) -> np.ndarray:
    """S for the 2m x 2m form with bytes q, by a symplectic Gram-Schmidt
    over the reals with largest-pivot selection (ties broken by lowest
    index).  A Q that fails raises on every call: errors are not cached."""
    n = 2 * m
    Q = np.frombuffer(q).reshape(n, n)
    cand = [np.eye(n)[:, i] for i in range(n)]
    es: list[np.ndarray] = []
    fs: list[np.ndarray] = []
    for _ in range(m):
        best, pivot = None, 0.0
        for i in range(len(cand)):
            for j in range(len(cand)):
                if i == j:
                    continue
                val = float(cand[i] @ Q @ cand[j])
                if abs(val) > pivot + 1e-15 * pivot:
                    best, pivot = (i, j), abs(val)
        if best is None or pivot < 1e-14:
            raise SingularPolarization("symplectic Gram-Schmidt ran out of pivots")
        i, j = best
        e = cand[i]
        f = cand[j] / float(cand[i] @ Q @ cand[j])
        keep = [v for idx, v in enumerate(cand) if idx not in (i, j)]
        cand = [v - float(e @ Q @ v) * f + float(f @ Q @ v) * e for v in keep]
        es.append(e)
        fs.append(f)
    S = np.column_stack(es + fs)
    if _maxabs(S.T @ Q @ S - standard_symplectic(m)) > STD_TOL:
        raise SingularPolarization("S^t Q S does not reach the standard symplectic form")
    S.flags.writeable = False
    return S


def siegel_normalize(fam: PolarizedFamily) -> SiegelData:
    """Bring (T, Q) to Siegel normal form, for each matrix of a stack.

    S depends on Q alone, so it is built once per Q; its largest-pivot choice
    makes the result reproducible across runs and platforms.  Raises
    NotPositive when Im Z fails to be symmetric positive definite, which
    signals a non-Kahler polarization or a wrongly oriented basis.
    """
    m = fam.m
    S = _symplectic_basis(fam.Q, m)
    TS = fam.T @ S
    R = TS[..., :m]
    _refuse(np.abs(np.linalg.det(R)) < 1e-300, NotPositive,
            "leading m x m block of TS is singular")
    Z = np.linalg.solve(R, TS[..., m:])
    Zt = Z.swapaxes(-1, -2)
    _refuse(_maxabs(Z - Zt) > 1e-9, NotPositive,
            "Z is not symmetric: Riemann relations fail for this (T, Q)")
    Z = 0.5 * (Z + Zt)
    _positive_definite(0.5 * (Z.imag + Z.imag.swapaxes(-1, -2)), "Im Z")
    return SiegelData(S=S, R=R, Z=Z)


def hermitian_h(fam: PolarizedFamily) -> np.ndarray:
    """Fiber metric coefficient H, the Hermitian coefficient matrix of the
    fiberwise Kahler form (one per matrix of a stack), computed along both
    routes.

    H^{-1} is evaluated via the Siegel data (2 conj(R) Im(Z) R^t) and via
    i conj(T) Q^{-1} T^t; the two must agree to STD_TOL of each matrix's
    own scale.  The returned H is the symmetrized inverse.
    """
    sd = siegel_normalize(fam)
    hinv_siegel = 2.0 * sd.R.conj() @ sd.Z.imag @ sd.R.swapaxes(-1, -2)
    hinv_direct = 1j * fam.T.conj() @ np.linalg.solve(fam.Q, fam.T.swapaxes(-1, -2))
    _refuse(_maxabs(hinv_siegel - hinv_direct)
            > STD_TOL * np.maximum(1.0, _maxabs(hinv_direct)),
            NotPositive, "the two routes to H^{-1} disagree beyond tolerance")
    _positive_definite(0.5 * (hinv_direct + _adjoint(hinv_direct)), "H^{-1}")
    H = np.linalg.inv(hinv_direct)
    return 0.5 * (H + _adjoint(H))


def scaled_h(H: np.ndarray, Q: np.ndarray, eps: float, m: int) -> np.ndarray:
    """Volume normalization H(eps) = eps * det(Q)^(-1/2m) * H, of one H or
    of each H of a stack.

    The scale is fixed so that each elliptic-curve factor of a fiber with a
    principal polarization (det Q = 1) acquires area exactly eps; for m = 1
    it coincides with (eps / sqrt(det Q)) * H.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    detq = float(np.linalg.det(np.asarray(Q, dtype=float)))
    if detq <= 0:
        raise SingularPolarization("det Q must be positive")
    return eps * detq ** (-0.5 / m) * H


def product_family(taus) -> PolarizedFamily:
    """Rank-4 family of a fiber product: block-diagonal T and block J
    polarization.  taus holds the four periods, each a number or an array
    of samples (numbers broadcast), and T gets their leading axes."""
    T = np.zeros(np.broadcast(*taus).shape + (2, 4), dtype=complex)
    for c, t in enumerate(taus):
        T[..., c // 2, c] = t
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    Q = np.zeros((4, 4))
    Q[:2, :2] = j2
    Q[2:, 2:] = j2
    return PolarizedFamily(T=T, Q=Q, m=2)
