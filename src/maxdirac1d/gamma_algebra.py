"""Dirac matrices and component right-hand sides for the 1D-reduced Maxwell-Dirac system.

The system couples a spinor psi = (u, v) to potentials A_0..A_d through

    (-i g0 dt - i g1 dx + M) psi = (A_0 g0 + ... + A_d g^d) psi,
    box A_0 = |psi|^2,   box A_j = -psi* g0 g^j psi,

with metric signature (+, -, ..., -).  After diagonalising g0 g1 the spinor
splits into a right-mover u and a left-mover v, each with one complex
component for d = 1, 2 and two for d = 3.  Every half-spinor array has the
shape (ncomp, n+1): a leading component axis, then the nodes.  This module
holds the concrete matrices, the Clifford-relation verifier, the wave
sources, and `coupling`: the u-v coupling, written out per dim in this one
place, which the transport and modulus sources and the solver apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GammaSet",
    "CliffordReport",
    "gamma_matrices",
    "verify_clifford",
    "spinor_components",
    "coupling",
    "spinor_rhs",
    "wave_sources",
    "modulus_rhs",
    "modulus_sq",
    "interaction_term",
]

# 2x2 building blocks; entries are exact small Gaussian integers so that all
# Clifford checks come out to exactly zero in floating point.
_G0_2 = np.array([[0, 1], [1, 0]], dtype=complex)
_G1_2 = np.array([[0, -1], [1, 0]], dtype=complex)
_G2_2 = np.array([[1j, 0], [0, -1j]], dtype=complex)
_RHO = np.array([[0, -1], [1, 0]], dtype=complex)
_KAPPA = np.array([[1j, 0], [0, -1j]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)


def _check_dim(dim: int) -> None:
    if dim not in (1, 2, 3):
        raise ValueError(f"spatial dimension must be 1, 2 or 3, got {dim!r}")


def spinor_components(dim: int) -> int:
    """Number of complex components in each half-spinor (u or v)."""
    _check_dim(dim)
    return 2 if dim == 3 else 1


@dataclass(frozen=True)
class GammaSet:
    """Gamma matrices g^0..g^dim for one spatial dimension count.

    For dim = 3 the auxiliary 2x2 blocks rho and kappa (with rho^2 = kappa^2 =
    -I, rho kappa = -kappa rho, both anti-hermitian) are exposed as well; they
    act on the components of u and v in the reduced transport equations.
    """

    dim: int
    gammas: tuple[np.ndarray, ...]
    rho: np.ndarray | None = None
    kappa: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.gammas[0].shape[0]


def gamma_matrices(dim: int) -> GammaSet:
    """Return the concrete gamma matrices used throughout the package."""
    _check_dim(dim)
    if dim == 1:
        return GammaSet(1, (_G0_2.copy(), _G1_2.copy()))
    if dim == 2:
        return GammaSet(2, (_G0_2.copy(), _G1_2.copy(), _G2_2.copy()))
    g0 = np.block([[_Z2, _I2], [_I2, _Z2]])
    g1 = np.block([[_Z2, -_I2], [_I2, _Z2]])
    g2 = np.block([[_RHO, _Z2], [_Z2, -_RHO]])
    g3 = np.block([[_KAPPA, _Z2], [_Z2, -_KAPPA]])
    return GammaSet(3, (g0, g1, g2, g3), rho=_RHO.copy(), kappa=_KAPPA.copy())


@dataclass
class CliffordReport:
    """Outcome of the algebraic verification of a GammaSet."""

    dim: int
    entries: list[tuple[str, float]] = field(default_factory=list)

    @property
    def max_deviation(self) -> float:
        return max((d for _, d in self.entries), default=0.0)

    @property
    def ok(self) -> bool:
        return self.max_deviation == 0.0

    def failures(self) -> list[tuple[str, float]]:
        return [(name, dev) for name, dev in self.entries if dev != 0.0]


def _dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max())


def verify_clifford(gs: GammaSet) -> CliffordReport:
    """Check anticommutators, hermiticity and the rho/kappa block algebra.

    All matrix entries are exact in binary floating point, so every deviation
    reported here is exactly 0.0 for a correct GammaSet.
    """
    report = CliffordReport(gs.dim)
    n = gs.size
    eye = np.eye(n, dtype=complex)
    metric = [1.0] + [-1.0] * gs.dim
    for mu in range(gs.dim + 1):
        for nu in range(mu, gs.dim + 1):
            anti = gs.gammas[mu] @ gs.gammas[nu] + gs.gammas[nu] @ gs.gammas[mu]
            target = (2.0 * metric[mu] if mu == nu else 0.0) * eye
            report.entries.append((f"anticommutator({mu},{nu})", _dev(anti, target)))
    report.entries.append(("hermitian(0)", _dev(gs.gammas[0].conj().T, gs.gammas[0])))
    for j in range(1, gs.dim + 1):
        report.entries.append(
            (f"antihermitian({j})", _dev(gs.gammas[j].conj().T, -gs.gammas[j]))
        )
    if gs.dim == 3:
        if gs.rho is None or gs.kappa is None:
            raise ValueError("dim-3 GammaSet must carry rho and kappa blocks")
        report.entries.append(("rho_antihermitian", _dev(gs.rho.conj().T, -gs.rho)))
        report.entries.append(("kappa_antihermitian", _dev(gs.kappa.conj().T, -gs.kappa)))
        report.entries.append(("rho_square", _dev(gs.rho @ gs.rho, -_I2)))
        report.entries.append(("kappa_square", _dev(gs.kappa @ gs.kappa, -_I2)))
        report.entries.append(
            ("rho_kappa_anticommute", _dev(gs.rho @ gs.kappa + gs.kappa @ gs.rho, _Z2))
        )
    return report


# ---------------------------------------------------------------------------
# Componentwise right-hand sides.
#
# u and v are arrays of shape (ncomp, n+1) in every dim: a leading component
# axis of length spinor_components(dim), then the nodes.  The bilinears reduce
# the component axis and return (n+1,) rows.
# ---------------------------------------------------------------------------


def _as_spinor(dim: int, w) -> np.ndarray:
    w = np.asarray(w, dtype=complex)
    ncomp = spinor_components(dim)
    if w.ndim < 2 or w.shape[0] != ncomp:
        raise ValueError(
            f"dim-{dim} half-spinors have shape ({ncomp}, nodes), got {w.shape}"
        )
    return w


def coupling(dim: int, A, M: float):
    """The u-v coupling (C, D, k2) of the transport equations

        (dt + dx) u = i(A_0 + A_1) u + C v,   (dt - dx) v = i(A_0 - A_1) v + D u.

    C and D map (ncomp, n) half-spinors to half-spinors; they come from the
    mass and the transverse potentials A_2 (and A_3) only.  They satisfy
    D = -C^dagger and DC = CD = -k2 with k2 = A_2^2 [+ A_3^2] + M^2, so the
    coupling is anti-hermitian.  The operators are linear in (A, M): scaled
    inputs give scaled operators and k2 scales quadratically.
    """
    _check_dim(dim)
    if len(A) != dim + 1:
        raise ValueError(f"expected {dim + 1} potentials for dim={dim}, got {len(A)}")
    if dim < 3:  # dim 1 is dim 2 with A_2 = 0
        A2 = A[2] if dim == 2 else 0.0
        c, d = A2 - 1j * M, -A2 - 1j * M
        return (lambda w: c * w), (lambda w: d * w), A2 * A2 + M * M
    A2, A3 = A[2], A[3]
    p, q, s = A3 - 1j * M, -A3 - 1j * M, 1j * A2

    def C(w):
        return np.stack([p * w[0] + s * w[1], q * w[1] - s * w[0]])

    def D(w):
        return np.stack([q * w[0] - s * w[1], p * w[1] + s * w[0]])

    return C, D, A2 * A2 + A3 * A3 + M * M


def spinor_rhs(dim: int, A, u, v, M: float):
    """Transport sources (du, dv) with (dt + dx) u = du, (dt - dx) v = dv.

    A is the sequence (A_0, ..., A_dim) of real potentials (scalars or node
    arrays).  The longitudinal potentials rotate phases; the mass and the
    transverse potentials couple u and v through `coupling`.
    """
    C, D, _ = coupling(dim, A, M)
    u = _as_spinor(dim, u)
    v = _as_spinor(dim, v)
    return 1j * (A[0] + A[1]) * u + C(v), 1j * (A[0] - A[1]) * v + D(u)


def modulus_sq(dim: int, u, v) -> np.ndarray:
    """Pointwise |psi|^2 = |u|^2 + |v|^2, summed over the components."""
    u = _as_spinor(dim, u)
    v = _as_spinor(dim, v)
    return (np.abs(u) ** 2 + np.abs(v) ** 2).sum(axis=0)


def wave_sources(dim: int, u, v) -> tuple[np.ndarray, ...]:
    """Sources (S_0, ..., S_dim) with box A_mu = S_mu.

    S_0 = |u|^2 + |v|^2 is the charge density; S_1 = -|u|^2 + |v|^2 is minus
    the current.  The transverse sources are the null bilinears that make the
    A_j fields bounded: -2 Im(u conj(v)) for dim = 2 and -2 Re(v* rho u),
    -2 Re(v* kappa u) for dim = 3.
    """
    _check_dim(dim)
    u = _as_spinor(dim, u)
    v = _as_spinor(dim, v)
    mu = (np.abs(u) ** 2).sum(axis=0)
    mv = (np.abs(v) ** 2).sum(axis=0)
    s0 = mu + mv
    s1 = -mu + mv
    if dim == 1:
        return s0, s1
    if dim == 2:
        return s0, s1, -2.0 * np.imag(u[0] * np.conj(v[0]))
    ru = np.stack([-u[1], u[0]])  # rho u
    ku = np.stack([1j * u[0], -1j * u[1]])  # kappa u
    s2 = -2.0 * np.real(np.conj(v[0]) * ru[0] + np.conj(v[1]) * ru[1])
    s3 = -2.0 * np.real(np.conj(v[0]) * ku[0] + np.conj(v[1]) * ku[1])
    return s0, s1, s2, s3


def modulus_rhs(dim: int, A, u, v, M: float) -> tuple[np.ndarray, np.ndarray]:
    """Sources for the modulus system (dt + dx)|u|^2 and (dt - dx)|v|^2.

    su = 2 Re sum conj(u) C v, and sv = -su exactly because the coupling is
    anti-hermitian: that is the discrete backbone of charge conservation.
    The longitudinal potentials act by pure phase rotation and drop out.
    """
    C, _, _ = coupling(dim, A, M)
    u = _as_spinor(dim, u)
    v = _as_spinor(dim, v)
    su = 2.0 * np.real(np.conj(u) * C(v)).sum(axis=0)
    return su, -su


def interaction_term(gs: GammaSet, A, u, v) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate F = (A_0 g^0 + ... + A_d g^d) psi, split back into (F_u, F_v).

    Used by the energy-inequality verifier, which treats the whole potential
    coupling as an external source.  The result has the shape of the inputs.
    """
    dim = gs.dim
    if len(A) != dim + 1:
        raise ValueError(f"expected {dim + 1} potentials for dim={dim}, got {len(A)}")
    u = _as_spinor(dim, u)
    v = _as_spinor(dim, v)
    psi = np.concatenate([u, v], axis=0)
    out = np.zeros_like(psi)
    for mu in range(dim + 1):
        out += np.asarray(A[mu]) * np.tensordot(gs.gammas[mu], psi, axes=(1, 0))
    return out[: u.shape[0]], out[u.shape[0] :]
