"""Dirac matrices and component right-hand sides for the 1D-reduced Maxwell-Dirac system.

The system couples a spinor psi = (u, v) to potentials A_0..A_d through

    (-i g0 dt - i g1 dx + M) psi = (A_0 g0 + ... + A_d g^d) psi,
    box A_0 = |psi|^2,   box A_j = -psi* g0 g^j psi,

with metric signature (+, -, ..., -).  After diagonalising g0 g1 the spinor
splits into a right-mover u and a left-mover v, each with one complex
component for d = 1, 2 and two for d = 3.  This module holds the wave
sources and `coupling`: the u-v coupling in closed form, built in this one
place from one transverse row in every dim, which the transport sources and
the solver apply.  No kernel multiplies by a gamma matrix; the concrete
matrices and their Clifford verifier are the tests' oracle for these closed
forms (`tests/lemmas.py`).

The kernels march one spinor component in every dim, a node row like each
potential row, (A_0, A_1) in dim 1 and (A_0, A_1, A_T) in dims 2 and 3, where
the transverse row A_T is A_2 in dim 2 and A_3 in dim 3.  In dim 3 the
marched spinor row is the first component: the paper's datum puts chi f_eps
in u[0] only and has a_2 = b_2 = 0, and then u[1], v[1] and A_2 stay +0.0 for
the whole run, in floating point as in exact arithmetic.  Every term that
feeds a second component is a product of a finite number with one of those
zeros or with s = i A_2, so it is a zero, and so is the source of A_2.  Sums
of zeros stay +0.0, since a sum is -0.0 only when both terms are, and A_2 is
built from +0.0 data by such sums.  The dim-3 `coupling` and `wave_sources`
are the two-component ones with those zeros put in: they round the first
components, S_0, S_1 and S_3 bit for bit as the two-component ones do.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "spinor_components",
    "coupling",
    "spinor_rhs",
    "wave_sources",
]


def _check_dim(dim: int) -> None:
    if dim not in (1, 2, 3):
        raise ValueError(f"spatial dimension must be 1, 2 or 3, got {dim!r}")


def spinor_components(dim: int) -> int:
    """Number of complex components in each half-spinor (u or v)."""
    _check_dim(dim)
    return 2 if dim == 3 else 1


# the physical index mu of each marched potential row, per dim: (A_0, A_1)
# in dim 1 and (A_0, A_1, A_T) in dims 2 and 3, A_T = A_dim (module docstring)
_POTENTIAL_ROWS = {1: (0, 1), 2: (0, 1, 2), 3: (0, 1, 3)}


# ---------------------------------------------------------------------------
# Componentwise right-hand sides.
#
# u and v are the marched half-spinor rows, arrays of shape (..., n+1) in
# every dim: optional batch axes, then the nodes, like the potential,
# source and density rows.  Potentials are the marched rows (module
# docstring).  They and the mass broadcast against (..., n+1): scalars,
# node rows, or per-instance arrays such as a mass of shape (K, 1).
# ---------------------------------------------------------------------------


def _spinors(dim: int, u, v) -> tuple[np.ndarray, np.ndarray]:
    """u and v as complex arrays, for a known dim."""
    _check_dim(dim)
    return np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)


def coupling(dim: int, A, M: float):
    """The u-v coupling (C, D, k2) of the transport equations

        (dt + dx) u = i(A_0 + A_1) u + C v,   (dt - dx) v = i(A_0 - A_1) v + D u.

    C and D map (..., n) half-spinor rows to rows; they come from the
    mass and the transverse potentials only.  They satisfy D = -C^dagger and
    DC = CD = -k2, so the coupling is anti-hermitian.  On the marched row
    (module docstring), C = c w and D = d w with c = row - iM,
    d = -row - iM and k2 = row^2 + M^2, where the row is the transverse
    row A_T = A[2] of the marched potential rows A (0 in dim 1).  The
    operators are linear in (A, M): scaled inputs give scaled operators and
    k2 scales quadratically.
    """
    _check_dim(dim)
    C, D, row = _coupling_maps(dim, A, M)
    return C, D, row * row + M * M


def _coupling_maps(dim: int, A, M):
    """C and D of `coupling`, and the transverse row whose square k2 holds.
    A is indexed at most once: at A[2], the row A_T of dims 2 and 3."""
    rows = len(_POTENTIAL_ROWS[dim])
    if len(A) != rows:
        raise ValueError(f"expected {rows} potential rows for dim={dim}, got {len(A)}")
    row = A[2] if dim > 1 else 0.0
    c, d = row - 1j * M, -row - 1j * M
    if dim < 3:
        return (lambda w: c * w), (lambda w: d * w), row

    def C(w):
        # s = i A_2 and s w_1 are +0: the "+ 0.0" stands for "+ s w_1",
        # which turns a -0.0 part into +0.0; "- s w_1" and 0 + A_3^2
        # change no bits
        out = c * w
        out += 0.0
        return out

    return C, (lambda w: d * w), row


def spinor_rhs(dim: int, A, u, v, M: float, *, sums=None):
    """Transport sources (du, dv) with (dt + dx) u = du, (dt - dx) v = dv.

    A is the sequence of the marched real potential rows, (A_0, A_1) or
    (A_0, A_1, A_T) (scalars or node arrays).  The longitudinal potentials
    rotate phases; the mass and the transverse potential couple u and v
    through `coupling`.  `sums`, when
    given, is the pair (A_0 + A_1, A_0 - A_1) already formed from these A.
    """
    u, v = _spinors(dim, u, v)
    C, D, _ = _coupling_maps(dim, A, M)
    plus, minus = (A[0] + A[1], A[0] - A[1]) if sums is None else sums
    return 1j * plus * u + C(v), 1j * minus * v + D(u)


def _density(w, out=None) -> np.ndarray:
    """|w|^2, written into `out` when given."""
    out = np.abs(w, out=out)
    out **= 2  # in place, the bits of np.abs(w) ** 2
    return out


def wave_sources(dim: int, u, v, *, out=None, densities=None) -> tuple[np.ndarray, ...]:
    """Sources of the marched potential rows, box A_mu = S_mu: (S_0, S_1)
    in dim 1 and (S_0, S_1, S_T) in dims 2 and 3.

    S_0 = |u|^2 + |v|^2 is the charge density; S_1 = -|u|^2 + |v|^2 is minus
    the current.  The transverse source S_T is the null bilinear that makes
    A_T bounded: S_2 = -2 Im(u conj(v)) in dim 2, and in dim 3
    S_3 = -2 Re(v* kappa u), which on the first components (module
    docstring) is -2 Re(conj(v_0) i u_0).

    The sources are the rows of one (rows, ..., n+1) array: `out` when
    given, which a caller stepping many levels keeps from one to the next.
    `densities`, when given, is a (2, ..., n+1) array that receives the
    rows |u|^2 and |v|^2 that S_0 and S_1 are made of.
    """
    u, v = _spinors(dim, u, v)
    rows = (None, None) if densities is None else densities
    mu, mv = _density(u, rows[0]), _density(v, rows[1])
    if out is None:
        out = np.empty((len(_POTENTIAL_ROWS[dim]), *np.broadcast(mu, mv).shape))
    np.add(mu, mv, out=out[0])
    np.add(np.negative(mu, out=out[1]), mv, out=out[1])  # -mu + mv
    if dim == 1:
        return tuple(out)
    if dim == 2:
        np.multiply(-2.0, np.imag(u * np.conj(v)), out=out[2])
    else:
        # u_1 = v_1 = +0.0, so the dropped product of S_3 is a zero with
        # real part +0.0; "+ 0.0" does what adding it does to a -0.0
        np.multiply(-2.0, np.real(np.conj(v) * (1j * u)) + 0.0, out=out[2])
    return tuple(out)
