"""Fixed-point (Picard) solver built on the integral equations.

This is the cross-validation partner of the marching solver in cone_solver:
it never advances level by level.  Each sweep freezes the potentials, solves
the linear Dirac equation on the whole slab by iterating its Volterra form
(free translation plus product-trapezoid Duhamel integrals along the exactly
grid-aligned characteristics), then rebuilds the potentials by d'Alembert
quadrature of the spinor bilinears.  For small enough slabs the sweep map is
a contraction; a detector aborts with the measured ratio when it is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cone_solver import (
    characteristic_integrals,
    cumulative_trapezoid,
    free_transport,
    shift,
    trapezoid,
)
from .gamma_algebra import spinor_rhs, wave_sources
from .initial_data import DataFamily, GridSpec, potential_data, spinor_datum

__all__ = ["PicardResult", "PicardNonContraction", "picard_solve", "slab_distance"]


class PicardNonContraction(RuntimeError):
    def __init__(self, ratio: float, sweeps: int):
        super().__init__(
            f"picard iteration stopped contracting (distance ratio {ratio:.3g} "
            f"over the last {sweeps} sweeps); shrink the slab"
        )
        self.ratio = ratio


@dataclass
class PicardResult:
    fam: DataFamily
    grid: GridSpec
    times: np.ndarray
    U: np.ndarray  # (levels, ncomp, n+1)
    V: np.ndarray
    A: np.ndarray  # (levels, dim+1, n+1)
    At: np.ndarray
    distances: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.distances)


def _shift_clamp(rows: np.ndarray, k: int) -> np.ndarray:
    """Translate like cone_solver.shift but hold the edge values.

    Cumulative x-integrals are constant outside the support band, so sampling
    them beyond the grid must return the edge value, not zero; zero fill would
    smear a spurious jump of size (full line integral) into the last k nodes.
    """
    out = np.empty_like(rows)
    if k == 0:
        out[...] = rows
    elif k > 0:
        out[..., k:] = rows[..., :-k]
        out[..., :k] = rows[..., :1]
    else:
        out[..., :k] = rows[..., -k:]
        out[..., k:] = rows[..., -1:]
    return out


def _centered_dx(rows: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(rows)
    out[..., 1:-1] = (rows[..., 2:] - rows[..., :-2]) / (2.0 * h)
    return out


def _dalembert_levels(a, b, S, h, mt):
    """Potentials on levels 0..mt from data (a, b) and level sources S."""
    A = np.zeros((mt + 1,) + a.shape)
    At = np.zeros_like(A)
    da = _centered_dx(a, h)
    b_cum = cumulative_trapezoid(b, h)
    c_src = cumulative_trapezoid(S, h)  # cumulative x-integrals per level
    plus = characteristic_integrals(S, h, -1)  # int S(s, x + (t-s)) ds
    minus = characteristic_integrals(S, h, +1)  # int S(s, x - (t-s)) ds
    for m in range(mt + 1):
        left = shift(a, m)  # a(x - t)
        right = shift(a, -m)  # a(x + t)
        bint = _shift_clamp(b_cum, -m) - _shift_clamp(b_cum, m)
        src = np.zeros_like(a)
        for l in range(m + 1):
            w = 0.5 * h if l in (0, m) else h
            diff = _shift_clamp(c_src[l], -(m - l)) - _shift_clamp(c_src[l], m - l)
            src += w * diff
        A[m] = 0.5 * (left + right) + 0.5 * bint + 0.5 * src
        At[m] = (
            0.5 * (shift(da, -m) - shift(da, m))
            + 0.5 * (shift(b, -m) + shift(b, m))
            + 0.5 * (plus[m] + minus[m])
        )
    return A, At


def _linear_dirac(fam, grid, A, U_free, V_free, inner_tol, max_sweeps=80):
    """Solve the linear Dirac equation with frozen potentials on the slab,
    starting from the free transport (U_free, V_free) of the data.

    Successive substitution on the Volterra form; converges superexponentially
    for bounded potentials, independently of the outer contraction question.
    """
    h = grid.h
    U, V = U_free, V_free
    for _ in range(max_sweeps):
        Ru = np.zeros_like(U)
        Rv = np.zeros_like(V)
        for m in range(U.shape[0]):
            du, dv = spinor_rhs(fam.dim, tuple(A[m]), U[m], V[m], fam.M)
            Ru[m], Rv[m] = du, dv
        U_new = U_free + characteristic_integrals(Ru, h, +1)
        V_new = V_free + characteristic_integrals(Rv, h, -1)
        change = max(np.abs(U_new - U).max(), np.abs(V_new - V).max())
        U, V = U_new, V_new
        if change < inner_tol:
            break
    return U, V


def slab_distance(grid, dU, dV, dA, dAt) -> float:
    """Distance in the slab norm sup_t [ ||psi||_2 + sum_mu AC(A_mu) + sum_mu
    ||dt A_mu||_1 ]."""
    h = grid.h
    dens = (np.abs(dU) ** 2).sum(axis=1) + (np.abs(dV) ** 2).sum(axis=1)
    l2_psi = np.sqrt(trapezoid(dens, h))
    sup_a = np.abs(dA).max(axis=-1).sum(axis=-1)
    tv_a = np.abs(np.diff(dA, axis=-1)).sum(axis=-1).sum(axis=-1)
    l1_at = trapezoid(np.abs(dAt), h).sum(axis=-1)
    return float((l2_psi + sup_a + tv_a + l1_at).max())


def picard_solve(
    fam: DataFamily,
    grid: GridSpec,
    T_local: float,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> PicardResult:
    """Iterate spinor-solve / potential-quadrature until the slab norm of the
    increment drops below tol.

    T_local must be an integer number of grid steps and small enough for the
    sweep map to contract; five consecutive non-decreasing increments raise
    PicardNonContraction with the measured ratio.
    """
    h = grid.h
    mt = int(round(T_local / h))
    if mt < 1 or abs(mt * h - T_local) > 1e-9 * max(1.0, T_local):
        raise ValueError(f"T_local = {T_local} is not a positive multiple of h = {h}")
    if T_local > grid.t_max + 1e-12:
        raise ValueError("T_local exceeds the grid's t_max")
    grid.ensure_support(fam.cutoff.outer)

    u0, v0 = spinor_datum(fam, grid)
    a, b = potential_data(fam, grid)
    zero_src = np.zeros((mt + 1,) + a.shape)
    A_free, At_free = _dalembert_levels(a, b, zero_src, h, mt)

    inner_tol = min(1e-12, 0.01 * tol)
    A, At = A_free, At_free
    U_free, V_free = free_transport(u0, v0, mt)
    U, V = U_free, V_free

    distances: list[float] = []
    stall = 0
    for _ in range(max_iter):
        U_new, V_new = _linear_dirac(fam, grid, A, U_free, V_free, inner_tol)
        S = np.zeros_like(zero_src)
        for m in range(mt + 1):
            S[m] = np.stack(wave_sources(fam.dim, U_new[m], V_new[m]))
        A_new, At_new = _dalembert_levels(a, b, S, h, mt)
        dist = slab_distance(grid, U_new - U, V_new - V, A_new - A, At_new - At)
        U, V, A, At = U_new, V_new, A_new, At_new
        if distances and dist >= distances[-1] and dist > tol:
            stall += 1
            if stall >= 5:
                raise PicardNonContraction(dist / distances[-1], stall)
        else:
            stall = 0
        distances.append(dist)
        if dist < tol:
            break
    else:
        raise RuntimeError(
            f"picard iteration did not reach tol = {tol:g} within {max_iter} sweeps "
            f"(last increment {distances[-1]:.3g})"
        )
    return PicardResult(
        fam=fam,
        grid=grid,
        times=h * np.arange(mt + 1),
        U=U,
        V=V,
        A=A,
        At=At,
        distances=distances,
    )
