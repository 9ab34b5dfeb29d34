"""Singular charge-class data, its mollified family, and discrete norms.

The profile of interest is f(x) = |x|^(-1/2): square integrable near the
origin but not square integrable in any better Sobolev sense that matters
here.  The mollified family f_eps(x) = (eps^2 + x^2)^(-1/4) converges to f in
L^1_loc and in H^s for every s < 0 while its L^2 norm diverges like
2 |log eps|^(1/2) squared.  The spinor datum places chi * f_eps in the first
component of the right-mover u and leaves v = 0; potential data come in a
"zero" flavour and a "constrained" flavour whose b_1 solves the Gauss law
-d/dx b_1 = |psi_0|^2 on the inner ball, which is what propagates the Lorenz
gauge relation inside the light cone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .gamma_algebra import spinor_components

__all__ = [
    "CutoffSpec",
    "PotentialMode",
    "DataFamily",
    "GridSpec",
    "chi",
    "f_eps",
    "spinor_datum",
    "potential_data",
    "sample_midpoints",
    "lp_norm",
    "hs_norm",
    "write_csv",
]


@dataclass(frozen=True)
class CutoffSpec:
    """Radii of the smooth plateau cutoff: identically 1 inside `inner`,
    identically 0 outside `outer`."""

    inner: float = 1.0
    outer: float = 2.0

    def __post_init__(self):
        if not (0.0 < self.inner < self.outer):
            raise ValueError(f"need 0 < inner < outer, got {self.inner}, {self.outer}")


def _transition(r: np.ndarray) -> np.ndarray:
    """s(r) = exp(-1/r) for r > 0, else 0; the standard C-infinity glue."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    pos = r > 0
    out[pos] = np.exp(-1.0 / r[pos])
    return out


def chi(x, cutoff: CutoffSpec = CutoffSpec()):
    """Even C-infinity cutoff, 1 on [-inner, inner], 0 outside [-outer, outer].

    chi(x) = s(outer - |x|) / (s(outer - |x|) + s(|x| - inner)); at the
    midpoint of the transition the two terms balance, so chi = 1/2 there.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    ax = np.abs(np.atleast_1d(x))
    s_out = _transition(cutoff.outer - ax)
    s_in = _transition(ax - cutoff.inner)
    out = np.zeros_like(ax)
    inside = ax <= cutoff.inner
    out[inside] = 1.0
    mid = (~inside) & (ax < cutoff.outer)
    out[mid] = s_out[mid] / (s_out[mid] + s_in[mid])
    return float(out[0]) if scalar else out


def f_eps(x, eps: float):
    """Mollified inverse square-root profile (eps^2 + x^2)^(-1/4).

    eps = 0 returns the singular profile |x|^(-1/2) and rejects x = 0.
    """
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    ax = np.atleast_1d(x)
    if eps == 0.0:
        if np.any(ax == 0.0):
            raise ValueError("singular profile (eps = 0) is undefined at x = 0")
        out = np.abs(ax) ** -0.5
    else:
        out = (eps * eps + ax * ax) ** -0.25
    return float(out[0]) if scalar else out


class PotentialMode(str, Enum):
    ZERO = "zero"
    CONSTRAINED = "constrained"


@dataclass(frozen=True)
class DataFamily:
    """One member of the mollified data family: dimension, smoothing parameter,
    mass, and the potential-data flavour."""

    dim: int
    eps: float
    M: float = 0.0
    potential_mode: PotentialMode = PotentialMode.ZERO
    cutoff: CutoffSpec = field(default_factory=CutoffSpec)

    def __post_init__(self):
        spinor_components(self.dim)  # validates dim
        if self.eps < 0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")
        if self.M < 0:
            raise ValueError(f"mass must be nonnegative, got {self.M}")
        mode = PotentialMode(self.potential_mode)
        object.__setattr__(self, "potential_mode", mode)
        if mode is PotentialMode.CONSTRAINED and self.eps == 0.0:
            raise ValueError("constrained potential data needs eps > 0")


@dataclass(frozen=True)
class GridSpec:
    """Uniform characteristic grid on [-L, L] with h = dt = 2L/n.

    n must be even so the node x = 0 exists; t_max must be an integer number
    of steps.  Runs additionally require L >= cutoff.outer + t_max + 2h so
    that supports never reach the boundary (checked via ensure_support).
    """

    L: float
    n: int
    t_max: float

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError(f"half-width L must be positive, got {self.L}")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"n must be an even integer >= 4, got {self.n}")
        if self.t_max < 0:
            raise ValueError(f"t_max must be nonnegative, got {self.t_max}")
        steps = round(self.t_max / self.h)
        if abs(steps * self.h - self.t_max) > 1e-9 * max(1.0, self.t_max):
            raise ValueError(
                f"t_max = {self.t_max} is not an integer number of steps of h = {self.h}"
            )

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def steps(self) -> int:
        return round(self.t_max / self.h)

    def nodes(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.n + 1)

    def midpoints(self) -> np.ndarray:
        return self.nodes()[:-1] + 0.5 * self.h

    def ensure_support(self, outer: float) -> None:
        if self.L < outer + self.t_max + 2.0 * self.h:
            raise ValueError(
                f"grid too small: need L >= {outer + self.t_max + 2 * self.h:.6g} "
                f"(outer + t_max + 2h), got L = {self.L}"
            )


def sample_midpoints(func, grid: GridSpec) -> np.ndarray:
    """Sample on cell midpoints; avoids the node x = 0, which lets the
    singular eps = 0 profile be sampled for difference-norm studies."""
    return np.asarray(func(grid.midpoints()))


def spinor_datum(fam: DataFamily, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodal samples of the spinor datum: u_1 = chi * f_eps, all else 0.

    Needs eps > 0; the node x = 0 carries the exact value eps^(-1/2).
    Returns (u, v) with shape (ncomp, n+1) each.
    """
    if fam.eps <= 0:
        raise ValueError("spinor datum needs eps > 0; the eps = 0 profile is norms-only")
    grid.ensure_support(fam.cutoff.outer)
    x = grid.nodes()
    c = spinor_components(fam.dim)
    u = np.zeros((c, x.size), dtype=complex)
    v = np.zeros((c, x.size), dtype=complex)
    u[0] = chi(x, fam.cutoff) * f_eps(x, fam.eps)
    return u, v


def potential_data(fam: DataFamily, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodal potential data (a, b) with shape (dim+1, n+1) each.

    Zero mode: all zero.  Constrained mode: all zero except
    b_1(x) = chi(x) log(x + sqrt(eps^2 + x^2)), which satisfies the charge
    constraint d/dx b_1 = (eps^2 + x^2)^(-1/2) = |psi_0|^2 on the inner
    ball.  The sign is forced by the evolution equations: the residual
    R = dA_0/dt - dA_1/dx obeys the homogeneous wave equation (by charge
    continuity) with data R(0) = b_0 - a_1' and R_t(0) = a_0'' + |psi_0|^2
    - b_1', so only b_1' = +|psi_0|^2 propagates the gauge condition in the
    cone over the ball.
    """
    grid.ensure_support(fam.cutoff.outer)
    x = grid.nodes()
    a = np.zeros((fam.dim + 1, x.size))
    b = np.zeros((fam.dim + 1, x.size))
    if fam.potential_mode is PotentialMode.CONSTRAINED:
        e = fam.eps
        b[1] = chi(x, fam.cutoff) * np.log(x + np.sqrt(e * e + x * x))
    return a, b


# ---------------------------------------------------------------------------
# Discrete norms.
# ---------------------------------------------------------------------------


def lp_norm(values, p: float, grid: GridSpec, staggered: bool = False) -> float:
    """L^p norm of nodal (trapezoid) or midpoint (rectangle) samples, p >= 1."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    vals = np.abs(np.asarray(values)) ** p
    h = grid.h
    if staggered:
        total = h * vals.sum(axis=-1)
    else:
        total = h * (vals.sum(axis=-1) - 0.5 * (vals[..., 0] + vals[..., -1]))
    return float(total ** (1.0 / p))


def hs_norm(values, s: float, grid: GridSpec, staggered: bool = False) -> float:
    """Negative-order Sobolev norm by periodization of [-L, L].

    Uses the DFT of the n independent samples with frequencies xi_k = pi k / L
    and weight (1 + xi^2)^s.  Only s < 0 is meaningful for the singular
    profiles handled here; s >= 0 is rejected.
    """
    if s >= 0:
        raise ValueError(f"hs_norm is restricted to s < 0, got s = {s}")
    vals = np.asarray(values, dtype=complex)
    if not staggered:
        if vals.shape[-1] != grid.n + 1:
            raise ValueError("nodal samples must have n+1 entries")
        vals = vals[..., : grid.n]
    elif vals.shape[-1] != grid.n:
        raise ValueError("midpoint samples must have n entries")
    coeff = np.fft.fft(vals)
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.h)
    weight = (1.0 + xi * xi) ** s
    total = (grid.h**2 / (2.0 * grid.L)) * np.sum(weight * np.abs(coeff) ** 2)
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# Export.
# ---------------------------------------------------------------------------


def write_csv(path, header, rows, comments=()) -> None:
    """Write one CSV file: a `# ` line per comment, then the header row
    (skipped when None), then the rows.  Every cell is written as
    repr(float(cell)), which round-trips exactly."""
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows([repr(float(c)) for c in row] for row in rows)
