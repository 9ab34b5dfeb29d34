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
import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .gamma_algebra import _POTENTIAL_ROWS, spinor_components

__all__ = [
    "CutoffSpec",
    "PotentialMode",
    "DataFamily",
    "GridError",
    "GridSpec",
    "chi",
    "f_eps",
    "spinor_datum",
    "potential_data",
    "sample_midpoints",
    "lp_norm",
    "hs_norm",
    "write_csv",
    "write_json",
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
        if self.eps > 0 and self.eps * self.eps < np.finfo(float).tiny:  # a subnormal eps^2 has lost digits
            raise ValueError(f"eps = {self.eps!r} is so small that eps^2 underflows to a subnormal float or 0")
        if self.M < 0:
            raise ValueError(f"mass must be nonnegative, got {self.M}")
        mode = PotentialMode(self.potential_mode)
        object.__setattr__(self, "potential_mode", mode)
        if mode is PotentialMode.CONSTRAINED and self.eps == 0.0:
            raise ValueError("constrained potential data needs eps > 0")


class GridError(ValueError):
    """A grid that cannot be built or run; `key` is the GridSpec field the
    message is about (L, n or t_max)."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class GridSpec:
    """Uniform characteristic grid on [-L, L] with h = dt = 2L/n.

    n must be even so the node x = 0 exists; h must be a finite positive
    float; t_max must be an integer number of steps.  Runs additionally
    require L >= cutoff.outer + t_max + 2h so that supports never reach the
    boundary (checked via ensure_support).  Errors are GridErrors.
    """

    L: float
    n: int
    t_max: float

    def __post_init__(self):
        if self.L <= 0:
            raise GridError("L", f"half-width L must be positive, got {self.L}")
        if self.n < 4 or self.n % 2 != 0:
            raise GridError("n", f"n must be an even integer >= 4, got {self.n}")
        if self.t_max < 0:
            raise GridError("t_max", f"t_max must be nonnegative, got {self.t_max}")
        if not 0.0 < self.h < math.inf:
            raise GridError("L", f"h = 2L/n = {self.h!r} is not a finite positive step (L = {self.L!r}, n = {self.n})")
        if not self.t_max / self.h < math.inf:
            raise GridError("t_max", f"t_max = {self.t_max!r} is too many steps of h = {self.h!r} to count")
        steps = round(self.t_max / self.h)
        if abs(steps * self.h - self.t_max) > 1e-9 * max(1.0, self.t_max):
            raise GridError("t_max", f"t_max = {self.t_max} is not an integer number of steps of h = {self.h}")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def steps(self) -> int:
        return round(self.t_max / self.h)

    def nodes(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """The nodes lo .. hi-1 (hi defaults to n+1), 0 <= lo <= hi <= n+1,
        bitwise np.linspace(-L, L, n + 1)[lo:hi]: node j is j h - L, rounded
        as linspace rounds it, and node n is L."""
        hi = self.n + 1 if hi is None else hi
        x = np.arange(lo, hi, dtype=float)
        x *= self.h
        x -= self.L
        if hi == self.n + 1 and hi > lo:
            x[-1] = self.L
        return x

    def midpoints(self) -> np.ndarray:
        return self.nodes()[:-1] + 0.5 * self.h

    def ensure_support(self, outer: float) -> None:
        if self.L < outer + self.t_max + 2.0 * self.h:
            need = outer + self.t_max + 2 * self.h
            raise GridError("L", f"grid too small: need L >= {need:.6g} (outer + t_max + 2h), got L = {self.L}")


def sample_midpoints(func, grid: GridSpec) -> np.ndarray:
    """Sample on cell midpoints; avoids the node x = 0, which lets the
    singular eps = 0 profile be sampled for difference-norm studies."""
    return np.asarray(func(grid.midpoints()))


def spinor_datum(fam: DataFamily, grid: GridSpec, nodes: tuple[int, int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nodal samples of the spinor datum: u_1 = chi * f_eps, all else 0.

    Needs eps > 0; the node x = 0 carries the exact value eps^(-1/2).
    Returns (u, v) as node rows of shape (n+1,): the first component, the
    one that `cone_solver.evolve` marches in every dim (the second
    components of dim 3 are zero and stay so; see `gamma_algebra`).
    `nodes`, when given, is a half-open node range (lo, hi): the rows then
    hold those nodes only, sampled at the floats grid.nodes(lo, hi), so
    they are bitwise the slice [..., lo:hi] of the full rows.
    """
    if fam.eps <= 0:
        raise ValueError("spinor datum needs eps > 0; the eps = 0 profile is norms-only")
    grid.ensure_support(fam.cutoff.outer)
    lo, hi = nodes or (0, grid.n + 1)
    x = grid.nodes(lo, hi)
    u = (chi(x, fam.cutoff) * f_eps(x, fam.eps)).astype(complex)
    return u, np.zeros_like(u)


def potential_data(fam: DataFamily, grid: GridSpec, nodes: tuple[int, int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nodal potential data (a, b) of the marched potential rows, (A_0, A_1)
    in dim 1 and (A_0, A_1, A_T) in dims 2 and 3 (`gamma_algebra`), with
    shape (rows, n+1) each, or on the node range `nodes` as `spinor_datum`
    takes it.  Dim 3 leaves out a_2 = b_2 = 0: A_2 is not marched.

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
    lo, hi = nodes or (0, grid.n + 1)
    a = np.zeros((len(_POTENTIAL_ROWS[fam.dim]), hi - lo))
    b = np.zeros_like(a)
    if fam.potential_mode is PotentialMode.CONSTRAINED:
        x = grid.nodes(lo, hi)
        e = fam.eps
        c = chi(x, fam.cutoff)
        on = c > 0  # off the support, 0 * log(...) < 0 would leave -0.0
        # for x < 0 the sum x + sqrt(eps^2 + x^2) cancels; there it is eps^2 / (sqrt(eps^2 + x^2) - x)
        left, on = on & (x < 0), on & (x >= 0)
        b[1, on] = c[on] * np.log(x[on] + np.sqrt(e * e + x[on] * x[on]))
        b[1, left] = c[left] * np.log(e * e / (np.sqrt(e * e + x[left] * x[left]) - x[left]))
    return a, b


# ---------------------------------------------------------------------------
# Discrete norms.
# ---------------------------------------------------------------------------


def lp_norm(values, p: float, grid: GridSpec) -> float:
    """L^p norm of midpoint samples by the rectangle rule, p >= 1."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    vals = np.asarray(values)
    if vals.shape[-1] != grid.n:
        raise ValueError("midpoint samples must have n entries")
    vals = np.abs(vals) ** p
    return float((grid.h * vals.sum(axis=-1)) ** (1.0 / p))


def hs_norm(values, s: float, grid: GridSpec) -> float:
    """Negative-order Sobolev norm of midpoint samples by periodization of
    [-L, L].

    Uses the DFT of the n samples with frequencies xi_k = pi k / L and
    weight (1 + xi^2)^s.  Only s < 0 is meaningful for the singular
    profiles handled here; s >= 0 is rejected.
    """
    if s >= 0:
        raise ValueError(f"hs_norm is restricted to s < 0, got s = {s}")
    vals = np.asarray(values, dtype=complex)
    if vals.shape[-1] != grid.n:
        raise ValueError("midpoint samples must have n entries")
    coeff = np.fft.fft(vals)
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.h)
    weight = (1.0 + xi * xi) ** s
    total = (grid.h**2 / (2.0 * grid.L)) * np.sum(weight * np.abs(coeff) ** 2)
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# Export.
# ---------------------------------------------------------------------------


CSV_CHUNK_ROWS = 512  # rows formatted at a time: the fastest measured, and little memory


def write_csv(path, header, rows, comments=(), lead: list[str] | None = None) -> None:
    """Write one CSV file: a `# ` line per comment, then the header row
    (skipped when None), then the rows.

    `rows` is a (rows, cols) float block, or an iterable of equal-length
    rows that numpy stacks into one.  Every cell is written as
    repr(float(cell)), which round-trips exactly, with the csv module's
    \\r\\n line ends; the cells are converted CSV_CHUNK_ROWS rows at a time.
    `lead`, when given, is a first column already formatted that way, so
    that files sharing that column format it once; `rows` then holds the
    other columns.

    Field data is mostly +0.0 outside the support cone, so the cells are
    formatted a column at a time: every +0.0 cell shares one "0.0" string,
    and repr runs on the other cells only (-0.0, nan and inf among them)."""
    block = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows), dtype=float)
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        if header is not None:
            csv.writer(fh).writerow(header)
        for start in range(0, len(block), CSV_CHUNK_ROWS):
            chunk = block[start : start + CSV_CHUNK_ROWS]
            columns = [] if lead is None else [lead[start : start + CSV_CHUNK_ROWS]]
            for values in chunk.T:
                text = ["0.0"] * len(values)
                nonzero = np.flatnonzero(values.view(np.uint64))  # the bits of +0.0 are all zero
                for i, cell in zip(nonzero.tolist(), map(repr, values[nonzero].tolist())):
                    text[i] = cell
                columns.append(text)
            lines = zip(*columns) if columns else [()] * len(chunk)
            fh.write("\r\n".join(map(",".join, lines)) + "\r\n")


def write_json(path, payload) -> None:
    """Write one JSON file: sorted keys, two-space indent, final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
