"""Characteristic-grid solver for the reduced Maxwell-Dirac system.

The grid is characteristic-aligned: dt = dx = h, so spinor transport moves
values exactly one node per step and the wave operator factorises over grid
diamonds.  One time step, from level m to m+1:

  1. evaluate the wave sources S^m from the level-m spinor,
  2. advance every potential with the diamond identity
         A^{m+1}_j = A^m_{j-1} + A^m_{j+1} - A^{m-1}_j + h^2 S^m_j
     (exact for quadratic space-time polynomials; the first step uses the
     d'Alembert expansion (a_{j-1}+a_{j+1})/2 + h b_j + (h^2/2) S^0_j),
  3. advance the spinor by the implicit trapezoidal rule along the exact
     characteristics.  The implicit stage couples at most four complex
     unknowns per node through the u-v coupling (C, D) of
     `gamma_algebra.coupling`; because it is anti-hermitian with
     DC = -(A_2^2 + A_3^2 + M^2) I, the solve reduces to a closed-form Schur
     complement, the same in every dim, and the one-step map is a
     near-Cayley (almost unitary) transform, which is what keeps the
     discrete charge drift at O(h^2) with a small constant.

Time derivatives of the potentials are reconstructed by centered differences
(one extra wave step is taken past the last level so it gets a centered
value; level 0 uses the b datum, which is exact).

Every stencil reaches one node to each side per step, so the value at node j
of level m depends only on the data at nodes j - m .. j + m.  A full-grid run
holds the fields at exactly zero in a two-node band at the boundary; the grid
contract (`GridSpec.ensure_support`) proves that supports never reach it, and
a guard aborts the run if they ever do.  When every observer declares the
backward cones it reads (`reads`) and nothing else asks for whole-line output,
`evolve` instead marches a static window of nodes: the hull of those cones at
t = 0, widened by a stencil margin, up to the last level any observer reads.
The window edges are zero-filled like the boundary band, so values there go
wrong, but the error travels inward one node per step, exactly like the cone
shrinks: every node inside a declared cone is bitwise equal to the full-grid
run.  A windowed run keeps the non-finite check and drops the band test and
the whole-line series, which have no meaning on a window.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .gamma_algebra import coupling, spinor_rhs, wave_sources
from .initial_data import DataFamily, GridSpec, potential_data, spinor_datum, write_csv

__all__ = [
    "SolverAbort",
    "ConeRegion",
    "Snapshot",
    "History",
    "Trajectory",
    "EvolveOptions",
    "GaugeMonitor",
    "evolve",
    "wave_solve",
    "dirac_solve",
    "charge",
    "gauge_residual",
    "cone_integral",
    "cone_quadrature",
    "characteristic_integrals",
    "shift",
    "free_transport",
    "trapezoid",
    "cumulative_trapezoid",
]

BALL_BASE = (-1.0, 1.0)


class SolverAbort(RuntimeError):
    """Raised when a run leaves its validity envelope (NaN/Inf, support
    reaching the boundary band)."""


def trapezoid(values: np.ndarray, h: float) -> np.ndarray:
    """Composite trapezoid along the last axis with uniform spacing h."""
    values = np.asarray(values)
    return h * (values.sum(axis=-1) - 0.5 * (values[..., 0] + values[..., -1]))


def cumulative_trapezoid(values, h: float) -> np.ndarray:
    """Running trapezoid along the last axis: out[..., k] integrates samples
    0..k with uniform spacing h, and out[..., 0] = 0."""
    values = np.asarray(values, dtype=float)
    out = np.zeros_like(values)
    out[..., 1:] = np.cumsum(0.5 * h * (values[..., :-1] + values[..., 1:]), axis=-1)
    return out


# ---------------------------------------------------------------------------
# Regions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeRegion:
    """Cone over a base interval: cross-section [lo + s, hi - s] at time s.

    The backward cone with vertex (t, x) is the same object with base
    (x - t, x + t).  Strict inequalities are resolved on nodes with the
    half-open convention: the left edge is included, the right edge excluded.
    """

    base_lo: float
    base_hi: float

    def __post_init__(self):
        if not self.base_lo < self.base_hi:
            raise ValueError(f"empty cone base ({self.base_lo}, {self.base_hi})")

    @property
    def height(self) -> float:
        return 0.5 * (self.base_hi - self.base_lo)

    def cross_section(self, s: float) -> tuple[float, float]:
        return self.base_lo + s, self.base_hi - s

    def node_slice(self, s: float, grid: GridSpec) -> slice | None:
        """Half-open node index range of the cross-section at time s."""
        lo, hi = self.cross_section(s)
        if lo >= hi:
            return None
        j_lo = max(0, math.ceil((lo + grid.L) / grid.h - 1e-9))
        j_hi = min(grid.n + 1, math.ceil((hi + grid.L) / grid.h - 1e-9))
        if j_lo >= j_hi:
            return None
        return slice(j_lo, j_hi)


# ---------------------------------------------------------------------------
# State containers.
# ---------------------------------------------------------------------------


@dataclass
class Snapshot:
    t: float
    u: np.ndarray  # (ncomp, n+1) complex
    v: np.ndarray
    A: np.ndarray  # (dim+1, n+1) real
    At: np.ndarray


@dataclass
class LevelState:
    """What observers see at each accepted time level.  The arrays cover the
    marched nodes, which start at full-grid node `first`."""

    m: int
    t: float
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    A: np.ndarray
    At: np.ndarray
    S: np.ndarray
    h: float
    dim: int
    first: int = 0


@dataclass
class History:
    times: np.ndarray
    u: np.ndarray  # (levels, ncomp, n+1)
    v: np.ndarray
    A: np.ndarray  # (levels, dim+1, n+1)
    At: np.ndarray


@dataclass
class Trajectory:
    fam: DataFamily
    grid: GridSpec
    times: np.ndarray
    series: dict[str, np.ndarray]
    snapshots: list[Snapshot] = field(default_factory=list)
    history: History | None = None
    meta: dict = field(default_factory=dict)

    def level_of(self, t: float) -> int:
        m = int(round(t / self.grid.h))
        if m < 0 or m >= self.times.size or abs(self.times[m] - t) > 0.5 * self.grid.h:
            raise ValueError(f"t = {t} is not a recorded level time")
        return m


@dataclass
class EvolveOptions:
    """What `evolve` records besides the per-level series.

    snapshot_times: times at which to keep full (u, v, A, At) snapshots.
    record_history: keep every level (memory grows with steps x nodes).
    observers: objects with `on_level(lev, grid)` and optionally
        `finalize(traj)` and `reads(grid)` (see `_read_window`).
    datum_override: (u, v) of shape (ncomp, n+1) instead of the family datum.
    """

    snapshot_times: tuple[float, ...] = ()
    record_history: bool = False
    observers: tuple = ()
    datum_override: tuple[np.ndarray, np.ndarray] | None = None


def _gauge_sup(A1, At0, region: ConeRegion, t: float, grid: GridSpec) -> float:
    """sup of |dt A_0 - dx A_1| (centered dx, interior nodes only) over the
    region's cross-section at t; 0 where the cross-section holds no node."""
    sl = region.node_slice(t, grid)
    if sl is None:
        return 0.0
    lo, hi = max(sl.start, 1), min(sl.stop, grid.n)
    if lo >= hi:
        return 0.0
    res = At0[lo:hi] - (A1[lo + 1 : hi + 1] - A1[lo - 1 : hi - 1]) / (2.0 * grid.h)
    return float(np.abs(res).max())


class GaugeMonitor:
    """Records sup |dt A_0 - dx A_1| over a dependence-cone cross-section.

    Pass it in `EvolveOptions.observers` and read `series()` after the run.
    It declares no `reads`, so the run stays on the full grid.
    """

    def __init__(self, base: tuple[float, float] = BALL_BASE):
        self.region = ConeRegion(*base)
        self.values: list[float] = []

    def on_level(self, lev: LevelState, grid: GridSpec) -> None:
        self.values.append(_gauge_sup(lev.A[1], lev.At[0], self.region, lev.t, grid))

    def series(self) -> np.ndarray:
        return np.asarray(self.values)


# ---------------------------------------------------------------------------
# Kernels.
# ---------------------------------------------------------------------------


def shift(rows: np.ndarray, k: int) -> np.ndarray:
    """Translate nodal rows by k nodes along the last axis (positive: to the
    right), filling the vacated nodes with zeros."""
    out = np.zeros_like(rows)
    if k == 0:
        out[...] = rows
    elif k > 0:
        out[..., k:] = rows[..., :-k]
    else:
        out[..., :k] = rows[..., -k:]
    return out


def free_transport(f, g, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Free transport of right-moving data f and left-moving data g through
    levels 0..levels: U[m] is f shifted m nodes right, V[m] is g shifted m
    nodes left, with zero inflow.  The result has a leading level axis."""
    f, g = np.asarray(f), np.asarray(g)
    n1 = f.shape[-1]
    U = np.zeros((levels + 1,) + f.shape, dtype=f.dtype)
    V = np.zeros((levels + 1,) + g.shape, dtype=g.dtype)
    for m in range(levels + 1):
        U[m, ..., m:] = f[..., : n1 - m]
        V[m, ..., : n1 - m] = g[..., m:]
    return U, V


def _transport_step(dim, M, h, u, v, A_old, A_new, ext_old=None, ext_new=None):
    """One implicit-trapezoid step along the two characteristic families.

    u flows from node j-1 at the old level to node j at the new level, v the
    mirror image.  The implicit couplings at the new node form an
    anti-hermitian system whose Schur complement is scalar (DC = -k2), so the
    solve is closed-form and vectorised over nodes.
    """
    du, dv = spinor_rhs(dim, A_old, u, v, M)
    if ext_old is not None:
        du = du + ext_old[0]
        dv = dv + ext_old[1]
    P = shift(u + 0.5 * h * du, 1)
    Q = shift(v + 0.5 * h * dv, -1)
    if ext_new is not None:
        P = P + 0.5 * h * ext_new[0]
        Q = Q + 0.5 * h * ext_new[1]

    den_u = 1.0 - 0.5j * h * (A_new[0] + A_new[1])
    den_v = 1.0 - 0.5j * h * (A_new[0] - A_new[1])
    C, D, k2 = coupling(dim, 0.5 * h * A_new, 0.5 * h * M)  # h/2 times the coupling
    v_new = (Q + D(P / den_u)) / (den_v + k2 / den_u)
    u_new = (P + C(v_new)) / den_u
    return u_new, v_new


def _wave_first_step(a, b, S0, h):
    out = np.zeros_like(a)
    out[..., 1:-1] = (
        0.5 * (a[..., :-2] + a[..., 2:])
        + h * b[..., 1:-1]
        + 0.5 * h * h * S0[..., 1:-1]
    )
    return out


def _wave_diamond(A_curr, A_prev, S, h):
    out = np.zeros_like(A_curr)
    out[..., 1:-1] = (
        A_curr[..., :-2] + A_curr[..., 2:] - A_prev[..., 1:-1] + h * h * S[..., 1:-1]
    )
    return out


def _leapfrog(a, b, sources, h, steps):
    """March potentials with data (a, b) through levels 0..steps.

    `sources(m, A_old, A_new)` returns the level-m source S^m; for m >= 1 it
    is called once A^{m-1} (A_old) and A^m (A_new) are known, which is what a
    spinor transport step to level m reads.  Yields (m, A^m, At^m, S^m).
    Level 1 comes from the d'Alembert first step and later levels from the
    diamond.  At is the centered difference, so every level, the last one
    included, takes the diamond step past it; level 0 yields the b datum.
    """
    S = sources(0, None, a)
    yield 0, a, b, S
    if steps == 0:
        return
    A_prev, A_curr = a, _wave_first_step(a, b, S, h)
    for m in range(1, steps + 1):
        S = sources(m, A_prev, A_curr)
        A_next = _wave_diamond(A_curr, A_prev, S, h)
        yield m, A_curr, (A_next - A_prev) / (2.0 * h), S
        A_prev, A_curr = A_curr, A_next


# ---------------------------------------------------------------------------
# Main evolution.
# ---------------------------------------------------------------------------


STENCIL_MARGIN = 1  # nodes added to each side of a window, for round-off in the cone bases


def _read_window(grid: GridSpec, opts: EvolveOptions) -> tuple[int, int, int] | None:
    """(first node, end node, last level) the observers read, or None.

    Each observer may declare `reads(grid)`: the backward cones it reads, as
    (ConeRegion, last level) pairs.  The window is the hull of their bases,
    widened by STENCIL_MARGIN nodes per side.  Snapshots, history, or an
    observer that declares nothing (such as GaugeMonitor) keep the run on the
    full grid (None).
    """
    if not opts.observers or opts.snapshot_times or opts.record_history:
        return None
    first, end, last = grid.n + 1, 0, 0
    for obs in opts.observers:
        reads = getattr(obs, "reads", None)
        if reads is None:
            return None
        for region, level in reads(grid):
            first = min(first, math.floor((region.base_lo + grid.L) / grid.h) - STENCIL_MARGIN)
            end = max(end, math.ceil((region.base_hi + grid.L) / grid.h) + STENCIL_MARGIN + 1)
            last = max(last, level)
    if first >= end:
        return None
    return max(0, first), min(grid.n + 1, end), min(last, grid.steps)


def evolve(fam: DataFamily, grid: GridSpec, opts: EvolveOptions | None = None) -> Trajectory:
    """Run the coupled system from the family datum (or `datum_override`) up
    to grid.t_max, or only over the window its observers read (see the module
    docstring).

    Full-grid runs record the series `charge`, `l1_u`, `l1_v` and `sup_A0` ..
    `sup_A{dim}` per level; windowed runs record none.  `meta` records the
    marched `window` (first node, end node, last level) and the `node_steps`
    computed.
    """
    opts = opts or EvolveOptions()
    grid.ensure_support(fam.cutoff.outer)
    dim, M, h = fam.dim, fam.M, grid.h
    window = _read_window(grid, opts)
    full = window is None
    first, end, steps = (0, grid.n + 1, grid.steps) if full else window
    x = grid.nodes()

    if opts.datum_override is not None:
        u = np.array(opts.datum_override[0], dtype=complex, copy=True)
        v = np.array(opts.datum_override[1], dtype=complex, copy=True)
    else:
        u, v = spinor_datum(fam, grid)
    a, b = potential_data(fam, grid)
    if not full:
        # slices of the full-grid samples, so every value is the same float
        x, u, v, a, b = (w[..., first:end].copy() for w in (x, u, v, a, b))

    snap_levels: dict[int, float] = {}
    for ts in opts.snapshot_times:
        m = int(round(ts / h))
        if m < 0 or m > steps or abs(m * h - ts) > 0.5 * h + 1e-12:
            raise ValueError(f"snapshot time {ts} outside the computed slab")
        snap_levels[m] = ts

    times = h * np.arange(steps + 1)
    series: dict[str, list[float]] = {}
    if full:
        series.update(charge=[], l1_u=[], l1_v=[])
        for mu in range(dim + 1):
            series[f"sup_A{mu}"] = []
    band = np.r_[0:2, grid.n - 1 : grid.n + 1]
    history: list[tuple[np.ndarray, ...]] = []
    snapshots: list[Snapshot] = []

    def sources(m, A_old, A_new):  # leaves u, v at level m for the loop body
        nonlocal u, v
        if m > 0:
            u, v = _transport_step(dim, M, h, u, v, A_old, A_new)
        return np.stack(wave_sources(dim, u, v))

    for m, A, At, S in _leapfrog(a, b, sources, h, steps):
        t = m * h
        if full:
            q = float(trapezoid(S[0], h))
            if not np.isfinite(q) or not np.isfinite(A).all():
                raise SolverAbort(f"non-finite field values at t = {t:.6g}")
            if np.any(A[:, band] != 0.0) or np.any(u[:, band] != 0.0) or np.any(v[:, band] != 0.0):
                raise SolverAbort(f"field support reached the boundary band at t = {t:.6g}")
            series["charge"].append(q)
            au = np.sqrt((np.abs(u) ** 2).sum(axis=0))
            av = np.sqrt((np.abs(v) ** 2).sum(axis=0))
            series["l1_u"].append(float(trapezoid(au, h)))
            series["l1_v"].append(float(trapezoid(av, h)))
            for mu in range(dim + 1):
                series[f"sup_A{mu}"].append(float(np.abs(A[mu]).max()))
        elif not (np.isfinite(u).all() and np.isfinite(v).all() and np.isfinite(A).all()):
            raise SolverAbort(f"non-finite field values at t = {t:.6g}")
        if opts.observers:
            lev = LevelState(m, t, x, u, v, A, At, S, h, dim, first)
            for obs in opts.observers:
                obs.on_level(lev, grid)
        if m in snap_levels:
            snapshots.append(Snapshot(t, u.copy(), v.copy(), A.copy(), At.copy()))
        if opts.record_history:
            history.append((u.copy(), v.copy(), A.copy(), At.copy()))

    traj = Trajectory(
        fam=fam,
        grid=grid,
        times=times,
        series={k: np.asarray(vs) for k, vs in series.items()},
        snapshots=snapshots,
        meta={"window": (first, end, steps), "node_steps": (end - first) * steps},
    )
    if opts.record_history:
        traj.history = History(times, *(np.stack(col) for col in zip(*history)))
    for obs in opts.observers:
        fin = getattr(obs, "finalize", None)
        if fin is not None:
            fin(traj)
    return traj


# ---------------------------------------------------------------------------
# Synthetic single-equation solvers (shared kernels, used by the verifiers).
# ---------------------------------------------------------------------------


def wave_solve(grid: GridSpec, f: np.ndarray, g: np.ndarray, source=None):
    """Scalar wave solve with the diamond scheme.

    f, g are nodal data; source (optional) is callable(t, x_nodes) -> nodal
    values.  Returns (times, W, Wt) with one row per level up to t_max;
    boundary nodes are held at zero, so comparisons should stay inside the
    domain of determinacy of the interior.
    """
    h = grid.h
    x = grid.nodes()
    steps = grid.steps

    def src(m, *_):
        if source is None:
            return np.zeros_like(x)
        return np.asarray(source(m * h, x), dtype=float)

    W = np.zeros((steps + 1, x.size))
    Wt = np.zeros_like(W)
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    for m, Wm, Wtm, _ in _leapfrog(f, g, src, h, steps):
        W[m], Wt[m] = Wm, Wtm
    if not np.isfinite(W).all():
        raise SolverAbort("non-finite wave field")
    return h * np.arange(steps + 1), W, Wt


def dirac_solve(dim: int, M: float, grid: GridSpec, u0, v0, F=None):
    """Linear Dirac solve (zero potentials) with an external source F.

    u0, v0 have shape (ncomp, n+1).  F is callable(t, x_nodes) -> (F_1, F_2)
    of the same shape, in the spinor basis; the induced transport sources
    are (i F_2, i F_1).  Returns (times, U, V, l2_psi, l2_F) with full level
    history (meant for moderate grids).
    """
    h = grid.h
    x = grid.nodes()
    steps = grid.steps
    u = np.array(u0, dtype=complex, copy=True)
    v = np.array(v0, dtype=complex, copy=True)
    A = np.zeros((dim + 1, x.size))

    def ext(t):
        if F is None:
            return None
        f1, f2 = F(t, x)
        return 1j * np.asarray(f2, dtype=complex), 1j * np.asarray(f1, dtype=complex)

    def l2(fields):
        dens = sum((np.abs(w) ** 2).sum(axis=0) for w in fields)
        return float(np.sqrt(trapezoid(dens, h)))

    def l2F(t):
        return 0.0 if F is None else l2(F(t, x))

    U = np.zeros((steps + 1, u.shape[0], x.size), dtype=complex)
    V = np.zeros_like(U)
    l2_psi = np.zeros(steps + 1)
    l2_F = np.zeros(steps + 1)
    U[0], V[0] = u, v
    l2_psi[0] = l2([u, v])
    l2_F[0] = l2F(0.0)
    for m in range(1, steps + 1):
        u, v = _transport_step(dim, M, h, u, v, A, A, ext((m - 1) * h), ext(m * h))
        U[m], V[m] = u, v
        l2_psi[m] = l2([u, v])
        l2_F[m] = l2F(m * h)
    return h * np.arange(steps + 1), U, V, l2_psi, l2_F


def characteristic_integrals(G: np.ndarray, h: float, direction: int) -> np.ndarray:
    """Cumulative trapezoid of G along characteristics.

    G has shape (levels, ..., nodes); the result T satisfies T[0] = 0 and
    T[m, j] = integral of G along the characteristic reaching (t_m, x_j) from
    t = 0 with slope dx/dt = direction (+1: from the left, -1: from the
    right), by the product trapezoid rule on the exactly aligned samples.
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    G = np.asarray(G)
    T = np.zeros_like(G)
    for m in range(1, G.shape[0]):
        prev = T[m - 1]
        gprev = G[m - 1]
        if direction == +1:
            T[m, ..., 1:] = prev[..., :-1] + 0.5 * h * (gprev[..., :-1] + G[m, ..., 1:])
        else:
            T[m, ..., :-1] = prev[..., 1:] + 0.5 * h * (gprev[..., 1:] + G[m, ..., :-1])
    return T


# ---------------------------------------------------------------------------
# Derived quantities.
# ---------------------------------------------------------------------------


def charge(traj: Trajectory, t: float) -> float:
    """Total charge (squared L^2 norm of the spinor) at a recorded level."""
    if "charge" not in traj.series:
        raise ValueError("the charge series is recorded only by full-grid runs")
    return float(traj.series["charge"][traj.level_of(t)])


def gauge_residual(traj: Trajectory, t: float, region: ConeRegion) -> float:
    """sup over the region's cross-section at t of |dt A_0 - dx A_1|."""
    if traj.history is None:
        raise ValueError("gauge_residual needs a trajectory with record_history=True")
    m = traj.level_of(t)
    return _gauge_sup(traj.history.A[m][1], traj.history.At[m][0], region, t, traj.grid)


def cone_quadrature(level_values, h: float, vertex_level: int, vertex_node: int) -> float:
    """Space-time quadrature over the backward cone from (level, node).

    Trapezoid in space over the exactly node-aligned cross-sections, composite
    trapezoid in time (equivalently, midpoint in time after averaging adjacent
    cross-sections).  level_values[l] is the nodal row at level l.
    """
    total = 0.0
    prev_int = None
    for l in range(vertex_level + 1):
        half = vertex_level - l
        j_lo, j_hi = vertex_node - half, vertex_node + half
        row = np.asarray(level_values[l])
        if j_lo < 0 or j_hi >= row.size:
            raise ValueError("cone sticks out of the grid")
        seg = row[j_lo : j_hi + 1]
        cur = float(trapezoid(seg, h)) if seg.size > 1 else 0.0
        if prev_int is not None:
            total += 0.5 * h * (prev_int + cur)
        prev_int = cur
    return total


def cone_integral(traj: Trajectory, values, region: ConeRegion) -> float:
    """Integrate nodal values over a backward cone contained in the slab.

    `values` is either an array (levels, nodes) or a callable mapping a
    history level index to a nodal row (evaluated lazily).  The cone vertex
    must sit on a grid node and level.
    """
    if traj.history is None and not isinstance(values, np.ndarray):
        raise ValueError("cone_integral needs history or precomputed level values")
    grid = traj.grid
    t_v = region.height
    x_v = 0.5 * (region.base_lo + region.base_hi)
    m = int(round(t_v / grid.h))
    j = int(round((x_v + grid.L) / grid.h))
    if abs(m * grid.h - t_v) > 1e-6 * grid.h or abs(-grid.L + j * grid.h - x_v) > 1e-6 * grid.h:
        raise ValueError("cone vertex must lie on a grid node and level")
    if m >= traj.times.size:
        raise ValueError("cone vertex above the computed slab")
    if isinstance(values, np.ndarray):
        rows = values
    else:
        rows = [values(l) for l in range(m + 1)]
    return cone_quadrature(rows, grid.h, m, j)


# ---------------------------------------------------------------------------
# Export.
# ---------------------------------------------------------------------------


def trajectory_to_csv(traj: Trajectory, directory, config_hash: str | None = None):
    """One CSV per snapshot (x, Re/Im spinor components, potentials) plus a
    diagnostics series CSV.  Returns the list of written paths."""
    os.makedirs(directory, exist_ok=True)
    comments = () if config_hash is None else (f"config_hash={config_hash}",)
    paths = []
    x = traj.grid.nodes()
    for k, snap in enumerate(traj.snapshots):
        path = os.path.join(directory, f"snapshot_{k:03d}.csv")
        cols: list[tuple[str, np.ndarray]] = [("x", x)]
        for name, w in (("u", snap.u), ("v", snap.v)):
            for c in range(w.shape[0]):
                cols.append((f"Re_{name}{c + 1}", w[c].real))
                cols.append((f"Im_{name}{c + 1}", w[c].imag))
        for mu in range(snap.A.shape[0]):
            cols.append((f"A{mu}", snap.A[mu]))
        rows = zip(*(vals for _, vals in cols))
        write_csv(path, [name for name, _ in cols], rows, (*comments, f"t={snap.t!r}"))
        paths.append(path)
    dpath = os.path.join(directory, "diagnostics.csv")
    keys = sorted(traj.series.keys())
    rows = ([t, *(traj.series[k][m] for k in keys)] for m, t in enumerate(traj.times))
    write_csv(dpath, ["t", *keys], rows, comments)
    paths.append(dpath)
    return paths
