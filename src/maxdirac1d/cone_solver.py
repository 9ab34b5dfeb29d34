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

Every stencil reaches one node to each side per step, so the value at node j
of level m depends only on the data at nodes j - m .. j + m.  `evolve`
therefore marches a static window of nodes, the intersection of two hulls:

  * what the observers read: the hull of the backward cones they declare
    (`reads`) at t = 0, widened by a stencil margin, up to the last level any
    of them reads; or the whole line up to t_max when there are snapshots,
    no observers or an observer that declares no `reads`;
  * the support cone of the datum: its first and last nonzero nodes within
    the datum's reach (below), widened by one node per side per level, one
    more node and the window edge node.

The window edges are zero-filled like the boundary band.  At a support-cone
edge that is exact, since the full-grid run is zero there too, so whole-line
output is bitwise a full-grid run: the series are taken over full-width rows
padded with zeros (a shorter sum would round differently), and snapshots
come back full-width.  At a read-hull edge the values go wrong, but
the error travels inward one node per step, exactly like the cone shrinks:
every node inside a declared cone is bitwise equal to the full-grid run.
Runs with declared reads record no whole-line series, which have no meaning
on such a window, and keep their per-run rows at window width.

The datum is sampled only where it can matter.  The read hull up to level
`last` depends on the data at most last + 1 nodes past its edges, and
`evolve` samples u, v, a and b on the hull widened by last + 2 nodes per
side, clipped to the grid: the whole grid on whole-line runs.
`spinor_datum` and `potential_data` take that node range and sample at the
floats grid.nodes(lo, hi), so every value is the one a full-grid sample
holds.  For a contiguous support the nonzero
nodes found there give the same window as the full-grid samples.  A datum
nonzero only out of that reach cannot touch the read cones within `last`
levels, nor the window edge at a support-cone cut, so leaving it out
changes no value.

Components are cut too.  The paper's datum puts chi f_eps in u[0] only and
has a_2 = b_2 = 0, so in dim 3 the second components u[1], v[1] and A_2
stay +0.0 for the whole run, bitwise (`gamma_algebra` says why).  `evolve`
marches the one row of `spinor_datum` in every dim, and observers see it as
it is; snapshots come back with spinor_components(dim) rows, the second
ones zero in dim 3.

Massless zero-mode runs are free transport.  At M = 0 with zero potential
data the system decouples: v, A_2 .. A_dim and A_0 + A_1 stay zero, and u
is the datum moved one node per level.  `evolve` takes this path when its
input has M == 0, v, a and b zero, and no sign bit set in u or v (the datum
chi f_eps is real and nonnegative, with +0.0 zeros).  At level 0 it copies
u, S_0, S_1 and |u|^2 into rows that hold `steps` zeros (+0.0) followed by
the window; level m is then the slice [steps - m, steps - m + width) of
those rows, which is the level-0 row moved m nodes to the right with +0.0
fill.  u is that slice, S_0 and S_1 are copied from it, and so is |u|^2 on
whole-line runs, whose series read it.  v stays the +0.0 datum, and |v|^2
and S_2 .. S_dim keep their level-0 bits.  Everything else in a level is
the same.  Each of these is bitwise what the general step computes, by
induction over the levels: while v is +0.0, u has no sign bit set, M is a
zero and A_0 + A_1 and A_2 .. A_dim are zeros of either sign,

  * every coupling term of `_transport_step` (i (A_0 +- A_1) u, C v, D u)
    is a product with a zero, so du and dv are zeros; u + (h/2) du = u and
    v + (h/2) dv = +0.0, since adding a zero changes only a -0.0, so P is
    shift(u, 1) and Q is +0.0;
  * den_u and den_v are 1 +- 0i and k2 is a zero, and complex division by
    1 +- 0i (ratio +-0, scale 1) returns a dividend with no sign bit set
    unchanged, so v_new = (+0.0 + zeros) / (1 +- 0i) = +0.0 and
    u_new = (P + zeros) / den_u = P, the level-m slice moved one node;
  * each node's |u|^2, S_0 = |u|^2 + (+0.0) and S_1 = -|u|^2 + (+0.0) come
    from that node's u alone, so those of a shifted row are the shifted
    rows; at a filled node u is +0.0, and |u|^2 = +0.0,
    S_0 = +0.0 + (+0.0) = +0.0 and S_1 = -(+0.0) + (+0.0) = +0.0 are the
    zero fill;
  * |v|^2 = +0.0, and the transverse sources are products with v's +0.0
    parts whose signs are fixed because u has no sign bit set, -0.0 at
    every node: in dim 2, -2 Im(u conj(v)) = -2 (Re u (-0.0) + Im u (+0.0))
    = -2 (+0.0) = -0.0; in dim 3, S_2 = -0.0 by assignment and
    S_3 = -2 (Re(conj(v_0) i u_0) + 0.0) = -0.0;
  * S_1 = -|u|^2 + (+0.0) is -S_0 up to the signs of zeros, and rounding
    is symmetric, so from zero data A_1 is -A_0 up to the signs of zeros
    and A_0 + A_1 stays a zero; the transverse sources are zeros, so
    A_2 .. A_dim stay zeros.

Probe-only massless runs need no march at all (`free_a0`).  On free
transport S_0 at level k is the level-0 row s moved k nodes to the right,
S^k_i = s_{i-k}, with the bits that `wave_sources` writes, and A_0 starts
from zero data.  The diamond's discrete fundamental solution, the level
k + n response at offset d to a unit value at one node of level k + 1
over a zero level k, is

    G^n(d) = 1 when |d| <= n - 1 and n - 1 - d is even, and 0 otherwise,

so the term h^2 S^k of the step to level k + 1 adds h^2 S^k_i G^{m-k}(j - i)
to A^m_j.  From zero data the first step is A^1 = (h^2/2) S^0, the same
kernel with weight 1/2: it adds (h^2/2) s_i G^m(j - i).  Source node
p = i - k therefore reaches (m, j) when j + m - 1 - p = 2q is even with
0 <= q <= m - 1, once from each of the levels k = 1 .. q and with weight
1/2 from level 0:

    A^m_j = h^2 sum_{q=0}^{m-1} (q + 1/2) s_{j+m-1-2q}.

The boundary nodes the diamond holds at zero do not enter: the support
cone of the datum stays clear of them (`GridSpec.ensure_support`), and a
cone base past the grid sums zeros there.  The march adds the same terms
in another order, so the two agree to a round-off that grows with m.
Levels 0 and 1 agree bitwise: A^0 is the zero datum and the empty sum, and
A^1_j = ((h/2) h) s_j = (h h)(s_j/2) since multiplying by 1/2 is exact.
`free_a0` evaluates the sum as an elementwise product and one `np.sum`,
which gives the same bits from run to run, after `_free_transport` has
passed on the datum sampled on the cells' cone bases only.

The grid contract (`GridSpec.ensure_support`) keeps every support clear of a
two-node band at each boundary; a guard aborts the run if the fields there
ever turn nonzero.  It checks the band nodes inside the window, so a datum
whose support cone reaches the band runs on a window that holds them, and
aborts as a full-grid run would.

One level m of `evolve` checks A^m, takes step 3 to level m and evaluates
its sources S^m (step 1), then runs the checks, series, observers and
snapshots, and last takes step 2 to A^{m+1} (the d'Alembert step at
m = 0), which the last level skips: no wave step is taken past t_max.  It
makes each pass over the window once:

  * one density evaluation: `wave_sources` writes |u|^2 and |v|^2 next to
    the sources, and the series `l1_u`, `l1_v` take their square roots;
  * one finiteness check: np.abs(A).max(), nan or inf exactly where A has
    a non-finite value, checks A before the transport step reads it; on
    whole-line runs it is taken per row, np.abs(A).max(axis=-1), and gives
    every `sup_A<mu>`; a sum of S_0 = |u|^2 + |v|^2, the charge trapezoid
    on whole-line runs and a plain sum over the window on the others,
    checks u and v;
  * per-run arrays in place of per-level temporaries: the transport's
    shifted P and Q (`_StepWork`, which also carries A_0 ± A_1 of the level
    just reached to the next step), the diamond's three potential levels,
    which it cycles through, and the sources and densities.

Each of these computes the same floats in the same order as the plain
expressions it replaces, so the outputs are bitwise unchanged.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .gamma_algebra import coupling, spinor_components, spinor_rhs, wave_sources
from .initial_data import DataFamily, GridSpec, potential_data, spinor_datum, write_csv

__all__ = [
    "SolverAbort",
    "ConeRegion",
    "Levels",
    "Trajectory",
    "evolve",
    "free_a0",
    "snapshot_levels",
    "wave_solve",
    "dirac_levels",
    "l2_norm",
    "cone_quadrature",
    "characteristic_integrals",
    "shift",
    "trapezoid",
    "cumulative_trapezoid",
]

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
    (x - t, x + t).
    """

    base_lo: float
    base_hi: float

    def __post_init__(self):
        if not self.base_lo < self.base_hi:
            raise ValueError(f"empty cone base ({self.base_lo}, {self.base_hi})")


# ---------------------------------------------------------------------------
# State containers.
# ---------------------------------------------------------------------------


@dataclass
class LevelState:
    """What observers see at each accepted time level.  The arrays cover the
    marched window, which starts at full-grid node `first` (`evolve`); past a
    support-cone edge of the window every field is exactly zero, and the
    window keeps at least one such zero node at that edge.  u and v hold the
    marched component row.  The arrays are the run's working arrays: they
    hold their values during `on_level` only, so an observer copies what it
    keeps."""

    m: int
    t: float
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    A: np.ndarray
    S: np.ndarray
    first: int


@dataclass
class Levels:
    """Full-width fields at a set of time levels, in level order: `times` and
    u, v (levels, spinor_components(dim), n+1) complex, A (levels, dim+1,
    n+1) real."""

    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    A: np.ndarray


@dataclass
class Trajectory:
    fam: DataFamily
    grid: GridSpec
    times: np.ndarray
    series: dict[str, np.ndarray]
    snapshots: Levels
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Kernels.
# ---------------------------------------------------------------------------


def shift(rows: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """Translate nodal rows by k nodes along the last axis (positive: to the
    right), filling the vacated nodes with zeros.  `out`, when given, is the
    array of rows' shape that receives the result."""
    if out is None:
        out = np.zeros_like(rows)
    elif k > 0:
        out[..., :k] = 0.0
    elif k < 0:
        out[..., k:] = 0.0
    if k == 0:
        out[...] = rows
    elif k > 0:
        out[..., k:] = rows[..., :-k]
    else:
        out[..., :k] = rows[..., -k:]
    return out


class _StepWork:
    """What a run of consecutive `_transport_step` calls keeps from one step
    to the next: the arrays that each step shifts P and Q into, and `sums`,
    the rows (A_0 + A_1, A_0 - A_1) of the last step's new level, which are
    the next step's old level."""

    def __init__(self, shape):
        self.P = np.empty(shape, complex)
        self.Q = np.empty(shape, complex)
        self.sums = None


class _Scaled:
    """The potential rows c * A[k], each computed when it is read: `coupling`
    reads only its transverse rows."""

    def __init__(self, A, c):
        self.A, self.c = A, c

    def __len__(self):
        return len(self.A)

    def __getitem__(self, k):
        return self.c * self.A[k]


def _transport_step(dim, M, h, u, v, A_old, A_new, work, ext_old=None, ext_new=None):
    """One implicit-trapezoid step along the two characteristic families.

    u flows from node j-1 at the old level to node j at the new level, v the
    mirror image.  The implicit couplings at the new node form an
    anti-hermitian system whose Schur complement is scalar (DC = -k2), so the
    solve is closed-form and vectorised over nodes.  `work` is the
    `_StepWork` of a run of steps, each from the level the last one reached.
    """
    half = 0.5 * h
    du, dv = spinor_rhs(dim, A_old, u, v, M, sums=work.sums)
    if ext_old is not None:
        du = du + ext_old[0]
        dv = dv + ext_old[1]
    P = shift(u + half * du, 1, out=work.P)
    Q = shift(v + half * dv, -1, out=work.Q)
    if ext_new is not None:
        P = P + half * ext_new[0]
        Q = Q + half * ext_new[1]

    sums = work.sums = A_new[0] + A_new[1], A_new[0] - A_new[1]
    den_u = 1.0 - 0.5j * h * sums[0]
    den_v = 1.0 - 0.5j * h * sums[1]
    C, D, k2 = coupling(dim, _Scaled(A_new, half), half * M)  # h/2 times the coupling
    # v_new = (Q + D(P / den_u)) / (den_v + k2 / den_u) and
    # u_new = (P + C(v_new)) / den_u, the sums and quotients written in place
    v_new = D(P / den_u)
    np.add(Q, v_new, out=v_new)
    np.divide(v_new, den_v + k2 / den_u, out=v_new)
    u_new = C(v_new)
    np.add(P, u_new, out=u_new)
    np.divide(u_new, den_u, out=u_new)
    return u_new, v_new


def _wave_first_step(a, b, S0, h):
    out = np.zeros_like(a)
    out[..., 1:-1] = (
        0.5 * (a[..., :-2] + a[..., 2:])
        + h * b[..., 1:-1]
        + 0.5 * h * h * S0[..., 1:-1]
    )
    return out


def _wave_diamond(A_curr, A_prev, S, h, out):
    """The diamond step to the next level, into `out`, an array with zero
    boundary nodes: the level before A_prev."""
    inner = out[..., 1:-1]
    np.add(A_curr[..., :-2], A_curr[..., 2:], out=inner)
    inner -= A_prev[..., 1:-1]
    inner += h * h * S[..., 1:-1]
    return out


# ---------------------------------------------------------------------------
# Main evolution.
# ---------------------------------------------------------------------------


STENCIL_MARGIN = 1  # nodes added to each side of a window, for round-off in the cone bases


def _read_hull(grid: GridSpec, snapshot_times, observers) -> tuple[int, int, int, bool]:
    """(first node, end node, last level) that the observers read, and
    whether they read the whole line (see the module docstring).

    The read hull is the hull of the cone bases that the observers declare
    with `reads(grid)`, as (ConeRegion, last level) pairs, widened by
    STENCIL_MARGIN nodes per side and clipped to the grid.  Snapshots, no
    observers or an observer that declares nothing (`cli.A0Oracle`) read
    the whole line, (0, n+1, steps).
    """
    n1 = grid.n + 1
    readers = [obs for obs in observers if hasattr(obs, "reads")]
    whole_line = len(snapshot_times) > 0 or not readers or len(readers) < len(observers)
    first, end, last = n1, 0, 0
    for obs in () if whole_line else readers:
        for region, level in obs.reads(grid):
            first = min(first, math.floor((region.base_lo + grid.L) / grid.h) - STENCIL_MARGIN)
            end = max(end, math.ceil((region.base_hi + grid.L) / grid.h) + STENCIL_MARGIN + 1)
            last = max(last, level)
    if whole_line or first >= end:
        return 0, n1, grid.steps, True
    return max(0, first), min(n1, end), min(last, grid.steps), False


def _support_cut(first: int, end: int, last: int, lo: int, data) -> tuple[int, int]:
    """The read hull [first, end) up to level `last`, cut to the support cone
    of the datum rows `data` (each (..., width)), sampled on the nodes from
    `lo` on: their first and last nonzero nodes widened by last + 2 per
    side.  A hull disjoint from that cone, or rows that are all zero, read
    only zeros: the hull is then marched as declared."""
    width = data[0].shape[-1]
    live = np.zeros(width, dtype=bool)
    for w in data:
        live |= (w != 0).reshape(-1, width).any(axis=0)
    nodes = np.flatnonzero(live)
    if nodes.size:
        s_lo, s_hi = lo + int(nodes[0]) - last - 2, lo + int(nodes[-1]) + last + 3
        if s_lo < end and first < s_hi:
            return max(first, s_lo), min(end, s_hi)
    return first, end


def _free_transport(M, u, v, a, b) -> bool:
    """Whether the run from the datum (u, v, a, b) at mass M is massless free
    transport (module docstring): M == 0, v, a and b zero, and no sign bit
    set in u or v."""
    if M != 0 or v.any() or a.any() or b.any():
        return False
    return not np.signbit(np.stack((u, v)).view(float)).any()


def snapshot_levels(times, grid: GridSpec) -> dict[int, float]:
    """Map each snapshot time to its level.  Raises ValueError for a time
    off the slab or for two times that round to the same level."""
    levels: dict[int, float] = {}
    for ts in times:
        m = int(round(ts / grid.h))
        if m < 0 or m > grid.steps or abs(m * grid.h - ts) > 0.5 * grid.h + 1e-12:
            raise ValueError(f"snapshot_times entry {ts} outside the computed slab")
        if m in levels:
            raise ValueError(f"snapshot_times {levels[m]} and {ts} round to the same level {m}")
        levels[m] = ts
    return levels


def evolve(fam: DataFamily, grid: GridSpec, *, snapshot_times=(), observers=()) -> Trajectory:
    """Run the coupled system from the family datum, one level per pass in
    step order, up to grid.t_max or only to the last level its observers read.

    snapshot_times: times at which to keep full (u, v, A) snapshots;
        h * arange(steps + 1) keeps every level (memory grows as steps x n).
    observers: objects with `on_level(lev, grid)`, which gets the
        `LevelState` of each marched level, and optionally `reads(grid)`.

    The marched window is the read hull of the observers cut to the support
    cone of the datum, which is sampled only on the nodes that hull can
    depend on (`_read_hull`, `_support_cut`, and the module docstring).
    Whole-line runs record the series `charge`, `l1_u`, `l1_v` and
    `sup_A0` .. `sup_A{dim}` per level, taken over full-width rows, and
    return snapshots as full-width arrays (zero outside the window); runs
    with declared reads record no series.  `meta` records the marched
    `window` (first node, end node, last level) and the `node_steps`
    computed.  A massless zero-mode run marches free transport, bitwise the
    same (module docstring).
    """
    grid.ensure_support(fam.cutoff.outer)
    snap_at = {m: k for k, m in enumerate(sorted(snapshot_levels(snapshot_times, grid)))}
    dim, M, h, n1 = fam.dim, fam.M, grid.h, grid.n + 1
    first, end, steps, whole_line = _read_hull(grid, snapshot_times, observers)
    # the datum on the nodes the read cones can depend on (module docstring)
    lo, hi = max(0, first - steps - 2), min(n1, end + steps + 2)
    u, v, a, b = (*spinor_datum(fam, grid, (lo, hi)), *potential_data(fam, grid, (lo, hi)))
    first, end = _support_cut(first, end, steps, lo, (u, v, a, b))
    width = end - first
    x = grid.nodes(first, end)
    u, v, a, b = (w[..., first - lo : end - lo].copy() for w in (u, v, a, b))
    free = _free_transport(M, u, v, a, b)

    times = h * np.arange(steps + 1)
    names = ("charge", "l1_u", "l1_v", *(f"sup_A{mu}" for mu in range(dim + 1))) if whole_line else ()
    series: dict[str, list[float]] = {name: [] for name in names}
    band = np.array([j - first for j in (0, 1, grid.n - 1, grid.n) if first <= j < end], dtype=int)
    nc = spinor_components(dim)
    rows = (nc, nc, dim + 1)  # of u, v, A

    # zero-filled full-width arrays; spinor rows past the marched one stay zero
    snapshots = Levels(times[list(snap_at)], *(np.zeros((len(snap_at), r, n1), w.dtype) for r, w in zip(rows, (u, v, a))))

    # per-run arrays written in place at every level: the sources and the
    # densities |u|^2, |v|^2; on whole-line runs they fill the window of
    # full-width rows, zero outside it, which the series sum
    work = _StepWork(u.shape)
    if whole_line:
        S_rows, dens_rows = np.zeros((dim + 1, n1)), np.zeros((2, n1))
        S, dens = S_rows[:, first:end], dens_rows[:, first:end]
    else:
        S, dens = np.empty((dim + 1, width)), np.empty((2, width))
    A_prev, A = None, a

    for m in range(steps + 1):
        t = m * h
        if whole_line:
            sup_A = np.abs(A).max(axis=-1)  # not finite where A is not
            peak = sup_A.max()
        else:
            peak = np.abs(A).max()
        if not math.isfinite(peak):
            raise SolverAbort(f"non-finite field values at t = {t:.6g}")
        if m == 0:
            wave_sources(dim, u, v, out=S, densities=dens)
            if free:  # level-0 rows of u, S_0, S_1 and |u|^2, after `steps` zeros
                u_rows = np.zeros((1, steps + width), complex)
                u_rows[:, steps:] = u
                free_rows = np.zeros((3, steps + width))
                free_rows[:2, steps:] = S[:2]
                free_rows[2, steps:] = dens[0]
        elif free:  # level m is their slice [steps - m, steps - m + width)
            level = slice(steps - m, steps - m + width)
            u = u_rows[:, level]
            S[:2] = free_rows[:2, level]
            if whole_line:
                dens[0] = free_rows[2, level]
        else:
            u, v = _transport_step(dim, M, h, u, v, A_prev, A, work)
            wave_sources(dim, u, v, out=S, densities=dens)

        q = float(trapezoid(S_rows[0], h)) if whole_line else S[0].sum()  # not finite where u or v is not
        if not math.isfinite(q):
            raise SolverAbort(f"non-finite field values at t = {t:.6g}")
        if band.size and any(np.any(w[:, band] != 0.0) for w in (A, u, v)):
            raise SolverAbort(f"field support reached the boundary band at t = {t:.6g}")
        if whole_line:
            series["charge"].append(q)
            series["l1_u"].append(float(trapezoid(np.sqrt(dens_rows[0]), h)))
            series["l1_v"].append(float(trapezoid(np.sqrt(dens_rows[1]), h)))
            for mu, sup in enumerate(sup_A.tolist()):
                series[f"sup_A{mu}"].append(sup)
        if observers:
            lev = LevelState(m, t, x, u, v, A, S, first)
            for obs in observers:
                obs.on_level(lev, grid)
        k = snap_at.get(m)
        if k is not None:
            for level_rows, w in zip((snapshots.u, snapshots.v, snapshots.A), (u, v, A)):
                level_rows[k, : len(w), first:end] = w
        if m < steps:
            A_next = _wave_first_step(a, b, S, h) if m == 0 else _wave_diamond(A, A_prev, S, h, out=spare)
            # the diamonds cycle through three arrays with zero boundary nodes;
            # the datum a may have nonzero edge nodes, and it is not ours to write
            spare = A_prev if m > 1 else np.zeros_like(a)
            A_prev, A = A, A_next

    return Trajectory(
        fam=fam,
        grid=grid,
        times=times,
        series={k: np.asarray(vs) for k, vs in series.items()},
        snapshots=snapshots,
        meta={"window": (first, end, steps), "node_steps": (end - first) * steps},
    )


def free_a0(fam: DataFamily, grid: GridSpec, cells) -> dict[tuple[int, int], float] | None:
    """A_0 at each (level m, node j) of `cells` in the run from the family
    datum, by the characteristic sum of the module docstring, keyed by cell;
    or None when that run is not massless free transport, as
    `_free_transport` finds it on the datum sampled on the cells' cone bases
    (nodes j - m + 1 .. j + m - 1).  Raises SolverAbort for a non-finite
    value, as `evolve` would."""
    h, n1 = grid.h, grid.n + 1
    lo = min((j - m + 1 for m, j in cells if m > 0), default=0)
    hi = max((j + m for m, j in cells if m > 0), default=lo)
    clip = max(0, lo), min(n1, hi)
    u, v = spinor_datum(fam, grid, clip)
    if not _free_transport(fam.M, u, v, *potential_data(fam, grid, clip)):
        return None
    s = np.zeros(hi - lo)  # nodes past the grid hold zeros, as its boundary does
    s[clip[0] - lo : clip[1] - lo] = wave_sources(fam.dim, u, v)[0]
    out = {}
    for m, j in cells:
        # A^0 is the zero datum; past it, nodes j - m + 1, j - m + 3, ..
        # j + m - 1 are those of q = m - 1 .. 0
        p = j - m + 1 - lo
        value = h * h * np.sum((np.arange(m, 0, -1) - 0.5) * s[p : p + 2 * m - 1 : 2]) if m else 0.0
        if not math.isfinite(value):
            raise SolverAbort(f"non-finite field values at t = {m * h:.6g}")
        out[m, j] = value
    return out


# ---------------------------------------------------------------------------
# Synthetic single-equation solvers (shared kernels, used by the verifiers).
# ---------------------------------------------------------------------------


def wave_solve(grid: GridSpec, f: np.ndarray, g: np.ndarray, source: np.ndarray):
    """Scalar wave solve with the diamond scheme.

    f, g are nodal data of shape (..., n+1), with any leading batch axes, and
    source is the level array (steps+1, ..., n+1) of box W.  Returns
    (times, W, Wt), W and Wt with a leading level axis up to t_max.  Wt is
    g at level 0 and the centered difference after that, so the march takes
    one wave step past t_max.  Boundary nodes are held at zero, so
    comparisons should stay inside the domain of determinacy of the interior.
    """
    h, steps = grid.h, grid.steps
    f, g, source = (np.asarray(w, dtype=float) for w in (f, g, source))
    W = np.zeros((steps + 2,) + f.shape)
    W[0], W[1] = f, _wave_first_step(f, g, source[0], h)
    for m in range(1, steps + 1):
        _wave_diamond(W[m], W[m - 1], source[m], h, out=W[m + 1])
    Wt = np.concatenate([g[None], (W[2:] - W[:-2]) / (2.0 * h)])
    W = W[: steps + 1]
    if not np.isfinite(W).all():
        raise SolverAbort("non-finite wave field")
    return h * np.arange(steps + 1), W, Wt


def dirac_levels(dim: int, M, h: float, u, v, F, steps: int):
    """Yield (u, v) at levels 0..steps of the linear Dirac equation with zero
    potentials, from u, v of shape (..., 1, n+1).  F is None or the pair
    (F_1, F_2) of complex source level arrays (steps+1, ..., 1, n+1), in
    the spinor basis; the induced transport sources are (i F_2, i F_1)."""
    A = np.zeros(dim + 1)  # zero potentials, as scalars: no per-node work
    work = _StepWork(u.shape)

    def ext(m):
        return None if F is None else (1j * F[1][m], 1j * F[0][m])

    yield u, v
    for m in range(1, steps + 1):
        u, v = _transport_step(dim, M, h, u, v, A, A, work, ext(m - 1), ext(m))
        yield u, v


def l2_norm(fields, h: float) -> np.ndarray:
    """L^2 norm of the spinor parts `fields` (each (..., ncomp, n+1)), summed
    over components and parts: one value per leading index."""
    dens = sum((np.abs(w) ** 2).sum(axis=-2) for w in fields)
    return np.sqrt(trapezoid(dens, h))


def characteristic_integrals(G: np.ndarray, h: float, direction: int) -> np.ndarray:
    """Cumulative trapezoid of G along characteristics.

    G has shape (levels, ..., nodes), with any batch axes between the level
    and node axes; the result T satisfies T[0] = 0 and
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


def cone_quadrature(level_values, h: float, vertex_level: int, vertex_node: int):
    """Space-time quadrature over the backward cone from (level, node).

    Trapezoid in space over the exactly node-aligned cross-sections (nodes
    node - k .. node + k, k levels below the vertex), then trapezoid in
    time.  level_values[l] holds the real nodal rows at level l, with any
    leading batch axes (..., nodes); the result has those batch axes.
    Raises ValueError when the cone sticks out of the grid.
    """
    j_lo, j_hi = vertex_node - vertex_level, vertex_node + vertex_level
    if j_lo < 0 or j_hi >= np.shape(level_values[0])[-1]:
        raise ValueError("cone sticks out of the grid")
    sections = [trapezoid(np.asarray(level_values[l])[..., j_lo + l : j_hi - l + 1], h) for l in range(vertex_level + 1)]
    return cumulative_trapezoid(np.stack(sections, axis=-1), h)[..., -1]


# ---------------------------------------------------------------------------
# Export.
# ---------------------------------------------------------------------------


def trajectory_to_csv(traj: Trajectory, directory, config_hash: str):
    """One CSV per snapshot (x, Re/Im spinor components, potentials) plus a
    diagnostics series CSV, headed by config_hash.  Returns the written paths."""
    os.makedirs(directory, exist_ok=True)
    comments = (f"config_hash={config_hash}",)
    paths = []
    snaps = traj.snapshots
    # every snapshot has the same x column: format it once, as write_csv would
    x = list(map(repr, traj.grid.nodes().tolist())) if snaps.times.size else None
    for k, t in enumerate(snaps.times.tolist()):
        path = os.path.join(directory, f"snapshot_{k:03d}.csv")
        names, cols = ["x"], []
        for name, w in (("u", snaps.u[k]), ("v", snaps.v[k])):
            for c in range(w.shape[0]):
                names += [f"Re_{name}{c + 1}", f"Im_{name}{c + 1}"]
                cols += [w[c].real, w[c].imag]
        for mu, A_mu in enumerate(snaps.A[k]):
            names.append(f"A{mu}")
            cols.append(A_mu)
        write_csv(path, names, np.column_stack(cols), (*comments, f"t={t!r}"), lead=x)
        paths.append(path)
    dpath = os.path.join(directory, "diagnostics.csv")
    keys = sorted(traj.series.keys())
    block = np.column_stack([traj.times, *(traj.series[k] for k in keys)])
    write_csv(dpath, ["t", *keys], block, comments)
    paths.append(dpath)
    return paths
