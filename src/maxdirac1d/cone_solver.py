"""Characteristic-grid solver for the reduced Maxwell-Dirac system.

The grid is characteristic-aligned: dt = dx = h, so spinor transport moves
values exactly one node per step and the wave operator factorises over grid
diamonds.  One time step, from level m to m+1:

  1. evaluate the wave sources S^m from the level-m spinor,
  2. advance every marched potential row with the diamond identity
         A^{m+1}_j = A^m_{j-1} + A^m_{j+1} - A^{m-1}_j + h^2 S^m_j
     (exact for quadratic space-time polynomials; the first step uses the
     d'Alembert expansion (a_{j-1}+a_{j+1})/2 + h b_j + (h^2/2) S^0_j),
  3. advance the spinor by the implicit trapezoidal rule along the exact
     characteristics.  The implicit stage couples at most four complex
     unknowns per node through the u-v coupling (C, D) of
     `gamma_algebra.coupling`; because it is anti-hermitian with
     DC = -(A_T^2 + M^2) I, A_T the transverse potential row, the solve
     reduces to a closed-form Schur complement, the same in every dim, and
     the one-step map is a near-Cayley (almost unitary) transform, which is
     what keeps the discrete charge drift at O(h^2) with a small constant.

Every stencil reaches one node to each side per step, so the value at node j
of level m depends only on the data at nodes j - m .. j + m.  `evolve`
therefore marches a static window of nodes, the intersection of two hulls:

  * what the observers read: the hull of the node triples they declare
    (`reads`), each the first and end node of the base at t = 0 of the
    backward cones the observer reads and the last level it reads; or the
    whole line up to t_max when there are no observers or an observer that
    declares no `reads`, as `Snapshots` and `Series` do;
  * the support cone of the datum: its first and last nonzero nodes within
    the datum's reach (below), widened by one node per side per level and
    the window edge node.

The window edges are zero-filled like the boundary band.  At a support-cone
edge that is exact, since the full-grid run is zero there too, so whole-line
output is bitwise a full-grid run: `Series` takes its sums over full-width
rows padded with zeros (a shorter sum would round differently), and
`Snapshots` pads its rows the same way.  At a read-hull edge the values go
wrong, but the error travels inward one node per step, exactly like the
cone shrinks: node j of level m is bitwise the full-grid run's when
first + m <= j <= end - 1 - m, so every node inside a declared cone is.

The datum is sampled only where it can matter.  The read hull up to level
`last` depends on the data at most last nodes past its edges, and `evolve`
samples u, v, a and b on the hull widened by last nodes per side, clipped
to the grid: the whole grid on whole-line runs.  `spinor_datum` and
`potential_data` take that node range and sample at the floats
grid.nodes(lo, hi), so every value is the one a full-grid sample holds.
A datum nonzero only out of that reach cannot touch the read cones within
`last` levels, so leaving it out changes no value there; the window may
then differ from a full sample's by nodes where the full-grid run is zero.

Components are cut too.  The paper's datum puts chi f_eps in u[0] only and
has a_2 = b_2 = 0, so in dim 3 the second components u[1], v[1] and A_2
stay +0.0 for the whole run, bitwise (`gamma_algebra` says why).  `evolve`
marches the one row of `spinor_datum` and the potential rows of
`potential_data` in every dim, (A_0, A_1, A_3) in dim 3, and observers see
them as they are.  The physical rows appear only where a run is written
out: `Snapshots` keeps spinor_components(dim) rows, the marched one in
component 0, and dim + 1 potential rows, and `Series` holds sup_A0 ..
sup_A{dim}; in dim 3 the second spinor components and A_2 are +0.0 rows
and sup_A2 is 0.0 at every level.

Massless zero-mode runs are free transport.  At M = 0 with zero potential
data the system decouples: v, A_T and A_0 + A_1 stay zero, and u
is the datum moved one node per level.  `evolve` takes this path when its
input has M == 0, v, a and b zero, and no sign bit set in u or v (the datum
chi f_eps is real and nonnegative, with +0.0 zeros).  Level m takes the
level-0 u, S_0, S_1 and |u|^2 moved m nodes to the right, with +0.0 in the
vacated nodes and the values that leave the window dropped, as m `shift`s
would give them: views of those rows padded with `steps` +0.0 nodes on the
left, so no level copies a row.  v stays the +0.0 datum, and |v|^2 and S_T,
constant rows (below), are padded with their own value and keep their
level-0 bits.  Everything else in a level is the same.  Each of these is
bitwise what the general step computes, by induction over the levels: while
v is +0.0, u has no sign bit set, M is a zero and A_0 + A_1 and A_T are
zeros of either sign,

  * every coupling term of `_transport_step` (i (A_0 +- A_1) u, C v, D u)
    is a product with a zero, so du and dv are zeros; u + (h/2) du = u and
    v + (h/2) dv = +0.0, since adding a zero changes only a -0.0, so P is
    shift(u, 1) and Q is +0.0;
  * den_u and den_v are 1 +- 0i and k2 is a zero, and complex division by
    1 +- 0i (ratio +-0, scale 1) returns a dividend with no sign bit set
    unchanged, so v_new = (+0.0 + zeros) / (1 +- 0i) = +0.0 and
    u_new = (P + zeros) / den_u = P, the last level's u moved one node;
  * each node's |u|^2, S_0 = |u|^2 + (+0.0) and S_1 = -|u|^2 + (+0.0) come
    from that node's u alone, so those of a shifted row are the shifted
    rows; at the filled node u is +0.0, and |u|^2 = +0.0,
    S_0 = +0.0 + (+0.0) = +0.0 and S_1 = -(+0.0) + (+0.0) = +0.0 are the
    zero fill;
  * |v|^2 = +0.0, and the transverse source is a product with v's +0.0
    parts whose signs are fixed because u has no sign bit set, -0.0 at
    every node: in dim 2, -2 Im(u conj(v)) = -2 (Re u (-0.0) + Im u (+0.0))
    = -2 (+0.0) = -0.0; in dim 3, S_3 = -2 (Re(conj(v_0) i u_0) + 0.0)
    = -0.0;
  * S_1 = -|u|^2 + (+0.0) is -S_0 up to the signs of zeros, and rounding
    is symmetric, so from zero data A_1 is -A_0 up to the signs of zeros
    and A_0 + A_1 stays a zero; the transverse source is a zero, so A_T
    stays a zero.

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
its sources S^m (step 1), then runs the checks and observers, and last
takes step 2 to A^{m+1} (the d'Alembert step at m = 0), which the last
level skips: no wave step is taken past t_max.  It makes each pass over
the window once:

  * one density evaluation: `wave_sources` writes |u|^2 and |v|^2 next to
    the sources, which observers see as `LevelState.dens`;
  * one finiteness check: np.abs(A).max(), nan or inf exactly where A has
    a non-finite value, checks A before the transport step reads it, and
    the sum of S_0 = |u|^2 + |v|^2 over the window checks u and v;
  * per-run arrays in place of per-level temporaries: the transport's
    shifted P and Q (`_StepWork`, which also carries A_0 ± A_1 of the level
    just reached to the next step), the diamond's three potential levels,
    which it cycles through, and the sources and densities;
  * no row held past its last read: the datum's b goes after the first wave
    step and a after the level-1 diamond, and the transport sources after
    P and Q are formed.

Each of these computes the same floats in the same order as the plain
expression, so the outputs keep their bits.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .gamma_algebra import _POTENTIAL_ROWS, coupling, spinor_components, spinor_rhs, wave_sources
from .initial_data import DataFamily, GridSpec, potential_data, spinor_datum, write_csv

__all__ = [
    "SolverAbort",
    "Series",
    "Snapshots",
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
# State containers.
# ---------------------------------------------------------------------------


@dataclass
class LevelState:
    """What observers see at each accepted time level.  The arrays cover the
    marched window, which starts at full-grid node `first` (`evolve`); past a
    support-cone edge of the window every field is exactly zero, and the
    window keeps at least one such zero node at that edge.  u and v are the
    node rows of the marched spinor component, A and S the marched
    potential rows (`gamma_algebra`), and dens the rows |u|^2 and |v|^2
    that S_0 and S_1 are made of.  The arrays are the run's working arrays:
    they hold their values during `on_level` only, so an observer copies
    what it keeps."""

    m: int
    t: float
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    A: np.ndarray
    S: np.ndarray
    dens: np.ndarray
    first: int


@dataclass
class Trajectory:
    fam: DataFamily
    grid: GridSpec
    times: np.ndarray
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Kernels.
# ---------------------------------------------------------------------------


def shift(rows: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """Translate nodal rows by k nodes along the last axis (positive: to the
    right), filling the vacated nodes with zeros.  `out`, when given, is the
    array of rows' shape that receives the result, and may be rows itself."""
    if out is None:
        out = np.zeros_like(rows)
    if k == 0:
        out[...] = rows
    elif k > 0:
        out[..., k:] = rows[..., :-k]
        out[..., :k] = 0.0
    else:
        out[..., :k] = rows[..., -k:]
        out[..., k:] = 0.0
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
    del du, dv
    if ext_new is not None:
        P = P + half * ext_new[0]
        Q = Q + half * ext_new[1]

    sums = work.sums = A_new[0] + A_new[1], A_new[0] - A_new[1]
    den_u = 1.0 - 0.5j * h * sums[0]
    den_v = 1.0 - 0.5j * h * sums[1]
    C, D, k2 = coupling(dim, (0.0, 0.0, *(half * A_new[2:])), half * M)  # h/2 times the coupling
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


def _read_hull(grid: GridSpec, observers) -> tuple[int, int, int]:
    """(first node, end node, last level) that the observers read.

    The read hull is the hull of the (first node, end node, last level)
    triples that the observers declare with `reads(grid)`, end excluded,
    clipped to the grid.  No observers, an observer that declares nothing
    (`Snapshots`, `Series`, `cli.A0Oracle`) or a hull with no node on the
    grid read the whole line, (0, n+1, steps).
    """
    n1 = grid.n + 1
    readers = [obs for obs in observers if hasattr(obs, "reads")]
    if not readers or len(readers) < len(observers):
        return 0, n1, grid.steps
    firsts, ends, lasts = zip(*(obs.reads(grid) for obs in readers))
    first, end = max(0, min(firsts)), min(n1, max(ends))
    if first >= end:
        return 0, n1, grid.steps
    return first, end, min(max(lasts), grid.steps)


def _support_cut(first: int, end: int, last: int, lo: int, data) -> tuple[int, int]:
    """The read hull [first, end) up to level `last`, cut to the support cone
    of the datum rows `data` (each (..., width)), sampled on the nodes from
    `lo` on: their first and last nonzero nodes widened by last + 1 per
    side, the last of which is the window edge node, zero up to level
    `last`.  A hull disjoint from that cone, or rows that are all zero, read
    only zeros: the hull is then marched as declared."""
    width = data[0].shape[-1]
    live = np.zeros(width, dtype=bool)
    for w in data:
        live |= (w != 0).reshape(-1, width).any(axis=0)
    nodes = np.flatnonzero(live)
    if nodes.size:
        s_lo, s_hi = lo + int(nodes[0]) - last - 1, lo + int(nodes[-1]) + last + 2
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


class Snapshots:
    """Observer that keeps full-width fields at a set of time levels, in
    level order: `times`, and u, v (levels, spinor_components(dim), n+1)
    complex and A (levels, dim+1, n+1) real, zero outside the marched window
    and in the rows not marched, with the marched spinor row in component 0.
    It declares no reads, so its run marches the whole line up to t_max.
    The arrays are allocated at the run's level 0, after the datum.  Raises
    ValueError for a time off the slab or two that share a level
    (`snapshot_levels`)."""

    def __init__(self, grid: GridSpec, dim: int, times):
        levels = sorted(snapshot_levels(times, grid))
        self.at = {m: k for k, m in enumerate(levels)}
        self.times = grid.h * np.array(levels, dtype=int)
        self.dim = dim
        self.rows = list(_POTENTIAL_ROWS[dim])  # the physical index mu of each marched row

    def on_level(self, lev: LevelState, grid: GridSpec) -> None:
        if lev.m == 0:
            spinor = (len(self.at), spinor_components(self.dim), grid.n + 1)
            self.u, self.v = np.zeros(spinor, lev.u.dtype), np.zeros(spinor, lev.v.dtype)
            self.A = np.zeros((len(self.at), self.dim + 1, grid.n + 1), lev.A.dtype)
        k = self.at.get(lev.m)
        if k is not None:
            nodes = slice(lev.first, lev.first + lev.x.size)
            self.u[k, 0, nodes] = lev.u
            self.v[k, 0, nodes] = lev.v
            self.A[k, self.rows, nodes] = lev.A


class Series:
    """Observer that records the whole-line series of every level: `charge`,
    the trapezoid of S_0 (the squared L^2 norm of the spinor), `l1_u` and
    `l1_v`, those of |u| and |v|, and `sup_A0` .. `sup_A{dim}`, sup |A_mu|
    (0.0 for a row not marched), as `series()` returns them.  The trapezoids
    sum a full-width row, zero outside the window, allocated at level 0.  It
    declares no reads, so its run marches the whole line."""

    def __init__(self, grid: GridSpec, dim: int):
        self.h, self.dim, self.rows = grid.h, dim, list(_POTENTIAL_ROWS[dim])
        self.values = {name: [] for name in ("charge", "l1_u", "l1_v", *(f"sup_A{mu}" for mu in range(dim + 1)))}

    def on_level(self, lev: LevelState, grid: GridSpec) -> None:
        if lev.m == 0:
            self.row = np.zeros(grid.n + 1)
        nodes = self.row[lev.first : lev.first + lev.x.size]
        nodes[...] = lev.S[0]
        self.values["charge"].append(float(trapezoid(self.row, self.h)))
        for name, dens in zip(("l1_u", "l1_v"), lev.dens):
            np.sqrt(dens, out=nodes)
            self.values[name].append(float(trapezoid(self.row, self.h)))
        A = dict(zip(self.rows, lev.A))
        for mu in range(self.dim + 1):
            self.values[f"sup_A{mu}"].append(float(np.abs(A[mu]).max()) if mu in A else 0.0)

    def series(self) -> dict[str, np.ndarray]:
        return {name: np.asarray(values) for name, values in self.values.items()}


def evolve(fam: DataFamily, grid: GridSpec, *, observers=()) -> Trajectory:
    """Run the coupled system from the family datum, one level per pass in
    step order, up to grid.t_max or only to the last level its observers read.

    observers: objects with `on_level(lev, grid)`, which gets the
        `LevelState` of each marched level, and optionally `reads(grid)`,
        the (first node, end node, last level) the observer reads; a
        `Snapshots` keeps full-width fields at chosen levels, and a `Series`
        the whole-line series.

    The marched window is the read hull of the observers cut to the support
    cone of the datum, which is sampled on that hull widened by its last
    level per side (`_read_hull`, `_support_cut`, and the module docstring).
    `meta` records the marched `window` (first node, end node, last level)
    and the `node_steps` computed.  A massless zero-mode run marches free
    transport, bitwise the same (module docstring).
    """
    grid.ensure_support(fam.cutoff.outer)
    dim, M, h, n1 = fam.dim, fam.M, grid.h, grid.n + 1
    first, end, steps = _read_hull(grid, observers)
    # the datum on the nodes the read cones can depend on (module docstring)
    lo, hi = max(0, first - steps), min(n1, end + steps)
    u, v, a, b = (*spinor_datum(fam, grid, (lo, hi)), *potential_data(fam, grid, (lo, hi)))
    first, end = _support_cut(first, end, steps, lo, (u, v, a, b))
    x = grid.nodes(first, end)
    u, v, a, b = (w[..., first - lo : end - lo].copy() for w in (u, v, a, b))
    free = _free_transport(M, u, v, a, b)
    band = np.array([j - first for j in (0, 1, grid.n - 1, grid.n) if first <= j < end], dtype=int)

    # per-run arrays: the transport's work, the sources and the densities |u|^2, |v|^2
    work = None if free else _StepWork(u.shape)
    S, dens = np.empty((len(_POTENTIAL_ROWS[dim]), x.size)), np.empty((2, x.size))
    A_prev, A = None, a
    del a  # A holds the datum up to the level-1 diamond

    for m in range(steps + 1):
        t = m * h
        if not math.isfinite(np.abs(A).max()):  # not finite where A is not
            raise SolverAbort(f"non-finite field values at t = {t:.6g}")
        if m == 0:
            wave_sources(dim, u, v, out=S, densities=dens)
            if free:  # the rows u, S and dens, padded with `steps` nodes on the left
                rows = [np.concatenate((np.zeros((*w.shape[:-1], steps), w.dtype), w), axis=-1) for w in (u, S, dens)]
                rows[1][2:, :steps], rows[2][1, :steps] = S[2:, :1], dens[1, :1]  # the constant rows S_T, |v|^2
        elif free:  # the level-0 rows moved m nodes
            u, S, dens = (w[..., steps - m : steps - m + x.size] for w in rows)
        else:
            u, v = _transport_step(dim, M, h, u, v, A_prev, A, work)
            wave_sources(dim, u, v, out=S, densities=dens)

        if not math.isfinite(S[0].sum()):  # not finite where u or v is not
            raise SolverAbort(f"non-finite field values at t = {t:.6g}")
        if band.size and any(np.any(w[..., band] != 0.0) for w in (A, u, v)):
            raise SolverAbort(f"field support reached the boundary band at t = {t:.6g}")
        if observers:
            lev = LevelState(m, t, x, u, v, A, S, dens, first)
            for obs in observers:
                obs.on_level(lev, grid)
        if m < steps:
            if m == 0:
                A_next = _wave_first_step(A, b, S, h)
                del b
            else:
                A_next = _wave_diamond(A, A_prev, S, h, out=spare)
            # the diamonds cycle through three arrays with zero boundary
            # nodes; the datum may have nonzero edge nodes, and goes once the
            # level-1 diamond has read it
            spare = A_prev if m > 1 else np.zeros_like(A)
            A_prev, A = A, A_next

    meta = {"window": (first, end, steps), "node_steps": (end - first) * steps}
    return Trajectory(fam=fam, grid=grid, times=h * np.arange(steps + 1), meta=meta)


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


def wave_solve(grid: GridSpec, f: np.ndarray, g: np.ndarray, source):
    """Scalar wave solve with the diamond scheme, one level at a time.

    f, g are nodal data of shape (..., n+1), with any leading batch axes, and
    source[m] is the row (..., n+1) of box W at level m: a level array, or
    any object that computes its rows when indexed.  Yields (W, Wt) at the
    levels 0..grid.steps, each a new array, so memory stays at a few rows
    whatever the level count.  Wt is g at level 0 and the centered
    difference after that, so the march takes one wave step past the level
    it yields.  Raises SolverAbort at the first level whose W is not finite.
    Boundary nodes are held at zero, so comparisons should stay inside the
    domain of determinacy of the interior.
    """
    h = grid.h
    f, g = (np.asarray(w, dtype=float) for w in (f, g))
    W_prev, W = None, f
    W_next = _wave_first_step(f, g, np.asarray(source[0], dtype=float), h)
    for m in range(grid.steps + 1):
        if m:
            W_prev, W = W, W_next
            W_next = _wave_diamond(W, W_prev, np.asarray(source[m], dtype=float), h, out=np.zeros_like(W))
        if not np.isfinite(W).all():
            raise SolverAbort("non-finite wave field")
        yield W, g if m == 0 else (W_next - W_prev) / (2.0 * h)


def dirac_levels(dim: int, M, h: float, u, v, F, steps: int):
    """Yield (u, v) at levels 0..steps of the linear Dirac equation with zero
    potentials, from the node rows u, v of shape (..., n+1).  F is None or
    the pair (F_1, F_2) of complex sources in the spinor basis, each read at
    level m as F_c[m], of shape (..., n+1): level arrays (steps+1, ..., n+1),
    or objects that compute their rows when indexed.  The induced transport
    sources are (i F_2, i F_1)."""
    A = np.zeros(len(_POTENTIAL_ROWS[dim]))  # zero potentials, as scalars: no per-node work
    work = _StepWork(u.shape)

    def ext(m):
        return None if F is None else (1j * F[1][m], 1j * F[0][m])

    yield u, v
    ext_new = ext(0)
    for m in range(1, steps + 1):
        ext_old, ext_new = ext_new, ext(m)
        u, v = _transport_step(dim, M, h, u, v, A, A, work, ext_old, ext_new)
        yield u, v


def l2_norm(fields, h: float) -> np.ndarray:
    """L^2 norm of the spinor parts `fields`, each of node rows (..., n+1),
    summed over parts: one value per leading index."""
    dens = sum(np.abs(w) ** 2 for w in fields)
    return np.sqrt(trapezoid(dens, h))


def characteristic_integrals(G, h: float, direction: int):
    """Cumulative trapezoid of G along characteristics, one level at a time.

    G is an iterable of level rows (..., nodes), level 0 first, with any
    batch axes.  For each row G[m] read, yields the new row T[m]: T[0] = 0
    and T[m, j] = integral of G along the characteristic reaching (t_m, x_j)
    from t = 0 with slope dx/dt = direction (+1: from the left, -1: from the
    right), by the product trapezoid rule on the exactly aligned samples.
    Only the last row of each is kept from one level to the next.  A
    direction other than +1 or -1 raises ValueError at the first read.
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    rows = iter(G)
    gprev = np.asarray(next(rows))
    T = np.zeros_like(gprev)
    yield T
    for g in rows:
        g = np.asarray(g)
        prev, T = T, np.zeros_like(g)
        if direction == +1:
            T[..., 1:] = prev[..., :-1] + 0.5 * h * (gprev[..., :-1] + g[..., 1:])
        else:
            T[..., :-1] = prev[..., 1:] + 0.5 * h * (gprev[..., 1:] + g[..., :-1])
        gprev = g
        yield T


# ---------------------------------------------------------------------------
# Derived quantities.
# ---------------------------------------------------------------------------


def cone_quadrature(level_values, h: float, vertex_level: int, vertex_node: int):
    """Space-time quadrature over the backward cone from (level, node).

    Trapezoid in space over the exactly node-aligned cross-sections (nodes
    node - k .. node + k, k levels below the vertex), then trapezoid in
    time.  level_values is an iterable of the real nodal rows at levels 0,
    1, .., with any leading batch axes (..., nodes), of which the first
    vertex_level + 1 are read, one at a time; the result has those batch
    axes.  Raises ValueError when the cone sticks out of the grid.
    """
    j_lo, j_hi = vertex_node - vertex_level, vertex_node + vertex_level
    sections = []
    for l, row in zip(range(vertex_level + 1), level_values):
        row = np.asarray(row)
        if j_lo < 0 or j_hi >= row.shape[-1]:
            raise ValueError("cone sticks out of the grid")
        sections.append(trapezoid(row[..., j_lo + l : j_hi - l + 1], h))
    return cumulative_trapezoid(np.stack(sections, axis=-1), h)[..., -1]


# ---------------------------------------------------------------------------
# Export.
# ---------------------------------------------------------------------------


def trajectory_to_csv(traj: Trajectory, snaps: Snapshots, series: Series, directory, config_hash: str):
    """One CSV per level of `snaps`, the `Snapshots` of the run `traj` (x,
    Re/Im spinor components, potentials), plus a diagnostics CSV of the
    series of its `Series` `series`, headed by config_hash.  Returns the
    written paths."""
    os.makedirs(directory, exist_ok=True)
    comments = (f"config_hash={config_hash}",)
    paths = []
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
    columns = series.series()
    block = np.column_stack([traj.times, *(columns[k] for k in sorted(columns))])
    write_csv(dpath, ["t", *sorted(columns)], block, comments)
    paths.append(dpath)
    return paths
