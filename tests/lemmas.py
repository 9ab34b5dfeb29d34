"""Lemma checks that only the unit tests call.

The paper's claims are checked by the `sweep` and `verify` commands; the
lemmas behind them are exercised here, on solver runs and on a linear
Dirac solve that keeps its whole level history:

* `dirac_solve`: the linear Dirac equation with an external source, every
  level kept;
* `modulus_sq`: the pointwise |psi|^2 of a snapshot's rows;
* `modulus_rhs`: the sources of the modulus system, whose antisymmetry is
  the discrete backbone of charge conservation;
* `interaction_term`: the whole potential coupling A_mu g^mu psi as one
  external source;
* `check_energy_inequality`: the energy inequality of `estimates`, on a
  solver run with the whole potential coupling as its source, or on a
  `dirac_solve`;
* `check_gronwall_l1`: the Gronwall L^1 bound driven by the transverse
  potentials,
  ||u(t)||_1 + ||v(t)||_1 <= (||u(0)||_1 + ||v(0)||_1)
      exp(int_0^t (M + sup|A_2| [+ sup|A_3|]));
* `check_bootstrap_bound`: the off-origin modulus bound
  sup_{rho+t <= y <= 1-t} |psi|^2 <= 3 / sqrt(eps^2 + rho^2) in the
  smallness regime;
* `check_nullform`: the null-form bound of `estimates` on whole rows, for
  the backward cone from any vertex (T, X), its sources given as level
  arrays (`pw_source` builds them): the single-instance reference of the
  null-form suite, which solves each instance on its cone base only.

Each compares at the slack 1 + 10h of `estimates`.  These references go
with them:

* `a0_exact`: the closed form of A_0 in the massless run, against which
  claim 3's probes are held;
* `level_arrays`: the whole level history of a march that yields one
  level at a time;
* `sum_bound` and `probe_sum_bounds`: how far the marched A_0 of a massless
  zero-mode run may round away from the characteristic sum that
  `cone_solver.free_a0` takes;
* `evolve_full_grid`: an `evolve` run that marches every node, against which
  the light-cone windows are held bitwise;
* `snapshot_run`: a run with a `cone_solver.Snapshots` of chosen levels, or
  of every level, after its observers;
* `series_run`: a run with a `cone_solver.Series` after its observers, and
  the series it records;
* `two_component_coupling`, `two_component_rhs` and `two_component_sources`:
  the dim-3 kernels on both half-spinor components and all four potential
  rows, which read A_2, against which the one-row march of `gamma_algebra`
  on its rows A[MARCHED[3]] is held bitwise.  They keep a component axis,
  (..., 2, n), where the kernels take node rows (..., n), and sum their
  densities over it; `march_two_components` makes `evolve` march them;
* `gamma_matrices` and `verify_clifford`: the concrete gamma matrices of
  the paper's equations (a `GammaSet`) and the exact check of their
  Clifford relations (a `CliffordReport`), the oracle of `interaction_term`
  and of the transport-source tests, which hold `gamma_algebra.spinor_rhs`,
  and with it the closed-form `coupling`, to the Dirac operator they build.

One observer goes with them: `GaugeMonitor`, the Lorenz-gauge residual over
a cone's cross-sections (`node_slice`), which criterion 05 reads.  A cone is
a `ConeRegion` over a float base; `cone_reads` turns a list of them into
the node triple that an observer's `reads(grid)` returns to `evolve`.

Not a test module: pytest does not collect it, and the tests import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from unittest import mock

import numpy as np

from maxdirac1d import cone_solver
from maxdirac1d.cone_solver import LevelState, Series, Snapshots, Trajectory, cumulative_trapezoid, dirac_levels, l2_norm, trapezoid
from maxdirac1d.estimates import EstimateReport, _cone_lhs, _energy_reports, _slack, _worst_levels
from maxdirac1d.experiments import SweepPlan, grid_for_eps
from maxdirac1d.gamma_algebra import _check_dim, _coupling_maps, spinor_components
from maxdirac1d.initial_data import CutoffSpec, GridSpec, potential_data, spinor_datum

# the physical index mu of each potential row the kernels march, per dim:
# A_0, A_1 and the transverse row A_T
MARCHED = {1: [0, 1], 2: [0, 1, 2], 3: [0, 1, 3]}


def evolve_full_grid(fam, grid: GridSpec, **kw) -> Trajectory:
    """`cone_solver.evolve` on the whole grid up to t_max, whatever its
    observers read: a whole-line run with `meta["window"]` (0, n+1, steps)."""
    with mock.patch.multiple(
        cone_solver,
        _read_hull=lambda grid, *_: (0, grid.n + 1, grid.steps),
        _support_cut=lambda first, end, *_: (first, end),
    ):
        return cone_solver.evolve(fam, grid, **kw)


def snapshot_run(fam, grid: GridSpec, times=None, *, observers=(), run=None) -> tuple[Trajectory, Snapshots]:
    """(trajectory, snapshots) of a run of `run` (`cone_solver.evolve` by
    default) with `observers` and, after them, a `Snapshots` of `times`, or
    of every level when times is None."""
    snaps = Snapshots(grid, fam.dim, grid.h * np.arange(grid.steps + 1) if times is None else times)
    return (run or cone_solver.evolve)(fam, grid, observers=(*observers, snaps)), snaps


def series_run(fam, grid: GridSpec, *, observers=(), run=None) -> tuple[Trajectory, dict[str, np.ndarray]]:
    """(trajectory, series) of a run of `run` (`cone_solver.evolve` by
    default) with `observers` and, after them, a `Series`: the dict that its
    `series()` returns."""
    series = Series(grid, fam.dim)
    return (run or cone_solver.evolve)(fam, grid, observers=(*observers, series)), series.series()


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


def cone_reads(cones, grid: GridSpec) -> tuple[int, int, int]:
    """The (first node, end node, last level) that an observer reading the
    (ConeRegion, last level) `cones` declares: the hull of their bases
    rounded outward to nodes, end excluded, up to their last level."""
    first = min(math.floor((region.base_lo + grid.L) / grid.h) for region, _ in cones)
    end = max(math.ceil((region.base_hi + grid.L) / grid.h) for region, _ in cones) + 1
    return first, end, max(level for _, level in cones)


def cross_section(region: ConeRegion, s: float) -> tuple[float, float]:
    """The interval [lo + s, hi - s] of the cone over [lo, hi] at time s."""
    return region.base_lo + s, region.base_hi - s


def node_slice(region: ConeRegion, s: float, grid: GridSpec) -> slice | None:
    """Half-open node index range of the cross-section at time s.  Strict
    inequalities are resolved on nodes with the half-open convention: the
    left edge is included, the right edge excluded."""
    lo, hi = cross_section(region, s)
    if lo >= hi:
        return None
    j_lo = max(0, math.ceil((lo + grid.L) / grid.h - 1e-9))
    j_hi = min(grid.n + 1, math.ceil((hi + grid.L) / grid.h - 1e-9))
    if j_lo >= j_hi:
        return None
    return slice(j_lo, j_hi)


class GaugeMonitor:
    """Records sup |dt A_0 - dx A_1| (centered dx, interior nodes only) over
    a dependence-cone cross-section, 0 where it holds no node.

    dt A_0 is b_0 at level 0, which is +0.0 in both potential modes
    (`potential_data` sets only b_1), and the centered difference
    (A^{m+1}_0 - A^{m-1}_0) / 2h at every later level m, whose A^{m+1}_0 it
    forms with the solver's own diamond step on row 0: the same floats
    `evolve` computes next, and one step past its last level.

    Pass it in `evolve`'s observers and read `series()` after the run.  It
    declares no `reads`, so its run marches the whole line.
    """

    def __init__(self, base: tuple[float, float] = (-1.0, 1.0)):
        self.region = ConeRegion(*base)
        self.values: list[float] = []
        self.A0_prev = None  # row 0 of the last level's A, copied

    def on_level(self, lev: LevelState, grid: GridSpec) -> None:
        A0 = lev.A[0]
        if lev.m == 0:
            At0 = np.zeros_like(A0)
        else:
            A0_next = cone_solver._wave_diamond(A0, self.A0_prev, lev.S[0], grid.h, out=np.zeros_like(A0))
            At0 = (A0_next - self.A0_prev) / (2.0 * grid.h)
        self.A0_prev = A0.copy()
        sl = node_slice(self.region, lev.t, grid)
        lo, hi = (0, 0) if sl is None else (sl.start - lev.first, sl.stop - lev.first)
        # window nodes with both neighbours in the window: the residual is
        # exactly zero at the others
        lo, hi = max(lo, 1), min(hi, lev.x.size - 1)
        if lo >= hi:
            self.values.append(0.0)
            return
        A1 = lev.A[1]
        res = At0[lo:hi] - (A1[lo + 1 : hi + 1] - A1[lo - 1 : hi - 1]) / (2.0 * grid.h)
        self.values.append(float(np.abs(res).max()))

    def series(self) -> np.ndarray:
        return np.asarray(self.values)


def a0_exact(t: float, x: float, eps: float, cutoff: CutoffSpec = CutoffSpec()) -> float:
    """A_0(t, x) of the massless run, in either potential mode.

    With M = 0 the transverse potentials and v stay zero, so |psi|^2 is the
    datum's chi^2 f_eps^2 translated right at unit speed, and A_0, which
    starts from zero data, is half its integral over the backward cone of
    (t, x).  Where chi = 1 on the cone's base [x - t, x + t] that is
        A_0 = 1/4 [Q(x + t) - Q(x - t)] - (t/2) R(x - t),
    R(w) = asinh(w/eps) and Q(w) = w asinh(w/eps) - sqrt(w^2 + eps^2), the
    antiderivatives of (w^2 + eps^2)^(-1/2) and of R.
    """
    if abs(x) + t > cutoff.inner:
        raise ValueError(f"the cone of ({t}, {x}) leaves the plateau |x| <= {cutoff.inner} of the cutoff")

    def Q(w):
        return w * math.asinh(w / eps) - math.sqrt(w * w + eps * eps)

    return 0.25 * (Q(x + t) - Q(x - t)) - 0.5 * t * math.asinh((x - t) / eps)


def sum_bound(m: int) -> float:
    """Relative bound on |march - sum| for A_0 at a level m >= 1 of a
    massless zero-mode run: `evolve`'s diamond against `free_a0`.

    The sources are nonnegative, so every A_0 in the backward cone of (m, j)
    is at most V = A^m_j: its own cone holds a subset of the same terms.  A
    diamond step rounds a + b, (a + b) - c, h^2 S and their sum, with a, b,
    c and the sum at most V, so it errs by at most 4V + 2 h^2 S units of
    u = 2^-53.  Each of the m (m + 1) / 2 nodes of levels 1 .. m that reach
    (m, j) adds its error there with weight 1 (the kernel G of `cone_solver`),
    and their h^2 S add up to at most V: 2 m (m + 1) V + 2V units in all.
    np.sum of the m nonnegative terms errs by about (log2 m + 2) V units
    more.  Both fit in 2 (m + 1)^2 V units, (m + 1)^2 2^-52 V.

    This is the worst case.  The measured error grows like m^1.5: from 0.28
    to 2.6 times m 2^-52 over m = 61 .. 3795 (dim 2, eps 1e-2 .. 10^-3.5, the
    default probes' cells), so no bound linear in m holds at every depth.
    """
    return (m + 1) ** 2 * 2.0**-52


def probe_sum_bounds(plan: SweepPlan, eps: float) -> np.ndarray:
    """Per probe of `plan`'s run at eps, the relative bound on |march - sum|
    of its A_0: its cells sit at levels m0 and m0 + 1 and are read with
    nonnegative weights, so `sum_bound(m0 + 1)` holds for the weighted sum,
    and the six roundings of the two interpolations fit in the margin to
    `sum_bound(m0 + 2)` (levels 0 and 1 agree bitwise)."""
    grid = grid_for_eps(plan, eps)
    return np.array([sum_bound(min(int(t / grid.h), grid.steps - 1) + 2) for t, _ in plan.probes])


def dirac_solve(dim: int, M, grid: GridSpec, u0, v0, F=None):
    """Linear Dirac solve (zero potentials) with an external source F.

    u0, v0 are node rows (..., n+1), with any leading batch axes, and M is
    a scalar or broadcasts per instance, such as (K, 1).  F is None or the
    pair (F_1, F_2) of source level arrays (steps+1, ..., n+1) (see
    `dirac_levels`).  Returns (times, U, V, l2_psi, l2_F) with the full
    level history on a leading level axis (meant for moderate grids).
    """
    h = grid.h
    u = np.array(u0, dtype=complex, copy=True)
    v = np.array(v0, dtype=complex, copy=True)
    if F is not None:
        F = tuple(np.asarray(Fc, dtype=complex) for Fc in F)
    levels = list(dirac_levels(dim, M, h, u, v, F, grid.steps))
    U = np.stack([u for u, _ in levels])
    V = np.stack([v for _, v in levels])
    l2_F = np.zeros(U.shape[:-1]) if F is None else l2_norm(F, h)
    return h * np.arange(grid.steps + 1), U, V, l2_norm((U, V), h), l2_F


def _component_rows(dim: int, u, v, count: int) -> tuple[np.ndarray, np.ndarray]:
    """u and v as complex arrays with a component axis of `count` rows,
    (..., count, nodes): the layout of a snapshot's spinor_components(dim)
    rows and of the two-component reference."""
    spinor_components(dim)  # raises for an unknown dim
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    if u.ndim < 2 or v.ndim < 2 or u.shape[-2] != count or v.shape[-2] != count:
        raise ValueError(f"half-spinors u and v have shape (..., {count}, nodes), got {u.shape} and {v.shape}")
    return u, v


def modulus_sq(dim: int, u, v) -> np.ndarray:
    """Pointwise |psi|^2 = |u|^2 + |v|^2, summed over the components of a
    snapshot's spinor_components(dim) rows.  On the marched node rows it is
    the S_0 of `gamma_algebra.wave_sources`."""
    u, v = _component_rows(dim, u, v, spinor_components(dim))
    return (np.abs(u) ** 2 + np.abs(v) ** 2).sum(axis=-2)


def _two_rows(dim: int, u, v):
    """u and v as the two-component reference takes them: dim 3, both rows."""
    if dim != 3:
        raise ValueError(f"the two-component reference is the dim-3 march, got dim={dim}")
    return _component_rows(dim, u, v, 2)


def _density(w, out=None) -> np.ndarray:
    """|w|^2 summed over the component axis, into `out` when given: on a
    first component whose second is +0.0, the bits of the marched
    `gamma_algebra._density`, since adding +0.0 changes only a -0.0."""
    squares = np.abs(w)
    squares **= 2
    return np.sum(squares, axis=-2, out=out)


def two_component_maps(dim: int, A, M):
    """C and D of `two_component_coupling`, on both dim-3 components, and
    the transverse rows A_2, A_3 that k2 sums the squares of."""
    if dim != 3 or len(A) != 4:
        raise ValueError(f"the two-component reference is the dim-3 march with 4 potentials, got dim={dim}, {len(A)}")
    A2, A3 = A[2], A[3]
    p, q = A3 - 1j * M, -A3 - 1j * M
    s = 1j * A2

    # both halves written into one array: each is its first product, then
    # the s term added in place; components sliced with their axis kept, so
    # (K, 1, 1) masses broadcast
    def halves(w, first, second, top_op, bottom_op):
        w0, w1 = w[..., :1, :], w[..., 1:, :]
        out = np.empty(np.broadcast(p, s, w).shape, complex)
        top, bottom = out[..., :1, :], out[..., 1:, :]
        top_op(np.multiply(first, w0, out=top), s * w1, out=top)
        bottom_op(np.multiply(second, w1, out=bottom), s * w0, out=bottom)
        return out

    def C(w):  # (p w0 + s w1, q w1 - s w0)
        return halves(w, p, q, np.add, np.subtract)

    def D(w):  # (q w0 - s w1, p w1 + s w0)
        return halves(w, q, p, np.subtract, np.add)

    return C, D, (A2, A3)


def two_component_coupling(dim: int, A, M):
    """`gamma_algebra.coupling` on both dim-3 components:
    C = [[p, s], [-s, q]] and D = [[q, -s], [s, p]] with s = i A_2, and
    k2 = A_2^2 + A_3^2 + M^2."""
    C, D, (A2, A3) = two_component_maps(dim, A, M)
    return C, D, A2 * A2 + A3 * A3 + M * M


def two_component_rhs(dim: int, A, u, v, M, *, sums=None):
    """`gamma_algebra.spinor_rhs` on both dim-3 components."""
    u, v = _two_rows(dim, u, v)
    C, D, _ = two_component_maps(dim, A, M)
    plus, minus = (A[0] + A[1], A[0] - A[1]) if sums is None else sums
    return 1j * plus * u + C(v), 1j * minus * v + D(u)


def two_component_sources(dim: int, u, v, *, out=None, densities=None):
    """`gamma_algebra.wave_sources` on both dim-3 components:
    S_2 = -2 Re(v* rho u) and S_3 = -2 Re(v* kappa u)."""
    u, v = _two_rows(dim, u, v)
    rows = (None, None) if densities is None else densities
    mu, mv = _density(u, rows[0]), _density(v, rows[1])
    if out is None:
        out = np.empty((dim + 1, *np.broadcast(mu, mv).shape))
    np.add(mu, mv, out=out[0])
    np.add(np.negative(mu, out=out[1]), mv, out=out[1])  # -mu + mv
    u0, v0, u1, v1 = u[..., 0, :], v[..., 0, :], u[..., 1, :], v[..., 1, :]
    # rho u = (-u1, u0) and kappa u = (i u0, -i u1)
    np.multiply(-2.0, np.real(np.conj(v0) * -u1 + np.conj(v1) * u0), out=out[2])
    np.multiply(-2.0, np.real(np.conj(v0) * (1j * u0) + np.conj(v1) * (-1j * u1)), out=out[3])
    return tuple(out)


def march_two_components():
    """A context in which `cone_solver` marches both dim-3 components and
    all four potential rows: the datum gets its zero second rows and its
    zero a_2, b_2 rows back, the marched rows are A_0 .. A_3, and the
    kernels are the two-component references, which every run steps
    (massless zero-mode runs too, which would otherwise march free
    transport).  The spinor rows are (2, nodes), a leading axis of 2 to
    `evolve`, which fits no snapshot: such runs take no `Snapshots`, and
    observers read their levels."""

    def datum(fam, grid, nodes=None):
        u, v = spinor_datum(fam, grid, nodes)
        return np.stack([u, np.zeros_like(u)]), np.stack([v, np.zeros_like(v)])

    def potentials(fam, grid, nodes=None):
        return tuple(np.insert(w, 2, 0.0, axis=0) for w in potential_data(fam, grid, nodes))

    return mock.patch.multiple(
        cone_solver,
        spinor_datum=datum,
        potential_data=potentials,
        _POTENTIAL_ROWS={3: (0, 1, 2, 3)},
        coupling=two_component_coupling,
        spinor_rhs=two_component_rhs,
        wave_sources=two_component_sources,
        _free_transport=lambda *_: False,
    )


def modulus_rhs(dim: int, A, u, v, M: float) -> tuple[np.ndarray, np.ndarray]:
    """Sources for the modulus system (dt + dx)|u|^2 and (dt - dx)|v|^2.

    su = 2 Re sum conj(u) C v, and sv = -su exactly because the coupling is
    anti-hermitian: that is the discrete backbone of charge conservation.
    The longitudinal potentials act by pure phase rotation and drop out.
    u and v are the marched node rows (..., n), with the marched potential
    rows A, or in dim 3 both components (..., 2, n), with all four rows, as
    the two-component reference takes them.
    """
    if dim == 3 and len(A) == 4:
        u, v = _two_rows(dim, u, v)
        su = 2.0 * np.real(np.conj(u) * two_component_maps(dim, A, M)[0](v)).sum(axis=-2)
    else:
        su = 2.0 * np.real(np.conj(u) * _coupling_maps(dim, A, M)[0](v))
    return su, -su


# 2x2 building blocks; entries are exact small Gaussian integers so that all
# Clifford checks come out to exactly zero in floating point.
_G0_2 = np.array([[0, 1], [1, 0]], dtype=complex)
_G1_2 = np.array([[0, -1], [1, 0]], dtype=complex)
_G2_2 = np.array([[1j, 0], [0, -1j]], dtype=complex)
_RHO = np.array([[0, -1], [1, 0]], dtype=complex)
_KAPPA = np.array([[1j, 0], [0, -1j]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)


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
    """Return the concrete gamma matrices of the paper's equations."""
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


def interaction_term(gs: GammaSet, A, u, v) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate F = (A_0 g^0 + ... + A_d g^d) psi, split back into (F_u, F_v).

    Used by the energy-inequality verifier, which treats the whole potential
    coupling as an external source.  u and v have all spinor_components(dim)
    rows, as snapshots do; the result has the shape of the inputs.
    """
    dim = gs.dim
    if len(A) != dim + 1:
        raise ValueError(f"expected {dim + 1} potentials for dim={dim}, got {len(A)}")
    u, v = _component_rows(dim, u, v, spinor_components(dim))
    psi = np.concatenate([u, v], axis=-2)
    out = np.zeros_like(psi)
    for mu in range(dim + 1):
        gpsi = np.moveaxis(np.tensordot(gs.gammas[mu], psi, axes=(1, -2)), 0, -2)
        out += np.asarray(A[mu]) * gpsi
    ncomp = u.shape[-2]
    return out[..., :ncomp, :], out[..., ncomp:, :]


def check_energy_inequality(
    run, grid: GridSpec | None = None, snaps: Snapshots | None = None, series: Series | None = None
) -> EstimateReport:
    """Energy inequality for a Dirac run.

    Accepts either a Trajectory with the `Snapshots` `snaps` of its every
    level and its `Series` `series`, in which case the source is the full
    potential coupling A_mu gamma^mu psi recomputed level by level, or the
    (times, U, V, l2_psi, l2_F) tuple of an unbatched dirac_solve, in which
    case the grid must be passed explicitly.
    """
    if isinstance(run, Trajectory):
        if snaps is None or snaps.times.size != run.times.size:
            raise ValueError("energy check on a trajectory needs a snapshot at every level")
        if series is None:
            raise ValueError("energy check on a trajectory needs its series")
        grid = run.grid
        gs = gamma_matrices(run.fam.dim)
        l2_F = np.zeros(run.times.size)
        for m in range(run.times.size):
            Fu, Fv = interaction_term(gs, snaps.A[m], snaps.u[m], snaps.v[m])
            dens = (np.abs(Fu) ** 2).sum(axis=0) + (np.abs(Fv) ** 2).sum(axis=0)
            l2_F[m] = math.sqrt(float(trapezoid(dens, grid.h)))
        l2_psi = np.sqrt(np.asarray(series.series()["charge"], dtype=float))
        return _energy_reports(l2_psi, l2_F, grid)[0]
    if grid is None:
        raise ValueError("synthetic runs need the grid passed alongside")
    _, _, _, l2_psi, l2_F = run
    return _energy_reports(np.asarray(l2_psi, dtype=float), np.asarray(l2_F, dtype=float), grid)[0]


def check_gronwall_l1(traj: Trajectory, series: Series | None = None) -> EstimateReport:
    """||u(t)||_1 + ||v(t)||_1 against the transverse-potential Gronwall
    rate, on the `Series` `series` of the run `traj`."""
    fam = traj.fam
    if fam.dim < 2:
        raise ValueError("gronwall check needs dim 2 or 3 (transverse potentials)")
    if series is None:
        raise ValueError("gronwall check needs the series of a whole-line run")
    grid = traj.grid
    values = series.series()
    l1u = np.asarray(values["l1_u"], dtype=float)
    l1v = np.asarray(values["l1_v"], dtype=float)
    rate = fam.M
    for j in range(2, fam.dim + 1):
        rate = rate + np.asarray(values[f"sup_A{j}"], dtype=float)
    rhs = (l1u[0] + l1v[0]) * np.exp(cumulative_trapezoid(rate, grid.h))
    return _worst_levels("gronwall_l1", l1u + l1v, rhs, _slack(grid))[0]


def check_bootstrap_bound(traj: Trajectory, rho: float, snaps: Snapshots | None = None) -> EstimateReport:
    """Off-origin modulus bound sup_{rho+t <= y <= 1-t} |psi|^2 <= 3 f_eps(rho)^2,
    on the `Snapshots` `snaps` of every level of the run `traj`.

    Valid in the smallness regime 2(M+1) t_max < 1 with rho in (0, 1 - 2 t_max).
    """
    fam = traj.fam
    grid = traj.grid
    T = grid.t_max
    if 2.0 * (fam.M + 1.0) * T >= 1.0:
        raise ValueError("bootstrap regime requires 2(M+1) t_max < 1")
    if not 0.0 < rho < 1.0 - 2.0 * T:
        raise ValueError("rho must lie in (0, 1 - 2 t_max)")
    if snaps is None or snaps.times.size != traj.times.size:
        raise ValueError("bootstrap check needs a snapshot at every level")
    x = grid.nodes()
    lhs = 0.0
    for m, t in enumerate(traj.times):
        sel = (x >= rho + t) & (x <= 1.0 - t)
        dens = modulus_sq(fam.dim, snaps.u[m], snaps.v[m])
        lhs = max(lhs, float(dens[sel].max()))
    rhs = 3.0 / math.sqrt(fam.eps**2 + rho**2)
    return EstimateReport("bootstrap", lhs, rhs, _slack(grid))


def level_arrays(march):
    """The level arrays of a march that yields a tuple of rows per level,
    such as `wave_solve` or `estimates.transport_pair`."""
    return tuple(np.stack(rows) for rows in zip(*march))


def pw_source(prof: np.ndarray, env: np.ndarray, phase: complex, h_base: float, times):
    """Source level array phase * env(t) * prof at the level `times`, with
    env pw-linear on the base levels h_base * (0, 1, ...): the level array
    of a separable source of `estimates`, built whole."""
    envt = np.interp(times, h_base * np.arange(env.size), env)
    return (phase * envt)[:, None] * prof


def check_nullform(
    grid: GridSpec,
    f,
    g,
    F=None,
    G=None,
    T: float | None = None,
    X: float = 0.0,
    *,
    rhs_norms: tuple[float, float, float, float],
) -> EstimateReport:
    """Cone integral of |uv| against the product of the transport budgets.

    T must be a whole number of steps and X a grid node with the backward
    cone from (T, X) inside the slab.  f, g are nodal rows and F, G source
    level arrays (at least T/h + 1 levels) or None.  rhs_norms supplies
    (||f||_1, ||g||_1, int ||F||_1, int ||G||_1), computed exactly by the
    caller.  The transport is solved on the cone's base only.
    """
    h = grid.h
    T = grid.t_max if T is None else T
    mt = int(round(T / h))
    if abs(mt * h - T) > 1e-9 * max(1.0, T) or not 0 <= mt <= grid.steps:
        raise ValueError("cone height T must be a whole number of steps in the slab")
    jX = int(round((X + grid.L) / h))
    if abs(-grid.L + jX * h - X) > 1e-9 or not mt <= jX <= grid.n - mt:
        raise ValueError("cone vertex X must be a grid node with the cone inside the slab")

    base = slice(jX - mt, jX + mt + 1)
    F, G = (None if S is None else np.asarray(S)[..., base] for S in (F, G))
    lhs = _cone_lhs(grid, mt, np.asarray(f)[..., base], np.asarray(g)[..., base], F, G)

    nf, ng, nF, nG = rhs_norms
    rhs = (nf + nF) * (ng + nG)
    return EstimateReport("nullform", float(lhs), float(rhs), _slack(grid))
