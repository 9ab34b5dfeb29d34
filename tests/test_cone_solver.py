"""Characteristic solver: exactness properties, conservation, aborts, export."""

import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from maxdirac1d import cli, cone_solver, experiments
from maxdirac1d import (
    CutoffSpec,
    DataFamily,
    GridSpec,
    PotentialMode,
    SolverAbort,
    evolve,
    wave_solve,
)
from maxdirac1d.experiments import SweepPlan, run_sweep
from maxdirac1d.gamma_algebra import _density, spinor_components, spinor_rhs, wave_sources
from maxdirac1d.initial_data import chi, f_eps, potential_data, spinor_datum, write_csv
from maxdirac1d.cone_solver import (
    Series,
    Snapshots,
    _StepWork,
    _read_hull,
    _transport_step,
    _wave_diamond,
    _wave_first_step,
    characteristic_integrals,
    cone_quadrature,
    dirac_levels,
    l2_norm,
    shift,
    trajectory_to_csv,
    trapezoid,
)

from lemmas import (
    MARCHED,
    ConeRegion,
    GaugeMonitor,
    cone_reads,
    cross_section,
    evolve_full_grid,
    level_arrays,
    march_two_components,
    node_slice,
    series_run,
    snapshot_run,
)


def every_level(grid):
    """Snapshot times that keep every level of a run on `grid`."""
    return grid.h * np.arange(grid.steps + 1)


def hat(x, center, width, amp=1.0):
    return np.clip(amp * (1.0 - np.abs(x - center) / width), 0.0, None)


# ---------------------------------------------------------------------------
# Wave kernel.
# ---------------------------------------------------------------------------


def wave_levels(grid, f, g, source):
    """times, W and Wt of `wave_solve` as level arrays."""
    W, Wt = level_arrays(wave_solve(grid, f, g, source))
    return grid.h * np.arange(grid.steps + 1), W, Wt


def test_wave_quadratic_source_exact():
    # box A = 1 with zero data has the exact solution A = t^2/2, and At = t;
    # the last Wt is a centered difference, so the march takes one wave step
    # past t_max, and is exact inside the domain of determinacy of that level
    grid = GridSpec(L=2.56, n=256, t_max=0.5)
    times, W, Wt = wave_levels(grid, np.zeros(257), np.zeros(257), np.ones((grid.steps + 1, 257)))
    interior = slice(grid.steps, grid.n + 1 - grid.steps)
    for m in (grid.steps // 2, grid.steps):
        assert np.abs(W[m, interior] - times[m] ** 2 / 2.0).max() < 1e-13
    assert np.abs(Wt[-1, grid.steps + 1 : grid.n - grid.steps] - times[-1]).max() < 1e-13


def test_wave_free_hat_exact():
    # unit CFL transports nodal values exactly
    grid = GridSpec(L=2.56, n=256, t_max=0.5)
    x = grid.nodes()
    f = hat(x, -0.3, 0.2)
    times, W, _ = wave_levels(grid, f, np.zeros_like(f), np.zeros((grid.steps + 1, grid.n + 1)))
    m = grid.steps
    t = times[m]
    exact = 0.5 * (np.interp(x - t, x, f) + np.interp(x + t, x, f))
    assert np.abs(W[m] - exact).max() < 1e-14


def test_wave_domain_of_dependence():
    grid = GridSpec(L=2.56, n=256, t_max=0.5)
    x = grid.nodes()
    f = hat(x, -0.3, 0.2)
    _, W, _ = wave_levels(grid, f, np.zeros_like(f), np.zeros((grid.steps + 1, grid.n + 1)))
    far = f + hat(x, 2.0, 0.1)
    _, W2, _ = wave_levels(grid, far, np.zeros_like(f), np.zeros((grid.steps + 1, grid.n + 1)))
    j = int(np.argmin(np.abs(x + 0.3)))
    m = grid.steps
    # the far bump is more than t_max away from the probe
    assert W2[m, j] == W[m, j]


def test_wave_nonfinite_aborts():
    grid = GridSpec(L=2.0, n=64, t_max=0.25)
    f = np.zeros(65)
    f[32] = np.nan
    with pytest.raises(SolverAbort):
        wave_levels(grid, f, np.zeros(65), np.zeros((grid.steps + 1, 65)))


# ---------------------------------------------------------------------------
# Spinor transport.
# ---------------------------------------------------------------------------


def test_transport_exact_d1_massless():
    grid = GridSpec(L=2.56, n=512, t_max=0.25)
    fam = DataFamily(dim=1, eps=0.1, M=0.0)
    _, snaps = snapshot_run(fam, grid)
    x = grid.nodes()
    t = grid.t_max
    exact = chi(x - t, fam.cutoff) * f_eps(x - t, 0.1)
    got = np.abs(snaps.u[grid.steps][0])
    assert np.abs(got - exact).max() < 1e-12
    assert np.abs(snaps.v).max() == 0.0


def test_massless_runs_stay_longitudinal():
    # v == 0 propagates, so the transverse source and field vanish exactly
    series = series_run(DataFamily(dim=2, eps=0.1, M=0.0), GridSpec(L=2.56, n=512, t_max=0.2))[1]
    assert series["sup_A2"].max() == 0.0
    assert series["l1_v"].max() == 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_charge_conservation(dim):
    grid = GridSpec(L=2.56, n=1024, t_max=0.25)
    q = series_run(DataFamily(dim=dim, eps=0.1, M=1.0), grid)[1]["charge"]
    drift = np.abs(q - q[0]).max() / q[0]
    assert drift < 5e-7


def test_charge_drift_reduces_under_refinement():
    drifts = []
    for n in (1024, 2048):
        q = series_run(DataFamily(dim=2, eps=0.1, M=1.0), GridSpec(L=2.56, n=n, t_max=0.25))[1]["charge"]
        drifts.append(np.abs(q - q[0]).max() / q[0])
    assert 2.5 < drifts[0] / drifts[1] < 6.0


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("with_ext", [False, True])
def test_transport_step_solves_its_implicit_trapezoid_equations(dim, with_ext):
    # u_new[j] - u[j-1] = h/2 (du_old[j-1] + du_new[j]), and the mirror
    # image for v, wherever the stencil has both nodes
    rng = np.random.default_rng(29)
    n1, h, M = 40, 0.05, 0.7

    def spinor():  # a node row, as the marched component is
        return rng.normal(size=n1) + 1j * rng.normal(size=n1)

    u, v = spinor(), spinor()
    A_old, A_new = rng.normal(size=(2, len(MARCHED[dim]), n1))
    ext_old = (spinor(), spinor()) if with_ext else None
    ext_new = (spinor(), spinor()) if with_ext else None
    u1, v1 = _transport_step(dim, M, h, u, v, A_old, A_new, _StepWork(u.shape), ext_old, ext_new)
    du0, dv0 = spinor_rhs(dim, A_old, u, v, M)
    du1, dv1 = spinor_rhs(dim, A_new, u1, v1, M)
    if with_ext:
        du0, dv0 = du0 + ext_old[0], dv0 + ext_old[1]
        du1, dv1 = du1 + ext_new[0], dv1 + ext_new[1]
    res_u = u1[1:] - u[:-1] - 0.5 * h * (du0[:-1] + du1[1:])
    res_v = v1[:-1] - v[1:] - 0.5 * h * (dv0[1:] + dv1[:-1])
    scale = max(np.abs(u1).max(), np.abs(v1).max())
    assert np.abs(res_u).max() <= 1e-13 * scale
    assert np.abs(res_v).max() <= 1e-13 * scale


def test_dirac_solve_free_conserves_l2():
    grid = GridSpec(L=2.56, n=256, t_max=0.24)
    x = grid.nodes()
    u0 = hat(x, -0.2, 0.15).astype(complex)
    v0 = hat(x, 0.3, 0.1).astype(complex)
    F = (np.zeros((grid.steps + 1, *u0.shape), complex),) * 2
    levels = list(dirac_levels(1, 0.0, grid.h, u0, v0, F, grid.steps))
    l2_psi = np.array([l2_norm(uv, grid.h) for uv in levels])
    l2_F = l2_norm(F, grid.h)
    assert np.abs(l2_psi - l2_psi[0]).max() < 1e-13
    assert np.array_equal(l2_F, np.zeros_like(l2_F))
    # left movers really move left
    m = grid.steps
    assert np.abs(np.abs(levels[m][1]) - hat(x + m * grid.h, 0.3, 0.1)).max() < 1e-13


# ---------------------------------------------------------------------------
# Cone bookkeeping.
# ---------------------------------------------------------------------------


def test_cone_quadrature_of_ones_is_cone_area():
    grid = GridSpec(L=2.56, n=256, t_max=0.64)
    rows = np.ones((grid.steps + 1, grid.n + 1))
    area = cone_quadrature(rows, grid.h, grid.steps, grid.n // 2)
    assert area == pytest.approx(grid.t_max**2, abs=1e-14)


def test_cone_quadrature_is_the_level_by_level_time_trapezoid():
    # batch axes, both grid edges reached, and vertex levels from 0 up
    rng = np.random.default_rng(7)
    rows = rng.uniform(0.0, 2.0, size=(9, 2, 3, 17))
    h = 0.125
    for level, node in ((8, 8), (4, 4), (4, 12), (1, 1), (0, 0), (0, 16)):
        sections = [trapezoid(rows[l, ..., node - (level - l) : node + level - l + 1], h) for l in range(level + 1)]
        total = 0.0
        for prev, cur in zip(sections, sections[1:]):
            total = total + 0.5 * h * (prev + cur)
        got = cone_quadrature(rows, h, level, node)
        assert got.shape == (2, 3)
        if level == 0:
            # a vertex at level 0 is one node: batch-shaped zeros, not the scalar 0.0
            assert np.array_equal(got, np.zeros((2, 3)))
        else:
            assert np.array_equal(got, total)


def test_cone_quadrature_out_of_grid():
    grid = GridSpec(L=1.0, n=8, t_max=1.0)
    rows = np.ones((grid.steps + 1, grid.n + 1))
    with pytest.raises(ValueError, match="sticks out"):
        cone_quadrature(rows, grid.h, grid.steps, 0)


def test_characteristic_integrals_constant():
    h = 0.01
    G = np.ones((21, 101))
    for direction in (+1, -1):
        T = np.stack(list(characteristic_integrals(G, h, direction)))
        assert T[0].max() == 0.0
        j = 50
        assert T[20, j] == pytest.approx(20 * h, abs=1e-14)


@pytest.mark.parametrize("direction", [0, 2, -1.5])
def test_characteristic_integrals_reject_other_directions(direction):
    with pytest.raises(ValueError, match="direction must be"):
        next(characteristic_integrals(np.ones((3, 8)), 0.01, direction))


# ---------------------------------------------------------------------------
# Gauge residual.
# ---------------------------------------------------------------------------


def test_gauge_residual_constrained_vs_zero():
    results = {}
    for mode in ("constrained", "zero"):
        per_n = []
        for n in (512, 1024):
            grid = GridSpec(L=3.2, n=n, t_max=0.2)
            fam = DataFamily(dim=1, eps=0.1, potential_mode=mode)
            mon = GaugeMonitor((-1.0, 1.0))
            evolve(fam, grid, observers=(mon,))
            per_n.append(mon.series().max())
        results[mode] = per_n
    coarse, fine = results["constrained"]
    assert coarse / fine > 2.0  # at least first order
    assert fine < 1e-3
    z_coarse, z_fine = results["zero"]
    assert min(z_coarse, z_fine) > 1.0  # no gauge data, no gauge condition


# ---------------------------------------------------------------------------
# Aborts.
# ---------------------------------------------------------------------------


def _on_nodes(full):
    """A double of `spinor_datum` or `potential_data` made from `full(fam,
    grid)`, the full-grid rows: like them, it takes an optional node range
    (lo, hi) and returns the rows on those nodes."""

    def datum(fam, grid, nodes=None):
        lo, hi = nodes or (0, grid.n + 1)
        return tuple(w[..., lo:hi] for w in full(fam, grid))

    return datum


def _inject_datum(monkeypatch, u0):
    """Make evolve start from (u0, 0) instead of the family datum."""
    monkeypatch.setattr(cone_solver, "spinor_datum", _on_nodes(lambda fam, grid: (u0, np.zeros_like(u0))))


def test_abort_on_nonfinite_datum(monkeypatch):
    grid = GridSpec(L=2.56, n=64, t_max=0.16)
    fam = DataFamily(dim=1, eps=0.1)
    u0 = np.zeros(65, dtype=complex)
    u0[32] = np.nan
    _inject_datum(monkeypatch, u0)
    with pytest.raises(SolverAbort, match="non-finite field values at t = 0$"):
        evolve(fam, grid)


def test_abort_on_boundary_support(monkeypatch):
    grid = GridSpec(L=2.56, n=64, t_max=0.16)
    fam = DataFamily(dim=1, eps=0.1)
    u0 = np.zeros(65, dtype=complex)
    u0[1] = 1.0  # inside the guarded band
    _inject_datum(monkeypatch, u0)
    with pytest.raises(SolverAbort, match="boundary band"):
        evolve(fam, grid)


def test_small_grid_rejected_before_running():
    with pytest.raises(ValueError, match="grid too small"):
        evolve(DataFamily(dim=1, eps=0.1), GridSpec(L=2.0, n=64, t_max=0.25))


# ---------------------------------------------------------------------------
# Observers, snapshots, export.
# ---------------------------------------------------------------------------


class _LevelCounter:
    def __init__(self):
        self.times = []

    def on_level(self, lev, grid):
        self.times.append(lev.t)


def test_observer_sees_every_level():
    grid = GridSpec(L=2.56, n=128, t_max=0.2)
    obs = _LevelCounter()
    traj = evolve(DataFamily(dim=1, eps=0.1), grid, observers=(obs,))
    assert obs.times == [m * grid.h for m in range(grid.steps + 1)]
    assert traj.times.size == grid.steps + 1


def test_snapshots_and_csv_export(tmp_path):
    grid = GridSpec(L=2.56, n=256, t_max=0.2)
    series = Series(grid, 2)
    snaps = snapshot_run(DataFamily(dim=2, eps=0.1, M=1.0), grid, (0.0, 0.1, 0.2), observers=(series,))[1]
    assert snaps.times.tolist() == [0.0, pytest.approx(0.1), pytest.approx(0.2)]
    paths = trajectory_to_csv(grid, snaps, series, tmp_path, config_hash="cafe")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["diagnostics.csv", "snapshot_000.csv", "snapshot_001.csv", "snapshot_002.csv"]
    first = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert first[0] == "# config_hash=cafe"
    header = first[1].split(",")
    assert header[0] == "t" and "charge" in header


def test_snapshots_are_the_history_rows_at_their_levels():
    grid = GridSpec(L=2.56, n=256, t_max=0.2)  # h = 0.02
    fam = DataFamily(dim=3, eps=0.05, M=1.0)
    traj, snaps = snapshot_run(fam, grid, (0.2, 0.0, 0.1))
    hist = snapshot_run(fam, grid)[1]
    assert traj.meta["window"][0] > 0  # padded from a support-cut window
    for name in ("times", "u", "v", "A"):
        assert _same_bits(getattr(snaps, name), getattr(hist, name)[[0, 5, 10]]), name
    empty = snapshot_run(fam, grid, ())[1]
    assert empty.times.shape == (0,) and empty.u.shape == (0, 2, grid.n + 1) and empty.A.shape == (0, 4, grid.n + 1)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("mode", list(PotentialMode))
def test_series_are_their_definitions_on_the_history_rows(dim, mode):
    # the series reuse the densities of the wave sources and one |A| max per
    # level; recomputed from the full-width rows of every level they come out
    # the same
    grid = GridSpec(L=2.56, n=256, t_max=0.2)
    fam = DataFamily(dim=dim, eps=0.05, M=1.0, potential_mode=mode)
    series = Series(grid, dim)
    traj, hist = snapshot_run(fam, grid, observers=(series,))
    got = series.series()
    h = grid.h
    assert traj.meta["window"][0] > 0  # the series sum zero-padded rows
    dens_u = (np.abs(hist.u) ** 2).sum(axis=-2)
    dens_v = (np.abs(hist.v) ** 2).sum(axis=-2)
    want = {
        "charge": [float(trapezoid(row, h)) for row in dens_u + dens_v],
        "l1_u": [float(trapezoid(np.sqrt(row), h)) for row in dens_u],
        "l1_v": [float(trapezoid(np.sqrt(row), h)) for row in dens_v],
        **{f"sup_A{mu}": [float(np.abs(A[mu]).max()) for A in hist.A] for mu in range(dim + 1)},
    }
    assert got.keys() == want.keys()
    for key, values in want.items():
        assert _same_bits(got[key], np.asarray(values)), key


def test_snapshot_time_outside_slab():
    grid = GridSpec(L=2.56, n=128, t_max=0.2)
    with pytest.raises(ValueError, match="snapshot"):
        Snapshots(grid, 1, (0.5,))


def test_snapshot_times_sharing_a_level_rejected():
    grid = GridSpec(L=2.56, n=128, t_max=0.2)  # h = 0.04
    for times in ((0.08, 0.08), (0.08, 0.0801)):
        with pytest.raises(ValueError, match="round to the same level 2"):
            Snapshots(grid, 1, times)


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
def test_shift_into_its_own_rows(k):
    # `shift` may write into the rows it reads
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(2, 9))
    want = shift(rows, k)
    for r in rows:
        assert shift(r, k, out=r) is r
    assert _same_bits(rows, want)


def test_trapezoid_matches_numpy():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=33)
    h = 0.125
    want = h * (vals.sum() - 0.5 * (vals[0] + vals[-1]))
    assert trapezoid(vals, h) == pytest.approx(want, abs=1e-15)


# ---------------------------------------------------------------------------
# Light-cone windows.
# ---------------------------------------------------------------------------


class _ConeRecorder:
    """Keeps every level it sees and declares the cones it was given."""

    def __init__(self, cones):
        self.cones = cones
        self.levels = []

    def reads(self, grid):
        return cone_reads(self.cones, grid)

    def on_level(self, lev, grid):
        self.levels.append((lev.m, lev.first, lev.u.copy(), lev.v.copy(), lev.A.copy()))


def _cone_sets(grid):
    """Cone lists to declare, each with whether it is node-exact: a base a
    hair inside two nodes, which rounding outward lands on, so that the
    window edges are the base edges and level m compares the nodes
    first + m .. end - 1 - m, the tightest case."""
    h, x = grid.h, grid.nodes()
    return [
        ([(ConeRegion(-1.0, 1.0), grid.steps)], False),  # K_T up to T, rounded outward
        ([(ConeRegion(0.013 - 9 * h, 0.021 + 9 * h), 9)], False),  # off-lattice, probe-sized
        ([(ConeRegion(-0.6, -0.35), 5), (ConeRegion(0.2, 0.7), grid.steps - 3)], False),
        ([(ConeRegion(x[226] + 1e-12, x[296] - 1e-12), grid.steps)], True),  # nodes 226..296
    ]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("mode", list(PotentialMode))
@pytest.mark.parametrize("M", [0.0, 1.0])
def test_window_bitwise_equal_to_full_grid_inside_declared_cones(dim, mode, M):
    grid = GridSpec(L=2.56, n=512, t_max=0.3)
    fam = DataFamily(dim=dim, eps=0.05, M=M, potential_mode=mode)
    hist = snapshot_run(fam, grid)[1]
    x = grid.nodes()
    for cones, node_exact in _cone_sets(grid):
        rec = _ConeRecorder(cones)
        traj = evolve(fam, grid, observers=(rec,))
        first, end, last = traj.meta["window"]
        assert (first, end, last) == cone_reads(cones, grid)  # inside the support cone
        assert end - first < grid.n + 1
        assert last == max(level for _, level in cones)
        assert [m for m, *_ in rec.levels] == list(range(last + 1))
        compared = 0
        for m, lev_first, u, v, A in rec.levels:
            assert lev_first == first
            for region, top in cones:
                if m > top:
                    continue
                lo, hi = cross_section(region, m * grid.h)
                nodes = np.nonzero((x >= lo - 1e-9) & (x <= hi + 1e-9))[0]
                if node_exact:
                    assert np.array_equal(nodes, np.arange(first + m, end - m))
                local = nodes - first
                # the marched rows; snapshots hold the others as zero rows
                rows = MARCHED[dim]
                assert np.array_equal(u[local], hist.u[m][0, nodes])
                assert np.array_equal(v[local], hist.v[m][0, nodes])
                assert not hist.u[m][1:].any() and not hist.v[m][1:].any()
                assert np.array_equal(A[:, local], hist.A[m][rows][:, nodes])
                assert not np.delete(hist.A[m], rows, axis=0).any()
                compared += nodes.size
        assert compared > 0


def test_meta_records_window_and_node_steps():
    grid = GridSpec(L=2.56, n=256, t_max=0.2)
    fam = DataFamily(dim=2, eps=0.1)
    # the datum lives on nodes 29..227 (|x| < 2), widened by steps + 1 = 11
    # per side: nodes 18..238, end 239, 221 nodes
    line, series = series_run(fam, grid, observers=(_LevelCounter(),))
    assert line.meta == {"window": (18, 239, grid.steps), "node_steps": 221 * grid.steps}
    assert "charge" in series
    full = evolve_full_grid(fam, grid, observers=(_LevelCounter(),))
    assert full.meta == {"window": (0, 257, grid.steps), "node_steps": 257 * grid.steps}

    # base [-0.205, 0.205] spans nodes 117.75..138.25, rounded outward to
    # nodes 117..139: end 140, 23 nodes
    rec = _ConeRecorder([(ConeRegion(-0.205, 0.205), 6)])
    win = evolve(fam, grid, observers=(rec,))
    assert win.meta == {"window": (117, 140, 6), "node_steps": 23 * 6}
    assert win.times.size == 7


def test_whole_line_runs_march_the_support_cone():
    grid = GridSpec(L=2.56, n=128, t_max=0.2)
    fam = DataFamily(dim=1, eps=0.1)
    cone = [(ConeRegion(-0.2, 0.2), 3)]
    # an observer that declares no reads, such as snapshots of every level
    # or of one, or the series, reads the whole line up to t_max, cut to the
    # support cone: the datum lives on nodes 15..113 (|x| < 2), widened by
    # steps + 1 = 6 per side: nodes 9..119, end 120
    series = Series(grid, fam.dim)
    for observers in (
        (_ConeRecorder(cone), GaugeMonitor((-1.0, 1.0))),
        (_ConeRecorder(cone), _LevelCounter()),
        (_ConeRecorder(cone), Snapshots(grid, fam.dim, every_level(grid))),
        (_ConeRecorder(cone), Snapshots(grid, fam.dim, (0.1,))),
        (_ConeRecorder(cone), series),
    ):
        assert _read_hull(grid, observers) == (0, grid.n + 1, grid.steps)
        assert evolve(fam, grid, observers=observers).meta["window"] == (9, 120, grid.steps)
    # the series next to a cone reader are those of a run of the series
    # alone and of a full-grid run
    for run in (evolve, evolve_full_grid):
        alone = series_run(fam, grid, run=run)[1]
        assert alone.keys() == series.series().keys()
        for key, values in alone.items():
            assert values.size == grid.steps + 1 and _same_bits(series.series()[key], values), key


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("mode", list(PotentialMode))
@pytest.mark.parametrize("M", [0.0, 1.0])
def test_support_window_bitwise_equal_to_full_width(dim, mode, M):
    grid = GridSpec(L=2.56, n=256, t_max=0.2)
    fam = DataFamily(dim=dim, eps=0.05, M=M, potential_mode=mode)
    for times in ((0.0, 0.1, 0.2), every_level(grid)):
        win_series, full_series = Series(grid, dim), Series(grid, dim)
        win, win_snaps = snapshot_run(fam, grid, times, observers=(win_series,))
        full_snaps = snapshot_run(fam, grid, times, observers=(full_series,), run=evolve_full_grid)[1]
        first, end, last = win.meta["window"]
        assert 0 < first and end < grid.n + 1 and last == grid.steps
        win_series, full_series = win_series.series(), full_series.series()
        assert win_series.keys() == full_series.keys()
        for key in full_series:
            assert _same_bits(win_series[key], full_series[key]), key
        assert win_snaps.times.size == len(times)
        for name in ("times", "u", "v", "A"):
            assert _same_bits(getattr(win_snaps, name), getattr(full_snaps, name)), name


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("mode", list(PotentialMode))
@pytest.mark.parametrize("M", [0.0, 1.0])
@pytest.mark.parametrize("narrow", [False, True])
def test_gauge_and_oracle_on_the_support_window_match_the_full_grid(dim, mode, M, narrow):
    # GaugeMonitor and A0Oracle declare no reads: they march the support cone
    # of a plain run.  A cutoff narrower than K_T puts the gauge cross-section
    # and the oracle's vertex cones past that window, where the full-grid
    # fields are zero.
    if narrow:
        cutoff, grid = CutoffSpec(inner=0.1, outer=0.2), GridSpec(L=1.6, n=512, t_max=0.6)
    else:
        cutoff, grid = CutoffSpec(), GridSpec(L=2.56, n=256, t_max=0.2)
    fam = DataFamily(dim=dim, eps=0.05, M=M, potential_mode=mode, cutoff=cutoff)
    times = (0.0, 0.5 * grid.t_max, grid.t_max)
    gauge, full_gauge = GaugeMonitor(), GaugeMonitor()
    oracle, full_oracle = cli.A0Oracle(grid), cli.A0Oracle(grid)
    snaps = Snapshots(grid, dim, times)
    runs = [series_run(fam, grid, observers=observers) for observers in ((), (gauge,), (oracle,), (snaps,))]
    full_series = Series(grid, dim)
    full_snaps = snapshot_run(fam, grid, times, observers=(full_gauge, full_oracle, full_series), run=evolve_full_grid)[1]
    full_series = full_series.series()
    first, end, last = evolve(fam, grid).meta["window"]
    assert 0 < first and end < grid.n + 1 and last == grid.steps
    for traj, series in runs:
        assert traj.meta["window"] == (first, end, last)
        assert series.keys() == full_series.keys()
        for key in full_series:
            assert _same_bits(series[key], full_series[key]), key
    for name in ("times", "u", "v", "A"):
        assert _same_bits(getattr(snaps, name), getattr(full_snaps, name)), name
    assert full_gauge.series().max() > 0.0 and full_oracle.deviation() > 0.0
    assert _same_bits(gauge.series(), full_gauge.series())
    assert _same_bits(oracle.deviation(), full_oracle.deviation())
    if narrow:
        # the datum lives on nodes 225..287 (|x| < 0.2), widened by
        # steps + 1 = 97 per side: the window is nodes 128..384, end 385; the
        # vertex cones span nodes 112..400 and the gauge cross-section at
        # t = 0 nodes 96..415
        assert (first, end) == (128, 385)
        assert min(j - m for m, j in oracle.sections) == 112 and max(j + m for m, j in oracle.sections) == 400
        assert node_slice(GaugeMonitor().region, 0.0, grid) == slice(96, 416)


def test_support_window_bitwise_with_potential_datum(monkeypatch):
    # A nonzero a reaches one node further per level than the spinor does
    grid = GridSpec(L=2.56, n=128, t_max=0.2)
    fam = DataFamily(dim=2, eps=0.1, M=1.0)

    def with_a(fam, grid):
        a, b = np.zeros((2, fam.dim + 1, grid.n + 1))
        a[:, 114:119] = 0.5  # past the spinor's support, which ends at node 113
        return a, b

    monkeypatch.setattr(cone_solver, "potential_data", _on_nodes(with_a))
    win, win_snaps = snapshot_run(fam, grid)
    full_snaps = snapshot_run(fam, grid, run=evolve_full_grid)[1]
    assert win.meta["window"][1] - win.meta["window"][0] < grid.n + 1
    for name in ("u", "v", "A"):
        assert _same_bits(getattr(win_snaps, name), getattr(full_snaps, name)), name


def test_support_cone_reaching_the_band_runs_full_width(monkeypatch):
    grid = GridSpec(L=2.56, n=64, t_max=0.16)
    fam = DataFamily(dim=1, eps=0.1)
    u0 = np.zeros(65, dtype=complex)
    u0[[2, 62]] = 1.0  # clear of the band at t = 0; u moves into it at t = h
    _inject_datum(monkeypatch, u0)
    with pytest.raises(SolverAbort, match="boundary band"):
        snapshot_run(fam, grid, (0.0,))
    rec = _ConeRecorder([(ConeRegion(-grid.L, grid.L), grid.steps)])
    with pytest.raises(SolverAbort, match="boundary band at t = 0.08"):
        evolve(fam, grid, observers=(rec,))
    assert [(m, first, u.shape[-1]) for m, first, u, *_ in rec.levels] == [(0, 0, 65)]


@pytest.mark.parametrize("triple", [(300, 310, 3), (-20, -5, 3), (50, 50, 3)])
def test_read_hull_off_the_grid_reads_the_whole_line(triple):
    # a hull with no node on the grid: past either end, or empty
    grid = GridSpec(L=2.56, n=128, t_max=0.2)
    obs = _ConeRecorder([])
    obs.reads = lambda grid: triple
    assert _read_hull(grid, (obs,)) == (0, grid.n + 1, grid.steps)


def test_read_hull_disjoint_from_support_is_marched_as_declared():
    # the support cut of |x| < 2 (nodes 15..113) up to level 3 ends at node
    # 113 + 3 + 1 = 117, the zero-held edge node; the cone over [2.3, 2.5]
    # (nodes 121.5..126.5), rounded outward to nodes 121..127, reads only
    # zeros
    grid = GridSpec(L=2.56, n=128, t_max=0.2)
    rec = _ConeRecorder([(ConeRegion(2.3, 2.5), 3)])
    traj = evolve(DataFamily(dim=1, eps=0.1), grid, observers=(rec,))
    assert traj.meta["window"] == (121, 128, 3)
    assert all(not u.any() and not A.any() for _, _, u, _, A in rec.levels)


@pytest.mark.parametrize("base, reach, window", [((1.9, 2.3), (108, 126), (111, 118)), ((-2.3, -1.9), (3, 21), (11, 18))])
def test_read_hull_straddling_the_support_edge(monkeypatch, base, reach, window):
    # the datum lives on nodes 15..113 (|x| < 2); the read hull up to level 3
    # crosses one edge of it, and the datum is sampled on the hull widened
    # by 3 nodes per side, clipped to the grid: the nonzero nodes found
    # there cut the hull where the full-grid datum does.  The hulls are
    # nodes 111..122 and 6..17 (the bases, nodes 111.5..121.5 and
    # 6.5..16.5, rounded outward), so the reaches are 108..125 and 3..20;
    # the support cut keeps nodes up to 113 + 3 + 1 = 117 and from
    # 15 - 3 - 1 = 11 on
    grid = GridSpec(L=2.56, n=128, t_max=0.2)
    fam = DataFamily(dim=1, eps=0.1, M=1.0)
    hist = snapshot_run(fam, grid)[1]
    ranges = []

    def spy(fam, grid, nodes=None):
        ranges.append(nodes)
        return real(fam, grid, nodes)

    real = cone_solver.spinor_datum
    monkeypatch.setattr(cone_solver, "spinor_datum", spy)
    region = ConeRegion(*base)
    rec = _ConeRecorder([(region, 3)])
    traj = evolve(fam, grid, observers=(rec,))
    assert ranges == [reach]
    assert traj.meta["window"] == (*window, 3)
    x = grid.nodes()
    for m, first, u, v, A in rec.levels:
        lo, hi = cross_section(region, m * grid.h)
        nodes = np.nonzero((x >= lo - 1e-9) & (x <= hi + 1e-9))[0]
        inside = (nodes >= window[0]) & (nodes < window[1])
        assert first == window[0] and inside.any()
        # the cone's nodes past the support cut hold zeros in the full-grid run
        assert not hist.u[m][:, nodes[~inside]].any() and not hist.A[m][:, nodes[~inside]].any()
        nodes = nodes[inside]
        assert _same_bits(u[nodes - first], hist.u[m][0, nodes])
        assert _same_bits(A[:, nodes - first], hist.A[m][:, nodes])


def test_abort_on_nonfinite_inside_window(monkeypatch):
    grid = GridSpec(L=2.56, n=64, t_max=0.16)
    fam = DataFamily(dim=1, eps=0.1)
    u0 = np.zeros(65, dtype=complex)
    u0[30] = np.nan
    rec = _ConeRecorder([(ConeRegion(-0.5, 0.5), 2)])
    _inject_datum(monkeypatch, u0)
    with pytest.raises(SolverAbort, match="non-finite field values at t = 0$"):
        evolve(fam, grid, observers=(rec,))
    assert rec.levels == []


@pytest.mark.parametrize("field, level", [("a", 0), ("b", 1)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_abort_on_nonfinite_potential_datum(monkeypatch, field, level, bad):
    # a reaches A at level 0 and b at level 1 (the first step); the one |A|
    # max per level stops whole-line and windowed runs at the same t
    grid = GridSpec(L=2.56, n=64, t_max=0.16)
    fam = DataFamily(dim=2, eps=0.1, M=1.0)

    def bad_datum(fam, grid):
        a, b = np.zeros((2, fam.dim + 1, grid.n + 1))
        (a if field == "a" else b)[2, 32] = bad
        return a, b

    monkeypatch.setattr(cone_solver, "potential_data", _on_nodes(bad_datum))
    message = f"non-finite field values at t = {level * grid.h:.6g}$"
    rec = _ConeRecorder([(ConeRegion(-0.5, 0.5), 3)])
    # A^m is checked before the transport step to level m reads it, so no
    # arithmetic on the bad value warns (warnings are errors under pytest)
    with pytest.raises(SolverAbort, match=message):
        snapshot_run(fam, grid, (0.0,))
    with pytest.raises(SolverAbort, match=message):
        evolve(fam, grid, observers=(rec,))
    assert [m for m, *_ in rec.levels] == list(range(level))
    assert all(u.shape[-1] < grid.n + 1 for _, _, u, *_ in rec.levels)  # a windowed run


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_transport_step_batches_bitwise(dim):
    # stacked node rows (K, n) with their own potential rows (rows, K, n),
    # masses (K, 1) and sources step exactly like one at a time
    rng = np.random.default_rng(37)
    K, n1, h = 3, 24, 0.05

    def spinors():
        return rng.normal(size=(K, n1)) + 1j * rng.normal(size=(K, n1))

    u, v = spinors(), spinors()
    A_old, A_new = rng.normal(size=(2, len(MARCHED[dim]), K, n1))
    ext_old, ext_new = (spinors(), spinors()), (spinors(), spinors())
    masses = rng.uniform(0.0, 2.0, size=K)
    ub, vb = _transport_step(dim, masses[:, None], h, u, v, A_old, A_new, _StepWork(u.shape), ext_old, ext_new)
    for k in range(K):
        uk, vk = _transport_step(
            dim, masses[k], h, u[k], v[k], A_old[:, k], A_new[:, k], _StepWork(u[k].shape),
            (ext_old[0][k], ext_old[1][k]), (ext_new[0][k], ext_new[1][k]),
        )
        assert np.array_equal(ub[k], uk)
        assert np.array_equal(vb[k], vk)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_massless_zero_mode_run_is_free_transport_bitwise(dim):
    # with M = 0 and zero potential data, v, the transverse potentials and
    # A_0 + A_1 stay zero, so u is the datum translated one node per level
    grid = GridSpec(L=2.56, n=2048, t_max=0.1)
    fam = DataFamily(dim=dim, eps=0.01, M=0.0, potential_mode="zero")
    hist = snapshot_run(fam, grid)[1]
    u0 = np.zeros((spinor_components(dim), grid.n + 1), complex)  # the snapshot rows
    u0[0] = spinor_datum(fam, grid)[0]
    assert not hist.v.any()
    assert not hist.A[:, 2:].any()
    assert not (hist.A[:, 0] + hist.A[:, 1]).any() and hist.A[:, 0].any()
    for m in range(grid.steps + 1):
        assert _same_bits(hist.u[m], shift(u0, m)), m


# ---------------------------------------------------------------------------
# Massless zero-mode runs march free transport, held to the general kernels.
# ---------------------------------------------------------------------------


def _general_path():
    """A context in which every `evolve` run takes the general step."""
    return mock.patch.object(cone_solver, "_free_transport", lambda *_: False)


@contextlib.contextmanager
def _transport_calls():
    """A context counting the `_transport_step` calls `evolve` makes, as a
    one-item list."""
    calls = [0]
    real = cone_solver._transport_step

    def spy(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    with mock.patch.object(cone_solver, "_transport_step", spy):
        yield calls


def _hand_march(fam, grid, window):
    """Every level's (m, first, u, v, A, S) of a run on `window` (first
    node, end node, last level), from the general kernels called in step
    order: `wave_sources`, `_wave_first_step`, then `_transport_step`,
    `wave_sources` and `_wave_diamond` per level."""
    first, end, steps = window
    dim, M, h = fam.dim, fam.M, grid.h
    u, v, a, b = (w[..., first:end].copy() for w in (*spinor_datum(fam, grid), *potential_data(fam, grid)))
    work = _StepWork(u.shape)
    spinors, S = [(u, v)], [np.stack(wave_sources(dim, u, v))]
    A = [a, _wave_first_step(a, b, S[0], h)]
    for m in range(1, steps + 1):
        u, v = _transport_step(dim, M, h, u, v, A[m - 1], A[m], work)
        spinors.append((u, v))
        S.append(np.stack(wave_sources(dim, u, v)))
        A.append(_wave_diamond(A[m], A[m - 1], S[m], h, out=np.zeros_like(a)))
    return [(m, first, *spinors[m], A[m], S[m]) for m in range(steps + 1)]


def _same_level_states(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[:2] == w[:2]
        for name, a, b in zip(("u", "v", "A", "S"), g[2:], w[2:]):
            assert _same_bits(a, b), (g[0], name)


def _densities_hold(states):
    """Each recorded level's dens holds the bits of |u|^2 and |v|^2."""
    for m, _, u, v, _, _, dens in states:
        assert _same_bits(dens, np.stack((_density(u), _density(v)))), m


def _sweep_with_states(plan):
    """A claim 1-3 `run_sweep` of `plan`, with (fam, grid, window, states) of
    each run: a recorder that declares the read hull of the sweep's
    observers joins them, so the window stays the sweep's own."""
    runs = []

    def evolve_recorded(fam, grid, *, observers):
        rec = _StateRecorder()
        rec.reads = lambda grid: _read_hull(grid, observers)
        traj = evolve(fam, grid, observers=(*observers, rec))
        runs.append((fam, grid, traj.meta["window"], rec.states))
        return traj

    with mock.patch.object(experiments, "evolve", evolve_recorded):
        return run_sweep(plan, claims=("claim1", "claim2", "claim3")), runs


@pytest.mark.parametrize("kind", ["whole_line", "windowed", "sweep"])
@pytest.mark.parametrize("M", [0.0, -0.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_free_transport_path_bitwise_equal_to_the_general_kernels(dim, M, kind):
    # the free path's every level, series, snapshots and meta are those of
    # the general step, both as `evolve` takes it and stepped by hand
    if kind == "sweep":
        plan = SweepPlan(dim=dim, M=M, eps_list=(0.1, 0.07), T=0.05, probes=((0.04, 0.0), (0.03, -0.01)), h_over_eps=4.0)
        with _transport_calls() as calls:
            free, free_runs = _sweep_with_states(plan)
        assert calls == [0]
        with _general_path(), _transport_calls() as calls:
            general, general_runs = _sweep_with_states(plan)
        assert calls[0] > 0
        assert len(free) == len(general) == len(free_runs) == len(general_runs) == 2
        for r1, r2 in zip(free, general):
            assert _same_bits(r1.times, r2.times) and _same_bits(r1.probe_A0, r2.probe_A0)
            assert r1.series.keys() == r2.series.keys() == {"sup_KT_transverse", "claim2_min_ratio"}
            for key in r2.series:
                assert _same_bits(r1.series[key], r2.series[key]), (r1.eps, key)
        # K_T's nodes, inside the support cone: at eps 0.1, L = 2.15 and
        # h = 0.025 put x = -1 and 1 on nodes 46 and 126; at eps 0.07,
        # L = 2.12 and h = 2L/244 put them at nodes 64.45 and 179.55, so
        # the nodes are 65..179
        assert [run[2] for run in free_runs] == [(46, 127, 2), (65, 180, 3)]
        for (fam, grid, window, states), (_, _, window2, states2) in zip(free_runs, general_runs):
            assert window == window2 and window[1] - window[0] < grid.n + 1
            _same_level_states(states, _hand_march(fam, grid, window))
            _same_level_states(states2, states)
            _densities_hold(states)
            _densities_hold(states2)
        return

    grid = GridSpec(L=2.56, n=256, t_max=0.2)
    fam = DataFamily(dim=dim, eps=0.05, M=M)
    cones = None if kind == "whole_line" else [(ConeRegion(-0.6, -0.35), 5), (ConeRegion(0.2, 0.7), grid.steps - 3)]

    def run():
        # snapshots and series of every level on the whole line; a windowed
        # run keeps neither
        rec, snaps, series = _StateRecorder(cones), Snapshots(grid, dim, every_level(grid)), Series(grid, dim)
        traj = evolve(fam, grid, observers=(rec, snaps, series) if cones is None else (rec,))
        return traj, snaps, series.series(), rec.states

    with _transport_calls() as calls:
        free, free_snaps, free_series, free_states = run()
    assert calls == [0]
    with _general_path(), _transport_calls() as calls:
        general, general_snaps, general_series, general_states = run()
    assert calls[0] == grid.steps if kind == "whole_line" else calls[0] > 0
    assert free.meta == general.meta
    assert free_series.keys() == general_series.keys()
    assert (free_series["charge"].size > 0) == (kind == "whole_line")
    for key in general_series:
        assert _same_bits(free_series[key], general_series[key]), key
    if cones is None:
        for name in ("times", "u", "v", "A"):
            assert _same_bits(getattr(free_snaps, name), getattr(general_snaps, name)), name
    _same_level_states(free_states, _hand_march(fam, grid, free.meta["window"]))
    _same_level_states(general_states, free_states)
    _densities_hold(free_states)
    _densities_hold(general_states)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_free_whole_line_series_follow_the_moving_rows(dim):
    # the series sum full-width rows whose rounding depends on where the
    # datum sits: on this grid l1_u and the charge change from level to
    # level, so a free level must refresh |u|^2 and S_0 there, not keep
    # the level-0 rows
    grid = GridSpec(L=2.56, n=1024, t_max=0.2)
    fam = DataFamily(dim=dim, eps=0.03, M=0.0)
    free = series_run(fam, grid)[1]
    with _general_path():
        general = series_run(fam, grid)[1]
    for key in ("charge", "l1_u"):
        assert np.unique(free[key]).size > 1, key
    assert free.keys() == general.keys()
    for key in general:
        assert _same_bits(free[key], general[key]), key


@pytest.mark.parametrize("case", ["massive", "constrained", "v_datum", "u_sign_bit"])
def test_transport_step_runs_off_the_free_path(case):
    # the general step runs unless M == 0, v, a and b are zero and u and v
    # have no sign bit set: u = -0.0 + i (+0.0) or u < 0 would step otherwise
    grid = GridSpec(L=2.56, n=128, t_max=0.12)
    fam = DataFamily(dim=2, eps=0.1, M=0.5 if case == "massive" else 0.0, potential_mode="constrained" if case == "constrained" else "zero")

    def datum(fam, grid):
        u, v = spinor_datum(fam, grid)
        if case == "v_datum":
            v[60:66] = 0.25
        elif case == "u_sign_bit":
            u[64] = -0.0  # the only change: one zero's sign
        return u, v

    with mock.patch.object(cone_solver, "spinor_datum", _on_nodes(datum)), _transport_calls() as calls:
        snapshot_run(fam, grid, (0.0,))
    assert calls == [grid.steps]


# ---------------------------------------------------------------------------
# Dim 3 on first components, held to the two-component march of `lemmas`.
# ---------------------------------------------------------------------------


class _StateRecorder:
    """Keeps a copy of every LevelState field a step computes; declares
    `cones` as its reads when given."""

    def __init__(self, cones=None):
        self.states = []
        if cones is not None:
            self.reads = lambda grid: cone_reads(cones, grid)

    def on_level(self, lev, grid):
        self.states.append((lev.m, lev.first, *(w.copy() for w in (lev.u, lev.v, lev.A, lev.S, lev.dens))))


def _same_states(got, want):
    """`got` from a one-component run, `want` from a two-component run: the
    node rows u, v the same as the first components, whose second
    components are +0.0, and the same marched potential rows A_0, A_1, A_3
    and their sources, whose A_2 is +0.0 and S_2 a zero, and the same
    densities."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        m, first, u, v, A, S, dens = g
        assert (m, first) == w[:2]
        for name, a, b in zip(("u", "v"), (u, v), w[2:4]):
            assert a.ndim == 1 and b.shape == (2, a.size), (m, name)
            assert _same_bits(a, b[0]), (m, name)
            assert _same_bits(b[1], np.zeros_like(b[1])), (m, name)
        assert _same_bits(A, w[4][MARCHED[3]]), (m, "A")
        assert _same_bits(w[4][2], np.zeros_like(w[4][2])), (m, "A_2")
        assert _same_bits(S, w[5][MARCHED[3]]), (m, "S")
        assert not w[5][2].any(), m  # zeros of either sign
        assert _same_bits(dens, w[6]), (m, "dens")


def _snapshots_hold_states(snaps, states):
    """Each level's dim-3 snapshot holds its state's node rows u, v in
    component 0 and its rows A in A_0, A_1, A_3, on the state's window, and
    +0.0 everywhere else."""
    assert len(snaps.times) == len(states)
    for m, first, u, v, A, *_ in states:
        end = first + u.size
        for snap, rows, marched in ((snaps.u[m], [0], u), (snaps.v[m], [0], v), (snaps.A[m], MARCHED[3], A)):
            want = np.zeros_like(snap)
            want[rows, first:end] = marched
            assert _same_bits(snap, want), m


@pytest.mark.parametrize("mode", list(PotentialMode))
@pytest.mark.parametrize("M", [0.0, 1.0])
def test_dim3_first_components_bitwise_equal_to_two_components(mode, M):
    grid = GridSpec(L=2.56, n=256, t_max=0.2)
    fam = DataFamily(dim=3, eps=0.05, M=M, potential_mode=mode)

    def run(*snapshots):
        gauge, rec, series = GaugeMonitor(), _StateRecorder(), Series(grid, 3)
        traj = evolve(fam, grid, observers=(gauge, rec, series, *snapshots))
        return traj, series.series(), gauge.series(), rec.states

    snaps = Snapshots(grid, 3, every_level(grid))
    one, one_series, one_gauge, one_states = run(snaps)
    with march_two_components():
        # no snapshots: a snapshot's component 0 takes a node row, not the
        # reference's two rows; its states stand for them
        two, two_series, two_gauge, two_states = run()
    assert one_states[0][2].ndim == 1 and two_states[0][2].shape[0] == 2
    assert one.meta["window"] == two.meta["window"]
    assert one.meta["window"][0] > 0  # the support cone, with GaugeMonitor too
    assert one_series.keys() == two_series.keys()
    for key in two_series:
        assert _same_bits(one_series[key], two_series[key]), key
    assert _same_bits(one_gauge, two_gauge)
    _same_states(one_states, two_states)
    _snapshots_hold_states(snaps, one_states)


def test_dim3_first_components_in_windowed_runs(monkeypatch):
    grid = GridSpec(L=2.56, n=512, t_max=0.3)
    fam = DataFamily(dim=3, eps=0.05, M=1.0)
    cones = [(ConeRegion(-0.6, -0.35), 5), (ConeRegion(0.2, 0.7), grid.steps - 3)]
    plan = SweepPlan(dim=3, M=1.0, eps_list=(0.1, 0.07), T=0.05, probes=((0.04, 0.0), (0.03, -0.01)), h_over_eps=4.0)
    marched = []

    def spy(*args):
        u, v = real(*args)
        marched.append(u.ndim)
        return u, v

    real = cone_solver.spinor_datum
    monkeypatch.setattr(cone_solver, "spinor_datum", spy)
    rec = _StateRecorder(cones)
    one = evolve(fam, grid, observers=(rec,))
    one_sweep = run_sweep(plan, claims=("claim1", "claim2", "claim3"))
    assert marched == [1, 1, 1]  # node rows
    monkeypatch.undo()
    with march_two_components():
        rec2 = _StateRecorder(cones)
        two = evolve(fam, grid, observers=(rec2,))
        two_sweep = run_sweep(plan, claims=("claim1", "claim2", "claim3"))
    assert one.meta["window"] == two.meta["window"]
    assert one.meta["window"][1] - one.meta["window"][0] < grid.n + 1
    _same_states(rec.states, rec2.states)
    for r1, r2 in zip(one_sweep, two_sweep):
        assert _same_bits(r1.probe_A0, r2.probe_A0)
        assert r1.series.keys() == r2.series.keys()
        for key in r2.series:
            assert _same_bits(r1.series[key], r2.series[key]), (r1.eps, key)


@pytest.mark.parametrize("two", [False, True])
def test_observers_see_the_marched_components(two):
    grid = GridSpec(L=2.56, n=256, t_max=0.1)
    fam = DataFamily(dim=3, eps=0.05, M=1.0)
    with march_two_components() if two else contextlib.nullcontext():
        for rec, whole_line in ((_StateRecorder(), True), (_StateRecorder([(ConeRegion(-0.3, 0.2), 8)]), False)):
            traj = evolve(fam, grid, observers=(rec,))
            assert (_read_hull(grid, (rec,)) == (0, grid.n + 1, grid.steps)) == whole_line
            assert len(rec.states) == traj.meta["window"][2] + 1
            for m, first, u, v, *_ in rec.states:
                assert u.shape[:-1] == v.shape[:-1] == ((2,) if two else ()), m


@pytest.mark.parametrize("field, row", [("u", 1), ("v", 1), ("a", 2), ("b", 2)])
def test_dim3_nonzero_second_component_datum_marches_both(field, row):
    # the reference is no one-row march in disguise: a datum with anything
    # in a second row moves the second components
    grid = GridSpec(L=2.56, n=128, t_max=0.12)
    fam = DataFamily(dim=3, eps=0.1, M=1.0)
    u0, v0 = spinor_datum(fam, grid)
    pad = np.zeros_like(u0)
    a0, b0 = np.zeros((2, 4, grid.n + 1))
    datum = {"u": np.stack([u0, pad]), "v": np.stack([v0, pad]), "a": a0, "b": b0}
    datum[field][row, 60:66] = 0.25
    rec = _StateRecorder()
    with march_two_components(), mock.patch.multiple(
        cone_solver,
        spinor_datum=_on_nodes(lambda fam, grid: (datum["u"], datum["v"])),
        potential_data=_on_nodes(lambda fam, grid: (datum["a"], datum["b"])),
    ):
        evolve(fam, grid, observers=(rec,))
    _, _, u, v, *_ = rec.states[-1]
    assert len(rec.states) == grid.steps + 1 and (u[1].any() or v[1].any())


def test_snapshot_csv_bytes_equal_write_csv(tmp_path):
    grid = GridSpec(L=2.56, n=128, t_max=0.12)
    series = Series(grid, 3)
    snaps = snapshot_run(DataFamily(dim=3, eps=0.1, M=1.0), grid, (0.0, 0.12), observers=(series,))[1]
    paths = trajectory_to_csv(grid, snaps, series, tmp_path / "run", config_hash="cafe")
    for k, t in enumerate(snaps.times.tolist()):
        cols = [grid.nodes()]
        for w in (snaps.u[k], snaps.v[k]):
            for c in range(w.shape[0]):
                cols += [w[c].real, w[c].imag]
        cols += list(snaps.A[k])
        want = tmp_path / f"want_{k}.csv"
        with open(paths[k], "rb") as fh:
            got = fh.read()
        header = got.decode().splitlines()[2].split(",")
        write_csv(want, header, np.column_stack(cols), ("config_hash=cafe", f"t={t!r}"))
        assert got == want.read_bytes()


# 8-byte rows per node that a dim-3 whole-line `evolve` may hold at its peak
# (M = 1, a `Series` and no snapshots, n = 2^14, 16 steps).  Measured with
# tracemalloc on numpy 2.4.6 (x86-64): 32.4 rows when it marches (A_0, A_1,
# A_3) and lets the datum rows and the transport sources go once read, 45.2
# when it marched A_2 too and held them for the whole run
EVOLVE_ROWS = 36


def test_dim3_whole_line_memory_is_a_few_rows():
    grid = GridSpec(L=2.56, n=2**14, t_max=16 * 2.0 * 2.56 / 2**14)
    fam = DataFamily(dim=3, eps=0.01, M=1.0)
    series = Series(grid, 3)
    tracemalloc.start()
    try:
        traj = evolve(fam, grid, observers=(series,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.meta["window"][2] == 16 and "sup_A3" in series.series()  # whole line, 16 steps
    assert peak <= EVOLVE_ROWS * (grid.n + 1) * 8
