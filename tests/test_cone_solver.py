"""Characteristic solver: exactness properties, conservation, aborts, export."""

import numpy as np
import pytest

from maxdirac1d import (
    ConeRegion,
    DataFamily,
    EvolveOptions,
    GridSpec,
    PotentialMode,
    SolverAbort,
    charge,
    cone_integral,
    dirac_solve,
    evolve,
    gauge_residual,
    wave_solve,
)
from maxdirac1d.gamma_algebra import spinor_components, spinor_rhs
from maxdirac1d.initial_data import chi, f_eps, spinor_datum
from maxdirac1d.cone_solver import (
    _transport_step,
    characteristic_integrals,
    cone_quadrature,
    free_transport,
    GaugeMonitor,
    shift,
    trajectory_to_csv,
    trapezoid,
)


def hat(x, center, width, amp=1.0):
    return np.clip(amp * (1.0 - np.abs(x - center) / width), 0.0, None)


# ---------------------------------------------------------------------------
# Wave kernel.
# ---------------------------------------------------------------------------


def test_wave_quadratic_source_exact():
    # box A = 1 with zero data has the exact solution A = t^2/2
    grid = GridSpec(L=2.56, n=256, t_max=0.5)
    times, W, Wt = wave_solve(grid, np.zeros(257), np.zeros(257), lambda t, x: np.ones_like(x))
    interior = slice(grid.steps, grid.n + 1 - grid.steps)
    for m in (grid.steps // 2, grid.steps):
        assert np.abs(W[m, interior] - times[m] ** 2 / 2.0).max() < 1e-13


def test_wave_free_hat_exact():
    # unit CFL transports nodal values exactly
    grid = GridSpec(L=2.56, n=256, t_max=0.5)
    x = grid.nodes()
    f = hat(x, -0.3, 0.2)
    times, W, _ = wave_solve(grid, f, np.zeros_like(f))
    m = grid.steps
    t = times[m]
    exact = 0.5 * (np.interp(x - t, x, f) + np.interp(x + t, x, f))
    assert np.abs(W[m] - exact).max() < 1e-14


def test_wave_domain_of_dependence():
    grid = GridSpec(L=2.56, n=256, t_max=0.5)
    x = grid.nodes()
    f = hat(x, -0.3, 0.2)
    _, W, _ = wave_solve(grid, f, np.zeros_like(f))
    far = f + hat(x, 2.0, 0.1)
    _, W2, _ = wave_solve(grid, far, np.zeros_like(f))
    j = int(np.argmin(np.abs(x + 0.3)))
    m = grid.steps
    # the far bump is more than t_max away from the probe
    assert W2[m, j] == W[m, j]


def test_wave_nonfinite_aborts():
    grid = GridSpec(L=2.0, n=64, t_max=0.25)
    f = np.zeros(65)
    f[32] = np.nan
    with pytest.raises(SolverAbort):
        wave_solve(grid, f, np.zeros(65))


# ---------------------------------------------------------------------------
# Spinor transport.
# ---------------------------------------------------------------------------


def test_transport_exact_d1_massless():
    grid = GridSpec(L=2.56, n=512, t_max=0.25)
    fam = DataFamily(dim=1, eps=0.1, M=0.0)
    traj = evolve(fam, grid, EvolveOptions(record_history=True))
    x = grid.nodes()
    t = grid.t_max
    exact = chi(x - t, fam.cutoff) * f_eps(x - t, 0.1)
    got = np.abs(traj.history.u[grid.steps][0])
    assert np.abs(got - exact).max() < 1e-12
    assert np.abs(traj.history.v).max() == 0.0


def test_massless_runs_stay_longitudinal():
    # v == 0 propagates, so the transverse source and field vanish exactly
    traj = evolve(DataFamily(dim=2, eps=0.1, M=0.0), GridSpec(L=2.56, n=512, t_max=0.2))
    assert traj.series["sup_A2"].max() == 0.0
    assert traj.series["l1_v"].max() == 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_charge_conservation(dim):
    grid = GridSpec(L=2.56, n=1024, t_max=0.25)
    traj = evolve(DataFamily(dim=dim, eps=0.1, M=1.0), grid)
    q = traj.series["charge"]
    drift = np.abs(q - q[0]).max() / q[0]
    assert drift < 5e-7


def test_charge_drift_reduces_under_refinement():
    drifts = []
    for n in (1024, 2048):
        traj = evolve(DataFamily(dim=2, eps=0.1, M=1.0), GridSpec(L=2.56, n=n, t_max=0.25))
        q = traj.series["charge"]
        drifts.append(np.abs(q - q[0]).max() / q[0])
    assert 2.5 < drifts[0] / drifts[1] < 6.0


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("with_ext", [False, True])
def test_transport_step_solves_its_implicit_trapezoid_equations(dim, with_ext):
    # u_new[j] - u[j-1] = h/2 (du_old[j-1] + du_new[j]), and the mirror
    # image for v, wherever the stencil has both nodes
    rng = np.random.default_rng(29)
    nc, n1, h, M = spinor_components(dim), 40, 0.05, 0.7

    def spinor():
        return rng.normal(size=(nc, n1)) + 1j * rng.normal(size=(nc, n1))

    u, v = spinor(), spinor()
    A_old, A_new = rng.normal(size=(2, dim + 1, n1))
    ext_old = (spinor(), spinor()) if with_ext else None
    ext_new = (spinor(), spinor()) if with_ext else None
    u1, v1 = _transport_step(dim, M, h, u, v, A_old, A_new, ext_old, ext_new)
    du0, dv0 = spinor_rhs(dim, A_old, u, v, M)
    du1, dv1 = spinor_rhs(dim, A_new, u1, v1, M)
    if with_ext:
        du0, dv0 = du0 + ext_old[0], dv0 + ext_old[1]
        du1, dv1 = du1 + ext_new[0], dv1 + ext_new[1]
    res_u = u1[:, 1:] - u[:, :-1] - 0.5 * h * (du0[:, :-1] + du1[:, 1:])
    res_v = v1[:, :-1] - v[:, 1:] - 0.5 * h * (dv0[:, 1:] + dv1[:, :-1])
    scale = max(np.abs(u1).max(), np.abs(v1).max())
    assert np.abs(res_u).max() <= 1e-13 * scale
    assert np.abs(res_v).max() <= 1e-13 * scale


def test_free_transport_equals_shifted_data():
    rng = np.random.default_rng(31)
    f = rng.normal(size=(2, 12)) + 1j * rng.normal(size=(2, 12))
    g = rng.normal(size=(2, 12)) + 1j * rng.normal(size=(2, 12))
    U, V = free_transport(f, g, 11)
    assert U.shape == V.shape == (12, 2, 12)
    for m in range(12):
        assert np.array_equal(U[m], shift(f, m))
        assert np.array_equal(V[m], shift(g, -m))


def test_dirac_solve_free_conserves_l2():
    grid = GridSpec(L=2.56, n=256, t_max=0.24)
    x = grid.nodes()
    u0 = hat(x, -0.2, 0.15)[None, :].astype(complex)
    v0 = hat(x, 0.3, 0.1)[None, :].astype(complex)
    times, U, V, l2_psi, l2_F = dirac_solve(1, 0.0, grid, u0, v0)
    assert np.abs(l2_psi - l2_psi[0]).max() < 1e-13
    assert np.array_equal(l2_F, np.zeros_like(l2_F))
    # left movers really move left
    m = grid.steps
    assert np.abs(np.abs(V[m]) - hat(x + times[m], 0.3, 0.1)).max() < 1e-13


# ---------------------------------------------------------------------------
# Cone bookkeeping.
# ---------------------------------------------------------------------------


def test_cone_quadrature_of_ones_is_cone_area():
    grid = GridSpec(L=2.56, n=256, t_max=0.64)
    rows = np.ones((grid.steps + 1, grid.n + 1))
    area = cone_quadrature(rows, grid.h, grid.steps, grid.n // 2)
    assert area == pytest.approx(grid.t_max**2, abs=1e-14)


def test_cone_quadrature_out_of_grid():
    grid = GridSpec(L=1.0, n=8, t_max=1.0)
    rows = np.ones((grid.steps + 1, grid.n + 1))
    with pytest.raises(ValueError, match="sticks out"):
        cone_quadrature(rows, grid.h, grid.steps, 0)


def test_cone_integral_against_quadrature():
    grid = GridSpec(L=2.56, n=256, t_max=0.24)
    traj = evolve(DataFamily(dim=2, eps=0.1, M=1.0), grid, EvolveOptions(record_history=True))
    rows = np.abs(traj.history.u[:, 0, :]) ** 2
    region = ConeRegion(-grid.t_max, grid.t_max)
    val = cone_integral(traj, rows, region)
    direct = cone_quadrature(rows, grid.h, grid.steps, grid.n // 2)
    assert val == direct
    with pytest.raises(ValueError, match="grid node"):
        cone_integral(traj, rows, ConeRegion(-0.1234, 0.1234 + 2e-4))


def test_characteristic_integrals_constant():
    h = 0.01
    G = np.ones((21, 101))
    for direction in (+1, -1):
        T = characteristic_integrals(G, h, direction)
        assert T[0].max() == 0.0
        j = 50
        assert T[20, j] == pytest.approx(20 * h, abs=1e-14)


def test_level_of_and_charge_accessor():
    grid = GridSpec(L=2.56, n=256, t_max=0.24)
    traj = evolve(DataFamily(dim=1, eps=0.1), grid)
    assert traj.level_of(0.0) == 0
    assert traj.level_of(grid.t_max) == grid.steps
    with pytest.raises(ValueError):
        traj.level_of(grid.t_max + 1.0)
    assert charge(traj, 0.0) == traj.series["charge"][0]


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
            evolve(fam, grid, EvolveOptions(observers=(mon,)))
            per_n.append(mon.series().max())
        results[mode] = per_n
    coarse, fine = results["constrained"]
    assert coarse / fine > 2.0  # at least first order
    assert fine < 1e-3
    z_coarse, z_fine = results["zero"]
    assert min(z_coarse, z_fine) > 1.0  # no gauge data, no gauge condition


def test_gauge_residual_accessor_needs_history():
    grid = GridSpec(L=3.2, n=256, t_max=0.2)
    fam = DataFamily(dim=1, eps=0.1, potential_mode=PotentialMode.CONSTRAINED)
    traj = evolve(fam, grid)
    with pytest.raises(ValueError):
        gauge_residual(traj, 0.1, ConeRegion(-1.0, 1.0))
    traj = evolve(fam, grid, EvolveOptions(record_history=True))
    val = gauge_residual(traj, 0.1, ConeRegion(-1.0, 1.0))
    assert 0.0 < val < 0.1


# ---------------------------------------------------------------------------
# Aborts.
# ---------------------------------------------------------------------------


def test_abort_on_nonfinite_datum():
    grid = GridSpec(L=2.56, n=64, t_max=0.16)
    fam = DataFamily(dim=1, eps=0.1)
    u0 = np.zeros((1, 65), dtype=complex)
    u0[0, 32] = np.nan
    with pytest.raises(SolverAbort, match="non-finite"):
        evolve(fam, grid, EvolveOptions(datum_override=(u0, np.zeros_like(u0))))


def test_abort_on_boundary_support():
    grid = GridSpec(L=2.56, n=64, t_max=0.16)
    fam = DataFamily(dim=1, eps=0.1)
    u0 = np.zeros((1, 65), dtype=complex)
    u0[0, 1] = 1.0  # inside the guarded band
    with pytest.raises(SolverAbort, match="boundary band"):
        evolve(fam, grid, EvolveOptions(datum_override=(u0, np.zeros_like(u0))))


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

    def finalize(self, traj):
        self.done = True


def test_observer_sees_every_level():
    grid = GridSpec(L=2.56, n=128, t_max=0.2)
    obs = _LevelCounter()
    traj = evolve(DataFamily(dim=1, eps=0.1), grid, EvolveOptions(observers=(obs,)))
    assert obs.times == [m * grid.h for m in range(grid.steps + 1)]
    assert obs.done
    assert traj.times.size == grid.steps + 1


def test_snapshots_and_csv_export(tmp_path):
    grid = GridSpec(L=2.56, n=256, t_max=0.2)
    opts = EvolveOptions(snapshot_times=(0.0, 0.1, 0.2))
    traj = evolve(DataFamily(dim=2, eps=0.1, M=1.0), grid, opts)
    assert [s.t for s in traj.snapshots] == [0.0, pytest.approx(0.1), pytest.approx(0.2)]
    paths = trajectory_to_csv(traj, tmp_path, config_hash="cafe")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["diagnostics.csv", "snapshot_000.csv", "snapshot_001.csv", "snapshot_002.csv"]
    first = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert first[0] == "# config_hash=cafe"
    header = first[1].split(",")
    assert header[0] == "t" and "charge" in header


def test_snapshot_time_outside_slab():
    grid = GridSpec(L=2.56, n=128, t_max=0.2)
    with pytest.raises(ValueError, match="snapshot"):
        evolve(DataFamily(dim=1, eps=0.1), grid, EvolveOptions(snapshot_times=(0.5,)))


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
        return self.cones

    def on_level(self, lev, grid):
        self.levels.append((lev.m, lev.first, lev.u.copy(), lev.v.copy(), lev.A.copy()))


def _cone_sets(grid):
    h = grid.h
    return [
        [(ConeRegion(-1.0, 1.0), grid.steps)],  # K_T up to T, as claims 1 and 2 read
        [(ConeRegion(0.013 - 9 * h, 0.021 + 9 * h), 9)],  # off-lattice, probe-sized
        [(ConeRegion(-0.6, -0.35), 5), (ConeRegion(0.2, 0.7), grid.steps - 3)],
    ]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("mode", list(PotentialMode))
@pytest.mark.parametrize("M", [0.0, 1.0])
def test_window_bitwise_equal_to_full_grid_inside_declared_cones(dim, mode, M):
    grid = GridSpec(L=2.56, n=512, t_max=0.3)
    fam = DataFamily(dim=dim, eps=0.05, M=M, potential_mode=mode)
    hist = evolve(fam, grid, EvolveOptions(record_history=True)).history
    x = grid.nodes()
    for cones in _cone_sets(grid):
        rec = _ConeRecorder(cones)
        traj = evolve(fam, grid, EvolveOptions(observers=(rec,)))
        first, end, last = traj.meta["window"]
        assert end - first < grid.n + 1
        assert last == max(level for _, level in cones)
        assert [m for m, *_ in rec.levels] == list(range(last + 1))
        compared = 0
        for m, lev_first, u, v, A in rec.levels:
            assert lev_first == first
            for region, top in cones:
                if m > top:
                    continue
                lo, hi = region.cross_section(m * grid.h)
                nodes = np.nonzero((x >= lo - 1e-9) & (x <= hi + 1e-9))[0]
                local = nodes - first
                assert np.array_equal(u[:, local], hist.u[m][:, nodes])
                assert np.array_equal(v[:, local], hist.v[m][:, nodes])
                assert np.array_equal(A[:, local], hist.A[m][:, nodes])
                compared += nodes.size
        assert compared > 0


def test_meta_records_window_and_node_steps():
    grid = GridSpec(L=2.56, n=256, t_max=0.2)
    fam = DataFamily(dim=2, eps=0.1)
    full = evolve(fam, grid, EvolveOptions(observers=(_LevelCounter(),)))
    assert full.meta == {"window": (0, 257, grid.steps), "node_steps": 257 * grid.steps}
    assert "charge" in full.series

    # base [-0.205, 0.205] spans nodes 117.75..138.25: nodes 117..139 plus
    # one margin node per side
    rec = _ConeRecorder([(ConeRegion(-0.205, 0.205), 6)])
    win = evolve(fam, grid, EvolveOptions(observers=(rec,)))
    assert win.meta == {"window": (116, 141, 6), "node_steps": 25 * 6}
    assert win.series == {}
    assert win.times.size == 7
    with pytest.raises(ValueError, match="full-grid"):
        charge(win, 0.0)


def test_window_falls_back_to_full_grid():
    grid = GridSpec(L=2.56, n=128, t_max=0.2)
    fam = DataFamily(dim=1, eps=0.1)
    cone = [(ConeRegion(-0.2, 0.2), 3)]
    for opts in (
        EvolveOptions(observers=(_ConeRecorder(cone),), record_history=True),
        EvolveOptions(observers=(_ConeRecorder(cone),), snapshot_times=(0.1,)),
        EvolveOptions(observers=(_ConeRecorder(cone), GaugeMonitor((-1.0, 1.0)))),
        EvolveOptions(observers=(_ConeRecorder(cone), _LevelCounter())),
    ):
        assert evolve(fam, grid, opts).meta["window"] == (0, 129, grid.steps)


def test_abort_on_nonfinite_inside_window():
    grid = GridSpec(L=2.56, n=64, t_max=0.16)
    fam = DataFamily(dim=1, eps=0.1)
    u0 = np.zeros((1, 65), dtype=complex)
    u0[0, 30] = np.nan
    rec = _ConeRecorder([(ConeRegion(-0.5, 0.5), 2)])
    with pytest.raises(SolverAbort, match="non-finite"):
        evolve(fam, grid, EvolveOptions(datum_override=(u0, np.zeros_like(u0)), observers=(rec,)))
