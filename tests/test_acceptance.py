"""Release gates for the whole laboratory, one test per gate.

These are heavier than the unit suites: the campaign fixture runs the
default sweep in four (dim, mass) cells and the blow-up gate drives the
epsilon ladder down to 10^-3.5 twice.  The full file took 14.9 s on a
2-core x86-64 box (numpy 2.4.6), 11.2 s of it in the campaign fixture;
test_criterion_09 took 0.01 s and the deep massless ladder 0.17 s, since
their probe-only massless sweeps march nothing.  Every numeric tolerance
is stated inline next to the measurement it guards; wall-clock budgets
are asserted where a gate has one.
"""

import math
import time
import timeit

import numpy as np
import pytest
from scipy.integrate import quad

from maxdirac1d import DataFamily, GridSpec, evolve
from maxdirac1d.cone_solver import wave_solve
from maxdirac1d.estimates import nullform_refinement, run_nullform_suite
from maxdirac1d.experiments import (
    SweepPlan,
    check_claim1,
    check_claim2,
    check_claim3,
    gauss_divergence,
    run_sweep,
)
from maxdirac1d.gamma_algebra import gamma_matrices, verify_clifford
from maxdirac1d.initial_data import chi, f_eps

from lemmas import GaugeMonitor, a0_exact
from picard import picard_solve

CAMPAIGN_CELLS = ((2, 0.0), (2, 1.0), (3, 0.0), (3, 1.0))

# relative error of a massless run's probe A_0 against `a0_exact`.  It is
# second order in h/eps (a quarter at h = eps/32 of that at eps/16) and falls
# with eps, so the largest eps at h = eps/16 sets the bound.  The worst
# measured errors, all at eps = 1e-2, are 8.1e-5 on the campaign probes and
# 1.8e-5 and 4.4e-6 on criterion 09's (h = eps/16 and eps/32).
A0_REL_TOL = 1e-4


def assert_a0_exact(probes, eps_list, a0):
    """a0[k, j], the probe A_0 of probe k in the run of eps_list[j], is
    `a0_exact` to A0_REL_TOL."""
    for k, (t, x) in enumerate(probes):
        for j, eps in enumerate(eps_list):
            exact = a0_exact(t, x, eps)
            assert abs(a0[k, j] - exact) <= A0_REL_TOL * exact, (t, x, eps)


@pytest.fixture(scope="module")
def campaign():
    """The campaign at T = 0.05 (inside every smallness guard) on the eps
    ladder 1e-2, 1e-2.5, 1e-3, in every supported (dim, mass) cell."""
    out = {}
    for dim, M in CAMPAIGN_CELLS:
        plan = SweepPlan(dim, M, eps_list=(1e-2, 10**-2.5, 1e-3), T=0.05)
        out[(dim, M)] = (plan, run_sweep(plan))
    return out


def test_criterion_01_clifford_relations_exact_and_fast():
    """Anticommutators reproduce the metric exactly, in under 1 ms."""
    for d in (1, 2, 3):
        rep = verify_clifford(gamma_matrices(d))
        assert rep.ok
        assert rep.max_deviation == 0.0  # integer-entry matrices, no roundoff
        best = min(
            timeit.repeat(lambda: verify_clifford(gamma_matrices(d)), number=1, repeat=5)
        )
        assert best < 1e-3


def test_criterion_02_wave_solver_manufactured_and_second_order():
    t0 = time.monotonic()

    # Unit source, zero data: W(t, x) = t^2 / 2 wherever the dependence
    # cone misses the zero-filled boundary, and there the scheme is exact.
    grid = GridSpec(L=2.56, n=256, t_max=0.24)
    zero = np.zeros(grid.n + 1)
    times, W, Wt = wave_solve(grid, zero, zero, np.ones((grid.steps + 1, grid.n + 1)))
    x = grid.nodes()
    worst = 0.0
    for m, t in enumerate(times):
        interior = np.abs(x) <= grid.L - t - 2.0 * grid.h
        worst = max(worst, np.abs(W[m][interior] - 0.5 * t * t).max())
    assert worst < 1e-12

    # Three dyadic refinements of the coupled solve; successive final-level
    # differences must shrink at order >= 1.9.
    sols = {}
    for n in (512, 1024, 2048):
        gr = GridSpec(L=2.56, n=n, t_max=0.1)
        fam = DataFamily(dim=2, eps=0.1, M=1.0)
        hist = evolve(fam, gr, snapshot_times=gr.h * np.arange(gr.steps + 1)).snapshots
        sols[n] = (np.asarray(hist.u[-1]), np.asarray(hist.v[-1]), np.asarray(hist.A[-1]))

    def supdiff(coarse, fine):
        return max(np.abs(coarse[k] - fine[k][..., ::2]).max() for k in range(3))

    e1 = supdiff(sols[512], sols[1024])
    e2 = supdiff(sols[1024], sols[2048])
    order = math.log2(e1 / e2)
    assert order >= 1.9
    assert time.monotonic() - t0 < 60.0


def test_criterion_03_charge_drift_below_tolerance_and_second_order():
    drifts = {}
    for n in (4096, 8192):
        grid = GridSpec(L=2.56, n=n, t_max=0.25)
        traj = evolve(DataFamily(dim=2, eps=0.1, M=1.0), grid)
        q = traj.series["charge"]
        drifts[n] = float(np.max(np.abs(q - q[0])) / q[0])
    assert drifts[8192] <= 1e-6
    # quadratic scheme: one doubling should cut the drift roughly 4x
    assert 2.5 < drifts[4096] / drifts[8192] < 6.0


def test_criterion_04_free_transport_modulus_tracks_profile():
    """Massless, potential-free runs transport |u| along x - t = const."""
    for n in (512, 1024):
        grid = GridSpec(L=2.56, n=n, t_max=0.16)
        fam = DataFamily(dim=1, eps=0.1, M=0.0, potential_mode="zero")
        traj = evolve(fam, grid, snapshot_times=grid.h * np.arange(grid.steps + 1))
        hist = traj.snapshots
        x = grid.nodes()
        dev_u = dev_v = 0.0
        for m, t in enumerate(traj.times):
            ref = chi(x - t) * f_eps(x - t, 0.1)
            dev_u = max(dev_u, np.abs(np.abs(hist.u[m][0]) - ref).max())
            dev_v = max(dev_v, np.abs(hist.v[m]).max())
        # same constant at both resolutions: the bound C h^2 is stable
        assert dev_u <= 5.0 * grid.h**2
        assert dev_v <= 1e-12


def test_criterion_05_gauge_residual_constrained_decays_zero_does_not():
    residual = {}
    for mode in ("constrained", "zero"):
        per_n = []
        for n in (512, 1024, 2048):
            grid = GridSpec(L=3.2, n=n, t_max=0.2)
            fam = DataFamily(dim=1, eps=0.1, potential_mode=mode)
            mon = GaugeMonitor((-1.0, 1.0))
            evolve(fam, grid, observers=(mon,))
            per_n.append(float(mon.series().max()))
        residual[mode] = per_n
    con = residual["constrained"]
    for coarse, fine in zip(con, con[1:]):
        assert coarse / fine >= 1.5  # at least first-order decrease
        assert coarse <= 10.0 * fine  # within 10x of the refined reference
    # no constraint solve, no Lorenz condition: residual stays order one
    assert min(residual["zero"]) > 1.0


def test_criterion_06_nullform_suite_and_refinement_ladder():
    t0 = time.monotonic()
    reports = run_nullform_suite(1000, 42)
    assert len(reports) == 1000
    assert all(r.passed for r in reports)
    assert max(r.ratio for r in reports) < 1.0

    for index in range(3):
        rows = nullform_refinement(index)
        ratios = [r for _, r, _ in rows]
        slacks = [s for _, _, s in rows]
        assert all(r <= s for r, s in zip(ratios, slacks))
        assert slacks == sorted(slacks, reverse=True)  # slack tightens toward 1
        assert slacks[-1] <= 1.05
    assert time.monotonic() - t0 < 120.0


def test_criterion_07_transverse_potentials_stay_bounded(campaign):
    """sup over the slab of |A_2| (+ |A_3| in dim 3) never exceeds 1."""
    for (dim, M), (plan, results) in campaign.items():
        for verdict in check_claim1(results, plan):
            assert verdict["applicable"]
            assert verdict["pass"]
            assert verdict["sup"] <= 1.0
            # recorded level times accumulate in float steps of h
            assert verdict["largest_T_ok"] >= plan.T - 1e-12


def test_criterion_08_modulus_floor_holds_for_every_eps(campaign):
    for (dim, M), (plan, results) in campaign.items():
        for verdict in check_claim2(results, plan):
            assert verdict["floor_factor"] > 0.0  # resolved regime, h << eps
            assert verdict["min_ratio"] >= verdict["floor_factor"]
            assert verdict["pass"]


def test_claim3_probes_of_massless_runs_match_the_closed_form(campaign):
    for (dim, M), (plan, results) in campaign.items():
        if M == 0.0:
            assert_a0_exact(plan.probes, plan.eps_list, np.stack([rec.probe_A0 for rec in results], axis=1))


def test_claims_1_and_2_are_exact_on_the_massless_campaign(campaign):
    """At M = 0 claims 1 and 2 have exact values: A_2 (and A_3) stay zero,
    and |psi|^2 is the datum moved one node per level, twice the floor
    0.5 f_eps(x - t)^2 where the cutoff is 1."""
    for (dim, M), (plan, results) in campaign.items():
        if M != 0.0:
            continue
        for verdict in check_claim1(results, plan):
            assert verdict["sup"] == 0.0
        for verdict in check_claim2(results, plan):
            # the floor is taken at the float x - t, the moved datum at the
            # node x - t lands on; the two differ by six roundings of
            # numbers below 2L < 4.5, each at most 2^-51, and f_eps^2 moves
            # by at most dx / (2 eps) relative for a shift dx.  Eight more
            # units of 2^-52 cover the roundings of the ratio itself.  The
            # measured gaps, 4.1e-14, 1.2e-13 and 3.2e-13 at eps 1e-2,
            # 10^-2.5 and 1e-3, grow like 1/eps as the bound does.
            bound = 2.0 * (6 * 2.0**-51 / (2.0 * verdict["eps"]) + 8 * 2.0**-52)
            assert abs(verdict["min_ratio"] - 2.0) <= bound, (dim, verdict)


def test_claim3_deep_massless_ladder_matches_the_closed_form():
    """Claim 3 at eps 1e-4 and 10^-4.5, h = eps/64, at the default probes:
    grids of up to n = 8,500,204 nodes, which a probe-only massless sweep
    reads through the characteristic sum (`cone_solver.free_a0`) without
    marching them.  Budget: 10 s for both runs in all three dims."""
    t0 = time.monotonic()
    for dim in (1, 2, 3):
        plan = SweepPlan(dim, 0.0, eps_list=(1e-4, 10**-4.5), T=0.05, h_over_eps=64.0)
        results = run_sweep(plan, claims=("claim3",))
        assert [rec.n for rec in results] == [2_688_000, 8_500_204]
        assert_a0_exact(plan.probes, plan.eps_list, np.stack([rec.probe_A0 for rec in results], axis=1))
        assert check_claim3(results, plan).passed, dim
    assert time.monotonic() - t0 < 10.0


def test_claim3_in_the_constrained_mode_matches_the_closed_form():
    """The constrained datum also starts from a_0 = b_0 = 0: probe-only
    claim-3 sweeps hold its probes to `a0_exact` and pass the verdict."""
    for dim in (1, 2, 3):
        plan = SweepPlan(dim, 0.0, eps_list=(1e-2, 10**-2.5), T=0.05, potential_mode="constrained")
        results = run_sweep(plan, claims=("claim3",))
        assert_a0_exact(plan.probes, plan.eps_list, np.stack([rec.probe_A0 for rec in results], axis=1))
        assert check_claim3(results, plan).passed, dim


def _log_bound_coarse_tail(t, x, eps):
    # closed-form lower bound with the coarser eps/2 tail constant; the
    # library's a0_lower_bound keeps the self-consistent eps/8 version,
    # which is larger, so passing both is a strict check
    s = x + t
    return (
        s / 8.0 * (-math.log(eps))
        + (eps + s) / 8.0 * (math.log(eps + s) - 1.0)
        - eps / 2.0 * (math.log(eps) - 1.0)
    )


def test_criterion_09_a0_blowup_logarithmic_in_eps():
    """A_0 at an interior probe grows like log(1/eps), slope at least
    (x + t)/8, and the fitted slope is resolution-stable to 2%."""
    t0 = time.monotonic()
    probe = (0.04, 0.0)
    eps_list = (1e-2, 10**-2.5, 1e-3, 10**-3.5)
    fits = {}
    for h_over_eps in (16.0, 32.0):
        plan = SweepPlan(
            dim=2,
            M=0.0,
            eps_list=eps_list,
            T=0.05,
            h_over_eps=h_over_eps,
            probes=(probe,),
        )
        fits[h_over_eps] = check_claim3(run_sweep(plan, claims=("claim3",)), plan)

    for found in fits.values():
        assert_a0_exact((probe,), found.eps, found.a0)
    fit = fits[16.0]
    assert fit.lower_ok.all()
    for j, eps in enumerate(fit.eps):
        assert fit.a0[0, j] >= _log_bound_coarse_tail(probe[0], probe[1], eps)
    assert fit.monotone.all()
    assert fit.slopes[0] >= 0.005  # (x + t)/8 for this probe
    assert fit.passed

    rel_change = abs(fits[32.0].slopes[0] - fit.slopes[0]) / fit.slopes[0]
    assert rel_change < 0.02
    assert time.monotonic() - t0 < 600.0


def _bump(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < 1.0, np.cos(0.5 * np.pi * x) ** 2, 0.0)


def _node(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < 1.0, np.sin(np.pi * x) ** 2, 0.0)


def test_criterion_10_gauss_pairing_slope_and_node_convergence():
    eps_list = (1e-2, 10**-2.5, 1e-3)
    div = gauss_divergence(eps_list, _bump)
    assert abs(div["slope"] - div["expected_slope"]) <= 0.05 * div["expected_slope"]
    for eps, pairing in zip(eps_list, div["pairing"]):
        ref = quad(
            lambda s: math.cos(0.5 * math.pi * s) ** 2 / math.sqrt(eps * eps + s * s),
            -1.0,
            1.0,
            points=[0.0],
            limit=200,
        )[0]
        assert pairing == pytest.approx(ref, rel=1e-8)

    conv = gauss_divergence(eps_list, _node)
    assert conv["phi0"] == 0.0
    diffs = np.abs(np.asarray(conv["diffs"]))
    assert (np.diff(diffs) < 0).all()  # pairing settles once phi(0) = 0


def test_criterion_11_picard_matches_marching_solver():
    grid = GridSpec(L=2.56, n=512, t_max=0.1)
    fam = DataFamily(dim=2, eps=0.1, M=0.0)
    tol = 1e-10
    res = picard_solve(fam, grid, 0.1, tol=tol)
    hist = evolve(fam, grid, snapshot_times=grid.h * np.arange(grid.steps + 1)).snapshots

    bound = max(5.0 * grid.h**2, 10.0 * tol)
    levels = range(grid.steps + 1)
    assert max(np.abs(res.U[m] - hist.u[m]).max() for m in levels) <= bound
    assert max(np.abs(res.V[m] - hist.v[m]).max() for m in levels) <= bound
    assert max(np.abs(res.A[m] - hist.A[m]).max() for m in levels) <= bound

    # geometric contraction of the iteration increments
    for prev, cur in zip(res.distances, res.distances[1:]):
        assert cur <= 0.6 * prev
