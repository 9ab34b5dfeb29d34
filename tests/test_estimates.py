"""Inequality checkers: report mechanics, sharp instances, randomized suites."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, dblquad, quad

from maxdirac1d import DataFamily, EvolveOptions, GridSpec, evolve
from maxdirac1d.cone_solver import dirac_solve
from maxdirac1d.estimates import (
    EstimateReport,
    _hat,
    bootstrap_threshold,
    check_bootstrap_bound,
    check_energy_inequality,
    check_gronwall_l1,
    check_nullform,
    check_wave_estimates,
    l1_exact,
    nullform_refinement,
    run_energy_suite,
    run_nullform_suite,
    run_wave_suite,
    transport_pair,
)
from maxdirac1d.initial_data import CutoffSpec, chi

GRID = GridSpec(L=2.56, n=256, t_max=0.24)
GRID_TALL = GridSpec(L=2.56, n=256, t_max=0.64)


@pytest.fixture(scope="module")
def massless_run():
    fam = DataFamily(dim=2, eps=0.1, M=0.0, potential_mode="zero")
    return evolve(fam, GRID, EvolveOptions(record_history=True))


# ---------------------------------------------------------------------------
# Report mechanics.
# ---------------------------------------------------------------------------


def test_report_pass_and_ratio_conventions():
    assert EstimateReport("a", 1.0, 2.0, 1.0).passed
    assert not EstimateReport("a", 2.1, 2.0, 1.0).passed
    assert EstimateReport("a", 2.1, 2.0, 1.1).passed
    # vacuous bounds: 0/0 counts as satisfied, x/0 as infinitely violated
    assert EstimateReport("a", 0.0, 0.0, 1.0).ratio == 0.0
    assert EstimateReport("a", 1.0, 0.0, 1.0).ratio == math.inf
    assert EstimateReport("a", 1.0, 2.0, 1.0).ratio == 0.5


def test_report_rejects_slack_below_one():
    with pytest.raises(ValueError, match="slack_factor"):
        EstimateReport("a", 1.0, 1.0, 0.99)


def test_report_to_dict_round_trip():
    d = EstimateReport("edge", 3.0, 2.0, 1.6).to_dict()
    assert d == {
        "name": "edge",
        "lhs": 3.0,
        "rhs": 2.0,
        "slack_factor": 1.6,
        "ratio": 1.5,
        "pass": True,
    }


@given(
    lhs=st.floats(0.0, 1e6),
    rhs=st.floats(0.0, 1e6),
    extra=st.floats(0.0, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_report_pass_matches_inequality(lhs, rhs, extra):
    rep = EstimateReport("p", lhs, rhs, 1.0 + extra)
    assert rep.passed == (lhs <= (1.0 + extra) * rhs)


# ---------------------------------------------------------------------------
# Exact L^1 of piecewise-linear interpolants.
# ---------------------------------------------------------------------------


def test_l1_exact_hat():
    assert l1_exact(_hat(GRID, 0.3, 0.24, 1.7), GRID.h) == pytest.approx(
        1.7 * 0.24, abs=1e-14
    )


def test_l1_exact_sign_crossing_cell():
    # the [-1, 1] cell holds two triangles of area h/4 each, not a trapezoid
    h = 0.5
    assert l1_exact([-1.0, 1.0], h) == pytest.approx(h / 2, abs=1e-15)
    assert l1_exact([1.0, 1.0], h) == pytest.approx(h, abs=1e-15)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_l1_exact_matches_dense_resampling(seed):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1.0, 1.0, size=rng.integers(2, 12))
    h = float(rng.uniform(0.05, 1.0))
    xs = h * np.arange(vals.size)
    fine = np.linspace(xs[0], xs[-1], 20001)
    dense = np.trapezoid(np.abs(np.interp(fine, xs, vals)), fine)
    assert l1_exact(vals, h) == pytest.approx(dense, abs=1e-6)


# ---------------------------------------------------------------------------
# Energy inequality.
# ---------------------------------------------------------------------------


def test_energy_equality_for_free_flow():
    x = GRID.nodes()
    u0 = np.exp(-(x**2))[None, :] * (1 + 0j)
    v0 = 0.3 * np.exp(-((x - 0.2) ** 2))[None, :] * (1 + 0j)
    rep = check_energy_inequality(dirac_solve(1, 0.7, GRID, u0, v0, None), GRID)
    # free flow conserves charge, so the bound is saturated
    assert rep.passed
    assert rep.ratio == pytest.approx(1.0, abs=1e-6)


def test_energy_on_trajectory_requires_history(massless_run):
    rep = check_energy_inequality(massless_run)
    assert rep.passed
    fam = DataFamily(dim=2, eps=0.1, M=0.0, potential_mode="zero")
    bare = evolve(fam, GRID)
    with pytest.raises(ValueError, match="record_history"):
        check_energy_inequality(bare)


def test_energy_tuple_requires_grid():
    x = GRID.nodes()
    u0 = np.exp(-(x**2))[None, :] * (1 + 0j)
    res = dirac_solve(1, 0.0, GRID, u0, 0 * u0, None)
    with pytest.raises(ValueError, match="grid"):
        check_energy_inequality(res)


def test_energy_suite_passes():
    reps = run_energy_suite(5, 11)
    assert len(reps) == 5
    assert all(r.passed for r in reps)
    assert reps[0].name == "energy[11,0]"


# ---------------------------------------------------------------------------
# Wave estimates.
# ---------------------------------------------------------------------------


def test_wave_bounds_on_splitting_hat():
    f = _hat(GRID, 0.0, 0.4, 1.5)
    reps = {r.name: r for r in check_wave_estimates(GRID, f, np.zeros_like(f))}
    assert set(reps) == {"wave_sup", "wave_tv", "wave_dt", "wave_combined"}
    assert all(r.passed for r in reps.values())
    # the split halves lose exactly f(h)/f(0) of the peak by the first level
    assert reps["wave_sup"].ratio == pytest.approx(0.95, abs=1e-12)
    assert reps["wave_tv"].ratio == pytest.approx(0.95, abs=1e-12)
    assert reps["wave_dt"].ratio == pytest.approx(0.975, abs=1e-12)
    assert reps["wave_combined"].ratio < 0.5


def test_wave_bounds_sharp_for_velocity_data():
    # W_t = (g(x+t) + g(x-t))/2 with g >= 0 keeps ||W_t||_1 = ||g||_1 exactly,
    # and TV(W) climbs to TV-sharpness once the halves separate
    g = _hat(GRID_TALL, 0.0, 0.2, 1.0)
    reps = {r.name: r for r in check_wave_estimates(GRID_TALL, np.zeros_like(g), g)}
    assert reps["wave_sup"].ratio == pytest.approx(0.5, abs=1e-12)
    assert reps["wave_tv"].ratio == pytest.approx(1.0, abs=1e-12)
    assert reps["wave_dt"].ratio == pytest.approx(1.0, abs=1e-12)
    assert reps["wave_combined"].ratio == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert all(r.passed for r in reps.values())


def test_wave_suite_passes():
    reps = run_wave_suite(10, 11)
    assert len(reps) == 40
    assert all(r.passed for r in reps)


# ---------------------------------------------------------------------------
# Null-form bound.
# ---------------------------------------------------------------------------


def test_transport_pair_translates_data():
    f = _hat(GRID, -0.2, 0.2, 1.0)
    g = _hat(GRID, 0.2, 0.2, 1.0)
    U, V = transport_pair(GRID, f, g, levels=4)
    assert np.array_equal(U[3, 3:], f[:-3] + 0j)
    assert np.array_equal(V[3, :-3], g[3:] + 0j)


def test_nullform_crossing_hats_closed_form():
    # fully crossing transports integrate to ||f||_1 ||g||_1 / 2: the null
    # coordinates carry Jacobian 1/2 and each factor depends on one of them
    f = _hat(GRID_TALL, -0.20, 0.20, 1.0)
    g = _hat(GRID_TALL, 0.20, 0.16, 1.3)
    rep = check_nullform(GRID_TALL, f, g, rhs_norms=(0.2, 0.208, 0.0, 0.0))
    assert abs(rep.lhs - 0.5 * 0.2 * 0.208) < 1e-14
    assert rep.ratio == pytest.approx(0.5, abs=1e-12)
    assert rep.passed


def test_nullform_matches_adaptive_quadrature():
    f = _hat(GRID_TALL, -0.20, 0.20, 1.0)
    g = _hat(GRID_TALL, 0.20, 0.16, 1.3)
    rep = check_nullform(GRID_TALL, f, g, rhs_norms=(0.2, 0.208, 0.0, 0.0))
    T = GRID_TALL.t_max

    def hf(y):
        return max(0.0, 1.0 - abs(y + 0.20) / 0.20)

    def hg(y):
        return 1.3 * max(0.0, 1.0 - abs(y - 0.20) / 0.16)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = dblquad(
            lambda xx, tt: hf(xx - tt) * hg(xx + tt),
            0.0,
            T,
            lambda tt: -(T - tt),
            lambda tt: T - tt,
            epsabs=1e-10,
        )
    assert abs(val - rep.lhs) < 1e-4


def test_nullform_rejects_bad_cones():
    f = _hat(GRID_TALL, 0.0, 0.2, 1.0)
    with pytest.raises(ValueError, match="whole number of steps"):
        check_nullform(GRID_TALL, f, f, T=0.645, rhs_norms=(0, 0, 0, 0))
    with pytest.raises(ValueError, match="grid node"):
        check_nullform(GRID_TALL, f, f, X=2.5, rhs_norms=(0, 0, 0, 0))


def test_nullform_suite_passes():
    reps = run_nullform_suite(50, 11)
    assert len(reps) == 50
    assert all(r.passed for r in reps)
    assert max(r.ratio for r in reps) < 1.0


def test_nullform_refinement_converges():
    expected = {
        0: (0.5000000000, 0.5000000000),
        1: (0.4878970623, 0.4879042817),
        2: (0.4669956014, 0.4670119273),
    }
    for idx, (r1, r2) in expected.items():
        rows = nullform_refinement(idx, factors=(1, 2))
        assert [n for n, _, _ in rows] == [256, 512]
        assert rows[0][1] == pytest.approx(r1, abs=1e-9)
        assert rows[1][1] == pytest.approx(r2, abs=1e-9)
        # slack falls with h while the measured ratio barely moves
        assert rows[0][2] == pytest.approx(1.2, abs=1e-12)
        assert rows[1][2] == pytest.approx(1.1, abs=1e-12)
        assert all(ratio <= slack for _, ratio, slack in rows)


# ---------------------------------------------------------------------------
# Gronwall and bootstrap bounds on solver runs.
# ---------------------------------------------------------------------------


def test_gronwall_saturates_for_longitudinal_flow(massless_run):
    # massless data stays longitudinal: zero transverse rate, conserved L^1
    rep = check_gronwall_l1(massless_run)
    assert rep.passed
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)


def test_gronwall_needs_transverse_potentials():
    fam = DataFamily(dim=1, eps=0.1, M=0.0, potential_mode="zero")
    traj = evolve(fam, GRID, EvolveOptions(record_history=True))
    with pytest.raises(ValueError, match="dim 2 or 3"):
        check_gronwall_l1(traj)


def test_bootstrap_bound_ratio_one_third(massless_run):
    rep = check_bootstrap_bound(massless_run, 0.5)
    # massless transport pins the windowed sup at f_eps(rho)^2 = rhs/3
    assert rep.lhs == pytest.approx(1.0 / math.sqrt(0.1**2 + 0.25), abs=1e-12)
    assert rep.ratio == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.passed


def test_bootstrap_bound_guards(massless_run):
    tall = DataFamily(dim=2, eps=0.1, M=0.0, potential_mode="zero")
    wide = GridSpec(L=2.72, n=272, t_max=0.64)
    traj_tall = evolve(tall, wide, EvolveOptions(record_history=True))
    with pytest.raises(ValueError, match="2\\(M\\+1\\) t_max < 1"):
        check_bootstrap_bound(traj_tall, 0.1)
    with pytest.raises(ValueError, match="rho"):
        check_bootstrap_bound(massless_run, 0.6)
    bare = evolve(tall, GRID)
    with pytest.raises(ValueError, match="record_history"):
        check_bootstrap_bound(bare, 0.5)


# ---------------------------------------------------------------------------
# Smallness constants.
# ---------------------------------------------------------------------------


def test_bootstrap_threshold_frozen_values():
    C, delta = bootstrap_threshold(0.0)
    assert C == pytest.approx(4.891592737678504, abs=1e-9)
    assert delta == pytest.approx(0.020070115081941575, abs=1e-12)


def test_bootstrap_threshold_scales_inversely_with_mass():
    # alpha depends on t(M+1) only, so delta is exactly inversely proportional
    _, d0 = bootstrap_threshold(0.0)
    _, d1 = bootstrap_threshold(1.0)
    assert d1 == pytest.approx(d0 / 2.0, rel=1e-12)


def test_bootstrap_constant_against_weighted_quadrature():
    # same integral via scipy's algebraic-singularity weight, no substitution
    cut = CutoffSpec()
    C_alt = 2.0 * quad(
        lambda s: float(chi(s, cut)), 0.0, cut.outer, weight="alg", wvar=(-0.5, 0.0)
    )[0]
    C, _ = bootstrap_threshold(0.0)
    assert C_alt == pytest.approx(C, abs=1e-10)


def test_bootstrap_threshold_solves_smallness_equation():
    for M in (0.0, 1.0, 3.5):
        C, delta = bootstrap_threshold(M)
        z = delta * (M + 1.0) * math.exp(delta * (M + 1.0))
        assert C * C * (1.0 + z) * z == pytest.approx(0.5, abs=1e-12)
