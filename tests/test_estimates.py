"""Inequality checkers: report mechanics, sharp instances, randomized suites."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, dblquad, quad

from maxdirac1d import DataFamily, GridSpec, evolve
from maxdirac1d.cone_solver import Series, cone_quadrature, cumulative_trapezoid, shift
from maxdirac1d.estimates import (
    EstimateReport,
    _cone_height,
    _hat,
    _solve_energy,
    _solve_nullform,
    _solve_wave,
    _wave_reports,
    bootstrap_threshold,
    check_suite_grid,
    l1_exact,
    nullform_refinement,
    random_energy_instance,
    random_nullform_instance,
    random_wave_instance,
    run_energy_suite,
    run_nullform_suite,
    run_wave_suite,
    suite_grid,
    transport_pair,
)
from maxdirac1d.initial_data import CutoffSpec, chi

from lemmas import (
    check_bootstrap_bound,
    check_energy_inequality,
    check_gronwall_l1,
    check_nullform,
    dirac_solve,
    level_arrays,
    pw_source,
    snapshot_run,
)

GRID = GridSpec(L=2.56, n=256, t_max=0.24)
GRID_TALL = GridSpec(L=2.56, n=256, t_max=0.64)
MASSLESS = DataFamily(dim=2, eps=0.1, M=0.0, potential_mode="zero")  # the family of `massless_run`


@pytest.fixture(scope="module")
def massless_run():
    """(trajectory, snapshots of every level, series) of a massless run on GRID."""
    series = Series(GRID, MASSLESS.dim)
    return (*snapshot_run(MASSLESS, GRID, observers=(series,)), series)


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
    u0 = np.exp(-(x**2)) * (1 + 0j)
    v0 = 0.3 * np.exp(-((x - 0.2) ** 2)) * (1 + 0j)
    rep = check_energy_inequality(dirac_solve(1, 0.7, GRID, u0, v0, None), GRID)
    # free flow conserves charge, so the bound is saturated
    assert rep.passed
    assert rep.ratio == pytest.approx(1.0, abs=1e-6)


def test_energy_on_trajectory_requires_history(massless_run):
    traj, snaps, series = massless_run
    rep = check_energy_inequality(traj, GRID, snaps=snaps, series=series)
    assert rep.passed
    bare = evolve(MASSLESS, GRID)
    with pytest.raises(ValueError, match="snapshot at every level"):
        check_energy_inequality(bare, GRID)
    with pytest.raises(ValueError, match="needs its series"):
        check_energy_inequality(traj, GRID, snaps=snaps)


def test_energy_tuple_requires_grid():
    x = GRID.nodes()
    u0 = np.exp(-(x**2)) * (1 + 0j)
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


def wave_reports(grid, f, g, source):
    """The four wave reports of one instance: `_wave_reports` on a stack of one."""
    return _wave_reports(grid, f[None], g[None], source[:, None])[0]


def test_wave_bounds_on_splitting_hat():
    f = _hat(GRID, 0.0, 0.4, 1.5)
    zero = np.zeros((GRID.steps + 1, f.size))
    reps = {r.name: r for r in wave_reports(GRID, f, np.zeros_like(f), zero)}
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
    zero = np.zeros((GRID_TALL.steps + 1, g.size))
    reps = {r.name: r for r in wave_reports(GRID_TALL, np.zeros_like(g), g, zero)}
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
    U, V = level_arrays(transport_pair(GRID, f, g, levels=4))
    assert np.array_equal(U[3, 3:], f[:-3] + 0j)
    assert np.array_equal(V[3, :-3], g[3:] + 0j)
    # batch axes, and levels past the row width, which leave all-zero rows
    rng = np.random.default_rng(31)
    f = rng.normal(size=(2, 12)) + 1j * rng.normal(size=(2, 12))
    g = rng.normal(size=(2, 12)) + 1j * rng.normal(size=(2, 12))
    U, V = level_arrays(transport_pair(GRID, f, g, levels=14))
    assert U.shape == V.shape == (15, 2, 12)
    for m in range(15):
        assert np.array_equal(U[m], shift(f, m))
        assert np.array_equal(V[m], shift(g, -m))
        # into a reused array, whatever it held
        assert np.array_equal(U[m], shift(f, m, out=np.full_like(f, np.nan)))
        assert np.array_equal(V[m], shift(g, -m, out=np.full_like(g, np.nan)))
    assert not U[12:].any() and not V[12:].any()


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
    series = massless_run[2]
    rep = check_gronwall_l1(MASSLESS, GRID, series)
    assert rep.passed
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)


def test_gronwall_needs_transverse_potentials():
    fam = DataFamily(dim=1, eps=0.1, M=0.0, potential_mode="zero")
    with pytest.raises(ValueError, match="dim 2 or 3"):
        check_gronwall_l1(fam, GRID)
    with pytest.raises(ValueError, match="series of a whole-line run"):
        check_gronwall_l1(MASSLESS, GRID)


def test_bootstrap_bound_ratio_one_third(massless_run):
    snaps = massless_run[1]
    rep = check_bootstrap_bound(MASSLESS, GRID, 0.5, snaps)
    # massless transport pins the windowed sup at f_eps(rho)^2 = rhs/3
    assert rep.lhs == pytest.approx(1.0 / math.sqrt(0.1**2 + 0.25), abs=1e-12)
    assert rep.ratio == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.passed


def test_bootstrap_bound_guards(massless_run):
    snaps = massless_run[1]
    wide = GridSpec(L=2.72, n=272, t_max=0.64)
    snaps_tall = snapshot_run(MASSLESS, wide)[1]
    with pytest.raises(ValueError, match="2\\(M\\+1\\) t_max < 1"):
        check_bootstrap_bound(MASSLESS, wide, 0.1, snaps_tall)
    with pytest.raises(ValueError, match="rho"):
        check_bootstrap_bound(MASSLESS, GRID, 0.6, snaps)
    with pytest.raises(ValueError, match="snapshot at every level"):
        check_bootstrap_bound(MASSLESS, GRID, 0.5)


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


# ---------------------------------------------------------------------------
# Batched suites against single-instance checks.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mt", [2, GRID_TALL.steps // 2, GRID_TALL.steps])
@pytest.mark.parametrize("edge", ["left", "right"])
def test_cone_local_solve_bitwise_equal_to_full_row_inside_cone(mt, edge):
    grid = GRID_TALL
    jX = mt if edge == "left" else grid.n - mt
    rng = np.random.default_rng([mt, jX])

    def rows(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    f, g = rows(grid.n + 1), rows(grid.n + 1)
    F, G = rows(mt + 1, grid.n + 1), rows(mt + 1, grid.n + 1)
    U, V = level_arrays(transport_pair(grid, f, g, F, G, levels=mt))
    base = slice(jX - mt, jX + mt + 1)
    Uc, Vc = level_arrays(transport_pair(grid, f[base], g[base], F[:, base], G[:, base], levels=mt))
    for lev in range(mt + 1):
        inside = slice(jX - mt + lev, jX + mt - lev + 1)
        assert np.array_equal(Uc[lev, lev : 2 * mt - lev + 1], U[lev, inside])
        assert np.array_equal(Vc[lev, lev : 2 * mt - lev + 1], V[lev, inside])
    rep = check_nullform(
        grid, f, g, F, G, T=mt * grid.h, X=-grid.L + jX * grid.h, rhs_norms=(1.0, 1.0, 0.0, 0.0)
    )
    assert rep.lhs == cone_quadrature(np.abs(U) * np.abs(V), grid.h, mt, jX)


def _nullform_check_of(inst, grid, mt):
    """check_nullform on the whole rows of one drawn nullform instance."""
    h = grid.h
    times = h * np.arange(mt + 1)
    norms = [l1_exact(inst[slot][0], h) for slot in ("f", "g")]
    sources = []
    for slot in ("F", "G"):
        prof, env, phase = inst[slot]
        norms.append(cumulative_trapezoid(env * l1_exact(prof, h), h)[-1])
        sources.append(pw_source(prof, env, phase, h, times))
    return check_nullform(
        grid,
        inst["f"][0] * inst["f"][1],
        inst["g"][0] * inst["g"][1],
        *sources,
        T=mt * h,
        X=-grid.L + inst["jX"] * h,
        rhs_norms=tuple(norms),
    )


@pytest.mark.parametrize("suite", ["energy", "wave", "nullform"])
def test_batched_suites_equal_single_instance_checks(suite):
    grid, seed, count = suite_grid(suite), 4, 12
    run = {"energy": run_energy_suite, "wave": run_wave_suite, "nullform": run_nullform_suite}
    batched = run[suite](count, seed, grid)
    single = []
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        if suite == "energy":
            inst = random_energy_instance(rng, grid, grid.steps)
            # the level arrays of the separable sources, built whole
            inst["F"] = tuple(fb * e[:, None] for fb, e in inst["F"])
            reps = [check_energy_inequality(dirac_solve(grid=grid, dim=1, **inst), grid)]
        elif suite == "wave":
            inst = random_wave_instance(rng, grid, grid.steps)
            prof, env = inst.pop("source")
            times = grid.h * np.arange(grid.steps + 1)
            reps = wave_reports(grid, source=pw_source(prof, env, 1.0, grid.h, times), **inst)
        else:
            mt = _cone_height(rng, grid)
            reps = [_nullform_check_of(random_nullform_instance(rng, grid, mt), grid, mt)]
        single += [(f"{r.name}[{seed},{k}]", r.lhs, r.rhs) for r in reps]
    assert [(r.name, r.lhs, r.rhs) for r in batched] == single


@pytest.mark.parametrize(
    "suite, edge, beyond",
    [
        ("wave", dict(L=2.05, n=82, t_max=0.05), dict(L=2.0, n=80, t_max=0.05)),
        ("nullform", dict(L=2.05, n=82, t_max=2.05), dict(L=2.05, n=82, t_max=2.1)),
        ("nullform", dict(L=2.56, n=256, t_max=0.04), dict(L=2.56, n=256, t_max=0.02)),
        ("energy", dict(L=2.56, n=128, t_max=1.32), dict(L=2.56, n=128, t_max=1.4)),
    ],
)
def test_suite_grid_bounds_are_exact(suite, edge, beyond):
    # every seed draws on the edge grid; a grid just beyond is refused up front
    run = {"energy": run_energy_suite, "wave": run_wave_suite, "nullform": run_nullform_suite}
    grid = GridSpec(**edge)
    check_suite_grid(suite, grid)
    assert all(r.passed for r in run[suite](20, 1, grid))
    with pytest.raises(ValueError, match=f"grid: the {suite} suite"):
        check_suite_grid(suite, GridSpec(**beyond))


# ---------------------------------------------------------------------------
# Memory: every solve marches one level at a time.
# ---------------------------------------------------------------------------

# complex rows of the grid's n + 1 nodes that one solve may hold at once,
# whatever its level count: a level array of any of these solves holds
# hundreds of them
ROWS = 64


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("index", [0, 1, 2])
def test_refinement_memory_is_a_few_rows(index):
    # at factor 16 the grid has n = 4096 and the cone 513 levels
    row = (16 * suite_grid("nullform").n + 1) * 16
    assert traced_peak(lambda: nullform_refinement(index, factors=(1, 16))) <= ROWS * row


@pytest.mark.parametrize("suite", ["energy", "wave", "nullform"])
def test_suite_batch_memory_is_a_few_rows(suite):
    # one batch on an n = 4096 grid, which holds one instance there: 193
    # levels for energy and wave, a cone of 513 for nullform
    draw, solve = {
        "energy": (random_energy_instance, _solve_energy),
        "wave": (random_wave_instance, _solve_wave),
        "nullform": (random_nullform_instance, _solve_nullform),
    }[suite]
    grid = GridSpec(L=2.56, n=4096, t_max=0.64 if suite == "nullform" else 0.24)
    check_suite_grid(suite, grid)
    insts = [draw(np.random.default_rng([0, 0]), grid, grid.steps)]
    assert traced_peak(lambda: solve(grid, grid.steps, insts)) <= ROWS * (grid.n + 1) * 16

