"""Sweep campaigns: planning, claim checkers, persistence, Gauss pairing."""

import contextlib
import json
import math
import os
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad

from maxdirac1d import cone_solver, experiments
from maxdirac1d.cone_solver import LevelState, SolverAbort, _read_hull, evolve, free_a0
from maxdirac1d.experiments import (
    KT_SLACK,
    FloorMonitor,
    ProbeMonitor,
    TransverseMonitor,
    SweepPlan,
    SweepRecord,
    a0_lower_bound,
    check_claim1,
    check_claim2,
    check_claim3,
    check_gauss,
    config_hash,
    default_probes,
    gauss_divergence,
    grid_for_eps,
    load_sweep,
    pool_size,
    run_sweep,
    sweep_claims,
    verdicts,
    write_sweep,
)
from maxdirac1d.initial_data import CutoffSpec, DataFamily, GridSpec, PotentialMode

from lemmas import evolve_full_grid, probe_sum_bounds, snapshot_run, sum_bound

COARSE = SweepPlan(dim=2, M=0.0, eps_list=(0.1, 0.07), T=0.05, h_over_eps=4.0)


@pytest.fixture(scope="module")
def coarse_sweep():
    return run_sweep(COARSE)


# ---------------------------------------------------------------------------
# Plans and grid policy.
# ---------------------------------------------------------------------------


def test_default_probes_interior():
    probes = default_probes(0.05)
    assert len(probes) == 6
    for t, x in probes:
        assert abs(x) < t < 0.05
    assert probes[0] == (0.025, 0.0)
    assert probes[1] == pytest.approx((0.025, 0.0125))


def test_plan_without_probes_takes_the_default_probes():
    plan = SweepPlan(dim=2, M=0.0, eps_list=(1e-2, 10**-2.5, 1e-3), T=0.05)
    assert plan.eps_list == pytest.approx((1e-2, 10**-2.5, 1e-3))
    assert plan.probes == default_probes(0.05)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(eps_list=()), "must not be empty"),
        (dict(eps_list=(0.1, -0.01)), "positive"),
        (dict(eps_list=(0.01, 0.1)), "strictly decreasing"),
        (dict(eps_list=(0.1,), T=0.0), "horizon"),
        (dict(eps_list=(0.1,), h_over_eps=0.5), "h_over_eps"),
        (dict(eps_list=(0.1,), probes=((0.06, 0.0),)), "probe"),
        (dict(eps_list=(0.1,), probes=((0.02, 0.03),)), "probe"),
        (dict(eps_list=(0.1,), potential_mode="bogus"), "PotentialMode"),
    ],
)
def test_plan_validation(kwargs, match):
    base = dict(dim=2, M=0.0, T=0.05)
    base.update(kwargs)
    with pytest.raises(ValueError, match=match):
        SweepPlan(**base)


def test_sweep_claims_defaults_per_mode():
    plan = SweepPlan(dim=2, M=0.0, eps_list=(0.1, 0.07, 0.05), T=0.05)
    assert plan.potential_mode is PotentialMode.ZERO
    assert sweep_claims(plan) == ["claim1", "claim2", "claim3", "gauss"]
    assert sweep_claims(replace(plan, potential_mode="constrained")) == ["claim1", "claim2"]
    assert sweep_claims(plan, ("gauss", "claim1")) == ["claim1", "gauss"]


def test_sweep_claims_preconditions_at_their_boundaries():
    # claim 2: 6(M+1)T < 1, with M = 1 that is T < 1/12
    T_edge = 1.0 / 12.0
    assert 6.0 * 2.0 * T_edge == 1.0
    below = SweepPlan(dim=2, M=1.0, eps_list=(0.1,), T=float(np.nextafter(T_edge, 0.0)))
    assert sweep_claims(below, ["claim2"]) == ["claim2"]
    at = SweepPlan(dim=2, M=1.0, eps_list=(0.1,), T=T_edge)
    with pytest.raises(ValueError, match="6\\(M\\+1\\)T < 1"):
        sweep_claims(at, ["claim2"])
    # claim 3: at least 2 epsilons, in either potential mode; by default only
    # the zero mode checks it
    one, two, three = (
        SweepPlan(dim=2, M=0.0, eps_list=eps, T=0.05)
        for eps in ((0.1,), (0.1, 0.07), (0.1, 0.07, 0.05))
    )
    with pytest.raises(ValueError, match="at least 2 epsilons"):
        sweep_claims(one, ["claim3"])
    assert sweep_claims(two, ["claim3"]) == ["claim3"]
    constrained = replace(two, potential_mode=PotentialMode.CONSTRAINED)
    assert sweep_claims(constrained, ["claim3"]) == ["claim3"]
    with pytest.raises(ValueError, match="at least 2 epsilons"):
        sweep_claims(replace(one, potential_mode=PotentialMode.CONSTRAINED), ["claim3"])
    assert sweep_claims(constrained) == ["claim1", "claim2"]
    # gauss: at least 3 epsilons
    with pytest.raises(ValueError, match="at least 3 epsilons"):
        sweep_claims(two, ["gauss"])
    assert sweep_claims(three, ["gauss"]) == ["gauss"]


def test_plan_to_dict_round_trip():
    for mode in PotentialMode:
        plan = SweepPlan(dim=3, M=1.0, eps_list=(1e-2, 10**-2.5, 1e-3), T=0.05, potential_mode=mode.value)
        d = plan.to_dict()
        assert d["mode"] == mode.value
        p = d["plan"]
        again = SweepPlan(
            dim=p["dim"],
            M=p["M"],
            eps_list=tuple(p["eps_list"]),
            T=p["T"],
            probes=tuple(tuple(q) for q in p["probes"]),
            h_over_eps=p["h_over_eps"],
            potential_mode=mode,
        )
        assert again == plan
        assert SweepPlan.from_dict(json.loads(json.dumps(d))) == plan


def test_grid_policy_tracks_eps():
    plan = SweepPlan(dim=2, M=0.0, eps_list=(1e-2, 10**-2.5, 1e-3), T=0.05)
    for eps in (1e-2, 1e-3):
        g = grid_for_eps(plan, eps)
        assert g.h <= eps / plan.h_over_eps + 1e-18
        assert g.t_max >= plan.T - 1e-12
        assert g.t_max - plan.T < g.h
        assert g.n % 2 == 0
        # support plus horizon plus margin fits inside the slab
        assert g.L >= plan.cutoff.outer + plan.T + 0.05 - 1e-12
    # a horizon T <= 1e-12 h still gets one level, and the probes read
    # levels 0 and 1
    tiny = SweepPlan(dim=2, M=0.0, eps_list=(0.1, 0.05), T=1e-16)
    for eps in tiny.eps_list:
        g = grid_for_eps(tiny, eps)
        assert g.steps >= 1 and g.t_max >= tiny.T
        assert min(m for m, _ in ProbeMonitor(tiny.probes, g).cells) >= 0


# ---------------------------------------------------------------------------
# Closed-form A_0 lower bound.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "t, x, eps",
    [(0.04, 0.0, 1e-3), (0.025, 0.0125, 1e-2), (0.0375, -0.01, 3e-3)],
)
def test_a0_lower_bound_is_cone_charge_integral(t, x, eps):
    ref = quad(lambda s: math.log((eps + s) / eps), 0.0, x + t)[0] / 8.0
    assert float(a0_lower_bound(t, x, eps)) == pytest.approx(ref, abs=1e-12)


def test_a0_lower_bound_spot_value():
    assert float(a0_lower_bound(0.04, 0.0, 1e-3)) == pytest.approx(
        0.014032056841859576, abs=1e-14
    )


def test_a0_lower_bound_degenerates_at_cone_edge():
    assert float(a0_lower_bound(0.02, -0.02, 1e-3)) == pytest.approx(0.0, abs=1e-15)
    vals = a0_lower_bound(0.04, 0.0, np.array([1e-2, 1e-3, 1e-4]))
    assert (np.diff(vals) > 0).all()


# ---------------------------------------------------------------------------
# Claim checkers on synthetic records.
# ---------------------------------------------------------------------------


def _record(**over):
    base = dict(
        eps=0.1,
        n=100,
        h=0.01,
        t_max=0.02,
        times=np.array([0.0, 0.01, 0.02]),
        series={},
        probe_A0=np.array([0.0]),
    )
    base.update(over)
    return SweepRecord(**base)


def _plan(**over):
    base = dict(dim=2, M=0.0, eps_list=(0.1,), T=0.05)
    base.update(over)
    return SweepPlan(**base)


def test_claim1_verdicts():
    ok = _record(series={"sup_KT_transverse": np.array([0.0, 0.5, 0.9])})
    bad = _record(series={"sup_KT_transverse": np.array([0.0, 0.5, 1.5])})
    out = check_claim1([ok, bad], _plan(T=0.02))
    assert out[0]["pass"] and out[0]["sup"] == 0.9
    assert out[0]["largest_T_ok"] == 0.02
    assert not out[1]["pass"] and out[1]["sup"] == 1.5
    # the prefix up to t = 0.01 still satisfies the bound
    assert out[1]["largest_T_ok"] == 0.01
    flat = _record(series={})
    assert check_claim1([flat], _plan(dim=1, T=0.02)) == [{"eps": 0.1, "applicable": False, "pass": True}]


def test_claim1_broken_at_level_0_has_no_passing_prefix():
    out = check_claim1([_record(series={"sup_KT_transverse": np.array([1.5, 0.5, 0.9])})], _plan(T=0.02))
    assert not out[0]["pass"] and out[0]["largest_T_ok"] == 0.0


def test_transverse_monitor_records_zero_past_t_1():
    # the slab |x| <= 1 - t is empty once t > 1
    x = np.linspace(-2.0, 2.0, 9)
    A = np.ones((3, x.size))
    mon = TransverseMonitor()
    for m, t in enumerate((0.5, 1.0, 1.25)):
        mon.on_level(LevelState(m=m, t=t, x=x, u=None, v=None, A=A, S=None, dens=None, first=0), None)
    assert mon.series().tolist() == [1.0, 1.0, 0.0]


def test_claim2_verdicts_and_guard():
    # tol = 1 - 50 h^2 / eps^2 = 0.5 at h = 0.01, eps = 0.1
    ok = _record(series={"claim2_min_ratio": np.array([np.inf, 0.9, 0.7])})
    bad = _record(series={"claim2_min_ratio": np.array([np.inf, 0.9, 0.4])})
    out = check_claim2([ok, bad], _plan(T=0.03))
    assert out[0]["floor_factor"] == pytest.approx(0.5)
    assert out[0]["min_ratio"] == 0.7 and out[0]["pass"]
    assert out[1]["min_ratio"] == 0.4 and not out[1]["pass"]
    with pytest.raises(ValueError, match="6\\(M\\+1\\)T < 1"):
        check_claim2([_record(series={"claim2_min_ratio": np.array([1.0])})], _plan(M=2.0, T=0.1))


LADDER = _plan(eps_list=(1e-2, 1e-3, 1e-4), probes=((0.04, 0.0),))


def _synthetic_ladder(a0_fn):
    return [
        _record(eps=e, probe_A0=np.array([a0_fn(t, x, e) for t, x in LADDER.probes]))
        for e in LADDER.eps_list
    ]


def test_claim3_recovers_linear_slope():
    recs = _synthetic_ladder(lambda t, x, e: 0.01 * math.log(1.0 / e) + 0.001)
    fit = check_claim3(recs, LADDER)
    assert fit["slopes"][0] == pytest.approx(0.01, abs=1e-12)
    assert fit["slope_bounds"][0] == pytest.approx(0.04 / 8.0)
    assert np.all(fit["lower_ok"])
    assert np.all(fit["monotone"])
    assert fit["implied_c"] == pytest.approx(
        (0.01 * math.log(1e4) + 0.001) / math.log(1e4)
    )
    assert fit["pass"] is True and fit["slopes"][0] == pytest.approx(0.01)


def test_claim3_fails_without_growth():
    fit = check_claim3(_synthetic_ladder(lambda t, x, e: 0.05), LADDER)
    assert fit["slopes"][0] == pytest.approx(0.0, abs=1e-12)
    assert not np.all(fit["monotone"])
    assert not fit["pass"]


def test_claim3_fails_below_closed_form():
    fit = check_claim3(_synthetic_ladder(lambda t, x, e: 0.5 * a0_lower_bound(t, x, e)), LADDER)
    assert not np.all(fit["lower_ok"])
    assert not fit["pass"]


def test_claim3_input_guards():
    with pytest.raises(ValueError, match="at least 2 epsilons"):
        check_claim3([], LADDER)
    # both potential modes start from a_0 = b_0 = 0: the mode does not enter
    recs = _synthetic_ladder(lambda t, x, e: 0.01 * math.log(1.0 / e))
    constrained = check_claim3(recs, replace(LADDER, potential_mode="constrained"))
    assert constrained == check_claim3(recs, LADDER)


def test_claim3_needs_two_eps():
    recs = _synthetic_ladder(lambda t, x, e: 0.01 * math.log(1.0 / e))
    with pytest.raises(ValueError, match="at least 2 epsilons"):
        check_claim3(recs[:1], LADDER)
    assert check_claim3(recs[:2], LADDER)["slopes"][0] == pytest.approx(0.01, abs=1e-12)


def test_every_claim_checker_returns_its_verdict_as_plain_json():
    plan = replace(COARSE, eps_list=(0.1, 0.07, 0.05))  # gauss reads 3 epsilons
    records = run_sweep(plan)
    checkers = {
        "claim1": lambda: check_claim1(records, plan),
        "claim2": lambda: check_claim2(records, plan),
        "claim3": lambda: check_claim3(records, plan),
        "gauss": lambda: check_gauss(plan.eps_list),
    }
    entries = verdicts(records, plan, sorted(checkers))
    for name, check in checkers.items():
        v = check()
        assert json.loads(json.dumps(v)) == v, name
        assert v == entries[name], name


def test_probe_a0_mass_correction_is_quadratic_in_M():
    # A_0(M) - A_0(0) = c M^2 + O(M^4) at eps = 1e-2: with M = 0.25 the
    # difference ratio at 2M and M is 4 up to the M^4 term.  Measured at
    # the six default probes (dim 2, h/eps 16, T 0.05): |ratio - 4| is
    # 3.7e-5 .. 1.25e-4, and at M = 0.5 it is 1.5e-4 .. 5.0e-4, 4x as
    # large, so the gap is the law's next order, not noise.  The bound is
    # twice the largest measured gap; a term linear or cubic in M would
    # give a ratio of 2 or 8.  A_0(0) is a free-transport run, A_0(M) and
    # A_0(2M) general ones.
    M = 0.25

    def probe_a0(mass):
        plan = SweepPlan(dim=2, M=mass, eps_list=(1e-2,), T=0.05, h_over_eps=16.0)
        return run_sweep(plan, claims=("claim3",))[0].probe_A0

    base = probe_a0(0.0)
    ratio = (probe_a0(2 * M) - base) / (probe_a0(M) - base)
    assert ratio.shape == (6,)
    assert np.abs(ratio - 4.0).max() < 2.5e-4, ratio


# ---------------------------------------------------------------------------
# Probe-only massless runs: A_0 from the characteristic sum.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", ["default_probes", "before_level_1", "narrow_cutoff"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_free_a0_matches_the_march(dim, case):
    eps, T, cutoff = 0.02, 0.05, CutoffSpec()
    probes = ()
    if case == "before_level_1":  # m0 = 0: every cell read is at level 0 or 1
        h = grid_for_eps(SweepPlan(dim, 0.0, (eps,), T, h_over_eps=8.0), eps).h
        probes = ((0.5 * h, 0.25 * h), (0.9 * h, -0.5 * h), (0.03, 0.01))
    elif case == "narrow_cutoff":  # the probe's cone reaches past the support cone
        eps, T, cutoff, probes = 0.05, 0.3, CutoffSpec(0.1, 0.2), ((0.25, 0.24), (0.2, -0.1))
    plan = SweepPlan(dim, 0.0, (eps,), T, probes=probes, h_over_eps=8.0, cutoff=cutoff)
    grid = grid_for_eps(plan, eps)
    fam = DataFamily(dim=dim, eps=eps, cutoff=cutoff)
    marched, summed = ProbeMonitor(plan.probes, grid), ProbeMonitor(plan.probes, grid)
    traj = evolve(fam, grid, observers=(marched,))
    if case == "narrow_cutoff":
        first, end, _ = _read_hull(grid, (marched,))
        assert end - first > traj.meta["window"][1] - traj.meta["window"][0]

    a0 = free_a0(fam, grid, marched.cells)
    assert a0.keys() == marched.a0.keys()
    levels = {m for m, _ in a0}
    assert {0, 1} <= levels if case == "before_level_1" else min(levels) > 1
    for (m, j), value in a0.items():
        if m <= 1:
            assert _bits(value) == _bits(marched.a0[m, j]), (m, j)
        else:
            assert value > 0.0 and abs(value - marched.a0[m, j]) <= sum_bound(m) * value, (m, j)
    summed.a0 = a0
    got, want = summed.result(), marched.result()
    assert (np.abs(got - want) <= probe_sum_bounds(plan, eps) * want).all()
    if case == "before_level_1":
        assert got[:2].tobytes() == want[:2].tobytes()


def test_free_a0_aborts_on_a_non_finite_datum(monkeypatch):
    # +inf has no sign bit, so the datum passes the free test; the cell
    # (3, 64) sums its cone base nodes 62, 64 and 66
    grid = GridSpec(L=2.56, n=128, t_max=0.2)

    def datum(fam, grid, nodes):
        u, v = real(fam, grid, nodes)
        u[64 - nodes[0]] = np.inf
        return u, v

    real = cone_solver.spinor_datum
    monkeypatch.setattr(cone_solver, "spinor_datum", datum)
    with pytest.raises(SolverAbort, match=f"non-finite field values at t = {3 * grid.h:.6g}$"):
        free_a0(DataFamily(dim=1, eps=0.1), grid, [(3, 64)])


def test_massless_probe_only_sweeps_take_the_sum():
    with mock.patch.object(experiments, "evolve", side_effect=AssertionError("marched")):
        records = run_sweep(COARSE, claims=("claim3",))
    for rec in records:
        grid = grid_for_eps(COARSE, rec.eps)
        last = _read_hull(grid, (ProbeMonitor(COARSE.probes, grid),))[2]
        assert rec.times.tobytes() == (grid.h * np.arange(last + 1)).tobytes()  # the levels a march takes
        assert rec.series == {}


@pytest.mark.parametrize(
    "plan, claims, free_test",
    [
        (replace(COARSE, M=1.0), ("claim3",), True),
        (replace(COARSE, potential_mode=PotentialMode.CONSTRAINED), ("claim3",), True),
        (COARSE, ("claim1", "claim3"), True),
        (COARSE, ("claim2", "claim3"), True),
        (COARSE, ("claim3",), False),
    ],
    ids=["massive", "constrained", "claim1", "claim2", "datum_fails_the_free_test"],
)
def test_other_sweep_runs_still_march(plan, claims, free_test):
    # their probes are bitwise those of a full-grid march; `free_a0` is
    # asked by every probe-only run, and answers None off free transport:
    # at M = 1, in the constrained mode, or for a datum that fails
    # `_free_transport`
    fails = contextlib.nullcontext() if free_test else mock.patch.object(cone_solver, "_free_transport", lambda *_: False)
    with fails, mock.patch.object(experiments, "free_a0", wraps=free_a0) as asked:
        records = run_sweep(plan, claims=claims)
        for rec in records:
            grid = grid_for_eps(plan, rec.eps)
            fam = DataFamily(dim=plan.dim, eps=rec.eps, M=plan.M, potential_mode=plan.potential_mode, cutoff=plan.cutoff)
            pmon = ProbeMonitor(plan.probes, grid)
            evolve_full_grid(fam, grid, observers=(pmon,))
            assert rec.probe_A0.tobytes() == pmon.result().tobytes()
    assert asked.call_count == (0 if {"claim1", "claim2"} & set(claims) else len(records))


# ---------------------------------------------------------------------------
# A real coarse sweep: determinism, verdicts, persistence.
# ---------------------------------------------------------------------------


def test_pool_size_clamps_jobs():
    assert pool_size(1, 3, cpus=8) == 1
    assert pool_size(3, 3, cpus=8) == 3
    assert pool_size(5, 3, cpus=8) == 3  # never more workers than runs
    assert pool_size(64, 16, cpus=2) == 2  # nor than CPUs
    assert 1 <= pool_size(10**6, 10**6) <= (os.cpu_count() or 1)


def test_probe_monitor_window_matches_full_grid():
    plan = SweepPlan(
        dim=2, M=0.0, eps_list=(0.02,), T=0.05, h_over_eps=8.0,
        probes=((0.03, 0.01), (0.04, -0.02)),
    )
    grid = grid_for_eps(plan, 0.02)
    fam = DataFamily(dim=2, eps=0.02)
    windowed = ProbeMonitor(plan.probes, grid)
    full = ProbeMonitor(plan.probes, grid)
    traj = evolve(fam, grid, observers=(windowed,))
    snapshot_run(fam, grid, observers=(full,))
    first, end, last = traj.meta["window"]
    assert end - first < (grid.n + 1) // 10
    assert last < grid.steps
    # the hull of the cells' cone bases: a probe in cell (m0, j0) reads the
    # nodes j0, j0 + 1 at levels m0, m0 + 1, whose cone bases span nodes
    # j0 - m0 - 1 .. j0 + m0 + 2
    cells = [(int(t / grid.h), int((x + grid.L) / grid.h)) for t, x in plan.probes]
    hull = min(j0 - m0 - 1 for m0, j0 in cells), max(j0 + m0 + 2 for m0, j0 in cells) + 1, max(m0 for m0, _ in cells) + 1
    assert windowed.reads(grid) == hull == (first, end, last)
    assert np.array_equal(windowed.result(), full.result())


@pytest.mark.parametrize("h_over_eps", [4.0, 16.0, 64.0])
def test_kt_reads_hold_every_node_the_monitors_select(h_over_eps):
    # at level m, t = m h, TransverseMonitor selects |x| <= 1 - t + KT_SLACK
    # and FloorMonitor t < x < 1 - t: intervals of x, which grows with the
    # node.  The window of K_T's triple is exact at level m on nodes
    # first + m .. end - 1 - m, so node first + m - 1 must lie left of both
    # intervals and node end - m right of them.  The triple's nodes are the
    # hull of those TransverseMonitor selects at level 0.
    for eps in 10.0 ** -np.arange(2.0, 4.75, 0.5):
        grid = grid_for_eps(SweepPlan(2, 0.0, (eps,), 0.05, h_over_eps=h_over_eps), eps)
        first, end, last = TransverseMonitor().reads(grid)
        assert FloorMonitor(eps).reads(grid) == (first, end, last) and last == grid.steps
        t = np.arange(last + 1) * grid.h
        half = (1.0 - t) + KT_SLACK
        left = grid.nodes(first - 1, first + last)  # node first + m - 1 at level m
        right = grid.nodes(end - last, end + 1)[::-1]  # node end - m
        assert (left < -half).all() and (right > half).all(), eps
        assert (left <= t).all() and (right >= 1.0 - t).all(), eps
        selected = np.flatnonzero(np.abs(grid.nodes()) <= 1.0 + KT_SLACK)  # level 0's selection
        assert (first, end) == (selected[0], selected[-1] + 1), eps


def test_monitors_on_a_support_cut_window_match_full_width():
    # a cutoff narrower than the ball: the support cone cuts the K_T hull the
    # claim 1 and 2 monitors read, and the fields past the cut are zero
    cutoff = CutoffSpec(inner=0.3, outer=0.6)
    plan = SweepPlan(
        dim=2, M=1.0, eps_list=(0.02,), T=0.05, h_over_eps=8.0,
        probes=((0.04, 0.01),), cutoff=cutoff,
    )
    grid = grid_for_eps(plan, 0.02)
    fam = DataFamily(dim=2, eps=0.02, M=1.0, cutoff=cutoff)

    def run(evolve):
        mons = (TransverseMonitor(), FloorMonitor(0.02), ProbeMonitor(plan.probes, grid))
        traj = evolve(fam, grid, observers=mons)
        return traj, [m.series() for m in mons[:2]] + [mons[2].result()]

    cut, cut_out = run(evolve)
    full, full_out = run(evolve_full_grid)
    first, end, _ = cut.meta["window"]
    x_end = -grid.L + (end - 1) * grid.h
    assert x_end < 1.0 - grid.t_max  # the floor cross-section reaches past the window
    assert full.meta["window"] == (0, grid.n + 1, grid.steps)
    for a, b in zip(cut_out, full_out):
        assert a.tobytes() == b.tobytes()


def test_sweep_claims_select_monitors(coarse_sweep):
    only3 = run_sweep(COARSE, claims=("claim3",))
    for a, b in zip(coarse_sweep, only3):
        # massless: claims 1-3 march, claim 3 alone takes the characteristic sum
        assert (np.abs(a.probe_A0 - b.probe_A0) <= probe_sum_bounds(COARSE, a.eps) * a.probe_A0).all()
        assert b.series == {}
        assert set(a.series) == {"sup_KT_transverse", "claim2_min_ratio"}
        assert np.array_equal(b.times, a.times[: b.times.size])
    assert set(run_sweep(COARSE, claims=("claim1",))[0].series) == {"sup_KT_transverse"}
    # a massive plan marches with any claims, to the same bits
    massive = replace(COARSE, M=1.0)
    for a, b in zip(run_sweep(massive), run_sweep(massive, claims=("claim3",))):
        assert a.probe_A0.tobytes() == b.probe_A0.tobytes()


def _bits(value):
    value = np.asarray(value)
    return value.dtype, value.shape, value.tobytes()


def assert_same_records(left, right):
    """Every field of every record, bit for bit."""
    assert len(left) == len(right)
    for a, b in zip(left, right):
        for f in fields(SweepRecord):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if f.name == "series":
                assert list(x) == list(y)
                for key in x:
                    assert _bits(x[key]) == _bits(y[key]), (a.eps, key)
            else:
                assert _bits(x) == _bits(y), (a.eps, f.name)


def test_sweep_is_deterministic(coarse_sweep):
    assert_same_records(coarse_sweep, run_sweep(COARSE))


def test_sweep_jobs_do_not_change_results(coarse_sweep):
    # with jobs > 1 the records come back from worker processes
    assert_same_records(coarse_sweep, run_sweep(COARSE, jobs=2))


def test_massless_longitudinal_sweep_passes_claims_1_2(coarse_sweep):
    for v in check_claim1(coarse_sweep, COARSE):
        assert v["pass"] and v["sup"] == 0.0
    for v in check_claim2(coarse_sweep, COARSE):
        # the cutoff is identically 1 on the floor window, so the measured
        # ratio |psi|^2 / (0.5 f^2) sits exactly at 2
        assert v["pass"] and v["min_ratio"] == pytest.approx(2.0, abs=1e-12)


def test_write_load_round_trip(coarse_sweep, tmp_path):
    summary = write_sweep(coarse_sweep, COARSE, tmp_path)
    names = sorted(os.listdir(tmp_path))
    assert "summary.json" in names
    assert sum(n.startswith("diagnostics_") for n in names) == 2
    assert sum(n.startswith("blowup_probe") for n in names) == 6
    assert summary["config_hash"] == config_hash(summary["config"])

    assert summary["config"] == COARSE.to_dict()

    back, plan = load_sweep(tmp_path)
    assert plan == COARSE
    for a, b in zip(coarse_sweep, back):
        assert np.array_equal(a.probe_A0, b.probe_A0)
        for key in a.series:
            # repr round trip keeps every float bit
            assert np.array_equal(a.series[key], b.series[key])
    assert json.dumps(check_claim2(back, plan)) == json.dumps(
        check_claim2(coarse_sweep, COARSE)
    )


def test_load_sweep_detects_tampering(coarse_sweep, tmp_path):
    write_sweep(coarse_sweep, COARSE, tmp_path)
    p = tmp_path / "summary.json"
    doc = json.loads(p.read_text())
    doc["config"]["plan"]["T"] = 0.06
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="hash mismatch"):
        load_sweep(tmp_path)


# ---------------------------------------------------------------------------
# Gauss pairing.
# ---------------------------------------------------------------------------


def _bump(x):
    x = np.asarray(x)
    return np.where(np.abs(x) < 1.0, np.cos(np.pi * x / 2.0) ** 2, 0.0)


def _node(x):
    x = np.asarray(x)
    return np.where(np.abs(x) < 1.0, np.sin(np.pi * x) ** 2, 0.0)


def test_gauss_pairing_matches_adaptive_quadrature():
    out = gauss_divergence([1e-2], _bump)
    eps = 1e-2
    ref = quad(
        lambda x: math.cos(math.pi * x / 2.0) ** 2 / math.sqrt(eps * eps + x * x),
        -1.0,
        1.0,
        points=[0.0],
        limit=200,
    )[0]
    assert out["pairing"][0] == pytest.approx(ref, rel=1e-10)
    assert math.isnan(out["slope"])


def test_gauss_divergent_slope():
    out = gauss_divergence([1e-2, 3e-3, 1e-3], _bump)
    assert out["expected_slope"] == pytest.approx(2.0)
    assert out["slope"] == pytest.approx(2.0, abs=0.01)
    assert (np.diff(out["pairing"]) > 0).all()


def test_gauss_vanishing_at_origin_converges():
    out = gauss_divergence([1e-2, 3e-3, 1e-3], _node)
    assert out["phi0"] == 0.0
    diffs = np.abs(out["diffs"])
    assert (np.diff(diffs) < 0).all()
    assert diffs[-1] < 1e-3


def test_gauss_input_guards():
    with pytest.raises(ValueError, match="supported inside"):
        gauss_divergence([1e-2], lambda x: np.ones_like(np.asarray(x, dtype=float)))
    with pytest.raises(ValueError, match="nonempty positive"):
        gauss_divergence([], _bump)
    with pytest.raises(ValueError, match="nonempty positive"):
        gauss_divergence([0.1, -0.1], _bump)


# ---------------------------------------------------------------------------
# Config hashing.
# ---------------------------------------------------------------------------


def test_config_hash_canonical():
    assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})
    assert len(config_hash({})) == 64
