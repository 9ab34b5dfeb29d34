"""End-to-end CLI behavior: exit codes, artifacts, strict config handling."""

import copy
import functools
import json
import operator
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxdirac1d
from maxdirac1d import cli, experiments
from maxdirac1d.cone_solver import SolverAbort, cone_quadrature, evolve
from maxdirac1d.estimates import run_energy_suite
from maxdirac1d.experiments import SweepPlan, gauss_pairing_n, grid_for_eps
from maxdirac1d.initial_data import DataFamily, GridSpec

from lemmas import modulus_sq, probe_sum_bounds, snapshot_run


def write_config(tmp_path, payload, name="config.json"):
    p = tmp_path / name
    p.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(p)


SIM_CONFIG = {
    "dim": 2,
    "M": 1.0,
    "eps": 0.1,
    "potential_mode": "constrained",
    "grid": {"L": 2.56, "n": 256, "t_max": 0.16},
    "snapshot_times": [0.0, 0.08, 0.16],
}

VERIFY_GRID = {"seed": 0, "counts": {"energy": 20, "wave": 20, "nullform": 20}}


def _snapshots_of_2_20_nodes(levels):
    """The grid and snapshot times of a dim-2 run at n = 2^20 and t_max =
    16 h that keeps `levels` snapshot levels: loaded, never run."""
    h = 2.0 * 2.56 / 2**20
    return {"grid": {"L": 2.56, "n": 2**20, "t_max": 16 * h}, "snapshot_times": [k * h for k in range(levels)]}


SWEEP_CONFIG = {
    "dim": 2,
    "M": 0.0,
    "eps_list": [0.1, 0.07],
    "T": 0.05,
    "h_over_eps": 4.0,
    "probes": [[0.04, 0.0]],
    "claims": ["claim1", "claim2"],
}


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_manifest_and_oracle(tmp_path, capsys):
    cfg = write_config(tmp_path, SIM_CONFIG)
    out = tmp_path / "sim"
    rc = cli.main(["simulate", "--config", cfg, "--out", str(out), "--oracle"])
    assert rc == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"] == SIM_CONFIG
    assert len(man["config_hash"]) == 64
    assert man["grid"]["h"] == pytest.approx(0.02)
    assert man["charge_drift"] < 1e-3
    # A_0 agrees with half the cone integral of the density up to O(h^2)
    assert man["oracle_A0_max_deviation"] < 5 * 0.02**2
    for fname in man["files"]:
        assert (out / fname).exists()
    assert any(f.startswith("snapshot") for f in man["files"])
    assert "charge drift" in capsys.readouterr().out


def _a0_oracle_from_every_level(grid, snaps):
    """The oracle deviation from a run on `grid` whose `Snapshots` `snaps`
    kept every level: half the cone quadrature of the charge density against
    A_0, at the vertices of `cli.A0Oracle`."""
    dens = [modulus_sq(snaps.dim, snaps.u[m], snaps.v[m]) for m in range(len(snaps.times))]
    center = grid.n // 2
    worst = 0.0
    for m in sorted({max(1, grid.steps // 2), grid.steps}):
        for j in (center - m // 2, center, center + m // 2):
            measured = float(snaps.A[m][0][j])
            oracle = 0.5 * cone_quadrature(dens, grid.h, m, j)
            worst = max(worst, abs(measured - oracle))
    return worst


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("mode", ["zero", "constrained"])
def test_streamed_oracle_equals_every_level_quadrature(dim, mode):
    grid = GridSpec(L=2.56, n=256, t_max=0.16)
    fam = DataFamily(dim=dim, eps=0.1, M=1.0, potential_mode=mode)
    oracle = cli.A0Oracle(grid)
    streamed = evolve(fam, grid, observers=(oracle,))
    every_level, snaps = snapshot_run(fam, grid)
    assert streamed.meta["window"] == every_level.meta["window"]
    assert streamed.meta["window"][0] > 0  # the support cone
    want = _a0_oracle_from_every_level(grid, snaps)
    assert want > 0.0
    assert np.float64(oracle.deviation()).tobytes() == np.float64(want).tobytes()


def test_oracle_memory_stays_that_of_a_plain_run(tmp_path):
    # the streamed sums hold O(n) numbers; every level of this run would be
    # 129 x 4097 x 80 B = 42 MB
    cfg = write_config(tmp_path, {"dim": 2, "M": 1.0, "eps": 0.01, "grid": {"L": 2.56, "n": 4096, "t_max": 0.16}})
    peaks = {}
    for extra in ([], ["--oracle"]):
        tracemalloc.start()
        try:
            assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / f"out{len(extra)}"), *extra]) == 0
            peaks[bool(extra)] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[True] <= 2 * peaks[False], peaks


def test_simulate_oracle_with_no_steps(tmp_path):
    # t_max = 0: the one vertex level is 0, where A_0 and the cone integral vanish
    cfg = write_config(tmp_path, dict(SIM_CONFIG, grid={"L": 2.56, "n": 256, "t_max": 0}, snapshot_times=[0.0]))
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim"), "--oracle"]) == 0
    assert json.loads((tmp_path / "sim" / "manifest.json").read_text())["oracle_A0_max_deviation"] == 0.0


def test_simulate_oracle_cones_must_fit_the_grid(tmp_path, capsys, monkeypatch):
    # the vertex cones reach steps + steps // 2 nodes from the centre node n // 2
    narrow = dict(SIM_CONFIG, dim=2, eps=0.05, cutoff={"inner": 0.1, "outer": 0.2}, snapshot_times=[])
    evolved = []
    monkeypatch.setattr(cli, "evolve", lambda *args, **kw: evolved.append(args) or evolve(*args, **kw))
    out = tmp_path / "long"
    long = write_config(tmp_path, dict(narrow, grid={"L": 1.6, "n": 512, "t_max": 1.3}), name="long.json")
    assert cli.main(["simulate", "--config", long, "--out", str(out), "--oracle"]) == 2  # 208 + 104 > 256
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "grid/t_max" in err
    assert evolved == [] and not out.exists()
    # without --oracle the same config runs
    assert cli.main(["simulate", "--config", long, "--out", str(out)]) == 0
    fits = write_config(tmp_path, dict(narrow, grid={"L": 1.6, "n": 512, "t_max": 1.0}), name="fits.json")
    assert cli.main(["simulate", "--config", fits, "--out", str(tmp_path / "fits"), "--oracle"]) == 0  # 160 + 80 <= 256
    capsys.readouterr()


def test_constrained_simulate_at_tiny_eps_runs_without_warnings(tmp_path):
    # b_1 left of the origin is finite at eps = 1e-8 (the cancelling form gave log(0) = -inf there)
    cfg = write_config(tmp_path, dict(SIM_CONFIG, eps=1e-8))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 0


def test_simulate_rejects_snapshot_outside_slab(tmp_path, capsys):
    bad = dict(SIM_CONFIG, snapshot_times=[0.3])
    rc = cli.main(["simulate", "--config", write_config(tmp_path, bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


def test_snapshot_times_within_half_a_step_of_the_slab_load(tmp_path, capsys):
    # one rule, that of `snapshot_levels`: a time within h/2 of a level of the slab is that level
    h, t_max = 0.02, SIM_CONFIG["grid"]["t_max"]
    ok = write_config(tmp_path, dict(SIM_CONFIG, snapshot_times=[-h / 4, t_max + h / 4]), "ok.json")
    assert cli.load_config(ok, "simulate")["grid"].steps == 8
    assert cli.main(["simulate", "--config", ok, "--out", str(tmp_path / "ok")]) == 0
    bad = write_config(tmp_path, dict(SIM_CONFIG, snapshot_times=[t_max + 0.6 * h]), "bad.json")
    assert cli.main(["simulate", "--config", bad, "--out", str(tmp_path / "bad")]) == 2
    assert "outside the computed slab" in capsys.readouterr().err


def test_snapshot_times_sharing_a_level_name_the_key(tmp_path):
    bad = write_config(tmp_path, dict(SIM_CONFIG, snapshot_times=[0.0, 0.08, 0.0801]))
    with pytest.raises(cli.ConfigError, match="snapshot_times 0.08 and 0.0801 round to the same level 4"):
        cli.load_config(bad, "simulate")


def test_simulate_record_history_key_is_unknown(tmp_path):
    # every level is kept through snapshot_times only; --oracle streams its sums
    bad = write_config(tmp_path, dict(SIM_CONFIG, record_history=True))
    with pytest.raises(cli.ConfigError, match=": record_history: unknown key"):
        cli.load_config(bad, "simulate")


def test_simulate_solver_abort_exit_code(tmp_path, capsys, monkeypatch):
    def explode(*a, **k):
        raise SolverAbort("instability detected")

    monkeypatch.setattr(cli, "evolve", explode)
    cfg = write_config(tmp_path, SIM_CONFIG)
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "solver abort: instability detected" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config rejection battery
# ---------------------------------------------------------------------------


def with_literal(cfg, key, literal):
    """cfg as JSON text whose `key` holds `literal` verbatim: numbers
    json.dumps cannot write, such as 1e400 (json.load reads it as inf)."""
    return json.dumps(dict(cfg, **{key: "@"})).replace('"@"', literal)


# integer keys given floats, and numbers that are not finite as floats:
# (command, payload, the key the error must name), each with a stable id
BAD_NUMBERS = [
    pytest.param("simulate", dict(SIM_CONFIG, grid={"L": 2.56, "n": 256.0, "t_max": 0.16}), "grid/n", id="simulate:grid/n"),
    pytest.param("verify", dict(VERIFY_GRID, seed=3.0), "seed", id="verify:seed"),
    pytest.param("verify", {"seed": 0, "suites": ["energy"], "counts": {"energy": 2.0}}, "counts/energy", id="verify:counts/energy"),
    pytest.param("sweep", dict(SWEEP_CONFIG, jobs=2.0), "jobs", id="sweep:jobs"),
    pytest.param("verify", {"seed": 0, "suites": ["refinement"], "refinement_factors": [1, 2.0]}, "refinement_factors/1", id="verify:refinement_factors/1"),
    pytest.param("norms", {"eps_list": [1e-2, 1e-3], "n": 512.0}, "n", id="norms:n-float"),
    pytest.param("simulate", dict(SIM_CONFIG, M=float("nan")), "M", id="simulate:M"),
    pytest.param("simulate", dict(SIM_CONFIG, eps=float("nan")), "eps", id="simulate:eps"),
    pytest.param("simulate", dict(SIM_CONFIG, grid={"L": float("inf"), "n": 256, "t_max": 0.16}, snapshot_times=[]), "grid/L", id="simulate:grid/L"),
    pytest.param("sweep", with_literal(dict(SWEEP_CONFIG, claims=["claim1"]), "T", "1e400"), "T", id="sweep:T"),
    pytest.param("verify", with_literal({"seed": 0, "suites": ["bootstrap"]}, "bootstrap_masses", "[1e400]"), "bootstrap_masses/0", id="verify:bootstrap_masses/0"),
    pytest.param("norms", {"eps_list": [1e-2, 1e-3], "n": 10**400}, "n", id="norms:n-huge"),
]


@pytest.mark.parametrize(
    "command, payload",
    [
        pytest.param("simulate", "{not json", id="simulate-not-json"),
        pytest.param("simulate", dict(SIM_CONFIG, bogus=1), id="simulate-unknown-key"),
        pytest.param("simulate", {k: v for k, v in SIM_CONFIG.items() if k != "dim"}, id="simulate-missing-dim"),
        pytest.param("simulate", dict(SIM_CONFIG, grid={"L": 2.56, "n": 256, "t_max": 0.205}), id="simulate-t_max-not-a-level"),
        pytest.param("simulate", dict(SIM_CONFIG, grid={"L": 2.0, "n": 200, "t_max": 0.5}), id="simulate-grid-too-small"),
        pytest.param("sweep", dict(SWEEP_CONFIG, M=2.0, T=0.4, claims=["claim2"]), id="sweep-claim2-regime"),
        # claim 3 takes either potential mode, but always 2 epsilons
        pytest.param("sweep", dict(SWEEP_CONFIG, potential_mode="constrained", eps_list=[0.1], claims=["claim3"]), id="sweep-claim3-constrained-one-eps"),
        pytest.param("sweep", dict(SWEEP_CONFIG, claims=["gauss"]), id="sweep-gauss-two-eps"),
        pytest.param("sweep", dict(SWEEP_CONFIG, eps_list=[0.07, 0.1]), id="sweep-eps-increasing"),
        pytest.param("verify", {"seed": 1, "suites": ["energy"]}, id="verify-energy-without-count"),
        pytest.param("verify", {"seed": 1, "suites": ["recompute"]}, id="verify-recompute-without-dir"),
        pytest.param("norms", {"eps_list": [1e-3, 1e-2]}, id="norms-eps-increasing"),
        pytest.param("sweep", dict(SWEEP_CONFIG, eps_list=[0.03], claims=["claim3"]), id="sweep-claim3-one-eps"),
        # grids the suites' instance generators cannot draw on, whatever the seed
        pytest.param("verify", dict(VERIFY_GRID, suites=["wave"], grid={"L": 2.56, "n": 80, "t_max": 0.064}), id="verify-wave-n80"),
        pytest.param("verify", dict(VERIFY_GRID, suites=["nullform"], grid={"L": 2.56, "n": 80, "t_max": 0.064}), id="verify-nullform-n80"),
        pytest.param("verify", dict(VERIFY_GRID, suites=["wave"], grid={"L": 2.56, "n": 16, "t_max": 0.64}), id="verify-wave-n16"),
        pytest.param("verify", dict(VERIFY_GRID, suites=["nullform"], grid={"L": 2.56, "n": 16, "t_max": 0.64}), id="verify-nullform-n16"),
        pytest.param("verify", dict(VERIFY_GRID, suites=["nullform"], grid={"L": 2.56, "n": 256, "t_max": 3.0}), id="verify-nullform-long-cones"),
        pytest.param("verify", dict(VERIFY_GRID, suites=["energy"], grid={"L": 1.28, "n": 128, "t_max": 0.24}), id="verify-energy-small-L"),
        pytest.param("verify", dict(VERIFY_GRID, suites=["energy"], grid={"L": 2.56, "n": 128, "t_max": 2.56}), id="verify-energy-long-t_max"),
        # snapshot times that round to one level (h = 0.02)
        pytest.param("simulate", dict(SIM_CONFIG, snapshot_times=[0.08, 0.08, 0.0801]), id="simulate-snapshots-share-a-level"),
        *[pytest.param(*case.values[:2], id=f"number-{case.id}") for case in BAD_NUMBERS],
        # finite numbers whose step count t_max / h overflows, or whose h underflows
        pytest.param("simulate", dict(SIM_CONFIG, grid={"L": 2.56, "n": 256, "t_max": 1e307}, snapshot_times=[]), id="simulate-t_max-step-overflow"),
        pytest.param("verify", dict(VERIFY_GRID, suites=["energy"], grid={"L": 2.56, "n": 256, "t_max": 1e307}), id="verify-t_max-step-overflow"),
        pytest.param("norms", {"eps_list": [1e-2, 1e-3], "L": 5e-324}, id="norms-h-underflow"),
        # h = 2L/n overflows to inf
        pytest.param("norms", {"eps_list": [1e-2, 1e-3], "L": 1e308, "n": 4}, id="norms-h-overflow"),
        # grids past MAX_NODES, given or implied
        pytest.param("norms", {"eps_list": [1e-2, 1e-3], "n": 10**12}, id="norms-n-past-max-nodes"),
        pytest.param("sweep", dict(SWEEP_CONFIG, eps_list=[1e-12]), id="sweep-eps-past-max-nodes"),
        # h = eps / h_over_eps so small that L / h overflows: no grid at all
        pytest.param("sweep", dict(SWEEP_CONFIG, h_over_eps=1e308), id="sweep-eps-no-grid"),
        pytest.param("simulate", dict(SIM_CONFIG, grid={"L": 2.56, "n": 2**24, "t_max": 0.0}, snapshot_times=[]), id="simulate-n-past-max-nodes"),
        # 16 snapshot levels of 2^20 + 1 nodes
        pytest.param("simulate", dict(SIM_CONFIG, **_snapshots_of_2_20_nodes(16)), id="simulate-snapshots-past-max-nodes"),
        pytest.param("verify", {"seed": 0, "suites": ["refinement"], "refinement_factors": [1, 2**16]}, id="verify-refinement-past-max-nodes"),
        # the gauss pairing grid (h = eps/16) is wider than the sweep's at h_over_eps = 1
        pytest.param("sweep", {"dim": 2, "M": 0, "eps_list": [1e-2, 1e-4, 3e-7], "T": 0.05, "h_over_eps": 1, "claims": ["gauss"]}, id="sweep-gauss-grid-past-max-nodes"),
        # a cutoff wider than the default slab L = 2.5
        pytest.param("norms", {"eps_list": [0.1, 0.01], "cutoff": {"inner": 1.0, "outer": 3.0}}, id="norms-cutoff-wider-than-slab"),
        # eps^2 underflows to 0: the datum peak (eps^2)^(-1/4) at x = 0 is inf
        pytest.param("simulate", dict(SIM_CONFIG, eps=1e-200), id="simulate-eps-square-underflows"),
        # eps^2 is subnormal: the run would overflow in the solver and exit 3
        pytest.param("simulate", dict(SIM_CONFIG, eps=1e-161), id="simulate-eps-square-subnormal-1e-161"),
        pytest.param("simulate", dict(SIM_CONFIG, eps=1e-155), id="simulate-eps-square-subnormal-1e-155"),
        # two s_values that share the column label H-0.1, or are equal
        pytest.param("norms", {"eps_list": [0.1, 0.01], "s_values": [-0.1, -0.100000001], "n": 256}, id="norms-s-values-share-a-label"),
        pytest.param("norms", {"eps_list": [0.1, 0.01], "s_values": [-0.5, -0.25, -0.5], "n": 256}, id="norms-s-values-repeat"),
        # values outside a key's enum, and repeated items of a unique list
        pytest.param("simulate", dict(SIM_CONFIG, dim=4), id="simulate-dim-not-in-enum"),
        pytest.param("sweep", dict(SWEEP_CONFIG, potential_mode="bogus"), id="sweep-potential-mode-not-in-enum"),
        pytest.param("sweep", dict(SWEEP_CONFIG, claims=["claim1", "claim1"]), id="sweep-claims-repeat"),
        pytest.param("verify", dict(VERIFY_GRID, suites=["energy", "energy"]), id="verify-suites-repeat"),
    ],
)
def test_bad_configs_exit_2(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, payload)
    # rejected by the config check itself, before any run could start
    with pytest.raises(cli.ConfigError):
        cli.load_config(cfg, command)
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("command, payload, loc", BAD_NUMBERS)
def test_bad_numbers_name_the_key(tmp_path, command, payload, loc):
    with pytest.raises(cli.ConfigError, match=f": {re.escape(loc)}: "):
        cli.load_config(write_config(tmp_path, payload), command)


@pytest.mark.parametrize(
    "command, payload, loc, message",
    [
        ("simulate", dict(SIM_CONFIG, grid={"L": 2.56, "n": 256, "t_max": 0.205}), "grid/t_max", "not an integer number of steps"),
        ("simulate", dict(SIM_CONFIG, grid={"L": 2.0, "n": 200, "t_max": 0.5}), "grid/L", "grid too small"),
        ("simulate", dict(SIM_CONFIG, grid={"L": 2.56, "n": 256, "t_max": 1e307}, snapshot_times=[]), "grid/t_max", "too many steps"),
        ("verify", dict(VERIFY_GRID, suites=["energy"], grid={"L": 2.56, "n": 255, "t_max": 0.24}), "grid/n", "even integer"),
        ("norms", {"eps_list": [1e-2, 1e-3], "L": 1e308, "n": 4}, "L", "h = 2L/n = inf is not a finite positive step"),
        ("norms", {"eps_list": [1e-2, 1e-3], "L": 5e-324}, "L", "h = 2L/n = 0.0 is not a finite positive step"),
        ("norms", {"eps_list": [0.1, 0.01], "cutoff": {"inner": 1.0, "outer": 3.0}}, "L", "grid too small"),
    ],
)
def test_grid_errors_name_the_key(tmp_path, command, payload, loc, message):
    with pytest.raises(cli.ConfigError, match=f": {re.escape(loc)}: .*{re.escape(message)}"):
        cli.load_config(write_config(tmp_path, payload), command)


def test_s_values_sharing_a_column_label_name_the_later_one(tmp_path):
    # norms.csv, norm_diffs.csv and norms.json key each H^s column by its label
    for s_values, i, label in (([-0.1, -0.100000001], 1, "H-0.1"), ([-0.5, -0.25, -0.5], 2, "H-0.5")):
        cfg = write_config(tmp_path, {"eps_list": [0.1, 0.01], "s_values": s_values, "n": 256})
        with pytest.raises(cli.ConfigError, match=f": s_values/{i}: .* column label {label} "):
            cli.load_config(cfg, "norms")


def test_node_cap_at_its_boundary(tmp_path, monkeypatch):
    # loading builds GridSpecs only: nothing the size of a grid is allocated
    cap = cli.MAX_NODES
    # the deepest claim-3 ladder rung, eps = 10^-4.5 at h/eps = 64 and T = 0.05
    deepest = SweepPlan(2, 0.0, eps_list=(10**-4.5,), T=0.05, h_over_eps=64.0)
    assert cap >= grid_for_eps(deepest, deepest.eps_list[0]).n + 1
    fits, over = cap - 2, cap  # even n with n + 1 nodes on either side of the cap
    for n, ok in ((fits, True), (over, False)):
        cases = [
            ("norms", {"eps_list": [1e-2, 1e-3], "n": n}, "n"),
            ("simulate", dict(SIM_CONFIG, grid={"L": 2.56, "n": n, "t_max": 0.0}, snapshot_times=[]), "grid/n"),
            ("verify", dict(VERIFY_GRID, suites=["energy"], grid={"L": 2.56, "n": n, "t_max": 0.0}), "grid/n"),
        ]
        for command, payload, loc in cases:
            path = write_config(tmp_path, payload)
            if ok:
                assert cli.load_config(path, command)
            else:
                with pytest.raises(cli.ConfigError, match=f": {re.escape(loc)}: {cap + 1} grid nodes, more than MAX_NODES"):
                    cli.load_config(path, command)
    # every snapshot level keeps full-width rows: 15 levels of 2^20 + 1 nodes
    # fit under the cap of 2^24, 16 do not
    assert cap == 2**24
    for levels, ok in ((15, True), (16, False)):
        path = write_config(tmp_path, dict(SIM_CONFIG, **_snapshots_of_2_20_nodes(levels)))
        if ok:
            assert cli.load_config(path, "simulate")
        else:
            nodes = 16 * (2**20 + 1)
            with pytest.raises(cli.ConfigError, match=f": snapshot_times: 16 snapshot levels of 1048577 nodes keep {nodes} grid nodes, more than"):
                cli.load_config(path, "simulate")
    # the refinement study multiplies its base n = 256
    for factors, ok in (([1, (cap - 1) // 256], True), ([1, cap // 256], False)):
        path = write_config(tmp_path, {"seed": 0, "suites": ["refinement"], "refinement_factors": factors})
        if ok:
            assert cli.load_config(path, "verify")
        else:
            with pytest.raises(cli.ConfigError, match=": refinement_factors/1: factor"):
                cli.load_config(path, "verify")
    # a sweep's grids come from its eps: set the cap at the node count of one
    n = grid_for_eps(SweepPlan(dim=2, M=0.0, eps_list=(1e-4,), T=0.05, h_over_eps=4.0), 1e-4).n
    path = write_config(tmp_path, dict(SWEEP_CONFIG, eps_list=[0.1, 1e-4]))
    monkeypatch.setattr(cli, "MAX_NODES", n + 1)
    assert cli.load_config(path, "sweep")
    monkeypatch.setattr(cli, "MAX_NODES", n)
    with pytest.raises(cli.ConfigError, match=": eps_list/1: eps = 0.0001 at h_over_eps = 4.0 needs"):
        cli.load_config(path, "sweep")
    # the gauss pairing's grid comes from eps alone, and counts only when gauss
    # is selected, as it is by default in the zero mode
    n = gauss_pairing_n(1e-4)
    assert n > grid_for_eps(SweepPlan(dim=2, M=0.0, eps_list=(1e-4,), T=0.05, h_over_eps=1.0), 1e-4).n
    ladder = {k: v for k, v in SWEEP_CONFIG.items() if k != "claims"} | {"eps_list": [0.1, 0.07, 1e-4], "h_over_eps": 1.0}
    gauss, other = write_config(tmp_path, ladder, "default.json"), write_config(tmp_path, dict(ladder, claims=["claim1"]), "claim1.json")
    monkeypatch.setattr(cli, "MAX_NODES", n + 1)
    assert cli.load_config(gauss, "sweep")
    monkeypatch.setattr(cli, "MAX_NODES", n)
    assert cli.load_config(other, "sweep")
    with pytest.raises(cli.ConfigError, match=": eps_list/2: the gauss pairing at eps = 0.0001 needs"):
        cli.load_config(gauss, "sweep")


@pytest.mark.parametrize(
    "argv", [["verify", "--seed", "-1"], ["sweep", "--jobs", "-4"], ["sweep", "--jobs", "0"]]
)
def test_bad_flags_exit_2_naming_the_flag(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, VERIFY_GRID if argv[0] == "verify" else SWEEP_CONFIG)
    rc = cli.main([*argv, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f": {argv[1]}: needs >= " in err
    assert not (tmp_path / "o").exists()


# one valid config per command that holds every key its table allows
FULL_CONFIGS = {
    "simulate": dict(SIM_CONFIG, cutoff={"inner": 1.0, "outer": 2.0}, out="o"),
    "sweep": dict(SWEEP_CONFIG, potential_mode="zero", cutoff={"inner": 1.0, "outer": 2.0}, jobs=1, out="o"),
    "verify": {
        "seed": 0,
        "suites": ["energy", "wave", "nullform", "refinement", "bootstrap", "recompute"],
        "counts": {"energy": 1, "wave": 1, "nullform": 1},
        "grid": {"L": 2.56, "n": 256, "t_max": 0.24},
        "refinement_factors": [1, 2],
        "bootstrap_masses": [0.0, 1.0],
        "recompute_dir": "campaign",
        "out": "o",
    },
    "norms": {
        "eps_list": [1e-2, 1e-3],
        "s_values": [-0.5],
        "L": 2.5,
        "n": 1024,
        "cutoff": {"inner": 1.0, "outer": 2.0},
        "out": "o",
    },
}


@pytest.fixture(scope="session")
def campaign_dir(tmp_path_factory):
    """The campaign of SWEEP_CONFIG, which load_config loads for the recompute suite."""
    path = tmp_path_factory.mktemp("campaign")
    cfg = write_config(path, SWEEP_CONFIG, name="sweep.json")
    assert cli.main(["sweep", "--config", cfg, "--out", str(path / "out")]) == 0
    return str(path / "out")


def full_config(command, campaign_dir):
    """FULL_CONFIGS[command], with its recompute_dir at `campaign_dir`."""
    cfg = copy.deepcopy(FULL_CONFIGS[command])
    if "recompute_dir" in cfg:
        cfg["recompute_dir"] = campaign_dir
    return cfg


@pytest.mark.parametrize("command", sorted(FULL_CONFIGS))
def test_full_configs_load(tmp_path, command, campaign_dir):
    cfg = full_config(command, campaign_dir)
    assert cli.load_config(write_config(tmp_path, cfg), command)["raw"] == cfg


# the integer-typed keys of each command, as paths ("*": every list item)
INT_KEYS = {
    "simulate": [("grid", "n")],
    "sweep": [("jobs",)],
    "verify": [("seed",), ("counts", "energy"), ("counts", "wave"), ("counts", "nullform"), ("grid", "n"), ("refinement_factors", "*")],
    "norms": [("n",)],
}

# values that sit on a rule's edge (bools, integer-valued floats, an int or
# a literal past the float range, 1e400 read as inf), then arbitrary JSON
EDGE_VALUES = [True, False, None, 0, -1, 2.0, 256.0, 1e307, 5e-324, 10**400, float("inf"), float("nan"), "", []]
JSON_VALUES = st.sampled_from(EDGE_VALUES) | st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**6), 10**6).map(float)
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every path into a JSON value, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, cfg):
    """cfg after one or two mutations: drop a key or item, add an unknown
    key, or replace any value with arbitrary JSON."""
    cfg = copy.deepcopy(cfg)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from([(), *_paths(cfg)]))
        node = functools.reduce(operator.getitem, path[:-1], cfg)
        action = draw(st.sampled_from(["drop", "add", "replace"]))
        if not path or action == "add":
            target = functools.reduce(operator.getitem, path, cfg)
            if isinstance(target, dict):
                target[draw(st.text(min_size=1, max_size=6))] = draw(JSON_VALUES)
        elif action == "drop":
            del node[path[-1]]
        else:
            node[path[-1]] = draw(JSON_VALUES)
    return cfg


def _values_at(node, path):
    if not path:
        yield node
    elif path[0] == "*":
        for item in node:
            yield from _values_at(item, path[1:])
    elif path[0] in node:
        yield from _values_at(node[path[0]], path[1:])


@pytest.mark.parametrize("command", sorted(FULL_CONFIGS))
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_mutated_configs_load_or_raise_config_error(tmp_path_factory, campaign_dir, command, data):
    cfg = data.draw(mutated(full_config(command, campaign_dir)))
    path = write_config(tmp_path_factory.getbasetemp(), cfg, name=f"mutated_{command}.json")
    try:
        ctx = cli.load_config(path, command)
    except cli.ConfigError:
        return
    for key in INT_KEYS[command]:
        for value in _values_at(ctx["raw"], key):
            assert type(value) is int, (key, value)


def test_claim3_needs_two_eps_at_load(tmp_path):
    one = write_config(tmp_path, dict(SWEEP_CONFIG, eps_list=[0.03], claims=["claim3"]))
    with pytest.raises(cli.ConfigError, match="at least 2 epsilons"):
        cli.load_config(one, "sweep")
    two = write_config(tmp_path, dict(SWEEP_CONFIG, eps_list=[0.03, 0.02], claims=["claim3"]))
    assert cli.load_config(two, "sweep")["claims"] == ["claim3"]


def test_claim3_loads_in_either_potential_mode(tmp_path):
    for mode in ("zero", "constrained"):
        cfg = write_config(tmp_path, dict(SWEEP_CONFIG, potential_mode=mode, claims=["claim3"]), name=f"{mode}.json")
        assert cli.load_config(cfg, "sweep")["claims"] == ["claim3"]


def test_cli_import_leaves_scipy_out():
    # scipy is a test dependency only; a fresh interpreter shows what the CLI loads
    src = os.path.dirname(os.path.dirname(os.path.abspath(maxdirac1d.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import maxdirac1d.cli, sys; assert not {'scipy', 'jsonschema'} & set(sys.modules)"
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


def test_missing_config_file_exit_2(tmp_path, capsys):
    rc = cli.main(["norms", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_passes_and_is_reproducible(tmp_path, capsys):
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    stdout = capsys.readouterr().out
    assert "sweep: claim1 pass" in stdout
    assert "sweep: claim2 pass" in stdout
    v1 = json.loads((out1 / "verdicts.json").read_text())
    assert v1["pass"] is True
    assert v1["claims"] == ["claim1", "claim2"]
    assert (out1 / "summary.json").exists()

    assert cli.main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "verdicts.json").read_bytes() == (out2 / "verdicts.json").read_bytes()


def test_massless_claim3_only_sweep_is_reproducible(tmp_path, capsys):
    # its probes are characteristic sums: the same bytes in one process or
    # in worker processes
    cfg = dict(SWEEP_CONFIG, eps_list=[1e-2, 10**-2.5, 1e-3], h_over_eps=16.0, claims=["claim3"])
    outs = []
    for k, jobs in enumerate((1, 1, 2)):
        outs.append(tmp_path / f"s{k}")
        path = write_config(tmp_path, dict(cfg, jobs=jobs), name=f"c{k}.json")
        assert cli.main(["sweep", "--config", path, "--out", str(outs[-1])]) == 0
    for name in ("verdicts.json", "summary.json", "blowup_probe0.csv"):
        assert len({(out / name).read_bytes() for out in outs}) == 1, name


def test_sweep_claim3_only_matches_all_claims(tmp_path, capsys):
    base = dict(SWEEP_CONFIG, eps_list=[0.1, 0.07, 0.05])
    del base["claims"]
    outs = {}
    for tag, claims in (("only3", ["claim3"]), ("all", ["claim1", "claim2", "claim3", "gauss"])):
        cfg = write_config(tmp_path, dict(base, claims=claims), name=f"{tag}.json")
        outs[tag] = tmp_path / tag
        assert cli.main(["sweep", "--config", cfg, "--out", str(outs[tag])]) in (0, 4)

    def load(tag, name):
        return json.loads((outs[tag] / name).read_text())

    runs = {tag: load(tag, "summary.json")["runs"] for tag in outs}
    keys = ("n", "h", "t_max")
    assert [[r[k] for k in keys] for r in runs["only3"]] == [[r[k] for k in keys] for r in runs["all"]]
    # massless: claim 3 alone takes A_0 from the characteristic sum, and with
    # the other claims it marches, so the two agree within the rounding bounds
    plan = SweepPlan(**{k: base[k] for k in ("dim", "M", "eps_list", "T", "probes", "h_over_eps")})
    bound = np.stack([probe_sum_bounds(plan, eps) for eps in plan.eps_list], axis=1)  # (probes, eps)
    a0 = np.array([r["probe_A0"] for r in runs["all"]]).T
    assert (np.abs(np.array([r["probe_A0"] for r in runs["only3"]]).T - a0) <= bound * a0).all()
    v3 = load("only3", "verdicts.json")["verdicts"]
    assert list(v3) == ["claim3"]
    v3, va = v3["claim3"], load("all", "verdicts.json")["verdicts"]["claim3"]
    for key in ("probes", "eps", "slope_bounds", "lower_ok", "monotone", "pass"):
        assert v3[key] == va[key], key
    assert np.array_equal(va["a0"], a0)
    assert (np.abs(np.array(v3["a0"]) - a0) <= bound * a0).all()
    # the fitted slopes and intercepts are linear in A_0, with weights W, so
    # they move by at most |W| (bound A_0), plus an allowance for the two
    # least-squares fits' own rounding
    W = np.abs(np.polyfit(np.log(1.0 / np.array(plan.eps_list)), np.eye(len(plan.eps_list)), 1))
    fit_tol = (bound * a0) @ W.T + 2.0**-48 * a0 @ W.T  # (probes, [slope, intercept])
    for col, key in enumerate(("slopes", "intercepts")):
        assert (np.abs(np.array(v3[key]) - va[key]) <= fit_tol[:, col]).all(), key
    # the minimum over probes of A_0 / log(1/eps) at the last eps, with one
    # division rounded on each side
    c_tol = (bound[:, -1].max() + 2.0**-52) * va["implied_c"]
    assert abs(v3["implied_c"] - va["implied_c"]) <= c_tol
    for r in runs["only3"]:
        lines = (outs["only3"] / r["diagnostics"]).read_text().splitlines()
        assert lines[2] == "t"

    verify_cfg = write_config(
        tmp_path,
        {"seed": 0, "suites": ["recompute"], "recompute_dir": str(outs["only3"])},
        name="verify.json",
    )
    assert cli.main(["verify", "--config", verify_cfg, "--out", str(tmp_path / "v")]) == 0
    rep = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert rep["reports"][0]["identical"] is True
    capsys.readouterr()


def test_sweep_verdict_failure_exit_4(tmp_path, capsys):
    # a shallow epsilon ladder cannot reproduce the asymptotic log slope
    shallow = dict(SWEEP_CONFIG, eps_list=[0.9, 0.8, 0.7], claims=["gauss"])
    cfg = write_config(tmp_path, shallow)
    out = tmp_path / "s"
    rc = cli.main(["sweep", "--config", cfg, "--out", str(out)])
    assert rc == 4
    assert "verdict failure: gauss" in capsys.readouterr().err
    assert json.loads((out / "verdicts.json").read_text())["pass"] is False


def test_sweep_solver_abort_exit_3(tmp_path, capsys, monkeypatch):
    def explode(*a, **k):
        raise SolverAbort("sweep run aborted at eps = 0.1: boom")

    monkeypatch.setattr(cli, "run_sweep", explode)
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")])
    assert rc == 3
    assert "solver abort" in capsys.readouterr().err


def test_sweep_run_abort_names_its_eps_and_exits_3(tmp_path, capsys, monkeypatch):
    # the second rung's march aborts: the message names that eps
    def evolve_or_abort(fam, grid, **kw):
        if fam.eps == 0.07:
            raise SolverAbort("non-finite field values at t = 0.01")
        return evolve(fam, grid, **kw)

    monkeypatch.setattr(experiments, "evolve", evolve_or_abort)
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "solver abort: sweep run aborted at eps = 0.07: non-finite field values at t = 0.01" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_failing_report_gets_its_replay_and_exits_4(tmp_path, capsys, monkeypatch):
    # the energy suite's second report fails: verify_report.json carries its
    # replay entry, the grid and the seed and index its name holds
    def one_failing(count, seed, grid):
        reps = run_energy_suite(count, seed, grid)
        reps[1] = replace(reps[1], lhs=2.0 * reps[1].slack_factor * reps[1].rhs)
        return reps

    monkeypatch.setitem(cli._SUITE_RUNNERS, "energy", one_failing)
    cfg = write_config(tmp_path, {"seed": 5, "suites": ["energy"], "counts": {"energy": 3}})
    out = tmp_path / "v"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 4
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["pass"] is False and rep["failures"] == 1
    assert [r["pass"] for r in rep["reports"]] == [True, False, True]
    assert ["replay" in r for r in rep["reports"]] == [False, True, False]
    grid = cli.suite_grid("energy")
    assert rep["reports"][1]["replay"] == {
        "suite": "energy",
        "grid": {"L": grid.L, "n": grid.n, "t_max": grid.t_max},
        "seed": 5,
        "index": 1,
    }
    assert "verify: FAIL" in capsys.readouterr().err


def test_verify_random_suites_pass(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "seed": 3,
            "suites": ["energy", "wave", "nullform", "bootstrap"],
            "counts": {"energy": 2, "wave": 2, "nullform": 5},
        },
    )
    out = tmp_path / "v"
    rc = cli.main(["verify", "--config", cfg, "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["pass"] is True and rep["failures"] == 0
    assert rep["seed"] == 3
    # 2 energy + 2x4 wave + 5 nullform + 2 bootstrap thresholds
    assert len(rep["reports"]) == 17
    assert "worst ratio" in capsys.readouterr().out


def test_verify_suite_times_ignore_wall_clock_steps(tmp_path, capsys, monkeypatch):
    # a wall clock set back an hour during each suite gives no negative time
    steps = iter(range(0, -1000, -1))
    monkeypatch.setattr(time, "time", lambda: 3600.0 * next(steps))
    cfg = write_config(tmp_path, {"seed": 0, "suites": ["energy", "wave"], "counts": {"energy": 1, "wave": 1}})
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    times = re.findall(r"worst ratio \S+ \((\S+)s\)", capsys.readouterr().out)
    assert len(times) == 2 and all(float(t) >= 0.0 for t in times), times


def test_verify_seed_flag_overrides_config(tmp_path):
    cfg = write_config(
        tmp_path, {"seed": 3, "suites": ["energy"], "counts": {"energy": 1}}
    )
    out = tmp_path / "v"
    assert cli.main(["verify", "--config", cfg, "--out", str(out), "--seed", "9"]) == 0
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["seed"] == 9
    assert rep["reports"][0]["name"] == "energy[9,0]"


def test_verify_refinement_suite(tmp_path):
    cfg = write_config(
        tmp_path, {"seed": 0, "suites": ["refinement"], "refinement_factors": [1, 2]}
    )
    out = tmp_path / "v"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "verify_report.json").read_text())
    names = [r["name"] for r in rep["reports"]]
    assert names == [f"nullform_refinement[{i}]" for i in range(3)]
    for r in rep["reports"]:
        assert [row[0] for row in r["rows"]] == [256, 512]
        assert all(row[1] <= row[2] for row in r["rows"])


def test_verify_recompute_round_trip_and_tamper(tmp_path, capsys):
    sweep_cfg = write_config(tmp_path, SWEEP_CONFIG, name="sweep.json")
    campaign = tmp_path / "campaign"
    assert cli.main(["sweep", "--config", sweep_cfg, "--out", str(campaign)]) == 0

    verify_cfg = write_config(
        tmp_path,
        {"seed": 0, "suites": ["recompute"], "recompute_dir": str(campaign)},
        name="verify.json",
    )
    out = tmp_path / "v"
    assert cli.main(["verify", "--config", verify_cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["reports"][0]["identical"] is True

    doc = json.loads((campaign / "verdicts.json").read_text())
    doc["verdicts"]["claim1"][0]["sup"] = 0.123
    (campaign / "verdicts.json").write_text(json.dumps(doc))
    rc = cli.main(["verify", "--config", verify_cfg, "--out", str(tmp_path / "v2")])
    assert rc == 4
    rep2 = json.loads((tmp_path / "v2" / "verify_report.json").read_text())
    assert rep2["reports"][0]["identical"] is False
    capsys.readouterr()


@pytest.mark.parametrize(
    "make, named",
    [
        (None, "summary.json"),
        ("empty", "summary.json"),
        ("summary only", "verdicts.json"),
        ("both {}", "KeyError: 'config'"),
        ("plan edited", "summary config hash mismatch"),
        ("diagnostics missing", "diagnostics_"),
        ("unknown claim", "'claims'"),
        # a claim3-only campaign whose verdicts.json lists a claim its records cannot answer
        ("claim not recorded", "KeyError: 'sup_KT_transverse'"),
    ],
)
def test_verify_recompute_dir_without_campaign_files_exits_2_before_any_suite(tmp_path, capsys, monkeypatch, campaign_dir, make, named):
    campaign = tmp_path / "campaign"
    if make in ("plan edited", "diagnostics missing", "unknown claim"):
        shutil.copytree(campaign_dir, campaign)
    elif make is not None:
        campaign.mkdir()
    if make in ("summary only", "both {}"):
        (campaign / "summary.json").write_text("{}")
    if make == "both {}":
        (campaign / "verdicts.json").write_text("{}")
    if make == "plan edited":
        doc = json.loads((campaign / "summary.json").read_text())
        doc["config"]["plan"]["T"] = 0.06
        (campaign / "summary.json").write_text(json.dumps(doc))
    if make == "unknown claim":
        doc = json.loads((campaign / "verdicts.json").read_text())
        doc["claims"] = ["claim9"]
        (campaign / "verdicts.json").write_text(json.dumps(doc))
    if make == "diagnostics missing":
        next(campaign.glob("diagnostics_*.csv")).unlink()
    if make == "claim not recorded":
        sweep_cfg = write_config(tmp_path, dict(SWEEP_CONFIG, claims=["claim3"]), name="sweep.json")
        assert cli.main(["sweep", "--config", sweep_cfg, "--out", str(campaign)]) == 0
        doc = json.loads((campaign / "verdicts.json").read_text())
        doc["claims"] = ["claim1"]
        (campaign / "verdicts.json").write_text(json.dumps(doc))
        capsys.readouterr()
    ran = []
    monkeypatch.setitem(cli._SUITE_RUNNERS, "energy", lambda *args: ran.append(args))
    cfg = write_config(
        tmp_path,
        {"seed": 0, "suites": ["energy", "recompute"], "counts": {"energy": 2}, "recompute_dir": str(campaign)},
    )
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "recompute_dir" in err and named in err
    assert ran == [] and not (tmp_path / "v").exists()


def test_replay_info_parses_seeded_names():
    grid = GridSpec(L=2.56, n=256, t_max=0.24)
    info = cli._replay_info("nullform", "nullform[7,3]", grid)
    assert info["seed"] == 7 and info["index"] == 3
    assert info["grid"]["n"] == 256
    bare = cli._replay_info("energy", "energy", grid)
    assert "seed" not in bare


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_norms_tables(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"eps_list": [1e-2, 1e-3], "s_values": [-0.5], "L": 2.5, "n": 1024},
    )
    out = tmp_path / "n"
    rc = cli.main(["norms", "--config", cfg, "--out", str(out)])
    assert rc == 0
    lines = (out / "norms.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "eps,L1,L2,H-0.5"
    doc = json.loads((out / "norms.json").read_text())
    assert len(doc["norms"]) == 2 and len(doc["differences"]) == 1
    # the singular limit: L2 grows, negative-order differences stay small
    assert doc["norms"][1]["L2"] > doc["norms"][0]["L2"]
    assert doc["differences"][0]["H-0.5"] < doc["differences"][0]["L2"]
    assert (out / "norm_diffs.csv").exists()
    assert "norms:" in capsys.readouterr().out


def test_norms_allows_trailing_zero_eps(tmp_path):
    cfg = write_config(tmp_path, {"eps_list": [1e-2, 0.0], "n": 512})
    assert cli.main(["norms", "--config", cfg, "--out", str(tmp_path / "n")]) == 0


def test_bad_suite_grid_names_grid_and_suite(tmp_path):
    bad = dict(VERIFY_GRID, suites=["wave", "nullform"], grid={"L": 2.56, "n": 256, "t_max": 3.0})
    with pytest.raises(cli.ConfigError, match="grid: the nullform suite needs 2 <= steps <= n/2"):
        cli.load_config(write_config(tmp_path, bad), "verify")
