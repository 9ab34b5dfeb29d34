"""Command-line front end: every run, sweep, and verification reproducible
from one JSON config file.

Subcommands:

* simulate -- one evolution run; writes snapshot CSVs, a diagnostics CSV, and
  a manifest embedding the config hash.  --oracle cross-checks the computed
  A_0 against half the cone integral of the charge density (exact for the
  zero-data wave part) and records the maximum deviation in the manifest.
* sweep -- an epsilon campaign; persists per-run diagnostics and probe data
  and writes the selected verdicts (claim1, claim2, claim3, gauss) to
  verdicts.json in one pass.
* verify -- randomized estimate suites (energy, wave, nullform), the fixed
  nullform refinement study, the bootstrap smallness constants, and
  recomputation of a persisted sweep's verdicts from its files.
* norms -- initial-data norm tables (L^1, L^2, negative-order H^s) per
  epsilon plus successive-difference tables.

Exit codes are a stable contract for CI: 0 pass, 2 config error, 3 solver
abort, 4 verdict failure.

Configs are strict JSON, checked against one table per command
(`CONFIG_TABLES`): unknown keys are rejected, integers must be integer
literals (2, not 2.0 or true), every number must be finite as a float, and
the physically meaningful fields (dim, M, eps or eps_list, T or t_max) have
no defaults.  The --seed and --jobs flags are checked against the same table
entries as the keys they override.  Cross-field constraints (grid
divisibility, support margins, the MAX_NODES cap on every grid a run would
build and on the rows its snapshots keep, the claim preconditions of
`experiments.sweep_claims`, and the campaign files the recompute suite
reads) are checked at load time so that a bad config never reaches the
solver.  The claims, their verdicts and the suite defaults live in
`experiments` and `estimates`; this module only reads configs, calls them
and writes their results.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import re
import reprlib
import sys
import time
from typing import NamedTuple

import numpy as np

from .cone_solver import Series, Snapshots, SolverAbort, cumulative_trapezoid, evolve, snapshot_levels, trajectory_to_csv, trapezoid
from .estimates import (
    bootstrap_threshold,
    check_suite_grid,
    nullform_refinement,
    run_energy_suite,
    run_nullform_suite,
    run_wave_suite,
    suite_grid,
)
from .experiments import (
    CLAIMS,
    SweepPlan,
    config_hash,
    gauss_pairing_n,
    grid_for_eps,
    load_sweep,
    run_sweep,
    sweep_claims,
    verdict_passed,
    verdicts,
    write_sweep,
)
from .initial_data import CutoffSpec, DataFamily, GridError, GridSpec, chi, f_eps, hs_norm, lp_norm, sample_midpoints, write_csv, write_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_VERDICT = 4


class ConfigError(Exception):
    """Raised for anything wrong with a config file: unreadable, bad JSON,
    a value its command's table rejects, or a failed cross-field constraint."""


# ---------------------------------------------------------------------------
# Config tables: one rule per key (see the module docstring).
# ---------------------------------------------------------------------------

_SUITE_RUNNERS = {
    "energy": run_energy_suite,
    "wave": run_wave_suite,
    "nullform": run_nullform_suite,
}
_SUITES = (*_SUITE_RUNNERS, "refinement", "bootstrap", "recompute")


class Key(NamedTuple):
    """One config value: its JSON type, whether it is required, a bound such
    as '> 0' (or 'len >= 1' on an array's length) and an enum; for an array
    the uniqueness and rule of its items, for an object the table of its keys."""

    kind: str
    required: bool = False
    bound: str = ""
    enum: tuple = ()
    unique: bool = False
    items: Key | None = None
    table: dict | None = None


_GRID = {
    "L": Key("number", True, "> 0"),
    "n": Key("integer", True, ">= 4"),
    "t_max": Key("number", True, ">= 0"),
}
_CUTOFF = {
    "inner": Key("number", True, "> 0"),
    "outer": Key("number", True, "> 0"),
}
_COUNTS = {suite: Key("integer", bound=">= 1") for suite in _SUITE_RUNNERS}
CONFIG_TABLES = {
    "simulate": {
        "dim": Key("integer", True, enum=(1, 2, 3)),
        "M": Key("number", True, ">= 0"),
        "eps": Key("number", True, "> 0"),
        "potential_mode": Key("string", enum=("zero", "constrained")),
        "grid": Key("object", True, table=_GRID),
        "cutoff": Key("object", table=_CUTOFF),
        "snapshot_times": Key("array", items=Key("number")),
        "out": Key("string"),
    },
    "sweep": {
        "dim": Key("integer", True, enum=(1, 2, 3)),
        "M": Key("number", True, ">= 0"),
        "eps_list": Key("array", True, "len >= 1", items=Key("number", bound="> 0")),
        "T": Key("number", True, "> 0"),
        "potential_mode": Key("string", enum=("zero", "constrained")),
        "probes": Key("array", items=Key("array", bound="len == 2", items=Key("number"))),
        "h_over_eps": Key("number", bound=">= 1"),
        "cutoff": Key("object", table=_CUTOFF),
        "claims": Key("array", bound="len >= 1", unique=True, items=Key("string", enum=CLAIMS)),
        "jobs": Key("integer", bound=">= 1"),
        "out": Key("string"),
    },
    "verify": {
        "seed": Key("integer", True, ">= 0"),
        "suites": Key("array", bound="len >= 1", unique=True, items=Key("string", enum=_SUITES)),
        "counts": Key("object", table=_COUNTS),
        # applies to the three randomized suites; refinement keeps its own base
        "grid": Key("object", table=_GRID),
        "refinement_factors": Key("array", bound="len >= 2", items=Key("integer", bound=">= 1")),
        "bootstrap_masses": Key("array", items=Key("number", bound=">= 0")),
        "recompute_dir": Key("string"),
        "out": Key("string"),
    },
    "norms": {
        "eps_list": Key("array", True, "len >= 1", items=Key("number", bound=">= 0")),
        # hs_norm is restricted to negative orders
        "s_values": Key("array", items=Key("number", bound="< 0")),
        "L": Key("number", bound="> 0"),
        "n": Key("integer", bound=">= 4"),
        "cutoff": Key("object", table=_CUTOFF),
        "out": Key("string"),
    },
}
_TYPES = {"integer": int, "number": (int, float), "string": str, "array": list, "object": dict}
_BOUNDS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "==": operator.eq}


def _check(value, key: Key, loc: str) -> None:
    """Raise ValueError('loc: message') where `value` breaks `key`; loc is
    the slash path of the offending key (e.g. grid/n), or <root>."""
    shown = reprlib.repr(value)
    if not isinstance(value, _TYPES[key.kind]) or isinstance(value, bool):  # no key takes a JSON true or false
        raise ValueError(f"{loc}: {shown} is not of type '{key.kind}'")
    if key.kind in ("integer", "number") and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{loc}: {shown} is not finite as a float")
    if key.enum and value not in key.enum:
        raise ValueError(f"{loc}: {shown} is not one of {list(key.enum)}")
    if key.bound:
        *size, op, limit = key.bound.split()
        if not _BOUNDS[op](len(value) if size else value, float(limit)):
            raise ValueError(f"{loc}: needs {key.bound}, got {shown}")
    if key.kind == "array":
        for i, item in enumerate(value):
            _check(item, key.items, f"{loc}/{i}")
        if key.unique and len(set(value)) < len(value):
            raise ValueError(f"{loc}: items are not unique")
    if key.kind == "object":
        prefix = "" if loc == "<root>" else f"{loc}/"
        for name in sorted(value.keys() - key.table.keys()):
            raise ValueError(f"{prefix}{name}: unknown key")
        for name, rule in key.table.items():
            if name in value:
                _check(value[name], rule, prefix + name)
            elif rule.required:
                raise ValueError(f"{prefix}{name}: required key missing")


# Grid nodes a config may ask for, on one grid or over the full-width rows of
# all its snapshot levels.  A dim-3 whole-line `simulate` (M = 1, 16 steps)
# at n = 2^18 grew the peak RSS of a fresh process past its RSS after
# import by 251-255 B per node with no snapshots, about 4.2 GB at the cap,
# and by 377-400 with two (numpy 2.4.6 on Linux x86-64).  The deepest claim-3
# ladder rung, eps = 10^-4.5 at h/eps = 64 and T = 0.05, has 8,500,204 nodes.
MAX_NODES = 2**24


def _cap_nodes(loc: str, nodes: int, why: str = "") -> None:
    if nodes > MAX_NODES:
        raise ValueError(f"{loc}: {why}{nodes} grid nodes, more than MAX_NODES = {MAX_NODES}")


def _grid(prefix: str, fields: dict, outer: float | None = None) -> GridSpec:
    """GridSpec(**fields) under the node cap, with room for supports out to
    `outer` when given; an error names its key as prefix + field."""
    try:
        grid = GridSpec(**fields)
        if outer is not None:
            grid.ensure_support(outer)
    except GridError as exc:
        raise ValueError(f"{prefix}{exc.key}: {exc}") from exc
    _cap_nodes(f"{prefix}n", grid.n + 1)
    return grid


def _given(raw: dict, **params) -> dict:
    """{param: raw[key]} for the keys the config holds; the library keeps each default."""
    return {param: raw[key] for param, key in params.items() if key in raw}


def _load_campaign(directory: str) -> tuple[dict, dict]:
    """The verdicts recomputed from the files of the persisted campaign that
    the recompute suite re-verifies, and the verdicts stored with them.
    Raises ValueError naming recompute_dir when a file is missing,
    `load_sweep` rejects the summary or a diagnostics CSV, verdicts.json
    lacks its `verdicts` or its list of known `claims`, or the records lack
    what a listed claim reads."""
    for name in ("summary.json", "verdicts.json"):
        if not os.path.isfile(os.path.join(directory, name)):
            raise ValueError(f"recompute_dir: {directory!r} holds no {name}")
    try:
        records, plan = load_sweep(directory)
        with open(os.path.join(directory, "verdicts.json")) as fh:
            stored = json.load(fh)
        claims = stored.get("claims") if isinstance(stored, dict) else None
        if not (isinstance(claims, list) and all(name in CLAIMS for name in claims) and "verdicts" in stored):
            raise ValueError(f"verdicts.json needs 'verdicts' and 'claims' from {list(CLAIMS)}")
        fresh = verdicts(records, plan, claims)
    except (OSError, ValueError, LookupError, TypeError) as exc:  # whatever a malformed file raises
        raise ValueError(f"recompute_dir: {directory!r} holds no campaign that loads: {type(exc).__name__}: {exc}") from exc
    return fresh, stored["verdicts"]


def load_config(path: str, command: str, flags: dict | None = None) -> dict:
    """Read, check against the command's table, and cross-check a config
    file.  `flags` (command-line overrides such as seed or jobs) are checked
    against the same table entries and then merged into the raw config.

    Returns a context dict holding the raw config plus the constructed
    domain objects for the subcommand.  Raises ConfigError on any problem.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, a bad encoding, an integer of over 4300 digits
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc

    ctx: dict = {"raw": raw}
    try:
        table = CONFIG_TABLES[command]
        _check(raw, Key("object", table=table), "<root>")
        for name, value in (flags or {}).items():
            _check(value, table[name], f"--{name}")
            raw[name] = value
        if command == "simulate":
            cutoff = CutoffSpec(**raw.get("cutoff", {}))
            ctx["fam"] = DataFamily(
                raw["dim"], raw["eps"], raw["M"], cutoff=cutoff, **_given(raw, potential_mode="potential_mode")
            )
            ctx["grid"] = grid = _grid("grid/", raw["grid"], cutoff.outer)
            # each snapshot level keeps full-width rows of u, v and A
            levels = len(snapshot_levels(raw.get("snapshot_times", []), grid))
            _cap_nodes("snapshot_times", levels * (grid.n + 1), f"{levels} snapshot levels of {grid.n + 1} nodes keep ")
        elif command == "sweep":
            plan = SweepPlan(
                dim=raw["dim"],
                M=raw["M"],
                eps_list=tuple(raw["eps_list"]),
                T=raw["T"],
                probes=tuple(tuple(p) for p in raw.get("probes", [])),
                cutoff=CutoffSpec(**raw.get("cutoff", {})),
                **_given(raw, h_over_eps="h_over_eps", potential_mode="potential_mode"),
            )
            for i, eps in enumerate(plan.eps_list):
                try:
                    n = grid_for_eps(plan, eps).n
                except (ValueError, ArithmeticError) as exc:
                    raise ValueError(f"eps_list/{i}: no grid for eps = {eps!r}: {exc}") from exc
                _cap_nodes(f"eps_list/{i}", n + 1, f"eps = {eps!r} at h_over_eps = {plan.h_over_eps!r} needs ")
            # bench/setup_probe.py builds each run's data family from ctx["mode"]
            ctx["plan"], ctx["mode"] = plan, plan.potential_mode
            ctx["claims"] = sweep_claims(plan, raw.get("claims"))
            if "gauss" in ctx["claims"]:
                for i, eps in enumerate(plan.eps_list):
                    _cap_nodes(f"eps_list/{i}", gauss_pairing_n(eps) + 1, f"the gauss pairing at eps = {eps!r} needs ")
        elif command == "verify":
            suites = raw.get("suites", [s for s in _SUITES if s != "recompute"])
            if "recompute" in suites:
                if "recompute_dir" not in raw:
                    raise ValueError("suite 'recompute' selected but recompute_dir missing")
                ctx["campaign"] = _load_campaign(raw["recompute_dir"])
            ctx["suite_grid"] = _grid("grid/", raw["grid"]) if "grid" in raw else None
            base = suite_grid("nullform")  # the refinement study's own base grid
            for i, factor in enumerate(raw.get("refinement_factors", ())):
                _cap_nodes(f"refinement_factors/{i}", factor * base.n + 1, f"factor {factor} on the base n = {base.n} gives ")
            for name in (s for s in _SUITE_RUNNERS if s in suites):
                if name not in raw.get("counts", {}):
                    raise ValueError(f"suite '{name}' selected but counts.{name} missing")
                if ctx["suite_grid"]:
                    check_suite_grid(name, ctx["suite_grid"])
            ctx["suites"] = suites
        elif command == "norms":
            eps_list = raw["eps_list"]
            if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
                raise ValueError("eps_list must be strictly decreasing")
            # the norms tables' H^s column label of each s, which must be unique
            ctx["hs_columns"] = columns = {}
            for i, s in enumerate(raw.get("s_values", [-0.75, -0.5, -0.25, -0.1])):
                if (label := f"H{s:g}") in columns:
                    raise ValueError(f"s_values/{i}: {s!r} has the column label {label} of {columns[label]!r}")
                columns[label] = s
            ctx["cutoff"] = CutoffSpec(**raw.get("cutoff", {}))
            L = raw.get("L", 2.5)
            n = raw.get("n", 4096)
            # one-step slab: only the spatial mesh matters for data norms,
            # and the cutoff's support must fit in it as in a run
            ctx["grid"] = _grid("", {"L": L, "n": n, "t_max": 2.0 * L / n}, ctx["cutoff"].outer)
    except (ValueError, ArithmeticError) as exc:  # arithmetic on extreme finite numbers
        raise ConfigError(f"{path}: {exc}") from exc
    return ctx


# ---------------------------------------------------------------------------
# Shared output helpers.
# ---------------------------------------------------------------------------


def _out_dir(raw: dict, args, command: str) -> str:
    out = args.out or raw.get("out") or f"{command}_out"
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


class A0Oracle:
    """Max deviation of the computed A_0 from half the cone integral of the
    charge density, over a few cone vertices inside the slab.

    Both potential-data flavours start from vanishing A_0 data, so the
    Duhamel representation makes the two quantities equal up to quadrature
    error; the deviation is O(h^2).  As an observer it adds each level's
    cross-section of every vertex cone and reads A_0 at the vertices of that
    level, in O(n) memory.  The density is the level's S_0 = |u|^2 + |v|^2,
    which `evolve` has formed.  The vertex cones may reach past the marched
    window, so each level's density is summed from a full-width row, zero
    outside the window, as a full-grid run would sum it.  Raises ValueError
    for a grid whose t_max puts a vertex cone past its edge nodes."""

    def __init__(self, grid: GridSpec):
        self.h = grid.h
        self.row = np.zeros(grid.n + 1)
        center = grid.n // 2
        levels = sorted(m for m in {max(1, grid.steps // 2), grid.steps} if m <= grid.steps)
        # vertex (level, node) -> the cross-section integrals of its cone so far
        self.sections = {(m, j): [] for m in levels for j in (center - m // 2, center, center + m // 2)}
        if any(j - m < 0 or j + m > grid.n for m, j in self.sections):
            raise ValueError(f"the oracle's vertex cones at t = {levels[-1] * grid.h:g} leave the grid")
        self.measured: dict[tuple[int, int], float] = {}  # A_0 at each vertex

    def on_level(self, lev, grid: GridSpec) -> None:
        self.row[lev.first : lev.first + lev.x.size] = lev.S[0]
        for (m, j), sections in self.sections.items():
            if lev.m <= m:
                sections.append(trapezoid(self.row[j - m + lev.m : j + m - lev.m + 1], grid.h))
            if lev.m == m:
                self.measured[m, j] = float(lev.A[0][j - lev.first])

    def deviation(self) -> float:
        worst = 0.0
        for v, sections in self.sections.items():
            worst = max(worst, abs(self.measured[v] - 0.5 * cumulative_trapezoid(sections, self.h)[-1]))
        return worst


def cmd_simulate(ctx: dict, args) -> int:
    raw, fam, grid = ctx["raw"], ctx["fam"], ctx["grid"]
    try:
        oracle = A0Oracle(grid) if args.oracle else None
    except ValueError as exc:
        raise ConfigError(f"{args.config}: grid/t_max: {exc}") from exc
    out = _out_dir(raw, args, "simulate")
    chash = config_hash({"command": "simulate", **raw})
    snaps, series = Snapshots(grid, fam.dim, raw.get("snapshot_times", ())), Series(grid, fam.dim)
    traj = evolve(fam, grid, observers=(snaps, series, oracle) if oracle else (snaps, series))
    paths = trajectory_to_csv(traj, snaps, series, out, config_hash=chash)
    q = series.series()["charge"]
    drift = float(np.max(np.abs(q - q[0])) / q[0]) if q[0] > 0 else 0.0
    manifest = {
        "config": raw,
        "config_hash": chash,
        "grid": {
            "L": grid.L,
            "n": grid.n,
            "h": grid.h,
            "t_max": grid.t_max,
            "steps": grid.steps,
        },
        "charge_drift": drift,
        "files": sorted(os.path.basename(p) for p in paths),
    }
    if args.oracle:
        manifest["oracle_A0_max_deviation"] = oracle.deviation()
    write_json(os.path.join(out, "manifest.json"), manifest)
    print(f"simulate: wrote {len(paths) + 1} files to {out}; charge drift {drift:.3e}")
    if args.oracle:
        dev = manifest["oracle_A0_max_deviation"]
        print(f"simulate: oracle max |A0 - (1/2) cone integral| = {dev:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(ctx: dict, args) -> int:
    raw, plan, claims = ctx["raw"], ctx["plan"], ctx["claims"]
    out = _out_dir(raw, args, "sweep")
    results = run_sweep(plan, claims=claims, **_given(raw, jobs="jobs"))
    summary = write_sweep(results, plan, out)
    found = verdicts(results, plan, claims)
    failed = [name for name in claims if not verdict_passed(found[name])]
    write_json(
        os.path.join(out, "verdicts.json"),
        {
            "config_hash": summary["config_hash"],
            "claims": claims,
            "verdicts": found,
            "pass": not failed,
        },
    )
    for name in claims:
        print(f"sweep: {name} {'FAIL' if name in failed else 'pass'}")
    print(f"sweep: wrote campaign to {out}")
    if failed:
        print(f"sweep: verdict failure: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_NAME_TAG = re.compile(r"\[(\d+),(\d+)\]$")


def _replay_info(suite: str, report_name: str, grid: GridSpec) -> dict:
    m = _NAME_TAG.search(report_name)
    info = {"suite": suite, "grid": {"L": grid.L, "n": grid.n, "t_max": grid.t_max}}
    if m:
        info["seed"] = int(m.group(1))
        info["index"] = int(m.group(2))
    return info


def _recompute_entry(directory: str, campaign: tuple[dict, dict]) -> dict:
    fresh, stored = campaign
    identical = json.loads(json.dumps(fresh)) == stored
    return {
        "name": "recompute",
        "directory": str(directory),
        "identical": identical,
        "pass": identical,
    }


def cmd_verify(ctx: dict, args) -> int:
    raw, suites = ctx["raw"], ctx["suites"]
    out = _out_dir(raw, args, "verify")
    chash = config_hash({"command": "verify", **raw})
    reports: list[dict] = []
    failures = 0

    for name in _SUITE_RUNNERS:
        if name not in suites:
            continue
        grid = ctx["suite_grid"] or suite_grid(name)
        t0 = time.perf_counter()
        reps = _SUITE_RUNNERS[name](raw["counts"][name], raw["seed"], grid)
        elapsed = time.perf_counter() - t0
        bad = [r for r in reps if not r.passed]
        failures += len(bad)
        worst = max(r.ratio for r in reps)
        print(
            f"verify: {name} suite: {len(reps)} reports, {len(bad)} failures, "
            f"worst ratio {worst:.4f} ({elapsed:.1f}s)"
        )
        for r in reps:
            entry = r.to_dict()
            if not r.passed:
                entry["replay"] = _replay_info(name, r.name, grid)
                print(f"verify: FAIL {json.dumps(entry, sort_keys=True)}", file=sys.stderr)
            reports.append(entry)

    if "refinement" in suites:
        for idx in (0, 1, 2):
            rows = nullform_refinement(idx, **_given(raw, factors="refinement_factors"))
            ok = all(ratio <= slack for _, ratio, slack in rows)
            failures += 0 if ok else 1
            reports.append(
                {
                    "name": f"nullform_refinement[{idx}]",
                    "rows": [[int(n), float(r), float(s)] for n, r, s in rows],
                    "pass": ok,
                }
            )
            trend = "  ".join(f"n={n}: {r:.6f} <= {s:.4f}" for n, r, s in rows)
            print(f"verify: refinement[{idx}] {'pass' if ok else 'FAIL'}  {trend}")

    if "bootstrap" in suites:
        for M in raw.get("bootstrap_masses", [0.0, 1.0]):
            C, delta = bootstrap_threshold(M)
            reports.append(
                {
                    "name": f"bootstrap_threshold[M={M:g}]",
                    "C": float(C),
                    "delta": float(delta),
                    "pass": True,
                }
            )
            print(f"verify: bootstrap M={M:g}: C={C:.6f}, delta={delta:.6f}")

    if "recompute" in suites:
        entry = _recompute_entry(raw["recompute_dir"], ctx["campaign"])
        failures += 0 if entry["pass"] else 1
        reports.append(entry)
        print(f"verify: recompute[{raw['recompute_dir']}] {'pass' if entry['pass'] else 'FAIL'}")

    payload = {
        "config_hash": chash,
        "seed": raw["seed"],
        "reports": reports,
        "failures": failures,
        "pass": failures == 0,
    }
    write_json(os.path.join(out, "verify_report.json"), payload)
    print(f"verify: {len(reports)} reports, {failures} failures; report in {out}")
    return EXIT_OK if failures == 0 else EXIT_VERDICT


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def cmd_norms(ctx: dict, args) -> int:
    raw, grid, cutoff = ctx["raw"], ctx["grid"], ctx["cutoff"]
    out = _out_dir(raw, args, "norms")
    eps_list = raw["eps_list"]
    chash = config_hash({"command": "norms", **raw})

    # midpoint samples dodge the node x = 0, so eps = 0 is allowed
    samples = [
        sample_midpoints(lambda x: chi(x, cutoff) * f_eps(x, e), grid) for e in eps_list
    ]
    s_cols = ctx["hs_columns"]  # label -> s

    def l2_hs(vals) -> dict:
        row = {"L2": lp_norm(vals, 2, grid)}
        for col, s in s_cols.items():
            row[col] = hs_norm(vals, s, grid)
        return row

    rows = [
        {"eps": e, "L1": lp_norm(vals, 1, grid), **l2_hs(vals)}
        for e, vals in zip(eps_list, samples)
    ]
    diffs = [
        {"eps_hi": hi, "eps_lo": lo, **l2_hs(s_lo - s_hi)}
        for hi, lo, s_hi, s_lo in zip(eps_list, eps_list[1:], samples, samples[1:])
    ]

    comments = (f"config_hash={chash}",)
    npath = os.path.join(out, "norms.csv")
    header = ["eps", "L1", "L2", *s_cols]
    write_csv(npath, header, ([row[k] for k in header] for row in rows), comments)
    dpath = os.path.join(out, "norm_diffs.csv")
    header = ["eps_hi", "eps_lo", "L2", *s_cols]
    write_csv(dpath, header, ([drow[k] for k in header] for drow in diffs), comments)
    write_json(
        os.path.join(out, "norms.json"),
        {"config_hash": chash, "config": raw, "norms": rows, "differences": diffs},
    )

    header = "eps".ljust(12) + "L1".rjust(12) + "L2".rjust(12) + "".join(c.rjust(12) for c in s_cols)
    print("norms: " + header)
    for row in rows:
        line = f"{row['eps']:<12.4e}" + "".join(
            f"{row[k]:>12.5f}" for k in ("L1", "L2", *s_cols)
        )
        print("norms: " + line)
    for drow in diffs:
        line = f"{drow['eps_hi']:.1e}->{drow['eps_lo']:.1e}" + "".join(
            f"{drow[k]:>12.5f}" for k in ("L2", *s_cols)
        )
        print("norms: diff " + line)
    print(f"norms: wrote {npath}, {dpath}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

_DISPATCH = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "norms": cmd_norms,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxdirac1d",
        description="Characteristic-grid runs, campaigns, and estimate checks "
        "for the reduced Maxwell-Dirac system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "simulate": "run one evolution and write snapshots + diagnostics",
        "sweep": "run an epsilon campaign and write verdicts",
        "verify": "run estimate suites and recompute persisted verdicts",
        "norms": "write initial-data norm tables",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, metavar="PATH", help="JSON config file")
        p.add_argument("--out", metavar="DIR", help="output directory (overrides config)")
        if name == "simulate":
            p.add_argument(
                "--oracle",
                action="store_true",
                help="cross-check A_0 against the cone integral of |psi|^2",
            )
        if name == "sweep":
            p.add_argument("--jobs", type=int, metavar="N", help="parallel runs (overrides config)")
        if name == "verify":
            p.add_argument("--seed", type=int, metavar="S", help="suite seed (overrides config)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {k: v for k in ("seed", "jobs") if (v := getattr(args, k, None)) is not None}
    try:
        return _DISPATCH[args.command](load_config(args.config, args.command, flags), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
