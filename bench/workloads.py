"""The benchmark workloads: the config each one feeds the command line,
the output checks, and the node-step geometry used by the traced pass.

Every input is a function of the workload seed.  The seed picks one of
`VARIANTS` variants (the claim-3 probe, the mass, or the verify RNG seed), so
that `references.json` can hold the seed-commit reference numbers of every
input the benchmark can generate.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

VARIANTS = 16
REL_TOL = 1e-13  # the ROADMAP's agreement tolerance for unchanged arithmetic
SWEEP_T = 0.05
SIM_N = 16384
SIM_STEPS = 160
SIM_L = 2.56


def variant(seed: int) -> int:
    return seed % VARIANTS


def probe(k: int) -> list[float]:
    """Claim-3 probe of variant k, inside {|x| < t} with t < T, clear of the
    cone edge where the closed-form lower bound degenerates."""
    t = round(0.02 + 0.028 * k / (VARIANTS - 1), 5)
    x = round((((7 * k) % VARIANTS) / (VARIANTS - 1) - 0.5) * 1.2 * t, 5)
    return [t, x]


# ---------------------------------------------------------------------------
# Configs.  `shrink` gives the self-test's small versions of the same runs.
# ---------------------------------------------------------------------------


def _blowup_config(k: int, shrink: bool) -> dict:
    eps = [10**-1.5, 10**-1.75, 1e-2] if shrink else [1e-2, 10**-2.25, 10**-2.5]
    return {
        "dim": 2,
        "M": 0.0,
        "eps_list": eps,
        "T": SWEEP_T,
        "h_over_eps": 4.0 if shrink else 16.0,
        "probes": [probe(k)],
        "claims": ["claim3"],
        "jobs": 1,
    }


def _simulate_config(k: int, shrink: bool) -> dict:
    n, steps = (2048, 8) if shrink else (SIM_N, SIM_STEPS)
    t_max = steps * 2.0 * SIM_L / n
    return {
        "dim": 3,
        "M": 0.8 + 0.025 * k,
        "eps": 0.01,
        "grid": {"L": SIM_L, "n": n, "t_max": t_max},
        "snapshot_times": [0.0, t_max],
    }


def _verify_config(k: int, shrink: bool) -> dict:
    counts = {"energy": 4, "wave": 2, "nullform": 8} if shrink else {
        "energy": 200,
        "wave": 100,
        "nullform": 800,
    }
    return {
        "seed": k,
        "suites": ["energy", "wave", "nullform", "refinement"],
        "counts": counts,
    }


# ---------------------------------------------------------------------------
# Output fingerprints: the numbers checked against the seed-commit
# references.  Each entry is {"values": [...], "atol": a}; a value passes
# when |got - ref| <= REL_TOL * |ref| + atol.
# ---------------------------------------------------------------------------


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _entry(values, atol: float = 0.0) -> dict:
    return {"values": [float(v) for v in values], "atol": float(atol)}


def _sweep_check(out: str, cfg: dict) -> tuple[dict, list[str]]:
    verdicts = _load(os.path.join(out, "verdicts.json"))
    summary = _load(os.path.join(out, "summary.json"))
    problems = []
    for name, v in verdicts["verdicts"].items():
        entries = v if isinstance(v, list) else [v]
        if not all(e["pass"] for e in entries):
            problems.append(f"verdict {name} failed")
    if not verdicts["pass"]:
        problems.append("verdicts.json pass is false")
    fp = {
        "grid_n": _entry([r["n"] for r in summary["runs"]]),
        "claim3_probe_a0": _entry(np.ravel(verdicts["verdicts"]["claim3"]["a0"])),
    }
    return fp, problems


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    header = lines[0].strip().split(",")
    return header, np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def _sample_nodes(n: int) -> np.ndarray:
    """Nodes spread over the datum's support |x| < 2, plus the peak at x = 0."""
    x = np.linspace(-SIM_L, SIM_L, n + 1)
    picks = {int(np.argmin(np.abs(x - xs))) for xs in np.linspace(-1.9, 1.9, 39)}
    return np.array(sorted(picks))


def _simulate_check(out: str, cfg: dict) -> tuple[dict, list[str]]:
    manifest = _load(os.path.join(out, "manifest.json"))
    header, diag = _read_csv(os.path.join(out, "diagnostics.csv"))
    fp = {
        "charge_final": _entry([diag[-1, header.index("charge")]]),
        # round-off sized, so compared absolutely
        "charge_drift": _entry([manifest["charge_drift"]], atol=REL_TOL),
    }
    nodes = _sample_nodes(cfg["grid"]["n"])
    for k in range(len(cfg["snapshot_times"])):
        name = f"snapshot_{k:03d}.csv"
        header, data = _read_csv(os.path.join(out, name))
        for c, col in enumerate(header[1:], start=1):
            vals = data[:, c]
            scale = float(np.abs(vals).max())
            stats = [scale, float(np.abs(vals).sum()), *vals[nodes]]
            fp[f"{name}:{col}"] = _entry(stats, atol=REL_TOL * scale)
    return fp, []


_SUITE_PREFIX = {"energy": "energy[", "wave": "wave_", "nullform": "nullform["}


def _verify_check(out: str, cfg: dict) -> tuple[dict, list[str]]:
    report = _load(os.path.join(out, "verify_report.json"))
    reports = report["reports"]
    problems = [f"report {r['name']} failed" for r in reports if not r["pass"]]
    if report["failures"] != 0 or not report["pass"]:
        problems.append(f"verify_report.json lists {report['failures']} failures")
    fp = {}
    for suite, prefix in _SUITE_PREFIX.items():
        reps = [r for r in reports if r["name"].startswith(prefix)]
        ratios = [r["ratio"] for r in reps]
        fp[f"{suite}_reports"] = _entry(
            [
                len(reps),
                max(ratios, default=0.0),
                sum(ratios),
                sum(r["lhs"] for r in reps),
                sum(r["rhs"] for r in reps),
            ]
        )
    for r in reports:
        if r["name"].startswith("nullform_refinement"):
            fp[r["name"]] = _entry(np.ravel(r["rows"]))
    return fp, problems


def compare(fp: dict, ref: dict) -> list[str]:
    """Mismatches of a fingerprint against its reference."""
    problems = []
    for key, want in ref.items():
        got = fp.get(key)
        if got is None or len(got["values"]) != len(want["values"]):
            problems.append(f"{key}: missing or wrong length")
            continue
        g = np.asarray(got["values"])
        w = np.asarray(want["values"])
        bad = ~(np.abs(g - w) <= REL_TOL * np.abs(w) + want["atol"])
        if bad.any():
            i = int(np.argmax(bad))
            problems.append(f"{key}[{i}]: got {g[i]!r}, reference {w[i]!r}")
    for key in fp.keys() - ref.keys():
        problems.append(f"{key}: not in the reference")
    return problems


def tree_digest(directory: str) -> str:
    """sha256 over the names and bytes of every file under directory."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Node-step geometry.  A node-step is one node advanced by one level of the
# transport layer.  A node-step is useful when it lies in the dependence cone
# of something the outputs read (CFL = 1 stencils widen the cone by one node
# per level), with one extra node of stencil margin.
# ---------------------------------------------------------------------------


def _grids(out: str, cfg: dict, command: str) -> list[tuple[int, float, int]]:
    """(n, h, steps) of every evolve run of one invocation."""
    if command == "sweep":
        runs = _load(os.path.join(out, "summary.json"))["runs"]
        return [(r["n"], r["h"], int(round(r["t_max"] / r["h"]))) for r in runs]
    if command == "simulate":
        g = cfg["grid"]
        h = 2.0 * g["L"] / g["n"]
        return [(g["n"], h, int(round(g["t_max"] / h)))]
    return []


def _useful_sweep(n: int, h: float, steps: int, cfg: dict) -> int:
    """The sweep's outputs read A_0 at the claim-3 probes only: ProbeMonitor
    interpolates between the bracketing levels m0, m0+1 and nodes j0, j0+1."""
    L = 0.5 * n * h
    cones = []
    for t, xp in cfg["probes"]:
        m0 = min(int(t / h), steps - 1)
        j0 = min(int((xp + L) / h), n - 1)
        cones.append((m0 + 1, j0, j0 + 1))
    useful = 0
    for level in range(1, steps + 1):
        mask = np.zeros(n + 1, dtype=bool)
        for top, lo, hi in cones:
            if level <= top:
                reach = top - level + 1
                mask[max(0, lo - reach) : min(n + 1, hi + reach + 1)] = True
        useful += int(mask.sum())
    return useful


def useful_node_steps(out: str, cfg: dict, command: str) -> int | None:
    """Node-steps inside the union of the outputs' dependence cones.  Whole-
    line outputs (simulate's series and snapshots, verify's L2 norms) read
    every node, so there every computed node-step is useful: None."""
    if command == "sweep":
        return sum(_useful_sweep(n, h, steps, cfg) for n, h, steps in _grids(out, cfg, command))
    return None


def computed_sizes(out: str, cfg: dict, command: str) -> dict:
    """Largest spinor field row and per-step working set, in bytes, computed
    from the grid: u and v, three potential levels, sources and dA/dt."""
    dim = cfg.get("dim", 1)
    ncomp = 2 if dim == 3 else 1
    grids = _grids(out, cfg, command) or [(256, 0.02, 12)]  # verify's default suite grid
    nodes = max(n for n, _, _ in grids) + 1
    return {
        "field_row_bytes": 16 * ncomp * nodes,
        "step_working_set_bytes": (32 * ncomp + 40 * (dim + 1)) * nodes,
        "label": "computed from the grid, not measured",
    }


# ---------------------------------------------------------------------------
# The workload table.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    make_config: Callable[[int, bool], dict]
    check: Callable[[str, dict], tuple[dict, list[str]]]

    def units(self, cfg: dict) -> int:
        """Ops in one invocation: one per evolve run, one per verify report."""
        if self.command == "sweep":
            return len(cfg["eps_list"])
        if self.command == "verify":
            c = cfg["counts"]
            return c["energy"] + 4 * c["wave"] + c["nullform"] + 3
        return 1


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("blowup_ladder", "sweep", _blowup_config, _sweep_check),
        Workload("simulate_full_line", "simulate", _simulate_config, _simulate_check),
        Workload("verify_suites", "verify", _verify_config, _verify_check),
    )
}
