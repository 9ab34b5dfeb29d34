"""Run a fixed list of command-line configs on two revisions and compare
every output file byte for byte.

    python tools/compare_outputs.py REV [OTHER]

REV and OTHER are git revisions; OTHER defaults to HEAD.  OTHER may also be
a directory holding a checkout (`.` for the working tree, uncommitted edits
included).  Each revision is exported with `git archive` into a temporary
directory and runs the same configs from the same relative paths, in one
process at a time: each case on both revisions back to back, the side that
goes first alternating from case to case, so that a drift in the machine's
speed over the run weighs on both sides alike.  The configs cover
`simulate` in dims 1-3 with both potential modes, with and without
`--oracle`; a massless zero-mode
`simulate` in dim 3, which marches free transport, with and without
`--oracle`; the benchmark's dim-3 n = 16384 simulate run, with and without
`--oracle`; a dim-2 `--oracle` run with t_max = 0, which computes one level
only; `--oracle` runs in dims 2 and 3 whose cutoff is so narrow that the
oracle's vertex cones reach past the marched support cone; default-claims
sweeps in dims 1-3 in the zero potential mode and in dim 2 in the
constrained mode; probe-only claim-3 sweeps in dims 1-3 with that narrow
cutoff, whose probe cone reaches past the support cone, so that the
support cut binds; a probe-only claim-3 sweep at M = 1, which takes the
general step on a datum sampled on the probe cones' reach only; a
probe-only claim-3 sweep in dim 3 in the constrained mode (revisions that
took claim 3 in the zero mode only exit 2 on it, so against them it is the
one case that differs); the benchmark's blow-up ladder; `verify` with seed
0; `verify` with no `suites` key, so every default suite runs, the
refinement study at factors 1 and 2 and the bootstrap thresholds at three
masses included; `verify` recomputing each dim-2 sweep's verdicts from its
files; and `norms`.  Each run's wall time and peak RSS (the child's own
maximum resident set, from `os.wait4`) are printed side by side for the two
revisions, then every difference (a file that only one revision wrote is
named with it) and the count of files the two wrote between them.  A JSON
or CSV file whose bytes differ is also given the largest relative
difference |a - b| / max(|a|, |b|) over its numbers (JSON values, CSV
cells below the `#` comment lines), when both sides hold numbers at the
same places; inf when a non-finite number differs.  The exit status is 0
when every run exits alike and writes the same files with the same bytes,
and 1 otherwise, however small the differences.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SIM = {"M": 1.0, "eps": 0.1, "grid": {"L": 2.56, "n": 256, "t_max": 0.16}, "snapshot_times": [0.0, 0.08, 0.16]}
_LADDER = {"M": 0.0, "eps_list": [0.1, 0.07, 0.05], "T": 0.05, "h_over_eps": 4.0, "probes": [[0.04, 0.0], [0.03, -0.01]]}
_BENCH_T = 160 * 2.0 * 2.56 / 16384
_BENCH_DIM3 = {"dim": 3, "M": 0.875, "eps": 0.01, "grid": {"L": 2.56, "n": 16384, "t_max": _BENCH_T}, "snapshot_times": [0.0, _BENCH_T]}

# nodes 63..449 are marched; the oracle's vertex cones span nodes 16..496
_NARROW = {"dim": 2, "M": 1.0, "eps": 0.05, "cutoff": {"inner": 0.1, "outer": 0.2}, "grid": {"L": 1.6, "n": 512, "t_max": 1.0}}
# the probe's cone reaches past the support cone of |x| < 0.2, which cuts the read hull
_NARROW_LADDER = {
    "M": 0.0,
    "eps_list": [0.05, 0.035, 0.025],
    "T": 0.3,
    "h_over_eps": 8.0,
    "cutoff": _NARROW["cutoff"],
    "probes": [[0.25, 0.24]],
    "claims": ["claim3"],
}

# name -> (command, config, extra arguments)
CASES = {
    **{
        f"simulate_dim{d}_{mode}{'_oracle' if oracle else ''}": (
            "simulate",
            {"dim": d, **_SIM, "potential_mode": mode},
            ["--oracle"] if oracle else [],
        )
        for d in (1, 2, 3)
        for mode in ("zero", "constrained")
        for oracle in (False, True)
    },
    # M = 0 in the zero mode: free transport, snapshots at 0, t_max/2 and t_max
    **{
        f"simulate_dim3_massless{'_oracle' if oracle else ''}": ("simulate", {"dim": 3, **_SIM, "M": 0.0}, ["--oracle"] if oracle else [])
        for oracle in (False, True)
    },
    "simulate_bench_dim3": ("simulate", _BENCH_DIM3, []),
    "simulate_bench_dim3_oracle": ("simulate", _BENCH_DIM3, ["--oracle"]),
    # one level only: no wave step is taken
    "simulate_t_max_zero_oracle": (
        "simulate",
        {"dim": 2, **_SIM, "grid": dict(_SIM["grid"], t_max=0.0), "snapshot_times": [0.0]},
        ["--oracle"],
    ),
    "simulate_narrow_cutoff_oracle": ("simulate", _NARROW, ["--oracle"]),
    # the oracle reads one-component u and v on a window narrower than its cones
    "simulate_dim3_narrow_cutoff_oracle": ("simulate", dict(_NARROW, dim=3), ["--oracle"]),
    **{f"sweep_dim{d}": ("sweep", {"dim": d, **_LADDER}, []) for d in (1, 2, 3)},
    # default claims 1 and 2
    "sweep_dim2_constrained": ("sweep", {"dim": 2, **_LADDER, "potential_mode": "constrained"}, []),
    # probe-only, so the datum is sampled on the probe cones' reach only
    **{f"sweep_claim3_narrow_dim{d}": ("sweep", {"dim": d, **_NARROW_LADDER}, []) for d in (1, 2, 3)},
    "sweep_claim3_massive": ("sweep", {"dim": 2, **_LADDER, "M": 1.0, "claims": ["claim3"]}, []),
    # default probes, at the default h = eps/16
    "sweep_claim3_constrained": (
        "sweep",
        {"dim": 3, "M": 0.0, "eps_list": [1e-2, 10**-2.5], "T": 0.05, "potential_mode": "constrained", "claims": ["claim3"]},
        [],
    ),
    "sweep_blowup": (
        "sweep",
        {
            "dim": 2,
            "M": 0.0,
            "eps_list": [1e-2, 10**-2.25, 10**-2.5],
            "T": 0.05,
            "h_over_eps": 16.0,
            "probes": [[0.02, -0.012]],
            "claims": ["claim3"],
            "jobs": 1,
        },
        [],
    ),
    # the campaigns that the dim-2 sweeps wrote, loaded by `cli.load_config`
    **{
        f"verify_recompute{tag}": ("verify", {"seed": 0, "suites": ["recompute"], "recompute_dir": f"out/sweep_dim2{tag}"}, [])
        for tag in ("", "_constrained")
    },
    "verify_seed0": (
        "verify",
        {"seed": 0, "suites": ["energy", "wave", "nullform", "refinement"], "counts": {"energy": 200, "wave": 100, "nullform": 800}},
        [],
    ),
    # every suite but recompute: the refinement study and the bootstrap thresholds too
    "verify_default_suites": (
        "verify",
        {"seed": 0, "counts": {"energy": 50, "wave": 50, "nullform": 200}, "bootstrap_masses": [0, 1, 3], "refinement_factors": [1, 2]},
        [],
    ),
    "norms": ("norms", {"eps_list": [1e-2, 1e-3, 0.0], "s_values": [-0.5, -0.25], "n": 1024}, []),
}


def checkout(rev: str, into: str) -> str:
    """The source tree of `rev`: a directory as given, or a git revision
    exported into `into`."""
    if os.path.isdir(rev):
        return os.path.abspath(rev)
    tar_path = into + ".tar"
    subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", "-o", tar_path, rev], check=True)
    with tarfile.open(tar_path) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    os.remove(tar_path)
    return into


def run_case(tree: str, run_dir: str, name: str) -> tuple[int, float, float]:
    """Run one case with `tree`'s package, from run_dir: its exit code, wall
    time (s) and peak RSS (MB)."""
    command, config, extra = CASES[name]
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    os.makedirs(os.path.join(run_dir, "configs"), exist_ok=True)
    cfg = os.path.join("configs", f"{name}.json")
    with open(os.path.join(run_dir, cfg), "w") as fh:
        json.dump(config, fh)
    argv = [sys.executable, "-m", "maxdirac1d", command, "--config", cfg, "--out", os.path.join("out", name), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=run_dir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    # the usage of this child alone: RUSAGE_CHILDREN keeps a maximum over all of them
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _json_numbers(value, where=()):
    """(place, number) for each number in a parsed JSON value, the place
    being its path of keys and list positions."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _json_numbers(value[key], (*where, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _json_numbers(item, (*where, i))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield where, float(value)


def numbers(path: str) -> dict:
    """The numbers a JSON or CSV output file holds, keyed by their place:
    the key path of a JSON value, the (row, column) of a CSV cell below the
    `#` comment lines.  Other files and files that do not parse give {}."""
    try:
        with open(path, newline="") as fh:
            if path.endswith(".json"):
                return dict(_json_numbers(json.load(fh)))
            if not path.endswith(".csv"):
                return {}
            out = {}
            for r, row in enumerate(csv.reader(line for line in fh if not line.startswith("#"))):
                for c, cell in enumerate(row):
                    try:
                        out[r, c] = float(cell)
                    except ValueError:  # a header cell
                        pass
            return out
    except (OSError, UnicodeDecodeError, ValueError):
        return {}


def largest_relative_difference(a: str, b: str) -> float | None:
    """max |x - y| / max(|x|, |y|) over the numbers of files a and b, or
    None when the two do not hold numbers at the same places."""
    xs, ys = numbers(a), numbers(b)
    if not xs or xs.keys() != ys.keys():
        return None
    worst = 0.0
    for place, x in xs.items():
        y = ys[place]
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        worst = max(worst, abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x) and math.isfinite(y) else math.inf)
    return worst


def differences(outs: list[str], revs: list[str]) -> tuple[list[str], int]:
    """Files that one revision's output directory holds and the other's does
    not, or that differ in bytes, as relative paths; and the number of files
    the two wrote between them."""
    names = set()
    for side in outs:
        for root, _, files in os.walk(side):
            names.update(os.path.relpath(os.path.join(root, f), side) for f in files)
    problems = []
    for name in sorted(names):
        a, b = (os.path.join(side, name) for side in outs)
        if not (os.path.isfile(a) and os.path.isfile(b)):
            problems.append(f"{name}: only written by {revs[0] if os.path.isfile(a) else revs[1]}")
        elif not filecmp.cmp(a, b, shallow=False):
            rel = largest_relative_difference(a, b)
            problems.append(f"{name}: bytes differ" + ("" if rel is None else f", largest relative difference {rel:.3g}"))
    return problems, len(names)


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    revs = [argv[0], argv[1] if len(argv) > 1 else "HEAD"]
    with tempfile.TemporaryDirectory() as tmp:
        trees = [checkout(rev, os.path.join(tmp, f"tree{k}")) for k, rev in enumerate(revs)]
        run_dirs = [os.path.join(tmp, f"run{k}") for k in range(2)]
        runs: list[dict] = [{}, {}]
        for i, name in enumerate(CASES):
            for k in (0, 1) if i % 2 == 0 else (1, 0):
                runs[k][name] = code, wall, rss = run_case(trees[k], run_dirs[k], name)
                print(f"  {name} on {revs[k]}: exit {code}, {wall:.2f} s, {rss:.0f} MB", file=sys.stderr)
        outs = [os.path.join(d, "out") for d in run_dirs]
        problems = [f"{name}: exit {runs[0][name][0]} vs {runs[1][name][0]}" for name in CASES if runs[0][name][0] != runs[1][name][0]]
        files, count = differences(outs, revs)
        problems += files
    print(f"{'case':<32}{'wall s':>16}{'peak RSS MB':>18}   ({revs[0]}, {revs[1]})")
    for name in CASES:
        (_, wall0, rss0), (_, wall1, rss1) = runs[0][name], runs[1][name]
        print(f"{name:<32}{wall0:>8.2f}{wall1:>8.2f}{rss0:>9.0f}{rss1:>9.0f}")
    for line in problems:
        print(line)
    print(f"{len(CASES)} runs, {count} files: {'identical' if not problems else f'{len(problems)} differences'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
