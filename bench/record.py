"""Record the benchmark's reference numbers and baseline results.

    python3 bench/record.py references
        Run every variant of every workload once and write the output
        fingerprints to bench/references.json.  Run only at a commit whose
        numbers are the accepted ones (the seed commit did this).

    python3 bench/record.py baseline --tag seed [--runs 10]
        Run bench/bench.py --runs times per workload with seeds 0..runs-1
        (--trace 0), once more per workload with seed 0 and --trace 1, and
        write every result, the medians and the quartile spreads, and the
        machine to bench/results/BENCH_<date>_<tag>.json.

Both run from the repository root.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

import bench
import workloads

DEFAULT_SEED = 0
RESULTS_DIR = os.path.join(bench.BENCH_DIR, "results")


def record_references() -> None:
    cli = bench.import_cli()
    refs = {}
    for name, workload in workloads.WORKLOADS.items():
        refs[name] = {}
        for k in range(workloads.VARIANTS):
            session = bench.Session(cli, workload, seed=k)
            try:
                session.invoke()
                fp, problems = workload.check(session.first_out, session.config)
            finally:
                session.close()
            if session.problems or problems:
                sys.exit(f"record: {name} variant {k} failed: {session.problems + problems}")
            refs[name][str(k)] = fp
            print(f"record: {name} variant {k}: {len(fp)} checked quantities")
    write_references(refs)


def write_references(refs: dict) -> None:
    """One line per workload variant, so a changed reference shows as one line."""
    workloads_out = []
    for name in sorted(refs):
        rows = [
            f'  "{k}": {json.dumps(refs[name][k], sort_keys=True)}'
            for k in sorted(refs[name], key=int)
        ]
        workloads_out.append(f' "{name}": {{\n' + ",\n".join(rows) + "\n }")
    with open(os.path.join(bench.BENCH_DIR, "references.json"), "w") as fh:
        fh.write("{\n" + ",\n".join(workloads_out) + "\n}\n")


def _cache_bytes(level: int):
    """Size of the level-`level` data or unified cache of cpu0, from sysfs."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            d = os.path.join(base, entry)
            with open(os.path.join(d, "level")) as fh:
                if int(fh.read()) != level:
                    continue
            with open(os.path.join(d, "type")) as fh:
                if fh.read().strip() == "Instruction":
                    continue
            with open(os.path.join(d, "size")) as fh:
                size = fh.read().strip()
            scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
            return int(size.rstrip("KM")) * scale
    except OSError:
        pass
    return None


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2_cache_bytes": _cache_bytes(2),
        "l3_cache_bytes": _cache_bytes(3),
        "thread_env": {v: os.environ.get(v) for v in bench.THREAD_VARS},
    }


def _run(name: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(bench.BENCH_DIR, "bench.py"),
            "--workload", name,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        cwd=bench.ROOT,
        timeout=300,
    )
    if proc.returncode != 0:
        sys.exit(f"record: {name} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _sizes(name: str) -> dict:
    workload = workloads.WORKLOADS[name]
    session = bench.Session(bench.import_cli(), workload, seed=DEFAULT_SEED)
    try:
        session.invoke()
        return workloads.computed_sizes(session.first_out, session.config, workload.command)
    finally:
        session.close()


def record_baseline(tag: str, runs: int) -> None:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    report = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        plain = [_run(name, seed, seconds, 0) for seed in range(runs)]
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in plain]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[m["name"]] = {
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med,
                "bound": m["bound"],
                "unit": m["unit"],
            }
            print(f"record: {name} {m['name']} median {med:.6g} spread {(q3 - q1) / med:.4f}")
        report["workloads"][name] = {
            "config_seed0": workloads.WORKLOADS[name].make_config(DEFAULT_SEED, False),
            "sizes": _sizes(name),
            "end_to_end": summary,
            "runs": plain,
            "traced_seed0": _run(name, DEFAULT_SEED, seconds, 1),
        }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{datetime.date.today().isoformat()}_{tag}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"record: wrote {os.path.relpath(path, bench.ROOT)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("references")
    base = sub.add_parser("baseline")
    base.add_argument("--tag", required=True)
    base.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.what == "references":
        record_references()
    else:
        record_baseline(args.tag, args.runs)


if __name__ == "__main__":
    main()
