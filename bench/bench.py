"""Benchmark of the maxdirac1d command line: time to verdict or output on three
workloads, plus a separate traced pass that breaks the time down by layer.

Run from the repository root:

    python3 bench/bench.py --workload blowup_ladder --seed 1 --seconds 30 --trace 0

The workloads and metrics are declared in BENCHMARK.json and explained in
bench/README.md.  Each run drives `maxdirac1d.cli.main` in-process, in one
process with BLAS/OpenMP threads pinned to 1 and `jobs = 1`.  It makes one
untimed warm-up invocation, whose outputs are checked against the seed-commit
references in bench/references.json, then repeats the invocation for
--seconds; every repeat must write byte-identical outputs.  The last line
printed is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _name in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)  # the checkout's own source, never an installed copy

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 30
RUN_DIR = os.path.join(ROOT, ".bench_run")
TRACE_DIR = os.path.join(RUN_DIR, "traces")


def import_cli():
    """The command line from this checkout's src/; exits non-zero without it."""
    try:
        from maxdirac1d import cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import maxdirac1d from {SRC}: {exc}")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: maxdirac1d imported from {cli.__file__}, not from {SRC}")
    return cli


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def load_reference(name: str, k: int):
    with open(os.path.join(BENCH_DIR, "references.json")) as fh:
        return json.load(fh)[name].get(str(k))


class Session:
    """One workload in one run directory: invokes the CLI and checks outputs."""

    def __init__(self, cli, workload, seed: int, shrink: bool = False):
        self.cli = cli
        self.workload = workload
        self.variant = workloads.variant(seed)
        self.shrink = shrink
        self.config = workload.make_config(self.variant, shrink)
        self.dir = os.path.join(RUN_DIR, f"{workload.name}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config_path = os.path.join(self.dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh)
        self.first_out = os.path.join(self.dir, "out0")
        self.first_digest = None
        self.units = workload.units(self.config)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def invoke(self, tracer=None) -> float:
        """One CLI invocation; returns its wall seconds and records failures."""
        first = self.first_digest is None
        out = self.first_out if first else os.path.join(self.dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        argv = [self.workload.command, "--config", self.config_path, "--out", out]
        gc.collect()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    rc = tracer.call(tracing.ROOT, self.cli.main, (argv,), {}, False)
            except Exception:  # a crash is a failed op, not a failed benchmark
                traceback.print_exc(file=sink)
                rc = None
            wall = time.perf_counter() - t0
        problem = None
        if rc != 0:
            problem = f"exit code {rc}: {sink.getvalue()[-2000:]}"
        elif first:
            self.first_digest = workloads.tree_digest(out)
        elif not self.first_digest:
            problem = "the warm-up invocation failed"
        elif workloads.tree_digest(out) != self.first_digest:
            problem = "outputs differ from the warm-up invocation's"
        if first and problem:
            self.first_digest = ""  # every later invocation fails with it
        self.attempted += self.units
        if problem:
            self.failed += self.units
            self.problems.append(problem)
        if not first:
            shutil.rmtree(out, ignore_errors=True)
        return wall

    def check_first(self) -> None:
        """Verdicts and the seed-commit references, on the warm-up's outputs.
        A failure here fails every invocation, since all match the warm-up."""
        if not self.first_digest:
            return  # already failed
        try:
            fp, problems = self.workload.check(self.first_out, self.config)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            fp, problems = {}, [f"unreadable outputs: {exc!r}"]
        if not self.shrink:
            ref = load_reference(self.workload.name, self.variant)
            if ref is None:
                problems.append(f"no reference for variant {self.variant}")
            else:
                problems += workloads.compare(fp, ref)
        if problems:
            self.problems += problems
            self.failed = self.attempted

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def setup_seconds(session: Session) -> list[float]:
    """Set-up time of fresh interpreters, SETUP_REPEATS times."""
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, probe, session.workload.command, session.config_path],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)} value={values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (
        f"n={len(values)} min={min(values):.4f} q1={q1:.4f} median={q2:.4f} "
        f"q3={q3:.4f} max={max(values):.4f}"
    )


def run_plain(session: Session, seconds: float) -> dict:
    setups = setup_seconds(session)
    session.invoke()  # warm-up: caches, lazy imports, first-call costs
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(session.invoke())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    session.check_first()
    print(f"bench: wall_s samples {_spread(walls)}")
    print(f"bench: setup_s samples {_spread(setups)}")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def _layer_metrics(tracer, wall: float, useful) -> dict:
    selfs = tracer.self_seconds(tracer.run_id)
    node_steps = tracer.widths[tracing.TRANSPORT]
    wave_steps = tracer.widths["cone_solver.wave"]
    transport_calls = tracer.calls["cone_solver:_transport_step"]
    density = sum(tracer.calls[t] for t in tracing.DENSITY_TARGETS)

    def s(layer):
        return selfs.get(layer, 0.0)

    def per_node_step(layer, steps=node_steps):
        return s(layer) * 1e9 / steps if steps else 0.0

    covered = sum(v for k, v in selfs.items() if k != tracing.ROOT)
    return {
        "cone_solver.transport.ns_per_node_step": per_node_step("cone_solver.transport"),
        "cone_solver.transport.us_per_call": (
            s("cone_solver.transport") * 1e6 / transport_calls if transport_calls else 0.0
        ),
        "cone_solver.wave.ns_per_node_step": per_node_step("cone_solver.wave", wave_steps),
        "gamma_algebra.sources.ns_per_node_step": per_node_step("gamma_algebra.sources"),
        "cone_solver.diagnostics.ns_per_node_step": per_node_step("cone_solver.diagnostics"),
        "cone_solver.evolve_self.ns_per_node_step": per_node_step(tracing.EVOLVE),
        "experiments.observers.ns_per_node_step": per_node_step("experiments.observers"),
        "cone_solver.io_s": s("cone_solver.io"),
        "experiments.io_s": s("experiments.io"),
        "experiments.checkers_s": s("experiments.checkers"),
        "initial_data.datum_s": s("initial_data.datum"),
        "cli.config_s": s("cli.config"),
        "cli.main_self_s": s(tracing.ROOT),
        "estimates.energy_s": s("estimates.energy"),
        "estimates.wave_s": s("estimates.wave"),
        "estimates.nullform_s": s("estimates.nullform"),
        "estimates.refinement_s": s("estimates.refinement"),
        "cone_solver.node_steps_computed": node_steps,
        "cone_solver.useful_node_step_ratio": (
            (node_steps if useful is None else useful) / node_steps if node_steps else 0.0
        ),
        "gamma_algebra.density_evals_per_level": density / tracer.levels if tracer.levels else 0.0,
        "trace.layer_coverage": covered / wall,
        "trace.wall_s": wall,
    }


def run_traced(session: Session, seconds: float, seed: int) -> dict:
    session.invoke()  # warm-up, untraced
    useful = None
    if session.first_digest:
        useful = workloads.useful_node_steps(
            session.first_out, session.config, session.workload.command
        )
    tracer = tracing.Tracer()
    cal = calibration.Calibration()
    plain, cals, per_op = [], [], []
    start = time.perf_counter()
    while not per_op or time.perf_counter() - start < seconds:
        cals.append(cal.measure())
        plain.append(session.invoke())
        tracer.begin()
        tracer.install()
        try:
            wall = session.invoke(tracer)
        finally:
            tracer.uninstall()
        per_op.append(_layer_metrics(tracer, wall, useful))
    session.check_first()
    for target in tracer.absent:
        print(f"bench: layer target absent, reported as zero: {target}")
    # median_low: a value one traced invocation actually measured, so the
    # counts stay whole numbers
    metrics = {k: statistics.median_low(op[k] for op in per_op) for k in per_op[0]}
    traced = [op["trace.wall_s"] for op in per_op]
    metrics["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    metrics["untraced.wall_s"] = statistics.median(plain)
    metrics["calibration_s"] = statistics.median(cals)
    metrics["cone_solver.transport.alloc_bytes_per_node_step"] = (
        tracer.transport_alloc_bytes_per_node()
    )
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{session.workload.name}-seed{seed}.csv")
    tracer.write(path)
    print(f"bench: traced wall_s samples {_spread(traced)}")
    print(f"bench: untraced wall_s samples {_spread(plain)}")
    print(f"bench: {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    print("bench: picard is called by no command-line flow and stays unmeasured")
    return metrics


def run(name: str, seed: int, seconds: float, trace: int, shrink: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    cli = import_cli()
    units = declared_metrics()[trace]
    session = Session(cli, workloads.WORKLOADS[name], seed, shrink)
    try:
        if trace:
            values = run_traced(session, seconds, seed)
        else:
            values = run_plain(session, seconds)
    finally:
        session.close()
    for problem in session.problems:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    metrics = {}
    for metric, unit in units.items():
        metrics[metric] = {"value": values[metric], "unit": unit}
        print(f"bench: {metric} = {values[metric]:.6g} {unit}")
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
