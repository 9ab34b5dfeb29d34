"""Quick self-test of the benchmark harness.

Runs shrunk versions of the workloads through the same code path as
bench/bench.py, untraced and traced, and asserts that every metric declared
in BENCHMARK.json is emitted as a finite number and that every output check
passes.  The shrunk runs have no seed-commit references, so only the
verdicts and the repeat-identity checks apply.  Takes about a minute:

    python3 bench/selftest.py
"""

import json
import math
import sys

import bench
import workloads


def main() -> int:
    declared = bench.declared_metrics()
    bad = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = bench.run(name, seed=0, seconds=0.0, trace=trace, shrink=True)
            json.dumps(result)  # serialisable, as printed
            metrics = result["metrics"]
            mismatch = sorted(set(metrics) ^ set(declared[trace]))
            if mismatch:
                bad.append(f"{name} trace {trace}: metrics {mismatch}")
            for metric, entry in metrics.items():
                if not (isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])):
                    bad.append(f"{name} trace {trace}: {metric} = {entry['value']!r}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                bad.append(
                    f"{name} trace {trace}: correct {result['correct']}, "
                    f"{result['failed']} of {result['attempted']} failed"
                )
    for line in bad:
        print(f"selftest: FAIL {line}")
    print(f"selftest: {'FAIL' if bad else 'ok'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
