"""Time one set-up of a workload in a fresh interpreter: import the command
line, load and validate the config, and build the initial data of every run
it will evolve.  Prints the seconds as one JSON object.

    python3 bench/setup_probe.py <simulate|sweep|verify> <config.json>
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from maxdirac1d import cli  # noqa: E402
from maxdirac1d.experiments import grid_for_eps  # noqa: E402
from maxdirac1d.initial_data import DataFamily, potential_data, spinor_datum  # noqa: E402


def main(command: str, path: str) -> None:
    ctx = cli.load_config(path, command)
    if command == "simulate":
        spinor_datum(ctx["fam"], ctx["grid"])
        potential_data(ctx["fam"], ctx["grid"])
    elif command == "sweep":
        plan = ctx["plan"]
        for eps in plan.eps_list:
            fam = DataFamily(
                dim=plan.dim, eps=eps, M=plan.M, potential_mode=ctx["mode"], cutoff=plan.cutoff
            )
            grid = grid_for_eps(plan, eps)
            spinor_datum(fam, grid)
            potential_data(fam, grid)
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
