"""The paper's numbers, pinned: small CLI runs against recorded outputs.

Each case runs one command in-process on a small config and reduces its
exit code and output directory to a flat fingerprint: every number, flag and string in the
JSON files, and per CSV column its max |.|, its sum of |.|, and its first and
last entries.  Numbers must match the recorded ones in
`tests/references/<case>.json` to 1e-13 relative.  Round-off quantities are
compared absolutely instead: the charge drift at 1e-13, and CSV entries at
1e-13 times their column's max, since an entry small next to that max carries
only round-off.

The references were recorded at a commit whose numbers were accepted.
Re-record only when a change is meant to move them, with its reason and its
largest deviation in CHANGES.md:

    PYTHONPATH=src python tests/test_reference_outputs.py

A new case is recorded alone, by name, so that the others stay as they are:

    PYTHONPATH=src python tests/test_reference_outputs.py <case> ...
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

import pytest

from maxdirac1d import cli

REL_TOL = 1e-13
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references")
# not outputs of the numerics: the hash covers the config, which may name a path
SKIPPED_KEYS = {"config_hash", "directory"}
ROUND_OFF_KEYS = {"charge_drift"}

_LADDER = {"M": 0.0, "eps_list": [0.1, 0.07, 0.05], "T": 0.05, "h_over_eps": 4.0}
_PROBES = {"probes": [[0.04, 0.0], [0.03, -0.01]]}
_SIM = {"M": 1.0, "eps": 0.1, "grid": {"L": 2.56, "n": 256, "t_max": 0.16}}
_SUITES = {"energy": 4, "wave": 3, "nullform": 24}

# name -> (command, config, extra argv); "{sweep_dim2}" names that case's output
CASES = {
    **{
        f"sweep_dim{d}": ("sweep", {"dim": d, **_LADDER, **_PROBES}, [])
        for d in (1, 2, 3)
    },
    "sweep_constrained": (
        "sweep",
        {"dim": 2, **_LADDER, "M": 1.0, "potential_mode": "constrained"},
        [],
    ),
    "sweep_claim3_only": ("sweep", {"dim": 3, **_LADDER, **_PROBES, "claims": ["claim3"]}, []),
    **{
        f"simulate_dim{d}": (
            "simulate",
            {
                "dim": d,
                **_SIM,
                "potential_mode": "constrained" if d == 2 else "zero",
                "snapshot_times": [0.0, 0.08, 0.16],
            },
            ["--oracle"],
        )
        for d in (1, 2, 3)
    },
    # dim 3 with a nonzero b_1 datum: the constrained potential data in the
    # charge-critical dimension
    "simulate_dim3_constrained": (
        "simulate",
        {"dim": 3, **_SIM, "potential_mode": "constrained", "snapshot_times": [0.0, 0.08, 0.16]},
        ["--oracle"],
    ),
    "norms": ("norms", {"eps_list": [1e-2, 1e-3, 0.0], "s_values": [-0.5, -0.25], "n": 1024}, []),
    "verify_default_grid": (
        "verify",
        {
            "seed": 5,
            "suites": ["energy", "wave", "nullform", "refinement", "bootstrap", "recompute"],
            "counts": _SUITES,
            "recompute_dir": "{sweep_dim2}",
        },
        [],
    ),
    "verify_config_grid": (
        "verify",
        {
            "seed": 6,
            "suites": ["energy", "wave", "nullform"],
            "counts": _SUITES,
            "grid": {"L": 2.56, "n": 192, "t_max": 0.64},
        },
        [],
    ),
}


# ---------------------------------------------------------------------------
# Fingerprints.
# ---------------------------------------------------------------------------


def _flatten(prefix: str, node, out: dict) -> None:
    if isinstance(node, dict):
        for key, val in node.items():
            if key not in SKIPPED_KEYS:
                _flatten(f"{prefix}.{key}", val, out)
    elif isinstance(node, list):
        for i, val in enumerate(node):
            _flatten(f"{prefix}[{i}]", val, out)
    else:
        out[prefix] = node


def _csv_columns(path: str) -> dict[str, list[float]]:
    with open(path) as fh:
        rows = [line.strip().split(",") for line in fh if not line.startswith("#")]
    try:
        float(rows[0][0])
        header = [f"col{i}" for i in range(len(rows[0]))]
    except ValueError:
        header, rows = rows[0], rows[1:]
    return {name: [float(r[c]) for r in rows] for c, name in enumerate(header)}


def fingerprint(directory: str) -> dict:
    """{key: value} over every output file; CSV stats come as
    [max |.|, sum |.|, first, last] per column."""
    fp: dict = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if name.endswith(".json"):
            with open(path) as fh:
                _flatten(name, json.load(fh), fp)
        elif name.endswith(".csv"):
            for col, vals in _csv_columns(path).items():
                absvals = [abs(v) for v in vals]
                fp[f"{name}:{col}"] = [max(absvals), math.fsum(absvals), vals[0], vals[-1]]
    return fp


def run_case(name: str, root: str) -> dict:
    command, config, extra = CASES[name]
    text = json.dumps(config)
    for other in CASES:
        text = text.replace("{%s}" % other, os.path.join(root, other))
    cfg_path = os.path.join(root, f"{name}.json")
    with open(cfg_path, "w") as fh:
        fh.write(text)
    out = os.path.join(root, name)
    rc = cli.main([command, "--config", cfg_path, "--out", out, *extra])
    return {"exit_code": rc, **(fingerprint(out) if os.path.isdir(out) else {})}


def run_all(root: str, names=CASES) -> dict[str, dict]:
    # in CASES order, sweeps first: verify reads one
    return {name: run_case(name, root) for name in CASES if name in names}


# ---------------------------------------------------------------------------
# Comparison.
# ---------------------------------------------------------------------------


def _close(got: float, want: float, atol: float) -> bool:
    return got == want or abs(got - want) <= REL_TOL * abs(want) + atol


def mismatches(fp: dict, ref: dict) -> list[str]:
    problems = [f"{key}: not in the reference" for key in fp.keys() - ref.keys()]
    for key, want in ref.items():
        if key not in fp:
            problems.append(f"{key}: missing")
            continue
        got = fp[key]
        if ":" in key:  # CSV column stats: absolute against the column max
            ok = len(got) == len(want) and all(
                _close(g, w, REL_TOL * want[0]) for g, w in zip(got, want)
            )
        elif isinstance(want, bool) or not isinstance(want, (int, float)):
            ok = got == want
        else:
            atol = REL_TOL if key.rsplit(".", 1)[-1] in ROUND_OFF_KEYS else 0.0
            ok = isinstance(got, (int, float)) and _close(got, want, atol)
        if not ok:
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    return problems


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("reference_runs"))
    return run_all(root)


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_references(outputs, case, capsys):
    capsys.readouterr()
    with open(os.path.join(REFERENCES, f"{case}.json")) as fh:
        ref = json.load(fh)
    problems = mismatches(outputs[case], ref)
    assert not problems, "\n".join(problems[:20])


def record(names=CASES) -> None:
    """Record the named cases (all by default).  A verify case that reads a
    sweep's output needs that sweep among the names."""
    unknown = set(names) - CASES.keys()
    if unknown:
        raise SystemExit(f"unknown cases: {sorted(unknown)}")
    os.makedirs(REFERENCES, exist_ok=True)
    with tempfile.TemporaryDirectory() as root:
        recorded = run_all(root, names)
        for case, fp in recorded.items():
            with open(os.path.join(REFERENCES, f"{case}.json"), "w") as fh:
                json.dump(fp, fh, indent=1, sort_keys=True)
                fh.write("\n")
    print(f"recorded {len(recorded)} cases in {REFERENCES}", file=sys.stderr)


if __name__ == "__main__":
    record(sys.argv[1:] or CASES)
