"""Spans around the calls into each layer of maxdirac1d, recorded from the
benchmark's own files.

For one traced invocation, `Tracer.install` rebinds every reference the
package holds to a layer's functions (module globals, module-level dicts
such as the CLI's suite table, and class methods) to a wrapper that records
a span; `uninstall` puts the originals back, so untraced invocations run the
program untouched.  A target that no longer exists is reported as absent and
left out instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import numpy as np

PACKAGE = "maxdirac1d"
ROOT = "cli.main"  # the span the harness opens around each invocation
EVOLVE = "cone_solver.evolve"


@dataclass(frozen=True)
class Layer:
    name: str
    targets: tuple[str, ...]  # "module:qualname" inside the package
    under: str | None = None  # open a span only when the caller's span is this layer
    width: bool = False  # count nodes advanced: last axis of the first array returned


LAYERS = (
    Layer("cli.config", ("cli:load_config",)),
    Layer("initial_data.datum", ("initial_data:spinor_datum", "initial_data:potential_data")),
    Layer(EVOLVE, ("cone_solver:evolve",)),
    Layer("cone_solver.transport", ("cone_solver:_transport_step",), width=True),
    Layer(
        "cone_solver.wave",
        ("cone_solver:_wave_first_step", "cone_solver:_wave_diamond"),
        width=True,
    ),
    Layer("gamma_algebra.sources", ("gamma_algebra:wave_sources",), under=EVOLVE),
    Layer(
        "cone_solver.diagnostics",
        ("gamma_algebra:modulus_sq", "cone_solver:trapezoid"),
        under=EVOLVE,
    ),
    Layer(
        "experiments.observers",
        (
            "experiments:TransverseMonitor.on_level",
            "experiments:FloorMonitor.on_level",
            "experiments:ProbeMonitor.on_level",
        ),
    ),
    Layer("cone_solver.io", ("cone_solver:trajectory_to_csv",)),
    Layer("experiments.io", ("experiments:write_sweep",)),
    Layer(
        "experiments.checkers",
        (
            "experiments:check_claim1",
            "experiments:check_claim2",
            "experiments:check_claim3",
            "experiments:gauss_divergence",
        ),
    ),
    Layer("estimates.energy", ("estimates:run_energy_suite",)),
    Layer("estimates.wave", ("estimates:run_wave_suite",)),
    Layer("estimates.nullform", ("estimates:run_nullform_suite",)),
    Layer("estimates.refinement", ("estimates:nullform_refinement",)),
)

# every call of these counts as one evaluation of the charge density S_0
DENSITY_TARGETS = ("gamma_algebra:modulus_sq", "gamma_algebra:wave_sources")
TRANSPORT = "cone_solver.transport"


def _width(result) -> int:
    """Nodes along the last axis of the array returned, or of the first of a
    returned tuple (transport returns (u, v))."""
    arr = result[0] if isinstance(result, tuple) else result
    return int(arr.shape[-1]) if isinstance(arr, np.ndarray) and arr.ndim else 0


def _copy_args(args, kwargs):
    def cp(v):
        return v.copy() if isinstance(v, np.ndarray) else v

    return tuple(cp(a) for a in args), {k: cp(v) for k, v in kwargs.items()}


class Tracer:
    """Spans in memory: [name, start_ns, end_ns, parent index, run id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()  # per target
        self.widths: Counter = Counter()  # per layer
        self.levels = 0  # time levels of every evolve run
        self.absent: list[str] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._widest_transport = None  # (width, fn, args, kwargs)

    # -- recording -----------------------------------------------------------

    def begin(self) -> None:
        """Start a new traced invocation: fresh counters, a new run id."""
        self.run_id += 1
        self.calls = Counter()
        self.widths = Counter()
        self.levels = 0

    def call(self, name: str, fn, args, kwargs, width: bool):
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()
        if width:
            w = _width(result)
            self.widths[name] += w
            if name == TRANSPORT and (
                self._widest_transport is None or w > self._widest_transport[0]
            ):
                self._widest_transport = (w, fn, *_copy_args(args, kwargs))
        if name == EVOLVE:
            times = getattr(result, "times", None)
            self.levels += 0 if times is None else len(times)
        return result

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _wrapper(self, layer: Layer, target: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[target] += 1
            if layer.under is not None and self.current() != layer.under:
                return fn(*args, **kwargs)
            return self.call(layer.name, fn, args, kwargs, layer.width)

        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            for target in layer.targets:
                modname, qualname = target.split(":")
                *owner_path, attr = qualname.split(".")
                try:
                    owner = importlib.import_module(f"{PACKAGE}.{modname}")
                    for part in owner_path:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.absent.append(target)
                    continue
                wrapper = self._wrapper(layer, target, original)
                if owner_path:  # a method: rebind on its class
                    self._patch_attr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._patch_attr(mod, key, wrapper)
                        elif type(val) is dict:
                            for k, v in val.items():
                                if v is original:
                                    self._patches.append((val, k, v, True))
                                    val[k] = wrapper

    def _patch_attr(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr], False))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, is_item in reversed(self._patches):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches = []

    # -- derived numbers -----------------------------------------------------

    def self_seconds(self, run_id: int) -> dict[str, float]:
        """Per layer: span time minus the time of its child spans."""
        first = next(i for i, s in enumerate(self.spans) if s[4] == run_id)
        child = Counter()
        for s in self.spans[first:]:
            if s[4] == run_id and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: Counter = Counter()
        for i, s in enumerate(self.spans[first:], start=first):
            if s[4] == run_id:
                out[s[0]] += (s[2] - s[1] - child[i]) * 1e-9
        return dict(out)

    def transport_alloc_bytes_per_node(self) -> float:
        """Peak bytes a transport call allocates (temporaries and results),
        per node it advances.  Replays the widest call seen under tracemalloc,
        outside every timed region."""
        if self._widest_transport is None:
            return 0.0
        width, fn, args, kwargs = self._widest_transport
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            fn(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return (peak - base) / width if width else 0.0

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,run_id\n")
            for name, start, end, parent, run_id in self.spans:
                fh.write(f"{name},{start},{end},{parent},{run_id}\n")
