"""Epsilon-sweep campaigns over the mollified data family.

A campaign is its `SweepPlan`: the epsilon ladder, the horizon T, the probes,
the grid policy and the data family's dim, M, cutoff and potential mode.  A
sweep runs the evolution once per epsilon at a resolution tied to epsilon
(h <= eps/16 by default) and keeps each run's results in a `SweepRecord`,
recording cheap observers instead of field history, only those the selected
claims read:

* the sup of the transverse potentials over the shrinking slab
  K_T = {|x| <= 1 - t}, which stays below 1 (their sources are null forms);
* the pointwise floor of |psi|^2 against half the transported datum
  0.5 f_eps(x - t)^2 on {0 < t < x < 1 - t}, which stays above 1 up to an
  O(h^2/eps^2) relative tolerance (modulus persistence);
* A_0 at interior probe points of {|x| < t}, which grows like
  ((x + t)/8) log(1/eps) as eps -> 0 (charge concentration feeds the
  Coulomb-type potential logarithmically).

Each observer declares the backward cones it reads, so a run marches only
their hull (see `cone_solver`); the whole-line series stay empty.  A
probe-only run at M = 0 in the zero mode marches nothing: its probes read
A_0 from the characteristic sum over the datum (`cone_solver.free_a0`).

The checkers read the records with their plan and turn them into
per-epsilon verdicts, a least-squares blow-up fit, and the Gauss-law
pairing's divergence; `sweep_claims` holds each claim's preconditions.
Artifacts embed a hash of the plan, so persisted campaigns can be
re-verified bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .cone_solver import ConeRegion, LevelState, SolverAbort, _read_hull, evolve, free_a0, trapezoid
from .initial_data import CutoffSpec, DataFamily, GridSpec, PotentialMode, f_eps, write_csv, write_json

__all__ = [
    "SweepPlan",
    "SweepRecord",
    "BlowupFit",
    "default_probes",
    "grid_for_eps",
    "pool_size",
    "run_sweep",
    "sweep_claims",
    "check_claim1",
    "check_claim2",
    "check_claim3",
    "check_gauss",
    "a0_lower_bound",
    "gauss_divergence",
    "gauss_pairing_n",
    "verdicts",
    "verdict_passed",
    "config_hash",
    "write_sweep",
    "load_sweep",
]


CLAIMS = ("claim1", "claim2", "claim3", "gauss")


def default_probes(T: float) -> tuple[tuple[float, float], ...]:
    """Probe points x in {0, +-t/2} at t in {T/2, 3T/4}: interior of the
    blow-up region {|x| < t}, away from the cone edge where the lower bound
    degenerates."""
    out = []
    for t in (0.5 * T, 0.75 * T):
        for x in (0.0, 0.5 * t, -0.5 * t):
            out.append((t, x))
    return tuple(out)


@dataclass(frozen=True)
class SweepPlan:
    """One campaign: a decreasing epsilon ladder observed over [0, T], with
    everything its runs share (the data family's dim, M, cutoff and
    potential mode) and everything its checkers read.

    h_over_eps fixes the grid policy (h <= eps / h_over_eps per run).  The
    probe set doubles as the compact set Q of the blow-up claim: the
    implied coefficient c(Q) is reported as the minimum over the probes.
    """

    dim: int
    M: float
    eps_list: tuple[float, ...]
    T: float
    probes: tuple[tuple[float, float], ...] = ()
    h_over_eps: float = 16.0
    cutoff: CutoffSpec = field(default_factory=CutoffSpec)
    potential_mode: PotentialMode = PotentialMode.ZERO

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_list)
        if len(eps) == 0:
            raise ValueError("eps_list must not be empty")
        if any(e <= 0 for e in eps):
            raise ValueError("eps_list entries must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps_list must be strictly decreasing")
        object.__setattr__(self, "eps_list", eps)
        if not 0.0 < self.T:
            raise ValueError("observation horizon T must be positive")
        if self.h_over_eps < 1.0:
            raise ValueError("h_over_eps must be >= 1")
        probes = tuple((float(t), float(x)) for t, x in self.probes)
        if not probes:
            probes = default_probes(self.T)
        for t, x in probes:
            if not abs(x) < t < self.T:
                raise ValueError(f"probe (t={t}, x={x}) must satisfy |x| < t < T")
        object.__setattr__(self, "probes", probes)
        object.__setattr__(self, "potential_mode", PotentialMode(self.potential_mode))

    def to_dict(self) -> dict:
        """The campaign config that summary.json holds and hashes."""
        plan = {
            "dim": self.dim,
            "M": self.M,
            "eps_list": list(self.eps_list),
            "T": self.T,
            "probes": [list(p) for p in self.probes],
            "h_over_eps": self.h_over_eps,
            "cutoff": [self.cutoff.inner, self.cutoff.outer],
        }
        return {"plan": plan, "mode": self.potential_mode.value}

    @classmethod
    def from_dict(cls, d: dict) -> "SweepPlan":
        """Inverse of to_dict."""
        p = d["plan"]
        return cls(
            dim=p["dim"],
            M=p["M"],
            eps_list=tuple(p["eps_list"]),
            T=p["T"],
            probes=tuple(tuple(q) for q in p["probes"]),
            h_over_eps=p["h_over_eps"],
            cutoff=CutoffSpec(*p["cutoff"]),
            potential_mode=d["mode"],
        )


def grid_for_eps(plan: SweepPlan, eps: float) -> GridSpec:
    """Resolution policy: h <= eps / h_over_eps, slab wide enough that no
    support reaches the boundary band, t_max the first whole level >= T."""
    h_target = eps / plan.h_over_eps
    L = plan.cutoff.outer + plan.T + max(0.05, 4.0 * h_target)
    n = 2 * math.ceil(L / h_target)
    h = 2.0 * L / n
    steps = math.ceil(plan.T / h - 1e-12)
    return GridSpec(L=L, n=n, t_max=steps * h)


# ---------------------------------------------------------------------------
# Observers recorded during a sweep run.
# ---------------------------------------------------------------------------


def _reads_kt(self, grid: GridSpec):
    """The cone K_T over [-1, 1], read up to T."""
    return [(ConeRegion(-1.0, 1.0), grid.steps)]


class TransverseMonitor:
    """Per-level sup of sum_j |A_j| (j >= 2) over the slab |x| <= 1 - t."""

    reads = _reads_kt

    def __init__(self):
        self.values: list[float] = []

    def on_level(self, lev: LevelState, grid: GridSpec) -> None:
        half = 1.0 - lev.t
        if half < 0.0:
            self.values.append(0.0)
            return
        sel = np.abs(lev.x) <= half + 1e-12
        tot = sum(np.abs(Aj[sel]) for Aj in lev.A[2:])  # 0 in dim 1
        self.values.append(float(np.max(tot, initial=0.0)))

    def series(self) -> np.ndarray:
        return np.asarray(self.values)


class FloorMonitor:
    """Per-level min of |psi|^2 / (0.5 f_eps(x - t)^2) over {t < x < 1 - t}.

    Level 0 and empty cross-sections record +inf (the floor claim is
    quantified over 0 < t only).
    """

    reads = _reads_kt

    def __init__(self, eps: float):
        self.eps = eps
        self.values: list[float] = []

    def on_level(self, lev: LevelState, grid: GridSpec) -> None:
        t = lev.t
        sel = (lev.x > t) & (lev.x < 1.0 - t)
        if t <= 0.0 or not sel.any():
            self.values.append(np.inf)
            return
        floor = 0.5 * f_eps(lev.x[sel] - t, self.eps) ** 2
        self.values.append(float((lev.S[0][sel] / floor).min()))

    def series(self) -> np.ndarray:
        return np.asarray(self.values)


class ProbeMonitor:
    """A_0 at fixed (t, x) probes by bilinear interpolation between the two
    bracketing levels and nodes."""

    def __init__(self, probes, grid: GridSpec):
        h = grid.h
        self._acc = np.zeros(len(probes))
        self._needed: dict[int, list[tuple[int, float, int, float]]] = {}
        self._cells: list[tuple[int, int]] = []  # (m0, j0) per probe
        for k, (t, x) in enumerate(probes):
            m0 = min(int(t / h), grid.steps - 1)
            wt = t / h - m0
            j0 = min(int((x + grid.L) / h), grid.n - 1)
            wx = (x + grid.L) / h - j0
            self._needed.setdefault(m0, []).append((k, 1.0 - wt, j0, wx))
            self._needed.setdefault(m0 + 1, []).append((k, wt, j0, wx))
            self._cells.append((m0, j0))

    def reads(self, grid: GridSpec):
        """Per probe, the cone over nodes j0, j0 + 1 up to level m0 + 1."""
        h = grid.h
        out = []
        for m0, j0 in self._cells:
            top = m0 + 1
            lo = -grid.L + (j0 - top) * h
            hi = -grid.L + (j0 + 1 + top) * h
            out.append((ConeRegion(lo, hi), top))
        return out

    def cells(self) -> list[tuple[int, int]]:
        """The (level, node) cells whose A_0 the probes read."""
        return sorted({(m, j0 + d) for m, needs in self._needed.items() for _, _, j0, _ in needs for d in (0, 1)})

    def on_level(self, lev: LevelState, grid: GridSpec) -> None:
        self._add(lev.m, lev.A[0], lev.first)

    def take(self, a0: dict) -> None:
        """Read the probes from `a0`, A_0 at each of `cells()` keyed by cell,
        level by level as `on_level` reads them."""
        for m in sorted(self._needed):
            self._add(m, {j: value for (level, j), value in a0.items() if level == m}, 0)

    def _add(self, m: int, a0, first: int) -> None:
        """Add level m's share of each probe read there; a0[j - first] is
        A_0 at node j."""
        for k, w, j0, wx in self._needed.get(m, ()):
            j = j0 - first
            self._acc[k] += w * ((1.0 - wx) * a0[j] + wx * a0[j + 1])

    def result(self) -> np.ndarray:
        return self._acc.copy()


# ---------------------------------------------------------------------------
# Sweep execution.
# ---------------------------------------------------------------------------


@dataclass
class SweepRecord:
    """The results of one epsilon run: with its plan, enough to recompute
    every verdict.  probe_A0 holds A_0 at each of the plan's probes."""

    eps: float
    n: int
    h: float
    t_max: float
    times: np.ndarray
    series: dict[str, np.ndarray]
    probe_A0: np.ndarray


def _run_one(plan: SweepPlan, eps: float, claims) -> SweepRecord:
    grid = grid_for_eps(plan, eps)
    fam = DataFamily(dim=plan.dim, eps=eps, M=plan.M, potential_mode=plan.potential_mode, cutoff=plan.cutoff)
    # the probe monitor always runs: the summary carries probe_A0
    pmon = ProbeMonitor(plan.probes, grid)
    monitors = {}
    if "claim1" in claims:
        monitors["sup_KT_transverse"] = TransverseMonitor()
    if "claim2" in claims:
        monitors["claim2_min_ratio"] = FloorMonitor(eps)
    try:
        # probes alone at M = 0 in the zero mode: A_0 is a sum over the datum
        free = not monitors and plan.M == 0 and plan.potential_mode is PotentialMode.ZERO
        a0 = free_a0(fam, grid, pmon.cells()) if free else None
        if a0 is None:
            times = evolve(fam, grid, observers=(*monitors.values(), pmon)).times
        else:
            pmon.take(a0)
            times = grid.h * np.arange(_read_hull(grid, (), (pmon,))[2] + 1)  # the levels a march takes
    except SolverAbort as exc:
        raise SolverAbort(f"sweep run aborted at eps = {eps:g}: {exc}") from exc
    return SweepRecord(
        eps=eps,
        n=grid.n,
        h=grid.h,
        t_max=grid.t_max,
        times=times,
        series={name: mon.series() for name, mon in monitors.items()},
        probe_A0=pmon.result(),
    )


def pool_size(jobs: int, runs: int, cpus: int | None = None) -> int:
    """Worker processes for `runs` independent runs: no more than asked for,
    than there are runs, or than there are CPUs (os.cpu_count() by default)."""
    if cpus is None:
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, runs, cpus))


def run_sweep(plan: SweepPlan, jobs: int = 1, claims=CLAIMS) -> list[SweepRecord]:
    """One evolve run per epsilon, merged in eps_list order.

    Only the observers the selected claims read are attached: the record
    series hold sup_KT_transverse with claim1 and claim2_min_ratio with
    claim2.  With neither, a run at M = 0 in the zero mode reads its probes
    from `cone_solver.free_a0` and marches nothing.  jobs > 1 runs the
    (independent) epsilon runs in separate processes, at most pool_size of
    them; the merge order and hence the result is identical either way.  A solver abort in any run fails the
    whole sweep, naming the offending epsilon.
    """
    claims = tuple(claims)
    workers = pool_size(jobs, len(plan.eps_list))
    if workers == 1:
        return [_run_one(plan, e, claims) for e in plan.eps_list]
    # imported here: concurrent.futures and multiprocessing cost every command
    # tens of ms of start-up, and only a pool needs them
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futs = [pool.submit(_run_one, plan, e, claims) for e in plan.eps_list]
        return [f.result() for f in futs]


# ---------------------------------------------------------------------------
# Claim selection, with the preconditions of each verdict, and the checkers.
# ---------------------------------------------------------------------------


def _require_claim2_regime(M: float, T: float) -> None:
    if (regime := 6.0 * (M + 1.0) * T) >= 1.0:
        raise ValueError(f"claim2 regime requires 6(M+1)T < 1, got 6*{M + 1}*{T} = {regime:g}")


def _require_claim3_ladder(count: int) -> None:
    if count < 2:
        raise ValueError("claim3 needs at least 2 epsilons for the log-slope fit")


def _require_gauss_ladder(count: int) -> None:
    if count < 3:
        raise ValueError("gauss verdict needs at least 3 epsilons for slope and diffs")


def sweep_claims(plan: SweepPlan, claims=None) -> list[str]:
    """The sorted claims a sweep of `plan` checks: `claims`, or by default
    all in the zero potential mode and claims 1 and 2 otherwise.  Claim 3
    may be selected in either mode, since both start from a_0 = b_0 = 0.
    Raises ValueError when the plan misses a precondition of a selected
    claim."""
    if claims is None:
        claims = CLAIMS if plan.potential_mode is PotentialMode.ZERO else ("claim1", "claim2")
    if "claim2" in claims:
        _require_claim2_regime(plan.M, plan.T)
    if "claim3" in claims:
        _require_claim3_ladder(len(plan.eps_list))
    if "gauss" in claims:
        _require_gauss_ladder(len(plan.eps_list))
    return sorted(claims)


def _largest_passing_t(times, running_series, bound) -> float:
    """Largest recorded t whose whole prefix satisfies series <= bound."""
    bad = np.nonzero(np.asarray(running_series) > bound)[0]
    if bad.size == 0:
        return float(times[-1])
    if bad[0] == 0:
        return 0.0
    return float(times[bad[0] - 1])


def check_claim1(results: list[SweepRecord], plan: SweepPlan) -> list[dict]:
    """Transverse-potential boundedness: sup over K_T of |A_2| (plus |A_3|
    for dim 3) compared to 1, per epsilon.  dim 1 has no transverse
    potentials and gets a not-applicable verdict."""
    if plan.dim < 2:
        return [{"eps": rec.eps, "applicable": False, "pass": True} for rec in results]
    out = []
    for rec in results:
        sel = rec.times <= plan.T + 1e-12
        sup = float(rec.series["sup_KT_transverse"][sel].max())
        out.append(
            {
                "eps": rec.eps,
                "applicable": True,
                "sup": sup,
                "bound": 1.0,
                "pass": sup <= 1.0,
                "largest_T_ok": _largest_passing_t(
                    rec.times, rec.series["sup_KT_transverse"], 1.0
                ),
            }
        )
    return out


CLAIM2_TOL_CONSTANT = 50.0  # relative floor tolerance is 50 h^2 / eps^2


def check_claim2(results: list[SweepRecord], plan: SweepPlan) -> list[dict]:
    """Modulus persistence: |psi|^2 >= 0.5 f_eps(x-t)^2 (1 - 50 h^2/eps^2)
    at every node with 0 < t < x < 1 - t, t < T, per epsilon.

    The tolerance is multiplicative because the floor spans several orders
    of magnitude across the slab.  Requires the smallness regime
    6(M+1)T < 1.
    """
    _require_claim2_regime(plan.M, plan.T)
    out = []
    for rec in results:
        sel = (rec.times > 0.0) & (rec.times < plan.T - 1e-12)
        ratios = rec.series["claim2_min_ratio"][sel]
        ratios = ratios[np.isfinite(ratios)]
        min_ratio = float(ratios.min()) if ratios.size else math.inf
        tol = 1.0 - CLAIM2_TOL_CONSTANT * rec.h**2 / rec.eps**2
        out.append(
            {
                "eps": rec.eps,
                "min_ratio": min_ratio,
                "floor_factor": tol,
                "pass": min_ratio >= tol,
            }
        )
    return out


def a0_lower_bound(t, x, eps):
    """Closed-form lower bound for A_0 at (t, x) with |x| < t, zero A_0 data.

    Integrating the charge density 1/sqrt(eps^2 + y^2) over the part of the
    backward cone where both null coordinates stay positive gives

        (x+t)/8 * (-log eps)
        + (1/8) (eps + x + t) (log(eps + x + t) - 1)
        - (1/8) eps (log eps - 1),

    which degenerates to 0 as x + t -> 0 (cone edge) and grows like
    ((x+t)/8) log(1/eps) as eps -> 0.
    """
    s = np.asarray(x) + np.asarray(t)
    e = np.asarray(eps, dtype=float)
    return (
        s / 8.0 * (-np.log(e))
        + (e + s) / 8.0 * (np.log(e + s) - 1.0)
        - e / 8.0 * (np.log(e) - 1.0)
    )


@dataclass
class BlowupFit:
    """Per-probe blow-up series and least-squares fit of A_0 vs log(1/eps)."""

    probes: tuple[tuple[float, float], ...]
    eps: np.ndarray
    a0: np.ndarray  # (probes, eps)
    slopes: np.ndarray
    intercepts: np.ndarray
    slope_bounds: np.ndarray  # (x + t)/8 per probe
    lower_ok: np.ndarray  # (probes, eps) measured >= closed form
    monotone: np.ndarray  # per probe, increasing as eps decreases
    implied_c: float  # min over probes of A_0 / |log eps| at the finest eps

    @property
    def passed(self) -> bool:
        return bool(self.lower_ok.all() and (self.slopes >= self.slope_bounds).all())

    def to_dict(self) -> dict:
        return {
            "probes": [list(p) for p in self.probes],
            "eps": self.eps.tolist(),
            "a0": self.a0.tolist(),
            "slopes": self.slopes.tolist(),
            "intercepts": self.intercepts.tolist(),
            "slope_bounds": self.slope_bounds.tolist(),
            "lower_ok": self.lower_ok.tolist(),
            "monotone": self.monotone.tolist(),
            "implied_c": self.implied_c,
            "pass": self.passed,
        }


def check_claim3(results: list[SweepRecord], plan: SweepPlan) -> BlowupFit:
    """Logarithmic blow-up of A_0 at the plan's probes, interior points of
    {|x| < t}.

    Verifies the measured A_0 against the closed-form lower bound per
    epsilon, fits the slope against log(1/eps), and requires
    slope >= (x+t)/8 per probe.  Either potential mode will do: the closed
    form assumes vanishing A_0 data, a_0 = b_0 = 0, which both modes have.
    """
    _require_claim3_ladder(len(results))
    probes = plan.probes
    eps = np.array([rec.eps for rec in results])
    a0 = np.stack([rec.probe_A0 for rec in results], axis=1)  # (probes, eps)
    logs = np.log(1.0 / eps)
    slopes = np.empty(len(probes))
    intercepts = np.empty(len(probes))
    lower_ok = np.zeros(a0.shape, dtype=bool)
    bounds = np.empty(len(probes))
    for k, (t, x) in enumerate(probes):
        slopes[k], intercepts[k] = np.polyfit(logs, a0[k], 1)
        bounds[k] = (x + t) / 8.0
        lower_ok[k] = a0[k] >= a0_lower_bound(t, x, eps)
    monotone = np.array([bool((np.diff(a0[k]) > 0).all()) for k in range(len(probes))])
    implied_c = float((a0[:, -1] / abs(math.log(eps[-1]))).min())
    return BlowupFit(
        probes=probes,
        eps=eps,
        a0=a0,
        slopes=slopes,
        intercepts=intercepts,
        slope_bounds=bounds,
        lower_ok=lower_ok,
        monotone=monotone,
        implied_c=implied_c,
    )


# ---------------------------------------------------------------------------
# Gauss-law pairing divergence, and the verdict of each claim.
# ---------------------------------------------------------------------------


GAUSS_H_OVER_EPS = 16.0  # the pairing grid's resolution, read only by `gauss_pairing_n`


def gauss_pairing_n(eps: float) -> int:
    """Intervals n of the pairing grid on [-1, 1] with h <= eps/GAUSS_H_OVER_EPS:
    the grid `gauss_divergence` sums on, and the one the CLI node cap checks."""
    return 2 * math.ceil(1.0 / (eps / GAUSS_H_OVER_EPS))


def gauss_divergence(eps_list, phi) -> dict:
    """Pairing <phi, |psi_0,eps|^2> per epsilon and its log-slope.

    phi must be smooth and supported in (-1, 1): there the datum density is
    exactly 1/sqrt(eps^2 + x^2) (cutoff identically 1).  The pairing is a
    trapezoid sum on a dedicated grid with h <= eps/GAUSS_H_OVER_EPS.  As
    eps -> 0 it grows like 2 phi(0) log(1/eps); with phi(0) = 0 it
    converges instead.
    """
    eps = [float(e) for e in eps_list]
    if not eps or any(e <= 0 for e in eps):
        raise ValueError("eps_list must be nonempty positive")
    probe = np.linspace(1.0, 1.5, 501)
    tails = np.concatenate([np.abs(np.asarray(phi(probe))), np.abs(np.asarray(phi(-probe)))])
    if tails.max() > 0.0:
        raise ValueError("test function must be supported inside (-1, 1)")
    pair = []
    for e in eps:
        n = gauss_pairing_n(e)
        xs = np.linspace(-1.0, 1.0, n + 1)
        vals = np.asarray(phi(xs)) / np.sqrt(e * e + xs * xs)
        pair.append(float(trapezoid(vals, 2.0 / n)))
    pair_arr = np.asarray(pair)
    logs = np.log(1.0 / np.asarray(eps))
    if len(eps) >= 2:
        slope, intercept = np.polyfit(logs, pair_arr, 1)
    else:
        slope, intercept = math.nan, math.nan
    phi0 = float(np.asarray(phi(np.zeros(1)))[0])
    return {
        "eps": list(eps),
        "pairing": pair_arr.tolist(),
        "slope": float(slope),
        "intercept": float(intercept),
        "expected_slope": 2.0 * phi0,
        "phi0": phi0,
        "diffs": np.diff(pair_arr).tolist(),
    }


def _bump(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < 1.0, np.cos(0.5 * np.pi * x) ** 2, 0.0)


def _node(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < 1.0, np.sin(np.pi * x) ** 2, 0.0)


def check_gauss(eps_list) -> dict:
    """Divergence/convergence pair for the charge pairing.

    The bump profile has phi(0) = 1, so the pairing must grow with log-slope
    within 5% of 2; the node profile has phi(0) = 0, so successive pairing
    differences must shrink.
    """
    _require_gauss_ladder(len(eps_list))
    div = gauss_divergence(eps_list, _bump)
    conv = gauss_divergence(eps_list, _node)
    slope_ok = abs(div["slope"] - div["expected_slope"]) <= 0.05 * div["expected_slope"]
    d = np.abs(np.asarray(conv["diffs"]))
    conv_ok = bool(np.all(d[1:] < d[:-1]))
    return {
        "divergent": div,
        "convergent": conv,
        "slope_ok": slope_ok,
        "convergence_ok": conv_ok,
        "pass": slope_ok and conv_ok,
    }


def verdicts(records: list[SweepRecord], plan: SweepPlan, claims) -> dict:
    """The verdict of each selected claim on a campaign's records, as plain
    JSON (what verdicts.json holds)."""
    checks = {
        "claim1": lambda: check_claim1(records, plan),
        "claim2": lambda: check_claim2(records, plan),
        "claim3": lambda: check_claim3(records, plan).to_dict(),
        "gauss": lambda: check_gauss(plan.eps_list),
    }
    return {name: checks[name]() for name in claims}


def verdict_passed(verdict) -> bool:
    """Whether a verdict passed: per-epsilon lists pass entry by entry."""
    if isinstance(verdict, list):
        return all(entry["pass"] for entry in verdict)
    return bool(verdict["pass"])


# ---------------------------------------------------------------------------
# Persistence.
# ---------------------------------------------------------------------------


def config_hash(obj) -> str:
    """sha256 of the canonical (sorted-keys, compact) JSON encoding."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _eps_tag(eps: float) -> str:
    return f"{eps:.6e}"


def write_sweep(results: list[SweepRecord], plan: SweepPlan, directory) -> dict:
    """Persist a campaign: per-epsilon diagnostics CSV, two-column plot data
    (log(1/eps), A_0) per probe, and a summary manifest.  Returns the
    summary dict (also written as summary.json)."""
    os.makedirs(directory, exist_ok=True)
    cfg = plan.to_dict()
    chash = config_hash(cfg)
    runs = []
    for rec in results:
        fname = f"diagnostics_{_eps_tag(rec.eps)}.csv"
        keys = sorted(rec.series.keys())
        write_csv(
            os.path.join(directory, fname),
            ["t", *keys],
            np.column_stack([rec.times, *(rec.series[k] for k in keys)]),
            (f"config_hash={chash}", f"eps={rec.eps!r}"),
        )
        runs.append(
            {
                "eps": rec.eps,
                "n": rec.n,
                "h": rec.h,
                "t_max": rec.t_max,
                "diagnostics": fname,
                "probe_A0": rec.probe_A0.tolist(),
            }
        )
    for k, (t, x) in enumerate(plan.probes):
        write_csv(
            os.path.join(directory, f"blowup_probe{k}.csv"),
            None,
            ([math.log(1.0 / rec.eps), rec.probe_A0[k]] for rec in results),
            (f"config_hash={chash}", f"probe t={t!r} x={x!r}; columns log(1/eps), A0"),
        )
    summary = {"config": cfg, "config_hash": chash, "runs": runs}
    write_json(os.path.join(directory, "summary.json"), summary)
    return summary


def load_sweep(directory) -> tuple[list[SweepRecord], SweepPlan]:
    """Rebuild the records and plan of a persisted campaign directory."""
    with open(os.path.join(directory, "summary.json")) as fh:
        summary = json.load(fh)
    cfg = summary["config"]
    plan = SweepPlan.from_dict(cfg)
    if config_hash(cfg) != summary["config_hash"]:
        raise ValueError("summary config hash mismatch")
    records = []
    for run in summary["runs"]:
        path = os.path.join(directory, run["diagnostics"])
        with open(path) as fh:
            rows = [line for line in fh if not line.startswith("#")]
        header, *body = csv.reader(rows)  # ValueError for a file with no header
        data = np.array([[float(v) for v in row] for row in body])
        series = {name: data[:, i] for i, name in enumerate(header) if i > 0}
        records.append(
            SweepRecord(
                eps=run["eps"],
                n=run["n"],
                h=run["h"],
                t_max=run["t_max"],
                times=data[:, 0],
                series=series,
                probe_A0=np.asarray(run["probe_A0"]),
            )
        )
    return records, plan
