"""Numerical checks of the linear and bilinear estimates behind the solver.

Each check turns one continuum inequality into a discrete comparison
lhs <= slack * rhs evaluated on solver output or on synthetic systems:

* energy inequality for the sourced Dirac equation,
  ||psi(t)||_2 <= ||psi_0||_2 + int_0^t ||F(s)||_2 ds;
* the d'Alembert bounds for box W = S with data (f, g): sup bound,
  total-variation bound, L^1 bound on the time derivative, and their
  factor-3 combination in the AC norm (sup + variation);
* the null-form bound for transversally transported waves,
  iint_K |u v| <= (||f||_1 + int ||F||_1)(||g||_1 + int ||G||_1);
* the Gronwall L^1 bound driven by the transverse potentials,
  ||u(t)||_1 + ||v(t)||_1 <= (||u(0)||_1 + ||v(0)||_1)
      exp(int_0^t (M + sup|A_2| [+ sup|A_3|]));
* the off-origin modulus bound sup_{rho+t <= y <= 1-t} |psi|^2
  <= 3 / sqrt(eps^2 + rho^2) in the smallness regime.

The slack factor is 1 + 10h throughout: the inequalities are continuum
statements and the discretization perturbs both sides at O(h).  Randomized
instances are piecewise linear with nodes on the grid, so every right-hand
side norm is computed exactly and a reported violation can only come from
the left-hand side, never from quadrature ambiguity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .cone_solver import (
    Trajectory,
    characteristic_integrals,
    cone_quadrature,
    cumulative_trapezoid,
    dirac_solve,
    free_transport,
    trapezoid,
    wave_solve,
)
from .gamma_algebra import gamma_matrices, interaction_term, modulus_sq, spinor_components
from .initial_data import CutoffSpec, GridSpec, chi

__all__ = [
    "EstimateReport",
    "l1_exact",
    "check_energy_inequality",
    "check_wave_estimates",
    "check_nullform",
    "check_gronwall_l1",
    "check_bootstrap_bound",
    "bootstrap_threshold",
    "transport_pair",
    "random_energy_instance",
    "random_wave_instance",
    "random_nullform_instance",
    "run_energy_suite",
    "run_wave_suite",
    "run_nullform_suite",
    "nullform_refinement",
]


@dataclass(frozen=True)
class EstimateReport:
    """One verified inequality: passes iff lhs <= slack_factor * rhs."""

    name: str
    lhs: float
    rhs: float
    slack_factor: float

    def __post_init__(self):
        if self.slack_factor < 1.0:
            raise ValueError("slack_factor must be >= 1")

    @property
    def passed(self) -> bool:
        return self.lhs <= self.slack_factor * self.rhs

    @property
    def ratio(self) -> float:
        """Measured lhs/rhs; inf when the bound is vacuous (rhs = 0, lhs > 0)."""
        if self.rhs > 0.0:
            return self.lhs / self.rhs
        return 0.0 if self.lhs == 0.0 else math.inf

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack_factor": self.slack_factor,
            "ratio": self.ratio,
            "pass": self.passed,
        }


def _slack(grid: GridSpec) -> float:
    return 1.0 + 10.0 * grid.h


def _worst_level(name, lhs_series, rhs_series, slack) -> EstimateReport:
    """Report at the time level with the worst lhs/rhs ratio.

    Level 0 is skipped when later levels exist: there lhs <= rhs holds by
    construction (both sides reduce to data norms), so it can only mask the
    binding level with a trivial tie.
    """
    lhs_series = np.asarray(lhs_series, dtype=float)
    rhs_series = np.broadcast_to(np.asarray(rhs_series, dtype=float), lhs_series.shape)
    q = np.where(
        rhs_series > 0.0,
        lhs_series / np.where(rhs_series == 0.0, 1.0, rhs_series),
        np.where(lhs_series > 0.0, np.inf, 0.0),
    )
    start = 1 if q.size > 1 else 0
    m = start + int(np.argmax(q[start:]))
    return EstimateReport(name, float(lhs_series[m]), float(rhs_series[m]), slack)


# ---------------------------------------------------------------------------
# Exact norms of piecewise-linear nodal functions.
# ---------------------------------------------------------------------------


def l1_exact(values, h: float) -> float:
    """Exact integral of |f| for the piecewise-linear interpolant of values.

    Real input only.  Cells where f changes sign contribute
    h (a^2 + b^2) / (2(|a| + |b|)), the two-triangle area; cells without a
    crossing reduce to the trapezoid h(|a| + |b|)/2.
    """
    vals = np.asarray(values, dtype=float)
    a, b = vals[:-1], vals[1:]
    same = a * b >= 0.0
    plain = 0.5 * h * (np.abs(a) + np.abs(b))
    denom = np.abs(a) + np.abs(b)
    # crossing cells have a, b of strictly opposite signs, so denom > 0 there
    cross = 0.5 * h * (a * a + b * b) / np.where(denom == 0.0, 1.0, denom)
    return float(np.where(same, plain, cross).sum())


def _tv(values) -> float:
    """Total variation of the nodal polyline = ||f'||_1 for pw-linear f."""
    return float(np.abs(np.diff(np.asarray(values))).sum())


# ---------------------------------------------------------------------------
# Energy inequality.
# ---------------------------------------------------------------------------


def _energy_report(l2_psi, l2_F, grid: GridSpec) -> EstimateReport:
    rhs = l2_psi[0] + cumulative_trapezoid(l2_F, grid.h)
    return _worst_level("energy", l2_psi, rhs, _slack(grid))


def check_energy_inequality(run, grid: GridSpec | None = None) -> EstimateReport:
    """Energy inequality for a Dirac run.

    Accepts either a Trajectory with recorded history, in which case the
    source is the full potential coupling A_mu gamma^mu psi recomputed level
    by level, or the (times, U, V, l2_psi, l2_F) tuple of dirac_solve, in
    which case the grid must be passed explicitly.
    """
    if isinstance(run, Trajectory):
        hist = run.history
        if hist is None:
            raise ValueError("energy check on a trajectory requires record_history")
        grid = run.grid
        gs = gamma_matrices(run.fam.dim)
        l2_F = np.zeros(run.times.size)
        for m in range(run.times.size):
            Fu, Fv = interaction_term(gs, hist.A[m], hist.u[m], hist.v[m])
            dens = (np.abs(Fu) ** 2).sum(axis=0) + (np.abs(Fv) ** 2).sum(axis=0)
            l2_F[m] = math.sqrt(float(trapezoid(dens, grid.h)))
        l2_psi = np.sqrt(np.asarray(run.series["charge"], dtype=float))
        return _energy_report(l2_psi, l2_F, grid)
    if grid is None:
        raise ValueError("synthetic runs need the grid passed alongside")
    _, _, _, l2_psi, l2_F = run
    return _energy_report(np.asarray(l2_psi, dtype=float), np.asarray(l2_F, dtype=float), grid)


def random_energy_instance(rng: np.random.Generator, grid: GridSpec, dim: int = 1):
    """Random smooth data and source for the sourced Dirac equation.

    Gaussian bumps confined well inside the slab so nothing reaches the
    boundary within t_max (outflow would only shrink the left-hand side).
    """
    x = grid.nodes()
    reach = min(1.0, grid.L - grid.t_max - 1.2)

    def bump():
        c = rng.uniform(-reach, reach)
        w = rng.uniform(0.1, 0.4)
        amp = rng.uniform(0.2, 2.0) * np.exp(2j * np.pi * rng.uniform())
        return amp * np.exp(-(((x - c) / w) ** 2))

    ncomp = spinor_components(dim)
    u0 = np.stack([bump() for _ in range(ncomp)])
    v0 = np.stack([bump() for _ in range(ncomp)])
    fb1 = np.stack([bump() for _ in range(ncomp)])
    fb2 = np.stack([bump() for _ in range(ncomp)])
    om1, om2 = rng.uniform(-3.0, 3.0, size=2)

    def F(t, _x):
        return fb1 * np.exp(1j * om1 * t), fb2 * np.exp(1j * om2 * t)

    M = rng.uniform(0.0, 2.0)
    return dict(dim=dim, M=M, u0=u0, v0=v0, F=F)


def run_energy_suite(count: int, seed: int, grid: GridSpec | None = None) -> list[EstimateReport]:
    grid = grid or GridSpec(L=2.56, n=256, t_max=0.24)
    reports = []
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        inst = random_energy_instance(rng, grid)
        res = dirac_solve(inst["dim"], inst["M"], grid, inst["u0"], inst["v0"], inst["F"])
        rep = check_energy_inequality(res, grid)
        reports.append(
            EstimateReport(f"energy[{seed},{k}]", rep.lhs, rep.rhs, rep.slack_factor)
        )
    return reports


# ---------------------------------------------------------------------------
# Wave estimates.
# ---------------------------------------------------------------------------


def check_wave_estimates(grid: GridSpec, f, g, source=None) -> list[EstimateReport]:
    """The d'Alembert bounds: sup, variation, time derivative, AC combination.

    f, g are real nodal arrays (data of box W = S); source is callable
    (t, x_nodes) -> nodal row, or None.  All right-hand side norms are
    exact for piecewise-linear input; each report compares at its worst
    time level.  Returns four reports: wave_sup, wave_tv, wave_dt and the
    factor-3 wave_combined in sup + variation.
    """
    h = grid.h
    times, W, Wt = wave_solve(grid, f, g, source)
    x = grid.nodes()
    if source is None:
        src_l1 = np.zeros(times.size)
    else:
        src_l1 = np.array(
            [l1_exact(np.asarray(source(t, x), dtype=float), h) for t in times]
        )
    cum_src = cumulative_trapezoid(src_l1, h)

    sup_f = float(np.abs(np.asarray(f)).max())
    tv_f = _tv(f)
    l1_g = l1_exact(g, h)
    slack = _slack(grid)

    sup_series = np.abs(W).max(axis=1)
    tv_series = np.abs(np.diff(W, axis=1)).sum(axis=1)
    dt_series = np.array([l1_exact(Wt[m], h) for m in range(times.size)])

    return [
        _worst_level("wave_sup", sup_series, sup_f + l1_g + cum_src, slack),
        _worst_level("wave_tv", tv_series, tv_f + l1_g + cum_src, slack),
        _worst_level("wave_dt", dt_series, tv_f + l1_g + cum_src, slack),
        _worst_level(
            "wave_combined",
            sup_series + tv_series + dt_series,
            3.0 * (sup_f + tv_f + l1_g + cum_src),
            slack,
        ),
    ]


def _pw_profile(rng: np.random.Generator, grid: GridSpec):
    """Random compactly supported profile, piecewise linear on an even-stride
    sublattice of the grid (interpolated to the nodes in between).

    The even stride keeps the two parity classes of the diamond scheme
    balanced: data rough at the bare grid scale excite its checkerboard
    mode, whose variation grows linearly in time even though the sup error
    stays O(h).  That mode reflects sampling below the instance's own
    length scale, not the inequality under test.
    """
    n = grid.n
    stride = 2 * int(rng.integers(1, 5))
    nseg = int(rng.integers(2, 9))
    width = stride * nseg
    lo = n // 10
    j0 = int(rng.integers(lo, n - lo - width))
    coarse = np.zeros(nseg + 1)
    coarse[1:-1] = rng.uniform(-1.0, 1.0, size=nseg - 1)
    vals = np.zeros(n + 1)
    vals[j0 : j0 + width + 1] = np.interp(
        np.arange(width + 1) / stride, np.arange(nseg + 1), coarse
    )
    return vals


def _pw_source(prof: np.ndarray, env: np.ndarray, phase: complex, h_base: float):
    """Source closure phase * env(t) * prof with env pw-linear on base levels.

    Works on any refinement of the base grid in time: np.interp reproduces
    the same piecewise-linear envelope, and the trapezoid rule integrates it
    exactly on any node-nested time grid.
    """
    tgrid = h_base * np.arange(env.size)

    def S(t, _x):
        return phase * float(np.interp(t, tgrid, env)) * prof

    return S


def random_wave_instance(rng: np.random.Generator, grid: GridSpec):
    f = _pw_profile(rng, grid)
    g = _pw_profile(rng, grid)
    prof = _pw_profile(rng, grid)
    env = rng.uniform(0.0, 1.0, size=grid.steps + 1)
    return dict(f=f, g=g, source=_pw_source(prof, env, 1.0, grid.h))


def run_wave_suite(count: int, seed: int, grid: GridSpec | None = None) -> list[EstimateReport]:
    grid = grid or GridSpec(L=2.56, n=256, t_max=0.24)
    reports = []
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        inst = random_wave_instance(rng, grid)
        for rep in check_wave_estimates(grid, inst["f"], inst["g"], inst["source"]):
            reports.append(
                EstimateReport(f"{rep.name}[{seed},{k}]", rep.lhs, rep.rhs, rep.slack_factor)
            )
    return reports


# ---------------------------------------------------------------------------
# Null-form bound.
# ---------------------------------------------------------------------------


def transport_pair(grid: GridSpec, f, g, F=None, G=None, levels: int | None = None):
    """Solve (d_t + d_x) u = F, (d_t - d_x) v = G by exact characteristics.

    Returns (U, V) level arrays of shape (levels+1, n+1).  The free parts
    are node shifts of the data (exact, zero inflow at the boundary); the
    Duhamel parts are product-trapezoid integrals along characteristics.
    """
    mt = grid.steps if levels is None else levels
    x = grid.nodes()
    U, V = free_transport(np.asarray(f, dtype=complex), np.asarray(g, dtype=complex), mt)
    if F is not None:
        Fl = np.stack([np.asarray(F(m * grid.h, x), dtype=complex) for m in range(mt + 1)])
        U += characteristic_integrals(Fl, grid.h, +1)
    if G is not None:
        Gl = np.stack([np.asarray(G(m * grid.h, x), dtype=complex) for m in range(mt + 1)])
        V += characteristic_integrals(Gl, grid.h, -1)
    return U, V


def check_nullform(
    grid: GridSpec,
    f,
    g,
    F=None,
    G=None,
    T: float | None = None,
    X: float = 0.0,
    *,
    rhs_norms: tuple[float, float, float, float],
) -> EstimateReport:
    """Cone integral of |uv| against the product of the transport budgets.

    T must be a whole number of steps and X a grid node with the backward
    cone from (T, X) inside the slab.  rhs_norms supplies
    (||f||_1, ||g||_1, int ||F||_1, int ||G||_1), computed exactly by the
    caller.
    """
    h = grid.h
    T = grid.t_max if T is None else T
    mt = int(round(T / h))
    if abs(mt * h - T) > 1e-9 * max(1.0, T) or not 0 <= mt <= grid.steps:
        raise ValueError("cone height T must be a whole number of steps in the slab")
    jX = int(round((X + grid.L) / h))
    if abs(-grid.L + jX * h - X) > 1e-9 or not mt <= jX <= grid.n - mt:
        raise ValueError("cone vertex X must be a grid node with the cone inside the slab")

    U, V = transport_pair(grid, f, g, F, G, levels=mt)
    lhs = cone_quadrature(np.abs(U) * np.abs(V), h, mt, jX)

    nf, ng, nF, nG = rhs_norms
    rhs = (nf + nF) * (ng + nG)
    return EstimateReport("nullform", float(lhs), float(rhs), _slack(grid))


def random_nullform_instance(rng: np.random.Generator, grid: GridSpec):
    """Random pw-linear transport system plus a random admissible cone.

    Profiles carry constant phases so the right-hand side norms are exactly
    the norms of the real profiles.
    """
    n = grid.n
    h = grid.h
    mt = int(rng.integers(2, grid.steps + 1))
    jX = int(rng.integers(mt, n - mt + 1))

    fr = _pw_profile(rng, grid)
    gr = _pw_profile(rng, grid)
    inst = {
        "f": fr * np.exp(2j * np.pi * rng.uniform()),
        "g": gr * np.exp(2j * np.pi * rng.uniform()),
        "F": None,
        "G": None,
        "T": mt * h,
        "X": -grid.L + jX * h,
    }
    norms = [l1_exact(fr, h), l1_exact(gr, h), 0.0, 0.0]
    for slot, pos in (("F", 2), ("G", 3)):
        if rng.uniform() < 0.7:
            prof = _pw_profile(rng, grid)
            env = rng.uniform(0.0, 1.0, size=mt + 1)
            phase = np.exp(2j * np.pi * rng.uniform())
            inst[slot] = _pw_source(prof, env, phase, h)
            norms[pos] = float(cumulative_trapezoid(env * l1_exact(prof, h), h)[-1])
    inst["rhs_norms"] = tuple(norms)
    return inst


def run_nullform_suite(count: int, seed: int, grid: GridSpec | None = None) -> list[EstimateReport]:
    grid = grid or GridSpec(L=2.56, n=256, t_max=0.64)
    reports = []
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        inst = random_nullform_instance(rng, grid)
        rep = check_nullform(
            grid,
            inst["f"],
            inst["g"],
            inst["F"],
            inst["G"],
            inst["T"],
            inst["X"],
            rhs_norms=inst["rhs_norms"],
        )
        reports.append(
            EstimateReport(f"nullform[{seed},{k}]", rep.lhs, rep.rhs, rep.slack_factor)
        )
    return reports


def _hat(grid: GridSpec, center: float, width: float, amp: float) -> np.ndarray:
    """Nodal hat profile; exact pw-linear when center, width are base-node
    aligned, with ||.||_1 = amp * width."""
    x = grid.nodes()
    return amp * np.maximum(0.0, 1.0 - np.abs(x - center) / width)


def _fixed_nullform_instance(index: int, grid: GridSpec, base: GridSpec):
    """Three hand-built instances whose u, v cross inside the cone at X = 0.

    Hat centers and widths are multiples of the base spacing, so the same
    continuum instance is represented exactly at every dyadic refinement
    and the right-hand side norms are closed-form.
    """
    T = base.t_max
    env_fall = 1.0 - np.arange(base.steps + 1) / base.steps
    env_tent = 1.0 - np.abs(2.0 * np.arange(base.steps + 1) / base.steps - 1.0)
    designs = {
        0: dict(f=(-0.20, 0.20, 1.0), g=(0.20, 0.16, 1.3), F=None, G=None),
        1: dict(
            f=(-0.24, 0.16, 0.9),
            g=(0.30, 0.10, 1.1),
            F=((-0.10, 0.12, 0.7), env_fall),
            G=None,
        ),
        2: dict(
            f=(-0.30, 0.14, 1.1),
            g=(0.26, 0.12, 0.8),
            F=((-0.06, 0.10, 0.5), env_fall),
            G=((0.10, 0.08, 0.6), env_tent),
        ),
    }
    d = designs[index]
    f = _hat(grid, *d["f"])
    g = _hat(grid, *d["g"])
    norms = [d["f"][1] * d["f"][2], d["g"][1] * d["g"][2], 0.0, 0.0]
    sources = {"F": None, "G": None}
    for slot, pos in (("F", 2), ("G", 3)):
        if d[slot] is not None:
            (c, w, a), env = d[slot]
            sources[slot] = _pw_source(_hat(grid, c, w, a), env, 1.0, base.h)
            norms[pos] = float(cumulative_trapezoid(env * (a * w), base.h)[-1])
    return dict(
        f=f, g=g, F=sources["F"], G=sources["G"], T=T, X=0.0, rhs_norms=tuple(norms)
    )


def nullform_refinement(index: int, base: GridSpec | None = None, factors=(1, 2, 4)):
    """Re-check one fixed continuum instance at refined resolutions.

    index selects one of three hand-built crossing instances.  Returns a
    list of (n, measured ratio, allowed slack); the allowed slack falls to
    1 while the measured ratio converges and stays below it.
    """
    base = base or GridSpec(L=2.56, n=256, t_max=0.64)
    out = []
    for fac in factors:
        grid = GridSpec(L=base.L, n=fac * base.n, t_max=base.t_max)
        inst = _fixed_nullform_instance(index, grid, base)
        rep = check_nullform(
            grid,
            inst["f"],
            inst["g"],
            inst["F"],
            inst["G"],
            inst["T"],
            inst["X"],
            rhs_norms=inst["rhs_norms"],
        )
        out.append((grid.n, rep.ratio, rep.slack_factor))
    return out


# ---------------------------------------------------------------------------
# Gronwall L^1 bound and bootstrap bound on solver runs.
# ---------------------------------------------------------------------------


def check_gronwall_l1(traj: Trajectory) -> EstimateReport:
    """||u(t)||_1 + ||v(t)||_1 against the transverse-potential Gronwall rate."""
    fam = traj.fam
    if fam.dim < 2:
        raise ValueError("gronwall check needs dim 2 or 3 (transverse potentials)")
    if "l1_u" not in traj.series:
        raise ValueError("gronwall check needs the whole-line series of a full-grid run")
    grid = traj.grid
    l1u = np.asarray(traj.series["l1_u"], dtype=float)
    l1v = np.asarray(traj.series["l1_v"], dtype=float)
    rate = fam.M
    for j in range(2, fam.dim + 1):
        rate = rate + np.asarray(traj.series[f"sup_A{j}"], dtype=float)
    rhs = (l1u[0] + l1v[0]) * np.exp(cumulative_trapezoid(rate, grid.h))
    return _worst_level("gronwall_l1", l1u + l1v, rhs, _slack(grid))


def check_bootstrap_bound(traj: Trajectory, rho: float) -> EstimateReport:
    """Off-origin modulus bound sup_{rho+t <= y <= 1-t} |psi|^2 <= 3 f_eps(rho)^2.

    Valid in the smallness regime 2(M+1) t_max < 1 with rho in (0, 1 - 2 t_max).
    """
    fam = traj.fam
    grid = traj.grid
    T = grid.t_max
    if 2.0 * (fam.M + 1.0) * T >= 1.0:
        raise ValueError("bootstrap regime requires 2(M+1) t_max < 1")
    if not 0.0 < rho < 1.0 - 2.0 * T:
        raise ValueError("rho must lie in (0, 1 - 2 t_max)")
    hist = traj.history
    if hist is None:
        raise ValueError("bootstrap check requires record_history")
    x = grid.nodes()
    lhs = 0.0
    for m, t in enumerate(traj.times):
        sel = (x >= rho + t) & (x <= 1.0 - t)
        dens = modulus_sq(fam.dim, hist.u[m], hist.v[m])
        lhs = max(lhs, float(dens[sel].max()))
    rhs = 3.0 / math.sqrt(fam.eps**2 + rho**2)
    return EstimateReport("bootstrap", lhs, rhs, _slack(grid))


def bootstrap_threshold(M: float, cutoff: CutoffSpec | None = None) -> tuple[float, float]:
    """Concrete smallness constants (C, delta) for the transverse bootstrap.

    C = int |chi(x)| |x|^{-1/2} dx for the package cutoff, computed after the
    substitution x = y^2 which removes the root singularity; delta solves
    C^2 alpha(delta) = 1/2 with
    alpha(t) = (1 + t(M+1) e^{t(M+1)}) t(M+1) e^{t(M+1)}.
    """
    cutoff = cutoff or CutoffSpec()
    ymax = math.sqrt(cutoff.outer)
    C = 4.0 * quad(lambda y: float(chi(y * y, cutoff)), 0.0, ymax, limit=200)[0]

    lam = M + 1.0

    def alpha(t):
        z = t * lam * math.exp(t * lam)
        return (1.0 + z) * z

    target = 0.5 / (C * C)
    hi = 1.0
    while alpha(hi) < target:
        hi *= 2.0
    delta = brentq(lambda t: alpha(t) - target, 0.0, hi, xtol=1e-14, rtol=8.9e-16)
    return C, delta
