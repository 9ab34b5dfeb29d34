"""Numerical checks of the linear and bilinear estimates behind the solver.

Each check turns one continuum inequality into a discrete comparison
lhs <= slack * rhs evaluated on synthetic systems:

* energy inequality for the sourced Dirac equation in dim 1,
  ||psi(t)||_2 <= ||psi_0||_2 + int_0^t ||F(s)||_2 ds;
* the d'Alembert bounds for box W = S with data (f, g): sup bound,
  total-variation bound, L^1 bound on the time derivative, and their
  factor-3 combination in the AC norm (sup + variation);
* the null-form bound for transversally transported waves,
  iint_K |u v| <= (||f||_1 + int ||F||_1)(||g||_1 + int ||G||_1).

These are the systems `verify` runs.  The lemmas stated on solver runs (the
Gronwall L^1 bound driven by the transverse potentials and the off-origin
modulus bound of the bootstrap) are checked by the unit tests, in
`tests/lemmas.py`; `bootstrap_threshold` gives the bootstrap's smallness
constants.

The slack factor is 1 + 10h throughout: the inequalities are continuum
statements and the discretization perturbs both sides at O(h).  Randomized
instances are piecewise linear with nodes on the grid, so every right-hand
side norm is computed exactly and a reported violation can only come from
the left-hand side, never from quadrature ambiguity.

Every system is marched one time level at a time and reduced as it goes:
the solvers yield level rows, the per-level norms are taken on each row as
it comes, and the sources are separable, a profile times a factor per level,
each row formed when the march reads it (`_LevelRows`).  No array with a
level axis over nodes is built, so memory per instance is a few nodal rows,
whatever the level count.  The randomized suites draw instance k from the
RNG seeded [seed, k] and solve their instances stacked on a batch axis, in
batches of at most BATCH_BYTES worth of level rows (see there); each
null-form instance is solved on its own cone base only, as is the
refinement study.  `check_suite_grid` states the grids each generator can
draw on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cone_solver import (
    characteristic_integrals,
    cone_quadrature,
    cumulative_trapezoid,
    dirac_levels,
    l2_norm,
    shift,
    trapezoid,
    wave_solve,
)
from .initial_data import CutoffSpec, GridSpec, chi

__all__ = [
    "EstimateReport",
    "l1_exact",
    "bootstrap_threshold",
    "transport_pair",
    "random_energy_instance",
    "random_wave_instance",
    "random_nullform_instance",
    "run_energy_suite",
    "run_wave_suite",
    "run_nullform_suite",
    "nullform_refinement",
    "suite_grid",
    "check_suite_grid",
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


def suite_grid(suite: str) -> GridSpec:
    """Default grid of a randomized suite (and, for nullform, of the
    refinement study): n = 256 on [-2.56, 2.56], up to t = 0.64 for the
    nullform cones and t = 0.24 otherwise."""
    return GridSpec(L=2.56, n=256, t_max=0.64 if suite == "nullform" else 0.24)


PROFILE_MAX_WIDTH = 64  # widest `_pw_profile` support: stride 8 times 8 segments
ENERGY_MARGIN = 1.2  # slab room the energy bumps keep beyond their centers' reach


def check_suite_grid(suite: str, grid: GridSpec) -> None:
    """Raise ValueError unless the suite's instance generator can draw on
    `grid` for every seed: the profiles of the wave and nullform suites need
    n - 2 floor(n/10) > PROFILE_MAX_WIDTH, the nullform cones
    2 <= steps <= n/2, and the energy bumps L - t_max - ENERGY_MARGIN > 0."""
    if suite in ("wave", "nullform") and grid.n - 2 * (grid.n // 10) <= PROFILE_MAX_WIDTH:
        raise ValueError(
            f"grid: the {suite} suite needs n - 2 floor(n/10) > {PROFILE_MAX_WIDTH} "
            f"for its profiles, got n = {grid.n}"
        )
    if suite == "nullform" and not 2 <= grid.steps <= grid.n / 2:
        raise ValueError(
            f"grid: the nullform suite needs 2 <= steps <= n/2 for its cones, "
            f"got steps = {grid.steps}, n = {grid.n}"
        )
    if suite == "energy" and not grid.L - grid.t_max - ENERGY_MARGIN > 0.0:
        raise ValueError(
            f"grid: the energy suite needs L - t_max - {ENERGY_MARGIN} > 0 for its bumps, "
            f"got L = {grid.L}, t_max = {grid.t_max}"
        )


# The bytes of source rows that one batch of a suite may add up to over all
# of its levels: what its sources would take as level arrays.  The march
# holds only a few levels of rows at a time, so this bound sets the batch
# sizes, and with them the per-call overhead, not the memory.  With 512 KiB,
# each suite run alone in a fresh process raised its peak RSS by 4.2 MB
# (energy, 200 instances), 4.0 MB (wave, 100) and 4.3 MB (null-form, 800),
# of which about 2.4 MB is the first import of numpy.random, and the
# refinement study (indices 0-2) by 0.5 MB; numpy 2.4.6 on Linux x86-64.
BATCH_BYTES = 2**19


def _run_suite(count, seed, grid, draw, solve, nbytes, height=None) -> list[EstimateReport]:
    """Reports of `count` instances, instance k drawn from the RNG seeded
    [seed, k] and tagged [seed,k], in instance order.

    An instance is solved over `height(rng, grid)` steps, the first number
    it draws (grid.steps, drawing nothing, when height is None).  Instances
    of one height are drawn by `draw(rng, grid, steps)` and solved together
    by `solve(grid, steps, instances)`, which returns one report list per
    instance.  A batch holds at most BATCH_BYTES // nbytes(grid, steps)
    instances, nbytes being the bytes of one instance's level rows over all
    of its levels; only one batch is drawn at a time.  The RNGs are seeded
    when their batch is drawn, so the height pass seeds each one twice.
    """

    def rng(k):
        return np.random.default_rng([seed, k])

    def drawn(k, steps):
        gen = rng(k)
        if height is not None:
            height(gen, grid)  # the height pass's draw, taken again
        return draw(gen, grid, steps)

    by_height: dict[int, list[int]] = {}
    for k in range(count):
        by_height.setdefault(grid.steps if height is None else height(rng(k), grid), []).append(k)
    reports: list = [None] * count
    for steps, ks in by_height.items():
        size = max(1, BATCH_BYTES // nbytes(grid, steps))
        for i in range(0, len(ks), size):
            batch = ks[i : i + size]
            solved = solve(grid, steps, [drawn(k, steps) for k in batch])
            for k, reps in zip(batch, solved):
                reports[k] = [replace(r, name=f"{r.name}[{seed},{k}]") for r in reps]
    return [r for reps in reports for r in reps]


def _worst_levels(name, lhs_series, rhs_series, slack) -> list[EstimateReport]:
    """One report per leading index of the (..., levels) series, each at the
    time level with the worst lhs/rhs ratio.

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
    levels = q.shape[-1]
    start = 1 if levels > 1 else 0
    worst = start + np.argmax(q[..., start:], axis=-1).reshape(-1)
    lhs_rows = lhs_series.reshape(-1, levels)
    rhs_rows = rhs_series.reshape(-1, levels)
    return [
        EstimateReport(name, float(lhs_rows[i, m]), float(rhs_rows[i, m]), slack)
        for i, m in enumerate(worst)
    ]


# ---------------------------------------------------------------------------
# Exact norms of piecewise-linear nodal functions.
# ---------------------------------------------------------------------------


def l1_exact(values, h: float):
    """Exact integral of |f| for the piecewise-linear interpolant of values,
    one per row of the (..., nodes) input.

    Real input only.  Cells where f changes sign contribute
    h (a^2 + b^2) / (2(|a| + |b|)), the two-triangle area; cells without a
    crossing reduce to the trapezoid h(|a| + |b|)/2.
    """
    vals = np.asarray(values, dtype=float)
    a, b = vals[..., :-1], vals[..., 1:]
    same = a * b >= 0.0
    plain = 0.5 * h * (np.abs(a) + np.abs(b))
    denom = np.abs(a) + np.abs(b)
    # crossing cells have a, b of strictly opposite signs, so denom > 0 there
    cross = 0.5 * h * (a * a + b * b) / np.where(denom == 0.0, 1.0, denom)
    return np.where(same, plain, cross).sum(axis=-1)


def _tv(values):
    """Total variation of each nodal polyline = ||f'||_1 for pw-linear f."""
    return np.abs(np.diff(np.asarray(values), axis=-1)).sum(axis=-1)


class _LevelRows:
    """The separable source whose row at level m is profile * factors[..., m]:
    profile (..., nodes) and factors (..., levels), with the same leading
    axes.  Each row is formed when indexed, as the exact product a level
    array of the source would hold, so no level array is built.  The
    operand order is part of that: numpy's complex product fuses a
    multiply-add, and swapping complex operands can change its last bit."""

    def __init__(self, profile, factors):
        self.profile, self.factors = profile, factors

    def __getitem__(self, m):
        return self.profile * self.factors[..., m, None]


# ---------------------------------------------------------------------------
# Energy inequality.
# ---------------------------------------------------------------------------


def _energy_reports(l2_psi, l2_F, grid: GridSpec) -> list[EstimateReport]:
    """One energy report per row of the (..., levels) L^2 series."""
    rhs = l2_psi[..., :1] + cumulative_trapezoid(l2_F, grid.h)
    return _worst_levels("energy", l2_psi, rhs, _slack(grid))


def random_energy_instance(rng: np.random.Generator, grid: GridSpec, steps: int):
    """Random smooth dim-1 data and source for the sourced Dirac equation:
    M, data u0, v0 and the source F with levels 0..steps.

    Gaussian bumps confined well inside the slab so nothing reaches the
    boundary within t_max (outflow would only shrink the left-hand side).
    The source is fb e^{i omega t} per spinor part, at the level times, given
    as the pair (fb, e^{i omega t}) of rows (n+1,) and (steps+1,) per part:
    its level-m row is fb * e^{i omega t}[m].
    """
    x = grid.nodes()
    reach = min(1.0, grid.L - grid.t_max - ENERGY_MARGIN)

    def bump():
        c = rng.uniform(-reach, reach)
        w = rng.uniform(0.1, 0.4)
        amp = rng.uniform(0.2, 2.0) * np.exp(2j * np.pi * rng.uniform())
        return amp * np.exp(-(((x - c) / w) ** 2))

    u0, v0, fb1, fb2 = (bump() for _ in range(4))
    om1, om2 = rng.uniform(-3.0, 3.0, size=2)
    t = grid.h * np.arange(steps + 1)
    F = ((fb1, np.exp(1j * om1 * t)), (fb2, np.exp(1j * om2 * t)))
    M = rng.uniform(0.0, 2.0)
    return dict(M=M, u0=u0, v0=v0, F=F)


def _solve_energy(grid: GridSpec, steps: int, insts) -> list[list[EstimateReport]]:
    """Energy reports of stacked instances: only the L^2 series are kept,
    not the level history."""
    h = grid.h
    u0 = np.stack([inst["u0"] for inst in insts])
    v0 = np.stack([inst["v0"] for inst in insts])
    M = np.array([inst["M"] for inst in insts])[:, None]
    F = tuple(_LevelRows(*(np.stack([inst["F"][c][i] for inst in insts]) for i in (0, 1))) for c in (0, 1))
    l2_psi, l2_F = [], []
    for m, uv in enumerate(dirac_levels(1, M, h, u0, v0, F, steps)):
        l2_psi.append(l2_norm(uv, h))
        l2_F.append(l2_norm((F[0][m], F[1][m]), h))
    return [[rep] for rep in _energy_reports(np.stack(l2_psi, axis=-1), np.stack(l2_F, axis=-1), grid)]


def run_energy_suite(count: int, seed: int, grid: GridSpec | None = None) -> list[EstimateReport]:
    grid = grid or suite_grid("energy")
    return _run_suite(
        count, seed, grid, random_energy_instance, _solve_energy,
        lambda grid, steps: (steps + 1) * (grid.n + 1) * 16,  # its complex source rows
    )


# ---------------------------------------------------------------------------
# Wave estimates.
# ---------------------------------------------------------------------------


def _wave_reports(grid: GridSpec, f, g, source) -> list[list[EstimateReport]]:
    """The d'Alembert bounds of each of the stacked instances: sup,
    variation, time derivative, AC combination.

    f, g of shape (K, n+1) are real nodal data of box W = S, and source[m]
    is the row (K, n+1) of S at level m (a level array, or `_LevelRows`).
    All right-hand side norms are exact for piecewise-linear input; each
    report compares at its worst time level.  The series are taken level by
    level as the solve yields them.  Returns four reports per instance:
    wave_sup, wave_tv, wave_dt and the factor-3 wave_combined in
    sup + variation.
    """
    h = grid.h
    series = []
    for m, (W, Wt) in enumerate(wave_solve(grid, f, g, source)):
        series.append((np.abs(W).max(axis=-1), _tv(W), l1_exact(Wt, h), l1_exact(source[m], h)))
    sup_series, tv_series, dt_series, l1_src = (np.stack(s, axis=-1) for s in zip(*series))
    cum_src = cumulative_trapezoid(l1_src, h)

    sup_f = np.abs(f).max(axis=-1)[:, None]
    tv_f = _tv(f)[:, None]
    l1_g = l1_exact(g, h)[:, None]
    slack = _slack(grid)

    per_name = [
        _worst_levels("wave_sup", sup_series, sup_f + l1_g + cum_src, slack),
        _worst_levels("wave_tv", tv_series, tv_f + l1_g + cum_src, slack),
        _worst_levels("wave_dt", dt_series, tv_f + l1_g + cum_src, slack),
        _worst_levels(
            "wave_combined",
            sup_series + tv_series + dt_series,
            3.0 * (sup_f + tv_f + l1_g + cum_src),
            slack,
        ),
    ]
    return [list(reps) for reps in zip(*per_name)]


def _pw_profile(rng: np.random.Generator, grid: GridSpec):
    """Random compactly supported profile, piecewise linear on an even-stride
    sublattice of the grid (interpolated to the nodes in between).

    The even stride keeps the two parity classes of the diamond scheme
    balanced: data rough at the bare grid scale excite its checkerboard
    mode, whose variation grows linearly in time even though the sup error
    stays O(h).  That mode reflects sampling below the instance's own
    length scale, not the inequality under test.  The support is at most
    PROFILE_MAX_WIDTH nodes wide (see `check_suite_grid`).
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


def random_wave_instance(rng: np.random.Generator, grid: GridSpec, steps: int):
    """Random pw-linear data "f", "g" and "source", the source as the pair
    (profile, envelope on levels 0..steps): its level-m row is
    profile * envelope[m]."""
    f = _pw_profile(rng, grid)
    g = _pw_profile(rng, grid)
    prof = _pw_profile(rng, grid)
    env = rng.uniform(0.0, 1.0, size=steps + 1)
    return dict(f=f, g=g, source=(prof, env))


def _solve_wave(grid: GridSpec, steps: int, insts) -> list[list[EstimateReport]]:
    f = np.stack([inst["f"] for inst in insts])
    g = np.stack([inst["g"] for inst in insts])
    source = _LevelRows(*(np.stack([inst["source"][i] for inst in insts]) for i in (0, 1)))
    return _wave_reports(grid, f, g, source)


def run_wave_suite(count: int, seed: int, grid: GridSpec | None = None) -> list[EstimateReport]:
    grid = grid or suite_grid("wave")
    return _run_suite(
        count, seed, grid, random_wave_instance, _solve_wave,
        lambda grid, steps: (steps + 1) * (grid.n + 1) * 8,  # its real source rows
    )


# ---------------------------------------------------------------------------
# Null-form bound.
# ---------------------------------------------------------------------------


def transport_pair(grid: GridSpec, f, g, F=None, G=None, *, levels: int):
    """Solve (d_t + d_x) u = F, (d_t - d_x) v = G by exact characteristics,
    one level at a time.

    f, g are nodal rows (..., nodes), with any leading batch axes; F, G are
    None or sources read by level, F[0], F[1], .. (level arrays
    (levels+1, ..., nodes), or `_LevelRows`), of which levels 0..levels are
    read.  Yields (U, V) at levels 0..levels, each a new array of the rows'
    shape.  The free parts are node shifts of the data (exact, zero inflow
    at the row ends); the Duhamel parts are product-trapezoid integrals
    along characteristics, carried from one level to the next.
    """
    f, g = np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)

    def integrals(S, direction):
        if S is None:
            return None
        rows = (np.asarray(S[m], dtype=complex) for m in range(levels + 1))
        return characteristic_integrals(rows, grid.h, direction)

    TF, TG = integrals(F, +1), integrals(G, -1)
    for m in range(levels + 1):
        U, V = shift(f, m), shift(g, -m)
        if TF is not None:
            U += next(TF)
        if TG is not None:
            V += next(TG)
        yield U, V


def _cone_lhs(grid: GridSpec, mt: int, f, g, F, G):
    """iint |u v| over the backward cone of height mt steps whose base is
    the whole of the rows f, g (..., 2 mt + 1): one value per row.  F, G
    are as `transport_pair` reads them, on the same base.

    The base is the cone's domain of dependence, so every value inside the
    cone equals that of a solve on any wider row, bitwise."""
    pairs = transport_pair(grid, f, g, F, G, levels=mt)
    return cone_quadrature((np.abs(U) * np.abs(V) for U, V in pairs), grid.h, mt, mt)


def _cone_height(rng: np.random.Generator, grid: GridSpec) -> int:
    return int(rng.integers(2, grid.steps + 1))


def random_nullform_instance(rng: np.random.Generator, grid: GridSpec, mt: int):
    """Random pw-linear transport system on a random admissible cone of
    height mt steps, the instance's first draw (`_cone_height`).

    Returns the cone vertex node "jX", the data "f" and "g" as (real
    profile, constant phase), and the sources "F" and "G" as (profile,
    envelope on levels 0..mt, phase), whose level-m row is
    profile * (phase * envelope[m]); a source is absent with probability
    0.3, as zero profile and envelope.  The phases are
    constant so the right-hand side norms are exactly the norms of the real
    profiles.
    """
    jX = int(rng.integers(mt, grid.n - mt + 1))
    fr = _pw_profile(rng, grid)
    gr = _pw_profile(rng, grid)
    inst = {
        "jX": jX,
        "f": (fr, np.exp(2j * np.pi * rng.uniform())),
        "g": (gr, np.exp(2j * np.pi * rng.uniform())),
    }
    for slot in ("F", "G"):
        if rng.uniform() < 0.7:
            prof = _pw_profile(rng, grid)
            env = rng.uniform(0.0, 1.0, size=mt + 1)
            inst[slot] = (prof, env, np.exp(2j * np.pi * rng.uniform()))
        else:
            inst[slot] = (np.zeros(grid.n + 1), np.zeros(mt + 1), 0j)
    return inst


def _solve_nullform(grid: GridSpec, mt: int, insts) -> list[list[EstimateReport]]:
    """Null-form reports of stacked instances of one cone height mt, each
    solved on its own cone base [jX - mt, jX + mt] (see `_cone_lhs`).  The
    norms are taken over the whole rows."""
    h = grid.h
    rows = np.arange(len(insts))[:, None]
    base = np.array([inst["jX"] for inst in insts])[:, None] + np.arange(-mt, mt + 1)
    data, sources, norms = [], [], []
    for slot in ("f", "g"):
        prof = np.stack([inst[slot][0] for inst in insts])
        norms.append(l1_exact(prof, h))
        data.append(prof[rows, base] * np.array([inst[slot][1] for inst in insts])[:, None])
    for slot in ("F", "G"):
        prof = np.stack([inst[slot][0] for inst in insts])
        env = np.stack([inst[slot][1] for inst in insts])
        norms.append(cumulative_trapezoid(env * l1_exact(prof, h)[:, None], h)[:, -1])
        phase = np.array([inst[slot][2] for inst in insts])
        sources.append(_LevelRows(prof[rows, base], phase[:, None] * env))
    lhs = _cone_lhs(grid, mt, *data, *sources)
    nf, ng, nF, nG = norms
    rhs = (nf + nF) * (ng + nG)
    slack = _slack(grid)
    return [[EstimateReport("nullform", float(a), float(b), slack)] for a, b in zip(lhs, rhs)]


def run_nullform_suite(count: int, seed: int, grid: GridSpec | None = None) -> list[EstimateReport]:
    grid = grid or suite_grid("nullform")
    return _run_suite(
        count, seed, grid, random_nullform_instance, _solve_nullform,
        # its complex cone-base rows, or a real whole-row profile
        lambda grid, mt: max((mt + 1) * (2 * mt + 1) * 16, (grid.n + 1) * 8),
        _cone_height,
    )


def _hat(grid: GridSpec, center: float, width: float, amp: float, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Nodal hat profile at the nodes lo .. hi-1 (`GridSpec.nodes`), the
    whole row by default; exact pw-linear when center, width are base-node
    aligned, with ||.||_1 = amp * width."""
    x = grid.nodes(lo, hi)
    return amp * np.maximum(0.0, 1.0 - np.abs(x - center) / width)


def _fixed_nullform_instance(index: int, grid: GridSpec, base: GridSpec):
    """Three hand-built instances whose u, v cross inside the cone from
    (grid.t_max, 0), given on the cone's base only: nodes n/2 - steps ..
    n/2 + steps.

    Hat centers and widths are multiples of the base spacing, so the same
    continuum instance is represented exactly at every dyadic refinement
    and the right-hand side norms are closed-form.  Returns the data f, g,
    the sources F, G (None when absent) and the norms
    [||f||_1, ||g||_1, int ||F||_1, int ||G||_1].
    """
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
    cone = (grid.n // 2 - grid.steps, grid.n // 2 + grid.steps + 1)
    times = grid.h * np.arange(grid.steps + 1)
    norms = [d["f"][1] * d["f"][2], d["g"][1] * d["g"][2], 0.0, 0.0]
    sources = {"F": None, "G": None}
    for slot, pos in (("F", 2), ("G", 3)):
        if d[slot] is not None:
            (c, w, a), env = d[slot]
            # the envelope is pw-linear on the base levels, and the trapezoid
            # rule integrates it exactly on any node-nested time grid
            envt = np.interp(times, base.h * np.arange(env.size), env)
            sources[slot] = _LevelRows(_hat(grid, c, w, a, *cone), envt)
            norms[pos] = float(cumulative_trapezoid(env * (a * w), base.h)[-1])
    return _hat(grid, *d["f"], *cone), _hat(grid, *d["g"], *cone), sources["F"], sources["G"], norms


def nullform_refinement(index: int, factors=(1, 2, 4)):
    """Re-check one fixed continuum instance at refined resolutions.

    index selects one of three hand-built crossing instances, each solved
    on its cone's base only.  Returns a list of (n, measured ratio, allowed
    slack); the allowed slack falls to 1 while the measured ratio converges
    and stays below it.
    """
    base = suite_grid("nullform")
    out = []
    for fac in factors:
        grid = GridSpec(L=base.L, n=fac * base.n, t_max=base.t_max)
        *system, (nf, ng, nF, nG) = _fixed_nullform_instance(index, grid, base)
        lhs = _cone_lhs(grid, grid.steps, *system)
        rep = EstimateReport("nullform", float(lhs), float((nf + nF) * (ng + nG)), _slack(grid))
        out.append((grid.n, rep.ratio, rep.slack_factor))
    return out


def bootstrap_threshold(M: float) -> tuple[float, float]:
    """Concrete smallness constants (C, delta) for the transverse bootstrap.

    C = int |chi(x)| |x|^{-1/2} dx for the package cutoff, computed after the
    substitution x = y^2 which removes the root singularity.  chi(y^2) is
    flat at both ends of [0, sqrt(outer)] (even in y at 0, all derivatives
    zero at the outer edge), so the trapezoid rule converges spectrally.
    delta solves C^2 alpha(delta) = 1/2 with alpha(t) = (1 + z) z and
    z = t(M+1) e^{t(M+1)}: the quadratic gives z, and Newton's method on
    w e^w = z gives w = delta (M+1).
    """
    y = np.linspace(0.0, math.sqrt(CutoffSpec().outer), 513)
    C = 4.0 * float(trapezoid(chi(y * y), y[1]))

    target = 0.5 / (C * C)
    z = 2.0 * target / (1.0 + math.sqrt(1.0 + 4.0 * target))  # (1 + z) z = target
    w = math.log1p(z)  # W(z) <= log(1 + z); Newton descends monotonically from above
    for _ in range(100):
        step = (w - z * math.exp(-w)) / (1.0 + w)
        w -= step
        if step <= 4.0 * np.finfo(float).eps * w:
            break
    return C, w / (M + 1.0)
