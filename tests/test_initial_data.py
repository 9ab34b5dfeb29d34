"""Data family, cutoff, grids, and the discrete norms."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdirac1d import (
    CutoffSpec,
    DataFamily,
    GridSpec,
    PotentialMode,
    chi,
    f_eps,
    hs_norm,
    lp_norm,
    potential_data,
    spinor_datum,
)
from maxdirac1d.experiments import SweepPlan, grid_for_eps
from maxdirac1d.initial_data import CSV_CHUNK_ROWS, sample_midpoints, write_csv


def test_chi_plateau_and_support():
    c = CutoffSpec()
    xs = np.linspace(-3.0, 3.0, 1201)
    vals = chi(xs, c)
    assert np.all(vals[np.abs(xs) <= 1.0] == 1.0)
    assert np.all(vals[np.abs(xs) >= 2.0] == 0.0)
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    right = vals[(xs >= 1.0) & (xs <= 2.0)]
    assert np.all(np.diff(right) <= 1e-15)


def test_chi_scalar_and_custom_cutoff():
    c = CutoffSpec(inner=0.5, outer=3.0)
    assert chi(0.25, c) == 1.0
    assert chi(3.5, c) == 0.0
    assert 0.0 < chi(1.75, c) < 1.0


def test_f_eps_values():
    assert f_eps(0.0, 0.1) == pytest.approx(0.1 ** -0.5)
    assert f_eps(3.0, 0.0) == pytest.approx(3.0 ** -0.5)
    with pytest.raises(ValueError):
        f_eps(0.0, 0.0)
    with pytest.raises(ValueError):
        f_eps(1.0, -0.1)


@given(st.floats(1e-4, 1.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_f_eps_monotonicity(eps, x1, x2):
    # decreasing in |x|, and smaller eps never decreases the profile
    lo, hi = sorted([abs(x1), abs(x2)])
    assert f_eps(hi, eps) <= f_eps(lo, eps) + 1e-15
    assert f_eps(x1, eps) <= f_eps(x1, 0.5 * eps) + 1e-15


def test_grid_spec_basics():
    grid = GridSpec(L=2.56, n=512, t_max=0.2)
    assert grid.h == pytest.approx(0.01)
    assert grid.steps == 20
    assert grid.nodes().size == 513
    assert grid.midpoints().size == 512
    assert grid.nodes()[256] == 0.0


def test_node_ranges_are_bitwise_linspace():
    # the grids of the benchmark's blow-up ladders and random ones, on the
    # whole grid and on random ranges, hi = n + 1 among them
    plans = [SweepPlan(dim=2, M=0.0, eps_list=(1.0,), T=0.05, h_over_eps=r) for r in (4.0, 16.0)]
    grids = [grid_for_eps(plan, eps) for plan in plans for eps in (10**-1.5, 10**-1.75, 1e-2, 10**-2.25, 10**-2.5)]
    rng = np.random.default_rng(0)
    grids += [GridSpec(L=float(rng.uniform(0.01, 50.0)), n=2 * int(rng.integers(2, 3000)), t_max=0.0) for _ in range(40)]
    for grid in grids:
        full = np.linspace(-grid.L, grid.L, grid.n + 1)
        assert grid.nodes().tobytes() == full.tobytes()
        ranges = [(0, grid.n + 1), (grid.n + 1, grid.n + 1), (grid.n, grid.n + 1), (0, 1)]
        for _ in range(10):
            lo = int(rng.integers(0, grid.n + 2))
            ranges += [(lo, int(rng.integers(lo, grid.n + 2))), (lo, grid.n + 1)]
        for lo, hi in ranges:
            x = grid.nodes(lo, hi)
            assert x.dtype == full.dtype and x.tobytes() == full[lo:hi].tobytes(), (grid, lo, hi)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"L": 2.56, "n": 512, "t_max": 0.205},  # not a whole number of steps
        {"L": 2.56, "n": 511, "t_max": 0.2},  # odd n
        {"L": 2.56, "n": 2, "t_max": 0.0},  # too few cells
        {"L": -1.0, "n": 512, "t_max": 0.0},
        {"L": 2.56, "n": 512, "t_max": -0.1},
    ],
)
def test_grid_spec_rejects(kwargs):
    with pytest.raises(ValueError):
        GridSpec(**kwargs)


def test_ensure_support():
    grid = GridSpec(L=2.2, n=220, t_max=0.5)
    with pytest.raises(ValueError):
        grid.ensure_support(2.0)
    GridSpec(L=2.6, n=260, t_max=0.5).ensure_support(2.0)


def test_data_family_validation():
    with pytest.raises(ValueError):
        DataFamily(dim=4, eps=0.1)
    with pytest.raises(ValueError):
        DataFamily(dim=2, eps=-0.1)
    with pytest.raises(ValueError):
        DataFamily(dim=2, eps=0.1, M=-1.0)
    with pytest.raises(ValueError):
        DataFamily(dim=2, eps=0.0, potential_mode=PotentialMode.CONSTRAINED)
    with pytest.raises(ValueError, match="underflows"):
        DataFamily(dim=2, eps=1e-200)  # its datum peak at x = 0 is inf
    # eps^2 subnormal: the datum peak (eps^2)^(-1/4) has lost digits and overflows the solver
    for eps in (1e-161, 1e-155):
        with pytest.raises(ValueError, match=f"eps = {eps!r} .* underflows"):
            DataFamily(dim=2, eps=eps)
    assert DataFamily(dim=2, eps=2e-154).eps == 2e-154  # eps^2 = 4e-308 is a normal float
    fam = DataFamily(dim=2, eps=0.1, potential_mode="constrained")
    assert fam.potential_mode is PotentialMode.CONSTRAINED


def test_spinor_datum_shape_and_value():
    grid = GridSpec(L=2.56, n=256, t_max=0.0)
    fam = DataFamily(dim=2, eps=0.1)
    u, v = spinor_datum(fam, grid)
    x = grid.nodes()
    assert u.shape == (257,) and v.shape == (257,)
    assert np.array_equal(v, np.zeros_like(v))
    assert np.allclose(u, chi(x, fam.cutoff) * f_eps(x, 0.1))
    u3, v3 = spinor_datum(DataFamily(dim=3, eps=0.1), grid)
    assert u3.shape == (257,)  # the marched row: dim 3's second components are zero
    assert np.array_equal(u3, u)
    assert np.array_equal(v3, np.zeros_like(v3))


def test_spinor_datum_needs_positive_eps():
    # the eps = 0 profile is for the norms only
    with pytest.raises(ValueError, match="needs eps > 0"):
        spinor_datum(DataFamily(dim=2, eps=0.0), GridSpec(L=2.56, n=256, t_max=0.0))


@pytest.mark.parametrize("mode", list(PotentialMode))
@pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-12])
@pytest.mark.parametrize("cutoff", [CutoffSpec(), CutoffSpec(inner=0.3, outer=0.6)], ids=["default", "narrow"])
def test_dim3_datum_leaves_the_second_components_plus_zero(mode, eps, cutoff):
    # the one-row march of dim 3 rests on this: the potential datum holds
    # the marched rows A_0, A_1, A_3 alone (a_2 = b_2 = 0 are left out), its
    # transverse row is +0.0 in every byte (a -0.0 has its sign bit set),
    # and the spinor datum is the first component alone, with the bits of
    # chi * f_eps
    grid = GridSpec(L=2.56, n=256, t_max=0.0)
    fam = DataFamily(dim=3, eps=eps, potential_mode=mode, cutoff=cutoff)
    a, b = potential_data(fam, grid)
    assert a.shape == b.shape == (3, grid.n + 1)
    for w in (a[2], b[2]):
        assert w.dtype == np.float64 and not w.view(np.uint8).any()
    u, v = spinor_datum(fam, grid)
    want = np.zeros(grid.n + 1, dtype=complex)
    want[:] = chi(grid.nodes(), cutoff) * f_eps(grid.nodes(), eps)
    assert u.dtype == want.dtype and u.shape == want.shape and u.tobytes() == want.tobytes()
    assert v.shape == want.shape and not v.view(np.uint8).any()


def _node_ranges(n1, rng):
    """Half-open node ranges: width 1 at both grid ends and at the centre,
    windows that start or end at a grid end, the whole grid, and random
    windows of every width."""
    c = n1 // 2
    fixed = [(0, 1), (n1 - 1, n1), (c, c + 1), (0, 7), (n1 - 7, n1), (0, n1)]
    random = [tuple(sorted(rng.choice(n1 + 1, size=2, replace=False).tolist())) for _ in range(60)]
    return fixed + random


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("mode", list(PotentialMode))
@pytest.mark.parametrize("eps", [1e-2, 1e-6])
def test_datum_on_a_node_range_is_the_slice_of_the_full_grid_datum(dim, mode, eps):
    # `evolve` samples the datum on the nodes its read cones reach; every
    # value must be the one the full-grid sample holds, bit for bit
    grid = GridSpec(L=2.56, n=2048, t_max=0.0)
    fam = DataFamily(dim=dim, eps=eps, potential_mode=mode, cutoff=CutoffSpec(inner=0.3, outer=0.6))
    full = (*spinor_datum(fam, grid), *potential_data(fam, grid))
    assert full[0].any() and (mode is PotentialMode.ZERO or full[3].any())
    for lo, hi in _node_ranges(grid.n + 1, np.random.default_rng(dim)):
        part = (*spinor_datum(fam, grid, (lo, hi)), *potential_data(fam, grid, (lo, hi)))
        for w, want in zip(part, full):
            want = want[..., lo:hi]
            assert w.dtype == want.dtype and w.shape == want.shape, (lo, hi)
            assert w.tobytes() == want.tobytes(), (lo, hi)


def test_potential_data_zero_mode():
    # the marched rows: A_0, A_1 and, in dims 2 and 3, the transverse row
    grid = GridSpec(L=2.56, n=256, t_max=0.0)
    for dim, rows in ((1, 2), (2, 3), (3, 3)):
        a, b = potential_data(DataFamily(dim=dim, eps=0.1), grid)
        assert a.shape == (rows, 257) and b.shape == (rows, 257)
        assert not a.any() and not b.any()


@pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-12])
def test_constrained_b1_keeps_its_digits_left_of_the_origin(eps):
    # x + sqrt(eps^2 + x^2) cancels for x < 0 and |x| >> eps; asinh(x/eps) + log(eps) does not
    grid = GridSpec(L=2.56, n=256, t_max=0.0)
    fam = DataFamily(dim=1, eps=eps, potential_mode=PotentialMode.CONSTRAINED)
    _, b = potential_data(fam, grid)
    x, c = grid.nodes(), chi(grid.nodes(), fam.cutoff)
    assert np.isfinite(b[1]).all()
    assert np.abs(b[1] - c * (np.arcsinh(x / eps) + np.log(eps))).max() <= 1e-13
    # the nodes x >= 0 keep the plain expression, bit for bit
    on = (x >= 0.0) & (c > 0.0)
    assert np.array_equal(b[1][on], c[on] * np.log(x[on] + np.sqrt(eps * eps + x[on] * x[on])))


@pytest.mark.parametrize("n", [512, 1024])
def test_constrained_data_discrete_gauss_law(n):
    """On the inner ball the centered difference of the A_1 rate matches the
    charge density at second order."""
    eps = 0.1
    grid = GridSpec(L=2.56, n=n, t_max=0.0)
    fam = DataFamily(dim=1, eps=eps, potential_mode=PotentialMode.CONSTRAINED)
    a, b = potential_data(fam, grid)
    assert not a.any()
    assert not b[0].any()
    x = grid.nodes()
    h = grid.h
    dxb1 = (b[1][2:] - b[1][:-2]) / (2.0 * h)
    rho = f_eps(x, eps) ** 2
    inner = np.abs(x[1:-1]) <= 0.9
    err = np.abs(dxb1 - rho[1:-1])[inner].max()
    assert err <= 200.0 * h * h


def test_constrained_rate_symmetry():
    # on the plateau b_1(x) + b_1(-x) = log(eps^2 + x^2 - x^2) = 2 log eps
    grid = GridSpec(L=2.56, n=512, t_max=0.0)
    fam = DataFamily(dim=2, eps=0.05, potential_mode=PotentialMode.CONSTRAINED)
    _, b = potential_data(fam, grid)
    x = grid.nodes()
    core = np.abs(x) <= 1.0
    vals = b[1][core]
    assert np.allclose(vals + vals[::-1], 2.0 * np.log(0.05), atol=1e-12)
    assert b[1][x == 0.0] == pytest.approx(np.log(0.05))


def test_sampling_helpers():
    grid = GridSpec(L=2.0, n=8, t_max=0.0)
    mids = sample_midpoints(lambda x: x, grid)
    assert mids.size == 8
    assert mids[0] == pytest.approx(-2.0 + 0.25)


def test_lp_norm_exact_on_hats():
    grid = GridSpec(L=2.56, n=512, t_max=0.0)
    hat = sample_midpoints(lambda x: np.clip(1.5 * (1.0 - np.abs(x - 0.2) / 0.25), 0.0, None), grid)
    # hat area = amp * width; the kinks are nodes, so the midpoint rule is exact
    assert lp_norm(hat, 1, grid) == pytest.approx(1.5 * 0.25, abs=1e-14)
    with pytest.raises(ValueError):
        lp_norm(hat, 0.5, grid)


def test_lp_norm_rejects_nodal_samples():
    # the n + 1 nodes would add a cell: the L1 norm of ones would read 2.25
    grid = GridSpec(L=1.0, n=8, t_max=0.0)
    assert lp_norm(np.ones(8), 1, grid) == 2.0
    for p in (1, 2):
        with pytest.raises(ValueError, match="midpoint samples must have n entries"):
            lp_norm(np.ones(9), p, grid)


def test_hs_norm_limits():
    grid = GridSpec(L=2.5, n=2048, t_max=0.0)
    vals = sample_midpoints(lambda x: np.exp(-8.0 * x * x), grid)
    l2 = lp_norm(vals, 2, grid)
    assert hs_norm(vals, -1e-4, grid) == pytest.approx(l2, rel=1e-3)
    # weight (1 + xi^2)^s decreases with |s|
    assert hs_norm(vals, -0.5, grid) < hs_norm(vals, -0.25, grid)
    with pytest.raises(ValueError):
        hs_norm(vals, 0.5, grid)
    with pytest.raises(ValueError):
        hs_norm(vals[:-1], -0.5, grid)


def test_singular_profile_differences_shrink():
    """The eps -> 0 limit is Cauchy in negative-order norms on midpoint
    samples even though the L^2 norms diverge."""
    grid = GridSpec(L=2.5, n=4096, t_max=0.0)
    eps_list = [1e-2, 1e-3, 1e-4]
    cutoff = CutoffSpec()
    samples = [sample_midpoints(lambda x: chi(x, cutoff) * f_eps(x, e), grid) for e in eps_list]
    l2 = [lp_norm(s, 2, grid) for s in samples]
    assert l2[0] < l2[1] < l2[2]
    d1 = hs_norm(samples[1] - samples[0], -0.5, grid)
    d2 = hs_norm(samples[2] - samples[1], -0.5, grid)
    assert d2 < d1


def test_field_io_roundtrip(tmp_path):
    grid = GridSpec(L=2.0, n=16, t_max=0.0)
    x = grid.nodes()
    path = tmp_path / "field.csv"
    write_csv(path, ["x", "a", "b"], zip(x, x**2, -x), ("config_hash=deadbeef",))
    text = path.read_text().splitlines()
    assert text[0] == "# config_hash=deadbeef"
    assert text[1].split(",")[0] == "x"
    data = np.array([[float(v) for v in line.split(",")] for line in text[2:]])
    assert np.array_equal(data[:, 0], x)
    assert np.array_equal(data[:, 1], x**2)


def _oracle_csv(path, header, rows, comments):
    """The plain csv.writer text, one repr(float(cell)) at a time."""
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows([repr(float(c)) for c in row] for row in rows)


@pytest.mark.parametrize("nrows", [0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 3])
@pytest.mark.parametrize("ncols", [1, 3])
def test_write_csv_bytes_match_csv_writer(tmp_path, nrows, ncols):
    cells = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5, 0.1, -2.5])
    # the writer formats a column at a time and shares one string for +0.0:
    # columns with runs of +0.0 of every kind, next to the mixed ones
    j = np.arange(nrows)
    runs = np.column_stack(
        [
            np.zeros(nrows),  # all +0.0
            1.0 + j / 7.0,  # no +0.0 at all
            np.where(j % 5 == 2, -0.0, np.where(j % 11 == 6, np.nan, 0.0)),  # -0.0 and nan inside zero runs
            np.where((j == CSV_CHUNK_ROWS - 2) | (j == 2 * CSV_CHUNK_ROWS + 1), 0.5, 0.0),  # zero runs across chunks
        ]
    )
    block = np.hstack([np.resize(cells, nrows * ncols).reshape(nrows, ncols), runs])
    header = [f"c{k}" for k in range(block.shape[1])]
    comments = ("config_hash=deadbeef", "t=0.1")
    for hdr in (header, None):
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        _oracle_csv(want, hdr, block, comments)
        write_csv(got, hdr, block, comments)
        assert got.read_bytes() == want.read_bytes()
        # rows given as an iterable of numpy scalars take the same path
        write_csv(got, hdr, (tuple(row) for row in block), comments)
        assert got.read_bytes() == want.read_bytes()
        # and so does a first column given as text, as the snapshot files share x
        write_csv(got, hdr, block[:, 1:], comments, lead=[repr(float(c)) for c in block[:, 0]])
        assert got.read_bytes() == want.read_bytes()
