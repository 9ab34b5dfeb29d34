"""Clifford relations, transport sources, and the modulus bookkeeping."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdirac1d import coupling, spinor_components, spinor_rhs, wave_sources

from lemmas import (
    MARCHED,
    GammaSet,
    gamma_matrices,
    interaction_term,
    march_two_components,
    modulus_rhs,
    modulus_sq,
    two_component_coupling,
    two_component_rhs,
    two_component_sources,
    verify_clifford,
)

ETA = {0: 1.0, 1: -1.0, 2: -1.0, 3: -1.0}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_clifford_relations_exact(dim):
    gs = gamma_matrices(dim)
    rep = verify_clifford(gs)
    assert rep.ok
    assert rep.max_deviation == 0.0


def test_clifford_report_names_the_failed_relations():
    # i g^1 is hermitian and squares to +I
    g0, g1, g2 = gamma_matrices(2).gammas
    rep = verify_clifford(GammaSet(2, (g0, 1j * g1, g2)))
    assert not rep.ok
    assert rep.failures() == [("anticommutator(1,1)", 4.0), ("antihermitian(1)", 2.0)]
    assert verify_clifford(gamma_matrices(2)).failures() == []


def test_dim3_gamma_set_needs_rho_and_kappa():
    with pytest.raises(ValueError, match="rho and kappa"):
        verify_clifford(GammaSet(3, gamma_matrices(3).gammas))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_anticommutators_by_hand(dim):
    # independent of verify_clifford's own bookkeeping
    gams = [np.asarray(g) for g in gamma_matrices(dim).gammas]
    size = gams[0].shape[0]
    eye = np.eye(size)
    for mu, gm in enumerate(gams):
        for nu, gn in enumerate(gams):
            anti = gm @ gn + gn @ gm
            want = 2.0 * (ETA[mu] if mu == nu else 0.0) * eye
            assert np.array_equal(anti, want)


def test_fixed_matrices_d1():
    gs = gamma_matrices(1)
    sigma1 = np.array([[0, 1], [1, 0]], dtype=complex)
    minus_i_sigma2 = np.array([[0, -1], [1, 0]], dtype=complex)
    assert np.array_equal(np.asarray(gs.gammas[0]), sigma1)
    assert np.array_equal(np.asarray(gs.gammas[1]), minus_i_sigma2)


def test_spinor_components():
    assert spinor_components(1) == 1
    assert spinor_components(2) == 1
    assert spinor_components(3) == 2
    with pytest.raises(ValueError):
        spinor_components(4)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_clifford_square_identity(seed):
    # (a_mu gamma^mu)^2 = (a_0^2 - a_1^2 - ...) I for every real covector
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    a = rng.normal(size=dim + 1)
    gams = [np.asarray(g) for g in gamma_matrices(dim).gammas]
    slash = sum(ai * gi for ai, gi in zip(a, gams))
    square = slash @ slash
    scalar = a[0] ** 2 - np.sum(a[1:] ** 2)
    assert np.allclose(square, scalar * np.eye(square.shape[0]), atol=1e-12)


def _random_fields(rng, dim, n=11):
    nc = spinor_components(dim)
    u = rng.normal(size=(nc, n)) + 1j * rng.normal(size=(nc, n))
    v = rng.normal(size=(nc, n)) + 1j * rng.normal(size=(nc, n))
    A = rng.normal(size=(dim + 1, n))
    return u, v, A


# each marching kernel and its two-component reference
_REFERENCE = {coupling: two_component_coupling, spinor_rhs: two_component_rhs, wave_sources: two_component_sources}


def _on_subspace(u, v, A):
    """A dim-3 state moved to the datum's subspace, u[1], v[1] and A_2 set to
    +0.0: (u, v, A) and the marched rows u[0], v[0], A[MARCHED[3]]."""
    u, v, A = u.copy(), v.copy(), A.copy()
    u[1] = v[1] = 0.0
    A[2] = 0.0
    return u, v, A, u[0], v[0], A[MARCHED[3]]


def _cases(dim, u, v, A, kernel):
    """(u, v, A, the rows the kernel takes of each, the kernel) to check:
    in dims 1 and 2 `kernel` on the node rows u[0], v[0]; in dim 3 its
    reference on all rows, and `kernel` on the marched rows of the state
    moved to the subspace.  The checks lift a node row to the (1, n) rows
    of a component axis with np.atleast_2d, which leaves the reference's
    (2, n) rows as they are."""
    if dim < 3:
        return [(u, v, A, u[0], v[0], A, kernel)]
    return [(u, v, A, u, v, A, _REFERENCE[kernel]), (*_on_subspace(u, v, A), kernel)]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_modulus_rhs_matches_spinor_rhs(dim):
    """The modulus sources are 2 Re(rhs conj(field)): the longitudinal
    potentials act by phase rotation and cancel exactly."""
    rng = np.random.default_rng(7)
    M = 0.7
    for *_, u, v, A, rhs in _cases(dim, *_random_fields(rng, dim), spinor_rhs):
        du, dv = rhs(dim, A, u, v, M)
        su, sv = modulus_rhs(dim, A, u, v, M)
        from_u = np.atleast_2d(2.0 * np.real(du * np.conj(u))).sum(axis=0)
        from_v = np.atleast_2d(2.0 * np.real(dv * np.conj(v))).sum(axis=0)
        assert np.allclose(su, from_u, atol=1e-12)
        assert np.allclose(sv, from_v, atol=1e-12)
        assert np.array_equal(su, -sv)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_spinor_rhs_is_the_dirac_operator(dim):
    """(du, dv) is i g0 (A_mu g^mu - M) psi, split at ncomp: the Dirac
    equation multiplied by i g0, where g0 g1 = diag(1, -1) on (u, v).  On
    the subspace the marched rows are the first components of u and v, and
    the second components of the operator vanish."""
    rng = np.random.default_rng(17)
    M = 0.9
    gs = gamma_matrices(dim)
    nc = spinor_components(dim)
    for u_all, v_all, A_all, u, v, A, rhs in _cases(dim, *_random_fields(rng, dim), spinor_rhs):
        psi = np.concatenate([u_all, v_all])
        F = np.concatenate(interaction_term(gs, A_all, u_all, v_all))
        want = 1j * np.tensordot(gs.gammas[0], F - M * psi, axes=(1, 0))
        du, dv = (np.atleast_2d(w) for w in rhs(dim, A, u, v, M))
        k = du.shape[0]
        assert np.allclose(du, want[:k], rtol=0.0, atol=1e-12)
        assert np.allclose(dv, want[nc : nc + k], rtol=0.0, atol=1e-12)
        assert np.allclose(want[k:nc], 0.0, rtol=0.0, atol=1e-12)
        assert np.allclose(want[nc + k :], 0.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_coupling_is_antihermitian_with_scalar_schur_complement(dim):
    rng = np.random.default_rng(19)
    M = 0.6
    for *_, w1, w2, A, maps in _cases(dim, *_random_fields(rng, dim), coupling):
        C, D, k2 = maps(dim, A, M)
        assert np.allclose(k2, (A[2:] ** 2).sum(axis=0) + M * M, rtol=0.0, atol=1e-12)
        assert np.allclose(D(C(w1)), -k2 * w1, rtol=0.0, atol=1e-12)
        assert np.allclose(C(D(w1)), -k2 * w1, rtol=0.0, atol=1e-12)
        # D = -C^dagger, node by node
        lhs = np.atleast_2d(np.conj(w1) * C(w2)).sum(axis=0)
        rhs = -np.conj(np.atleast_2d(np.conj(w2) * D(w1)).sum(axis=0))
        assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_modulus_rhs_ignores_longitudinal(dim):
    rng = np.random.default_rng(11)
    u, v, A = _random_fields(rng, dim)
    B = A.copy()
    B[0] = 0.0
    B[1] = 0.0
    assert np.array_equal(modulus_rhs(dim, A, u, v, 0.3)[0], modulus_rhs(dim, B, u, v, 0.3)[0])


def test_spinor_rhs_d1_by_hand():
    u = np.array([[1.0 + 2.0j]])
    v = np.array([[0.5 - 1.0j]])
    A = [np.array([0.3]), np.array([-0.2])]
    du, dv = spinor_rhs(1, A, u, v, 2.0)
    assert np.allclose(du, 1j * 0.1 * u - 2.0j * v)
    assert np.allclose(dv, 1j * 0.5 * v - 2.0j * u)


def test_spinor_rhs_free_vanishes():
    u = np.array([[1.0 + 1.0j, 2.0]])
    v = np.zeros_like(u)
    A = [np.zeros(2), np.zeros(2)]
    du, dv = spinor_rhs(1, A, u, v, 0.0)
    assert np.array_equal(du, np.zeros_like(u))
    assert np.array_equal(dv, np.zeros_like(v))


def test_wave_sources_by_hand_d2():
    u = np.array([[2.0 + 1.0j]])
    v = np.array([[1.0 - 1.0j]])
    s0, s1, s2 = wave_sources(2, u, v)
    assert np.allclose(s0, np.abs(u) ** 2 + np.abs(v) ** 2)
    assert np.allclose(s1, -np.abs(u) ** 2 + np.abs(v) ** 2)
    # -2 Im(u conj(v)) with u conj(v) = (2+i)(1+i) = 1 + 3i
    assert np.allclose(s2, -6.0)
    for s in (s0, s1, s2):
        assert np.isrealobj(s)


def test_wave_sources_d3_real():
    rng = np.random.default_rng(3)
    u = rng.normal(size=(2, 9)) + 1j * rng.normal(size=(2, 9))
    v = rng.normal(size=(2, 9)) + 1j * rng.normal(size=(2, 9))
    # S_0 .. S_3 on both components; S_0, S_1, S_3 on the marched row
    for sources, rows in ((two_component_sources(3, u, v), 4), (wave_sources(3, u[0], v[0]), 3)):
        assert len(sources) == rows
        for s in sources:
            assert np.isrealobj(s)
            assert s.shape == (9,)


def test_modulus_sq_shapes():
    rng = np.random.default_rng(5)
    u2 = rng.normal(size=(1, 6)) + 1j * rng.normal(size=(1, 6))
    v2 = np.zeros_like(u2)
    m2 = modulus_sq(2, u2, v2)
    assert np.allclose(m2, np.abs(u2) ** 2)
    u3 = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
    v3 = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
    m3 = modulus_sq(3, u3, v3)
    assert m3.shape == (6,)
    assert np.allclose(m3, (np.abs(u3) ** 2 + np.abs(v3) ** 2).sum(axis=0))
    assert np.all(m3 >= 0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bilinears_return_node_rows(dim):
    """The kernels of `gamma_algebra` take the marched node rows and give
    node rows; the lemmas, and in dim 3 the reference, take all
    spinor_components(dim) rows on a component axis, refuse other shapes,
    and reduce that axis in their bilinears."""
    rng = np.random.default_rng(13)
    u, v, A = _random_fields(rng, dim)
    n = u.shape[-1]
    u1, v1, A1 = u[0], v[0], A[MARCHED[dim]]  # the marched rows
    gs = gamma_matrices(dim)
    for w in (*wave_sources(dim, u1, v1), *modulus_rhs(dim, A1, u1, v1, 0.5), *spinor_rhs(dim, A1, u1, v1, 0.5)):
        assert w.shape == (n,)
    calls = [lambda uu, vv: modulus_sq(dim, uu, vv), lambda uu, vv: interaction_term(gs, A, uu, vv)]
    if dim == 3:
        calls += [
            lambda uu, vv: two_component_sources(dim, uu, vv),
            lambda uu, vv: modulus_rhs(dim, A, uu, vv, 0.5),
            lambda uu, vv: two_component_rhs(dim, A, uu, vv, 0.5),
        ]
    wrong = np.ones((spinor_components(dim) + 1, n), dtype=complex)
    # a bare (n,) row; one component too many; u and v with different counts
    for call in calls:
        for uu, vv in ((u1, u1), (wrong, wrong), (u, wrong)):
            with pytest.raises(ValueError, match="half-spinors"):
                call(uu, vv)
    assert modulus_sq(dim, u, v).shape == (n,)
    for w in interaction_term(gs, A, u, v):
        assert w.shape == u.shape
    if dim == 3:
        for s in (*two_component_sources(3, u, v), *modulus_rhs(3, A, u, v, 0.5)):
            assert s.shape == (n,)
        for w in two_component_rhs(3, A, u, v, 0.5):
            assert w.shape == u.shape


def test_interaction_term_is_linear_in_A():
    rng = np.random.default_rng(9)
    gs = gamma_matrices(2)
    u, v, A = _random_fields(rng, 2)
    Fu1, Fv1 = interaction_term(gs, A, u, v)
    Fu2, Fv2 = interaction_term(gs, 2.0 * A, u, v)
    assert np.allclose(Fu2, 2.0 * Fu1)
    assert np.allclose(Fv2, 2.0 * Fv1)
    with pytest.raises(ValueError):
        interaction_term(gs, A[:2], u, v)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_batched_bilinears_and_coupling_equal_per_instance_calls(dim):
    """Stacked instances give each instance's own result, bitwise: node
    rows (K, n) with potentials (rows, K, n) and masses (K, 1) in the
    kernels of `gamma_algebra`, and all rows (K, ncomp, n) with potentials
    (dim + 1, K, 1, n) and masses (K, 1, 1) in the lemmas and, in dim 3,
    the reference."""
    rng = np.random.default_rng(23)
    K, n = 4, 11
    insts = [_random_fields(rng, dim, n) for _ in range(K)]
    masses = rng.uniform(0.0, 2.0, size=K)
    gs = gamma_matrices(dim)

    def calls(u, v, A, M, full):
        """name -> outputs of the marched kernels, or with `full` of the
        lemmas on all rows and, in dim 3, of the reference"""
        if not full:
            C, D, k2 = coupling(dim, A, M)
            return {
                "spinor_rhs": spinor_rhs(dim, A, u, v, M),
                "modulus_rhs": modulus_rhs(dim, A, u, v, M),
                "wave_sources": wave_sources(dim, u, v),
                "coupling": (C(v), D(u), np.broadcast_to(k2, u.shape)),
            }
        out = {"interaction_term": interaction_term(gs, A, u, v), "modulus_sq": (modulus_sq(dim, u, v),)}
        if dim == 3:
            C, D, k2 = two_component_coupling(dim, A, M)
            out.update(
                spinor_rhs=two_component_rhs(dim, A, u, v, M),
                modulus_rhs=modulus_rhs(dim, A, u, v, M),
                wave_sources=two_component_sources(dim, u, v),
                coupling=(C(v), D(u), np.broadcast_to(k2, (*u.shape[:-2], 1, n))),
            )
        return out

    for full in (False, True):
        rows = [(u, v, A) if full else (u[0], v[0], A[MARCHED[dim]]) for u, v, A in insts]
        u, v = (np.stack([r[i] for r in rows]) for i in (0, 1))
        A, M = np.stack([r[2] for r in rows], axis=1), masses[:, None]
        if full:  # per instance, broadcast against the component axis
            A, M = A[:, :, None, :], M[:, :, None]
        batched = calls(u, v, A, M, full)
        for k, (uk, vk, Ak) in enumerate(rows):
            for name, outs in calls(uk, vk, Ak, masses[k], full).items():
                assert len(outs) == len(batched[name])
                for got, want in zip(batched[name], outs):
                    assert np.array_equal(got[k], want), name


# ---------------------------------------------------------------------------
# One-component dim-3 spinors, held to the two-component reference.
# ---------------------------------------------------------------------------


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _first_component_state(rng, n=64):
    """A dim-3 state whose second components and A_2 row are +0.0, with
    first components of every sign and some exact zeros."""
    u, v, A = _random_fields(rng, 3, n)
    u[1] = v[1] = 0.0
    A[2] = 0.0
    u[0, ::7] = 0.0
    v[0, 3::5] = 0.0
    return u, v, A


@pytest.mark.parametrize("M", [0.0, 1.0, 0.37])
def test_one_component_sources_and_coupling_bitwise(M):
    rng = np.random.default_rng(41)
    u, v, A = _first_component_state(rng)
    u1, v1 = u[0], v[0]  # the marched node rows
    A1 = A[MARCHED[3]]  # the marched rows A_0, A_1, A_3
    full = two_component_sources(3, u, v)
    reduced = wave_sources(3, u1, v1)
    assert len(reduced) == 3
    for row, mu in enumerate(MARCHED[3]):
        assert _same_bits(reduced[row], full[mu]), mu
    assert not full[2].any()  # S_2 is a zero, of either sign, and A_2 stays +0.0
    assert _same_bits(reduced[0], modulus_sq(3, u, v))  # S_0 is the |psi|^2 of all rows
    C, D, k2 = two_component_coupling(3, A, M)
    C1, D1, k21 = coupling(3, A1, M)
    assert _same_bits(k21, k2)
    assert _same_bits(C1(v1), C(v)[0])
    assert _same_bits(D1(u1), D(u)[0])
    du, dv = two_component_rhs(3, A, u, v, M)
    du1, dv1 = spinor_rhs(3, A1, u1, v1, M)
    assert _same_bits(du1, du[0]) and _same_bits(dv1, dv[0])
    assert not du[1].any() and not dv[1].any()


@pytest.mark.parametrize("M", [0.0, -0.0, 1.0, 0.37])
def test_dims_2_and_3_share_one_coupling_of_the_transverse_row(M):
    # one transverse row T, A_2 in dim 2 and A_3 in dim 3, in the same three
    # marched rows: D and k2 are the same bits, and dim 3's C adds its "+ 0.0"
    rng = np.random.default_rng(53)
    _, v, A = _first_component_state(rng)
    T = A[3]
    T[::4], T[1::4] = 0.0, -0.0
    w = v[0]
    w[2::6] = complex(-0.0, 0.0)
    w[5::6] = complex(0.0, -0.0)
    rows = (A[0], A[1], T)
    C2, D2, k2_2 = coupling(2, rows, M)
    C3, D3, k2_3 = coupling(3, rows, M)
    assert _same_bits(D3(w), D2(w)) and _same_bits(k2_3, k2_2)
    assert _same_bits(C3(w), C2(w) + 0.0)
    parts = C2(w).view(float)
    assert (np.signbit(parts) & (parts == 0.0)).any()  # -0.0 parts for the + 0.0 to turn


@pytest.mark.parametrize("M", [0.0, 1.0])
def test_one_component_transport_step_bitwise(M):
    from maxdirac1d.cone_solver import _StepWork, _transport_step

    rng = np.random.default_rng(43)
    u, v, A_old = _first_component_state(rng)
    A_new = rng.normal(size=A_old.shape)
    A_new[2] = 0.0
    h = 0.05
    rows = MARCHED[3]  # A_0, A_1, A_3
    ur, vr = _transport_step(3, M, h, u[0], v[0], A_old[rows], A_new[rows], _StepWork(u[0].shape))
    with march_two_components():
        uf, vf = _transport_step(3, M, h, u, v, A_old, A_new, _StepWork(u.shape))
    assert _same_bits(ur, uf[0]) and _same_bits(vr, vf[0])
    zero = np.zeros_like(uf[1])
    assert _same_bits(uf[1], zero) and _same_bits(vf[1], zero)  # the second components stay +0.0


def test_kernels_check_the_dim_and_the_potential_rows():
    rng = np.random.default_rng(47)
    u, v, A = _first_component_state(rng, 8)
    u1, v1 = u[0], v[0]
    for dim in (0, 4):
        for call in (
            lambda: coupling(dim, A[:3], 1.0),
            lambda: spinor_rhs(dim, A[:3], u1, v1, 1.0),
            lambda: wave_sources(dim, u1, v1),
        ):
            with pytest.raises(ValueError, match="spatial dimension"):
                call()
    # the kernels take the marched potential rows: dim 3's four physical
    # rows, or dim 1 with a transverse row, are refused
    for dim, rows in ((3, A), (1, A[:3])):
        for call in (lambda: coupling(dim, rows, 1.0), lambda: spinor_rhs(dim, rows, u1, v1, 1.0)):
            with pytest.raises(ValueError, match="potential rows"):
                call()


# Bytes that a dim-1 `wave_sources` call with a kept `out` and `densities`
# allocates at n = 2^14 (tracemalloc peak, numpy 2.4.6, x86-64): 633 B
# (0.005 rows of 8 B per node) when |w|^2 is written straight into
# `densities`, 132,272 B (1.01 rows) when np.abs made a temporary that a
# sum over a one-row component axis wrote into it
def test_dim1_sources_into_kept_rows_allocate_less_than_a_node_row():
    n1 = 2**14 + 1
    rng = np.random.default_rng(59)
    u, v = (rng.normal(size=n1) + 1j * rng.normal(size=n1) for _ in range(2))
    out, dens = np.empty((2, n1)), np.empty((2, n1))
    wave_sources(1, u, v, out=out, densities=dens)
    tracemalloc.start()
    try:
        wave_sources(1, u, v, out=out, densities=dens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n1
