"""Clifford relations, transport sources, and the modulus bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdirac1d import (
    coupling,
    gamma_matrices,
    interaction_term,
    modulus_rhs,
    modulus_sq,
    spinor_components,
    spinor_rhs,
    verify_clifford,
    wave_sources,
)

ETA = {0: 1.0, 1: -1.0, 2: -1.0, 3: -1.0}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_clifford_relations_exact(dim):
    gs = gamma_matrices(dim)
    rep = verify_clifford(gs)
    assert rep.ok
    assert rep.max_deviation == 0.0


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


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_modulus_rhs_matches_spinor_rhs(dim):
    """The modulus sources are 2 Re(rhs conj(field)): the longitudinal
    potentials act by phase rotation and cancel exactly."""
    rng = np.random.default_rng(7)
    u, v, A = _random_fields(rng, dim)
    M = 0.7
    du, dv = spinor_rhs(dim, A, u, v, M)
    su, sv = modulus_rhs(dim, A, u, v, M)
    from_u = 2.0 * np.real(du * np.conj(u)).sum(axis=0)
    from_v = 2.0 * np.real(dv * np.conj(v)).sum(axis=0)
    assert np.allclose(su, from_u, atol=1e-12)
    assert np.allclose(sv, from_v, atol=1e-12)
    assert np.array_equal(su, -sv)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_spinor_rhs_is_the_dirac_operator(dim):
    """(du, dv) is i g0 (A_mu g^mu - M) psi, split at ncomp: the Dirac
    equation multiplied by i g0, where g0 g1 = diag(1, -1) on (u, v)."""
    rng = np.random.default_rng(17)
    u, v, A = _random_fields(rng, dim)
    M = 0.9
    gs = gamma_matrices(dim)
    psi = np.concatenate([u, v])
    F = np.concatenate(interaction_term(gs, A, u, v))
    want = 1j * np.tensordot(gs.gammas[0], F - M * psi, axes=(1, 0))
    du, dv = spinor_rhs(dim, A, u, v, M)
    nc = spinor_components(dim)
    assert np.allclose(du, want[:nc], rtol=0.0, atol=1e-12)
    assert np.allclose(dv, want[nc:], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_coupling_is_antihermitian_with_scalar_schur_complement(dim):
    rng = np.random.default_rng(19)
    w1, w2, A = _random_fields(rng, dim)
    M = 0.6
    C, D, k2 = coupling(dim, A, M)
    assert np.allclose(k2, (A[2:] ** 2).sum(axis=0) + M * M, rtol=0.0, atol=1e-12)
    assert np.allclose(D(C(w1)), -k2 * w1, rtol=0.0, atol=1e-12)
    assert np.allclose(C(D(w1)), -k2 * w1, rtol=0.0, atol=1e-12)
    # D = -C^dagger, node by node
    lhs = (np.conj(w1) * C(w2)).sum(axis=0)
    rhs = -np.conj((np.conj(w2) * D(w1)).sum(axis=0))
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
    sources = wave_sources(3, u, v)
    assert len(sources) == 4
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
def test_bilinears_take_component_axis_and_return_node_rows(dim):
    rng = np.random.default_rng(13)
    u, v, A = _random_fields(rng, dim)
    gs = gamma_matrices(dim)
    calls = (
        lambda uu, vv: modulus_sq(dim, uu, vv),
        lambda uu, vv: wave_sources(dim, uu, vv),
        lambda uu, vv: modulus_rhs(dim, A, uu, vv, 0.5),
        lambda uu, vv: interaction_term(gs, A, uu, vv),
        lambda uu, vv: spinor_rhs(dim, A, uu, vv, 0.5),
    )
    wrong = np.ones((3 - spinor_components(dim), u.shape[1]), dtype=complex)
    for call in calls:
        with pytest.raises(ValueError, match="half-spinors"):
            call(u[0], v[0])  # bare (n,) rows
        with pytest.raises(ValueError, match="half-spinors"):
            call(wrong, wrong)
    assert modulus_sq(dim, u, v).shape == (u.shape[1],)
    for s in wave_sources(dim, u, v):
        assert s.shape == (u.shape[1],)
    for s in modulus_rhs(dim, A, u, v, 0.5):
        assert s.shape == (u.shape[1],)
    for w in (*interaction_term(gs, A, u, v), *spinor_rhs(dim, A, u, v, 0.5)):
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
