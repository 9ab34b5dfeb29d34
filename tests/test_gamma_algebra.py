"""Clifford relations, transport sources, and the modulus bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdirac1d import (
    coupling,
    gamma_matrices,
    spinor_components,
    spinor_rhs,
    verify_clifford,
    wave_sources,
)

from lemmas import (
    MARCHED,
    interaction_term,
    march_two_components,
    modulus_rhs,
    modulus_sq,
    two_component_coupling,
    two_component_rhs,
    two_component_sources,
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


# each marching kernel and its two-component reference
_REFERENCE = {coupling: two_component_coupling, spinor_rhs: two_component_rhs, wave_sources: two_component_sources}


def _full(dim):
    """(coupling, spinor_rhs, wave_sources) on all spinor_components(dim)
    rows: those of `gamma_algebra` in dims 1 and 2, the two-component
    reference in dim 3."""
    return tuple(_REFERENCE[k] if dim == 3 else k for k in (coupling, spinor_rhs, wave_sources))


def _on_subspace(u, v, A):
    """A dim-3 state moved to the datum's subspace, u[1], v[1] and A_2 set to
    +0.0: (u, v, A) and the marched rows u[:1], v[:1], A[MARCHED[3]]."""
    u, v, A = u.copy(), v.copy(), A.copy()
    u[1] = v[1] = 0.0
    A[2] = 0.0
    return u, v, A, u[:1], v[:1], A[MARCHED[3]]


def _cases(dim, u, v, A, kernel):
    """(u, v, A, the rows the kernel takes of each, the kernel) to check:
    all rows with `kernel` or, in dim 3, its reference; and in dim 3 also
    `kernel` on the marched rows of the state moved to the subspace."""
    if dim < 3:
        return [(u, v, A, u, v, A, kernel)]
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
        from_u = 2.0 * np.real(du * np.conj(u)).sum(axis=0)
        from_v = 2.0 * np.real(dv * np.conj(v)).sum(axis=0)
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
        du, dv = rhs(dim, A, u, v, M)
        k = u.shape[0]
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
    # S_0 .. S_3 on both components; S_0, S_1, S_3 on the marched row
    for sources, rows in ((two_component_sources(3, u, v), 4), (wave_sources(3, u[:1], v[:1]), 3)):
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
def test_bilinears_take_component_axis_and_return_node_rows(dim):
    """Each kernel on its half-spinors: all rows for the reference and the
    lemmas, the marched row for `gamma_algebra`'s (both for modulus_sq)."""
    rng = np.random.default_rng(13)
    u, v, A = _random_fields(rng, dim)
    A1 = A[MARCHED[dim]]  # the potential rows the marched row takes
    gs = gamma_matrices(dim)
    _, full_rhs, full_sources = _full(dim)
    calls = (
        (u, lambda uu, vv: modulus_sq(dim, uu, vv)),
        (u, lambda uu, vv: full_sources(dim, uu, vv)),
        (u, lambda uu, vv: modulus_rhs(dim, A, uu, vv, 0.5)),
        (u, lambda uu, vv: interaction_term(gs, A, uu, vv)),
        (u, lambda uu, vv: full_rhs(dim, A, uu, vv, 0.5)),
        (u[:1], lambda uu, vv: modulus_sq(dim, uu, vv)),
        (u[:1], lambda uu, vv: wave_sources(dim, uu, vv)),
        (u[:1], lambda uu, vv: spinor_rhs(dim, A1, uu, vv, 0.5)),
    )
    wrong = np.ones((spinor_components(dim) + 1, u.shape[1]), dtype=complex)
    for w, call in calls:
        with pytest.raises(ValueError, match="half-spinors"):
            call(w[0], w[0])  # bare (n,) rows
        with pytest.raises(ValueError, match="half-spinors"):
            call(wrong, wrong)
    for w in (u, u[:1]):
        assert modulus_sq(dim, w, w).shape == (u.shape[1],)
    for s in (*full_sources(dim, u, v), *wave_sources(dim, u[:1], v[:1])):
        assert s.shape == (u.shape[1],)
    for s in modulus_rhs(dim, A, u, v, 0.5):
        assert s.shape == (u.shape[1],)
    for w in (*interaction_term(gs, A, u, v), *full_rhs(dim, A, u, v, 0.5)):
        assert w.shape == u.shape
    for w in spinor_rhs(dim, A1, u[:1], v[:1], 0.5):
        assert w.shape == u[:1].shape


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
    """Stacked (K, ncomp, n) spinors with per-instance potentials
    (rows, K, 1, n) and masses (K, 1, 1) give each instance's own result,
    bitwise: on all rows with the kernels of `_full`, and in dim 3 also on
    the marched rows with those of `gamma_algebra`."""
    rng = np.random.default_rng(23)
    K, n = 4, 11
    insts = [_random_fields(rng, dim, n) for _ in range(K)]
    masses = rng.uniform(0.0, 2.0, size=K)
    gs = gamma_matrices(dim)
    kernel_sets = [(spinor_components(dim), _full(dim))]
    if dim == 3:
        kernel_sets.append((1, (coupling, spinor_rhs, wave_sources)))
    for rows, (cpl, rhs, sources) in kernel_sets:
        full = rows == spinor_components(dim)  # interaction_term takes all rows
        pot = slice(None) if full else MARCHED[dim]
        u = np.stack([inst[0][:rows] for inst in insts])
        v = np.stack([inst[1][:rows] for inst in insts])
        A = np.stack([inst[2][pot] for inst in insts], axis=1)[:, :, None, :]
        M = masses[:, None, None]
        C, D, k2 = cpl(dim, A, M)
        batched = {
            "spinor_rhs": rhs(dim, A, u, v, M),
            "modulus_rhs": modulus_rhs(dim, A, u, v, M),
            "interaction_term": interaction_term(gs, A, u, v) if full else (),
            "wave_sources": sources(dim, u, v),
            "modulus_sq": (modulus_sq(dim, u, v),),
            "coupling": (C(v), D(u), np.broadcast_to(k2, (K, 1, n))),
        }
        for k, (uk, vk, Ak) in enumerate(insts):
            uk, vk, Ak = uk[:rows], vk[:rows], Ak[pot]
            Ck, Dk, k2k = cpl(dim, Ak, masses[k])
            single = {
                "spinor_rhs": rhs(dim, Ak, uk, vk, masses[k]),
                "modulus_rhs": modulus_rhs(dim, Ak, uk, vk, masses[k]),
                "interaction_term": interaction_term(gs, Ak, uk, vk) if full else (),
                "wave_sources": sources(dim, uk, vk),
                "modulus_sq": (modulus_sq(dim, uk, vk),),
                "coupling": (Ck(vk), Dk(uk), np.broadcast_to(k2k, (1, n))),
            }
            for name, outs in single.items():
                assert len(outs) == len(batched[name])
                for got, want in zip(batched[name], outs):
                    assert np.array_equal(got[k], want), name
        with pytest.raises(ValueError, match="half-spinors"):
            sources(dim, u[:, 0, :], v[:, 0, :])  # (K, n): no component axis


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
    u1, v1 = u[:1], v[:1]
    A1 = A[MARCHED[3]]  # the marched rows A_0, A_1, A_3
    full = two_component_sources(3, u, v)
    reduced = wave_sources(3, u1, v1)
    assert len(reduced) == 3
    for row, mu in enumerate(MARCHED[3]):
        assert _same_bits(reduced[row], full[mu]), mu
    assert not full[2].any()  # S_2 is a zero, of either sign, and A_2 stays +0.0
    assert _same_bits(modulus_sq(3, u1, v1), modulus_sq(3, u, v))
    C, D, k2 = two_component_coupling(3, A, M)
    C1, D1, k21 = coupling(3, A1, M)
    assert _same_bits(k21, k2)
    assert _same_bits(C1(v1), C(v)[:1])
    assert _same_bits(D1(u1), D(u)[:1])
    du, dv = two_component_rhs(3, A, u, v, M)
    du1, dv1 = spinor_rhs(3, A1, u1, v1, M)
    assert _same_bits(du1, du[:1]) and _same_bits(dv1, dv[:1])
    assert not du[1].any() and not dv[1].any()


@pytest.mark.parametrize("M", [0.0, -0.0, 1.0, 0.37])
def test_dims_2_and_3_share_one_coupling_of_the_transverse_row(M):
    # one transverse row T, A_2 in dim 2 and A_3 in dim 3, in the same three
    # marched rows: D and k2 are the same bits, and dim 3's C adds its "+ 0.0"
    rng = np.random.default_rng(53)
    _, v, A = _first_component_state(rng)
    T = A[3]
    T[::4], T[1::4] = 0.0, -0.0
    w = v[:1]
    w[0, 2::6] = complex(-0.0, 0.0)
    w[0, 5::6] = complex(0.0, -0.0)
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
    ur, vr = _transport_step(3, M, h, u[:1], v[:1], A_old[rows], A_new[rows], _StepWork(u[:1].shape))
    with march_two_components():
        uf, vf = _transport_step(3, M, h, u, v, A_old, A_new, _StepWork(u.shape))
    assert _same_bits(ur, uf[:1]) and _same_bits(vr, vf[:1])
    zero = np.zeros_like(uf[1])
    assert _same_bits(uf[1], zero) and _same_bits(vf[1], zero)  # the second components stay +0.0


def test_one_shape_check_for_half_spinors():
    rng = np.random.default_rng(47)
    u, v, A = _first_component_state(rng, 8)
    three = np.ones((3, 8), dtype=complex)
    cases = (
        (3, u[0], v[0]),  # no component axis
        (2, u[:1], v[0]),
        (3, three, three),  # 3 components in dim 3
        (2, u, v),  # 2 components in dims 1 and 2
        (1, u, v),
        (3, u, v[:1]),  # u and v with different counts
        (3, u[:1], v),
    )
    for dim, uu, vv in cases:
        for call in (
            lambda: wave_sources(dim, uu, vv),
            lambda: spinor_rhs(dim, A[: dim + 1], uu, vv, 1.0),
            lambda: modulus_sq(dim, uu, vv),
        ):
            with pytest.raises(ValueError, match="half-spinors"):
                call()
    # the marching kernels take the one marched row in dim 3 too
    for call in (lambda: wave_sources(3, u, v), lambda: spinor_rhs(3, A, u, v, 1.0)):
        with pytest.raises(ValueError, match="half-spinors"):
            call()
    for dim in (0, 4):
        with pytest.raises(ValueError, match="spatial dimension"):
            coupling(dim, A[: dim + 1], 1.0)
    # the kernels take the marched potential rows: dim 3's four physical
    # rows, or dim 1 with a transverse row, are refused
    for dim, rows in ((3, A), (1, A[:3])):
        for call in (lambda: coupling(dim, rows, 1.0), lambda: spinor_rhs(dim, rows, u[:1], v[:1], 1.0)):
            with pytest.raises(ValueError, match="potential rows"):
                call()
    # modulus_sq also sums a snapshot's rows: both dim-3 counts pass the check
    for w in (u, u[:1]):
        assert modulus_sq(3, w, w).shape == (8,)
