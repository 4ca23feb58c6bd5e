import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mmbands.assembly import block_for
from mmbands.core import ElasticParams, InertiaParams, ModelKind, WaveBlock
from mmbands.dispersion import default_grid
from mmbands.eigensolve import (EigenSolution, EigenSolveError,
                                NegativeEigenvalueError, NotHermitianError,
                                NotPositiveDefiniteError, _reduce,
                                general_eig, general_eig_stack,
                                general_eigvals_stack)

from oracles import cubic_pencil_eigenvalues, wide_cone


def random_pencil(rng, n=3):
    """Random Hermitian-PSD stiffness with a Hermitian-PD mass."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    k = g.conj().T @ g
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = h.conj().T @ h + np.eye(n)
    return k, m


def test_diagonal_identity_mass():
    sol = general_eig(np.diag([4.0, 1.0, 0.0]), np.eye(3))
    assert np.allclose(sol.omega_sq, [0.0, 1.0, 4.0])


def test_analytic_two_by_two():
    sol = general_eig(np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2))
    assert np.allclose(sol.omega_sq, [1.0, 3.0])


def random_stack(rng, count):
    """``count`` random pencils, drawn as by repeated random_pencil calls."""
    pencils = [random_pencil(rng) for _ in range(count)]
    return (np.array([k for k, _ in pencils]),
            np.array([m for _, m in pencils]))


def assert_matches_single_solves(stack, ks, ms):
    """The stack solution equals the pencil-by-pencil solutions."""
    for i, (k, m) in enumerate(zip(ks, ms)):
        sol = general_eig(k, m)
        scale = np.linalg.norm(k) / np.linalg.norm(m)
        assert np.allclose(stack.omega_sq[i], sol.omega_sq,
                           rtol=0.0, atol=1e-12 * scale)
        assert np.allclose(stack.vectors[i], sol.vectors,
                           rtol=0.0, atol=1e-10)


def test_matches_cubic_oracle_on_200_random_pencils():
    ks, ms = random_stack(np.random.default_rng(42), 200)
    stack = general_eig_stack(ks, ms)
    for i, (k, m) in enumerate(zip(ks, ms)):
        ref = cubic_pencil_eigenvalues(k, m)
        scale = np.linalg.norm(k) / np.linalg.norm(m)
        for omega_sq in (general_eig(k, m).omega_sq, stack.omega_sq[i]):
            for got, want in zip(omega_sq, ref):
                assert abs(got - want) <= 1e-8 * max(abs(want), scale)
    assert_matches_single_solves(stack, ks, ms)


def test_real_pencils_agree_with_their_complex_form():
    # the real parts of the oracle set: Re(G^H G) = Re(G)^T Re(G)
    # + Im(G)^T Im(G) is PSD, and Re(M) stays PD
    ks, ms = random_stack(np.random.default_rng(42), 200)
    ks, ms = ks.real.copy(), ms.real.copy()
    real = general_eig_stack(ks, ms)
    cplx = general_eig_stack(ks.astype(complex), ms.astype(complex))
    assert real.omega_sq.dtype == real.vectors.dtype == np.float64
    assert cplx.vectors.dtype == np.complex128
    for i, (k, m) in enumerate(zip(ks, ms)):
        ref = cubic_pencil_eigenvalues(k, m)
        scale = np.linalg.norm(k) / np.linalg.norm(m)
        for got, want in zip(real.omega_sq[i], ref):
            assert abs(got - want) <= 1e-8 * max(abs(want), scale)
        assert np.allclose(real.omega_sq[i], cplx.omega_sq[i],
                           rtol=0.0, atol=1e-12 * scale)
        assert np.allclose(real.vectors[i], cplx.vectors[i],
                           rtol=0.0, atol=1e-10)


def test_real_stack_gives_float64_vectors():
    sol = general_eig(np.diag([4, 1, 0]), np.eye(3))
    assert sol.omega_sq.dtype == sol.vectors.dtype == np.float64
    assert np.array_equal(sol.vectors, np.eye(3)[:, ::-1])


def assert_residuals_and_m_orthonormality(k, m, omega_sq, vectors):
    k_norm, m_norm = np.linalg.norm(k), np.linalg.norm(m)
    for j in range(len(omega_sq)):
        v = vectors[:, j]
        res = np.linalg.norm(k @ v - omega_sq[j] * (m @ v))
        assert res <= 1e-10 * (k_norm + abs(omega_sq[j]) * m_norm)
    gram = vectors.conj().T @ m @ vectors
    assert np.max(np.abs(gram - np.eye(len(omega_sq)))) <= 1e-9


def test_residuals_and_m_orthonormality():
    ks, ms = random_stack(np.random.default_rng(43), 50)
    stack = general_eig_stack(ks, ms)
    for i, (k, m) in enumerate(zip(ks, ms)):
        sol = general_eig(k, m)
        assert_residuals_and_m_orthonormality(k, m, sol.omega_sq, sol.vectors)
        assert_residuals_and_m_orthonormality(k, m, stack.omega_sq[i],
                                              stack.vectors[i])
    assert_matches_single_solves(stack, ks, ms)


def test_demo_longitudinal_block_at_huge_wavenumber(ref_elastic, inertia_on):
    # the gradient micro-inertia puts k^2 on the displacement mass only, so
    # at k = 1e9 rad/m the mass diagonal spans many decades
    bs = block_for(ModelKind.RELAXED_CURL, ref_elastic, inertia_on,
                   WaveBlock.LONGITUDINAL)
    k, m = bs.stiffness_at(1e9), bs.mass_at(1e9)
    diag = np.real(np.diagonal(m))
    assert diag.max() / diag.min() > 1e15
    sol = general_eig(k, m)
    assert_residuals_and_m_orthonormality(k, m, sol.omega_sq, sol.vectors)


def test_spectral_shift():
    rng = np.random.default_rng(44)
    k, m = random_pencil(rng)
    c = 3.75
    base = general_eig(k, m)
    shifted = general_eig(k + c * m, m)
    assert np.allclose(shifted.omega_sq, base.omega_sq + c, rtol=1e-9)
    # same vectors up to phase: overlap magnitudes are 1
    overlap = np.abs(base.vectors.conj().T @ m @ shifted.vectors)
    assert np.allclose(np.diag(overlap), 1.0, atol=1e-9)


def test_scale_covariance():
    rng = np.random.default_rng(45)
    k, m = random_pencil(rng)
    c = 0.37
    base = general_eig(k, m)
    scaled = general_eig(c * k, m)
    assert np.allclose(scaled.omega_sq, c * base.omega_sq, rtol=1e-9)


def test_psd_stiffness_never_goes_negative():
    rng = np.random.default_rng(46)
    for _ in range(50):
        k, m = random_pencil(rng)
        sol = general_eig(k, m)
        assert np.all(sol.omega_sq >= 0.0)


def test_degenerate_pair_stays_orthonormal():
    # exact double eigenvalue from an isotropic sub-block
    k = np.diag([2.0, 2.0, 5.0]).astype(complex)
    m = np.eye(3, dtype=complex)
    sol = general_eig(k, m)
    assert np.allclose(sol.omega_sq, [2.0, 2.0, 5.0])
    gram = sol.vectors.conj().T @ sol.vectors
    assert np.allclose(gram, np.eye(3), atol=1e-12)


def test_phase_convention():
    rng = np.random.default_rng(47)
    k, m = random_pencil(rng)
    sol = general_eig(k, m)
    for j in range(3):
        v = sol.vectors[:, j]
        pivot = v[int(np.argmax(np.abs(v)))]
        assert abs(pivot.imag) <= 1e-12 * abs(pivot)
        assert pivot.real > 0.0


def test_not_hermitian_rejected():
    k = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(NotHermitianError):
        general_eig(k, np.eye(2))


def test_not_positive_definite_rejected():
    with pytest.raises(NotPositiveDefiniteError):
        general_eig(np.eye(2), np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefiniteError):
        general_eig(np.eye(2), np.diag([1.0, 0.0]))


@pytest.mark.parametrize("bad_mass", [
    np.diag([1.0, 1.0, -1.0]),                                  # diagonal
    np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),  # pivot
])
def test_stack_error_names_the_failing_pencil(bad_mass):
    masses = np.array([np.eye(3), bad_mass, np.eye(3)])
    with pytest.raises(NotPositiveDefiniteError, match="pencil 1") as info:
        general_eig_stack(np.array([np.eye(3)] * 3), masses)
    assert info.value.index == 1


def test_genuinely_negative_eigenvalue_rejected():
    with pytest.raises(NegativeEigenvalueError):
        general_eig(-np.eye(2), np.eye(2))


def test_tiny_negative_clamped_to_zero():
    # roundoff-scale indefiniteness gets clamped, not raised
    k = np.diag([1.0, -1e-13])
    sol = general_eig(k, np.eye(2))
    assert sol.omega_sq[0] == 0.0


def test_returns_eigensolution_dataclass():
    sol = general_eig(np.eye(2), np.eye(2))
    assert isinstance(sol, EigenSolution)
    assert sol.omega_sq.shape == (2,)
    assert sol.vectors.shape == (2, 2)


def assert_rows_agree(omega_sq, want):
    """Equal to 1e-12 of each row's largest eigenvalue."""
    scale = np.max(np.abs(want), axis=-1, keepdims=True)
    assert np.all(np.abs(omega_sq - want) <= 1e-12 * scale)


@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize("block", [WaveBlock.LONGITUDINAL,
                                   WaveBlock.TRANSVERSE])
@pytest.mark.parametrize("inertia", ["inertia_off", "inertia_on"])
def test_eigvals_match_eig_on_reference_blocks(model, block, inertia,
                                               ref_elastic, request):
    bs = block_for(model, ref_elastic, request.getfixturevalue(inertia),
                   block)
    k = default_grid(ref_elastic).values
    ks, ms = bs.stiffness_at(k), bs.mass_at(k)
    assert_rows_agree(general_eigvals_stack(ks, ms),
                      general_eig_stack(ks, ms).omega_sq)


@pytest.mark.parametrize("real", [True, False])
def test_eigvals_match_eig_on_random_stacks(real):
    ks, ms = random_stack(np.random.default_rng(48), 200)
    if real:    # Re(M) stays PD and Re(K) PSD, as in the real-form test
        ks, ms = ks.real.copy(), ms.real.copy()
    w = general_eigvals_stack(ks, ms)
    assert w.dtype == np.float64 and w.shape == (200, 3)
    assert_rows_agree(w, general_eig_stack(ks, ms).omega_sq)


NEAR_SINGULAR = 1.0 - 1e-15     # Cholesky succeeds, pivot^2 ~ 2e-15
FAILING_PENCILS = {
    "non-Hermitian K": (np.triu(np.ones((3, 3))), np.eye(3)),
    "non-Hermitian M": (np.eye(3), np.eye(3) + np.diag([0.5, 0.0], 1)),
    "non-positive mass diagonal": (np.eye(3), np.diag([1.0, 1.0, -1.0])),
    "no Cholesky factor": (np.eye(3), np.array(
        [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])),
    "Cholesky pivot floor": (np.eye(3), np.array(
        [[1.0, NEAR_SINGULAR, 0.0], [NEAR_SINGULAR, 1.0, 0.0],
         [0.0, 0.0, 1.0]])),
    # K_eq[0, 0] = 1e10 * 1e300 overflows: the error, not a numpy warning
    "non-finite B": (np.diag([1e10, 1.0, 1.0]), np.diag([1e-300, 1.0, 1.0])),
    # d_0^2 = 1 / 1e-320 overflows, so M_eq[0, 0] and B are not finite
    "subnormal mass": (np.eye(3), np.diag([1e-320, 1.0, 1.0])),
    # d_0 d_1 overflows too: judged diagonal on M itself, not on M_eq
    # (where 0 * inf is nan), the pencil stays on the diagonal route
    "two subnormal masses": (np.eye(3), np.diag([1e-320, 1e-320, 1.0])),
    "negative eigenvalue": (-np.eye(3), np.eye(3)),
    "non-finite K": (np.diag([1.0, np.nan, 1.0]), np.eye(3)),
    "non-finite M": (np.eye(3), np.diag([np.inf, 1.0, 1.0])),
}


# appended to a stack, this pencil's off-diagonal mass sends the whole
# stack down the Cholesky route
CHOLESKY_K, CHOLESKY_M = np.eye(3), np.array(
    [[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])


def with_cholesky_pencil(ks, ms):
    return (np.concatenate([ks, CHOLESKY_K[None]]),
            np.concatenate([ms, CHOLESKY_M[None]]))


@pytest.mark.parametrize("kind", FAILING_PENCILS)
def test_eigvals_and_eig_fail_alike(kind):
    # on a diagonal-mass stack as it stands and on the Cholesky route
    bad_k, bad_m = FAILING_PENCILS[kind]
    ks = np.array([np.eye(3), bad_k, np.eye(3)])
    ms = np.array([np.eye(3), bad_m, np.eye(3)])
    raised = []
    for stack in ((ks, ms), with_cholesky_pencil(ks, ms)):
        for solve in (general_eig_stack, general_eigvals_stack):
            with pytest.raises(EigenSolveError) as info:
                solve(*stack)
            raised.append((type(info.value), str(info.value),
                           info.value.index))
    assert raised[1:] == raised[:1] * 3
    assert raised[0][2] == 1 and "pencil 1 " in raised[0][1]


@pytest.mark.parametrize("matrix", ["stiffness", "mass"])
@pytest.mark.parametrize("entry", [np.inf, np.nan])
def test_non_finite_matrix_named_before_the_hermitian_check(matrix, entry):
    # an inf mass entry used to pass the Hermitian check, whose inf - inf
    # is nan, with numpy warnings, and fail later as a non-finite B
    ks, ms = np.array([np.eye(3)] * 4), np.array([np.eye(3)] * 4)
    (ks if matrix == "stiffness" else ms)[2, 1, 0] = entry
    for solve in (general_eig_stack, general_eigvals_stack):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EigenSolveError) as info:
                solve(ks, ms)
        assert str(info.value) == f"{matrix} matrix of pencil 2 is not finite"
        assert type(info.value) is EigenSolveError and info.value.index == 2


@pytest.mark.parametrize("model", list(ModelKind))
def test_diagonal_route_matches_the_cholesky_route(model, ref_elastic,
                                                   inertia_off, inertia_on):
    # every reference block stack and the wide_cone(100) sets: the scaled
    # diagonal route reproduces the factor-and-invert route bit for bit
    sets = [(ref_elastic, inertia_off), (ref_elastic, inertia_on)] + [
        (ElasticParams(**e), InertiaParams(**i)) for e, i in wide_cone(100)]
    for elastic, inertia in sets:
        k = default_grid(elastic, inertia).values
        for block in (WaveBlock.LONGITUDINAL, WaveBlock.TRANSVERSE):
            bs = block_for(model, elastic, inertia, block)
            ks, ms = bs.stiffness_at(k), bs.mass_at(k)
            cholesky_stack = with_cholesky_pencil(ks, ms)
            sol, ref = (general_eig_stack(ks, ms),
                        general_eig_stack(*cholesky_stack))
            assert np.array_equal(sol.omega_sq, ref.omega_sq[:-1])
            assert np.array_equal(sol.vectors, ref.vectors[:-1])
            assert np.array_equal(general_eigvals_stack(ks, ms),
                                  general_eigvals_stack(*cholesky_stack)[:-1])


@pytest.mark.parametrize("k_shape, m_shape", [
    ((4, 3, 3), (3, 3)),        # one shared mass matrix
    ((1, 3, 3), (3, 3)),        # would broadcast K to three pencils
    ((3, 3, 3), (3, 3)),
    ((4, 3, 3), (4, 3)),        # (n, m) diagonals are not a mass stack
    ((4, 3, 3), (5, 3, 3)),
    ((3, 3), (3, 3))])          # a single pencil, not a stack
def test_mass_of_another_shape_is_rejected(k_shape, m_shape):
    ks = np.broadcast_to(np.eye(3), k_shape[:-2] + (3, 3))[..., :k_shape[-1]]
    ms = np.ones(m_shape)
    for solve in (general_eig_stack, general_eigvals_stack):
        with pytest.raises(ValueError, match=re.escape(
                f"mass of shape {m_shape} does not fit a stiffness stack "
                f"of shape {k_shape}")):
            solve(ks, ms)


def dense_back_transform(ks, ms):
    """``general_eig_stack`` vectors of a diagonal-mass stack by the dense
    route: d * (L^-H @ y) with diag(L^-1) made a matrix, and the M-norm
    taken with the full M, then the same phase rule (first largest); and
    the plain broadcast d * (diag(L^-1) * y), before normalization."""
    _, m_stack, d, lower_inv, b = _reduce(ks, ms)
    assert lower_inv.ndim == 2                  # the diagonal route
    y = np.linalg.eigh(b)[1]
    dense_inv = lower_inv[:, :, None] * np.eye(b.shape[-1])
    vecs = d[:, :, None] * (np.swapaxes(dense_inv, 1, 2) @ y)
    norm_sq = (vecs * (m_stack @ vecs)).sum(axis=1)
    vecs /= np.sqrt(norm_sq)[:, None, :]
    top = np.argmax(np.abs(vecs), axis=1)[:, None, :]
    pivot = np.take_along_axis(vecs, top, axis=1)
    return vecs * (pivot / np.abs(pivot)), d[:, :, None] * (
        lower_inv[:, :, None] * y)


def test_row_scaled_back_transform_matches_the_dense_one(ref_elastic,
                                                         inertia_on):
    # the diagonal route scales rows instead of multiplying by a dense
    # diag(L^-1), and normalizes with diag(M): the bytes, signed zeros
    # included, are the dense route's on stacks with exact-zero components
    # (k = 0 rows, mu_c = 0); a plain broadcast would differ in the sign
    # of some zeros
    zeros = sign_flips = 0
    for elastic in (ref_elastic, replace(ref_elastic, mu_c=0.0)):
        k = default_grid(elastic, inertia_on, points=60).values
        for model in ModelKind:
            for block in WaveBlock:
                bs = block_for(model, elastic, inertia_on, block)
                ks, ms = bs.stiffness_at(k), bs.mass_at(k)
                want, plain = dense_back_transform(ks, ms)
                assert (general_eig_stack(ks, ms).vectors.tobytes()
                        == want.tobytes()), (model, block, elastic)
                zeros += np.count_nonzero(want == 0.0)
                sign_flips += np.count_nonzero(np.signbit(plain[plain == 0]))
    assert zeros > 0 and sign_flips > 0


def counted_norms(monkeypatch):
    """The arrays that np.linalg.norm is called on from now on."""
    normed, norm = [], np.linalg.norm

    def counted_norm(a, *args, **kwargs):
        normed.append(a)
        return norm(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    return normed


def test_diagonal_masses_are_scaled_without_norms(monkeypatch, ref_elastic,
                                                  inertia_on):
    bs = block_for(ModelKind.RELAXED_CURL, ref_elastic, inertia_on,
                   WaveBlock.LONGITUDINAL)
    k = default_grid(ref_elastic).values
    ks, ms = bs.stiffness_at(k), bs.mass_at(k)
    want, want_w = general_eig_stack(ks, ms), general_eigvals_stack(ks, ms)

    def refuse(*args, **kwargs):
        raise AssertionError("a diagonal mass was factorized")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    normed = counted_norms(monkeypatch)
    sol = general_eig_stack(ks, ms)
    assert np.array_equal(sol.omega_sq, want.omega_sq)
    assert np.array_equal(sol.vectors, want.vectors)
    assert np.array_equal(general_eigvals_stack(ks, ms), want_w)
    # exactly Hermitian, no negative eigenvalue: nothing reads a norm
    assert normed == []


def test_clamp_norms_only_the_rows_with_a_negative_eigenvalue(monkeypatch):
    ks = np.array([np.diag([1.0, 2.0, 3.0])] * 6)
    ks[4, 1, 1] = -1e-13                        # a roundoff negative
    ms = np.array([np.diag([1.0, 2.0, 4.0])] * 6)
    normed = counted_norms(monkeypatch)
    for solve in (general_eigvals_stack,
                  lambda k, m: general_eig_stack(k, m).omega_sq):
        w = solve(ks, ms)
        assert w[4].tolist() == [0.0, 0.75, 1.0]
        assert np.array_equal(w[:4], w[5:].repeat(4, axis=0))
    assert len(normed) == 4
    for a, b in zip(normed, [ks, ms, ks, ms]):
        assert np.array_equal(a, b[4:5])


# the order in which the solver checks a stack: each check runs over the
# whole stack before the next, and names its first failing pencil
CHECK_ORDER = {
    "non-finite K": 0, "non-Hermitian K": 1, "non-finite M": 2,
    "non-Hermitian M": 3, "non-positive mass diagonal": 4,
    "no Cholesky factor": 5, "Cholesky pivot floor": 5,
    "non-finite B": 6, "subnormal mass": 6, "two subnormal masses": 6,
    "negative eigenvalue": 7}
STACK_SIZE = 400


def alone(kind, index):
    """(type, message, index) of a failing pencil solved alone, renamed
    to sit at ``index`` of a stack."""
    with pytest.raises(EigenSolveError) as info:
        general_eigvals_stack(*(np.array([a]) for a in FAILING_PENCILS[kind]))
    assert info.value.index == 0
    return (type(info.value),
            re.sub(r"\bpencil 0\b", f"pencil {index}", str(info.value)),
            index)


def assert_stack_raises(placed, want):
    """A 400-pencil identity stack with FAILING_PENCILS placed at their
    indices raises ``want`` on both drivers, on the diagonal-mass stack
    as built and with a Cholesky-route pencil appended."""
    ks, ms = (np.array([np.eye(3)] * STACK_SIZE) for _ in "km")
    for index, kind in placed:
        ks[index], ms[index] = FAILING_PENCILS[kind]
    for stack in ((ks, ms), with_cholesky_pencil(ks, ms)):
        for solve in (general_eig_stack, general_eigvals_stack):
            with pytest.raises(EigenSolveError) as info:
                solve(*stack)
            assert (type(info.value), str(info.value),
                    info.value.index) == want


@pytest.mark.parametrize("kind", FAILING_PENCILS)
def test_one_failing_pencil_is_named_wherever_it_sits(kind):
    assert set(CHECK_ORDER) == set(FAILING_PENCILS)
    for index in (0, STACK_SIZE // 2 - 1, STACK_SIZE - 1):
        assert_stack_raises([(index, kind)], alone(kind, index))


@pytest.mark.parametrize("first", FAILING_PENCILS)
def test_two_failing_pencils_name_the_first_check_that_fails(first):
    # the earlier check wins, and within one check the lower index; the
    # two Cholesky-route kinds are left out as a pair, because their shared
    # factorization names the first of them by its smallest eigenvalue
    for second in FAILING_PENCILS:
        if second == first or {first, second} == {
                "no Cholesky factor", "Cholesky pivot floor"}:
            continue
        (i, a), (j, b) = placed = [(57, first), (311, second)]
        winner = (i, a) if CHECK_ORDER[a] <= CHECK_ORDER[b] else (j, b)
        assert_stack_raises(placed, alone(winner[1], winner[0]))
