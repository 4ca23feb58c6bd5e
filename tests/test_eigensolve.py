import numpy as np
import pytest

from mmbands.assembly import block_for
from mmbands.core import ModelKind, WaveBlock
from mmbands.eigensolve import (EigenSolution, NegativeEigenvalueError,
                                NotHermitianError, NotPositiveDefiniteError,
                                general_eig, general_eig_stack)

from oracles import cubic_pencil_eigenvalues


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
