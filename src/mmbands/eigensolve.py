"""Generalized Hermitian eigensolver K v = omega^2 M v over stacks of pencils.

A stack of n pencils, K and M each of shape (n, m, m), is solved in one
vectorised pass of numpy's LAPACK drivers:

1. the diagonal congruence D = diag(M)^-1/2 equilibrates each pencil, so
   the equilibrated mass has a unit diagonal whatever the physical scale of
   its degrees of freedom (the eigenvalues are unchanged);
2. a Cholesky factor M_eq = L L^H reduces it to the standard Hermitian
   problem L^-1 K_eq L^-H;
3. ``np.linalg.eigh`` diagonalizes that, and the eigenvectors are carried
   back through D L^-H, in real arithmetic for real input.

LAPACK's Hermitian driver returns orthonormal eigenvectors at exact
degeneracies as well, such as the transverse double roots of isotropic
media, so no special casing is needed there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative deviation from the conjugate transpose accepted as Hermitian.
HERMITIAN_REL_TOL = 1e-12
# Floor on the Cholesky pivots of the equilibrated (unit-diagonal) mass.
PIVOT_REL_TOL = 1e-14
# Negative eigenvalues down to -CLAMP_REL_TOL * |K| / |M| are roundoff on a
# positive semidefinite K and are clamped to zero.
CLAMP_REL_TOL = 1e-9


class EigenSolveError(Exception):
    """Base class for failures of the generalized eigensolver.

    ``index`` is the position of the failing pencil in its stack.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NotHermitianError(EigenSolveError):
    """Input matrix is not Hermitian within tolerance."""


class NotPositiveDefiniteError(EigenSolveError):
    """Mass matrix has a non-positive diagonal entry, or its equilibrated
    form a Cholesky pivot at or below the admissible floor."""


class NegativeEigenvalueError(EigenSolveError):
    """An eigenvalue is negative beyond the roundoff clamp (invalid pencil)."""


@dataclass(frozen=True)
class EigenSolution:
    """Eigenpairs of the pencil (K, M), sorted by ascending eigenvalue.

    For a stack of pencils both arrays carry the stack as a leading axis.

    Attributes:
        omega_sq: real eigenvalues [rad^2/s^2], ascending, ties allowed
        vectors: M-orthonormal eigenvectors as columns, real for real input
    """

    omega_sq: np.ndarray
    vectors: np.ndarray


def _conj_t(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def _assert_hermitian(a: np.ndarray, name: str) -> None:
    scale = np.linalg.norm(a, axis=(-2, -1))
    deviation = np.linalg.norm(a - _conj_t(a), axis=(-2, -1))
    bad = deviation > HERMITIAN_REL_TOL * scale
    if bad.any():
        i = int(np.argmax(bad))
        raise NotHermitianError(
            f"{name} of pencil {i} deviates from its conjugate transpose "
            f"by more than {HERMITIAN_REL_TOL:g} relative", i)


def positive_mass_diagonal(m_stack: np.ndarray) -> np.ndarray:
    """The (n, m) diagonals of a mass stack; a non-positive one raises."""
    diag = np.real(np.diagonal(m_stack, axis1=-2, axis2=-1))
    bad = ~(diag > 0.0)
    if bad.any():
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise NotPositiveDefiniteError(
            f"mass matrix of pencil {i} has diagonal entry {diag[i, j]:g} "
            f"at index {j}, which is not positive", int(i))
    return diag


def clamp_roundoff(w: np.ndarray, k_stack: np.ndarray,
                   m_stack: np.ndarray) -> np.ndarray:
    """Eigenvalues w (n, m) with roundoff negatives clamped to zero; one
    below ``-CLAMP_REL_TOL * |K| / |M|`` of its pencil raises instead."""
    lowest = w.min(axis=-1)
    bad = lowest < -CLAMP_REL_TOL * (np.linalg.norm(k_stack, axis=(-2, -1))
                                     / np.linalg.norm(m_stack, axis=(-2, -1)))
    if bad.any():
        i = int(np.argmax(bad))
        raise NegativeEigenvalueError(
            f"eigenvalue {lowest[i]:g} of pencil {i} below "
            f"-{CLAMP_REL_TOL:g} * |K|/|M|", i)
    return np.where(w < 0.0, 0.0, w)


def general_eig_stack(k_stack: np.ndarray,
                      m_stack: np.ndarray) -> EigenSolution:
    """Solve K v = w M v for every pencil of an (n, m, m) stack at once.

    Eigenvalues come back ascending along the last axis and eigenvectors
    M-orthonormal with the phase fixed so that the largest-magnitude
    component is real and positive.  Roundoff negatives are clamped to zero
    and larger ones raise (``clamp_roundoff``).  Every error names the index
    of the first failing pencil and the quantity that failed, and carries
    that index as ``index``.  Real stacks stay real.
    """
    dtype = np.result_type(np.asarray(k_stack), np.asarray(m_stack), float)
    k_stack, m_stack = np.asarray(k_stack, dtype), np.asarray(m_stack, dtype)
    _assert_hermitian(k_stack, "stiffness matrix")
    _assert_hermitian(m_stack, "mass matrix")

    d = 1.0 / np.sqrt(positive_mass_diagonal(m_stack))
    congruence = d[:, :, None] * d[:, None, :]
    m_eq = m_stack * congruence
    k_eq = k_stack * congruence

    try:
        lower = np.linalg.cholesky(m_eq)
        quantity = "Cholesky pivot"
        worst = np.real(np.diagonal(lower, axis1=-2, axis2=-1)).min(axis=-1)
        worst = worst * worst
        bad = worst <= PIVOT_REL_TOL
    except np.linalg.LinAlgError:
        # the smallest eigenvalue bounds every pivot from below
        quantity = "smallest eigenvalue"
        worst = np.linalg.eigvalsh(m_eq)[:, 0]
        bad = worst <= max(PIVOT_REL_TOL, float(worst.min()))
    if bad.any():
        i = int(np.argmax(bad))
        raise NotPositiveDefiniteError(
            f"equilibrated mass matrix of pencil {i} has {quantity} "
            f"{worst[i]:g}, at or below the floor {PIVOT_REL_TOL:g}", i)

    # B = L^-1 K_eq L^-H, Hermitian by construction up to roundoff
    lower_inv = np.linalg.inv(lower)
    b = lower_inv @ k_eq @ _conj_t(lower_inv)
    finite = np.isfinite(b).all(axis=(-2, -1))  # overflow gives inf/nan
    if not finite.all():
        i = int(np.argmin(finite))
        raise EigenSolveError(f"equilibrated pencil {i} is not finite", i)
    w, y = np.linalg.eigh(0.5 * (b + _conj_t(b)))
    w = clamp_roundoff(w, k_stack, m_stack)

    # back-transform, M-normalize, then rotate each column so its
    # largest-magnitude component is real positive (a sign for real input)
    vecs = d[:, :, None] * (_conj_t(lower_inv) @ y)
    norm_sq = np.real(np.sum(np.conj(vecs) * (m_stack @ vecs), axis=-2))
    vecs = vecs / np.sqrt(norm_sq)[:, None, :]
    top = np.argmax(np.abs(vecs), axis=-2)[:, None, :]
    pivot = np.take_along_axis(vecs, top, axis=-2)
    vecs = vecs * (np.conj(pivot) / np.abs(pivot))
    return EigenSolution(omega_sq=w, vectors=vecs)


def general_eig(k_matrix: np.ndarray, m_matrix: np.ndarray) -> EigenSolution:
    """Solve K v = w M v for a Hermitian K and Hermitian PD M.

    The single-pencil form of ``general_eig_stack``, with the same ordering,
    normalization, phase convention and errors.
    """
    sol = general_eig_stack(np.asarray(k_matrix)[None],
                            np.asarray(m_matrix)[None])
    return EigenSolution(omega_sq=sol.omega_sq[0], vectors=sol.vectors[0])
