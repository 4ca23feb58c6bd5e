"""Generalized Hermitian eigensolver K v = omega^2 M v over stacks of pencils.

A stack of n pencils, K and M each of shape (n, m, m), is solved in one
vectorised pass of numpy's LAPACK drivers:

1. the diagonal congruence D = diag(M)^-1/2 equilibrates each pencil, so
   the equilibrated mass has a unit diagonal whatever the physical scale of
   its degrees of freedom (the eigenvalues are unchanged);
2. a factor M_eq = L L^H, diag(M_eq)^1/2 if every M_eq is diagonal, else
   Cholesky, reduces it to the standard Hermitian problem B = L^-1 K_eq L^-H;
3. ``general_eig_stack`` diagonalizes B with ``np.linalg.eigh`` and carries
   the eigenvectors back through D L^-H, in real arithmetic for real input;
   ``general_eigvals_stack`` takes only the eigenvalues, from
   ``np.linalg.eigvalsh``.  Steps 1-2 and every check are shared.

LAPACK's Hermitian driver returns orthonormal eigenvectors at exact
degeneracies as well, such as the transverse double roots of isotropic
media, so no special casing is needed there.
"""

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


def assert_finite(a: np.ndarray, what: str, axis=(-2, -1)) -> None:
    """Raise EigenSolveError at the first pencil i of a stack with a
    non-finite entry along ``axis``, as "{what} {i} is not finite"."""
    finite = np.isfinite(a).all(axis=axis)
    if not finite.all():
        i = int(np.argmin(finite))
        raise EigenSolveError(f"{what} {i} is not finite", i)


def _hermitian_norm(a: np.ndarray, name: str) -> np.ndarray:
    """Frobenius norms of a stack, which must be Hermitian within tolerance."""
    assert_finite(a, f"{name} of pencil")  # inf - inf would pass the norms
    scale, a_h = np.linalg.norm(a, axis=(-2, -1)), _conj_t(a)
    deviation = (0.0 if np.array_equal(a, a_h)  # an exact match needs no norm
                 else np.linalg.norm(a - a_h, axis=(-2, -1)))
    bad = deviation > HERMITIAN_REL_TOL * scale
    if bad.any():
        i = int(np.argmax(bad))
        raise NotHermitianError(
            f"{name} of pencil {i} deviates from its conjugate transpose "
            f"by more than {HERMITIAN_REL_TOL:g} relative", i)
    return scale


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


def clamp_roundoff(w: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Eigenvalues w (n, m) with roundoff negatives clamped to zero; one
    below ``-CLAMP_REL_TOL * scale``, scale = |K| / |M|, raises instead."""
    lowest = w.min(axis=-1)
    bad = lowest < -CLAMP_REL_TOL * scale
    if bad.any():
        i = int(np.argmax(bad))
        raise NegativeEigenvalueError(
            f"eigenvalue {lowest[i]:g} of pencil {i} below "
            f"-{CLAMP_REL_TOL:g} * |K|/|M|", i)
    return np.where(w < 0.0, 0.0, w)


def _reduce(k_stack, m_stack):
    """Checked |K|, |M|, M as an array, D, L^-1 and B, made exactly
    Hermitian; an overflow past the equilibration is a non-finite B.  A
    diagonal M_eq gives L^-1 and B elementwise, rounded as the products
    are, and skips the pivot floor: M_ii > 0, so pivot^2 = M_ii d_i^2 is
    within ulps of 1, or inf where d_i^2 overflows and B is non-finite."""
    dtype = np.result_type(np.asarray(k_stack), np.asarray(m_stack), float)
    k_stack, m_stack = np.asarray(k_stack, dtype), np.asarray(m_stack, dtype)
    k_norm = _hermitian_norm(k_stack, "stiffness matrix")
    m_norm = _hermitian_norm(m_stack, "mass matrix")

    d = 1.0 / np.sqrt(positive_mass_diagonal(m_stack))
    with np.errstate(over="ignore", invalid="ignore"):
        congruence = d[:, :, None] * d[:, None, :]
        m_eq, k_eq = m_stack * congruence, k_stack * congruence
        eye = np.eye(m_stack.shape[-1], dtype=dtype)
        if np.array_equal(m_eq * eye, m_eq):
            inv = 1.0 / np.sqrt(np.real(np.diagonal(m_eq, 0, -2, -1)))
            lower_inv = inv[:, :, None] * eye
            b = inv[:, :, None] * k_eq * inv[:, None, :]
        else:
            try:
                lower = np.linalg.cholesky(m_eq)
                quantity = "Cholesky pivot"
                worst = np.real(np.diagonal(lower, 0, -2, -1)).min(-1) ** 2
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
                    f"{worst[i]:g}, at or below the floor {PIVOT_REL_TOL:g}",
                    i)
            lower_inv = np.linalg.inv(lower)
            b = lower_inv @ k_eq @ _conj_t(lower_inv)
    assert_finite(b, "equilibrated pencil")
    return k_norm, m_norm, m_stack, d, lower_inv, 0.5 * (b + _conj_t(b))


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
    k_norm, m_norm, m_stack, d, lower_inv, b = _reduce(k_stack, m_stack)
    w, y = np.linalg.eigh(b)
    w = clamp_roundoff(w, k_norm / m_norm)

    # back-transform, M-normalize, then rotate each column so its
    # largest-magnitude component is real positive (a sign for real input)
    vecs = d[:, :, None] * (_conj_t(lower_inv) @ y)
    norm_sq = np.real(np.sum(np.conj(vecs) * (m_stack @ vecs), axis=-2))
    vecs = vecs / np.sqrt(norm_sq)[:, None, :]
    top = np.argmax(np.abs(vecs), axis=-2)[:, None, :]
    pivot = np.take_along_axis(vecs, top, axis=-2)
    vecs = vecs * (np.conj(pivot) / np.abs(pivot))
    return EigenSolution(omega_sq=w, vectors=vecs)


def general_eigvals_stack(k_stack: np.ndarray,
                          m_stack: np.ndarray) -> np.ndarray:
    """The (n, m) ascending eigenvalues of ``general_eig_stack`` alone,
    under the same checks, clamp and errors, without the eigenvectors."""
    k_norm, m_norm, _, _, _, b = _reduce(k_stack, m_stack)
    return clamp_roundoff(np.linalg.eigvalsh(b), k_norm / m_norm)


def general_eig(k_matrix: np.ndarray, m_matrix: np.ndarray) -> EigenSolution:
    """Solve K v = w M v for a Hermitian K and Hermitian PD M.

    The single-pencil form of ``general_eig_stack``, with the same ordering,
    normalization, phase convention and errors.
    """
    sol = general_eig_stack(np.asarray(k_matrix)[None],
                            np.asarray(m_matrix)[None])
    return EigenSolution(omega_sq=sol.omega_sq[0], vectors=sol.vectors[0])
