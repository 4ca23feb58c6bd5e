"""Generalized Hermitian eigensolver K v = omega^2 M v over stacks of pencils.

A stack of n pencils, K and M each of shape (n, m, m), is solved in one
vectorised pass of numpy's LAPACK drivers:

1. the diagonal congruence D = diag(M)^-1/2 equilibrates each pencil, so
   the equilibrated mass has a unit diagonal whatever the physical scale of
   its degrees of freedom (the eigenvalues are unchanged);
2. a factor M_eq = L L^H, diag(M_eq)^1/2 if every M is diagonal, else
   Cholesky, reduces it to the standard Hermitian problem B = L^-1 K_eq L^-H;
3. ``general_eig_stack`` diagonalizes B with ``np.linalg.eigh``, carries
   the eigenvectors back through D L^-H (a row scaling if L is diagonal),
   real for real input, and M-normalizes and phases them row by row;
   ``general_eigvals_stack`` takes only the eigenvalues, from
   ``np.linalg.eigvalsh``.  Steps 1-2 and every check are shared.

Each check is one flat pass over the stack, and only a stack that fails it
is reduced pencil by pencil, to name its first failing pencil.  Norms are
taken only for a stack that is not exactly Hermitian, and for the clamp's
|K| / |M| of the pencils with a negative eigenvalue.

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
    """Base class for failures of the generalized eigensolver; ``index``
    is the position of the failing pencil in its stack."""

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
    """Eigenpairs of the pencil (K, M), sorted by ascending eigenvalue; a
    stack of pencils is a leading axis of both arrays."""

    omega_sq: np.ndarray    # real eigenvalues [rad^2/s^2], ties allowed
    vectors: np.ndarray     # M-orthonormal columns, real for real input


def _conj_t(a: np.ndarray) -> np.ndarray:
    a_t = np.swapaxes(a, -1, -2)  # a real array is its own conjugate: a view
    return np.conj(a_t) if np.iscomplexobj(a) else a_t


def assert_finite(a: np.ndarray, what: str, axis=(-2, -1)) -> None:
    """Raise EigenSolveError at the first pencil i of a stack with a
    non-finite entry along ``axis``, as "{what} {i} is not finite"."""
    if not np.isfinite(a).all():
        i = int(np.argmin(np.isfinite(a).all(axis=axis)))
        raise EigenSolveError(f"{what} {i} is not finite", i)


def _assert_hermitian(a: np.ndarray, name: str) -> None:
    """Raise at the first non-Hermitian pencil; exact ones need no norm."""
    assert_finite(a, f"{name} of pencil")  # inf - inf would pass the norms
    a_h = _conj_t(a)
    if (a == a_h).all():
        return
    deviation = np.linalg.norm(a - a_h, axis=(-2, -1))
    bad = deviation > HERMITIAN_REL_TOL * np.linalg.norm(a, axis=(-2, -1))
    if bad.any():
        i = int(np.argmax(bad))
        raise NotHermitianError(
            f"{name} of pencil {i} deviates from its conjugate transpose "
            f"by more than {HERMITIAN_REL_TOL:g} relative", i)


def positive_mass_diagonal(m_stack: np.ndarray) -> np.ndarray:
    """The (n, m) diagonals of a mass stack; a non-positive one raises."""
    diag = np.real(np.diagonal(m_stack, axis1=-2, axis2=-1))
    positive = diag > 0.0
    if not positive.all():
        i, j = np.unravel_index(int(np.argmin(positive)), positive.shape)
        raise NotPositiveDefiniteError(
            f"mass matrix of pencil {i} has diagonal entry {diag[i, j]:g} "
            f"at index {j}, which is not positive", int(i))
    return diag


def clamp_roundoff(w: np.ndarray, k_stack, m_stack) -> np.ndarray:
    """Eigenvalues w (n, m) with roundoff negatives clamped to zero; one
    below ``-CLAMP_REL_TOL * |K| / |M|`` of its pencil raises instead."""
    negative = w < 0.0
    if not negative.any():
        return w
    rows = np.flatnonzero(negative.any(axis=-1))
    lowest = w[rows].min(axis=-1)
    scale = (np.linalg.norm(k_stack[rows], axis=(-2, -1))
             / np.linalg.norm(m_stack[rows], axis=(-2, -1)))
    bad = lowest < -CLAMP_REL_TOL * scale
    if bad.any():
        i = int(rows[np.argmax(bad)])
        raise NegativeEigenvalueError(
            f"eigenvalue {w[i].min():g} of pencil {i} below "
            f"-{CLAMP_REL_TOL:g} * |K|/|M|", i)
    return np.where(negative, 0.0, w)


def _reduce(k_stack, m_stack):
    """Checked K and M as arrays, D, L^-1 and B, made exactly Hermitian;
    an overflow past the equilibration is a non-finite B.  A diagonal M
    (every off-diagonal entry 0) gives L^-1 as its (n, m) diagonal and B
    by broadcasting, rounded as the products are, and skips the pivot
    floor: M_ii > 0, so pivot^2 = M_ii d_i^2 is within ulps of 1, or inf
    where d_i^2 overflows and B is non-finite."""
    dtype = np.result_type(np.asarray(k_stack), np.asarray(m_stack), float)
    k_stack, m_stack = np.asarray(k_stack, dtype), np.asarray(m_stack, dtype)
    if k_stack.ndim != 3 or m_stack.shape != k_stack.shape:
        raise ValueError(f"mass of shape {m_stack.shape} does not fit a "
                         f"stiffness stack of shape {k_stack.shape}")
    _assert_hermitian(k_stack, "stiffness matrix")
    _assert_hermitian(m_stack, "mass matrix")
    m_diag = positive_mass_diagonal(m_stack)
    d = 1.0 / np.sqrt(m_diag)
    with np.errstate(over="ignore", invalid="ignore"):
        congruence = d[:, :, None] * d[:, None, :]
        k_eq = k_stack * congruence
        if not m_stack[:, ~np.eye(m_stack.shape[-1], dtype=bool)].any():
            lower_inv = 1.0 / np.sqrt(m_diag * (d * d))
            b = lower_inv[:, :, None] * k_eq * lower_inv[:, None, :]
        else:
            m_eq = m_stack * congruence
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
    return k_stack, m_stack, d, lower_inv, 0.5 * (b + _conj_t(b))


def general_eig_stack(k_stack: np.ndarray,
                      m_stack: np.ndarray) -> EigenSolution:
    """Solve K v = w M v for every pencil of an (n, m, m) stack at once.

    Eigenvalues come back ascending along the last axis and eigenvectors
    M-orthonormal with the phase fixed so that the largest-magnitude
    component is real and positive.  Roundoff negatives are clamped to zero
    and larger ones raise (``clamp_roundoff``).  Real stacks stay real.
    """
    k_stack, m_stack, d, lower_inv, b = _reduce(k_stack, m_stack)
    w, y = np.linalg.eigh(b)
    w = clamp_roundoff(w, k_stack, m_stack)

    # back-transform and M-normalize (a diagonal L^-1 and M scale rows, and
    # + 0.0 gives exact zeros the +0.0 of a matmul's zero-started sums), then
    # phase each column by its first largest-magnitude component
    (n, m), m_diag = w.shape, np.diagonal(m_stack, 0, -2, -1)[:, :, None]
    vecs = d[:, :, None] * (lower_inv[:, :, None] * y + 0.0
                            if lower_inv.ndim == 2 else _conj_t(lower_inv) @ y)
    terms = np.conj(vecs) * (m_diag * vecs if lower_inv.ndim == 2
                             else m_stack @ vecs)
    vecs /= np.sqrt(np.real(sum(terms[:, 1:].swapaxes(0, 1),
                                terms[:, 0])))[:, None, :]
    mags = np.abs(vecs)
    top, largest = 0, mags[:, 0]
    for i in range(1, m):
        top = np.where(mags[:, i] > largest, i, top)
        largest = np.maximum(largest, mags[:, i])
    pivot = vecs.reshape(-1)[(np.arange(n)[:, None] * m + top) * m
                             + np.arange(m)]
    vecs *= (np.conj(pivot) / np.abs(pivot))[:, None, :]
    return EigenSolution(omega_sq=w, vectors=vecs)


def general_eigvals_stack(k_stack: np.ndarray,
                          m_stack: np.ndarray) -> np.ndarray:
    """The (n, m) ascending eigenvalues of ``general_eig_stack`` alone,
    under the same checks, clamp and errors, without the eigenvectors."""
    k_stack, m_stack, _, _, b = _reduce(k_stack, m_stack)
    return clamp_roundoff(np.linalg.eigvalsh(b), k_stack, m_stack)


def general_eig(k_matrix: np.ndarray, m_matrix: np.ndarray) -> EigenSolution:
    """Solve K v = w M v for a Hermitian K and Hermitian PD M: the
    single-pencil ``general_eig_stack``, with its conventions and errors."""
    sol = general_eig_stack(np.asarray(k_matrix)[None],
                            np.asarray(m_matrix)[None])
    return EigenSolution(omega_sq=sol.omega_sq[0], vectors=sol.vectors[0])
