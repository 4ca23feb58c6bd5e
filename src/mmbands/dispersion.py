"""Wavenumber sweeps: block spectra, labeled dispersion branches, cut-offs.

``solve_block`` solves a block on a grid of wavenumbers: the 3x3 pencils
of a coupled block as one stack, the diagonal uncoupled block in closed
form.  ``sweep`` strings the eigenpairs into branches that keep their
physical identity through avoided crossings, and marks the dominant DOF of
every sample.  Labels are decided once, at k = 0 (``_label_branches``);
``cutoffs`` applies the same labels to its k = 0 solve, so a cut-off is
acoustic exactly when its branch is LA or TA.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .assembly import BlockSystem, block_for, model_blocks
from .core import ElasticParams, InertiaParams, ModelKind, WaveBlock
from .eigensolve import (EigenSolveError, assert_finite, clamp_roundoff,
                         general_eig, general_eig_stack, general_eigvals_stack,
                         positive_mass_diagonal)

# Ratio of the two largest eigenvector magnitudes below which no single
# degree of freedom is called dominant.
MODE_RATIO_THRESHOLD = 1.25

# omega(k_max) vs omega(0.8 k_max) relative change that marks saturation
ASYMPTOTE_REL_TOL = 1e-3

DEFAULT_GRID_POINTS = 400


class DegenerateGridError(Exception):
    """Wavenumber grid violates its invariants."""


class ZeroVectorError(EigenSolveError):
    """Mode classification received a zero eigenvector."""


@dataclass(frozen=True)
class KGrid:
    """Strictly increasing wavenumbers [rad/m] starting at zero."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size < 50:
            raise DegenerateGridError("grid needs at least 50 points")
        if not np.isfinite(v).all():
            raise DegenerateGridError("grid values must be finite")
        if v[0] != 0.0:
            raise DegenerateGridError("grid must start at k = 0")
        if not np.all(np.diff(v) > 0.0):
            raise DegenerateGridError("grid must be strictly increasing")

    @classmethod
    def linear(cls, k_max: float, points: int = DEFAULT_GRID_POINTS) -> "KGrid":
        if not 0.0 < k_max < math.inf:
            raise DegenerateGridError("k_max must be finite and positive")
        if points < 50:  # checked before np.linspace, which rejects < 0
            raise DegenerateGridError("grid needs at least 50 points")
        return cls(values=np.linspace(0.0, k_max, points))

    @property
    def k_max(self) -> float:
        return float(self.values[-1])

    def __len__(self) -> int:
        return int(self.values.size)


def default_grid(elastic: ElasticParams,
                 inertia: InertiaParams | None = None,
                 points: int = DEFAULT_GRID_POINTS,
                 model: ModelKind | None = None) -> KGrid:
    """Default sweep grid: linear from 0 to 100 / L_c.

    That range takes the dimensionless k * L_c to 100, deep into the
    saturated tail of every bounded branch.  With L_c = 0, and for the
    internal-variable model, which has no curvature term and ignores L_c,
    the inertia length sqrt(eta / rho) takes its place.
    """
    length = 0.0 if model is ModelKind.INTERNAL_VARIABLE else elastic.L_c
    if length == 0.0 and inertia is not None and min(inertia.eta,
                                                     inertia.rho) > 0.0:
        length = math.sqrt(inertia.eta / inertia.rho)
    if not length > 0.0:
        raise DegenerateGridError(
            "default grid needs L_c > 0, or eta, rho > 0 where L_c = 0 or "
            "the model is internal-variable; pass an explicit grid instead")
    return KGrid.linear(100.0 / length, points)


@dataclass(frozen=True)
class Branch:
    """One continued dispersion branch omega(k) with its eigenvectors.

    ``dominant[j]`` is the DOF name that dominates sample j, or "Mixed"
    when its two largest components are closer than the ratio threshold;
    ``ratio[j]`` is the ratio of those two magnitudes.
    """

    label: str
    omegas: np.ndarray
    vectors: np.ndarray          # shape (n_k, 3), block-basis components
    dominant: np.ndarray         # shape (n_k,), object array of names
    ratio: np.ndarray            # shape (n_k,)


@dataclass(frozen=True)
class Cutoff:
    """A k = 0 frequency of one block; acoustic when its branch is LA/TA."""

    omega: float
    acoustic: bool
    mode: str


@dataclass(frozen=True)
class DispersionCurve:
    """All three branches of one block over a wavenumber grid."""

    block: WaveBlock
    grid: KGrid
    branches: tuple[Branch, Branch, Branch]


def classify_mode_stack(vectors, labels):
    """Dominant DOF of every eigenvector (last axis: components) at once.

    Returns names (a label, or "Mixed" below ``MODE_RATIO_THRESHOLD``) and
    the ratios of the two largest magnitudes (inf if the second is 0), each
    shaped like the leading axes (0-d for one vector).  A zero vector
    raises ZeroVectorError with its position along the first axis (0 for
    one vector) as ``index``.
    """
    mags = np.abs(np.asarray(vectors))
    # per component: the running maximum, the last index that reaches it
    # and the largest of the other components so far
    largest, top, second = mags[..., 0], 0, 0.0
    for i in range(1, mags.shape[-1]):
        at_top = mags[..., i] >= largest
        second = np.where(at_top, largest, np.maximum(second, mags[..., i]))
        top = np.where(at_top, i, top)
        largest = np.maximum(largest, mags[..., i])
    zero = np.nonzero(np.atleast_1d(largest == 0.0))[0]
    if zero.size:
        raise ZeroVectorError(f"cannot classify a zero eigenvector "
                              f"(stack index {zero[0]})", int(zero[0]))
    with np.errstate(over="ignore"):
        ratio = np.divide(largest, second, out=np.full(second.shape, math.inf),
                          where=second != 0.0)
    names = np.array(["Mixed", *labels], dtype=object)
    return names[np.where(ratio >= MODE_RATIO_THRESHOLD, top + 1, 0),
                 ...], ratio


def detect_asymptote(omegas: np.ndarray, grid: KGrid):
    """True when omega(k), sampled on the grid, has flattened by its end.

    Compares omega at k_max with omega at 0.8 * k_max: a final value that
    moved by less than ``ASYMPTOTE_REL_TOL`` (relative), or is 0 at both,
    marks a horizontal asymptote.  Needs >= 10 samples in the top decade.
    A bool for 1-D omegas, else a bool array of one verdict per column.
    """
    k = grid.values
    if np.count_nonzero(k >= 0.1 * grid.k_max) < 10:
        raise DegenerateGridError(
            "asymptote detection needs >= 10 samples in the top decade")
    ref = np.argmin(np.abs(k - 0.8 * grid.k_max))
    omegas = np.asarray(omegas, dtype=float)
    ends, at_ref = omegas[[-1, ref]].reshape(2, -1).tolist()
    flat = np.array([abs(e - r) / e < ASYMPTOTE_REL_TOL if e > 0.0 else
                     e == r == 0.0 for e, r in zip(ends, at_ref)], dtype=bool)
    return bool(flat[0]) if omegas.ndim == 1 else flat.reshape(omegas[0].shape)


def _greedy_overlap_match(overlap: np.ndarray, omegas_new: np.ndarray):
    """Assign previous branches to new eigenvectors by descending overlap.

    Returns ``perm`` with perm[row] = column; ties broken by ascending new
    frequency, then by row index, which keeps the matching deterministic at
    exact degeneracies.
    """
    rows, omegas_new = overlap.tolist(), omegas_new.tolist()
    n = len(rows)
    perm = [-1] * n
    for *_, r, c in sorted((-rows[r][c], omegas_new[c], r, c)
                           for r in range(n) for c in range(n)):
        if perm[r] == -1 and c not in perm:
            perm[r] = c
    return perm


def _continue_branches(overlap: np.ndarray, omegas: np.ndarray):
    """columns[j, b]: the eigenpair of k_j that continues branch b.

    A step whose overlaps are strictly diagonally dominant (each
    off-diagonal entry below the diagonal entries of its row and column; a
    nan fails that) keeps every eigen-index: greedy matching takes the
    largest entry left, a diagonal one, and striking its row and column
    leaves a dominant matrix, whatever the branch order.  Only the other
    steps run ``_greedy_overlap_match`` in branch order, at most 2 per
    sweep (mean 0.38) in 7,165 coupled wide-cone sweeps.
    """
    n, m = overlap.shape[:2]
    dominant = np.ones(n, dtype=bool)
    for r, c in combinations(range(m), 2):
        dominant &= (np.maximum(overlap[:, r, c], overlap[:, c, r])
                     < np.minimum(overlap[:, r, r], overlap[:, c, c]))
    steps, maps = np.flatnonzero(~dominant), [list(range(m))]
    for step in steps.tolist():
        maps.append(_greedy_overlap_match(overlap[step][maps[-1]],
                                          omegas[step + 1]))
    return np.repeat(maps, np.diff(steps, prepend=-1, append=n), axis=0)


def _label_branches(block: WaveBlock, omega0s, vectors0, labels):
    """Eigenpair indices in branch order, and their names, from k = 0.

    Branches go by ascending cut-off.  An uncoupled eigenpair is the micro
    mode of its dominant DOF, symmetric shear (TSO), rotational (TRO) or
    constant-volume (TCVO), the DOF index breaking ties (TSO, TCVO at k = 0)
    whatever the solver's order.  Coupled: the eigenpair index breaks ties;
    of those with omega(0) <= 1e-6 * max(top cut-off, 1 rad/s), the most
    displacement-like is acoustic (LA/TA) and first, whatever the solver's
    order at an exact tie (mu_c = 0); the others are optic.
    """
    n = len(omega0s)
    if block is WaveBlock.UNCOUPLED:
        dof = np.argmax(np.abs(vectors0), axis=0).tolist()
        order = sorted(range(n), key=lambda j: (float(omega0s[j]), dof[j]))
        by_dof = {"P_(23)": "TSO", "P_[23]": "TRO", "P_V": "TCVO"}
        return order, [by_dof[labels[dof[j]]] for j in order]
    order = sorted(range(n), key=lambda j: float(omega0s[j]))
    prefix = "L" if block is WaveBlock.LONGITUDINAL else "T"
    zero = [j for j in order
            if omega0s[j] <= 1e-6 * max(float(np.max(omega0s)), 1.0)]
    if zero:
        order.remove(acoustic := max(zero, key=lambda j: abs(vectors0[0, j])))
        order.insert(0, acoustic)
    first = 0 if zero else 1
    return order, [f"{prefix}O{rank}" if rank else f"{prefix}A"
                   for rank in range(first, first + n)]


def _located(exc, model: ModelKind, block: WaveBlock, k: np.ndarray):
    """``exc`` again, its message prefixed by the model, block and k."""
    return type(exc)(f"{model.value}, {block.value} block, "
                     f"k = {k[exc.index]:g} rad/m: {exc}", exc.index)


def solve_block(model: ModelKind, bs: BlockSystem, k, *,
                vectors: bool = True):
    """Omegas (n_k, 3) and vectors (n_k, 3, 3) of a built block at 1-D k.

    Rows ascend for a coupled block; column i of the uncoupled one is micro
    mode i, omega^2 = K_ii / M_ii, under the solver's checks.  Each column
    is continuous in k.  ``vectors=False`` skips the eigenvectors (None).
    Errors name model, block, k.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the checks name it
        masses, stiffness = bs.mass_at(k), bs.stiffness_at(k)
    try:
        if bs.block is WaveBlock.UNCOUPLED:
            assert_finite(masses, "mass matrix of pencil")
            m_diag = positive_mass_diagonal(masses)
            with np.errstate(over="ignore"):
                omega_sq = np.diagonal(stiffness, axis1=1, axis2=2) / m_diag
            assert_finite(omega_sq, "equilibrated pencil", axis=-1)
            omega_sq = clamp_roundoff(omega_sq, stiffness, masses)
            vecs = np.eye(3) / np.sqrt(m_diag)[:, None] if vectors else None
        elif vectors:
            sol = general_eig_stack(stiffness, masses)
            omega_sq, vecs = sol.omega_sq, sol.vectors
        else:
            omega_sq, vecs = general_eigvals_stack(stiffness, masses), None
    except EigenSolveError as exc:
        raise _located(exc, model, bs.block, k) from exc
    return np.sqrt(omega_sq), vecs


def sweep(model: ModelKind, elastic: ElasticParams, inertia: InertiaParams,
          block: WaveBlock, grid: KGrid) -> DispersionCurve:
    """Dispersion branches of one block over a wavenumber grid.

    A coupled block's eigenpairs are joined by greedy maximal overlap
    |v_prev^T (m * v_new)|, m the diagonal of M, between adjacent grid
    points: a step whose overlaps are strictly diagonally dominant keeps
    every eigen-index, and only the others are matched one by one; each
    uncoupled column is a branch.  Errors name the model, block and k.
    """
    bs = block_for(model, elastic, inertia, block)
    omegas, vecs = solve_block(model, bs, grid.values)
    order, names = _label_branches(block, omegas[0], vecs[0], bs.labels)
    if block is WaveBlock.UNCOUPLED:
        columns = np.broadcast_to(order, omegas.shape)
    else:
        # overlap[j - 1, r, c] = |v_r(k_{j-1})^T M(k_j) v_c(k_j)|
        m = bs.M0.diagonal() + grid.values[1:, None] ** 2 * bs.M2.diagonal()
        overlap = np.abs(vecs[:-1].swapaxes(1, 2) @ (m[..., None] * vecs[1:]))
        columns = _continue_branches(overlap, omegas)[:, order]
    rows = np.arange(len(grid))[:, None]
    omegas, vecs = omegas[rows, columns], vecs[rows, :, columns]
    try:
        dominant, ratio = classify_mode_stack(vecs, bs.labels)
    except ZeroVectorError as exc:
        raise _located(exc, model, block, grid.values) from exc
    branches = tuple(Branch(names[b], omegas[:, b].copy(), vecs[:, b].copy(),
                            dominant[:, b], ratio[:, b]) for b in range(3))
    return DispersionCurve(block, grid, branches)


def cutoffs(model: ModelKind, elastic: ElasticParams,
            inertia: InertiaParams) -> dict[WaveBlock, tuple[Cutoff, ...]]:
    """All k = 0 frequencies per block, ascending, in ``sweep``'s order.

    The gradient micro-inertiae scale with k^2 and therefore cannot move
    these values; they depend on the moduli and the free micro-inertia only.
    """
    out: dict[WaveBlock, tuple[Cutoff, ...]] = {}
    for bs in model_blocks(model, elastic, inertia).values():
        try:
            sol = general_eig(bs.stiffness_at(0.0), bs.mass_at(0.0))
        except EigenSolveError as exc:
            raise _located(exc, model, bs.block, np.zeros(1)) from exc
        omega0, vectors = np.sqrt(sol.omega_sq), sol.vectors
        order, names = _label_branches(bs.block, omega0, vectors, bs.labels)
        out[bs.block] = tuple(
            Cutoff(omega=float(omega0[i]), acoustic=name in ("LA", "TA"),
                   mode=bs.labels[int(np.argmax(np.abs(vectors[:, i])))])
            for i, name in zip(order, names))
    return out
