"""Wavenumber sweeps: labeled dispersion branches, cut-offs, asymptotes.

A sweep solves the 3x3 generalized eigenproblem of a coupled block on a
grid of wavenumbers and strings the eigenpairs into continuous branches by
maximal mass-weighted eigenvector overlap between adjacent grid points, so
branches keep their physical identity through avoided crossings; the
matches of all steps come from one array pass (sequential only where a
greedy choice ties exactly).  The uncoupled block is diagonal, so each
micro mode is a branch in closed form, omega_i^2 = K_ii(k) / M_ii(k).  The
dominant DOF of every sample comes from one more pass; a branch stores
them as arrays (``dominant``, ``ratio``) next to its frequencies.
Labels are decided once, at k = 0, by ascending cut-off: the most
displacement-like coupled branch at omega(0) = 0 is acoustic, and an
uncoupled branch is named by its micro mode.  ``cutoffs`` applies the same
labels to its k = 0 solve, so a cut-off is acoustic exactly when its
branch is LA or TA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import block_for, model_blocks
from .core import ElasticParams, InertiaParams, ModelKind, WaveBlock
from .eigensolve import (EigenSolveError, clamp_roundoff, general_eig,
                         general_eig_stack, positive_mass_diagonal)

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
                 points: int = DEFAULT_GRID_POINTS) -> KGrid:
    """Default sweep grid: linear from 0 to 100 / L_c.

    That range takes the dimensionless k * L_c to 100, deep into the
    saturated tail of every bounded branch.  With L_c = 0 the inertia
    length sqrt(eta / rho) takes its place.
    """
    length = elastic.L_c
    if length == 0.0 and inertia is not None and min(inertia.eta,
                                                     inertia.rho) > 0.0:
        length = math.sqrt(inertia.eta / inertia.rho)
    if not length > 0.0:
        raise DegenerateGridError(
            "default grid needs L_c > 0, or L_c = 0 with eta, rho > 0; "
            "pass an explicit grid instead")
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
    asymptote_flags: tuple[bool, bool, bool]
    model: ModelKind
    elastic: ElasticParams
    inertia: InertiaParams
    transverse_axis: int = 2

    def parameter_key(self):
        return (self.model, self.elastic, self.inertia)


def classify_mode_stack(vectors, labels):
    """Dominant DOF of every eigenvector (last axis: components) at once.

    Returns names (a label, or "Mixed" below ``MODE_RATIO_THRESHOLD``) and
    the ratios of the two largest magnitudes (inf if the second is 0), each
    shaped like the leading axes (0-d for one vector).  A zero vector
    raises ZeroVectorError with its position along the first axis (0 for
    one vector) as ``index``.
    """
    mags = np.abs(np.asarray(vectors))
    zero = np.nonzero(np.atleast_1d(np.max(mags, axis=-1) == 0.0))[0]
    if zero.size:
        raise ZeroVectorError(f"cannot classify a zero eigenvector "
                              f"(stack index {zero[0]})", int(zero[0]))
    order = np.argsort(mags, axis=-1, kind="stable")
    second, largest = np.moveaxis(
        np.take_along_axis(mags, order[..., -2:], axis=-1), -1, 0)
    with np.errstate(over="ignore"):
        ratio = np.divide(largest, second, out=np.full(second.shape, math.inf),
                          where=second != 0.0)
    names = np.array(["Mixed", *labels], dtype=object)
    return names[np.where(ratio >= MODE_RATIO_THRESHOLD,
                          order[..., -1] + 1, 0), ...], ratio


def detect_asymptote(branch: Branch, grid: KGrid) -> bool:
    """True when the branch has flattened by the end of the grid.

    Compares omega at k_max with omega at 0.8 * k_max: a final value that
    moved by less than ``ASYMPTOTE_REL_TOL`` (relative), or is 0 at both,
    marks a horizontal asymptote.  Needs >= 10 samples in the top decade.
    """
    k = grid.values
    if np.count_nonzero(k >= 0.1 * grid.k_max) < 10:
        raise DegenerateGridError(
            "asymptote detection needs >= 10 samples in the top decade")
    omega_end = float(branch.omegas[-1])
    idx = int(np.argmin(np.abs(k - 0.8 * grid.k_max)))
    omega_ref = float(branch.omegas[idx])
    if omega_end <= 0.0:
        return omega_end == omega_ref == 0.0
    return abs(omega_end - omega_ref) / omega_end < ASYMPTOTE_REL_TOL


def _greedy_overlap_match(overlap: np.ndarray, omegas_new: np.ndarray):
    """Assign previous branches to new eigenvectors by descending overlap.

    Returns ``perm`` with perm[row] = column; ties broken by ascending new
    frequency, then by row index, which keeps the matching deterministic at
    exact degeneracies.
    """
    n = overlap.shape[0]
    perm = [-1] * n
    for *_, r, c in sorted((-float(overlap[r, c]), float(omegas_new[c]), r, c)
                           for r in range(n) for c in range(n)):
        if perm[r] == -1 and c not in perm:
            perm[r] = c
    return perm


def _continue_branches(overlap: np.ndarray, omegas: np.ndarray):
    """columns[j, b]: the eigenpair of k_j that continues branch b.

    The greedy match of every step is found at once on the unpermuted
    overlaps.  Unless another available entry ties a free greedy choice in
    overlap and new frequency, it does not depend on the branch order, and
    runs of such steps compose by a prefix scan.  A tied step runs
    ``_greedy_overlap_match`` on the overlaps in branch order.
    """
    n = len(overlap)
    key = np.stack([overlap.reshape(n, 9), np.tile(omegas[1:], 3)])
    order = np.lexsort((key[1], -key[0]))
    key = np.take_along_axis(key, order[None], axis=-1)
    rows, cols = np.divmod(order, 3)
    # choice 1 is sorted first, choice 2 is the first of the four entries
    # outside its row and column; each is compared with the next available
    free = np.nonzero((rows != rows[:, :1]) & (cols != cols[:, :1]))[1]
    at = np.c_[np.zeros(n, dtype=int), free[::4]]
    after = np.c_[np.ones(n, dtype=int), free[1::4]]
    tied = (np.take_along_axis(key, at[None], axis=-1)
            == np.take_along_axis(key, after[None], axis=-1))
    tied = tied.all(axis=0).any(axis=-1) | ~np.isfinite(key).all(axis=(0, 2))
    r, c = np.take_along_axis(rows, at, -1), np.take_along_axis(cols, at, -1)
    maps = np.empty((n, 3), dtype=int)      # the third pair is forced
    np.put_along_axis(maps, np.c_[r, 3 - r.sum(axis=1)],
                      np.c_[c, 3 - c.sum(axis=1)], axis=-1)
    columns = np.empty((n + 1, 3), dtype=int)
    columns[0] = np.arange(3)
    start = 0
    for stop in [*(np.flatnonzero(tied) + 1).tolist(), n + 1]:
        scan, shift = maps[start:stop - 1].copy(), 1
        while shift < len(scan):
            scan[shift:] = np.take_along_axis(scan[shift:], scan[:-shift], -1)
            shift *= 2
        columns[start + 1:stop] = scan[:, columns[start]]
        if stop <= n:
            columns[stop] = _greedy_overlap_match(
                overlap[stop - 1][columns[stop - 1]], omegas[stop])
        start = stop
    return columns


def _label_branches(block: WaveBlock, omega0s, vectors0, labels):
    """Eigenpair indices in branch order, and their names, from k = 0.

    Branches go by ascending cut-off, the eigenpair index breaking ties.
    Uncoupled block: eigenpair i is the micro mode of DOF i, named symmetric
    shear (TSO), rotational (TRO) or constant-volume (TCVO).  Coupled: of
    the eigenpairs with omega(0) <= 1e-6 * max(top cut-off, 1 rad/s), the
    most displacement-like is acoustic (LA/TA) and first, whatever the
    solver's order at an exact tie (mu_c = 0); the others are optic.
    """
    n = len(omega0s)
    order = sorted(range(n), key=lambda j: float(omega0s[j]))
    if block is WaveBlock.UNCOUPLED:
        by_dof = {"P_(23)": "TSO", "P_[23]": "TRO", "P_V": "TCVO"}
        return order, [by_dof[labels[i]] for i in order]
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


def sweep(model: ModelKind, elastic: ElasticParams, inertia: InertiaParams,
          block: WaveBlock, grid: KGrid, *,
          transverse_axis: int = 2) -> DispersionCurve:
    """Dispersion branches of one block over a wavenumber grid.

    A coupled block's pencils are solved as one stack, and eigenpairs are
    joined by greedy maximal overlap |v_prev^H M v_new| for all steps at
    once (sequentially only at exact ties).  Micro mode i of the diagonal
    uncoupled block is omega^2 = K_ii / M_ii, e_i / sqrt(M_ii) at every k,
    under the solver's mass and clamp checks, and bounded exactly when
    K2_ii = 0.  Modes are classified in one pass.  A solver failure or a
    zero eigenvector is re-raised with the model, block and k added.
    """
    bs = block_for(model, elastic, inertia, block, transverse_axis)
    k = grid.values
    masses, stiffness = bs.mass_at(k), bs.stiffness_at(k)
    uncoupled = block is WaveBlock.UNCOUPLED
    try:
        if uncoupled:
            m_diag = positive_mass_diagonal(masses)
            omega_sq = clamp_roundoff(np.diagonal(stiffness, axis1=1, axis2=2)
                                      / m_diag, stiffness, masses)
            raw = np.eye(3) / np.sqrt(m_diag)[:, None, :]
        else:
            sol = general_eig_stack(stiffness, masses)
            omega_sq, raw = sol.omega_sq, sol.vectors
        omegas_raw = np.sqrt(omega_sq)
        order, names = _label_branches(block, omegas_raw[0], raw[0], bs.labels)
        if uncoupled:
            columns = np.broadcast_to(order, omega_sq.shape)
        else:
            # overlap[j - 1, r, c] = |v_r(k_{j-1})^H M(k_j) v_c(k_j)|
            overlap = np.abs(np.conj(np.swapaxes(raw[:-1], 1, 2))
                             @ (masses[1:] @ raw[1:]))
            columns = _continue_branches(overlap, omegas_raw)[:, order]
        omegas = np.take_along_axis(omegas_raw, columns, axis=1)
        vectors = np.take_along_axis(raw, columns[:, None, :], axis=2)
        dominant, ratio = classify_mode_stack(np.swapaxes(vectors, 1, 2),
                                              bs.labels)
    except EigenSolveError as exc:
        raise _located(exc, model, block, k) from exc
    branches = tuple(
        Branch(label=names[b], omegas=omegas[:, b].copy(),
               vectors=vectors[:, :, b].copy(), dominant=dominant[:, b],
               ratio=ratio[:, b])
        for b in range(3))

    flags = (tuple(bool(bs.K2[i, i] == 0.0) for i in order) if uncoupled
             else tuple(detect_asymptote(br, grid) for br in branches))
    return DispersionCurve(
        block=block, grid=grid, branches=branches, asymptote_flags=flags,
        model=model, elastic=elastic, inertia=inertia,
        transverse_axis=transverse_axis)


def cutoffs(model: ModelKind, elastic: ElasticParams,
            inertia: InertiaParams) -> dict[WaveBlock, tuple[Cutoff, ...]]:
    """All k = 0 frequencies per block, ascending, in ``sweep``'s order.

    A cut-off is acoustic exactly when ``sweep`` would name its branch LA
    or TA.  The gradient micro-inertiae scale with k^2 and therefore cannot
    move these values; they depend on the constitutive moduli and the free
    micro-inertia only.
    """
    out: dict[WaveBlock, tuple[Cutoff, ...]] = {}
    blocks = model_blocks(model, elastic, inertia)
    # blocks[2] is the x3 transverse block, identical to blocks[1]
    for bs in (blocks[0], blocks[1], blocks[3]):
        try:
            sol = general_eig(bs.stiffness_at(0.0), bs.mass_at(0.0))
        except EigenSolveError as exc:
            raise _located(exc, model, bs.block, np.zeros(1)) from exc
        omega0, vectors = np.sqrt(sol.omega_sq), sol.vectors
        if bs.block is WaveBlock.UNCOUPLED:
            # the diagonal block's eigenpairs in DOF order, as sweep has them
            dof = np.argsort(np.argmax(np.abs(vectors), axis=0))
            omega0, vectors = omega0[dof], vectors[:, dof]
        order, names = _label_branches(bs.block, omega0, vectors, bs.labels)
        out[bs.block] = tuple(
            Cutoff(omega=float(omega0[i]), acoustic=name in ("LA", "TA"),
                   mode=bs.labels[int(np.argmax(np.abs(vectors[:, i])))])
            for i, name in zip(order, names))
    return out
