"""Wavenumber sweeps: labeled dispersion branches, cut-offs, asymptotes.

A sweep solves the 3x3 generalized eigenproblem of one block on a grid of
wavenumbers and strings the eigenpairs into continuous branches by maximal
mass-weighted eigenvector overlap between adjacent grid points, so branches
keep their physical identity through avoided crossings.  Labels are decided
once, at k = 0: the branch with omega(0) = 0 is acoustic, the optic
branches are named by ascending cut-off (coupled blocks) or by their
dominant micro mode (uncoupled block).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import block_for
from .core import ElasticParams, InertiaParams, ModelKind, WaveBlock
from .eigensolve import EigenSolveError, general_eig, general_eig_stack

# Ratio of the two largest eigenvector magnitudes below which no single
# degree of freedom is called dominant.
MODE_RATIO_THRESHOLD = 1.25

DEFAULT_GRID_POINTS = 400


class DegenerateGridError(Exception):
    """Wavenumber grid violates its invariants."""


class ZeroVectorError(Exception):
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
        if k_max <= 0.0:
            raise DegenerateGridError("k_max must be positive")
        return cls(values=np.linspace(0.0, k_max, points))

    @property
    def k_max(self) -> float:
        return float(self.values[-1])

    def __len__(self) -> int:
        return int(self.values.size)


def default_grid(elastic: ElasticParams,
                 points: int = DEFAULT_GRID_POINTS) -> KGrid:
    """Default sweep grid: linear from 0 to 100 / L_c.

    That range takes the dimensionless k * L_c to 100, deep into the
    saturated tail of every bounded branch.
    """
    if elastic.L_c <= 0.0:
        raise DegenerateGridError(
            "default grid needs L_c > 0; pass an explicit grid instead")
    return KGrid.linear(100.0 / elastic.L_c, points)


@dataclass(frozen=True)
class ModeMarker:
    """Dominant vibration mode of one eigenvector sample.

    ``dominant`` is one of the block's DOF names, or "Mixed" when the two
    largest components are closer than the ratio threshold.
    """

    dominant: str
    ratio: float


@dataclass(frozen=True)
class Branch:
    """One continued dispersion branch omega(k) with its eigenvectors."""

    label: str
    omegas: np.ndarray
    vectors: np.ndarray          # shape (n_k, 3), block-basis components
    modes: tuple[ModeMarker, ...]


@dataclass(frozen=True)
class Cutoff:
    """A k = 0 frequency of one block; acoustic branches have omega = 0."""

    omega: float
    acoustic: bool
    mode: str


@dataclass(frozen=True)
class DispersionCurve:
    """All three branches of one block over a wavenumber grid."""

    block: WaveBlock
    grid: KGrid
    branches: tuple[Branch, Branch, Branch]
    cutoffs: tuple[Cutoff, ...]
    asymptote_flags: tuple[bool, bool, bool]
    model: ModelKind
    elastic: ElasticParams
    inertia: InertiaParams
    transverse_axis: int = 2

    def parameter_key(self):
        return (self.model, self.elastic, self.inertia)


def classify_mode(vector, labels,
                  threshold: float = MODE_RATIO_THRESHOLD) -> ModeMarker:
    """Name the dominant DOF of an eigenvector, or "Mixed" when unclear."""
    mags = np.abs(np.asarray(vector, dtype=complex))
    if float(np.max(mags)) == 0.0:
        raise ZeroVectorError("cannot classify a zero eigenvector")
    order = np.argsort(mags, kind="stable")
    top = int(order[-1])
    second = float(mags[order[-2]])
    largest = float(mags[top])
    ratio = math.inf if second == 0.0 else largest / second
    dominant = labels[top] if ratio >= threshold else "Mixed"
    return ModeMarker(dominant=dominant, ratio=ratio)


def detect_asymptote(branch: Branch, grid: KGrid,
                     rel_tol: float = 1e-3) -> bool:
    """True when the branch has flattened by the end of the grid.

    Compares omega at k_max with omega at 0.8 * k_max; a relative change
    below ``rel_tol`` (with a nonzero final value) marks a horizontal
    asymptote.  Requires at least 10 samples in the top decade of the grid.
    """
    k = grid.values
    in_top_decade = int(np.count_nonzero(k >= 0.1 * grid.k_max))
    if in_top_decade < 10:
        raise DegenerateGridError(
            "asymptote detection needs >= 10 samples in the top decade")
    omega_end = float(branch.omegas[-1])
    if omega_end <= 0.0:
        return False
    idx = int(np.argmin(np.abs(k - 0.8 * grid.k_max)))
    omega_ref = float(branch.omegas[idx])
    return abs(omega_end - omega_ref) / omega_end < rel_tol


def _greedy_overlap_match(overlap: np.ndarray, omegas_new: np.ndarray):
    """Assign previous branches to new eigenvectors by descending overlap.

    Returns ``perm`` with perm[row] = column; ties broken by ascending new
    frequency, then by row index, which keeps the matching deterministic at
    exact degeneracies.
    """
    n = overlap.shape[0]
    entries = sorted(
        ((float(overlap[r, c]), r, c) for r in range(n) for c in range(n)),
        key=lambda e: (-e[0], float(omegas_new[e[2]]), e[1], e[2]))
    perm = [-1] * n
    used_cols = set()
    assigned = 0
    for _, r, c in entries:
        if perm[r] != -1 or c in used_cols:
            continue
        perm[r] = c
        used_cols.add(c)
        assigned += 1
        if assigned == n:
            break
    return perm


def _acoustic_threshold(omega0s) -> float:
    scale = max(float(np.max(omega0s)), 1.0)
    return 1e-6 * scale


def _label_branches(block: WaveBlock, omega0s, vectors0, labels):
    """Branch names decided at k = 0.

    Coupled blocks: the zero-frequency branch is acoustic (LA/TA) and the
    optic branches are numbered by ascending cut-off.  The uncoupled block
    is named by the dominant micro mode: symmetric shear (TSO), rotational
    (TRO) or constant-volume (TCVO).
    """
    n = len(omega0s)
    tol = _acoustic_threshold(omega0s)
    names = [""] * n
    if block is WaveBlock.UNCOUPLED:
        by_dof = {"P_(23)": "TSO", "P_[23]": "TRO", "P_V": "TCVO"}
        taken = set()
        for i in range(n):
            dof = labels[int(np.argmax(np.abs(vectors0[:, i])))]
            name = by_dof.get(dof, f"U{i + 1}")
            if name in taken:
                name = f"U{i + 1}"
            taken.add(name)
            names[i] = name
        return names

    prefix = "L" if block is WaveBlock.LONGITUDINAL else "T"
    optic_rank = 0
    acoustic_seen = False
    for i in sorted(range(n), key=lambda j: float(omega0s[j])):
        if not acoustic_seen and float(omega0s[i]) <= tol:
            names[i] = f"{prefix}A"
            acoustic_seen = True
        else:
            optic_rank += 1
            names[i] = f"{prefix}O{optic_rank}"
    return names


def sweep(model: ModelKind, elastic: ElasticParams, inertia: InertiaParams,
          block: WaveBlock, grid: KGrid, *, transverse_axis: int = 2,
          mode_threshold: float = MODE_RATIO_THRESHOLD) -> DispersionCurve:
    """Dispersion branches of one block over a wavenumber grid.

    The block pencils of the whole grid are solved as one stack; adjacent
    eigenpairs are then joined by greedy maximal overlap |v_prev^H M v_new|.
    A solver failure is re-raised with the model, block and k added.
    """
    bs = block_for(model, elastic, inertia, block, transverse_axis)
    k = grid.values
    n_k = len(grid)
    masses = bs.mass_at(k)
    try:
        sol = general_eig_stack(bs.stiffness_at(k), masses)
    except EigenSolveError as exc:
        raise type(exc)(f"{model.value}, {block.value} block, "
                        f"k = {k[exc.index]:g} rad/m: {exc}",
                        exc.index) from exc
    omegas_raw = np.sqrt(sol.omega_sq)
    # overlap[j - 1, r, c] = |v_r(k_{j-1})^H M(k_j) v_c(k_j)|, unpermuted
    overlap = np.abs(np.conj(np.swapaxes(sol.vectors[:-1], 1, 2))
                     @ (masses[1:] @ sol.vectors[1:]))

    # columns[j, b] is the eigenpair of k_j that continues branch b
    columns = np.empty((n_k, 3), dtype=int)
    columns[0] = np.arange(3)
    for j in range(1, n_k):
        columns[j] = _greedy_overlap_match(overlap[j - 1][columns[j - 1]],
                                           omegas_raw[j])
    omegas = np.take_along_axis(omegas_raw, columns, axis=1)
    vectors = np.take_along_axis(sol.vectors, columns[:, None, :], axis=2)

    names = _label_branches(block, omegas[0], vectors[0], bs.labels)

    branches = []
    for b in range(3):
        modes = tuple(classify_mode(vectors[j, :, b], bs.labels,
                                    threshold=mode_threshold)
                      for j in range(n_k))
        branches.append(Branch(label=names[b], omegas=omegas[:, b].copy(),
                               vectors=vectors[:, :, b].copy(), modes=modes))
    branches = tuple(branches)

    tol = _acoustic_threshold(omegas[0])
    if block is WaveBlock.UNCOUPLED:
        cut = tuple(Cutoff(omega=float(omegas[0, b]), acoustic=False,
                           mode=branches[b].modes[0].dominant)
                    for b in range(3))
    else:
        cut = tuple(Cutoff(omega=float(omegas[0, b]), acoustic=False,
                           mode=branches[b].modes[0].dominant)
                    for b in range(3) if float(omegas[0, b]) > tol)

    flags = tuple(detect_asymptote(br, grid) for br in branches)
    return DispersionCurve(
        block=block, grid=grid, branches=branches, cutoffs=cut,
        asymptote_flags=flags, model=model, elastic=elastic,
        inertia=inertia, transverse_axis=transverse_axis)


def cutoffs(model: ModelKind, elastic: ElasticParams,
            inertia: InertiaParams) -> dict[WaveBlock, tuple[Cutoff, ...]]:
    """All k = 0 frequencies per block, ascending, acoustic zeros tagged.

    The gradient micro-inertiae scale with k^2 and therefore cannot move
    these values; they depend on the constitutive moduli and the free
    micro-inertia only.
    """
    out: dict[WaveBlock, tuple[Cutoff, ...]] = {}
    for block in (WaveBlock.LONGITUDINAL, WaveBlock.TRANSVERSE,
                  WaveBlock.UNCOUPLED):
        bs = block_for(model, elastic, inertia, block)
        sol = general_eig(bs.stiffness_at(0.0), bs.mass_at(0.0))
        omega0 = np.sqrt(sol.omega_sq)
        tol = _acoustic_threshold(omega0)
        entries = []
        for i in range(3):
            dof = bs.labels[int(np.argmax(np.abs(sol.vectors[:, i])))]
            acoustic = bool(omega0[i] <= tol and block is not WaveBlock.UNCOUPLED)
            entries.append(Cutoff(omega=float(omega0[i]), acoustic=acoustic,
                                  mode=dof))
        out[block] = tuple(entries)
    return out
