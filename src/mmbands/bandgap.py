"""Frequency coverage and band-gap detection.

Each pair of consecutive sweep samples of a branch covers every frequency
bin (width delta_omega) between them, so a coarse grid can never fake a
gap.  Past the end of the wavenumber grid, a branch that has reached its
horizontal asymptote stops at its saturated value, while an unbounded
branch keeps rising and covers everything up to the frequency ceiling.
The coverage is the union of these bin ranges, merged after a sort.

Band-gaps are the holes between the merged runs wider than a minimum width.
The "complete" scope intersects the longitudinal and both transverse blocks
(identical, so swept once): an interval counts as a complete gap when no
displacement-coupled plane wave propagates there at any wavenumber.  The
displacement-free micro-modes can be added with ``include_uncoupled``; they
are left out by default because several model variants let those modes
sweep the whole frequency axis, hiding the optic-branch gaps that the
coupled blocks exhibit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ElasticParams, InertiaParams, ModelKind, WaveBlock
from .dispersion import KGrid, cutoffs, default_grid, sweep

COMPLETE = "complete"

# ceiling = headroom * largest cut-off; bin and width defaults resolve the
# narrowest gaps the five variants produce while rejecting grid noise
CEILING_HEADROOM = 1.5
CEILING_TO_DELTA = 4000.0
CEILING_TO_MIN_GAP = 400.0


class InconsistentInputsError(Exception):
    """Coverage was asked to merge curves from different parameter sets."""


class FrequencyAxisError(ValueError):
    """A frequency-axis setting (ceiling, bin width, gap width) is invalid."""


def _check_axis(key: str, value: float, *, zero_ok: bool = False) -> None:
    if not (math.isfinite(value) and (value > 0.0 or zero_ok and value == 0)):
        bound = ">= 0" if zero_ok else "> 0"
        raise FrequencyAxisError(f"{key} must be finite and {bound}, "
                                 f"got {value!r}")


@dataclass(frozen=True)
class CoverageMap:
    """Occupied bins of the frequency axis up to a ceiling.

    ``runs[r] = (first_bin, last_bin)`` are the maximal occupied runs in
    ascending order.  ``edge_tags[r]`` holds two tuples naming, as
    ``block:label``, the branches that reach the run's first and its last
    bin: the owners of the gap edges just below and just above the run.
    """

    omega_ceiling: float
    delta_omega: float
    n_bins: int
    runs: np.ndarray
    edge_tags: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]


@dataclass(frozen=True)
class Gap:
    """A frequency interval [omega_lo, omega_hi] free of propagating waves."""

    omega_lo: float
    omega_hi: float

    @property
    def width(self) -> float:
        return self.omega_hi - self.omega_lo


@dataclass(frozen=True)
class GapReport:
    """Band-gap intervals with the detection parameters echoed."""

    gaps: tuple[Gap, ...]
    scope: str
    blocks: tuple[str, ...]
    omega_ceiling: float
    delta_omega: float
    min_gap_width: float
    model: ModelKind
    elastic: ElasticParams
    inertia: InertiaParams


def coverage(curves, omega_ceiling: float, delta_omega: float) -> CoverageMap:
    """Union of the frequency bins reachable by any branch of the curves."""
    curves = list(curves)
    if not curves:
        raise InconsistentInputsError("no curves given")
    keys = {c.parameter_key() for c in curves}
    if len(keys) != 1:
        raise InconsistentInputsError(
            "curves come from different parameter sets")
    _check_axis("omega_ceiling", omega_ceiling)
    _check_axis("delta_omega", delta_omega)
    # bin numbers must stay exact integers in float64
    if not omega_ceiling / delta_omega <= 2.0 ** 53:
        raise FrequencyAxisError(
            f"delta_omega {delta_omega!r} gives over 2**53 bins")
    n_bins = math.ceil(omega_ceiling / delta_omega)

    # the repeated first sample lets a one-sample branch cover its own bin;
    # an unbounded branch gets a last sample at the ceiling
    pairs, tags = [], []
    for curve in curves:
        for branch, bounded in zip(curve.branches, curve.asymptote_flags):
            om = np.r_[branch.omegas[:1], branch.omegas,
                       [] if bounded else [omega_ceiling]]
            pairs.append(np.sort(np.c_[om[:-1], om[1:]], axis=1))
            tags.append(f"{curve.block.value}:{branch.label}")
    owner = np.repeat(np.arange(len(tags)), [p.shape[0] for p in pairs])
    ranges = np.concatenate(pairs)
    keep = ranges[:, 0] < omega_ceiling
    bins = np.minimum(ranges[keep] / delta_omega, n_bins - 1).astype(np.int64)
    order = np.argsort(bins[:, 0])
    (first, last), owner = bins[order].T, owner[keep][order]

    # a run ends where the next range starts past every bin reached so far
    reach = np.maximum.accumulate(last)
    breaks = first[1:] > reach[:-1] + 1
    runs = np.column_stack([np.r_[first[:1], first[1:][breaks]],
                            np.r_[reach[:-1][breaks], reach[-1:]]])
    run_of = np.searchsorted(runs[:, 0], first, side="right") - 1
    at_edge = np.c_[first, last] == runs[run_of]
    edge_tags = [([], []) for _ in runs]
    for side in (0, 1):
        for r, o in np.unique(np.c_[run_of, owner][at_edge[:, side]],
                              axis=0).tolist():
            edge_tags[r][side].append(tags[o])
    return CoverageMap(omega_ceiling, delta_omega, n_bins, runs,
                       tuple((tuple(a), tuple(b)) for a, b in edge_tags))


def gaps_from_coverage(cov: CoverageMap, min_gap_width: float) -> tuple[Gap, ...]:
    """Maximal empty intervals of a coverage map, at bin resolution."""
    _check_axis("min_gap_width", min_gap_width, zero_ok=True)
    # the holes around the runs, as [first bin, end bin) pairs
    holes = np.c_[np.r_[0, cov.runs[:, 1] + 1],
                  np.r_[cov.runs[:, 0], cov.n_bins]]
    edges = holes[holes[:, 0] < holes[:, 1]] * cov.delta_omega
    edges[:, 1] = np.minimum(edges[:, 1], cov.omega_ceiling)
    wide = edges[:, 1] - edges[:, 0] >= min_gap_width
    return tuple(Gap(omega_lo=lo, omega_hi=hi)
                 for lo, hi in edges[wide].tolist())


def _blocks_for_scope(scope, include_uncoupled: bool):
    """Blocks to sweep, and the report names of the blocks they stand for."""
    if scope == COMPLETE:
        extra = (WaveBlock.UNCOUPLED,) if include_uncoupled else ()
        names = ("longitudinal", "transverse", "transverse-3")
        return ((WaveBlock.LONGITUDINAL, WaveBlock.TRANSVERSE) + extra,
                names + tuple(b.value for b in extra))
    if isinstance(scope, WaveBlock):
        return (scope,), (scope.value,)
    raise ValueError(f"scope must be a WaveBlock or {COMPLETE!r}: {scope!r}")


def default_omega_ceiling(model: ModelKind, elastic: ElasticParams,
                          inertia: InertiaParams) -> float:
    """Default detection ceiling: headroom above the largest cut-off."""
    largest = max(c.omega for cuts in cutoffs(model, elastic, inertia).values()
                  for c in cuts)
    return CEILING_HEADROOM * largest


def detect_gaps(model: ModelKind, elastic: ElasticParams,
                inertia: InertiaParams, scope=COMPLETE, *,
                grid: KGrid | None = None,
                omega_ceiling: float | None = None,
                delta_omega: float | None = None,
                min_gap_width: float | None = None,
                include_uncoupled: bool = False) -> GapReport:
    """Sweep the requested blocks and report their band-gaps.

    ``scope`` is a single WaveBlock for a per-block report or ``COMPLETE``
    for the intersection over the displacement-coupled blocks (optionally
    also the uncoupled one, see the module docstring).
    """
    if grid is None:
        grid = default_grid(elastic, inertia)
    if omega_ceiling is None:
        omega_ceiling = default_omega_ceiling(model, elastic, inertia)
    if delta_omega is None:
        delta_omega = omega_ceiling / CEILING_TO_DELTA
    if min_gap_width is None:
        min_gap_width = omega_ceiling / CEILING_TO_MIN_GAP

    blocks, block_names = _blocks_for_scope(scope, include_uncoupled)
    curves = [sweep(model, elastic, inertia, blk, grid) for blk in blocks]
    cov = coverage(curves, omega_ceiling, delta_omega)
    gaps = gaps_from_coverage(cov, min_gap_width)

    scope_name = scope if isinstance(scope, str) else scope.value
    return GapReport(gaps=gaps, scope=scope_name, blocks=block_names,
                     omega_ceiling=omega_ceiling, delta_omega=delta_omega,
                     min_gap_width=min_gap_width, model=model,
                     elastic=elastic, inertia=inertia)
