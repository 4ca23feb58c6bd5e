"""Frequency coverage and band-gap detection.

A branch covers every frequency bin (width delta_omega) from its smallest
to its largest sample: the bin ranges of its consecutive sample pairs chain
into that one range, so a coarse grid can never fake a gap.  Past the end
of the wavenumber grid, a saturated branch stops at its asymptote, while an
unbounded one keeps rising and covers everything up to the ceiling.  The
coverage is the union of these ranges, one per branch, merged after a sort.

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
    """Coverage got no curves, or curves from different parameter sets."""


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
    """Union of the frequency bins reachable by any branch of the curves.

    A branch covers the bins of the [min, max] of its samples, the ceiling
    being one more sample of an unbounded branch.  That is exactly the union
    over its consecutive sample pairs: their ranges share endpoints, so they
    chain into [min, max], and binning (x / delta_omega, truncated, clamped
    to the last bin) is monotone.  A pair at or above the ceiling is dropped
    and one that crosses it reaches the last bin, so a branch drops out just
    when its min is at or above the ceiling, and it reaches a run's first
    or last bin just when one of its pairs does.  ``edge_tags`` name those
    branches in curve-then-branch order.
    """
    curves = list(curves)
    if len({c.parameter_key() for c in curves}) != 1:
        raise InconsistentInputsError(
            "coverage needs curves of exactly one parameter set")
    _check_axis("omega_ceiling", omega_ceiling)
    _check_axis("delta_omega", delta_omega)
    # bin numbers must stay exact integers in float64
    if not omega_ceiling / delta_omega <= 2.0 ** 53:
        raise FrequencyAxisError(
            f"delta_omega {delta_omega!r} gives over 2**53 bins")
    n_bins = math.ceil(omega_ceiling / delta_omega)

    tags = [f"{c.block.value}:{b.label}" for c in curves for b in c.branches]
    ranges = np.array([(b.omegas.min(), b.omegas.max() if bounded
                        else max(b.omegas.max(), omega_ceiling))
                       for c in curves
                       for b, bounded in zip(c.branches, c.asymptote_flags)])
    owner = np.flatnonzero(ranges[:, 0] < omega_ceiling)
    bins = np.minimum(ranges[owner] / delta_omega, n_bins - 1).astype(np.int64)
    first, last = bins[np.argsort(bins[:, 0])].T

    # a run ends where the next range starts past every bin reached so far
    reach = np.maximum.accumulate(last)
    breaks = first[1:] > reach[:-1] + 1
    runs = np.column_stack([np.r_[first[:1], first[1:][breaks]],
                            np.r_[reach[:-1][breaks], reach[-1:]]])
    run_of = np.searchsorted(runs[:, 0], bins[:, 0], side="right") - 1
    at_edge = bins == runs[run_of]
    edge_tags = tuple(tuple(tuple(tags[o] for o in owner[(run_of == r) & edge])
                            for edge in at_edge.T) for r in range(len(runs)))
    return CoverageMap(omega_ceiling, delta_omega, n_bins, runs, edge_tags)


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
