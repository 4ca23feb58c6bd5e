"""Frequency coverage and band-gap detection.

A block's spectrum is the union of the frequency ranges of its columns:
the sorted eigenvalues of a coupled block or the micro modes of the
uncoupled one.  Each column is continuous in k (Weyl's inequality; Kato,
Perturbation Theory for Linear Operators), so it takes every value from its
min to its max, with no branch continuation.  Past the end of the grid, a
saturated column stops at its asymptote, while an unbounded one keeps rising
to the ceiling (``default_omega_ceiling``: 1.5 times the largest cut-off,
omega_s, omega_r or omega_p, read from row 0 of the coupled blocks' solves;
the micro modes' are omega_s, omega_r, omega_s).  A spectrum is kept as its
``column_ranges``, [min, max] or [min, inf); ``band_gaps`` bins them in one
sorted sweep.  Sampled ranges are an inner approximation: an extremum or an
exact crossing between two samples can be missed by up to one step's change.
A union can only grow, so a report stops solving blocks once the ranges
solved join up from 0 to an unbounded column: no later block, ceiling or
bin width can open a gap in [0, inf).  Block structure can say so first: a
coupled block has 3 - rank(K2 on null(M2)) bounded columns, none if its
M2_uu = 0 and the curvature is the identity on P (K2's micro part is then
mu_e L_c^2 times the identity), and with none its lowest column rises from
0 (K0's u row is 0) unbounded: a scope with one is gap-free before any solve.

Band-gaps are the holes in the binned union wider than a minimum width.
The "complete" scope intersects the longitudinal and both transverse blocks
(identical, so solved once): an interval counts as a complete gap when no
displacement-coupled plane wave propagates there at any wavenumber.  The
displacement-free micro-modes can be added with ``include_uncoupled``; they
are left out by default because several model variants let those modes
sweep the whole frequency axis, hiding the optic-branch gaps that the
coupled blocks exhibit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .assembly import _identity_curvature, model_blocks
from .core import ElasticParams, InertiaParams, ModelKind, WaveBlock
from .dispersion import KGrid, default_grid, detect_asymptote, solve_block

COMPLETE = "complete"

# ceiling = headroom * largest cut-off; bin and width defaults resolve the
# narrowest gaps the five variants produce while rejecting grid noise
CEILING_HEADROOM = 1.5
CEILING_TO_DELTA = 4000.0
CEILING_TO_MIN_GAP = 400.0


class FrequencyAxisError(ValueError):
    """A frequency-axis setting (ceiling, bin width, gap width) is invalid."""


def _check_axis(key: str, value: float, *, zero_ok: bool = False) -> None:
    if not (math.isfinite(value) and (value > 0.0 or zero_ok and value == 0)):
        bound = ">= 0" if zero_ok else "> 0"
        raise FrequencyAxisError(f"{key} must be finite and {bound}, "
                                 f"got {value!r}")


@dataclass(frozen=True)
class Gap:
    """A frequency interval [omega_lo, omega_hi] free of propagating waves."""

    omega_lo: float
    omega_hi: float


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


def band_gaps(ranges, omega_ceiling: float, delta_omega: float,
              min_gap_width: float) -> tuple[Gap, ...]:
    """Maximal empty intervals of the column ranges' union up to a ceiling,
    at bin resolution, at least ``min_gap_width`` wide.

    ``ranges`` holds one ``(lo, hi)`` pair per column, as ``column_ranges``
    makes them: [min, max] of its samples, or [min, inf) when unbounded; a
    lo not finite or above its hi raises ``FrequencyAxisError``.  Binning
    (min(x, ceiling) / delta_omega, floored, clipped to the bins) is
    monotone, so a column covers the bins of its lo to its hi, none if its
    lo is at or above the ceiling; the few ranges are sorted and swept once.
    """
    _check_axis("omega_ceiling", omega_ceiling)
    _check_axis("delta_omega", delta_omega)
    # bin numbers must stay exact integers in float64
    if not omega_ceiling / delta_omega <= 2.0 ** 53:
        raise FrequencyAxisError(
            f"delta_omega {delta_omega!r} gives over 2**53 bins")
    _check_axis("min_gap_width", min_gap_width, zero_ok=True)
    ranges = list(ranges)
    for i, (lo, hi) in enumerate(ranges):   # hi = inf: unbounded
        if not (math.isfinite(lo) and lo <= hi):
            raise FrequencyAxisError(f"range {i} must have a finite lo <= "
                                     f"hi, got ({lo!r}, {hi!r})")
    n_bins = math.ceil(omega_ceiling / delta_omega)
    delta, ceiling = float(delta_omega), float(omega_ceiling)

    # a hole runs from the bin after every bin reached so far to the next
    # range's first bin; the sentinel range closes the last one at n_bins
    reach, gaps = -1, []
    for first, last in [*sorted(
            [int(min(max(min(x, omega_ceiling) / delta_omega, 0.0),
                     n_bins - 1)) for x in pair]
            for pair in ranges if pair[0] < omega_ceiling), [n_bins, n_bins]]:
        lo, hi = (reach + 1) * delta, min(first * delta, ceiling)
        if first > reach + 1 and hi - lo >= min_gap_width:
            gaps.append(Gap(omega_lo=lo, omega_hi=hi))
        reach = max(reach, last)
    return tuple(gaps)


def column_ranges(omegas, bounded) -> list[tuple[float, float]]:
    """(min, max) of each column's samples, (min, inf) when unbounded."""
    columns = np.transpose(omegas).copy()   # rows: fast to reduce
    return list(zip(columns.min(axis=1).tolist(), np.where(
        bounded, columns.max(axis=1), math.inf).tolist()))


def _gap_free(ranges) -> bool:
    """Whether the ranges join up from 0 to an unbounded one: their union
    is [0, inf), with no hole for any added range, ceiling or bin width."""
    reach = 0.0
    for lo, hi in sorted(ranges):
        if lo <= reach:
            reach = max(reach, hi)
    return reach == math.inf


def _solved(store: dict, model, bs, k) -> np.ndarray:
    """``solve_block`` omegas, solved once per ``store`` and byte-equal key."""
    key = (bs.block, *(a.tobytes() for a in (k, bs.M0, bs.M2, bs.K0, bs.K1,
                                              bs.K2)))
    if key not in store:
        store[key] = solve_block(model, bs, k, vectors=False)[0]
    return store[key]


def _spectrum(store, model, bs, grid: KGrid):
    """A built block's k = 0 row and ``column_ranges``: an uncoupled column is
    bounded exactly when K2_ii = 0, a coupled one by ``detect_asymptote``."""
    omegas = _solved(store, model, bs, grid.values)
    bounded = (np.diagonal(bs.K2) == 0.0 if bs.block is WaveBlock.UNCOUPLED
               else detect_asymptote(omegas, grid).tolist())
    return omegas[0], column_ranges(omegas, bounded)


def _unbounded(model, bs) -> bool:
    """Whether a coupled block has no bounded column: K2 is nonsingular on
    null(M2), as 3 - that rank columns are bounded.  M2 is diagonal on u
    alone and K2 couples no u with P, so that is M2_uu = 0, K2_uu > 0 and a
    nonsingular micro part of K2: with identity curvature (checked exactly,
    once per model) mu_e L_c^2 times the identity, so one not 0 as built."""
    return (bs.block is not WaveBlock.UNCOUPLED and bs.M2[0, 0] == 0.0
            and bs.K2[0, 0] > 0.0 and _identity_curvature(model)
            and bs.K2[1:, 1:].any())


def default_omega_ceiling(rows) -> float:
    """Default detection ceiling: headroom above the largest frequency of
    the given k = 0 rows, a block's cut-offs or row 0 of its solve."""
    return CEILING_HEADROOM * float(max(map(max, rows)))


def _ceiling(store, model, blocks, rows) -> float:
    """``default_omega_ceiling`` of the k = 0 rows solved and of a k = 0 solve
    of each coupled block unsolved, whose cut-offs hold the micro modes'."""
    return default_omega_ceiling([*rows.values(), *(
        _solved(store, model, blocks[b], np.zeros(1))[0] for b in (
            WaveBlock.LONGITUDINAL, WaveBlock.TRANSVERSE) if b not in rows)])


def detect_gaps(model, elastic, inertia, scope=COMPLETE, **options):
    """The GapReport of one run: ``gap_reports`` of it alone."""
    return next(gap_reports([(model, elastic, inertia, scope, options)]))


def gap_reports(runs):
    """Yield the report of each ``(model, elastic, inertia, scope, options)``
    run (``options``: the keywords of ``_report``), taking each run after the
    previous report; each distinct block solve is made once per call."""
    store = {}
    for model, elastic, inertia, scope, options in runs:
        yield _report(store, model, elastic, inertia, scope, **options)


def _report(store, model, elastic, inertia, scope=COMPLETE, *, grid=None,
            omega_ceiling=None, delta_omega=None, min_gap_width=None,
            include_uncoupled=False) -> GapReport:
    """Solve the requested blocks and report their band-gaps.

    ``scope`` is a single WaveBlock for a per-block report or ``COMPLETE``
    for the intersection over the displacement-coupled blocks (optionally
    also the uncoupled one, see the module docstring).  The blocks are built
    once and solved in that order, each once, on the model's
    ``default_grid`` unless ``grid`` is given, until the ranges solved leave
    no hole (``_gap_free``); the default ceiling adds a k = 0 solve of each
    coupled block not solved.  A coupled block in scope with no bounded
    column (``_unbounded``) leaves no hole before the first.
    """
    if grid is None:
        grid = default_grid(elastic, inertia, model=model)
    if scope == COMPLETE:
        extra = (WaveBlock.UNCOUPLED,) if include_uncoupled else ()
        blocks = (WaveBlock.LONGITUDINAL, WaveBlock.TRANSVERSE, *extra)
        block_names = ("longitudinal", "transverse", "transverse-3",
                       *(b.value for b in extra))
    elif isinstance(scope, WaveBlock):
        blocks, block_names, scope = (scope,), (scope.value,), scope.value
    else:
        raise ValueError(f"scope must be a WaveBlock or {COMPLETE!r}: "
                         f"{scope!r}")
    built = model_blocks(model, elastic, inertia)
    rows, ranges = {}, []
    if any(_unbounded(model, built[b]) for b in blocks):
        ranges.append((0.0, math.inf))   # that block's lowest column
    for b in blocks:
        if _gap_free(ranges):
            break
        rows[b], block_ranges = _spectrum(store, model, built[b], grid)
        ranges += block_ranges
    if omega_ceiling is None:
        omega_ceiling = _ceiling(store, model, built, rows)
    if delta_omega is None:
        delta_omega = omega_ceiling / CEILING_TO_DELTA
    if min_gap_width is None:
        min_gap_width = omega_ceiling / CEILING_TO_MIN_GAP

    gaps = band_gaps(ranges, omega_ceiling, delta_omega, min_gap_width)
    return GapReport(gaps=gaps, scope=scope, blocks=block_names,
                     omega_ceiling=omega_ceiling, delta_omega=delta_omega,
                     min_gap_width=min_gap_width, model=model,
                     elastic=elastic, inertia=inertia)
