"""Frequency coverage and band-gap detection.

A block's spectrum is the union of the frequency ranges of its columns:
the sorted eigenvalues of a coupled block or the micro modes of the
uncoupled one.  Each column is continuous in k (Weyl's inequality; Kato,
Perturbation Theory for Linear Operators), so it takes every value from its
min to its max, with no branch continuation.  Past the end of the grid, a
saturated column stops at its asymptote, while an unbounded one keeps
rising to the ceiling (by default 1.5 times the largest k = 0 frequency,
read from row 0 of the report's own solves).  The coverage is the union of
these ranges, merged after a sort.  Sampled ranges are an inner
approximation: an extremum or an exact crossing between two samples can be
missed by up to one step's change.

Band-gaps are the holes between the merged runs wider than a minimum width.
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

from .assembly import model_blocks
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
class CoverageMap:
    """Occupied bins of the frequency axis up to a ceiling.

    ``runs[r] = (first_bin, last_bin)`` are the maximal occupied runs in
    ascending order.  Column ``owners[i] % 3`` of block
    ``names[owners[i] // 3]`` covers the bins ``owner_bins[i]``.
    """

    omega_ceiling: float
    delta_omega: float
    n_bins: int
    runs: np.ndarray
    names: tuple[str, ...]
    owners: np.ndarray
    owner_bins: np.ndarray

    @property
    def edge_tags(self) -> tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]:
        """Per run, the ``block:column`` names of the columns that reach its
        first and its last bin (the owners of the gap edges just below and
        above it), in block-then-column order; built on demand."""
        bins = self.owner_bins
        run = np.searchsorted(self.runs[:, 0], bins[:, 0], "right") - 1
        return tuple(tuple(tuple(f"{self.names[c // 3]}:{c % 3}"
                                 for c in self.owners[(run == r) & edge])
                           for edge in (bins == self.runs[run]).T)
                     for r in range(len(self.runs)))


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


def coverage(spectra, omega_ceiling: float, delta_omega: float) -> CoverageMap:
    """Union of the frequency bins reached by any column of the spectra.

    ``spectra`` holds one ``(name, omegas (n_k, 3), bounded (3,))`` per
    block.  A column covers [min, max] of its samples (module docstring),
    or [min, ceiling] when unbounded.  Binning (min(x, ceiling) /
    delta_omega, floored, clipped to the first and last bin) is monotone,
    so a column covers the bins of its min to its max, and none if its min
    is at or above the ceiling.  Columns are reduced in numpy; their few
    ranges are binned, sorted and merged as Python numbers.
    """
    _check_axis("omega_ceiling", omega_ceiling)
    _check_axis("delta_omega", delta_omega)
    # bin numbers must stay exact integers in float64
    if not omega_ceiling / delta_omega <= 2.0 ** 53:
        raise FrequencyAxisError(
            f"delta_omega {delta_omega!r} gives over 2**53 bins")
    n_bins = math.ceil(omega_ceiling / delta_omega)

    spectra, ranges = list(spectra), []
    for _, omegas, bounded in spectra:
        columns = np.transpose(omegas).copy()   # rows: fast to reduce
        ranges += zip(columns.min(axis=1).tolist(), np.where(
            bounded, columns.max(axis=1), omega_ceiling).tolist())
    owners = [c for c, (lo, _) in enumerate(ranges) if lo < omega_ceiling]
    owner_bins = [[int(min(max(min(x, omega_ceiling) / delta_omega, 0.0),
                           n_bins - 1)) for x in ranges[c]] for c in owners]

    # a run ends where the next range starts past every bin reached so far
    runs = []
    for first, last in sorted(owner_bins):
        if not runs or first > runs[-1][1] + 1:
            runs.append([first, last])
        runs[-1][1] = max(runs[-1][1], last)
    return CoverageMap(omega_ceiling, delta_omega, n_bins,
                       np.array(runs, np.int64).reshape(-1, 2),
                       tuple(name for name, _, _ in spectra),
                       np.array(owners, np.int64),
                       np.array(owner_bins, np.int64).reshape(-1, 2))


def gaps_from_coverage(cov: CoverageMap, min_gap_width: float) -> tuple[Gap, ...]:
    """Maximal empty intervals of a coverage map, at bin resolution."""
    _check_axis("min_gap_width", min_gap_width, zero_ok=True)
    # the holes around the runs, from the bin after a run to the next start
    bounds, gaps = [-1, *cov.runs.ravel().tolist(), cov.n_bins], []
    delta, ceiling = float(cov.delta_omega), float(cov.omega_ceiling)
    for last, end in zip(bounds[::2], bounds[1::2]):
        lo, hi = (last + 1) * delta, min(end * delta, ceiling)
        if last + 1 < end and hi - lo >= min_gap_width:
            gaps.append(Gap(omega_lo=lo, omega_hi=hi))
    return tuple(gaps)


def _solved(store: dict, model, bs, k) -> np.ndarray:
    """``solve_block`` omegas, solved once per ``store`` and byte-equal key."""
    key = (bs.block, *(a.tobytes() for a in (k, bs.M0, bs.M2, bs.K0, bs.K1,
                                              bs.K2)))
    if key not in store:
        store[key] = solve_block(model, bs, k, vectors=False)[0]
    return store[key]


def _spectrum(store, model, bs, grid: KGrid):
    """``(name, omegas, bounded)`` of a built block: an uncoupled column is
    bounded exactly when K2_ii = 0, a coupled one by ``detect_asymptote``."""
    omegas = _solved(store, model, bs, grid.values)
    bounded = (np.diagonal(bs.K2) == 0.0 if bs.block is WaveBlock.UNCOUPLED
               else detect_asymptote(omegas, grid).tolist())
    return bs.block.value, omegas, bounded


def _ceiling(store, model, blocks, spectra) -> float:
    """Headroom above the largest k = 0 frequency: row 0 of each solved
    spectrum, else a k = 0 solve (closed form if uncoupled) of the block."""
    rows = {name: omegas[0] for name, omegas, _ in spectra}
    rows.update((b.value, _solved(store, model, bs, np.zeros(1))[0])
                for b, bs in blocks.items() if b.value not in rows)
    return CEILING_HEADROOM * float(max(row.max() for row in rows.values()))


def default_omega_ceiling(model: ModelKind, elastic: ElasticParams,
                          inertia: InertiaParams) -> float:
    """Default detection ceiling: headroom above the largest cut-off, from
    k = 0 solves of the blocks, as ``detect_gaps`` reads it from row 0."""
    return _ceiling({}, model, model_blocks(model, elastic, inertia), ())


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
    also the uncoupled one, see the module docstring).  Each block is built
    and solved once, on the model's ``default_grid`` unless ``grid`` is given.
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
    spectra = [_spectrum(store, model, built[b], grid) for b in blocks]
    if omega_ceiling is None:
        omega_ceiling = _ceiling(store, model, built, spectra)
    if delta_omega is None:
        delta_omega = omega_ceiling / CEILING_TO_DELTA
    if min_gap_width is None:
        min_gap_width = omega_ceiling / CEILING_TO_MIN_GAP

    gaps = gaps_from_coverage(coverage(spectra, omega_ceiling, delta_omega),
                              min_gap_width)
    return GapReport(gaps=gaps, scope=scope, blocks=block_names,
                     omega_ceiling=omega_ceiling, delta_omega=delta_omega,
                     min_gap_width=min_gap_width, model=model,
                     elastic=elastic, inertia=inertia)
