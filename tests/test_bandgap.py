import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import mmbands.assembly
import mmbands.bandgap
import mmbands.dispersion
import mmbands.eigensolve
from mmbands.assembly import model_blocks
from mmbands.bandgap import (CEILING_TO_DELTA, CEILING_TO_MIN_GAP, COMPLETE,
                             FrequencyAxisError, GapReport, _ceiling,
                             _gap_free, _spectrum, _unbounded, band_gaps,
                             column_ranges, default_omega_ceiling,
                             detect_gaps, gap_reports)
from mmbands.core import ElasticParams, InertiaParams, ModelKind, WaveBlock
from mmbands.dispersion import (KGrid, cutoffs, default_grid,
                                detect_asymptote, solve_block, sweep)
from mmbands.eigensolve import EigenSolveError, NegativeEigenvalueError

from conftest import (MU_E_MPA, LAMBDA_E_MPA, MU_C_MPA, MU_MICRO_MPA,
                      LAMBDA_MICRO_MPA, L_C_MM, RHO, ETA, ETA_BAR)
from oracles import (CURVATURE_COLUMNS, binned_coverage,
                     curvature_micro_rank, wide_cone)


def spectrum(columns, bounded):
    """Hand-built block spectrum: three equally long columns of omegas."""
    return np.column_stack(columns).astype(float), bounded


def ranges_of(spectra):
    """The ``column_ranges`` of ``(omegas, bounded)`` spectra, in order: what
    ``band_gaps`` takes."""
    return [r for pair in spectra for r in column_ranges(*pair)]


def cutoff_rows(model, elastic, inertia):
    """The k = 0 rows of ``cutoffs``, one per block."""
    return [[c.omega for c in cuts]
            for cuts in cutoffs(model, elastic, inertia).values()]


def random_spectra(rng):
    """A random frequency axis (ceiling, bin width, gap width) and one to
    three block spectra whose columns stress the binning: constants in the
    low bins, samples on bin edges, ranges above or over the ceiling,
    interior extrema and dips below zero."""
    ceiling = float(rng.uniform(1.0e3, 1.0e5))
    # an exact divisor in half the trials, a ragged last bin in the others
    ratio = (float(rng.integers(50, 600)) if rng.random() < 0.5
             else float(rng.uniform(50.0, 600.0)))
    delta = ceiling / ratio
    width = float(rng.choice([0.0, delta, 3.7 * delta]))
    spectra = []
    for _ in range(int(rng.integers(1, 4))):
        n = int(rng.choice([1, 2, 60]))
        columns = []
        for _ in range(3):
            walk = ceiling * np.abs(np.cumsum(
                rng.normal(0.0, 0.05, n)) + rng.uniform(0.0, 1.2))
            kind = rng.integers(7)
            phase = np.linspace(0.0, np.pi, n)
            if kind == 0:      # constant, in one of the low bins
                walk = np.full(n, delta * rng.uniform(0.0, 8.0))
            elif kind == 1:    # exactly on bin edges
                walk = np.round(walk / delta) * delta
            elif kind == 2:    # mostly above the ceiling
                walk = walk + ceiling
            elif kind == 3:    # a hump over the ceiling and back
                walk = ceiling * (rng.uniform(0.0, 0.9)
                                  + 1.5 * np.sin(phase))
            elif kind == 4:    # min and max at interior samples
                walk = ceiling * (rng.uniform(0.4, 0.6)
                                  + rng.uniform(0.05, 0.4)
                                  * np.sin(2.0 * phase))
            elif kind == 5:    # a dip below zero, several bins deep
                walk = ceiling * (rng.uniform(0.0, 0.3)
                                  - rng.uniform(0.05, 0.5) * np.sin(phase))
            columns.append(walk)
        flags = tuple(bool(f) for f in rng.integers(0, 2, 3))
        spectra.append(spectrum(columns, flags))
    return ceiling, delta, width, spectra


def reference_sets():
    """The reference set without and with gradient inertia."""
    elastic = ElasticParams.from_engineering(
        MU_E_MPA, LAMBDA_E_MPA, MU_C_MPA, MU_MICRO_MPA, LAMBDA_MICRO_MPA,
        L_C_MM)
    return [(elastic, InertiaParams(rho=RHO, eta=ETA).with_eta_bar(eta_bar))
            for eta_bar in (0.0, ETA_BAR)]


def wide_cone_sets(*seeds):
    """The 24 wide_cone sets of each seed, as parameter objects."""
    return [(ElasticParams(**e), InertiaParams(**i))
            for seed in seeds for e, i in wide_cone(seed, 24)]


def ceiling_sets():
    """The reference set with and without gradient inertia, each also at
    mu_c = 0 and at L_c = 0, and the wide_cone(100) sets."""
    sets = [(variant, inertia) for elastic, inertia in reference_sets()
            for variant in (elastic, replace(elastic, mu_c=0.0),
                            replace(elastic, L_c=0.0))]
    return sets + wide_cone_sets(100)


def counting_solves(monkeypatch):
    """Patch the solve that gap detection calls; the returned list gets one
    ``(block, number of k)`` entry per call, and a single k must be 0."""
    solves = []
    solve = mmbands.bandgap.solve_block

    def counting_solve(model, bs, k, **kwargs):
        assert len(k) > 1 or k[0] == 0.0
        solves.append((bs.block, len(k)))
        return solve(model, bs, k, **kwargs)

    monkeypatch.setattr(mmbands.bandgap, "solve_block", counting_solve)
    return solves


def all_blocks_report(model, elastic, inertia, grid=None,
                      include_uncoupled=False):
    """A complete report with every block in scope solved on the whole grid
    before the gaps are read: the path without the early stop, kept as the
    reference."""
    if grid is None:
        grid = default_grid(elastic, inertia, model=model)
    built, store = model_blocks(model, elastic, inertia), {}
    spectra = {b: _spectrum(store, model, built[b], grid)
               for b in list(WaveBlock)[:2 + include_uncoupled]}
    ceiling = _ceiling(store, model, built,
                       {b: row for b, (row, _) in spectra.items()})
    ranges = [r for _, block_ranges in spectra.values() for r in block_ranges]
    delta, width = ceiling / CEILING_TO_DELTA, ceiling / CEILING_TO_MIN_GAP
    return GapReport(
        gaps=band_gaps(ranges, ceiling, delta, width),
        scope=COMPLETE, blocks=("longitudinal", "transverse", "transverse-3")
        + ("uncoupled",) * include_uncoupled, omega_ceiling=ceiling,
        delta_omega=delta, min_gap_width=width, model=model, elastic=elastic,
        inertia=inertia)


class TestBandGaps:
    CEILING = 1.0e6
    DELTA = 250.0

    def holes(self, ranges, width=0.0):
        """``band_gaps`` on this class's axis as (lo, hi) pairs; at width 0
        they are the complement of the occupied runs of bins."""
        return [(g.omega_lo, g.omega_hi)
                for g in band_gaps(ranges, self.CEILING, self.DELTA, width)]

    def test_constant_column_occupies_single_bin(self):
        omega0 = 4.0e5 + 0.3 * self.DELTA      # mid-bin
        spectra = [spectrum([np.full(60, omega0)] * 3, (True,) * 3)]
        b = int(omega0 / self.DELTA)
        assert self.holes(ranges_of(spectra)) == [
            (0.0, b * self.DELTA), ((b + 1) * self.DELTA, self.CEILING)]

    def test_linear_column_covers_contiguously(self):
        k = np.linspace(0.0, 1.0e5, 60)
        omegas = 3.0 * k                      # tops out below the ceiling
        ranges = ranges_of([spectrum([omegas] * 3, (True,) * 3)])
        top_bin = int(3.0e5 / self.DELTA)
        assert self.holes(ranges) == [
            ((top_bin + 1) * self.DELTA, self.CEILING)]
        assert self.holes(ranges, 10 * self.DELTA) == (
            self.holes(ranges, 10 * self.DELTA))
        # exactly one trailing empty region
        assert len(self.holes(ranges, 10 * self.DELTA)) == 1

    def test_unbounded_column_extends_to_ceiling(self):
        k = np.linspace(0.0, 1.0e5, 60)
        assert self.holes(ranges_of(
            [spectrum([3.0 * k] * 3, (False,) * 3)])) == []

    def test_range_bridges_coarse_samples(self):
        # two samples far apart must still cover everything between them
        omegas = np.concatenate([np.full(30, 1.0e5), np.full(30, 9.0e5)])
        lo = int(1.0e5 / self.DELTA)
        hi = int(9.0e5 / self.DELTA)
        assert self.holes(ranges_of(
            [spectrum([omegas] * 3, (True,) * 3)])) == [
            (0.0, lo * self.DELTA), ((hi + 1) * self.DELTA, self.CEILING)]

    def test_nothing_below_the_ceiling_leaves_one_full_gap(self):
        spectra = [spectrum([np.full(60, 2.0 * self.CEILING)] * 3,
                            (False, True, True))]
        assert self.holes(ranges_of(spectra)) == [(0.0, self.CEILING)]

    def test_no_ranges_cover_nothing(self):
        assert self.holes([]) == [(0.0, self.CEILING)]

    @pytest.mark.parametrize("levels, runs", [
        ((), 0),                                        # no spectra
        ((2.0e6, 3.0e6, 4.0e6), 0),                     # all above the top
        ((1.0e5, 2.0e6, 1.0e5), 1),
        ((1.0e5, 5.0e5, 9.0e5, 1.0e5, 2.0e6, 5.0e5), 3)])
    def test_edges_are_floats_around_fixed_runs(self, levels, runs):
        # constants in interior bins: one hole more than occupied runs
        spectra = [spectrum([np.full(60, x) for x in levels[i:i + 3]],
                            (True,) * 3)
                   for i in range(0, len(levels), 3)]
        gaps = band_gaps(ranges_of(spectra), self.CEILING, self.DELTA, 0.0)
        assert len(gaps) == runs + 1
        assert all(type(x) is float
                   for g in gaps for x in (g.omega_lo, g.omega_hi))

    def test_ranges_may_be_any_iterable(self):
        spectra = [spectrum([np.full(60, 4.0e5)] * 3, (True,) * 3)]
        b = int(4.0e5 / self.DELTA)
        assert self.holes(iter(ranges_of(spectra))) == [
            (0.0, b * self.DELTA), ((b + 1) * self.DELTA, self.CEILING)]

    @pytest.mark.parametrize("key, value", [
        ("omega_ceiling", 0.0), ("omega_ceiling", -1.0),
        ("omega_ceiling", math.nan), ("omega_ceiling", math.inf),
        ("delta_omega", 0.0), ("delta_omega", -5.0),
        ("delta_omega", math.inf), ("delta_omega", 1.0e-300),
        ("delta_omega", 1.0e-12), ("min_gap_width", -1.0),
        ("min_gap_width", math.nan), ("min_gap_width", math.inf)])
    def test_bad_frequency_axis_rejected(self, key, value):
        spectra = [spectrum([np.full(60, 1.0e5)] * 3, (True,) * 3)]
        axis = {"omega_ceiling": self.CEILING, "delta_omega": self.DELTA,
                "min_gap_width": 0.0, key: value}
        with pytest.raises(FrequencyAxisError, match=key):
            band_gaps(ranges_of(spectra), axis["omega_ceiling"],
                      axis["delta_omega"], axis["min_gap_width"])

    @pytest.mark.parametrize("axis, key", [
        ((0.0, 0.0, -1.0), "omega_ceiling"),
        ((1.0e6, 0.0, -1.0), "delta_omega"),
        ((1.0e6, 1.0e-12, -1.0), "delta_omega .* over 2\\*\\*53 bins"),
        ((1.0e6, 250.0, -1.0), "min_gap_width"),
        ((1.0e6, 250.0, 0.0), "range 0")])
    def test_axis_is_checked_in_order(self, axis, key):
        # the ceiling, the bin width, the bin count, the gap width, then
        # the ranges
        with pytest.raises(FrequencyAxisError, match=key):
            band_gaps([(2.0e5, 1.0e5)], *axis)

    @pytest.mark.parametrize("pair", [
        (0.0, math.nan), (math.nan, 1.0), (math.inf, math.inf),
        (-math.inf, 1.0), (5.0, 1.0), (1.0, -math.inf)])
    def test_bad_range_rejected(self, pair):
        # a lo not finite, a hi that is nan or a hi below lo is named by its
        # index and values, not dropped, binned or failed on as a float
        with pytest.raises(FrequencyAxisError, match=re.escape(
                f"range 1 must have a finite lo <= hi, got {pair!r}")):
            band_gaps(iter([(1.0e5, 2.0e5), pair]), self.CEILING,
                      self.DELTA, 0.0)

    def test_matches_bin_marking_oracle(self):
        rng = np.random.default_rng(20161017)
        for _ in range(150):
            ceiling, delta, width, spectra = random_spectra(rng)
            columns = [(omegas[:, c], flags[c])
                       for omegas, flags in spectra for c in range(3)]
            ranges = ranges_of(spectra)
            for w in (width, 0.0):
                gaps, occupied = binned_coverage(columns, ceiling, delta, w)
                got = band_gaps(ranges, ceiling, delta, w)
                assert [(g.omega_lo, g.omega_hi) for g in got] == gaps
            # the width-0 holes are the empty bins: the rest are occupied
            n_bins = math.ceil(ceiling / delta)
            assert n_bins - sum(
                (n_bins if g.omega_hi == ceiling
                 else round(g.omega_hi / delta)) - round(g.omega_lo / delta)
                for g in got) == occupied
            # maximal holes: an occupied bin separates each from the next
            assert all(g.omega_lo < g.omega_hi for g in got)
            assert all(a.omega_hi < b.omega_lo for a, b in zip(got, got[1:]))

    def test_depends_only_on_the_column_ranges(self):
        # regrouping the columns into blocks changes no gap, at any width:
        # shuffled across blocks (edge-padded to one length, which keeps
        # each range), or one block per column whose other two columns lie
        # above the ceiling (unbounded, so they would count if they reached
        # below it)
        rng = np.random.default_rng(20161017)
        for _ in range(150):
            ceiling, delta, width, spectra = random_spectra(rng)
            n = max(len(omegas) for omegas, _ in spectra)
            columns = [(np.pad(omegas[:, c], (0, n - len(omegas)), "edge"),
                        flags[c]) for omegas, flags in spectra
                       for c in range(3)]
            shuffled = [columns[i] for i in rng.permutation(len(columns))]
            above = np.full(n, 2.0 * ceiling)
            regroupings = (
                [spectrum([om for om, _ in shuffled[i:i + 3]],
                          tuple(f for _, f in shuffled[i:i + 3]))
                 for i in range(0, len(shuffled), 3)],
                [spectrum([om if j == i % 3 else above for j in range(3)],
                          tuple(f if j == i % 3 else False for j in range(3)))
                 for i, (om, f) in enumerate(columns)])
            want = {w: band_gaps(ranges_of(spectra), ceiling, delta, w)
                    for w in (width, 0.0)}
            for regrouped in regroupings:
                for w, gaps in want.items():
                    assert band_gaps(ranges_of(regrouped), ceiling, delta,
                                     w) == gaps

    @pytest.mark.parametrize("ranges, free", [
        ([(0.0, math.inf)], True),
        ([(0.0, 1.0), (1.0, math.inf)], True),           # touching ends
        ([(2.0, math.inf), (0.0, 5.0), (1.0, 2.0)], True),
        ([(-1.0, 1.0), (0.5, math.inf)], True),
        ([], False),
        ([(0.0, 1.0), (1.5, math.inf)], False),          # a hole
        ([(0.0, 1.0), (0.5, 2.0)], False),               # all bounded
        ([(1.0e-300, math.inf)], False),                 # not from 0
        ([(0.0, 1.0), (2.0, math.inf), (1.0, 1.5)], False)])
    def test_gap_free_ranges_join_zero_to_infinity(self, ranges, free):
        assert _gap_free(ranges) is free

    def test_joined_ranges_leave_no_gap_on_any_axis(self):
        # the premise of a report's early stop: columns whose ranges join up
        # from 0 to an unbounded one, among any others, leave no gap for any
        # ceiling, bin width or minimum width
        rng = np.random.default_rng(32)
        for _ in range(300):
            scale = 10.0 ** rng.uniform(-3.0, 8.0)
            n = int(rng.choice([2, 60]))
            columns, reach = [], 0.0
            for j in range(int(rng.integers(1, 7))):
                lo = reach * rng.choice([0.0, rng.uniform(), 1.0])
                hi = lo + scale * rng.uniform(0.0, 2.0)
                columns.append((lo, hi, rng.random() < 0.2))
                reach = max(reach, hi)
            columns.append((reach * rng.choice([rng.uniform(), 1.0]),
                            reach + scale, False))     # the unbounded one
            columns += [(lo, lo + scale * rng.uniform(0.0, 3.0),
                         rng.random() < 0.5) for lo in scale
                        * rng.uniform(0.0, 5.0, -len(columns) % 3)]
            sampled = []
            for lo, hi, bounded in columns:
                walk = rng.uniform(lo, hi, n)
                walk[rng.permutation(n)[:2]] = lo, hi
                sampled.append((walk, bounded))
            sampled = [sampled[i] for i in rng.permutation(len(sampled))]
            spectra = [spectrum([w for w, _ in sampled[i:i + 3]],
                                tuple(b for _, b in sampled[i:i + 3]))
                       for i in range(0, len(sampled), 3)]
            assert _gap_free(ranges_of(spectra))

            ceiling = scale * 10.0 ** rng.uniform(-2.0, 2.0)
            delta = ceiling / float(rng.choice(
                [rng.integers(1, 5000), rng.uniform(1.0, 5000.0)]))
            width = float(rng.choice([0.0, delta, rng.uniform(0.0, ceiling)]))
            for w in (width, 0.0):     # at width 0: no empty bin at all
                assert band_gaps(ranges_of(spectra), ceiling, delta, w) == ()
            assert binned_coverage(sampled, ceiling, delta, width)[0] == []


class TestDetectGaps:
    def test_curl_variant_all_four_blocks_single_gap(self, ref_elastic,
                                                     inertia_off):
        # with the gradient inertia off, even counting the uncoupled modes
        # there is exactly one complete stop band
        report = detect_gaps(ModelKind.RELAXED_CURL, ref_elastic, inertia_off,
                             COMPLETE, include_uncoupled=True)
        assert len(report.gaps) == 1
        assert report.blocks[-1] == "uncoupled"

    def test_curl_variant_gap_interval(self, ref_elastic, inertia_off):
        report = detect_gaps(ModelKind.RELAXED_CURL, ref_elastic, inertia_off)
        assert len(report.gaps) == 1
        gap = report.gaps[0]
        # bottom edge: saturated acoustic branch; top edge: first cut-off
        lon_limit = np.sqrt((2.0 * ref_elastic.mu_micro
                             + ref_elastic.lambda_micro) / inertia_off.eta)
        omega_s = np.sqrt(2.0 * (ref_elastic.mu_e + ref_elastic.mu_micro)
                          / inertia_off.eta)
        assert gap.omega_lo == pytest.approx(lon_limit, rel=5e-3)
        assert gap.omega_hi == pytest.approx(omega_s, rel=5e-3)

    def test_gradient_inertia_opens_second_gap(self, ref_elastic,
                                               inertia_on):
        report = detect_gaps(ModelKind.RELAXED_CURL, ref_elastic, inertia_on)
        assert len(report.gaps) == 2

    def test_mindlin_without_gradient_inertia_has_no_gap(self, ref_elastic,
                                                         inertia_off):
        report = detect_gaps(ModelKind.MINDLIN_ERINGEN, ref_elastic,
                             inertia_off)
        assert len(report.gaps) == 0

    def test_internal_variable_three_gaps_with_gradient_inertia(
            self, ref_elastic, inertia_on):
        report = detect_gaps(ModelKind.INTERNAL_VARIABLE, ref_elastic,
                             inertia_on)
        assert len(report.gaps) == 3

    @pytest.mark.parametrize("include_uncoupled, n_solves",
                             [(False, 2), (True, 3)])
    def test_complete_scope_solves_transverse_once(
            self, ref_elastic, inertia_off, monkeypatch, include_uncoupled,
            n_solves):
        grid = default_grid(ref_elastic)
        on_grid, at_zero = [], []

        def counting_solve(model, bs, k, **kwargs):
            k = np.asarray(k)
            assert k.tolist() in (grid.values.tolist(), [0.0])
            (on_grid if k.size == len(grid) else at_zero).append(bs.block)
            return solve_block(model, bs, k, **kwargs)

        monkeypatch.setattr(mmbands.bandgap, "solve_block", counting_solve)
        report = detect_gaps(ModelKind.RELAXED_CURL, ref_elastic, inertia_off,
                             grid=grid, include_uncoupled=include_uncoupled)
        assert len(on_grid) == n_solves
        assert on_grid.count(WaveBlock.TRANSVERSE) == 1
        # the ceiling reads the k = 0 rows of the coupled solves, so it
        # solves nothing at k = 0, not even an uncoupled block left out of
        # the scope, and no coupled block twice
        assert at_zero == []
        assert report.blocks == (("longitudinal", "transverse",
                                  "transverse-3")
                                 + ("uncoupled",) * include_uncoupled)

    @pytest.mark.parametrize("scope, include_uncoupled", [
        (COMPLETE, False), (COMPLETE, True), *((b, False) for b in WaveBlock)])
    def test_builds_the_blocks_once(self, ref_elastic, inertia_on,
                                    monkeypatch, scope, include_uncoupled):
        built = []

        def counting_blocks(*args):
            built.append(args)
            return model_blocks(*args)

        monkeypatch.setattr(mmbands.bandgap, "model_blocks", counting_blocks)
        monkeypatch.setattr(mmbands.dispersion, "model_blocks",
                            counting_blocks)
        monkeypatch.setattr(mmbands.assembly, "model_blocks", counting_blocks)
        detect_gaps(ModelKind.RELAXED_CURL, ref_elastic, inertia_on, scope,
                    include_uncoupled=include_uncoupled)
        assert len(built) == 1

    def test_never_continues_branches_or_classifies_modes(
            self, ref_elastic, inertia_on, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("gap detection needs sorted spectra only")

        for name in ("sweep", "_continue_branches", "classify_mode_stack"):
            monkeypatch.setattr(mmbands.dispersion, name, forbidden)
            monkeypatch.setattr(mmbands.bandgap, name, forbidden,
                                raising=False)
        for scope in (COMPLETE, WaveBlock.UNCOUPLED):
            detect_gaps(ModelKind.RELAXED_CURL, ref_elastic, inertia_on,
                        scope, include_uncoupled=True)

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_never_computes_eigenvectors(self, model, ref_elastic,
                                         inertia_on, monkeypatch):
        # every block spectrum, and the k = 0 row that fixes the ceiling,
        # comes from the eigenvalue-only solve; cutoffs() is not called
        cases = [(COMPLETE, False), (COMPLETE, True),
                 *((block, False) for block in WaveBlock)]

        def reports():
            return [detect_gaps(model, ref_elastic, inertia_on, scope,
                                include_uncoupled=include)
                    for scope, include in cases]

        want = reports()

        def forbidden(*args, **kwargs):
            raise AssertionError("gap detection needs eigenvalues only")

        def eigenvalues_only(*args):   # the reduced stack, then vectors
            assert args[5:] == (False,), "gap detection needs eigenvalues only"
            return solution(*args)

        solution = mmbands.dispersion._solution
        for name in ("cutoffs", "general_eig"):
            monkeypatch.setattr(mmbands.dispersion, name, forbidden)
            monkeypatch.setattr(mmbands.bandgap, name, forbidden,
                                raising=False)
        monkeypatch.setattr(mmbands.eigensolve, "general_eig_stack",
                            forbidden)
        monkeypatch.setattr(mmbands.dispersion, "_solution",
                            eigenvalues_only)
        assert reports() == want

    @pytest.mark.parametrize("seed, index, model", [
        (103, 19, ModelKind.RELAXED_CURL),
        (100, 15, ModelKind.INTERNAL_VARIABLE)])
    def test_wide_cone_gaps_match_a_fine_grid(self, seed, index, model):
        # the continued branches of the default grid jumped an avoided
        # crossing at the first step, and one unbounded branch hid the gap
        elastic, inertia = wide_cone(seed, 24)[index]
        elastic, inertia = ElasticParams(**elastic), InertiaParams(**inertia)
        fine = detect_gaps(model, elastic, inertia,
                           grid=default_grid(elastic, inertia, points=6400))
        assert len(fine.gaps) >= 1
        assert detect_gaps(model, elastic, inertia).gaps == fine.gaps

    def test_wide_scale_separation_gives_a_report(self):
        # roundoff entries of the unit tensors once made a false negative
        # eigenvalue (-112.5) of this admissible set at k = 2.97 rad/m
        elastic = ElasticParams(
            mu_e=1409.769906171723, lambda_e=5970.730126236356, mu_c=0.0,
            mu_micro=491097643980.8309, lambda_micro=4308445791396.6245,
            L_c=0.33732303648002165)
        inertia = InertiaParams(
            rho=18.54511583530982, eta=8.043196572761098e-07,
            eta_bar_1=0.006838647881467821, eta_bar_2=47.03589635229227,
            eta_bar_3=2.6350752182554876e-05)
        # on the 100 / L_c grid, which samples k = 2.97 rad/m, the
        # longitudinal acoustic column has not flattened by its end, so it
        # counts as rising to the ceiling: no gap
        report = detect_gaps(ModelKind.INTERNAL_VARIABLE, elastic, inertia,
                             grid=KGrid.linear(100.0 / elastic.L_c))
        assert report.gaps == ()
        # the model's default grid, 100 / sqrt(eta / rho), reaches its gaps
        report = detect_gaps(ModelKind.INTERNAL_VARIABLE, elastic, inertia)
        assert len(report.gaps) == 3

    def test_unknown_scope_is_named(self, ref_elastic, inertia_off):
        with pytest.raises(ValueError, match=re.escape(
                "scope must be a WaveBlock or 'complete': 'bogus'")):
            detect_gaps(ModelKind.RELAXED_CURL, ref_elastic, inertia_off,
                        scope="bogus")

    def test_per_block_scope(self, ref_elastic, inertia_off):
        report = detect_gaps(ModelKind.RELAXED_CURL, ref_elastic, inertia_off,
                             scope=WaveBlock.TRANSVERSE)
        assert report.scope == "transverse"
        assert report.blocks == ("transverse",)
        assert len(report.gaps) >= 1

    def test_per_block_gaps_contain_complete_gaps(self, ref_elastic,
                                                  inertia_on):
        model = ModelKind.RELAXED_CURL
        complete = detect_gaps(model, ref_elastic, inertia_on)
        for block in (WaveBlock.LONGITUDINAL, WaveBlock.TRANSVERSE):
            per_block = detect_gaps(model, ref_elastic, inertia_on,
                                    scope=block)
            for gap in complete.gaps:
                inside = any(p.omega_lo <= gap.omega_lo + 1e-9
                             and gap.omega_hi - 1e-9 <= p.omega_hi
                             for p in per_block.gaps)
                assert inside

    def test_gap_edges_bracketed_by_branch_extrema(self, ref_elastic,
                                                   inertia_on):
        # the continued branches of sweep reach the edges of the gaps found
        # on sorted columns
        model = ModelKind.RELAXED_CURL
        grid = default_grid(ref_elastic)
        report = detect_gaps(model, ref_elastic, inertia_on, grid=grid)
        tol = 2.0 * report.delta_omega

        maxima, minima = [], []
        for block in (WaveBlock.LONGITUDINAL, WaveBlock.TRANSVERSE):
            curve = sweep(model, ref_elastic, inertia_on, block, grid)
            for branch in curve.branches:
                minima.append(float(np.min(branch.omegas)))
                if detect_asymptote(branch.omegas, grid):
                    maxima.append(float(np.max(branch.omegas)))
        assert len(report.gaps) == 2
        for gap in report.gaps:
            assert any(abs(gap.omega_lo - m) <= tol for m in maxima)
            assert any(abs(gap.omega_hi - m) <= tol for m in minima)

    def test_gaps_sorted_and_disjoint(self, ref_elastic, inertia_on):
        report = detect_gaps(ModelKind.INTERNAL_VARIABLE, ref_elastic,
                             inertia_on)
        gaps = report.gaps
        assert all(g.omega_lo < g.omega_hi for g in gaps)
        for a, b in zip(gaps, gaps[1:]):
            assert a.omega_hi < b.omega_lo
        assert all(0.0 <= g.omega_lo and g.omega_hi <= report.omega_ceiling
                   for g in gaps)

    def test_default_ceiling_above_every_cutoff(self, ref_elastic,
                                                inertia_off):
        ceiling = default_omega_ceiling(cutoff_rows(
            ModelKind.RELAXED_CURL, ref_elastic, inertia_off))
        omega_p = np.sqrt((3.0 * ref_elastic.lambda_e + 2.0 * ref_elastic.mu_e
                           + 3.0 * ref_elastic.lambda_micro
                           + 2.0 * ref_elastic.mu_micro) / inertia_off.eta)
        assert ceiling == pytest.approx(1.5 * omega_p, rel=1e-12)

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_ceiling_is_headroom_over_the_largest_cutoff(self, model):
        # on these sets the k = 0 rows of the gap solves give cutoffs()'s
        # largest value exactly, for every scope; the grid does not enter
        for elastic, inertia in ceiling_sets():
            want = 1.5 * max(c.omega for cuts in cutoffs(
                model, elastic, inertia).values() for c in cuts)
            assert default_omega_ceiling(
                cutoff_rows(model, elastic, inertia)) == want
            assert _ceiling({}, model, model_blocks(model, elastic, inertia),
                            {}) == want
            grid = default_grid(elastic, inertia, points=50)
            for scope, include in [(COMPLETE, False), (COMPLETE, True),
                                   *((block, False) for block in WaveBlock)]:
                report = detect_gaps(model, elastic, inertia, scope,
                                     grid=grid, include_uncoupled=include)
                assert report.omega_ceiling == want

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_micro_mode_cutoffs_are_transverse_cutoffs(self, model):
        # the uncoupled k = 0 row is (omega_s, omega_r, omega_s) and the
        # transverse one, sorted, is 0, omega_s and omega_r, bit for bit:
        # the micro modes never raise the default ceiling above the coupled
        # blocks' cut-offs, so it reads the coupled blocks alone
        zero = np.zeros(1)
        for elastic, inertia in ceiling_sets() + wide_cone_sets(100, 101):
            built = model_blocks(model, elastic, inertia)
            unc, tra = (solve_block(model, built[b], zero,
                                    vectors=False)[0][0].tolist()
                        for b in (WaveBlock.UNCOUPLED, WaveBlock.TRANSVERSE))
            omega_s, omega_r, again = unc
            assert again.hex() == omega_s.hex()
            assert [x.hex() for x in tra] == [
                x.hex() for x in sorted((0.0, omega_s, omega_r))]

    @pytest.mark.parametrize("seed", [2, 8])
    def test_ceiling_is_cutoffs_over_the_wide_cone(self, seed):
        # the k = 0 row of every coupled block solve is cutoffs()'
        # equilibrated solve; where a micro mode has the top cut-off
        # (wide_cone(2)[4]), that is omega_r, which the transverse block
        # carries too
        for e, i in wide_cone(seed):
            elastic, inertia = ElasticParams(**e), InertiaParams(**i)
            for model in ModelKind:
                want = 1.5 * max(c.omega for cuts in cutoffs(
                    model, elastic, inertia).values() for c in cuts)
                assert _ceiling({}, model, model_blocks(model, elastic,
                                                        inertia), {}) == want

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_report_ceiling_is_the_rule_on_the_cutoff_rows(self, model):
        # one ceiling rule: default_omega_ceiling of cutoffs()' rows is the
        # report's ceiling bit for bit, whichever blocks the report solved
        for elastic, inertia in reference_sets() + wide_cone_sets(100, 101):
            want = default_omega_ceiling(cutoff_rows(model, elastic, inertia))
            got = detect_gaps(model, elastic, inertia).omega_ceiling
            assert got.hex() == want.hex()

    def test_report_echoes_parameters(self, ref_elastic, inertia_on):
        report = detect_gaps(ModelKind.RELAXED_DIV, ref_elastic, inertia_on)
        assert report.model is ModelKind.RELAXED_DIV
        assert report.elastic == ref_elastic
        assert report.inertia == inertia_on
        assert report.scope == COMPLETE


class TestGapReports:
    """A scan of gap reports: each run's report is the one detect_gaps
    gives, and each distinct block is solved once per scan, never longer."""

    def test_reports_equal_one_run_reports(self, ref_elastic, inertia_on,
                                           inertia_off, monkeypatch):
        grid = default_grid(ref_elastic, points=120)
        runs = [(ModelKind.RELAXED_CURL, ref_elastic, inertia_on, COMPLETE,
                 {}),
                (ModelKind.RELAXED_CURL, ref_elastic, inertia_on,
                 WaveBlock.LONGITUDINAL, {}),
                (ModelKind.RELAXED_CURL, ref_elastic, inertia_on, COMPLETE,
                 {"include_uncoupled": True, "delta_omega": 50.0}),
                (ModelKind.RELAXED_CURL, ref_elastic,
                 replace(inertia_on, eta_bar_2=0.0), COMPLETE, {}),
                (ModelKind.RELAXED_DIV, ref_elastic, inertia_on, COMPLETE,
                 {}),
                (ModelKind.RELAXED_CURL, ref_elastic, inertia_off,
                 WaveBlock.UNCOUPLED, {"grid": grid}),
                (ModelKind.RELAXED_CURL, ref_elastic, inertia_on, COMPLETE,
                 {})]
        want = [detect_gaps(*run[:4], **run[4]) for run in runs]
        solves = counting_solves(monkeypatch)
        assert list(gap_reports(runs)) == want
        # run 1 reuses the longitudinal block of run 0 and adds the
        # transverse k = 0 row its ceiling reads, run 2 reuses both coupled
        # blocks, run 3 the longitudinal block (eta_bar_2 moves only the
        # transverse block), and run 6, a repeat of run 0, solves nothing;
        # no ceiling solves the uncoupled block, which only run 2 and run 5
        # hold in scope
        lon, tra, unc = WaveBlock
        assert solves == [(lon, 400), (tra, 400), (tra, 1),
                          (unc, 400), (tra, 400),
                          (lon, 400), (tra, 400),
                          (unc, 120), (lon, 1), (tra, 1)]

    def test_takes_a_run_after_the_previous_report(self, ref_elastic,
                                                    inertia_on):
        log = []

        def runs():
            for value in (0.0, 0.1):
                log.append(("run", value))
                yield (ModelKind.RELAXED_CURL, ref_elastic,
                       replace(inertia_on, eta_bar_2=value), COMPLETE, {})

        for report in gap_reports(runs()):
            log.append(("report", report.inertia.eta_bar_2))
        assert log == [("run", 0.0), ("report", 0.0),
                       ("run", 0.1), ("report", 0.1)]

    def test_equal_one_run_calls_each_solve(self, ref_elastic, inertia_on,
                                            monkeypatch):
        solves = counting_solves(monkeypatch)
        reports = [detect_gaps(ModelKind.RELAXED_CURL, ref_elastic,
                               inertia_on) for _ in range(2)]
        assert reports[0] == reports[1]
        # the ceiling reads the k = 0 rows of the two coupled solves: no
        # k = 0 solve
        assert solves == 2 * [
            (WaveBlock.LONGITUDINAL, 400), (WaveBlock.TRANSVERSE, 400)]

    def test_each_report_bins_its_ranges_once(self, ref_elastic, inertia_on,
                                              monkeypatch):
        # a report calls the public band_gaps once, its one gap extraction
        calls = []
        bin_ranges = mmbands.bandgap.band_gaps

        def counting_band_gaps(*args):
            calls.append(args)
            return bin_ranges(*args)

        monkeypatch.setattr(mmbands.bandgap, "band_gaps", counting_band_gaps)
        for elastic, inertia in reference_sets():
            for model in ModelKind:
                calls.clear()
                detect_gaps(model, elastic, inertia)
                assert len(calls) == 1, model
        calls.clear()
        runs = [(ModelKind.RELAXED_CURL, ref_elastic,
                 replace(inertia_on, eta_bar_2=value), COMPLETE, {})
                for value in (0.0, 0.05, 0.1, 0.15)]
        assert len(list(gap_reports(runs))) == 4
        assert len(calls) == 4

    def test_unknown_option_is_rejected(self, ref_elastic, inertia_on):
        with pytest.raises(TypeError):
            detect_gaps(ModelKind.RELAXED_CURL, ref_elastic, inertia_on,
                        ceiling=1e6)


class TestEarlyStop:
    """A complete report stops solving blocks once the blocks solved leave
    no hole, and still gives the report of the all-blocks path."""

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_equals_the_all_blocks_report(self, model):
        # where the all-blocks path raises, only a skipped block's k > 0
        # pencils may have been the cause, and the report is then gap-free
        for elastic, inertia in reference_sets() + wide_cone_sets(100, 101):
            for grid, include in [(None, False), (None, True),
                                  (KGrid.linear(1.0e8, 400), False)]:
                try:
                    want = all_blocks_report(model, elastic, inertia, grid,
                                             include)
                except EigenSolveError as exc:
                    try:
                        got = detect_gaps(model, elastic, inertia, grid=grid,
                                          include_uncoupled=include)
                    except EigenSolveError as again:
                        assert str(again) == str(exc)
                    else:
                        assert got.gaps == ()
                    continue
                assert repr(detect_gaps(model, elastic, inertia, grid=grid,
                                        include_uncoupled=include)) == repr(
                    want)

    def test_solves_the_transverse_block_at_k0_when_no_hole_is_left(
            self, monkeypatch):
        # without gradient inertia the longitudinal block of relaxed-div
        # covers [0, inf) by itself: its acoustic column rises without bound
        # from 0 and the optic ones start below it; Mindlin-Eringen and
        # relaxed-div-curl have a block with no bounded column there, so no
        # block is solved past k = 0; the default ceiling reads k = 0 of the
        # coupled blocks left, and never solves the uncoupled one
        certified = {ModelKind.MINDLIN_ERINGEN, ModelKind.RELAXED_DIV_CURL}
        solves = counting_solves(monkeypatch)
        lon, tra = WaveBlock.LONGITUDINAL, WaveBlock.TRANSVERSE
        for elastic, inertia in reference_sets():
            for model in ModelKind:
                solves.clear()
                report = detect_gaps(model, elastic, inertia)
                no_inertia = inertia.eta_bar_1 == 0.0
                if model in certified and no_inertia:
                    want = [(lon, 1), (tra, 1)]
                elif model is ModelKind.RELAXED_DIV and no_inertia:
                    want = [(lon, 400), (tra, 1)]
                else:
                    want = [(lon, 400), (tra, 400)]
                assert solves == want, (model, inertia)
                if want[1] == (tra, 1):     # certified or stopped early
                    assert report.gaps == ()

    def test_scan_mixes_early_stops_with_full_reports(self, ref_elastic,
                                                      monkeypatch):
        base = InertiaParams(rho=RHO, eta=ETA)
        me = ModelKind.MINDLIN_ERINGEN
        runs = [(me, ref_elastic, replace(base, eta_bar_2=0.0), COMPLETE, {}),
                (me, ref_elastic, replace(base, eta_bar_2=0.1), COMPLETE, {}),
                (me, ref_elastic, replace(base, eta_bar_1=0.1), COMPLETE, {}),
                (ModelKind.RELAXED_CURL, ref_elastic, base, COMPLETE, {}),
                (me, ref_elastic, base, COMPLETE,
                 {"include_uncoupled": True})]
        want = [detect_gaps(*run[:4], **run[4]) for run in runs]
        solves = counting_solves(monkeypatch)
        assert list(gap_reports(runs)) == want
        # the first two runs have a longitudinal block with no bounded
        # column, so they solve only the coupled blocks' k = 0 rows, and
        # eta_bar_2 moves only the transverse block, whose k = 0 row the
        # second run's ceiling reads; the third run has gradient inertia on
        # the u of both blocks and solves them on the whole grid, as the
        # relaxed-curl run does; the last run is the first with the
        # uncoupled block in scope, still certified gap-free, and reads the
        # first run's k = 0 rows, so it solves nothing
        lon, tra = WaveBlock.LONGITUDINAL, WaveBlock.TRANSVERSE
        assert solves == [(lon, 1), (tra, 1),
                          (tra, 1),
                          (lon, 400), (tra, 400),
                          (lon, 400), (tra, 400)]

    @pytest.mark.parametrize("points", [400, 4000])
    @pytest.mark.parametrize("seed, index, model", [
        (100, 4, ModelKind.RELAXED_CURL), (101, 0, ModelKind.RELAXED_DIV),
        (11, 12, ModelKind.RELAXED_DIV)])
    def test_a_skipped_block_raises_no_false_failure(self, seed, index,
                                                     model, points):
        # the transverse block of these sets raises a false
        # NegativeEigenvalueError at k > 1e7 rad/m, roundoff of its float
        # entries, but the longitudinal block alone leaves no hole
        elastic, inertia = wide_cone_sets(seed)[index]
        report = detect_gaps(model, elastic, inertia,
                             grid=KGrid.linear(1.0e8, points))
        assert report.gaps == ()
        with pytest.raises(NegativeEigenvalueError, match="transverse block"):
            all_blocks_report(model, elastic, inertia,
                              KGrid.linear(1.0e8, points))

    @pytest.mark.parametrize("points", [400, 4000])
    def test_a_failure_in_a_solved_block_still_raises(self, points):
        # this false failure, roundoff of the float block entries, lies in
        # the longitudinal block, which every complete report solves
        elastic, inertia = wide_cone_sets(101)[0]
        with pytest.raises(NegativeEigenvalueError,
                           match="longitudinal block"):
            detect_gaps(ModelKind.RELAXED_CURL, elastic, inertia,
                        grid=KGrid.linear(1.0e8, points))


# bounded columns of a coupled block at L_c > 0, without and with gradient
# inertia on its u (3 - rank of K2 on null(M2); the README's table); at
# L_c = 0 the curvature vanishes and every model has 2 and 3
BOUNDED_COLUMNS = {ModelKind.RELAXED_CURL: (1, 2),
                   ModelKind.RELAXED_DIV: (1, 2),
                   ModelKind.RELAXED_DIV_CURL: (0, 1),
                   ModelKind.MINDLIN_ERINGEN: (0, 1),
                   ModelKind.INTERNAL_VARIABLE: (2, 3)}


class TestCertificate:
    """A report with a coupled block in scope that has no bounded column is
    gap-free, read from block structure before any block is solved."""

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_fires_exactly_where_no_column_is_bounded(self, model):
        lon, tra, _ = WaveBlock
        # the eta_bar that reach each block's u: the longitudinal u1 takes
        # the deviatoric and spherical parts, a transverse u the deviatoric
        # and skew ones
        reach = {lon: (0, 2), tra: (0, 1)}
        for elastic, inertia in wide_cone_sets(100, 101):
            for on in itertools.product((False, True), repeat=3):
                varied = replace(inertia, **{
                    f"eta_bar_{i + 1}": inertia.eta * 10.0 ** i if o else 0.0
                    for i, o in enumerate(on)})
                built = model_blocks(model, elastic, varied)
                for b, indices in reach.items():
                    inert = any(on[i] for i in indices)
                    bounded = (BOUNDED_COLUMNS[model][inert]
                               if elastic.L_c > 0.0 else 2 + inert)
                    assert _unbounded(model, built[b]) == (bounded == 0), (
                        b, elastic, varied)

    @pytest.mark.parametrize("model", [ModelKind.MINDLIN_ERINGEN,
                                       ModelKind.RELAXED_DIV_CURL])
    def test_not_where_the_curvature_modulus_underflows(self, model,
                                                        ref_elastic):
        inertia = InertiaParams(rho=RHO, eta=ETA)
        for l_c, fires in [(1.0e-200, False), (1.0e-160, True)]:
            # mu_e * L_c**2 is 0 in floats, then subnormal but not 0
            built = model_blocks(model, replace(ref_elastic, L_c=l_c), inertia)
            for b in (WaveBlock.LONGITUDINAL, WaveBlock.TRANSVERSE):
                assert built[b].K2[1:, 1:].any() == fires
                assert _unbounded(model, built[b]) == fires

    @pytest.mark.parametrize("model", [ModelKind.MINDLIN_ERINGEN,
                                       ModelKind.RELAXED_DIV_CURL])
    def test_a_certified_report_is_the_all_blocks_report(self, model,
                                                         monkeypatch):
        # two one-pencil solves at k = 0, of the coupled blocks, for the
        # ceiling, and no other linear algebra per report
        def forbidden(*args, **kwargs):
            raise AssertionError("linear algebra in a certified report")

        for name in ("svd", "matrix_rank", "det"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        solves = counting_solves(monkeypatch)
        lon, tra = WaveBlock.LONGITUDINAL, WaveBlock.TRANSVERSE
        grids = (None, KGrid.linear(1.0e-3, 50), KGrid.linear(1.0e8, 400))
        for elastic, inertia in wide_cone_sets(100, 101, 11, 2):
            if elastic.L_c == 0.0:
                continue
            inertia = inertia.with_eta_bar(0.0)
            for grid in grids:
                solves.clear()
                report = detect_gaps(model, elastic, inertia, grid=grid)
                assert solves == [(lon, 1), (tra, 1)]
                assert report.gaps == ()
                try:
                    want = all_blocks_report(model, elastic, inertia, grid)
                except EigenSolveError:
                    continue
                assert repr(report) == repr(want)


class TestCurvatureRank:
    """The certificate's identity-curvature rule against the general exact
    rank of each model's curvature on the coupled blocks' micro DOFs."""

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_rule_fires_exactly_where_both_ranks_are_full(self, model):
        for p in np.eye(9).reshape(9, 3, 3):
            assert np.array_equal(
                mmbands.assembly._curvature_footprint(model, p),
                p * CURVATURE_COLUMNS[model.value])
        ranks = [curvature_micro_rank(model.value, b)
                 for b in ("longitudinal", "transverse")]
        assert mmbands.assembly._identity_curvature(model) == (ranks == [2, 2])

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_rank_gives_the_bounded_columns_table(self, model):
        # K2_uu > 0 adds one to K2's rank on null(M2) where M2_uu = 0; where
        # M2_uu > 0 null(M2) is the micro DOFs alone
        for block in ("longitudinal", "transverse"):
            rank = curvature_micro_rank(model.value, block)
            assert (2 - rank, 3 - rank) == BOUNDED_COLUMNS[model]


def bounded_count(model, bs):
    """A coupled block's bounded columns read from its structure: 3 - rank
    of K2 on null(M2), where M2 is diagonal on u alone and K2's micro part
    is mu_e L_c^2 times the model's curvature (0 when that underflows)."""
    rank = (curvature_micro_rank(model.value, bs.block.value)
            if bs.K2[1:, 1:].any() else 0)
    return (2 if bs.M2[0, 0] == 0.0 else 3) - rank


class TestGapCap:
    """The paper's "multiple band-gaps" claim as a structural cap: a coupled
    block's lowest column rises from 0 and its unbounded ones reach the
    ceiling, so its b bounded columns leave at most b holes, and the
    complete gaps, holes of both blocks, number at most b_L + b_T - 1, or 0
    when either block has no bounded column."""

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_complete_gaps_stay_within_the_cap(self, model):
        for elastic, inertia in reference_sets() + wide_cone_sets(100, 101):
            built = model_blocks(model, elastic, inertia)
            b_l, b_t = (bounded_count(model, built[b])
                        for b in (WaveBlock.LONGITUDINAL,
                                  WaveBlock.TRANSVERSE))
            cap = 0 if min(b_l, b_t) == 0 else b_l + b_t - 1
            report = detect_gaps(model, elastic, inertia)
            assert len(report.gaps) <= cap, (elastic, inertia)
