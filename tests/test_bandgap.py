import math
from dataclasses import replace

import numpy as np
import pytest

import mmbands.assembly
import mmbands.bandgap
import mmbands.dispersion
import mmbands.eigensolve
from mmbands.assembly import model_blocks
from mmbands.bandgap import (COMPLETE, FrequencyAxisError, coverage,
                             default_omega_ceiling, detect_gaps, gap_reports,
                             gaps_from_coverage)
from mmbands.core import ElasticParams, InertiaParams, ModelKind, WaveBlock
from mmbands.dispersion import (KGrid, cutoffs, default_grid,
                                detect_asymptote, solve_block, sweep)

from conftest import (MU_E_MPA, LAMBDA_E_MPA, MU_C_MPA, MU_MICRO_MPA,
                      LAMBDA_MICRO_MPA, L_C_MM, RHO, ETA, ETA_BAR)
from oracles import binned_coverage, wide_cone


def spectrum(columns, bounded, name="longitudinal"):
    """Hand-built block spectrum: three equally long columns of omegas."""
    return name, np.column_stack(columns).astype(float), bounded


def ceiling_sets():
    """The reference set with and without gradient inertia, each also at
    mu_c = 0 and at L_c = 0, and the wide_cone(100) sets."""
    elastic = ElasticParams.from_engineering(
        MU_E_MPA, LAMBDA_E_MPA, MU_C_MPA, MU_MICRO_MPA, LAMBDA_MICRO_MPA,
        L_C_MM)
    sets = [(variant, InertiaParams(rho=RHO, eta=ETA).with_eta_bar(eta_bar))
            for eta_bar in (0.0, ETA_BAR)
            for variant in (elastic, replace(elastic, mu_c=0.0),
                            replace(elastic, L_c=0.0))]
    return sets + [(ElasticParams(**e), InertiaParams(**i))
                   for e, i in wide_cone(100)]


class TestCoverage:
    CEILING = 1.0e6
    DELTA = 250.0

    def test_constant_column_occupies_single_bin(self):
        omega0 = 4.0e5 + 0.3 * self.DELTA      # mid-bin
        cov = coverage([spectrum([np.full(60, omega0)] * 3, (True,) * 3)],
                       self.CEILING, self.DELTA)
        b = int(omega0 / self.DELTA)
        assert cov.runs.tolist() == [[b, b]]

    def test_linear_column_covers_contiguously(self):
        k = np.linspace(0.0, 1.0e5, 60)
        omegas = 3.0 * k                      # tops out below the ceiling
        cov = coverage([spectrum([omegas] * 3, (True,) * 3)], self.CEILING,
                       self.DELTA)
        top_bin = int(3.0e5 / self.DELTA)
        assert cov.runs.tolist() == [[0, top_bin]]
        assert gaps_from_coverage(cov, 10 * self.DELTA) == (
            gaps_from_coverage(cov, 10 * self.DELTA))
        # exactly one trailing empty region
        assert len(gaps_from_coverage(cov, 10 * self.DELTA)) == 1

    def test_unbounded_column_extends_to_ceiling(self):
        k = np.linspace(0.0, 1.0e5, 60)
        cov = coverage([spectrum([3.0 * k] * 3, (False,) * 3)], self.CEILING,
                       self.DELTA)
        assert cov.runs.tolist() == [[0, cov.n_bins - 1]]

    def test_range_bridges_coarse_samples(self):
        # two samples far apart must still cover everything between them
        omegas = np.concatenate([np.full(30, 1.0e5), np.full(30, 9.0e5)])
        cov = coverage([spectrum([omegas] * 3, (True,) * 3)], self.CEILING,
                       self.DELTA)
        lo = int(1.0e5 / self.DELTA)
        hi = int(9.0e5 / self.DELTA)
        assert any(a <= lo and hi <= b for a, b in cov.runs.tolist())

    def test_edge_tags_name_block_and_column(self):
        columns = [np.full(60, 4.0e5), np.full(60, 8.0e5), np.full(60, 4.0e5)]
        cov = coverage([spectrum(columns, (True,) * 3, "transverse")],
                       self.CEILING, self.DELTA)
        assert cov.edge_tags == (
            (("transverse:0", "transverse:2"), ("transverse:0",
                                                "transverse:2")),
            (("transverse:1",), ("transverse:1",)))

    def test_nothing_below_the_ceiling_leaves_one_full_gap(self):
        cov = coverage([spectrum([np.full(60, 2.0 * self.CEILING)] * 3,
                                 (False, True, True))],
                       self.CEILING, self.DELTA)
        assert cov.runs.shape == (0, 2)
        assert cov.edge_tags == ()
        gaps = gaps_from_coverage(cov, 0.0)
        assert [(g.omega_lo, g.omega_hi) for g in gaps] == [
            (0.0, self.CEILING)]

    def test_no_spectra_cover_nothing(self):
        cov = coverage([], self.CEILING, self.DELTA)
        assert cov.runs.shape == (0, 2) and cov.edge_tags == ()

    @pytest.mark.parametrize("levels, runs, owners", [
        ((), 0, 0),                                     # no spectra
        ((2.0e6, 3.0e6, 4.0e6), 0, 0),                  # all above the top
        ((1.0e5, 2.0e6, 1.0e5), 1, 2),
        ((1.0e5, 5.0e5, 9.0e5, 1.0e5, 2.0e6, 5.0e5), 3, 5)])
    def test_arrays_are_int64_of_fixed_shapes(self, levels, runs, owners):
        spectra = [spectrum([np.full(60, x) for x in levels[i:i + 3]],
                            (True,) * 3, name)
                   for i, name in zip(range(0, len(levels), 3), "LT")]
        cov = coverage(spectra, self.CEILING, self.DELTA)
        assert cov.runs.dtype == cov.owners.dtype == np.int64
        assert cov.owner_bins.dtype == np.int64
        assert cov.runs.shape == (runs, 2)
        assert cov.owners.shape == (owners,)
        assert cov.owner_bins.shape == (owners, 2)

    def test_spectra_may_be_any_iterable(self):
        spectra = [spectrum([np.full(60, 4.0e5)] * 3, (True,) * 3)]
        cov = coverage(iter(spectra), self.CEILING, self.DELTA)
        b = int(4.0e5 / self.DELTA)
        assert cov.runs.tolist() == [[b, b]]
        assert cov.edge_tags == ((("longitudinal:0", "longitudinal:1",
                                   "longitudinal:2"),) * 2,)

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
            cov = coverage(spectra, axis["omega_ceiling"],
                           axis["delta_omega"])
            gaps_from_coverage(cov, axis["min_gap_width"])

    def test_matches_bin_marking_oracle(self):
        rng = np.random.default_rng(20161017)
        names = ("longitudinal", "transverse", "uncoupled")
        for _ in range(150):
            ceiling = float(rng.uniform(1.0e3, 1.0e5))
            # an exact divisor in half the trials, a ragged last bin in
            # the others
            ratio = (float(rng.integers(50, 600)) if rng.random() < 0.5
                     else float(rng.uniform(50.0, 600.0)))
            delta = ceiling / ratio
            width = float(rng.choice([0.0, delta, 3.7 * delta]))
            spectra = []
            for name in names[:int(rng.integers(1, 4))]:
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
                                          - rng.uniform(0.05, 0.5)
                                          * np.sin(phase))
                    columns.append(walk)
                flags = tuple(bool(f) for f in rng.integers(0, 2, 3))
                spectra.append(spectrum(columns, flags, name))
            columns = [(f"{name}:{c}", omegas[:, c], flags[c])
                       for name, omegas, flags in spectra for c in range(3)]
            gaps, occupied, owners = binned_coverage(columns, ceiling, delta,
                                                     width)

            cov = coverage(spectra, ceiling, delta)
            got = gaps_from_coverage(cov, width)
            assert [(g.omega_lo, g.omega_hi) for g in got] == gaps
            runs = cov.runs.tolist()
            assert sum(b - a + 1 for a, b in runs) == occupied
            # maximal runs: an empty bin separates each from the next
            assert all(b + 1 < a for (_, b), (a, _) in zip(runs, runs[1:]))
            # edge tags in block-then-column order
            order = [tag for tag, _, _ in columns]
            for (a, b), (first_tags, last_tags) in zip(runs, cov.edge_tags):
                assert list(first_tags) == [t for t in order if t in owners[a]]
                assert list(last_tags) == [t for t in order if t in owners[b]]


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
        # the ceiling needs only the closed-form k = 0 row of an uncoupled
        # block left out of the scope, and no second coupled solve
        assert at_zero == [WaveBlock.UNCOUPLED] * (not include_uncoupled)
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

        for name in ("cutoffs", "general_eig", "general_eig_stack"):
            monkeypatch.setattr(mmbands.dispersion, name, forbidden)
            monkeypatch.setattr(mmbands.bandgap, name, forbidden,
                                raising=False)
        monkeypatch.setattr(mmbands.eigensolve, "general_eig_stack",
                            forbidden)
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
        ceiling = default_omega_ceiling(ModelKind.RELAXED_CURL, ref_elastic,
                                        inertia_off)
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
            assert default_omega_ceiling(model, elastic, inertia) == want
            grid = default_grid(elastic, inertia, points=50)
            for scope, include in [(COMPLETE, False), (COMPLETE, True),
                                   *((block, False) for block in WaveBlock)]:
                report = detect_gaps(model, elastic, inertia, scope,
                                     grid=grid, include_uncoupled=include)
                assert report.omega_ceiling == want

    @pytest.mark.parametrize("seed", [2, 8])
    def test_ceiling_within_an_ulp_of_cutoffs_over_the_wide_cone(self, seed):
        # the uncoupled closed form K0_ii / M0_ii can round an ulp away from
        # cutoffs()' equilibrated solve of the same micro mode, which moves
        # the ceiling where that mode has the top cut-off (wide_cone(2)[4])
        for e, i in wide_cone(seed):
            elastic, inertia = ElasticParams(**e), InertiaParams(**i)
            for model in ModelKind:
                want = 1.5 * max(c.omega for cuts in cutoffs(
                    model, elastic, inertia).values() for c in cuts)
                got = default_omega_ceiling(model, elastic, inertia)
                assert abs(got - want) <= math.ulp(want)

    def test_report_echoes_parameters(self, ref_elastic, inertia_on):
        report = detect_gaps(ModelKind.RELAXED_DIV, ref_elastic, inertia_on)
        assert report.model is ModelKind.RELAXED_DIV
        assert report.elastic == ref_elastic
        assert report.inertia == inertia_on
        assert report.scope == COMPLETE


class TestGapReports:
    """A scan of gap reports: each run's report is the one detect_gaps
    gives, and each distinct block is solved once per scan, never longer."""

    @staticmethod
    def counting(monkeypatch):
        solves = []
        solve = mmbands.bandgap.solve_block

        def counting_solve(model, bs, k, **kwargs):
            solves.append((bs.block, len(k)))
            return solve(model, bs, k, **kwargs)

        monkeypatch.setattr(mmbands.bandgap, "solve_block", counting_solve)
        return solves

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
        solves = self.counting(monkeypatch)
        assert list(gap_reports(runs)) == want
        # run 1 reuses the longitudinal block and the ceiling's uncoupled
        # k = 0 row of run 0, run 2 both coupled blocks, run 3 the
        # longitudinal block and that row (eta_bar_2 moves only the
        # transverse block), and run 6, a repeat of run 0, solves nothing
        lon, tra, unc = WaveBlock
        assert solves == [(lon, 400), (tra, 400), (unc, 1), (tra, 1),
                          (unc, 400), (tra, 400),
                          (lon, 400), (tra, 400), (unc, 1),
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
        solves = self.counting(monkeypatch)
        reports = [detect_gaps(ModelKind.RELAXED_CURL, ref_elastic,
                               inertia_on) for _ in range(2)]
        assert reports[0] == reports[1]
        assert solves == 2 * [
            (WaveBlock.LONGITUDINAL, 400), (WaveBlock.TRANSVERSE, 400),
            (WaveBlock.UNCOUPLED, 1)]

    def test_unknown_option_is_rejected(self, ref_elastic, inertia_on):
        with pytest.raises(TypeError):
            detect_gaps(ModelKind.RELAXED_CURL, ref_elastic, inertia_on,
                        ceiling=1e6)
