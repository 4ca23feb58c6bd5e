import math

import numpy as np
import pytest

import mmbands.bandgap
from mmbands.bandgap import (COMPLETE, FrequencyAxisError,
                             InconsistentInputsError, coverage,
                             default_omega_ceiling, detect_gaps,
                             gaps_from_coverage)
from mmbands.core import InertiaParams, ModelKind, WaveBlock
from mmbands.dispersion import (Branch, DispersionCurve, KGrid, sweep,
                                default_grid)

from conftest import RHO, ETA
from oracles import binned_coverage


def synthetic_curve(omegas_per_branch, flags, elastic, inertia,
                    model=ModelKind.RELAXED_CURL,
                    block=WaveBlock.LONGITUDINAL):
    """Hand-built DispersionCurve for coverage unit tests.

    Branches may have any number of samples; the grid always has 60.
    """
    grid = KGrid.linear(1.0e5, 60)
    branches = tuple(
        Branch(label=f"B{i}", omegas=np.asarray(om, dtype=float),
               vectors=np.zeros((len(om), 3), dtype=complex),
               dominant=np.full(len(om), "Mixed", dtype=object),
               ratio=np.ones(len(om)))
        for i, om in enumerate(omegas_per_branch))
    return DispersionCurve(block=block, grid=grid, branches=branches,
                           asymptote_flags=flags, model=model,
                           elastic=elastic, inertia=inertia)


class TestCoverage:
    CEILING = 1.0e6
    DELTA = 250.0

    def test_constant_branch_occupies_single_bin(self, ref_elastic,
                                                 inertia_off):
        omega0 = 4.0e5 + 0.3 * self.DELTA      # mid-bin
        curve = synthetic_curve([np.full(60, omega0)] * 3,
                                (True, True, True), ref_elastic, inertia_off)
        cov = coverage([curve], self.CEILING, self.DELTA)
        b = int(omega0 / self.DELTA)
        assert cov.runs.tolist() == [[b, b]]

    def test_linear_branch_covers_contiguously(self, ref_elastic,
                                               inertia_off):
        k = np.linspace(0.0, 1.0e5, 60)
        omegas = 3.0 * k                      # tops out below the ceiling
        curve = synthetic_curve([omegas] * 3, (True, True, True),
                                ref_elastic, inertia_off)
        cov = coverage([curve], self.CEILING, self.DELTA)
        top_bin = int(3.0e5 / self.DELTA)
        assert cov.runs.tolist() == [[0, top_bin]]
        assert gaps_from_coverage(cov, 10 * self.DELTA) == (
            gaps_from_coverage(cov, 10 * self.DELTA))
        # exactly one trailing empty region
        assert len(gaps_from_coverage(cov, 10 * self.DELTA)) == 1

    def test_unbounded_branch_extends_to_ceiling(self, ref_elastic,
                                                 inertia_off):
        k = np.linspace(0.0, 1.0e5, 60)
        curve = synthetic_curve([3.0 * k] * 3, (False, False, False),
                                ref_elastic, inertia_off)
        cov = coverage([curve], self.CEILING, self.DELTA)
        assert cov.runs.tolist() == [[0, cov.n_bins - 1]]

    def test_interval_marking_bridges_coarse_samples(self, ref_elastic,
                                                     inertia_off):
        # two samples far apart must still cover everything between them
        omegas = np.concatenate([np.full(30, 1.0e5), np.full(30, 9.0e5)])
        curve = synthetic_curve([omegas] * 3, (True, True, True),
                                ref_elastic, inertia_off)
        cov = coverage([curve], self.CEILING, self.DELTA)
        lo = int(1.0e5 / self.DELTA)
        hi = int(9.0e5 / self.DELTA)
        assert any(a <= lo and hi <= b for a, b in cov.runs.tolist())

    def test_edge_tags_record_touching_branch(self, ref_elastic,
                                              inertia_off):
        omega0 = 4.0e5
        curve = synthetic_curve([np.full(60, omega0)] * 3,
                                (True, True, True), ref_elastic, inertia_off)
        cov = coverage([curve], self.CEILING, self.DELTA)
        first_tags, last_tags = cov.edge_tags[0]
        assert "longitudinal:B0" in first_tags
        assert "longitudinal:B0" in last_tags

    def test_nothing_below_the_ceiling_leaves_one_full_gap(self, ref_elastic,
                                                           inertia_off):
        curve = synthetic_curve([np.full(60, 2.0 * self.CEILING)] * 3,
                                (False, True, True), ref_elastic, inertia_off)
        cov = coverage([curve], self.CEILING, self.DELTA)
        assert cov.runs.shape == (0, 2)
        assert cov.edge_tags == ()
        gaps = gaps_from_coverage(cov, 0.0)
        assert [(g.omega_lo, g.omega_hi) for g in gaps] == [
            (0.0, self.CEILING)]

    @pytest.mark.parametrize("key, value", [
        ("omega_ceiling", 0.0), ("omega_ceiling", -1.0),
        ("omega_ceiling", math.nan), ("omega_ceiling", math.inf),
        ("delta_omega", 0.0), ("delta_omega", -5.0),
        ("delta_omega", math.inf), ("delta_omega", 1.0e-300),
        ("delta_omega", 1.0e-12), ("min_gap_width", -1.0),
        ("min_gap_width", math.nan), ("min_gap_width", math.inf)])
    def test_bad_frequency_axis_rejected(self, ref_elastic, inertia_off,
                                         key, value):
        curve = synthetic_curve([np.full(60, 1.0e5)] * 3, (True, True, True),
                                ref_elastic, inertia_off)
        axis = {"omega_ceiling": self.CEILING, "delta_omega": self.DELTA,
                "min_gap_width": 0.0, key: value}
        with pytest.raises(FrequencyAxisError, match=key):
            cov = coverage([curve], axis["omega_ceiling"],
                           axis["delta_omega"])
            gaps_from_coverage(cov, axis["min_gap_width"])

    def test_matches_bin_marking_oracle(self, ref_elastic, inertia_off):
        rng = np.random.default_rng(20161017)
        blocks = (WaveBlock.LONGITUDINAL, WaveBlock.TRANSVERSE,
                  WaveBlock.UNCOUPLED)
        for _ in range(150):
            ceiling = float(rng.uniform(1.0e3, 1.0e5))
            # an exact divisor in half the trials, a ragged last bin in
            # the others
            ratio = (float(rng.integers(50, 600)) if rng.random() < 0.5
                     else float(rng.uniform(50.0, 600.0)))
            delta = ceiling / ratio
            width = float(rng.choice([0.0, delta, 3.7 * delta]))
            curves = []
            for block in blocks[:int(rng.integers(1, 4))]:
                branches = []
                for _ in range(3):
                    n = int(rng.choice([1, 2, 60]))
                    walk = ceiling * np.abs(np.cumsum(
                        rng.normal(0.0, 0.05, n)) + rng.uniform(0.0, 1.2))
                    kind = rng.integers(4)
                    if kind == 0:      # constant, in one of the low bins
                        walk = np.full(n, delta * rng.uniform(0.0, 8.0))
                    elif kind == 1:    # exactly on bin edges
                        walk = np.round(walk / delta) * delta
                    elif kind == 2:    # mostly above the ceiling
                        walk = walk + ceiling
                    branches.append(walk)
                flags = tuple(bool(f) for f in rng.integers(0, 2, 3))
                curves.append(synthetic_curve(branches, flags, ref_elastic,
                                              inertia_off, block=block))
            triples = [(f"{c.block.value}:{br.label}", br.omegas, flag)
                       for c in curves
                       for br, flag in zip(c.branches, c.asymptote_flags)]
            gaps, occupied, owners = binned_coverage(triples, ceiling, delta,
                                                     width)

            cov = coverage(curves, ceiling, delta)
            got = gaps_from_coverage(cov, width)
            assert [(g.omega_lo, g.omega_hi) for g in got] == gaps
            runs = cov.runs.tolist()
            assert sum(b - a + 1 for a, b in runs) == occupied
            # maximal runs: an empty bin separates each from the next
            assert all(b + 1 < a for (_, b), (a, _) in zip(runs, runs[1:]))
            for (a, b), (first_tags, last_tags) in zip(runs, cov.edge_tags):
                assert set(first_tags) == owners[a]
                assert set(last_tags) == owners[b]

    def test_inconsistent_parameter_sets_rejected(self, ref_elastic,
                                                  inertia_off):
        a = synthetic_curve([np.full(60, 1.0e5)] * 3, (True, True, True),
                            ref_elastic, inertia_off)
        other = InertiaParams(rho=RHO, eta=2.0 * ETA)
        b = synthetic_curve([np.full(60, 1.0e5)] * 3, (True, True, True),
                            ref_elastic, other)
        with pytest.raises(InconsistentInputsError):
            coverage([a, b], self.CEILING, self.DELTA)

    def test_empty_input_rejected(self):
        with pytest.raises(InconsistentInputsError):
            coverage([], self.CEILING, self.DELTA)


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

    @pytest.mark.parametrize("include_uncoupled, n_sweeps",
                             [(False, 2), (True, 3)])
    def test_complete_scope_sweeps_transverse_once(
            self, ref_elastic, inertia_off, monkeypatch, include_uncoupled,
            n_sweeps):
        swept = []

        def counting_sweep(*args, **kwargs):
            swept.append(args[3])
            return sweep(*args, **kwargs)

        monkeypatch.setattr(mmbands.bandgap, "sweep", counting_sweep)
        report = detect_gaps(ModelKind.RELAXED_CURL, ref_elastic, inertia_off,
                             include_uncoupled=include_uncoupled)
        assert len(swept) == n_sweeps
        assert swept.count(WaveBlock.TRANSVERSE) == 1
        assert report.blocks == (("longitudinal", "transverse",
                                  "transverse-3")
                                 + ("uncoupled",) * include_uncoupled)

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
        model = ModelKind.RELAXED_CURL
        grid = default_grid(ref_elastic)
        report = detect_gaps(model, ref_elastic, inertia_on, grid=grid)
        tol = 2.0 * report.delta_omega

        maxima, minima = [], []
        for block, axis in ((WaveBlock.LONGITUDINAL, 2),
                            (WaveBlock.TRANSVERSE, 2),
                            (WaveBlock.TRANSVERSE, 3)):
            curve = sweep(model, ref_elastic, inertia_on, block, grid,
                          transverse_axis=axis)
            for idx, branch in enumerate(curve.branches):
                minima.append(float(np.min(branch.omegas)))
                if curve.asymptote_flags[idx]:
                    maxima.append(float(np.max(branch.omegas)))
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

    def test_report_echoes_parameters(self, ref_elastic, inertia_on):
        report = detect_gaps(ModelKind.RELAXED_DIV, ref_elastic, inertia_on)
        assert report.model is ModelKind.RELAXED_DIV
        assert report.elastic == ref_elastic
        assert report.inertia == inertia_on
        assert report.scope == COMPLETE
