import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import mmbands.dispersion
import mmbands.eigensolve
from mmbands.assembly import block_for, model_blocks
from mmbands.bandgap import _spectrum, detect_gaps
from mmbands.core import (ElasticParams, InertiaParams, ModelKind, WaveBlock,
                          homogenize, validate)
from mmbands.dispersion import (MODE_RATIO_THRESHOLD, DegenerateGridError,
                                KGrid, ZeroVectorError, _continue_branches,
                                classify_mode_stack, cutoffs, default_grid,
                                detect_asymptote, solve_block, sweep)
from mmbands.eigensolve import (EigenSolution, EigenSolveError,
                                NotPositiveDefiniteError, general_eig_stack,
                                general_eigvals_stack)

from oracles import (classify_vector, cubic_pencil_eigenvalues,
                     greedy_continuation, wide_cone)

ALL_MODELS = list(ModelKind)
ALL_BLOCKS = [WaveBlock.LONGITUDINAL, WaveBlock.TRANSVERSE,
              WaveBlock.UNCOUPLED]


def spectrum(model, elastic, inertia, block, grid):
    """The omegas of one block, built here, and gap detection's bounded
    verdicts: a column is unbounded where its range reaches inf."""
    bs = block_for(model, elastic, inertia, block)
    row, ranges = _spectrum({}, model, bs, grid)
    omegas = solve_block(model, bs, grid.values, vectors=False)[0]
    assert np.array_equal(row, omegas[0])
    return omegas, [hi != math.inf for _, hi in ranges]


def admissible_set(seed, mu_c_zero):
    """Seeded moduli over three decades, lambdas of either sign (3*lambda
    + 2*mu > 0), L_c from 0.1 to 10 mm and gradient inertiae on or off."""
    rng = np.random.default_rng(seed)
    mu_e, mu_c, mu_micro = 10.0 ** rng.uniform(7.0, 10.0, size=3)
    elastic = ElasticParams(
        mu_e=mu_e, lambda_e=mu_e * rng.uniform(-0.6, 2.0),
        mu_c=0.0 if mu_c_zero else mu_c, mu_micro=mu_micro,
        lambda_micro=mu_micro * rng.uniform(-0.6, 2.0),
        L_c=10.0 ** rng.uniform(-4.0, -2.0))
    inertia = InertiaParams(rho=rng.uniform(1.0e3, 1.0e4),
                            eta=10.0 ** rng.uniform(-3.0, -1.0))
    eta_bar = float(rng.choice([0.0, inertia.eta]))
    return elastic, inertia.with_eta_bar(eta_bar)


def shear_cutoff(el, inertia):
    return np.sqrt(2.0 * (el.mu_e + el.mu_micro) / inertia.eta)


def rotational_cutoff(el, inertia):
    return np.sqrt(2.0 * el.mu_c / inertia.eta)


def pressure_cutoff(el, inertia):
    return np.sqrt((3.0 * el.lambda_e + 2.0 * el.mu_e
                    + 3.0 * el.lambda_micro + 2.0 * el.mu_micro) / inertia.eta)


class TestKGrid:
    def test_linear_factory(self):
        grid = KGrid.linear(1.0e5, 400)
        assert len(grid) == 400
        assert grid.values[0] == 0.0
        assert grid.k_max == 1.0e5

    def test_too_few_points(self):
        with pytest.raises(DegenerateGridError):
            KGrid.linear(1.0e5, 10)

    @pytest.mark.parametrize("k_max", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_k_max_must_be_finite_and_positive(self, k_max):
        with pytest.raises(DegenerateGridError, match="finite and positive"):
            KGrid.linear(k_max, 60)

    @pytest.mark.parametrize("points", [-5, 0, 49])
    def test_too_few_points_rejected_before_linspace(self, points):
        # np.linspace itself raises ValueError for a negative count
        with pytest.raises(DegenerateGridError, match="at least 50 points"):
            KGrid.linear(1.0e5, points)

    def test_direct_grid_of_too_few_points(self):
        with pytest.raises(DegenerateGridError,
                           match="^grid needs at least 50 points$"):
            KGrid(values=np.linspace(0.0, 1.0, 49))

    def test_subnormal_k_max_repeats_linspace_values(self):
        # np.linspace(0, 5e-324, 400) is all 0 and 5e-324: only the
        # check of the fresh values rejects it
        with pytest.raises(DegenerateGridError,
                           match="^grid must be strictly increasing$"):
            KGrid.linear(5e-324, 400)

    def test_must_start_at_zero(self):
        with pytest.raises(DegenerateGridError):
            KGrid(values=np.linspace(1.0, 2.0, 60))

    def test_strictly_increasing(self):
        values = np.linspace(0.0, 1.0, 60)
        values[30] = values[29]
        with pytest.raises(DegenerateGridError):
            KGrid(values=values)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_values_must_be_finite(self, bad):
        # an inf end used to pass and fail later in the solver as a
        # non-finite stiffness; a nan as "not strictly increasing"
        values = np.r_[np.linspace(0.0, 1.0e5, 59), bad]
        with pytest.raises(DegenerateGridError,
                           match="^grid values must be finite$"):
            KGrid(values=values)

    def test_default_grid_spans_hundred_lengths(self, ref_elastic):
        grid = default_grid(ref_elastic)
        assert grid.k_max == pytest.approx(100.0 / ref_elastic.L_c)
        assert len(grid) == 400

    def test_default_grid_without_length_uses_inertia(self, ref_elastic,
                                                      inertia_on):
        assert default_grid(ref_elastic, inertia_on).k_max == \
            default_grid(ref_elastic).k_max
        no_length = replace(ref_elastic, L_c=0.0)
        grid = default_grid(no_length, inertia_on, points=120)
        length = np.sqrt(inertia_on.eta / inertia_on.rho)
        assert grid.k_max == pytest.approx(100.0 / length)
        assert len(grid) == 120
        with pytest.raises(DegenerateGridError, match="L_c = 0"):
            default_grid(no_length)

    def test_internal_variable_default_grid_ignores_l_c(self, ref_elastic,
                                                        inertia_on):
        # the model has no curvature term, so L_c sets no length scale
        want = default_grid(replace(ref_elastic, L_c=0.0), inertia_on)
        for l_c in (1e-4, 1e-3, 0.1, 1e197):
            grid = default_grid(replace(ref_elastic, L_c=l_c), inertia_on,
                                model=ModelKind.INTERNAL_VARIABLE)
            assert np.array_equal(grid.values, want.values)
        with pytest.raises(DegenerateGridError, match="internal-variable"):
            default_grid(ref_elastic, model=ModelKind.INTERNAL_VARIABLE)


class TestClassifyMode:
    LABELS = ("u1", "P_S", "P_D")

    def classify_one(self, vector):
        """(dominant, ratio) of one bare (3,) vector, whose results are 0-d."""
        name, ratio = classify_mode_stack(vector, self.LABELS)
        assert name.shape == ratio.shape == ()
        return name.item(), ratio.item()

    def test_pure_mode(self):
        dominant, ratio = self.classify_one(np.array([1.0, 0.0, 0.0]))
        assert dominant == "u1"
        assert ratio == np.inf

    def test_mixed_below_threshold(self):
        dominant, ratio = self.classify_one(np.array([0.7, 0.68, 0.1]))
        assert dominant == "Mixed"
        assert ratio == pytest.approx(0.7 / 0.68)

    def test_clear_dominance(self):
        dominant, ratio = self.classify_one(np.array([0.1, 0.9j, 0.2]))
        assert dominant == "P_S"
        assert ratio >= 1.25

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError) as info:
            classify_mode_stack(np.zeros(3), self.LABELS)
        assert info.value.index == 0

    def test_ratio_at_least_one(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            assert self.classify_one(v)[1] >= 1.0

    def test_stack_matches_per_vector_oracle(self):
        rng = np.random.default_rng(17)
        edge_cases = np.array([
            [0.5, 0.5, 0.1],            # equal top magnitudes
            [0.0, 0.3, -0.3j],          # equal top magnitudes, no third
            [0.0, 0.0, 2.0j],           # zero second component
            [1.25, 1.0, 0.0],           # ratio exactly at the threshold
            [1.0, -1.25j, 0.5],
            [0.7, 0.68, 0.1],           # just below the threshold
        ])
        # magnitudes from a few values and exact phases: ties everywhere
        ties = (rng.choice([0.0, 0.8, 1.0, 1.25], size=(200, 3))
                * rng.choice([1, -1, 1j, -1j], size=(200, 3)))
        ties = ties[np.abs(ties).max(axis=1) > 0.0]
        generic = rng.normal(size=(200, 3)) + 1j * rng.normal(size=(200, 3))
        vectors = np.concatenate([edge_cases, ties, generic])
        names, ratios = classify_mode_stack(vectors, self.LABELS)
        assert names.shape == ratios.shape == (len(vectors),)
        exact = len(edge_cases) + len(ties)
        for i, v in enumerate(vectors):
            name, ratio = classify_vector(v, self.LABELS, MODE_RATIO_THRESHOLD)
            assert names[i] == name
            # the oracle's complex abs may round differently from numpy's
            # unless the magnitudes are exact, as they are for the ties
            assert ratios[i] == (ratio if i < exact
                                 else pytest.approx(ratio, rel=1e-15))
            assert self.classify_one(v) == (names[i], ratios[i])
        assert (names[3], ratios[3]) == ("u1", MODE_RATIO_THRESHOLD)
        assert names[0] == "Mixed" and ratios[2] == np.inf
        # a stack of any leading shape gives the same markers
        stacked = classify_mode_stack(vectors[:204].reshape(68, 3, 3),
                                      self.LABELS)
        assert np.array_equal(stacked[0].reshape(-1), names[:204])
        assert np.array_equal(stacked[1].reshape(-1), ratios[:204])

    @pytest.mark.parametrize("size", [2, 4])
    def test_other_component_counts_match_per_vector_oracle(self, size):
        # the passes run over any length of the last axis, not just 3
        rng = np.random.default_rng(size)
        labels = tuple(f"c{i}" for i in range(size))
        ties = (rng.choice([0.0, 0.8, 1.0, 1.25], size=(300, size))
                * rng.choice([1, -1, 1j, -1j], size=(300, size)))
        ties = ties[np.abs(ties).max(axis=1) > 0.0]
        generic = rng.normal(size=(200, size))
        vectors = np.concatenate([np.eye(size), np.ones((1, size)), ties,
                                  generic])
        names, ratios = classify_mode_stack(vectors, labels)
        want = [classify_vector(v, labels, MODE_RATIO_THRESHOLD)
                for v in vectors]
        assert names.tolist() == [name for name, _ in want]
        assert ratios.tolist() == [ratio for _, ratio in want]
        assert names[size] == "Mixed" and ratios[size] == 1.0
        stacked = classify_mode_stack(vectors[:300].reshape(30, 10, size),
                                      labels)
        assert np.array_equal(stacked[0].reshape(-1), names[:300])
        assert np.array_equal(stacked[1].reshape(-1), ratios[:300])

    def test_stack_zero_vector_names_its_index(self):
        vectors = np.ones((6, 3, 3))
        vectors[4, 1] = 0.0
        with pytest.raises(ZeroVectorError) as info:
            classify_mode_stack(vectors, self.LABELS)
        assert info.value.index == 4


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("block", ALL_BLOCKS)
def test_three_branches_everywhere(model, block, ref_elastic, inertia_on):
    grid = KGrid.linear(1.0e4, 60)
    curve = sweep(model, ref_elastic, inertia_on, block, grid)
    assert len(curve.branches) == 3
    for branch in curve.branches:
        assert branch.omegas.shape == (60,)
        assert np.all(branch.omegas >= 0.0)
    labels = [b.label for b in curve.branches]
    assert len(set(labels)) == 3


class TestCutoffs:
    def test_solver_error_names_model_block_and_k(self, ref_elastic,
                                                  inertia_on):
        # mu_e = 1e300 MPa overflows the equilibrated k = 0 pencil: the
        # CLI's exit-4 line without its "numerical failure: " prefix
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EigenSolveError) as info:
                cutoffs(ModelKind.RELAXED_CURL,
                        replace(ref_elastic, mu_e=1e306), inertia_on)
        assert str(info.value) == ("relaxed-curl, longitudinal block, "
                                   "k = 0 rad/m: equilibrated pencil 0 is "
                                   "not finite")
        assert info.value.index == 0

    def test_analytic_values(self, ref_elastic, inertia_off):
        table = cutoffs(ModelKind.RELAXED_CURL, ref_elastic, inertia_off)
        omega_s = shear_cutoff(ref_elastic, inertia_off)
        omega_r = rotational_cutoff(ref_elastic, inertia_off)
        omega_p = pressure_cutoff(ref_elastic, inertia_off)

        lon = table[WaveBlock.LONGITUDINAL]
        assert [c.acoustic for c in lon] == [True, False, False]
        assert lon[0].omega == 0.0
        assert lon[1].omega == pytest.approx(omega_s, rel=1e-9)
        assert lon[2].omega == pytest.approx(omega_p, rel=1e-9)

        tra = table[WaveBlock.TRANSVERSE]
        assert tra[0].acoustic and tra[0].omega == 0.0
        assert tra[1].omega == pytest.approx(omega_s, rel=1e-9)
        assert tra[2].omega == pytest.approx(omega_r, rel=1e-9)

        unc = table[WaveBlock.UNCOUPLED]
        assert [c.acoustic for c in unc] == [False, False, False]
        assert unc[0].omega == pytest.approx(omega_s, rel=1e-9)
        assert unc[1].omega == pytest.approx(omega_s, rel=1e-9)
        assert unc[2].omega == pytest.approx(omega_r, rel=1e-9)

    def test_reference_magnitudes(self, ref_elastic, inertia_off):
        assert shear_cutoff(ref_elastic, inertia_off) == pytest.approx(
            2.4495e5, rel=1e-4)
        assert rotational_cutoff(ref_elastic, inertia_off) == pytest.approx(
            4.4721e5, rel=1e-4)
        assert pressure_cutoff(ref_elastic, inertia_off) == pytest.approx(
            4.5826e5, rel=1e-4)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_gradient_inertia_has_no_effect(self, model, ref_elastic,
                                            inertia_off, inertia_on):
        base = cutoffs(model, ref_elastic, inertia_off)
        rich = cutoffs(model, ref_elastic, inertia_on)
        for block in ALL_BLOCKS:
            for a, b in zip(base[block], rich[block]):
                if a.omega == 0.0:
                    assert b.omega == 0.0
                else:
                    assert abs(a.omega - b.omega) <= 1e-12 * a.omega

    def test_optic_cutoff_cardinality(self, ref_elastic, inertia_off):
        table = cutoffs(ModelKind.RELAXED_CURL, ref_elastic, inertia_off)
        optic = [c for c in table[WaveBlock.LONGITUDINAL] if not c.acoustic]
        assert len(optic) == 2                # the two nonzero optic starts
        assert all(c.omega > 0.0 for c in optic)
        assert len(table[WaveBlock.UNCOUPLED]) == 3

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_one_acoustic_transverse_cutoff_at_zero_mu_c(
            self, model, ref_elastic, inertia_off):
        # mu_c = 0 leaves the micro-rotation P_[12] at omega(0) = 0 as well,
        # but it starts the optic branch TO1; only u2 is acoustic
        table = cutoffs(model, replace(ref_elastic, mu_c=0.0), inertia_off)
        tra = table[WaveBlock.TRANSVERSE]
        assert [c.mode for c in tra if c.acoustic] == ["u2"]
        assert [c.mode for c in tra if c.omega < 1.0] == ["u2", "P_[12]"]

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_micro_rotation_cutoffs_exactly_zero_at_zero_mu_c(
            self, model, ref_elastic, inertia_on):
        table = cutoffs(model, replace(ref_elastic, mu_c=0.0), inertia_on)
        omega = {c.mode: c.omega for block in ALL_BLOCKS
                 for c in table[block]}
        assert omega["P_[12]"] == 0.0
        assert omega["P_[23]"] == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_acoustic_flags_follow_sweep_labels(self, seed):
        elastic, inertia = admissible_set(seed, mu_c_zero=seed % 2 == 0)
        assert validate(elastic, inertia).ok
        grid = default_grid(elastic, inertia, points=60)
        for model in ALL_MODELS:
            table = cutoffs(model, elastic, inertia)
            for block in ALL_BLOCKS:
                curve = sweep(model, elastic, inertia, block, grid)
                # sweep keeps the ascending k = 0 order of the cut-offs
                assert [c.acoustic for c in table[block]] == [
                    b.label in ("LA", "TA") for b in curve.branches]
                assert [c.omega for c in table[block]] == pytest.approx(
                    [float(b.omegas[0]) for b in curve.branches],
                    rel=1e-12, abs=1e-6)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_uncoupled_names_ignore_the_solver_order(
            self, model, ref_elastic, inertia_on, monkeypatch):
        # TSO and TCVO tie exactly at k = 0; a solver that hands back the
        # uncoupled eigenpairs reversed must give the same table
        want = cutoffs(model, ref_elastic, inertia_on)
        uncoupled = block_for(model, ref_elastic, inertia_on,
                              WaveBlock.UNCOUPLED).stiffness_at(0.0)
        solve, reversed_calls = mmbands.dispersion.general_eig, []

        def reversing(k_matrix, m_matrix):
            sol = solve(k_matrix, m_matrix)
            if not np.array_equal(k_matrix, uncoupled):
                return sol
            reversed_calls.append(1)
            return EigenSolution(sol.omega_sq[::-1], sol.vectors[:, ::-1])

        monkeypatch.setattr(mmbands.dispersion, "general_eig", reversing)
        got = cutoffs(model, ref_elastic, inertia_on)
        assert reversed_calls == [1]
        assert got == want
        table = got[WaveBlock.UNCOUPLED]
        assert [c.mode for c in table] == ["P_(23)", "P_V", "P_[23]"]
        assert table[0].omega == table[1].omega

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_cutoffs_shared_across_models(self, model, ref_elastic,
                                          inertia_off):
        # every variant's curvature scales with k^2, so the k = 0 spectra
        # coincide across all five models
        base = cutoffs(ModelKind.INTERNAL_VARIABLE, ref_elastic, inertia_off)
        other = cutoffs(model, ref_elastic, inertia_off)
        for block in ALL_BLOCKS:
            got = [c.omega for c in other[block]]
            want = [c.omega for c in base[block]]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-6)


class TestAcousticSlopes:
    """Small-k acoustic speeds against the homogenized Cauchy medium."""

    def _slope(self, curve):
        branch = next(b for b in curve.branches if b.label.endswith("A"))
        k = curve.grid.values
        return (branch.omegas[3] - branch.omegas[0]) / (k[3] - k[0])

    def test_longitudinal_speed(self, ref_elastic, inertia_off):
        grid = KGrid.linear(10.0, 51)
        curve = sweep(ModelKind.RELAXED_CURL, ref_elastic, inertia_off,
                      WaveBlock.LONGITUDINAL, grid)
        macro = homogenize(ref_elastic)
        c_p = np.sqrt((macro.lambda_macro + 2.0 * macro.mu_macro)
                      / inertia_off.rho)
        assert self._slope(curve) == pytest.approx(c_p, rel=0.01)
        assert c_p == pytest.approx(328.0, rel=0.01)

    def test_transverse_speed(self, ref_elastic, inertia_off):
        grid = KGrid.linear(10.0, 51)
        curve = sweep(ModelKind.RELAXED_CURL, ref_elastic, inertia_off,
                      WaveBlock.TRANSVERSE, grid)
        macro = homogenize(ref_elastic)
        c_s = np.sqrt(macro.mu_macro / inertia_off.rho)
        assert self._slope(curve) == pytest.approx(c_s, rel=0.01)
        assert c_s == pytest.approx(183.0, rel=0.01)


class TestAsymptotes:
    """Bounded verdicts per column, as gap detection takes them: the DOF
    columns of the uncoupled block and the sorted columns of the others."""

    def test_flat_uncoupled_columns_of_div_variant(self, ref_elastic,
                                                   inertia_on):
        grid = default_grid(ref_elastic, points=120)
        omegas, bounded = spectrum(ModelKind.RELAXED_DIV, ref_elastic,
                                   inertia_on, WaveBlock.UNCOUPLED, grid)
        assert np.all(np.abs(omegas - omegas[0]) <= 1e-9 * omegas[0])
        assert tuple(bounded) == (True, True, True)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_uncoupled_bound_comes_from_the_curvature_stiffness(self, model):
        # omega_i^2 = (K0_ii + k^2 K2_ii) / eta is bounded exactly when
        # K2_ii = 0: no curvature term, or L_c = 0; a slowly rising
        # curvature column is unbounded however flat it looks on the grid
        flat = model in (ModelKind.RELAXED_DIV, ModelKind.INTERNAL_VARIABLE)
        for elastic, inertia in wide_cone_params(seed=14):
            grid = default_grid(elastic, inertia, points=50)
            _, bounded = spectrum(model, elastic, inertia,
                                  WaveBlock.UNCOUPLED, grid)
            k2 = block_for(model, elastic, inertia, WaveBlock.UNCOUPLED).K2
            assert tuple(bounded) == tuple(np.diagonal(k2) == 0.0)
            assert tuple(bounded) == (flat or elastic.L_c == 0.0,) * 3

    def test_lowest_column_saturates(self, ref_elastic, inertia_off):
        _, bounded = spectrum(ModelKind.RELAXED_CURL, ref_elastic,
                              inertia_off, WaveBlock.LONGITUDINAL,
                              default_grid(ref_elastic))
        assert bounded[0] is True

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("block", [WaveBlock.LONGITUDINAL, WaveBlock.TRANSVERSE])
    def test_top_coupled_column_is_unbounded(self, model, block, ref_elastic,
                                             inertia_off):
        # without gradient inertia the displacement stiffness grows as k^2
        # over a constant mass
        _, bounded = spectrum(model, ref_elastic, inertia_off, block,
                              default_grid(ref_elastic))
        assert bounded[2] is False

    def test_straight_lowest_column_not_asymptotic(self, ref_elastic,
                                                   inertia_off):
        _, bounded = spectrum(ModelKind.MINDLIN_ERINGEN, ref_elastic,
                              inertia_off, WaveBlock.LONGITUDINAL,
                              default_grid(ref_elastic))
        assert bounded[0] is False

    def test_constant_column_is_asymptotic(self):
        grid = KGrid.linear(1.0e5, 60)
        assert detect_asymptote(np.full(60, 1.0e5), grid) is True

    def test_columns_are_judged_at_once(self, ref_elastic):
        grid = default_grid(ref_elastic, points=60)
        columns = np.column_stack([np.full(60, 1.0e5), np.zeros(60),
                                   grid.values, np.zeros(60) - 1.0])
        flags = detect_asymptote(columns, grid)
        assert flags.tolist() == [True, True, False, False]
        assert flags.tolist() == [detect_asymptote(c, grid)
                                  for c in columns.T]

    def test_zero_column_is_asymptotic(self):
        # a micro-rotation with mu_c = 0 and no curvature stays at omega = 0
        grid = KGrid.linear(1.0e5, 60)
        assert detect_asymptote(np.zeros(60), grid) is True

    @pytest.mark.parametrize("model", [ModelKind.RELAXED_DIV,
                                       ModelKind.INTERNAL_VARIABLE])
    def test_zero_micro_rotation_is_bounded(self, model, ref_elastic,
                                            inertia_on):
        elastic = replace(ref_elastic, mu_c=0.0)
        grid = default_grid(ref_elastic)
        curve = sweep(model, elastic, inertia_on, WaveBlock.UNCOUPLED, grid)
        tro = curve.branches[0]
        assert tro.label == "TRO" and not np.any(tro.omegas)
        # the P_[23] column
        omegas, bounded = spectrum(model, elastic, inertia_on,
                                   WaveBlock.UNCOUPLED, grid)
        assert not np.any(omegas[:, 1]) and bounded[1]

    def test_top_decade_sampling_required(self):
        values = np.concatenate([np.linspace(0.0, 1.0e4, 55),
                                 np.array([1.0e5])])
        with pytest.raises(DegenerateGridError):
            detect_asymptote(np.full(56, 1.0), KGrid(values=values))

    # (omega at k_max, omega at the reference row) of engineered columns
    ENGINEERED = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (-1.0, -1.0),
                  (np.nan, 1.0), (1.0, np.nan), (np.nan, np.nan),
                  (np.inf, 1.0), (1.0, np.inf), (np.inf, np.inf),
                  (1.0e5, 1.0e5), (1.0e-320, 1.0e-320), (1.0e-320, 1.0e300),
                  # a change of exactly ASYMPTOTE_REL_TOL, and just below it
                  (1000.0, 999.0), (1000.0, 1001.0), (1000.0, 999.0000001)]

    def test_engineered_columns_match_the_column_formula(self):
        grid = KGrid.linear(1.0e5, 60)
        ref = int(np.argmin(np.abs(grid.values - 0.8 * grid.k_max)))
        ends, at_ref = np.array(self.ENGINEERED).T
        with np.errstate(all="ignore"):
            want = np.where(ends > 0.0, np.abs(ends - at_ref) / ends
                            < mmbands.dispersion.ASYMPTOTE_REL_TOL,
                            (ends == 0.0) & (at_ref == 0.0))
        assert want[-3:].tolist() == [False, False, True]
        columns = np.full((60, len(ends)), 5.0)
        columns[-1], columns[ref] = ends, at_ref
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flags = detect_asymptote(columns, grid)
            singles = [detect_asymptote(c, grid) for c in columns.T]
        assert flags.dtype == bool and flags.shape == (len(ends),)
        assert flags.tolist() == want.tolist() == singles
        assert all(type(flag) is bool for flag in singles)
        # trailing axes keep their shape, one verdict per entry
        cube = detect_asymptote(columns.reshape(60, 4, -1), grid)
        assert cube.tolist() == want.reshape(4, -1).tolist()

    def test_saturation_levels_match_large_k_reduction(self, ref_elastic,
                                                       inertia_off):
        # For the Curl variant the curvature leaves one micro direction
        # stiffness-free; eliminating the k^2-growing directions gives the
        # closed-form limits below for the lowest branch.
        grid = default_grid(ref_elastic)
        lon = sweep(ModelKind.RELAXED_CURL, ref_elastic, inertia_off,
                    WaveBlock.LONGITUDINAL, grid)
        tra = sweep(ModelKind.RELAXED_CURL, ref_elastic, inertia_off,
                    WaveBlock.TRANSVERSE, grid)
        eta = inertia_off.eta
        lon_limit = np.sqrt((2.0 * ref_elastic.mu_micro
                             + ref_elastic.lambda_micro) / eta)
        tra_limit = np.sqrt(ref_elastic.mu_micro / eta)
        assert float(lon.branches[0].omegas[-1]) == pytest.approx(
            lon_limit, rel=1e-3)
        assert float(tra.branches[0].omegas[-1]) == pytest.approx(
            tra_limit, rel=1e-3)

    def test_saturation_levels_with_gradient_inertia(self, ref_elastic,
                                                     inertia_on):
        # with gradient inertia both the displacement direction and the
        # curvature-free micro direction stay bounded; their limits solve
        # (K2_u - x*beta) * (q^H K0 q - x*eta) = |coupling|^2
        grid = default_grid(ref_elastic)

        def bounded_limits(k2_u, q_k0_q, coupling, beta, eta):
            poly = np.array([beta * eta,
                             -(eta * k2_u + beta * q_k0_q),
                             k2_u * q_k0_q - coupling ** 2])
            return np.sqrt(np.sort(np.roots(poly)))

        el, eta, beta = ref_elastic, inertia_on.eta, 0.1
        lon = sweep(ModelKind.RELAXED_CURL, ref_elastic, inertia_on,
                    WaveBlock.LONGITUDINAL, grid)
        want = bounded_limits(2.0 * el.mu_e + el.lambda_e,
                              2.0 * el.mu_e + el.lambda_e
                              + 2.0 * el.mu_micro + el.lambda_micro,
                              2.0 * el.mu_e + el.lambda_e, beta, eta)
        assert float(lon.branches[0].omegas[-1]) == pytest.approx(
            want[0], rel=1e-3)
        assert float(lon.branches[1].omegas[-1]) == pytest.approx(
            want[1], rel=1e-3)

        tra = sweep(ModelKind.RELAXED_CURL, ref_elastic, inertia_on,
                    WaveBlock.TRANSVERSE, grid)
        want = bounded_limits(el.mu_e + el.mu_c,
                              el.mu_e + el.mu_micro + el.mu_c,
                              el.mu_e + el.mu_c, beta, eta)
        assert float(tra.branches[0].omegas[-1]) == pytest.approx(
            want[0], rel=1e-3)
        assert float(tra.branches[1].omegas[-1]) == pytest.approx(
            want[1], rel=1e-3)


class TestSweepInvariants:
    def test_grid_refinement_consistency(self, ref_elastic, inertia_on):
        coarse = KGrid.linear(1.0e5, 101)
        fine = KGrid.linear(1.0e5, 201)
        a = sweep(ModelKind.RELAXED_CURL, ref_elastic, inertia_on,
                  WaveBlock.LONGITUDINAL, coarse)
        b = sweep(ModelKind.RELAXED_CURL, ref_elastic, inertia_on,
                  WaveBlock.LONGITUDINAL, fine)
        for ba, bb in zip(a.branches, b.branches):
            shared = bb.omegas[::2]
            denom = np.maximum(np.abs(ba.omegas), 1.0)
            assert np.max(np.abs(ba.omegas - shared) / denom) < 1e-6

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_sqrt_scaling_of_frequencies(self, model, ref_elastic,
                                         inertia_on):
        c = 4.0
        grid = KGrid.linear(5.0e4, 60)
        base = sweep(model, ref_elastic, inertia_on,
                     WaveBlock.LONGITUDINAL, grid)
        scaled = sweep(model, ref_elastic.scaled(c), inertia_on,
                       WaveBlock.LONGITUDINAL, grid)
        for ba, bb in zip(base.branches, scaled.branches):
            denom = np.maximum(ba.omegas, 1.0)
            assert np.max(np.abs(bb.omegas - np.sqrt(c) * ba.omegas)
                          / denom) < 1e-9
            assert ba.label == bb.label
            assert np.array_equal(ba.dominant, bb.dominant)

    def test_internal_variable_ignores_characteristic_length(
            self, ref_elastic, inertia_on):
        other = ElasticParams(
            mu_e=ref_elastic.mu_e, lambda_e=ref_elastic.lambda_e,
            mu_c=ref_elastic.mu_c, mu_micro=ref_elastic.mu_micro,
            lambda_micro=ref_elastic.lambda_micro, L_c=17.0 * ref_elastic.L_c)
        grid = KGrid.linear(5.0e4, 60)
        for block in ALL_BLOCKS:
            a = sweep(ModelKind.INTERNAL_VARIABLE, ref_elastic, inertia_on,
                      block, grid)
            b = sweep(ModelKind.INTERNAL_VARIABLE, other, inertia_on,
                      block, grid)
            for ba, bb in zip(a.branches, b.branches):
                assert np.array_equal(ba.omegas, bb.omegas)

    def test_no_teleporting_branches(self, ref_elastic, inertia_on):
        # adjacent samples never jump faster than the fastest characteristic
        # speed of the block, so a branch can only move by C * dk per step;
        # a mis-continued branch would show a jump of a whole cut-off gap
        from mmbands.assembly import block_for
        grid = default_grid(ref_elastic)
        for block in ALL_BLOCKS:
            bs = block_for(ModelKind.RELAXED_CURL, ref_elastic, inertia_on,
                           block)
            d = np.sqrt(np.real(np.diagonal(bs.M0)))
            speed_sq = np.linalg.eigvalsh(np.real(bs.K2) / np.outer(d, d))
            c_bound = 1.05 * np.sqrt(float(speed_sq[-1]))
            curve = sweep(ModelKind.RELAXED_CURL, ref_elastic, inertia_on,
                          block, grid)
            dk = np.diff(grid.values)
            for branch in curve.branches:
                rates = np.abs(np.diff(branch.omegas)) / dk
                assert np.max(rates) <= c_bound

    def test_branch_labels(self, ref_elastic, inertia_off):
        grid = KGrid.linear(5.0e4, 60)
        lon = sweep(ModelKind.RELAXED_CURL, ref_elastic, inertia_off,
                    WaveBlock.LONGITUDINAL, grid)
        assert [b.label for b in lon.branches] == ["LA", "LO1", "LO2"]
        tra = sweep(ModelKind.RELAXED_CURL, ref_elastic, inertia_off,
                    WaveBlock.TRANSVERSE, grid)
        assert [b.label for b in tra.branches] == ["TA", "TO1", "TO2"]
        unc = sweep(ModelKind.RELAXED_CURL, ref_elastic, inertia_off,
                    WaveBlock.UNCOUPLED, grid)
        assert [b.label for b in unc.branches] == ["TSO", "TCVO", "TRO"]

    def test_optic_modes_at_k0(self, ref_elastic, inertia_off):
        # optic longitudinal branches start as pure micro modes
        grid = KGrid.linear(5.0e4, 60)
        lon = sweep(ModelKind.RELAXED_CURL, ref_elastic, inertia_off,
                    WaveBlock.LONGITUDINAL, grid)
        starts = {b.label: b.dominant[0] for b in lon.branches}
        assert starts["LO1"] == "P_D"
        assert starts["LO2"] == "P_S"


def test_sweep_error_names_model_block_and_k(monkeypatch, ref_elastic,
                                            inertia_on):
    def failing_solve(*reduced):
        raise NotPositiveDefiniteError("mass matrix of pencil 7 failed", 7)

    monkeypatch.setattr(mmbands.dispersion, "_solution", failing_solve)
    grid = KGrid.linear(1.0e5, 60)
    with pytest.raises(NotPositiveDefiniteError) as info:
        sweep(ModelKind.RELAXED_DIV, ref_elastic, inertia_on,
              WaveBlock.TRANSVERSE, grid)
    message = str(info.value)
    assert "relaxed-div, transverse block" in message
    assert f"k = {grid.values[7]:g} rad/m" in message
    assert "pencil 7" in message
    assert info.value.index == 7


def test_uncoupled_block_overflow_is_named(ref_elastic, inertia_off):
    # K_ii / M_ii past the float range is a non-finite equilibrated pencil,
    # not an inf frequency and a numpy warning
    model = ModelKind.RELAXED_CURL
    bs = block_for(model, replace(ref_elastic, mu_e=1e306), inertia_off,
                   WaveBlock.UNCOUPLED)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EigenSolveError) as info:
            solve_block(model, bs, [0.0, 1.0], vectors=False)
    assert str(info.value) == ("relaxed-curl, uncoupled block, k = 0 rad/m: "
                               "equilibrated pencil 0 is not finite")
    assert info.value.index == 0


def test_uncoupled_block_overflowing_k_is_named(ref_elastic, inertia_on):
    # k^2 overflows: the stiffness is checked first, as in the coupled
    # blocks, before the mass, whose nan (inf times the zero M2) was once
    # reported as a diagonal entry "nan ... which is not positive"
    model = ModelKind.RELAXED_CURL
    bs = block_for(model, ref_elastic, inertia_on, WaveBlock.UNCOUPLED)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EigenSolveError) as info:
            solve_block(model, bs, [0.0, 1e200], vectors=False)
    assert str(info.value) == ("relaxed-curl, uncoupled block, "
                               "k = 1e+200 rad/m: "
                               "stiffness matrix of pencil 1 is not finite")
    assert info.value.index == 1


def outcome(solve):
    """A solve's (omegas, vectors), or its error as (type, message, index)."""
    try:
        return solve()
    except EigenSolveError as exc:
        return type(exc), str(exc), exc.index


@pytest.mark.parametrize("model", ALL_MODELS)
def test_block_solve_is_the_dense_solve_byte_for_byte(
        model, ref_elastic, inertia_off, inertia_on):
    # solve_block reads the mass diagonals and skips the Hermitian scans:
    # each coupled block's omegas and vectors are the bytes of the dense
    # (n, 3, 3) solve, the uncoupled block's omegas sorted are, and each
    # error is its error, over the reference sets and wide_cone(100) and
    # (101); 11 relaxed-curl and 4 relaxed-div block solves meet a negative
    # eigenvalue at k up to 1e8
    sets = [(ref_elastic, inertia_off), (ref_elastic, inertia_on)] + [
        (ElasticParams(**e), InertiaParams(**i))
        for seed in (100, 101) for e, i in wide_cone(seed, 24)]
    failures = 0
    for elastic, inertia in sets:
        grid = default_grid(elastic, inertia, model=model).values
        for bs in model_blocks(model, elastic, inertia).values():
            uncoupled = bs.block is WaveBlock.UNCOUPLED
            for k, vectors in ((grid, False), (grid, True),
                               (KGrid.linear(1e8, 400).values, False)):
                ks, ms = bs.stiffness_at(k), bs.mass_at(k)
                dense = (general_eig_stack if vectors else
                         general_eigvals_stack)
                want = outcome(lambda: dense(ks, ms))
                got = outcome(lambda: solve_block(model, bs, k,
                                                  vectors=vectors))
                if isinstance(want, tuple):
                    failures += 1
                    assert got[0] is want[0] and got[2] == want[2]
                    assert got[1].endswith(f" rad/m: {want[1]}")
                    continue
                omega_sq = want.omega_sq if vectors else want
                omegas = np.sort(got[0], axis=1) if uncoupled else got[0]
                assert omegas.tobytes() == np.sqrt(omega_sq).tobytes()
                if not vectors:
                    assert got[1] is None
                elif not uncoupled:
                    assert got[1].tobytes() == want.vectors.tobytes()
    assert failures == {ModelKind.RELAXED_CURL: 11,
                        ModelKind.RELAXED_DIV: 4}.get(model, 0)


def test_first_block_error_wins_when_both_fail(ref_elastic, inertia_on):
    # lambda_e = -1e9 fails the longitudinal block at the clamp, the
    # solver's last check, and eta_bar_2 = 1e300 the transverse block at
    # its mass, an earlier check: the report names the longitudinal block,
    # which it solves first
    model = ModelKind.RELAXED_CURL
    elastic = replace(ref_elastic, lambda_e=-1e9)
    inertia = replace(inertia_on, eta_bar_2=1e300)
    k = default_grid(elastic).values
    errors = []
    for bs in list(model_blocks(model, elastic, inertia).values())[:2]:
        with pytest.raises(EigenSolveError) as info:
            solve_block(model, bs, k, vectors=False)
        errors.append((str(info.value), info.value.index))
    lon_error = ("relaxed-curl, longitudinal block, k = 0 rad/m: eigenvalue "
                 "-2.1e+11 of pencil 0 below -1e-09 * |K|/|M|")
    assert errors == [(lon_error, 0), (
        "relaxed-curl, transverse block, k = 19047.6 rad/m: "
        "mass matrix of pencil 76 is not finite", 76)]
    with pytest.raises(EigenSolveError, match=f"^{re.escape(lon_error)}$"):
        detect_gaps(model, elastic, inertia)


def test_solve_block_rows_are_independent_of_the_other_wavenumbers(
        ref_elastic, inertia_on):
    # the k = 0 row of a grid solve is the one-point k = 0 solve, bit for
    # bit, which is what lets gap detection take its ceiling from row 0
    grid = default_grid(ref_elastic)
    for block in ALL_BLOCKS:
        bs = block_for(ModelKind.RELAXED_CURL, ref_elastic, inertia_on, block)
        for vectors in (False, True):
            row0 = solve_block(ModelKind.RELAXED_CURL, bs, [0.0],
                               vectors=vectors)[0]
            full = solve_block(ModelKind.RELAXED_CURL, bs, grid.values,
                               vectors=vectors)[0]
            assert np.array_equal(row0[0], full[0])


@pytest.mark.parametrize("model", ALL_MODELS)
def test_acoustic_label_ignores_the_order_of_tied_zero_roots(
        monkeypatch, model, ref_elastic, inertia_off):
    # with mu_c = 0, u2 and the micro-rotation P_[12] are an exact double
    # root at k = 0; swapping the two tied eigenpairs must not move TA
    elastic = replace(ref_elastic, mu_c=0.0)
    swaps = []

    def swapped(solve):
        def swapped_solve(*args):
            sol = solve(*args)
            w, v = sol.omega_sq.copy(), sol.vectors.copy()
            if w[0, 0] == w[0, 1] == 0.0:
                swaps.append(len(w))
                w[0] = w[0, [1, 0, 2]]
                v[0] = v[0][:, [1, 0, 2]]
            return EigenSolution(omega_sq=w, vectors=v)
        return swapped_solve

    grid = KGrid.linear(1.0e5, 60)
    results = []
    for patched in (False, True):
        if patched:
            for module, name in ((mmbands.eigensolve, "general_eig_stack"),
                                 (mmbands.dispersion, "_solution")):
                monkeypatch.setattr(module, name,
                                    swapped(getattr(module, name)))
        curve = sweep(model, elastic, inertia_off, WaveBlock.TRANSVERSE,
                      grid)
        table = cutoffs(model, elastic, inertia_off)
        results.append(([(b.label, b.dominant[0]) for b in curve.branches],
                        [(c.mode, c.acoustic, c.omega)
                         for c in table[WaveBlock.TRANSVERSE]]))
    assert sorted(swaps) == [1, len(grid)]
    assert results[0] == results[1]
    branches, cuts = results[1]
    assert branches[:2] == [("TA", "u2"), ("TO1", "P_[12]")]
    assert cuts[:2] == [("u2", True, 0.0), ("P_[12]", False, 0.0)]


def test_sweep_zero_vector_names_model_block_and_k(monkeypatch, ref_elastic,
                                                   inertia_on):
    solution = mmbands.dispersion._solution

    def zero_column_solve(*reduced):
        sol = solution(*reduced)
        sol.vectors[7, :, 1] = 0.0
        return sol

    monkeypatch.setattr(mmbands.dispersion, "_solution", zero_column_solve)
    grid = KGrid.linear(1.0e5, 60)
    with pytest.raises(ZeroVectorError) as info:
        sweep(ModelKind.RELAXED_DIV, ref_elastic, inertia_on,
              WaveBlock.LONGITUDINAL, grid)
    message = str(info.value)
    assert "relaxed-div, longitudinal block" in message
    assert f"k = {grid.values[7]:g} rad/m" in message
    assert "zero eigenvector" in message
    assert info.value.index == 7


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("block", ALL_BLOCKS)
@pytest.mark.parametrize("inertia", ["inertia_off", "inertia_on"])
def test_branch_order_matches_sequential_oracle(model, block, inertia,
                                                ref_elastic, request,
                                                monkeypatch):
    inertia = request.getfixturevalue(inertia)
    grid = default_grid(ref_elastic)
    bs = block_for(model, ref_elastic, inertia, block)
    masses = bs.mass_at(grid.values)
    sol = general_eig_stack(bs.stiffness_at(grid.values), masses)
    omegas, vectors = np.sqrt(sol.omega_sq), sol.vectors
    overlap = np.abs(np.conj(np.swapaxes(vectors[:-1], 1, 2))
                     @ (masses[1:] @ vectors[1:]))
    columns = np.array(greedy_continuation(overlap, omegas))

    match = mmbands.dispersion._greedy_overlap_match
    tied_steps = []
    monkeypatch.setattr(mmbands.dispersion, "_greedy_overlap_match",
                        lambda *a: tied_steps.append(1) or match(*a))
    curve = sweep(model, ref_elastic, inertia, block, grid)
    rows = np.arange(len(grid))
    for b, branch in enumerate(curve.branches):
        want, want_vectors = (omegas[rows, columns[:, b]],
                              vectors[rows, :, columns[:, b]])
        assert np.array_equal(branch.omegas, want)
        if block is not WaveBlock.UNCOUPLED:
            assert np.array_equal(branch.vectors, want_vectors)
            continue
        # each uncoupled branch stays on one micro mode, the vector
        # e_i / sqrt(eta)
        dof = np.argmax(np.abs(want_vectors), axis=1)
        assert np.all(dof == dof[0])
        assert np.array_equal(branch.vectors, np.tile(
            np.eye(3)[dof[0]] / np.sqrt(inertia.eta), (len(grid), 1)))
    # every step is strictly diagonally dominant: the uncoupled block's too
    # (an exact double root at every k), whose overlaps are diagonal
    assert tied_steps == []


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("block",
                         [WaveBlock.LONGITUDINAL, WaveBlock.TRANSVERSE])
def test_wide_cone_branches_match_dense_overlap_oracle(model, block):
    # sweep forms the overlaps from M's diagonal, the sequential oracle
    # from the dense |V^T (M V)|; these sets have 7 non-dominant steps
    for elastic, inertia in wide_cone_params(seed=100)[:6]:
        grid = default_grid(elastic, inertia, model=model)
        bs = block_for(model, elastic, inertia, block)
        masses = bs.mass_at(grid.values)
        sol = general_eig_stack(bs.stiffness_at(grid.values), masses)
        omegas, vectors = np.sqrt(sol.omega_sq), sol.vectors
        overlap = np.abs(np.swapaxes(vectors[:-1], 1, 2)
                         @ (masses[1:] @ vectors[1:]))
        columns = np.array(greedy_continuation(overlap, omegas))
        order, _ = mmbands.dispersion._label_branches(
            block, omegas[0], vectors[0], bs.labels)
        curve = sweep(model, elastic, inertia, block, grid)
        rows = np.arange(len(grid))
        for b, branch in zip(order, curve.branches):
            assert np.array_equal(branch.omegas, omegas[rows, columns[:, b]])
            assert np.array_equal(branch.vectors,
                                  vectors[rows, :, columns[:, b]])


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("block", ALL_BLOCKS)
@pytest.mark.parametrize("inertia", ["inertia_off", "inertia_on"])
def test_sweep_modes_match_per_vector_oracle(model, block, inertia,
                                             ref_elastic, request):
    inertia = request.getfixturevalue(inertia)
    curve = sweep(model, ref_elastic, inertia, block,
                  default_grid(ref_elastic))
    assert_modes_match_oracle(
        curve, block_for(model, ref_elastic, inertia, block).labels)


@pytest.mark.parametrize("block", ALL_BLOCKS)
def test_sweep_modes_follow_permuted_continuation(block, ref_elastic,
                                                  inertia_on, monkeypatch):
    # on the reference set every branch keeps its k = 0 eigen-index, so a
    # continuation that rotates the branches at every step is what tells
    # the modes of the continued vectors from those of the raw solve
    def rotating(overlap, omegas):
        return (np.arange(len(omegas))[:, None] + np.arange(3)) % 3

    monkeypatch.setattr(mmbands.dispersion, "_continue_branches", rotating)
    curve = sweep(ModelKind.RELAXED_CURL, ref_elastic, inertia_on, block,
                  default_grid(ref_elastic, points=60))
    assert_modes_match_oracle(curve, block_for(
        ModelKind.RELAXED_CURL, ref_elastic, inertia_on, block).labels)


def assert_modes_match_oracle(curve, labels):
    for branch in curve.branches:
        assert branch.dominant.shape == branch.ratio.shape == (
            len(curve.grid),)
        names, ratios = zip(*(classify_vector(v, labels, MODE_RATIO_THRESHOLD)
                              for v in branch.vectors))
        assert branch.dominant.tolist() == list(names)
        # exact, or rel 1e-15 where Python's complex abs rounds differently
        # from numpy's; equal infinities compare equal
        np.testing.assert_allclose(branch.ratio, ratios, rtol=1e-15, atol=0)


def test_continuation_matches_oracle_at_engineered_ties():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n_k = int(rng.integers(2, 80))
        overlap = rng.random((n_k - 1, 3, 3))
        omegas = np.sort(rng.random((n_k, 3)), axis=1)
        # a few values make ties in overlap and in frequency common
        tied = rng.random(n_k - 1) < rng.random()
        overlap[tied] = rng.choice([0.0, 0.5, 1.0], size=(tied.sum(), 3, 3))
        omegas[1:][tied] = rng.choice([1.0, 2.0], size=(tied.sum(), 3))
        expected = greedy_continuation(overlap, omegas)
        assert np.array_equal(_continue_branches(overlap, omegas), expected)


def counted_greedy(monkeypatch):
    """Patch ``_greedy_overlap_match`` to record the frequencies of each
    step it matches; returns that list."""
    match, matched = mmbands.dispersion._greedy_overlap_match, []
    monkeypatch.setattr(mmbands.dispersion, "_greedy_overlap_match",
                        lambda o, w: matched.append(w) or match(o, w))
    return matched


def test_long_continuation_matches_oracle_and_matches_only_needed_steps(
        monkeypatch):
    matched = counted_greedy(monkeypatch)
    rng = np.random.default_rng(31)
    for _ in range(6):
        n = int(rng.integers(1000, 2101))      # steps
        # strictly dominant: every off-diagonal entry below 0.5 <= diagonal
        overlap = 0.5 * rng.random((n, 3, 3))
        overlap[:, range(3), range(3)] += 0.5 + 0.5 * rng.random((n, 3))
        omegas = np.sort(rng.random((n + 1, 3)), axis=1)
        run = int(rng.integers(1, n - 12))
        equal, not_number, infinite = rng.choice(
            np.setdiff1d(np.arange(1, n - 1), range(run, run + 10)), 3,
            replace=False)
        # rows swapped by a non-identity permutation, so a match reorders
        # the branches for the dominant steps that follow it
        swapped = [0, *range(run, run + 10), n - 1]
        for j in swapped:
            overlap[j] = overlap[j][[[1, 0, 2], [2, 0, 1],
                                     [1, 2, 0]][rng.integers(3)]]
        # random entries, one off-diagonal above every diagonal one
        overlap[run + 4] = rng.random((3, 3))
        overlap[run + 4, 0, 1] = 1.0
        # an off-diagonal entry equal to the diagonal of its column (and
        # below that of its row) is not strictly dominant
        overlap[equal, 0, 0] = 2.0
        overlap[equal, 0, 1] = overlap[equal, 1, 1]
        overlap[not_number, 1, 2] = np.nan
        overlap[infinite, 2, 0] = np.inf
        odd = sorted([*swapped, equal, not_number, infinite])
        dominant_inf = int(rng.integers(run + 11, n - 1))
        if dominant_inf not in odd:     # an infinite diagonal entry is fine
            overlap[dominant_inf, 1, 1] = np.inf
        matched.clear()
        columns = _continue_branches(overlap, omegas)
        assert np.array_equal(columns, greedy_continuation(overlap, omegas))
        assert np.array_equal(matched, omegas[np.array(odd) + 1])


def test_continuation_falls_back_on_a_real_non_dominant_step(monkeypatch):
    # relaxed-curl transverse, wide_cone(100)[5] (L_c = 0): the step from
    # k = 0 swaps TA and TO1, the only step whose overlaps are not strictly
    # diagonally dominant
    elastic, inertia = wide_cone_params(100)[5]
    model, block = ModelKind.RELAXED_CURL, WaveBlock.TRANSVERSE
    grid = default_grid(elastic, inertia)
    bs = block_for(model, elastic, inertia, block)
    omegas, vectors = solve_block(model, bs, grid.values)
    overlap = np.abs(np.conj(np.swapaxes(vectors[:-1], 1, 2))
                     @ (bs.mass_at(grid.values[1:]) @ vectors[1:]))
    columns = np.array(greedy_continuation(overlap, omegas))
    assert columns[1].tolist() != [0, 1, 2]

    matched = counted_greedy(monkeypatch)
    curve = sweep(model, elastic, inertia, block, grid)
    assert np.array_equal(matched, omegas[1:2])
    order, _ = mmbands.dispersion._label_branches(block, omegas[0],
                                                  vectors[0], bs.labels)
    rows = np.arange(len(grid))
    for branch, b in zip(curve.branches, order):
        assert np.array_equal(branch.omegas, omegas[rows, columns[:, b]])
        assert np.array_equal(branch.vectors,
                              vectors[rows, :, columns[:, b]])
    assert_modes_match_oracle(curve, bs.labels)


def wide_cone_params(seed):
    return [(ElasticParams(**el), InertiaParams(**inr))
            for el, inr in wide_cone(seed)]


def symmetric_functions(roots):
    a, b, c = (float(r) for r in roots)
    return a + b + c, a * b + a * c + b * c, a * b * c


@pytest.mark.parametrize("model", ALL_MODELS)
def test_closed_form_uncoupled_matches_cubic_oracle(model):
    # the criterion-6 tolerance, 1e-8 relative to the larger of the largest
    # root and |K| / |M|, on the cubic's coefficients (the symmetric
    # functions of its roots, floored at that scale's powers): the oracle's
    # closed-form roots lose half their digits at the TSO/TCVO double root
    for elastic, inertia in wide_cone_params(seed=12):
        grid = default_grid(elastic, inertia, points=50)
        curve = sweep(model, elastic, inertia, WaveBlock.UNCOUPLED, grid)
        bs = block_for(model, elastic, inertia, WaveBlock.UNCOUPLED)
        for j in (0, 1, 17, 49):
            k_mat, m_mat = bs.stiffness_at(grid.values[j]), bs.mass_at(
                grid.values[j])
            want = cubic_pencil_eigenvalues(k_mat, m_mat)
            got = sorted(float(b.omegas[j]) ** 2 for b in curve.branches)
            scale = max(np.linalg.norm(k_mat) / np.linalg.norm(m_mat),
                        max(abs(float(w)) for w in want))
            for power, (g, w) in enumerate(zip(symmetric_functions(got),
                                               symmetric_functions(want)),
                                           start=1):
                assert abs(g - w) <= 1e-8 * max(abs(w), scale ** power)


def invariant_sets(ref_elastic, inertia_off, inertia_on):
    """The reference sets and wide_cone(100), (101) and (11)."""
    return [(ref_elastic, inertia_off), (ref_elastic, inertia_on),
            *(s for seed in (100, 101, 11) for s in wide_cone_params(seed))]


@pytest.mark.parametrize("model", ALL_MODELS)
def test_cutoffs_are_the_k0_row_of_every_sweep(model, ref_elastic,
                                               inertia_off, inertia_on):
    # every block, the uncoupled one too, is solved from one equilibrated
    # pencil: cutoffs' k = 0 solve and row 0 of a sweep are the same bytes,
    # in the same order, under the same labels
    names = {"P_(23)": "TSO", "P_[23]": "TRO", "P_V": "TCVO"}
    for elastic, inertia in [*invariant_sets(ref_elastic, inertia_off,
                                             inertia_on),
                             *wide_cone_params(seed=13)]:
        table = cutoffs(model, elastic, inertia)
        grid = default_grid(elastic, inertia, points=50, model=model)
        for block in ALL_BLOCKS:
            curve = sweep(model, elastic, inertia, block, grid)
            assert np.array([c.omega for c in table[block]]).tobytes() == (
                np.array([b.omegas[0] for b in curve.branches]).tobytes())
            assert [c.acoustic for c in table[block]] == [
                b.label in ("LA", "TA") for b in curve.branches]
            if block is WaveBlock.UNCOUPLED:
                assert [names[c.mode] for c in table[block]] == [
                    b.label for b in curve.branches]
                assert [c.mode for c in table[block]] == [
                    b.dominant[0] for b in curve.branches]


def ulps(a, b):
    """Units in the last place between non-negative float arrays."""
    assert np.all(a >= 0.0) and np.all(b >= 0.0)
    return np.abs(a.view(np.int64) - b.view(np.int64))


@pytest.mark.parametrize("model", ALL_MODELS)
def test_uncoupled_omegas_are_within_ulps_of_the_ratio(
        model, ref_elastic, inertia_off, inertia_on, monkeypatch):
    # the diagonal of the equilibrated pencil, K_ii d_i^2 times L^-1_ii
    # twice, rounds a few times on the way: each omega^2, read where the
    # solve clamps it, stays within 4 ulp of fl(K_ii / M_ii) and each omega
    # within 3 ulp of its square root
    clamped = []
    clamp = mmbands.dispersion.clamp_roundoff
    monkeypatch.setattr(mmbands.dispersion, "clamp_roundoff",
                        lambda *a: clamped.append(clamp(*a)) or clamped[-1])
    for elastic, inertia in invariant_sets(ref_elastic, inertia_off,
                                           inertia_on):
        k = default_grid(elastic, inertia, model=model).values
        bs = block_for(model, elastic, inertia, WaveBlock.UNCOUPLED)
        omegas = solve_block(model, bs, k, vectors=False)[0]
        omega_sq = clamped.pop()
        assert np.sqrt(omega_sq).tobytes() == omegas.tobytes()
        ratio = (np.diagonal(bs.stiffness_at(k), axis1=1, axis2=2)
                 / bs.mass_diagonal_at(k))
        assert ulps(omega_sq, ratio).max() <= 4
        assert ulps(omegas, np.sqrt(ratio)).max() <= 3


@pytest.mark.parametrize("model", ALL_MODELS)
def test_uncoupled_sweep_keeps_every_eigen_index(model, ref_elastic,
                                                 inertia_off, inertia_on):
    # the vectors e_i / sqrt(m_i) give exactly diagonal overlaps, so every
    # step is strictly dominant and each branch is one column of the solve,
    # in the order of its k = 0 labels; at eta = 1e-300 the solve raises
    # where some omega^2 = K_ii / eta overflows
    sets = [(ref_elastic, inertia_off), (ref_elastic, inertia_on),
            *wide_cone_params(seed=100), *wide_cone_params(seed=101)]
    solved = 0
    for elastic, inertia in [*sets, *((el, replace(inr, eta=1e-300))
                                      for el, inr in sets)]:
        grid = default_grid(elastic, inertia, model=model)
        bs = block_for(model, elastic, inertia, WaveBlock.UNCOUPLED)
        try:
            omegas, vectors = solve_block(model, bs, grid.values)
        except EigenSolveError:
            assert inertia.eta == 1e-300
            continue
        solved += 1
        overlap = np.abs(np.swapaxes(vectors[:-1], 1, 2) @ (
            bs.mass_diagonal_at(grid.values[1:])[..., None] * vectors[1:]))
        diagonal = overlap[:, range(3), range(3)]
        assert np.all(diagonal > 0.0)
        assert np.all(overlap == diagonal[:, :, None] * np.eye(3))
        assert np.array_equal(_continue_branches(overlap, omegas),
                              np.tile(np.arange(3), (len(grid), 1)))
        order, names = mmbands.dispersion._label_branches(
            WaveBlock.UNCOUPLED, omegas[0], vectors[0], bs.labels)
        curve = sweep(model, elastic, inertia, WaveBlock.UNCOUPLED, grid)
        for i, name, branch in zip(order, names, curve.branches):
            assert branch.label == name
            assert np.array_equal(branch.omegas, omegas[:, i])
            assert np.array_equal(branch.vectors, vectors[:, :, i])
    # every set at its own eta, and at least one at 1e-300
    assert solved > len(sets)
