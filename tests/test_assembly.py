import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mmbands.assembly
from mmbands.assembly import (LEAK_REL_TOL, BlockLeakageError, FullSystem,
                              assemble_full, block_basis, block_decompose,
                              block_for, curl_x1_coefficient,
                              div_x1_coefficient, model_blocks, DOF_NAMES)
from mmbands.bandgap import detect_gaps
from mmbands.core import (ElasticParams, InertiaParams, ModelKind, WaveBlock,
                          validate)
from mmbands.dispersion import solve_block
from mmbands.eigensolve import EigenSolveError

from oracles import wide_cone, wide_cone_set

ALL_MODELS = list(ModelKind)

E1 = np.array([1.0, 0.0, 0.0])


def sym(x):
    return 0.5 * (x + x.T)


def skew(x):
    return 0.5 * (x - x.T)


def frob_sq(x):
    return float(np.sum(np.abs(x) ** 2))


def energy_density(model, el, w, k):
    """Potential energy of a plane-wave amplitude, computed from the fields.

    Independent route: evaluates the constitutive quadratic forms on the
    amplitude tensors directly, including the model's curvature term, with
    every space derivative contributing an ik on the x1 slot.
    """
    u, p = w[:3], w[3:].reshape(3, 3)
    grad_u = 1j * k * np.outer(u, E1)
    g = grad_u - p
    w_pot = (el.mu_e * frob_sq(sym(g))
             + el.lambda_e / 2.0 * abs(np.trace(g)) ** 2
             + el.mu_c * frob_sq(skew(g))
             + el.mu_micro * frob_sq(sym(p))
             + el.lambda_micro / 2.0 * abs(np.trace(p)) ** 2)
    curl_p = 1j * k * curl_x1_coefficient(p)
    div_p = 1j * k * div_x1_coefficient(p)
    half_mod = el.mu_e * el.L_c ** 2 / 2.0
    if model is ModelKind.RELAXED_CURL:
        w_pot += half_mod * frob_sq(curl_p)
    elif model is ModelKind.RELAXED_DIV_CURL:
        w_pot += half_mod * (frob_sq(curl_p) + frob_sq(div_p))
    elif model is ModelKind.RELAXED_DIV:
        w_pot += half_mod * frob_sq(div_p)
    elif model is ModelKind.MINDLIN_ERINGEN:
        w_pot += half_mod * (k * k) * frob_sq(p)   # |grad P|^2 under the ansatz
    return w_pot


def kinetic_density(inertia, w, k):
    """Mass quadratic form computed from the kinetic energy terms."""
    u, p = w[:3], w[3:].reshape(3, 3)
    grad_u = np.outer(u, E1)            # the ik factor cancels in |ik .|^2
    sym_g = sym(grad_u)
    dev_sym = sym_g - np.trace(sym_g) / 3.0 * np.eye(3)
    return (inertia.rho * frob_sq(u) + inertia.eta * frob_sq(p)
            + (k * k) * (inertia.eta_bar_1 * frob_sq(dev_sym)
                         + inertia.eta_bar_2 * frob_sq(skew(grad_u))
                         + inertia.eta_bar_3 / 3.0 * abs(np.trace(grad_u)) ** 2))


@pytest.mark.parametrize("model", ALL_MODELS)
def test_stiffness_form_matches_energy(model, ref_elastic, inertia_on):
    rng = np.random.default_rng(11)
    system = assemble_full(model, ref_elastic, inertia_on)
    for _ in range(20):
        w = rng.normal(size=12) + 1j * rng.normal(size=12)
        k = rng.uniform(0.0, 2.0e4)
        form = float(np.real(w.conj() @ (system.stiffness_at(k) @ w)))
        assert form == pytest.approx(
            2.0 * energy_density(model, ref_elastic, w, k), rel=1e-12)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_mass_form_matches_kinetic_energy(model, ref_elastic, inertia_on):
    rng = np.random.default_rng(12)
    system = assemble_full(model, ref_elastic, inertia_on)
    for _ in range(20):
        w = rng.normal(size=12) + 1j * rng.normal(size=12)
        k = rng.uniform(0.0, 2.0e4)
        form = float(np.real(w.conj() @ (system.mass_at(k) @ w)))
        assert form == pytest.approx(kinetic_density(inertia_on, w, k),
                                     rel=1e-12)


class TestPlaneWaveOperators:
    """Finite-difference checks of the x1-ansatz derivative footprints."""

    K = 3000.0
    H = 1e-7

    def _field(self, p_hat):
        return lambda x: p_hat * np.exp(1j * self.K * x)

    def _numeric_curl(self, field):
        eps = np.zeros((3, 3, 3))
        eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
        eps[0, 2, 1] = eps[1, 0, 2] = eps[2, 1, 0] = -1.0

        def curl(x):
            dp = (field(x + self.H) - field(x - self.H)) / (2.0 * self.H)
            out = np.zeros((3, 3), dtype=complex)
            for i in range(3):
                for j in range(3):
                    # only the x1 derivative survives for these fields
                    out[i, j] = sum(eps[j, 0, h] * dp[i, h] for h in range(3))
            return out
        return curl

    def test_curl_curl_touches_columns_two_and_three(self):
        rng = np.random.default_rng(13)
        p_hat = rng.normal(size=(3, 3))
        curl1 = self._numeric_curl(self._field(p_hat))
        curl2 = self._numeric_curl(curl1)
        got = curl2(0.0)
        expected = np.zeros((3, 3), dtype=complex)
        expected[:, 1] = self.K ** 2 * p_hat[:, 1]
        expected[:, 2] = self.K ** 2 * p_hat[:, 2]
        assert np.allclose(got, expected, rtol=1e-5,
                           atol=1e-6 * self.K ** 2 * np.max(np.abs(p_hat)))

    def test_grad_div_touches_column_one(self):
        rng = np.random.default_rng(14)
        p_hat = rng.normal(size=(3, 3))
        field = self._field(p_hat)

        def div(x):
            dp = (field(x + self.H) - field(x - self.H)) / (2.0 * self.H)
            return dp[:, 0]

        grad_div = np.zeros((3, 3), dtype=complex)
        grad_div[:, 0] = (div(self.H) - div(-self.H)) / (2.0 * self.H)
        expected = np.zeros((3, 3), dtype=complex)
        expected[:, 0] = -self.K ** 2 * p_hat[:, 0]
        assert np.allclose(grad_div, expected, rtol=1e-5,
                           atol=1e-6 * self.K ** 2 * np.max(np.abs(p_hat)))

    def test_laplacian_identity(self):
        # grad(div P) - curl(curl P) equals the Laplacian footprint
        rng = np.random.default_rng(15)
        p = rng.normal(size=(3, 3))
        curl_curl = -curl_x1_coefficient(curl_x1_coefficient(p))
        grad_div = np.outer(div_x1_coefficient(p), E1)
        assert np.allclose(grad_div + curl_curl, p)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_mass_is_free_inertia_only_without_gradient_terms(
        model, ref_elastic, inertia_off):
    system = assemble_full(model, ref_elastic, inertia_off)
    expected = np.diag([inertia_off.rho] * 3 + [inertia_off.eta] * 9)
    for k in (0.0, 123.0, 5.0e4):
        assert np.array_equal(system.mass_at(k), expected.astype(complex))


def test_internal_variable_micro_block_k_independent(ref_elastic, inertia_off):
    system = assemble_full(ModelKind.INTERNAL_VARIABLE, ref_elastic,
                           inertia_off)
    assert np.all(system.K2[3:, 3:] == 0.0)
    micro0 = system.stiffness_at(0.0)[3:, 3:]
    micro1 = system.stiffness_at(7.0e4)[3:, 3:]
    assert np.array_equal(micro0, micro1)


def test_k0_micro_decouples_and_skew_cutoff(ref_elastic, inertia_off):
    # at k = 0 the displacement rows/columns vanish and the rotational
    # micro modes satisfy eta * omega^2 = 2 mu_c
    system = assemble_full(ModelKind.RELAXED_CURL, ref_elastic, inertia_off)
    k0 = system.stiffness_at(0.0)
    assert np.all(k0[:3, :] == 0.0)
    assert np.all(k0[:, :3] == 0.0)
    i12, i21 = DOF_NAMES.index("P12"), DOF_NAMES.index("P21")
    q = np.zeros(12)
    q[i12], q[i21] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
    stiff_skew = float(np.real(q @ (k0 @ q)))
    omega_rot = np.sqrt(stiff_skew / inertia_off.eta)
    assert omega_rot == pytest.approx(
        np.sqrt(2.0 * ref_elastic.mu_c / inertia_off.eta), rel=1e-12)
    assert omega_rot == pytest.approx(4.4721e5, rel=1e-4)


def test_div_curl_equals_mindlin_entrywise(ref_elastic, inertia_on):
    a = assemble_full(ModelKind.RELAXED_DIV_CURL, ref_elastic, inertia_on)
    b = assemble_full(ModelKind.MINDLIN_ERINGEN, ref_elastic, inertia_on)
    for name in ("M0", "M2", "K0", "K1", "K2"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("model", ALL_MODELS)
def test_hermiticity_at_random_wavenumbers(model, ref_elastic, inertia_on):
    rng = np.random.default_rng(16)
    system = assemble_full(model, ref_elastic, inertia_on)
    for k in rng.uniform(0.0, 1.0e5, size=8):
        mk = system.mass_at(k)
        kk = system.stiffness_at(k)
        assert np.allclose(mk, mk.conj().T, atol=1e-9 * np.linalg.norm(mk))
        assert np.allclose(kk, kk.conj().T, atol=1e-9 * np.linalg.norm(kk))


@pytest.mark.parametrize("model", ALL_MODELS)
def test_stiffness_positive_semidefinite(model, ref_elastic, inertia_on):
    rng = np.random.default_rng(17)
    system = assemble_full(model, ref_elastic, inertia_on)
    for k in rng.uniform(0.0, 1.0e5, size=8):
        kk = system.stiffness_at(k)
        low = float(np.min(np.linalg.eigvalsh(kk)))
        assert low >= -1e-9 * np.linalg.norm(kk)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_mass_positive_definite(model, ref_elastic, inertia_on):
    system = assemble_full(model, ref_elastic, inertia_on)
    for k in (0.0, 1.0e3, 1.0e5):
        mk = system.mass_at(k)
        assert float(np.min(np.linalg.eigvalsh(mk))) > 0.0


def test_gradient_inertia_locality(ref_elastic, inertia_off, inertia_on):
    base = assemble_full(ModelKind.RELAXED_CURL, ref_elastic, inertia_off)
    rich = assemble_full(ModelKind.RELAXED_CURL, ref_elastic, inertia_on)
    diff2 = rich.M2 - base.M2
    assert np.all(diff2[3:, :] == 0.0)
    assert np.all(diff2[:, 3:] == 0.0)
    # the mass difference is exactly k^2-proportional
    k = 777.0
    delta = rich.mass_at(k) - base.mass_at(k)
    assert np.allclose(delta, (k * k) * diff2, rtol=0.0, atol=0.0)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_elastic_scaling_multiplies_stiffness(model, ref_elastic, inertia_on):
    c = 3.5
    base = assemble_full(model, ref_elastic, inertia_on)
    scaled = assemble_full(model, ref_elastic.scaled(c), inertia_on)
    for k in (0.0, 441.0, 9.9e4):
        assert np.allclose(scaled.stiffness_at(k), c * base.stiffness_at(k),
                           rtol=1e-13, atol=0.0)
        assert np.array_equal(scaled.mass_at(k), base.mass_at(k))


class TestBlockDecomposition:
    def test_basis_is_unitary(self):
        t = block_basis()
        assert np.allclose(t @ t.conj().T, np.eye(12), atol=1e-15)

    def test_partition_exhausts_all_dofs(self):
        t = block_basis()
        touched = np.any(t != 0.0, axis=0)
        assert np.all(touched)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_off_block_leakage_at_specific_wavenumbers(
            self, model, ref_elastic, inertia_on):
        t = block_basis()
        system = assemble_full(model, ref_elastic, inertia_on)
        mask = np.ones((12, 12), dtype=bool)
        for b in range(4):
            sl = slice(3 * b, 3 * b + 3)
            mask[sl, sl] = False
        rng = np.random.default_rng(18)
        for k in np.concatenate(([3000.0], rng.uniform(0.0, 1e5, size=20))):
            for matrix in (system.mass_at(k), system.stiffness_at(k)):
                a = t @ matrix @ t.conj().T
                scale = float(np.max(np.abs(a)))
                assert float(np.max(np.abs(a[mask]))) <= 1e-12 * scale

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_transverse_blocks_identical(self, model, ref_elastic, inertia_on):
        blocks = block_decompose(assemble_full(model, ref_elastic, inertia_on))
        t2, t3 = blocks[1], blocks[2]
        for name in ("M0", "M2", "K0", "K1", "K2"):
            assert np.array_equal(getattr(t2, name), getattr(t3, name))

    def test_block_kinds_and_labels(self, ref_elastic, inertia_off):
        blocks = block_decompose(
            assemble_full(ModelKind.RELAXED_CURL, ref_elastic, inertia_off))
        assert [b.block for b in blocks] == [
            WaveBlock.LONGITUDINAL, WaveBlock.TRANSVERSE,
            WaveBlock.TRANSVERSE, WaveBlock.UNCOUPLED]
        assert blocks[0].labels == ("u1", "P_S", "P_D")
        assert blocks[3].labels == ("P_(23)", "P_[23]", "P_V")

    def test_relaxed_div_uncoupled_block_has_no_k_dependence(
            self, ref_elastic, inertia_on):
        uncoupled = block_for(ModelKind.RELAXED_DIV, ref_elastic, inertia_on,
                              WaveBlock.UNCOUPLED)
        assert np.all(uncoupled.K1 == 0.0)
        assert np.all(uncoupled.K2 == 0.0)

    @pytest.mark.parametrize("name, i, j, entry", [
        ("K1", "u2", "P12", 1.0),       # in phase with the displacement
        ("K0", "P12", "P21", 1.0j),     # imaginary micro-micro coupling
    ])
    def test_out_of_quadrature_entry_names_the_matrix(
            self, ref_elastic, inertia_off, name, i, j, entry):
        # both entries stay inside the transverse block, so only the
        # realness check can catch them
        system = assemble_full(ModelKind.RELAXED_CURL, ref_elastic,
                               inertia_off)
        bad = getattr(system, name).copy()
        i, j = DOF_NAMES.index(i), DOF_NAMES.index(j)
        size = 1e-6 * float(np.max(np.abs(bad)))
        bad[i, j] += size * entry
        bad[j, i] += size * np.conj(entry)
        corrupted = replace(system, **{name: bad})
        with pytest.raises(BlockLeakageError, match=f"^{name} imaginary part"):
            block_decompose(corrupted)

    def test_leakage_error_on_corrupted_system(self, ref_elastic, inertia_off):
        system = assemble_full(ModelKind.RELAXED_CURL, ref_elastic,
                               inertia_off)
        bad_k0 = system.K0.copy()
        i_u1, i_p23 = DOF_NAMES.index("u1"), DOF_NAMES.index("P23")
        bad_k0[i_u1, i_p23] = bad_k0[i_p23, i_u1] = 1.0e6
        corrupted = FullSystem(M0=system.M0, M2=system.M2, K0=bad_k0,
                               K1=system.K1, K2=system.K2)
        with pytest.raises(BlockLeakageError):
            block_decompose(corrupted)


class TestBlockStructure:
    """A BlockSystem is checked once, when built, for the structure its
    solves rely on: symmetric stiffnesses, diagonal masses, and an
    uncoupled block diagonal throughout."""

    @pytest.mark.parametrize("block, name, i, j, message", [
        (WaveBlock.LONGITUDINAL, "M0", 1, 2, "M0 is not diagonal"),
        (WaveBlock.TRANSVERSE, "M2", 0, 2, "M2 is not diagonal"),
        (WaveBlock.LONGITUDINAL, "K1", 0, 1, "K1 is not symmetric"),
        (WaveBlock.TRANSVERSE, "K0", 2, 1, "K0 is not symmetric"),
        (WaveBlock.UNCOUPLED, "K2", 0, 1, "K2 is not diagonal")])
    def test_hand_built_block_of_another_structure_is_named(
            self, ref_elastic, inertia_on, block, name, i, j, message):
        # solved, these would give a wrong spectrum with no error: the
        # solves read the mass diagonals and symmetrize B
        bs = block_for(ModelKind.RELAXED_CURL, ref_elastic, inertia_on, block)
        bad = getattr(bs, name).copy()
        bad[i, j] += 1e-3 * float(np.max(np.abs(bad)))
        with pytest.raises(BlockLeakageError, match=(
                f"^{block.value} block: {message}$")):
            replace(bs, **{name: bad})
        # the mirrored entry too: a symmetric stiffness passes, except in
        # the uncoupled block
        bad[j, i] = bad[i, j]
        if name[0] == "M" or block is WaveBlock.UNCOUPLED:
            with pytest.raises(BlockLeakageError, match="is not diagonal$"):
                replace(bs, **{name: bad})
        else:
            assert replace(bs, **{name: bad}).block is block

    def test_stiffness_asymmetry_up_to_the_leak_tolerance_passes(
            self, ref_elastic, inertia_on):
        bs = block_for(ModelKind.RELAXED_CURL, ref_elastic, inertia_on,
                       WaveBlock.LONGITUDINAL)
        scale = float(np.max(np.abs(bs.K0)))
        for excess, fails in ((1.0, False), (1.5, True)):
            bad = bs.K0.copy()
            bad[0, 1] = bad[1, 0] + excess * LEAK_REL_TOL * scale
            if fails:
                with pytest.raises(BlockLeakageError, match="K0 is not sy"):
                    replace(bs, K0=bad)
            else:
                replace(bs, K0=bad)

    def test_non_finite_stiffness_is_left_to_the_solver(
            self, ref_elastic, inertia_on):
        # an overflowing contraction can put nan or inf at mirrored entries;
        # the build passes them and the solve names the non-finite pencil
        model = ModelKind.RELAXED_CURL
        bs = block_for(model, ref_elastic, inertia_on, WaveBlock.LONGITUDINAL)
        for pair in ((math.nan, math.nan), (math.nan, 1.0), (math.inf, 1.0)):
            bad = bs.K1.copy()
            bad[0, 1], bad[1, 0] = pair
            with pytest.raises(EigenSolveError, match=(
                    "longitudinal block, k = 0 rad/m: stiffness matrix of "
                    "pencil 0 is not finite$")):
                solve_block(model, replace(bs, K1=bad), np.arange(3.0))

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_mass_diagonals_are_those_of_the_mass(self, model, ref_elastic,
                                                  inertia_on):
        k = np.linspace(0.0, 1e5, 60)
        for bs in model_blocks(model, ref_elastic, inertia_on).values():
            assert (bs.mass_diagonal_at(k).tobytes()
                    == np.diagonal(bs.mass_at(k), 0, 1, 2).tobytes())

    @pytest.mark.parametrize("name, i, j, message", [
        # inside a transverse block
        ("K0", "P12", "P21", "^transverse block: K0 is not symmetric$"),
        # inside the longitudinal one
        ("M0", "P11", "P22", "^M0 off-block")])
    def test_decomposed_blocks_keep_the_structure(
            self, ref_elastic, inertia_on, name, i, j, message):
        # the masses' roundoff off the diagonal is dropped, so every
        # decomposed block passes the check; a real asymmetry, or a mass
        # entry off the diagonal, is named
        system = assemble_full(ModelKind.RELAXED_CURL, ref_elastic,
                               inertia_on)
        for bs in block_decompose(system):
            for matrix in (bs.M0, bs.M2):
                assert np.array_equal(matrix, np.diag(np.diag(matrix)))
        bad = getattr(system, name).copy()
        i, j = DOF_NAMES.index(i), DOF_NAMES.index(j)
        bad[i, j] += 1e-6 * float(np.max(np.abs(bad)))
        if name == "M0":
            bad[j, i] = bad[i, j]
        with pytest.raises(BlockLeakageError, match=message):
            block_decompose(replace(system, **{name: bad}))


CACHED = mmbands.assembly._block_tensor


def as_params(kwargs):
    """ElasticParams and InertiaParams from a wide-cone pair of kwargs."""
    return ElasticParams(**kwargs[0]), InertiaParams(**kwargs[1])


class TestUnitTensors:
    """The per-model tensors against the assemble-and-split derivation."""

    @pytest.mark.parametrize("eta_bar_on", [False, True])
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_blocks_match_block_decompose(self, model, eta_bar_on):
        rng = np.random.default_rng([ALL_MODELS.index(model), eta_bar_on])
        for case in range(12):
            elastic, inertia = as_params(wide_cone_set(
                rng, mu_c_zero=case % 3 == 0, l_c_zero=case % 4 == 1,
                eta_bar_on=eta_bar_on))
            assert validate(elastic, inertia).ok
            want = block_decompose(assemble_full(model, elastic, inertia))
            got = model_blocks(model, elastic, inertia)
            # one block per kind, in WaveBlock order; the x3 transverse
            # block of the derivation is compared with the x2 one
            assert list(got) == list(WaveBlock)
            assert [(g.block, g.labels) for g in got.values()] == [
                (w.block, w.labels) for w in (want[0], want[1], want[3])]
            for b, w in enumerate(want):
                g = got[w.block]
                for name in ("M0", "M2", "K0", "K1", "K2"):
                    a, ref = getattr(g, name), getattr(w, name)
                    assert a.dtype == ref.dtype == np.float64
                    scale = float(np.max(np.abs(ref)))
                    assert np.max(np.abs(a - ref)) <= 1e-14 * scale, (
                        case, b, name)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_uncoupled_block_exactly_diagonal_over_the_wide_cone(self, model):
        # every kept block has an exactly diagonal mass (sweep's overlaps
        # and the solver's diagonal route rely on it), the uncoupled block
        # an exactly diagonal stiffness as well
        def diagonal(matrix):
            return np.array_equal(matrix, np.diag(np.diag(matrix)))

        for elastic, inertia in map(as_params, wide_cone(seed=11)):
            assert validate(elastic, inertia).ok
            blocks = model_blocks(model, elastic, inertia)
            for block in blocks.values():
                assert diagonal(block.M0) and diagonal(block.M2), block.block
            uncoupled = blocks[WaveBlock.UNCOUPLED]
            for name in ("K0", "K1", "K2"):
                assert diagonal(getattr(uncoupled, name))

    def test_uncoupled_off_diagonal_entry_names_the_matrix(
            self, ref_elastic, inertia_off):
        system = assemble_full(ModelKind.RELAXED_CURL, ref_elastic,
                               inertia_off)
        bad = system.K0.copy()
        i, j = DOF_NAMES.index("P23"), DOF_NAMES.index("P22")
        bad[i, j] = bad[j, i] = 1e-6 * float(np.max(np.abs(bad)))
        with pytest.raises(BlockLeakageError, match="^K0 off-block"):
            block_decompose(replace(system, K0=bad))

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_entries_are_exactly_zero_or_at_least_a_third(self, model):
        # roundoff of exact zeros, scaled by the coefficients, once gave
        # one-sided stiffness entries and a false negative eigenvalue
        units = mmbands.assembly._unit_tensor(model)
        mags = np.abs(units)
        assert np.all((mags == 0.0) | (mags >= 1.0 / 3.0))
        assert np.array_equal(units, np.swapaxes(units, -1, -2))

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_structure_the_gap_free_certificate_reads(self, model):
        # bandgap._unbounded reads a coupled block's K2 on null(M2) from
        # M2_uu, K2_uu and K2's micro part: exact zeros elsewhere make that
        # the whole of it
        units = mmbands.assembly._block_tensor(model).reshape(11, 3, 5, 3, 3)
        m2, k2 = units[:, :, 1], units[:, :, 4]
        coupled, others = k2[:, :2], np.delete(k2, 5, axis=0)
        # K2 couples no u (DOF 0 of a coupled block) with P
        assert not coupled[..., 0, 1:].any() and not coupled[..., 1:, 0].any()
        # only the curvature unit mu_e L_c^2 has micro K2 entries
        assert not others[:, :2, 1:, 1:].any() and not others[:, 2].any()
        assert not k2[5, :2, 0, 0].any()
        # M2 is nonzero only at u
        u_only = np.zeros((3, 3, 3), bool)
        u_only[:2, 0, 0] = True
        assert not m2[:, ~u_only].any() and m2[:, u_only].any()

    def test_block_basis_is_integer_rows_over_their_norms(self):
        # integer rows make the unit tensors exact with no roundoff cleanup
        rows = mmbands.assembly._BLOCK_ROWS
        u_rows = rows[:, :3].any(axis=1)
        assert np.array_equal(rows[u_rows][:, :3], 1j * np.eye(3))
        assert not rows[u_rows][:, 3:].any()
        assert not rows[~u_rows].imag.any()
        assert np.array_equal(rows.real, np.round(rows.real))
        squares = np.sum(np.abs(rows) ** 2, axis=1)
        assert sorted(set(squares)) == [1.0, 2.0, 3.0, 6.0]
        norms = np.sqrt(squares)
        assert np.array_equal(block_basis(), rows / norms[:, None])

    @pytest.mark.parametrize("overflow", [{"L_c": 1e197},
                                          {"mu_e": 1e306, "L_c": 100.0}])
    def test_overflowing_curvature_modulus_is_named(self, ref_elastic,
                                                    inertia_on, overflow):
        # L_c**2 raised a bare OverflowError, and an inf product gave nan
        # blocks (inf times the unit's zeros), misread as a nan mass diagonal
        elastic = replace(ref_elastic, **overflow)
        assert validate(elastic, inertia_on).ok
        for model in ALL_MODELS:
            if model is ModelKind.INTERNAL_VARIABLE:
                continue
            with pytest.raises(OverflowError,
                               match=rf"^{model.value}: curvature modulus "
                                     r"mu_e \* L_c\*\*2 is not finite"):
                model_blocks(model, elastic, inertia_on)

    def test_model_without_curvature_ignores_an_overflowing_l_c(
            self, ref_elastic, inertia_on):
        model = ModelKind.INTERNAL_VARIABLE
        got = model_blocks(model, replace(ref_elastic, L_c=1e197), inertia_on)
        want = model_blocks(model, ref_elastic, inertia_on)
        assert list(got) == list(want)
        for kind, w in want.items():
            g = got[kind]
            for name in ("M0", "M2", "K0", "K1", "K2"):
                assert np.array_equal(getattr(g, name), getattr(w, name))

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_transverse_units_identical(self, model):
        # the x2 and x3 transverse blocks of every unit are bitwise equal,
        # so model_blocks keeps one for every parameter set
        units = mmbands.assembly._unit_tensor(model)
        assert units[..., 3:6, 3:6].any()
        assert np.array_equal(units[..., 3:6, 3:6], units[..., 6:9, 6:9])

    def test_block_for_picks_from_model_blocks(self, ref_elastic, inertia_on):
        blocks = model_blocks(ModelKind.RELAXED_DIV, ref_elastic, inertia_on)
        for block in WaveBlock:
            want = blocks[block]
            got = block_for(ModelKind.RELAXED_DIV, ref_elastic, inertia_on,
                            block)
            assert (got.block, got.labels) == (block, want.labels)
            for name in ("M0", "M2", "K0", "K1", "K2"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    @staticmethod
    def clear_caches():
        # the cached function itself, even while a test patches _unit_tensor
        CACHED.cache_clear()

    def test_built_once_per_model(self, monkeypatch, ref_elastic, inertia_on):
        calls, checks = [], []
        original = mmbands.assembly.assemble_full
        units = mmbands.assembly._unit_tensor

        def counting(model, elastic, inertia):
            calls.append(model)
            return original(model, elastic, inertia)

        def counting_units(model):
            checks.append(model)
            return units(model)

        monkeypatch.setattr(mmbands.assembly, "assemble_full", counting)
        monkeypatch.setattr(mmbands.assembly, "_unit_tensor", counting_units)
        self.clear_caches()
        model = ModelKind.MINDLIN_ERINGEN
        block_for(model, ref_elastic, inertia_on, WaveBlock.LONGITUDINAL)
        built = len(calls)
        for block in WaveBlock:
            block_for(model, replace(ref_elastic, mu_c=0.0), inertia_on,
                      block)
            model_blocks(model, ref_elastic, inertia_on)
        assert built > 0 and len(calls) == built
        assert set(calls) == {model}
        # the block tensor, and its leak check, is built once too
        assert checks == [model]
        assert mmbands.assembly._block_tensor.cache_info().currsize == 1

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_a_first_report_assembles_only_the_unit_tensor(
            self, monkeypatch, ref_elastic, inertia_off, model):
        # the gap-free certificate reads the curvature operator, so a first
        # report at eta_bar = 0 assembles the tensor's six systems, no more
        calls = []
        original = mmbands.assembly.assemble_full

        def counting(kind, elastic, inertia):
            calls.append(kind)
            return original(kind, elastic, inertia)

        monkeypatch.setattr(mmbands.assembly, "assemble_full", counting)
        for cached in vars(mmbands.assembly).values():   # every cache in it
            getattr(cached, "cache_clear", lambda: None)()
        detect_gaps(model, ref_elastic, inertia_off)
        assert calls == [model] * 6

    @pytest.mark.parametrize("entry, message", [
        ((3, 2, 0, 11), "off-block"),     # mu_micro unit, K0: u1 with P_V
        # eta unit, M0: P_S with P_D, inside the longitudinal block but off
        # the mass diagonal, which _split drops as it drops off-block ones
        ((7, 0, [1, 2], [2, 1]), "off-block"),
        ((6, 0, 4, 4), "imaginary")])     # rho unit, M0: P_(12) diagonal
    def test_leaking_unit_raises_naming_the_model(
            self, monkeypatch, ref_elastic, inertia_on, entry, message):
        units = mmbands.assembly._unit_tensor

        def leaking(model):
            bad = units(model).copy()
            bad[entry] += 1e-3j if message == "imaginary" else 1e-3
            return bad

        self.clear_caches()
        monkeypatch.setattr(mmbands.assembly, "_unit_tensor", leaking)
        for model in (ModelKind.RELAXED_CURL, ModelKind.RELAXED_DIV):
            for _ in range(2):      # a failed build is not cached
                with pytest.raises(BlockLeakageError,
                                   match=f"^{model.value}: .* {message}"):
                    model_blocks(model, ref_elastic, inertia_on)
        monkeypatch.undo()
        self.clear_caches()
        assert model_blocks(ModelKind.RELAXED_CURL, ref_elastic, inertia_on)

    @staticmethod
    def split_contraction(model, el, inr):
        """The reference: ``_split`` of the full unit-tensor contraction,
        keeping its longitudinal, x2 transverse and uncoupled blocks."""
        units = mmbands.assembly._unit_tensor(model)
        curvature = el.mu_e * el.L_c ** 2 if units[5].any() else 0.0
        coefficients = [el.mu_e, el.lambda_e, el.mu_c, el.mu_micro,
                        el.lambda_micro, curvature, inr.rho, inr.eta,
                        inr.eta_bar_1, inr.eta_bar_2, inr.eta_bar_3]
        blocks = mmbands.assembly._split(
            np.tensordot(coefficients, units, axes=1))
        return blocks[0], blocks[1], blocks[3]

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_blocks_bit_identical_to_the_split_contraction(
            self, model, ref_elastic, inertia_on):
        cases = list(map(as_params, wide_cone(seed=12)))
        # built directly, unvalidated: extreme coefficients
        for value in (1e300, 1e-300):
            cases += [(replace(ref_elastic, mu_e=value), inertia_on),
                      (ref_elastic, replace(inertia_on, eta_bar_1=value))]
        for elastic, inertia in cases:
            with np.errstate(over="ignore"):
                got = model_blocks(model, elastic, inertia)
                want = self.split_contraction(model, elastic, inertia)
            assert [(g.block, g.labels) for g in got.values()] == [
                (w.block, w.labels) for w in want]
            for g, w in zip(got.values(), want):
                for name in ("M0", "M2", "K0", "K1", "K2"):
                    a, ref = getattr(g, name), getattr(w, name)
                    # tobytes: signed zeros count
                    assert a.dtype == ref.dtype and a.shape == ref.shape
                    assert a.tobytes() == ref.tobytes(), (elastic, inertia)
        # non-finite ones are named before the contraction, mu_e through
        # the curvature modulus mu_e * L_c**2 where the model has one
        curved = model is not ModelKind.INTERNAL_VARIABLE
        for value in (math.inf, math.nan):
            with pytest.raises(OverflowError if curved else ValueError,
                               match=f"^{model.value}: " + (
                                   "curvature modulus" if curved
                                   else "coefficient mu_e is not finite$")):
                model_blocks(model, replace(ref_elastic, mu_e=value),
                             inertia_on)
            with pytest.raises(ValueError, match=f"^{model.value}: "
                               "coefficient eta_bar_1 is not finite$"):
                model_blocks(model, ref_elastic,
                             replace(inertia_on, eta_bar_1=value))

    def test_not_built_at_import(self):
        code = ("import mmbands, mmbands.assembly as a; "
                "print(a._block_tensor.cache_info().currsize)")
        src = str(Path(mmbands.assembly.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env).stdout
        assert out.split() == ["0"]
