import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mmbands.assembly
from mmbands.assembly import (BlockLeakageError, FullSystem, assemble_full,
                              block_basis, block_decompose, block_for,
                              curl_x1_coefficient, div_x1_coefficient,
                              model_blocks, DOF_NAMES)
from mmbands.core import (ElasticParams, InertiaParams, ModelKind, WaveBlock,
                          validate)

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


def wide_admissible_set(rng, *, mu_c_zero, l_c_zero, eta_bar_on):
    """Moduli over nine decades, lambdas of either sign (3*lambda + 2*mu
    > 0), L_c from 10 um to 1 m, and eta_bar / eta up to 1e10."""
    mu_e, mu_c, mu_micro = 10.0 ** rng.uniform(3.0, 12.0, size=3)
    elastic = ElasticParams(
        mu_e=mu_e, lambda_e=mu_e * rng.uniform(-0.6, 2.0),
        mu_c=0.0 if mu_c_zero else mu_c, mu_micro=mu_micro,
        lambda_micro=mu_micro * rng.uniform(-0.6, 2.0),
        L_c=0.0 if l_c_zero else 10.0 ** rng.uniform(-5.0, 0.0))
    eta = 10.0 ** rng.uniform(-8.0, -1.0)
    eta_bar = eta * 10.0 ** rng.uniform(-2.0, 10.0, size=3)
    return elastic, InertiaParams(
        10.0 ** rng.uniform(0.0, 4.0), eta,
        *(eta_bar if eta_bar_on else np.zeros(3)))


class TestUnitTensors:
    """The per-model tensors against the assemble-and-split derivation."""

    @pytest.mark.parametrize("eta_bar_on", [False, True])
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_blocks_match_block_decompose(self, model, eta_bar_on):
        rng = np.random.default_rng([ALL_MODELS.index(model), eta_bar_on])
        for case in range(12):
            elastic, inertia = wide_admissible_set(
                rng, mu_c_zero=case % 3 == 0, l_c_zero=case % 4 == 1,
                eta_bar_on=eta_bar_on)
            assert validate(elastic, inertia).ok
            want = block_decompose(assemble_full(model, elastic, inertia))
            got = model_blocks(model, elastic, inertia)
            for b, (g, w) in enumerate(zip(got, want)):
                assert (g.block, g.labels) == (w.block, w.labels)
                for name in ("M0", "M2", "K0", "K1", "K2"):
                    a, ref = getattr(g, name), getattr(w, name)
                    assert a.dtype == ref.dtype == np.float64
                    scale = float(np.max(np.abs(ref)))
                    assert np.max(np.abs(a - ref)) <= 1e-14 * scale, (
                        case, b, name)

    def test_block_for_picks_from_model_blocks(self, ref_elastic, inertia_on):
        blocks = model_blocks(ModelKind.RELAXED_DIV, ref_elastic, inertia_on)
        picks = [(WaveBlock.LONGITUDINAL, 2), (WaveBlock.TRANSVERSE, 2),
                 (WaveBlock.TRANSVERSE, 3), (WaveBlock.UNCOUPLED, 2)]
        for want, (block, axis) in zip(blocks, picks):
            got = block_for(ModelKind.RELAXED_DIV, ref_elastic, inertia_on,
                            block, axis)
            assert got.labels == want.labels
            for name in ("M0", "M2", "K0", "K1", "K2"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_built_once_per_model(self, monkeypatch, ref_elastic, inertia_on):
        calls = []
        original = mmbands.assembly.assemble_full

        def counting(model, elastic, inertia):
            calls.append(model)
            return original(model, elastic, inertia)

        monkeypatch.setattr(mmbands.assembly, "assemble_full", counting)
        mmbands.assembly._unit_tensor.cache_clear()
        model = ModelKind.MINDLIN_ERINGEN
        block_for(model, ref_elastic, inertia_on, WaveBlock.LONGITUDINAL)
        built = len(calls)
        for block in WaveBlock:
            block_for(model, replace(ref_elastic, mu_c=0.0), inertia_on,
                      block)
            model_blocks(model, ref_elastic, inertia_on)
        assert built > 0 and len(calls) == built
        assert set(calls) == {model}

    def test_not_built_at_import(self):
        code = ("import mmbands, mmbands.assembly as a; "
                "print(a._unit_tensor.cache_info().currsize)")
        src = str(Path(mmbands.assembly.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env).stdout
        assert out.strip() == "0"
