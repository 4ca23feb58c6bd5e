"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 2 checks four printed table values at 1% relative; the
Poisson-ratio entry of that table is a two-decimal rounding that sits 1.2%
from the value its own defining formulas produce, so that sub-check fails
by construction and is kept failing rather than loosened (see the test
docstring).
"""

import time

import numpy as np
import pytest

from mmbands.assembly import (assemble_full, block_basis, block_decompose,
                              block_for)
from mmbands.bandgap import detect_gaps
from mmbands.cli import run
from mmbands.core import ModelKind, WaveBlock, homogenize
from mmbands.dispersion import KGrid, cutoffs, default_grid, sweep
from mmbands.eigensolve import general_eig

from conftest import (MU_E_MPA, LAMBDA_E_MPA, MU_C_MPA, MU_MICRO_MPA,
                      LAMBDA_MICRO_MPA, L_C_MM, RHO, ETA, ETA_BAR)
from oracles import cubic_pencil_eigenvalues
from test_eigensolve import random_pencil

ALL_MODELS = list(ModelKind)

GAP_COUNT_TABLE = {
    ModelKind.RELAXED_CURL: (1, 2),
    ModelKind.RELAXED_DIV_CURL: (0, 1),
    ModelKind.RELAXED_DIV: (0, 2),
    ModelKind.MINDLIN_ERINGEN: (0, 1),
    ModelKind.INTERNAL_VARIABLE: (2, 3),
}

# filled by criterion 1, reused by criterion 9
_BASELINE_REPORTS: dict = {}


def _report(num, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _baseline_reports(ref_elastic, inertia_off, inertia_on):
    if not _BASELINE_REPORTS:
        for model in ALL_MODELS:
            for tag, inertia in (("off", inertia_off), ("on", inertia_on)):
                _BASELINE_REPORTS[(model, tag)] = detect_gaps(
                    model, ref_elastic, inertia)
    return _BASELINE_REPORTS


def test_criterion_1_gap_count_regression(ref_elastic, inertia_off,
                                          inertia_on):
    start = time.monotonic()
    reports = _baseline_reports(ref_elastic, inertia_off, inertia_on)
    elapsed = time.monotonic() - start

    mismatches = []
    for model, (want_off, want_on) in GAP_COUNT_TABLE.items():
        got_off = len(reports[(model, "off")].gaps)
        got_on = len(reports[(model, "on")].gaps)
        if (got_off, got_on) != (want_off, want_on):
            mismatches.append(
                f"{model.value}: {got_off}/{got_on} != {want_off}/{want_on}")
    ok = not mismatches and elapsed < 30.0
    detail = (f"ten runs in {elapsed:.1f} s; counts "
              + "; ".join(f"{m.value}={len(reports[(m, 'off')].gaps)}/"
                          f"{len(reports[(m, 'on')].gaps)}"
                          for m in ALL_MODELS))
    if mismatches:
        detail += " | mismatches: " + "; ".join(mismatches)
    _report(1, ok, detail)


@pytest.mark.parametrize("name,printed", [
    ("mu_macro", 66.7), ("lambda_macro", 82.5), ("e_macro", 170.0),
    ("nu_macro", 0.28)])
def test_criterion_2_homogenization(name, printed, ref_elastic):
    """Printed-table round trip at 1% relative.

    The nu_macro case cannot pass: with the harmonic-mean combination that
    reproduces mu (66.67 -> 66.7) and lambda (82.54 -> 82.5) exactly, the
    Poisson ratio is lambda/(2(lambda+mu)) = 13/47 = 0.27660, and the
    printed 0.28 is a two-decimal rounding 1.22% away.  No alternative
    consistent formula reaches 0.28 within 1%: back-solving mu and nu from
    the printed row gives a lambda that contradicts the printed lambda.
    The check is kept at the stated tolerance instead of being loosened.
    """
    macro = homogenize(ref_elastic)
    value = getattr(macro, name)
    if name != "nu_macro":
        value /= 1.0e6                       # Pa -> MPa
    rel = abs(value - printed) / printed
    _report(f"2:{name}", rel < 0.01,
            f"computed {value:.6g} vs printed {printed:g} "
            f"({100.0 * rel:.2f}% relative)")


def test_criterion_3_cutoff_invariance(ref_elastic, inertia_off, inertia_on):
    worst = 0.0
    for model in ALL_MODELS:
        base = cutoffs(model, ref_elastic, inertia_off)
        rich = cutoffs(model, ref_elastic, inertia_on)
        for block in (WaveBlock.LONGITUDINAL, WaveBlock.TRANSVERSE,
                      WaveBlock.UNCOUPLED):
            for a, b in zip(base[block], rich[block]):
                scale = max(a.omega, 1.0)
                worst = max(worst, abs(a.omega - b.omega) / scale)
    _report(3, worst <= 1e-12,
            f"largest relative cut-off shift under gradient inertia: "
            f"{worst:.2e}")


def test_criterion_4_analytic_cutoffs(ref_elastic, inertia_off):
    el, eta = ref_elastic, inertia_off.eta
    expected = {
        "shear": np.sqrt(2.0 * (el.mu_e + el.mu_micro) / eta),
        "rotational": np.sqrt(2.0 * el.mu_c / eta),
        "pressure": np.sqrt((3.0 * el.lambda_e + 2.0 * el.mu_e
                             + 3.0 * el.lambda_micro + 2.0 * el.mu_micro)
                            / eta),
    }
    table = cutoffs(ModelKind.RELAXED_CURL, ref_elastic, inertia_off)
    got = {
        "shear": table[WaveBlock.TRANSVERSE][1].omega,
        "rotational": table[WaveBlock.TRANSVERSE][2].omega,
        "pressure": table[WaveBlock.LONGITUDINAL][2].omega,
    }
    worst = max(abs(got[k] - expected[k]) / expected[k] for k in expected)

    # cross-check the numerical k = 0 spectra against the independent
    # characteristic-polynomial root finder
    oracle_worst = 0.0
    for block in (WaveBlock.LONGITUDINAL, WaveBlock.TRANSVERSE,
                  WaveBlock.UNCOUPLED):
        bs = block_for(ModelKind.RELAXED_CURL, ref_elastic, inertia_off,
                       block)
        k0, m0 = bs.stiffness_at(0.0), bs.mass_at(0.0)
        jac = general_eig(k0, m0).omega_sq
        cub = cubic_pencil_eigenvalues(k0, m0)
        scale = np.linalg.norm(k0) / np.linalg.norm(m0)
        for a, b in zip(jac, cub):
            oracle_worst = max(oracle_worst,
                               abs(a - b) / max(abs(b), scale))
    ok = worst <= 1e-9 and oracle_worst <= 1e-8
    _report(4, ok, f"cut-offs vs closed forms: {worst:.2e} relative; "
                   f"vs polynomial oracle: {oracle_worst:.2e}")


def test_criterion_5_model_equivalence(ref_elastic, inertia_on, tmp_path):
    a = assemble_full(ModelKind.RELAXED_DIV_CURL, ref_elastic, inertia_on)
    b = assemble_full(ModelKind.MINDLIN_ERINGEN, ref_elastic, inertia_on)
    systems_equal = all(np.array_equal(getattr(a, n), getattr(b, n))
                        for n in ("M0", "M2", "K0", "K1", "K2"))

    def disperse_csv(model_name, out_name):
        out = tmp_path / out_name
        code = run(["disperse", "--model", model_name,
                    "--mu-e", str(MU_E_MPA), "--lambda-e", str(LAMBDA_E_MPA),
                    "--mu-c", str(MU_C_MPA), "--mu-micro", str(MU_MICRO_MPA),
                    "--lambda-micro", str(LAMBDA_MICRO_MPA),
                    "--l-c", str(L_C_MM), "--rho", str(RHO),
                    "--eta", str(ETA), "--eta-bar-1", str(ETA_BAR),
                    "--eta-bar-2", str(ETA_BAR), "--eta-bar-3", str(ETA_BAR),
                    "--grid-points", "120", "--output", str(out)])
        assert code == 0
        return out.read_bytes()

    csv_a = disperse_csv("relaxed-div-curl", "a.csv")
    csv_b = disperse_csv("mindlin-eringen", "b.csv")
    csv_equal = csv_a == csv_b
    _report(5, systems_equal and csv_equal,
            f"assembled systems identical: {systems_equal}; "
            f"dispersion CSVs byte-identical: {csv_equal}")


def test_criterion_6_eigensolver_oracle():
    rng = np.random.default_rng(2024)
    worst_val, worst_res = 0.0, 0.0
    for _ in range(200):
        k, m = random_pencil(rng)
        sol = general_eig(k, m)
        ref = cubic_pencil_eigenvalues(k, m)
        scale = np.linalg.norm(k) / np.linalg.norm(m)
        for got, want in zip(sol.omega_sq, ref):
            worst_val = max(worst_val, abs(got - want) / max(abs(want), scale))
        k_norm, m_norm = np.linalg.norm(k), np.linalg.norm(m)
        for j in range(3):
            v = sol.vectors[:, j]
            res = np.linalg.norm(k @ v - sol.omega_sq[j] * (m @ v))
            worst_res = max(worst_res,
                            res / (k_norm + abs(sol.omega_sq[j]) * m_norm))
    ok = worst_val <= 1e-8 and worst_res <= 1e-10
    _report(6, ok, f"200 pencils: eigenvalues vs cubic oracle {worst_val:.2e}"
                   f" relative, residuals {worst_res:.2e} relative")


def test_criterion_7_structural_invariants(ref_elastic, inertia_on):
    failures = []

    # block-diagonality leakage for every model at 20 random wavenumbers
    t = block_basis()
    mask = np.ones((12, 12), dtype=bool)
    for b in range(4):
        mask[3 * b:3 * b + 3, 3 * b:3 * b + 3] = False
    rng = np.random.default_rng(99)
    worst_leak = 0.0
    for model in ALL_MODELS:
        system = assemble_full(model, ref_elastic, inertia_on)
        for k in rng.uniform(0.0, 1.0e5, size=20):
            for matrix in (system.mass_at(k), system.stiffness_at(k)):
                trans = t @ matrix @ t.conj().T
                scale = float(np.max(np.abs(trans)))
                worst_leak = max(worst_leak,
                                 float(np.max(np.abs(trans[mask]))) / scale)
    if worst_leak > 1e-12:
        failures.append(f"leakage {worst_leak:.2e}")

    # transverse-2 equals transverse-3 for every model: equal matrices
    # give equal sweeps
    for model in ALL_MODELS:
        blocks = block_decompose(assemble_full(model, ref_elastic, inertia_on))
        if not all(np.array_equal(getattr(blocks[1], name),
                                  getattr(blocks[2], name))
                   for name in ("M0", "M2", "K0", "K1", "K2")):
            failures.append(f"{model.value}: transverse axes differ")

    # sqrt(c) scaling of every frequency
    c = 2.25
    worst_scale = 0.0
    for model in ALL_MODELS:
        grid = KGrid.linear(5.0e4, 60)
        for block in (WaveBlock.LONGITUDINAL, WaveBlock.TRANSVERSE,
                      WaveBlock.UNCOUPLED):
            base = sweep(model, ref_elastic, inertia_on, block, grid)
            scaled = sweep(model, ref_elastic.scaled(c), inertia_on, block,
                           grid)
            for ba, bb in zip(base.branches, scaled.branches):
                denom = np.maximum(ba.omegas, 1.0)
                worst_scale = max(worst_scale, float(np.max(
                    np.abs(bb.omegas - np.sqrt(c) * ba.omegas) / denom)))
    if worst_scale > 1e-9:
        failures.append(f"sqrt-scaling error {worst_scale:.2e}")

    # internal-variable curves ignore the characteristic length
    from dataclasses import replace
    longer = replace(ref_elastic, L_c=13.0 * ref_elastic.L_c)
    grid = KGrid.linear(5.0e4, 60)
    for block in (WaveBlock.LONGITUDINAL, WaveBlock.TRANSVERSE,
                  WaveBlock.UNCOUPLED):
        a = sweep(ModelKind.INTERNAL_VARIABLE, ref_elastic, inertia_on,
                  block, grid)
        b = sweep(ModelKind.INTERNAL_VARIABLE, longer, inertia_on, block,
                  grid)
        for ba, bb in zip(a.branches, b.branches):
            if not np.array_equal(ba.omegas, bb.omegas):
                failures.append("internal variable depends on L_c")
                break

    # uncoupled branches of the Div variant stay flat
    curve = sweep(ModelKind.RELAXED_DIV, ref_elastic, inertia_on,
                  WaveBlock.UNCOUPLED, default_grid(ref_elastic, points=120))
    worst_flat = 0.0
    for branch in curve.branches:
        ref = float(branch.omegas[0])
        worst_flat = max(worst_flat,
                         float(np.max(np.abs(branch.omegas - ref))) / ref)
    if worst_flat > 1e-9:
        failures.append(f"div-variant uncoupled drift {worst_flat:.2e}")

    _report(7, not failures,
            "leakage {:.1e}; scaling {:.1e}; flat-drift {:.1e}{}".format(
                worst_leak, worst_scale, worst_flat,
                "; " + "; ".join(failures) if failures else ""))


def test_criterion_8_acoustic_slopes(ref_elastic, inertia_off):
    macro = homogenize(ref_elastic)
    c_p = np.sqrt((macro.lambda_macro + 2.0 * macro.mu_macro)
                  / inertia_off.rho)
    c_s = np.sqrt(macro.mu_macro / inertia_off.rho)
    grid = KGrid.linear(10.0, 51)

    def slope(block):
        curve = sweep(ModelKind.RELAXED_CURL, ref_elastic, inertia_off,
                      block, grid)
        branch = next(b for b in curve.branches if b.label.endswith("A"))
        k = grid.values
        return float((branch.omegas[3] - branch.omegas[0]) / (k[3] - k[0]))

    got_p = slope(WaveBlock.LONGITUDINAL)
    got_s = slope(WaveBlock.TRANSVERSE)
    rel_p = abs(got_p - c_p) / c_p
    rel_s = abs(got_s - c_s) / c_s
    ok = rel_p < 0.01 and rel_s < 0.01 and abs(c_p - 328.0) / 328.0 < 0.01 \
        and abs(c_s - 183.0) / 183.0 < 0.01
    _report(8, ok, f"longitudinal {got_p:.1f} m/s vs {c_p:.1f} "
                   f"({100 * rel_p:.2f}%); transverse {got_s:.1f} m/s vs "
                   f"{c_s:.1f} ({100 * rel_s:.2f}%)")


def test_criterion_9_grid_robustness(ref_elastic, inertia_off, inertia_on):
    baselines = _baseline_reports(ref_elastic, inertia_off, inertia_on)
    failures = []
    worst_shift = 0.0
    for model in ALL_MODELS:
        for tag, inertia in (("off", inertia_off), ("on", inertia_on)):
            base = baselines[(model, tag)]
            refined = detect_gaps(
                model, ref_elastic, inertia,
                grid=default_grid(ref_elastic, points=800),
                delta_omega=base.delta_omega / 2.0)
            if len(refined.gaps) != len(base.gaps):
                failures.append(f"{model.value}/{tag}: count "
                                f"{len(base.gaps)} -> {len(refined.gaps)}")
                continue
            for g0, g1 in zip(base.gaps, refined.gaps):
                for e0, e1 in ((g0.omega_lo, g1.omega_lo),
                               (g0.omega_hi, g1.omega_hi)):
                    shift = abs(e1 - e0) / base.delta_omega
                    worst_shift = max(worst_shift, shift)
                    if shift >= 5.0:
                        failures.append(
                            f"{model.value}/{tag}: edge moved "
                            f"{shift:.1f} bins")
    _report(9, not failures,
            f"largest edge shift {worst_shift:.2f} bins (< 5 required)"
            + ("; " + "; ".join(failures) if failures else ""))
