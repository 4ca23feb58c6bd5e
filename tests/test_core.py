import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mmbands.core import (ElasticParams, InertiaParams, homogenize, validate,
                          PA_PER_MPA)

from conftest import RHO, ETA


def _failed_names(report):
    return {c.name for c in report.failures()}


class TestValidate:
    def test_reference_set_passes(self, ref_elastic, inertia_on):
        report = validate(ref_elastic, inertia_on)
        assert report.ok
        assert len(report.checks) == 9

    def test_zero_mu_e_fails_named_inequality(self, ref_elastic, inertia_off):
        bad = ElasticParams(mu_e=0.0, lambda_e=ref_elastic.lambda_e,
                            mu_c=ref_elastic.mu_c,
                            mu_micro=ref_elastic.mu_micro,
                            lambda_micro=ref_elastic.lambda_micro,
                            L_c=ref_elastic.L_c)
        report = validate(bad, inertia_off)
        assert _failed_names(report) == {"mu_e > 0"}

    def test_negative_eta_bar_fails(self, ref_elastic):
        inertia = InertiaParams(rho=RHO, eta=ETA, eta_bar_2=-0.1)
        report = validate(ref_elastic, inertia)
        assert _failed_names(report) == {"eta_bar_i >= 0"}

    def test_bulk_combination_checked(self, inertia_off):
        # mu_e alone positive is not enough: 3*lambda_e + 2*mu_e must be > 0
        bad = ElasticParams(mu_e=1e8, lambda_e=-1e8, mu_c=0.0,
                            mu_micro=1e8, lambda_micro=0.0, L_c=1e-3)
        report = validate(bad, inertia_off)
        assert "3*lambda_e + 2*mu_e > 0" in _failed_names(report)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, names", [
        ("mu_e", {"mu_e > 0", "3*lambda_e + 2*mu_e > 0"}),
        ("lambda_e", {"3*lambda_e + 2*mu_e > 0"}),
        ("mu_c", {"mu_c >= 0"}),
        ("mu_micro", {"mu_micro > 0", "3*lambda_micro + 2*mu_micro > 0"}),
        ("lambda_micro", {"3*lambda_micro + 2*mu_micro > 0"}),
        ("L_c", {"L_c >= 0"}),
        ("rho", {"rho > 0"}),
        ("eta", {"eta > 0"}),
        ("eta_bar_1", {"eta_bar_i >= 0"}),
        ("eta_bar_2", {"eta_bar_i >= 0"}),
        ("eta_bar_3", {"eta_bar_i >= 0"})])
    def test_non_finite_parameter_fails_its_checks(self, ref_elastic,
                                                   inertia_on, field, names,
                                                   value):
        # nan passes no inequality and inf passes every upper-unbounded one;
        # both must fail the checks that cover the parameter, as "not finite"
        elastic, inertia = ref_elastic, inertia_on
        if hasattr(elastic, field):
            elastic = replace(elastic, **{field: value})
        else:
            inertia = replace(inertia, **{field: value})
        report = validate(elastic, inertia)
        assert not report.ok
        assert len(report.checks) == 9
        assert {c.name: c.message for c in report.failures()} == \
            dict.fromkeys(names, "not finite")

    def test_finite_negative_eta_bar_keeps_its_detail(self, ref_elastic):
        inertia = InertiaParams(rho=RHO, eta=ETA, eta_bar_2=-0.1,
                                eta_bar_3=-0.2)
        [failure] = validate(ref_elastic, inertia).failures()
        assert failure.message == "eta_bar_[2, 3] negative"

    def test_report_collects_all_violations(self):
        bad_el = ElasticParams(mu_e=-1.0, lambda_e=0.0, mu_c=-1.0,
                               mu_micro=-1.0, lambda_micro=0.0, L_c=-1.0)
        bad_in = InertiaParams(rho=0.0, eta=-1.0, eta_bar_1=-1.0)
        report = validate(bad_el, bad_in)
        assert len(report.failures()) == 9


class TestHomogenize:
    # Expected values from exact rational arithmetic on the reference set:
    # mu = 200*100/300, 2mu+3lam = 1600*500/2100, then the standard E/nu
    # conversions.  Kept as Fractions so the oracle is exact.
    MU_EXACT = Fraction(200 * 100, 300)                  # MPa
    BULK_EXACT = Fraction(1600 * 500, 2100)              # 2mu+3lam [MPa]
    LAMBDA_EXACT = (BULK_EXACT - 2 * MU_EXACT) / 3

    def test_reference_values(self, ref_elastic):
        macro = homogenize(ref_elastic)
        lam, mu = self.LAMBDA_EXACT, self.MU_EXACT
        e_exact = mu * (3 * lam + 2 * mu) / (lam + mu)
        nu_exact = lam / (2 * (lam + mu))
        assert macro.mu_macro == pytest.approx(float(mu) * PA_PER_MPA, rel=1e-12)
        assert macro.lambda_macro == pytest.approx(float(lam) * PA_PER_MPA, rel=1e-12)
        assert macro.e_macro == pytest.approx(float(e_exact) * PA_PER_MPA, rel=1e-12)
        assert macro.nu_macro == pytest.approx(float(nu_exact), rel=1e-12)
        assert nu_exact == Fraction(13, 47)

    def test_printed_table_round_trip(self, ref_elastic):
        macro = homogenize(ref_elastic)
        assert macro.mu_macro / PA_PER_MPA == pytest.approx(66.7, rel=0.01)
        assert macro.lambda_macro / PA_PER_MPA == pytest.approx(82.5, rel=0.01)
        assert macro.e_macro / PA_PER_MPA == pytest.approx(170.0, rel=0.01)
        # matches the displayed precision of the usual two-decimal tables
        assert round(macro.nu_macro, 2) == 0.28

    def test_macro_params_invariants(self, ref_elastic):
        macro = homogenize(ref_elastic)
        lam, mu = macro.lambda_macro, macro.mu_macro
        assert macro.e_macro == pytest.approx(
            mu * (3 * lam + 2 * mu) / (lam + mu), rel=1e-12)
        assert macro.nu_macro == pytest.approx(lam / (2 * (lam + mu)), rel=1e-12)
        assert -1.0 < macro.nu_macro < 0.5

    def test_symmetric_in_scale_swap(self, ref_elastic):
        swapped = ElasticParams(
            mu_e=ref_elastic.mu_micro, lambda_e=ref_elastic.lambda_micro,
            mu_c=ref_elastic.mu_c, mu_micro=ref_elastic.mu_e,
            lambda_micro=ref_elastic.lambda_e, L_c=ref_elastic.L_c)
        a, b = homogenize(ref_elastic), homogenize(swapped)
        assert a == b

    def test_mu_macro_below_both_scales(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            mu_e, mu_micro = rng.uniform(1e6, 1e10, size=2)
            el = ElasticParams(mu_e=mu_e, lambda_e=mu_e, mu_c=0.0,
                               mu_micro=mu_micro, lambda_micro=mu_micro,
                               L_c=1e-3)
            macro = homogenize(el)
            assert macro.mu_macro < min(mu_e, mu_micro)

    def test_vanishing_shear_sum_raises(self, ref_elastic):
        # validate() rejects mu_micro <= 0 first; homogenize guards itself
        with pytest.raises(ZeroDivisionError,
                           match="^harmonic-mean denominator vanishes$"):
            homogenize(replace(ref_elastic, mu_micro=-ref_elastic.mu_e))

    def test_stiff_micro_limit(self, ref_elastic):
        stiff = ElasticParams(
            mu_e=ref_elastic.mu_e, lambda_e=ref_elastic.lambda_e,
            mu_c=ref_elastic.mu_c, mu_micro=1e12 * ref_elastic.mu_e,
            lambda_micro=1e12 * ref_elastic.lambda_e, L_c=ref_elastic.L_c)
        macro = homogenize(stiff)
        assert macro.mu_macro == pytest.approx(ref_elastic.mu_e, rel=1e-9)


class TestUnits:
    def test_engineering_ingestion(self, ref_elastic):
        assert ref_elastic.mu_e == 200.0e6
        assert ref_elastic.lambda_e == 400.0e6
        assert ref_elastic.L_c == 1.0e-3

    def test_scaled_leaves_length(self, ref_elastic):
        scaled = ref_elastic.scaled(3.0)
        assert scaled.mu_c == 3.0 * ref_elastic.mu_c
        assert scaled.L_c == ref_elastic.L_c
