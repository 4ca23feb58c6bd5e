import collections
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

import mmbands.assembly
import mmbands.bandgap
import mmbands.dispersion
from mmbands import (ModelKind, WaveBlock, cutoffs, default_omega_ceiling,
                     sweep)
from mmbands.cli import _cells, _csv_text, build_config, build_parser, run

from conftest import (MU_E_MPA, LAMBDA_E_MPA, MU_C_MPA, MU_MICRO_MPA,
                      LAMBDA_MICRO_MPA, L_C_MM, RHO, ETA, ETA_BAR)

CONFIG_TEXT = f"""\
# reference parameter set (engineering units)
model = relaxed-curl
mu_e = {MU_E_MPA}            # MPa
lambda_e = {LAMBDA_E_MPA}
mu_c = {MU_C_MPA}
mu_micro = {MU_MICRO_MPA}
lambda_micro = {LAMBDA_MICRO_MPA}
L_c = {L_C_MM}               # mm
rho = {RHO}                  # kg/m^3
eta = {ETA}                  # kg/m
eta_bar_1 = {ETA_BAR}
eta_bar_2 = {ETA_BAR}
eta_bar_3 = {ETA_BAR}
"""


DEMO_CONFIG = str(Path(__file__).resolve().parents[1] / "demo.cfg")

# every subcommand, with the flags it requires besides its parameters
COMMANDS = {"homogenize": [], "cutoffs": [], "disperse": [], "gaps": [],
            "modes": ["--block", "transverse", "--branch", "TA"],
            "sweep-param": ["--param", "eta_bar_2", "--range", "0:0.2:3"],
            "plot": []}


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "params.cfg"
    path.write_text(CONFIG_TEXT, encoding="utf-8")
    return str(path)


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = run(argv + ["--output", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else ""


class TestHomogenizeCommand:
    def test_values_and_exit_code(self, tmp_path, config_file):
        code, text = run_to_file(tmp_path, "macro.json",
                                 ["homogenize", "--config", config_file])
        assert code == 0
        data = json.loads(text)
        assert data["mu_macro_mpa"] == pytest.approx(66.7, rel=0.01)
        assert data["lambda_macro_mpa"] == pytest.approx(82.5, rel=0.01)
        assert data["e_macro_mpa"] == pytest.approx(170.0, rel=0.01)
        assert round(data["nu_macro"], 2) == 0.28

    def test_elastic_flags_suffice(self, tmp_path):
        argv = ["homogenize", "--mu-e", "200", "--lambda-e", "400",
                "--mu-c", "1000", "--mu-micro", "100",
                "--lambda-micro", "100", "--l-c", "1"]
        code, text = run_to_file(tmp_path, "macro.json", argv)
        assert code == 0
        assert json.loads(text)["nu_macro"] == pytest.approx(13 / 47, rel=1e-9)

    @pytest.mark.parametrize("flags", [["--rho", "-1"], ["--eta", "nan"],
                                       ["--eta-bar-1", "-1"]])
    def test_unread_inertia_is_not_checked(self, capsys, flags):
        argv = ["homogenize", "--config", DEMO_CONFIG]
        got = [(run(argv + extra), *capsys.readouterr())
               for extra in ([], flags)]
        assert got[0][0] == 0 and got[0][2] == ""
        assert got[1] == got[0]

    def test_only_elastic_failures_are_listed(self, capsys):
        assert run(["homogenize", "--config", DEMO_CONFIG, "--rho", "-1",
                    "--mu-e", "-1"]) == 3
        assert capsys.readouterr() == ("", "invalid parameters: mu_e > 0\n")


class TestCutoffsCommand:
    def test_structure_and_values(self, tmp_path, config_file):
        code, text = run_to_file(tmp_path, "cut.json",
                                 ["cutoffs", "--config", config_file])
        assert code == 0
        data = json.loads(text)
        assert data["unit"] == "rad/s"
        assert set(data["blocks"]) == {"longitudinal", "transverse",
                                       "uncoupled"}
        lon = data["blocks"]["longitudinal"]
        assert lon[0]["acoustic"] is True and lon[0]["omega"] == 0.0
        assert lon[2]["omega"] == pytest.approx(4.5826e5, rel=1e-4)

    def test_micro_rotation_not_acoustic_at_zero_mu_c(self, tmp_path):
        code, text = run_to_file(tmp_path, "cut.json",
                                 ["cutoffs", "--config", DEMO_CONFIG,
                                  "--mu-c", "0"])
        assert code == 0
        tra = json.loads(text)["blocks"]["transverse"]
        rotation = [c for c in tra if c["mode"] == "P_[12]"]
        assert len(rotation) == 1 and rotation[0]["acoustic"] is False
        assert [c["mode"] for c in tra if c["acoustic"]] == ["u2"]

    @pytest.mark.parametrize("model", [
        "relaxed-curl", "relaxed-div-curl", "relaxed-div", "mindlin-eringen",
        "internal-variable"])
    def test_micro_rotation_cutoffs_exactly_zero_at_zero_mu_c(
            self, tmp_path, model):
        code, text = run_to_file(tmp_path, "cut.json",
                                 ["cutoffs", "--config", DEMO_CONFIG,
                                  "--model", model, "--mu-c", "0"])
        assert code == 0
        omega = {c["mode"]: c["omega"]
                 for cuts in json.loads(text)["blocks"].values()
                 for c in cuts}
        assert omega["P_[12]"] == 0.0
        assert omega["P_[23]"] == 0.0

    def test_hertz_flag(self, tmp_path, config_file):
        _, rad = run_to_file(tmp_path, "a.json",
                             ["cutoffs", "--config", config_file])
        _, hz = run_to_file(tmp_path, "b.json",
                            ["cutoffs", "--config", config_file, "--hertz"])
        omega = json.loads(rad)["blocks"]["transverse"][2]["omega"]
        freq = json.loads(hz)["blocks"]["transverse"][2]["omega"]
        assert freq == pytest.approx(omega / (2.0 * math.pi), rel=1e-12)
        assert json.loads(hz)["unit"] == "Hz"


class TestDisperseCommand:
    def test_csv_shape(self, tmp_path, config_file):
        code, text = run_to_file(
            tmp_path, "disp.csv",
            ["disperse", "--config", config_file, "--grid-points", "60"])
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "k,block,branch_label,omega,dominant_mode,ratio"
        assert len(lines) == 1 + 3 * 3 * 60      # blocks * branches * points
        first = lines[1].split(",")
        assert len(first) == 6
        assert first[0] == "0.0"

    def test_byte_determinism(self, tmp_path, config_file):
        argv = ["disperse", "--config", config_file, "--grid-points", "60"]
        _, a = run_to_file(tmp_path, "a.csv", argv)
        _, b = run_to_file(tmp_path, "b.csv", argv)
        assert a == b

    def test_branch_labels_present(self, tmp_path, config_file):
        _, text = run_to_file(
            tmp_path, "disp.csv",
            ["disperse", "--config", config_file, "--grid-points", "60"])
        labels = {line.split(",")[2] for line in
                  text.strip().split("\n")[1:]}
        assert labels == {"LA", "LO1", "LO2", "TA", "TO1", "TO2",
                          "TSO", "TRO", "TCVO"}


class TestGapsCommand:
    def test_reference_run_two_gaps(self, tmp_path, config_file):
        code, text = run_to_file(tmp_path, "gaps.json",
                                 ["gaps", "--config", config_file])
        assert code == 0
        data = json.loads(text)
        assert data["n_gaps"] == 2
        assert len(data["gaps"]) == 2
        assert data["gaps"][0]["omega_lo"] < data["gaps"][0]["omega_hi"]
        assert data["scope"] == "complete"

    def test_flag_overrides_config(self, tmp_path, config_file):
        # switching the gradient inertia off by flags drops one gap
        argv = ["gaps", "--config", config_file, "--eta-bar-1", "0",
                "--eta-bar-2", "0", "--eta-bar-3", "0"]
        code, text = run_to_file(tmp_path, "gaps.json", argv)
        assert code == 0
        assert json.loads(text)["n_gaps"] == 1

    def test_per_block_scope(self, tmp_path, config_file):
        argv = ["gaps", "--config", config_file, "--block", "uncoupled"]
        code, text = run_to_file(tmp_path, "gaps.json", argv)
        assert code == 0
        data = json.loads(text)
        assert data["scope"] == "uncoupled"
        assert data["blocks"] == ["uncoupled"]

    @pytest.mark.parametrize("k_max", ["1e7", "1e9"])
    def test_large_k_max_keeps_the_gaps(self, tmp_path, k_max):
        # the mass diagonal spans many decades on these grids; the
        # pencils stay valid and the gaps are those of k_max = 1e6
        argv = ["gaps", "--config", DEMO_CONFIG, "--k-max"]
        code, text = run_to_file(tmp_path, "big.json", argv + [k_max])
        assert code == 0
        _, ref = run_to_file(tmp_path, "ref.json", argv + ["1e6"])
        assert json.loads(text)["n_gaps"] == json.loads(ref)["n_gaps"]

    def test_coarse_grid_to_a_large_k_max_keeps_the_gaps(self, capsys):
        # 400 points to 1e7 rad/m step over avoided crossings; the sorted
        # columns still give the gaps of a 10x finer grid
        argv = ["gaps", "--config", DEMO_CONFIG, "--model", "relaxed-div",
                "--k-max", "1e7"]
        assert run(argv) == 0
        coarse = json.loads(capsys.readouterr().out)
        assert run(argv + ["--grid-points", "4000"]) == 0
        assert coarse == json.loads(capsys.readouterr().out)
        assert coarse["n_gaps"] == 2

    def test_wide_scale_separation_gives_a_report(self, capsys):
        # unit-tensor roundoff once made this admissible set exit 4 with a
        # false negative eigenvalue; the three gaps are those of grids to
        # 10x and 0.1x the default k_max (100 / sqrt(eta / rho)), while the
        # 100 / L_c grid (296 rad/m) stopped short of every edge and found 0
        argv = ["gaps", "--model", "internal-variable",
                "--mu-e", "1.409769906171723e-03",
                "--lambda-e", "5.970730126236356e-03", "--mu-c", "0",
                "--mu-micro", "491097.6439808309",
                "--lambda-micro", "4308445.7913966245",
                "--l-c", "337.32303648002165", "--rho", "18.54511583530982",
                "--eta", "8.043196572761098e-07",
                "--eta-bar-1", "0.006838647881467821",
                "--eta-bar-2", "47.03589635229227",
                "--eta-bar-3", "2.6350752182554876e-05"]
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["n_gaps"] == 3

    def test_nothing_below_the_ceiling_is_one_full_gap(self, capsys):
        argv = ["gaps", "--config", DEMO_CONFIG, "--block", "uncoupled",
                "--omega-ceiling", "100"]
        assert run(argv) == 0
        assert capsys.readouterr().out == """\
{
  "model": "relaxed-curl",
  "scope": "uncoupled",
  "blocks": [
    "uncoupled"
  ],
  "unit": "rad/s",
  "omega_ceiling": 100.0,
  "delta_omega": 0.025,
  "min_gap_width": 0.25,
  "n_gaps": 1,
  "gaps": [
    {
      "omega_lo": 0.0,
      "omega_hi": 100.0
    }
  ]
}
"""

    @pytest.mark.parametrize("model, flags, n_gaps", [
        ("internal-variable", [], 3),
        ("relaxed-div", ["--include-uncoupled"], 1),
        ("relaxed-div", ["--block", "uncoupled"], 2),
        ("internal-variable", ["--block", "uncoupled"], 2),
    ])
    def test_micro_rotation_at_zero_mu_c_keeps_the_gaps(
            self, capsys, model, flags, n_gaps):
        # without curvature on it, the micro-rotation stays at omega = 0
        # for every k: a bounded branch, not one that covers every gap
        argv = ["gaps", "--config", DEMO_CONFIG, "--model", model,
                "--mu-c", "0", *flags]
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)["n_gaps"] == n_gaps

    @pytest.mark.parametrize("model, n_gaps", [
        ("relaxed-curl", 1), ("relaxed-div-curl", 1), ("mindlin-eringen", 1),
        ("relaxed-div", 3), ("internal-variable", 3)])
    def test_slowly_rising_micro_modes_leave_no_false_gaps(
            self, capsys, model, n_gaps):
        # with curvature the micro modes rise without bound, however slowly
        # at a soft mu_e; without it they are flat and leave two more gaps
        argv = ["gaps", "--model", model, "--mu-e", "1e-3", "--lambda-e",
                "2e-3", "--mu-c", "1000", "--mu-micro", "1e6",
                "--lambda-micro", "1e6", "--l-c", "1", "--rho", "2000",
                "--eta", "1e-2", "--block", "uncoupled"]
        assert run(argv) == 0
        gaps = json.loads(capsys.readouterr().out)["gaps"]
        assert len(gaps) == n_gaps
        assert (gaps[0]["omega_lo"], gaps[0]["omega_hi"]) == (
            0.0, pytest.approx(444418.5, abs=0.1))

    def test_fine_bins_need_no_bin_array(self, tmp_path):
        # about 6.9e8 bins of 1e-3 rad/s up to the default ceiling
        code, text = run_to_file(tmp_path, "fine.json",
                                 ["gaps", "--config", DEMO_CONFIG,
                                  "--delta-omega", "1e-3"])
        assert code == 0
        assert json.loads(text)["n_gaps"] == 2

    def test_byte_determinism(self, tmp_path, config_file):
        argv = ["gaps", "--config", config_file]
        _, a = run_to_file(tmp_path, "a.json", argv)
        _, b = run_to_file(tmp_path, "b.json", argv)
        assert a == b


class TestZeroCharacteristicLength:
    """L_c = 0 is admissible; the default grid then scales by sqrt(eta/rho)."""

    MODELS = ["relaxed-curl", "relaxed-div-curl", "relaxed-div",
              "mindlin-eringen", "internal-variable"]

    def test_gaps_of_every_model_equal_internal_variable(self, capsys):
        # without a curvature term all five variants are the internal-
        # variable model, which ignores L_c
        assert run(["gaps", "--config", DEMO_CONFIG,
                    "--model", "internal-variable"]) == 0
        reference = json.loads(capsys.readouterr().out)
        assert reference.pop("model") == "internal-variable"
        assert reference["n_gaps"] == 3
        for model in self.MODELS:
            assert run(["gaps", "--config", DEMO_CONFIG, "--l-c", "0",
                        "--model", model]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data.pop("model") == model
            assert data == reference

    @pytest.mark.parametrize("eta_bar", ["0", "0.1"])
    def test_internal_variable_report_ignores_l_c(self, capsys, eta_bar):
        # its default grid scales by sqrt(eta/rho) whatever L_c is; a
        # 100 / L_c grid gave demo.cfg 3 gaps at L_c = 1 mm, 0 at 100 mm and
        # 4 at 1e200 mm, where it sampled only k = 0
        flags = ["--eta-bar-1", eta_bar, "--eta-bar-2", eta_bar,
                 "--eta-bar-3", eta_bar]
        outputs = set()
        for l_c in ("0.1", "1", "10", "100", "1e200"):
            assert run(["gaps", "--config", DEMO_CONFIG, "--model",
                        "internal-variable", "--l-c", l_c, *flags]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1
        assert json.loads(outputs.pop())["n_gaps"] == (
            2 if eta_bar == "0" else 3)

    @pytest.mark.parametrize("model", MODELS)
    def test_disperse_succeeds(self, tmp_path, model):
        code, text = run_to_file(tmp_path, "disp.csv",
                                 ["disperse", "--config", DEMO_CONFIG,
                                  "--l-c", "0", "--model", model])
        assert code == 0
        assert len(text.splitlines()) == 1 + 3 * 3 * 400


class TestModesCommand:
    def test_acoustic_branch_modes(self, tmp_path, config_file):
        argv = ["modes", "--config", config_file, "--block", "longitudinal",
                "--branch", "LA", "--grid-points", "60"]
        code, text = run_to_file(tmp_path, "modes.csv", argv)
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "k,omega,dominant_mode,ratio"
        assert len(lines) == 61
        assert lines[1].split(",")[2] == "u1"    # pure displacement at k = 0

    def test_unknown_branch_rejected(self, config_file):
        code = run(["modes", "--config", config_file, "--block",
                    "longitudinal", "--branch", "XX"])
        assert code == 2


class TestSweepParamCommand:
    def test_values_list(self, tmp_path, config_file):
        argv = ["sweep-param", "--config", config_file, "--param",
                "eta_bar_2", "--values", "0.0,0.1", "--grid-points", "120"]
        code, text = run_to_file(tmp_path, "sweep.csv", argv)
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "param_value,n_gaps,gaps"
        assert len(lines) == 3

    def test_range_syntax(self, tmp_path, config_file):
        argv = ["sweep-param", "--config", config_file, "--param", "mu_c",
                "--range", "500:1000:2", "--grid-points", "120"]
        code, text = run_to_file(tmp_path, "sweep.csv", argv)
        assert code == 0
        rows = text.strip().split("\n")[1:]
        assert [r.split(",")[0] for r in rows] == ["500.0", "1000.0"]

    def test_unknown_parameter_rejected(self, config_file):
        code = run(["sweep-param", "--config", config_file, "--param",
                    "model", "--values", "1"])
        assert code == 2


class TestSweepParamScan:
    """sweep-param solves each distinct block once per command: a block that
    the swept value leaves equal to the byte reuses its spectrum, and every
    row is still the gaps report at its value."""

    VALUES = "0.0,0.05,0.1,0.2"

    @staticmethod
    def counting(monkeypatch):
        """Patch the gap solve; the counter maps (block, number of k) to
        the solves made."""
        solves = collections.Counter()
        solve = mmbands.bandgap.solve_block

        def counting_solve(model, bs, k, **kwargs):
            solves[bs.block.value, len(k)] += 1
            return solve(model, bs, k, **kwargs)

        monkeypatch.setattr(mmbands.bandgap, "solve_block", counting_solve)
        return solves

    @staticmethod
    def sweep(capsys, param, values, *extra):
        code = run(["sweep-param", "--config", DEMO_CONFIG, "--param", param,
                    "--values", values, *extra])
        out = capsys.readouterr().out
        assert code == 0
        return list(csv.reader(io.StringIO(out)))[1:]

    # solves per block over the four values: longitudinal, transverse and
    # uncoupled, on the grid; the default ceiling reads the k = 0 rows of
    # the coupled solves, so no k = 0 solve is made.  eta_bar_2 weighs
    # skew(grad u) and mu_c the skew coupling, which only the transverse
    # wave has; eta_bar_3, lambda_e and lambda_micro trace terms, which only
    # the longitudinal wave has; no eta_bar enters the uncoupled block, the
    # frequency-axis settings no block, and L_c no internal-variable block
    @pytest.mark.parametrize("param, values, extra, want", [
        ("eta_bar_2", VALUES, [], (1, 4, 0)),
        ("eta_bar_3", VALUES, [], (4, 1, 0)),
        ("mu_c", "0,500,1000,2000", [], (1, 4, 0)),
        ("lambda_e", "300,400,500,600", [], (4, 1, 0)),
        ("delta_omega", "10,20,30,40", [], (1, 1, 0)),
        ("omega_ceiling", "1e5,2e5,3e5,4e5", [], (1, 1, 0)),
        ("mu_micro", "50,100,150,200", [], (4, 4, 0)),
        ("eta_bar_1", VALUES, [], (4, 4, 0)),
        ("eta_bar_2", VALUES, ["--include-uncoupled"], (1, 4, 1)),
        ("L_c", "0.5,1,1.5,2", ["--model", "internal-variable"],
         (1, 1, 0))])
    def test_each_distinct_block_is_solved_once(self, monkeypatch, capsys,
                                                param, values, extra, want):
        solves = self.counting(monkeypatch)
        assert len(self.sweep(capsys, param, values, *extra)) == 4
        keys = [("longitudinal", 400), ("transverse", 400), ("uncoupled", 400)]
        assert solves == {key: n for key, n in zip(keys, want) if n}

    def test_no_solve_outlives_a_command(self, monkeypatch, capsys):
        solves = self.counting(monkeypatch)
        rows = [self.sweep(capsys, "eta_bar_2", self.VALUES)
                for _ in range(2)]
        assert rows[0] == rows[1]
        assert solves == {("longitudinal", 400): 2, ("transverse", 400): 8}

    @pytest.mark.parametrize("param, values", [
        ("eta_bar_2", "0.0,0.05,0.2"), ("eta_bar_3", "0.0,0.2,0.0"),
        ("mu_c", "0.0,500.0,2000.0"), ("delta_omega", "20.0,100.0"),
        ("L_c", "0.5,2.0"), ("k_max", "20000.0,200000.0")])
    def test_rows_are_the_gap_reports(self, capsys, param, values):
        rows = self.sweep(capsys, param, values)
        assert [row[0] for row in rows] == values.split(",")
        flag = "--" + param.replace("_", "-").lower()
        for value, n_gaps, gaps in rows:
            assert run(["gaps", "--config", DEMO_CONFIG, flag, value]) == 0
            report = json.loads(capsys.readouterr().out)
            assert n_gaps == str(report["n_gaps"])
            assert gaps == ";".join(f"{g['omega_lo']!r}:{g['omega_hi']!r}"
                                    for g in report["gaps"])

    @pytest.mark.parametrize("values, code, err", [
        ("1e300,-1", 4, "numerical failure: relaxed-curl, longitudinal "
         "block, k = 250.627 rad/m: stiffness matrix of pencil 1 is not "
         "finite\n"),
        ("-1,1e300", 3, "invalid parameters: mu_e > 0\n")])
    def test_each_value_fails_before_the_next_is_read(self, values, code,
                                                      err):
        proc = TestNonFiniteInputs.fresh_run(
            ["sweep-param", "--param", "mu_e", "--values", values])
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)


class TestNegativeFlagValues:
    """A "-"-led float literal is a flag value in the separate form as in
    the --flag=value form; argparse alone reads only digit-led ones so."""

    @pytest.mark.parametrize("argv, code", [
        (["gaps", "--lambda-e", "-1e2"], 0),
        (["gaps", "--lambda-e", "-100"], 0),
        (["gaps", "--lambda-e", "-.5"], 0),
        (["gaps", "--mu-e", "-inf"], 3),
        (["gaps", "--mu-e", "-Infinity"], 3),
        (["gaps", "--eta-bar-2", "-nan"], 3),
        (["sweep-param", "--param", "lambda_e", "--values", "-100,-50"], 0),
        (["sweep-param", "--param", "lambda_e", "--range", "-100:-50:2"], 0),
        (["sweep-param", "--param", "mu_e", "--values", "-1,1e300"], 3)])
    def test_separate_form_matches_equals_form(self, capsys, argv, code):
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        got = []
        for form in (argv, joined):
            got.append((run(form + ["--config", DEMO_CONFIG]),
                        *capsys.readouterr()))
        assert got[0] == got[1]
        assert got[0][0] == code
        assert (got[0][2] == "") == (code == 0)

    @pytest.mark.parametrize("value", ["--hertz", "-x", "-h"])
    def test_an_option_is_still_no_value(self, capsys, value):
        assert run(["gaps", "--config", DEMO_CONFIG, "--mu-e", value]) == 2
        assert "argument --mu-e: expected one argument" in (
            capsys.readouterr().err)


class TestPlotCommand:
    def test_svg_well_formed_and_self_contained(self, tmp_path, config_file):
        out = tmp_path / "plot.svg"
        code = run(["plot", "--config", config_file, "--grid-points", "120",
                    "--output", str(out)])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        xml.dom.minidom.parseString(text)        # well-formed XML
        assert "href" not in text                # no external references
        assert text.count("<polyline") >= 9      # 3 panels x 3 branches
        for label in ("LA", "TA", "TSO", "TRO", "TCVO"):
            assert f">{label}</text>" in text

    @pytest.mark.parametrize("flags", [[], ["--mu-c", "0"], ["--l-c", "0"]])
    @pytest.mark.parametrize("model", [m.value for m in ModelKind])
    def test_default_ceiling_from_its_own_k0_rows(self, monkeypatch, tmp_path,
                                                  model, flags):
        # the three sweeps' k = 0 rows give the ceiling: no fourth build and
        # no k = 0 solves besides theirs
        calls = collections.Counter()

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for module in (mmbands.assembly, mmbands.bandgap, mmbands.dispersion):
            counted(module, "model_blocks")
        for module in (mmbands.bandgap, mmbands.dispersion):
            counted(module, "solve_block")
        argv = ["plot", "--config", DEMO_CONFIG, "--model", model, *flags,
                "--grid-points", "60"]
        code, svg = run_to_file(tmp_path, "default.svg", argv)
        assert code == 0
        assert calls == {"model_blocks": 3, "solve_block": 3}
        monkeypatch.undo()
        cfg = build_config(build_parser().parse_args(argv))
        ceiling = default_omega_ceiling(
            [c.omega for c in cuts] for cuts in cutoffs(
                cfg.model(), cfg.elastic(), cfg.inertia()).values())
        assert run_to_file(tmp_path, "given.svg", argv + [
            "--omega-ceiling", repr(ceiling)]) == (0, svg)

    # the missing flag is a usage error before any parameter is validated
    @pytest.mark.parametrize("flags", [[], ["--mu-e", "-1"]])
    def test_plot_requires_output(self, config_file, capsys, flags):
        assert run(["plot", "--config", config_file, *flags]) == 2
        assert capsys.readouterr().err == "error: plot requires --output\n"


class TestErrorPaths:
    def test_zero_length_grid_names_invariant(self, config_file, capsys):
        code = run(["disperse", "--config", config_file,
                    "--grid-points", "0"])
        assert code == 2
        assert "at least 50 points" in capsys.readouterr().err

    def test_validation_failure(self, config_file, capsys):
        code = run(["gaps", "--config", config_file, "--mu-e", "-5"])
        assert code == 3
        assert "mu_e > 0" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n", encoding="utf-8")
        assert run(["gaps", "--config", str(bad)]) == 2

    def test_missing_parameters(self, tmp_path):
        assert run(["gaps", "--model", "relaxed-curl"]) == 2

    def test_unknown_model(self, tmp_path, config_file):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG_TEXT.replace("relaxed-curl", "bogus"),
                       encoding="utf-8")
        assert run(["gaps", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("command", [c for c in COMMANDS
                                         if c != "homogenize"])
    def test_unknown_model_before_invalid_parameters(self, tmp_path, capsys,
                                                     command):
        # every command that reads the model reads it before validating
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG_TEXT.replace("relaxed-curl", "bogus"),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert run([command, "--config", str(bad), *COMMANDS[command],
                    "--mu-e", "-1", "--output", str(out)]) == 2
        assert capsys.readouterr() == ("", (
            "error: unknown model 'bogus' (choose from relaxed-curl, "
            "relaxed-div-curl, relaxed-div, mindlin-eringen, "
            "internal-variable)\n"))
        assert not out.exists()

    def test_missing_config_file(self):
        assert run(["gaps", "--config", "/nonexistent/file.cfg"]) == 2

    def test_undecodable_config_file(self, tmp_path, capsys):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(b"model = relaxed-curl\xff\n")
        assert run(["gaps", "--config", str(bad)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: cannot read config file {bad}: 'utf-8' codec can't "
            "decode byte 0xff in position 20: invalid start byte\n"))

    def test_undecodable_config_file_with_byte_order_mark(self, tmp_path,
                                                          capsys):
        # the mark is skipped, and the invalid byte still named
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(b"\xef\xbb\xbfmodel = relaxed-curl\xff\n")
        assert run(["gaps", "--config", str(bad)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: cannot read config file {bad}: 'utf-8' codec can't "
            "decode byte 0xff in position 20: invalid start byte\n"))

    @pytest.mark.parametrize("text", [
        Path(DEMO_CONFIG).read_text("utf-8"), CONFIG_TEXT.split("\n", 1)[1]],
        ids=["comment-first", "key-first"])
    def test_config_file_with_byte_order_mark(self, tmp_path, capsys, text):
        # as Windows editors save UTF-8; the mark was read as part of the
        # first line, a comment in demo.cfg, a key in the other
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        outputs = []
        for path in (plain, marked):
            assert run(["gaps", "--config", str(path)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == ""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unwritable_output(self, tmp_path, capsys, command):
        path = tmp_path / "missing-dir" / "out"
        code = run([command, "--config", DEMO_CONFIG, *COMMANDS[command],
                    "--output", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("line, argv, code, err", [
        ("include_uncoupled = yes", ["gaps"], 0, ""),
        ("include_uncoupled = off", ["gaps"], 0, ""),
        ("include_uncoupled = maybe", ["gaps"], 2,
         "key include_uncoupled: expected a boolean, got 'maybe'"),
        ("mu_e = 2x", ["gaps"], 2, "key mu_e: expected a number, got '2x'"),
        ("mu_e 200", ["gaps"], 2, "{path}:14: expected 'key = value'"),
        ("", ["sweep-param", "--param", "eta_bar_2", "--values", "1,,2"], 2,
         "--values: expected comma-separated numbers"),
        ("", ["sweep-param", "--param", "eta_bar_2", "--range", "0:1"], 2,
         "--range: expected lo:hi:count"),
        ("", ["sweep-param", "--param", "eta_bar_2", "--range", "0:1:1"], 2,
         "--range: count must be >= 2"),
        ("", ["sweep-param", "--param", "eta_bar_2"], 2,
         "sweep-param needs --values or --range")])
    def test_config_and_sweep_param_parsing(self, tmp_path, capsys, line,
                                            argv, code, err):
        path = tmp_path / "params.cfg"
        path.write_text(CONFIG_TEXT + line + "\n", encoding="utf-8")
        assert run([argv[0], "--config", str(path), *argv[1:]]) == code
        out, got = capsys.readouterr()
        assert got == (f"error: {err.format(path=path)}\n" if code else "")
        if code == 0:
            blocks = json.loads(out)["blocks"]
            assert ("uncoupled" in blocks) == line.endswith("yes")

    def test_unallocatable_grid_is_a_config_error(self, capsys):
        # 10**15 points (7 PiB) exceed any address space: numpy refuses
        # them outright, before anything is allocated
        code = run(["disperse", "--config", DEMO_CONFIG,
                    "--grid-points", str(10 ** 15)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: Unable to allocate ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["gaps", "--omega-ceiling", "1e-320"],
        ["sweep-param", "--param", "omega_ceiling", "--values", "1e-320"]])
    def test_subnormal_omega_ceiling_warns_nothing(self, capsys, argv):
        # a range above the ceiling over a subnormal bin width overflowed
        # (a RuntimeWarning, an error under this suite's filters)
        assert run(argv + ["--config", DEMO_CONFIG]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        if argv[0] == "gaps":
            assert json.loads(out)["gaps"] == []
        else:
            assert out == "param_value,n_gaps,gaps\n1e-320,0,\n"

    def test_zero_eigenvector_is_a_numerical_failure(self, monkeypatch,
                                                     capsys):
        solution = mmbands.dispersion._solution

        def zero_column_solve(*reduced):
            sol = solution(*reduced)
            sol.vectors[3, :, 0] = 0.0
            return sol

        monkeypatch.setattr(mmbands.dispersion, "_solution",
                            zero_column_solve)
        code = run(["disperse", "--config", DEMO_CONFIG,
                    "--grid-points", "60"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: relaxed-curl, ")
        assert "zero eigenvector" in err

    @pytest.mark.parametrize("flag, value", [
        ("--delta-omega", "0"), ("--omega-ceiling", "0"),
        ("--delta-omega", "-5"), ("--omega-ceiling", "nan"),
        ("--omega-ceiling", "-1"), ("--delta-omega", "inf"),
        ("--delta-omega", "1e-15"), ("--min-gap-width", "-1")])
    def test_bad_frequency_axis(self, config_file, capsys, flag, value):
        code = run(["gaps", "--config", config_file, "--grid-points", "50",
                    flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert flag[2:].replace("-", "_") in err

    @pytest.mark.parametrize("value", ["0", "nan", "-1", "inf"])
    def test_bad_plot_ceiling(self, tmp_path, capsys, value):
        # plot used to raise ZeroDivisionError at 0 and draw nan or
        # negative axes for the others
        path = tmp_path / "bad.svg"
        code = run(["plot", "--config", DEMO_CONFIG, "--grid-points", "50",
                    "--output", str(path), "--omega-ceiling", value])
        assert code == 2
        assert capsys.readouterr() == ("", (
            f"error: omega_ceiling must be finite and > 0, got "
            f"{float(value)!r}\n"))
        assert not path.exists()


class TestNonFiniteInputs:
    @pytest.mark.parametrize("command, flag, value, check", [
        ("gaps", "--mu-e", "inf", "mu_e > 0"),
        ("gaps", "--lambda-micro", "inf", "3*lambda_micro + 2*mu_micro > 0"),
        ("gaps", "--eta-bar-2", "inf", "eta_bar_i >= 0"),
        ("gaps", "--rho", "inf", "rho > 0"),
        ("gaps", "--eta-bar-1", "nan", "eta_bar_i >= 0"),
        ("gaps", "--l-c", "inf", "L_c >= 0"),
        ("cutoffs", "--mu-c", "inf", "mu_c >= 0"),
        ("homogenize", "--mu-micro", "inf", "mu_micro > 0"),
        ("disperse", "--mu-e", "nan", "mu_e > 0"),
        ("modes", "--eta", "inf", "eta > 0"),
        ("sweep-param", "--lambda-e", "nan", "3*lambda_e + 2*mu_e > 0"),
        ("plot", "--eta-bar-3", "inf", "eta_bar_i >= 0")])
    def test_non_finite_parameter_is_a_validation_failure(
            self, tmp_path, capsys, command, flag, value, check):
        # these used to exit 4 ("diagonal entry nan"), 2 or, for homogenize,
        # 0 with a NaN that is not valid JSON
        path = tmp_path / "out"
        argv = [command, "--config", DEMO_CONFIG, flag, value,
                *COMMANDS[command]]
        for output in ([], ["--output", str(path)]):
            if command == "plot" and not output:
                continue  # a usage error before any validation
            code = run(argv + output)
            out, err = capsys.readouterr()
            assert code == 3
            assert out == ""
            assert not path.exists()
            assert f"invalid parameters: {check} (not finite)\n" in err

    @staticmethod
    def fresh_run(argv):
        """The demo.cfg CLI run in a fresh interpreter, where numpy's
        overflow warnings stay warnings."""
        src = Path(mmbands.dispersion.__file__).resolve().parents[1]
        return subprocess.run(
            [sys.executable, "-m", "mmbands.cli", *argv,
             "--config", DEMO_CONFIG], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})

    @pytest.mark.parametrize("argv, where", [
        (["gaps", "--mu-e", "1e300"],
         "k = 250.627 rad/m: stiffness matrix of pencil 1 is not finite"),
        (["gaps", "--eta", "1e-300"], "k = 0 rad/m: "),
        (["cutoffs", "--rho", "1e-320"], "k = 0 rad/m: ")])
    def test_extreme_finite_parameter_is_a_numerical_failure(self, argv,
                                                             where):
        # valid but past the float range once equilibrated, or for
        # --mu-e 1e300 already in K = K0 + k K1 + k^2 K2 at the second k of
        # the gap solve, which runs before the ceiling's k = 0 solves
        proc = self.fresh_run(argv)
        assert proc.returncode == 4
        assert ("numerical failure: relaxed-curl, longitudinal block, "
                + where) in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["gaps", "--eta-bar-1", "1e300"],
         "relaxed-curl, longitudinal block, k = 16541.4 rad/m: "
         "mass matrix of pencil 66 is not finite"),
        (["gaps", "--l-c", "1e200"],
         "relaxed-curl: curvature modulus mu_e * L_c**2 is not finite "
         "(mu_e = 2e+08 Pa, L_c = 1e+197 m)"),
        (["gaps", "--block", "uncoupled", "--mu-e", "1e300"],
         "relaxed-curl, uncoupled block, k = 13533.8 rad/m: "
         "stiffness matrix of pencil 54 is not finite"),
        (["disperse", "--k-max", "1e308", "--grid-points", "50"],
         "relaxed-curl, uncoupled block, k = 2.04082e+306 rad/m: "
         "stiffness matrix of pencil 1 is not finite"),
        (["gaps", "--eta-bar-2", "1e300"],
         "relaxed-curl, transverse block, k = 19047.6 rad/m: "
         "mass matrix of pencil 76 is not finite"),
        (["gaps", "--mu-e", "1e300"],
         "relaxed-curl, longitudinal block, k = 250.627 rad/m: "
         "stiffness matrix of pencil 1 is not finite"),
        # the second value fails after the first value's blocks are stored
        (["sweep-param", "--param", "eta_bar_2", "--values", "0.1,1e300"],
         "relaxed-curl, transverse block, k = 19047.6 rad/m: "
         "mass matrix of pencil 76 is not finite"),
        (["sweep-param", "--param", "eta_bar_1", "--values", "0.1,1e300"],
         "relaxed-curl, longitudinal block, k = 16541.4 rad/m: "
         "mass matrix of pencil 66 is not finite"),
        (["disperse", "--eta-bar-1", "1e300", "--grid-points", "50"],
         "relaxed-curl, longitudinal block, k = 18367.3 rad/m: "
         "mass matrix of pencil 9 is not finite"),
        (["modes", "--block", "uncoupled", "--branch", "TSO",
          "--eta", "1e-320"],
         "relaxed-curl, uncoupled block, k = 0 rad/m: "
         "equilibrated pencil 0 is not finite"),
        (["cutoffs", "--mu-e", "1e300"],
         "relaxed-curl, longitudinal block, k = 0 rad/m: "
         "equilibrated pencil 0 is not finite")])
    def test_overflowing_matrix_or_modulus_is_named(self, argv, message):
        # an inf mass entry used to slip past the Hermitian check (inf - inf
        # is nan) after three RuntimeWarnings, L_c**2 raised a bare
        # OverflowError, K_ii / M_ii of the uncoupled block overflowed with
        # a warning, and its nan mass (k^2 = inf times 0) was called "not
        # positive"; each is now one specific line, and the uncoupled block
        # fails in the coupled blocks' order: stiffness, mass, equilibrated
        # pencil
        proc = self.fresh_run(argv)
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr == f"numerical failure: {message}\n"

    def test_model_without_curvature_ignores_an_overflowing_l_c(self):
        proc = self.fresh_run(["gaps", "--model", "internal-variable",
                               "--l-c", "1e200"])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["model"] == "internal-variable"

    @pytest.mark.parametrize("argv", [
        ["gaps", "--eta", "1e-300"], ["cutoffs", "--rho", "1e-320"],
        ["gaps", "--rho", "1e-320"], ["gaps", "--rho", "1e-320",
                                      "--eta", "1e-320"]])
    def test_reported_overflow_prints_no_warning(self, argv):
        # the overflow happens past the equilibration, where the solver
        # reports it as a non-finite pencil: stderr is that one line.  With
        # both masses subnormal, 0 * inf puts nan off the diagonal of M_eq,
        # but the solver reads diagonality off M itself, whose off-diagonal
        # zeros keep the stack on the diagonal route
        proc = self.fresh_run(argv)
        assert proc.returncode == 4
        assert proc.stderr == ("numerical failure: relaxed-curl, "
                               "longitudinal block, k = 0 rad/m: "
                               "equilibrated pencil 0 is not finite\n")

    @pytest.mark.parametrize("command", ["cutoffs", "disperse", "modes",
                                         "gaps", "sweep-param", "plot"])
    def test_pencil_entries_near_the_float_limit_stay_finite(self, tmp_path,
                                                             command):
        # eta = 1.75e-299 puts equilibrated pencil entries above 9e307,
        # where the symmetrization 0.5 * (b + b^T) overflowed: cutoffs
        # printed NaN omegas, disperse and modes nan cells with a warning,
        # and gaps, plot and sweep-param ended in a LinAlgError traceback
        svg = tmp_path / "plot.svg"
        argv = [command, "--eta", "1.75e-299", *COMMANDS[command],
                *(["--k-max", "1"] if command != "cutoffs" else []),
                *(["--output", str(svg)] if command == "plot" else [])]
        proc = self.fresh_run(argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        out = svg.read_text(encoding="utf-8") if command == "plot" else (
            proc.stdout)
        assert out and not re.search(r"\bnan\b", out, re.IGNORECASE)

    @pytest.mark.parametrize("argv, message", [
        (["disperse", "--grid-points", "-5"], "grid needs at least 50 points"),
        (["gaps", "--k-max", "nan"], "k_max must be finite and positive"),
        (["gaps", "--k-max", "inf"], "k_max must be finite and positive"),
        # np.linspace repeats values below a subnormal k_max
        (["gaps", "--k-max", "5e-324"], "grid must be strictly increasing")])
    def test_bad_grid_is_a_config_error(self, capsys, argv, message):
        code = run(argv + ["--config", DEMO_CONFIG])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"


FLOAT_COLUMNS = ("k", "omega", "ratio", "param_value")


def _assert_unquoted_csv(text):
    """Rows of a CSV text that csv.writer writes back byte for byte (so no
    cell needed quoting) and whose float cells are reprs; header and body."""
    rows = list(csv.reader(io.StringIO(text)))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert buf.getvalue() == text
    header, body = rows[0], rows[1:]
    for col, name in enumerate(header):
        if name in FLOAT_COLUMNS:
            assert all(row[col] == repr(float(row[col])) for row in body)
    return header, body


class TestCsvByteContract:
    @pytest.mark.parametrize("extra", [[], ["--hertz"], ["--mu-c", "0"]])
    def test_disperse(self, tmp_path, extra):
        code, text = run_to_file(
            tmp_path, "disp.csv", ["disperse", "--config", DEMO_CONFIG, *extra])
        assert code == 0
        header, body = _assert_unquoted_csv(text)
        assert len(body) == 3 * 3 * 400
        if extra == ["--mu-c", "0"]:
            # the zero micro-rotation: exact 0.0 frequencies, inf ratios
            assert "0.0" in {row[header.index("omega")] for row in body}
            assert "inf" in {row[header.index("ratio")] for row in body}

    def test_modes(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "modes.csv", ["modes", "--config", DEMO_CONFIG,
                                    "--block", "transverse", "--branch", "TA"])
        assert code == 0
        assert len(_assert_unquoted_csv(text)[1]) == 400

    @pytest.mark.parametrize("extra, gap_cells", [
        (["--param", "eta_bar_2", "--range", "0:0.2:3"], 3),
        (["--param", "omega_ceiling", "--values", "1000"], 0)])
    def test_sweep_param(self, tmp_path, extra, gap_cells):
        code, text = run_to_file(
            tmp_path, "sweep.csv",
            ["sweep-param", "--config", DEMO_CONFIG, *extra])
        assert code == 0
        _, body = _assert_unquoted_csv(text)
        assert sum(row[2] != "" for row in body) == gap_cells
        for _, n_gaps, gaps in body:
            assert n_gaps == str(len(gaps.split(";")) if gaps else 0)
            for edge in gaps.replace(";", ":").split(":") if gaps else ():
                assert edge == repr(float(edge))

    def test_non_str_cell_is_a_type_error(self):
        with pytest.raises(TypeError):
            _csv_text(["k"], [[0.0]])


def _one_repr_per_cell(argv, blocks, branch=None):
    """The CSV of ``disperse`` over ``blocks``, or of ``modes`` for one
    ``branch``, from the same ``sweep`` results with one ``repr`` per cell."""
    args = build_parser().parse_args(argv)
    cfg = build_config(args)
    params = cfg.model(), cfg.elastic(), cfg.inertia()
    grid = cfg.grid(*params)
    scale = 1.0 / (2.0 * math.pi) if args.hertz else 1.0
    lines = [["k", "omega", "dominant_mode", "ratio"] if branch else
             ["k", "block", "branch_label", "omega", "dominant_mode", "ratio"]]
    for block in blocks:
        for b in sweep(*params, block, grid).branches:
            if branch not in (None, b.label):
                continue
            lead = [] if branch else [block.value, b.label]
            lines += [[repr(k), *lead, repr(w), name, repr(r)]
                      for k, w, name, r in zip(
                          grid.values.tolist(), (b.omegas * scale).tolist(),
                          b.dominant.tolist(), b.ratio.tolist())]
    return "".join(",".join(line) + "\n" for line in lines)


class TestCsvAgainstOneReprPerCell:
    """``disperse`` and ``modes`` print what formatting every cell on its
    own prints, where the uncoupled block holds constant columns (flat
    branches in internal-variable and relaxed-div, all-inf ratios) and
    byte-equal ones (double roots in the curvature models)."""

    BLOCKS = [WaveBlock.UNCOUPLED, WaveBlock.LONGITUDINAL,
              WaveBlock.TRANSVERSE]

    @pytest.mark.parametrize("extra", [
        ["--model", "internal-variable"], ["--model", "relaxed-div"], [],
        ["--hertz"], ["--model", "internal-variable", "--hertz"],
        ["--mu-c", "0"]])
    def test_disperse(self, capsys, extra):
        argv = ["disperse", "--config", DEMO_CONFIG, *extra]
        assert run(argv) == 0
        assert capsys.readouterr().out == _one_repr_per_cell(argv,
                                                             self.BLOCKS)

    @pytest.mark.parametrize("block, branch, extra", [
        ("uncoupled", "TSO", []), ("uncoupled", "TRO", ["--hertz"]),
        ("uncoupled", "TCVO", ["--model", "internal-variable"]),
        ("transverse", "TA", [])])
    def test_modes(self, capsys, block, branch, extra):
        argv = ["modes", "--config", DEMO_CONFIG, "--block", block,
                "--branch", branch, *extra]
        assert run(argv) == 0
        assert capsys.readouterr().out == _one_repr_per_cell(
            argv, [WaveBlock(block)], branch)

    @pytest.mark.parametrize("model", ["relaxed-curl", "internal-variable"])
    def test_the_uncoupled_block_repeats_columns(self, model):
        # the inputs above reach the shared and the constant-column paths
        args = build_parser().parse_args(
            ["disperse", "--config", DEMO_CONFIG, "--model", model])
        cfg = build_config(args)
        params = cfg.model(), cfg.elastic(), cfg.inertia()
        branches = sweep(*params, WaveBlock.UNCOUPLED,
                         cfg.grid(*params)).branches
        omegas = [b.omegas.tobytes() for b in branches]
        assert len(set(omegas)) == 2
        assert all(np.isinf(b.ratio).all() for b in branches)
        flat = [np.unique(b.omegas).size == 1 for b in branches]
        assert all(flat) if model == "internal-variable" else not any(flat)


class TestCellFormatter:
    @staticmethod
    def one_by_one(column):
        return [repr(x) for x in column.tolist()]

    @pytest.mark.parametrize("column", [
        [0.0, -0.0, 0.0], [-0.0] * 4, [0.0] * 4, [math.nan] * 3,
        [math.inf] * 5, [-math.inf, math.inf], [1.5, 1.5, 2.5],
        [0.1 + 0.2] * 3, [5e-324, 1.7976931348623157e308]])
    def test_cells_are_the_reprs(self, column):
        column = np.array(column)
        assert _cells(column, {}) == self.one_by_one(column)

    def test_signed_zeros_and_nan_payloads_stay_apart(self):
        memo = {}
        zeros, negative_zeros = np.zeros(4), np.full(4, -0.0)
        assert _cells(zeros, memo) == ["0.0"] * 4
        assert _cells(negative_zeros, memo) == ["-0.0"] * 4
        assert len(memo) == 2
        # two nan payloads: not one bit pattern, still formatted per cell
        payloads = np.array([math.nan, -math.nan, math.nan])
        assert len(set(payloads.view(np.int64).tolist())) == 2
        assert _cells(payloads, memo) == ["nan"] * 3

    def test_byte_equal_columns_share_one_memo_entry(self):
        memo = {}
        column = np.linspace(0.0, 1.0, 7)
        first = _cells(column, memo)
        assert _cells(column.copy(), memo) is first
        table = np.column_stack([column, column])   # strided column views
        assert _cells(table[:, 1], memo) is first
        assert len(memo) == 1 and first == self.one_by_one(column)


class TestHandlerContract:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_handler_returns_what_run_writes(self, tmp_path, capsys,
                                             command):
        # a handler only computes its text: run alone writes it
        path = tmp_path / "out"
        argv = [command, "--config", DEMO_CONFIG, "--grid-points", "60",
                *COMMANDS[command], "--output", str(path)]
        args = build_parser().parse_args(argv)
        text = args.handler(build_config(args), args)
        assert capsys.readouterr() == ("", "")
        assert not path.exists()
        assert run(argv) == 0
        assert path.read_text(encoding="utf-8") == text


class TestParserReuse:
    """``run`` parses with one parser per process, left unchanged by every
    call, so no flag or error of one call reaches the next."""

    SEQUENCE = [(["gaps", "--hertz"], 0), (["gaps"], 0),
                (["gaps", "--no-such-flag"], 2),
                (["disperse", "--grid-points", "60"], 0),
                (["sweep-param", "--param", "eta_bar_2",
                  "--values", "0,0.1"], 0)]

    def test_calls_in_one_process_match_fresh_runs(self, capsys):
        build_parser.cache_clear()
        got = []
        for argv, _ in self.SEQUENCE:
            code = run(argv + ["--config", DEMO_CONFIG])
            got.append((code, *capsys.readouterr()))
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(self.SEQUENCE) - 1)
        assert build_parser() is build_parser()
        units = [json.loads(out)["unit"] for _, out, _ in got[:2]]
        assert units == ["Hz", "rad/s"]
        for (argv, want), (code, out, err) in zip(self.SEQUENCE, got):
            fresh = TestNonFiniteInputs.fresh_run(argv)
            assert code == want == fresh.returncode, argv
            assert (out, err) == (fresh.stdout, fresh.stderr), argv
