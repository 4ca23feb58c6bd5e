import csv
import io
import json
import math
import os
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import pytest

import mmbands.dispersion
from mmbands.cli import _csv_text, run

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

    def test_plot_requires_output(self, config_file):
        assert run(["plot", "--config", config_file]) == 2


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

    def test_missing_config_file(self):
        assert run(["gaps", "--config", "/nonexistent/file.cfg"]) == 2

    def test_zero_eigenvector_is_a_numerical_failure(self, monkeypatch,
                                                     capsys):
        solve = mmbands.dispersion.general_eig_stack

        def zero_column_solve(k_stack, m_stack):
            sol = solve(k_stack, m_stack)
            sol.vectors[3, :, 0] = 0.0
            return sol

        monkeypatch.setattr(mmbands.dispersion, "general_eig_stack",
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


class TestNonFiniteInputs:
    @pytest.mark.parametrize("command, flag, value, check", [
        ("gaps", "--mu-e", "inf", "mu_e > 0"),
        ("gaps", "--lambda-micro", "inf", "3*lambda_micro + 2*mu_micro > 0"),
        ("gaps", "--eta-bar-2", "inf", "eta_bar_i >= 0"),
        ("gaps", "--rho", "inf", "rho > 0"),
        ("gaps", "--eta-bar-1", "nan", "eta_bar_i >= 0"),
        ("gaps", "--l-c", "inf", "L_c >= 0"),
        ("cutoffs", "--mu-c", "inf", "mu_c >= 0"),
        ("homogenize", "--mu-micro", "inf", "mu_micro > 0")])
    def test_non_finite_parameter_is_a_validation_failure(
            self, capsys, command, flag, value, check):
        # these used to exit 4 ("diagonal entry nan"), 2 or, for homogenize,
        # 0 with a NaN that is not valid JSON
        code = run([command, "--config", DEMO_CONFIG, flag, value])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert f"invalid parameters: {check} (not finite)\n" in err

    @pytest.mark.parametrize("argv", [
        ["gaps", "--mu-e", "1e300"], ["gaps", "--eta", "1e-300"],
        ["cutoffs", "--rho", "1e-320"]])
    def test_extreme_finite_parameter_is_a_numerical_failure(self, argv):
        # valid but past the float range once equilibrated; run in a fresh
        # interpreter, where numpy's overflow warnings stay warnings
        src = Path(mmbands.dispersion.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "mmbands.cli", *argv,
             "--config", DEMO_CONFIG], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 4
        assert ("numerical failure: relaxed-curl, longitudinal block, "
                "k = 0 rad/m: ") in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["disperse", "--grid-points", "-5"], "grid needs at least 50 points"),
        (["gaps", "--k-max", "nan"], "k_max must be finite and positive"),
        (["gaps", "--k-max", "inf"], "k_max must be finite and positive")])
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
