"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest bench/test_smoke.py -q
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import mmbands  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_self_time_subtracts_children():
    spans = [tracing.Span("bench.op", 0.0, 10.0, None, 0),
             tracing.Span("a", 1.0, 6.0, 0, 0),
             tracing.Span("b", 2.0, 3.0, 1, 0),
             tracing.Span("b", 4.0, 5.5, 1, 0),
             tracing.Span("a", 7.0, 9.0, 0, 0)]
    assert tracing.self_times(spans) == [3.0, 2.5, 1.0, 1.5, 2.0]


def test_speed_factor_is_one_at_the_reference_speed():
    nominal = calibration.NOMINAL_S
    assert calibration.speed_factor(nominal, nominal) == 1.0
    assert calibration.speed_factor(2 * nominal, 2 * nominal) == 0.5
    assert calibration.kernel_seconds() > 0.0


def test_install_wraps_every_reference_and_restores_originals():
    src = sorted((ROOT / "src" / "mmbands").glob("*.py"))
    before = [hashlib.sha256(p.read_bytes()).hexdigest() for p in src]
    originals = (mmbands.cli.detect_gaps, mmbands.bandgap.detect_gaps,
                 mmbands.dispersion.general_eig, mmbands.cli.run)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert mmbands.cli.detect_gaps is mmbands.bandgap.detect_gaps
        assert mmbands.cli.detect_gaps is not originals[0]
        assert mmbands.dispersion.general_eig is not originals[2]
        tracer.begin_op(0)
        mmbands.cutoffs(*_ref_params())
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert (mmbands.cli.detect_gaps, mmbands.bandgap.detect_gaps,
            mmbands.dispersion.general_eig, mmbands.cli.run) == originals
    names = [s.name for s in tracer.spans]
    assert names.count("eigensolve.general_eig") == 3
    assert names.count("dispersion.cutoffs") == 1
    assert before == [hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in src]


def _ref_params():
    elastic = mmbands.ElasticParams.from_engineering(
        **workloads.REF_ENGINEERING)
    inertia = mmbands.InertiaParams(rho=workloads.REF_RHO,
                                    eta=workloads.REF_ETA)
    return mmbands.ModelKind.RELAXED_CURL, elastic, inertia


def test_gap_table_check_rejects_a_wrong_count():
    op = workloads.build("gap-table", 1).ops[0]
    model, elastic, inertia, _ = op.payload
    want = workloads.GAP_COUNT_TABLE[model.value][int(op.payload[3])]
    gap = mmbands.Gap(omega_lo=1.0, omega_hi=2.0)
    workloads.check_gap_table(op, _Report((gap,) * want), None)
    with pytest.raises(workloads.CheckError):
        workloads.check_gap_table(op, _Report((gap,) * (want + 1)), None)


class _Report:
    def __init__(self, gaps):
        self.gaps = gaps


def test_dense_disperse_check_rejects_a_perturbed_frequency(tmp_path):
    op = workloads.build("dense-disperse", 3, smoke=True).ops[0]
    out = tmp_path / "curves.csv"
    assert workloads.run_dense_disperse(op, out) == 0
    workloads.check_dense_disperse(op, 0, out)
    sample = op.payload["samples"][1]
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[1 + sample].split(",")     # first branch of the first block
    cells[3] = repr(float(cells[3]) * (1.0 + 1e-5))
    lines[1 + sample] = ",".join(cells)
    out.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(workloads.CheckError):
        workloads.check_dense_disperse(op, 0, out)
    with pytest.raises(workloads.CheckError):
        workloads.check_dense_disperse(op, 4, out)


def test_edge_scan_check_rejects_a_moved_edge(tmp_path):
    op = workloads.Op(name="scan", payload=[0.0, 0.2])
    out = tmp_path / "scan.csv"
    good = ("param_value,n_gaps,gaps\n"
            "0.0,2,45500.0:244948.0;390378.0:447212.0\n"
            "0.2,2,45500.0:244948.0;370664.0:447212.0\n")
    out.write_text(good, encoding="utf-8")
    workloads.check_edge_scan(op, 0, out)
    for bad in (good.replace("244948.0", "244960.0", 1),
                good.replace("370664.0", "390400.0"),
                good.replace("0.2,2,", "0.2,1,")):
        out.write_text(bad, encoding="utf-8")
        with pytest.raises(workloads.CheckError):
            workloads.check_edge_scan(op, 0, out)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "0.1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace and workload == "dense-disperse":
        assert all(m["value"] == 0 for name, m in result["metrics"].items()
                   if name.startswith("bandgap.")
                   and name.endswith(".calls_per_op"))


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "gap-table", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
