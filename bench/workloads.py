"""Workload inputs, operations and output checks of the mmbands benchmark.

Each workload is built from a seed into a fixed list of operations.  A run
executes whole passes over that list with one closed-loop caller, so every
run of a workload measures the same mix of inputs, and per-op counts of a
traced run repeat exactly for a given seed.

The reference numbers below are independent of the package: the gap-count
table is the paper's criterion-1 table (also pinned by the acceptance
suite), the reference parameters equal those of ``tests/conftest.py`` and
the eigenvalue oracle is the cubic-polynomial route of ``tests/oracles.py``.
"""

from __future__ import annotations

import csv
import functools
import importlib.util
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mmbands
import mmbands.cli

ROOT = Path(__file__).resolve().parent.parent
DEMO_CFG = "demo.cfg"

# reference parameter set of tests/conftest.py (MPa, mm, kg/m^3, kg/m)
REF_ENGINEERING = dict(mu_e_mpa=200.0, lambda_e_mpa=400.0, mu_c_mpa=1000.0,
                       mu_micro_mpa=100.0, lambda_micro_mpa=100.0,
                       L_c_mm=1.0)
REF_RHO = 2000.0
REF_ETA = 1.0e-2
REF_ETA_BAR = 1.0e-1

# complete-gap counts (without, with gradient micro-inertia), criterion 1
GAP_COUNT_TABLE = {
    "relaxed-curl": (1, 2),
    "relaxed-div-curl": (0, 1),
    "relaxed-div": (0, 2),
    "mindlin-eringen": (0, 1),
    "internal-variable": (2, 3),
}

# dense-disperse: grid length of one CSV export and number of k samples
# checked against the cubic oracle in every block
DISPERSE_POINTS = 1000
DISPERSE_ORACLE_SAMPLES = 8
# criterion-6 tolerance of the eigenvalues against the cubic oracle
ORACLE_REL_TOL = 1e-8
# an acoustic branch "starts at zero" below this share of the largest
# k = 0 frequency of its block (the package's own acoustic threshold)
ACOUSTIC_REL_TOL = 1e-6
MODULI = ("mu_e", "lambda_e", "mu_c", "mu_micro", "lambda_micro", "L_c")
DISPERSE_HEADER = ["k", "block", "branch_label", "omega", "dominant_mode",
                   "ratio"]

# edge-scan: 4 values of eta_bar_2 on a 2 rad/s bin grid (85x the default
# resolution for demo.cfg).  Gap edges observed at eta_bar_2 = 0 .. 0.2:
# gap 1 = [45500, 244948] and gap 2 upper = 447212 at every value; gap 2
# lower falls monotonically from 390378 (eta_bar_2 = 0) to 370664 (0.2).
SCAN_VALUES = 4
SCAN_DELTA_OMEGA = 2.0
SCAN_GAP1 = (45500.0, 244948.0)
SCAN_GAP2_HI = 447212.0
SCAN_GAP2_LO_RANGE = (370664.0, 390378.0)
# edges may move by a few bins (e.g. once they are refined below bin
# resolution); the monotone trend may wobble by one bin
SCAN_EDGE_TOL_BINS = 3
SCAN_MONOTONE_SLACK_BINS = 1


class CheckError(Exception):
    """An operation's output differs from the expected result."""


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a name for the record and its input."""

    name: str
    payload: object


@dataclass(frozen=True)
class Workload:
    """The seeded operation list of one workload, with its op and check.

    ``run(op, out_path)`` performs one operation and returns its result;
    ``check(op, result, out_path)`` raises CheckError on a wrong output.
    """

    name: str
    ops: tuple
    run: object
    check: object


@functools.cache
def load_oracle():
    """The independent cubic eigenvalue oracle from ``tests/oracles.py``."""
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("mmbands_bench_oracles",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """Seeded operation list of a workload; ``smoke`` shrinks every op."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from "
                         + ", ".join(WORKLOADS))
    make_ops, run, check = WORKLOADS[name]
    ops = make_ops(random.Random(f"{name}:{seed}"), smoke)
    return Workload(name=name, ops=tuple(ops), run=run, check=check)


# ---------------------------------------------------------------------------
# gap-table: the ten criterion-1 complete-gap reports through the library


def _gap_table_ops(rng, smoke):
    elastic = mmbands.ElasticParams.from_engineering(**REF_ENGINEERING)
    base = mmbands.InertiaParams(rho=REF_RHO, eta=REF_ETA)
    ops = []
    for model in mmbands.ModelKind:
        for with_bar in (False, True):
            inertia = base.with_eta_bar(REF_ETA_BAR if with_bar else 0.0)
            ops.append(Op(name=f"{model.value}/eta_bar={int(with_bar)}",
                          payload=(model, elastic, inertia, with_bar)))
    rng.shuffle(ops)
    return ops[:2] if smoke else ops


def run_gap_table(op: Op, out_path: Path):
    model, elastic, inertia, _ = op.payload
    return mmbands.detect_gaps(model, elastic, inertia)


def check_gap_table(op: Op, report, out_path: Path) -> None:
    model, _, _, with_bar = op.payload
    want = GAP_COUNT_TABLE[model.value][int(with_bar)]
    got = len(report.gaps)
    if got != want:
        raise CheckError(f"{op.name}: {got} complete gaps, expected {want}")
    edges = [e for g in report.gaps for e in (g.omega_lo, g.omega_hi)]
    if edges != sorted(edges) or any(e < 0.0 for e in edges):
        raise CheckError(f"{op.name}: gap edges not ascending: {edges}")


# ---------------------------------------------------------------------------
# dense-disperse: CSV export of all blocks on a long grid through the CLI


def _dense_disperse_ops(rng, smoke):
    base = mmbands.cli.parse_config_file(str(ROOT / DEMO_CFG))
    models = [m.value for m in mmbands.ModelKind]
    rng.shuffle(models)
    points = 60 if smoke else DISPERSE_POINTS
    ops = []
    for model in models[:2] if smoke else models:
        values = {key: base[key] * 2.0 ** rng.uniform(-1.0, 1.0)
                  for key in MODULI}
        eta_bar = rng.uniform(0.0, 0.2)
        values.update(eta_bar_1=eta_bar, eta_bar_2=eta_bar,
                      eta_bar_3=eta_bar)
        elastic = mmbands.ElasticParams.from_engineering(
            *(values[key] for key in MODULI))
        inertia = mmbands.InertiaParams(
            rho=base["rho"], eta=base["eta"]).with_eta_bar(eta_bar)
        report = mmbands.validate(elastic, inertia)
        if not report.ok:
            raise ValueError(f"drawn parameters fail validate(): "
                             f"{report.failures()}")
        flags = []
        for key in MODULI + ("eta_bar_1", "eta_bar_2", "eta_bar_3"):
            flags += ["--" + key.replace("_", "-").lower(), repr(values[key])]
        samples = sorted({0, points - 1}
                         | set(rng.sample(range(1, points - 1),
                                          DISPERSE_ORACLE_SAMPLES - 2)))
        ops.append(Op(name=model, payload=dict(
            model=model, points=points, flags=flags, samples=samples,
            elastic=elastic, inertia=inertia)))
    return ops


def run_dense_disperse(op: Op, out_path: Path):
    p = op.payload
    argv = (["disperse", "--config", DEMO_CFG, "--model", p["model"]]
            + p["flags"] + ["--grid-points", str(p["points"]),
                            "--output", str(out_path)])
    return mmbands.cli.run(argv)


def check_dense_disperse(op: Op, exit_code, out_path: Path) -> None:
    if exit_code != 0:
        raise CheckError(f"{op.name}: disperse exited {exit_code}")
    p = op.payload
    with open(out_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != DISPERSE_HEADER:
        raise CheckError(f"{op.name}: bad CSV header {rows[:1]}")
    body = rows[1:]
    n = p["points"]
    if len(body) != 9 * n:
        raise CheckError(f"{op.name}: {len(body)} CSV rows, expected {9 * n}")

    # group rows as block -> label -> list of (k, omega, dominant)
    curves: dict = {}
    for k, block, label, omega, dominant, _ in body:
        curves.setdefault(block, {}).setdefault(label, []).append(
            (float(k), float(omega), dominant))

    model = mmbands.ModelKind(p["model"])
    elastic, inertia = p["elastic"], p["inertia"]
    oracle = load_oracle()
    for block in mmbands.WaveBlock:
        branches = curves.get(block.value, {})
        if len(branches) != 3 or any(len(b) != n for b in branches.values()):
            raise CheckError(f"{op.name}: block {block.value} does not have "
                             f"three branches of {n} samples")
        system = mmbands.block_for(model, elastic, inertia, block)
        allowed = set(system.labels) | {"Mixed"}
        for label, samples in branches.items():
            bad = {d for _, _, d in samples} - allowed
            if bad:
                raise CheckError(f"{op.name}: {block.value}:{label} has "
                                 f"unknown mode markers {sorted(bad)}")
        if block is not mmbands.WaveBlock.UNCOUPLED:
            _check_acoustic(op, block, branches)
        for j in p["samples"]:
            _check_against_oracle(op, block, branches, j, system, oracle)


def _check_acoustic(op, block, branches):
    label = ("L" if block is mmbands.WaveBlock.LONGITUDINAL else "T") + "A"
    if label not in branches:
        raise CheckError(f"{op.name}: block {block.value} has no {label}")
    top = max(s[0][1] for s in branches.values())
    start = branches[label][0][1]
    if abs(start) > ACOUSTIC_REL_TOL * max(top, 1.0):
        raise CheckError(f"{op.name}: {label} starts at omega = {start!r}")


def _check_against_oracle(op, block, branches, j, system, oracle):
    """The three omega^2 at row j against the cubic oracle.

    The roots are compared through their elementary symmetric functions,
    i.e. the coefficients of the characteristic cubic the oracle solves.
    Those stay accurate at the exact double roots some blocks carry, where
    the oracle's closed-form roots themselves lose half their digits.  The
    k-th function is floored at the k-th power of the largest eigenvalue
    (or the criterion-6 scale |K|/|M|, if larger).
    """
    ks = {s[j][0] for s in branches.values()}
    if len(ks) != 1:
        raise CheckError(f"{op.name}: branches disagree on k at row {j}")
    k = ks.pop()
    k_mat, m_mat = system.stiffness_at(k), system.mass_at(k)
    want = oracle.cubic_pencil_eigenvalues(k_mat, m_mat)
    got = sorted(s[j][1] ** 2 for s in branches.values())
    scale = max(float(np.linalg.norm(k_mat) / np.linalg.norm(m_mat)),
                max(abs(float(w)) for w in want))
    for power, (g, w) in enumerate(zip(_symmetric(got), _symmetric(want)),
                                   start=1):
        if abs(g - w) / max(abs(w), scale ** power) > ORACLE_REL_TOL:
            raise CheckError(f"{op.name}: {block.value} at k = {k!r}: "
                             f"omega^2 {got} vs oracle "
                             f"{[float(x) for x in want]}")


def _symmetric(roots):
    a, b, c = (float(r) for r in roots)
    return a + b + c, a * b + a * c + b * c, a * b * c


# ---------------------------------------------------------------------------
# edge-scan: a fine-bin gap scan over eta_bar_2 through the CLI


def _edge_scan_ops(rng, smoke):
    count = 2 if smoke else SCAN_VALUES
    values = [round(rng.uniform(0.0, 0.2), 6) for _ in range(count)]
    return [Op(name="eta_bar_2=" + ",".join(map(repr, values)),
               payload=values)]


def run_edge_scan(op: Op, out_path: Path):
    argv = ["sweep-param", "--config", DEMO_CFG, "--param", "eta_bar_2",
            "--values", ",".join(map(repr, op.payload)),
            "--delta-omega", repr(SCAN_DELTA_OMEGA),
            "--output", str(out_path)]
    return mmbands.cli.run(argv)


def check_edge_scan(op: Op, exit_code, out_path: Path) -> None:
    if exit_code != 0:
        raise CheckError(f"{op.name}: sweep-param exited {exit_code}")
    with open(out_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["param_value", "n_gaps", "gaps"]:
        raise CheckError(f"{op.name}: bad CSV header {rows[:1]}")
    if [float(r[0]) for r in rows[1:]] != op.payload:
        raise CheckError(f"{op.name}: rows do not match the scanned values")
    tol = SCAN_EDGE_TOL_BINS * SCAN_DELTA_OMEGA
    lows = []
    for value, n_gaps, joined in rows[1:]:
        gaps = [tuple(map(float, g.split(":"))) for g in joined.split(";")
                if g]
        if int(n_gaps) != 2 or len(gaps) != 2:
            raise CheckError(f"{op.name}: {n_gaps} gaps at {value}: {joined}")
        (lo1, hi1), (lo2, hi2) = gaps
        lo_min, lo_max = SCAN_GAP2_LO_RANGE
        if (abs(lo1 - SCAN_GAP1[0]) > tol or abs(hi1 - SCAN_GAP1[1]) > tol
                or abs(hi2 - SCAN_GAP2_HI) > tol
                or not lo_min - tol <= lo2 <= lo_max + tol):
            raise CheckError(f"{op.name}: gap edges off at {value}: {joined}")
        lows.append((float(value), lo2))
    slack = SCAN_MONOTONE_SLACK_BINS * SCAN_DELTA_OMEGA
    lows.sort()
    for (v_a, lo_a), (v_b, lo_b) in zip(lows, lows[1:]):
        if lo_b > lo_a + slack:
            raise CheckError(f"{op.name}: gap 2 lower edge rises from "
                             f"{lo_a} at {v_a} to {lo_b} at {v_b}")


WORKLOADS = {
    "gap-table": (_gap_table_ops, run_gap_table, check_gap_table),
    "dense-disperse": (_dense_disperse_ops, run_dense_disperse,
                       check_dense_disperse),
    "edge-scan": (_edge_scan_ops, run_edge_scan, check_edge_scan),
}
