"""Benchmark command of mmbands.

    python3 bench/run.py --workload gap-table --seed 1 --seconds 25 --trace 0

Runs one workload with a single closed-loop caller: each operation starts
after the previous one returned, and whole passes over the workload's
seeded operation list are run until ``--seconds`` have passed.  Every
output is checked; an operation fails when it raises, exits non-zero or
fails its check, and it is neither skipped nor retried.  Op and set-up
times are rescaled to the reference host speed (see ``calibration.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs passes
untraced and then as many traced (see ``tracing.py``) and reports per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, every per-op sample, failures, metrics) goes to
``bench/out/result-<workload>-seed<seed>-trace<t>.json`` and the spans of a
traced run to ``bench/out/spans-<workload>-seed<seed>.jsonl``.

The package is imported from ``src/`` of the checkout this file lives in;
without it, ``demo.cfg`` or ``tests/oracles.py`` the command exits 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_REPEATS = 9
EXIT_UNUSABLE = 2


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("gap-table", "dense-disperse", "edge-scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up probe, to test the "
                             "benchmark itself")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record


def environment(seed: int) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name") for k in ("blas", "lapack")}
        blas["version"] = deps["blas"].get("version")
    except (TypeError, KeyError):
        blas = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    lines = {p.name: len(p.read_text(encoding="utf-8").splitlines())
             for p in sorted((SRC / "mmbands").glob("*.py"))}
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
        "src_lines": {"files": lines, "total": sum(lines.values())},
    }


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


# ---------------------------------------------------------------------------
# measurement


def measure_setup(calibration, workload: str, seed: int,
                  repeats: int) -> list[dict]:
    """Fresh interpreters that import the package and build the inputs.

    Each probe is rescaled by the reference start-up timed before and
    after it (see ``calibration.py``).
    """
    cmd = [sys.executable, str(BENCH / "probe_setup.py"),
           "--workload", workload, "--seed", str(seed)]
    samples = []
    ref = calibration.startup_seconds()
    for _ in range(repeats):
        wall = calibration.startup_seconds(cmd, cwd=ROOT)
        before, ref = ref, calibration.startup_seconds()
        speed = calibration.speed_factor(before, ref,
                                         calibration.STARTUP_NOMINAL_S)
        samples.append({"wall_s": wall, "speed": speed,
                        "time_s": wall * speed})
    return samples


class Loop:
    """Closed-loop runner over whole passes of a workload's ops."""

    def __init__(self, wl, out_path: Path, calibration):
        self.wl = wl
        self.out_path = out_path
        self.calibration = calibration
        self.samples: list[dict] = []
        self._kernel = None

    def run(self, *, seconds: float | None = None, passes: int | None = None,
            tracer=None) -> list[dict]:
        """Run passes until ``seconds`` elapsed or ``passes`` done."""
        begin = len(self.samples)
        start = time.perf_counter()
        done = 0
        while True:
            for op in self.wl.ops:
                self.samples.append(self._one(op, tracer))
            done += 1
            if passes is not None and done >= passes:
                break
            if passes is None and time.perf_counter() - start >= seconds:
                break
        return self.samples[begin:]

    def _one(self, op, tracer) -> dict:
        self.out_path.unlink(missing_ok=True)
        if self._kernel is None:
            self._kernel = self.calibration.kernel_seconds()
        error = None
        if tracer is not None:
            tracer.begin_op(len(self.samples))
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            result = self.wl.run(op, self.out_path)
        except Exception as exc:    # a failed op is recorded, the run goes on
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
            if tracer is not None:
                tracer.end_op()
        before, self._kernel = self._kernel, self.calibration.kernel_seconds()
        speed = self.calibration.speed_factor(before, self._kernel)
        if error is None:
            try:
                self.wl.check(op, result, self.out_path)
            except Exception as exc:
                error = f"check failed: {exc}"
        return {"op": op.name, "wall_s": wall, "cpu_s": cpu, "speed": speed,
                "time_s": wall * speed, "ok": error is None, "error": error,
                "bytes_out": (self.out_path.stat().st_size
                              if self.out_path.exists() else 0)}


def summarize(samples: list[dict]) -> dict:
    """Counts and rescaled op times of a list of op samples."""
    passed = [s["time_s"] for s in samples if s["ok"]]
    times = passed or [s["time_s"] for s in samples]
    return {
        "attempted": len(samples),
        "failed": len(samples) - len(passed),
        "ops_per_s": len(passed) / sum(s["time_s"] for s in samples),
        "op_p50_s": statistics.median(times),
        "mean_s": statistics.fmean(s["time_s"] for s in samples),
        "tail": tail_percentile(times),
    }


def tail_percentile(times: list[float]):
    """The highest of p99/p90 with at least ten samples beyond it."""
    if len(times) < 2:
        return None
    cuts = statistics.quantiles(times, n=100)
    for q in (99, 90):
        if sum(t > cuts[q - 1] for t in times) >= 10:
            return {"percentile": q, "value_s": cuts[q - 1]}
    return None


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = (SRC / "mmbands" / "__init__.py", ROOT / "demo.cfg",
              ROOT / "tests" / "oracles.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not an mmbands checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return EXIT_UNUSABLE
    os.chdir(ROOT)      # the ops name demo.cfg relative to the checkout
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc())
    sys.path.insert(0, str(SRC))
    try:
        import mmbands.cli
        import calibration
        import tracing
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return EXIT_UNUSABLE
    wl = workloads.build(args.workload, args.seed, smoke=args.smoke)
    workloads.load_oracle()

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    out_path = OUT / f"op-{tag}-{os.getpid()}.out"
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "env": environment(args.seed),
              "closed_loop_callers": 1, "ops_per_pass": len(wl.ops),
              "calibration_nominal_s": calibration.NOMINAL_S}
    try:
        # warm-up, so the first op pays no lazy first-call cost; start-up
        # costs are measured apart, as setup_s
        mmbands.cli.run(["cutoffs", "--config", workloads.DEMO_CFG,
                         "--output", str(out_path)])
        loop = Loop(wl, out_path, calibration)
        if args.trace:
            metrics = traced_run(args, loop, tracing, record)
        else:
            metrics = untraced_run(args, loop, calibration, record)
    finally:
        out_path.unlink(missing_ok=True)

    result = {"correct": record["failed"] == 0,
              "attempted": record["attempted"], "failed": record["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record["result"] = result
    with open(OUT / f"result-{tag}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    env = record["env"]
    print(f"# {args.workload} seed={args.seed} nproc={env['nproc']} "
          f"blas_threads={nproc()} numpy={env['numpy']} "
          f"src_lines={env['src_lines']['total']}")
    for s in record["samples"]:
        if not s["ok"]:
            print(f"# FAILED {s['op']}: {s['error']}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps(result))
    return 0


def untraced_run(args, loop, calibration, record) -> dict:
    repeats = 1 if args.smoke else SETUP_REPEATS
    setup = measure_setup(calibration, args.workload, args.seed, repeats)
    loop.run(seconds=args.seconds)
    summary = summarize(loop.samples)
    record.update(summary, samples=loop.samples, setup_samples=setup)
    return {
        "ops_per_s": (summary["ops_per_s"], "op/s"),
        "op_p50_s": (summary["op_p50_s"], "s"),
        "setup_s": (statistics.median(s["time_s"] for s in setup), "s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
        "ops_ok_frac": (1.0 - summary["failed"] / summary["attempted"],
                        "ratio"),
    }


def traced_run(args, loop, tracing, record) -> dict:
    untraced = loop.run(seconds=args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = loop.run(passes=len(untraced) // len(loop.wl.ops),
                          tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    summary = summarize(loop.samples)
    record.update(attempted=summary["attempted"], failed=summary["failed"],
                  untraced=summarize(untraced), traced=summarize(traced),
                  samples=loop.samples, n_spans=len(tracer.spans))
    metrics = tracing.layer_metrics(tracer)
    metrics["cli.bytes_out_per_op"] = (
        statistics.fmean(s["bytes_out"] for s in traced), "B")
    metrics["trace.overhead_frac"] = (
        1.0 - record["untraced"]["mean_s"] / record["traced"]["mean_s"],
        "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
