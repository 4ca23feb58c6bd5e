"""Repeat mode: run the benchmark over several seeds and report the spread.

    python3 bench/repeat.py --workload edge-scan --seeds 1-10 --seconds 20

Each run is a fresh ``run.py`` process.  For every metric the script
prints the median and quartiles across runs (``statistics.quantiles`` with
n = 4) and the spread, (q3 - q1) / median.  End-to-end metrics are compared
with their bound in ``BENCHMARK.json``: a spread above a third of the bound
is flagged.  The table is also written to
``bench/out/repeat-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread_table(values: dict[str, list[float]], bounds: dict) -> dict:
    table = {}
    for name, vals in values.items():
        q1, med, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                       else (vals[0],) * 3)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        table[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                       "bound": bound, "n": len(vals),
                       "steady": bound is None or spread < bound / 3}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    (BENCH / "out").mkdir(exist_ok=True)
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(BENCH / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        table = spread_table(values, bounds)
        for name, row in table.items():
            flag = "" if row["steady"] else "  <-- spread >= bound/3"
            print(f"  {name:48s} median {row['median']:.6g}  "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  "
                  f"spread {row['spread']:.4f}"
                  + (f" (bound {row['bound']})" if row["bound"] else "")
                  + flag)
        out = BENCH / "out" / f"repeat-{workload}-trace{args.trace}.json"
        out.write_text(json.dumps({"seconds": args.seconds, "runs": runs,
                                   "table": table}, indent=1),
                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
