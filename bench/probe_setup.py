"""Set-up probe: the work a fresh process does before its first operation.

Imports ``mmbands`` and ``mmbands.cli`` from ``src/`` and builds the
workload's inputs, then exits.  ``run.py`` times whole runs of this script
to report ``setup_s``.
"""

import argparse
import sys
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import mmbands  # noqa: F401
    import mmbands.cli  # noqa: F401
    import workloads

    workloads.build(args.workload, args.seed)


if __name__ == "__main__":
    main()
