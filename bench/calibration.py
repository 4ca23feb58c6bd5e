"""Host-speed calibration: a fixed reference kernel timed next to each op.

The benchmark shares a virtual machine whose CPU speed drifts by up to 2x
within minutes, because other guests load the same host cores (CPU time
tracks wall time, so the process is not descheduled; it runs slower).  A
fixed kernel that owes nothing to ``mmbands`` is timed before the first op
and after every op.  Each op's wall time is rescaled by

    NOMINAL_S / mean(kernel time before the op, kernel time after it)

which gives the time the op would have taken at the reference host speed.
A change to the program moves these times one for one, because the kernel
does not change with it.  The raw wall times are kept in the run record.

The kernel mixes what the package spends its time on: Python-level loops
over 3x3 complex numpy arrays, column updates, small dense solves and
norms.

Process start-up drifts with the host too, but it does not follow the
kernel.  Set-up probes are rescaled the same way by a reference start-up
instead: a fresh interpreter that only imports numpy.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

# kernel time at the reference host speed (a quiet 2-core Intel Xeon VM);
# only ratios between runs matter, this keeps the rescaled times in seconds
NOMINAL_S = 0.1
ROUNDS = 2000

_M = np.array([[4.0, 1.0 - 0.5j, 0.2j],
               [1.0 + 0.5j, 3.0, 0.3 - 0.1j],
               [-0.2j, 0.3 + 0.1j, 2.0]])
_RHS = np.eye(3, dtype=complex)


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    a = _M.copy()
    start = time.perf_counter()
    for r in range(ROUNDS):
        x = np.linalg.solve(_M, _RHS)
        angle = 0.1 + 0.001 * r
        c, s = math.cos(angle), math.sin(angle)
        for p, q in ((0, 1), (0, 2), (1, 2)):
            col_p = a[:, p].copy()
            col_q = a[:, q].copy()
            a[:, p] = c * col_p - s * col_q
            a[:, q] = s * col_p + c * col_q
        a = 0.5 * (a + x) / float(np.linalg.norm(a + x))
    return time.perf_counter() - start


# start-up time of a fresh interpreter importing numpy, at the reference
# host speed
STARTUP_NOMINAL_S = 0.19
STARTUP_CMD = (sys.executable, "-c", "import numpy")


def startup_seconds(cmd=STARTUP_CMD, cwd=None) -> float:
    """Wall time of one run of ``cmd`` in a fresh process."""
    start = time.perf_counter()
    subprocess.run(cmd, cwd=cwd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def speed_factor(before: float, after: float,
                 nominal: float = NOMINAL_S) -> float:
    """Rescaling factor of a timing taken between two reference timings."""
    return 2.0 * nominal / (before + after)
