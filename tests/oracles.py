"""Independent reference computations used to cross-check the solvers.

The cubic route below never touches the production eigensolver: the
characteristic polynomial det(K - lam*M) is sampled at four nodes, the
cubic coefficients are recovered from the Vandermonde system, and the three
real roots come out of the closed-form trigonometric solution.  The gap
finder at the end marks a boolean array with one entry per frequency bin,
the direct form of the interval union that the production code computes.
The branch continuation and the mode classifier are the plain per-step and
per-vector loops that the production code replaces by array passes.
"""

import math

import numpy as np


def det3(a: np.ndarray) -> complex:
    """3x3 determinant by cofactor expansion (no factorization library)."""
    return (a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]))


def _real_cubic_roots(c3: float, c2: float, c1: float, c0: float):
    """All-real roots of c3 x^3 + c2 x^2 + c1 x + c0 (Hermitian pencil case)."""
    a = c2 / c3
    b = c1 / c3
    c = c0 / c3
    # depressed cubic t^3 + p t + q with x = t - a/3
    p = b - a * a / 3.0
    q = 2.0 * a ** 3 / 27.0 - a * b / 3.0 + c
    shift = -a / 3.0
    if p >= 0.0:
        # degenerate (near-triple root); p > 0 cannot happen for three
        # real roots except by roundoff
        t = -np.cbrt(q)
        return sorted((t + shift,) * 3)
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = max(-1.0, min(1.0, -4.0 * q / (m ** 3)))
    phi = math.acos(arg)
    roots = [m * math.cos((phi + 2.0 * math.pi * k) / 3.0) + shift
             for k in range(3)]
    return sorted(roots)


def cubic_pencil_eigenvalues(k_matrix: np.ndarray, m_matrix: np.ndarray):
    """Ascending eigenvalues of a 3x3 pencil via its characteristic cubic.

    The pencil is first equilibrated by the diagonal congruence
    D (K - lam M) D with D = diag(M)^(-1/2), which leaves the eigenvalues
    untouched but removes the many-decade row scaling that physical mass
    matrices carry; the polynomial is then sampled on nodes spanning the
    eigenvalue range so all four coefficients are well determined.
    """
    k_matrix = np.asarray(k_matrix, dtype=complex)
    m_matrix = np.asarray(m_matrix, dtype=complex)
    d = 1.0 / np.sqrt(np.real(np.diagonal(m_matrix)))
    k_eq = k_matrix * np.outer(d, d)
    m_eq = m_matrix * np.outer(d, d)
    scale = np.linalg.norm(k_eq) / np.linalg.norm(m_eq)
    if scale == 0.0:
        scale = 1.0
    nodes = scale * np.array([0.0, 1.0, 2.0, 3.0])
    samples = [det3(k_eq - t * m_eq).real for t in nodes]
    vander = np.vander(nodes, 4, increasing=True)
    c0, c1, c2, c3 = np.linalg.solve(vander, samples)
    return _real_cubic_roots(c3, c2, c1, c0)


def binned_coverage(branches, omega_ceiling, delta_omega, min_gap_width):
    """Gap finder that marks a boolean array of delta_omega-wide bins.

    ``branches`` holds (tag, omegas, bounded) triples.  Every bin between
    two consecutive samples is marked, and an unbounded branch also marks
    up to the ceiling.  Returns the empty runs at least ``min_gap_width``
    wide as (lo, hi) pairs, the occupied-bin count and, per occupied bin,
    the set of tags that reach it.
    """
    n_bins = int(np.ceil(omega_ceiling / delta_omega))
    bins = np.zeros(n_bins, dtype=bool)
    owners = {}

    def mark(lo, hi, tag):
        lo, hi = min(lo, hi), min(max(lo, hi), omega_ceiling)
        if lo >= omega_ceiling:
            return
        first = min(int(lo / delta_omega), n_bins - 1)
        last = min(int(hi / delta_omega), n_bins - 1)
        bins[first:last + 1] = True
        for b in range(first, last + 1):
            owners.setdefault(b, set()).add(tag)

    for tag, om, bounded in branches:
        om = [float(w) for w in om]
        for lo, hi in zip(om[:-1], om[1:]):
            mark(lo, hi, tag)
        if len(om) == 1:
            mark(om[0], om[0], tag)
        if not bounded:
            mark(om[-1], omega_ceiling, tag)

    gaps, start = [], None
    for i, occupied in enumerate(list(bins) + [True]):
        if not occupied and start is None:
            start = i
        elif occupied and start is not None:
            lo, hi = start * delta_omega, min(i * delta_omega, omega_ceiling)
            if hi - lo >= min_gap_width:
                gaps.append((lo, hi))
            start = None
    return gaps, int(np.count_nonzero(bins)), owners


def greedy_continuation(overlap, omegas):
    """Branch order of a sweep by sequential greedy overlap matching.

    ``overlap[j - 1][p, c]`` is the overlap of eigenpair p at step j - 1
    with eigenpair c at step j, and ``omegas[j]`` the frequencies of step
    j.  At every step the overlaps are reordered by branch, and entries are
    taken by descending overlap, then ascending new frequency, branch and
    column, skipping taken branches and columns.  Returns columns[j][b],
    the eigenpair of step j that continues branch b.
    """
    n = len(omegas[0])
    columns = [list(range(n))]
    for j in range(1, len(omegas)):
        prev = columns[-1]
        entries = sorted((-float(overlap[j - 1][prev[b]][c]),
                          float(omegas[j][c]), b, c)
                         for b in range(n) for c in range(n))
        new = [None] * n
        for _, _, b, c in entries:
            if new[b] is None and c not in new:
                new[b] = c
        columns.append(new)
    return columns


def classify_vector(vector, labels, threshold):
    """(dominant, ratio) of one eigenvector, one component at a time.

    The dominant label is the component of largest magnitude, the last one
    among equals; it is "Mixed" when the largest magnitude is less than
    ``threshold`` times the second largest.  The ratio is inf when the
    second largest is zero.
    """
    mags = [abs(complex(v)) for v in vector]
    top = max(range(len(mags)), key=lambda i: (mags[i], i))
    second = max(m for i, m in enumerate(mags) if i != top)
    ratio = math.inf if second == 0.0 else mags[top] / second
    return (labels[top] if ratio >= threshold else "Mixed"), ratio
