"""Independent reference computations used to cross-check the solvers.

The cubic route below never touches the production eigensolver: the
characteristic polynomial det(K - lam*M) is sampled at four nodes, the
cubic coefficients are recovered from the Vandermonde system, and the three
real roots come out of the closed-form trigonometric solution.  The gap
finder at the end marks a boolean array with one entry per frequency bin,
the direct form of the interval union that the production code computes.
The branch continuation and the mode classifier are the plain per-step and
per-vector loops that the production code replaces by array passes.  The
curvature rank is the general rule that certified gap-free reports narrow:
each model's curvature on a coupled block's micro DOFs, as an integer
matrix whose rank is exact.  The wide-cone sampler draws admissible
parameter sets far from the reference set, as plain keyword dicts, so this
module needs numpy only.
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

    ``branches`` holds (omegas, bounded) pairs.  Every bin between two
    consecutive samples is marked, and an unbounded branch also marks up to
    the ceiling; a sample below 0 counts in bin 0.  Returns the empty runs
    at least ``min_gap_width`` wide as (lo, hi) pairs and the occupied-bin
    count.
    """
    n_bins = int(np.ceil(omega_ceiling / delta_omega))
    bins = np.zeros(n_bins, dtype=bool)

    def mark(lo, hi):
        lo, hi = min(lo, hi), min(max(lo, hi), omega_ceiling)
        if lo >= omega_ceiling:
            return
        # floored, so a negative sample falls in bin 0 and never wraps
        first, last = (min(max(math.floor(x / delta_omega), 0), n_bins - 1)
                       for x in (lo, hi))
        bins[first:last + 1] = True

    for om, bounded in branches:
        om = [float(w) for w in om]
        for lo, hi in zip(om[:-1], om[1:]):
            mark(lo, hi)
        if len(om) == 1:
            mark(om[0], om[0])
        if not bounded:
            mark(om[-1], omega_ceiling)

    gaps, start = [], None
    for i, occupied in enumerate(list(bins) + [True]):
        if not occupied and start is None:
            start = i
        elif occupied and start is not None:
            lo, hi = start * delta_omega, min(i * delta_omega, omega_ceiling)
            if hi - lo >= min_gap_width:
                gaps.append((lo, hi))
            start = None
    return gaps, int(np.count_nonzero(bins))


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


# each model's curvature for waves along x1, as the columns of P it keeps:
# Curl Curl the second and third, grad Div the first, Div + Curl and the
# full gradient all three, and the internal-variable model none
CURVATURE_COLUMNS = {"relaxed-curl": (0, 1, 1), "relaxed-div": (1, 0, 0),
                     "relaxed-div-curl": (1, 1, 1),
                     "mindlin-eringen": (1, 1, 1),
                     "internal-variable": (0, 0, 0)}

# the integer rows of each coupled block's two micro DOFs over the entries
# of P they combine, and the column of P that holds each entry: (P_S, P_D)
# over P11, P22, P33 and (P_(12), P_[12]) over P12, P21
MICRO_ROWS = {"longitudinal": (((1, 1, 1), (2, -1, -1)), (0, 1, 2)),
              "transverse": (((1, 1), (1, -1)), (1, 0))}


def curvature_micro_rank(model, block):
    """Exact rank of a model's curvature on a coupled block's micro DOFs.

    ``model`` and ``block`` are the CLI names.  The curvature keeps the
    masked columns of P, so on the block's rows R it is the integer Gram
    matrix R diag(mask) R^T; a Gram matrix of rank below 2 has rank 1
    unless every entry is 0.
    """
    mask = CURVATURE_COLUMNS[model]
    rows, columns = MICRO_ROWS[block]
    (a, b), (c, d) = [[sum(x * y * mask[j] for x, y, j in zip(r, s, columns))
                       for s in rows] for r in rows]
    return 2 if a * d != b * c else int(any((a, b, c, d)))


def wide_cone_set(rng, *, mu_c_zero, l_c_zero, eta_bar_on):
    """One admissible parameter set, as ElasticParams / InertiaParams kwargs.

    SI units: moduli over nine decades (1e3 to 1e12 Pa), lambdas of either
    sign (3*lambda + 2*mu > 0), L_c from 10 um to 1 m, eta from 1e-8 to
    0.1 kg/m, rho from 1 to 1e4 kg/m^3 and eta_bar / eta from 1e-2 to 1e10.
    """
    mu_e, mu_c, mu_micro = 10.0 ** rng.uniform(3.0, 12.0, size=3)
    elastic = dict(
        mu_e=mu_e, lambda_e=mu_e * rng.uniform(-0.6, 2.0),
        mu_c=0.0 if mu_c_zero else mu_c, mu_micro=mu_micro,
        lambda_micro=mu_micro * rng.uniform(-0.6, 2.0),
        L_c=0.0 if l_c_zero else 10.0 ** rng.uniform(-5.0, 0.0))
    eta = 10.0 ** rng.uniform(-8.0, -1.0)
    eta_bar = eta * 10.0 ** rng.uniform(-2.0, 10.0, size=3)
    rho = 10.0 ** rng.uniform(0.0, 4.0)
    inertia = dict(rho=rho, eta=eta, **{
        f"eta_bar_{i + 1}": float(v) if eta_bar_on else 0.0
        for i, v in enumerate(eta_bar)})
    return elastic, inertia


def wide_cone(seed, count=24):
    """``count`` seeded wide-cone sets that cycle through the corners:
    mu_c = 0 in every third, L_c = 0 in every fourth and the gradient
    inertiae on in every other set."""
    rng = np.random.default_rng(seed)
    return [wide_cone_set(rng, mu_c_zero=i % 3 == 0, l_c_zero=i % 4 == 1,
                          eta_bar_on=i % 2 == 0) for i in range(count)]
