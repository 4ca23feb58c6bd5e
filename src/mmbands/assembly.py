"""Plane-wave assembly of the 12-field dynamic system and its 3x3 blocks.

For a wave travelling along x1, every field F is taken as
``F_hat * exp(i(k x1 - omega t))``, so each space derivative contributes a
factor ik (on the x1 slot only) and each double time derivative a factor
-omega^2.  The displacement balance and the nine micro-distortion balances
then collapse to

    (-omega^2 * M(k) + K(k)) w_hat = 0,
    M(k) = M0 + k^2 M2,      K(k) = K0 + k K1 + k^2 K2,

with Hermitian coefficient matrices in the amplitude vector
``w = (u1, u2, u3, P11, P12, ..., P33)``.  The matrices are built by
applying the constitutive maps to unit excitations of each degree of
freedom, so the code below mirrors the strong-form equations instead of
hand-expanded component formulas.

A unitary change of basis splits the 12x12 system exactly into four 3x3
blocks: longitudinal (u1 with the spherical/deviatoric-diagonal micro
modes), two transverse copies (u_xi with the symmetric/skew 1-xi micro
shears) and one diagonal block of micro modes that couple to nothing.
The basis takes u in quadrature (a factor i: u lags P by a quarter
period).  As K1 is imaginary and couples only u with P, and the other
matrices are real without u-P entries, every block is real symmetric.
The system is linear in eleven coefficients, so ``model_blocks`` contracts
them with per-model unit tensors, built once from ``assemble_full`` and
checked once, keeping one block per ``WaveBlock`` kind.  Every block is
checked again when built (``BlockSystem``), so its solves do not scan it.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from .core import ElasticParams, InertiaParams, ModelKind, WaveBlock

DOF_NAMES = ("u1", "u2", "u3",
             "P11", "P12", "P13", "P21", "P22", "P23", "P31", "P32", "P33")

_I3 = np.eye(3)
_E1 = np.array([1.0, 0.0, 0.0])

# off-block or imaginary magnitude, relative to the matrix maximum, that fails
LEAK_REL_TOL = 1e-12

_MATRICES = ("M0", "M2", "K0", "K1", "K2")
_STIFFNESS = np.array([[[name[0] == "K"]] for name in _MATRICES])


class BlockLeakageError(Exception):
    """A block system has off-block, imaginary or asymmetric entries."""


def _sym(x):
    return 0.5 * (x + x.T)


def _skew(x):
    return 0.5 * (x - x.T)


def _coupling_stress(el: ElasticParams, x):
    """Stress conjugate to (grad u - P): isotropic + rotational coupling."""
    return (2.0 * el.mu_e * _sym(x)
            + el.lambda_e * np.trace(x) * _I3
            + 2.0 * el.mu_c * _skew(x))


def _micro_stress(el: ElasticParams, x):
    """Self-stress of the micro-distortion (symmetric part only)."""
    return 2.0 * el.mu_micro * _sym(x) + el.lambda_micro * np.trace(x) * _I3


def _gradient_inertia_flux(inertia: InertiaParams, g):
    """Weighted split of a displacement-gradient amplitude.

    The three gradient micro-inertiae act on the deviatoric-symmetric,
    skew and spherical parts of grad(u_tt); the spherical weight carries
    the 1/3 that the variation of a (1/6) tr^2 energy term produces.
    """
    sym_g = _sym(g)
    dev_sym = sym_g - np.trace(sym_g) / 3.0 * _I3
    return (inertia.eta_bar_1 * dev_sym
            + inertia.eta_bar_2 * _skew(g)
            + inertia.eta_bar_3 / 3.0 * np.trace(g) * _I3)


def curl_x1_coefficient(p):
    """Coefficient of ik in Curl P for fields varying along x1 only.

    Row i of Curl P is the curl of row i of P; with only d/dx1 alive,
    (Curl P)_ij = ik * eps_{j1h} P_ih, i.e. output column 2 takes -P[:,3]
    and output column 3 takes +P[:,2] (1-based columns).
    """
    out = np.zeros_like(p)
    out[:, 1] = -p[:, 2]
    out[:, 2] = p[:, 1]
    return out


def div_x1_coefficient(p):
    """Coefficient of ik in Div P: the first column of P."""
    return p[:, 0].copy()


def _curvature_footprint(model: ModelKind, p):
    """Coefficient of k^2 (unit modulus) in the curvature term of the P balance.

    Each variant applies a different second-derivative operator to P; under
    the x1 ansatz all of them reduce to +k^2 times a column selection:

    * Curl Curl P  = +k^2 * (columns 2 and 3 of P)   [via the eps contraction]
    * grad(Div P)  = -k^2 * (column 1 of P)
    * Laplacian P  = -k^2 * P

    and the balance subtracts the curvature so every footprint below enters
    the stiffness with a positive sign.
    """
    if model is ModelKind.RELAXED_CURL:
        # compose the first-derivative operator twice: (ik)^2 * R(R(p))
        return -curl_x1_coefficient(curl_x1_coefficient(p))
    if model is ModelKind.RELAXED_DIV:
        return np.outer(div_x1_coefficient(p), _E1)
    if model is ModelKind.RELAXED_DIV_CURL:
        return (np.outer(div_x1_coefficient(p), _E1)
                - curl_x1_coefficient(curl_x1_coefficient(p)))
    if model is ModelKind.MINDLIN_ERINGEN:
        return p.copy()
    if model is ModelKind.INTERNAL_VARIABLE:
        return np.zeros_like(p)
    raise ValueError(f"unknown model variant: {model!r}")


@dataclass(frozen=True)
class _KPolynomial:
    """The k-polynomials ``M(k) = M0 + k^2 M2``, ``K(k) = K0 + k K1 + k^2 K2``.

    ``k`` is a scalar, giving (n, n) matrices, or a 1-D array of
    wavenumbers, giving an (n_k, n, n) stack with one matrix per entry.
    """

    M0: np.ndarray
    M2: np.ndarray
    K0: np.ndarray
    K1: np.ndarray
    K2: np.ndarray

    def mass_at(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=float)[..., None, None]
        return self.M0 + (k * k) * self.M2

    def stiffness_at(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=float)[..., None, None]
        return self.K0 + k * self.K1 + (k * k) * self.K2


@dataclass(frozen=True)
class FullSystem(_KPolynomial):
    """Coefficient matrices of the 12x12 plane-wave system: M(k) is Hermitian
    positive definite for admissible parameters, K(k) Hermitian with K(0)
    positive semidefinite, and K1 purely imaginary (the ik coupling between
    displacement and micro-distortion)."""


@dataclass(frozen=True)
class BlockSystem(_KPolynomial):
    """One 3x3 diagonal block of the transformed system (real, float64),
    checked when built for the structure its solves rely on: M0 and M2, and
    all of an uncoupled block, exactly diagonal; K0, K1 and K2 symmetric to
    ``LEAK_REL_TOL`` of their largest magnitude (non-finite entries are the
    solver's to name).  A failure raises BlockLeakageError."""

    block: WaveBlock
    labels: tuple[str, str, str]

    def __post_init__(self):
        for name in _MATRICES:
            rows = getattr(self, name).tolist()
            (_, a, b), (c, _, d), (e, f, _) = rows
            diagonal = name[0] == "M" or self.block is WaveBlock.UNCOUPLED
            if (any((a, b, c, d, e, f)) if diagonal else (a, b, d) != (c, e, f)
                    and max(abs(a - c), abs(b - e), abs(d - f))
                    > LEAK_REL_TOL * max(map(abs, sum(rows, [])))):
                raise BlockLeakageError(
                    f"{self.block.value} block: {name} is not "
                    + ("diagonal" if diagonal else "symmetric"))

    def mass_diagonal_at(self, k) -> np.ndarray:
        """The (n_k, 3) diagonals of ``mass_at`` at 1-D k, bit for bit."""
        k = np.asarray(k, dtype=float)[:, None]
        return self.M0.diagonal() + (k * k) * self.M2.diagonal()


def assemble_full(model: ModelKind, elastic: ElasticParams,
                  inertia: InertiaParams) -> FullSystem:
    """Assemble the k-polynomial mass and stiffness of the chosen model.

    Columns are unit excitations of each degree of freedom; for each one the
    strong-form balances are evaluated with the ik/k^2 bookkeeping described
    in the module docstring:

    * displacement rows:  -omega^2 (rho u + k^2 flux(u)) = ik sigma[:, 1]
    * micro rows:         -omega^2 eta P = sigma - s - curvature
    """
    n = len(DOF_NAMES)
    m0 = np.diag([inertia.rho] * 3 + [inertia.eta] * 9).astype(complex)
    m2, k0, k1, k2 = np.zeros((4, n, n), dtype=complex)

    curvature_modulus = elastic.mu_e * elastic.L_c ** 2

    for col, w in enumerate(np.eye(n)):
        u, p = w[:3], w[3:].reshape(3, 3)   # displacement, micro part
        grad_u = np.outer(u, _E1)          # coefficient of ik in grad u

        sigma_grad = _coupling_stress(elastic, grad_u)
        sigma_p = _coupling_stress(elastic, p)
        micro_p = _micro_stress(elastic, p)
        curv_p = curvature_modulus * _curvature_footprint(model, p)
        flux_u = _gradient_inertia_flux(inertia, grad_u)

        # displacement balance, rows 0..2
        m2[:3, col] += flux_u[:, 0]
        k2[:3, col] += sigma_grad[:, 0]
        k1[:3, col] += 1j * sigma_p[:, 0]

        # micro-distortion balance, rows 3..11
        k1[3:, col] += -1j * sigma_grad.reshape(-1)
        k0[3:, col] += (sigma_p + micro_p).reshape(-1)
        k2[3:, col] += curv_p.reshape(-1)

    return FullSystem(M0=m0, M2=m2, K0=k0, K1=k1, K2=k2)


def _build_block_basis() -> tuple[np.ndarray, tuple]:
    """Integer rows of the block change of basis, grouped by block.

    The displacement enters in quadrature (coefficient i), the
    micro-distortion through its spherical part P_S, the diagonal
    deviatoric combinations P_D and P_V, and the symmetric / skew
    off-diagonal pairs P_(ij) / P_[ij].  The rows over their norms give
    the unitary ``_BLOCK_T``, so eigenvector components stay comparable.
    """
    def unit(coeffs):
        return np.array([coeffs.get(name, 0) for name in DOF_NAMES], complex)

    blocks = (
        (WaveBlock.LONGITUDINAL, ("u1", "P_S", "P_D"), (
            unit({"u1": 1j}),
            unit({"P11": 1, "P22": 1, "P33": 1}),
            unit({"P11": 2, "P22": -1, "P33": -1}),
        )),
        *((WaveBlock.TRANSVERSE, (f"u{a}", f"P_(1{a})", f"P_[1{a}]"), (
            unit({f"u{a}": 1j}),
            unit({f"P1{a}": 1, f"P{a}1": 1}),
            unit({f"P1{a}": 1, f"P{a}1": -1}),
        )) for a in "23"),
        (WaveBlock.UNCOUPLED, ("P_(23)", "P_[23]", "P_V"), (
            unit({"P23": 1, "P32": 1}),
            unit({"P23": 1, "P32": -1}),
            unit({"P22": 1, "P33": -1}),
        )),
    )
    return (np.array([r for _, _, rs in blocks for r in rs]),
            tuple((kind, labels) for kind, labels, _ in blocks))


_BLOCK_ROWS, _BLOCK_META = _build_block_basis()
_BLOCK_NORMS = np.linalg.norm(_BLOCK_ROWS, axis=1)
_BLOCK_T = _BLOCK_ROWS / _BLOCK_NORMS[:, None]
# the one mask of the entries off the blocks: the uncoupled modes never
# couple, and M0 and M2 are diagonal, so those count as 1x1 blocks
_DROPPED = (np.kron(np.diag([1, 1, 1, 0]), np.ones((3, 3))) * _STIFFNESS
            + np.eye(12) == 0)
# the blocks model_blocks keeps (2 repeats 1) and the coefficients it contracts
_KEPT = np.array([0, 1, 3])
_COEFFICIENTS = ("mu_e", "lambda_e", "mu_c", "mu_micro", "lambda_micro",
                 "mu_e * L_c**2", "rho", "eta", "eta_bar_1", "eta_bar_2",
                 "eta_bar_3")


def block_basis() -> np.ndarray:
    """The 12x12 unitary block transformation (rows are new variables)."""
    return _BLOCK_T.copy()


def _split(transformed: np.ndarray) -> tuple[BlockSystem, ...]:
    """The four real blocks of the (5, 12, 12) block-basis M0..K2.

    An off-block or imaginary entry above ``LEAK_REL_TOL`` times its
    matrix's largest magnitude raises BlockLeakageError naming the matrix;
    smaller ones are dropped, so the masses and the uncoupled block are
    exactly diagonal.
    """
    mags = np.abs(transformed)
    scale = mags.max(axis=(1, 2))
    for what, worst in (
            ("off-block magnitude", np.where(_DROPPED, mags, 0.0)),
            ("imaginary part", np.abs(transformed.imag))):
        worst = worst.max(axis=(1, 2))
        bad = np.flatnonzero(worst > LEAK_REL_TOL * scale)
        if bad.size:
            i = bad[0]
            raise BlockLeakageError(
                f"{_MATRICES[i]} {what} {worst[i]:g} exceeds "
                f"{LEAK_REL_TOL:g} * {scale[i]:g}")
    # diagonal[b, m] is the 3x3 block b of matrix m
    diagonal = np.where(_DROPPED, 0.0, transformed.real).reshape(
        5, 4, 3, 4, 3)[:, np.arange(4), :, np.arange(4)]
    return tuple(BlockSystem(*diagonal[b], *meta)
                 for b, meta in enumerate(_BLOCK_META))


def _stacked(system: FullSystem) -> np.ndarray:
    return np.array([getattr(system, name) for name in _MATRICES])


def block_decompose(system: FullSystem) -> tuple[BlockSystem, ...]:
    """Split the full system into its four exact 3x3 diagonal blocks."""
    return _split(_BLOCK_T @ _stacked(system) @ _BLOCK_T.conj().T)


def _unit_tensor(model: ModelKind) -> np.ndarray:
    """(11, 5, 12, 12): block-basis M0..K2 at each unit coefficient.

    The coefficients are the five moduli, mu_e L_c^2, rho, eta and the
    eta_bar.  The stiffness takes only the moduli and the mass only the
    inertiae, so assembly c gives the stiffness of modulus c and the mass
    of inertia c; mu_e L_c^2 is unit mu_e at L_c = 1 minus L_c = 0 (exact).
    The integer rows transform these assemblies exactly (a u row is the
    single term i, and P rows combine only integer entries), so off-block
    and imaginary entries are 0 and each unit is symmetric, with no
    cleanup; the row norms are divided out after, row then column.
    """
    pairs = [(ElasticParams(*row, L_c=0.0), InertiaParams(*row))
             for row in np.eye(5)]
    pairs.append((replace(pairs[0][0], L_c=1.0), InertiaParams(0.0, 0.0)))
    full = np.array([_stacked(assemble_full(model, *pair)) for pair in pairs])
    full[5] -= full[0] * _STIFFNESS
    units = np.concatenate([full * _STIFFNESS, full[:5] * ~_STIFFNESS])
    units = _BLOCK_ROWS @ units @ _BLOCK_ROWS.conj().T
    return units / _BLOCK_NORMS[:, None] / _BLOCK_NORMS


@functools.cache
def _identity_curvature(model: ModelKind) -> bool:
    """Whether each unit P's curvature footprint is P itself, as for the full
    gradient and Div + Curl; exact, as every footprint selects columns of P."""
    return all(np.array_equal(_curvature_footprint(model, p), p)
               for p in np.eye(9).reshape(9, 3, 3))


@functools.cache
def _block_tensor(model: ModelKind) -> np.ndarray:
    """(11, 135): ``_unit_tensor`` in the kept blocks, too small for OpenBLAS
    to thread.  A nonzero imaginary unit entry, or one that ``_split`` drops,
    raises BlockLeakageError; without one, no finite contraction has one."""
    units = _unit_tensor(model)
    if units.imag.any() or units[:, _DROPPED].any():
        raise BlockLeakageError(f"{model.value}: a unit tensor has an "
                                "off-block or imaginary entry")
    kept = units.reshape(11, 5, 4, 3, 4, 3)[:, :, _KEPT, :, _KEPT]
    return np.moveaxis(kept, 0, 1).reshape(11, -1)


def model_blocks(model: ModelKind, elastic: ElasticParams,
                 inertia: InertiaParams) -> dict[WaveBlock, BlockSystem]:
    """The distinct blocks of ``block_decompose(assemble_full(...))``, by
    kind, from one tensor contraction: longitudinal, transverse (the x2
    block; the x3 one is identical) and uncoupled, in that order.  An
    overflowing mu_e * L_c**2 raises OverflowError where it is used, any
    other non-finite coefficient ValueError (finite ones keep off-block 0s)."""
    el, inr, units = elastic, inertia, _block_tensor(model)
    with np.errstate(over="ignore"):  # named below: inf * 0 would be nan
        curvature = el.mu_e * np.float64(el.L_c) ** 2 if units[5].any() else 0.0
    coefficients = np.array([el.mu_e, el.lambda_e, el.mu_c, el.mu_micro,
                             el.lambda_micro, curvature, inr.rho, inr.eta,
                             inr.eta_bar_1, inr.eta_bar_2, inr.eta_bar_3])
    if not (finite := np.isfinite(coefficients)).all():
        if not finite[5]:
            raise OverflowError(
                f"{model.value}: curvature modulus mu_e * L_c**2 is not "
                f"finite (mu_e = {el.mu_e:g} Pa, L_c = {el.L_c:g} m)")
        bad = ", ".join(np.compress(~finite, _COEFFICIENTS))
        raise ValueError(f"{model.value}: coefficient {bad} is not finite")
    blocks = (coefficients @ units).real.reshape(3, 5, 3, 3)
    return {_BLOCK_META[b][0]: BlockSystem(*matrices, *_BLOCK_META[b])
            for b, matrices in zip(_KEPT, blocks)}


def block_for(model: ModelKind, elastic: ElasticParams, inertia: InertiaParams,
              block: WaveBlock) -> BlockSystem:
    """Assemble and return a single 3x3 block of ``model_blocks``."""
    return model_blocks(model, elastic, inertia)[block]
