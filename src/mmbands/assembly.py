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
shears) and one block of micro modes that never couples to displacement.
The basis takes u in quadrature (a factor i: u lags P by a quarter
period).  As K1 is imaginary and couples only u with P, and the other
matrices are real without u-P entries, every block is real symmetric.
The system is linear in eleven coefficients, so ``model_blocks`` contracts
them with per-model unit tensors built once from ``assemble_full``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .core import ElasticParams, InertiaParams, ModelKind, WaveBlock

DOF_NAMES = ("u1", "u2", "u3",
             "P11", "P12", "P13", "P21", "P22", "P23", "P31", "P32", "P33")

_I3 = np.eye(3)
_E1 = np.array([1.0, 0.0, 0.0])

_SQRT2 = np.sqrt(2.0)
_SQRT3 = np.sqrt(3.0)
_SQRT6 = np.sqrt(6.0)

# off-block or imaginary magnitude, relative to the matrix maximum, that fails
LEAK_REL_TOL = 1e-12

_MATRICES = ("M0", "M2", "K0", "K1", "K2")
_STIFFNESS = np.array([[[name[0] == "K"]] for name in _MATRICES])


class BlockLeakageError(Exception):
    """Transformed system has off-block or imaginary entries above tolerance."""


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


def _unpack(w):
    """Split a 12-vector into the displacement triple and the 3x3 micro part."""
    return w[:3], w[3:].reshape(3, 3)


class _KPolynomial:
    """Evaluation of ``M(k) = M0 + k^2 M2`` and ``K(k) = K0 + k K1 + k^2 K2``.

    ``k`` is a scalar, giving (n, n) matrices, or a 1-D array of
    wavenumbers, giving an (n_k, n, n) stack with one matrix per entry.
    """

    def mass_at(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=float)[..., None, None]
        return self.M0 + (k * k) * self.M2

    def stiffness_at(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=float)[..., None, None]
        return self.K0 + k * self.K1 + (k * k) * self.K2


@dataclass(frozen=True)
class FullSystem(_KPolynomial):
    """Coefficient matrices of the 12x12 plane-wave system.

    ``M(k) = M0 + k^2 M2`` is Hermitian positive definite for admissible
    parameters; ``K(k) = K0 + k K1 + k^2 K2`` is Hermitian with K(0)
    positive semidefinite.  K1 is purely imaginary (the ik coupling between
    displacement and micro-distortion).
    """

    M0: np.ndarray
    M2: np.ndarray
    K0: np.ndarray
    K1: np.ndarray
    K2: np.ndarray


@dataclass(frozen=True)
class BlockSystem(_KPolynomial):
    """One 3x3 diagonal block of the transformed system (real, float64)."""

    block: WaveBlock
    labels: tuple[str, str, str]
    M0: np.ndarray
    M2: np.ndarray
    K0: np.ndarray
    K1: np.ndarray
    K2: np.ndarray


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
    m2 = np.zeros((n, n), dtype=complex)
    k0 = np.zeros((n, n), dtype=complex)
    k1 = np.zeros((n, n), dtype=complex)
    k2 = np.zeros((n, n), dtype=complex)

    curvature_modulus = elastic.mu_e * elastic.L_c ** 2

    for col in range(n):
        w = np.zeros(n)
        w[col] = 1.0
        u, p = _unpack(w)
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
    """Rows of the unitary change of basis, grouped by block.

    The displacement enters in quadrature (coefficient i), the
    micro-distortion through its spherical part P_S, the diagonal
    deviatoric combinations P_D and P_V, and the symmetric / skew
    off-diagonal pairs P_(ij) / P_[ij]; the normalizations make the matrix
    unitary so eigenvector components stay comparable across DOFs.
    """
    def unit(coeffs):
        return np.array([coeffs.get(name, 0) for name in DOF_NAMES], complex)

    blocks = (
        (WaveBlock.LONGITUDINAL, ("u1", "P_S", "P_D"), (
            unit({"u1": 1j}),
            unit({"P11": 1 / _SQRT3, "P22": 1 / _SQRT3, "P33": 1 / _SQRT3}),
            unit({"P11": 2 / _SQRT6, "P22": -1 / _SQRT6, "P33": -1 / _SQRT6}),
        )),
        *((WaveBlock.TRANSVERSE, (f"u{a}", f"P_(1{a})", f"P_[1{a}]"), (
            unit({f"u{a}": 1j}),
            unit({f"P1{a}": 1 / _SQRT2, f"P{a}1": 1 / _SQRT2}),
            unit({f"P1{a}": 1 / _SQRT2, f"P{a}1": -1 / _SQRT2}),
        )) for a in "23"),
        (WaveBlock.UNCOUPLED, ("P_(23)", "P_[23]", "P_V"), (
            unit({"P23": 1 / _SQRT2, "P32": 1 / _SQRT2}),
            unit({"P23": 1 / _SQRT2, "P32": -1 / _SQRT2}),
            unit({"P22": 1 / _SQRT2, "P33": -1 / _SQRT2}),
        )),
    )
    return (np.array([r for _, _, rs in blocks for r in rs]),
            tuple((kind, labels) for kind, labels, _ in blocks))


_BLOCK_T, _BLOCK_META = _build_block_basis()
_OFF_BLOCK = np.kron(np.eye(4), np.ones((3, 3))) == 0.0
_BLOCKS = np.arange(4)


def block_basis() -> np.ndarray:
    """The 12x12 unitary block transformation (rows are new variables)."""
    return _BLOCK_T.copy()


def _split(transformed: np.ndarray) -> tuple[BlockSystem, ...]:
    """The four real blocks of the (5, 12, 12) block-basis M0..K2.

    An off-block or imaginary entry above ``LEAK_REL_TOL`` times its
    matrix's largest magnitude raises BlockLeakageError naming the matrix.
    """
    mags = np.abs(transformed)
    scale = mags.max(axis=(1, 2))
    for what, worst in (
            ("off-block magnitude", np.where(_OFF_BLOCK, mags, 0.0)),
            ("imaginary part", np.abs(transformed.imag))):
        worst = worst.max(axis=(1, 2))
        bad = np.flatnonzero(worst > LEAK_REL_TOL * scale)
        if bad.size:
            i = bad[0]
            raise BlockLeakageError(
                f"{_MATRICES[i]} {what} {worst[i]:g} exceeds "
                f"{LEAK_REL_TOL:g} * {scale[i]:g}")
    # diagonal[b, m] is the 3x3 block b of matrix m
    diagonal = transformed.real.reshape(5, 4, 3, 4, 3)[:, _BLOCKS, :, _BLOCKS]
    return tuple(BlockSystem(block=kind, labels=labels,
                             **dict(zip(_MATRICES, diagonal[b])))
                 for b, (kind, labels) in enumerate(_BLOCK_META))


def _stacked(system: FullSystem) -> np.ndarray:
    return np.array([getattr(system, name) for name in _MATRICES])


def block_decompose(system: FullSystem) -> tuple[BlockSystem, ...]:
    """Split the full system into its four exact 3x3 diagonal blocks."""
    return _split(_BLOCK_T @ _stacked(system) @ _BLOCK_T.conj().T)


@functools.cache
def _unit_tensor(model: ModelKind) -> np.ndarray:
    """(11, 5, 12, 12): block-basis M0..K2 at each unit coefficient.

    The coefficients are the five moduli, mu_e L_c^2, rho, eta and the
    eta_bar.  The stiffness takes only the moduli and the mass only the
    inertiae, so assembly c gives the stiffness of modulus c and the mass
    of inertia c; mu_e L_c^2 is unit mu_e at L_c = 1 minus L_c = 0 (exact).
    """
    pairs = [(ElasticParams(*row, L_c=0.0), InertiaParams(*row))
             for row in np.eye(5)]
    pairs.append((replace(pairs[0][0], L_c=1.0), InertiaParams(0.0, 0.0)))
    full = np.array([_stacked(assemble_full(model, *pair)) for pair in pairs])
    full[5] -= full[0] * _STIFFNESS
    units = np.concatenate([full * _STIFFNESS, full[:5] * ~_STIFFNESS])
    return _BLOCK_T @ units @ _BLOCK_T.conj().T


def model_blocks(model: ModelKind, elastic: ElasticParams,
                 inertia: InertiaParams) -> tuple[BlockSystem, ...]:
    """``block_decompose(assemble_full(...))`` as one tensor contraction."""
    el, inr = elastic, inertia
    coefficients = [el.mu_e, el.lambda_e, el.mu_c, el.mu_micro,
                    el.lambda_micro, el.mu_e * el.L_c ** 2, inr.rho, inr.eta,
                    inr.eta_bar_1, inr.eta_bar_2, inr.eta_bar_3]
    return _split(np.tensordot(coefficients, _unit_tensor(model), axes=1))


def block_for(model: ModelKind, elastic: ElasticParams, inertia: InertiaParams,
              block: WaveBlock, transverse_axis: int = 2) -> BlockSystem:
    """Assemble and return a single 3x3 block.

    ``transverse_axis`` selects which of the two identical transverse blocks
    (polarization along x2 or x3) is returned.
    """
    blocks = model_blocks(model, elastic, inertia)
    if block is WaveBlock.LONGITUDINAL:
        return blocks[0]
    if block is WaveBlock.TRANSVERSE:
        if transverse_axis not in (2, 3):
            raise ValueError("transverse_axis must be 2 or 3")
        return blocks[1] if transverse_axis == 2 else blocks[2]
    if block is WaveBlock.UNCOUPLED:
        return blocks[3]
    raise ValueError(f"unknown block: {block!r}")
