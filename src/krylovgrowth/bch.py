"""Group-element factorization via a faithful 4x4 matrix representation.

The span {a^dag a + 1/2, 1, (a^dag)^2, a^2, a^dag, a} closes under
commutators, and mapping

    eta (a^dag a + 1/2) + delta + R (a^dag)^2 + L a^2 + r a^dag + l a
        |->  [[0, 0, 0, 0], [r, eta, 2R, 0], [-l, -2L, -eta, 0],
              [-2 delta, -l, -r, 0]]

is a Lie-algebra homomorphism, so group identities can be checked by
ordinary 4x4 matrix exponentials. The image of a pure displacement is
I + M_D (the displacement generator is 2-step nilpotent here) and the
image of a pure squeeze exponentiates to hyperbolic functions in the inner
2x2 block, so the product theta * D(v) * S(w) has the closed entry pattern

    E[1][1] = E[2][2] = cosh|w|          E[1][2] = -conj(w) sinh|w| / |w|
    E[2][1] = -w sinh|w| / |w|           E[1][0] = -conj(v), E[2][0] = -v
    E[3][0] = -2 log theta               (rows/cols 0 and 3 otherwise fixed)

from which (v, w, theta) are read off and verified against the full
exponential.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import expm_multiply

from .algebra import LiouvillianSpec, QuadraticHamiltonian
from .coherent import DisplacementParams, closed_form_params
from .errors import DecompositionFailure, TruncationOverflow
from .fock import FockVector, OperatorMatrix, TruncationConfig, build_ladders

__all__ = [
    "Rep4Matrix",
    "to_rep4",
    "closed_form_params",
    "decompose_exponential",
    "displacement_operator",
    "squeeze_operator",
    "apply_displacement_squeeze",
    "bogoliubov",
    "bogoliubov_safe_block",
    "conjugated_annihilation",
]

REP4_NORM_CAP = 50.0


@dataclass(frozen=True, eq=False)
class Rep4Matrix:
    """4x4 image of a quadratic ladder polynomial."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=complex)
        if ent.shape != (4, 4):
            raise ValueError(f"expected 4x4 entries, got {ent.shape}")
        if np.any(ent[0, :] != 0) or np.any(ent[:, 3] != 0):
            raise ValueError("first row and last column must vanish in this representation")
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)


def to_rep4(h: QuadraticHamiltonian) -> Rep4Matrix:
    """Image of a :class:`QuadraticHamiltonian` under the 4x4 representation."""
    ent = np.array(
        [
            [0, 0, 0, 0],
            [h.r_coef, h.eta, 2.0 * h.R_coef, 0],
            [-h.l_coef, -2.0 * h.L_coef, -h.eta, 0],
            [-2.0 * h.delta, -h.l_coef, -h.r_coef, 0],
        ],
        dtype=complex,
    )
    return Rep4Matrix(ent)


def _liouvillian_quadratic(spec: LiouvillianSpec) -> QuadraticHamiltonian:
    return QuadraticHamiltonian(
        R_coef=spec.beta / 2.0,
        L_coef=spec.beta / 2.0,
        r_coef=spec.alpha,
        l_coef=spec.alpha,
    )


def _product_image(v: complex, w: complex, theta: complex) -> np.ndarray:
    """Closed 4x4 image of theta * D(v) * S(w)."""
    E = np.eye(4, dtype=complex)
    aw = abs(w)
    if aw > 0:
        ch, sh = math.cosh(aw), math.sinh(aw)
        E[1, 1] = E[2, 2] = ch
        E[1, 2] = -w.conjugate() * sh / aw
        E[2, 1] = -w * sh / aw
    E[1, 0] = -v.conjugate()
    E[2, 0] = -v
    E[3, 1] = -v * E[1, 1] + v.conjugate() * E[2, 1]
    E[3, 2] = -v * E[1, 2] + v.conjugate() * E[2, 2]
    E[3, 0] = -2.0 * cmath.log(theta)
    return E


def decompose_exponential(spec: LiouvillianSpec, t: float) -> DisplacementParams:
    """Extract (v, w, theta) from the exact 4x4 exponential of i t L.

    The exponential is matched against the closed product image of
    theta * D(v) * S(w); a residual above 1e-8 raises
    :class:`DecompositionFailure`, as do generator norms beyond the
    scaling-and-squaring comfort zone.
    """
    if spec.beta == 0 or t == 0:
        return closed_form_params(spec, t)
    gen = 1j * t * to_rep4(_liouvillian_quadratic(spec)).entries
    norm = float(np.linalg.norm(gen, 2))
    if norm > REP4_NORM_CAP:
        raise DecompositionFailure(
            f"generator norm {norm:.1f} beyond cap {REP4_NORM_CAP}; "
            "the 4x4 exponential is not trusted here",
            norm=norm,
            t=t,
        )
    E = expm(gen)
    # sinh^2|w| from the off-diagonal product; asinh is well conditioned at 0
    prod = E[1, 2] * E[2, 1]
    if abs(prod.imag) > 1e-9 * (1.0 + abs(prod)):
        raise DecompositionFailure(f"squeeze block not decomposable: sinh^2|w| = {prod}")
    sh = math.sqrt(max(prod.real, 0.0))
    aw = math.asinh(sh)
    w = -E[2, 1] * aw / sh if sh > 1e-150 else 0.0 + 0.0j
    v = -E[2, 0]
    theta = cmath.exp(-E[3, 0] / 2.0)
    theta /= abs(theta)
    residual = float(np.max(np.abs(_product_image(v, w, theta) - E)))
    if residual > 1e-8:
        raise DecompositionFailure(
            f"factorization residual {residual:.3e} exceeds 1e-8", residual=residual, t=t
        )
    return DisplacementParams(v=v, w=w, theta=theta)


def displacement_operator(v: complex, cfg: TruncationConfig) -> OperatorMatrix:
    """Truncated exp(v a - conj(v) a^dag)."""
    a, ad = (op.to_dense() for op in build_ladders(cfg))
    return OperatorMatrix.from_entries(expm(v * a - v.conjugate() * ad))


def squeeze_operator(w: complex, cfg: TruncationConfig) -> OperatorMatrix:
    """Truncated exp((w/2) a^2 - (conj(w)/2) (a^dag)^2)."""
    a, ad = (op.to_dense() for op in build_ladders(cfg))
    gen = 0.5 * w * (a @ a) - 0.5 * w.conjugate() * (ad @ ad)
    return OperatorMatrix.from_entries(expm(gen))


def apply_displacement_squeeze(p: DisplacementParams, cfg: TruncationConfig) -> FockVector:
    """theta * D(v) S(w) |0> in the truncated space.

    The exponentials act on the single vacuum column (banded generators),
    so they are applied with the exact expm-times-vector algorithm instead
    of materializing the dense operator exponentials.
    """
    a, ad = (op.to_dense() for op in build_ladders(cfg))
    gen_s = 0.5 * p.w * (a @ a) - 0.5 * p.w.conjugate() * (ad @ ad)
    gen_d = p.v * a - p.v.conjugate() * ad
    psi = np.zeros(cfg.dim, dtype=complex)
    psi[0] = 1.0
    psi = expm_multiply(csr_matrix(gen_s), psi)
    psi = expm_multiply(csr_matrix(gen_d), psi)
    return FockVector(cfg.dim, p.theta * psi)


def bogoliubov_safe_block(dim: int, w: complex) -> int:
    """Leading block of the truncated space unaffected by squeeze wall
    reflection, floor(dim * exp(-4|w|) / 2).

    Truncated squeeze exponentials are corrupted down to index
    ~ dim * exp(-3.6 |w|) (the hard wall reflects the hyperbolic spreading),
    so conjugation identities can only be trusted on a block that shrinks
    with |w|; this bound keeps a 2-3x margin against the measured depth.
    """
    return int(dim * math.exp(-4.0 * abs(w)) / 2.0)


def bogoliubov(p: DisplacementParams, cfg: TruncationConfig) -> OperatorMatrix:
    """Image of the annihilation operator under conjugation by D(v) S(w):

    S a S^{-1} = cosh|w| a + (conj(w)/|w|) sinh|w| a^dag
                 + conj(v) cosh|w| + v (conj(w)/|w|) sinh|w|.

    Raises :class:`TruncationOverflow` when |w| is too large for the given
    dim to leave a usable wall-free block (see :func:`bogoliubov_safe_block`).
    """
    if cfg.dim < 8:
        raise ValueError(f"dim must be >= 8, got {cfg.dim}")
    if bogoliubov_safe_block(cfg.dim, p.w) < 8:
        raise TruncationOverflow(
            f"|w|={abs(p.w):.3f} leaves no usable block at dim={cfg.dim}",
            dim=cfg.dim,
        )
    a, ad = (op.to_dense() for op in build_ladders(cfg))
    aw = abs(p.w)
    if aw == 0:
        ent = a + p.v.conjugate() * np.eye(cfg.dim)
    else:
        mubar = p.w.conjugate() / aw
        ch, sh = math.cosh(aw), math.sinh(aw)
        shift = p.v.conjugate() * ch + p.v * mubar * sh
        ent = ch * a + mubar * sh * ad + shift * np.eye(cfg.dim)
    return OperatorMatrix.from_entries(ent)


def conjugated_annihilation(p: DisplacementParams, cfg: TruncationConfig) -> np.ndarray:
    """S a S^{-1} computed by explicit truncated matrix exponentials.

    The contract check for :func:`bogoliubov`: the two agree to 1e-7 on the
    wall-free block [0, bogoliubov_safe_block)."""
    a = build_ladders(cfg)[0].to_dense()
    S = (
        displacement_operator(p.v, cfg).to_dense()
        @ squeeze_operator(p.w, cfg).to_dense()
    )
    return S @ a @ S.conj().T
