"""Dense realization of the two-dimensional Schrodinger symmetry algebra,
and group-element factorization via a faithful 4x4 matrix representation.

The generators are polynomials in the truncated ladder matrices
(:func:`build_ladders`, :func:`build_generators`). The set closes the
defining relations

    [P, G] = -M
    [D, H] = -2H,  [D, K] = 2K,  [H, K] = D
    [D, P] = -P,   [D, G] = G

off the last two rows and columns of the truncated basis, with M acting
as the identity (central extension).
In physical terms H is the free-particle Hamiltonian p^2/2, K the special
conformal generator, D the dilatation, P and G translation and boost, and
the sl(2,R) triple L0, L+1, L-1 realizes the squeeze sector on even Fock
states. The generators, their commutators and :func:`hamiltonian_to_matrix`
are plain dense arrays for these small symbolic checks.

The span {a^dag a + 1/2, 1, (a^dag)^2, a^2, a^dag, a} of
:class:`QuadraticHamiltonian` closes under commutators, and mapping

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
exponential. The CLI never imports this module, which needs scipy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict

import numpy as np
from scipy.linalg import expm
from scipy.sparse import diags
from scipy.sparse.linalg import expm_multiply

from .algebra import LiouvillianSpec
from .coherent import DisplacementParams, closed_form_params
from .errors import DecompositionFailure, DimensionMismatch
from .fock import FockVector, TruncationConfig

__all__ = [
    "QuadraticHamiltonian", "build_ladders", "build_generators", "commutator",
    "hamiltonian_to_matrix", "to_rep4", "decompose_exponential", "apply_displacement_squeeze",
]

REP4_NORM_CAP = 50.0


def build_ladders(cfg: TruncationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Dense annihilation and creation matrices, float64:
    a|k> = sqrt(k)|k-1>, so <k-1|a|k> = sqrt(k) on the superdiagonal, and
    a_dag = a^T."""
    if cfg.dim < 2:
        raise ValueError(f"dim must be >= 2 to hold ladder operators, got {cfg.dim}")
    a = np.diag(np.sqrt(np.arange(1, cfg.dim, dtype=float)), 1)
    return a, a.T.copy()



@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Generic quadratic ladder polynomial
    eta*(a^dag a + 1/2) + delta + R*(a^dag)^2 + L*a^2 + r*a^dag + l*a."""

    eta: complex = 0.0
    delta: complex = 0.0
    R_coef: complex = 0.0
    L_coef: complex = 0.0
    r_coef: complex = 0.0
    l_coef: complex = 0.0


def build_generators(cfg: TruncationConfig) -> Dict[str, np.ndarray]:
    """Construct every generator as a dense array from the ladder matrices,
    keyed by the labels below; ``a``, ``a_dagger`` and ``number`` = a^dag a
    are the ladder matrices and their product.

    P = (a^dag - a)/sqrt(2)        translation
    G = (a^dag + a)/sqrt(2)        boost
    M = a a^dag - a^dag a          central extension (identity off the last row and column)
    H = -(a - a^dag)^2 / 4         free Hamiltonian p^2/2
    K = -(a + a^dag)^2 / 4         special conformal -x^2/2
    D = (a^2 - (a^dag)^2) / 2      dilatation
    L0 = (a^dag a + a a^dag)/4,  L_plus1 = a^2/2,  L_minus1 = (a^dag)^2/2
    """
    if cfg.dim < 8:
        raise ValueError(f"dim must be >= 8 for the generator set, got {cfg.dim}")
    a, ad = build_ladders(cfg)
    sq2 = math.sqrt(2.0)
    return {
        "a": a,
        "a_dagger": ad,
        "P": (ad - a) / sq2,
        "G": (ad + a) / sq2,
        "M": a @ ad - ad @ a,
        "H": -0.25 * (a - ad) @ (a - ad),
        "K": -0.25 * (a + ad) @ (a + ad),
        "D": 0.5 * (a @ a - ad @ ad),
        "L0": 0.25 * (ad @ a + a @ ad),
        "L_plus1": 0.5 * a @ a,
        "L_minus1": 0.5 * ad @ ad,
        "number": ad @ a,
    }


def commutator(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """[X, Y] = XY - YX."""
    if X.shape != Y.shape:
        raise DimensionMismatch(f"shapes {X.shape} and {Y.shape} differ")
    return X @ Y - Y @ X


def hamiltonian_to_matrix(h: QuadraticHamiltonian, cfg: TruncationConfig) -> np.ndarray:
    """Realize a :class:`QuadraticHamiltonian` as a dense truncated matrix."""
    if cfg.dim < 4:
        raise ValueError(f"dim must be >= 4, got {cfg.dim}")
    a, ad = build_ladders(cfg)
    eye = np.eye(cfg.dim, dtype=complex)
    return (
        h.eta * (ad @ a + 0.5 * eye)
        + h.delta * eye
        + h.R_coef * (ad @ ad)
        + h.L_coef * (a @ a)
        + h.r_coef * ad
        + h.l_coef * a
    )


def to_rep4(h: QuadraticHamiltonian) -> np.ndarray:
    """4x4 image of a :class:`QuadraticHamiltonian` under the representation."""
    return np.array(
        [
            [0, 0, 0, 0],
            [h.r_coef, h.eta, 2.0 * h.R_coef, 0],
            [-h.l_coef, -2.0 * h.L_coef, -h.eta, 0],
            [-2.0 * h.delta, -h.l_coef, -h.r_coef, 0],
        ],
        dtype=complex,
    )


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
    gen = 1j * t * to_rep4(_liouvillian_quadratic(spec))
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


def apply_displacement_squeeze(p: DisplacementParams, cfg: TruncationConfig) -> FockVector:
    """theta * D(v) S(w) |0> in the truncated space.

    The exponentials act on the single vacuum column, so they are applied
    with the exact expm-times-vector algorithm to the banded generators,
    written as sparse diagonals: <k|a|k+1> = sqrt(k+1) and
    <k|a^2|k+2> = sqrt(k+1) sqrt(k+2), the products the dense ladder
    matrices give, so the state is bitwise theirs.
    """
    if cfg.dim < 2:
        raise ValueError(f"dim must be >= 2 to hold ladder operators, got {cfg.dim}")
    root = np.sqrt(np.arange(1, cfg.dim, dtype=float))
    pair = root[:-1] * root[1:]
    gen_s = diags([-0.5 * p.w.conjugate() * pair, 0.5 * p.w * pair], [-2, 2])
    gen_d = diags([-p.v.conjugate() * root, p.v * root], [-1, 1])
    psi = np.zeros(cfg.dim, dtype=complex)
    psi[0] = 1.0
    psi = expm_multiply(gen_s, psi)
    psi = expm_multiply(gen_d, psi)
    return FockVector(p.theta * psi)
