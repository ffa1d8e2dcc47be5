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

import numpy as np
from scipy.linalg import expm
from scipy.sparse import diags
from scipy.sparse.linalg import expm_multiply

from .algebra import LiouvillianSpec, QuadraticHamiltonian
from .coherent import DisplacementParams, closed_form_params
from .errors import DecompositionFailure
from .fock import FockVector, TruncationConfig

__all__ = [
    "to_rep4",
    "decompose_exponential",
    "apply_displacement_squeeze",
]

REP4_NORM_CAP = 50.0


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
