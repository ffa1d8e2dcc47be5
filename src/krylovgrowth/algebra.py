"""Oscillator realization of the two-dimensional Schrodinger symmetry algebra.

All generators are polynomials in the truncated ladder matrices. The set
closes the defining relations

    [P, G] = -M
    [D, H] = -2H,  [D, K] = 2K,  [H, K] = D
    [D, P] = -P,   [D, G] = G

on the non-guard block, with M acting as the identity (central extension).
In physical terms H is the free-particle Hamiltonian p^2/2, K the special
conformal generator, D the dilatation, P and G translation and boost, and
the sl(2,R) triple L0, L+1, L-1 realizes the squeeze sector on even Fock
states. The generators, their commutators and :func:`hamiltonian_to_matrix`
are plain dense arrays for these small symbolic checks. The generator of
time evolution studied by the rest of the library is the independent
ladder polynomial built by :func:`build_liouvillian`, the one banded
:class:`~krylovgrowth.fock.OperatorMatrix` of the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .errors import DimensionMismatch
from .fock import OperatorMatrix, TruncationConfig, build_ladders

__all__ = [
    "LiouvillianSpec",
    "QuadraticHamiltonian",
    "GENERATOR_LABELS",
    "build_generators",
    "commutator",
    "build_liouvillian",
    "hamiltonian_to_matrix",
]


@dataclass(frozen=True)
class LiouvillianSpec:
    """Physical parameters of the evolution generator.

    ``alpha`` multiplies the linear part (a^dag + a); ``beta`` multiplies
    the two-photon part ((a^dag)^2 + a^2)/2.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError(f"alpha, beta must be finite, got ({self.alpha}, {self.beta})")


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


GENERATOR_LABELS = (
    "a", "a_dagger", "P", "G", "M", "H", "K", "D",
    "L0", "L_plus1", "L_minus1", "number",
)


def build_generators(cfg: TruncationConfig) -> Dict[str, np.ndarray]:
    """Construct every generator as a dense array from the ladder matrices,
    keyed by the labels of :data:`GENERATOR_LABELS`.

    P = (a^dag - a)/sqrt(2)        translation
    G = (a^dag + a)/sqrt(2)        boost
    M = a a^dag - a^dag a          central extension (identity off the guard band)
    H = -(a - a^dag)^2 / 4         free Hamiltonian p^2/2
    K = -(a + a^dag)^2 / 4         special conformal -x^2/2
    D = (a^2 - (a^dag)^2) / 2      dilatation
    L0 = (a^dag a + a a^dag)/4,  L+1 = a^2/2,  L-1 = (a^dag)^2/2
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


def build_liouvillian(spec: LiouvillianSpec, cfg: TruncationConfig) -> OperatorMatrix:
    """Evolution generator alpha*(a^dag + a) + (beta/2)*((a^dag)^2 + a^2).

    Real symmetric; pentadiagonal (bandwidth 2) when beta is nonzero,
    tridiagonal (bandwidth 1) otherwise. The main diagonal (zero) and the
    upper diagonals are written directly, in O(dim) and in float64:
    <k-1|L|k> = alpha sqrt(k) and <k-2|L|k> = (beta/2) sqrt(k-1) sqrt(k).
    """
    if cfg.dim < 4:
        raise ValueError(f"dim must be >= 4 for the Liouvillian, got {cfg.dim}")
    root = np.sqrt(np.arange(cfg.dim, dtype=float))
    # sqrt(k-1) * sqrt(k) rather than sqrt(k(k-1)): the same rounding as the
    # ladder product a @ a, so L is bitwise the dense ladder polynomial
    bands = np.zeros((3 if spec.beta else 2, cfg.dim))
    # an entry beyond the float range becomes inf; its user reports it
    with np.errstate(over="ignore"):
        bands[-2, 1:] = spec.alpha * root[1:]
        if spec.beta:
            bands[0, 2:] = 0.5 * spec.beta * (root[1:-1] * root[2:])
    return OperatorMatrix(cfg.dim, bands)


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
