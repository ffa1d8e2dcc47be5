"""Truncated-Fock-space linear algebra.

This module is the brute-force side of every cross-check in the library:
ladder-operator matrices, exact unitary evolution by symmetric
eigendecomposition and the guard band, all on a finite number basis
``|0>, ..., |dim-1>``. The evolution generator L is real and symmetric,
so it is stored by its main and upper diagonals (:class:`OperatorMatrix`)
and applied through a stencil of 2b + 1 coefficient rows, one per diagonal
from the outermost subdiagonal to the outermost superdiagonal: building
and applying it costs O(dim), and a dense dim x dim array is formed only
for the eigendecomposition. The ladder matrices are plain
arrays: they feed the small symbolic checks of
:mod:`~krylovgrowth.algebra` and :mod:`~krylovgrowth.bch`.

Truncating the Fock space breaks operator identities near the top of the
basis (e.g. ``[a, a^dag] = 1`` fails in the last row/column), so a guard
band occupying the top eighth of the indices (``GUARD_FRACTION``) is
reserved for *detecting* leakage: :func:`evolve_state` refuses to return
a state whose guard-band mass exceeds ``tail_tolerance``. That turns
truncation error into a loud
:class:`~krylovgrowth.errors.TruncationOverflow` instead of a silently
wrong answer. Every size is that of an array: :func:`evolve_state` and
:func:`guard_band_mass` take the guard band from the dim of the state
they are given, and :class:`TruncationConfig` only sizes what the
builders make.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, TruncationOverflow

__all__ = [
    "TruncationConfig",
    "FockVector",
    "OperatorMatrix",
    "build_ladders",
    "evolve_state",
    "guard_band_mass",
]

# Share of the top indices held back as the guard band.
GUARD_FRACTION = 0.125


@dataclass(frozen=True)
class TruncationConfig:
    """Size of the truncated Fock space the builders make: the basis is
    |0>..|dim-1>."""

    dim: int = 256

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")


def _guard_start(dim: int) -> int:
    """First index of the guard band, the top ``GUARD_FRACTION`` of a
    dim-dimensional basis (at least 1 index)."""
    return dim - max(1, int(dim * GUARD_FRACTION))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FockVector:
    """State coefficients over the truncated number basis |0>..|dim-1>."""

    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise DimensionMismatch(f"amplitudes shape {amps.shape} is not 1-D")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    @classmethod
    def basis_state(cls, dim: int, k: int) -> "FockVector":
        """Return |k> in a dim-dimensional truncation."""
        if not 0 <= k < dim:
            raise ValueError(f"basis index {k} outside [0, {dim})")
        amps = np.zeros(dim, dtype=complex)
        amps[k] = 1.0
        return cls(amps)

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Real symmetric banded operator on the truncated Fock space (the
    generator L).

    ``bands`` holds the main and the b upper diagonals of A in the LAPACK
    upper symmetric-band layout (that of ``scipy.linalg.eig_banded``):
    ``bands[b + i - j, j] = A[i, j] = A[j, i]`` for 0 <= j - i <= b. Row b
    is the main diagonal and row 0 the outermost superdiagonal; the first
    b - r slots of row r lie outside the matrix and are never read.
    Applying it through :meth:`stencil` costs O(dim * bandwidth); a dense
    array comes only from :meth:`to_dense`.
    """

    bands: np.ndarray = field(repr=False)

    def __post_init__(self):
        bands = np.array(self.bands, dtype=float)
        if bands.ndim != 2 or bands.shape[0] < 1:
            raise DimensionMismatch(f"bands shape {bands.shape} is not (b+1, dim)")
        object.__setattr__(self, "bands", _freeze(bands))

    @property
    def dim(self) -> int:
        return self.bands.shape[1]

    @property
    def bandwidth(self) -> int:
        return self.bands.shape[0] - 1

    def to_dense(self) -> np.ndarray:
        """The full dim x dim matrix (for the eigendecomposition)."""
        b = self.bandwidth
        out = np.zeros((self.dim, self.dim))
        for k in range(b + 1):
            np.fill_diagonal(out[:, k:], self.bands[b - k, k:])
            np.fill_diagonal(out[k:], self.bands[b - k, k:])
        return out

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and orthogonal eigenvectors, computed once per operator."""
        eigvals, eigvecs = np.linalg.eigh(self.to_dense())
        return _freeze(eigvals), _freeze(eigvecs)

    def stencil(self, n: int) -> np.ndarray:
        """Coefficient rows of the leading n x n block A[:n, :n], shape
        ``(2b + 1, n)`` for n <= dim.

        Entry i of A[:n, :n] @ x is the sum over r of ``stencil[r, i] *
        x[i + r - b]``: row 0 is the outermost subdiagonal, row b the main
        diagonal and row 2b the outermost superdiagonal. Summed over r in
        that order, every entry rounds the same way at every n. A slot whose
        column i + r - b lies outside 0..n-1 is zero, so no coefficient
        beyond the block (an overflowed one included) enters the product.
        """
        if not 0 <= n <= self.dim:
            raise DimensionMismatch(f"block size {n} outside [0, dim={self.dim}]")
        b = self.bandwidth
        out = np.zeros((2 * b + 1, n))
        for k in range(min(b, n - 1) + 1):
            out[b - k, k:] = self.bands[b - k, k:n]
            out[b + k, : n - k] = self.bands[b - k, k:n]
        return out


def build_ladders(cfg: TruncationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Dense annihilation and creation matrices, float64:
    a|k> = sqrt(k)|k-1>, so <k-1|a|k> = sqrt(k) on the superdiagonal, and
    a_dag = a^T."""
    if cfg.dim < 2:
        raise ValueError(f"dim must be >= 2 to hold ladder operators, got {cfg.dim}")
    a = np.diag(np.sqrt(np.arange(1, cfg.dim, dtype=float)), 1)
    return a, a.T.copy()


def guard_band_mass(vec: FockVector) -> float:
    """Probability mass sitting on the guard band of ``vec``'s own dim."""
    return float(np.sum(np.abs(vec.amplitudes[_guard_start(vec.dim):]) ** 2))


def evolve_state(
    L: OperatorMatrix, t: float, v0: FockVector, tail_tolerance: float = 1e-10
) -> FockVector:
    """Apply exp(i t L) to v0 by symmetric eigendecomposition.

    Eigendecomposition (rather than a series method) keeps the evolution
    unitary to machine precision. It is computed on the first call for an
    ``L`` and reused by every later call with the same ``L``. The result is
    rejected with :class:`TruncationOverflow` if its guard-band mass
    exceeds ``tail_tolerance``, which signals that ``L.dim`` is too small
    for this evolution time. A phase t * eigenvalue beyond the float range
    raises :class:`OverflowError` with the offending time as its ``t``; a
    NaN ``t``, or a ``v0`` holding a NaN or infinite amplitude, raises
    ``ValueError``.
    """
    if not tail_tolerance > 0:
        raise ValueError("tail_tolerance must be > 0")
    if math.isnan(t):
        raise ValueError(f"time t={t} is not a number")
    if L.dim != v0.dim:
        raise DimensionMismatch(f"operator dim {L.dim} != state dim {v0.dim}")
    if not np.isfinite(v0.amplitudes).all():
        raise ValueError("state must be finite")
    # L is real symmetric: real eigenvalues and real orthogonal eigenvectors
    eigvals, eigvecs = L._eigh
    # an overflowing phase gives a non-finite state, raised below
    with np.errstate(over="ignore", invalid="ignore"):
        psi = eigvecs @ (np.exp(1j * t * eigvals) * (eigvecs.T @ v0.amplitudes))
        out = FockVector(psi)
        norm_sq = out.norm_sq
    if not math.isfinite(norm_sq):
        err = OverflowError(f"phases t * eigenvalue overflow at t={t}")
        err.t = t
        raise err
    drift = abs(norm_sq - v0.norm_sq)
    if drift > 1e-10:
        raise ArithmeticError(f"unitarity lost: norm drift {drift:.3e}")
    mass = guard_band_mass(out)
    if mass > tail_tolerance:
        raise TruncationOverflow(
            f"guard-band mass {mass:.3e} exceeds tail tolerance "
            f"{tail_tolerance:.1e}; increase dim",
            guard_mass=mass,
            dim=L.dim,
            t=t,
        )
    return out
