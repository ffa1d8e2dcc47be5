"""Truncated-Fock-space linear algebra.

This module is the brute-force side of every cross-check in the library:
the banded generator and its exact unitary evolution by symmetric
eigendecomposition, all on a finite number basis ``|0>, ..., |dim-1>``.
The evolution generator L is real and symmetric, so it is stored by its
main and upper diagonals (:class:`OperatorMatrix`) and applied through a
stencil of 2b + 1 coefficient rows, one per diagonal from the outermost
subdiagonal to the outermost superdiagonal: building and applying it
costs O(dim), and a dense dim x dim array is formed only for the
eigendecomposition, the library's one exact and one checked exponential
(``OperatorMatrix._exp``, shared with the Lanczos chain).

Truncating the Fock space breaks operator identities near the top of the
basis (e.g. ``[a, a^dag] = 1`` fails in the last row/column), so an
evolved state is only as good as the truncation that holds it. This
module does not judge that: :func:`evolve_grid` returns the states, and
:func:`~krylovgrowth.algebra.oracle_states` estimates their 2-norm
truncation error from the same eigendecomposition, by Duhamel's formula:
the integral over time of the norm of what L maps past the top of the
basis. Every size is that of an array: :class:`TruncationConfig` only
sizes what the builders make.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, KrylovGrowthError

__all__ = [
    "TruncationConfig",
    "FockVector",
    "OperatorMatrix",
    "evolve_grid",
]


@dataclass(frozen=True)
class TruncationConfig:
    """Size of the truncated Fock space the builders make: the basis is
    |0>..|dim-1>."""

    dim: int = 256

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")


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
        """Eigenvalues and orthogonal eigenvectors, computed once per operator.
        Raises ``OverflowError`` where either is not finite."""
        eigvals, eigvecs = np.linalg.eigh(self.to_dense())
        if not (np.isfinite(eigvals).all() and np.isfinite(eigvecs).all()):
            raise OverflowError(f"eigendecomposition of the {self.dim}-level operator "
                                "is beyond the float range")
        return _freeze(eigvals), _freeze(eigvecs)

    def _exp(self, t: np.ndarray, v0: np.ndarray) -> np.ndarray:
        """Rows exp(i t_k A) v0, one per time of the 1-D array ``t``: the
        library's one checked exponential. A NaN time raises ``ValueError``
        before the eigh, an eigh beyond the float range ``OverflowError``, and
        then the first time whose row fails, with that time as ``t``: a phase
        beyond the float range ``OverflowError``, a squared norm off |v0|^2 by
        more than 1e-10 ``KrylovGrowthError``."""
        nan = np.isnan(t)
        if nan.any():
            raise ValueError(f"time t=nan at grid index {int(np.argmax(nan))} is not a number")
        # A is real symmetric: real eigenvalues and real orthogonal eigenvectors
        eigvals, eigvecs = self._eigh
        # an overflowing phase gives a non-finite row, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            z = np.exp(1j * t[:, None] * eigvals) * (eigvecs.T @ v0)
            # a matrix-vector product per row, not one matrix-matrix product,
            # which rounds differently: each row is bitwise that time alone
            rows = np.matmul(eigvecs.astype(complex), z[:, :, None])[:, :, 0]
            drift = np.abs(np.sum(np.abs(rows) ** 2, axis=1) - np.sum(np.abs(v0) ** 2))
        bad = np.flatnonzero(~(drift <= 1e-10))  # a non-finite norm fails too
        if bad.size:
            i, ti = bad[0], float(t[bad[0]])
            if math.isfinite(drift[i]):
                err = KrylovGrowthError(f"unitarity lost: norm drift {drift[i]:.3e} at t={ti}")
            else:
                err = OverflowError(f"phases t * eigenvalue overflow at t={ti}")
            err.t = ti
            raise err
        return rows

    def stencil(self) -> np.ndarray:
        """Coefficient rows of A, shape ``(2b + 1, dim)``.

        Entry i of A @ x is the sum over r of ``stencil[r, i] *
        x[i + r - b]``: row 0 is the outermost subdiagonal, row b the main
        diagonal and row 2b the outermost superdiagonal, summed in that
        order. A slot whose column i + r - b lies outside 0..dim-1 is zero.
        """
        b, n = self.bandwidth, self.dim
        out = np.zeros((2 * b + 1, n))
        for k in range(min(b, n - 1) + 1):
            out[b - k, k:] = self.bands[b - k, k:]
            out[b + k, : n - k] = self.bands[b - k, k:]
        return out


def evolve_grid(L: OperatorMatrix, t_grid: Sequence[float], v0: FockVector) -> np.ndarray:
    """exp(i t L) v0 at every time of ``t_grid`` by symmetric
    eigendecomposition (unitary to machine precision, computed once per
    ``L``): the read-only states, one row per time, each bitwise what that
    time alone gives. A non-finite amplitude of ``v0`` raises
    ``ValueError``; the checks on the times and the rows are those of
    ``OperatorMatrix._exp``."""
    if L.dim != v0.dim:
        raise DimensionMismatch(f"operator dim {L.dim} != state dim {v0.dim}")
    if not np.isfinite(v0.amplitudes).all():
        raise ValueError("state must be finite")
    return _freeze(L._exp(np.asarray(t_grid, dtype=float), v0.amplitudes))
