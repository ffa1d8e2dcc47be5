"""Truncated-Fock-space linear algebra.

This module is the brute-force side of every cross-check in the library:
ladder-operator matrices, exact unitary evolution by symmetric
eigendecomposition and the guard band, all on a finite number basis
``|0>, ..., |dim-1>``. The evolution generator L is real and symmetric,
so it is stored by its main and upper diagonals (:class:`OperatorMatrix`):
building and applying it costs O(dim), and a dense dim x dim array is
formed only for the eigendecomposition. The ladder matrices are plain
arrays: they feed the small symbolic checks of
:mod:`~krylovgrowth.algebra` and :mod:`~krylovgrowth.bch`.

Truncating the Fock space breaks operator identities near the top of the
basis (e.g. ``[a, a^dag] = 1`` fails in the last row/column), so a guard
band occupying the top eighth of the indices (``GUARD_FRACTION``) is
reserved for *detecting* leakage: :func:`evolve_state` refuses to return
a state whose guard-band mass exceeds ``tail_tolerance``. That turns
truncation error into a loud
:class:`~krylovgrowth.errors.TruncationOverflow` instead of a silently
wrong answer.
"""

from __future__ import annotations

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
    """Size and leak-detection policy of the truncated Fock space.

    Parameters
    ----------
    dim : int
        Truncation size N; the basis is |0>..|N-1>.
    tail_tolerance : float
        Maximum admissible probability mass on the guard band, the top
        ``GUARD_FRACTION`` of the indices.
    """

    dim: int = 256
    tail_tolerance: float = 1e-10

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if not self.tail_tolerance > 0:
            raise ValueError("tail_tolerance must be > 0")

    @property
    def guard_size(self) -> int:
        """Number of indices in the guard band (at least 1)."""
        return max(1, int(self.dim * GUARD_FRACTION))

    @property
    def guard_start(self) -> int:
        """First index of the guard band."""
        return self.dim - self.guard_size


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FockVector:
    """State coefficients over the truncated number basis."""

    dim: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.dim,):
            raise DimensionMismatch(
                f"amplitudes shape {amps.shape} does not match dim {self.dim}"
            )
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @classmethod
    def basis_state(cls, dim: int, k: int) -> "FockVector":
        """Return |k> in a dim-dimensional truncation."""
        if not 0 <= k < dim:
            raise ValueError(f"basis index {k} outside [0, {dim})")
        amps = np.zeros(dim, dtype=complex)
        amps[k] = 1.0
        return cls(dim, amps)

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
    Applying it costs O(dim * bandwidth); a dense array comes only from
    :meth:`to_dense`.
    """

    dim: int
    bands: np.ndarray = field(repr=False)

    def __post_init__(self):
        bands = np.array(self.bands, dtype=float)
        if bands.ndim != 2 or bands.shape[0] < 1 or bands.shape[1] != self.dim:
            raise DimensionMismatch(
                f"bands shape {bands.shape} is not (b+1, {self.dim})"
            )
        object.__setattr__(self, "bands", _freeze(bands))

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

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x from the stored diagonals, in O(dim * bandwidth)."""
        x = np.asarray(x)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"vector shape {x.shape} does not match dim {self.dim}")
        return self.leading_matvec(x)

    def leading_matvec(self, x: np.ndarray) -> np.ndarray:
        """A[:n, :n] @ x for a vector of length n <= dim, in O(n * bandwidth).

        When x holds the first n entries of a vector whose entries from
        n - bandwidth on are zero, this is the first n entries of A times
        that vector. The diagonals are added in a fixed order, subdiagonals
        from the outermost in, then the main diagonal, then superdiagonals
        from the innermost out, so that the rounding of every entry is
        reproducible and the same at every n.
        """
        x = np.asarray(x)
        n = x.shape[0]
        if x.ndim != 1 or n > self.dim:
            raise DimensionMismatch(f"vector shape {x.shape} exceeds dim {self.dim}")
        b, d = self.bandwidth, self.bands[:, :n]
        y = np.zeros(n, dtype=np.result_type(d, x))
        for k in range(b, 0, -1):
            y[k:] += d[b - k, k:] * x[: n - k]
        y += d[b] * x
        for k in range(1, b + 1):
            y[: n - k] += d[b - k, k:] * x[k:]
        return y


def build_ladders(cfg: TruncationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Dense annihilation and creation matrices, float64:
    a|k> = sqrt(k)|k-1>, so <k-1|a|k> = sqrt(k) on the superdiagonal, and
    a_dag = a^T."""
    if cfg.dim < 2:
        raise ValueError(f"dim must be >= 2 to hold ladder operators, got {cfg.dim}")
    a = np.diag(np.sqrt(np.arange(1, cfg.dim, dtype=float)), 1)
    return a, a.T.copy()


def guard_band_mass(vec: FockVector, cfg: TruncationConfig) -> float:
    """Probability mass sitting on the guard band."""
    return float(np.sum(np.abs(vec.amplitudes[cfg.guard_start:]) ** 2))


def evolve_state(
    L: OperatorMatrix, t: float, v0: FockVector, cfg: TruncationConfig
) -> FockVector:
    """Apply exp(i t L) to v0 by symmetric eigendecomposition.

    Eigendecomposition (rather than a series method) keeps the evolution
    unitary to machine precision. It is computed on the first call for an
    ``L`` and reused by every later call with the same ``L``. The result is
    rejected with :class:`TruncationOverflow` if its guard-band mass
    exceeds ``cfg.tail_tolerance``, which signals that ``cfg.dim`` is too
    small for this evolution time.
    """
    if L.dim != v0.dim:
        raise DimensionMismatch(f"operator dim {L.dim} != state dim {v0.dim}")
    # L is real symmetric: real eigenvalues and real orthogonal eigenvectors
    eigvals, eigvecs = L._eigh
    psi = eigvecs @ (np.exp(1j * t * eigvals) * (eigvecs.T @ v0.amplitudes))
    out = FockVector(v0.dim, psi)
    drift = abs(out.norm_sq - v0.norm_sq)
    if drift > 1e-10:
        raise ArithmeticError(f"unitarity lost: norm drift {drift:.3e}")
    mass = guard_band_mass(out, cfg)
    if mass > cfg.tail_tolerance:
        raise TruncationOverflow(
            f"guard-band mass {mass:.3e} exceeds tail tolerance "
            f"{cfg.tail_tolerance:.1e}; increase dim",
            guard_mass=mass,
            dim=cfg.dim,
            t=t,
        )
    return out
