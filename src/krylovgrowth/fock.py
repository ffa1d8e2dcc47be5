"""Truncated-Fock-space linear algebra.

This module is the brute-force side of every cross-check in the library:
ladder-operator matrices, exact unitary evolution by Hermitian
eigendecomposition and the guard band, all on a finite number basis
``|0>, ..., |dim-1>``. The evolution generator L is stored by its
diagonals (:class:`OperatorMatrix`), so building and applying it costs
O(dim) and a dense dim x dim array is formed only for the
eigendecomposition. The ladder matrices are plain arrays: they feed the
small symbolic checks of :mod:`~krylovgrowth.algebra` and
:mod:`~krylovgrowth.bch`.

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

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput, TruncationOverflow

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
# Largest |A[i, j] - conj(A[j, i])| that :meth:`OperatorMatrix.is_hermitian` accepts.
HERMITIAN_TOL = 1e-12


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
    """Banded operator on the truncated Fock space (the generator L).

    ``bands`` holds the 2b+1 diagonals of A in the LAPACK general-band
    layout (that of ``scipy.linalg.solve_banded``):
    ``bands[b + i - j, j] = A[i, j]`` for |i - j| <= b. Row 0 is the
    outermost superdiagonal, row b the main diagonal and row 2b the
    outermost subdiagonal. Construction zeroes the slots that fall outside
    the matrix, trims all-zero outer diagonals, so that ``bandwidth`` is
    the smallest b with A[i, j] = 0 for |i - j| > b, and stores entries
    without an imaginary part as float64. Applying it costs
    O(dim * bandwidth); a dense array comes only from :meth:`to_dense`.
    """

    dim: int
    bands: np.ndarray = field(repr=False)

    def __post_init__(self):
        bands = np.array(self.bands, dtype=complex if np.iscomplexobj(self.bands) else float)
        if bands.ndim != 2 or bands.shape[0] % 2 == 0 or bands.shape[1] != self.dim:
            raise DimensionMismatch(
                f"bands shape {bands.shape} is not (2b+1, {self.dim})"
            )
        b = bands.shape[0] // 2
        for k in range(1, b + 1):
            bands[b - k, :k] = 0
            bands[b + k, self.dim - k:] = 0
        while b > 0 and not (bands[0].any() or bands[-1].any()):
            bands = bands[1:-1]
            b -= 1
        if np.iscomplexobj(bands) and not bands.imag.any():
            bands = bands.real.copy()
        object.__setattr__(self, "bands", _freeze(bands))

    @property
    def bandwidth(self) -> int:
        return self.bands.shape[0] // 2

    def _diagonals(self):
        """(offset d, first row, end row) of each stored diagonal A[i, i+d]."""
        b, n = self.bandwidth, self.dim
        return ((d, max(0, -d), n - max(0, d)) for d in range(-b, b + 1))

    def to_dense(self) -> np.ndarray:
        """The full dim x dim matrix (for the eigendecomposition)."""
        b = self.bandwidth
        out = np.zeros((self.dim, self.dim), dtype=self.bands.dtype)
        for d, lo, hi in self._diagonals():
            rows = np.arange(lo, hi)
            out[rows, rows + d] = self.bands[b - d, lo + d: hi + d]
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x from the stored diagonals, in O(dim * bandwidth)."""
        x = np.asarray(x)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"vector shape {x.shape} does not match dim {self.dim}")
        b = self.bandwidth
        y = np.zeros(self.dim, dtype=np.result_type(self.bands, x))
        for d, lo, hi in self._diagonals():
            y[lo:hi] += self.bands[b - d, lo + d: hi + d] * x[lo + d: hi + d]
        return y

    def is_hermitian(self) -> bool:
        """Hermiticity check, excluding the final truncation row/column."""
        b = self.bandwidth
        n = self.dim - 1 if self.dim > 1 else 1
        # A[i, i+d] against conj(A[i+d, i]) for i + d < n
        return all(
            np.all(np.abs(self.bands[b - d, d:n] - self.bands[b + d, : n - d].conj())
                   <= HERMITIAN_TOL)
            for d in range(b + 1)
        )


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
    """Apply exp(i t L) to v0 by Hermitian eigendecomposition.

    Eigendecomposition (rather than a series method) keeps the evolution
    unitary to machine precision. The result is rejected with
    :class:`TruncationOverflow` if its guard-band mass exceeds
    ``cfg.tail_tolerance``, which signals that ``cfg.dim`` is too small
    for this evolution time.
    """
    if L.dim != v0.dim:
        raise DimensionMismatch(f"operator dim {L.dim} != state dim {v0.dim}")
    if not L.is_hermitian():
        raise NonHermitianInput("evolution generator is not Hermitian")
    # real symmetric L (stored as float64) is diagonalised in real arithmetic
    eigvals, eigvecs = np.linalg.eigh(L.to_dense())
    psi = eigvecs @ (np.exp(1j * t * eigvals) * (eigvecs.conj().T @ v0.amplitudes))
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
