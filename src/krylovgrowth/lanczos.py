"""Conventional Krylov machinery: Lanczos tridiagonalization and the chain.

Lanczos with full reorthogonalization turns the real symmetric generator
L and a real seed state into an orthonormal Krylov basis in which L is
tridiagonal, with hopping coefficients b_n and diagonal coefficients a_n.
L enters only through its banded matrix-vector product
(:meth:`~krylovgrowth.fock.OperatorMatrix.matvec`), O(dim) per step for
the pentadiagonal generator, so no dense dim x dim matrix is formed, and
the recursion runs in float64. For
generators with odd-moment symmetry (pure linear or pure two-photon) the
diagonal vanishes identically; for the mixed generator it does not
(<0|L^3|0> = 2 alpha^2 beta), so the chain carries both sets of
coefficients.

The chain wavefunction solves
    -i d phi_n / dt = b_{n+1} phi_{n+1} + a_n phi_n + b_n phi_{n-1}
with phi_n(0) = delta_{n0}, integrated by the exact exponential of the
m x m tridiagonal matrix, and the chain complexity is the mean position
sum_n n |phi_n|^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import Breakdown, DimensionMismatch, EdgeLeak
from .fock import FockVector, OperatorMatrix

__all__ = [
    "KrylovChain",
    "ChainWavefunction",
    "lanczos_tridiagonalize",
    "propagate_chain",
    "chain_complexity",
    "project_onto_chain",
]

BREAKDOWN_TOL = 1e-12
# Largest probability the last retained chain site may hold at a grid time.
EDGE_LEAK_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class KrylovChain:
    """Lanczos coefficients of a retained m-site chain.

    ``a`` holds the m diagonal coefficients a_0..a_{m-1}; ``b`` the m-1
    interior hoppings b_1..b_{m-1}; ``residual`` is the norm of the first
    discarded (unnormalized) Lanczos vector, i.e. the b_m candidate
    coupling out of the retained block. ``basis`` stores the orthonormal
    Krylov vectors as rows (kept for cross-method projections).
    """

    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    m: int
    residual: float
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != (self.m,):
            raise ValueError(f"diagonal length {a.shape} does not match m={self.m}")
        if b.shape != (self.m - 1,):
            raise ValueError(f"hopping length {b.shape} does not match m={self.m}")
        if self.m >= 2 and not np.all(b > 0):
            raise ValueError("hopping coefficients must be positive up to termination")
        for name, arr in (("a", a), ("b", b)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def tridiagonal(self) -> np.ndarray:
        """The m x m chain matrix (diagonal a, off-diagonals b)."""
        return np.diag(self.a) + np.diag(self.b, 1) + np.diag(self.b, -1)


def lanczos_tridiagonalize(
    L: OperatorMatrix,
    seed: FockVector,
    m: int,
) -> KrylovChain:
    """Orthonormalize the Krylov sequence seed, L seed, L^2 seed, ...

    Retains at most ``m`` chain sites. L is applied by its banded matvec
    and the Krylov vectors are float64, so the seed must be real: one with
    an imaginary part raises ``ValueError``. The candidate vector is
    re-projected against every retained vector twice per step (classical
    Gram-Schmidt squared), which holds pairwise orthogonality at the 1e-10
    level that finite precision otherwise destroys.

    A candidate hopping at or below the breakdown tolerance exhausts the
    Krylov space: termination is normal (the truncated space has finite
    Krylov dimension) and yields a shorter chain, except that fewer than
    two sites raises :class:`Breakdown`. A hopping beyond the float range
    raises ``OverflowError``.
    """
    if L.dim != seed.dim:
        raise DimensionMismatch(f"operator dim {L.dim} != seed dim {seed.dim}")
    if not 2 <= m <= L.dim:
        raise ValueError(f"site count m={m} must lie in [2, dim={L.dim}]")
    nrm = np.sqrt(seed.norm_sq)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"seed must be normalized, got |seed|={nrm}")
    if seed.amplitudes.imag.any():
        raise ValueError("seed must be real")

    Q = np.zeros((m, L.dim))
    Q[0] = seed.amplitudes.real / nrm
    adiag = np.zeros(m)
    hops: list[float] = []
    residual = 0.0
    sites = m
    for j in range(1, m + 1):
        work = L.matvec(Q[j - 1])
        adiag[j - 1] = float(Q[j - 1] @ work)
        work = work - adiag[j - 1] * Q[j - 1]
        if j >= 2:
            work = work - hops[-1] * Q[j - 2]
        for _ in range(2):
            work = work - Q[:j].T @ (Q[:j] @ work)
        bn = float(np.linalg.norm(work))
        if not np.isfinite(bn):
            raise OverflowError(f"Lanczos hopping b_{j} = {bn} is beyond the float range")
        if bn <= BREAKDOWN_TOL:
            if j < 2:
                raise Breakdown(j)
            sites = j
            residual = bn
            break
        if j == m:
            residual = bn
            break
        Q[j] = work / bn
        hops.append(bn)
    return KrylovChain(
        a=adiag[:sites], b=np.array(hops[: sites - 1]), m=sites,
        residual=residual, basis=Q[:sites],
    )


@dataclass(frozen=True, eq=False)
class ChainWavefunction:
    """Chain amplitudes at one time."""

    t: float
    phi: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.phi, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "phi", arr)

    @property
    def m(self) -> int:
        return len(self.phi)


def propagate_chain(
    chain: KrylovChain, t_grid: Sequence[float]
) -> list[ChainWavefunction]:
    """Evolve phi_n(0) = delta_{n0} over the time grid.

    Uses one eigendecomposition of the chain matrix (exact exponential, no
    integrator tolerance) and evolves each time on its own, so the grid may
    hold any real times in any order; the chain matrix is real, so phi(-t)
    is the complex conjugate of phi(t). t = 0 returns the initial condition
    exactly, without the round-off of the eigenbasis. Raises
    :class:`EdgeLeak` at the first grid time where the last retained site
    holds more than ``EDGE_LEAK_TOL`` probability, and checks norm
    conservation to 1e-8 at every point.
    """
    if chain.m < 2:
        raise ValueError("chain must have at least 2 sites")
    evals, evecs = np.linalg.eigh(chain.tridiagonal())
    start = evecs[0]  # overlap of each eigenvector with site 0
    out = []
    for t in t_grid:
        if t == 0:
            phi = np.zeros(chain.m, dtype=complex)
            phi[0] = 1.0
        else:
            phi = evecs @ (np.exp(1j * t * evals) * start)
        if abs(phi[-1]) ** 2 > EDGE_LEAK_TOL:
            raise EdgeLeak(t, m=chain.m, edge_mass=float(abs(phi[-1]) ** 2))
        if abs(float(np.sum(np.abs(phi) ** 2)) - 1.0) > 1e-8:
            raise ArithmeticError(f"chain norm lost at t={t}")
        out.append(ChainWavefunction(t=float(t), phi=phi))
    return out


def chain_complexity(wf: ChainWavefunction) -> float:
    """Mean chain position sum_n n |phi_n|^2."""
    return float(np.sum(np.arange(wf.m) * np.abs(wf.phi) ** 2))


def project_onto_chain(chain: KrylovChain, state: FockVector) -> np.ndarray:
    """Amplitudes of a Fock-space state over the retained Krylov basis."""
    if chain.basis.shape[1] != state.dim:
        raise DimensionMismatch(
            f"basis dim {chain.basis.shape[1]} != state dim {state.dim}"
        )
    return chain.basis @ state.amplitudes
