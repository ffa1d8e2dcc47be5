"""Conventional Krylov machinery: Lanczos tridiagonalization and the chain.

Lanczos turns the real symmetric generator L and a real seed state into an
orthonormal Krylov basis in which L is tridiagonal, with hopping
coefficients b_n and diagonal coefficients a_n. L enters only through the
(2b + 1)-row stencil of its band
(:meth:`~krylovgrowth.fock.OperatorMatrix.stencil`), so no dense dim x dim
matrix is formed, and the recursion runs in float64. L has bandwidth b,
so Krylov vector j of a seed with highest level s0 lives on Fock levels
0..s0 + b*j, and step j works on that prefix only. The Krylov vectors are
stored with b zero columns on each side, so the matvec of a step is one
product of the stencil with a read-only window view of that store, summed
over the 2b + 1 rows in the order of
:meth:`~krylovgrowth.fock.OperatorMatrix.stencil`, with no padding or copy
per step. The chain is a property of L and the seed, not of the
truncation (the recursion method of Viswanath & Mueller, *The Recursion
Method*, Springer 1994). For generators with odd-moment symmetry (pure
linear or pure two-photon) the diagonal vanishes identically; for the
mixed generator it does not (<0|L^3|0> = 2 alpha^2 beta), so the chain
carries both sets of coefficients.

Every step is the three-term step in Paige's order, b_{j-1} q_{j-2} off
before a_j q_{j-1} (the order decides the recursion's accuracy: Paige,
J. Inst. Math. Appl. 10 (1972) 373). A step whose prefix fits inside dim
then makes one more local pass against q_{j-1}: O(j) work, independent of
dim once dim >= b*m + s0 + 1. A step whose prefix meets the truncation
instead projects the candidate against every retained vector (classical
Gram-Schmidt), and again only where the first pass removed more than
1 - 1/sqrt(2) of its norm (the "twice is enough" test of Daniel, Gragg,
Kaufman & Stewart, Math. Comp. 30 (1976) 772-795). Without the full
projection orthogonality is lost as Ritz values converge (Paige, Lin. Alg.
Appl. 34 (1980) 235). The generators of :mod:`~krylovgrowth.algebra` keep
it, but an operator with a discrete spectrum need not, so one Gram
product checks the basis of every chain, and a chain off orthonormal is
recomputed with the full projection at every step: the basis is
orthonormal to working precision either way.

The chain wavefunction solves
    -i d phi_n / dt = b_{n+1} phi_{n+1} + a_n phi_n + b_n phi_{n-1}
with phi_n(0) = delta_{n0}, integrated by the exact exponential of the
m x m tridiagonal matrix; :func:`propagate_chain` evolves the whole time
grid in one stacked product and returns an array with one row per grid
time, each row bitwise what that time alone gives. The chain complexity
of a row is the mean position sum_n n |phi_n|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import Breakdown, DimensionMismatch, EdgeLeak
from .fock import FockVector, OperatorMatrix

__all__ = [
    "KrylovChain",
    "lanczos_tridiagonalize",
    "propagate_chain",
    "chain_complexity",
    "project_onto_chain",
]

BREAKDOWN_TOL = 1e-12
# The Krylov prefix length is rounded up to a multiple of this, so that the
# BLAS dot products and projections (OpenBLAS, one thread) round as they do
# over the full zero-padded vector: the chain is bitwise that of a full-length
# recursion.
PREFIX_BLOCK = 32
# Largest probability the last retained chain site may hold at a grid time.
EDGE_LEAK_TOL = 1e-8
# Largest max |Q Q^T - I| a chain with local passes may return; past it
# the chain is recomputed with the full projection at every step.
ORTHONORMAL_TOL = 1e-14
# A Gram-Schmidt pass that leaves less than this fraction of the candidate's
# norm has cancelled enough digits to need one more pass, and a second pass
# is always enough (the DGKS test cited in the module docstring).
_TWICE_IS_ENOUGH = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class KrylovChain:
    """Lanczos coefficients of a retained m-site chain, m = ``len(a)``.

    ``a`` holds the m diagonal coefficients a_0..a_{m-1}; ``b`` the m-1
    interior hoppings b_1..b_{m-1}; ``residual`` is the norm of the first
    discarded (unnormalized) Lanczos vector, i.e. the b_m candidate
    coupling out of the retained block. ``basis`` stores the orthonormal
    Krylov vectors as rows (kept for cross-method projections).
    """

    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    residual: float
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 1 or b.shape != (len(a) - 1,):
            raise ValueError(f"hopping shape {b.shape} does not fit diagonal shape {a.shape}")
        if not np.all(b > 0):
            raise ValueError("hopping coefficients must be positive up to termination")
        for name, arr in (("a", a), ("b", b)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return len(self.a)

    def tridiagonal(self) -> np.ndarray:
        """The m x m chain matrix (diagonal a, off-diagonals b)."""
        m = self.m
        T = np.zeros((m, m))
        # + 0.0 makes a -0.0 coefficient 0.0, as a sum of np.diag terms would
        T.flat[:: m + 1] = self.a + 0.0
        T.flat[1 :: m + 1] = self.b
        T.flat[m :: m + 1] = self.b
        return T


def lanczos_tridiagonalize(
    L: OperatorMatrix,
    seed: FockVector,
    m: int,
) -> KrylovChain:
    """Orthonormalize the Krylov sequence seed, L seed, L^2 seed, ...

    Retains at most ``m`` chain sites. L is applied by its stencil, its rows
    summed in the order :meth:`~krylovgrowth.fock.OperatorMatrix.stencil`
    states, and the Krylov vectors are float64, so the seed must be real
    and normalized: one with an imaginary part, or whose norm is not 1 to
    1e-10 (a NaN or infinite norm included), raises ``ValueError``. Step j
    runs on the Fock levels that L^j seed can reach, not on all ``dim`` of
    them, and the rows of ``basis`` are zero beyond them.

    Each step takes the three-term step in Paige's order (b_{j-1} q_{j-2}
    off first, then a_j q_{j-1}). A step whose candidate fits inside
    ``dim`` then makes one more local pass against q_{j-1}, folded into
    a_j; a step whose candidate meets the truncation projects it against
    every retained vector (classical Gram-Schmidt), and once more only
    where that pass left less than 1/sqrt(2) of its norm. One Gram product
    then checks the basis: if max |Q Q^T - I| exceeds ``ORTHONORMAL_TOL``
    (1e-14), as it can once Ritz values converge on an operator with a
    discrete spectrum, the chain is recomputed with the full projection at
    every step, which holds the basis to working precision (about 1e-15 at
    m = 500). The generators of :mod:`~krylovgrowth.algebra` pass the
    check: about 2e-15 at m = 512.

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
    if not abs(nrm - 1.0) <= 1e-10:  # a nan norm fails too
        raise ValueError(f"seed must be normalized, got |seed|={nrm}")
    if seed.amplitudes.imag.any():
        raise ValueError("seed must be real")

    q0 = seed.amplitudes.real / nrm
    # Q[j - 1] lives on levels 0..s0 + b*(j - 1), so L Q[j - 1] fits in the
    # first s0 + b*j + 1 entries, and step j works on those alone.
    s0 = int(np.flatnonzero(q0)[-1])
    local = s0 + L.bandwidth + 1 <= L.dim  # step 1 fits, so it is local
    chain, width = _recurrence(L, q0, s0, m, local)
    if local:
        Q = chain.basis[:, :width]
        gram = Q @ Q.T
        gram.flat[:: chain.m + 1] -= 1.0
        if not np.max(np.abs(gram)) <= ORTHONORMAL_TOL:
            chain, _ = _recurrence(L, q0, s0, m, False)
    return chain


def _recurrence(
    L: OperatorMatrix, q0: np.ndarray, s0: int, m: int, local: bool,
) -> tuple[KrylovChain, int]:
    """The chain of :func:`lanczos_tridiagonalize` from the normalized seed
    ``q0`` with highest level ``s0``, and the prefix length of its last
    step. With ``local`` false, every step takes the full projection."""
    b, dim = L.bandwidth, L.dim
    # the Krylov vectors are the rows of Q, stored with b zero columns on
    # each side so that every step reads its stencil windows from one
    # read-only view: windows[j, r, i] = store[j, i + r] = Q[j, i + r - b]
    store = np.zeros((m, dim + 2 * b))
    Q = store[:, b : b + dim]
    windows = sliding_window_view(store, dim, axis=-1)
    Q[0] = q0
    adiag = np.zeros(m)
    hops: list[float] = []
    residual = 0.0
    sites = m
    n_prev = 0
    # a hopping beyond the float range is quietly inf or nan, raised below
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, m + 1):
            reach = s0 + b * j + 1
            n = min(dim, -(-reach // PREFIX_BLOCK) * PREFIX_BLOCK)
            # the stencil of the prefix block, not a slice of the full one:
            # a coefficient past the prefix (inf where the bands overflowed)
            # would meet a zero of the store and make a nan
            if n != n_prev:
                stencil, n_prev = L.stencil(n), n
            q = Q[j - 1, :n]
            work = np.add.reduce(stencil * windows[j - 1, :, :n], axis=0)
            # the three-term step in Paige's order
            if j >= 2:
                work -= hops[-1] * Q[j - 2, :n]
            aj = np.dot(q, work)
            work -= aj * q
            if local and reach <= dim:
                c = np.dot(q, work)
                work -= c * q
                aj += c
            else:
                basis = Q[:j, :n]
                before = math.sqrt(np.dot(work, work))
                work -= (basis @ work) @ basis
                if math.sqrt(np.dot(work, work)) < _TWICE_IS_ENOUGH * before:
                    work -= (basis @ work) @ basis
            adiag[j - 1] = aj
            bn = math.sqrt(np.dot(work, work))
            if not math.isfinite(bn):
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
            np.divide(work, bn, out=Q[j, :n])
            hops.append(bn)
    chain = KrylovChain(
        a=adiag[:sites], b=np.array(hops[: sites - 1]), residual=residual, basis=Q[:sites],
    )
    return chain, n_prev


def propagate_chain(chain: KrylovChain, t_grid: Sequence[float]) -> np.ndarray:
    """Evolve phi_n(0) = delta_{n0} over the time grid.

    Returns a read-only complex array of shape ``(len(t_grid), m)`` whose
    row i is phi at ``t_grid[i]``. Uses one eigendecomposition of the chain
    matrix (exact exponential, no integrator tolerance) and evolves the
    whole grid in one stacked product, each row bitwise what that time
    alone gives, so the grid may hold any real times in any order; the
    chain matrix is real, so phi(-t) is the complex conjugate of phi(t).
    t = 0 returns the initial condition exactly, without the round-off of
    the eigenbasis. A NaN time raises ``ValueError`` before any work.
    Raises :class:`EdgeLeak` at the first grid time where the last
    retained site holds more than ``EDGE_LEAK_TOL`` probability, and
    checks norm conservation to 1e-8 at every point. A time whose phases
    t * eigenvalue overflow gives no finite row: it raises
    ``OverflowError`` with that time as its ``t``. Where several times
    fail, the first in grid order is reported, and a time that fails more
    than one check reports the first of overflow, edge leak and norm.
    """
    if chain.m < 2:
        raise ValueError("chain must have at least 2 sites")
    t = np.asarray(t_grid, dtype=float)
    if np.isnan(t).any():
        raise ValueError(f"time t=nan at grid index {int(np.argmax(np.isnan(t)))} is not a number")
    evals, evecs = np.linalg.eigh(chain.tridiagonal())
    start = evecs[0]  # overlap of each eigenvector with site 0
    # an overflowing phase gives a non-finite row, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.exp(1j * t[:, None] * evals) * start
        # a matrix-vector product per row, not one matrix-matrix product,
        # which rounds differently: each row is bitwise that time alone
        out = np.matmul(evecs.astype(complex), z[:, :, None])[:, :, 0]
        out[t == 0] = np.eye(1, chain.m)
        norm = np.sum(np.abs(out) ** 2, axis=1)
        bad = ~np.isfinite(norm) | (np.abs(out[:, -1]) ** 2 > EDGE_LEAK_TOL)
        bad |= np.abs(norm - 1.0) > 1e-8
    if bad.any():
        i = int(np.argmax(bad))
        ti, phi = t_grid[i], out[i]
        if not math.isfinite(norm[i]):
            err = OverflowError(f"chain phases t * eigenvalue overflow at t={ti}")
            err.t = ti
            raise err
        if abs(phi[-1]) ** 2 > EDGE_LEAK_TOL:
            raise EdgeLeak(ti, m=chain.m, edge_mass=float(abs(phi[-1]) ** 2))
        raise ArithmeticError(f"chain norm lost at t={ti}")
    out.setflags(write=False)
    return out


def chain_complexity(phi: np.ndarray) -> float | np.ndarray:
    """Mean chain position sum_n n |phi_n|^2 over the last axis of ``phi``.

    A float for one row of chain amplitudes; an array with one value per
    row for a stack of rows, each bitwise the value of that row alone.
    """
    phi = np.asarray(phi)
    K = np.sum(np.arange(phi.shape[-1]) * np.abs(phi) ** 2, axis=-1)
    return float(K) if phi.ndim == 1 else K


def project_onto_chain(chain: KrylovChain, state: FockVector) -> np.ndarray:
    """Amplitudes of a Fock-space state over the retained Krylov basis."""
    if chain.basis.shape[1] != state.dim:
        raise DimensionMismatch(
            f"basis dim {chain.basis.shape[1]} != state dim {state.dim}"
        )
    return chain.basis @ state.amplitudes
