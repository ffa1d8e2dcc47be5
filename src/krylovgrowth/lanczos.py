"""Conventional Krylov machinery: Lanczos tridiagonalization and the chain.

Lanczos turns the real symmetric generator L and a real seed state into an
orthonormal Krylov basis in which L is tridiagonal, with hopping
coefficients b_n and diagonal coefficients a_n. L enters only through the
(2b + 1)-row stencil of its band
(:meth:`~krylovgrowth.fock.OperatorMatrix.stencil`), so no dense dim x dim
matrix is formed, and the recursion runs in float64 over all dim levels.
The Krylov vectors are stored with b zero columns on each side, so the
matvec of a step is one product of the stencil with a read-only window
view of that store, summed over the 2b + 1 rows in the order of
:meth:`~krylovgrowth.fock.OperatorMatrix.stencil`, with no padding or copy
per step. L has bandwidth b, so Krylov vector j reaches at most b*j
levels above the seed's highest one: while that fits in dim, the
chain is a property of L and the seed, not of the truncation (the
recursion method of Viswanath & Mueller, *The Recursion Method*, Springer
1994). For generators with odd-moment symmetry (pure linear or pure
two-photon) the diagonal vanishes identically; for the mixed generator it
does not (<0|L^3|0> = 2 alpha^2 beta), so the chain carries both sets of
coefficients.

Every step is the three-term step in Paige's order, b_{j-1} q_{j-2} off
before a_j q_{j-1} (the order decides the recursion's accuracy: Paige,
J. Inst. Math. Appl. 10 (1972) 373), and then one more local pass against
q_{j-1}: O(dim) work per step. One Gram product then checks the basis.
Without a full projection orthogonality is lost as Ritz values converge
(Paige, Lin. Alg. Appl. 34 (1980) 235). The L of
:func:`~krylovgrowth.algebra.build_liouvillian` keeps it, but an operator
with a discrete spectrum need not, nor need a chain long enough to meet
the truncation. A chain off orthonormal is recomputed with the full
projection at every step: the candidate is projected against every
retained vector (classical Gram-Schmidt), and again only where the first
pass removed more than 1 - 1/sqrt(2) of its norm (the "twice is enough"
test of Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30 (1976)
772-795). The basis is orthonormal to working precision either way.

The chain wavefunction solves
    -i d phi_n / dt = b_{n+1} phi_{n+1} + a_n phi_n + b_n phi_{n-1}
with phi_n(0) = delta_{n0}, integrated by the exact exponential of the
m x m chain matrix that the dense oracle uses (``OperatorMatrix._exp``,
which checks the rows). The rows come back whatever their last site
holds: :func:`~krylovgrowth.algebra.chain_states` bounds that edge mass.
The chain complexity of a row is the mean position sum_n n |phi_n|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import Breakdown, DimensionMismatch, _log
from .fock import FockVector, OperatorMatrix, _freeze

__all__ = [
    "KrylovChain",
    "lanczos_tridiagonalize",
    "propagate_chain",
    "chain_complexity",
]

BREAKDOWN_TOL = 1e-12
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
    Krylov vectors as rows, over all dim levels of L; the Gram check of
    :func:`lanczos_tridiagonalize` reads it.
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
    1e-10 (a NaN or infinite norm included), raises ``ValueError``. Every
    step works on all ``dim`` levels, and row j of ``basis`` is zero past the
    levels that L^j seed can reach.

    Each step takes the three-term step in Paige's order (b_{j-1} q_{j-2}
    off first, then a_j q_{j-1}) and one more local pass against q_{j-1},
    folded into a_j. One Gram product then checks the basis: if
    max |Q Q^T - I| exceeds ``ORTHONORMAL_TOL`` (1e-14), as it can once Ritz
    values converge on an operator with a discrete spectrum, or on a chain
    long enough to meet the truncation, the chain is recomputed with the
    full projection at every step: each candidate is projected against
    every retained vector (classical Gram-Schmidt), and once more only
    where that pass left less than 1/sqrt(2) of its norm. That holds the
    basis to working precision (about 1e-15 at m = 500). The L of
    :func:`~krylovgrowth.algebra.build_liouvillian` passes the check: about
    2e-15 at m = 512.

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
    chain = _recurrence(L, q0, m, True)
    gram = chain.basis @ chain.basis.T
    gram.flat[:: chain.m + 1] -= 1.0
    loss = np.max(np.abs(gram))
    if not loss <= ORTHONORMAL_TOL:
        _log.debug("Gram check of the %s-site chain off by %.3e: rerunning with the "
                   "full projection", m, loss)
        chain = _recurrence(L, q0, m, False)
    return chain


def _recurrence(L: OperatorMatrix, q0: np.ndarray, m: int, local: bool) -> KrylovChain:
    """The chain of :func:`lanczos_tridiagonalize` from the normalized seed
    ``q0``. With ``local`` true every step makes one local pass against the
    previous vector; with ``local`` false, every step takes the full
    projection."""
    b, dim = L.bandwidth, L.dim
    stencil = L.stencil()
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
    # a hopping beyond the float range is quietly inf or nan, raised below
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, m + 1):
            q = Q[j - 1]
            work = np.add.reduce(stencil * windows[j - 1], axis=0)
            # the three-term step in Paige's order
            if j >= 2:
                work -= hops[-1] * Q[j - 2]
            aj = np.dot(q, work)
            work -= aj * q
            if local:
                c = np.dot(q, work)
                work -= c * q
                aj += c
            else:
                basis = Q[:j]
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
            np.divide(work, bn, out=Q[j])
            hops.append(bn)
    return KrylovChain(
        a=adiag[:sites], b=np.array(hops[: sites - 1]), residual=residual, basis=Q[:sites],
    )


def propagate_chain(chain: KrylovChain, t_grid: Sequence[float]) -> np.ndarray:
    """Evolve phi_n(0) = delta_{n0} over the time grid.

    Returns a read-only complex array of shape ``(len(t_grid), m)`` whose
    row i is phi at ``t_grid[i]``, from the exact exponential of the chain
    matrix that :func:`~krylovgrowth.fock.evolve_grid` uses (no integrator
    tolerance): each row is bitwise what that time alone gives, so the
    grid may hold any real times in any order; the chain matrix is real,
    so phi(-t) is the complex conjugate of phi(t).
    t = 0 returns the initial condition exactly, without the round-off of
    the eigenbasis. The checks on the times and the rows are those of
    ``OperatorMatrix._exp`` (a NaN time, an overflowing phase, a drifting
    norm). A row is returned however much probability its last site holds:
    that edge mass, ``|rows[:, -1]|^2``, is bounded by
    :func:`~krylovgrowth.algebra.chain_states`.
    """
    if chain.m < 2:
        raise ValueError("chain must have at least 2 sites")
    t = np.asarray(t_grid, dtype=float)
    # the chain matrix as a band: the hoppings b above the diagonal a (+ 0.0
    # makes a -0.0 coefficient 0.0, as a sum of np.diag terms would)
    T = OperatorMatrix([np.concatenate(([0.0], chain.b)), chain.a + 0.0])
    site0 = np.eye(1, chain.m)[0]
    out = T._exp(t, site0)
    out[t == 0] = site0
    return _freeze(out)


def chain_complexity(phi: np.ndarray) -> float | np.ndarray:
    """Mean chain position sum_n n |phi_n|^2 over the last axis of ``phi``.

    A float for one row of chain amplitudes; an array with one value per
    row for a stack of rows, each bitwise the value of that row alone.
    """
    phi = np.asarray(phi)
    K = np.sum(np.arange(phi.shape[-1]) * np.abs(phi) ** 2, axis=-1)
    return float(K) if phi.ndim == 1 else K
