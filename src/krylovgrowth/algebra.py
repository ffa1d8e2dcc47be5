"""The evolution generator L and the sizing of the routes that evolve by it.

:func:`build_liouvillian` writes L = alpha (a^dag + a) + (beta/2)
((a^dag)^2 + a^2), from the parameters of a :class:`LiouvillianSpec`, as
the one banded :class:`~krylovgrowth.fock.OperatorMatrix` of the library.
The dense oracle (:func:`oracle_states`) evolves the vacuum by it at the
truncation it is given, with a Duhamel estimate of each state's error that
:func:`~krylovgrowth.coherent.compare_oracle` holds to ``ORACLE_TOLERANCE``;
the Lanczos chain (:func:`chain_states`) evolves it at the first size of
``CHAIN_SIZES`` whose probability on the last site is within
``EDGE_LEAK_TOL``. The exponential's own checks are those of
``OperatorMatrix._exp``. The dense realization of the Schrodinger
symmetry algebra that L belongs to lives in :mod:`~krylovgrowth.bch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EdgeLeak, _grow
from .fock import FockVector, OperatorMatrix, TruncationConfig, evolve_grid
from .lanczos import KrylovChain, lanczos_tridiagonalize, propagate_chain

__all__ = [
    "LiouvillianSpec",
    "build_liouvillian",
    "oracle_states",
    "chain_states",
]

# Amplitude bar of the dense oracle: a time is compared with the closed
# form only where its truncation estimate is within it, and must agree to it.
ORACLE_TOLERANCE = 1e-8
# Largest probability the last site of a chain may hold at a grid time.
EDGE_LEAK_TOL = 1e-8
# Trapezoid nodes of the oracle's truncation estimate per unit of the scaled
# time max(|alpha|, |beta|) t, and how many node spacings it integrates at most.
_NODES_PER_UNIT_T = 320
_MAX_NODES = 1 << 16
CHAIN_SIZES = (128, 256, 512, 1024)  # the chain lengths chain_states tries, in order


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


def build_liouvillian(spec: LiouvillianSpec, cfg: TruncationConfig) -> OperatorMatrix:
    """Evolution generator alpha*(a^dag + a) + (beta/2)*((a^dag)^2 + a^2).

    Real symmetric; pentadiagonal (bandwidth 2) when beta is nonzero,
    tridiagonal (bandwidth 1) otherwise. The main diagonal (zero) and the
    upper diagonals are written directly, in O(dim) and in float64:
    <k-1|L|k> = alpha sqrt(k) and <k-2|L|k> = (beta/2) sqrt(k-1) sqrt(k).
    An entry beyond the float range raises ``OverflowError`` naming the
    first such coefficient.
    """
    if cfg.dim < 4:
        raise ValueError(f"dim must be >= 4 for the Liouvillian, got {cfg.dim}")
    root = np.sqrt(np.arange(cfg.dim, dtype=float))
    # sqrt(k-1) * sqrt(k) rather than sqrt(k(k-1)): the same rounding as the
    # ladder product a @ a, so L is bitwise the dense ladder polynomial
    bands = np.zeros((3 if spec.beta else 2, cfg.dim))
    # an entry beyond the float range becomes inf, and is reported below
    with np.errstate(over="ignore"):
        bands[-2, 1:] = spec.alpha * root[1:]
        if spec.beta:
            bands[0, 2:] = 0.5 * spec.beta * (root[1:-1] * root[2:])
    over = np.argwhere(~np.isfinite(bands.T))
    if over.size:
        k, r = over[0]
        i = k + r - (len(bands) - 1)
        raise OverflowError(f"coefficient <{i}|L|{k}> = {bands[r, k]} is beyond the float range")
    return OperatorMatrix(bands)


def oracle_states(spec: LiouvillianSpec, t_grid: Sequence[float],
                  dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The dense oracle: the vacuum evolved by L at every time of ``t_grid``
    at truncation N = ``dim``, bitwise the read-only rows of
    :func:`~krylovgrowth.fock.evolve_grid`, and a Duhamel estimate of each
    state's truncation error in the 2-norm, from the same eigendecomposition:
    eps(t) = min(2, int_0^|t| ||r(s)||_2 ds), where r = (L - L_N) psi_N is the
    part of L psi_N that the truncation drops. e^{iLt} is unitary, so the
    integral bounds ||psi(t) - psi_N(t)||_2, every amplitude past N included.
    The integral is a trapezoid sum with nodes at most 1/(320 max(|alpha|,
    |beta|)) apart (see :func:`_defect_integral`), so eps is an estimate, not
    an enclosure, and it is the same to rounding at (c alpha, c beta), time
    t / c, for a power-of-two c; on the grids of ``tests/test_algebra.py``
    it is at least the true error wherever that error exceeds 1e-13, by 2.1x
    at the least. The errors are those of ``evolve_grid``, so a NaN time
    raises ``ValueError`` before the eigendecomposition."""
    L = build_liouvillian(spec, TruncationConfig(dim=dim))
    states = evolve_grid(L, t_grid, FockVector.basis_state(dim, 0))
    return states, _defect_integral(spec, L, np.abs(np.asarray(t_grid, dtype=float)))


def _defect_integral(spec: LiouvillianSpec, L: OperatorMatrix, times: np.ndarray) -> np.ndarray:
    """min(2, int_0^t ||r(s)||_2 ds) at each of the nonnegative ``times`` for
    the vacuum evolved by L, from L's cached eigendecomposition.

    The defect r has two entries, both set by the top two amplitudes of
    psi_N: r_N = alpha sqrt(N) psi_N[N-1] + (beta/2) sqrt(N-1) sqrt(N) psi_N[N-2]
    and r_{N+1} = (beta/2) sqrt(N) sqrt(N+1) psi_N[N-1]. The trapezoid nodes
    split each gap between consecutive times into equal steps of at most
    h = 1/(320 max(|alpha|, |beta|)), 16 per step of the default grid, and
    at least one step (at a subnormal scale h overflows to inf). L is
    linear in (alpha, beta), so at scale c the states and the defect are
    those of scale 1 at time c s, and the sum is as accurate in that scaled
    time at every scale. The nodes are taken in blocks of
    max(len(times), N // 2), so that no block holds more than the states or
    the eigenvectors. The sum stops once it passes 2, or at
    t = ``_MAX_NODES`` h (204.8 at max(|alpha|, |beta|) = 1); past its last
    node the integral goes on at the a-priori rate
    ||r|| <= ||D||_F, D being the 2 x 2 map from the top two amplitudes to r,
    which have a norm of at most 1."""
    n = L.dim
    eigvals, eigvecs = L._eigh
    # psi_N(s)[k] = sum_j V[k, j] V[0, j] e^{i s lambda_j}, V real
    weights = (eigvecs[[n - 1, n - 2]] * eigvecs[0]).T
    # Python floats: an entry beyond the float range is inf, with no warning
    to_defect = np.array([
        [spec.alpha * math.sqrt(n), 0.5 * spec.beta * math.sqrt(n - 1) * math.sqrt(n)],
        [0.5 * spec.beta * math.sqrt(n) * math.sqrt(n + 1), 0.0]])
    rate = math.hypot(*to_defect.ravel())

    # at alpha = beta = 0 there is no defect, and nothing to integrate; at a
    # subnormal scale h is inf, and each gap is one step
    h = 1.0 / (_NODES_PER_UNIT_T * max(abs(spec.alpha), abs(spec.beta))) if rate else 0.0
    horizon = min(times.max(initial=0.0), _MAX_NODES * h)
    knots = np.unique(np.append(times[times <= horizon], [0.0, horizon]))
    gaps = np.diff(knots)
    counts = np.maximum(np.ceil(gaps / h), 1.0)
    first = np.concatenate([[0.0], np.cumsum(counts)])  # the node index of each knot
    spacing = np.append(gaps / counts, 0.0)
    block = max(len(times), n // 2)

    at_knots = np.zeros(len(knots))
    total, last_s, last_f = 0.0, 0.0, 0.0
    for start in range(0, int(first[-1]) + 1, block):
        j = np.arange(start, min(start + block, first[-1] + 1))
        k = np.searchsorted(first, j, side="right") - 1
        s = knots[k] + (j - first[k]) * spacing[k]
        phase = np.multiply.outer(s, eigvals)
        re = np.cos(phase) @ weights
        im = np.sin(phase, out=phase) @ weights
        r = (re + 1j * im) @ to_defect.T
        f = np.hypot(np.abs(r[:, 0]), np.abs(r[:, 1]))
        running = total + np.cumsum(0.5 * (np.append(last_f, f[:-1]) + f)
                                    * np.diff(s, prepend=last_s))
        hit = first[k] == j
        at_knots[k[hit]] = running[hit]
        total, last_s, last_f = running[-1], s[-1], f[-1]
        if not total <= 2.0:
            break
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(times <= last_s, np.interp(times, knots, at_knots),
                       total + rate * (times - last_s))
    return np.fmin(out, 2.0)  # a NaN integral, from an overflowed defect, reads 2


def chain_states(spec: LiouvillianSpec, t_grid: Sequence[float]) -> tuple[KrylovChain, np.ndarray]:
    """The vacuum's chain of L and its read-only ``propagate_chain`` rows over
    ``t_grid`` at the first m of ``CHAIN_SIZES`` whose edge mass, the probability
    on its last site, is within ``EDGE_LEAK_TOL`` at every time; L is built at
    2m + 32 levels (no step meets the truncation). At m = 1024 the first time
    over the bar raises :class:`EdgeLeak`; ``Breakdown`` and ``OverflowError``
    (a phase at any grid time included) propagate from the first m."""
    def attempt(m):
        # every step's dot products run over all dim levels, and BLAS rounds
        # them by length: another dim changes the chain in its last bits
        dim = 2 * m + 32
        L = build_liouvillian(spec, TruncationConfig(dim=dim))
        chain = lanczos_tridiagonalize(L, FockVector.basis_state(dim, 0), m)
        rows = propagate_chain(chain, t_grid)
        leak = np.flatnonzero(np.abs(rows[:, -1]) ** 2 > EDGE_LEAK_TOL)
        if leak.size:
            raise EdgeLeak(t_grid[leak[0]], m=chain.m, edge_mass=float(abs(rows[leak[0], -1]) ** 2))
        return chain, rows

    return _grow(CHAIN_SIZES, attempt, EdgeLeak)
