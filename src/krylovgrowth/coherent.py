"""Closed-form amplitudes, complexity and moments of displaced-squeezed states.

The evolution operator factorizes into a global phase, a displacement
exp(v a - conj(v) a^dag) and a squeeze exp((w/2) a^2 - (conj(w)/2) (a^dag)^2).
Acting on the vacuum this produces number-basis amplitudes phi_k that obey
the three-term recurrence

    sqrt(k+1) cosh|w| phi_{k+1}
      + sqrt(k) (conj(w)/|w|) sinh|w| phi_{k-1}
      + (conj(v) cosh|w| + v (conj(w)/|w|) sinh|w|) phi_k = 0,

equivalently the Hermite closed form
phi_k = (k!)^{-1/2} (conj(w) tanh|w| / (2|w|))^{k/2} H_k(s) phi_0.

The recurrence on phi_k itself is the workhorse (phi_k stays bounded while
H_k and sqrt(k!) overflow separately); the Hermite form is kept as a
cross-check. The complexity, variance and survival probability the CLI
prints are closed forms (:func:`schrodinger_complexity_t`,
:func:`variance_t`, :func:`autocorrelator_t`). Direct summation of moments
over the truncated series (:func:`moment_n`) is an independent check of
them, in ``verify`` and the tests, not the printed value: at its 1e-13
tail it is good to about 1e-10 relative, short of the 12 printed digits.
The two alternative closed forms known to disagree
(``variance_alt_closed_form``, ``autocorrelator_alt_closed_form``) are
evaluated only for discrepancy reporting.

All time dependence enters through :func:`closed_form_params`, which maps
the generator parameters (alpha, beta) and time t to (v, w, theta).
"""

from __future__ import annotations

import cmath
import errno
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .algebra import LiouvillianSpec
from .errors import NonConvergent, _grow

__all__ = [
    "DisplacementParams",
    "AmplitudeSeries",
    "hermite_argument",
    "closed_form_params",
    "phi_zero",
    "phi_series",
    "amplitude_deviation",
    "hermite_closed_form",
    "mehler_normalization_check",
    "complexity_closed",
    "moment_n",
    "moment_identity_value",
    "variance_alt_closed_form",
    "sl2r_profile",
    "schrodinger_complexity_t",
    "variance_t",
    "scrambling_time",
    "autocorrelator_t",
    "autocorrelator_alt_closed_form",
    "late_time_growth_exponent",
]

DEFAULT_SERIES_TOL = 1e-10
DEFAULT_SERIES_CAP = 4096


def _phase_root(w: complex) -> complex:
    """Principal square root of conj(w)/|w|.

    The Hermite argument and the (.)^{k/2} prefactor each involve a square
    root of the squeeze phase; they only compose consistently (for every
    phase, including w on the negative real axis) when built from one and
    the same root, so this helper is the single source for it.
    """
    return cmath.sqrt(w.conjugate() / abs(w))


def hermite_argument(v: complex, w: complex) -> complex:
    """Argument s of the Hermite closed form (undefined at w = 0)."""
    if w == 0:
        raise ValueError("hermite argument is undefined on the w = 0 branch")
    xi = _phase_root(w)
    rz = math.sqrt(math.tanh(abs(w)))
    return -(v * xi * rz + v.conjugate() * xi.conjugate() / rz) / math.sqrt(2.0)


@dataclass(frozen=True)
class DisplacementParams:
    """Group-element parameters (v, w, theta), stored as complex.

    On the pure-displacement branch w = 0 every conj(w)/|w| factor is taken
    in the w -> 0 limit. The Hermite argument is not stored: the routes
    that read it call :func:`hermite_argument` (v, w) themselves.
    """

    v: complex
    w: complex
    theta: complex = 1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "v", complex(self.v))
        object.__setattr__(self, "w", complex(self.w))
        object.__setattr__(self, "theta", complex(self.theta))
        if abs(abs(self.theta) - 1.0) > 1e-12:
            raise ValueError(f"|theta| must be 1, got {abs(self.theta)}")


def _sinh_minus_arg_over_sq(x: float) -> float:
    """(sinh(x) - x) / x^2, without the cancellation that zeroes it for small x."""
    if abs(x) < 1e-3:
        x2 = x * x
        return x / 6.0 * (1.0 + x2 / 20.0 * (1.0 + x2 / 42.0))
    return (math.sinh(x) - x) / (x * x)


# x^2 is a normal float, neither subnormal nor beyond the float range,
# exactly for |x| in [2^-511, 2^512)
_SQUARE_NORMAL_MIN, _SQUARE_NORMAL_END = 2.0 ** -511, 2.0 ** 512


def _square_is_normal(x: float) -> bool:
    return _SQUARE_NORMAL_MIN <= abs(x) < _SQUARE_NORMAL_END


def _sinhc(x: float) -> float:
    """sinh(x) / x, with its limit 1 at x = 0. Like ``math.sinh`` past its
    range, an infinite x (beta t that overflowed) raises ``OverflowError``."""
    if x == 0:
        return 1.0
    if math.isinf(x):
        raise OverflowError(f"beta t = {x} is beyond the float range")
    return math.sinh(x) / x


def closed_form_params(spec: LiouvillianSpec, t: float) -> DisplacementParams:
    """Map generator parameters and time to (v, w, theta).

    v = (alpha/beta)(1 - cosh(beta t)) + i (alpha/beta) sinh(beta t),
    w = i beta t,
    theta = exp[i (alpha/beta)^2 (sinh(beta t) - beta t)],
    with the beta -> 0 limit v = i alpha t, w = 0, theta = 1. With
    sinhc(x) = sinh(x) / x they are evaluated as
    v = alpha t [-(beta t / 2) sinhc^2(beta t / 2) + i sinhc(beta t)] and
    theta = exp[i (alpha t)^2 (sinh(beta t) - beta t) / (beta t)^2], which
    never divide by beta and stay accurate where 1 - cosh and sinh x - x
    lose all digits, down to subnormal beta.
    """
    return DisplacementParams(*_closed_form_vwtheta(spec.alpha, spec.beta, t))


def _closed_form_vwtheta(alpha: float, beta: float, t: float) -> tuple[complex, complex, complex]:
    """(v, w, theta) of :func:`closed_form_params`, as a tuple of complex."""
    if beta == 0 or t == 0:
        return 1j * alpha * t, 0j, 1.0 + 0.0j
    at, bt = alpha * t, beta * t
    v = complex(-at * (0.5 * bt) * _sinhc(0.5 * bt) ** 2, at * _sinhc(bt))
    theta = cmath.exp(1j * (at * (at * _sinh_minus_arg_over_sq(bt))))
    return v, 1j * bt, theta


def phi_zero(p: DisplacementParams) -> complex:
    """Vacuum amplitude phi_0 = <0| theta D(v) S(w) |0>."""
    return _phi_zero(p.v, p.w, p.theta)


def _phi_zero(v: complex, w: complex, theta: complex) -> complex:
    """:func:`phi_zero` at (v, w, theta)."""
    gauss = cmath.exp(-abs(v) ** 2 / 2.0)
    if w == 0:
        return theta * gauss
    aw = abs(w)
    mubar = w.conjugate() / aw
    try:
        return (
            theta
            * gauss
            / math.sqrt(math.cosh(aw))
            * cmath.exp(-0.5 * v * v * mubar * math.tanh(aw))
        )
    except OverflowError:  # |phi_0| <= 1, but a factor of the product need not be
        raise OverflowError(
            "a factor of the product form of phi_0, theta exp(-|v|^2/2) exp(-v^2 conj(w) "
            "tanh|w| / (2|w|)) / sqrt(cosh|w|), is beyond the float range") from None


@dataclass(frozen=True, eq=False)
class AmplitudeSeries:
    """Amplitudes phi_0..phi_{k_max} with truncation metadata;
    k_max = ``len(phi) - 1``."""

    params: DisplacementParams
    phi: np.ndarray = field(repr=False)
    tail_bound: float

    def __post_init__(self):
        arr = np.asarray(self.phi, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "phi", arr)

    @property
    def k_max(self) -> int:
        return len(self.phi) - 1

    def probabilities(self) -> np.ndarray:
        return np.abs(self.phi) ** 2


# x * (1 - 0j) is (x.re + x.im*0, x.im - x.re*0), signed zeros included:
# the numerator of Smith's formula for x / d at real d > 0.
_SMITH = complex(1.0, -0.0)


def _recurrence(p: DisplacementParams, k_max: int, phi: Optional[list] = None) -> list:
    """phi_0..phi_{k_max} by the forward recurrence, as a list of Python complex.

    ``phi``, if given, holds phi_0..phi_j from an earlier call; it is
    extended in place from k = j, so a series grown in steps is bitwise the
    series computed at once. The bitwise reference is numpy's *scalar*
    complex128 arithmetic: its products and sums are Python's (the same),
    and its division by the real d = sqrt(k+1) cosh|w| multiplies the Smith
    numerator (x.re + x.im*0, x.im - x.re*0) by the reciprocal 1/d. numpy's
    *array* complex multiply is not that product: with numpy 2.4.6, on an
    x86-64 Xeon with FMA and AVX-512, it differs from Python's in the last
    bit on 44% of 100 000 random products. So the recurrence runs one
    scalar step at a time; run in lockstep over a time grid on complex
    arrays, it would not be bitwise this series.

    Where w is nonzero, each term is one product of the numerator
    x = -(sqrt(k+1) cosh|w|) phi_{k+1} by the float -1/d.
    CPython 3.11 multiplies a complex by a float f as by complex(f, 0.0),
    and 3.14 as complex(x.re f, x.im f); either way a part of x f is
    x.re f or x.im f, plus or minus a zero. Where that part is nonzero it
    is, to the bit, the negation, the product by ``_SMITH`` and the product
    by 1/d taken in turn, the three steps of numpy's division. A zero part,
    exact or underflowed, can have the other sign, so such a term is
    recomputed by the three steps. At v = 0 (the pure squeeze) every odd
    term is zero, and on the closed-form path, where w is imaginary, every
    even one has a zero part too, so there each term pays the one product
    and then the three steps. Only a NaN's sign can still differ, and
    no output shows it: a series with a NaN or inf term has a NaN or inf
    tail, which :func:`phi_series` reports as :class:`NonConvergent`. The
    w = 0 branch takes the three steps on every term, as numpy's own w = 0
    branch does: run through the loop of w != 0 (cosh|w| = 1, no hop), the
    terms past phi_0 at v = w = 0 would come out -0+0j where numpy's are 0+0j.
    """
    if phi is None:
        phi = [phi_zero(p)]
    start = len(phi) - 1
    rk = np.sqrt(np.arange(start, k_max + 1, dtype=float)).tolist()
    cur = phi[-1]
    append = phi.append
    if p.w == 0:
        vb = -p.v.conjugate()
        for s in [1.0 / r for r in rk[1:]]:
            n = vb * cur * _SMITH
            cur = complex(n.real * s, n.imag * s)
            append(cur)
        return phi
    aw = abs(p.w)
    mubar = p.w.conjugate() / aw
    ch, sh = math.cosh(aw), math.sinh(aw)
    mix = p.v.conjugate() * ch + p.v * mubar * sh
    hop = mubar * sh
    prev = phi[-2] if start else 0.0
    for r, r1 in zip(rk, rk[1:]):
        ns = -1.0 / (r1 * ch)
        x = r * hop * prev + mix * cur
        prev = cur
        cur = x * ns
        if not (cur.real and cur.imag):
            n = -x * _SMITH
            cur = complex(n.real * -ns, n.imag * -ns)
        append(cur)
    return phi


@lru_cache
def _doubling(cap: int) -> tuple[int, ...]:
    """Sizes 64, 128, ... below ``cap``, then ``cap`` (only ``cap`` if it is 64 or less)."""
    sizes = [min(64, cap)]
    while sizes[-1] < cap:
        sizes.append(min(2 * sizes[-1], cap))
    return tuple(sizes)


def phi_series(
    p: DisplacementParams,
    tol: float = DEFAULT_SERIES_TOL,
    max_k: int = DEFAULT_SERIES_CAP,
) -> AmplitudeSeries:
    """Amplitudes by forward recurrence, truncated adaptively.

    ``k_max`` grows 64, 128, ... up to ``max_k`` by the one escalation loop,
    ``errors._grow``, until the missing probability 1 - sum |phi_k|^2 is at
    most ``tol`` in magnitude; at ``max_k`` it raises :class:`NonConvergent`.
    Each size extends the series from the last term instead of recomputing it,
    and converts only its new terms to the array; the tail is summed over the
    whole array each time, by ``np.add.reduce``: the pairwise sum of
    ``np.sum``, without the cost of its Python wrapper on a short series. A
    ``tol`` that is not positive, or a negative ``max_k``, raises ``ValueError``.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_k < 0:
        raise ValueError(f"max_k must be >= 0, got {max_k}")
    terms = [phi_zero(p)]
    phi = None  # the terms of the last size, as an array

    def attempt(k_max):
        nonlocal phi
        _recurrence(p, k_max, terms)
        if phi is None:
            phi = np.array(terms, dtype=complex)
        else:  # convert only the new terms
            phi = np.concatenate((phi, np.array(terms[len(phi):], dtype=complex)))
        tail = 1.0 - float(np.add.reduce(np.abs(phi) ** 2))
        if not abs(tail) <= tol:
            raise NonConvergent(
                f"series tail {tail:.3e} still above tol {tol:.1e} at cap k_max={k_max}",
                tail=tail, k_max=k_max,
            )
        return AmplitudeSeries(params=p, phi=phi, tail_bound=tail)

    return _grow(_doubling(max_k), attempt, NonConvergent)


def amplitude_deviation(p: DisplacementParams, amplitudes: np.ndarray) -> float:
    """Largest |phi_k - amplitudes_k| against the closed-form series.

    The series is summed to a 1e-12 tail, and every level held by both is
    compared in complex value, phase and top levels included. This is the
    oracle comparison of ``verify`` and of the acceptance suite.
    """
    series = phi_series(p, tol=1e-12, max_k=16384)
    n = min(series.k_max + 1, len(amplitudes))
    return float(np.max(np.abs(series.phi[:n] - amplitudes[:n])))


def hermite_closed_form(p: DisplacementParams, k_max: int) -> np.ndarray:
    """Amplitudes from the Hermite closed form (cross-check route).

    Valid for w != 0 and k_max <= 170 (float factorial range); beyond that
    use the recurrence, which evaluates the same function stably.
    """
    if p.w == 0:
        raise ValueError("closed form requires w != 0; use the recurrence branch")
    if k_max > 170:
        raise ValueError("k_max above float factorial range (170)")
    s = hermite_argument(p.v, p.w)
    c = _phase_root(p.w) * math.sqrt(math.tanh(abs(p.w)) / 2.0)
    H = np.zeros(k_max + 1, dtype=complex)
    H[0] = 1.0
    if k_max >= 1:
        H[1] = 2.0 * s
    for k in range(1, k_max):
        H[k + 1] = 2.0 * s * H[k] - 2.0 * k * H[k - 1]
    p0 = phi_zero(p)
    ks = np.arange(k_max + 1)
    root_fact = np.sqrt(np.array([float(math.factorial(int(k))) for k in ks]))
    return c ** ks * H / root_fact * p0


def mehler_normalization_check(p: DisplacementParams) -> float:
    """Total probability via the bilinear Hermite generating function.

    Returns sum_k |phi_k|^2 evaluated in closed form; the contract is that
    the result equals 1 to 1e-10.
    """
    if p.w == 0:
        return abs(phi_zero(p)) ** 2 * math.exp(abs(p.v) ** 2)
    s = hermite_argument(p.v, p.w)
    z = math.tanh(abs(p.w))
    num = 2.0 * abs(s) ** 2 * z - 2.0 * (s * s).real * z * z
    return (
        math.cosh(abs(p.w))
        * math.exp(num / (1.0 - z * z))
        * abs(phi_zero(p)) ** 2
    )


def complexity_closed(p: DisplacementParams) -> float:
    """Krylov complexity of the displaced-squeezed state: |v|^2 + sinh^2|w|."""
    return abs(p.v) ** 2 + math.sinh(abs(p.w)) ** 2


def moment_n(
    p: DisplacementParams,
    n: int,
    *,
    max_k: int = 2 * DEFAULT_SERIES_CAP,
) -> float:
    """n-th position moment sum_k k^n |phi_k|^2 by direct summation.

    The series is summed to a 1e-13 tail. The k^n-weighted tail past that
    cut is not negligible at 12 digits: it is about k_max^n times the tail.
    On the 36-point (v, w) grid of ``verify``, m2 - m1^2 from one series is
    up to 1.1e-10 relative off the closed variance (at v = 0, w = 1.8i:
    k_max 512, tail 6.9e-14). On the 300 closed-sweep points of the 50-digit
    tests, m1 is up to 4.8e-12 and m2 - m1^2 up to 1.1e-10 relative off the
    reference. So it serves as a check of the closed forms, not as their value.
    """
    if n < 0:
        raise ValueError("moment order must be >= 0")
    return _moments(p, (n,), max_k)[0]


def _moments(
    p: DisplacementParams, orders: tuple[int, ...], max_k: int = 2 * DEFAULT_SERIES_CAP
) -> list[float]:
    """:func:`moment_n` for each of ``orders``, all from one series."""
    series = phi_series(p, tol=1e-13, max_k=max_k)
    k = np.arange(series.k_max + 1, dtype=float)
    probs = series.probabilities()
    return [float(np.add.reduce(k ** n * probs)) for n in orders]  # np.sum's reduction


def moment_identity_value(p: DisplacementParams, n: int) -> float:
    """K_(n) via the fixed-s derivative identity, for n in {1, 2}.

    At fixed Hermite argument s, |phi_0|^{-2} as a function of u = |w| is
    F(u) = cosh(u) exp(|s|^2 sinh(2u) - 2 Re(s^2) sinh^2(u)), and
    K_(n) = |phi_0|^2 [ (sinh(2u)/2 d/du)^n F ](|w|). The logarithmic
    derivatives of F are evaluated in closed form.
    """
    if n not in (1, 2):
        raise ValueError("identity evaluation implemented for n in {1, 2}")
    if p.w == 0:
        raise ValueError("identity evaluation requires w != 0")
    u0 = abs(p.w)
    s = hermite_argument(p.v, p.w)
    s_abs2 = abs(s) ** 2
    s_sq_re = (s * s).real
    half_s2 = 0.5 * math.sinh(2.0 * u0)
    # log-derivatives: F'/F = h, F''/F = h' + h^2
    h = (
        math.tanh(u0)
        + 2.0 * s_abs2 * math.cosh(2.0 * u0)
        - 2.0 * s_sq_re * math.sinh(2.0 * u0)
    )
    if n == 1:
        return half_s2 * h
    hp = (
        1.0 / math.cosh(u0) ** 2
        + 4.0 * s_abs2 * math.sinh(2.0 * u0)
        - 4.0 * s_sq_re * math.cosh(2.0 * u0)
    )
    return half_s2 * (math.cosh(2.0 * u0) * h + half_s2 * (hp + h * h))


def variance_alt_closed_form(p: DisplacementParams) -> float:
    """Alternative closed variance expression, evaluated for comparison only.

    Reads |v| cosh(2|w|) + sinh|w| cosh|w| (sinh(2|w|) - (conj(v)^2 w
    + v^2 conj(w))/|w|): the expression :func:`variance_t` evaluates, with
    its first term |v| in place of |v|^2. That one term disagrees with the
    Poisson limit (|v|^2 at w = 0); the verify report quantifies the
    deviation from direct summation.
    """
    return _variance_form(abs(p.v), p)


def _variance_form(first: float, p: DisplacementParams) -> float:
    """first cosh(2|w|) + sinh|w| cosh|w| (sinh(2|w|) - Re(conj(v)^2 w
    + v^2 conj(w))/|w|), and first at w = 0: the variance at (v, w) with
    first = |v|^2, which ``verify`` holds to direct summation on its (v, w)
    grid, and the alternative form with first = |v|."""
    aw = abs(p.w)
    if aw == 0:
        return first
    cross = ((p.v.conjugate() ** 2 * p.w + p.v ** 2 * p.w.conjugate()) / aw).real
    return first * math.cosh(2 * aw) + math.sinh(aw) * math.cosh(aw) * (
        math.sinh(2 * aw) - cross
    )


def sl2r_profile(
    h: float,
    beta: float,
    t: float,
    *,
    tol: float = DEFAULT_SERIES_TOL,
) -> tuple[np.ndarray, float]:
    """Lowest-weight-module amplitudes and complexity K = 2h sinh^2(beta t).

    phi_n = sqrt(Gamma(2h+n) / (n! Gamma(2h))) tanh^n(beta t) / cosh^{2h}(beta t)
    over the weight-basis index n, for a weight h > 0; returns the real,
    read-only phi_0..phi_{n_max} and K. The weight index n_max grows like
    the ``k_max`` of :func:`phi_series`, up to ``DEFAULT_SERIES_CAP``, until
    1 - sum phi_n^2 is at most ``tol`` in magnitude. In the oscillator
    realization the sector is h = 1/4, where phi_n is the modulus of the
    number-basis amplitude on the even level k = 2n of the squeezed vacuum
    (v = 0, w = i beta t).
    """
    if not h > 0:
        raise ValueError(f"weight h must be positive, got {h}")
    bt = beta * t
    K = 2.0 * h * math.sinh(bt) ** 2
    z = math.tanh(bt)

    def attempt(n_max):
        weights = np.empty(n_max + 1, dtype=float)
        weights[0] = 1.0
        for n in range(n_max):
            weights[n + 1] = weights[n] * (2.0 * h + n) / (n + 1.0)
        phi = np.sqrt(weights) * z ** np.arange(n_max + 1) / math.cosh(bt) ** (2 * h)
        tail = 1.0 - float(np.sum(phi ** 2))
        if not abs(tail) <= tol:
            raise NonConvergent(
                f"weight-module series tail {tail:.3e} above tol at cap {n_max}",
                tail=tail, k_max=n_max,
            )
        phi.setflags(write=False)
        return phi, K

    return _grow(_doubling(DEFAULT_SERIES_CAP), attempt, NonConvergent)


def _v_abs2(alpha: float, t: float, bt: float) -> float:
    """|v|^2 = alpha^2 cosh(beta t) (t sinhc(beta t / 2))^2 of the closed-form
    path, with alpha t squared as one number where alpha^2 or t^2 is not a
    normal float; an infinite beta t raises ``_sinhc``'s ``OverflowError``."""
    sinhc = _sinhc(bt / 2.0)
    if not (_square_is_normal(alpha) and _square_is_normal(t)):
        return math.cosh(bt) * (alpha * t * sinhc) ** 2
    return alpha ** 2 * (math.cosh(bt) * (t * sinhc) ** 2)


def schrodinger_complexity_t(spec: LiouvillianSpec, t: float) -> float:
    """Complexity K(t) for the full generator.

    Equals alpha^2 t^2 + sinh^2(beta t) plus the non-negative interaction
    term; evaluated in the cancellation-free form
    sinh^2(beta t) + alpha^2 cosh(beta t) (t sinhc(beta t / 2))^2, with
    sinhc(x) = sinh(x) / x, which is alpha^2 t^2 at beta = 0 and never
    squares beta. Where alpha^2 or t^2 is not a normal float, alpha t is
    squared as one number instead. A K(t) beyond the float range raises
    ``OverflowError`` with ``t`` as its ``t``, on either branch.
    """
    alpha, beta = spec.alpha, spec.beta
    if t == 0:  # before any power of alpha, which may overflow
        return 0.0
    bt = beta * t
    try:
        K = math.sinh(bt) ** 2 + _v_abs2(alpha, t, bt)
    except OverflowError:  # a float power or sinh past the range raises; a product is inf
        if math.isinf(bt):  # beta t itself overflowed: _sinhc's own message
            raise
        K = math.inf
    if math.isinf(K):
        err = OverflowError(f"complexity K(t) overflows at t={t}")
        err.t = t
        raise err
    return K


def variance_t(spec: LiouvillianSpec, t: float) -> float:
    """Variance sigma2(t) = sum k^2 |phi_k|^2 - K(t)^2 of the Krylov distribution.

    The closed expression at (v, w) is |v|^2 cosh 2|w| + sinh|w| cosh|w|
    (sinh 2|w| - Re(conj(v)^2 w + v^2 conj(w)) / |w|), and |v|^2 at w = 0.
    On the closed-form path, v = alpha t [-(beta t / 2) sinhc^2(beta t / 2)
    + i sinhc(beta t)] and w = i beta t, the cross term inside the bracket is
    +2 (alpha t)^2 |beta t| sinhc^2(beta t / 2) sinhc(beta t), which is
    2 |v|^2 tanh|beta t|; with cosh 2x = 1 + 2 sinh^2 x the expression is
    |v|^2 (1 + 4 sinh^2(beta t)) + 2 sinh^2(beta t) cosh^2(beta t), every
    term non-negative. |v|^2 is the one :func:`schrodinger_complexity_t`
    adds to sinh^2(beta t): it never squares beta or divides by it, squares
    alpha t as one number where alpha^2 or t^2 is not a normal float, and
    is (alpha t)^2 at beta = 0, where sigma2 is K. sigma2 is 0 at t = 0.

    sigma2 >= K(t), so sigma2 leaves the float range no later than K. Where
    it does, this raises the ``OverflowError`` a float power past the range
    raises, (``errno.ERANGE``, 'Numerical result out of range'), with ``t``
    as its ``t``; an infinite beta t raises ``_sinhc``'s own.
    """
    alpha, beta = spec.alpha, spec.beta
    if t == 0:  # before any power of alpha, which may overflow
        return 0.0
    bt = beta * t
    try:
        v2 = _v_abs2(alpha, t, bt)
        sh, ch = math.sinh(bt), math.cosh(bt)
        var = v2 * (1.0 + 4.0 * (sh * sh)) + 2.0 * (sh * ch) ** 2
    except OverflowError:  # a float power or sinh past the range raises; a product is inf
        if math.isinf(bt):
            raise
        var = math.inf
    if not math.isfinite(var):  # 0 * inf, where v2 is 0 and sinh^2 is not, is nan
        err = OverflowError(errno.ERANGE, "Numerical result out of range")
        err.t = t
        raise err
    return var


def scrambling_time(spec: LiouvillianSpec) -> float:
    """t_s = (1/beta) log[4 beta^2 / (beta^2 + 2 alpha^2)]; requires beta > 0.

    Negative for alpha > beta sqrt(3/2), zero exactly at the boundary.
    """
    if spec.beta <= 0:
        raise ValueError(f"scrambling time defined only for beta > 0, got {spec.beta}")
    # log(4 / (1 + 2 r^2)) with r = alpha / beta: alpha and beta are never
    # squared on their own; past 2^500, 1 + 2 r^2 rounds to 2 r^2
    r = abs(spec.alpha / spec.beta)
    if r < 2.0 ** 500:
        return math.log(4.0 / (1.0 + 2.0 * r * r)) / spec.beta
    return (math.log(2.0) - 2.0 * (math.log(abs(spec.alpha)) - math.log(spec.beta))) / spec.beta


def autocorrelator_t(spec: LiouvillianSpec, t: float) -> float:
    """Survival probability |phi_0(t)|^2 of the initial operator state."""
    return abs(_phi_zero(*_closed_form_vwtheta(spec.alpha, spec.beta, t))) ** 2


def autocorrelator_alt_closed_form(spec: LiouvillianSpec, t: float) -> float:
    """Alternative closed autocorrelator expression, for comparison only.

    Reads exp[-alpha^2 (e^{2 beta t} - 1)^2 / (8 beta^2) + 2 beta t]
    / cosh(2 beta t), and its limit exp(-alpha^2 t^2 / 2) at beta = 0, the
    value the same expression takes there: the function is continuous in
    beta. It is inconsistent with the small-t expansion of the survival
    probability (it even carries a term linear in t, and at beta = 0 it is
    the square root of the exact exp(-alpha^2 t^2)); the verify report
    quantifies its deviation from :func:`autocorrelator_t`.
    """
    alpha, beta = spec.alpha, spec.beta
    if t == 0:  # before any power of alpha, which may overflow
        return 1.0
    # (e^{2 beta t} - 1) / beta = 2 t e^{beta t} sinhc(beta t), so beta is
    # never squared; alpha t is squared as one number where alpha^2 or t^2
    # is not a normal float
    if not (_square_is_normal(alpha) and _square_is_normal(t)):
        num = -(alpha * t * math.exp(beta * t) * _sinhc(beta * t)) ** 2 / 2.0
    else:
        num = -(alpha ** 2) * (t * math.exp(beta * t) * _sinhc(beta * t)) ** 2 / 2.0
    return math.exp(num + 2.0 * beta * t) / math.cosh(2.0 * beta * t)


def late_time_growth_exponent(spec: LiouvillianSpec) -> float:
    """Empirical exponent of K(t) ~ e^{lambda t}: linear fit of log K over
    41 points of t in [4, 6].

    log K is taken at every (alpha, beta) in one log form whose terms
    neither underflow nor overflow for |alpha| and |beta| up to 1e300. At
    alpha = beta = 0, K vanishes and ``ValueError`` is raised; a fit beyond
    the float range raises ``OverflowError``.
    """
    scale = max(abs(spec.alpha), abs(spec.beta))
    if scale == 0:
        raise ValueError("K(t) vanishes at alpha = beta = 0: no growth exponent")
    a, b = spec.alpha / scale, spec.beta / scale
    ts = np.linspace(4.0, 6.0, 41)
    lnk = []
    for t in ts.tolist():
        # with x = |beta| t, sinh x = e^x x u / (1+x), cosh x = e^x c and
        # sinh(x/2) = e^{x/2} x v / (2 (1+x)), so that log K is
        # 2 log(scale t) + 2x - 2 log1p(x) + log(b^2 u^2 + a^2 c v^2), and
        # the bracket stays between 1/4 and 3
        x = abs(spec.beta) * t
        u = v = 1.0
        if x:
            u = (1.0 + x) * -math.expm1(-2.0 * x) / (2.0 * x)
            v = (1.0 + x) * -math.expm1(-x) / x
        c = (1.0 + math.exp(-2.0 * x)) / 2.0
        lnk.append(2.0 * (math.log(t) + math.log(scale) + x - math.log1p(x))
                   + math.log((b * u) ** 2 + c * (a * v) ** 2))
    slope = float(np.polyfit(ts, lnk, 1)[0])
    if not math.isfinite(slope):  # |beta| t, or the fit's sums, past the float range
        raise OverflowError(f"late-time exponent beyond the float range at beta = {spec.beta}")
    return slope
