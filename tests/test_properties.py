"""Property tests of the three closed-form routes that read the Hermite
argument and of the amplitude series against the dense oracle, over the
region the closed-form sweeps cover, and of the survival probability
against its public route."""

import math
import struct

import numpy as np
import pytest

from krylovgrowth.algebra import ORACLE_TOLERANCE, LiouvillianSpec, chain_states
from krylovgrowth.coherent import (
    autocorrelator_t,
    closed_form_params,
    compare_oracle,
    complexity_closed,
    mehler_normalization_check,
    moment_identity_value,
    moment_n,
    phi_series,
    phi_zero,
    sl2r_profile,
)

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

SWEEP = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def sweep_points(draw):
    """(spec, t) at alpha in [0, 1.5], beta in [0.05, 1.5] and a time
    0 < t with alpha t <= 2.5 and beta t <= 2."""
    alpha = draw(st.floats(0.0, 1.5))
    beta = draw(st.floats(0.05, 1.5))
    t_max = min(2.5 / alpha if alpha else math.inf, 2.0 / beta)
    t = t_max * draw(st.floats(1e-100, 1.0))
    return LiouvillianSpec(alpha, beta), t


sweep_params = sweep_points().map(lambda point: closed_form_params(*point))


@SWEEP
@given(sweep_params)
def test_mehler_normalization_is_one(p):
    assert abs(mehler_normalization_check(p) - 1.0) <= 1e-10


@SWEEP
@given(sweep_params)
def test_first_identity_moment_is_the_closed_complexity(p):
    K = complexity_closed(p)
    assert abs(moment_identity_value(p, 1) - K) <= 1e-12 * K


@SWEEP
@given(sweep_params)
def test_second_identity_moment_is_the_direct_sum(p):
    direct = moment_n(p, 2)
    assert abs(moment_identity_value(p, 2) - direct) <= 1e-8 * direct


@settings(SWEEP, max_examples=30)
@given(sweep_points())
def test_series_is_the_dense_oracle_in_complex_value(point):
    # the oracle comparison of verify (every level, in complex value) at
    # every draw whose dim-256 truncation estimate is within the oracle's bar
    spec, t = point
    oracle = compare_oracle(spec, [t], 256)
    assume(oracle.checked_t)
    assert oracle.max_deviation <= ORACLE_TOLERANCE


@SWEEP
@given(sweep_points())
def test_chain_return_amplitude_is_the_closed_form_phi_zero(point):
    # the chain's seed is |0>, so its first amplitude is <0|e^{iLt}|0> in any
    # basis: no projection and no truncation enter the comparison
    spec, t = point
    _, rows = chain_states(spec, [t])
    assert abs(rows[0, 0] - phi_zero(closed_form_params(spec, t))) <= 1e-12


@SWEEP
@given(st.floats(0.05, 1.5), st.floats(1e-100, 1.0))
def test_pure_squeeze_sector_is_even_and_the_weight_module(beta, u):
    # alpha = 0 keeps the squeezed vacuum on even levels, where the moduli
    # are the h = 1/4 lowest-weight amplitudes; beta t <= 2
    t = 2.0 / beta * u
    phi = phi_series(closed_form_params(LiouvillianSpec(0.0, beta), t)).phi
    assert not phi[1::2].any()
    profile, _ = sl2r_profile(0.25, beta, t)
    even = np.abs(phi[::2])
    n = min(len(even), len(profile))
    assert np.max(np.abs(even[:n] - profile[:n])) <= 1e-14


def _bits(f, *args):
    """f(*args) as its bit pattern, or the type of the error it raises."""
    try:
        return struct.pack("<d", f(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


coefficient = st.builds(
    lambda x, sign: sign * x,
    st.floats(0.0, 1e3) | st.sampled_from([0.0, 5e-324, 1e-300]),
    st.sampled_from([1.0, -1.0]),
)
survival_time = st.just(0.0) | st.floats(-5.0, 5.0) | st.floats(max_value=0.0, allow_infinity=False)


@SWEEP
@given(coefficient, coefficient, survival_time)
def test_survival_probability_is_bitwise_the_public_route(alpha, beta, t):
    spec = LiouvillianSpec(alpha, beta)
    assert _bits(autocorrelator_t, spec, t) == _bits(
        lambda: abs(phi_zero(closed_form_params(spec, t))) ** 2)
