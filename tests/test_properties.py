"""Property tests of the three closed-form routes that read the Hermite
argument, over the region the closed-form sweeps cover."""

import math

import pytest

from krylovgrowth.algebra import LiouvillianSpec
from krylovgrowth.coherent import (
    closed_form_params,
    complexity_closed,
    mehler_normalization_check,
    moment_identity_value,
    moment_n,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

SWEEP = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def sweep_params(draw):
    """(v, w, theta) at alpha in [0, 1.5], beta in [0.05, 1.5] and a time
    0 < t with alpha t <= 2.5 and beta t <= 2."""
    alpha = draw(st.floats(0.0, 1.5))
    beta = draw(st.floats(0.05, 1.5))
    t_max = min(2.5 / alpha if alpha else math.inf, 2.0 / beta)
    t = t_max * draw(st.floats(1e-100, 1.0))
    return closed_form_params(LiouvillianSpec(alpha, beta), t)


@SWEEP
@given(sweep_params())
def test_mehler_normalization_is_one(p):
    assert abs(mehler_normalization_check(p) - 1.0) <= 1e-10


@SWEEP
@given(sweep_params())
def test_first_identity_moment_is_the_closed_complexity(p):
    K = complexity_closed(p)
    assert abs(moment_identity_value(p, 1) - K) <= 1e-12 * K


@SWEEP
@given(sweep_params())
def test_second_identity_moment_is_the_direct_sum(p):
    direct = moment_n(p, 2)
    assert abs(moment_identity_value(p, 2) - direct) <= 1e-8 * direct
