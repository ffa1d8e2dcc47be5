import cmath
import logging
import math

import numpy as np
import pytest

from krylovgrowth import coherent
from krylovgrowth.algebra import LiouvillianSpec
from krylovgrowth.coherent import (
    DisplacementParams,
    amplitude_deviation,
    autocorrelator_alt_closed_form,
    autocorrelator_t,
    closed_form_params,
    complexity_closed,
    hermite_closed_form,
    late_time_growth_exponent,
    mehler_normalization_check,
    moment_identity_value,
    moment_n,
    phi_series,
    phi_zero,
    schrodinger_complexity_t,
    scrambling_time,
    sl2r_profile,
    variance_alt_closed_form,
    variance_t,
    _recurrence,
)
from krylovgrowth.errors import NonConvergent, _grow


class TestDisplacementParams:
    def test_theta_must_be_unit(self):
        with pytest.raises(ValueError):
            DisplacementParams(v=0.0, w=0.0, theta=2.0)

    @pytest.mark.parametrize("beta", [1e-200, -1e-160, 5e-324])
    def test_tiny_beta_is_the_displacement_limit(self, beta):
        # (alpha/beta)^2 overflows and sinh(beta t) - beta t underflows
        p = closed_form_params(LiouvillianSpec(1.0, beta), 2.0)
        q = closed_form_params(LiouvillianSpec(1.0, 0.0), 2.0)
        assert abs(p.v - q.v) <= 1e-12 and abs(p.theta - q.theta) <= 1e-12
        assert autocorrelator_t(LiouvillianSpec(1.0, beta), 2.0) == pytest.approx(
            math.exp(-4.0), rel=1e-12
        )

    def test_theta_stays_unit_where_alpha_over_beta_squared_overflows(self):
        # a phase of 1.3e295 has no digit left modulo 2 pi, but it is a phase
        p = closed_form_params(LiouvillianSpec(1e150, 1e-5), 2.0)
        assert abs(abs(p.theta) - 1.0) <= 1e-12


class TestPhiZero:
    def test_identity_element(self):
        assert phi_zero(DisplacementParams(v=0.0, w=0.0)) == 1.0

    def test_pure_displacement(self):
        val = phi_zero(DisplacementParams(v=1.0, w=0.0))
        assert val == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_pure_squeeze_survival(self):
        val = phi_zero(DisplacementParams(v=0.0, w=1j))
        assert abs(val) ** 2 == pytest.approx(1.0 / math.cosh(1.0), abs=1e-14)


class TestPhiSeries:
    def test_odd_amplitudes_vanish_without_displacement(self):
        series = phi_series(DisplacementParams(v=0.0, w=1j), tol=1e-12)
        assert np.max(np.abs(series.phi[1::2])) == 0.0

    def test_poisson_for_pure_displacement(self):
        series = phi_series(DisplacementParams(v=0.5j, w=0.0), tol=1e-12)
        probs = series.probabilities()
        lam = 0.25
        for k in range(6):
            assert probs[k] == pytest.approx(math.exp(-lam) * lam**k / math.factorial(k), abs=1e-12)

    def test_tail_bound_within_tolerance(self):
        series = phi_series(DisplacementParams(v=1.5, w=0.8j), tol=1e-11)
        assert abs(series.tail_bound) <= 1e-11
        assert abs(np.sum(series.probabilities()) - 1.0) <= 2e-11

    def test_adaptive_doubling_grows_k_max(self):
        small = phi_series(DisplacementParams(v=0.2, w=0.2j), tol=1e-10)
        large = phi_series(DisplacementParams(v=2.0, w=2.0j), tol=1e-10)
        assert small.k_max == 64
        assert large.k_max > 64

    def test_size_ladder_is_one_cached_tuple_per_cap(self):
        assert coherent._doubling(300) == (64, 128, 256, 300)
        assert coherent._doubling(300) is coherent._doubling(300)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_negative_cap_is_an_invalid_argument(self, monkeypatch, t):
        # not a one-term series at t = 0, nor a NonConvergent "at cap k_max=-3"
        # elsewhere; the recurrence, and its table of sqrt(k), is never reached
        def unreached(p, k_max, phi=None):
            raise AssertionError("the recurrence ran")

        monkeypatch.setattr(coherent, "_recurrence", unreached)
        p = closed_form_params(LiouvillianSpec(0.7, 0.9), t)
        for call in (
            lambda: phi_series(p, max_k=-3),
            lambda: moment_n(p, 1, max_k=-3),
            lambda: coherent._moments(p, (1, 2), -3),
        ):
            with pytest.raises(ValueError, match="max_k must be >= 0, got -3"):
                call()

    def test_nonconvergent_at_cap(self):
        with pytest.raises(NonConvergent) as err:
            phi_series(DisplacementParams(v=0.0, w=3.0j), tol=1e-10, max_k=64)
        assert err.value.args[0] == "series tail 4.203e-01 still above tol 1.0e-10 at cap k_max=64"
        assert sorted(err.value.context) == ["k_max", "tail"]
        assert err.value.context["k_max"] == 64

    @pytest.mark.parametrize(
        "max_k, sizes", [(40, [40]), (100, [64, 100]), (300, [64, 128, 256, 300])]
    )
    def test_sizes_double_from_64_and_end_at_the_cap(self, monkeypatch, max_k, sizes):
        tried = []

        def spy(p, k_max, phi=None):
            tried.append(k_max)
            return _recurrence(p, k_max, phi)

        monkeypatch.setattr(coherent, "_recurrence", spy)
        with pytest.raises(NonConvergent) as err:
            phi_series(DisplacementParams(v=0.0, w=3.0j), tol=1e-10, max_k=max_k)
        assert tried == sizes
        assert err.value.context["k_max"] == max_k

    @pytest.mark.parametrize(
        "v, w",
        [
            (1 + 1j, 0.5j),
            (0.5 - 0.3j, -1.2 + 0j),  # squeeze phase on the negative real axis
            (2j, -0.7 + 0.2j),
            (1.0 + 0j, 1j),
        ],
    )
    def test_matches_hermite_closed_form(self, v, w):
        p = DisplacementParams(v=v, w=w)
        series = phi_series(p, tol=1e-12)
        k_cross = min(series.k_max, 150)
        closed = hermite_closed_form(p, k_cross)
        assert np.max(np.abs(series.phi[: k_cross + 1] - closed)) <= 1e-9

    def test_hermite_form_rejects_displacement_branch(self):
        with pytest.raises(ValueError):
            hermite_closed_form(DisplacementParams(v=1.0, w=0.0), 10)


def numpy_recurrence(p, k_max):
    """The recurrence evaluated in numpy complex128 scalars (reference)."""
    phi = np.zeros(k_max + 1, dtype=complex)
    phi[0] = phi_zero(p)
    rk = np.sqrt(np.arange(k_max + 1, dtype=float))
    if p.w == 0:
        for k in range(k_max):
            phi[k + 1] = -p.v.conjugate() * phi[k] / rk[k + 1]
        return phi
    aw = abs(p.w)
    mubar = p.w.conjugate() / aw
    ch, sh = math.cosh(aw), math.sinh(aw)
    mix = p.v.conjugate() * ch + p.v * mubar * sh
    for k in range(k_max):
        prev = phi[k - 1] if k >= 1 else 0.0
        phi[k + 1] = -(rk[k] * (mubar * sh) * prev + mix * phi[k]) / (rk[k + 1] * ch)
    return phi


def bits(a):
    """Bit patterns of a complex array, so that signed zeros count."""
    return np.asarray(a, dtype=complex).view(np.int64)


# t = 0 (v = w = 0), pure displacement, pure squeeze and a general point,
# plus the sign-flipped and tiny-amplitude corners where zeros carry signs
SERIES_POINTS = [
    DisplacementParams(v=0.0, w=0.0),
    DisplacementParams(v=6j, w=0.0),
    DisplacementParams(v=0.0, w=1.5j),
    DisplacementParams(v=1.2 - 0.8j, w=-0.4 + 1.1j),
    closed_form_params(LiouvillianSpec(0.0, 1.0), 1.6),
    closed_form_params(LiouvillianSpec(-0.9, 0.0), -2.0),
    closed_form_params(LiouvillianSpec(1e-5, 1e-5), 1e-3),
]


class TestRecurrence:
    @pytest.mark.parametrize("p", SERIES_POINTS)
    def test_grown_series_is_bitwise_the_series_computed_at_once(self, p):
        series = phi_series(p, tol=1e-13, max_k=8192)
        assert np.array_equal(bits(series.phi), bits(_recurrence(p, series.k_max)))
        grown = _recurrence(p, 300, _recurrence(p, 64, _recurrence(p, 1)))
        assert np.array_equal(bits(grown), bits(_recurrence(p, 300)))

    @pytest.mark.parametrize("p", SERIES_POINTS)
    def test_bitwise_numpy_complex_arithmetic(self, p):
        assert np.array_equal(bits(_recurrence(p, 300)), bits(numpy_recurrence(p, 300)))

    def test_points_grow_the_series(self):
        # the first test compares series that doubled at least once
        assert all(phi_series(p, tol=1e-13, max_k=8192).k_max > 64 for p in SERIES_POINTS[1:5])

    @pytest.mark.parametrize("p", SERIES_POINTS)
    def test_tail_and_moments_are_np_sum_over_the_whole_series(self, p):
        # pairwise sums over the whole array, however the series grew
        series = phi_series(p, tol=1e-13, max_k=8192)
        probs = np.abs(series.phi) ** 2
        k = np.arange(series.k_max + 1, dtype=float)
        got = [series.tail_bound] + coherent._moments(p, (1, 2), 8192)
        want = [1.0 - float(np.sum(probs))] + [float(np.sum(k ** n * probs)) for n in (1, 2)]
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))

    def test_bitwise_numpy_complex_arithmetic_over_drawn_parts(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # exact zeros of both signs, subnormals and parts up to 30 of both signs
        part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(5e-324, 30.0),
                         st.floats(-30.0, -5e-324))

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hypothesis.given(part, part, part, part)
        def check(v_re, v_im, w_re, w_im):
            p = DisplacementParams(v=complex(v_re, v_im), w=complex(w_re, w_im))
            try:
                phi_zero(p)
            except OverflowError:  # phi_0 itself is beyond the float range
                hypothesis.reject()
            once = _recurrence(p, 300)
            assert np.array_equal(bits(once), bits(numpy_recurrence(p, 300)))
            grown = _recurrence(p, 300, _recurrence(p, 64, _recurrence(p, 1)))
            assert np.array_equal(bits(grown), bits(once))

        check()

    @pytest.mark.parametrize(
        "p",
        [
            closed_form_params(LiouvillianSpec(1e-5, 1e-5), 1e-3),  # 222 of 300 terms
            # phi_266 is -0-0j; the one product would make it -0+0j
            closed_form_params(LiouvillianSpec(0.5, 1e-3), 1.0),
            DisplacementParams(v=0.0, w=1.5j),  # pure squeeze: every term
            # v = 0: the odd terms are zero, the even ones take the one product
            DisplacementParams(v=0.0, w=0.3 + 1.1j),
            DisplacementParams(v=complex(-0.0, -0.0), w=1.5j),
        ],
    )
    def test_terms_with_a_zero_part_are_bitwise(self, p):
        # a zero part, whose sign the one product by -1/d could flip, is
        # computed by the negation, the Smith numerator and the product by 1/d
        phi = _recurrence(p, 300)
        assert any(not (x.real and x.imag) for x in phi)
        assert np.array_equal(bits(phi), bits(numpy_recurrence(p, 300)))

    def test_a_float_factor_scales_each_nonzero_part(self):
        # the one product by -1/d relies on it: CPython 3.11 computes
        # z * complex(f, 0.0), 3.14 complex(z.real * f, z.imag * f)
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        finite = st.floats(allow_nan=False, allow_infinity=False)

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.given(finite, finite, finite)
        def check(re, im, f):
            z = complex(re, im)
            hypothesis.assume((z * f).real and (z * f).imag)
            assert np.array_equal(bits([z * f]), bits([z * complex(f, 0.0)]))
            assert np.array_equal(bits([z * f]), bits([complex(re * f, im * f)]))

        check()


def reference_series(p, k_max, dps=50):
    """phi_0..phi_{k_max} by the same three-term recurrence in mpmath at
    ``dps`` digits, seeded from the float (v, w, theta) of ``p`` (w != 0)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        v, w, theta = (mpmath.mpc(x) for x in (p.v, p.w, p.theta))
        aw = abs(w)
        mubar = mpmath.conj(w) / aw
        ch, sh = mpmath.cosh(aw), mpmath.sinh(aw)
        mix = mpmath.conj(v) * ch + v * mubar * sh
        phi = [theta * mpmath.exp(-abs(v) ** 2 / 2) / mpmath.sqrt(ch)
               * mpmath.exp(-v * v * mubar * mpmath.tanh(aw) / 2)]
        prev = 0
        for k in range(k_max):
            nxt = -(mpmath.sqrt(k) * mubar * sh * prev + mix * phi[k]) / (mpmath.sqrt(k + 1) * ch)
            prev = phi[k]
            phi.append(nxt)
        return np.array([complex(x) for x in phi])


# k_max from 1024 to 4096 at tol 1e-13: the recurrence runs where |w| and
# the displacement are large (Gautschi, SIAM Rev. 9 (1967) 24-82, on the
# forward stability of three-term recurrences)
LARGE_W_POINTS = [(1.0, 1.0, 2.0), (0.5, 1.5, 1.6), (1.5, 1.0, 2.4), (0.0, 1.0, 2.5),
                  (1.2, 0.8, 3.0)]


@pytest.mark.parametrize("alpha, beta, t", LARGE_W_POINTS)
def test_recurrence_matches_a_50_digit_reference_at_large_w(alpha, beta, t):
    p = closed_form_params(LiouvillianSpec(alpha, beta), t)
    phi = phi_series(p, tol=1e-13, max_k=8192).phi
    assert 1024 <= len(phi) - 1 <= 4096
    ref = reference_series(p, len(phi) - 1)
    # worst measured: 1.3e-15 absolute, 1.6e-13 relative
    dev = np.abs(phi - ref)
    assert np.max(dev) <= 1e-14
    big = np.abs(ref) > 1e-8
    assert np.max(dev[big] / np.abs(ref[big])) <= 1e-12


class TestAmplitudeDeviation:
    def test_every_level_counts_in_complex_value(self):
        p = closed_form_params(LiouvillianSpec(1.0, 0.5), 1.0)
        phi = np.array(phi_series(p, tol=1e-12, max_k=16384).phi)
        assert amplitude_deviation(p, phi) == 0.0
        # a phase alone moves every level; |phi_k - i phi_k| = sqrt(2) |phi_k|
        assert amplitude_deviation(p, 1j * phi) == pytest.approx(
            np.sqrt(2.0) * np.max(np.abs(phi)), rel=1e-15)
        # an error on the top level held, where |phi_k|^2 is below 1e-16
        top = np.flatnonzero(np.abs(phi) ** 2 < 1e-16)[0]
        phi[top] += 1e-9
        assert amplitude_deviation(p, phi[:top + 1]) == pytest.approx(1e-9, rel=1e-6)


class TestMehlerNormalization:
    @pytest.mark.parametrize(
        "v, w, tol",
        [(0.0, 1j, 1e-12), (1 + 1j, 0.3j, 1e-10), (0.0, 0.0, 1e-15)],
    )
    def test_reference_points(self, v, w, tol):
        assert mehler_normalization_check(DisplacementParams(v=v, w=w)) == pytest.approx(1.0, abs=tol)

    def test_generic_phase_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            v = rng.uniform(0, 4) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            w = rng.uniform(0.05, 3) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            p = DisplacementParams(v=v, w=w)
            assert mehler_normalization_check(p) == pytest.approx(1.0, abs=1e-10)


class TestComplexity:
    def test_reference_values(self):
        assert complexity_closed(DisplacementParams(v=0.0, w=0.0)) == 0.0
        assert complexity_closed(DisplacementParams(v=2j, w=0.0)) == 4.0
        assert complexity_closed(DisplacementParams(v=0.0, w=1j)) == pytest.approx(
            math.sinh(1.0) ** 2, abs=1e-15
        )
        assert complexity_closed(DisplacementParams(v=1 + 1j, w=0.5j)) == pytest.approx(
            2.0 + math.sinh(0.5) ** 2, abs=1e-15
        )

    def test_matches_direct_summation(self):
        for v, w in [(1 + 1j, 0.5j), (2.0, 1.5j), (0.0, 2.0j), (3.0, 0.0)]:
            p = DisplacementParams(v=v, w=w)
            assert moment_n(p, 1) == pytest.approx(complexity_closed(p), abs=1e-8)


class TestMoments:
    def test_zeroth_moment_is_normalization(self):
        assert moment_n(DisplacementParams(v=1.0, w=0.7j), 0) == pytest.approx(1.0, abs=1e-12)

    def test_first_moment_squeeze(self):
        assert moment_n(DisplacementParams(v=0.0, w=1j), 1) == pytest.approx(
            math.sinh(1.0) ** 2, abs=1e-9
        )

    def test_second_moment_squeeze(self):
        # K_(2) = sigma^2 + K^2 = sinh^2(2)/2 + sinh^4(1)
        expected = 0.5 * math.sinh(2.0) ** 2 + math.sinh(1.0) ** 4
        assert moment_n(DisplacementParams(v=0.0, w=1j), 2) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("v, w", [(0.0, 1j), (1 + 1j, 0.5j), (0.8, 1.2j)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_identity_closed_derivative(self, v, w, n):
        p = DisplacementParams(v=v, w=w)
        assert moment_identity_value(p, n) == pytest.approx(moment_n(p, n), abs=1e-7)


def variance(p):
    """sigma^2 = K_(2) - K_(1)^2 by direct summation."""
    return moment_n(p, 2) - moment_n(p, 1) ** 2


class TestVariance:
    def test_squeeze_variance(self):
        assert variance(DisplacementParams(v=0.0, w=1j)) == pytest.approx(
            0.5 * math.sinh(2.0) ** 2, abs=1e-8
        )

    def test_poisson_variance(self):
        assert variance(DisplacementParams(v=1.0, w=0.0)) == pytest.approx(1.0, abs=1e-10)
        assert variance(DisplacementParams(v=0.0, w=0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_alt_form_agrees_only_without_displacement(self):
        squeeze_only = DisplacementParams(v=0.0, w=1j)
        assert variance_alt_closed_form(squeeze_only) == pytest.approx(
            variance(squeeze_only), abs=1e-8
        )
        # discriminating point: Poisson variance is |v|^2 = 4, alt form gives |v| = 2
        poisson = DisplacementParams(v=2j, w=0.0)
        assert variance_alt_closed_form(poisson) == pytest.approx(2.0, abs=1e-12)
        assert variance(poisson) == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("t", [-1.3, 0.4, 2.0])
    def test_closed_form_at_the_pure_limits(self, t):
        # Poisson at beta = 0: sigma2 is K, to the bit; the squeezed vacuum
        # at alpha = 0: 2 sinh^2 cosh^2 = sinh^2(2 beta t) / 2
        for alpha in (0.7, 1.5):
            spec = LiouvillianSpec(alpha, 0.0)
            assert variance_t(spec, t) == schrodinger_complexity_t(spec, t) == alpha ** 2 * t ** 2
        for beta in (0.3, 1.1):
            assert variance_t(LiouvillianSpec(0.0, beta), t) == pytest.approx(
                0.5 * math.sinh(2 * beta * t) ** 2, rel=1e-15)


class TestProfiles:
    def test_hw_profile_values(self):
        # pure-displacement sector: Poisson |phi_n|^2 with K = (alpha t)^2
        assert schrodinger_complexity_t(LiouvillianSpec(1.0, 0.0), 0.0) == 0.0
        assert schrodinger_complexity_t(LiouvillianSpec(1.0, 0.0), 2.0) == 4.0
        spec = LiouvillianSpec(0.5, 0.0)
        assert schrodinger_complexity_t(spec, 1.0) == 0.25
        series = phi_series(closed_form_params(spec, 1.0))
        assert np.sum(series.probabilities()) == pytest.approx(1.0, abs=1e-10)

    def test_sl2r_profile_reference(self):
        phi, K = sl2r_profile(0.25, 1.0, 1.0)
        assert K == pytest.approx(0.5 * math.sinh(1.0) ** 2, abs=1e-15)
        assert np.sum(phi ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_sl2r_t0(self):
        _, K = sl2r_profile(1.0, 1.0, 0.0)
        assert K == 0.0

    def test_doubled_index_recovers_schrodinger_limit(self):
        phi, _ = sl2r_profile(0.25, 1.0, 1.0, tol=1e-12)
        doubled = 2.0 * np.sum(np.arange(len(phi)) * phi ** 2)
        assert doubled == pytest.approx(math.sinh(1.0) ** 2, abs=1e-9)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            sl2r_profile(0.0, 1.0, 1.0)

    def test_sl2r_nonconvergent_at_cap(self):
        with pytest.raises(NonConvergent) as err:
            sl2r_profile(0.25, 1.0, 6.0)
        assert err.value.args[0] == "weight-module series tail 6.536e-01 above tol at cap 4096"
        assert err.value.context["k_max"] == 4096


class TestGrow:
    """The one size-escalation loop behind phi_series, sl2r_profile and the
    acceptance suite's oracle dim ladder."""

    def test_stops_at_the_first_size_that_fits(self):
        tried = []

        def attempt(size):
            tried.append(size)
            if size < 3:
                raise NonConvergent("too small", k_max=size)
            return 10 * size

        assert _grow([1, 2, 3, 4], attempt, NonConvergent) == 30
        assert tried == [1, 2, 3]

    def test_error_at_the_last_size_propagates_unchanged(self):
        raised = []

        def attempt(size):
            raised.append(NonConvergent("too small", k_max=size))
            raise raised[-1]

        with pytest.raises(NonConvergent) as err:
            _grow([1, 2], attempt, NonConvergent)
        assert len(raised) == 2 and err.value is raised[-1]

    def test_other_errors_propagate_without_retry(self):
        tried = []

        def attempt(size):
            tried.append(size)
            raise OverflowError(size)

        with pytest.raises(OverflowError):
            _grow([1, 2, 3], attempt, NonConvergent)
        assert tried == [1]

    def test_each_escalation_is_logged(self, caplog):
        caplog.set_level(logging.DEBUG, logger="krylovgrowth")
        series = phi_series(closed_form_params(LiouvillianSpec(1.0, 1.0), 1.0), tol=1e-10)
        assert series.k_max == 128
        (record,) = caplog.records
        assert record.name == "krylovgrowth" and record.levelno == logging.DEBUG
        message = record.getMessage()
        assert message.startswith("NonConvergent at size 64, trying 128: {") and "'k_max': 64" in message


class TestComplexityOfTime:
    def test_pure_sector_limits_exact(self):
        # power-of-two grid keeps float products exact
        for alpha in (0.5, 1.0, 2.0):
            for t in (0.25, 0.5, 1.0, 2.0):
                assert schrodinger_complexity_t(LiouvillianSpec(alpha, 0.0), t) == alpha**2 * t**2
        for beta in (0.5, 1.0, 2.0):
            for t in (0.25, 0.5, 1.0, 2.0):
                assert (
                    schrodinger_complexity_t(LiouvillianSpec(0.0, beta), t)
                    == math.sinh(beta * t) ** 2
                )

    def test_mixed_reference_value(self):
        expected = math.sinh(1.0) ** 2 + 4.0 * math.cosh(1.0) * math.sinh(0.5) ** 2
        assert schrodinger_complexity_t(LiouvillianSpec(1.0, 1.0), 1.0) == pytest.approx(
            expected, abs=1e-14
        )

    def test_agrees_with_closed_form_params(self):
        spec = LiouvillianSpec(0.8, 0.6)
        for t in (0.3, 1.0, 2.5):
            K_t = schrodinger_complexity_t(spec, t)
            K_p = complexity_closed(closed_form_params(spec, t))
            assert K_t == pytest.approx(K_p, abs=1e-10)

    def test_interaction_term_nonnegative(self):
        # K(t) exceeds the sum of the pure-sector complexities
        spec = LiouvillianSpec(1.0, 1.0)
        for t in np.linspace(0.0, 3.0, 61):
            t = float(t)
            pure = spec.alpha**2 * t**2 + math.sinh(spec.beta * t) ** 2
            assert schrodinger_complexity_t(spec, t) - pure >= -1e-12

    def test_early_time_quadratic_coefficient(self):
        for alpha, beta in [(1.0, 1.0), (0.5, 0.8)]:
            spec = LiouvillianSpec(alpha, beta)
            ts = np.linspace(0.0, 0.02, 21)
            coef = np.polyfit(ts, [schrodinger_complexity_t(spec, float(t)) for t in ts], 2)[0]
            assert coef == pytest.approx(alpha**2 + beta**2, rel=0.01)

    @pytest.mark.parametrize("beta", [1e-200, 1e-160, -1e-155, 5e-324])
    def test_tiny_beta_is_never_squared(self, beta):
        # beta^2 below the normal range: K = alpha^2 t^2 in the limit
        spec = LiouvillianSpec(1.5, beta)
        for t in (2.0, -0.5, 1e-150):
            assert schrodinger_complexity_t(spec, t) == pytest.approx(
                2.25 * t * t, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha, beta, t, K", [
        (1e154, 1e-5, 5e-161, 2.5e-13),  # t^2 subnormal
        (1e200, 0.5, 5e-191, 2.5e19),  # alpha^2 beyond the float range
        (1e200, 0.5, 1e-200, 1.0),  # both
    ])
    def test_alpha_t_is_squared_as_one_number(self, alpha, beta, t, K):
        assert schrodinger_complexity_t(LiouvillianSpec(alpha, beta), t) == pytest.approx(
            K, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("f", [schrodinger_complexity_t, autocorrelator_alt_closed_form,
                                   closed_form_params])
    def test_overflowing_beta_t_is_beyond_the_float_range(self, f):
        # beta t = inf: no inf or NaN result, the float-range error instead
        with pytest.raises(OverflowError, match="beta t = inf"):
            f(LiouvillianSpec(1.0, 1e154), 1e308)

    def test_monotone_first_and_second_differences(self):
        spec = LiouvillianSpec(1.0, 1.0)
        ts = np.linspace(0.0, 3.0, 301)
        K = np.array([schrodinger_complexity_t(spec, float(t)) for t in ts])
        dK = np.diff(K)
        assert dK.min() >= -1e-9
        assert np.diff(dK).min() >= -1e-9


class TestScramblingTime:
    def test_reference_values(self):
        assert scrambling_time(LiouvillianSpec(0.0, 1.0)) == math.log(4.0)
        assert scrambling_time(LiouvillianSpec(1.0, 1.0)) == pytest.approx(
            math.log(4.0 / 3.0), abs=1e-15
        )

    def test_sign_change_boundary(self):
        for beta in (1.0, 0.7):
            ts = scrambling_time(LiouvillianSpec(beta * math.sqrt(1.5), beta))
            assert abs(ts) <= 1e-15
        assert scrambling_time(LiouvillianSpec(2.0, 1.0)) < 0.0

    def test_requires_positive_beta(self):
        with pytest.raises(ValueError):
            scrambling_time(LiouvillianSpec(1.0, 0.0))

    @pytest.mark.parametrize("x", [1e200, 1e-170])
    def test_alpha_and_beta_are_not_squared_apart(self, x):
        # alpha^2 and beta^2 overflow at 1e200 and underflow to 0 at 1e-170
        assert scrambling_time(LiouvillianSpec(x, x)) == pytest.approx(
            math.log(4.0 / 3.0) / x, rel=1e-15, abs=0.0)

    def test_alpha_over_beta_squared_beyond_the_float_range(self):
        # log(4 / (1 + 2 r^2)) = log 2 - 2 log r once 1 is below the rounding
        # of 2 r^2, r = 1e200
        assert scrambling_time(LiouvillianSpec(1e200, 1.0)) == pytest.approx(
            math.log(2.0) - 400.0 * math.log(10.0), rel=1e-15, abs=0.0)


class TestAutocorrelator:
    def test_t0_is_one(self):
        assert autocorrelator_t(LiouvillianSpec(1.0, 1.0), 0.0) == 1.0

    def test_pure_squeeze_value(self):
        assert autocorrelator_t(LiouvillianSpec(0.0, 1.0), 1.0) == pytest.approx(
            1.0 / math.cosh(1.0), abs=1e-14
        )

    def test_pure_displacement_gaussian(self):
        assert autocorrelator_t(LiouvillianSpec(1.0, 0.0), 2.0) == pytest.approx(
            math.exp(-4.0), abs=1e-14
        )

    def test_alt_form_disagrees_at_small_t(self):
        # the alternative closed form carries a spurious linear-in-t term
        spec = LiouvillianSpec(1.0, 1.0)
        auth = autocorrelator_t(spec, 0.1)
        alt = autocorrelator_alt_closed_form(spec, 0.1)
        assert alt > 1.0
        assert abs(alt - auth) > 0.1

    @pytest.mark.parametrize("beta", [1e-161, 1e-200, 5e-324, 0.0])
    def test_alt_form_at_tiny_beta(self, beta):
        # its expression tends to exp(-alpha^2 t^2 / 2) and takes that value
        # at beta = 0; with beta^2 taken subnormal it read 0.13199 instead
        # of 0.13534 at beta = 1e-161
        spec = LiouvillianSpec(1.0, beta)
        assert autocorrelator_alt_closed_form(spec, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_alt_form_squares_alpha_t_as_one_number(self):
        # alpha^2 overflows and t^2 is subnormal, while alpha t = 1
        spec = LiouvillianSpec(1e200, 0.5)
        assert autocorrelator_alt_closed_form(spec, 1e-200) == pytest.approx(
            math.exp(-0.5), rel=1e-12)

    def test_small_t_expansion(self):
        # |<0|e^{iLt}|0>|^2 = 1 - (alpha^2 + beta^2/2) t^2 + O(t^4)
        spec = LiouvillianSpec(0.7, 0.9)
        t = 1e-3
        expected = 1.0 - (0.7**2 + 0.9**2 / 2.0) * t * t
        assert autocorrelator_t(spec, t) == pytest.approx(expected, abs=1e-10)


def test_late_time_exponent_tracks_two_beta():
    assert late_time_growth_exponent(LiouvillianSpec(1.0, 1.0)) == pytest.approx(2.0, abs=0.02)
    assert late_time_growth_exponent(LiouvillianSpec(0.5, 0.75)) == pytest.approx(1.5, abs=0.02)


@pytest.mark.parametrize("alpha, beta", [(0.0, 1e-200), (1e-200, 1e-200), (1e-160, 1e-160)])
def test_late_time_exponent_where_complexity_underflows(alpha, beta):
    # K(t) is t^2 (alpha^2 + beta^2) to first order, zero or subnormal here:
    # the fit is the least-squares slope of 2 log t over the grid
    exponent = late_time_growth_exponent(LiouvillianSpec(alpha, beta))
    assert abs(exponent - 0.403419112479455) <= 1e-12


def _fifty_digit_slope(alpha, beta):
    """The least-squares slope of log K over the 41 exponent times, in
    50-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    ts = np.linspace(4.0, 6.0, 41).tolist()
    with mpmath.workdps(50):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        x = [mpmath.mpf(t) for t in ts]
        # t sinhc(b t / 2), with its limit t at b = 0
        y = [mpmath.log(mpmath.sinh(b * t) ** 2 + a ** 2 * mpmath.cosh(b * t)
                        * (2 * mpmath.sinh(b * t / 2) / b if b else t) ** 2)
             for t in x]
        xbar, ybar = mpmath.fsum(x) / len(x), mpmath.fsum(y) / len(y)
        slope = (mpmath.fsum((xi - xbar) * (yi - ybar) for xi, yi in zip(x, y))
                 / mpmath.fsum((xi - xbar) ** 2 for xi in x))
        return float(slope)


@pytest.mark.parametrize("alpha, beta", [
    (1.0, 1.0), (0.5, 0.75), (2.0, 0.5), (1.0, 0.0), (0.0, 1.0), (1.0, 1e3),
    (0.0, 1e300), (1e300, 1e300), (1e300, 1e-300),
])
def test_late_time_exponent_is_the_fifty_digit_slope(alpha, beta):
    exponent = late_time_growth_exponent(LiouvillianSpec(alpha, beta))
    assert exponent == pytest.approx(_fifty_digit_slope(alpha, beta), rel=1e-12, abs=0)


@pytest.mark.parametrize("alpha, beta", [(1e150, 50.0), (1e154, 1.0), (1e155, 1.0), (1e200, 0.0),
                                         (1.0, 100.0), (1.0, 200.0), (0.0, 230.0)])
def test_late_time_exponent_where_complexity_overflows(alpha, beta):
    # K(t) is beyond the float range on part of the grid, where
    # schrodinger_complexity_t raises, whether alpha^2 is a normal float
    # (the first two) or not, or sinh(beta t) overflows (the last three):
    # the exponent is the 50-digit least-squares slope of log K
    spec = LiouvillianSpec(alpha, beta)
    ts = np.linspace(4.0, 6.0, 41).tolist()
    overflows = []
    for t in ts:
        try:
            schrodinger_complexity_t(spec, t)
        except OverflowError as err:
            assert err.t == t and "K(t)" in str(err)
            overflows.append(t)
    assert overflows
    exponent = late_time_growth_exponent(spec)
    assert math.isfinite(exponent)
    assert exponent == pytest.approx(_fifty_digit_slope(alpha, beta), rel=1e-12, abs=0)


@pytest.mark.parametrize("beta", [1e308, -1e308, 1e307])
def test_late_time_exponent_beyond_the_float_range(beta):
    # |beta| t, or the sums of the fit, overflow: no inf or NaN exponent
    with pytest.raises(OverflowError, match="late-time exponent"):
        late_time_growth_exponent(LiouvillianSpec(1.0, beta))


def test_late_time_exponent_needs_a_generator():
    with pytest.raises(ValueError):
        late_time_growth_exponent(LiouvillianSpec(0.0, 0.0))
