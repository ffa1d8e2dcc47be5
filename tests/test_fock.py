import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from krylovgrowth.algebra import LiouvillianSpec, build_liouvillian
from krylovgrowth.coherent import closed_form_params, phi_series
from krylovgrowth.errors import DimensionMismatch, TruncationOverflow
from krylovgrowth.fock import (
    FockVector,
    OperatorMatrix,
    TruncationConfig,
    build_ladders,
    evolve_state,
    guard_band_mass,
)


def vacuum(dim):
    return FockVector.basis_state(dim, 0)


class TestTruncationConfig:
    def test_defaults(self):
        assert TruncationConfig().dim == 256

    @pytest.mark.parametrize("kwargs", [dict(dim=0), dict(dim=-1), dict(dim=-3)])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            TruncationConfig(**kwargs)


class TestSizes:
    def test_dim_is_the_length_of_the_array(self):
        assert FockVector(np.zeros(5)).dim == 5
        assert OperatorMatrix(np.ones((2, 7))).dim == 7
        assert isinstance(FockVector.basis_state(4, 1).dim, int)

    @pytest.mark.parametrize("bad", [np.float64(1.0), np.zeros((2, 3))], ids=["0-D", "2-D"])
    def test_state_must_be_1d(self, bad):
        with pytest.raises(DimensionMismatch):
            FockVector(bad)


class TestLadders:
    def test_dim2_annihilation(self):
        a, _ = build_ladders(TruncationConfig(dim=2))
        assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_entry_is_sqrt_n(self):
        a, ad = build_ladders(TruncationConfig(dim=4))
        assert a[2, 3] == pytest.approx(math.sqrt(3), abs=1e-15)
        assert np.array_equal(ad, a.conj().T)

    def test_rejects_dim_below_2(self):
        with pytest.raises(ValueError):
            build_ladders(TruncationConfig(dim=1))

    def test_commutator_is_identity_off_guard(self):
        dim = 64
        a, ad = build_ladders(TruncationConfig(dim=dim))
        comm = a @ ad - ad @ a
        dev = np.abs(comm - np.eye(dim))
        assert dev[:63, :63].max() <= 1e-12
        # the defect is confined to the last row/column
        assert dev[63, 63] == pytest.approx(dim, abs=1e-9)

    def test_storage_sets_bandwidth(self):
        # bands must be (b+1, dim): 2-D with at least one row
        for bad in (np.ones(3), np.ones((0, 3))):
            with pytest.raises(DimensionMismatch):
                OperatorMatrix(bad)
        assert OperatorMatrix(np.ones((2, 3))).bandwidth == 1


def per_diagonal_matvec(bands, x):
    """A[:n, :n] @ x one diagonal at a time: subdiagonals from the outermost
    in, the main diagonal, then superdiagonals from the innermost out."""
    b, n = bands.shape[0] - 1, len(x)
    d = bands[:, :n]
    y = np.zeros(n, dtype=np.result_type(d, x))
    for k in range(b, 0, -1):
        y[k:] += d[b - k, k:] * x[: n - k]
    y += d[b] * x
    for k in range(1, b + 1):
        y[: n - k] += d[b - k, k:] * x[k:]
    return y


def band_operator(b, dim, rng):
    """Random bands with zeros and signed zeros among the coefficients."""
    bands = rng.normal(size=(b + 1, dim))
    bands[:, ::5] = 0.0
    bands[:, 2::7] = -0.0
    return OperatorMatrix(bands)


class TestStencil:
    @pytest.mark.parametrize("b", [0, 1, 2])
    def test_rows_are_the_diagonals_of_the_leading_block(self, b):
        op = band_operator(b, 9, np.random.default_rng(b))
        dense = op.to_dense()
        for n in (-1, 10):
            with pytest.raises(DimensionMismatch):
                op.stencil(n)
        for n in range(10):
            stencil = op.stencil(n)
            assert stencil.shape == (2 * b + 1, n)
            for r in range(2 * b + 1):
                for i in range(n):
                    c = i + r - b
                    want = dense[i, c] if 0 <= c < n else 0.0
                    assert stencil[r, i] == want, (n, r, i)

    @pytest.mark.parametrize("b", [0, 1, 2])
    @pytest.mark.parametrize("kind", [float, complex])
    def test_product_is_the_per_diagonal_loop_bitwise(self, b, kind):
        # every prefix n, as a step of the Lanczos recursion computes it
        # (windows of a store padded with b zeros on each side); tobytes,
        # so that signed zeros count
        dim = 13
        rng = np.random.default_rng(10 + b)
        op = band_operator(b, dim, rng)
        x = rng.normal(size=dim)
        if kind is complex:
            x = x + 1j * rng.normal(size=dim)
        x[1::6] = 0.0
        x[3::6] = -0.0
        store = np.zeros((2, dim + 2 * b), dtype=x.dtype)
        windows = sliding_window_view(store, dim, axis=-1)
        for n in range(dim + 1):
            want = per_diagonal_matvec(op.bands, x[:n]).tobytes()
            store[1, b : b + n] = x[:n]
            assert (op.stencil(n) * windows[1, :, :n]).sum(axis=0).tobytes() == want, n

    def test_coefficients_beyond_the_block_stay_out(self):
        # an overflowed coefficient past the leading block would make a nan
        # of its zero partner in the store; the product never reads it
        b, dim, n = 2, 8, 5
        bands = np.ones((b + 1, dim))
        bands[:, n:] = np.inf
        op = OperatorMatrix(bands)
        x = np.arange(1.0, n + 1.0)
        store = np.zeros(dim + 2 * b)
        store[b : b + n] = x
        windows = sliding_window_view(store, dim)
        y = (op.stencil(n) * windows[:, :n]).sum(axis=0)
        assert np.all(np.isfinite(y))
        assert y.tobytes() == per_diagonal_matvec(bands, x).tobytes()


def hw_generator(alpha, dim):
    return build_liouvillian(LiouvillianSpec(alpha, 0.0), TruncationConfig(dim=dim))


class TestEvolveState:
    def test_t0_identity(self):
        L = hw_generator(0.8, 32)
        psi = evolve_state(L, 0.0, vacuum(32))
        assert np.allclose(psi.amplitudes, vacuum(32).amplitudes, atol=1e-14)

    def test_poisson_distribution(self):
        # |<k|e^{i t alpha (a+ad)}|0>|^2 is Poisson with mean (alpha t)^2
        psi = evolve_state(hw_generator(1.0, 64), 0.5, vacuum(64))
        probs = psi.probabilities()
        lam = 0.25
        for k in range(3):
            expected = math.exp(-lam) * lam**k / math.factorial(k)
            assert probs[k] == pytest.approx(expected, abs=1e-8)

    def test_unitarity_and_group_property(self):
        # 0.7 (a + a^dag) + 0.3 (a^2 + (a^dag)^2)
        L = build_liouvillian(LiouvillianSpec(0.7, 0.6), TruncationConfig(dim=128))
        for t in (0.3, 0.9, 1.7):
            psi = evolve_state(L, t, vacuum(128))
            assert abs(psi.norm_sq - 1.0) <= 1e-10
        two_step = evolve_state(L, 0.9, evolve_state(L, 0.4, vacuum(128)))
        one_step = evolve_state(L, 1.3, vacuum(128))
        assert np.max(np.abs(two_step.amplitudes - one_step.amplitudes)) <= 1e-9

    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (1.5, 0.25), (1.0, 0.0), (0.0, 1.0)])
    def test_amplitudes_match_closed_form_with_phases(self, alpha, beta):
        # the complex amplitudes, not only their moduli, at points the
        # truncation covers; (0.25, 1.5) at t = 1 is truncation-limited
        # (4.5e-7) and left out
        spec = LiouvillianSpec(alpha, beta)
        psi = evolve_state(build_liouvillian(spec, TruncationConfig(dim=256)), 0.5, vacuum(256))
        series = phi_series(closed_form_params(spec, 0.5), tol=1e-12)
        n = min(series.k_max + 1, psi.dim)
        assert np.max(np.abs(psi.amplitudes[:n] - series.phi[:n])) <= 1e-12

    def test_truncation_overflow_when_dim_too_small(self):
        L = build_liouvillian(LiouvillianSpec(0.0, 1.0), TruncationConfig(dim=32))
        with pytest.raises(TruncationOverflow) as err:
            evolve_state(L, 2.0, vacuum(32))
        assert err.value.context["dim"] == L.dim == 32

    @pytest.mark.parametrize("t", [1e308, -1e308, math.inf, -math.inf])
    def test_overflowing_phase_names_its_time(self, t):
        # t * eigenvalue is beyond the float range: no all-NaN state
        L = build_liouvillian(LiouvillianSpec(1.0, 1.0), TruncationConfig(dim=32))
        with pytest.raises(OverflowError) as err:
            evolve_state(L, t, vacuum(32))
        assert err.value.t == t

    def test_rejects_a_nan_time(self):
        # a NaN time is no phase overflow: rejected before L is diagonalized
        L = hw_generator(0.8, 32)
        with pytest.raises(ValueError, match="t=nan"):
            evolve_state(L, math.nan, vacuum(32))
        assert "_eigh" not in vars(L)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, -math.inf)])
    def test_rejects_a_non_finite_state(self, bad):
        # before evolving: no phase overflow is reported for it
        L = hw_generator(0.8, 32)
        amps = np.zeros(32, dtype=complex)
        amps[0], amps[3] = 1.0, bad
        with pytest.raises(ValueError, match="finite"):
            evolve_state(L, 0.5, FockVector(amps))

    @pytest.mark.parametrize("tail_tolerance", [0.0, -1e-10, float("nan")])
    def test_rejects_bad_tail_tolerance(self, tail_tolerance):
        L = hw_generator(0.8, 32)
        with pytest.raises(ValueError):
            evolve_state(L, 0.1, vacuum(32), tail_tolerance)

    def test_tail_tolerance_sets_the_guard_bar(self):
        # at t = 1.2 the dim-256 guard band holds a little mass, below the
        # default bar: a bar under it trips
        L = build_liouvillian(LiouvillianSpec(1.0, 1.0), TruncationConfig(dim=256))
        mass = guard_band_mass(evolve_state(L, 1.2, vacuum(256)))
        assert 0 < mass <= 1e-10
        with pytest.raises(TruncationOverflow):
            evolve_state(L, 1.2, vacuum(256), mass / 2)

    def test_guard_band_mass_reports_top_block(self):
        # dim 8: the guard is index 7 only
        amps = np.zeros(8, dtype=complex)
        amps[7] = 0.5
        amps[0] = math.sqrt(0.75)
        assert guard_band_mass(FockVector(amps)) == pytest.approx(0.25)

    @pytest.mark.parametrize("dim, start", [(1, 0), (7, 6), (8, 7), (16, 14), (256, 224)])
    def test_guard_band_is_the_top_eighth(self, dim, start):
        # the top eighth of the indices, and at least one
        amps = np.zeros(dim)
        amps[start:] = 1.0
        assert guard_band_mass(FockVector(amps)) == dim - start
