import math
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from krylovgrowth.algebra import LiouvillianSpec, build_liouvillian
from krylovgrowth.bch import build_ladders
from krylovgrowth.coherent import closed_form_params, phi_series
from krylovgrowth.errors import DimensionMismatch
from krylovgrowth.fock import (
    FockVector,
    OperatorMatrix,
    TruncationConfig,
    evolve_grid,
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
        # the operator of each leading n x n block, n = 0 and 1 included
        op = band_operator(b, 9, np.random.default_rng(b))
        dense = op.to_dense()
        for n in range(10):
            stencil = OperatorMatrix(op.bands[:, :n]).stencil()
            assert stencil.shape == (2 * b + 1, n)
            for r in range(2 * b + 1):
                for i in range(n):
                    c = i + r - b
                    want = dense[i, c] if 0 <= c < n else 0.0
                    assert stencil[r, i] == want, (n, r, i)

    @pytest.mark.parametrize("b", [0, 1, 2])
    @pytest.mark.parametrize("kind", [float, complex])
    def test_product_is_the_per_diagonal_loop_bitwise(self, b, kind):
        # a vector supported on each prefix n of the levels, as a step of
        # the Lanczos recursion computes its product (windows of a store
        # padded with b zeros on each side); tobytes, so that signed zeros
        # count
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
            xn = np.where(np.arange(dim) < n, x, 0.0)
            want = per_diagonal_matvec(op.bands, xn).tobytes()
            store[1, b : b + dim] = xn
            assert (op.stencil() * windows[1]).sum(axis=0).tobytes() == want, n


def hw_generator(alpha, dim):
    return build_liouvillian(LiouvillianSpec(alpha, 0.0), TruncationConfig(dim=dim))


class TestEvolveState:
    def test_t0_identity(self):
        L = hw_generator(0.8, 32)
        (psi,) = evolve_grid(L, [0.0], vacuum(32))
        assert np.allclose(psi, vacuum(32).amplitudes, atol=1e-14)

    def test_poisson_distribution(self):
        # |<k|e^{i t alpha (a+ad)}|0>|^2 is Poisson with mean (alpha t)^2
        (psi,) = evolve_grid(hw_generator(1.0, 64), [0.5], vacuum(64))
        probs = np.abs(psi) ** 2
        lam = 0.25
        for k in range(3):
            expected = math.exp(-lam) * lam**k / math.factorial(k)
            assert probs[k] == pytest.approx(expected, abs=1e-8)

    def test_unitarity_and_group_property(self):
        # 0.7 (a + a^dag) + 0.3 (a^2 + (a^dag)^2)
        L = build_liouvillian(LiouvillianSpec(0.7, 0.6), TruncationConfig(dim=128))
        for psi in evolve_grid(L, [0.3, 0.9, 1.7], vacuum(128)):
            assert abs(FockVector(psi).norm_sq - 1.0) <= 1e-10
        (half,) = evolve_grid(L, [0.4], vacuum(128))
        (two_step,) = evolve_grid(L, [0.9], FockVector(half))
        (one_step,) = evolve_grid(L, [1.3], vacuum(128))
        assert np.max(np.abs(two_step - one_step)) <= 1e-9

    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (1.5, 0.25), (1.0, 0.0), (0.0, 1.0)])
    def test_amplitudes_match_closed_form_with_phases(self, alpha, beta):
        # the complex amplitudes, not only their moduli, at points the
        # truncation covers; (0.25, 1.5) at t = 1 is truncation-limited
        # (4.5e-7) and left out
        spec = LiouvillianSpec(alpha, beta)
        (psi,) = evolve_grid(build_liouvillian(spec, TruncationConfig(dim=256)), [0.5], vacuum(256))
        series = phi_series(closed_form_params(spec, 0.5), tol=1e-12)
        n = min(series.k_max + 1, len(psi))
        assert np.max(np.abs(psi[:n] - series.phi[:n])) <= 1e-12

    @pytest.mark.parametrize("t", [1e308, -1e308, math.inf, -math.inf])
    def test_overflowing_phase_names_its_time(self, t):
        # t * eigenvalue is beyond the float range: no all-NaN state; on a
        # grid, the first failing time in grid order is named, and the
        # times after it are evaluated without a warning
        L = build_liouvillian(LiouvillianSpec(1.0, 1.0), TruncationConfig(dim=32))
        with pytest.raises(OverflowError) as err:
            evolve_grid(L, [t], vacuum(32))
        assert err.value.t == t
        for grid in ([0.5, -0.0, t, 0.25, -t], [t, 1e308, 0.5]):
            with warnings.catch_warnings(), pytest.raises(OverflowError) as err:
                warnings.simplefilter("error")
                evolve_grid(L, grid, vacuum(32))
            assert err.value.t == t and f"t={t}" in str(err.value)

    def test_eigendecomposition_beyond_the_float_range_raises(self):
        # the bands are finite, but eigh returns infinite eigenvalues: that
        # is no phase overflow, so no time is named; a NaN time is still
        # rejected first
        L = build_liouvillian(LiouvillianSpec(1e307, 1.0), TruncationConfig(dim=256))
        assert np.isfinite(L.bands).all()
        with pytest.raises(ValueError, match="t=nan"):
            evolve_grid(L, [0.0, math.nan], vacuum(256))
        with warnings.catch_warnings(), pytest.raises(OverflowError) as err:
            warnings.simplefilter("error")
            evolve_grid(L, [0.0, 1.0], vacuum(256))
        assert str(err.value) == ("eigendecomposition of the 256-level operator "
                                  "is beyond the float range")
        assert not hasattr(err.value, "t")

    def test_rejects_a_nan_time(self):
        # a NaN time is no phase overflow: rejected before L is diagonalized,
        # wherever it stands in a grid
        L = hw_generator(0.8, 32)
        for grid in ([math.nan], [0.5, 1e308, math.nan], [-1.0, 0.0, 2.0, math.nan, 0.3]):
            with pytest.raises(ValueError, match="t=nan"):
                evolve_grid(L, grid, vacuum(32))
        assert "_eigh" not in vars(L)

    @pytest.mark.parametrize("dim", [32, 256])
    def test_grid_rows_are_the_per_time_products(self, dim):
        # each row against the per-time product in the eigenbasis, on an
        # unsorted grid with negative times, both zeros and 1e-300, for the
        # vacuum and a complex state, and against the time evolved alone
        L = build_liouvillian(LiouvillianSpec(1.0, 1.0), TruncationConfig(dim=dim))
        eigvals, eigvecs = np.linalg.eigh(L.to_dense())
        rng = np.random.default_rng(dim)
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        ts = [0.3, -0.0, -0.7, 1.5, 0.0, 1e-300, -1e-300, -1.2, 0.05, 2.0]
        for v0 in (vacuum(dim), FockVector(amps / np.linalg.norm(amps))):
            states = evolve_grid(L, ts, v0)
            assert states.shape == (len(ts), dim) and states.dtype == complex
            assert not states.flags.writeable
            for psi, t in zip(states, ts):
                want = eigvecs @ (np.exp(1j * t * eigvals) * (eigvecs.T @ v0.amplitudes))
                assert psi.tobytes() == want.tobytes()
                (one,) = evolve_grid(L, [t], v0)
                assert one.tobytes() == want.tobytes()
            assert evolve_grid(L, [], v0).shape == (0, dim)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, -math.inf)])
    def test_rejects_a_non_finite_state(self, bad):
        # before evolving: no phase overflow is reported for it
        L = hw_generator(0.8, 32)
        amps = np.zeros(32, dtype=complex)
        amps[0], amps[3] = 1.0, bad
        with pytest.raises(ValueError, match="finite"):
            evolve_grid(L, [0.5], FockVector(amps))
