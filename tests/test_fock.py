import json
import math

import numpy as np
import pytest

from krylovgrowth.errors import DimensionMismatch, NonHermitianInput, TruncationOverflow
from krylovgrowth.fock import (
    FockVector,
    OperatorMatrix,
    TruncationConfig,
    build_ladders,
    evolve_state,
    guard_band_mass,
    inner,
    matrix_bandwidth,
)


def vacuum(dim):
    return FockVector.basis_state(dim, 0)


class TestTruncationConfig:
    def test_defaults(self):
        cfg = TruncationConfig()
        assert cfg.dim == 256
        assert cfg.tail_tolerance == 1e-10
        assert cfg.guard_size == 32
        assert cfg.guard_start == 224

    @pytest.mark.parametrize(
        "kwargs", [dict(dim=0), dict(tail_tolerance=0.0), dict(guard_fraction=0.0), dict(guard_fraction=1.0)]
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            TruncationConfig(**kwargs)


class TestLadders:
    def test_dim2_annihilation(self):
        a, _ = build_ladders(TruncationConfig(dim=2))
        assert np.array_equal(a.to_dense(), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_entry_is_sqrt_n(self):
        a, ad = build_ladders(TruncationConfig(dim=4))
        assert a.to_dense()[2, 3] == pytest.approx(math.sqrt(3), abs=1e-15)
        assert np.array_equal(ad.to_dense(), a.to_dense().conj().T)

    def test_rejects_dim_below_2(self):
        with pytest.raises(ValueError):
            build_ladders(TruncationConfig(dim=1))

    def test_commutator_is_identity_off_guard(self):
        dim = 64
        a, ad = build_ladders(TruncationConfig(dim=dim))
        comm = a.to_dense() @ ad.to_dense() - ad.to_dense() @ a.to_dense()
        dev = np.abs(comm - np.eye(dim))
        assert dev[:63, :63].max() <= 1e-12
        # the defect is confined to the last row/column
        assert dev[63, 63] == pytest.approx(dim, abs=1e-9)

    def test_bandwidth_bookkeeping(self):
        cfg = TruncationConfig(dim=16)
        a, ad = build_ladders(cfg)
        assert a.bandwidth == 1
        assert (a @ a).bandwidth == 2
        assert OperatorMatrix.from_entries(a.to_dense() + ad.to_dense()).bandwidth == 1
        sq = a.to_dense() @ a.to_dense() + ad.to_dense() @ ad.to_dense()
        assert OperatorMatrix.from_entries(sq).bandwidth == 2

    def test_storage_sets_bandwidth(self):
        # bands must be (2b+1, dim); zero outer diagonals and slots outside
        # the matrix do not count towards the bandwidth
        with pytest.raises(DimensionMismatch):
            OperatorMatrix(3, np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            OperatorMatrix(3, np.ones((3, 4)))
        bands = np.zeros((5, 4), dtype=complex)
        bands[0, :2] = 7.0  # outside the matrix
        bands[2] = 1.0
        op = OperatorMatrix(4, bands)
        assert op.bandwidth == 0
        assert op.bands.dtype == np.float64
        assert np.array_equal(op.to_dense(), np.eye(4))


class TestInner:
    def test_orthonormal_basis(self):
        assert inner(vacuum(8), vacuum(8)) == 1
        assert inner(vacuum(8), FockVector.basis_state(8, 1)) == 0

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = FockVector(6, rng.normal(size=6) + 1j * rng.normal(size=6))
            v = FockVector(6, rng.normal(size=6) + 1j * rng.normal(size=6))
            assert inner(u, v) == pytest.approx(inner(v, u).conjugate(), abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inner(vacuum(4), vacuum(5))


def hw_generator(alpha, dim):
    a, ad = build_ladders(TruncationConfig(dim=dim))
    return OperatorMatrix.from_entries(alpha * (a.to_dense() + ad.to_dense()))


class TestEvolveState:
    def test_t0_identity(self):
        cfg = TruncationConfig(dim=32)
        L = hw_generator(0.8, 32)
        psi = evolve_state(L, 0.0, vacuum(32), cfg)
        assert np.allclose(psi.amplitudes, vacuum(32).amplitudes, atol=1e-14)

    def test_poisson_distribution(self):
        # |<k|e^{i t alpha (a+ad)}|0>|^2 is Poisson with mean (alpha t)^2
        cfg = TruncationConfig(dim=64)
        psi = evolve_state(hw_generator(1.0, 64), 0.5, vacuum(64), cfg)
        probs = psi.probabilities()
        lam = 0.25
        for k in range(3):
            expected = math.exp(-lam) * lam**k / math.factorial(k)
            assert probs[k] == pytest.approx(expected, abs=1e-8)

    def test_unitarity_and_group_property(self):
        cfg = TruncationConfig(dim=128)
        a, ad = build_ladders(cfg)
        L = OperatorMatrix.from_entries(
            0.7 * (a.to_dense() + ad.to_dense())
            + 0.3 * (a.to_dense() @ a.to_dense() + ad.to_dense() @ ad.to_dense())
        )
        for t in (0.3, 0.9, 1.7):
            psi = evolve_state(L, t, vacuum(128), cfg)
            assert abs(psi.norm_sq - 1.0) <= 1e-10
        two_step = evolve_state(L, 0.9, evolve_state(L, 0.4, vacuum(128), cfg), cfg)
        one_step = evolve_state(L, 1.3, vacuum(128), cfg)
        assert np.max(np.abs(two_step.amplitudes - one_step.amplitudes)) <= 1e-9

    def test_rejects_non_hermitian(self):
        cfg = TruncationConfig(dim=8)
        a, _ = build_ladders(cfg)
        with pytest.raises(NonHermitianInput):
            evolve_state(a, 1.0, vacuum(8), cfg)

    def test_truncation_overflow_when_dim_too_small(self):
        cfg = TruncationConfig(dim=32)
        a, ad = build_ladders(cfg)
        L = OperatorMatrix.from_entries(
            0.5 * (a.to_dense() @ a.to_dense() + ad.to_dense() @ ad.to_dense())
        )
        with pytest.raises(TruncationOverflow) as err:
            evolve_state(L, 2.0, vacuum(32), cfg)
        assert err.value.context["dim"] == 32

    def test_guard_band_mass_reports_top_block(self):
        cfg = TruncationConfig(dim=8)  # guard = index 7 only
        amps = np.zeros(8, dtype=complex)
        amps[7] = 0.5
        amps[0] = math.sqrt(0.75)
        assert guard_band_mass(FockVector(8, amps), cfg) == pytest.approx(0.25)


class TestSerialization:
    def test_json_pairs_roundtrip(self):
        vec = FockVector(3, np.array([1.0, 0.5j, -0.25 + 0.125j]))
        text = vec.to_json_pairs()
        assert json.loads(text) == [[1.0, 0.0], [0.0, 0.5], [-0.25, 0.125]]
        back = FockVector.from_json_pairs(text)
        assert np.array_equal(back.amplitudes, vec.amplitudes)


def test_matrix_bandwidth_dense_and_diagonal():
    assert matrix_bandwidth(np.eye(4)) == 0
    assert matrix_bandwidth(np.ones((4, 4))) == 3
