import math

import numpy as np
import pytest

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
        cfg = TruncationConfig()
        assert cfg.dim == 256
        assert cfg.tail_tolerance == 1e-10
        assert cfg.guard_size == 32
        assert cfg.guard_start == 224

    @pytest.mark.parametrize(
        "kwargs",
        [dict(dim=0), dict(tail_tolerance=0.0), dict(dim=-3), dict(tail_tolerance=float("nan"))],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            TruncationConfig(**kwargs)


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
        # bands must be (b+1, dim): at least one row, one column per index
        for bad in (np.ones(3), np.ones((0, 3)), np.ones((3, 4))):
            with pytest.raises(DimensionMismatch):
                OperatorMatrix(3, bad)
        assert OperatorMatrix(3, np.ones((2, 3))).bandwidth == 1


def hw_generator(alpha, dim):
    return build_liouvillian(LiouvillianSpec(alpha, 0.0), TruncationConfig(dim=dim))


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
        # 0.7 (a + a^dag) + 0.3 (a^2 + (a^dag)^2)
        L = build_liouvillian(LiouvillianSpec(0.7, 0.6), cfg)
        for t in (0.3, 0.9, 1.7):
            psi = evolve_state(L, t, vacuum(128), cfg)
            assert abs(psi.norm_sq - 1.0) <= 1e-10
        two_step = evolve_state(L, 0.9, evolve_state(L, 0.4, vacuum(128), cfg), cfg)
        one_step = evolve_state(L, 1.3, vacuum(128), cfg)
        assert np.max(np.abs(two_step.amplitudes - one_step.amplitudes)) <= 1e-9

    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (1.5, 0.25), (1.0, 0.0), (0.0, 1.0)])
    def test_amplitudes_match_closed_form_with_phases(self, alpha, beta):
        # the complex amplitudes, not only their moduli, at points the
        # truncation covers; (0.25, 1.5) at t = 1 is truncation-limited
        # (4.5e-7) and left out
        cfg = TruncationConfig(dim=256)
        spec = LiouvillianSpec(alpha, beta)
        psi = evolve_state(build_liouvillian(spec, cfg), 0.5, vacuum(256), cfg)
        series = phi_series(closed_form_params(spec, 0.5), tol=1e-12)
        n = min(series.k_max + 1, cfg.dim)
        assert np.max(np.abs(psi.amplitudes[:n] - series.phi[:n])) <= 1e-12

    def test_truncation_overflow_when_dim_too_small(self):
        cfg = TruncationConfig(dim=32)
        L = build_liouvillian(LiouvillianSpec(0.0, 1.0), cfg)
        with pytest.raises(TruncationOverflow) as err:
            evolve_state(L, 2.0, vacuum(32), cfg)
        assert err.value.context["dim"] == 32

    def test_guard_band_mass_reports_top_block(self):
        cfg = TruncationConfig(dim=8)  # guard = index 7 only
        amps = np.zeros(8, dtype=complex)
        amps[7] = 0.5
        amps[0] = math.sqrt(0.75)
        assert guard_band_mass(FockVector(8, amps), cfg) == pytest.approx(0.25)
