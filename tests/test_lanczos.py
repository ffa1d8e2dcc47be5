import math
import tracemalloc

import numpy as np
import pytest

from krylovgrowth.algebra import LiouvillianSpec, build_liouvillian
from krylovgrowth.errors import Breakdown, EdgeLeak
from krylovgrowth.fock import FockVector, OperatorMatrix, TruncationConfig, evolve_state
from krylovgrowth.lanczos import (
    ChainWavefunction,
    KrylovChain,
    chain_complexity,
    lanczos_tridiagonalize,
    project_onto_chain,
    propagate_chain,
)


def vacuum(dim):
    return FockVector.basis_state(dim, 0)


def hw_generator(alpha, dim):
    return build_liouvillian(LiouvillianSpec(alpha, 0.0), TruncationConfig(dim=dim))


def sl2r_generator(beta, dim):
    return build_liouvillian(LiouvillianSpec(0.0, beta), TruncationConfig(dim=dim))


class TestTridiagonalize:
    def test_hw_hoppings_are_sqrt_n(self):
        chain = lanczos_tridiagonalize(hw_generator(1.0, 256), vacuum(256), 25)
        expected = np.sqrt(np.arange(1, 25))
        assert np.max(np.abs(chain.b[:24] - expected)) <= 1e-9
        assert np.max(np.abs(chain.a)) <= 1e-10  # odd-moment symmetry

    def test_sl2r_hoppings_and_zero_diagonal(self):
        chain = lanczos_tridiagonalize(sl2r_generator(1.0, 256), vacuum(256), 20)
        assert chain.b[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        expected = np.array([math.sqrt(n * (n - 0.5)) for n in range(1, 20)])
        assert np.max(np.abs(chain.b - expected)) <= 1e-9
        assert np.max(np.abs(chain.a)) <= 1e-10

    def test_mixed_generator_first_coefficients(self):
        cfg = TruncationConfig(dim=256)
        L = build_liouvillian(LiouvillianSpec(1.0, 1.0), cfg)
        chain = lanczos_tridiagonalize(L, vacuum(256), 40)
        # b_1^2 = <0|L^2|0> = alpha^2 + beta^2/2
        assert chain.b[0] == pytest.approx(math.sqrt(1.5), abs=1e-12)
        assert chain.a[0] == pytest.approx(0.0, abs=1e-14)
        # the mixed generator has <0|L^3|0> = 2 alpha^2 beta, hence a nonzero
        # diagonal: a_1 = 2 alpha^2 beta / (alpha^2 + beta^2/2)
        assert chain.a[1] == pytest.approx(4.0 / 3.0, abs=1e-10)

    def test_projected_matrix_is_tridiagonal(self):
        cfg = TruncationConfig(dim=128)
        L = build_liouvillian(LiouvillianSpec(0.7, 0.9), cfg)
        chain = lanczos_tridiagonalize(L, vacuum(128), 30)
        Q = chain.basis
        T = Q @ L.to_dense() @ Q.T
        off = T - np.diag(np.diag(T)) - np.diag(np.diag(T, 1), 1) - np.diag(np.diag(T, -1), -1)
        assert np.max(np.abs(off)) <= 1e-10
        assert np.max(np.abs(np.diag(T, 1) - chain.b)) <= 1e-10
        assert np.max(np.abs(Q @ Q.T - np.eye(30))) <= 1e-10

    def test_finite_krylov_space_terminates_normally(self):
        # the two-photon generator from the vacuum spans only even states:
        # 8 Krylov vectors inside dim=16
        chain = lanczos_tridiagonalize(sl2r_generator(1.0, 16), vacuum(16), 12)
        assert chain.m == 8
        assert len(chain.b) == 7
        assert chain.residual <= 1e-12

    def test_breakdown_on_eigenvector_seed(self):
        number = OperatorMatrix(8, np.arange(8.0)[np.newaxis])  # a^dag a, diagonal
        with pytest.raises(Breakdown):
            lanczos_tridiagonalize(number, FockVector.basis_state(8, 3), 4)

    @pytest.mark.parametrize("scale", [0.5, 1j], ids=["unnormalized", "complex"])
    def test_rejects_bad_seed(self, scale):
        bad = FockVector(8, scale * vacuum(8).amplitudes)
        with pytest.raises(ValueError):
            lanczos_tridiagonalize(hw_generator(1.0, 8), bad, 4)

    def test_large_dim_needs_no_dense_matrix(self):
        # a dense complex L alone would take 268 MB at dim 4096
        dim = 4096
        tracemalloc.start()
        try:
            L = build_liouvillian(LiouvillianSpec(1.0, 1.0), TruncationConfig(dim=dim))
            chain = lanczos_tridiagonalize(L, vacuum(dim), 128)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert chain.m == 128
        assert chain.basis.dtype == np.float64

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            KrylovChain(a=np.zeros(3), b=np.array([1.0, -1.0]), m=3, residual=0.0,
                        basis=np.eye(3))


class TestPropagation:
    def test_initial_condition(self):
        chain = lanczos_tridiagonalize(hw_generator(1.0, 64), vacuum(64), 30)
        wf0 = propagate_chain(chain, [0.0])[0]
        assert wf0.phi[0] == 1.0
        assert np.all(wf0.phi[1:] == 0)
        assert chain_complexity(wf0) == 0.0

    def test_hw_chain_gives_poisson(self):
        chain = lanczos_tridiagonalize(hw_generator(1.0, 256), vacuum(256), 80)
        wf = propagate_chain(chain, [0.7])[0]
        lam = 0.49
        probs = np.abs(wf.phi) ** 2
        for n in range(8):
            assert probs[n] == pytest.approx(
                math.exp(-lam) * lam**n / math.factorial(n), abs=1e-8
            )
        assert chain_complexity(wf) == pytest.approx(lam, abs=1e-8)

    def test_norm_preserved(self):
        cfg = TruncationConfig(dim=256)
        L = build_liouvillian(LiouvillianSpec(1.0, 1.0), cfg)
        chain = lanczos_tridiagonalize(L, vacuum(256), 120)
        for wf in propagate_chain(chain, [0.0, 0.5, 1.0, 1.5]):
            assert abs(np.sum(np.abs(wf.phi) ** 2) - 1.0) <= 1e-8

    def test_edge_leak_raises(self):
        chain = lanczos_tridiagonalize(hw_generator(1.0, 64), vacuum(64), 6)
        with pytest.raises(EdgeLeak) as err:
            propagate_chain(chain, [0.0, 3.0])
        assert err.value.t == 3.0

    def test_negative_times_mirror_positive(self):
        # the chain matrix is real, so phi(-t) = conj(phi(t)): the same K
        L = build_liouvillian(LiouvillianSpec(1.0, 1.0), TruncationConfig(dim=256))
        chain = lanczos_tridiagonalize(L, vacuum(256), 128)
        ts = np.linspace(0.05, 1.5, 30)
        forward = propagate_chain(chain, ts)
        backward = propagate_chain(chain, -ts)
        for wf, wb in zip(forward, backward):
            assert wb.t == -wf.t
            assert chain_complexity(wb) == chain_complexity(wf)


class TestChainComplexity:
    def test_point_mass_at_origin(self):
        wf = ChainWavefunction(t=0.0, phi=np.array([1.0, 0.0, 0.0], dtype=complex))
        assert chain_complexity(wf) == 0.0

    def test_sl2r_weight_quarter_complexity(self):
        chain = lanczos_tridiagonalize(sl2r_generator(1.0, 512), vacuum(512), 100)
        wf = propagate_chain(chain, [1.0])[0]
        assert chain_complexity(wf) == pytest.approx(0.5 * math.sinh(1.0) ** 2, abs=1e-6)

    def test_equivalence_with_projected_evolution(self):
        cfg = TruncationConfig(dim=256)
        L = build_liouvillian(LiouvillianSpec(1.0, 1.0), cfg)
        chain = lanczos_tridiagonalize(L, vacuum(256), 120)
        wfs = propagate_chain(chain, [0.5, 1.0])
        for wf in wfs:
            psi = evolve_state(L, wf.t, vacuum(256), cfg)
            proj = project_onto_chain(chain, psi)
            K_proj = float(np.sum(np.arange(chain.m) * np.abs(proj) ** 2))
            assert chain_complexity(wf) == pytest.approx(K_proj, abs=1e-9)

    def test_quadratic_start(self):
        # K(t) = b_1^2 t^2 + O(t^3): fitted quadratic coefficient on [0, 0.01]
        cfg = TruncationConfig(dim=128)
        L = build_liouvillian(LiouvillianSpec(1.0, 1.0), cfg)
        chain = lanczos_tridiagonalize(L, vacuum(128), 30)
        ts = np.linspace(0.0, 0.01, 11)
        Ks = [chain_complexity(wf) for wf in propagate_chain(chain, list(ts))]
        coef = np.polyfit(ts, Ks, 2)[0]
        assert coef == pytest.approx(chain.b[0] ** 2, rel=1e-3)
        assert Ks[0] <= 1e-15
