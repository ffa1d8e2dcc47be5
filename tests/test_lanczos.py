import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from krylovgrowth import lanczos
from krylovgrowth.algebra import EDGE_LEAK_TOL, LiouvillianSpec, build_liouvillian, chain_states
from krylovgrowth.coherent import closed_form_params, complexity_closed, sl2r_profile
from krylovgrowth.errors import Breakdown
from krylovgrowth.fock import FockVector, OperatorMatrix, TruncationConfig, evolve_grid
from krylovgrowth.lanczos import (
    KrylovChain,
    chain_complexity,
    lanczos_tridiagonalize,
    propagate_chain,
)


def vacuum(dim):
    return FockVector.basis_state(dim, 0)


def hw_generator(alpha, dim):
    return build_liouvillian(LiouvillianSpec(alpha, 0.0), TruncationConfig(dim=dim))


def sl2r_generator(beta, dim):
    return build_liouvillian(LiouvillianSpec(0.0, beta), TruncationConfig(dim=dim))


def chain_matrix(chain):
    """The m x m chain matrix as a sum of np.diag terms: diagonal a,
    hoppings b on both off-diagonals."""
    return np.diag(chain.a) + np.diag(chain.b, 1) + np.diag(chain.b, -1)


def full_length_hoppings(A, q0, m):
    """b_1..b_{m-1} of the Krylov sequence of ``q0`` under the dense matrix
    ``A``: every step over all dim entries, with two full Gram-Schmidt
    passes."""
    Q = np.zeros((m, len(q0)))
    Q[0] = q0
    hops = []
    for j in range(1, m):
        w = A @ Q[j - 1]
        for _ in range(2):
            w -= Q[:j].T @ (Q[:j] @ w)
        hops.append(np.linalg.norm(w))
        Q[j] = w / hops[-1]
    return np.array(hops)


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

    def test_sl2r_odd_sector_chain(self):
        # seed |1> spans the odd SL(2,R) module, weight h = 3/4:
        # b_n = beta sqrt(n (n + 1/2)), a_n = 0, K = 2h sinh^2(beta t),
        # the complexity of sl2r_profile at that weight
        beta, dim = 0.7, 1024
        seed = FockVector.basis_state(dim, 1)
        chain = lanczos_tridiagonalize(sl2r_generator(beta, dim), seed, 200)
        n = np.arange(1, 200)
        expected = beta * np.sqrt(n * (n + 0.5))
        assert np.max(np.abs(chain.b - expected) / expected) <= 1e-14
        assert np.all(chain.a == 0.0)
        ts = [0.5, 1.0, 1.5]
        K = chain_complexity(propagate_chain(chain, ts))
        assert K == pytest.approx([sl2r_profile(0.75, beta, t)[1] for t in ts], rel=1e-13)

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
        number = OperatorMatrix(np.arange(8.0)[np.newaxis])  # a^dag a, diagonal
        with pytest.raises(Breakdown):
            lanczos_tridiagonalize(number, FockVector.basis_state(8, 3), 4)

    @pytest.mark.parametrize("scale", [0.5, 1j], ids=["unnormalized", "complex"])
    def test_rejects_bad_seed(self, scale):
        bad = FockVector(scale * vacuum(8).amplitudes)
        with pytest.raises(ValueError):
            lanczos_tridiagonalize(hw_generator(1.0, 8), bad, 4)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_a_non_finite_seed(self, bad):
        # a nan norm is no normalized one: ValueError, not a late overflow
        amps = vacuum(8).amplitudes.copy()
        amps[2] = bad
        with pytest.raises(ValueError, match="normalized"):
            lanczos_tridiagonalize(hw_generator(1.0, 8), FockVector(amps), 4)

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

    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (0.25, 1.5), (1.5, 0.0), (0.0, 1.0)])
    def test_chain_does_not_depend_on_dim(self, alpha, beta):
        # Krylov vector j lives on levels 0..b*j: the truncation is bookkeeping
        chains = [
            lanczos_tridiagonalize(
                build_liouvillian(LiouvillianSpec(alpha, beta), TruncationConfig(dim=dim)),
                vacuum(dim), 128,
            )
            for dim in (512, 4096)
        ]
        small, large = chains
        assert small.m == large.m == 128
        assert small.a.tobytes() == large.a.tobytes()
        assert small.b.tobytes() == large.b.tobytes()
        assert small.residual == large.residual

    @pytest.mark.parametrize("seed_kind, m", [
        pytest.param(kind, m, id=kind if m == 60 else f"{kind}-switch")
        for m in (60, 120) for kind in ("spread", "level7")
    ])
    def test_general_seed_matches_full_length_lanczos(self, seed_kind, m):
        # at m = 120 the chain meets dim from step 98 (spread) or 97
        # (level7) on: every step takes the local pass, and the Gram check
        # decides whether the full projection reruns the chain
        dim = 200
        L = build_liouvillian(LiouvillianSpec(0.8, 1.1), TruncationConfig(dim=dim))
        amps = np.zeros(dim)
        if seed_kind == "spread":
            amps[:6] = np.random.default_rng(3).standard_normal(6)
            amps /= np.linalg.norm(amps)
        else:
            amps[7] = 1.0
        top = int(np.flatnonzero(amps)[-1])
        chain = lanczos_tridiagonalize(L, FockVector(amps), m)
        ref_b = full_length_hoppings(L.to_dense(), amps, m)

        assert chain.m == m
        assert np.max(np.abs(chain.b / ref_b - 1.0)) <= 1e-12
        Qc = chain.basis
        assert Qc.shape == (m, dim)
        assert np.max(np.abs(Qc @ Qc.T - np.eye(m))) <= 1e-10
        for j in range(m):
            assert not Qc[j, top + L.bandwidth * j + 1:].any()

    @pytest.mark.parametrize("m", [128, 500])
    def test_discrete_spectrum_chain_is_recomputed(self, m):
        # n + 0.3 (a + a^dag) + 0.1 (a^2 + a^dag^2) has a discrete spectrum,
        # and its Ritz values converge along the chain: with local passes
        # alone the basis ends 0.56 off orthonormal and b_n is off by O(1).
        # The Gram check rejects that chain, and the full projection at every
        # step recomputes it.
        dim = 1024
        k = np.arange(dim, dtype=float)
        bands = np.zeros((3, dim))
        bands[2] = k
        bands[1, 1:] = 0.3 * np.sqrt(k[1:])
        bands[0, 2:] = 0.1 * np.sqrt(k[2:] - 1) * np.sqrt(k[2:])
        L = OperatorMatrix(bands)
        chain = lanczos_tridiagonalize(L, vacuum(dim), m)
        assert chain.m == m
        Q = chain.basis
        assert np.max(np.abs(Q @ Q.T - np.eye(m))) <= 1e-14
        ref_b = full_length_hoppings(L.to_dense(), vacuum(dim).amplitudes.real, m)
        assert np.max(np.abs(chain.b / ref_b - 1.0)) <= 1e-12

    def test_chain_off_orthonormal_at_the_truncation_is_recomputed(self, caplog):
        # the vacuum's 120-site chain meets dim 200 from step 100 on; with
        # the local pass on every step it ends 1.0e-10 off orthonormal, so
        # the Gram check reruns it once, with the full projection throughout
        caplog.set_level(logging.DEBUG, logger="krylovgrowth")
        dim, m = 200, 120
        L = build_liouvillian(LiouvillianSpec(0.8, 1.1), TruncationConfig(dim=dim))
        chain = lanczos_tridiagonalize(L, vacuum(dim), m)
        (record,) = caplog.records
        assert record.getMessage().startswith("Gram check of the 120-site chain off by ")
        full = lanczos._recurrence(L, vacuum(dim).amplitudes.real, m, False)
        assert chain.a.tobytes() == full.a.tobytes() and chain.b.tobytes() == full.b.tobytes()

    def test_second_pass_runs_only_where_the_first_cancels(self, monkeypatch):
        # at Krylov-space exhaustion the candidate is rounding noise, and the
        # first pass cancels almost all of it; on a long chain far from
        # exhaustion, removing the second pass changes no bit
        L = build_liouvillian(LiouvillianSpec(1.0, 1.0), TruncationConfig(dim=16))
        exhausted = lanczos_tridiagonalize(L, vacuum(16), 16)
        L512 = build_liouvillian(LiouvillianSpec(1.0, 1.0), TruncationConfig(dim=512))
        long = lanczos_tridiagonalize(L512, vacuum(512), 128)
        monkeypatch.setattr(lanczos, "_TWICE_IS_ENOUGH", 0.0)  # never a second pass
        once = lanczos_tridiagonalize(L, vacuum(16), 16)
        long_once = lanczos_tridiagonalize(L512, vacuum(512), 128)
        assert exhausted.m == once.m == 16
        assert exhausted.residual != once.residual
        assert long.a.tobytes() == long_once.a.tobytes()
        assert long.b.tobytes() == long_once.b.tobytes()
        assert long.residual == long_once.residual

    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (1.5, 0.01), (0.01, 1.5), (1.5, 0.25)])
    def test_long_chain_basis_is_orthonormal(self, alpha, beta):
        # the local passes alone hold these bases, with no rerun: the worst
        # is 2.2e-15, at (0.01, 1.5)
        dim, m = 1024, 512
        L = build_liouvillian(LiouvillianSpec(alpha, beta), TruncationConfig(dim=dim))
        Q = lanczos_tridiagonalize(L, vacuum(dim), m).basis
        assert np.max(np.abs(Q @ Q.T - np.eye(m))) <= 1e-14

    def test_chain_validation(self):
        # m = len(a) = 3 sites take 2 positive hoppings
        for b in ([1.0, -1.0], [1.0], [1.0, 1.0, 1.0]):
            with pytest.raises(ValueError):
                KrylovChain(a=np.zeros(3), b=np.array(b), residual=0.0, basis=np.eye(3))


class TestPropagation:
    @pytest.mark.parametrize("hopping, K", [
        (lambda n: 1.0 * np.sqrt(n), lambda t: t ** 2),
        (lambda n: 0.7 * np.sqrt(n * (n - 0.5)), lambda t: 0.5 * math.sinh(0.7 * t) ** 2),
        (lambda n: 0.7 * np.sqrt(n * (n + 0.5)), lambda t: 1.5 * math.sinh(0.7 * t) ** 2),
    ], ids=["alpha sqrt(n)", "beta sqrt(n(n-1/2))", "beta sqrt(n(n+1/2))"])
    def test_exact_chains(self, hopping, K):
        # chains built from known hoppings, a_n = 0, independent of
        # lanczos_tridiagonalize: Heisenberg-Weyl K = alpha^2 t^2, and the
        # SL(2,R) modules h = 1/4 and 3/4, K = 2h sinh^2(beta t)
        m = 128
        chain = KrylovChain(a=np.zeros(m), b=hopping(np.arange(1, m)), residual=0.0,
                            basis=np.eye(m))
        ts = [0.25, 0.5, 1.0, 1.5]
        got = chain_complexity(propagate_chain(chain, ts))
        assert got == pytest.approx([K(t) for t in ts], rel=1e-12, abs=0)

    def test_initial_condition(self):
        chain = lanczos_tridiagonalize(hw_generator(1.0, 64), vacuum(64), 30)
        phi0 = propagate_chain(chain, [0.0])[0]
        assert phi0[0] == 1.0
        assert np.all(phi0[1:] == 0)
        assert chain_complexity(phi0) == 0.0

    def test_hw_chain_gives_poisson(self):
        chain = lanczos_tridiagonalize(hw_generator(1.0, 256), vacuum(256), 80)
        phi = propagate_chain(chain, [0.7])[0]
        lam = 0.49
        probs = np.abs(phi) ** 2
        for n in range(8):
            assert probs[n] == pytest.approx(
                math.exp(-lam) * lam**n / math.factorial(n), abs=1e-8
            )
        assert chain_complexity(phi) == pytest.approx(lam, abs=1e-8)

    def test_norm_preserved(self):
        cfg = TruncationConfig(dim=256)
        L = build_liouvillian(LiouvillianSpec(1.0, 1.0), cfg)
        chain = lanczos_tridiagonalize(L, vacuum(256), 120)
        for phi in propagate_chain(chain, [0.0, 0.5, 1.0, 1.5]):
            assert abs(np.sum(np.abs(phi) ** 2) - 1.0) <= 1e-8

    def test_leaking_rows_are_returned_edge_included(self):
        # 3.0 and 4.0 leak out of the 6-site chain: their rows come back, each
        # the eigenbasis product of that time, unit norm, with the edge mass
        # left for chain_states to judge
        chain = lanczos_tridiagonalize(hw_generator(1.0, 64), vacuum(64), 6)
        ts = [0.1, 4.0, 3.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = propagate_chain(chain, ts)
        evals, evecs = np.linalg.eigh(chain_matrix(chain))
        for t, phi in zip(ts, rows):
            want = evecs.astype(complex) @ (np.exp(1j * t * evals) * evecs[0])
            assert np.max(np.abs(phi - want)) <= 1e-14
            assert abs(np.sum(np.abs(phi) ** 2) - 1.0) <= 1e-10
        assert np.abs(rows[1:, -1]).min() ** 2 > EDGE_LEAK_TOL

    def test_overflowing_phase_is_an_overflow_at_its_time(self):
        # t * eigenvalue overflows: the row would be nan, and the
        # exponential raises for it, without a warning
        chain = lanczos_tridiagonalize(hw_generator(1.0, 64), vacuum(64), 20)
        with warnings.catch_warnings(), pytest.raises(OverflowError, match="t=5e\\+307") as err:
            warnings.simplefilter("error")
            propagate_chain(chain, [0.0, 5e307, 1e308])
        assert err.value.t == 5e307

    @pytest.mark.parametrize("grid, error", [
        ([0.0, 1e308, 4.0], OverflowError),
    ], ids=["overflow first"])
    def test_error_is_that_of_the_first_failing_time(self, grid, error):
        # 4.0 leaks out of the 6-site chain, which is no error here (see
        # test_leaking_rows_are_returned_edge_included), and 1e308 overflows
        # its phases
        chain = lanczos_tridiagonalize(hw_generator(1.0, 64), vacuum(64), 6)
        with warnings.catch_warnings(), pytest.raises(error) as err:
            warnings.simplefilter("error")
            propagate_chain(chain, grid)
        assert err.value.t == grid[1]

    @pytest.mark.parametrize("grid", [[float("nan")], [3.0, float("nan"), 0.5]])
    def test_nan_time_is_rejected_before_any_time_is_evolved(self, grid):
        # 3.0 would leak out of the 6-site chain; NaN is not a phase overflow
        chain = lanczos_tridiagonalize(hw_generator(1.0, 64), vacuum(64), 6)
        with pytest.raises(ValueError, match="t=nan"):
            propagate_chain(chain, grid)

    def test_negative_times_mirror_positive(self):
        # the chain matrix is real, so phi(-t) = conj(phi(t)): the same K
        L = build_liouvillian(LiouvillianSpec(1.0, 1.0), TruncationConfig(dim=256))
        chain = lanczos_tridiagonalize(L, vacuum(256), 128)
        ts = np.linspace(0.05, 1.5, 30)
        forward = propagate_chain(chain, ts)
        backward = propagate_chain(chain, -ts)
        for pf, pb in zip(forward, backward):
            assert chain_complexity(pb) == chain_complexity(pf)

    def test_rows_are_the_single_time_results(self):
        # one row per grid time, computed as that time alone would be
        L = build_liouvillian(LiouvillianSpec(1.0, 1.0), TruncationConfig(dim=256))
        chain = lanczos_tridiagonalize(L, vacuum(256), 64)
        ts = [0.3, 0.0, -0.7, 1.1, -0.0, -0.3]
        phis = propagate_chain(chain, ts)
        assert phis.shape == (len(ts), chain.m) and phis.dtype == complex
        assert not phis.flags.writeable
        for i, t in enumerate(ts):
            assert phis[i].tobytes() == propagate_chain(chain, [t])[0].tobytes()
        assert propagate_chain(chain, []).shape == (0, chain.m)

    @pytest.mark.parametrize("m, scale", [
        (2, 1e-5), (6, 0.05), (128, 1.0), (384, 2.0),
        ([0.3, -0.0, 1.5, 0.0], 1.0), ([-0.0] * 4, 0.05),
    ], ids=["2-1e-05", "6-0.05", "128-1.0", "384-2.0", "signed zeros", "all -0.0"])
    def test_rows_are_the_per_time_products(self, m, scale, monkeypatch):
        # each row against its own matrix-vector product in the eigenbasis of
        # the np.diag chain matrix, on an unsorted grid with negative times
        # and both zeros; a zero time gives delta_{n0} exactly. The last two
        # chains are given by their diagonal, with signed zeros, and a hopping
        # of 1e-300 that all but splits them in two; the one matrix that is
        # diagonalized is the np.diag sum bitwise, signed zeros included
        if isinstance(m, int):
            dim = 2 * m + 64
            L = build_liouvillian(LiouvillianSpec(1.0, 1.0), TruncationConfig(dim=dim))
            chain = lanczos_tridiagonalize(L, vacuum(dim), m)
        else:
            chain = KrylovChain(a=np.array(m), b=np.array([0.5, 1e-300, 2.0]), residual=0.0,
                                basis=np.eye(4))
        ts = [scale * t for t in (0.3, -0.0, -0.7, 1.0, 0.0, -0.3, 0.05, -1.0, 0.6)]
        evals, evecs = np.linalg.eigh(chain_matrix(chain))
        seen = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a.tobytes()) or eigh(a))
        phis = propagate_chain(chain, ts)
        assert seen == [chain_matrix(chain).tobytes()]
        for phi, t in zip(phis, ts):
            if t == 0:
                want = np.zeros(chain.m, dtype=complex)
                want[0] = 1.0
            else:
                want = evecs.astype(complex) @ (np.exp(1j * t * evals) * evecs[0])
            assert phi.tobytes() == want.tobytes()


class TestChainComplexity:
    def test_point_mass_at_origin(self):
        assert chain_complexity(np.array([1.0, 0.0, 0.0], dtype=complex)) == 0.0

    def test_rows_at_once_are_the_rows_alone(self):
        L = build_liouvillian(LiouvillianSpec(1.0, 1.0), TruncationConfig(dim=256))
        phis = propagate_chain(lanczos_tridiagonalize(L, vacuum(256), 128), np.linspace(-1, 1.5, 41))
        Ks = chain_complexity(phis)
        assert Ks.shape == (41,)
        assert Ks.tobytes() == np.array([chain_complexity(phi) for phi in phis]).tobytes()
        assert type(chain_complexity(phis[3])) is float

    @pytest.mark.parametrize("alpha, beta, T, ratio", [
        (1.0, 0.0, 2.0, 1.0),
        (0.5, 0.0, 2.5, 1.0),
        (0.0, 0.5, 2.0, 0.5),
        (0.0, 1.0, 1.0, 0.5),
    ])
    def test_exact_ratio_to_the_closed_form_at_the_pure_limits(self, alpha, beta, T, ratio):
        # K_chain = K where the number basis is the Krylov basis (beta = 0),
        # K / 2 where the Krylov vectors are |2n> (alpha = 0); beta t <= 1
        # keeps the edge mass of the chain negligible
        spec = LiouvillianSpec(alpha, beta)
        ts = np.linspace(0.0, T, 41)
        _, rows = chain_states(spec, ts)
        K = [ratio * complexity_closed(closed_form_params(spec, t)) for t in ts]
        assert chain_complexity(rows) == pytest.approx(K, rel=1e-12, abs=0)

    def test_equivalence_with_projected_evolution(self):
        L = build_liouvillian(LiouvillianSpec(1.0, 1.0), TruncationConfig(dim=256))
        chain = lanczos_tridiagonalize(L, vacuum(256), 120)
        ts = [0.5, 1.0]
        for phi, psi in zip(propagate_chain(chain, ts), evolve_grid(L, ts, vacuum(256))):
            proj = chain.basis @ psi
            K_proj = float(np.sum(np.arange(chain.m) * np.abs(proj) ** 2))
            assert chain_complexity(phi) == pytest.approx(K_proj, abs=1e-9)

    def test_quadratic_start(self):
        # K(t) = b_1^2 t^2 + O(t^3): fitted quadratic coefficient on [0, 0.01]
        cfg = TruncationConfig(dim=128)
        L = build_liouvillian(LiouvillianSpec(1.0, 1.0), cfg)
        chain = lanczos_tridiagonalize(L, vacuum(128), 30)
        ts = np.linspace(0.0, 0.01, 11)
        Ks = [chain_complexity(phi) for phi in propagate_chain(chain, ts)]
        coef = np.polyfit(ts, Ks, 2)[0]
        assert coef == pytest.approx(chain.b[0] ** 2, rel=1e-3)
        assert Ks[0] <= 1e-15


def reference_chain(alpha, beta, m, dps):
    """a_0..a_{m-1} and b_1..b_{m-1} of the chain from the vacuum, by the plain
    three-term Lanczos recursion on the number basis in mpmath at ``dps``
    digits. Krylov vector j lives on levels 0..2j, so no truncation enters;
    without reorthogonalization the working precision alone keeps the
    recursion accurate, which the dps-80 comparison below checks."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        levels = 2 * m + 1
        # L[k, k-1] = alpha sqrt(k) and L[k, k-2] = (beta/2) sqrt(k (k-1))
        r1 = np.array([mpmath.mpf(alpha) * mpmath.sqrt(k) for k in range(levels)], dtype=object)
        r2 = np.array([mpmath.mpf(beta) / 2 * mpmath.sqrt(k * (k - 1)) for k in range(levels)],
                      dtype=object)
        q_prev, q = None, np.array([mpmath.mpf(1)], dtype=object)
        a, b = [], []
        for j in range(m):
            n = len(q)
            w = np.array([mpmath.mpf(0)] * (n + 2), dtype=object)
            w[1:n + 1] += r1[1:n + 1] * q
            w[2:n + 2] += r2[2:n + 2] * q
            w[:n - 1] += r1[1:n] * q[1:]
            if n > 2:
                w[:n - 2] += r2[2:n] * q[2:]
            a.append(np.dot(q, w[:n]))
            w[:n] -= a[-1] * q
            if q_prev is not None:
                w[:n - 2] -= b[-1] * q_prev
            if j == m - 1:
                break
            b.append(mpmath.sqrt(np.dot(w, w)))
            q_prev, q = q, w / b[-1]
        return np.array(a), np.array(b)


REFERENCE_POINTS = [(1.0, 1.0), (1.5, 0.01), (0.01, 1.5), (1.5, 0.25), (0.3, 0.3)]


@pytest.fixture(scope="module")
def reference_chains():
    return {p: reference_chain(*p, 128, 50) for p in REFERENCE_POINTS}


class TestReferenceChain:
    def test_reference_is_converged_in_precision(self, reference_chains):
        # (1.5, 0.25) is the point where the float chain is least accurate
        a50, b50 = reference_chains[(1.5, 0.25)]
        a80, b80 = reference_chain(1.5, 0.25, 128, 80)
        assert max(abs(b50 / b80 - 1)) <= 1e-40
        assert max(abs(a50 - a80)) <= 1e-40 * max(b80)

    def test_pure_displacement_hoppings(self):
        # b_n = alpha sqrt(n) and a_n = 0 at beta = 0
        a, b = reference_chain(0.5, 0.0, 20, 50)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            exact = [mpmath.sqrt(n) / 2 for n in range(1, 20)]
        assert all(abs(b - exact) <= 1e-45)
        assert not any(a)

    @pytest.mark.parametrize("alpha, beta", REFERENCE_POINTS)
    def test_float_chain_matches_reference(self, alpha, beta, reference_chains):
        a_ref, b_ref = (x.astype(float) for x in reference_chains[(alpha, beta)])
        L = build_liouvillian(LiouvillianSpec(alpha, beta), TruncationConfig(dim=512))
        chain = lanczos_tridiagonalize(L, vacuum(512), 128)
        # worst measured, at (1.5, 0.25): 1.3e-13 relative in b, 2.3e-13 max(b) in a
        assert np.max(np.abs(chain.b / b_ref - 1.0)) <= 1e-12
        assert np.max(np.abs(chain.a - a_ref)) <= 1e-12 * np.max(b_ref)
