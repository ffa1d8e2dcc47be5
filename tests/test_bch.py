import math

import numpy as np
import pytest

from krylovgrowth.algebra import LiouvillianSpec, QuadraticHamiltonian
from krylovgrowth.bch import apply_displacement_squeeze, decompose_exponential, to_rep4
from krylovgrowth.errors import DecompositionFailure
from krylovgrowth.coherent import DisplacementParams, closed_form_params
from krylovgrowth.fock import FockVector, TruncationConfig, evolve_state
from krylovgrowth.algebra import build_liouvillian


def random_quadratic(rng):
    vals = rng.normal(size=6) + 1j * rng.normal(size=6)
    return QuadraticHamiltonian(*vals)


class TestRep4:
    def test_zero_maps_to_zero(self):
        assert np.all(to_rep4(QuadraticHamiltonian()) == 0)

    def test_number_term_placement(self):
        ent = to_rep4(QuadraticHamiltonian(eta=1.0))
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1.0
        expected[2, 2] = -1.0
        assert np.array_equal(ent, expected)

    def test_full_placement(self):
        h = QuadraticHamiltonian(eta=1, delta=2, R_coef=3, L_coef=4, r_coef=5, l_coef=6)
        ent = to_rep4(h)
        assert ent[1, 0] == 5 and ent[1, 1] == 1 and ent[1, 2] == 6
        assert ent[2, 0] == -6 and ent[2, 1] == -8 and ent[2, 2] == -1
        assert ent[3, 0] == -4 and ent[3, 1] == -6 and ent[3, 2] == -5
        assert np.all(ent[0, :] == 0) and np.all(ent[:, 3] == 0)

    def test_lie_algebra_homomorphism(self):
        # rep([X, Y]) must equal [rep(X), rep(Y)]; verified operator-side at
        # dim large enough that truncation cannot touch the compared block
        rng = np.random.default_rng(23)
        cfg = TruncationConfig(dim=24)
        from krylovgrowth.algebra import hamiltonian_to_matrix

        for _ in range(4):
            hx, hy = random_quadratic(rng), random_quadratic(rng)
            X = hamiltonian_to_matrix(hx, cfg)
            Y = hamiltonian_to_matrix(hy, cfg)
            comm_op = X @ Y - Y @ X
            Rx, Ry = to_rep4(hx), to_rep4(hy)
            comm_rep = Rx @ Ry - Ry @ Rx
            # read the quadratic coefficients of the operator commutator back off
            # its matrix elements and map them through the representation
            eta = comm_op[1, 1] - comm_op[0, 0]
            delta = comm_op[0, 0] - 0.5 * eta
            R = comm_op[2, 0] / math.sqrt(2.0)
            L = comm_op[0, 2] / math.sqrt(2.0)
            r = comm_op[1, 0]
            l = comm_op[0, 1]
            rebuilt = to_rep4(
                QuadraticHamiltonian(eta=eta, delta=delta, R_coef=R, L_coef=L, r_coef=r, l_coef=l)
            )
            assert np.max(np.abs(rebuilt - comm_rep)) <= 1e-12


class TestClosedFormParams:
    def test_t0(self):
        p = closed_form_params(LiouvillianSpec(1.0, 1.0), 0.0)
        assert p.v == 0 and p.w == 0 and p.theta == 1

    def test_reference_point(self):
        p = closed_form_params(LiouvillianSpec(1.0, 1.0), 1.0)
        assert p.v == pytest.approx((1 - math.cosh(1)) + 1j * math.sinh(1), abs=1e-15)
        assert p.w == 1j
        assert abs(p.theta) == pytest.approx(1.0, abs=1e-15)

    def test_displacement_limit(self):
        p = closed_form_params(LiouvillianSpec(1.0, 0.0), 2.0)
        assert p.v == 2j and p.w == 0 and p.theta == 1

    def test_continuous_at_small_beta(self):
        limit = closed_form_params(LiouvillianSpec(1.0, 0.0), 1.0)
        near = closed_form_params(LiouvillianSpec(1.0, 1e-10), 1.0)
        assert abs(near.v - limit.v) <= 1e-9
        assert abs(near.theta - limit.theta) <= 1e-9


class TestDecomposeExponential:
    def test_pure_displacement(self):
        p = decompose_exponential(LiouvillianSpec(1.0, 0.0), 1.0)
        assert p.v == 1j and p.w == 0

    def test_pure_squeeze(self):
        p = decompose_exponential(LiouvillianSpec(0.0, 1.0), 1.0)
        assert abs(p.v) <= 1e-14
        assert p.w == pytest.approx(1j, abs=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_matches_closed_form(self, alpha, beta, t):
        spec = LiouvillianSpec(alpha, beta)
        got = decompose_exponential(spec, t)
        ref = closed_form_params(spec, t)
        assert abs(got.v - ref.v) <= 1e-10
        assert abs(got.w - ref.w) <= 1e-10
        assert abs(got.theta - ref.theta) <= 1e-10
        assert abs(got.s - ref.s) <= 1e-10

    @pytest.mark.parametrize("beta, t", [(1e-6, 1.0), (1e-4, 0.5), (0.5, 1e-6), (1.0, 1e-9)])
    def test_near_degenerate_regime(self, beta, t):
        # 1 - cosh and sinh(x) - x lose all digits here without the
        # cancellation-free forms; both routes must still agree
        spec = LiouvillianSpec(1.0, beta)
        got = decompose_exponential(spec, t)
        ref = closed_form_params(spec, t)
        dev = max(abs(got.v - ref.v), abs(got.w - ref.w), abs(got.theta - ref.theta))
        assert dev <= 1e-12

    def test_extracted_squeeze_is_imaginary(self):
        for t in (0.3, 1.1, 2.7):
            p = decompose_exponential(LiouvillianSpec(0.9, 0.7), t)
            assert abs(p.w.real) <= 1e-10
            assert abs(abs(p.theta) - 1.0) <= 1e-12

    def test_rejects_untrusted_norm(self):
        with pytest.raises(DecompositionFailure):
            decompose_exponential(LiouvillianSpec(1.0, 1.0), 60.0)


class TestStateLevelIdentity:
    @pytest.mark.parametrize("alpha, beta, t", [(1, 1, 1.0), (0.5, 1, 0.5), (1, 0.5, 2.0)])
    def test_displace_squeeze_vacuum_equals_evolution(self, alpha, beta, t):
        cfg = TruncationConfig(dim=256)
        spec = LiouvillianSpec(alpha, beta)
        psi_group = apply_displacement_squeeze(closed_form_params(spec, t), cfg)
        L = build_liouvillian(spec, cfg)
        psi_exact = evolve_state(L, t, FockVector.basis_state(256, 0), cfg)
        assert np.max(np.abs(psi_group.amplitudes - psi_exact.amplitudes)) <= 1e-8

    def test_operators_are_unitary(self):
        # truncated generators are anti-Hermitian, so D(v) S(w) keeps the norm of |0>
        cfg = TruncationConfig(dim=64)
        for v, w in [(0.7 - 0.2j, 0.4j), (0.7 - 0.2j, 0.0), (0.0, 0.4j)]:
            psi = apply_displacement_squeeze(DisplacementParams(v=v, w=w), cfg)
            assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)
