import math

import numpy as np
import pytest

from krylovgrowth.algebra import (
    GENERATOR_LABELS,
    LiouvillianSpec,
    QuadraticHamiltonian,
    build_generators,
    build_liouvillian,
    commutator,
    hamiltonian_to_matrix,
)
from krylovgrowth.errors import DimensionMismatch
from krylovgrowth.fock import OperatorMatrix, TruncationConfig, build_ladders


@pytest.fixture(scope="module")
def cfg16():
    return TruncationConfig(dim=16)


@pytest.fixture(scope="module")
def gens16(cfg16):
    return build_generators(cfg16)


class TestGenerators:
    def test_all_labels_present(self, gens16):
        assert set(gens16) == set(GENERATOR_LABELS)

    def test_central_element_is_identity_off_guard(self, gens16, cfg16):
        gs = cfg16.guard_start
        dev = np.abs(gens16["M"] - np.eye(16))[:gs, :gs]
        assert dev.max() <= 1e-12

    def test_bandwidths(self, gens16):
        # zero outside |i - j| <= width, nonzero on diagonal +width or -width
        widths = {"P": 1, "G": 1, "M": 0, "H": 2, "K": 2, "D": 2,
                  "L_plus1": 2, "L_minus1": 2, "L0": 0, "number": 0}
        for label, width in widths.items():
            X = gens16[label]
            assert not np.triu(X, width + 1).any() and not np.tril(X, -width - 1).any(), label
            assert np.diagonal(X, width).any() or np.diagonal(X, -width).any(), label

    def test_rejects_small_dim(self):
        with pytest.raises(ValueError):
            build_generators(TruncationConfig(dim=4))

    def test_banded_matvec_and_hermiticity_match_dense(self):
        # OperatorMatrix built from real symmetric band arrays of bandwidth
        # 0-2 against its own dense form, which is symmetric (Hermitian)
        dim = 9
        rng = np.random.default_rng(5)
        for b in (0, 1, 2):
            bands = rng.normal(size=(b + 1, dim))
            op = OperatorMatrix(dim, bands)
            dense = op.to_dense()
            assert op.bandwidth == b
            assert dense.dtype == np.float64
            assert np.array_equal(dense, dense.T), b
            for i in range(dim):
                for j in range(i, dim):
                    want = bands[b + i - j, j] if j - i <= b else 0.0
                    assert dense[i, j] == want, (b, i, j)
            x = rng.normal(size=dim)
            assert np.max(np.abs(op.matvec(x) - dense @ x)) <= 1e-12, b
            z = x + 1j * rng.normal(size=dim)
            assert np.max(np.abs(op.matvec(z) - dense @ z)) <= 1e-12, b


class TestCommutatorTable:
    """The defining relations, checked off the guard band at 1e-10."""

    def test_heisenberg_weyl_line(self, gens16, cfg16):
        lhs = commutator(gens16["P"], gens16["G"])
        gs = cfg16.guard_start
        assert np.max(np.abs((lhs + gens16["M"])[:gs, :gs])) <= 1e-10

    @pytest.mark.parametrize(
        "x, y, target, coef",
        [
            ("D", "H", "H", -2.0),
            ("D", "K", "K", 2.0),
            ("H", "K", "D", 1.0),
            ("D", "P", "P", -1.0),
            ("D", "G", "G", 1.0),
        ],
    )
    def test_sl2r_and_cross_lines(self, gens16, cfg16, x, y, target, coef):
        lhs = commutator(gens16[x], gens16[y])
        gs = cfg16.guard_start
        dev = np.abs(lhs - coef * gens16[target])[:gs, :gs]
        assert dev.max() <= 1e-10

    @pytest.mark.parametrize(
        "x, y, target, coef",
        [
            ("L0", "L_plus1", "L_plus1", -1.0),
            ("L0", "L_minus1", "L_minus1", 1.0),
            ("L_plus1", "L_minus1", "L0", 2.0),
        ],
    )
    def test_weight_sector_relations(self, gens16, cfg16, x, y, target, coef):
        lhs = commutator(gens16[x], gens16[y])
        gs = cfg16.guard_start
        dev = np.abs(lhs - coef * gens16[target])[:gs, :gs]
        assert dev.max() <= 1e-10

    @pytest.mark.parametrize(
        "x, y, target, coef",
        [("H", "G", "P", 1.0), ("K", "P", "G", -1.0)],
    )
    def test_semidirect_action(self, gens16, cfg16, x, y, target, coef):
        # translations/boosts transform under the quadratic sector
        lhs = commutator(gens16[x], gens16[y])
        gs = cfg16.guard_start
        dev = np.abs(lhs - coef * gens16[target])[:gs, :gs]
        assert dev.max() <= 1e-10

    def test_ladder_commutator(self, gens16, cfg16):
        lhs = commutator(gens16["a"], gens16["a_dagger"])
        gs = cfg16.guard_start
        assert np.max(np.abs(lhs - np.eye(16))[:gs, :gs]) <= 1e-10

    def test_antisymmetry(self, gens16):
        z = commutator(gens16["H"], gens16["H"])
        assert np.max(np.abs(z)) == 0.0

    def test_dimension_mismatch(self, gens16):
        other = build_generators(TruncationConfig(dim=8))
        with pytest.raises(DimensionMismatch):
            commutator(gens16["H"], other["K"])


class TestLiouvillian:
    def test_alpha_only_tridiagonal(self):
        cfg = TruncationConfig(dim=8)
        L = build_liouvillian(LiouvillianSpec(1.0, 0.0), cfg)
        assert L.bandwidth == 1
        assert L.to_dense()[0, 1] == pytest.approx(1.0)
        assert L.to_dense()[1, 0] == pytest.approx(1.0)

    def test_beta_only_two_photon_entry(self):
        cfg = TruncationConfig(dim=8)
        L = build_liouvillian(LiouvillianSpec(0.0, 1.0), cfg)
        # <2|(a^dag)^2|0> = sqrt(2), times beta/2
        assert L.to_dense()[0, 2] == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
        assert L.to_dense()[2, 0] == pytest.approx(math.sqrt(2) / 2, abs=1e-15)

    def test_mixed_is_pentadiagonal_hermitian(self):
        cfg = TruncationConfig(dim=32)
        L = build_liouvillian(LiouvillianSpec(1.0, 1.0), cfg)
        assert L.bandwidth == 2
        dense = L.to_dense()
        assert np.array_equal(dense, dense.T)

    @pytest.mark.parametrize("dim", [4, 5, 8, 64])
    @pytest.mark.parametrize("alpha, beta", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, -0.7)])
    def test_bands_are_the_ladder_polynomial(self, dim, alpha, beta):
        a, ad = build_ladders(TruncationConfig(dim=dim))
        dense = alpha * (a + ad) + 0.5 * beta * (a @ a + ad @ ad)
        L = build_liouvillian(LiouvillianSpec(alpha, beta), TruncationConfig(dim=dim))
        b = 1 if beta == 0 else 2
        assert L.bands.shape == (b + 1, dim)
        assert L.bands.dtype == np.float64
        # upper symmetric-band layout, and the unused slots hold zeros
        for r in range(b):
            assert not L.bands[r, : b - r].any()
        for i in range(dim):
            for j in range(dim):
                stored = L.bands[b - abs(i - j), max(i, j)] if abs(i - j) <= b else 0.0
                assert abs(stored - dense[i, j]) <= 1e-14, (i, j)
        assert np.array_equal(L.to_dense(), dense)

    def test_rejects_nonfinite_spec(self):
        with pytest.raises(ValueError):
            LiouvillianSpec(float("nan"), 1.0)


class TestQuadraticHamiltonian:
    def test_liouvillian_as_quadratic(self):
        cfg = TruncationConfig(dim=16)
        h = QuadraticHamiltonian(R_coef=0.5, L_coef=0.5, r_coef=1.0, l_coef=1.0)
        built = hamiltonian_to_matrix(h, cfg)
        ref = build_liouvillian(LiouvillianSpec(1.0, 1.0), cfg)
        assert np.max(np.abs(built - ref.to_dense())) <= 1e-14

    def test_number_term_diagonal(self):
        cfg = TruncationConfig(dim=8)
        built = hamiltonian_to_matrix(QuadraticHamiltonian(eta=1.0), cfg)
        assert np.allclose(np.diag(built), np.arange(8) + 0.5)
        assert np.array_equal(built, np.diag(np.diag(built)))

    def test_random_hermitian_instance(self):
        rng = np.random.default_rng(11)
        cfg = TruncationConfig(dim=12)
        for _ in range(4):
            R = complex(rng.normal(), rng.normal())
            r = complex(rng.normal(), rng.normal())
            h = QuadraticHamiltonian(
                eta=rng.normal(), delta=rng.normal(),
                R_coef=R, L_coef=R.conjugate(), r_coef=r, l_coef=r.conjugate(),
            )
            mat = hamiltonian_to_matrix(h, cfg)
            assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
