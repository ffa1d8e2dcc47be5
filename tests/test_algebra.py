import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from krylovgrowth import algebra, coherent
from krylovgrowth.algebra import (
    CHAIN_SIZES,
    EDGE_LEAK_TOL,
    ORACLE_TOLERANCE,
    LiouvillianSpec,
    build_liouvillian,
    chain_states,
    oracle_states,
)
from krylovgrowth.bch import (
    QuadraticHamiltonian,
    build_generators,
    build_ladders,
    commutator,
    hamiltonian_to_matrix,
)
from krylovgrowth.coherent import amplitude_deviation, closed_form_params, compare_oracle
from krylovgrowth.errors import Breakdown, DimensionMismatch, EdgeLeak
from krylovgrowth.fock import FockVector, OperatorMatrix, TruncationConfig, evolve_grid
from krylovgrowth.lanczos import lanczos_tridiagonalize, propagate_chain

# The dim-16 generators obey their relations off the last two rows and
# columns, where the truncation cuts the quadratic ladder products.
GS = 14


def stencil_product(op, x):
    """A @ x as a Lanczos step forms it: the stencil times the windows of a
    copy of x padded with b zeros on each side."""
    n, b = len(x), op.bandwidth
    padded = np.zeros(n + 2 * b, dtype=x.dtype)
    padded[b : b + n] = x
    return (op.stencil() * sliding_window_view(padded, n)).sum(axis=0)


@pytest.fixture(scope="module")
def gens16():
    return build_generators(TruncationConfig(dim=16))


class TestGenerators:
    def test_all_labels_present(self, gens16):
        assert set(gens16) == {"a", "a_dagger", "P", "G", "M", "H", "K", "D",
                               "L0", "L_plus1", "L_minus1", "number"}

    def test_central_element_is_identity_off_guard(self, gens16):
        dev = np.abs(gens16["M"] - np.eye(16))[:GS, :GS]
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
            op = OperatorMatrix(bands)
            dense = op.to_dense()
            assert op.bandwidth == b
            assert dense.dtype == np.float64
            assert np.array_equal(dense, dense.T), b
            for i in range(dim):
                for j in range(i, dim):
                    want = bands[b + i - j, j] if j - i <= b else 0.0
                    assert dense[i, j] == want, (b, i, j)
            x = rng.normal(size=dim)
            z = x + 1j * rng.normal(size=dim)
            for v in (x, z):
                for n in (1, 4, dim):
                    vn = np.where(np.arange(dim) < n, v, 0.0)
                    y = stencil_product(op, vn)
                    assert np.max(np.abs(y - dense @ vn)) <= 1e-12, (b, n)
            # a vector that is zero from n - b on: the product is that of the
            # leading n x n block, bit for bit, and nothing lies beyond n
            n = 6
            padded = np.where(np.arange(dim) < n - b, x, 0.0)
            full = stencil_product(op, padded)
            block = OperatorMatrix(bands[:, :n])
            assert full[:n].tobytes() == stencil_product(block, padded[:n]).tobytes(), b
            assert not full[n:].any(), b


class TestCommutatorTable:
    """The defining relations, checked off the last two rows and columns at 1e-10."""

    def test_heisenberg_weyl_line(self, gens16):
        lhs = commutator(gens16["P"], gens16["G"])
        assert np.max(np.abs((lhs + gens16["M"])[:GS, :GS])) <= 1e-10

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
    def test_sl2r_and_cross_lines(self, gens16, x, y, target, coef):
        lhs = commutator(gens16[x], gens16[y])
        dev = np.abs(lhs - coef * gens16[target])[:GS, :GS]
        assert dev.max() <= 1e-10

    @pytest.mark.parametrize(
        "x, y, target, coef",
        [
            ("L0", "L_plus1", "L_plus1", -1.0),
            ("L0", "L_minus1", "L_minus1", 1.0),
            ("L_plus1", "L_minus1", "L0", 2.0),
        ],
    )
    def test_weight_sector_relations(self, gens16, x, y, target, coef):
        lhs = commutator(gens16[x], gens16[y])
        dev = np.abs(lhs - coef * gens16[target])[:GS, :GS]
        assert dev.max() <= 1e-10

    @pytest.mark.parametrize(
        "x, y, target, coef",
        [("H", "G", "P", 1.0), ("K", "P", "G", -1.0)],
    )
    def test_semidirect_action(self, gens16, x, y, target, coef):
        # translations/boosts transform under the quadratic sector
        lhs = commutator(gens16[x], gens16[y])
        dev = np.abs(lhs - coef * gens16[target])[:GS, :GS]
        assert dev.max() <= 1e-10

    def test_ladder_commutator(self, gens16):
        lhs = commutator(gens16["a"], gens16["a_dagger"])
        assert np.max(np.abs(lhs - np.eye(16))[:GS, :GS]) <= 1e-10

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

    def test_coefficient_beyond_the_float_range_raises(self):
        # alpha sqrt(k) overflows from k = 32 on; the first such coefficient
        # is named, with no numpy warning
        with warnings.catch_warnings(), pytest.raises(OverflowError) as err:
            warnings.simplefilter("error")
            build_liouvillian(LiouvillianSpec(3.2e307, 0.0), TruncationConfig(dim=64))
        assert str(err.value) == "coefficient <31|L|32> = inf is beyond the float range"


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shapes of the matrices np.linalg.eigh is called on."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    return calls


GRID = np.linspace(0.0, 2.0, 41).tolist()


class TestOracleStates:
    @pytest.mark.parametrize("dim", [4, 64])
    def test_rows_are_evolve_grid_at_dim(self, dim, eigh_calls):
        spec, ts = LiouvillianSpec(1.0, 1.0), [0.0, 0.5, -1.25, 2.0]
        states, estimates = oracle_states(spec, ts, dim)
        # the estimate reuses the one eigendecomposition of the evolution
        assert eigh_calls == [(dim, dim)]
        want = evolve_grid(build_liouvillian(spec, TruncationConfig(dim=dim)), ts,
                           FockVector.basis_state(dim, 0))
        assert states.tobytes() == want.tobytes() and not states.flags.writeable
        assert estimates.shape == (len(ts),)

    @pytest.mark.parametrize("dim", [256, 512])
    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (0.0, 1.0), (0.25, 1.5)])
    def test_estimate_tracks_the_true_error(self, alpha, beta, dim):
        # the reference is the oracle at 2N, so the true error is within the
        # measured one plus the reference's own. Wherever the estimate at N
        # is within ten times the bar, it must cover that sum, the
        # reference's estimate standing for its error: there that estimate
        # is at its rounding floor (the 2N states agree with 4N ones to
        # 6.5e-15): at (0.25, 1.5), 2N = 512, it reads 7.7e-14 on one BLAS
        # thread and 1.02e-13 on two, so it is added rather than held to a
        # fixed bar. Each grid reaches times the dim cannot hold. The
        # smallest margin of the estimate over the 2-norm error is 2.1x, at
        # N = 256, and over the sum 1.9x.
        spec = LiouvillianSpec(alpha, beta)
        states, estimates = oracle_states(spec, GRID, dim)
        wide, wide_estimates = oracle_states(spec, GRID, 2 * dim)
        errors = np.hypot(np.linalg.norm(states - wide[:, :dim], axis=1),
                          np.linalg.norm(wide[:, dim:], axis=1))
        assert estimates.max() > ORACLE_TOLERANCE
        resolved = errors > 1e-13
        near = resolved & (estimates <= 10 * ORACLE_TOLERANCE)
        assert near.any()
        assert np.all(estimates[near] >= errors[near] + wide_estimates[near])
        assert np.all(estimates[resolved] >= errors[resolved])

    @pytest.mark.parametrize("dim", [256, 512])
    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (0.0, 1.0), (0.25, 1.5), (1.0, 20.0)])
    def test_estimate_is_its_converged_quadrature(self, alpha, beta, dim, monkeypatch):
        # a trapezoid sum, within 1% of one on nodes 16 times as dense
        spec = LiouvillianSpec(alpha, beta)
        _, estimates = oracle_states(spec, GRID, dim)
        monkeypatch.setattr(algebra, "_NODES_PER_UNIT_T", 16 * algebra._NODES_PER_UNIT_T)
        _, refined = oracle_states(spec, GRID, dim)
        resolved = refined > 1e-13
        assert resolved.any()
        assert np.all(np.abs(estimates - refined)[resolved] <= 0.01 * refined[resolved])

    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0)])
    def test_estimate_at_t0_is_rounding(self, alpha, beta):
        # an integral over no time
        _, estimates = oracle_states(LiouvillianSpec(alpha, beta), [0.0, -0.0], 256)
        assert estimates.max() <= 1e-14

    def test_nan_time_raises_before_any_eigh(self, eigh_calls):
        with pytest.raises(ValueError, match="t=nan"):
            oracle_states(LiouvillianSpec(1.0, 1.0), [0.5, math.nan], 64)
        assert eigh_calls == []

    def test_long_grid_is_integrated_in_blocks(self):
        # 64 000 nodes to t = 200: taken all at once, their phases alone
        # would take eight times the bytes of the states
        spec, ts = LiouvillianSpec(0.1, 0.1), np.linspace(0.0, 200.0, 4001).tolist()
        oracle_states(spec, ts[:2], 256)
        tracemalloc.start()
        try:
            states, estimates = oracle_states(spec, ts, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * states.nbytes
        assert np.all(np.diff(estimates) >= 0) and estimates[-1] == 2.0

    @pytest.mark.parametrize("alpha, beta", [(1e-5, 0.0), (0.0, 0.0)])
    def test_past_the_last_node_the_integral_goes_on_at_the_a_priori_rate(
            self, alpha, beta, monkeypatch):
        # at most _MAX_NODES node spacings, however long the grid: they
        # reach t = _MAX_NODES / (320 max(|alpha|, |beta|)), here 625 at
        # alpha = 1e-5, so that t = 1e3 lies past the last node
        monkeypatch.setattr(algebra, "_MAX_NODES", 2)
        ts = [0.0, 1.0, 1e3, 1e150]
        _, estimates = oracle_states(LiouvillianSpec(alpha, beta), ts, 64)
        rate = abs(alpha) * math.sqrt(64)
        scale = max(abs(alpha), abs(beta))
        horizon = algebra._MAX_NODES / (algebra._NODES_PER_UNIT_T * scale) if scale else 0.0
        assert estimates[1] <= 1e-13
        assert estimates[2] == pytest.approx(estimates[1] + rate * (1e3 - horizon), rel=1e-3,
                                             abs=1e-13)
        assert estimates[3] == (2.0 if rate else 0.0)

    def test_estimate_depends_on_the_scaled_time_alone(self):
        # L(c alpha, c beta) = c L(alpha, beta), and the nodes follow that
        # scale: at a power of two c, the estimates at t / c are those at t
        ts = np.linspace(0.0, 2.0, 41)
        _, unit = oracle_states(LiouvillianSpec(1.0, 1.0), ts, 64)
        _, scaled = oracle_states(LiouvillianSpec(1 / 64, 1 / 64), 64 * ts, 64)
        assert unit.max() > ORACLE_TOLERANCE
        assert np.allclose(scaled, unit, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha", [1e-300, 5e-324])
    def test_tiny_scale_integrates_to_a_late_time(self, alpha):
        # the node spacing 1/(320 alpha) reaches t = 1e300 in a few nodes, and
        # at the subnormal alpha it overflows to inf: one node per gap
        ts = [0.0, 1.0, 1e300]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, estimates = oracle_states(LiouvillianSpec(alpha, 0.0), ts, 64)
        assert np.all(estimates <= 1e-13)


@pytest.fixture
def chain_sizes(monkeypatch):
    """The site counts chain_states asks lanczos_tridiagonalize for, and the
    dim of the L it passes with each."""
    calls = []

    def spy(L, seed, m):
        calls.append((m, L.dim))
        return lanczos_tridiagonalize(L, seed, m)

    monkeypatch.setattr(algebra, "lanczos_tridiagonalize", spy)
    return calls


@pytest.fixture
def short_ladder(monkeypatch, chain_sizes):
    """chain_states on a ladder of 6-site chains and then 8-site ones, whose
    sizes the ``chain_sizes`` spy records."""
    monkeypatch.setattr(algebra, "CHAIN_SIZES", (6, 8))
    return chain_sizes


class TestChainStates:
    def test_first_size_is_the_128_site_chain_at_any_dim(self, chain_sizes):
        # a benchmark-like input, which the 128-site chain holds: bitwise
        # that chain built at a dim far past its reach
        spec, ts = LiouvillianSpec(0.8, 0.6), np.linspace(0.0, 2.0, 41).tolist()
        chain, rows = chain_states(spec, ts)
        assert chain_sizes == [(128, 288)]
        L = build_liouvillian(spec, TruncationConfig(dim=1152))
        want = lanczos_tridiagonalize(L, FockVector.basis_state(1152, 0), 128)
        assert chain.a.tobytes() == want.a.tobytes() and chain.b.tobytes() == want.b.tobytes()
        assert rows.tobytes() == propagate_chain(want, ts).tobytes()

    def test_sizes_climb_until_the_edge_holds(self, chain_sizes):
        chain, rows = chain_states(LiouvillianSpec(1.0, 1.0), np.linspace(0.0, 2.0, 41).tolist())
        # L is built at the first multiple of 32 above 2m
        assert chain_sizes == [(128, 288), (256, 544), (512, 1056)]
        assert chain.m == 512 and rows.shape == (41, 512)
        assert abs(rows[:, -1]).max() ** 2 <= EDGE_LEAK_TOL

    def test_the_largest_chain_leaks_unchanged(self, chain_sizes):
        with pytest.raises(EdgeLeak) as err:
            chain_states(LiouvillianSpec(1.0, 1.0), [0.0, 3.0, 6.0, 9.0, 12.0])
        assert [m for m, _ in chain_sizes] == list(CHAIN_SIZES)
        assert err.value.t == 3.0 and err.value.context["m"] == 1024
        assert err.value.context["edge_mass"] > EDGE_LEAK_TOL

    def test_breakdown_from_the_first_size_has_no_t(self, chain_sizes):
        with pytest.raises(Breakdown) as err:
            chain_states(LiouvillianSpec(0.0, 0.0), [0.0, 0.5, 1.0])
        assert chain_sizes == [(128, 288)]
        assert not hasattr(err.value, "t") and "t" not in err.value.context

    def test_l_has_2m_plus_32_levels_at_every_size(self, monkeypatch):
        # rows whose last site holds everything leak at every size and make
        # chain_states try them all; another dim would change the chains in
        # their last bits (BLAS rounds a dot product by its length)
        widths = []

        def spy(L, seed, m):
            chain = lanczos_tridiagonalize(L, seed, m)
            widths.append((m, chain.basis.shape[1]))
            return chain

        def leak(chain, t_grid):
            return np.ones((len(t_grid), chain.m), dtype=complex)

        monkeypatch.setattr(algebra, "lanczos_tridiagonalize", spy)
        monkeypatch.setattr(algebra, "propagate_chain", leak)
        with pytest.raises(EdgeLeak):
            chain_states(LiouvillianSpec(1.0, 1.0), [0.0, 1.0])
        assert widths == [(m, 2 * m + 32) for m in CHAIN_SIZES]

    def test_edge_leak_names_its_time(self, short_ladder):
        with pytest.raises(EdgeLeak) as err:
            chain_states(LiouvillianSpec(1.0, 0.0), [0.0, 3.0])
        assert short_ladder == [(6, 44), (8, 48)]
        assert err.value.t == 3.0 and err.value.context["m"] == 8

    def test_first_leaking_time_in_grid_order(self, short_ladder):
        # 3.0 and 4.0 both leak out of the 8-site chain; the error names the
        # first in the grid, with the edge mass that time alone gives, and
        # every time, 1e300 included, is evaluated without a warning
        spec, ts = LiouvillianSpec(1.0, 0.0), [0.0, 0.1, 4.0, 0.2, 3.0, 1e300]
        with warnings.catch_warnings(), pytest.raises(EdgeLeak) as err:
            warnings.simplefilter("error")
            chain_states(spec, ts)
        L = build_liouvillian(spec, TruncationConfig(dim=48))
        alone = propagate_chain(lanczos_tridiagonalize(L, FockVector.basis_state(48, 0), 8), [4.0])
        assert err.value.t == 4.0
        assert err.value.context == {"m": 8, "edge_mass": float(abs(alone[0, -1]) ** 2)}

    @pytest.mark.parametrize("alpha, ts, t", [
        (1e200, [0.0, 1.0], None),  # a hopping beyond the float range
        (1.0, [0.0, 5e307, 1e308], 5e307),  # a phase t * eigenvalue
        # a phase after a time that leaks out of every chain: the exponential
        # checks every time before chain_states reads an edge mass
        (1.0, [0.0, 4.0, 1e308], 1e308),
    ])
    def test_overflow_from_the_first_size(self, alpha, ts, t, chain_sizes):
        with pytest.raises(OverflowError) as err:
            chain_states(LiouvillianSpec(alpha, 1.0), ts)
        assert chain_sizes == [(128, 288)] and getattr(err.value, "t", None) == t


class TestCompareOracle:
    # at (1, 1) and dim 256 the estimates read 5.4e-15, 7.7e-14, 4.3e-8,
    # 1.2e-4 and 0.23: the last three times are over the bar
    SPEC, TS = LiouvillianSpec(1.0, 1.0), [0.5, 1.0, 1.25, 1.5, 2.0]

    def test_rows_are_the_oracle_states_rows(self, eigh_calls):
        result = compare_oracle(self.SPEC, self.TS, 256)
        # one eigendecomposition, shared by the rows and their estimates
        assert eigh_calls == [(256, 256)]
        states, estimates = oracle_states(self.SPEC, self.TS, 256)
        assert result.dim == 256
        assert result.states.tobytes() == states.tobytes()
        assert result.estimates.tobytes() == estimates.tobytes()
        assert not (result.states.flags.writeable or result.estimates.flags.writeable)
        assert result.checked_t == (0.5, 1.0) and result.skipped_t == (1.25, 1.5, 2.0)
        assert result.max_deviation == max(
            amplitude_deviation(closed_form_params(self.SPEC, t), psi)
            for t, psi in zip(self.TS[:2], states))

    def test_a_time_at_exactly_the_bar_is_checked(self, monkeypatch):
        _, estimates = oracle_states(self.SPEC, self.TS, 256)
        monkeypatch.setattr(coherent, "ORACLE_TOLERANCE", float(estimates[2]))
        result = compare_oracle(self.SPEC, self.TS, 256)
        assert result.checked_t == (0.5, 1.0, 1.25) and result.skipped_t == (1.5, 2.0)

    def test_each_skip_is_logged_once(self, caplog):
        caplog.set_level(logging.DEBUG, logger="krylovgrowth")
        compare_oracle(self.SPEC, self.TS, 256)
        # the series of the checked times log their own escalations
        skips = [record for record in caplog.records
                 if record.getMessage().startswith("oracle comparison skips")]
        assert [record.getMessage().split(": ")[0] for record in skips] == [
            f"oracle comparison skips t={t!r} at dim 256" for t in (1.25, 1.5, 2.0)]
        assert all(record.levelno == logging.DEBUG for record in skips)

    def test_nothing_checked_reads_zero(self):
        # dim 16 holds neither time: nothing is compared, and no dim is tried after it
        result = compare_oracle(self.SPEC, [1.0, 1.5], 16)
        assert result.checked_t == () and result.skipped_t == (1.0, 1.5)
        assert result.max_deviation == 0.0


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
