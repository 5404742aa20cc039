import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tentspec import plmap, poly, spectral
from tentspec.markov import MarkovPartition, analytic_partition, interval_lengths, tent_chain
from tentspec.transfer import (
    DegenerateCell,
    DensityVector,
    NonPositiveNorm,
    evolve_density,
    fit_decay_rate,
    invariant_density,
    markov_operator,
    ulam_matrix,
)


def indicator_density(op, predicate):
    coeffs = np.array([1.0 if predicate(lo, hi) else 0.0 for lo, hi in op.partition.intervals()])
    f = DensityVector(op.partition, coeffs)
    return DensityVector(op.partition, f.coefficients / f.integral())


def reference_ulam(pmap, bps):
    """The O(m^2) scan of every cell against every other cell that ulam_matrix replaced."""
    cells = list(zip(bps, bps[1:]))
    lengths = [b - a for a, b in cells]
    m = len(cells)
    U = np.zeros((m, m))
    for j, (a, b) in enumerate(cells):
        for branch in pmap.branches:
            lo = max(a, branch.domain.lo)
            hi = min(b, branch.domain.hi)
            if hi <= lo:
                continue
            y1, y2 = sorted((branch(lo), branch(hi)))
            inv_slope = 1.0 / abs(branch.slope)
            for i, (c, d) in enumerate(cells):
                overlap = min(y2, d) - max(y1, c)
                if overlap > 0.0:
                    U[j, i] += overlap * inv_slope / lengths[j]
    return U


def jittered_grid(pmap, cells: int, seed: int) -> list[float]:
    """cells near-uniform cells, each inner breakpoint moved by up to 0.3 of a cell."""
    rng = random.Random(seed)
    lo, hi = pmap.ambient.lo, pmap.ambient.hi
    h = (hi - lo) / cells
    return [lo] + [lo + h * (i + 0.3 * (2.0 * rng.random() - 1.0)) for i in range(1, cells)] + [hi]


def same_bits(U, V) -> bool:
    return U.shape == V.shape and np.array_equal(U.view(np.uint64), V.view(np.uint64))


MAKERS = {"full": plmap.make_paired_tent, "folded": plmap.make_folded_tent}

ulam_cases = st.tuples(
    st.sampled_from(sorted(MAKERS)),
    st.one_of(st.integers(1, 12).map(lambda n: poly.solve_kappa(n).kappa), st.floats(0.01, 0.5)),
    st.integers(2, 400),
    st.integers(0, 2 ** 32 - 1),
)


class TestOperator:
    def test_n1_action_on_basis_vector(self):
        # the interval (-kappa_1, 0) maps onto (-1, 0), i.e. the first three
        # intervals, with one division by the slope
        op = markov_operator(1, "full")
        e3 = DensityVector(op.partition, [0, 0, 1, 0, 0, 0])
        out = op.apply(e3)
        rho = 2 + 2 * poly.solve_kappa(1).kappa
        assert np.allclose(out.coefficients, np.array([1, 1, 1, 0, 0, 0]) / rho, atol=1e-14)

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("kind", ["full", "folded"])
    def test_lengths_are_left_fixed_vector(self, n, kind):
        op = markov_operator(n, kind)
        lengths = interval_lengths(op.partition)
        assert np.max(np.abs(lengths @ op.matrix() - lengths)) < 1e-10

    @pytest.mark.parametrize("n", range(1, 6))
    def test_scaled_spectral_radius_is_one(self, n):
        evs = spectral.oracle_eigenvalues(markov_operator(n, "full").matrix())
        assert max(abs(z) for z in evs) == pytest.approx(1.0, abs=1e-9)


class TestInvariantDensity:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_full_density_palindromic(self, n):
        f = invariant_density(n, "full")
        assert np.max(np.abs(f.coefficients - f.coefficients[::-1])) < 1e-9

    @pytest.mark.parametrize("n", [1, 4, 9])
    @pytest.mark.parametrize("kind", ["full", "folded"])
    def test_normalized_and_nonnegative(self, n, kind):
        f = invariant_density(n, kind)
        assert f.integral() == pytest.approx(1.0, abs=1e-12)
        assert np.all(f.coefficients >= -1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_folded_matches_included_symmetric_perron(self, n, suite):
        # the folded fixed density is the inclusion of the symmetric-block
        # fixed vector, up to normalization
        s = suite(n)
        rho = 2 + 2 * s["kappa"]
        C = np.array(s["C"].entries, dtype=float) / rho
        w = np.ones(C.shape[0])
        for _ in range(200):
            w = C @ w
            w /= np.linalg.norm(w)
        iota = np.array(s["iota"].entries, dtype=float)
        included = iota @ w
        f = invariant_density(n, "folded").coefficients
        included /= included.sum()
        g = f / f.sum()
        assert np.max(np.abs(included - g)) < 1e-9


class TestEvolution:
    def test_fixed_point_stays_fixed(self):
        op = markov_operator(3, "full")
        f = invariant_density(3, "full")
        traj = evolve_density(op, f, 50)
        assert np.max(np.abs(traj[-1].coefficients - f.coefficients)) < 1e-9

    def test_integral_conserved_each_step(self):
        op = markov_operator(4, "full")
        f0 = indicator_density(op, lambda lo, hi: hi <= 0)
        traj = evolve_density(op, f0, 300)
        assert all(abs(f.integral() - 1.0) < 1e-10 for f in traj)

    @pytest.mark.parametrize("n", [12, 22, 25])
    def test_simulate_start_density_conserves_mass(self, n):
        # README's conservation figure is for this density, simulate's start;
        # a single-interval density on the full map drifts far more from n = 12
        op = markov_operator(n, "full")
        traj = evolve_density(op, indicator_density(op, lambda lo, hi: hi <= 0.0), 200)
        assert max(abs(f.integral() - traj[0].integral()) for f in traj) < 1e-13

    def test_positivity_preserved(self):
        op = markov_operator(4, "folded")
        f0 = indicator_density(op, lambda lo, hi: hi <= 0.5)
        traj = evolve_density(op, f0, 100)
        assert all(np.all(f.coefficients >= -1e-12) for f in traj)

    @pytest.mark.parametrize("kind", ["full", "folded"])
    def test_each_step_is_integer_product_then_one_division(self, kind):
        # bitwise: a pre-scaled matrix rounds differently and would change
        # the simulate CSV
        op = markov_operator(12, kind)
        A = np.array(tent_chain(12, kind)[2].entries, dtype=float)
        traj = evolve_density(op, indicator_density(op, lambda lo, hi: hi <= 0.5), 30)
        for f, g in zip(traj, traj[1:]):
            assert np.array_equal(g.coefficients, (A @ f.coefficients) / op.scale)

    def test_trajectory_length_and_validation(self):
        op = markov_operator(2, "full")
        f0 = invariant_density(2, "full")
        assert len(evolve_density(op, f0, 7)) == 8
        with pytest.raises(ValueError):
            evolve_density(op, f0, -1)

    def test_n3_decay_rate_matches_second_eigenvalue(self):
        op = markov_operator(3, "full")
        target = invariant_density(3, "full")
        f0 = indicator_density(op, lambda lo, hi: hi <= 0)
        traj = evolve_density(op, f0, 200)
        dists = [f.l1_distance(target) for f in traj]
        rate = fit_decay_rate(dists, burn_in=20)
        lam2 = spectral.spectral_report(3).second_modulus_M
        assert abs(rate - lam2) / lam2 < 0.05


class TestDecayFit:
    def test_exact_geometric(self):
        assert fit_decay_rate([0.9 ** k for k in range(100)], burn_in=0) == pytest.approx(
            0.9, abs=1e-12
        )

    def test_constant_sequence(self):
        assert fit_decay_rate([2.0] * 40, burn_in=5) == pytest.approx(1.0, abs=1e-12)

    def test_positive_norms_required(self):
        with pytest.raises(NonPositiveNorm):
            fit_decay_rate([1.0, -1.0] + [0.5] * 40, burn_in=0)

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            fit_decay_rate([1.0] * 25, burn_in=20)

    def test_noise_floor_excluded(self):
        clean = [0.5 ** k for k in range(60)]
        noisy = clean + [1e-19] * 60  # converged-to-rounding tail
        assert fit_decay_rate(noisy, burn_in=0) == pytest.approx(0.5, rel=1e-6)


class TestRateSeparation:
    @pytest.mark.parametrize("n", range(6, 11))
    def test_folded_fast_full_slow(self, n):
        rates = {}
        for kind, cut in (("full", 0.0), ("folded", 0.5)):
            op = markov_operator(n, kind)
            target = invariant_density(n, kind)
            f0 = indicator_density(op, lambda lo, hi, c=cut: hi <= c)
            traj = evolve_density(op, f0, 200)
            dists = [f.l1_distance(target) for f in traj]
            rates[kind] = fit_decay_rate(dists, burn_in=20)
        assert rates["folded"] <= 0.62
        assert rates["full"] >= 0.90


class TestUlam:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_markov_grid_spectrum_matches_operator(self, n, multiset_match):
        kappa = poly.solve_kappa(n).kappa
        tmap = plmap.make_paired_tent(kappa)
        part = analytic_partition(n, "full", kappa)
        U = ulam_matrix(tmap, part)
        assert np.max(np.abs(U.sum(axis=1) - 1.0)) < 1e-12
        e_ulam = spectral.oracle_eigenvalues(U)
        e_op = spectral.oracle_eigenvalues(markov_operator(n, "full").matrix())
        assert multiset_match(e_ulam, e_op) < 1e-8

    def test_uniform_grid_rows_stochastic(self):
        tmap = plmap.make_paired_tent(0.3)
        U = ulam_matrix(tmap, np.linspace(-1, 1, 65))
        assert np.max(np.abs(U.sum(axis=1) - 1.0)) < 1e-12

    def test_uniform_256_cells_approximates_spectrum(self):
        # empirical tolerance, recorded at build time: with 256 uniform cells
        # the second modulus came out 0.659 against lambda2(M_3) = 0.708
        # (deviation 0.049, shrinking to 0.017 at 2048 cells); the leading
        # eigenvalue is exact to rounding
        kappa = poly.solve_kappa(3).kappa
        tmap = plmap.make_paired_tent(kappa)
        U = ulam_matrix(tmap, np.linspace(-1, 1, 257))
        Ut = U.T.copy()
        x = np.full(256, 1.0 / 256)
        for _ in range(4000):
            x = Ut @ x
        leading = x @ (Ut @ x) / (x @ x)
        assert abs(leading - 1.0) < 1e-10
        star = x / x.sum()
        y = np.zeros(256)
        y[:64] = 1.0 / 64
        dists = []
        for _ in range(200):
            dists.append(np.abs(y - star).sum())
            y = Ut @ y
        rate = fit_decay_rate(dists, burn_in=20)
        lam2 = spectral.spectral_report(3).second_modulus_M
        assert abs(rate - lam2) < 0.06

    def test_grid_must_cover_ambient(self):
        tmap = plmap.make_paired_tent(0.3)
        with pytest.raises(ValueError):
            ulam_matrix(tmap, np.linspace(-0.5, 1, 17))

    def test_degenerate_cell_rejected(self):
        tmap = plmap.make_paired_tent(0.3)
        grid = [-1.0, -0.5, -0.5 + 1e-13, 0.5, 1.0]
        with pytest.raises(DegenerateCell):
            ulam_matrix(tmap, grid)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=ulam_cases)
    def test_rows_sum_to_one_on_jittered_grids(self, case):
        kind, kappa, cells, seed = case
        pmap = MAKERS[kind](kappa)
        U = ulam_matrix(pmap, jittered_grid(pmap, cells, seed))
        assert U.shape == (cells, cells)
        assert np.max(np.abs(U.sum(axis=1) - 1.0)) <= 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=ulam_cases)
    @example(case=("full", poly.solve_kappa(5).kappa, 400, 1))
    @example(case=("folded", poly.solve_kappa(5).kappa, 400, 2))
    def test_bitwise_equal_to_all_cells_scan(self, case):
        kind, kappa, cells, seed = case
        pmap = MAKERS[kind](kappa)
        grid = jittered_grid(pmap, cells, seed)
        assert same_bits(ulam_matrix(pmap, grid), reference_ulam(pmap, grid))

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_bitwise_equal_to_all_cells_scan_on_markov_partition(self, kind, n):
        kappa = poly.solve_kappa(n).kappa
        pmap = MAKERS[kind](kappa)
        part = analytic_partition(n, kind, kappa)
        assert same_bits(ulam_matrix(pmap, part), reference_ulam(pmap, part.breakpoints))

    def test_accepts_markov_partition_object(self):
        part = MarkovPartition((-1.0, 0.0, 1.0))
        tmap = plmap.make_paired_tent(0.3)
        U = ulam_matrix(tmap, part)
        assert U.shape == (2, 2)
