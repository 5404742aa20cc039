import math

import numpy as np
import pytest

from tentspec import poly, spectral
from tentspec.exact import flip_matrix
from tentspec.poly import NoConvergence, aberth_roots, f_poly, g_poly, solve_kappa
from tentspec.spectral import (
    IllConditioned,
    eigvec_for_root,
    oracle_eigenvalues,
    spectral_report,
)

SQRT3 = math.sqrt(3.0)


class TestOracle:
    def test_a1_closed_form_multiset(self, suite, multiset_match):
        evs = oracle_eigenvalues(suite(1)["A"])
        expected = [1 + SQRT3, 1 - SQRT3, 1 + 1j, 1 - 1j, 0.0, 0.0]
        assert multiset_match(evs, expected) < 1e-8

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_polynomial_roots(self, n, suite, multiset_match):
        evs = oracle_eigenvalues(suite(n)["A"])
        expected = [0.0, 0.0]
        expected += aberth_roots(f_poly(n)).as_complex()
        expected += aberth_roots(g_poly(n)).as_complex()
        assert multiset_match(evs, expected) < 1e-7

    @pytest.mark.parametrize("n", range(1, 6))
    def test_single_eigenvalue_of_modulus_two(self, n, suite):
        evs = oracle_eigenvalues(suite(n)["A"])
        big = [z for z in evs if abs(z) >= 2.0]
        assert len(big) == 1
        assert big[0].real == pytest.approx(2 + 2 * solve_kappa(n).kappa, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 4])
    def test_flip_eigenvalues(self, n):
        evs = oracle_eigenvalues(flip_matrix(2 * n + 4))
        plus = sum(1 for z in evs if abs(z - 1) < 1e-9)
        minus = sum(1 for z in evs if abs(z + 1) < 1e-9)
        assert (plus, minus) == (n + 2, n + 2)

    def test_defective_input_raises(self):
        with pytest.raises(NoConvergence):
            oracle_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_desk_scale_guard(self):
        with pytest.raises(ValueError):
            oracle_eigenvalues(np.eye(61))


class TestEigvecClassification:
    def test_perron_vector_symmetric_positive(self, suite):
        s = suite(1)
        pair = eigvec_for_root(s["A"], s["J"], 1 + SQRT3)
        assert pair.symmetry == "symmetric"
        assert pair.residual < 1e-8
        v = pair.vector.real
        v = v * np.sign(v.sum())
        assert np.all(v > -1e-12)

    def test_complex_pair_antisymmetric(self, suite):
        s = suite(1)
        pair = eigvec_for_root(s["A"], s["J"], 1 + 1j)
        assert pair.symmetry == "antisymmetric"

    def test_kernel_comes_from_exact_basis(self, suite):
        s = suite(1)
        pair = eigvec_for_root(s["A"], s["J"], 0.0)
        assert pair.symmetry == "kernel"
        assert pair.residual < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dichotomy_matches_family_membership(self, n, suite):
        s = suite(n)
        for z in aberth_roots(f_poly(n)).as_complex():
            pair = eigvec_for_root(s["A"], s["J"], z)
            assert pair.symmetry == "symmetric"
            self._assert_sharp(pair, s)
        for z in aberth_roots(g_poly(n)).as_complex():
            pair = eigvec_for_root(s["A"], s["J"], z)
            assert pair.symmetry == "antisymmetric"
            self._assert_sharp(pair, s)

    @staticmethod
    def _assert_sharp(pair, s):
        J = np.array(s["J"].entries, dtype=float)
        sym = np.max(np.abs(J @ pair.vector - pair.vector))
        anti = np.max(np.abs(J @ pair.vector + pair.vector))
        lo, hi = sorted((sym, anti))
        assert hi / max(lo, 1e-300) > 1e4

    def test_ill_conditioned_on_non_eigenvalue(self, suite):
        s = suite(2)
        with pytest.raises(IllConditioned):
            eigvec_for_root(s["A"], s["J"], 1.2345 + 0.77j)


class TestReports:
    def test_n1_closed_forms(self):
        rep = spectral_report(1)
        assert rep.spectral_radius_A == pytest.approx(1 + SQRT3, abs=1e-12)
        assert rep.second_modulus_M == pytest.approx(math.sqrt(2) / (1 + SQRT3), abs=1e-10)
        assert rep.r_n is None
        assert rep.second_modulus_bound_factor is None
        assert rep.mixing_time_folded_bound is None

    @pytest.mark.parametrize("n", [2, 8, 17])
    def test_scaling_consistency(self, n):
        rep = spectral_report(n)
        rho = 2 + 2 * rep.kappa_n
        assert rep.spectral_radius_M == rep.spectral_radius_A / rho
        assert abs(rep.spectral_radius_M - 1.0) < 1e-10

    def test_n20_second_eigenvalue_asymptotics(self):
        rep = spectral_report(20)
        assert abs(rep.second_modulus_M - (1 - 2 * rep.kappa_n)) < rep.kappa_n / 10

    def test_monotone_gap(self):
        values = [spectral_report(n).second_modulus_M for n in range(6, 31)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n", [15, 20, 25])
    def test_mixing_time_tracks_power_of_two(self, n):
        rep = spectral_report(n)
        assert 0.95 < rep.mixing_time_full / 2 ** (n - 1) < 1.05

    @pytest.mark.parametrize("n", [6, 12, 25])
    def test_folded_bound_fields(self, n):
        rep = spectral_report(n)
        rho = 2 + 2 * rep.kappa_n
        assert rep.second_modulus_bound_factor == pytest.approx((1 + 1 / n) / rho, abs=1e-15)
        assert rep.mixing_time_folded_bound == pytest.approx(
            1 / abs(math.log(rep.second_modulus_bound_factor)), abs=1e-12
        )

    def test_r_n_populated_from_5(self):
        assert spectral_report(4).r_n is None
        rep = spectral_report(5)
        assert rep.r_n == pytest.approx(poly.solve_r(5), abs=1e-15)

    def test_annulus_embedded(self):
        rep = spectral_report(9)
        assert rep.annulus.counts_f == (0, 9, 1)

    def test_scale_rounding_to_2_raises_before_root_finding(self, monkeypatch):
        def forbidden(p):
            raise AssertionError("root finding ran")

        monkeypatch.setattr(spectral, "aberth_roots", forbidden)
        with pytest.raises(NoConvergence, match="n=60"):
            spectral_report(60)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            spectral_report(0)

    def test_report_serialization(self):
        import json

        rep = spectral_report(6)
        payload = json.loads(json.dumps(rep.to_dict()))
        assert payload["n"] == 6
        assert payload["annulus"]["counts_g"] == [0, 6, 1]
        assert payload["kappa_n"] == rep.kappa_n
