import math

import mpmath as mp
import numpy as np
import pytest

from tentspec import poly, spectral
from tentspec.exact import flip_matrix
from tentspec.poly import NoConvergence, aberth_roots, f_poly, g_poly, solve_kappa
from tentspec.spectral import spectral_report

from conftest import oracle_eigenvalues

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
        expected += aberth_roots(f_poly(n)).view
        expected += aberth_roots(g_poly(n)).view
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
    """verify proves that f's roots live on Sym and g's on Anti; a float
    null vector of A - zI at each computed root z shows the same split."""

    def test_perron_vector_symmetric_positive(self, suite):
        s = suite(1)
        v = self._eigvec(s, 1 + SQRT3, "symmetric")
        v = v.real * np.sign(v.real.sum())
        assert np.all(v > -1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dichotomy_matches_family_membership(self, n, suite):
        s = suite(n)
        for z in aberth_roots(f_poly(n)).view:
            self._eigvec(s, z, "symmetric")
        for z in aberth_roots(g_poly(n)).view:
            self._eigvec(s, z, "antisymmetric")

    @staticmethod
    def _eigvec(s, z, symmetry):
        """The unit vector that A - zI maps nearest to zero (the right
        singular vector of its smallest singular value): an eigenvector to
        1e-8, and sharply in the named flip class."""
        A = np.array(s["A"].entries, dtype=float)
        J = np.array(s["J"].entries, dtype=float)
        v = np.linalg.svd(A - z * np.eye(len(A)))[2][-1].conj()
        assert np.max(np.abs(A @ v - z * v)) < 1e-8
        sym = np.max(np.abs(J @ v - v))
        anti = np.max(np.abs(J @ v + v))
        lo, hi = sorted((sym, anti))
        assert hi / max(lo, 1e-300) > 1e4
        assert ("symmetric" if sym < anti else "antisymmetric") == symmetry
        return v


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

    @pytest.mark.parametrize("n", range(6, 53))
    def test_mixing_time_within_2e_15_of_a_40_digit_reference(self, n):
        # |log| of the rounded ratio lost up to 3.2e-8 relative (n = 29);
        # the docstring bounds the log1p form by 2.03e-15
        rep = spectral_report(n)
        with mp.workdps(40):
            kappa = mp.findroot(lambda k: (2 + 2 * k) ** n * k - 1, rep.kappa_n)
            r = mp.findroot(lambda x: 2**n * x * (1 - x) ** n - 1, rep.r_n)
            exact = 1 / (mp.log1p(kappa) - mp.log1p(-r))
            rel = float(abs(mp.mpf(rep.mixing_time_full) / exact - 1))
        assert rel < 2e-15

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

    @pytest.mark.parametrize("n", range(1, 6))
    def test_second_modulus_below_the_certificate(self, n):
        # a conjugate pair of g_n for n <= 3 (1.4142, 1.5437, 1.5505); from
        # n = 4 a real root of g_n (1.8162 at n = 4, where r_n is still None)
        rf, rg = aberth_roots(f_poly(n)), aberth_roots(g_poly(n))
        ranked = sorted(
            [(m, z, "f") for m, z in zip(rf.moduli(), rf.view)]
            + [(m, z, "g") for m, z in zip(rg.moduli(), rg.view)],
            key=lambda rec: rec[0],
            reverse=True,
        )
        second, z, family = ranked[1]
        if n <= 3:
            assert z.imag != 0.0
        else:
            assert (family, z.imag) == ("g", 0.0)
        rep = spectral_report(n)
        assert rep.second_modulus_M * (2 + 2 * rep.kappa_n) == second

    def test_annulus_embedded(self):
        rep = spectral_report(9)
        assert rep.annulus.counts_f == (0, 9, 1)

    @pytest.fixture
    def no_root_search(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("root finding ran")

        monkeypatch.setattr(spectral, "aberth_roots", forbidden)
        monkeypatch.setattr(spectral, "annulus_classify", forbidden)

    def test_scale_rounding_to_2_raises_before_root_finding(self, no_root_search):
        with pytest.raises(NoConvergence, match="n=60"):
            spectral_report(60)

    @pytest.mark.parametrize("n", [6, 30, 52])
    def test_certified_report_needs_no_root_search(self, n, no_root_search):
        rep = spectral_report(n)
        rho = 2 + 2 * rep.kappa_n
        assert rep.spectral_radius_A == rep.annulus.perron_root == rho
        assert rep.annulus.subdominant_real_root == 2 - 2 * rep.r_n
        assert rep.annulus.counts_f == rep.annulus.counts_g == (0, n, 1)

    def test_rouche_certificate_holds_exactly_from_6(self):
        # the outer circle fails below 6, which is where the report forks
        for n in range(1, 601):
            outer = (n + 1) ** n * (n - 1) > 2 * n ** (n + 1)
            inner = (n - 1) ** n * (3 * n - 1) < 2 * n ** (n + 1)
            assert inner and outer == (n >= 6), f"n={n}"
            assert spectral._rouche_certified(n) == (n >= 6), f"n={n}"

    def test_root_search_exactly_where_the_certificate_fails(self, monkeypatch):
        # the report and aberth_roots' seed rule read one certificate
        assert spectral._rouche_certified is poly._rouche_certified
        searched = []

        def counted(p):
            searched.append(p.degree)
            return aberth_roots(p)

        monkeypatch.setattr(spectral, "aberth_roots", counted)
        for n in range(1, 13):
            searched.clear()
            spectral_report(n)
            expected = [] if poly._rouche_certified(n) else [n + 1, n + 1]
            assert searched == expected, f"n={n}"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            spectral_report(0)

    def test_report_serialization(self):
        import dataclasses
        import json

        rep = spectral_report(6)
        payload = json.loads(json.dumps(dataclasses.asdict(rep)))
        assert payload["n"] == 6
        assert payload["annulus"]["counts_g"] == [0, 6, 1]
        assert payload["kappa_n"] == rep.kappa_n
