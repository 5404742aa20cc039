import io
import math
from collections import Counter
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import dps_to_prec, mpf_neg
from numpy.polynomial import polynomial as npoly

from tentspec import poly
from tentspec.cli import render_root_plot
from tentspec.exact import IntPolynomial
from tentspec.poly import (
    NoConvergence,
    aberth_roots,
    annulus_classify,
    f_poly,
    g_poly,
    min_poly,
    region_counts,
    solve_kappa,
    solve_r,
)

SQRT3 = math.sqrt(3.0)


class TestFamily:
    def test_first_members(self):
        assert f_poly(1) == IntPolynomial((-2, -2, 1))
        assert g_poly(1) == IntPolynomial((2, -2, 1))

    # verify's minpoly-A reads lcm(x f, x g) = min_poly(n) from these two
    @pytest.mark.parametrize("n", range(1, 201))
    def test_g_is_f_plus_4(self, n):
        assert g_poly(n) - f_poly(n) == IntPolynomial((4,))
        assert f_poly(n) - g_poly(n) == IntPolynomial((-4,))

    @pytest.mark.parametrize("n", range(1, 201))
    def test_min_poly_expansion(self, n):
        explicit = IntPolynomial(tuple([0, -4] + [0] * (2 * n - 1) + [4, -4, 1]))
        assert min_poly(n) == explicit

    def test_sum_of_f_roots_is_2_by_coefficients(self):
        for n in range(1, 20):
            f = f_poly(n)
            assert f.coeffs[-1] == 1 and f.coeffs[-2] == -2  # trace of companion form

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            f_poly(0)


class TestSolveKappa:
    def test_n1_closed_form(self):
        # 2k^2 + 2k - 1 = 0 gives kappa_1 = (sqrt(3)-1)/2
        assert solve_kappa(1).kappa == pytest.approx((SQRT3 - 1) / 2, abs=1e-15)

    def test_n2_against_cubic_oracle(self):
        # frozen 80-step exact-rational bisection root of 4k^3+8k^2+4k-1
        assert solve_kappa(2).kappa == pytest.approx(0.17965204298588822, abs=1e-14)

    def test_residuals_and_monotonicity(self):
        kappas = [solve_kappa(n) for n in range(1, 41)]
        assert all(s.residual < 1e-13 for s in kappas)
        assert all(0 < s.kappa < 0.5 for s in kappas)
        assert all(a.kappa > b.kappa for a, b in zip(kappas, kappas[1:]))

    def test_n20_dyadic_asymptotic(self):
        assert abs(solve_kappa(20).kappa * 2 ** 20 - 1) < 1e-4

    def test_last_binary64_n(self):
        # the largest n whose first bisection probe 2.5^n stays finite
        sol = solve_kappa(774)
        assert sol.kappa == 1.0064294952495521e-233
        assert sol.residual == 0.0

    @pytest.mark.parametrize("n", [775, 1024, 2000])
    def test_overflow_raises_no_convergence(self, n):
        with pytest.raises(NoConvergence, match=f"n={n}: "):
            solve_kappa(n)

    def test_log_bound_keeps_kappa_below_half(self):
        # the defining exponent at kappa = 1/2 is log 2 / log 3 < 1
        assert math.log(2) / math.log(3) < 1

    @pytest.mark.parametrize(
        "n, measured", [(8, 7.7e-16), (12, 1.2e-15), (20, 1.7e-15), (29, 2.9e-15)]
    )
    def test_relative_error_against_a_40_digit_root(self, n, measured):
        # phi is evaluated in binary64, so kappa_n misses the last bit by a
        # margin that grows with n (the docstring quotes these errors)
        kappa = solve_kappa(n).kappa
        with mp.workdps(40):
            exact = mp.findroot(lambda k: (2 + 2 * k) ** n * k - 1, kappa)
            rel = float(abs(mp.mpf(kappa) - exact) / exact)
        assert rel < 1.1 * measured


class TestSolveR:
    def test_strict_brackets(self):
        for n in range(5, 31):
            r = solve_r(n)
            lo = math.ldexp(1.0, -n)
            hi = lo + 2 * n * math.ldexp(1.0, -2 * n)
            assert lo < r < hi

    def test_n5_interval(self):
        assert 1 / 32 < solve_r(5) < 1 / 32 + 10 / 1024

    def test_n20_tracks_kappa(self):
        assert 0.999 < solve_r(20) / solve_kappa(20).kappa < 1.001

    def test_root_condition_via_factored_form(self):
        # g_n(2-2r) = 2 (1 - 2^n r (1-r)^n); evaluate the inner expression
        for n in (5, 12, 25):
            r = solve_r(n)
            assert abs(math.ldexp(r, n) * (1 - r) ** n - 1) < 1e-10

    def test_small_n_rejected(self):
        for n in (1, 4):
            with pytest.raises(ValueError):
                solve_r(n)


class TestAberth:
    def test_f1_closed_form(self, multiset_match):
        roots = aberth_roots(f_poly(1)).as_complex()
        assert multiset_match(roots, [1 + SQRT3, 1 - SQRT3]) < 1e-12

    def test_g1_closed_form(self, multiset_match):
        roots = aberth_roots(g_poly(1)).as_complex()
        assert multiset_match(roots, [1 + 1j, 1 - 1j]) < 1e-12

    @pytest.mark.parametrize("n", [1, 7, 18, 30])
    def test_perron_root_matches_kappa(self, n):
        roots = aberth_roots(f_poly(n))
        top = max(roots.as_complex(), key=abs)
        assert abs(top - (2 + 2 * solve_kappa(n).kappa)) < 1e-10
        assert abs(top.imag) < 1e-12

    @pytest.mark.parametrize("n", range(1, 41, 4))
    def test_residual_contract(self, n):
        for p in (f_poly(n), g_poly(n)):
            rs = aberth_roots(p)
            assert len(rs.roots) == p.degree
            assert max(rs.residuals) < 1e-9 * max(abs(c) for c in p.coeffs)

    @pytest.mark.parametrize("n", [2, 9, 21])
    def test_conjugate_pairing(self, n, multiset_match):
        roots = aberth_roots(f_poly(n)).as_complex()
        assert multiset_match(roots, [z.conjugate() for z in roots]) < 1e-10

    def test_zero_roots_deflated_exactly(self, multiset_match):
        rs = aberth_roots(min_poly(2))
        zeros = [z for z in rs.as_complex() if z == 0]
        assert len(zeros) == 1
        others = aberth_roots(f_poly(2)).as_complex() + aberth_roots(g_poly(2)).as_complex()
        nonzero = [z for z in rs.as_complex() if z != 0]
        assert multiset_match(nonzero, others) < 1e-10

    def test_numeric_root_sum(self):
        for n in (3, 11, 24):
            roots = aberth_roots(f_poly(n)).as_complex()
            assert abs(sum(roots) - 2.0) < 1e-8

    @pytest.mark.parametrize("n", range(1, 31, 3))
    def test_families_share_no_roots_and_are_separable(self, n):
        # the dominant real roots 2+2k_n and 2-2r_n approach each other at
        # rate 2^(2-n), so the cross-family floor only applies away from
        # them; their own separation is pinned to the predicted value
        rf = aberth_roots(f_poly(n)).as_complex()
        rg = aberth_roots(g_poly(n)).as_complex()
        top_f = max(rf, key=abs)
        top_g = max(rg, key=lambda z: z.real)
        others = [
            abs(a - b) for a in rf for b in rg if not (a == top_f and b == top_g)
        ]
        assert min(others) > 1e-6
        if n >= 5:
            predicted = 2 * solve_kappa(n).kappa + 2 * solve_r(n)
            assert abs(top_f - top_g) == pytest.approx(predicted, rel=1e-9)
        for rs in (rf, rg):
            gaps = [abs(a - b) for i, a in enumerate(rs) for b in rs[i + 1:]]
            if gaps:
                assert min(gaps) > 1e-6

    def test_perron_identity_exact_evaluation(self):
        # evaluate f_n at the unrounded rational point 2 + 2*kappa_hat
        for n in range(1, 31):
            k = Fraction(solve_kappa(n).kappa)
            value = f_poly(n)(2 + 2 * k)
            assert abs(value) < Fraction(1, 10 ** 9)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            aberth_roots(IntPolynomial((5,)))

    @pytest.mark.parametrize("n", [136, 300, 416, 2000])
    def test_counts_and_residuals_past_136(self, n):
        # the dominant root 2+2*kappa_n needs about n*log10(2) digits to be
        # told apart from 2, where f_n has residual 2
        for p in (f_poly(n), g_poly(n)):
            rs = aberth_roots(p)
            assert region_counts(rs.moduli(), n) == (0, n, 1)
            assert max(rs.residuals) < 1e-9

    def test_postcondition_raises_at_fixed_40_digits(self, monkeypatch):
        monkeypatch.setattr(poly, "_polish_dps", lambda deg: 40)
        with pytest.raises(NoConvergence) as err:
            aberth_roots(f_poly(136))
        assert len(err.value.best) == 137

    def test_polish_runs_until_the_correction_is_below_precision(self):
        # the companion seed of the dominant root of f_662 is one ulp from 2;
        # four Newton steps from there left a residual of 2.75e-9
        p = f_poly(662)
        _, resid = poly._polish(2.0000000000000004, _terms(p.coeffs))
        assert resid < 1e-9 * max(abs(c) for c in p.coeffs)

    def test_polish_precision_rule(self):
        assert [poly._polish_dps(d) for d in (1, 66, 67, 137, 301)] == [40, 40, 41, 62, 111]


def _companion_in_sectors(n, family):
    """The companion seeds of f_n or g_n in _contraction_seeds' order: the
    seed of sector k at index k, read off its phase, the outside root last."""
    seeds = poly._companion_seeds((f_poly if family == "f" else g_poly)(n).coeffs)
    top = int(np.argmax(seeds.real))
    ordered = [None] * n + [seeds[top]]
    for i, z in enumerate(seeds):
        if i != top:
            j = round(float(np.angle(z)) % (2 * math.pi) * n / math.pi) % (2 * n)
            assert j % 2 == (family == "f") and ordered[j // 2] is None
            ordered[j // 2] = z
    return np.array(ordered)


def _recording(calls, name, fn):
    """fn, appending name to calls on each call."""

    def recorded(*args):
        calls.append(name)
        return fn(*args)

    return recorded


def _svg(rf, rg, n):
    out = io.StringIO()
    render_root_plot(rf, rg, n, out)
    return out.getvalue()


class TestContractionSeeds:
    @pytest.mark.parametrize("n", [*range(6, 61), 120, 300])
    def test_roots_match_companion_seeds(self, n, monkeypatch):
        rf, rg = aberth_roots(f_poly(n)), aberth_roots(g_poly(n))
        monkeypatch.setattr(poly, "_contraction_seeds", _companion_in_sectors)
        cf, cg = aberth_roots(f_poly(n)), aberth_roots(g_poly(n))
        assert rf.as_complex() == cf.as_complex()
        assert rg.as_complex() == cg.as_complex()
        assert _svg(rf, rg, n) == _svg(cf, cg, n)

    @pytest.mark.parametrize("n", [*range(6, 61), 120, 300])
    def test_annulus_bits_round_like_the_full_word(self, n):
        # every printed digit is the one the full-word polish of the same
        # seeds gives, and each residual is |p| at the returned point,
        # evaluated at the word that point was polished at
        full_bits = dps_to_prec(poly._polish_dps(n + 1))
        for family, make in (("f", f_poly), ("g", g_poly)):
            p = make(n)
            terms = _terms(p.coeffs)
            full, polished = [], Counter()
            for k, z in enumerate(poly._contraction_seeds(n, family)):
                if z.imag < 0:
                    continue
                z = complex(z)
                rounded = complex(poly._polish(z, terms)[0])
                full += [rounded, rounded.conjugate()] if z.imag else [rounded]
                cheap = poly._polish(z, terms, poly._annulus_bits(n)) if k < n else None
                bits = poly._annulus_bits(n) if cheap else full_bits
                root, resid = cheap or poly._polish(z, terms)
                F = poly._fraction_bits(z, p.degree, bits)
                x, y = (int(mp.ldexp(part, F)) for part in (root.real, root.imag))
                assert x == mp.ldexp(root.real, F) and y == mp.ldexp(root.imag, F)
                px, py, _, _ = poly._sparse_horner(terms, x, y, F)
                assert resid == poly._fixed_abs(px, py, F)
                polished[root.real._mpf_, root.imag._mpf_, resid] += 1
                if z.imag:
                    polished[root.real._mpf_, mpf_neg(root.imag._mpf_), resid] += 1
            rs = aberth_roots(p)
            assert sorted(row[:2] for row in rs.to_csv_rows()) == sorted(
                (repr(z.real), repr(z.imag)) for z in full
            )
            assert polished == Counter(
                (z.real._mpf_, z.imag._mpf_, resid) for z, resid in zip(rs.roots, rs.residuals)
            )

    def test_companion_eigenvalues_only_outside_the_family(self, monkeypatch):
        calls = []
        polyroots = npoly.polyroots

        def counted(c):
            calls.append(len(c) - 1)
            return polyroots(c)

        monkeypatch.setattr(npoly, "polyroots", counted)
        for n in range(1, 6):
            aberth_roots(f_poly(n))
            aberth_roots(g_poly(n))
        aberth_roots(min_poly(2))
        assert calls == [d for n in range(1, 6) for d in (n + 1, n + 1)] + [6]

        def forbidden(c):
            raise AssertionError("companion eigenvalues for the tent family")

        monkeypatch.setattr(npoly, "polyroots", forbidden)
        for n in (6, 7, 52, 53, 120):
            assert len(aberth_roots(f_poly(n)).roots) == n + 1
            assert len(aberth_roots(g_poly(n)).roots) == n + 1

    def test_seed_rule_is_the_rouche_certificate(self, monkeypatch):
        calls = []
        for name in ("_contraction_seeds", "_companion_seeds"):
            monkeypatch.setattr(poly, name, _recording(calls, name, getattr(poly, name)))
        for n in range(1, 13):
            for make in (f_poly, g_poly):
                calls.clear()
                aberth_roots(make(n))
                certified = poly._rouche_certified(n)
                expected = "_contraction_seeds" if certified else "_companion_seeds"
                assert calls == [expected], f"{make.__name__}({n})"

    @pytest.mark.parametrize("n", [6, 7, 9, 30, 120, 416, 2000])
    def test_each_root_stays_in_its_sector_window(self, n):
        # the worst offset measured for n = 6..60 and seven sizes up to 10000
        # is 0.34 of the window
        for family in "fg":
            seeds = poly._contraction_seeds(n, family)
            phases = math.pi * (2 * np.arange(n) + (family == "f")) / n
            offsets = np.angle(seeds[:n] * np.exp(-1j * phases))
            assert np.max(np.abs(offsets)) < 0.35 * math.pi / (2 * n)

    @pytest.mark.parametrize("n", [6, 7, 52, 53])
    def test_real_sectors_and_outside_seed(self, n):
        f, g = poly._contraction_seeds(n, "f"), poly._contraction_seeds(n, "g")
        # phase pi holds the real root of f_n for odd n, of g_n for even n;
        # phase 0 the real root of g_n near 2^(1/n)
        assert g[0].imag == 0.0
        assert (f if n % 2 else g)[n // 2].imag == 0.0
        if n <= 52:
            assert f[n] == 2 + 2 * solve_kappa(n).kappa > 2.0
            assert g[n] == 2 - 2 * solve_r(n) < 2.0
        else:
            assert f[n] == math.nextafter(2.0, 3.0)
            assert g[n] == math.nextafter(2.0, 0.0)

    @pytest.mark.parametrize("family", ["f", "g"])
    def test_two_sectors_sharing_a_seed_raise(self, monkeypatch, family):
        # the sector check is not vacuous: the residuals are fine, but sector
        # 2's root is sector 3's and one root would go missing
        contraction = poly._contraction_seeds

        def shared(n, family):
            seeds = contraction(n, family)
            seeds[2] = seeds[3]
            return seeds

        monkeypatch.setattr(poly, "_contraction_seeds", shared)
        make = f_poly if family == "f" else g_poly
        with pytest.raises(NoConvergence, match=f"{family}_n at n=12, sector k=2: ") as err:
            aberth_roots(make(12))
        assert len(err.value.best) == 13

    def test_outside_root_off_the_real_axis_raises(self, monkeypatch):
        contraction = poly._contraction_seeds

        def moved(n, family):
            seeds = contraction(n, family)
            seeds[n] = seeds[1]
            return seeds

        monkeypatch.setattr(poly, "_contraction_seeds", moved)
        with pytest.raises(NoConvergence, match="g_n at n=10, sector k=10: the outside root"):
            aberth_roots(g_poly(10))


def _terms(coeffs):
    return [(k, c) for k, c in enumerate(coeffs) if c][::-1]


def _annulus_bound(n):
    """The residual bound of an annulus root polished at _annulus_bits(n):
    about 200 n units of 2^-F with F >= bits - 1 (the _annulus_bits
    argument), under 512 n units of 2^-bits."""
    return n * 2.0 ** (9 - poly._annulus_bits(n))


def _split_residuals(p, n, roots):
    """The largest |p(z)| over the annulus roots and over the roots outside
    1 + 1/n, evaluated at twice the full word."""
    worst = [0.0, 0.0]
    with mp.workdps(2 * poly._polish_dps(p.degree)):
        for z in roots:
            resid = abs(mp.polyval(p.coeffs[::-1], z))
            side = int(abs(z) > 1 + 1 / n)
            worst[side] = max(worst[side], resid)
    return worst


def _magnitude_bound(coeffs, z):
    """sum |c_k| |z|^k and sum k |c_k| |z|^(k-1): the scale of Horner's rounding."""
    r = abs(z)
    return (
        sum(abs(c) * r ** k for k, c in enumerate(coeffs)),
        sum(k * abs(c) * r ** (k - 1) for k, c in enumerate(coeffs) if k),
    )


sparse_polys = st.dictionaries(
    st.integers(0, 40), st.integers(-20, 20).filter(bool), min_size=2, max_size=5
).map(lambda terms: IntPolynomial(tuple(terms.get(k, 0) for k in range(max(terms) + 1))))
family = st.builds(
    lambda make, n: make(n), st.sampled_from([f_poly, g_poly, min_poly]), st.integers(1, 300)
)
points = st.builds(complex, st.floats(-2.5, 2.5), st.floats(-2.5, 2.5))


class TestSparseHorner:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(p=st.one_of(sparse_polys, family), z=points)
    def test_matches_dense_polyval(self, p, z):
        coeffs = p.coeffs
        with mp.workdps(poly._polish_dps(p.degree)):
            F = poly._fraction_bits(z, p.degree, mp.mp.prec)
            x, y = poly._to_fixed(z.real, F), poly._to_fixed(z.imag, F)
            px, py, dx, dy = poly._sparse_horner(_terms(coeffs), x, y, F)
            zz = mp.mpc(z)
            want, dwant = mp.polyval(coeffs[::-1], zz, derivative=True)
            size, dsize = _magnitude_bound(coeffs, zz)
            tol = 8 * (p.degree + 1) * mp.eps
            assert abs(poly._to_mpc(px, py, F) - want) <= tol * size
            assert abs(poly._to_mpc(dx, dy, F) - dwant) <= tol * dsize

    @pytest.mark.parametrize("n", [136, 300])
    def test_keeps_the_exact_factor_near_2(self, n):
        # f_n(2 + 2^(1-n)) = 2(1 + 2^-n)^n - 2 is about n*2^(1-n); summing
        # c*z^k term by term cancels 2^(n+1)-sized terms and loses it
        exact = f_poly(n)(2 + Fraction(1, 2 ** (n - 1)))
        F = poly._fraction_bits(2.0, n + 1, dps_to_prec(poly._polish_dps(n + 1)))
        x = (2 << F) + (1 << (F - n + 1))
        got, im, _, _ = poly._sparse_horner(_terms(f_poly(n).coeffs), x, 0, F)
        assert im == 0
        assert abs(Fraction(got, 2 ** F) - exact) < Fraction(1, 10 ** 6) * exact

    @pytest.mark.parametrize("n", [9, 120])
    def test_complex_roots_come_in_exact_conjugate_pairs(self, n):
        # a conjugate rounded outside the working precision keeps 53 bits
        # and has residual 1e-16 or worse; each root is held to the residual
        # of its own precision: the annulus roots to _annulus_bound, the
        # outside root, at the full word, to 1e-30
        for p in (f_poly(n), g_poly(n)):
            roots = aberth_roots(p).roots
            parts = Counter((z.real._mpf_, z.imag._mpf_) for z in roots)
            assert parts == Counter((re, mpf_neg(im)) for re, im in parts.elements())
            annulus, outside = _split_residuals(p, n, roots)
            assert annulus < _annulus_bound(n)
            assert outside < 1e-30
            # the negative control: partners rounded to binary64 fail
            rounded = [mp.mpc(complex(z)) if z.imag < 0 else z for z in roots]
            assert _split_residuals(p, n, rounded)[0] > 100 * _annulus_bound(n)

    def test_real_seed_gives_an_exactly_real_root(self):
        root, _ = poly._polish(2.0000000000000004, _terms(f_poly(40).coeffs))
        assert root.imag == 0 and root.real > 2

    @pytest.mark.parametrize("dps", [60, 90])
    def test_polish_dps_sets_the_precision(self, monkeypatch, dps):
        # _polish_dps governs the outside root of f_9 and every root of the
        # companion-seeded f_5; the annulus roots of f_9 keep their own bits
        degrees = []
        monkeypatch.setattr(poly, "_polish_dps", lambda deg: degrees.append(deg) or dps)
        rs = aberth_roots(f_poly(9))
        assert set(degrees) == {10}
        outside, resid = max(zip(rs.roots, rs.residuals), key=lambda pair: abs(pair[0]))
        companion = aberth_roots(f_poly(5))
        assert set(degrees) == {10, 6}
        # the residuals are rounding noise at the working precision
        for worst in (resid, max(companion.residuals)):
            assert 10.0 ** -(dps + 10) < worst < 10.0 ** -(dps - 5)
        bits = dps_to_prec(dps)
        for z in (outside, *companion.roots):
            assert z.real._mpf_[3] <= bits + 1 and z.imag._mpf_[3] <= bits + 1

    @pytest.mark.parametrize("n", [6, 9, 60, 120, 300])
    def test_annulus_mantissas_carry_the_annulus_bits(self, n):
        bits = poly._annulus_bits(n)
        assert bits == 64 + 2 * math.ceil(math.log2(n))
        for p in (f_poly(n), g_poly(n)):
            roots = aberth_roots(p).roots
            annulus = [z for z in roots if abs(z) < 1 + 1 / n]
            assert len(annulus) == n
            for z in annulus:
                assert z.real._mpf_[3] <= bits + 1 and z.imag._mpf_[3] <= bits + 1
            # the outside root keeps the full word
            assert max(roots, key=abs).real._mpf_[3] > bits + 1

    def test_an_open_binary64_value_falls_back_to_the_full_word(self):
        # the imaginary part of sector 4's root of f_21 lies within the stop
        # rule's 16 units of a binary64 rounding midpoint at
        # _annulus_bits(21), so that root alone is polished again at the
        # full word
        p, terms = f_poly(21), _terms(f_poly(21).coeffs)
        seeds = poly._contraction_seeds(21, "f")
        bits = poly._annulus_bits(21)
        left_open = [
            k
            for k, z in enumerate(seeds[:21])
            if z.imag >= 0 and poly._polish(complex(z), terms, bits) is None
        ]
        assert left_open == [4]
        full, _ = poly._polish(complex(seeds[4]), terms)
        assert full in aberth_roots(p).roots

    def test_an_unconverged_polish_is_not_settled(self):
        # p'(0) = 0 stops Newton at once; the full word returns the point,
        # the annulus bits leave it to the full word
        terms = _terms(f_poly(9).coeffs)
        assert poly._polish(0j, terms, poly._annulus_bits(9)) is None
        assert poly._polish(0j, terms)[0] == 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=sparse_polys)
    def test_aberth_meets_contract_or_raises(self, p):
        try:
            rs = aberth_roots(p)
        except NoConvergence:
            return
        bound = 1e-9 * max(abs(c) for c in p.coeffs)
        assert len(rs.roots) == p.degree
        assert max(rs.residuals) < bound
        with mp.workdps(2 * poly._polish_dps(p.degree)):
            assert max(abs(mp.polyval(p.coeffs[::-1], z)) for z in rs.roots) < bound


class TestAnnulus:
    def test_n6_counts(self):
        rep = annulus_classify(6, aberth_roots(f_poly(6)), aberth_roots(g_poly(6)))
        assert rep.counts_f == (0, 6, 1)
        assert rep.counts_g == (0, 6, 1)
        assert rep.inside_inner == 0
        assert rep.in_annulus == 12
        assert rep.outside_outer == 2
        assert rep.inside_inner + rep.in_annulus + rep.outside_outer == 14

    @pytest.mark.parametrize("n", range(1, 41, 3))
    def test_no_roots_inside_inner_circle(self, n):
        for p in (f_poly(n), g_poly(n)):
            counts = region_counts(aberth_roots(p).moduli(), n)
            assert counts[0] == 0

    def test_perron_and_subdominant_identification(self):
        rep = annulus_classify(8, aberth_roots(f_poly(8)), aberth_roots(g_poly(8)))
        assert rep.perron_root == pytest.approx(2 + 2 * solve_kappa(8).kappa, abs=1e-10)
        assert rep.subdominant_real_root == pytest.approx(2 - 2 * solve_r(8), abs=1e-10)

    def test_subdominant_absent_below_5(self):
        rep = annulus_classify(3, aberth_roots(f_poly(3)), aberth_roots(g_poly(3)))
        assert rep.subdominant_real_root is None

    def test_region_counts_reads_an_iterator_once(self):
        assert region_counts(iter([0.5, 1.0, 1.0, 3.0]), 4) == (1, 2, 1)
        assert region_counts((m for m in [0.5, 1.0, 1.0, 3.0]), 4) == (1, 2, 1)
