import io
import math
from collections import Counter
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
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
    region_counts,
    solve_kappa,
    solve_r,
)

from conftest import x_f_g

SQRT3 = math.sqrt(3.0)


class TestFamily:
    def test_first_members(self):
        assert f_poly(1) == IntPolynomial((-2, -2, 1))
        assert g_poly(1) == IntPolynomial((2, -2, 1))

    # verify's minpoly-A reads lcm(x f, x g) = x f g from these two
    @pytest.mark.parametrize("n", range(1, 201))
    def test_g_is_f_plus_4(self, n):
        assert g_poly(n) - f_poly(n) == IntPolynomial((4,))
        assert f_poly(n) - g_poly(n) == IntPolynomial((-4,))

    @pytest.mark.parametrize("n", range(1, 201))
    def test_min_poly_expansion(self, n):
        explicit = IntPolynomial(tuple([0, -4] + [0] * (2 * n - 1) + [4, -4, 1]))
        assert x_f_g(n) == explicit

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
        # the largest n where a bisection from (0, 1/2), whose first probe
        # is 2.5^n, stays finite: the documented edge of solve_kappa
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


# Reference solvers for the equivalence tests: the same bisection and Newton
# steps from wide brackets, kappa from (0, 1/2) and r from
# [2^-n, 2^-n + 2n*4^-n].


def _reference_bisect_newton(fn, dfn, lo, hi):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x = hi
    for _ in range(4):
        x -= fn(x) / dfn(x)
    return x


def _reference_kappa(n):
    def phi(k):
        return (2.0 + 2.0 * k) ** n * k - 1.0

    def dphi(k):
        return (2.0 + 2.0 * k) ** n * (1.0 + 2.0 * n * k / (2.0 + 2.0 * k))

    try:
        k = _reference_bisect_newton(phi, dphi, 0.0, 0.5)
    except OverflowError:
        raise NoConvergence(f"kappa solve at n={n}: (2+2k)^n overflows binary64") from None
    return k, abs(phi(k))


def _reference_r(n):
    def psi(r):
        return math.ldexp(r, n) * (1.0 - r) ** n - 1.0

    def dpsi(r):
        return math.ldexp(1.0, n) * (1.0 - r) ** (n - 1) * (1.0 - (n + 1.0) * r)

    lo = math.ldexp(1.0, -n)
    hi = lo + 2.0 * n * math.ldexp(1.0, -2 * n)
    if not (psi(lo) < 0.0 < psi(hi)):
        raise NoConvergence(f"bracket failed for r at n={n}")
    return _reference_bisect_newton(psi, dpsi, lo, hi)


def _bracket_signs(monkeypatch, solve, n):
    """fn(lo) and fn(hi) at the bracket that solve(n) hands to the bisection."""
    seen = []
    bisect_newton = poly._bisect_newton

    def spy(fn, dfn, lo, hi):
        seen.append((fn(lo), fn(hi)))
        return bisect_newton(fn, dfn, lo, hi)

    monkeypatch.setattr(poly, "_bisect_newton", spy)
    solve(n)
    (signs,) = seen
    return signs


class TestFixedPointBrackets:
    def test_kappa_equals_the_wide_bracket_solve_at_every_n(self):
        for n in range(1, 775):
            sol = solve_kappa(n)
            assert (sol.kappa, sol.residual) == _reference_kappa(n), n

    def test_r_equals_the_wide_bracket_solve_at_every_n(self):
        for n in range(5, 54):
            assert solve_r(n) == _reference_r(n), n

    @pytest.mark.parametrize("n", [775, 776, 1023, 1024, 2000])
    def test_kappa_past_its_edge_raises_the_wide_bracket_error(self, n):
        with pytest.raises(NoConvergence) as reference:
            _reference_kappa(n)
        with pytest.raises(NoConvergence) as new:
            solve_kappa(n)
        assert str(new.value) == str(reference.value)

    @pytest.mark.parametrize("n", [54, 55, 59, 60, 61, 100, 1074, 1075, 2000])
    def test_r_past_its_edge_raises_the_wide_bracket_error(self, n):
        with pytest.raises(NoConvergence) as reference:
            _reference_r(n)
        with pytest.raises(NoConvergence) as new:
            solve_r(n)
        assert str(new.value) == str(reference.value) == f"bracket failed for r at n={n}"

    def test_kappa_bracket_signs_straddle_the_root(self, monkeypatch):
        for n in range(1, 775):
            at_lo, at_hi = _bracket_signs(monkeypatch, solve_kappa, n)
            assert at_lo < 0.0 <= at_hi, n

    def test_r_bracket_signs_straddle_the_root(self, monkeypatch):
        for n in range(5, 54):
            at_lo, at_hi = _bracket_signs(monkeypatch, solve_r, n)
            assert at_lo < 0.0 < at_hi, n

    @pytest.mark.parametrize("side", [-2, 1])
    def test_r_bracket_off_the_root_raises(self, monkeypatch, side):
        # a bracket wholly below or above the root fails the sign check; the
        # solve never returns one of its ends
        r = solve_r(20)
        width = 64 * math.ulp(r)
        monkeypatch.setattr(
            poly, "_widened", lambda lo, hi: (r + side * width, r + (side + 1) * width)
        )
        with pytest.raises(NoConvergence, match="^bracket failed for r at n=20$"):
            solve_r(20)


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
        roots = aberth_roots(f_poly(1)).view
        assert multiset_match(roots, [1 + SQRT3, 1 - SQRT3]) < 1e-12

    def test_g1_closed_form(self, multiset_match):
        roots = aberth_roots(g_poly(1)).view
        assert multiset_match(roots, [1 + 1j, 1 - 1j]) < 1e-12

    @pytest.mark.parametrize("n", [1, 7, 18, 30])
    def test_perron_root_matches_kappa(self, n):
        roots = aberth_roots(f_poly(n))
        top = max(roots.view, key=abs)
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
        roots = aberth_roots(f_poly(n)).view
        assert multiset_match(roots, [z.conjugate() for z in roots]) < 1e-10

    def test_numeric_root_sum(self):
        for n in (3, 11, 24):
            roots = aberth_roots(f_poly(n)).view
            assert abs(sum(roots) - 2.0) < 1e-8

    @pytest.mark.parametrize("n", range(1, 31, 3))
    def test_families_share_no_roots_and_are_separable(self, n):
        # the dominant real roots 2+2k_n and 2-2r_n approach each other at
        # rate 2^(2-n), so the cross-family floor only applies away from
        # them; their own separation is pinned to the predicted value
        rf = aberth_roots(f_poly(n)).view
        rg = aberth_roots(g_poly(n)).view
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

    @pytest.mark.parametrize(
        "p", [x_f_g(2), IntPolynomial((0, 1)), IntPolynomial((0, 1)) * f_poly(3)]
    )
    def test_only_f_and_g_are_accepted(self, p):
        with pytest.raises(ValueError, match=r"takes f_poly\(n\) or g_poly\(n\)"):
            aberth_roots(p)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_companion_regime_rounds_a_60_digit_reference(self, n):
        # the ten polynomials the companion seeds serve: each root and each
        # modulus is the binary64 rounding of mpmath's 60-digit root
        for p in (f_poly(n), g_poly(n)):
            rs = aberth_roots(p)
            with mp.workdps(60):
                ref = mp.polyroots(p.coeffs[::-1], maxsteps=200, extraprec=200)
                moduli = [float(abs(z)) for z in ref]
            assert Counter(rs.view) == Counter(complex(mp.mpc(z)) for z in ref)
            assert Counter(rs.moduli()) == Counter(moduli)

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
        _, resid = poly._polish(2.0000000000000004, 662, -2)
        assert resid < 1e-9 * max(abs(c) for c in f_poly(662).coeffs)

    def test_polish_precision_rule(self):
        assert [poly._polish_dps(d) for d in (1, 66, 67, 137, 301)] == [40, 40, 41, 62, 111]


def _companion_in_sectors(n, family):
    """The companion seeds of f_n or g_n in _contraction_seeds' order: the
    seed of sector k at index k, read off its phase; the outside root's
    seed, the one of largest real part, is left to _start_outside_at."""
    seeds = poly._companion_seeds(n, family)
    top = int(np.argmax(seeds.real))
    ordered = [None] * n
    for i, z in enumerate(seeds):
        if i != top:
            j = round(float(np.angle(z)) % (2 * math.pi) * n / math.pi) % (2 * n)
            assert j % 2 == (family == "f") and ordered[j // 2] is None
            ordered[j // 2] = z
    return np.array(ordered)


def _companion_outside(n, family):
    """The companion seed of the outside root of f_n or g_n."""
    seeds = poly._companion_seeds(n, family)
    return complex(seeds[int(np.argmax(seeds.real))])


def _start_outside_at(monkeypatch, seed):
    """Polish the outside root from the binary64 seed(n, family) in place of
    its exact start."""
    polish = poly._polish

    def from_seed(z, n, c, bits=None):
        return polish(seed(n, "f" if c < 0 else "g") if z is None else z, n, c, bits)

    monkeypatch.setattr(poly, "_polish", from_seed)


def _reference_outside_seed(n, family):
    """The binary64 seed of the outside root that the exact start replaced,
    frozen: 2 + 2 kappa_n or 2 - 2 r_n while those differ from 2 in
    binary64 (n <= 52), and the float next to 2 from n = 53."""
    if n <= 52:
        return 2.0 + 2.0 * solve_kappa(n).kappa if family == "f" else 2.0 - 2.0 * solve_r(n)
    return math.nextafter(2.0, 3.0 if family == "f" else 0.0)


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
        # every root, the outside one from its companion seed against the
        # exact start included
        rf, rg = aberth_roots(f_poly(n)), aberth_roots(g_poly(n))
        monkeypatch.setattr(poly, "_contraction_seeds", _companion_in_sectors)
        _start_outside_at(monkeypatch, _companion_outside)
        cf, cg = aberth_roots(f_poly(n)), aberth_roots(g_poly(n))
        assert rf.view == cf.view
        assert rg.view == cg.view
        assert _svg(rf, rg, n) == _svg(cf, cg, n)

    @pytest.mark.parametrize("n", [*range(6, 61), 120, 300])
    def test_annulus_bits_round_like_the_full_word(self, n):
        # every printed digit is the one the full-word polish of the same
        # seeds gives, and each residual is |p| at the returned point,
        # evaluated at the word that point was polished at; the outside root
        # (start None) keeps the word the float seed it replaced gave
        full_bits = dps_to_prec(poly._polish_dps(n + 1))
        for family, make, c in (("f", f_poly, -2), ("g", g_poly, 2)):
            p = make(n)
            full, polished = [], Counter()
            seeds = [complex(z) for z in poly._contraction_seeds(n, family) if z.imag >= 0]
            for z in [*seeds, None]:
                rounded = complex(poly._polish(z, n, c)[0])
                full += [rounded, rounded.conjugate()] if z and z.imag else [rounded]
                cheap = poly._polish(z, n, c, poly._annulus_bits(n)) if z is not None else None
                bits = poly._annulus_bits(n) if cheap else full_bits
                root, resid = cheap or poly._polish(z, n, c)
                start = _reference_outside_seed(n, family) if z is None else z
                F = poly._fraction_bits(start, p.degree, bits)
                x, y = (int(mp.ldexp(part, F)) for part in (root.real, root.imag))
                assert x == mp.ldexp(root.real, F) and y == mp.ldexp(root.imag, F)
                px, py, _, _ = poly._tent_horner(n, c, x, y, F)
                assert resid == poly._fixed_abs(px, py, F)
                polished[root.real._mpf_, root.imag._mpf_, resid] += 1
                if z and z.imag:
                    polished[root.real._mpf_, mpf_neg(root.imag._mpf_), resid] += 1
            rs = aberth_roots(p)
            assert sorted((repr(z.real), repr(z.imag)) for z in rs.view) == sorted(
                (repr(z.real), repr(z.imag)) for z in full
            )
            assert polished == Counter(
                (z.real._mpf_, z.imag._mpf_, resid) for z, resid in zip(rs.roots, rs.residuals)
            )

    def test_companion_eigenvalues_only_up_to_n_5(self, monkeypatch):
        calls = []
        polyroots = npoly.polyroots

        def counted(c):
            calls.append(len(c) - 1)
            return polyroots(c)

        monkeypatch.setattr(npoly, "polyroots", counted)
        for n in range(1, 6):
            aberth_roots(f_poly(n))
            aberth_roots(g_poly(n))
        assert calls == [d for n in range(1, 6) for d in (n + 1, n + 1)]

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
            offsets = np.angle(seeds * np.exp(-1j * phases))
            assert np.max(np.abs(offsets)) < 0.35 * math.pi / (2 * n)

    @pytest.mark.parametrize("n", [6, 7, 52, 53])
    def test_real_sectors_and_outside_seed(self, n, monkeypatch):
        f, g = poly._contraction_seeds(n, "f"), poly._contraction_seeds(n, "g")
        assert len(f) == len(g) == n
        # phase pi holds the real root of f_n for odd n, of g_n for even n;
        # phase 0 the real root of g_n near 2^(1/n)
        assert g[0].imag == 0.0
        assert (f if n % 2 else g)[n // 2].imag == 0.0
        # the outside root starts at 2 + 2^(1-n) for f_n and 2 - 2^(1-n) for
        # g_n, exactly, on the side of 2 where the float seed it replaced
        # lies: 2 + 2 kappa_n and 2 - 2 r_n to n = 52, the floats next to 2
        # from 53
        starts = []
        tent_horner = poly._tent_horner
        monkeypatch.setattr(
            poly, "_tent_horner", lambda *args: starts.append(args[2:]) or tent_horner(*args)
        )
        for family, c, side in (("f", -2, 1), ("g", 2, -1)):
            starts.clear()
            poly._polish(None, n, c)
            x, y, F = starts[0]
            assert Fraction(x, 2**F) == 2 + side * Fraction(2, 2**n) and y == 0
            assert (_reference_outside_seed(n, family) - 2.0) * side > 0

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
        # the outside root's polish starts at sector 1's seed instead
        _start_outside_at(
            monkeypatch, lambda n, family: complex(poly._contraction_seeds(n, family)[1])
        )
        with pytest.raises(NoConvergence, match="g_n at n=10, sector k=10: the outside root"):
            aberth_roots(g_poly(10))

    def test_an_unconverged_outside_root_raises(self, monkeypatch):
        # from 2.5, Newton on f_1000 stops at the cap with |p| near 10^394,
        # past binary64
        _start_outside_at(monkeypatch, lambda n, family: 2.5)
        with pytest.raises(NoConvergence, match="polished residual inf at degree 1001"):
            aberth_roots(f_poly(1000))

    def test_exact_start_ends_on_the_float_seeds_root(self):
        # the same integers, so the same root parts and the same residual
        for n in range(6, 301):
            for family, c in (("f", -2), ("g", 2)):
                root, resid = poly._polish(None, n, c)
                old, old_resid = poly._polish(_reference_outside_seed(n, family), n, c)
                assert root.real == old.real and root.imag == old.imag == 0, (n, family)
                assert resid == old_resid, (n, family)

    def test_no_float_solve_seeds_the_roots(self, monkeypatch):
        def forbidden(n):
            raise AssertionError("a float solve seeded the roots")

        monkeypatch.setattr(poly, "solve_kappa", forbidden)
        monkeypatch.setattr(poly, "solve_r", forbidden)
        for n in (6, 52, 53):
            assert len(aberth_roots(f_poly(n)).roots) == len(aberth_roots(g_poly(n)).roots) == n + 1

    @pytest.mark.parametrize("family, c", [("f", -2), ("g", 2)])
    def test_outside_root_past_38500(self, family, c):
        # the root lies 2^(1-n) from 2, far inside one binary64 unit of 2;
        # the exact start needs no float seed there
        n = 39000
        root, resid = poly._polish(None, n, c)
        assert resid < 1e-9 * max(abs(a) for a in (f_poly if family == "f" else g_poly)(n).coeffs)
        assert root.imag == 0 and root.real > 1 + 1 / n
        assert (root.real > 2) == (family == "f")


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


tent = st.builds(lambda make, n: make(n), st.sampled_from([f_poly, g_poly]), st.integers(1, 300))
points = st.builds(complex, st.floats(-2.5, 2.5), st.floats(-2.5, 2.5))


def _reference_sparse_horner(terms, x, y, F):
    """The generic evaluator that _tent_horner replaced, frozen: (p(z), p'(z))
    by Horner over the gaps between the (degree, coefficient) terms of p with
    nonzero coefficient, in strictly decreasing degree."""
    top, c = terms[0]
    ax, ay = c << F, 0
    dx = dy = 0
    for k, c in terms[1:] + ([(0, 0)] if terms[-1][0] else []):
        g = top - k
        if g == 1:
            vx, vy, tx, ty = x, y, ax, ay
        else:
            wx, wy = poly._power(x, y, g - 1, F)
            vx, vy = poly._mul(wx, wy, x, y, F)
            tx, ty = poly._mul(ax, ay, wx, wy, F)
        dx, dy = poly._mul(dx, dy, vx, vy, F)
        dx, dy = dx + g * tx, dy + g * ty
        ax, ay = poly._mul(ax, ay, vx, vy, F)
        ax += c << F
        top = k
    return ax, ay, dx, dy


class TestSparseHorner:
    """_tent_horner, Horner's rule on the sparse trinomials f_n and g_n, and
    the Newton polish built on it."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(p=tent, z=points)
    def test_matches_dense_polyval(self, p, z):
        coeffs = p.coeffs
        with mp.workdps(poly._polish_dps(p.degree)):
            F = poly._fraction_bits(z, p.degree, mp.mp.prec)
            x, y = poly._to_fixed(z.real, F), poly._to_fixed(z.imag, F)
            px, py, dx, dy = poly._tent_horner(p.degree - 1, coeffs[0], x, y, F)
            zz = mp.mpc(z)
            want, dwant = mp.polyval(coeffs[::-1], zz, derivative=True)
            size, dsize = _magnitude_bound(coeffs, zz)
            tol = 8 * (p.degree + 1) * mp.eps
            assert abs(poly._to_mpc(px, py, F) - want) <= tol * size
            assert abs(poly._to_mpc(dx, dy, F) - dwant) <= tol * dsize

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 300), family=st.sampled_from("fg"), z=points)
    @example(n=1, family="f", z=0.5 + 1j)
    @example(n=1, family="g", z=-1.5 - 0.25j)
    @example(n=2, family="g", z=2.5 + 2.5j)
    def test_same_integers_as_the_generic_evaluator(self, n, family, z):
        # the closed form makes the products the generic Horner made on f_n
        # and g_n, so every polished root keeps its bits: at a random point,
        # at each seed (the outside root's former float seed included), at 0
        # and at 2 + 2^(1-n), in the annulus word and in the full word
        p, c = (f_poly(n), -2) if family == "f" else (g_poly(n), 2)
        terms = [(k, a) for k, a in enumerate(p.coeffs) if a][::-1]
        if poly._rouche_certified(n):
            seeds = [*poly._contraction_seeds(n, family), _reference_outside_seed(n, family)]
        else:
            seeds = poly._companion_seeds(n, family)
        full_bits = dps_to_prec(poly._polish_dps(n + 1))
        for bits in (poly._annulus_bits(n), full_bits):
            fixed = []
            for w in (z, 0j, *map(complex, seeds)):
                F = poly._fraction_bits(w, n + 1, bits)
                fixed.append((poly._to_fixed(w.real, F), poly._to_fixed(w.imag, F), F))
            F = poly._fraction_bits(2.0, n + 1, bits)
            fixed.append(((2 << F) + ((1 << F) >> (n - 1)), 0, F))
            for x, y, F in fixed:
                want = _reference_sparse_horner(terms, x, y, F)
                assert poly._tent_horner(n, c, x, y, F) == want, (x, y, F)

    @pytest.mark.parametrize("n", [136, 300])
    def test_keeps_the_exact_factor_near_2(self, n):
        # f_n(2 + 2^(1-n)) = 2(1 + 2^-n)^n - 2 is about n*2^(1-n); summing
        # c*z^k term by term cancels 2^(n+1)-sized terms and loses it
        exact = f_poly(n)(2 + Fraction(1, 2 ** (n - 1)))
        F = poly._fraction_bits(2.0, n + 1, dps_to_prec(poly._polish_dps(n + 1)))
        x = (2 << F) + (1 << (F - n + 1))
        got, im, _, _ = poly._tent_horner(n, -2, x, 0, F)
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

    def test_fixed_abs_past_binary64_is_infinite(self):
        assert poly._fixed_abs(1 << 2000, 0, 0) == math.inf
        assert poly._fixed_abs(0, -(1 << 2000), 977) == 2.0**1023

    def test_an_unconverged_outside_polish_fails_the_contract(self):
        # 2^-51 from the root of f_40000, Newton stops at the cap with a
        # residual past binary64, which _fixed_abs reads as inf, so the
        # contract fails with NoConvergence
        _, resid = poly._polish(math.nextafter(2.0, 3.0), 40000, -2)
        assert resid == math.inf

    def test_real_seed_gives_an_exactly_real_root(self):
        root, _ = poly._polish(2.0000000000000004, 40, -2)
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
        seeds = poly._contraction_seeds(21, "f")
        bits = poly._annulus_bits(21)
        left_open = [
            k
            for k, z in enumerate(seeds)
            if z.imag >= 0 and poly._polish(complex(z), 21, -2, bits) is None
        ]
        assert left_open == [4]
        full, _ = poly._polish(complex(seeds[4]), 21, -2)
        assert full in aberth_roots(f_poly(21)).roots

    def test_an_unconverged_polish_is_not_settled(self):
        # p'(0) = 0 stops Newton at once; the full word returns the point,
        # the annulus bits leave it to the full word
        assert poly._polish(0j, 9, -2, poly._annulus_bits(9)) is None
        assert poly._polish(0j, 9, -2)[0] == 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=tent)
    def test_aberth_meets_contract(self, p):
        rs = aberth_roots(p)
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
