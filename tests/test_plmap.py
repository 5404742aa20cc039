import math

import numpy as np
import pytest

from tentspec import plmap
from tentspec.plmap import Branch, Interval, make_folded_tent, make_paired_tent

# root of 4k^3 + 8k^2 + 4k - 1, frozen from an 80-step exact-rational bisection
KAPPA_2 = 0.17965204298588822


def test_kappa_2_oracle_is_a_root():
    # the frozen value really solves the cubic (exact rational evaluation)
    from fractions import Fraction

    k = Fraction(KAPPA_2)
    assert abs(4 * k**3 + 8 * k**2 + 4 * k - 1) < Fraction(1, 10**15)


class TestPairedTent:
    def test_fixes_endpoints(self):
        T = make_paired_tent(0.3)
        assert T.eval_one_sided(-1.0, "right") == -1.0
        assert T.eval_one_sided(1.0, "left") == 1.0

    def test_half_maps_to_minus_kappa(self):
        # T is continuous at +-1/2: both one-sided limits are -+kappa
        T = make_paired_tent(0.3)
        for side in ("left", "right"):
            assert T.eval_one_sided(0.5, side) == pytest.approx(-0.3, abs=1e-15)
            assert T.eval_one_sided(-0.5, side) == pytest.approx(0.3, abs=1e-15)

    def test_branch_count_and_slopes(self):
        for kappa in (0.1, 0.3, 0.5):
            T = make_paired_tent(kappa)
            assert len(T.branches) == 4
            assert all(abs(b.slope) == 2.0 * (1.0 + kappa) for b in T.branches)

    def test_oddness_exact_in_binary64(self):
        rng = np.random.default_rng(42)
        for kappa in (0.05, 0.3, 0.5):
            T = make_paired_tent(kappa)
            for x in rng.uniform(1e-12, 1.0 - 1e-12, size=1000):
                # T(-x) = -T(x), one-sided: the left limit at -x mirrors the right limit at x
                assert abs(T.eval_one_sided(-x, "left") + T.eval_one_sided(x, "right")) <= 1e-14

    def test_one_sided_limits_at_zero(self):
        # the branch -2(1+k)x - 1 on (-1/2, 0) gives -1 from the left,
        # the branch -2(1+k)x + 1 on (0, 1/2) gives +1 from the right
        T = make_paired_tent(0.3)
        assert T.eval_one_sided(0.0, "left") == -1.0
        assert T.eval_one_sided(0.0, "right") == 1.0

    def test_branch_interior_all_sides_agree(self):
        T = make_paired_tent(0.3)
        expected = -2.0 * 1.3 * 0.25 + 1.0
        for side in ("left", "right"):
            assert T.eval_one_sided(0.25, side) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.35)

    def test_eval_outside_ambient_raises(self):
        T = make_paired_tent(0.3)
        with pytest.raises(ValueError):
            T.eval_one_sided(1.5, "left")
        with pytest.raises(ValueError):
            T.eval_one_sided(-1.0, "left")
        with pytest.raises(ValueError):
            T.eval_one_sided(1.0, "right")

    def test_kappa_out_of_range(self):
        for bad in (0.0, -0.1, 0.6):
            with pytest.raises(ValueError):
                make_paired_tent(bad)
            with pytest.raises(ValueError):
                make_folded_tent(bad)


class TestFoldedTent:
    def test_half_maps_to_kappa(self):
        F = make_folded_tent(0.3)
        for side in ("left", "right"):
            assert F.eval_one_sided(0.5, side) == pytest.approx(0.3, abs=1e-15)

    def test_pointwise_absolute_value(self):
        rng = np.random.default_rng(3)
        T = make_paired_tent(0.3)
        F = make_folded_tent(0.3)
        for x in rng.uniform(1e-9, 1.0 - 1e-9, size=100):
            for side in ("left", "right"):
                assert abs(abs(T.eval_one_sided(x, side)) - F.eval_one_sided(x, side)) <= 1e-12

    def test_branch_count(self):
        assert len(make_folded_tent(0.2).branches) == 4

    def test_second_iterate_of_kappa2_hits_zero(self):
        F = make_folded_tent(KAPPA_2)
        assert abs(F.eval_one_sided(F.eval_one_sided(KAPPA_2, "right"), "right")) < 1e-12

    def test_folding_commutes(self):
        rng = np.random.default_rng(11)
        for kappa in (0.12, 0.35):
            T = make_paired_tent(kappa)
            F = make_folded_tent(kappa)
            for x in rng.uniform(-1 + 1e-9, 1 - 1e-9, size=1000):
                if x == 0.0:
                    continue
                # approaching x from the right approaches |x| from the left when x < 0
                folded = F.eval_one_sided(abs(x), "right" if x > 0 else "left")
                assert abs(abs(T.eval_one_sided(x, "right")) - folded) <= 1e-12


class TestValidation:
    def test_interval_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)

    def test_branch_slope_nonzero(self):
        with pytest.raises(ValueError):
            Branch(Interval(0.0, 1.0), 0.0, 0.5)

    def test_branches_must_tile(self):
        with pytest.raises(ValueError):
            plmap.PiecewiseLinearMap(
                Interval(0.0, 1.0),
                (Branch(Interval(0.0, 0.4), 1.0, 0.0), Branch(Interval(0.5, 1.0), -1.0, 1.0)),
            )

    def test_image_must_stay_inside(self):
        with pytest.raises(ValueError):
            plmap.PiecewiseLinearMap(
                Interval(0.0, 1.0), (Branch(Interval(0.0, 1.0), 2.0, 0.0),)
            )

    def test_discontinuity_requires_one_sided(self):
        # a map has no pointwise value, at its jump at 0 or anywhere else
        T = make_paired_tent(0.3)
        assert not callable(T)
        for x in (0.0, 0.25):
            with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
                T.eval_one_sided(x, "point")


def test_closed_form_orbit_matches_evaluation():
    # T^i(kappa) = 1 - (2+2k)^i k while the orbit stays right of 1/2
    from tentspec.poly import solve_kappa

    for n in (2, 5, 9):
        kappa = solve_kappa(n).kappa
        T = make_paired_tent(kappa)
        t = kappa
        for i in range(1, n):
            t = T.eval_one_sided(t, "right")
            assert t == pytest.approx(1.0 - (2 + 2 * kappa) ** i * kappa, abs=1e-12)
            assert t > 0.5
        # the n-th iterate lands on the discontinuity 0
        assert abs(T.eval_one_sided(t, "right")) < 1e-9


def test_oddness_of_paired_tent_definition():
    # negation symmetry holds branch-for-branch, not only at sampled points
    T = make_paired_tent(math.pi / 10)
    for b in T.branches:
        mirror = [m for m in T.branches if abs(m.domain.lo + b.domain.hi) < 1e-15][0]
        assert mirror.slope == b.slope
        assert mirror.intercept == -b.intercept
