import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from tentspec import exact, markov, plmap, poly
from tentspec.markov import (
    MarkovPartition,
    MarkovViolation,
    NotStabilized,
    adjacency_matrix,
    analytic_partition,
    detect_markov_partition,
    tent_matrix,
)
from tentspec.transfer import markov_operator

KAPPA_1 = (math.sqrt(3) - 1) / 2


def fig_full_columns(n: int) -> list[set]:
    """Column supports (1-indexed rows) of the general-form full adjacency, n >= 4."""
    size = 2 * n + 4
    cols = {1: {1, 2}, n - 1: {n, n + 1, n + 2}, n: {n + 3}, n + 1: set(range(2, n + 4)),
            n + 2: {1}}
    for i in range(2, n - 1):
        cols[i] = {i + 1}
    for j in range(1, n + 3):
        cols[size + 1 - j] = {size + 1 - i for i in cols[j]}
    return [cols[j] for j in range(1, size + 1)]


def fig_folded_columns(n: int) -> list[set]:
    """Column supports of the general-form folded adjacency, n >= 4."""
    size = n + 3
    cols = {1: {size}, 2: set(range(1, n + 3)), 3: {1}, 4: {1}, 5: {1, 2, 3, 4},
            size: {n + 2, n + 3}}
    for k in range(6, n + 3):
        cols[k] = {k - 1}
    return [cols[j] for j in range(1, size + 1)]


def column_supports(A: exact.ExactMatrix) -> list[set]:
    return [{i + 1 for i in range(A.rows) if A[i, j]} for j in range(A.cols)]


class TestDetection:
    def test_n1_breakpoints(self):
        part, trace = detect_markov_partition(plmap.make_paired_tent(KAPPA_1))
        assert part.size == 6
        expected = [-1, -0.5, -KAPPA_1, 0, KAPPA_1, 0.5, 1]
        assert np.allclose(part.breakpoints, expected, atol=1e-12)
        assert trace.stabilized_at is not None

    @pytest.mark.parametrize("n,kind,count", [(4, "full", 12), (4, "folded", 7), (9, "full", 22), (9, "folded", 12)])
    def test_interval_counts(self, n, kind, count):
        kappa = poly.solve_kappa(n).kappa
        maker = plmap.make_paired_tent if kind == "full" else plmap.make_folded_tent
        part, _ = detect_markov_partition(maker(kappa))
        assert part.size == count

    def test_non_markov_parameter_never_stabilizes(self):
        # (2+2k)^n k never hits 1 for kappa=1/4 (checked below), so the
        # endpoint orbit keeps producing new points
        assert all(abs((2 + 2 * 0.25) ** n * 0.25 - 1) > 1e-6 for n in range(1, 65))
        with pytest.raises(NotStabilized) as err:
            detect_markov_partition(plmap.make_paired_tent(0.25))
        assert err.value.trace.stabilized_at is None
        assert len(err.value.trace.steps) >= 2

    def test_trace_is_nested(self):
        _, trace = detect_markov_partition(plmap.make_paired_tent(KAPPA_1))
        for a, b in zip(trace.steps, trace.steps[1:]):
            assert set(a) <= set(b)


class TestAnalyticPartition:
    def test_n1_full_matches_closed_list(self):
        part = analytic_partition(1, "full", KAPPA_1)
        expected = [-1, -0.5, -KAPPA_1, 0, KAPPA_1, 0.5, 1]
        assert np.allclose(part.breakpoints, expected, atol=1e-15)

    def test_n1_folded(self):
        part = analytic_partition(1, "folded", KAPPA_1)
        expected = [0, KAPPA_1, 0.5, 1 - KAPPA_1, 1]
        assert np.allclose(part.breakpoints, expected, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_folded_middle_block(self, n):
        kappa = poly.solve_kappa(n).kappa
        part = analytic_partition(n, "folded", kappa)
        delta = kappa / (2 * (1 + kappa))
        assert part.breakpoints[2] == pytest.approx(0.5 - delta, abs=1e-15)
        assert part.breakpoints[3] == 0.5
        assert part.breakpoints[4] == pytest.approx(0.5 + delta, abs=1e-15)

    def test_inconsistent_kappa_rejected(self):
        with pytest.raises(ValueError):
            analytic_partition(2, "full", KAPPA_1)
        with pytest.raises(ValueError):
            analytic_partition(1, "full", 0.25)

    @pytest.mark.parametrize("n", [1, 5, 52])
    @pytest.mark.parametrize("kind", ["full", "folded"])
    def test_nan_kappa_does_not_solve(self, kind, n):
        # abs(nan) > 1e-12 is False, so a NaN residual used to pass the
        # check: n = 1 then raised the untyped "strictly increasing" error
        # and n = 5 a MarkovViolation naming c_4 = nan
        with pytest.raises(ValueError, match="does not solve") as err:
            analytic_partition(n, kind, math.nan)
        assert not isinstance(err.value, MarkovViolation)

    @pytest.mark.parametrize("n", [45, 52])
    @pytest.mark.parametrize("kind", ["full", "folded"])
    def test_kappa_that_breaks_the_order_is_a_markov_violation(self, kind, n):
        # its residual, about 5e-13, passes the 1e-12 check, but c_{n-1} =
        # 1/2 + (kappa - residual)/s falls below 1/2 from about n = 40; the
        # full partition used to raise the untyped "strictly increasing"
        # ValueError, and the folded kind, which has no c_{n-1} breakpoint,
        # accepted it
        kappa = poly.solve_kappa(n).kappa * (1 + 5e-13)
        with pytest.raises(MarkovViolation, match=rf"n={n}, kind={kind}: .* not consistent"):
            analytic_partition(n, kind, kappa)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_agrees_with_detection(self, n):
        kappa = poly.solve_kappa(n).kappa
        for kind, maker in (("full", plmap.make_paired_tent), ("folded", plmap.make_folded_tent)):
            ana = analytic_partition(n, kind, kappa)
            det, _ = detect_markov_partition(maker(kappa))
            assert det.size == ana.size
            assert np.allclose(det.breakpoints, ana.breakpoints, atol=1e-9)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_full_partition_symmetric_about_zero(self, n):
        kappa = poly.solve_kappa(n).kappa
        bps = analytic_partition(n, "full", kappa).breakpoints
        assert np.allclose(bps, [-b for b in reversed(bps)], atol=1e-12)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            MarkovPartition((0.0,))
        with pytest.raises(ValueError):
            MarkovPartition((0.0, 0.0, 1.0))

    @pytest.mark.parametrize(
        "bps, match",
        [
            ((-1.0, math.nan, 1.0), r"breakpoints 0 and 1 are -1.0 and nan"),
            ((math.nan, 0.0, 1.0), r"breakpoints 0 and 1 are nan and 0.0"),
            ((-1.0, 0.0, math.nan), r"breakpoints 1 and 2 are 0.0 and nan"),
        ],
    )
    def test_nan_breakpoint_rejected_with_its_index(self, bps, match):
        with pytest.raises(ValueError, match=match):
            MarkovPartition(bps)


def exact_breakpoints(n: int, kind: str, kappa: float) -> list[Fraction]:
    """The breakpoints' labels at the binary64 kappa, in Fractions: s = 2 + 2
    kappa and c_k = 1 - s^k kappa taken exactly."""
    k = Fraction(kappa)
    s = 2 + 2 * k
    c = [1 - s**j * k for j in range(1, n)]
    half = Fraction(1, 2)
    if kind == "full":
        return [-1, *(-x for x in c), -half, -k, 0, k, half, *reversed(c), 1]
    if n == 1:
        return [0, k, half, 1 - k, 1]
    return [0, k, half - k / s, half, half + k / s, *reversed(c[:-1]), 1]


class TestBreakpoints:
    @pytest.mark.parametrize("n", range(1, 53))
    @pytest.mark.parametrize("kind", ["full", "folded"])
    def test_within_the_docstring_bound_of_their_exact_values(self, kind, n):
        # analytic_partition's docstring bound: 2.3 u with u = 2^-53.  The
        # float orbit the breakpoints used to come from was off by 122 u at
        # full n = 10 and 6.7e7 u at n = 29.
        kappa = poly.solve_kappa(n).kappa
        got = analytic_partition(n, kind, kappa).breakpoints
        want = exact_breakpoints(n, kind, kappa)
        assert len(got) == len(want)
        worst = max(abs(Fraction(b) - w) for b, w in zip(got, want)) * 2**53
        assert worst <= Fraction(23, 10), f"{float(worst)} u"


class TestAdjacency:
    def test_n1_column_supports(self):
        # read off the six branch images at kappa_1 by hand:
        # (-1,-1/2)->(-1,k), (-1/2,-k)->(0,k), (-k,0)->(-1,0) and mirrors
        suite = adjacency_matrix(
            plmap.make_paired_tent(KAPPA_1), analytic_partition(1, "full", KAPPA_1)
        )
        assert column_supports(suite) == [
            {1, 2, 3, 4}, {4}, {1, 2, 3}, {4, 5, 6}, {3}, {3, 4, 5, 6},
        ]

    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_full_general_form(self, n, suite):
        assert column_supports(suite(n)["A"]) == fig_full_columns(n)

    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_folded_general_form(self, n, suite):
        assert column_supports(suite(n)["B"]) == fig_folded_columns(n)

    def test_folded_first_column_is_last_interval(self, suite):
        cols = column_supports(suite(4)["B"])
        assert cols[0] == {4 + 3}

    @pytest.mark.parametrize("n", range(1, 13))
    def test_flip_conjugation(self, n, suite):
        s = suite(n)
        assert s["J"] @ s["A"] @ s["J"] == s["A"]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_long_branch_columns_cover_n_plus_2(self, n, suite):
        # the long monotone piece next to the center stretches over n+2
        # intervals; at n=1 that piece is (-kappa_1, 0) rather than
        # (-1/2, -kappa_1) because the inner breakpoint swaps order
        cols = column_supports(suite(n)["A"])
        left, right = (2, 3) if n == 1 else (n, n + 3)
        assert len(cols[left]) == n + 2
        assert len(cols[right]) == n + 2

    def test_non_markov_partition_rejected(self):
        T = plmap.make_paired_tent(KAPPA_1)
        grid = MarkovPartition(tuple(np.linspace(-1, 1, 9)))
        with pytest.raises(MarkovViolation):
            adjacency_matrix(T, grid)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_detected_and_analytic_adjacency_identical(self, n):
        kappa = poly.solve_kappa(n).kappa
        for kind, maker in (("full", plmap.make_paired_tent), ("folded", plmap.make_folded_tent)):
            pmap = maker(kappa)
            det, _ = detect_markov_partition(pmap)
            ana = analytic_partition(n, kind, kappa)
            assert adjacency_matrix(pmap, det) == adjacency_matrix(pmap, ana)


class TestTentMatrix:
    @pytest.mark.parametrize("n", range(1, 26))
    @pytest.mark.parametrize(
        "kind, maker", [("full", plmap.make_paired_tent), ("folded", plmap.make_folded_tent)]
    )
    def test_runs_equal_the_float_adjacency(self, n, kind, maker):
        kappa = poly.solve_kappa(n).kappa
        expected = adjacency_matrix(maker(kappa), analytic_partition(n, kind, kappa))
        A = tent_matrix(n, kind)
        assert A == expected
        # equal matrices store equal columns
        assert A.columns == expected.columns

    @pytest.mark.parametrize("n", [1, 2, 3, 26, 100])
    def test_one_run_per_column_mirrored(self, n):
        A = tent_matrix(n, "full")
        m = 2 * n + 4
        runs = []
        for col in A.columns:
            rows = [i for i, _ in col]
            assert rows == list(range(rows[0], rows[-1] + 1))
            runs.append((rows[0], rows[-1] + 1))
        assert runs == [(m - hi, m - lo) for lo, hi in reversed(runs)]
        assert (A.rows, A.cols) == (m, m)
        B = tent_matrix(n, "folded")
        assert (B.rows, B.cols) == (n + 3, n + 3)

    def test_tent_chain_returns_the_exact_matrix(self):
        # the chain kappa_n -> partition -> tent_matrix, as markov_operator builds it
        assert np.array_equal(markov_operator(7, "full").adjacency, tent_matrix(7, "full").entries)

    @pytest.mark.parametrize("n, kind", [(0, "full"), (3, "half")])
    def test_rejects_bad_input(self, n, kind):
        with pytest.raises(ValueError):
            tent_matrix(n, kind)


class TestSupportedRange:
    @pytest.mark.parametrize("kind, size", [("full", 2 * 25 + 4), ("folded", 25 + 3)])
    def test_tent_chain_builds_at_25(self, kind, size):
        op = markov_operator(25, kind)
        assert op.scale == 2.0 + 2.0 * poly.solve_kappa(25).kappa
        assert op.partition.size == op.adjacency.shape[0] == op.adjacency.shape[1] == size

    @pytest.mark.parametrize("kind, n_max", [("full", 52), ("folded", 52)])
    def test_analytic_partition_edge(self, kind, n_max):
        analytic_partition(n_max, kind, poly.solve_kappa(n_max).kappa)
        with pytest.raises(ValueError):
            analytic_partition(n_max + 1, kind, poly.solve_kappa(n_max + 1).kappa)

    @pytest.mark.parametrize("kind, n", [("full", 53), ("folded", 53)])
    def test_partition_past_range_names_n_kind_and_last_n(self, kind, n):
        with pytest.raises(MarkovViolation, match=rf"n={n}, kind={kind}: .* past n={n - 1}"):
            analytic_partition(n, kind, poly.solve_kappa(n).kappa)


def exact_lengths(n: int, kind: str) -> tuple[list[float], float]:
    """Interval lengths as differences of the breakpoints c_k = 1 - s^k kappa
    at 40 digits, kappa the root of (2+2k)^n k = 1, each rounded once; and
    the relative error of the binary64 kappa_n."""
    kappa_n = poly.solve_kappa(n).kappa
    with mp.workdps(40):
        kappa = mp.findroot(lambda k: (2 + 2 * k) ** n * k - 1, kappa_n)
        kappa_err = abs(float(kappa_n / kappa - 1))
        s = 2 + 2 * kappa
        c = [1 - s**k * kappa for k in range(1, n)]  # c_1 > ... > c_{n-1} > 1/2
        if kind == "full":
            left = [-1, *(-x for x in c), -0.5, -kappa, 0]
            bps = left + [-x for x in reversed(left[:-1])]
        elif n == 1:
            bps = [0, kappa, 0.5, 1 - kappa, 1]
        else:
            bps = [0, kappa, 1 / s, 0.5, *reversed(c), 1]
        return [float(b - a) for a, b in zip(bps, bps[1:])], kappa_err


def exact_closed_lengths(n: int, kind: str, kappa: float) -> list[Fraction]:
    """`analytic_partition`'s closed-form lengths at the binary64 kappa, in
    Fractions: s = 2 + 2 kappa taken exactly."""
    k = Fraction(kappa)
    s = 2 + 2 * k
    half = Fraction(1, 2)
    orbit = [k * s**j * (s - 1) for j in range(1, n - 1)]
    if kind == "full":
        left = [s * k, *orbit, k / s] if n > 1 else [half]
        left += [half - k, k]
        return left + left[::-1]
    if n == 1:
        return [k, half - k, half - k, k]
    return [k, 1 / s - k, k / s, k / s, *reversed(orbit), s * k]


class TestLengths:
    @pytest.mark.parametrize("n", range(1, 53))
    @pytest.mark.parametrize("kind", ["full", "folded"])
    def test_within_the_docstring_bound_of_their_exact_values(self, kind, n):
        # analytic_partition's docstring: within 26 ulp (25.9 at n = 29),
        # because the orbit lengths take powers of the rounded s
        kappa = poly.solve_kappa(n).kappa
        got = analytic_partition(n, kind, kappa).lengths
        want = exact_closed_lengths(n, kind, kappa)
        assert len(got) == len(want)
        worst = max(abs(Fraction(g) - w) / Fraction(math.ulp(w)) for g, w in zip(got, want))
        assert worst <= 26, f"{float(worst)} ulp"

    @pytest.mark.parametrize("kind, n_max", [("full", 29), ("folded", 52)])
    def test_closed_forms_are_the_exact_lengths(self, kind, n_max):
        # each length also carries kappa_n's own error (up to 2.9e-15 at
        # n = 29), times at most 2.7 (1/2 - kappa at n = 1)
        for n in range(1, n_max + 1):
            got = analytic_partition(n, kind, poly.solve_kappa(n).kappa).lengths
            want, kappa_err = exact_lengths(n, kind)
            want = np.array(want)
            assert np.max(np.abs(got - want) / want) <= 1e-15 + 3 * kappa_err, n

    def test_a_partition_from_breakpoints_alone_has_their_differences(self):
        part, _ = detect_markov_partition(plmap.make_paired_tent(poly.solve_kappa(4).kappa))
        assert np.array_equal(part.lengths, np.diff(part.breakpoints))

    def test_n1_lengths(self):
        part = analytic_partition(1, "full", KAPPA_1)
        expected = [0.5, 0.5 - KAPPA_1, KAPPA_1, KAPPA_1, 0.5 - KAPPA_1, 0.5]
        assert np.allclose(part.lengths, expected, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_total_length(self, n):
        kappa = poly.solve_kappa(n).kappa
        assert analytic_partition(n, "full", kappa).lengths.sum() == pytest.approx(2.0, abs=1e-12)
        assert analytic_partition(n, "folded", kappa).lengths.sum() == pytest.approx(1.0, abs=1e-12)


def test_partition_serialization_round_trips():
    part = analytic_partition(3, "full", poly.solve_kappa(3).kappa)
    payload = part.to_dict()
    back = [float(s) for s in payload["breakpoints"]]
    assert tuple(back) == part.breakpoints
