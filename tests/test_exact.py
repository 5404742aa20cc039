from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tentspec import plmap, poly
from tentspec.exact import (
    ExactMatrix,
    IntPolynomial,
    NonIntegralRestriction,
    flip_matrix,
    inclusion_iota,
    is_local_min_poly,
    kernel_basis,
    krylov_chain,
    krylov_min_poly,
    mat_poly_apply,
    rational_rank,
    same_span,
    symmetric_restriction,
    triangular,
    verify_intertwine,
    verify_pair_identity,
)
from tentspec.markov import adjacency_matrix, analytic_partition, tent_matrix

from conftest import from_rows

X = IntPolynomial((0, 1))

int_polys = st.lists(st.integers(-60, 60), min_size=1, max_size=8).map(
    lambda cs: IntPolynomial(tuple(cs))
)


def symmetry_kernel_vectors(n: int):
    size = 2 * n + 4
    v1 = [0] * size
    for i in range(n):
        v1[i] = 1
    v1[n] = v1[n + 1] = -1
    return [tuple(v1), tuple(v1[::-1])]


class TestExactMatrix:
    def test_flip_size_2(self):
        assert flip_matrix(2).entries == ((0, 1), (1, 0))

    @pytest.mark.parametrize("size", [1, 2, 7, 24])
    def test_flip_is_involution(self, size):
        J = flip_matrix(size)
        assert J @ J == ExactMatrix.identity(size)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            ExactMatrix.identity(2) @ ExactMatrix.identity(3)

    def test_power(self):
        M = from_rows([[1, 1], [0, 1]])
        assert (M ** 5).entries == ((1, 5), (0, 1))
        assert (M ** 0) == ExactMatrix.identity(2)

    def test_big_integer_growth(self):
        # entries overflow 64-bit quickly; exact arithmetic must not care
        M = from_rows([[2, 1], [1, 2]])
        P = M ** 100
        assert P[0, 0] > 2 ** 99
        assert P[0, 0] + P[0, 1] == 3 ** 100

    def test_scalar_multiple_rejects_a_non_integer(self):
        with pytest.raises(ValueError, match="scalar"):
            2.5 * ExactMatrix.identity(2)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), size=st.integers(1, 5), c=st.integers(-9, 9))
    def test_arithmetic_results_hold_ints(self, data, size, c):
        entries = st.lists(
            st.lists(st.integers(-5, 5), min_size=size, max_size=size), min_size=size, max_size=size
        )
        M = from_rows(data.draw(entries))
        N = from_rows(data.draw(entries))
        for out in (M @ N, M + N, M - N, c * M, M * c):
            assert type(out.entries) is tuple
            assert all(type(row) is tuple for row in out.entries)
            assert all(type(x) is int for row in out.entries for x in row)
            assert out == from_rows(out.entries)


def assert_stored_form(M: ExactMatrix):
    """M's columns are the only form it stores: int rows, increasing within
    a column and in range, with nonzero int values, and equal to those that
    `from_rows` collects from the dense rows."""
    assert len(M.columns) == M.cols
    for col in M.columns:
        rows = [i for i, _ in col]
        assert rows == sorted(set(rows)) and all(0 <= i < M.rows for i in rows), col
        assert all(type(i) is int and type(a) is int and a for i, a in col), col
    assert from_rows(M.entries) == M
    assert type(M.columns) is tuple and all(type(col) is tuple for col in M.columns)


class TestStoredForm:
    """Every builder writes columns in the stored form, on which equality
    and hashing rest."""

    @pytest.mark.parametrize("n", [*range(1, 41), 100])
    @pytest.mark.parametrize("kind", ["full", "folded"])
    def test_tent_matrix(self, n, kind):
        assert_stored_form(tent_matrix(n, kind))

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 25])
    @pytest.mark.parametrize(
        "kind, maker", [("full", plmap.make_paired_tent), ("folded", plmap.make_folded_tent)]
    )
    def test_adjacency_matrix(self, n, kind, maker):
        kappa = poly.solve_kappa(n).kappa
        assert_stored_form(adjacency_matrix(maker(kappa), analytic_partition(n, kind, kappa)))

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_restriction_and_inclusion(self, n):
        assert_stored_form(symmetric_restriction(tent_matrix(n, "full"), n))
        assert_stored_form(inclusion_iota(n))

    @pytest.mark.parametrize("size", [1, 2, 7])
    def test_flip_and_identity(self, size):
        assert_stored_form(flip_matrix(size))
        assert_stored_form(ExactMatrix.identity(size))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        n=st.integers(1, 2),
        c=st.sampled_from([0, 1, -1, 3]),
    )
    def test_arithmetic_and_cancelling_restrictions(self, data, n, c):
        # entries in -2..2 make products, sums and the restriction's column
        # sums cancel to zero often
        size = 2 * n + 4
        square = st.lists(
            st.lists(st.integers(-2, 2), min_size=size, max_size=size), min_size=size, max_size=size
        )
        M = from_rows(data.draw(square))
        N = from_rows(data.draw(square))
        J = flip_matrix(size)
        for out in (M @ N, M + N, M - N, M - M, c * M, M * c, M @ J):
            assert_stored_form(out)
        assert_stored_form(symmetric_restriction(M + J @ M @ J, n))


def dense_product(left, right):
    """Row-times-column triple loop over plain lists, independent of ExactMatrix."""
    inner = len(right)
    return [
        [sum(left[i][k] * right[k][j] for k in range(inner)) for j in range(len(right[0]))]
        for i in range(len(left))
    ]


def dense_apply(rows, vec):
    return [sum(a * x for a, x in zip(row, vec)) for row in rows]


@st.composite
def sparse_rows(draw, rows, cols):
    """A rows x cols integer matrix with negative entries, zeros and some all-zero columns."""
    entry = st.one_of(st.just(0), st.integers(-4, 4))
    out = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    zero_cols = draw(st.sets(st.integers(0, cols - 1)))
    return [[0 if j in zero_cols else x for j, x in enumerate(row)] for row in out]


dims = st.integers(1, 5)


class TestColumnProducts:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), rows=dims, cols=dims)
    def test_apply_matches_dense_reference(self, data, rows, cols):
        M = data.draw(sparse_rows(rows, cols))
        entry = st.one_of(st.just(0), st.integers(-5, 5), st.integers(-2 ** 80, 2 ** 80))
        vec = data.draw(st.lists(entry, min_size=cols, max_size=cols))
        out = from_rows(M).apply(vec)
        assert out == tuple(dense_apply(M, vec))
        assert all(type(x) is int for x in out)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), rows=dims, cols=dims)
    def test_apply_to_fractions_equals_in_value(self, data, rows, cols):
        M = data.draw(sparse_rows(rows, cols))
        entry = st.one_of(st.just(0), st.integers(-5, 5), fractions)
        vec = data.draw(st.lists(entry, min_size=cols, max_size=cols))
        assert from_rows(M).apply(vec) == tuple(dense_apply(M, vec))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), rows=dims, inner=dims, cols=dims)
    def test_matmul_matches_dense_reference(self, data, rows, inner, cols):
        left = data.draw(sparse_rows(rows, inner))
        right = data.draw(sparse_rows(inner, cols))
        product = from_rows(left) @ from_rows(right)
        assert product.entries == tuple(map(tuple, dense_product(left, right)))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), size=dims, k=st.integers(0, 6))
    def test_power_matches_repeated_dense_products(self, data, size, k):
        M = data.draw(sparse_rows(size, size))
        expected = [[int(i == j) for j in range(size)] for i in range(size)]
        for _ in range(k):
            expected = dense_product(expected, M)
        assert (from_rows(M) ** k).entries == tuple(map(tuple, expected))

    def test_apply_length_mismatch(self):
        with pytest.raises(ValueError):
            ExactMatrix.identity(3).apply((1, 2))


class TestIntPolynomial:
    def test_trims_and_evaluates(self):
        p = IntPolynomial((1, 2, 0, 0))
        assert p.coeffs == (1, 2)
        assert p(3) == 7
        assert p(1 + 1j) == 3 + 2j

    def test_arithmetic(self):
        f = poly.f_poly(1)
        g = poly.g_poly(1)
        assert g - f == IntPolynomial((4,))
        assert (f * g).degree == 4

    def test_exact_div(self):
        # x f g = min_poly(3); each proper divisor times its missing factor gives it back
        f, g, m = poly.f_poly(3), poly.g_poly(3), poly.min_poly(3)
        assert X * g == IntPolynomial((0, 2, 0, 0, -2, 1))
        for divisor, cofactor in ((f * g, X), (X * g, f), (X * f, g)):
            assert divisor * cofactor == m
            assert 0 < divisor.degree < m.degree

    def test_primitive_sign(self):
        assert IntPolynomial((-4, 0, -2)).primitive() == IntPolynomial((2, 0, 1))

    def test_non_integer_coefficient_is_rejected(self):
        # int() would truncate (1.5, 2.7) to (1, 2) silently
        with pytest.raises(ValueError, match=r"coefficient 0 .*1\.5"):
            IntPolynomial((1.5, 2.7))
        with pytest.raises(ValueError, match=r"coefficient 1 "):
            IntPolynomial((1, Fraction(1, 2)))

    def test_bools_and_numpy_integers_become_ints(self):
        p = IntPolynomial((np.int32(-3), True, np.int64(0)))
        assert p.coeffs == (-3, 1)
        assert all(type(c) is int for c in p.coeffs)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(p=int_polys, q=int_polys, x=st.one_of(st.integers(-20, 20), st.fractions(-5, 5, max_denominator=12)))
    def test_evaluation_respects_ring_operations(self, p, q, x):
        assert (p + q)(x) == p(x) + q(x)
        assert (p - q)(x) == p(x) - q(x)
        assert (p * q)(x) == p(x) * q(x)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(p=int_polys.filter(lambda p: not p.is_zero()))
    def test_primitive_is_unit_content_positive_multiple(self, p):
        q = p.primitive()
        assert q.content() == 1
        assert q.leading > 0
        scale = p.content() if p.leading > 0 else -p.content()
        assert IntPolynomial((scale,)) * q == p


class TestMatPolyApply:
    def test_identity_polynomial(self):
        M = from_rows([[3, 1], [2, 5]])
        assert mat_poly_apply(X, M) == M

    @pytest.mark.parametrize("n", range(1, 11))
    def test_min_poly_annihilates(self, n, suite):
        assert mat_poly_apply(poly.min_poly(n), suite(n)["A"]).is_zero()

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_flip_annihilated_by_x2_minus_1(self, n, suite):
        assert mat_poly_apply(IntPolynomial((-1, 0, 1)), suite(n)["J"]).is_zero()


def _frac_divmod(a, b):
    """Quotient and trimmed remainder of a / b over Q, ascending coefficients."""
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = list(a)
    for k in range(len(a) - len(b), -1, -1):
        q[k] = r[k + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            r[k + i] -= q[k] * c
    r = r[: len(b) - 1] or [Fraction(0)]
    while len(r) > 1 and r[-1] == 0:
        r.pop()
    return q, r


def _unit_annihilator(M, j):
    """Monic least relation sum_k c_k M^k e_j = 0, by elimination over Q."""
    size = M.rows
    basis = []  # (pivot, vector scaled to 1 at the pivot, combination)
    w = [Fraction(int(i == j)) for i in range(size)]
    while True:
        vec, combo = list(w), [Fraction(0)] * len(basis) + [Fraction(1)]
        for pivot, r, c in basis:
            f = vec[pivot]
            vec = [x - f * y for x, y in zip(vec, r)]
            combo = [x - f * y for x, y in zip(combo, c + [0] * (len(combo) - len(c)))]
        if not any(vec):
            return [c / combo[-1] for c in combo]
        pivot = next(i for i, x in enumerate(vec) if x)
        basis.append((pivot, [x / vec[pivot] for x in vec], [x / vec[pivot] for x in combo]))
        w = list(M.apply(w))


def reference_min_poly(M):
    """LCM over Q of the annihilators of every standard basis vector."""
    lcm = [Fraction(1)]
    for j in range(M.rows):
        p = _unit_annihilator(M, j)
        g, r = lcm, p
        while any(r):
            g, r = r, _frac_divmod(g, r)[1]
        q, _ = _frac_divmod(p, g)  # lcm * q = lcm * p / gcd(lcm, p)
        out = [Fraction(0)] * (len(lcm) + len(q) - 1)
        for i, x in enumerate(lcm):
            for k, y in enumerate(q):
                out[i + k] += x * y
        lcm = out
    den = 1
    for c in lcm:
        den = den * c.denominator // gcd(den, c.denominator)
    return IntPolynomial(tuple(int(c * den) for c in lcm)).primitive()


square_matrices = st.integers(1, 6).flatmap(
    lambda size: st.sampled_from([st.integers(-3, 3), st.integers(0, 1)]).flatmap(
        lambda entry: st.lists(
            st.lists(entry, min_size=size, max_size=size), min_size=size, max_size=size
        )
    )
).map(from_rows)


def reference_pair_identity(A, J, n):
    """AJ = JA and A(A^{n+1} - 2A^n - 2J) = 0 by dense products over plain lists."""
    if dense_product(A, J) != dense_product(J, A):
        return False
    size = len(A)
    An = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(n):
        An = dense_product(An, A)
    An1 = dense_product(An, A)
    inner = [[x - 2 * y - 2 * z for x, y, z in zip(*rows)] for rows in zip(An1, An, J)]
    return not any(any(row) for row in dense_product(A, inner))


class TestPairIdentity:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_holds_for_tent_matrices(self, n, suite):
        s = suite(n)
        assert verify_pair_identity(s["A"], s["J"], n)

    def test_single_entry_perturbation_breaks_it(self, suite):
        s = suite(1)
        rows = [list(row) for row in s["A"].entries]
        assert rows[0][0] == 1
        rows[0][0] = 0
        assert not verify_pair_identity(from_rows(rows), s["J"], 1)

    def test_identity_matrix_fails(self):
        eye = ExactMatrix.identity(6)
        assert not verify_pair_identity(eye, flip_matrix(6), 1)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), size=st.integers(1, 4), n=st.integers(1, 3), mode=st.integers(0, 3))
    def test_matches_dense_reference(self, data, size, n, mode):
        A = data.draw(sparse_rows(size, size))
        if mode == 0:  # J drawn freely: usually neither commuting nor satisfying L = 0
            J = data.draw(sparse_rows(size, size))
        elif mode == 1:  # J a polynomial in A: commuting, L = 0 only by chance
            c = data.draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2))
            J = [[c[0] * (i == j) + c[1] * a for j, a in enumerate(row)] for i, row in enumerate(A)]
        else:  # A even and J = (A^{n+1} - 2A^n)/2: L = 0; mode 3 perturbs one entry
            A = [[2 * a for a in row] for row in A]
            An = [[int(i == j) for j in range(size)] for i in range(size)]
            for _ in range(n):
                An = dense_product(An, A)
            An1 = dense_product(An, A)
            J = [[(x - 2 * y) // 2 for x, y in zip(r1, r0)] for r1, r0 in zip(An1, An)]
            if mode == 3:
                i, j = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
                J[i][j] += 1
        assert verify_pair_identity(from_rows(A), from_rows(J), n) == (
            reference_pair_identity(A, J, n)
        )

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_broken_long_run_column_of_a22_fails(self, mirrored, suite):
        n = 22
        s = suite(n)
        A, J = s["A"], s["J"]
        size = A.rows
        j = max(range(size), key=lambda j: sum(A.column(j)))
        ones = [i for i, a in enumerate(A.column(j)) if a]
        assert len(ones) >= n  # the long run of ones
        rows = [list(row) for row in A.entries]
        i = ones[len(ones) // 2]
        rows[i][j] = 0
        if mirrored:  # keep AJ = JA, so only the power identity can fail
            rows[size - 1 - i][size - 1 - j] = 0
        broken = from_rows(rows)
        assert broken.commutes_with(J) is mirrored
        assert verify_pair_identity(A, J, n)
        assert not verify_pair_identity(broken, J, n)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_non_commuting_j_fails(self, n, suite):
        # J + K with A K = 0 leaves A J and hence L unchanged; only AJ = JA fails
        s = suite(n)
        A, J = s["A"], s["J"]
        size = A.rows
        kernel = symmetry_kernel_vectors(n)[0]
        K = from_rows([[x] + [0] * (size - 1) for x in kernel])
        assert (A @ K).is_zero()
        J_bad = J + K
        assert not J_bad.commutes_with(A)
        assert not verify_pair_identity(A, J_bad, n)


class TestKrylovMinPoly:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_full_adjacency(self, n, suite):
        explicit = IntPolynomial(tuple([0, -4] + [0] * (2 * n - 1) + [4, -4, 1]))
        assert krylov_min_poly(suite(n)["A"]) == poly.min_poly(n) == explicit

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_flip(self, n, suite):
        assert krylov_min_poly(suite(n)["J"]) == IntPolynomial((-1, 0, 1))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_folded_adjacency(self, n, suite):
        assert krylov_min_poly(suite(n)["B"]) == X * poly.f_poly(n)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_symmetric_restriction(self, n, suite):
        assert krylov_min_poly(suite(n)["C"]) == X * poly.f_poly(n)

    def test_identity_matrix(self):
        assert krylov_min_poly(ExactMatrix.identity(5)) == IntPolynomial((-1, 1))

    def test_nilpotent_block(self):
        M = from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert krylov_min_poly(M) == IntPolynomial((0, 0, 0, 1))

    def test_eigenvector_start_needs_completion(self):
        # v = (1, 2) is an eigenvector (eigenvalue 1), so the first chain
        # gives only x - 1 and e_2 must add the factor x - 2
        M = from_rows([[3, -1], [2, 0]])
        assert M.apply((1, 2)) == (1, 2)
        assert krylov_min_poly(M) == IntPolynomial((2, -3, 1))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(M=square_matrices)
    @example(M=from_rows([[0] * 3] * 3))
    @example(M=from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 0]]))
    @example(M=from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 3]]))
    def test_random_integer_matrices(self, M):
        p = krylov_min_poly(M)
        assert p == reference_min_poly(M)
        assert mat_poly_apply(p, M).is_zero()
        assert p.leading > 0 and p.content() == 1

    @pytest.mark.parametrize("n", range(1, 11))
    def test_no_proper_divisor_annihilates(self, n, suite):
        A = suite(n)["A"]
        f, g = poly.f_poly(n), poly.g_poly(n)
        for divisor in (f * g, X * g, X * f):
            assert not mat_poly_apply(divisor, A).is_zero()

    @pytest.mark.parametrize("n", range(1, 11))
    def test_degree_accounting(self, n, suite):
        A = suite(n)["A"]
        assert krylov_min_poly(A).degree == 2 * n + 3 == A.rows - 1
        assert len(kernel_basis(A)) == 2


class TestKernels:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_full_kernel_span(self, n, suite):
        basis = kernel_basis(suite(n)["A"])
        assert len(basis) == 2
        assert same_span(basis, symmetry_kernel_vectors(n))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_folded_kernel_span(self, n, suite):
        size = n + 3
        a = [0] * size
        a[2], a[3] = 1, -1
        b = [0] * size
        b[0] = b[1] = 1
        for i in range(4, size):
            b[i] = -1
        basis = kernel_basis(suite(n)["B"])
        assert len(basis) == 2
        assert same_span(basis, [tuple(a), tuple(b)])

    def test_folded_kernel_n1_shifts_indices(self, suite):
        # at n=1 the short-branch pair sits at intervals 2,3 and the long
        # branches at 1,4; the n>=2 index pattern is not in the kernel
        B = suite(1)["B"]
        basis = kernel_basis(B)
        assert len(basis) == 2
        assert same_span(basis, [(0, 1, -1, 0), (1, 0, 0, -1)])
        assert any(v != 0 for v in B.apply((0, 0, 1, -1)))

    def test_flip_kernel_empty(self):
        assert kernel_basis(flip_matrix(8)) == []

    @pytest.mark.parametrize("n", range(1, 11))
    def test_kernel_vectors_annihilated(self, n, suite):
        A = suite(n)["A"]
        for v in symmetry_kernel_vectors(n):
            assert all(x == 0 for x in A.apply(v))


class TestProjectorAlgebra:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_half_sum_projectors(self, n, suite):
        # with P+- = (I +- J)/2: the integer identities below are equivalent
        # to P+ + P- = I, P^2 = P, P+ P- = 0, and A P+- = P+- A
        s = suite(n)
        size = 2 * n + 4
        eye = ExactMatrix.identity(size)
        plus = eye + s["J"]
        minus = eye - s["J"]
        assert plus + minus == 2 * eye
        assert plus @ plus == 2 * plus
        assert minus @ minus == 2 * minus
        assert (plus @ minus).is_zero()
        assert s["A"] @ plus == plus @ s["A"]
        assert s["A"] @ minus == minus @ s["A"]


class TestSymmetricRestriction:
    def test_identity_restricts_to_identity(self):
        for n in (1, 4):
            eye = ExactMatrix.identity(2 * n + 4)
            assert symmetric_restriction(eye, n) == ExactMatrix.identity(n + 2)

    def test_c1_minimal_polynomial(self, suite):
        C = suite(1)["C"]
        assert C.rows == 3
        assert krylov_min_poly(C) == IntPolynomial((0, -2, -2, 1))  # x(x^2-2x-2)

    def test_c4_general_form_first_row(self, suite):
        C = suite(4)["C"]
        assert C.entries[0] == (0, 2, 1, 1, 0, 0)
        assert C.entries[-1] == (1, 0, 0, 0, 0, 1)

    def test_non_commuting_input_rejected(self):
        M = from_rows([[1, 1, 0, 0, 0, 0]] + [[0] * 6 for _ in range(5)])
        with pytest.raises(NonIntegralRestriction):
            symmetric_restriction(M, 1)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 3),
        seed_rows=st.lists(
            st.lists(st.integers(-3, 3), min_size=10, max_size=10), min_size=10, max_size=10
        ),
        symmetrize=st.booleans(),
    )
    def test_rejects_exactly_the_non_commuting(self, n, seed_rows, symmetrize):
        size = 2 * n + 4
        M = from_rows([row[:size] for row in seed_rows[:size]])
        J = flip_matrix(size)
        if symmetrize:
            M = M + J @ M @ J
        if M.commutes_with(J):
            assert symmetric_restriction(M, n).rows == n + 2
        else:
            with pytest.raises(NonIntegralRestriction):
                symmetric_restriction(M, n)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_restricted_two_term_identity(self, n, suite):
        # on the symmetric subspace the flip acts as +I, so the relation
        # becomes C^{n+2} - 2 C^{n+1} - 2 C = 0
        C = suite(n)["C"]
        Cn = C ** n
        assert (C @ (Cn @ C - 2 * Cn - 2 * ExactMatrix.identity(n + 2))).is_zero()
        assert verify_pair_identity(C, ExactMatrix.identity(n + 2), n)


class TestInclusion:
    def test_shape_and_entries_n4(self):
        iota = inclusion_iota(4)
        assert (iota.rows, iota.cols) == (7, 6)
        expected = [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
        ]
        assert iota == from_rows(expected)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_rank(self, n):
        assert rational_rank(inclusion_iota(n)) == n + 2

    @pytest.mark.parametrize("n", range(1, 13))
    def test_split_vector_not_in_image(self, n):
        iota = inclusion_iota(n)
        cols = [iota.column(j) for j in range(iota.cols)]
        d34 = [0] * (n + 3)
        d34[2], d34[3] = 1, -1
        assert not same_span(cols, cols + [tuple(d34)])

    @pytest.mark.parametrize("n", range(1, 13))
    def test_intertwines(self, n, suite):
        s = suite(n)
        assert verify_intertwine(s["B"], s["C"], s["iota"])

    def test_perturbed_factor_matrix_fails(self, suite):
        s = suite(3)
        rows = [list(row) for row in s["B"].entries]
        rows[0][1] ^= 1
        assert not verify_intertwine(from_rows(rows), s["C"], s["iota"])

    def test_identity_pair_intertwines(self):
        iota = inclusion_iota(5)
        assert verify_intertwine(ExactMatrix.identity(8), ExactMatrix.identity(7), iota)


def reference_rref(rows):
    """Reduced row echelon form over Q, in place; returns (rows, pivot columns)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def reference_rank(vectors):
    return len(reference_rref([[Fraction(x) for x in v] for v in vectors])[1])


def reference_kernel(M):
    """The null-space basis read off the RREF: 1 at a free column, 0 at the others."""
    rows, pivots = reference_rref([[Fraction(x) for x in row] for row in M.entries])
    basis = []
    for fc in (c for c in range(M.cols) if c not in pivots):
        v = [Fraction(0)] * M.cols
        v[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            v[pc] = -rows[pr][fc]
        basis.append(tuple(v))
    return basis


def vector_lists(entry):
    return st.integers(1, 6).flatmap(
        lambda width: st.lists(st.lists(entry, min_size=width, max_size=width), max_size=6)
    )


fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def span_pairs(draw):
    """Two Fraction vector lists of width 4; vs is drawn freely or spans the same space as us."""
    us = draw(st.lists(st.lists(fractions, min_size=4, max_size=4), min_size=1, max_size=5))
    if draw(st.booleans()):
        # a triangular change of generators with nonzero diagonal keeps the span
        vs = []
        for i, u in enumerate(us):
            v = [draw(st.sampled_from([-2, -1, 1, 3])) * x for x in u]
            for w in us[i + 1:]:
                c = draw(fractions)
                v = [x + c * y for x, y in zip(v, w)]
            vs.append(v)
    else:
        vs = draw(st.lists(st.lists(fractions, min_size=4, max_size=4), min_size=1, max_size=5))
    return us, vs


class TestRationalHelpers:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(M=square_matrices)
    @example(M=from_rows([[0] * 4] * 4))
    @example(M=from_rows([[0, 2, 4], [0, 3, 6], [0, 1, 2]]))
    @example(M=from_rows([[2, 3, 1], [4, 6, 2], [1, 0, 1]]))
    @example(M=from_rows([[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 0], [1, 1, 0, 1]]))
    def test_kernel_matches_reference_rref(self, M):
        basis = kernel_basis(M)
        assert basis == reference_kernel(M)
        assert all(type(x) is Fraction for v in basis for x in v)
        for v in basis:
            assert not any(M.apply(v))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(vectors=vector_lists(st.integers(-3, 3)))
    @example(vectors=[])
    @example(vectors=[[0, 0, 0], [0, 0, 0]])
    @example(vectors=[[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    def test_rank_of_integer_vectors(self, vectors):
        assert rational_rank(vectors) == reference_rank(vectors)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(vectors=vector_lists(fractions))
    @example(vectors=[[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(2)]])
    def test_rank_of_fraction_vectors(self, vectors):
        assert rational_rank(vectors) == reference_rank(vectors)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pair=span_pairs())
    def test_same_span_matches_reference(self, pair):
        us, vs = pair
        ru, rv = reference_rank(us), reference_rank(vs)
        assert same_span(us, vs) == (ru == rv == reference_rank(us + vs))

    def test_kernel_of_rank_one(self):
        M = from_rows([[1, 2], [2, 4]])
        basis = kernel_basis(M)
        assert len(basis) == 1
        assert basis[0] == (Fraction(-2), Fraction(1))

    def test_same_span_detects_difference(self):
        assert same_span([(1, 0), (0, 1)], [(1, 1), (1, -1)])
        assert not same_span([(1, 0)], [(0, 1)])


class TestKrylovChains:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), M=square_matrices, length=st.integers(1, 5))
    def test_chain_matches_dense_products(self, data, M, length):
        v = data.draw(st.lists(st.integers(-3, 3), min_size=M.rows, max_size=M.rows))
        expected = [list(v)]
        for _ in range(length - 1):
            expected.append(dense_apply(M.entries, expected[-1]))
        assert krylov_chain(M, v, length) == [tuple(w) for w in expected]

    def test_triangular_needs_a_new_index_at_every_vector(self):
        assert triangular([(1, 0, 0), (5, 1, 0), (1, 1, 1)])
        # independent, but the second vector is zero only where the first is
        assert not triangular([(1, 1), (1, 0)])
        assert not triangular([(1, 0), (0, 0)])
        assert triangular([])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(vectors=vector_lists(st.integers(-2, 2)))
    @example(vectors=[[1, 1], [1, 0]])
    @example(vectors=[[0, 1, 0], [1, 0, 0], [0, 1, 1]])
    def test_independence_matches_reference_rank(self, vectors):
        full = reference_rank(vectors) == len(vectors)
        assert (rational_rank(vectors) == len(vectors)) == full
        if triangular(vectors):
            assert full

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), M=square_matrices)
    def test_local_min_poly_is_the_unit_annihilator(self, data, M):
        j = data.draw(st.integers(0, M.rows - 1))
        e = (0,) * j + (1,) + (0,) * (M.rows - 1 - j)
        monic = _unit_annihilator(M, j)
        # a monic factor of the integer characteristic polynomial (Gauss)
        assert all(c.denominator == 1 for c in monic)
        p = IntPolynomial(tuple(int(c) for c in monic))
        # certified exactly when the chain has a new support index at every
        # iterate; an independent chain without one reads "not certified"
        assert is_local_min_poly(M, e, p) == triangular(krylov_chain(M, e, p.degree))
        # a different constant term leaves p(M)e = c e, and X * p has a
        # dependent chain of deg p + 1 iterates
        assert not is_local_min_poly(M, e, p + IntPolynomial((1,)))
        assert not is_local_min_poly(M, e, X * p)

    @pytest.mark.parametrize("n", [1, 2, 7, 25])
    def test_certifies_the_restriction_from_e_w(self, n, suite):
        C = suite(n)["C"]
        w = 1 if n == 1 else 2
        e = tuple(int(i == w) for i in range(n + 2))
        assert is_local_min_poly(C, e, X * poly.f_poly(n))
        assert not is_local_min_poly(C, e, X * poly.g_poly(n))
