"""Exact integer and rational linear algebra for the adjacency identities.

Everything here is determinant-free and exact: matrices carry Python big
integers, every identity check is literal equality, and floating point never
enters this module.  A matrix stores only its sparse columns, which every
builder writes directly.  It has what the identities use: products (`@`,
`**`), matrix-vector products (`apply`), columns, entries and equality; a
sum or a scalar multiple appears only inside a check, on vectors.
Products go column by column over the nonzero entries, so a 0/1 adjacency
matrix with about 2m nonzeros among m^2 entries costs O(nnz + m) space and
O(nnz + m) per matrix-vector product.

`verify` proves its identities from Krylov chains of those products: a
chain with a new support index at every iterate is independent with no
elimination (`triangular`), and `is_local_min_poly` certifies that a monic
polynomial is the minimal polynomial of a matrix on the span of a chain.
No echelon backs up `triangular` there: vectors that do not give a new
index at every step read "not certified".
The generic routines stay as the library's own and as the tests'
independent cross-check: one content-normalised fraction-free integer
echelon finds linear dependencies, so minimal polynomials come from
dependencies among Krylov iterates (`krylov_min_poly`), kernels from
dependencies among columns, ranks from its row count, and the pair identity
is checked one unit vector at a time (`verify_pair_identity`).  Fractions
appear only where a result is rational: normalising kernel vectors.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import index

__all__ = [
    "ExactMatrix",
    "IntPolynomial",
    "NonIntegralRestriction",
    "flip_matrix",
    "verify_pair_identity",
    "krylov_chain",
    "triangular",
    "is_local_min_poly",
    "krylov_min_poly",
    "kernel_basis",
    "rational_rank",
    "same_span",
    "symmetric_restriction",
    "inclusion_iota",
    "verify_intertwine",
]


class NonIntegralRestriction(ValueError):
    """The matrix handed to symmetric_restriction does not commute with the flip."""


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def _ints(values, what: str) -> tuple[int, ...]:
    """values as a tuple of ints: ints, bools and numpy integers pass, and
    anything that would have to be truncated (a float, a Fraction) raises
    ValueError naming it, the k-th value as what.format(k)."""
    try:
        return tuple(map(index, values))
    except TypeError:
        for k, x in enumerate(values):
            if not hasattr(type(x), "__index__"):
                raise ValueError(f"{what.format(k)} is not an integer: {x!r}") from None
        raise


def _column(pairs) -> tuple[tuple[int, int], ...]:
    """The stored column that sums the (row, value) pairs given: one pair
    per row with a nonzero sum, in row order."""
    acc: dict[int, int] = {}
    for i, a in pairs:
        acc[i] = acc.get(i, 0) + a
    return tuple(sorted((i, a) for i, a in acc.items() if a))


@dataclass(frozen=True, init=False)
class ExactMatrix:
    """Immutable matrix of arbitrary-precision integers, stored only as
    ``columns``: column j's nonzero ``(row, value)`` pairs, in row order.

    `from_columns` is the one builder.  The dense rows, ``entries``, are
    derived on first use.
    """

    rows: int
    cols: int
    columns: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def from_columns(cls, rows: int, cols: int, columns) -> "ExactMatrix":
        """The rows x cols matrix with the given columns, each an iterable of
        (row, value) pairs already in the stored form (int rows in
        increasing order, nonzero int values): only the shape is checked,
        and equality rests on every builder writing that form."""
        columns = tuple(map(tuple, columns))
        if rows < 1 or cols < 1 or len(columns) != cols:
            raise ValueError(f"expected {cols} columns of a nonempty {rows}x{cols} matrix")
        out = object.__new__(cls)
        out.__dict__.update(rows=rows, cols=cols, columns=columns)
        return out

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls.from_columns(n, n, (((j, 1),) for j in range(n)))

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*map(self.column, range(self.cols))))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = map(index, ij)
        if not (-self.rows <= i < self.rows and -self.cols <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) out of range for shape ({self.rows}, {self.cols})")
        return dict(self.columns[j % self.cols]).get(i % self.rows, 0)

    def column(self, j: int) -> tuple[int, ...]:
        out = [0] * self.rows
        for i, a in self.columns[j]:
            out[i] = a
        return tuple(out)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        mine = self.columns
        columns = (_column((i, a * b) for k, b in col for i, a in mine[k]) for col in other.columns)
        return ExactMatrix.from_columns(self.rows, other.cols, columns)

    def __pow__(self, k: int) -> "ExactMatrix":
        if not self.is_square or k < 0:
            raise ValueError("power needs a square matrix and k >= 0")
        result = ExactMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def apply(self, vec):
        """Matrix-vector product: vec[j] times the stored nonzeros of column j,
        summed over the nonzero vec[j]; O(nnz + size).  Exact: an int vector
        gives ints, and a Fraction vector gives the row sums' values."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [0] * self.rows
        for x, col in zip(vec, self.columns):
            if x:
                for i, a in col:
                    out[i] += a * x
        return tuple(out)


def flip_matrix(size: int) -> ExactMatrix:
    """Anti-diagonal permutation J with J e_i = e_{size-1-i} (0-based); J is an involution."""
    if size < 1:
        raise ValueError("size must be positive")
    return ExactMatrix.from_columns(size, size, (((i, 1),) for i in range(size - 1, -1, -1)))


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------


def _trim(coeffs) -> tuple[int, ...]:
    cs = list(coeffs)
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class IntPolynomial:
    """Integer-coefficient polynomial, coefficients ascending (c0 + c1*x + ...).

    Coefficients are ints, bools or numpy integers; a float or Fraction
    raises ValueError naming it instead of being truncated."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("use (0,) for the zero polynomial")
        object.__setattr__(self, "coeffs", _trim(_ints(self.coeffs, "IntPolynomial coefficient {}")))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def __call__(self, x):
        acc = 0 * x + self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def content(self) -> int:
        return gcd(*self.coeffs) or 1

    def primitive(self) -> "IntPolynomial":
        g = self.content()
        if self.leading < 0:
            g = -g
        return IntPolynomial(tuple(c // g for c in self.coeffs))


def verify_pair_identity(A: ExactMatrix, J: ExactMatrix, n: int) -> bool:
    """Exact check of A(A^{n+1} - 2A^n - 2J) = 0 together with AJ = JA.

    Both are checked one unit vector at a time: A(J e_j) = J(A e_j) is
    column j of AJ = JA, and iterating w <- A w from e_j gives column j of
    L = A^{n+2} - 2A^{n+1} - 2AJ.  Every column zero is L = 0, so no
    certificate beyond the columns is needed.  Cost O(size * n * (nnz +
    size)), with no matrix power.
    """
    if not (A.is_square and J.is_square and A.rows == J.rows):
        raise ValueError("A and J must be square of equal size")
    if n < 1:
        raise ValueError("n must be positive")
    size = A.rows
    for j in range(size):
        e = (0,) * j + (1,) + (0,) * (size - 1 - j)
        w = A.apply(e)
        AJe = A.apply(J.apply(e))
        if AJe != J.apply(w):
            return False
        for _ in range(n):
            w = A.apply(w)
        if any(x - 2 * y - 2 * z for x, y, z in zip(A.apply(w), w, AJe)):
            return False
    return True


# ---------------------------------------------------------------------------
# integer elimination
# ---------------------------------------------------------------------------


def _eliminate(rows: list[tuple[int, list[int], list[int]]], vec: list[int], combo: list[int]):
    """Reduce an integer vector against a fraction-free echelon; None or the dependency.

    ``rows`` holds (pivot, vector, combination) with each pivot the first
    nonzero entry of its vector and zero in every later row.  ``combo`` tags
    ``vec`` as a combination of the inserted vectors; shorter combinations
    are zero-padded.  Each step cross-multiplies by the two pivot entries
    and divides out the content of (vector, combination), so entries stay
    small for 0/1 matrices.  A vector that reduces to zero returns its
    reduced combination, a linear dependency among the inserted vectors;
    any other vector is appended as a new row and None is returned.
    """
    for pivot, r, c in rows:
        if vec[pivot]:
            a, b = r[pivot], vec[pivot]
            c_pad = c + [0] * (len(combo) - len(c))
            vec = [a * x - b * y for x, y in zip(vec, r)]
            combo = [a * x - b * y for x, y in zip(combo, c_pad)]
            g = gcd(*vec, *combo)
            if g > 1:
                vec = [x // g for x in vec]
                combo = [x // g for x in combo]
    if not any(vec):
        return combo
    rows.append((next(i for i, x in enumerate(vec) if x), vec, combo))
    return None


def _integer_vector(vec) -> list[int]:
    """An int/Fraction vector scaled by the lcm of its denominators."""
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    return [x.numerator * (den // x.denominator) for x in vec]


def rational_rank(vectors) -> int:
    """Rank of a list of vectors (or of an ExactMatrix's columns) by exact elimination."""
    if isinstance(vectors, ExactMatrix):
        vectors = [vectors.column(j) for j in range(vectors.cols)]
    rows: list[tuple[int, list[int], list[int]]] = []
    for v in vectors:
        _eliminate(rows, _integer_vector(v), [])
    return len(rows)


def same_span(us, vs) -> bool:
    """Exact equality of the spans of two lists of vectors."""
    us = list(us)
    vs = list(vs)
    ru = rational_rank(us)
    rv = rational_rank(vs)
    return ru == rv == rational_rank(us + vs)


def kernel_basis(M: ExactMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the null space, one vector per column dependent on the earlier ones.

    The columns of M go into the integer echelon in order, column j tagged
    e_j.  A column that reduces to zero is a free column, and its dependency
    is a kernel vector supported on the earlier independent columns and on
    j itself; divided by its j-th entry it is the unique kernel vector with
    1 at that free column and 0 at the other free columns (the reduced row
    echelon basis).
    """
    if not M.is_square:
        raise ValueError("matrix must be square")
    rows: list[tuple[int, list[int], list[int]]] = []
    basis = []
    for j in range(M.cols):
        dep = _eliminate(rows, list(M.column(j)), [0] * j + [1])
        if dep is not None:
            dep += [0] * (M.cols - 1 - j)
            basis.append(tuple(Fraction(x, dep[j]) for x in dep))
    return basis


# ---------------------------------------------------------------------------
# Krylov chains
# ---------------------------------------------------------------------------


def krylov_chain(M: ExactMatrix, v: Sequence[int], length: int) -> list[tuple[int, ...]]:
    """The chain v, Mv, ..., M^(length-1) v, one sparse product per iterate."""
    chain = [tuple(v)]
    for _ in range(length - 1):
        chain.append(M.apply(chain[-1]))
    return chain


def triangular(vectors) -> bool:
    """Whether every vector is nonzero at an index where all earlier ones are zero.

    Such vectors are triangular after a row permutation, hence independent
    with no elimination: in a vanishing combination, the last vector with a
    nonzero coefficient is the only one nonzero at its new index.
    """
    seen: set[int] = set()
    for v in vectors:
        size = len(seen)
        seen.update(itertools.compress(itertools.count(), v))
        if len(seen) == size:
            return False
    return True


def is_local_min_poly(M: ExactMatrix, v: Sequence[int], p: IntPolynomial) -> bool:
    """Whether the monic p is the minimal polynomial of M on the Krylov space of v.

    True when the deg p iterates v, ..., M^(deg p - 1) v are independent by
    `triangular` and p(M) v, read off one more iterate, is zero.  Then no
    polynomial of lower degree kills v, so p is the annihilator of v; the
    chain spans an M-invariant space on which p(M), commuting with M, is
    zero; and M there is cyclic, so its kernel is at most a line.  False
    means "not certified": a chain with no new support index at some
    iterate reads False even when it is independent.
    """
    chain = krylov_chain(M, v, p.degree + 1)
    if not triangular(chain[:-1]):
        return False
    scaled = [[c * x for x in w] for c, w in zip(p.coeffs, chain) if c]
    return not any(map(sum, zip(*scaled)))


# ---------------------------------------------------------------------------
# Krylov minimal polynomials
# ---------------------------------------------------------------------------


def _local_annihilator(M: ExactMatrix, start: Sequence[int]) -> tuple[list[int], set[int]]:
    """Least-degree integer relation sum_k c_k M^k v = 0 for the integer vector v = start.

    Inserts the Krylov chain v, Mv, M^2 v, ... into the integer echelon,
    M^k v tagged e_k, until an iterate reduces to zero; its dependency is
    the relation, returned (c ascending) with the pivot columns of the
    echelon rows.  The pivots are distinct first-nonzero entries.
    """
    rows: list[tuple[int, list[int], list[int]]] = []
    w = list(start)
    for k in range(M.rows + 1):  # dependence by dimension count within size + 1 iterates
        relation = _eliminate(rows, w, [0] * k + [1])
        if relation is not None:
            return relation, {pivot for pivot, _, _ in rows}
        w = list(M.apply(w))
    raise AssertionError("Krylov chain exceeded the dimension bound")


def _residual(p: IntPolynomial, M: ExactMatrix, vec: Sequence[int]) -> list[int]:
    """The integer vector p(M) vec, by Horner's scheme on the vector."""
    acc = [p.leading * x for x in vec]
    for c in reversed(p.coeffs[:-1]):
        acc = [y + c * x for y, x in zip(M.apply(acc), vec)]
    return acc


def krylov_min_poly(M: ExactMatrix) -> IntPolynomial:
    """Minimal polynomial of an integer matrix, computed without determinants.

    One Krylov chain from v = (1, 2, ..., size) gives the local annihilator
    of v, the first running LCM.  The chain's echelon rows have distinct
    pivots, so with the unit vectors e_j at the other columns they span
    Q^size.  Each such e_j is checked by r = lcm(M) e_j = 0, and when the
    check fails the annihilator of r is multiplied in: ann(p(M) e) is
    ann(e) / gcd(ann(e), p), so lcm * ann(r) is lcm(lcm, ann(e_j)) up to a
    scalar.  The final LCM kills v, hence (commuting with M) all of K(v),
    and every e_j checked: it kills a basis, so the minimal polynomial
    divides it.  Each local annihilator divides the minimal polynomial, so
    the LCM divides it too; the two are equal.  Returned as a primitive
    integer polynomial with positive leading coefficient.
    """
    if not M.is_square:
        raise ValueError("matrix must be square")
    size = M.rows
    local, pivots = _local_annihilator(M, range(1, size + 1))
    lcm = IntPolynomial(tuple(local)).primitive()
    for j in range(size):
        if j in pivots:
            continue
        r = _residual(lcm, M, (0,) * j + (1,) + (0,) * (size - 1 - j))
        if any(r):
            local, _ = _local_annihilator(M, r)
            lcm = (lcm * IntPolynomial(tuple(local))).primitive()
    return lcm


# ---------------------------------------------------------------------------
# symmetric restriction and the factor inclusion
# ---------------------------------------------------------------------------


def symmetric_restriction(A: ExactMatrix, n: int) -> ExactMatrix:
    """Matrix of A acting on the flip-symmetric subspace in the paired basis.

    The basis vectors are s_i = (e_{n+1-i} + e_{n+2+i})/2 for i = 0..n+1
    (0-based), pairing each coordinate with its mirror.  Requires A of size 2n+4
    commuting with the flip; the re-expressed entries are then integers.
    """
    size = 2 * n + 4
    if not (A.is_square and A.rows == size):
        raise ValueError(f"expected a {size}x{size} matrix")
    # JA = AJ for the flip J is A[i][j] == A[size-1-i][size-1-j]: the stored
    # nonzeros of column j, mirrored, are those of column size-1-j; O(nnz)
    cols = A.columns
    if any(
        tuple((size - 1 - i, a) for i, a in reversed(col)) != cols[size - 1 - j]
        for j, col in enumerate(cols)
    ):
        raise NonIntegralRestriction("matrix does not commute with the flip")
    # C[jj][ii] = A[m+jj][n+1-ii] + A[m+jj][m+ii]: column ii of C sums two
    # columns of A in the rows from m on, read from their stored nonzeros
    m = n + 2
    pairs = (cols[n + 1 - ii] + cols[m + ii] for ii in range(m))
    columns = (_column((i - m, a) for i, a in col if i >= m) for col in pairs)
    return ExactMatrix.from_columns(m, m, columns)


def inclusion_iota(n: int) -> ExactMatrix:
    """The (n+3) x (n+2) inclusion of the symmetric subspace into factor coordinates.

    For n >= 2 the second symmetric basis vector covers the factor interval
    that the folding splits in two, so column 2 is d_2 + d_3 and column k
    maps to d_{k+1} for k >= 3.  For n = 1 the split lands in the outermost
    piece instead: column 2 is d_2 and column 3 is d_3 + d_4.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        columns = [((0, 1),), ((1, 1),), ((2, 1), (3, 1))]
    else:
        columns = [((0, 1),), ((1, 1), (2, 1))] + [((k + 1, 1),) for k in range(2, n + 2)]
    return ExactMatrix.from_columns(n + 3, n + 2, columns)


def verify_intertwine(B: ExactMatrix, C: ExactMatrix, iota: ExactMatrix) -> bool:
    """Exact equality of iota @ C and B @ iota."""
    if iota.cols != C.rows or B.cols != iota.rows:
        raise ValueError("incompatible shapes")
    return iota @ C == B @ iota
