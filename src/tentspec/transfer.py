"""Density transport at desk scale: the scaled adjacency operator, invariant
densities, trajectory evolution, Ulam discretisation, and decay-rate fitting.

On a Markov partition the push-forward of a piecewise-constant density is a
matrix acting on indicator coordinates: the integer adjacency matrix divided
by the slope magnitude 2+2*kappa_n.  Evolution applies the integer matrix
and divides once per step.  The operator pairs `markov.tent_matrix` with
`markov.analytic_partition`, whose interval lengths are closed forms, so
every density keeps its integral to rounding at each step, and the
invariant density is a closed form in its scale and partition.  Each
(n, kind) has one operator per process, built on first use, read-only and
shared.  Both exist wherever the partition does: n <= 52 for both kinds.

`evolve_density` holds the one step loop: it steps one preallocated
(k+1) x m block in place, a fixed chunk of rows at a time, with the same
integer product and one division as `MarkovOperator.apply`, so each row
equals repeated `apply` to the bit.  The block is read-only once filled,
8 (k+1) m bytes, 4.5 MB at n = 12 (m = 28) with 20000 steps, and no
per-step Python object is kept alive: the returned sequence makes a row's
`DensityVector` only when it is read.  The CLI's `simulate` calls it for a
few hundred steps at a time, each chunk from the last row of the one
before, and writes each chunk as soon as it is evolved, so its memory does
not grow with the number of steps.  The rounded step is a fixed function
of its row, so once a row q repeats the row before it bit for bit every
later row is row q: stepping stops there, `evolve_density` fills the rest
of the block with row q and records q as the trajectory's `settled_at`,
and `simulate` writes every later row from row q's bytes.  At `simulate`'s
start density that happens for full n <= 9 (row 290 at n = 3, 1157 at
n = 6) and never within 20000 steps at n = 12.

A `DensityVector` is immutable: it holds a read-only copy of its
coefficients, or a read-only row of a trajectory's block.  One rule gives
its `integral` and `l1_distance`.  A standalone density computes a
length-weighted dot on each call.  A trajectory's row, settled or not,
indexes its trajectory's `integrals()` and `l1_distances(target)`, which
reduce the whole block with one `np.vecdot` per chunk of at most 2048
fields over rows 0..`settled_at`, remembered, every later row taking row
`settled_at`'s value.  So `[f.l1_distance(target) for f in trajectory]`
costs one block pass plus an index per row.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .markov import MarkovPartition, analytic_partition, tent_matrix
from .poly import solve_kappa

if TYPE_CHECKING:
    from .plmap import Branch, PiecewiseLinearMap

__all__ = [
    "DensityVector",
    "MarkovOperator",
    "DegenerateCell",
    "NonPositiveNorm",
    "PartitionMismatch",
    "markov_operator",
    "invariant_density",
    "evolve_density",
    "UlamMatrix",
    "ulam_matrix",
    "fit_decay_rate",
]


class DegenerateCell(ValueError):
    """A grid cell is too short to resolve."""


class NonPositiveNorm(ValueError):
    """Decay fitting needs finite, strictly positive norms."""


class PartitionMismatch(ValueError):
    """Two densities, or a density and an operator, are on different partitions."""


def _check_same_partition(a: MarkovPartition, b: MarkovPartition):
    """Raise PartitionMismatch unless a and b are the same partition:
    identity first, then equal breakpoints."""
    if a is not b and a != b:
        raise PartitionMismatch(
            f"densities on different partitions: {a.size} intervals on "
            f"[{a.breakpoints[0]}, {a.breakpoints[-1]}] and {b.size} intervals on "
            f"[{b.breakpoints[0]}, {b.breakpoints[-1]}]"
        )


@dataclass(frozen=True, eq=False)
class DensityVector:
    """Piecewise-constant density: one coefficient per partition interval.

    The constructor copies `coefficients` into a read-only float64 array,
    so a later write to the caller's array leaves the density as it was,
    and a write to `coefficients` raises ValueError.  `integral()` and
    `l1_distance(other)` compute their length-weighted dot on each call and
    store nothing.  A row of a trajectory answers both by indexing its
    trajectory's `integrals()` and `l1_distances(other)`, which hold the
    same bits, unless the trajectory remembers distances to another target
    than other; then it computes its own.  Densities compare and hash by
    identity.
    """

    partition: MarkovPartition
    coefficients: np.ndarray

    # (trajectory, row) for a row that answers from its trajectory's arrays
    _at = None

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=float)
        if coeffs.shape != (self.partition.size,):
            raise ValueError("coefficient count must match the partition")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def _of_row(
        cls, partition: MarkovPartition, row: np.ndarray, at: tuple[_Trajectory, int]
    ) -> "DensityVector":
        """Row `at[1]` of trajectory `at[0]`, over its read-only float row
        whose shape the caller has checked; skips `__post_init__`'s copy and
        the frozen `__setattr__`."""
        out = object.__new__(cls)
        fields = out.__dict__
        fields["partition"] = partition
        fields["coefficients"] = row
        fields["_at"] = at
        return out

    def integral(self) -> float:
        at = self._at
        if at is not None:
            return at[0].integrals().item(at[1])
        return float(self.partition.lengths.dot(self.coefficients))

    def l1_distance(self, other: "DensityVector") -> float:
        """Length-weighted coefficient distance (true L1 on piecewise constants).
        Raises PartitionMismatch when other is on a different partition."""
        at = self._at
        if at is not None:
            # a row answers from its trajectory's distances when they are
            # for other or for no target yet; against another target it
            # computes its own below, so alternating targets row by row
            # costs a dot a row, not a block pass.  The remembered array is
            # read in place: one view answers every settled row, and a call
            # to l1_distances would be most of that row's cost
            trajectory, r = at
            last = trajectory._l1
            if last is not None and last[0] is other.coefficients:
                return last[1].item(r)
            if last is None:
                return trajectory.l1_distances(other).item(r)
        _check_same_partition(self.partition, other.partition)
        return float(self.partition.lengths.dot(np.abs(self.coefficients - other.coefficients)))


@dataclass(frozen=True, eq=False)
class MarkovOperator:
    """0/1 adjacency held as floats plus scale 2+2*kappa_n, applied as one division per step.
    Operators compare and hash by identity."""

    adjacency: np.ndarray
    scale: float
    partition: MarkovPartition

    def apply(self, density: DensityVector) -> DensityVector:
        """One step; raises PartitionMismatch when density is on another partition."""
        _check_same_partition(self.partition, density.partition)
        return DensityVector(self.partition, (self.adjacency @ density.coefficients) / self.scale)


def markov_operator(n: int, kind: str = "full") -> MarkovOperator:
    """The scaled transfer operator for the n-th tent parameter, one per (n, kind)
    per process: its read-only float adjacency is filled once from `tent_matrix`'s
    about 2m stored ones.  Past the partition's range (n <= 52 for both kinds)
    `analytic_partition` raises MarkovViolation naming n, kind and the last n."""
    return _operator(n, kind)


# cached behind `markov_operator`, a plain function that tracers can wrap
@functools.lru_cache(maxsize=None)
def _operator(n: int, kind: str) -> MarkovOperator:
    kappa = solve_kappa(n).kappa
    part, A = analytic_partition(n, kind, kappa), tent_matrix(n, kind)
    adjacency = np.zeros((A.rows, A.cols))
    for j, column in enumerate(A.columns):
        for i, a in column:
            adjacency[i, j] = a
    adjacency.flags.writeable = False
    return MarkovOperator(adjacency, 2.0 + 2.0 * kappa, part)


def invariant_density(n: int, kind: str = "full") -> DensityVector:
    """The fixed density of the scaled operator, positive with integral 1,
    in closed form (the constant-slope density of Parry and Gora, Ergodic
    Theory Dynam. Systems 29, 2009).

    Let s = 2+2 kappa_n be the operator's scale, u = s/2 = 1+kappa_n (exact:
    fl(2+2 kappa_n) = 2 fl(1+kappa_n)) and w_j = u + s^-j; s^n kappa_n = 1
    makes w_{n-1} = u + s kappa_n.  Full map: the left half (intervals
    0..n+1) is w_0, ..., w_{n-1}, w_{n-1}, (s-1) w_0 and the right half
    mirrors it.  Folded map: (s-1) w_0, w_{n-1}, w_{n-1}, w_{n-1}, w_{n-2},
    ..., w_0.  Then v is normalized by the closed-form lengths.

    Proof of A v = s v from `markov.tent_matrix`'s column runs.  Along the
    orbit intervals v - u steps by the factor 1/s, which is
    (a) w_j + w_{n-1} = s w_{j+1}, since 2u + s kappa_n = s u.
    Two more identities close the ends:
    (b) w_0 + (s-1) w_0 = s w_0, and
    (c) w_{n-2} + 3 w_{n-1} = s (s-1) w_0: by (a) the left side is
    (s+2) w_{n-1}, and with s = 2u both (s+2)(u + s kappa_n) and
    s (s-1)(1+u) equal 2u (1+2 kappa_n)(2+kappa_n).  At n = 1, where
    w_{n-2} is absent, (s+2) w_0 = s (s-1) w_0 is s^2 - 2s - 2 = 0, which
    is s kappa_1 = 1.
    Full map, n >= 2, left half: row 0 is covered by columns 0 and n+1, so
    it sums v_0 + v_{n+1}, which is (b); row i = 1..n-1 by columns i-1 and
    n, v_{i-1} + v_n, which is (a); row n by columns n-2 and n, v_{n-2} +
    v_n = s v_{n-1} = s v_n; and row n+1 by columns n-2, n, n+3 and n+4,
    v_{n-2} + 2 v_n + v_{n-1}, which is (c).  A commutes with the flip and v
    is flip-symmetric, so the right half follows.  At n = 1 the left
    columns run [0, 4), [3, 4), [0, 3): rows 0 and 1 sum v_0 + v_2, which is
    (b), and row 2 sums v_0 + v_2 + v_5 + v_4, which is (c).
    Folded map, n >= 2: row 0 is covered by columns 1..4, 3 w_{n-1} +
    w_{n-2}, which is (c); rows 1..3 by columns 1 and 4, w_{n-1} + w_{n-2}
    = s w_{n-1}; row i = 4..n+1 by columns 1 and i+1, w_{n-1} + w_{n+1-i}
    = s w_{n+2-i}, both (a); and row n+2 by columns 0 and n+2, which is
    (b).  At n = 1 the runs are [0, 4), [0, 1), [0, 1), [0, 4): rows 1..3
    sum v_0 + v_3, which is (b), and row 0 sums all four, which is (c).
    The tests check the residual to 1e-15 relative at every supported n and
    cross-check inverse iteration for n <= 25.
    """
    op = _operator(n, kind)
    s, part = op.scale, op.partition
    w = [0.5 * s + s**-j for j in range(n)]
    if kind == "full":
        half = [*w, w[-1], (s - 1.0) * w[0]]
        v = np.array(half + half[::-1])
    else:
        v = np.array([(s - 1.0) * w[0], w[-1], w[-1], *reversed(w)])
    return DensityVector(part, v / float(part.lengths @ v))


# fields per chunk of a stepped or reduced block: a chunk's reduction
# temporaries stay near 16 KB however long the trajectory, and a trajectory
# that settles is stepped at most one chunk past its settle row
_CHUNK_FIELDS = 2048


class _Trajectory(Sequence):
    """[f0, op f0, ..., op^k f0] over one read-only (k+1) x m block.

    `coefficients` is the block and `partition` the operator's;
    `settled_at` is the first row equal to the one before it, after which
    every row is that row (see `evolve_density`), or None.  Indexing and
    iteration make row r's DensityVector only when it is read, as a view of
    row r that answers `integral` and `l1_distance` from `integrals()` and
    `l1_distances()`.  Each index read makes a new view; one iteration
    yields one view over row `settled_at` = q for every row from q on.  A
    slice is a trajectory over a view of the block, with `settled_at` None.
    A row refers to its trajectory but not the other way round, and the
    remembered distances hold their target's coefficients, not the target,
    so dropping them frees the block without a cyclic collection.
    """

    __slots__ = ("partition", "coefficients", "settled_at", "_integrals", "_l1")

    def __init__(
        self, partition: MarkovPartition, coefficients: np.ndarray, settled_at: int | None = None
    ):
        self.partition = partition
        self.coefficients = coefficients
        self.settled_at = settled_at
        self._integrals = self._l1 = None

    def __len__(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _Trajectory(self.partition, self.coefficients[index])
        index = operator.index(index)
        return DensityVector._of_row(self.partition, self.coefficients[index], (self, index))

    def __iter__(self) -> Iterator[DensityVector]:
        of_row, partition, head = DensityVector._of_row, self.partition, self.settled_at
        rows = (of_row(partition, row, (self, r)) for r, row in enumerate(self.coefficients[:head]))
        if head is None:
            return rows
        # chained, not delegated to by a generator: about 20 ns a tail row less
        return itertools.chain(rows, itertools.repeat(self[head], len(self.coefficients) - head))

    def integrals(self) -> np.ndarray:
        """Every row's `integral()` as a read-only float64 array, computed once."""
        if self._integrals is None:
            self._integrals = self._reduce(None)
        return self._integrals

    def l1_distances(self, target: DensityVector) -> np.ndarray:
        """Every row's `l1_distance(target)` as a read-only float64 array,
        remembered for the last target by its coefficient array, which is
        held so that its id is not reused.  Every density owns its array
        object (the constructor copies, each row read makes a new view), so
        the array names the target, and it refers to no trajectory: a row of
        this trajectory as the target makes no reference cycle.  Raises
        PartitionMismatch when target is on another partition, and
        remembers nothing then."""
        last, coefficients = self._l1, target.coefficients
        if last is not None and last[0] is coefficients:
            return last[1]
        _check_same_partition(self.partition, target.partition)
        values = self._reduce(coefficients)
        self._l1 = (coefficients, values)
        return values

    def _reduce(self, target: np.ndarray | None) -> np.ndarray:
        """vecdot(|row - target|, lengths) for each row, its `l1_distance`,
        or vecdot(row, lengths), its `integral`, when target is None: rows
        0..settled_at in chunks of at most _CHUNK_FIELDS fields, and every
        later row takes row settled_at's value."""
        block, lengths = self.coefficients, self.partition.lengths
        head = len(block) if self.settled_at is None else self.settled_at + 1
        out = np.empty(len(block))
        rows = max(1, _CHUNK_FIELDS // block.shape[1])
        for start in range(0, head, rows):
            stop = min(start + rows, head)
            chunk = block[start:stop] if target is None else np.abs(block[start:stop] - target)
            # vecdot takes one BLAS dot per row, as `lengths.dot` does for one
            # density, so each value keeps that bit for bit; a matrix-vector
            # product sums in another order and changes the last bit
            out[start:stop] = np.vecdot(chunk, lengths)
        out[head:] = out[head - 1 : head]
        out.flags.writeable = False
        return out


def evolve_density(op: MarkovOperator, f0: DensityVector, k: int) -> _Trajectory:
    """Trajectory [f0, op f0, ..., op^k f0] as a read-only sequence.

    One C-contiguous (k+1) x m float64 block holds the trajectory: row 0
    is f0, and row r+1 is `A.dot(row r)` written by the bound method, then
    divided in place with `np.divide(..., out=)` by a 0-d float64 array
    holding `op.scale`, the same IEEE division as by the float at about
    30 % less call overhead.  That is `MarkovOperator.apply`'s integer
    product and one division, so every row is bit-identical to repeated
    `apply`.  This is the one step loop in tentspec.

    Settling.  The rounded step x -> fl(fl(A x) / s) is a fixed function of
    its input row, and in binary64 its orbit often lands on an exact fixed
    point of that step: a row q equal to row q-1 bit for bit.  Then row
    q+1 = step(row q) = step(row q-1) = row q, and by induction every later
    row is row q.  So the rows are stepped in chunks of max(1,
    _CHUNK_FIELDS // m) steps; after each chunk its last row is compared
    with the one before it as uint64 bits (as floats -0.0 == 0.0 and
    nan != nan), and once they match the first such row q is looked for
    in the chunk and rows q+1..k are filled with row q in one broadcast.
    Each chunk's comparisons start from the row before its first stepped
    row, so q is found wherever it falls, whatever the chunk size.  The
    trajectory's `settled_at` is q, or None when no row equals the one
    before it within k steps.  So evolution costs min(k, q + one chunk)
    steps plus one fill.  A settled row is a fixed point of the rounded
    step, not the exact invariant density.

    The block costs 8 (k+1) m bytes (4.5 MB at n = 12, m = 28, with 20000
    steps; `simulate` evolves a few hundred rows at a time instead) and is
    made read-only once filled.  The sequence supports len, int and
    negative indexing, slices and iteration; each row's DensityVector (on
    `op.partition`) is made when it is read, and `.coefficients` is the
    block itself.  `integrals()` and `l1_distances(target)` reduce the
    whole block in chunks, and every row, settled or not, reads its values
    from those arrays.  Raises ValueError for k < 0 and PartitionMismatch
    when f0 is on another partition than op.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    _check_same_partition(op.partition, f0.partition)
    block = np.empty((k + 1, op.partition.size))
    block[0] = f0.coefficients
    bits = block.view(np.uint64)
    dot, divide, scale = op.adjacency.dot, np.divide, np.array(op.scale)
    rows = max(1, _CHUNK_FIELDS // block.shape[1])
    settled_at = None
    for start in range(0, k, rows):
        stop = min(start + rows, k)
        for src, dst in zip(block[start:stop], block[start + 1 : stop + 1]):
            dot(src, out=dst)
            divide(dst, scale, out=dst)
        if (bits[stop] == bits[stop - 1]).all():
            same = (bits[start + 1 : stop + 1] == bits[start:stop]).all(axis=1)
            settled_at = start + 1 + int(same.argmax())
            block[settled_at + 1 :] = block[settled_at]
            break
    block.flags.writeable = False
    return _Trajectory(op.partition, block, settled_at)


@dataclass(frozen=True, eq=False)
class UlamMatrix:
    """Read-only m x m CSR matrix: row j's stored entries are
    ``data[indptr[j]:indptr[j+1]]`` in the columns
    ``indices[indptr[j]:indptr[j+1]]``, strictly increasing.

    The three arrays are made read-only and ``nnz`` is their length.
    ``sum(axis=1)`` gives the row sums, ``[j, i]`` an entry as a float
    (0.0 where none is stored) and ``toarray()`` the dense array.  There is
    no ``__array__``: densifying costs 8 m^2 bytes, so it is asked for by
    name.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        for array in (self.indptr, self.indices, self.data):
            array.flags.writeable = False

    @property
    def nnz(self) -> int:
        return len(self.data)

    def _rows(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def sum(self, axis: int) -> np.ndarray:
        """Row sums (axis=1), adding each row's entries in column order."""
        if axis != 1:
            raise ValueError("an UlamMatrix sums its rows only (axis=1)")
        return np.bincount(self._rows(), weights=self.data, minlength=self.shape[0])

    def __getitem__(self, key) -> float:
        j, i = map(operator.index, key)
        m = self.shape[0]
        if not (-m <= j < m and -m <= i < m):
            raise IndexError(f"index ({j}, {i}) out of range for shape {self.shape}")
        j, i = j % m, i % m
        lo, hi = self.indptr[j], self.indptr[j + 1]
        k = lo + int(np.searchsorted(self.indices[lo:hi], i))
        return float(self.data[k]) if k < hi and self.indices[k] == i else 0.0

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self._rows(), self.indices] = self.data
        return out


def ulam_matrix(pmap: PiecewiseLinearMap, grid) -> UlamMatrix:
    """Row-stochastic cell-transition matrix on an arbitrary breakpoint grid,
    as a read-only CSR `UlamMatrix`.

    Entry (j, i) is |R_j intersect T^{-1}(R_i)| / |R_j|, computed by exact
    interval algebra on the affine branches (no sampling).  The grid may be
    a MarkovPartition or any increasing breakpoint sequence covering the
    ambient interval; a cell shorter than 1e-12, or a NaN breakpoint, raises
    DegenerateCell naming the cell.

    Assembly is one whole-array pass per branch, in `pmap.branches` order:
    clip every cell to the branch domain, map both ends as slope * x +
    intercept, find each image's first and stop cell with one searchsorted
    each, expand the pieces into (j, i) pairs and keep the positive
    overlaps times 1/|slope| / |R_j| under the keys j m + i.  The distinct
    keys, sorted once, are the stored pattern; then each branch in order
    adds its values with `data[searchsorted(keys, k)] += v`.  The bits
    equal a scan of every cell against every other: every value comes from
    the same float operations; within one branch a pair (j, i) occurs at
    most once, so the fancy-index add is the scan's single add; and the
    branches add in the scan's order, so an entry is (0 + a) + b + c,
    which sums of three or more terms need.  (`np.add.reduceat` would add
    a + (b + c).)  Assembly costs O(p log p) time and O(p) memory for the
    p (j, i) pairs, about 3 m for m cells: 2^20 uniform cells, 3.2 million
    entries, take 0.5 s and 200 MB peak RSS in a fresh process on one
    Xeon core.

    Row sums.  Let eps = 2^-52, M = max(|lo|, |hi|) of the ambient
    interval, sigma the least slope magnitude, r_j the number of branch
    domains that meet R_j's interior and k_j the entries stored in row j.
    Then, to first order in eps,

        |sum_i U[j, i] - 1| <= r_j eps M (1 + 1/sigma) / |R_j| + (k_j + 4) eps / 2.

    Per branch piece of R_j the overlaps telescope to the computed image
    length, whose two ends each carry at most eps/2 (|slope| M + M) from
    the product and the sum: divided by |slope| |R_j| that is the first
    term.  The five roundings of each entry (the overlap, 1/|slope|, the
    product, the quotient and |R_j|) and the row sum's k_j - 1 additions
    give the second.  For the paired tent (M = (hi - lo)/2, sigma > 2) the
    first term is below 0.75 r_j eps (hi - lo)/|R_j|, for the folded tent
    (M = hi - lo) below 1.5 r_j eps (hi - lo)/|R_j|, so on uniform grids
    it grows like eps m: at n = 5 the largest row-sum error of the paired
    tent is 1.7e-13 at 1600 uniform cells, 1.2e-12 at 16384 and 9.5e-11
    at 2^20.
    """
    bps = np.asarray(grid.breakpoints if isinstance(grid, MarkovPartition) else grid, dtype=float)
    if bps[0] != pmap.ambient.lo or bps[-1] != pmap.ambient.hi:
        raise ValueError("grid must cover the ambient interval")
    lengths = np.diff(bps)
    # written so that a NaN length fails the check
    short = ~(lengths >= 1e-12)
    if short.any():
        j = int(np.argmax(short))
        raise DegenerateCell(
            f"grid cell {j} on [{bps[j]}, {bps[j + 1]}] has length {lengths[j]}, not >= 1e-12"
        )
    m = len(lengths)
    passes = [_branch_pass(branch, bps, lengths) for branch in pmap.branches]
    keys = np.concatenate([k for k, _ in passes])
    # one ascending run per branch, which the stable sort (timsort) merges
    keys.sort(kind="stable")
    distinct = np.empty(len(keys), dtype=bool)
    distinct[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    keys = keys[distinct]
    data = np.zeros(len(keys))
    for k, v in passes:
        data[np.searchsorted(keys, k)] += v
    del passes  # frees the passes' keys and values before indptr and indices are made
    indptr = np.searchsorted(keys, np.arange(m + 1) * m)
    return UlamMatrix(indptr, np.remainder(keys, m, out=keys), data, (m, m))


def _branch_pass(
    branch: Branch, bps: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One branch's keys j m + i, ascending, and values |R_j intersect
    T^{-1}(R_i)| / |R_j| over the cells j its domain meets."""
    m = len(lengths)
    left, right = bps[:-1], bps[1:]
    lo = np.maximum(left, branch.domain.lo)
    hi = np.minimum(right, branch.domain.hi)
    cells = np.flatnonzero(hi > lo)
    lo, hi = lo[cells], hi[cells]
    # two ufuncs, as Branch.__call__: no fused multiply-add
    y_lo = branch.slope * lo + branch.intercept
    y_hi = branch.slope * hi + branch.intercept
    y1, y2 = (y_lo, y_hi) if branch.slope > 0 else (y_hi, y_lo)
    first = np.maximum(np.searchsorted(bps, y1, side="right") - 1, 0)
    stop = np.minimum(np.searchsorted(bps, y2), m)
    counts = stop - first
    piece = np.repeat(np.arange(len(cells)), counts)
    starts = np.cumsum(counts) - counts
    i = first[piece] + (np.arange(len(piece)) - starts[piece])
    overlap = np.minimum(y2[piece], right[i]) - np.maximum(y1[piece], left[i])
    keep = overlap > 0.0
    j, i = cells[piece[keep]], i[keep]
    inv_slope = 1.0 / abs(branch.slope)
    return j * m + i, overlap[keep] * inv_slope / lengths[j]


# leading norms left out of the decay fit, before the trajectory is geometric
_BURN_IN = 20


def fit_decay_rate(norms) -> float:
    """Geometric decay rate from a norm sequence: exp of the least-squares
    slope of log(norms) after the first _BURN_IN = 20, the burn-in.

    Trailing entries below 1e-7 times the post-burn-in maximum are
    treated as the floating-point noise floor and excluded (an exactly
    geometric or constant sequence is unaffected; a simulated trajectory
    that has converged to rounding level would otherwise flatten the fit).
    Raises NonPositiveNorm naming the first norm that is not finite and > 0
    (NaN, an infinity, zero or a negative), and ValueError for fewer than
    _BURN_IN + 10 norms.
    """
    norms = np.asarray(list(norms), dtype=float)
    bad = ~(np.isfinite(norms) & (norms > 0.0))
    if bad.any():
        i = int(bad.argmax())
        raise NonPositiveNorm(f"norm {i} is {norms[i]}; norms must be finite and > 0")
    if len(norms) < _BURN_IN + 10:
        raise ValueError(f"need at least {_BURN_IN + 10} samples")
    tail = norms[_BURN_IN:]
    floor = tail.max() * 1e-7
    below = np.nonzero(tail < floor)[0]
    if below.size:
        tail = tail[: max(int(below[0]), 2)]
    steps = np.arange(len(tail))
    slope = np.polyfit(steps, np.log(tail), 1)[0]
    return float(np.exp(slope))
