"""Density transport at desk scale: the scaled adjacency operator, invariant
densities, trajectory evolution, Ulam discretisation, and decay-rate fitting.

On a Markov partition the push-forward of a piecewise-constant density is a
matrix acting on indicator coordinates: the integer adjacency matrix divided
by the slope magnitude 2+2*kappa_n.  Evolution applies the integer matrix
and divides once per step.  The operator pairs `markov.tent_matrix` with
`markov.analytic_partition`, whose interval lengths are closed forms, so
every density keeps its integral to rounding at each step, and the
invariant density is a closed form too.  Both exist wherever the partition
does: full n <= 29, folded n <= 52.

`evolve_density` is the block kernel: a k-step trajectory on m intervals is
one preallocated, read-only (k+1) x m float64 array, stepped row by row with
the same integer product and one division as `MarkovOperator.apply`, so each
row equals repeated `apply` to the bit.  It costs 8 (k+1) m bytes, 4.5 MB at
n = 12 (m = 28) with 20000 steps, and keeps no per-step Python object alive:
the returned sequence makes a row's `DensityVector` only when it is read.
The rounded step is a fixed function of its row, so once a row q repeats
the row before it bit for bit every later row is row q: the kernel stops
stepping there, fills the rest of the block with row q and records q as
the trajectory's `settled_at`.  At `simulate`'s start density that
happens for full n <= 9 (row 290 at n = 3, 1157 at n = 6) and never
within 20000 steps at n = 12.  Every row from q on is then one
`DensityVector`, made once.

A `DensityVector` is immutable: it holds a read-only copy of its
coefficients, or a read-only row of a trajectory's block.  So it computes
`integral` once and remembers its last `l1_distance` argument and value,
and `[f.l1_distance(target) for f in trajectory]` computes the settled
tail's distance once, not once per row.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .markov import MarkovPartition, analytic_partition, tent_matrix
from .plmap import PiecewiseLinearMap
from .poly import solve_kappa

__all__ = [
    "DensityVector",
    "MarkovOperator",
    "DegenerateCell",
    "NonPositiveNorm",
    "PartitionMismatch",
    "markov_operator",
    "invariant_density",
    "evolve_density",
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


@functools.lru_cache(maxsize=None)
def _kappa_partition(n: int, kind: str) -> tuple[float, MarkovPartition]:
    """kappa_n and the closed-form partition, one object per (n, kind), so
    an operator and its invariant density share their partition."""
    kappa = solve_kappa(n).kappa
    return kappa, analytic_partition(n, kind, kappa)


@dataclass(frozen=True, eq=False)
class DensityVector:
    """Piecewise-constant density: one coefficient per partition interval.

    The constructor copies `coefficients` into a read-only float64 array,
    so a later write to the caller's array leaves the density as it was,
    and a write to `coefficients` raises ValueError.  Being immutable,
    the density computes `integral()` once and remembers its last
    `l1_distance` argument (held, so its id is not reused) with the value;
    both return the bits of a fresh computation.  Densities compare and
    hash by identity.
    """

    partition: MarkovPartition
    coefficients: np.ndarray

    # the remembered integral() and (other, l1_distance(other)), kept in
    # the instance __dict__ once computed
    _integral = None
    _l1 = None

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=float)
        if coeffs.shape != (self.partition.size,):
            raise ValueError("coefficient count must match the partition")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def _of_row(cls, partition: MarkovPartition, row: np.ndarray) -> "DensityVector":
        """A density over a read-only float row whose shape the caller has
        checked; skips `__post_init__`'s copy and the frozen `__setattr__`."""
        out = object.__new__(cls)
        fields = out.__dict__
        fields["partition"] = partition
        fields["coefficients"] = row
        return out

    def integral(self) -> float:
        value = self._integral
        if value is None:
            value = self.__dict__["_integral"] = float(self.partition.lengths.dot(self.coefficients))
        return value

    def l1_distance(self, other: "DensityVector") -> float:
        """Length-weighted coefficient distance (true L1 on piecewise constants).
        Raises PartitionMismatch when other is on a different partition."""
        last = self._l1
        if last is not None and last[0] is other:
            return last[1]
        if self.partition is not other.partition:
            _check_same_partition(self.partition, other.partition)
        value = float(self.partition.lengths.dot(np.abs(self.coefficients - other.coefficients)))
        self.__dict__["_l1"] = (other, value)
        return value


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
    """The scaled transfer matrix for the n-th tent parameter.  Past the
    partition's range (full n <= 29, folded n <= 52) `analytic_partition`
    raises MarkovViolation naming n, kind and the last supported n."""
    kappa, part = _kappa_partition(n, kind)
    adjacency = np.array(tent_matrix(n, kind).entries, dtype=float)
    return MarkovOperator(adjacency, 2.0 + 2.0 * kappa, part)


def invariant_density(n: int, kind: str = "full") -> DensityVector:
    """The fixed density of the scaled operator, positive with integral 1,
    in closed form (the constant-slope density of Parry and Gora, Ergodic
    Theory Dynam. Systems 29, 2009).

    Let s = 2+2 kappa_n, u = 1+kappa_n and w_j = u + s^-j; s^n kappa_n = 1
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
    kappa, part = _kappa_partition(n, kind)
    s = 2.0 + 2.0 * kappa
    w = [1.0 + kappa + s**-j for j in range(n)]
    if kind == "full":
        half = [*w, w[-1], (s - 1.0) * w[0]]
        v = np.array(half + half[::-1])
    else:
        v = np.array([(s - 1.0) * w[0], w[-1], w[-1], *reversed(w)])
    return DensityVector(part, v / float(part.lengths @ v))


class _Trajectory(Sequence):
    """[f0, op f0, ..., op^k f0] over one read-only (k+1) x m block.

    `coefficients` is the block and `partition` the operator's;
    `settled_at` is the first row equal to the one before it, after which
    every row is that row (see `evolve_density`), or None.  Indexing and
    iteration make row r's DensityVector only when it is read, as a view of
    row r; from `settled_at` = q on, they return one DensityVector over row
    q, made the first time such a row is read, so its `integral` and
    `l1_distance` are computed once for the whole tail.  A slice is a
    trajectory over a view of the block, with `settled_at` None.  So the
    trajectory and its tail density are the garbage-collected objects it
    keeps alive.
    """

    __slots__ = ("partition", "coefficients", "settled_at", "_tail")

    def __init__(
        self, partition: MarkovPartition, coefficients: np.ndarray, settled_at: int | None = None
    ):
        self.partition = partition
        self.coefficients = coefficients
        self.settled_at = settled_at
        self._tail = None

    def __len__(self) -> int:
        return len(self.coefficients)

    def _settled(self) -> DensityVector:
        """The one DensityVector of rows settled_at, settled_at + 1, ..."""
        if self._tail is None:
            self._tail = DensityVector._of_row(self.partition, self.coefficients[self.settled_at])
        return self._tail

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _Trajectory(self.partition, self.coefficients[index])
        index = operator.index(index)
        if self.settled_at is not None:
            row = index + len(self.coefficients) if index < 0 else index
            if self.settled_at <= row < len(self.coefficients):
                return self._settled()
        return DensityVector._of_row(self.partition, self.coefficients[index])

    def __iter__(self) -> Iterator[DensityVector]:
        of_row, partition, head = DensityVector._of_row, self.partition, self.settled_at
        for row in self.coefficients[:head]:
            yield of_row(partition, row)
        if head is not None:
            yield from itertools.repeat(self._settled(), len(self.coefficients) - head)


def evolve_density(op: MarkovOperator, f0: DensityVector, k: int) -> _Trajectory:
    """Trajectory [f0, op f0, ..., op^k f0] as a read-only sequence.

    The kernel fills one C-contiguous (k+1) x m float64 block: row 0 is f0,
    and row r+1 is `A.dot(row r)` written in place by the bound method, then
    divided in place by `op.scale` with `np.divide(..., out=)`.  That is
    `MarkovOperator.apply`'s integer product and one division, so every row
    is bit-identical to repeated `apply`.

    Settling.  The rounded step x -> fl(fl(A x) / s) is a fixed function of
    its input row, and in binary64 its orbit often lands on an exact fixed
    point of that step: a row q equal to row q-1 bit for bit.  Then row
    q+1 = step(row q) = step(row q-1) = row q, and by induction every later
    row is row q, so the kernel steps in chunks of 16 rows doubling to 256,
    compares a chunk's last row with the one before it as uint64 bits (as
    floats -0.0 == 0.0 and nan != nan), and once they match finds the first
    such row q in the chunk and fills rows q+1..k with row q in one
    broadcast.  The trajectory's `settled_at` is q, or None when no row
    equals the one before it within k steps.  So the kernel costs
    min(k, q + one chunk) steps plus one fill.  A settled row is a fixed
    point of the rounded step, not the exact invariant density.

    The block costs 8 (k+1) m bytes (4.5 MB at n = 12, m = 28, with 20000
    steps) and is made read-only once filled.  The sequence supports len,
    int and negative indexing, slices and iteration; each row's
    DensityVector (on `op.partition`) is made when it is read, every row
    from `settled_at` on is one DensityVector, and `.coefficients` is the
    block itself.  Raises ValueError for k < 0 and
    PartitionMismatch when f0 is on another partition than op.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    _check_same_partition(op.partition, f0.partition)
    block = np.empty((k + 1, op.partition.size))
    block[0] = f0.coefficients
    bits = block.view(np.uint64)
    dot, divide, scale = op.adjacency.dot, np.divide, op.scale
    settled_at = None
    done, rows = 0, 16
    while done < k:
        stop = min(done + rows, k)
        for src, dst in zip(block[done:stop], block[done + 1 : stop + 1]):
            dot(src, out=dst)
            divide(dst, scale, out=dst)
        if (bits[stop] == bits[stop - 1]).all():
            same = (bits[done + 1 : stop + 1] == bits[done:stop]).all(axis=1)
            settled_at = done + 1 + int(same.argmax())
            block[settled_at + 1 :] = block[settled_at]
            break
        done, rows = stop, min(2 * rows, 256)
    block.flags.writeable = False
    return _Trajectory(op.partition, block, settled_at)


def ulam_matrix(pmap: PiecewiseLinearMap, grid) -> np.ndarray:
    """Row-stochastic cell-transition matrix on an arbitrary breakpoint grid.

    Entry (j, i) is |R_j intersect T^{-1}(R_i)| / |R_j|, computed by exact
    interval algebra on the affine branches (no sampling).  The grid may be
    a MarkovPartition or any increasing breakpoint sequence covering the
    ambient interval; a cell shorter than 1e-12, or a NaN breakpoint, raises
    DegenerateCell naming the cell.

    Assembly is one whole-array pass per branch, in `pmap.branches` order:
    clip every cell to the branch domain, map both ends as slope * x +
    intercept, find each image's first and stop cell with one searchsorted
    each, expand the pieces into (j, i) pairs and add the positive overlaps
    times 1/|slope| / |R_j| into U[j, i] with one fancy-index add.  The bits
    equal a scan of every cell against every other: every entry comes from
    the same float operations; within one branch a pair (j, i) occurs at
    most once, so the fancy-index add is the scan's single add; and the
    passes keep the scan's branch order, which matters for sums of three or
    more terms.  Assembly costs O(m log m) for m cells, plus the dense
    result at 8 m^2 bytes (20 MB at 1600 cells), so memory, not assembly,
    bounds the grid.
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
    U = np.zeros((m, m))
    left, right = bps[:-1], bps[1:]
    for branch in pmap.branches:
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
        U[j, i] += overlap[keep] * inv_slope / lengths[j]
    return U


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
