"""Markov partitions for piecewise-linear maps and their 0/1 adjacency matrices.

A finite partition into open intervals is Markov when every branch image is
a union of partition intervals.  Partitions are found by iterating the
endpoint set (images of one-sided limits) until it stabilises, or written
down in closed form for the tent family parameters solving
(2+2*kappa)^n * kappa = 1.

The tent family's matrices A_n and B_n need neither: `tent_matrix` writes
them from their column runs, derived from symbolic breakpoint labels, in
exact integers at every n.  `analytic_partition` writes the binary64
breakpoints and the interval lengths from the same labels, in closed form,
for n <= 52.  No map is evaluated at a point: detection reads one-sided
limits and `adjacency_matrix` the branches; the latter matches image
endpoints to the grid by tolerance, fails from n = 26 and stays as the
cross-check of the runs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .exact import ExactMatrix

if TYPE_CHECKING:
    import numpy as np

    from .plmap import PiecewiseLinearMap

__all__ = [
    "MarkovPartition",
    "MarkovDetectionTrace",
    "NotStabilized",
    "MarkovViolation",
    "detect_markov_partition",
    "analytic_partition",
    "adjacency_matrix",
    "tent_matrix",
]

# detection identifies endpoints closer than this; adjacency matches image
# endpoints to breakpoints within 100 times it
_TOL = 1e-10

# endpoint-set growth steps before detection gives up
_MAX_STEPS = 64

# the partition's edge: from n = 53, 2+2*kappa_n rounds to 2 and breakpoints collide
_LAST_PARTITION_N = 52


class MarkovViolation(ValueError):
    """A branch image endpoint falls strictly inside a partition interval."""


class NotStabilized(RuntimeError):
    """Endpoint orbit did not close up within the step budget."""

    def __init__(self, trace: "MarkovDetectionTrace"):
        super().__init__(f"endpoint set still growing after {len(trace.steps) - 1} steps")
        self.trace = trace


@dataclass(frozen=True)
class MarkovPartition:
    """Strictly increasing breakpoints; intervals are the open gaps between them."""

    breakpoints: tuple[float, ...]

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if len(bps) < 2:
            raise ValueError("need at least two breakpoints")
        # written so that a NaN breakpoint fails the check
        for k, (a, b) in enumerate(zip(bps, bps[1:])):
            if not a < b:
                raise ValueError(
                    f"breakpoints must be strictly increasing: breakpoints {k} and {k + 1} "
                    f"are {a} and {b}"
                )

    @property
    def size(self) -> int:
        """Number of intervals."""
        return len(self.breakpoints) - 1

    @classmethod
    def _of_lengths(cls, breakpoints, lengths) -> "MarkovPartition":
        """A partition whose interval lengths the caller knows in closed form;
        they are stored in place of the breakpoint differences."""
        out = cls(breakpoints)
        object.__setattr__(out, "_length_values", tuple(lengths))
        return out

    @cached_property
    def _length_values(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.breakpoints, self.breakpoints[1:]))

    @cached_property
    def lengths(self) -> np.ndarray:
        """Lengths of the intervals, in order: the closed forms for an
        `analytic_partition`, else the breakpoint differences (computed once
        per partition, read-only)."""
        import numpy as np

        lengths = np.array(self._length_values)
        lengths.flags.writeable = False
        return lengths

    def intervals(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.breakpoints, self.breakpoints[1:]))

    def to_dict(self) -> dict:
        """Breakpoints as 17-significant-digit decimal strings (lossless binary64)."""
        return {"breakpoints": [f"{b:.17g}" for b in self.breakpoints]}


@dataclass(frozen=True)
class MarkovDetectionTrace:
    """Endpoint sets E_0, E_1, ... visited during detection."""

    steps: tuple[tuple[float, ...], ...]
    stabilized_at: int | None


def _insert_with_tol(points: list[float], x: float) -> bool:
    """Insert x into the sorted list unless a point within _TOL already exists."""
    i = bisect.bisect_left(points, x)
    if i < len(points) and abs(points[i] - x) <= _TOL:
        return False
    if i > 0 and abs(points[i - 1] - x) <= _TOL:
        return False
    points.insert(i, x)
    return True


def _one_sided_images(pmap: PiecewiseLinearMap, s: float) -> list[float]:
    sides = []
    if s > pmap.ambient.lo:
        sides.append("left")
    if s < pmap.ambient.hi:
        sides.append("right")
    return [pmap.eval_one_sided(s, side) for side in sides]


def detect_markov_partition(pmap: PiecewiseLinearMap) -> tuple[MarkovPartition, MarkovDetectionTrace]:
    """Grow the branch-endpoint set by one-sided images until it stabilises.

    Points within 1e-10 of an existing endpoint are identified with it (the
    first-seen representative wins), so a stabilised set means every image
    endpoint already sits on the grid.  Raises NotStabilized, carrying the
    trace, if the set is still growing after _MAX_STEPS = 64 steps or holds
    more than 10 * _MAX_STEPS points.
    """
    points: list[float] = []
    for b in pmap.branches:
        _insert_with_tol(points, b.domain.lo)
        _insert_with_tol(points, b.domain.hi)
    steps = [tuple(points)]
    stabilized = None
    for step in range(1, _MAX_STEPS + 1):
        grew = False
        for s in list(points):
            for y in _one_sided_images(pmap, s):
                grew |= _insert_with_tol(points, y)
        steps.append(tuple(points))
        if not grew:
            stabilized = step - 1
            break
        if len(points) > 10 * _MAX_STEPS:
            break
    trace = MarkovDetectionTrace(tuple(steps), stabilized)
    if stabilized is None:
        raise NotStabilized(trace)
    gaps = [b - a for a, b in zip(points, points[1:])]
    if min(gaps) <= 10 * _TOL:
        raise MarkovViolation("partition gap below detection resolution")
    return MarkovPartition(tuple(points)), trace


def _check_kappa_n(n: int, kappa_n: float):
    if n < 1:
        raise ValueError("n must be positive")
    residual = (2.0 + 2.0 * kappa_n) ** n * kappa_n - 1.0
    if not abs(residual) <= 1e-12:  # a NaN residual fails too
        raise ValueError(f"kappa={kappa_n} does not solve (2+2k)^{n} k = 1 (residual {residual:.2e})")


def analytic_partition(n: int, kind: str, kappa_n: float) -> MarkovPartition:
    """Closed-form Markov partition for the n-th tent parameter.

    kind 'full' gives the 2n+4-interval partition on [-1, 1]; 'folded' the
    n+3-interval partition on [0, 1].  Both hold for n <= 52; from n = 53
    s = 2+2 kappa_n rounds to 2, so breakpoints collide and
    MarkovViolation, naming n, kind and the last supported n, is raised.

    Every breakpoint and length is written from `tent_matrix`'s labels:
    s = 2+2 kappa_n, s^n kappa_n = 1 and c_k = 1 - s^k kappa_n, so
    c_k - c_{k+1} = s^k kappa_n (s-1), and c_{n-1} - 1/2 = 1/2 - 1/s =
    kappa_n/s because s - 2 = 2 kappa_n.

    * Full: the left half -1 < -c_1 < ... < -c_{n-1} < -1/2 < -kappa < 0
      has lengths s kappa, s^k kappa (s-1) for k = 1..n-2, kappa/s,
      1/2 - kappa and kappa; at n = 1 (c_1 = 0) they are 1/2, 1/2 - kappa
      and kappa.  The right half mirrors them.
    * Folded: 0 < kappa < 1/2 - delta < 1/2 < 1/2 + delta < c_{n-2} < ...
      < c_1 < 1 with delta = kappa/s, so 1/2 - delta = 1/s, and the lengths
      are kappa, 1/s - kappa, kappa/s, kappa/s, s^k kappa (s-1) for
      k = n-2 down to 1, and s kappa.  At n = 1 (kappa = 1/s) the
      breakpoints are 0, kappa, 1/2, 1 - kappa, 1 and the lengths kappa,
      1/2 - kappa, 1/2 - kappa, kappa.

    The lengths are not the breakpoint differences, which lose relative
    accuracy as s^n grows (1.1e-4 at full n = 22).  No term cancels, but the
    orbit lengths kappa_n s**k (s-1) take powers of the rounded s, which
    carry its error k-fold: against Fractions at the same binary64 kappa_n
    they are within 26 ulp at n <= 52, both kinds (9.1 at n = 10, 16.3 at 20
    and the worst, 25.9, at 29), and the other lengths within 1.8 ulp.  With
    the breakpoints' powers 2^k exp(k log1p(kappa_n)) (below) they would be
    within 3.7 ulp, but the s**k lengths close over `solve_kappa`'s
    float-solved kappa_n, for which fl(2+2 kappa_n)^n kappa_n is about 1:
    with them every column of the matrix keeps sum_{i in run j} |R_i| =
    s |R_j| to 4.4e-16 relative at n <= 52, and with the exp form a
    single-interval density drifts by 2.7e-15 in one step at full n = 29.
    (With a correctly rounded kappa_n it is the other way round: 4.4e-16
    for the exp form, 2.9e-15 for s**k.)  So a correctly rounded kappa_n
    (ROADMAP item 5) should bring the exp form for the lengths with it.

    Breakpoint error.  Against its exact value at the given binary64
    kappa_n (with s = 2+2 kappa_n exact), each breakpoint is within 2.3 u,
    u = 2^-53, if `math.log1p` and `math.exp` are within one ulp (relative
    error below 2u).  0, +-1/2, +-kappa_n and +-1 are exact.  s^k is
    2^k (1+kappa_n)^k = ldexp(exp(k log1p(kappa_n)), k): a power of the
    rounded s would carry its error k-fold, up to (k+3)/2 ulp of c_k.  To
    first order t = k log1p(kappa_n) has relative error 3u, exp(t) 2u + 3u t
    with t <= (n-1) kappa_n <= 0.19, and the product with kappa_n adds u, so
    x = s^k kappa_n has relative error below 3.6u.  x <= s^{n-1} kappa_n <
    1/2 (checked: a kappa_n that puts c_{n-1} at or below 1/2 is not
    consistent with s^n kappa_n = 1 and raises MarkovViolation naming n and
    kind), so its error is below 1.8u, and 1 - x < 1 rounds by at most u/2.
    delta = kappa_n/s has relative error below 2u and delta < 1/4, so 1/2 +- delta is within u,
    and 1 - kappa_n at n = 1 within u/2.  Iterating T from kappa_n instead
    multiplies the error by s per step: 122 ulp at full n = 10, 7.5e-9 at 29.
    """
    _check_kappa_n(n, kappa_n)
    if kind not in ("full", "folded"):
        raise ValueError(f"kind must be 'full' or 'folded', got {kind!r}")
    if n > _LAST_PARTITION_N:
        raise MarkovViolation(
            f"n={n}, kind={kind}: binary64 breakpoints collide past n={_LAST_PARTITION_N}, "
            f"the last supported n for the {kind} partition"
        )
    s = 2.0 + 2.0 * kappa_n
    log1p_kappa = math.log1p(kappa_n)
    # c_1 > ... > c_{n-1} > 1/2
    c = [1.0 - math.ldexp(math.exp(k * log1p_kappa), k) * kappa_n for k in range(1, n)]
    # c_{n-1} - 1/2 = (kappa_n - residual)/s: from about n = 40, where kappa_n
    # falls below 1e-12, the residual check no longer implies c_{n-1} > 1/2
    if n > 1 and not c[-1] > 0.5:
        raise MarkovViolation(
            f"n={n}, kind={kind}: kappa={kappa_n} is not consistent with (2+2k)^{n} k = 1: "
            f"it puts c_{n - 1} = {c[-1]} at or below 1/2"
        )
    orbit = [kappa_n * s**k * (s - 1.0) for k in range(1, n - 1)]
    if kind == "full":
        bps = [-1.0, *(-x for x in c), -0.5, -kappa_n, 0.0, kappa_n, 0.5, *reversed(c), 1.0]
        half = [s * kappa_n, *orbit, kappa_n / s] if n > 1 else [0.5]
        half += [0.5 - kappa_n, kappa_n]
        return MarkovPartition._of_lengths(bps, half + half[::-1])
    if n == 1:
        return MarkovPartition._of_lengths(
            (0.0, kappa_n, 0.5, 1.0 - kappa_n, 1.0),
            (kappa_n, 0.5 - kappa_n, 0.5 - kappa_n, kappa_n),
        )
    delta = kappa_n / s
    bps = [0.0, kappa_n, 0.5 - delta, 0.5, 0.5 + delta, *reversed(c[:-1]), 1.0]
    lengths = [kappa_n, 1.0 / s - kappa_n, delta, delta, *reversed(orbit), s * kappa_n]
    return MarkovPartition._of_lengths(bps, lengths)


def _match_breakpoint(y: float, bps: tuple[float, ...], thresh: float) -> int | None:
    i = bisect.bisect_left(bps, y)
    best, dist = None, thresh
    for k in (i - 1, i):
        if 0 <= k < len(bps) and abs(bps[k] - y) <= dist:
            best, dist = k, abs(bps[k] - y)
    return best


def adjacency_matrix(pmap: PiecewiseLinearMap, part: MarkovPartition) -> ExactMatrix:
    """0/1 matrix with entry (i, j) = 1 when interval i is covered by the image of j.

    Rows index image intervals, columns index source intervals.  Every
    monotone sub-branch image of a source interval must have endpoints on
    the breakpoint grid (within 1e-8); otherwise the partition is not
    Markov for the map and MarkovViolation is raised.
    """
    bps = part.breakpoints
    m = part.size
    thresh = 100.0 * _TOL
    columns = []
    for j, (a, b) in enumerate(part.intervals()):
        image: set[int] = set()
        for branch in pmap.branches:
            lo = max(a, branch.domain.lo)
            hi = min(b, branch.domain.hi)
            if hi - lo <= thresh:
                continue
            y1, y2 = sorted((branch(lo), branch(hi)))
            k = _match_breakpoint(y1, bps, thresh)
            l = _match_breakpoint(y2, bps, thresh)
            if k is None or l is None:
                raise MarkovViolation(
                    f"image endpoint of interval {j} misses the breakpoint grid"
                )
            image.update(range(k, l))
        columns.append(tuple((i, 1) for i in sorted(image)))
    if not all(columns):
        raise MarkovViolation("a source interval has empty image on the grid")
    return ExactMatrix.from_columns(m, m, columns)


def _full_runs(n: int) -> list[tuple[int, int]]:
    # pos(-c_k): k below n, and -c_n = 0 sits at n+2
    def pos(k: int) -> int:
        return k if k < n else n + 2

    # (-1, -1/2) rises through -1 -> -1, -c_k -> -c_{k+1}, -1/2 -> kappa
    half = [(0 if j == 0 else pos(j + 1), pos(j + 2) if j + 1 < n else n + 3) for j in range(n)]
    # (-1/2, -kappa) falls from kappa to -c_1, (-kappa, 0) from -c_1 to -1
    half += [(pos(1), n + 3), (0, pos(1))]
    m = 2 * n + 4
    return half + [(m - hi, m - lo) for lo, hi in reversed(half)]


def _folded_runs(n: int) -> list[tuple[int, int]]:
    if n == 1:
        # kappa_1 = 1/s, so kappa and the zero 1/2 - delta coincide
        return [(0, 4), (0, 1), (0, 1), (0, 4)]

    # pos(c_k): n+3-k below n, and c_n = 0 sits at 0
    def pos(k: int) -> int:
        return n + 3 - k if k < n else 0

    runs = [(pos(1), n + 3), (0, pos(1)), (0, 1), (0, 1)]
    # (1/2 + delta, 1) rises through c_k -> c_{k+1} and 1 -> 1
    runs += [(pos(n + 4 - j), pos(n + 3 - j) if j < n + 2 else n + 3) for j in range(4, n + 3)]
    return runs


def tent_matrix(n: int, kind: str) -> ExactMatrix:
    """The 0/1 matrix A_n ('full', size 2n+4) or B_n ('folded', size n+3),
    written from its column runs with no float arithmetic.

    Column j has ones exactly in rows lo_j..hi_j-1: the image of interval j
    is one interval of the map, and its two endpoints are breakpoints.  The
    runs come from symbolic breakpoint labels.  Let s = 2+2 kappa_n, so
    s^n kappa_n = 1 and s > 2, and let c_0 = kappa_n, c_k = T^k(kappa_n).
    T(x) = 1 - s x on (0, 1/2) and 1 - s(1-x) on (1/2, 1), so c_k =
    1 - s^k kappa_n for k = 1..n: the c_k decrease, c_{n-1} = 1 - 1/s > 1/2
    and c_n = 0.  Also kappa_n <= 1/s < 1/2.

    Full (T odd on [-1, 1]): the breakpoints, indexed 0..2n+4, are
    -1 < -c_1 < ... < -c_{n-1} < -1/2 < -kappa < 0 and their mirrors, so
    the label -c_k sits at pos(k) = k for k < n and at n+2 for k = n.
    T rises on (-1, -1/2) with -1 -> -1, -c_k -> -c_{k+1}, -1/2 -> kappa
    (at n+3), and falls on (-1/2, 0) with -1/2 -> kappa, -kappa -> -c_1,
    0- -> -1.  So, for j = 0..n-1, column j runs from pos of the image of
    its left label (0 at j = 0, else pos(j+1)) to that of its right label
    (pos(j+2) while j+1 < n, else n+3); column n runs [pos(1), n+3) and
    column n+1 runs [0, pos(1)).  T is odd and the grid symmetric, so
    column 2n+3-j runs [2n+4-hi_j, 2n+4-lo_j).  From n = 3 this is
    (0, 2), (j+1, j+2) for j = 1..n-3, (n-1, n+2), (n+2, n+3), (1, n+3),
    (0, 1); at n = 1 and 2 the label -c_n = 0 enters earlier.

    Folded (F = |T| on [0, 1], zeros at 1/s = 1/2 - delta and
    1 - 1/s = 1/2 + delta = c_{n-1}): for n >= 2, s kappa_n < 1, so the
    breakpoints are 0 < kappa < 1/2 - delta < 1/2 < c_{n-1} < ... < c_1
    < 1 and c_k sits at pos(k) = n+3-k for k < n and at 0 for k = n.  F
    falls on (0, 1/s) from 1 through kappa -> c_1 to 0, rises on
    (1/s, 1/2) to kappa (at 1), falls on (1/2, 1 - 1/s) back to 0, and
    rises on (1 - 1/s, 1) with c_k -> c_{k+1} and 1 -> 1.  So the runs are
    [pos(1), n+3), [0, pos(1)), [0, 1), [0, 1), then, for j = 4..n+2,
    [pos(n+4-j), pos(n+3-j)), with n+3 for the right end at j = n+2.  At
    n = 1, s kappa_1 = 1 puts kappa on the zero 1/s, the breakpoints are
    0, kappa, 1/2, 1 - kappa, 1, and the runs are [0, 4), [0, 1), [0, 1),
    [0, 4).

    The tests check the runs against `adjacency_matrix` on the float
    partition for n = 1..25.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if kind == "full":
        runs = _full_runs(n)
    elif kind == "folded":
        runs = _folded_runs(n)
    else:
        raise ValueError(f"kind must be 'full' or 'folded', got {kind!r}")
    m = len(runs)
    return ExactMatrix.from_columns(m, m, (((i, 1) for i in range(lo, hi)) for lo, hi in runs))
