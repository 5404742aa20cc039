"""Piecewise-linear interval self-maps: the paired tent family and its folded factor.

The paired tent map with parameter kappa in (0, 1/2] is two back-to-back
tents on [-1, 1], every branch with slope magnitude 2(1+kappa); the folded
map is its absolute value acting on [0, 1].  A map is its ambient interval
and its affine branches on open domains that tile it.  It has no pointwise
value: it is read through one-sided limits (`eval_one_sided`), as Markov
detection in ``markov`` reads it, or branch by branch, as
`markov.adjacency_matrix` and `transfer.ulam_matrix` do.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Interval",
    "Branch",
    "PiecewiseLinearMap",
    "make_paired_tent",
    "make_folded_tent",
]

# slack for "image stays inside the ambient interval" checks
_IMAGE_TOL = 1e-12


@dataclass(frozen=True)
class Interval:
    """Nonempty open interval (lo, hi)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"degenerate interval ({self.lo}, {self.hi})")

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class Branch:
    """Affine piece x -> slope*x + intercept on an open domain interval."""

    domain: Interval
    slope: float
    intercept: float

    def __post_init__(self):
        if self.slope == 0.0:
            raise ValueError("branch slope must be nonzero")

    def __call__(self, x: float) -> float:
        return self.slope * x + self.intercept

    def image(self) -> tuple[float, float]:
        """Image of the closed domain, returned as (low, high)."""
        a = self(self.domain.lo)
        b = self(self.domain.hi)
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Interval self-map given by finitely many affine branches.

    All data is immutable; evaluation is pure and safe to share across
    threads.
    """

    ambient: Interval
    branches: tuple[Branch, ...]

    def __post_init__(self):
        bs = tuple(sorted(self.branches, key=lambda b: b.domain.lo))
        object.__setattr__(self, "branches", bs)
        if not bs:
            raise ValueError("a map needs at least one branch")
        if bs[0].domain.lo != self.ambient.lo or bs[-1].domain.hi != self.ambient.hi:
            raise ValueError("branch domains do not cover the ambient interval")
        for left, right in zip(bs, bs[1:]):
            if left.domain.hi != right.domain.lo:
                raise ValueError("branch domains must tile the ambient interval")
        for b in bs:
            lo, hi = b.image()
            if lo < self.ambient.lo - _IMAGE_TOL or hi > self.ambient.hi + _IMAGE_TOL:
                raise ValueError("branch image leaves the ambient interval")

    def eval_one_sided(self, x: float, side: str) -> float:
        """The limit at x from the 'left' or the 'right': the value at x of
        the branch whose closure touches x from that side."""
        if not self.ambient.contains(x):
            raise ValueError(f"{x} outside ambient interval")
        if side == "left":
            if x == self.ambient.lo:
                raise ValueError("left limit undefined at the lower endpoint")
            for b in self.branches:
                if b.domain.lo < x <= b.domain.hi:
                    return b(x)
        elif side == "right":
            if x == self.ambient.hi:
                raise ValueError("right limit undefined at the upper endpoint")
            for b in self.branches:
                if b.domain.lo <= x < b.domain.hi:
                    return b(x)
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        raise ValueError(f"{x} not adjacent to any branch")  # pragma: no cover


def _check_kappa(kappa: float):
    if not 0.0 < kappa <= 0.5:
        raise ValueError(f"kappa must lie in (0, 1/2], got {kappa}")


def make_paired_tent(kappa: float) -> PiecewiseLinearMap:
    """Two back-to-back tents on [-1, 1] with slope magnitude 2(1+kappa).

    The map is odd, fixes -1 and 1, sends +-1/2 to -+kappa, and jumps at 0
    from -1 (left limit) to 1 (right limit).
    """
    _check_kappa(kappa)
    s = 2.0 * (1.0 + kappa)
    branches = (
        Branch(Interval(-1.0, -0.5), s, s - 1.0),
        Branch(Interval(-0.5, 0.0), -s, -1.0),
        Branch(Interval(0.0, 0.5), -s, 1.0),
        Branch(Interval(0.5, 1.0), s, 1.0 - s),
    )
    return PiecewiseLinearMap(Interval(-1.0, 1.0), branches)


def make_folded_tent(kappa: float) -> PiecewiseLinearMap:
    """The folded map |T(x)| on [0, 1], with four monotone branches.

    Folding splits each half of the paired tent at its zero, located at
    1/(2+2*kappa) below 1/2 and at the mirror point above.
    """
    _check_kappa(kappa)
    s = 2.0 * (1.0 + kappa)
    z_lo = 1.0 / s
    z_hi = 1.0 - 1.0 / s
    branches = (
        Branch(Interval(0.0, z_lo), -s, 1.0),
        Branch(Interval(z_lo, 0.5), s, -1.0),
        Branch(Interval(0.5, z_hi), -s, s - 1.0),
        Branch(Interval(z_hi, 1.0), s, 1.0 - s),
    )
    return PiecewiseLinearMap(Interval(0.0, 1.0), branches)
