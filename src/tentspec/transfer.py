"""Density transport at desk scale: the scaled adjacency operator, invariant
densities, trajectory evolution, Ulam discretisation, and decay-rate fitting.

On a Markov partition the push-forward of a piecewise-constant density is a
matrix acting on indicator coordinates: the integer adjacency matrix divided
by the slope magnitude 2+2*kappa_n.  Evolution applies the integer matrix
and divides once per step.  The start density of `simulate` keeps its total
integral to rounding over hundreds of steps, but not every density does: the
interval lengths are differences of binary64 orbit points (README, notes on
arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import MarkovPartition, interval_lengths, tent_chain
from .plmap import PiecewiseLinearMap
from .spectral import IllConditioned

__all__ = [
    "DensityVector",
    "MarkovOperator",
    "DegenerateCell",
    "NonPositiveNorm",
    "markov_operator",
    "invariant_density",
    "evolve_density",
    "ulam_matrix",
    "fit_decay_rate",
]


class DegenerateCell(ValueError):
    """A grid cell is too short to resolve."""


class NonPositiveNorm(ValueError):
    """Decay fitting needs strictly positive norms."""


@dataclass(frozen=True)
class DensityVector:
    """Piecewise-constant density: one coefficient per partition interval."""

    partition: MarkovPartition
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", coeffs)
        if coeffs.shape != (self.partition.size,):
            raise ValueError("coefficient count must match the partition")

    def integral(self) -> float:
        return float(interval_lengths(self.partition) @ self.coefficients)

    def l1_distance(self, other: "DensityVector") -> float:
        """Length-weighted coefficient distance (true L1 on piecewise constants)."""
        lengths = interval_lengths(self.partition)
        return float(lengths @ np.abs(self.coefficients - other.coefficients))


@dataclass(frozen=True)
class MarkovOperator:
    """0/1 adjacency held as floats plus scale 2+2*kappa_n, applied as one division per step."""

    adjacency: np.ndarray
    scale: float
    partition: MarkovPartition

    def matrix(self) -> np.ndarray:
        """The scaled operator as a float matrix."""
        return self.adjacency / self.scale

    def apply(self, density: DensityVector) -> DensityVector:
        return DensityVector(self.partition, (self.adjacency @ density.coefficients) / self.scale)


def markov_operator(n: int, kind: str = "full") -> MarkovOperator:
    """The scaled transfer matrix for the n-th tent parameter."""
    kappa, part, adj = tent_chain(n, kind)
    return MarkovOperator(np.array(adj.entries, dtype=float), 2.0 + 2.0 * kappa, part)


def _perron_vector(M: np.ndarray) -> np.ndarray:
    """Eigenvector at the known eigenvalue 1 by inverse iteration, in up to 8 rounds."""
    size = M.shape[0]
    rng = np.random.default_rng(11)
    eye = np.eye(size)
    for round_ in range(8):
        shift = 1.0 + 1e-13 * (round_ + 1)
        v = np.abs(rng.standard_normal(size)) + 1.0
        try:
            for _ in range(6):
                v = np.linalg.solve(M - shift * eye, v)
                v /= np.max(np.abs(v))
        except np.linalg.LinAlgError:
            continue
        if v.sum() < 0:
            v = -v
        residual = float(np.max(np.abs(M @ v - v)))
        if residual <= 1e-8 and np.all(v >= -1e-12):
            return v
    raise IllConditioned("invariant density iteration did not converge")


def invariant_density(n: int, kind: str = "full") -> DensityVector:
    """The fixed density of the scaled operator, nonnegative with integral 1."""
    op = markov_operator(n, kind)
    v = _perron_vector(op.matrix())
    lengths = interval_lengths(op.partition)
    return DensityVector(op.partition, v / float(lengths @ v))


def evolve_density(op: MarkovOperator, f0: DensityVector, k: int) -> list[DensityVector]:
    """Trajectory [f0, op f0, ..., op^k f0]."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = [f0]
    for _ in range(k):
        out.append(op.apply(out[-1]))
    return out


def ulam_matrix(pmap: PiecewiseLinearMap, grid) -> np.ndarray:
    """Row-stochastic cell-transition matrix on an arbitrary breakpoint grid.

    Entry (j, i) is |R_j intersect T^{-1}(R_i)| / |R_j|, computed by exact
    interval algebra on the affine branches (no sampling).  The grid may be
    a MarkovPartition or any increasing breakpoint sequence covering the
    ambient interval.  The image of each piece of R_j on a branch is matched
    only against the cells that np.searchsorted finds it touching, so the
    cost is O(m log m) for m cells.
    """
    bps = np.asarray(grid.breakpoints if isinstance(grid, MarkovPartition) else grid, dtype=float)
    if bps[0] != pmap.ambient.lo or bps[-1] != pmap.ambient.hi:
        raise ValueError("grid must cover the ambient interval")
    # cell j is [edges[j], edges[j+1]]: a flat list of floats, not one (lo, hi)
    # tuple per cell, so a large grid adds no objects for the garbage collector
    edges = bps.tolist()
    lengths = [b - a for a, b in zip(edges, edges[1:])]
    if min(lengths) < 1e-12:
        raise DegenerateCell("grid cell shorter than 1e-12")
    m = len(lengths)
    U = np.zeros((m, m))
    for j, length in enumerate(lengths):
        for branch in pmap.branches:
            lo = max(edges[j], branch.domain.lo)
            hi = min(edges[j + 1], branch.domain.hi)
            if hi <= lo:
                continue
            y1, y2 = sorted((branch(lo), branch(hi)))
            inv_slope = 1.0 / abs(branch.slope)
            first = max(int(np.searchsorted(bps, y1, side="right")) - 1, 0)
            for i in range(first, min(int(np.searchsorted(bps, y2)), m)):
                overlap = min(y2, edges[i + 1]) - max(y1, edges[i])
                if overlap > 0.0:
                    U[j, i] += overlap * inv_slope / length
    return U


def fit_decay_rate(norms, burn_in: int = 20) -> float:
    """Geometric decay rate from a norm sequence: exp of the least-squares
    slope of log(norms) after burn_in.

    Trailing entries below 1e-7 times the post-burn-in maximum are
    treated as the floating-point noise floor and excluded (an exactly
    geometric or constant sequence is unaffected; a simulated trajectory
    that has converged to rounding level would otherwise flatten the fit).
    """
    norms = np.asarray(list(norms), dtype=float)
    if np.any(norms <= 0.0):
        raise NonPositiveNorm("norms must be strictly positive")
    if len(norms) < burn_in + 10:
        raise ValueError("need at least burn_in + 10 samples")
    tail = norms[burn_in:]
    floor = tail.max() * 1e-7
    below = np.nonzero(tail < floor)[0]
    if below.size:
        tail = tail[: max(int(below[0]), 2)]
    steps = np.arange(len(tail))
    slope = np.polyfit(steps, np.log(tail), 1)[0]
    return float(np.exp(slope))
