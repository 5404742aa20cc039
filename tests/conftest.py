"""Shared fixtures: cached per-n matrix suites, multiset matching, and the
power-iteration eigenvalue oracle that tests compare the root pipeline to."""

import operator
from functools import lru_cache

import numpy as np
import pytest

from tentspec import exact, markov, poly
from tentspec.exact import ExactMatrix, IntPolynomial
from tentspec.poly import NoConvergence
from tentspec.transfer import UlamMatrix


@lru_cache(maxsize=64)
def tent_suite(n: int):
    """All exact objects for one parameter index, built once per session."""
    A = markov.tent_matrix(n, "full")
    B = markov.tent_matrix(n, "folded")
    return {
        "kappa": poly.solve_kappa(n).kappa,
        "A": A,
        "B": B,
        "J": exact.flip_matrix(2 * n + 4),
        "C": exact.symmetric_restriction(A, n),
        "iota": exact.inclusion_iota(n),
    }


@pytest.fixture
def suite():
    return tent_suite


def from_rows(rows) -> ExactMatrix:
    """The ExactMatrix with these dense integer rows, built from their
    columns' nonzeros by `ExactMatrix.from_columns`."""
    rows = [tuple(map(operator.index, row)) for row in rows]
    columns = (((i, a) for i, a in enumerate(col) if a) for col in zip(*rows))
    return ExactMatrix.from_columns(len(rows), len(rows[0]), columns)


def x_f_g(n: int) -> IntPolynomial:
    """x f_n g_n, the minimal polynomial of the full adjacency matrix A_n."""
    return IntPolynomial((0, 1)) * poly.f_poly(n) * poly.g_poly(n)


def exact_array(M: ExactMatrix) -> np.ndarray:
    """M's dense rows as a numpy object array of Python ints, so sums,
    scalar multiples and products (`@`, `np.linalg.matrix_power`) stay
    exact and are computed apart from ExactMatrix."""
    return np.array(M.entries, dtype=object)


def mat_poly_apply(p, M: ExactMatrix) -> np.ndarray:
    """p(M) by Horner's scheme on M's `exact_array`."""
    D = exact_array(M)
    eye = np.identity(M.rows, dtype=object)
    acc = p.leading * eye
    for c in reversed(p.coeffs[:-1]):
        acc = acc @ D + c * eye
    return acc


def match_multisets(found, expected) -> float:
    """Greedy nearest matching; returns the worst pairing distance."""
    remaining = list(expected)
    worst = 0.0
    assert len(found) == len(remaining)
    for z in found:
        i = min(range(len(remaining)), key=lambda i: abs(remaining[i] - z))
        worst = max(worst, abs(remaining[i] - z))
        remaining.pop(i)
    return worst


@pytest.fixture
def multiset_match():
    return match_multisets


# ---------------------------------------------------------------------------
# power-iteration oracle
# ---------------------------------------------------------------------------


def _as_float_array(M) -> np.ndarray:
    if isinstance(M, ExactMatrix):
        return np.array(M.entries, dtype=float)
    if isinstance(M, UlamMatrix):
        return M.toarray()
    return np.asarray(M, dtype=float)


# complex shifts (relative to the matrix scale) that break modulus ties
# between conjugate eigenvalue pairs; tried in order until every stage of
# the deflation converges
_SHIFTS = (0.31 + 0.67j, -0.52 + 0.41j, 0.73 - 0.29j, 0.17 + 0.89j, -0.37 - 0.61j)


def _power_stage(W: np.ndarray, rng, tol: float):
    """Dominant eigenpair of W by plain power iteration; None after 20000 steps."""
    size = W.shape[0]
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    x /= np.linalg.norm(x)
    mu = 0.0 + 0.0j
    for _ in range(20000):
        y = W @ x
        ny = np.linalg.norm(y)
        if ny == 0.0:  # x is in the kernel: eigenvalue 0 exactly
            return 0.0 + 0.0j, x
        y /= ny
        mu = np.vdot(y, W @ y)
        if np.linalg.norm(W @ y - mu * y) <= tol:
            return mu, y
        x = y
    return None


def oracle_eigenvalues(A) -> list[complex]:
    """All eigenvalues by shifted power iteration with Wielandt deflation.

    Independent of the polynomial pipeline; intended as a desk-scale
    cross-check (size <= 60).  A complex shift separates the moduli of
    conjugate pairs so plain power iteration converges; each found eigenpair
    is removed by the Wielandt rank-one update, which preserves the
    remaining eigenvalues.  Raises NoConvergence when no shift yields
    convergence at every stage (defective input behaves this way).
    """
    A = _as_float_array(A)
    size = A.shape[0]
    if size > 60:
        raise ValueError("oracle is a desk-scale cross-check (size <= 60)")
    scale = max(np.max(np.abs(A)), 1.0)
    tol = 1e-11 * scale
    for shift in _SHIFTS:
        rng = np.random.default_rng(1234)
        sigma = shift * scale
        W = A.astype(complex) - sigma * np.eye(size)
        found: list[complex] = []
        ok = True
        for _ in range(size):
            stage = _power_stage(W, rng, tol)
            if stage is None:
                ok = False
                break
            mu, v = stage
            found.append(complex(mu + sigma))
            pivot = int(np.argmax(np.abs(v)))
            # Wielandt deflation: subtract mu * v x^T with x^T v = 1
            x = np.zeros(size, dtype=complex)
            x[pivot] = 1.0 / v[pivot]
            W = W - mu * np.outer(v, x)
        if ok:
            return found
    raise NoConvergence("power iteration stalled for every shift (defective input?)")
