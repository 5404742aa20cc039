"""Shared fixtures: cached per-n matrix suites and multiset matching."""

from functools import lru_cache

import pytest

from tentspec import exact, markov, poly


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
