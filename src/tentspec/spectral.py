"""Per-parameter spectral reports and the independent eigenvalue cross-check.

Eigenvalues are the roots of x^n(x-2) -+ 2, not computed from the matrices.
The per-n report (spectral radius, second eigenvalue, mixing-time
estimates) takes its two leading moduli from kappa_n and r_n for n >= 6,
where Rouche's theorem certifies by two integer comparisons that every
other root lies in the annulus 1 -+ 1/n; for n <= 5 it reads them off all
the roots.  The floating-point side is inverse iteration for eigenvectors
(classified as flip-symmetric or antisymmetric) and a shifted
power-iteration oracle with Wielandt deflation for small matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .exact import ExactMatrix, kernel_basis
from .poly import (
    AnnulusReport,
    IllConditioned,
    NoConvergence,
    aberth_roots,
    annulus_classify,
    f_poly,
    g_poly,
    solve_kappa,
    solve_r,
)

__all__ = [
    "ClassifiedEigenpair",
    "SpectralReport",
    "IllConditioned",
    "eigvec_for_root",
    "oracle_eigenvalues",
    "spectral_report",
]


@dataclass(frozen=True)
class ClassifiedEigenpair:
    eigenvalue: complex
    vector: np.ndarray
    symmetry: str  # 'symmetric' | 'antisymmetric' | 'kernel'
    residual: float


def _as_float_array(M) -> np.ndarray:
    if isinstance(M, ExactMatrix):
        return np.array(M.entries, dtype=float)
    return np.asarray(M, dtype=float)


def eigvec_for_root(A: ExactMatrix, J: ExactMatrix, lam: complex) -> ClassifiedEigenpair:
    """Eigenvector of A at a computed eigenvalue, classified under the flip.

    Kernel eigenvalues are answered exactly from kernel_basis (both
    symmetric and antisymmetric null vectors exist, so no single class
    applies).  Otherwise inverse iteration runs from a seeded random start;
    a cluster that resists 1e-6 accuracy after retries raises IllConditioned.
    """
    An = _as_float_array(A)
    Jn = _as_float_array(J)
    size = An.shape[0]
    lam = complex(lam)
    if abs(lam) < 1e-8:
        basis = kernel_basis(A)
        if not basis:
            raise IllConditioned("eigenvalue ~0 but the kernel is trivial")
        v = np.array([float(x) for x in basis[0]])
        v = v / np.linalg.norm(v)
        residual = float(np.max(np.abs(An @ v)))
        return ClassifiedEigenpair(0.0, v, "kernel", residual)
    scale = np.max(np.abs(An))
    rng = np.random.default_rng(7)
    shifted = An.astype(complex) - lam * np.eye(size)
    for _ in range(5):
        v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        v /= np.linalg.norm(v)
        try:
            for _ in range(4):
                v = np.linalg.solve(shifted, v)
                v /= np.linalg.norm(v)
        except np.linalg.LinAlgError:
            shifted = shifted + 1e-14 * scale * np.eye(size)
            continue
        residual = float(np.max(np.abs(An @ v - lam * v)))
        if residual <= 1e-6 * scale:
            break
    else:
        raise IllConditioned(f"inverse iteration stalled at eigenvalue {lam}")
    sym_res = float(np.max(np.abs(Jn @ v - v)))
    anti_res = float(np.max(np.abs(Jn @ v + v)))
    lo, hi = sorted((sym_res, anti_res))
    if lo > 1e-6 * max(hi, 1.0):
        raise IllConditioned("eigenvector is neither symmetric nor antisymmetric")
    symmetry = "symmetric" if sym_res < anti_res else "antisymmetric"
    return ClassifiedEigenpair(lam, v, symmetry, residual)


# ---------------------------------------------------------------------------
# power-iteration oracle
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralReport:
    """Spectral and mixing summary for one parameter index.

    M-values are the adjacency values divided by 2+2*kappa_n.  The folded
    bound fields are only defined for n >= 6 and are None below that.
    """

    n: int
    kappa_n: float
    r_n: float | None
    spectral_radius_A: float
    spectral_radius_M: float
    second_modulus_M: float
    second_modulus_bound_factor: float | None
    mixing_time_full: float
    mixing_time_folded_bound: float | None
    annulus: AnnulusReport

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "kappa_n": self.kappa_n,
            "r_n": self.r_n,
            "spectral_radius_A": self.spectral_radius_A,
            "spectral_radius_M": self.spectral_radius_M,
            "second_modulus_M": self.second_modulus_M,
            "second_modulus_bound_factor": self.second_modulus_bound_factor,
            "mixing_time_full": self.mixing_time_full,
            "mixing_time_folded_bound": self.mixing_time_folded_bound,
            "annulus": self.annulus.to_dict(),
        }


def _rouche_certified(n: int) -> bool:
    """Rouche on |z| = 1 -+ 1/n: f_n and g_n each have (0, n, 1) roots.

    Both are z^n(z-2) -+ 2, so each circle compares the dominant term with
    the constant 2.  On |z| = 1+1/n, |z^n(z-2)| >= (1+1/n)^n (1-1/n) > 2,
    and on |z| = 1-1/n, |z^n(z-2)| <= (1-1/n)^n (3-1/n) < 2; times n^(n+1)
    these are integer comparisons.  The outer one fails for n = 1..5, so
    this holds exactly from n = 6.
    """
    two_n = 2 * n ** (n + 1)
    return (n + 1) ** n * (n - 1) > two_n and (n - 1) ** n * (3 * n - 1) < two_n


def spectral_report(n: int) -> SpectralReport:
    """Assemble the per-n report, with no root search for n >= 6.

    The second eigenvalue of the scaled operator is the second-largest root
    modulus of f_n * g_n divided by 2+2*kappa_n; the mixing time is the
    reciprocal of |log| of that ratio (scale factor ignored).  Where the
    Rouche certificate holds (n >= 6) the two largest moduli are the roots
    outside the annulus, 2+2*kappa_n of f_n and 2-2*r_n of g_n; for n <= 5
    they are read off all the roots (for n <= 4 the second is a complex
    pair).  From n = 53 the scale 2+2*kappa_n rounds to 2 in binary64 and
    NoConvergence is raised.
    """
    if n < 1:
        raise ValueError("n must be positive")
    kappa = solve_kappa(n).kappa
    rho = 2.0 + 2.0 * kappa
    if rho == 2.0:
        raise NoConvergence(f"spectral scale 2+2*kappa_n rounds to 2 in binary64 at n={n}")
    r_n = solve_r(n) if n >= 5 else None
    if _rouche_certified(n):
        radius_a = rho
        second = 2.0 - 2.0 * r_n
        counts = (0, n, 1)
        annulus = AnnulusReport(
            n=n,
            inside_inner=0,
            in_annulus=2 * n,
            outside_outer=2,
            perron_root=rho,
            subdominant_real_root=second,
            counts_f=counts,
            counts_g=counts,
        )
        bound_factor = (1.0 + 1.0 / n) / rho
        folded_mix = 1.0 / abs(math.log(bound_factor))
    else:
        roots_f = aberth_roots(f_poly(n))
        roots_g = aberth_roots(g_poly(n))
        annulus = annulus_classify(n, roots_f, roots_g)
        moduli = sorted(roots_f.moduli() + roots_g.moduli(), reverse=True)
        radius_a, second = moduli[:2]
        bound_factor = None
        folded_mix = None
    second_m = second / rho
    return SpectralReport(
        n=n,
        kappa_n=kappa,
        r_n=r_n,
        spectral_radius_A=radius_a,
        spectral_radius_M=radius_a / rho,
        second_modulus_M=second_m,
        second_modulus_bound_factor=bound_factor,
        mixing_time_full=1.0 / abs(math.log(second_m)),
        mixing_time_folded_bound=folded_mix,
        annulus=annulus,
    )
