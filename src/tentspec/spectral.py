"""Per-parameter spectral reports.

Eigenvalues are the roots of x^n(x-2) -+ 2, not computed from the matrices.
The per-n report (spectral radius, second eigenvalue, mixing-time
estimates) takes its two leading moduli from kappa_n and r_n for n >= 6,
where Rouche's theorem certifies by two integer comparisons that every
other root lies in the annulus 1 -+ 1/n.  That certificate is
poly._rouche_certified, the one aberth_roots checks before it seeds the
family by sector contraction.  For n <= 5 the report reads the moduli off
all the roots, which loads numpy and mpmath.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

from .poly import (
    AnnulusReport,
    NoConvergence,
    _rouche_certified,
    aberth_roots,
    annulus_classify,
    f_poly,
    g_poly,
    solve_kappa,
    solve_r,
)

__all__ = ["SpectralReport", "spectral_report"]


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


def spectral_report(n: int) -> SpectralReport:
    """Assemble the per-n report, with no root search for n >= 6.

    The second eigenvalue of the scaled operator is the second-largest root
    modulus of f_n * g_n divided by 2+2*kappa_n; the mixing time is the
    reciprocal of |log| of that ratio (scale factor ignored).  Where the
    Rouche certificate holds (n >= 6) the two largest moduli are the roots
    outside the annulus, 2+2*kappa_n of f_n and 2-2*r_n of g_n; for n <= 5
    they are read off all the roots (for n <= 3 the second is a complex
    pair, at n = 4 and 5 a real root of g_n).  From n = 53 the scale
    2+2*kappa_n rounds to 2 in binary64 and NoConvergence is raised.

    Mixing time without cancellation.  For n >= 6 the ratio is
    (1-r_n)/(1+kappa_n) = 1 - O(2^-n), so |log| of its binary64 rounding
    would amplify that rounding by about 2^(n-1) (3.2e-8 relative at
    n = 29).  So `mixing_time_full` is 1/(a + b) with a = log1p(kappa_n)
    and b = -log1p(-r_n), both positive.  Error bound, to first order, with
    u = 2^-53, kappa_n and r_n off by relative d_k and d_r, and log1p
    within one ulp (2u relative, as glibc's): log1p has relative condition
    x/((1+x) log1p x) <= 1 at x = kappa_n, and -log1p(-x) has
    x/((1-x)(-log1p(-x))) <= 1/(1-x) at x = r_n, so the two logs are off
    by at most (1+kappa_n) |d_k| + 2u and |d_r|/(1-r_n) + 2u relative.  A
    sum of positive terms is off by at most the weighted mean of their
    errors, with weight w = a/(a+b) in [0.44, 0.5] for n >= 6, plus u, and
    the reciprocal adds u:

        |error| <= w (1+kappa_n) |d_k| + (1-w) |d_r|/(1-r_n) + 4u.

    With `solve_kappa` and `solve_r` as they are, against 40-digit mpmath
    roots this evaluates to at most 2.03e-15 (n = 28), and the measured
    error is at most 1.74e-15 (n = 28).  For n <= 5 the ratio is at most
    0.94, so |log| of it does not cancel and is used as is.
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
        mixing = 1.0 / (math.log1p(kappa) - math.log1p(-r_n))
    else:
        roots_f = aberth_roots(f_poly(n))
        roots_g = aberth_roots(g_poly(n))
        annulus = annulus_classify(n, roots_f, roots_g)
        moduli = sorted(roots_f.moduli() + roots_g.moduli(), reverse=True)
        radius_a, second = moduli[:2]
        bound_factor = None
        folded_mix = None
        mixing = 1.0 / abs(math.log(second / rho))
    return SpectralReport(
        n=n,
        kappa_n=kappa,
        r_n=r_n,
        spectral_radius_A=radius_a,
        spectral_radius_M=radius_a / rho,
        second_modulus_M=second / rho,
        second_modulus_bound_factor=bound_factor,
        mixing_time_full=mixing,
        mixing_time_folded_bound=folded_mix,
        annulus=annulus,
    )
