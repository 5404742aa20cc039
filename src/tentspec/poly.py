"""The polynomial family x^n(x-2) -+ 2, its distinguished real roots, and
complex root finding.

kappa_n solves (2+2k)^n k = 1 and 2+2*kappa_n is the top real root of
f_n(x) = x^n(x-2) - 2; for n >= 5 the companion family g_n = f_n + 4 has a
real root 2-2r_n just below 2.  All remaining roots cluster near the unit
circle.  Every root is seeded by a binary64 companion-matrix eigenvalue,
polished by Newton at extended precision, and returned only if its
residual meets the 1e-9 * max|c| post-condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from numpy.polynomial import polynomial as npoly

from .exact import IntPolynomial

__all__ = [
    "KappaSolution",
    "ComplexRootSet",
    "AnnulusReport",
    "NoConvergence",
    "f_poly",
    "g_poly",
    "min_poly",
    "solve_kappa",
    "solve_r",
    "aberth_roots",
    "annulus_classify",
]

class NoConvergence(RuntimeError):
    """A numerical solve missed its contract; .best, when set, carries the
    rejected result (for aberth_roots, the polished roots)."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


# ---------------------------------------------------------------------------
# the family
# ---------------------------------------------------------------------------


def f_poly(n: int) -> IntPolynomial:
    """x^n(x-2) - 2, ascending coefficients."""
    if n < 1:
        raise ValueError("n must be positive")
    return IntPolynomial((-2,) + (0,) * (n - 1) + (-2, 1))


def g_poly(n: int) -> IntPolynomial:
    """x^n(x-2) + 2, ascending coefficients."""
    if n < 1:
        raise ValueError("n must be positive")
    return IntPolynomial((2,) + (0,) * (n - 1) + (-2, 1))


def min_poly(n: int) -> IntPolynomial:
    """x * f_n(x) * g_n(x), the minimal polynomial of the full adjacency matrix."""
    x = IntPolynomial((0, 1))
    return x * f_poly(n) * g_poly(n)


# ---------------------------------------------------------------------------
# distinguished real roots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KappaSolution:
    n: int
    kappa: float
    residual: float

    def to_dict(self) -> dict:
        return {"n": self.n, "kappa": self.kappa, "residual": self.residual}


def _bisect_newton(fn, dfn, lo: float, hi: float) -> float:
    """Root of an increasing fn with fn(lo) < 0 <= fn(hi): at most 200
    bisection steps, then four Newton steps from the upper end."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x = hi
    for _ in range(4):
        x -= fn(x) / dfn(x)
    return x


def solve_kappa(n: int) -> KappaSolution:
    """The unique kappa in (0, 1/2) with (2+2*kappa)^n * kappa = 1.

    phi(k) = (2+2k)^n k - 1 changes sign on (0, 1/2] (phi -> -1 at 0,
    phi(1/2) = 3^n/2 - 1 > 0), so bisection brackets the root; a short
    Newton polish lands on the last bit.  From n = 775 the first probe
    (2.5)^n overflows binary64 and NoConvergence is raised.
    """
    if n < 1:
        raise ValueError("n must be positive")

    def phi(k: float) -> float:
        return (2.0 + 2.0 * k) ** n * k - 1.0

    def dphi(k: float) -> float:
        return (2.0 + 2.0 * k) ** n * (1.0 + 2.0 * n * k / (2.0 + 2.0 * k))

    try:
        k = _bisect_newton(phi, dphi, 0.0, 0.5)
    except OverflowError:
        raise NoConvergence(f"kappa solve at n={n}: (2+2k)^n overflows binary64") from None
    residual = abs(phi(k))
    if not (0.0 < k < 0.5) or residual >= 1e-13:
        raise NoConvergence(f"kappa solve failed at n={n}", best=k)
    return KappaSolution(n, k, residual)


def solve_r(n: int) -> float:
    """The r_n with g_n(2 - 2r_n) = 0 and 2^-n < r_n < 2^-n + 2n*4^-n.

    Only guaranteed for n >= 5.  Substituting x = 2 - 2r turns the root
    condition into 2^n r (1-r)^n = 1, which is solved directly in r; this
    keeps full relative precision even when the bracket width (~2n*4^-n) is
    far below one ulp of the root location near 2.
    """
    if n < 5:
        raise ValueError("the real root just below 2 is only guaranteed for n >= 5")

    def psi(r: float) -> float:
        return math.ldexp(r, n) * (1.0 - r) ** n - 1.0

    def dpsi(r: float) -> float:
        return math.ldexp(1.0, n) * (1.0 - r) ** (n - 1) * (1.0 - (n + 1.0) * r)

    lo = math.ldexp(1.0, -n)
    hi = lo + 2.0 * n * math.ldexp(1.0, -2 * n)
    if not (psi(lo) < 0.0 < psi(hi)):
        raise NoConvergence(f"bracket failed for r at n={n}")
    return _bisect_newton(psi, dpsi, lo, hi)


# ---------------------------------------------------------------------------
# complex roots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexRootSet:
    """Located roots with genuine residuals |p(root)|.

    Roots are mpmath complex numbers (the Newton polish runs at extended
    precision; binary64 cannot hold the dominant root of x^n(x-2)-2 tightly
    enough for a 1e-9 residual once n grows).  Use as_complex() for a
    binary64 view.
    """

    roots: tuple
    residuals: tuple[float, ...]
    degree: int

    def as_complex(self) -> list[complex]:
        return [complex(z) for z in self.roots]

    def moduli(self) -> list[float]:
        return [float(abs(z)) for z in self.roots]

    def to_csv_rows(self) -> list[tuple[str, str, str]]:
        """(re, im, residual) triples as decimal strings, one per root."""
        out = []
        for z, resid in zip(self.roots, self.residuals):
            zc = complex(z)
            out.append((repr(zc.real), repr(zc.imag), repr(resid)))
        return out


def _polish_dps(deg: int) -> int:
    """Decimal digits for the Newton polish of a degree-deg polynomial.

    The dominant root of x^n(x-2) -+ 2 sits 2^-n away from 2, so the
    working precision grows with the degree (Bini's adaptive-precision
    rule); the floor of 40 digits covers every degree up to 66.
    """
    return max(40, 20 + math.ceil(deg * math.log10(2)))


def _power(z, e: int):
    """z**e for an integer e >= 0 by repeated squaring at the working precision.

    mpmath's own ** on an mpc forms the exact power of the mantissas (O(e)
    bits) or goes through exp and log.
    """
    out = 1
    while e:
        if e & 1:
            out = out * z
        e >>= 1
        if e:
            z = z * z
    return out


def _sparse_horner(terms, z):
    """(p(z), p'(z)) by Horner over the gaps between the nonzero terms.

    terms are the (degree, coefficient) pairs of p with nonzero
    coefficient, in strictly decreasing degree.  Each gap g costs one power
    z^(g-1), so a trinomial costs O(log n) multiplies, not O(n).  Horner
    order keeps the exact factor (z-2) of x^n(x-2) -+ 2; summing c*z^k term
    by term would absorb the constant into terms of size 2^n.
    """
    top, acc = terms[0]
    dacc = 0
    for k, c in terms[1:] + ([(0, 0)] if terms[-1][0] else []):
        g = top - k
        zg = _power(z, g - 1)
        dacc = (dacc * z + g * acc) * zg
        acc = acc * z * zg + c
        top = k
    return acc, dacc


def _polish(z: complex, terms):
    """Four Newton steps at _polish_dps precision; returns (root, |p(root)|)."""
    with mp.workdps(_polish_dps(terms[0][0])):
        zz = mp.mpc(z)
        for _ in range(4):
            p, dp = _sparse_horner(terms, zz)
            if dp == 0:
                break
            zz = zz - p / dp
        return zz, float(abs(_sparse_horner(terms, zz)[0]))


def aberth_roots(p: IntPolynomial) -> ComplexRootSet:
    """All complex roots of p: companion-matrix eigenvalues polished by Newton.

    The name predates the companion seeds; benchmark trace spans key on it.

    Zero roots (trailing zero coefficients) are deflated exactly, so the
    eigenvalue solver never sees the multiple root at the origin.  The
    binary64 eigenvalues of the companion matrix of the deflated polynomial
    are backward-stable root estimates; each is polished by four Newton
    steps at extended precision and the residual reported at the polished
    point.

    Raises NoConvergence carrying the polished roots when any residual is at
    least 1e-9 * max|c|, so no returned root breaks that contract.

    References
    ----------
    A. Edelman and H. Murakami, Polynomial roots from companion matrix
    eigenvalues, Math. Comp. 64 (1995).
    """
    if p.degree < 1:
        raise ValueError("degree must be at least 1")
    coeffs = p.coeffs
    k0 = 0
    while coeffs[k0] == 0:
        k0 += 1
    roots: list = [mp.mpc(0)] * k0
    residuals: list[float] = [0.0] * k0
    work = coeffs[k0:]
    if len(work) > 1:
        terms = [(k, int(c)) for k, c in enumerate(work) if c][::-1]
        for zj in npoly.polyroots(np.array(work, dtype=float)):
            root, resid = _polish(complex(zj), terms)
            roots.append(root)
            residuals.append(resid)
        bound = 1e-9 * max(abs(c) for c in coeffs)
        if max(residuals) >= bound:
            raise NoConvergence(
                f"polished residual {max(residuals):.3g} at degree {p.degree} "
                f"is not below 1e-9*max|c| = {bound:.3g}",
                best=roots,
            )
    order = sorted(range(len(roots)), key=lambda i: (mp.re(roots[i]), mp.im(roots[i])))
    return ComplexRootSet(
        roots=tuple(roots[i] for i in order),
        residuals=tuple(residuals[i] for i in order),
        degree=p.degree,
    )


# ---------------------------------------------------------------------------
# annulus classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnulusReport:
    """Counts of roots relative to the circles of radius 1 -+ 1/n.

    The top-level counts cover the union of both root sets; counts_f and
    counts_g give the (inside, annulus, outside) split per polynomial.
    """

    n: int
    inside_inner: int
    in_annulus: int
    outside_outer: int
    perron_root: float
    subdominant_real_root: float | None
    counts_f: tuple[int, int, int]
    counts_g: tuple[int, int, int]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "inside_inner": self.inside_inner,
            "in_annulus": self.in_annulus,
            "outside_outer": self.outside_outer,
            "perron_root": self.perron_root,
            "subdominant_real_root": self.subdominant_real_root,
            "counts_f": list(self.counts_f),
            "counts_g": list(self.counts_g),
        }


def region_counts(moduli, n: int) -> tuple[int, int, int]:
    """(inside, annulus, outside) counts against radii 1 - 1/n and 1 + 1/n."""
    inner, outer = 1.0 - 1.0 / n, 1.0 + 1.0 / n
    inside = sum(1 for m in moduli if m < inner)
    outside = sum(1 for m in moduli if m > outer)
    return inside, len(list(moduli)) - inside - outside, outside


def annulus_classify(n: int, roots_f: ComplexRootSet, roots_g: ComplexRootSet) -> AnnulusReport:
    """Classify both root sets against the annulus and name the real outliers.

    The dominant root of the f family is real (equal to 2+2*kappa_n); for
    n >= 5 the g family has a real root 2-2r_n just below 2, reported as the
    subdominant outlier.
    """
    if n < 1:
        raise ValueError("n must be positive")
    mf = roots_f.moduli()
    mg = roots_g.moduli()
    cf = region_counts(mf, n)
    cg = region_counts(mg, n)
    perron = max(roots_f.roots, key=abs)
    subdominant = None
    if n >= 5:
        real_g = [z for z in roots_g.roots if abs(mp.im(z)) < 1e-8 and mp.re(z) > 1.5]
        if real_g:
            subdominant = float(mp.re(max(real_g, key=lambda z: mp.re(z))))
    return AnnulusReport(
        n=n,
        inside_inner=cf[0] + cg[0],
        in_annulus=cf[1] + cg[1],
        outside_outer=cf[2] + cg[2],
        perron_root=float(mp.re(perron)),
        subdominant_real_root=subdominant,
        counts_f=cf,
        counts_g=cg,
    )
