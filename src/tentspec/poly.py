"""The polynomial family x^n(x-2) -+ 2, its distinguished real roots, and
complex root finding.

kappa_n solves (2+2k)^n k = 1 and 2+2*kappa_n is the top real root of
f_n(x) = x^n(x-2) - 2; for n >= 5 the companion family g_n = f_n + 4 has a
real root 2-2r_n just below 2.  From n = 6 the n other roots lie in the
annulus 1 -+ 1/n, one in each of n sectors, and are seeded by the
contraction z <- w_k (2 - z)^(-1/n); the outside root is seeded by
2+2*kappa_n or 2-2r_n.  Every other polynomial, the family at n <= 5 among
them, is seeded by binary64 companion-matrix eigenvalues.  Each seed is
polished by Newton in Gaussian fixed-point integers at a precision that
grows with the degree, once per conjugate pair (the partner is the exact
conjugate), and returned only if its residual meets the 1e-9 * max|c|
post-condition and, for the family, each root stays in its own sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .exact import IntPolynomial

if TYPE_CHECKING:
    import numpy as np

# numpy and mpmath are imported inside the root layer below, so the exact
# layers and the real-root solves load neither.

__all__ = [
    "KappaSolution",
    "ComplexRootSet",
    "AnnulusReport",
    "NoConvergence",
    "IllConditioned",
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


class IllConditioned(RuntimeError):
    """Inverse iteration failed to pin down an eigenpair.

    Raised by spectral and transfer, and bound again in spectral; it lives
    here so that the CLI catches it without loading numpy."""


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

    Roots are mpmath complex numbers holding the polished fixed-point values
    exactly (binary64 cannot hold the dominant root of x^n(x-2)-2 tightly
    enough for a 1e-9 residual once n grows).  Complex roots come in exact
    conjugate pairs, each pair polished once.  Use as_complex() for a
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


# The Newton polish runs on Gaussian fixed-point integers: (X, Y, F) stands
# for (X + iY) * 2^-F, a product is four integer products and a shift, and
# no mpmath arithmetic runs inside the loop.


def _fraction_bits(z: complex, deg: int, bits: int) -> int:
    """The F that gives z, and each power of z up to z^deg, bits significant bits.

    For |z| >= 1 the smallest of these is z itself, so |X| < 2^bits; below
    the unit circle it is z^deg, and F grows by the bits z^deg loses.
    """
    r = abs(z)
    if r == 0.0:
        return bits
    low = math.log2(r) * (deg if r < 1.0 else 1)
    return max(0, bits - math.floor(low) - 1)


def _to_fixed(x: float, F: int) -> int:
    """floor(x * 2^F), exact whenever x * 2^F is an integer."""
    num, den = x.as_integer_ratio()
    return (num << F) // den


def _mul(a: int, b: int, c: int, d: int, F: int) -> tuple[int, int]:
    """(a + ib)(c + id) in the fixed-point format, rounded down."""
    return (a * c - b * d) >> F, (a * d + b * c) >> F


def _power(x: int, y: int, e: int, F: int) -> tuple[int, int]:
    """(x + iy)^e for an integer e >= 0 by repeated squaring."""
    ox, oy = 1 << F, 0
    while e:
        if e & 1:
            ox, oy = _mul(ox, oy, x, y, F)
        e >>= 1
        if e:
            x, y = ((x + y) * (x - y)) >> F, (2 * x * y) >> F
    return ox, oy


def _sparse_horner(terms, x: int, y: int, F: int) -> tuple[int, int, int, int]:
    """(p(z), p'(z)) at z = (x + iy) 2^-F, as the Gaussian fixed-point
    integers (Re p, Im p, Re p', Im p'), by Horner over the gaps between
    the nonzero terms.

    terms are the (degree, coefficient) pairs of p with nonzero
    coefficient, in strictly decreasing degree.  Each gap g costs one power
    z^(g-1), so a trinomial costs O(log n) multiplies, not O(n).  Horner
    order keeps the exact factor (z-2) of x^n(x-2) -+ 2; summing c*z^k term
    by term would absorb the constant into terms of size 2^n.
    """
    top, c = terms[0]
    ax, ay = c << F, 0
    dx = dy = 0
    for k, c in terms[1:] + ([(0, 0)] if terms[-1][0] else []):
        g = top - k
        wx, wy = _power(x, y, g - 1, F)
        vx, vy = _mul(wx, wy, x, y, F)
        # each accumulator meets a whole power in one product: a small
        # accumulator times z, rounded, then times z^(g-1) would scale its
        # rounding by |z|^(g-1)
        tx, ty = _mul(ax, ay, wx, wy, F)
        dx, dy = _mul(dx, dy, vx, vy, F)
        dx, dy = dx + g * tx, dy + g * ty
        ax, ay = _mul(ax, ay, vx, vy, F)
        ax += c << F
        top = k
    return ax, ay, dx, dy


def _fixed_abs(x: int, y: int, F: int) -> float:
    """|x + iy| * 2^-F as a float, without converting a huge int."""
    shift = max(0, max(x.bit_length(), y.bit_length()) - 64)
    return math.ldexp(math.hypot(x >> shift, y >> shift), shift - F)


def _to_mpc(x: int, y: int, F: int):
    """(x + iy) * 2^-F as an mpc, exactly (no rounding to the context)."""
    import mpmath as mp
    from mpmath.libmp import from_man_exp

    return mp.make_mpc((from_man_exp(x, -F), from_man_exp(y, -F)))


def _conjugate(z):
    """The exact conjugate of an mpc; mp.conj rounds to the context precision."""
    import mpmath as mp
    from mpmath.libmp import mpf_neg

    re, im = z._mpc_
    return mp.make_mpc((re, mpf_neg(im)))


# Newton doubles the correct digits of a binary64 seed each step, so ten
# steps reach the working precision of every degree up to about 16000; the
# cap only ends the polish of a seed that does not converge.
_NEWTON_CAP = 10


def _polish(z: complex, terms):
    """Newton in a word of _polish_dps precision until the correction is a
    few units in the last place (at most _NEWTON_CAP steps).

    Returns (root, |p(root)|); a real z gives a real root.
    """
    from mpmath.libmp import dps_to_prec

    deg = terms[0][0]
    F = _fraction_bits(z, deg, dps_to_prec(_polish_dps(deg)))
    x, y = _to_fixed(z.real, F), _to_fixed(z.imag, F)
    for _ in range(_NEWTON_CAP):
        px, py, dx, dy = _sparse_horner(terms, x, y, F)
        norm = dx * dx + dy * dy
        if norm == 0:
            break
        # the correction p/p' = p conj(p') / |p'|^2
        sx = ((px * dx + py * dy) << F) // norm
        sy = ((py * dx - px * dy) << F) // norm
        x -= sx
        y -= sy
        # stop once the step is a few units in the last place, all rounding
        # noise
        if abs(sx) < 16 and abs(sy) < 16:
            break
    px, py, _, _ = _sparse_horner(terms, x, y, F)
    return _to_mpc(x, y, F), _fixed_abs(px, py, F)


# The contraction seeds converge in 4 to 22 steps for every n from 6; the
# cap only ends a loop that rounding keeps from settling.
_CONTRACTION_CAP = 100

# From n = 53, 2+2*kappa_n and 2-2r_n round to 2 in binary64.
_LAST_FLOAT_OUTSIDE_ROOT = 52


def _tent_family(p: IntPolynomial) -> str | None:
    """The family name, "f" or "g", when p is f_poly(n) or g_poly(n) with
    n >= 6, else None.

    From n = 6 Rouche's theorem puts no root inside 1 - 1/n, n roots in the
    annulus and one outside 1 + 1/n (spectral._rouche_certified); below,
    the outer count fails and the companion seeds stay.
    """
    n = p.degree - 1
    if n >= 6:
        for name, make in (("f", f_poly), ("g", g_poly)):
            if p == make(n):
                return name
    return None


def _contraction_seeds(n: int, family: str) -> np.ndarray:
    """n + 1 binary64 seeds for f_n or g_n: sector k's fixed point at index
    k < n, the outside real root at index n.

    Every root z of z^n (z - 2) = -+2 with Re z < 2 satisfies
    z = w_k (2 - z)^(-1/n) for one k, on the principal branch, with
    w_k = 2^(1/n) e^(i pi j_k / n) and j_k = 2k+1 for f_n, 2k for g_n.  Since Re(2 - z) > 0, the factor
    (2 - z)^(-1/n) turns z by less than pi/(2n), so sector k's root lies in
    the open window |arg z - pi j_k / n| < pi/(2n), and the windows are
    disjoint.  On the annulus the map contracts, with
    |Phi_k'| = |Phi_k| / (n |2 - z|) <= (1 + 1/n) / (n (1 - 1/n)) < 1, so one
    vectorized loop runs all sectors to their fixed points.  The sectors at
    phase 0 and pi hold real roots, and their seeds are set exactly real.

    The outside seed is 2+2*kappa_n or 2-2r_n while those differ from 2 in
    binary64 (n <= 52), and the float just above or below 2 from n = 53;
    solve_kappa overflows from n = 775 and is not called there.
    """
    import numpy as np

    j = 2 * np.arange(n) + (family == "f")
    scale = 2.0 ** (1.0 / n)
    w = scale * np.exp(1j * np.pi * (j / n))
    w[j == n] = -scale
    real = (j == 0) | (j == n)
    z = w.copy()
    for _ in range(_CONTRACTION_CAP):
        nxt = w * (2.0 - z) ** (-1.0 / n)
        step = np.max(np.abs(nxt - z))
        z = nxt
        if step < 1e-15:
            break
    z.imag[real] = 0.0
    if n <= _LAST_FLOAT_OUTSIDE_ROOT:
        outside = 2.0 + 2.0 * solve_kappa(n).kappa if family == "f" else 2.0 - 2.0 * solve_r(n)
    else:
        outside = math.nextafter(2.0, 3.0 if family == "f" else 0.0)
    return np.append(z, outside)


def _companion_seeds(coeffs) -> np.ndarray:
    """Binary64 companion-matrix eigenvalues of the polynomial with ascending
    coefficients coeffs (a nonzero constant term); LAPACK returns the complex
    eigenvalues of a real matrix in exact conjugate pairs and real ones
    exactly real."""
    import numpy as np
    from numpy.polynomial import polynomial as npoly

    return npoly.polyroots(np.array(coeffs, dtype=float))


def _check_sectors(n: int, family: str, polished: dict, roots: list):
    """Raise NoConvergence unless every sector k with phase in [0, pi] holds
    its polished root in its own window and in the closed annulus 1 -+ 1/n,
    and the outside root (key n) is real and beyond 1 + 1/n.

    polished maps the seed index to its polished root.  With the windows
    disjoint and each root's partner the exact conjugate in the mirrored
    window, the n annulus roots are distinct, and with Rouche's (0, n, 1)
    count they and the outside root are all the roots.
    """
    odd = family == "f"
    inner, outer = 1.0 - 1.0 / n, 1.0 + 1.0 / n
    for k in range((n - odd) // 2 + 1):
        # a sector whose seed was dropped as im < 0 reads nan and fails
        z = complex(polished.get(k, math.nan))
        theta = math.pi * ((2 * k + odd) / n)
        turned = z * complex(math.cos(theta), -math.sin(theta))
        offset = math.atan2(turned.imag, turned.real)
        if not (abs(offset) < math.pi / (2 * n) and inner <= abs(z) <= outer):
            raise NoConvergence(
                f"{family}_n at n={n}, sector k={k}: its root left the sector window "
                "or the annulus 1-+1/n",
                best=roots,
            )
    z = complex(polished.get(n, math.nan))
    if not (z.imag == 0.0 and z.real > outer):
        raise NoConvergence(
            f"{family}_n at n={n}, sector k={n}: the outside root is not real beyond 1+1/n",
            best=roots,
        )


def aberth_roots(p: IntPolynomial) -> ComplexRootSet:
    """All complex roots of p: contraction or companion-matrix seeds polished
    by Newton.

    The name predates both seed rules; benchmark trace spans key on it.

    For f_poly(n) and g_poly(n) with n >= 6 the seeds are the fixed points
    of the sector contractions z <- w_k (2 - z)^(-1/n), one per sector
    k = 0..n-1, plus the outside real root (_contraction_seeds has the
    argument).  Every other polynomial, the family at n <= 5 among them,
    where Rouche's count fails, is seeded by the binary64 eigenvalues of the
    companion matrix of p with its zero roots (trailing zero coefficients)
    deflated exactly; they are backward-stable root estimates.  The
    companion seeds come in exact conjugate pairs and the contraction seeds
    fill the mirrored sectors, so only the seeds with im >= 0 are polished,
    by Newton in Gaussian fixed-point integers until the correction falls
    below the working precision, with the residual reported at the polished
    point; the partner of a complex root is its exact conjugate, with the
    same residual.

    Raises NoConvergence carrying the polished roots when any residual is at
    least 1e-9 * max|c|, so no returned root breaks that contract, and, for
    the family, when a root leaves its sector window or the annulus, or the
    outside root is not real beyond 1 + 1/n (naming n, the family and the
    sector k), so no root is silently missing.

    References
    ----------
    A. Edelman and H. Murakami, Polynomial roots from companion matrix
    eigenvalues, Math. Comp. 64 (1995).
    D. A. Bini and L. Robol, Solving secular and polynomial equations: a
    multiprecision algorithm, J. Comput. Appl. Math. 272 (2014).
    """
    import mpmath as mp

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
        terms = [(k, c) for k, c in enumerate(work) if c][::-1]
        family = _tent_family(p)
        n = p.degree - 1
        seeds = _companion_seeds(work) if family is None else _contraction_seeds(n, family)
        polished = {}
        for k, zj in enumerate(seeds):
            if zj.imag < 0:
                continue
            root, resid = _polish(complex(zj), terms)
            polished[k] = root
            pair = [root, _conjugate(root)] if zj.imag else [root]
            roots += pair
            residuals += [resid] * len(pair)
        bound = 1e-9 * max(abs(c) for c in coeffs)
        if max(residuals) >= bound:
            raise NoConvergence(
                f"polished residual {max(residuals):.3g} at degree {p.degree} "
                f"is not below 1e-9*max|c| = {bound:.3g}",
                best=roots,
            )
        if family is not None:
            _check_sectors(n, family, polished, roots)
    order = sorted(range(len(roots)), key=lambda i: (roots[i].real, roots[i].imag))
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
    moduli = list(moduli)  # two passes below, so an iterator is read once
    inner, outer = 1.0 - 1.0 / n, 1.0 + 1.0 / n
    inside = sum(1 for m in moduli if m < inner)
    outside = sum(1 for m in moduli if m > outer)
    return inside, len(moduli) - inside - outside, outside


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
        real_g = [z for z in roots_g.roots if abs(z.imag) < 1e-8 and z.real > 1.5]
        if real_g:
            subdominant = float(max(real_g, key=lambda z: z.real).real)
    return AnnulusReport(
        n=n,
        inside_inner=cf[0] + cg[0],
        in_annulus=cf[1] + cg[1],
        outside_outer=cf[2] + cg[2],
        perron_root=float(perron.real),
        subdominant_real_root=subdominant,
        counts_f=cf,
        counts_g=cg,
    )
