"""The polynomial family x^n(x-2) -+ 2, its distinguished real roots, and
its complex roots.

kappa_n solves (2+2k)^n k = 1 and 2+2*kappa_n is the top real root of
f_n(x) = x^n(x-2) - 2; for n >= 4 the companion family g_n = f_n + 4 has a
real root 2-2r_n below 2, 1.816 at n = 4, and from n = 5, where solve_r
finds it, just below 2.  From n = 6 the n other roots lie in the annulus
1 -+ 1/n, one in each of n sectors, by the one Rouche certificate
_rouche_certified, which spectral reads too.  aberth_roots takes only f_n
and g_n.  From n = 6 it seeds those roots by the contraction
z <- w_k (2 - z)^(-1/n) and starts the outside root exactly at 2 -+ 2^(1-n);
at n <= 5 it seeds every root by binary64 companion-matrix eigenvalues.
Each start is polished by Newton in Gaussian fixed-point integers, with p
and p' in closed form from (family, n), once per conjugate pair (the
partner is the exact conjugate): the annulus roots at 64 + 2*ceil(log2 n)
bits, every other root at a precision that grows with the degree.  A root
is returned only if its residual meets the 1e-9 * max|c| post-condition
and, from n = 6, it stays in its sector.
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
    "f_poly",
    "g_poly",
    "solve_kappa",
    "solve_r",
    "aberth_roots",
    "annulus_classify",
]

class NoConvergence(RuntimeError):
    """A numerical solve missed its contract, or binary64 cannot hold its
    result (solve_kappa, solve_r, aberth_roots, spectral_report); .best,
    when set, carries the rejected result (for aberth_roots, the polished
    roots)."""

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


def _rouche_certified(n: int) -> bool:
    """Rouche on |z| = 1 -+ 1/n: f_n and g_n each have (0, n, 1) roots.

    Both are z^n(z-2) -+ 2, so each circle compares the dominant term with
    the constant 2.  On |z| = 1+1/n, |z^n(z-2)| >= (1+1/n)^n (1-1/n) > 2,
    and on |z| = 1-1/n, |z^n(z-2)| <= (1-1/n)^n (3-1/n) < 2; times n^(n+1)
    these are integer comparisons.  The outer one fails for n = 1..5, so
    this holds exactly from n = 6.  aberth_roots' seed rule and
    spectral_report both read it.
    """
    two_n = 2 * n ** (n + 1)
    return (n + 1) ** n * (n - 1) > two_n and (n - 1) ** n * (3 * n - 1) < two_n


# ---------------------------------------------------------------------------
# distinguished real roots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KappaSolution:
    n: int
    kappa: float
    residual: float


def _bisect_newton(fn, dfn, lo: float, hi: float) -> float:
    """Root of an increasing fn with fn(lo) < 0 <= fn(hi): at most 200
    bisection steps, then four Newton steps from the upper end.

    solve_kappa and solve_r pass fixed-point brackets a few units wide,
    padded by 4 ulp (_widened).  The bisection ends on the same pair of
    neighbouring floats as one from (0, 1/2) or from
    (2^-n, 2^-n + 2n*4^-n) would, so the Newton steps start from the same
    hi and return the same float; tests/test_poly.py checks this against
    those wide brackets at every supported n.
    """
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


def _widened(lo: float, hi: float) -> tuple[float, float]:
    """The bracket [lo, hi], computed in binary64, widened by 4 ulp at each
    end for the rounding of that computation."""
    return lo - 4.0 * math.ulp(lo), hi + 4.0 * math.ulp(hi)


# the documented edges of solve_kappa and solve_r: a bisection of kappa from
# (0, 1/2) overflows from n = 775 at its first probe, (2.5)^n, and from
# n = 54 r_n < 2^-53, below which 1 - r rounds to 1 or 1 - 2^-53
_LAST_KAPPA_N = 774
_LAST_R_N = 53


def solve_kappa(n: int) -> KappaSolution:
    """The unique kappa in (0, 1/2) with (2+2*kappa)^n * kappa = 1.

    With eps = 2^-n the root is the fixed point of T(k) = eps (1+k)^-n,
    which is decreasing on k >= 0 with values in (0, eps].  So kappa lies
    in [0, eps], hence in [T(eps), eps], hence in [lo, hi] with
    lo = T(eps) = eps (1+eps)^-n and hi = T(lo).  By Bernoulli's inequality
    (1+x)^-n >= 1 - n x, eps - lo <= n eps^2, and as |T'| <= n eps,
    hi - lo <= n^2 eps^3: below one unit in the last place of kappa from
    n = 32 on, where the bisection from (0, 1/2) takes over 50 steps.
    Both ends are computed in binary64 and widened by 4 ulp (_widened);
    phi(k) = (2+2k)^n k - 1 is increasing, the tests check that its
    computed signs straddle the root, phi(lo) < 0 <= phi(hi), and that the
    result and residual equal those of the bisection from (0, 1/2) at
    every n = 1..774.  A short Newton polish follows the bisection.
    phi is evaluated in binary64, and its rounding floor grows with n, so
    Newton stops on noise: against a 40-digit mpmath root kappa_n is off by
    7.7e-16 relative at n = 8, 1.2e-15 at 12, 1.7e-15 at 20, 2.9e-15 at 29
    and at most 5.9e-15 (n = 53, about 26 units in its last place); from
    n = 61 it is within one unit.  From n = 775, where (2+2k)^n overflows
    binary64 at k = 1/4, NoConvergence is raised.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > _LAST_KAPPA_N:
        raise NoConvergence(f"kappa solve at n={n}: (2+2k)^n overflows binary64")

    def phi(k: float) -> float:
        return (2.0 + 2.0 * k) ** n * k - 1.0

    def dphi(k: float) -> float:
        return (2.0 + 2.0 * k) ** n * (1.0 + 2.0 * n * k / (2.0 + 2.0 * k))

    eps = math.ldexp(1.0, -n)
    lo = eps * (1.0 + eps) ** -n
    k = _bisect_newton(phi, dphi, *_widened(lo, eps * (1.0 + lo) ** -n))
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

    With eps = 2^-n, r_n is a fixed point of S(r) = eps (1-r)^-n, which is
    increasing.  S(eps) > eps, and by Bernoulli's inequality
    (1-x)^n >= 1 - n x, S(b) <= b at b = eps + 2n eps^2 for n >= 5, so r_n
    lies in [eps, b] and hence in [S(eps), S(b)].  Both ends are computed
    in binary64 and widened by 4 ulp (_widened); the computed signs of
    psi(r) = 2^n r (1-r)^n - 1 must straddle the root, or NoConvergence is
    raised.  The tests check that the result equals that of the bisection
    from [eps, b] at every n = 5..53.  From n = 54, r_n < 2^-53, so 1 - r
    rounds to 1 or 1 - 2^-53, binary64 psi no longer sees the factor
    (1-r)^n that separates r_n from eps, and NoConvergence is raised.
    """
    if n < 5:
        raise ValueError("the real root just below 2 is only guaranteed for n >= 5")

    def psi(r: float) -> float:
        return math.ldexp(r, n) * (1.0 - r) ** n - 1.0

    def dpsi(r: float) -> float:
        return math.ldexp(1.0, n) * (1.0 - r) ** (n - 1) * (1.0 - (n + 1.0) * r)

    eps = math.ldexp(1.0, -n)
    lo, hi = _widened(eps * (1.0 - eps) ** -n, eps * (1.0 - eps - 2.0 * n * eps * eps) ** -n)
    if n > _LAST_R_N or not (psi(lo) < 0.0 < psi(hi)):
        raise NoConvergence(f"bracket failed for r at n={n}")
    return _bisect_newton(psi, dpsi, lo, hi)


# ---------------------------------------------------------------------------
# complex roots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexRootSet:
    """The roots of f_n or g_n with genuine residuals |p(root)|.

    Roots are mpmath complex numbers holding the polished fixed-point values
    exactly (binary64 cannot hold the dominant root of x^n(x-2)-2 tightly
    enough for a 1e-9 residual once n grows).  Complex roots come in exact
    conjugate pairs, each pair polished once.  view holds each root rounded
    once to binary64, in the same order, and residuals the residual of each;
    the plot and the roots CSV read these two.
    """

    roots: tuple
    residuals: tuple[float, ...]
    degree: int
    view: tuple[complex, ...]

    def moduli(self) -> list[float]:
        # |z| rounded once from the exact root: the modulus of the rounded
        # view differs from it in the last bit for many roots
        return [float(abs(z)) for z in self.roots]


def _polish_dps(deg: int) -> int:
    """Decimal digits for the Newton polish of f_n or g_n, degree deg = n+1:
    the full word, for every root that _annulus_bits does not cover.

    The dominant root of x^n(x-2) -+ 2 sits 2^-n away from 2, so its
    working precision grows with the degree (Bini's adaptive-precision
    rule); the floor of 40 digits covers every degree up to 66.  The
    outside root from n = 6 and every root at n <= 5 are polished at this
    word.
    """
    return max(40, 20 + math.ceil(deg * math.log10(2)))


def _annulus_bits(n: int) -> int:
    """Working bits, 64 + 2*ceil(log2 n), for the n annulus roots of f_n and
    g_n (n >= 6).

    Only the outside root lies 2^-n from 2 and needs the full word of
    _polish_dps.  An annulus root z* has 1 - 1/n <= |z*| <= 1 + 1/n, so
    |z*|^(n+1) lies between 1/4 and 4, and _fraction_bits gives
    F = bits - 1 .. bits + 1 fraction bits.

    Residual.  Repeated squaring computes z^n to a relative error of about
    n units of 2^-F, so _tent_horner has p(z) = z^n (z - 2) -+ 2 to about
    n |z|^n |z - 2| units, while |p'(z*)| = n |z*|^(n-1) |z* - 2 + z*/n| is
    about n |z*|^(n-1) |z* - 2|.  The n cancels: Newton settles within a
    few units of z* (under 2, measured against the full-word polish for
    n = 6..60, 120, 300, 416, 1000 and 2000), and the stop rule's 16 units
    bound that error.  With |p'| <= n e (3 + 2/n) on the annulus, the
    residual at the returned point, _tent_horner's own rounding included, is
    about 200 n units of 2^-F, under 512 n 2^-bits <= 2^-55 / n < 1e-17:
    below 1e-9 * max|c| = 2e-9 by more than 25 bits at every n.

    Binary64 value.  A root is returned as the float it rounds to.  If
    every point within the error bound of the polished point rounds to one
    float, that float is the rounding of z*, and the full-word polish,
    whose point lies far closer to z*, rounds to it as well.  _polish
    checks exactly that on both parts, with the stop rule's 16 units as the
    bound, and aberth_roots polishes a root whose float is left open again
    at the full word.  The 2*ceil(log2 n) bits make that rare.  A part of
    size 2^-e has a binary64 unit of 2^-(52 + e), which is
    2^(12 + 2 log2 n - e) units of 2^-F, so the 32-unit interval straddles a
    rounding boundary for about 2^(e - 7 - 2 log2 n) of all points.  The
    roots spread evenly in angle, so about 2n 2^-e of the 2n parts have
    size near 2^-e, and each octave e = 0 .. log2 n + 1 adds about 2^-6 / n
    expected full-word polishes to a family.  Summed over both families
    and n = 6..700 that is about one, and one was measured (sector 4 of
    f_21); there were none at 2000 or 10000.
    """
    return 64 + 2 * (n - 1).bit_length()


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
    """(x + iy)^e for an integer e >= 1 by repeated squaring; the lowest
    set bit of e starts the product, so no product is by 1."""
    ox = None
    while True:
        if e & 1:
            ox, oy = (x, y) if ox is None else _mul(ox, oy, x, y, F)
        e >>= 1
        if not e:
            return ox, oy
        x, y = ((x + y) * (x - y)) >> F, (2 * x * y) >> F


def _tent_horner(n: int, c: int, x: int, y: int, F: int) -> tuple[int, int, int, int]:
    """(p(z), p'(z)) for p = z^n (z - 2) + c at z = (x + iy) 2^-F, as the
    Gaussian fixed-point integers (Re p, Im p, Re p', Im p').

    Horner's rule on the trinomial: with u = z - 2, w = z^(n-1) by repeated
    squaring (w = 1 at n = 1), v = w z and t = u w, p = u v + c and
    p' = v + n t, so f_n (c = -2) and g_n (c = 2) cost O(log n) multiplies.
    Horner order keeps the exact factor u; summing c_k z^k term by term
    would absorb the constant into terms of size 2^n.  u meets z^(n-1) in
    one product: a small accumulator rounded after one factor z would
    carry that rounding times |z|^(n-2).
    """
    ux = x - (2 << F)
    if n == 1:
        vx, vy, tx, ty = x, y, ux, y
    else:
        wx, wy = _power(x, y, n - 1, F)
        vx, vy = _mul(wx, wy, x, y, F)
        tx, ty = _mul(ux, y, wx, wy, F)
    px, py = _mul(ux, y, vx, vy, F)
    return px + (c << F), py, vx + n * tx, vy + n * ty


def _fixed_abs(x: int, y: int, F: int) -> float:
    """|x + iy| * 2^-F as a float, without converting a huge int; inf past binary64."""
    shift = max(0, max(x.bit_length(), y.bit_length()) - 64)
    try:
        return math.ldexp(math.hypot(x >> shift, y >> shift), shift - F)
    except OverflowError:
        return math.inf


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


# Newton steps measured: the exact start of the outside root settles in at
# most 6 to n = 52 and 2 from 53 (n = 6..400, 416, 1000, 2000, 10000, 40000),
# an annulus seed in 2 and a companion seed at n <= 5 in 3; the cap only
# ends the polish of a seed that does not converge.
_NEWTON_CAP = 10


def _polish(z: complex | None, n: int, c: int, bits: int | None = None):
    """Newton on p = z^n (z - 2) + c (f_n at c = -2, g_n at c = 2), p and p'
    from _tent_horner, in a word of bits bits, by default the full word of
    _polish_dps, until the correction is a few units in the last place (at
    most _NEWTON_CAP steps).

    z = None, at the full word, starts the outside real root at 2 - c 2^-n
    exactly, one Newton step from 2: p(2) = c, p'(2) = 2^n.  Returns
    (root, |p(root)|); a real z gives a real root.  With bits given it
    returns None instead unless Newton converged and every point within the
    stop rule's 16 units of the root rounds to the same binary64 parts (the
    argument is in _annulus_bits); the caller then polishes at the full word.
    """
    full = bits is None
    if full:
        from mpmath.libmp import dps_to_prec

        bits = dps_to_prec(_polish_dps(n + 1))
    if z is None:
        F = bits - 2 if c < 0 else bits - 1  # _fraction_bits' F on [2, 4) and [1, 2)
        x, y = (((2 << n) - c) << F) >> n, 0
    else:
        F = _fraction_bits(z, n + 1, bits)
        x, y = _to_fixed(z.real, F), _to_fixed(z.imag, F)
    converged, moved = False, True
    for _ in range(_NEWTON_CAP):
        px, py, dx, dy = _tent_horner(n, c, x, y, F)
        norm = dx * dx + dy * dy
        if norm == 0:
            moved = False
            break
        # the correction p/p' = p conj(p') / |p'|^2
        sx = ((px * dx + py * dy) << F) // norm
        sy = ((py * dx - px * dy) << F) // norm
        x -= sx
        y -= sy
        moved = bool(sx or sy)
        # stop once the step is a few units in the last place, all rounding
        # noise
        if abs(sx) < 16 and abs(sy) < 16:
            converged = True
            break
    if not full:
        # a real seed keeps y exactly 0, so only x carries an error
        one = 1 << F
        parts = (x, y) if z.imag else (x,)
        if not (converged and all((part - 16) / one == (part + 16) / one for part in parts)):
            return None
    # a zero last correction leaves p(root) as just computed
    if moved:
        px, py, _, _ = _tent_horner(n, c, x, y, F)
    return _to_mpc(x, y, F), _fixed_abs(px, py, F)


# The contraction seeds converge in 4 to 22 steps for every n from 6; the
# cap only ends a loop that rounding keeps from settling.
_CONTRACTION_CAP = 100


def _tent_family(p: IntPolynomial) -> tuple[str, int]:
    """("f", n) when p is f_poly(n), ("g", n) when p is g_poly(n), n >= 1;
    ValueError for any other p."""
    n = p.degree - 1
    for name, make in (("f", f_poly), ("g", g_poly)):
        if n >= 1 and p == make(n):
            return name, n
    raise ValueError(f"aberth_roots takes f_poly(n) or g_poly(n), n >= 1; got degree {p.degree}")


def _contraction_seeds(n: int, family: str) -> np.ndarray:
    """n binary64 seeds for f_n or g_n, sector k's fixed point at index k;
    _polish starts the outside root itself.

    Every root z of z^n (z - 2) = -+2 with Re z < 2 satisfies
    z = w_k (2 - z)^(-1/n) for one k, on the principal branch, with
    w_k = 2^(1/n) e^(i pi j_k / n) and j_k = 2k+1 for f_n, 2k for g_n.  Since Re(2 - z) > 0, the factor
    (2 - z)^(-1/n) turns z by less than pi/(2n), so sector k's root lies in
    the open window |arg z - pi j_k / n| < pi/(2n), and the windows are
    disjoint.  On the annulus the map contracts, with
    |Phi_k'| = |Phi_k| / (n |2 - z|) <= (1 + 1/n) / (n (1 - 1/n)) < 1, so one
    vectorized loop runs all sectors to their fixed points.  The sectors at
    phase 0 and pi hold real roots, and their seeds are set exactly real.
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
    return z


def _companion_seeds(n: int, family: str) -> np.ndarray:
    """Binary64 companion-matrix eigenvalues of f_n or g_n: the seed rule
    for n <= 5, where _rouche_certified fails.  LAPACK returns the complex
    eigenvalues of a real matrix in exact conjugate pairs and real ones
    exactly real."""
    import numpy as np
    from numpy.polynomial import polynomial as npoly

    p = f_poly(n) if family == "f" else g_poly(n)
    return npoly.polyroots(np.array(p.coeffs, dtype=float))


def _check_sectors(n: int, family: str, polished: dict) -> str | None:
    """The fault, or None when every sector k with phase in [0, pi] holds
    its polished root in its own window and in the closed annulus 1 -+ 1/n,
    and the outside root (key n) is real and beyond 1 + 1/n.

    polished maps the seed index to its polished root's binary64 view.
    With the windows disjoint and each root's partner the exact conjugate
    in the mirrored window, the n annulus roots are distinct; with the
    (0, n, 1) count of _rouche_certified, these n + 1 are all the roots.
    """
    odd = family == "f"
    inner, outer = 1.0 - 1.0 / n, 1.0 + 1.0 / n
    for k in range((n - odd) // 2 + 1):
        # a sector whose seed was dropped as im < 0 reads nan and fails
        z = polished.get(k, complex(math.nan))
        theta = math.pi * ((2 * k + odd) / n)
        turned = z * complex(math.cos(theta), -math.sin(theta))
        offset = math.atan2(turned.imag, turned.real)
        if not (abs(offset) < math.pi / (2 * n) and inner <= abs(z) <= outer):
            return (
                f"{family}_n at n={n}, sector k={k}: its root left the sector window "
                "or the annulus 1-+1/n"
            )
    z = polished.get(n, complex(math.nan))
    if not (z.imag == 0.0 and z.real > outer):
        return f"{family}_n at n={n}, sector k={n}: the outside root is not real beyond 1+1/n"
    return None


def aberth_roots(p: IntPolynomial) -> ComplexRootSet:
    """All complex roots of p = f_poly(n) or g_poly(n), n >= 1: contraction
    or companion-matrix seeds polished by Newton.

    The name predates both seed rules; benchmark trace spans key on it.

    Where _rouche_certified(n) holds (n >= 6) the seeds are the fixed points
    of the sector contractions z <- w_k (2 - z)^(-1/n), one per sector
    k = 0..n-1 (_contraction_seeds has the argument), and the outside real
    root starts exactly at 2 -+ 2^(1-n), one Newton step from 2.  At n <= 5
    they are the binary64 eigenvalues of the companion matrix of p,
    backward-stable root estimates.  The companion seeds come in exact
    conjugate pairs and the contraction seeds fill the mirrored sectors, so
    only the seeds with im >= 0 are polished, by Newton in Gaussian
    fixed-point integers until the correction falls below the working
    precision, with the residual reported at the polished point; the partner
    of a complex root is its exact conjugate, with the same residual.  The
    working precision is chosen per root, as MPSolve does: the annulus roots
    from n = 6 take _annulus_bits(n), and fall back to the full word of
    _polish_dps only where that leaves their binary64 value open; every
    other root takes the full word.

    Raises ValueError for any other p.  Raises NoConvergence carrying the
    polished roots when any residual is at least 1e-9 * max|c|, so no
    returned root breaks that contract, and, from n = 6, when a root leaves
    its sector window or the annulus, or the outside root is not real
    beyond 1 + 1/n (naming n, the family and the sector k), so no root is
    silently missing.

    References
    ----------
    A. Edelman and H. Murakami, Polynomial roots from companion matrix
    eigenvalues, Math. Comp. 64 (1995).
    D. A. Bini and L. Robol, Solving secular and polynomial equations: a
    multiprecision algorithm, J. Comput. Appl. Math. 272 (2014).
    """
    family, n = _tent_family(p)
    c = -2 if family == "f" else 2
    contracted = _rouche_certified(n)
    seeds = (_contraction_seeds if contracted else _companion_seeds)(n, family)
    found, polished = [], {}
    for k, zj in enumerate(seeds):
        if zj.imag < 0:
            continue
        z = complex(zj)
        cheap = _polish(z, n, c, _annulus_bits(n)) if contracted else None
        root, resid = cheap or _polish(z, n, c)
        zc = polished[k] = complex(root)
        found.append((zc, root, resid))
        if zj.imag:
            # an exactly real root's conjugate is itself, with +0.0, not
            # -0.0, as its imaginary part
            found.append((zc.conjugate() if root.imag else zc, _conjugate(root), resid))
    if contracted:
        root, resid = _polish(None, n, c)
        polished[n] = complex(root)
        found.append((polished[n], root, resid))
    worst = max(resid for _, _, resid in found)
    bound = 1e-9 * max(abs(a) for a in p.coeffs)
    if worst >= bound:
        fault = (
            f"polished residual {worst:.3g} at degree {n + 1} "
            f"is not below 1e-9*max|c| = {bound:.3g}"
        )
    else:
        fault = contracted and _check_sectors(n, family, polished)
    if fault:
        raise NoConvergence(fault, best=[root for _, root, _ in found])
    # rounding to binary64 keeps the order, so the exact parts decide only
    # where two real parts round to one float
    found.sort(key=lambda rec: (rec[0].real, rec[1].real, rec[1].imag))
    view, roots, residuals = zip(*found)
    return ComplexRootSet(roots, residuals, n + 1, view)


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
