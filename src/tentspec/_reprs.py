"""CSV rows of floats as numpy bytes, each field equal to `repr(float(x))`.

`simulate` writes a trajectory of m densities by k steps; at n = 12 with
20000 steps that is 580k floats, and `repr` of each was three quarters of
the command.  `_csv_rows` makes the same bytes with whole-array numpy
operations, a few dozen per chunk of rows.

Shortest digits.  Python's repr prints the shortest decimal that reads back
as x and, of those with that many digits, the nearest to x, a tie going to
the even last digit.  x reads back from D when |D - x| is below half an ulp
of x, or equal to it when x's last mantissa bit is 0 (round-half-even).

* Scale.  Take k with P = x 10^k in [1e16, 1e17).  For 0 <= k <= 22, 10^k
  is a double, and Dekker's error-free product (Veltkamp's split, no fused
  multiply-add needed) gives P = hi + lo exactly in two doubles.  hi is an
  integer, so floor(P) = hi + floor(lo) is an int64.  Half an ulp scales to
  H = 2^(E-1) 10^k, a double in (0.55, 11.2] when 2^E is x's ulp.  With
  x = M 2^e and M < 2^53, P is a multiple of g = 2^(e+k) and H = 5^k g / 2,
  so g > 2^-53 (5^k <= 5^22), and the fractions of P and H, multiples of
  g / 2 in [0, 1), are doubles: lo - floor(lo) and H - floor(H) are exact,
  and so are 1 - H's fraction and every comparison below.
* Interval.  The integers that read back as x once scaled form [n_min,
  n_max]: floor(P) -/+ floor(H) moved by one according to the fractions
  and the mantissa's parity.  Every float reads back from 17 digits, so
  round(P) is in it.  Repr has 17 - j digits for the largest j such that
  the interval holds a multiple of 10^j, that is n_max // 10^j >
  (n_min - 1) // 10^j; that test holds for every smaller j too.  Its
  digits are P / 10^j rounded half-even: the interval is symmetric about
  P, so the nearest multiple is in it, and it ends in no 0, else j + 1
  would pass too.  j = 17 would need 10^17 in the interval, so x below a
  power of ten that reads back as x; in the kernel's range the powers of
  ten are doubles (10^0..10^17) or round up (10^-5..10^-1), so j <= 16
  and the leading digit stays at 10^16.
* Fallback.  0.0, negatives, nan and infinities, powers of two (their gap
  below is half the gap above, so the interval is not symmetric), x below
  1e-6 or from 1e17 on (k outside 0..22), and x next to a power of ten
  whose log10 estimate of k misses [1e16, 1e17) are formatted by `repr`
  in one batch, at repr's cost per field.

Layout.  A field is 32 bytes, four little-endian uint64 words: a 24-byte
body (the longest repr is "-2.2250738585072014e-308"), then the exponent
("e-05") and the separator ("," or "\\r\\n"); NUL bytes pad it and are
deleted at the end.  The 17 digits come from a 4-digit lookup table.
repr's fixed form covers decimal exponents -4..15, the scientific form the
rest; per exponent, tables give the digits kept in place, the '.' or "0.0"
put before the rest, and the byte shift of the rest, so one pass of word
operations builds every body.

Measured in-process on one x86-64 core, `simulate --n 12 --steps 20000`
took 0.58-0.82 s when `str` of the chunk's Python lists formatted every
field and takes 0.24-0.36 s with this kernel; `--n 29 --steps 2500`, where
a quarter of the fields are below 1e-4 and 3 % below 1e-6, took
0.20-0.28 s and takes 0.05-0.12 s.  The CSV is byte-identical.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_POW10 = 10 ** np.arange(18, dtype=np.int64)
_POW10_F = 10.0 ** np.arange(23)
# Veltkamp's split of each 10^k into two 26-bit halves
_SPLITTER = 134217729.0  # 2^27 + 1
_POW10_HI = _POW10_F * _SPLITTER - (_POW10_F * _SPLITTER - _POW10_F)
_POW10_LO = _POW10_F - _POW10_HI
# half of 10^j as an integer and a fraction, for rounding P / 10^j
_HALF_WHOLE = _POW10 // 2
_HALF_FRAC = np.where(_POW10 == 1, 0.5, 0.0)

_EXPONENT = _U64(0x7FF << 52)
_MANTISSA = _U64((1 << 52) - 1)


def _words(text: bytes) -> list[int]:
    """text as little-endian uint64 words, NUL-padded."""
    text = text.ljust(-(-len(text) // 8) * 8, b"\0")
    return [int.from_bytes(text[i : i + 8], "little") for i in range(0, len(text), 8)]


# 4 ASCII digits of 0000..9999, first digit in the low byte
_QUAD = (
    (np.arange(10000)[:, None] // _POW10[3::-1] % 10 + ord("0")).astype(np.uint8).view("<u4")[:, 0]
).astype(_U64)
# mask of the first L bytes of a body, L = 0..24
_PREFIX = np.array([_words(b"\xff" * n + b"\0" * (24 - n)) for n in range(25)], _U64).T

# Per decimal exponent e10 = -6..16 (index e10 + 6): the body's digits kept
# in place (mask), the bytes put after them ('.' or "0." and zeros), the
# shift in bits of the remaining digits, the exponent word, and the body
# length as max(nd + _ADD, _LEAST) for nd digits.
_KEPT, _MARK, _SHIFT, _EXP, _ADD, _LEAST = [], [], [], [], [], []
for _e in range(-6, 17):
    if -4 <= _e < 0:  # 0.000ddd
        _lead, _mark, _exp = 0, b"0." + b"0" * (-_e - 1), b""
    else:  # ddd.ddd, or d.ddde-05
        _lead = _e + 1 if _e >= 0 and _e < 16 else 1
        _mark, _exp = b"\0" * _lead + b".", b"" if 0 <= _e < 16 else b"e%+03d" % _e
    _KEPT.append(_words(b"\xff" * _lead + b"\0" * (24 - _lead)))
    _MARK.append(_words(_mark.ljust(24, b"\0")))
    _SHIFT.append(8 * (len(_mark) - _lead))
    _EXP.append(_words(_exp.ljust(8, b"\0"))[0])
    _ADD.append(len(_mark) - _lead)
    _LEAST.append(_e + 3 if 0 <= _e < 16 else 0)
_KEPT, _MARK = np.array(_KEPT, _U64).T, np.array(_MARK, _U64).T
_SHIFT, _EXP = np.array(_SHIFT, _U64), np.array(_EXP, _U64)
_ADD, _LEAST = np.array(_ADD), np.array(_LEAST)
_COMMA, _CRLF = _U64(ord(",") << 32), _U64(int.from_bytes(b"\r\n", "little") << 32)


def _decimal(x: np.ndarray):
    """Repr's digits of a 1-d float64 array: (ok, c, nd, e10) with x read
    back from the nd-digit integer c as c 10^(e10 - nd + 1).  Where ok is
    False the values are placeholders and the caller falls back to repr."""
    ok = (x >= 1e-6) & (x < 1e17) & ((x.view(_U64) & _MANTISSA) != 0)
    x = np.where(ok, x, 1.5)
    bits = x.view(_U64)
    k = np.clip(16 - np.floor(np.log10(x)).astype(np.int64), 0, 22)
    t = np.take(_POW10_F, k)
    t_hi, t_lo = np.take(_POW10_HI, k), np.take(_POW10_LO, k)
    hi = x * t
    s = x * _SPLITTER
    x_hi = s - (s - x)
    x_lo = x - x_hi
    lo = ((x_hi * t_hi - hi) + x_hi * t_lo + x_lo * t_hi) + x_lo * t_lo
    ok &= ((hi > 1e16) | ((hi == 1e16) & (lo >= 0.0))) & (hi < 1e17)
    floor_lo = np.floor(lo)
    whole = hi.astype(np.int64) + floor_lo.astype(np.int64)
    frac = lo - floor_lo
    # 2^(E-1) from x's exponent bits, exact for x >= 1e-6
    h = t * ((bits & _EXPONENT) - _U64(53 << 52)).view(np.float64)
    h_floor = np.floor(h)
    h_whole, h_frac = h_floor.astype(np.int64), h - h_floor
    odd = (bits & _U64(1)).astype(bool)
    # the integers within H of P (strictly for an odd mantissa)
    h_frac_gap = 1.0 - h_frac
    n_max = whole + h_whole + ((frac > h_frac_gap) | ((frac == h_frac_gap) & ~odd))
    n_max -= (frac == 0.0) & (h_frac == 0.0) & odd
    n_min = whole - h_whole + ((frac > h_frac) | ((frac == h_frac) & odd))

    # the test holds for drop 1 and fails for drop 2 on most values, so
    # every value takes those two and only the rest go on
    below, top = n_min - 1, n_max
    j = (top // 10 > below // 10) + (top // 100 > below // 100).astype(np.int64)
    live = np.flatnonzero(ok & (j == 2))
    below, top = below[live], top[live]
    for drop in range(3, 17):
        p = int(_POW10[drop])
        more = top // p > below // p
        live = live[more]
        if not live.size:
            break
        j[live] = drop
        below, top = below[more], top[more]

    p = np.take(_POW10, j)
    q = whole // p
    r = whole - q * p
    half, half_frac = np.take(_HALF_WHOLE, j), np.take(_HALF_FRAC, j)
    tie = (r == half) & (frac == half_frac)
    q += (r > half) | ((r == half) & (frac > half_frac)) | (tie & ((q & 1) == 1))
    return ok, q, 17 - j, 16 - k


def _digit_words(c: np.ndarray, nd: np.ndarray) -> np.ndarray:
    """(3, ...) words of the nd-digit integers c, left-aligned in 17 ASCII
    digits padded with '0'."""
    c = (c * np.take(_POW10, 17 - nd)).astype(_U64)
    top = c // 10**16
    c -= top * _U64(10**16)
    g1 = c // 10**12
    c -= g1 * _U64(10**12)
    g2 = c // 10**8
    c -= g2 * _U64(10**8)
    g3 = c // 10**4
    q1, q2, q3, q4 = (np.take(_QUAD, g) for g in (g1, g2, g3, c - g3 * _U64(10**4)))
    # digit i is byte i: 1 + 4 + 3 | 1 + 4 + 3 | 1
    return np.stack([(top + _U64(48)) | q1 << 8 | q2 << 40, q2 >> 24 | q3 << 8 | q4 << 40, q4 >> 24])


def _csv_rows(first: int, block: np.ndarray, last: np.ndarray) -> bytes:
    """CSV lines "step,block[i, 0],...,block[i, m-1],last[i]\\r\\n" for
    steps first, first+1, ...: the step is str(int) and every float field
    repr(float(x)), byte for byte."""
    rows, m = block.shape
    values = np.empty((rows, m + 1))
    values[:, :m] = block
    values[:, m] = last
    values = values.ravel()
    ok, c, nd, e10 = _decimal(values)
    e = np.where(ok, e10 + 6, 6)
    digits = _digit_words(c, nd)
    kept = digits & np.take(_KEPT, e, axis=1)
    rest = digits ^ kept
    shift = np.take(_SHIFT, e)
    body = kept | np.take(_MARK, e, axis=1) | rest << shift
    body[1:] |= rest[:-1] >> (_U64(64) - shift)
    length = np.maximum(nd + np.take(_ADD, e), np.take(_LEAST, e))
    length -= (nd == 1) & (np.take(_EXP, e) != 0)  # d.e-05 is de-05
    body &= np.take(_PREFIX, length, axis=1)
    fallback = np.flatnonzero(~ok)
    if fallback.size:
        raw = np.array(list(map(repr, values[fallback].tolist())), dtype="S24")
        body[:, fallback] = raw.view("<u8").reshape(-1, 3).T

    out = np.empty((rows, m + 2, 4), "<u8")
    steps = np.arange(first, first + rows)
    step_nd = np.searchsorted(_POW10[1:], steps, side="right") + 1
    step = _digit_words(steps, step_nd) & np.take(_PREFIX, step_nd, axis=1)
    for w in range(3):
        out[:, 0, w] = step[w]
        out[:, 1:, w] = body[w].reshape(rows, m + 1)
    out[:, 0, 3] = _COMMA
    out[:, 1:, 3] = (np.take(_EXP, e) | _COMMA).reshape(rows, m + 1)
    out[:, -1, 3] ^= _COMMA ^ _CRLF
    return out.tobytes().translate(None, b"\0")
