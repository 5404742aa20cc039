"""CSV rows of floats as numpy bytes, each field equal to `repr(float(x))`.

`simulate` writes a trajectory of m densities by k steps; at n = 12 with
20000 steps that is 580k floats, and `repr` of each was three quarters of
the command.  `Workspace.csv_rows` makes the same bytes with whole-array
numpy operations, about a hundred and thirty per chunk of rows.

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
  g / 2 >= 2^-53 in [0, 1), are doubles: lo - floor(lo) and H - floor(H)
  are exact, and 2^53 times each is an integer F or G below 2^53.
* Interval.  The integers that read back as x once scaled form [n_min,
  n_max], with n_max = floor(P) + floor(H) + ((F + G - odd) >> 53) and
  n_min - 1 = floor(P) - floor(H) + ((F - G + odd - 1) >> 53) for the
  mantissa's last bit odd: the shift floors a sum over 2^53, and odd makes
  both ends exclusive.  Every float reads back from 17 digits, so round(P)
  is in the interval.  Repr has 17 - j digits for the largest j such that
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

Layout.  A field's slot is 24 bytes, three little-endian uint64 words: the
body (at most 22 bytes, "0.00012345678901234567"), the exponent ("e-05")
at bytes 18-21, where a body with an exponent has at most 18, and the
separator ("," or "\\r\\n") at bytes 22-23.  NUL bytes pad it and are
deleted at the end by `bytes.translate`, which took 75 us for a chunk
of n = 12's shape against 154 us for `np.compress` into a reused buffer.
The 17 digits come as bytes 0-9 from a 4-digit lookup table.  repr's
fixed form covers decimal exponents -4..15, the scientific form the rest;
per exponent and digit count, a table gives the digits kept in place, the
shift of the rest past the '.' or "0.000", and the bytes ORed in: '0' over
every digit position of the body, the mark, the exponent and ','.  So one
pass of word operations builds every body.  The step is formatted by
b"%d".  A fallback repr of 23 or 24 bytes (negatives, and |x| < 1e-99 or
|x| >= 1e100 at 16-17 digits; `simulate` writes none) would overrun the
separator: its slot holds the byte 1, which no CSV byte is, and the
compacted bytes are split at those marks and joined with the reprs, so
every other field of its chunk still comes from the kernel.  Four-word
slots would hold every repr, but with a third more bytes to compact an
n = 12 chunk took 1-11 % longer (median 4 %, 16 alternating runs).

Workspace.  Every array a chunk is formatted in belongs to a `Workspace`,
allocated once per command for the longest chunk; a shorter one works in
views of it.  A chunk allocates only the few values left after the first
two digit tests, the repr batch, and its bytes.  Before, each chunk
allocated and freed about 1 MB of temporaries at n = 12.

Measured in-process on one x86-64 core, `simulate --n 12 --steps 20000`
took 0.58-0.82 s when `str` of the chunk's Python lists formatted every
field.  Quartiles of 64 runs alternating with the kernel before the
workspace (four-word slots, temporaries allocated per call): it took
0.133-0.148 s and takes 0.105-0.110 s, the kernel's share falling from
79 % to 73 %; `--n 29 --steps 2500`, where a quarter of the fields are
below 1e-4 and 3 % below 1e-6, took 0.041-0.050 s and takes
0.032-0.036 s.  The CSV is byte-identical.
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
# half of 10^j as an integer and as 2^53 times a fraction, for rounding P / 10^j
_HALF_WHOLE = _POW10 // 2
_HALF_FRAC = np.where(_POW10 == 1, 1 << 52, 0)

_EXPONENT = _U64(0x7FF << 52)
_MANTISSA = _U64((1 << 52) - 1)
# 1e-6 <= x < 1e17 as one unsigned comparison of x's bits: 0.0 lies below
# 1e-6's bits, and negatives, nan and infinities above 1e17's
_LEAST = np.array(1e-6).view(_U64)[()]
_SPAN = np.array(1e17).view(_U64)[()] - _LEAST


def _words(text: bytes) -> list[int]:
    """text as little-endian uint64 words, NUL-padded."""
    text = text.ljust(-(-len(text) // 8) * 8, b"\0")
    return [int.from_bytes(text[i : i + 8], "little") for i in range(0, len(text), 8)]


# the digits of 0000..9999 as 4 bytes 0-9, the first in the low byte
_QUAD = (
    (np.arange(10000)[:, None] // _POW10[3::-1] % 10).astype(np.uint8).view("<u4")[:, 0]
).astype(_U64)

# Per decimal exponent e10 = -6..16 and digit count nd = 0..17, row
# 18 (e10 + 6) + nd: the mask of the digits kept in place and the bytes
# ORed into the slot (three words each), the shift in bits of the other
# digits, and 64 minus it.
_LAYOUT = []
for _e in range(-6, 17):
    if -4 <= _e < 0:  # 0.000ddd
        _lead, _mark, _exp = 0, b"0." + b"0" * (-_e - 1), b""
    else:  # ddd.ddd, or d.ddde-05
        _lead = _e + 1 if 0 <= _e < 16 else 1
        _mark, _exp = b"0" * _lead + b".", b"" if 0 <= _e < 16 else b"e%+03d" % _e
    _shift = len(_mark) - _lead
    for _nd in range(18):
        _length = max(_nd + _shift, _e + 3 if 0 <= _e < 16 else 0) - (_nd == 1 and _exp != b"")
        _body = (_mark + b"0" * 17)[:_length].ljust(18, b"\0") + _exp
        _LAYOUT.append(
            _words(b"\xff" * _lead + b"\0" * (24 - _lead))
            + _words(_body.ljust(22, b"\0") + b",\0")
            + [8 * _shift, 64 - 8 * _shift]
        )
_LAYOUT = np.array(_LAYOUT, _U64)
_COMMA, _CRLF = _U64(ord(",") << 48), _U64(int.from_bytes(b"\r\n", "little") << 48)


class Workspace:
    """The arrays that chunks of up to `rows` rows of m floats and a
    distance are formatted in, allocated once; a shorter chunk works in
    views of them."""

    def __init__(self, rows: int, m: int):
        size = rows * (m + 1)
        # _decimal's
        self.floats = np.empty((8, size))
        self.ints = np.empty((9, size), np.int64)
        self.flags = np.empty((3, size), bool)
        # csv_rows's
        self.values = np.empty(size)
        self.digits = np.empty((4, size), np.int64)
        # flat, so that a shorter chunk's (2, 2, size) view is contiguous:
        # take() copies strided indices and output
        self.groups = np.empty(4 * size, np.int64)
        self.quads = np.empty(4 * size, _U64)
        self.layout = np.empty((size, _LAYOUT.shape[1]), _U64)
        self.words = np.empty((3, size), _U64)
        self.slots = np.empty((rows, m + 2, 3), _U64)

    def csv_rows(self, first: int, block: np.ndarray, last: np.ndarray) -> bytes:
        """CSV lines "step,block[i, 0],...,block[i, m-1],last[i]\\r\\n"
        for steps first, first+1, ...: the step is str(int) and every float
        field repr(float(x)), byte for byte."""
        rows, m = block.shape
        size = rows * (m + 1)
        values = self.values[:size]
        values.reshape(rows, m + 1)[:, :m] = block
        values.reshape(rows, m + 1)[:, m] = last
        ok, q, nd, e10 = _decimal(values, self)
        bad = self.flags[1, :size]
        np.logical_not(ok, out=bad)
        fallback = bad.nonzero()[0]

        index, lead, c, product = self.digits[:, :size]
        np.multiply(e10, 18, out=index)
        index += nd
        index += 6 * 18
        layout = self.layout[:size]
        _LAYOUT.take(index, axis=0, out=layout, mode="clip")
        # c = q 10^(17 - nd), the digits left-aligned in 17: a lead digit
        # and two groups of 8, each a high and a low quad
        np.subtract(17, nd, out=index)
        _POW10.take(index, out=c, mode="clip")
        c *= q
        np.floor_divide(c, 10**16, out=lead)
        np.multiply(lead, 10**16, out=product)
        c -= product
        groups = self.groups[: 4 * size].reshape(2, 2, size)
        high, low = groups[:, 0], groups[:, 1]
        np.floor_divide(c, 10**8, out=low[0])
        np.multiply(low[0], 10**8, out=product)
        np.subtract(c, product, out=low[1])
        np.floor_divide(low, 10**4, out=high)
        spare = self.digits[2:, :size]  # c and product, free now
        np.multiply(high, 10**4, out=spare)
        low -= spare
        quads = self.quads[: 4 * size].reshape(2, 2, size)
        _QUAD.take(groups, out=quads, mode="clip")
        quads[:, 1] <<= _U64(32)
        eights = quads[:, 0]
        eights |= quads[:, 1]
        # digit i is byte i: 1 + 7 | 1 + 7 | 1
        words = self.words[:, :size]
        np.right_shift(eights, _U64(56), out=words[1:])
        eights <<= _U64(8)
        np.copyto(words[0], lead, casting="unsafe")
        words[:2] |= eights

        # each body word: its kept digits, its other digits shifted up past
        # the mark, and the digits the word before pushed out, ORed with
        # the layout's bytes into the slots
        keep, fix = layout[:, 0:3].T, layout[:, 3:6].T
        shift, back = layout[:, 6], layout[:, 7]
        body, spill = quads[:, 1]
        slots = self.slots[:rows]
        for w in range(3):
            np.bitwise_and(words[w], keep[w], out=body)
            words[w] ^= body
            np.left_shift(words[w], shift, out=spill)
            body |= spill
            if w:
                np.right_shift(words[w - 1], back, out=spill)
                body |= spill
            body |= fix[w]
            # a ufunc writing the strided slots would buffer the whole word
            np.copyto(slots[:, 1:, w], body.reshape(rows, m + 1))
        reprs = [repr(v).encode() for v in values[fallback].tolist()]
        # a repr of 23 or 24 bytes leaves no room for the separator: its
        # slot holds the mark b"\1" instead, replaced once the NULs are gone
        spilled = [r for r in reprs if len(r) > 22]
        if reprs:
            raw = np.array([r if len(r) <= 22 else b"\1" for r in reprs], "S24")
            raw = raw.view(_U64).reshape(-1, 3)
            raw[:, 2] |= _COMMA
            row, column = np.divmod(fallback, m + 1)
            slots[row, column + 1] = raw
        slots[:, 0].view("S24")[:, 0] = [b"%d," % step for step in range(first, first + rows)]
        slots[:, -1, 2] ^= _COMMA ^ _CRLF
        text = slots.tobytes().translate(None, b"\0")
        if spilled:
            pieces = text.split(b"\1")
            text = b"".join([part for pair in zip(pieces, spilled) for part in pair] + pieces[-1:])
        return text


def _decimal(x: np.ndarray, ws: Workspace):
    """Repr's digits of a 1-d float64 array: (ok, c, nd, e10) with x read
    back from the nd-digit integer c as c 10^(e10 - nd + 1).  Where ok is
    False the values are placeholders and the caller falls back to repr.
    The arrays are views of the workspace `ws`."""
    size = len(x)
    xs, t, hi, lo, a, b, t_hi, t_lo = ws.floats[:, :size]
    k, whole, frac, h_whole, h_frac, odd, top, below, j = ws.ints[:, :size]
    ok, flag, more = ws.flags[:, :size]
    bits, word = xs.view(_U64), odd.view(_U64)

    np.subtract(x.view(_U64), _LEAST, out=word)
    np.less(word, _SPAN, out=ok)
    np.bitwise_and(x.view(_U64), _MANTISSA, out=word)
    np.not_equal(word, 0, out=flag)
    ok &= flag
    # placeholders in [1e-6, 1e17] where x is outside, nan included
    np.fmax(x, 1e-6, out=xs)
    np.fmin(xs, 1e17, out=xs)
    np.log10(xs, out=a)
    np.floor(a, out=a)
    np.subtract(16.0, a, out=a)
    np.maximum(a, 0.0, out=a)
    np.minimum(a, 22.0, out=a)
    np.copyto(k, a, casting="unsafe")
    _POW10_F.take(k, out=t, mode="clip")
    _POW10_HI.take(k, out=t_hi, mode="clip")
    _POW10_LO.take(k, out=t_lo, mode="clip")
    np.multiply(xs, t, out=hi)
    np.multiply(xs, _SPLITTER, out=a)
    np.subtract(a, xs, out=b)
    a -= b  # x_hi
    np.subtract(xs, a, out=b)  # x_lo
    # lo = ((x_hi t_hi - hi) + x_hi t_lo + x_lo t_hi) + x_lo t_lo
    np.multiply(a, t_hi, out=lo)
    lo -= hi
    a *= t_lo
    lo += a
    t_hi *= b
    lo += t_hi
    b *= t_lo
    lo += b
    # P >= 1e16 as (hi - 1e16) + lo >= 0: the difference is exact where hi
    # is within a factor 2 of 1e16 (Sterbenz) and outweighs lo elsewhere
    np.subtract(hi, 1e16, out=a)
    a += lo
    np.greater_equal(a, 0.0, out=flag)
    ok &= flag
    np.less(hi, 1e17, out=flag)
    ok &= flag
    # floor(P), and F from P's fraction
    np.floor(lo, out=a)
    lo -= a
    lo *= 2.0**53
    np.copyto(frac, lo, casting="unsafe")
    np.copyto(whole, hi, casting="unsafe")
    np.copyto(top, a, casting="unsafe")
    whole += top
    # H = 2^(E-1) 10^k from x's exponent bits, exact for x >= 1e-6; floor(H),
    # and G from H's fraction
    np.bitwise_and(bits, _EXPONENT, out=word)
    word -= _U64(53 << 52)
    np.multiply(t, word.view(np.float64), out=a)
    np.floor(a, out=b)
    np.copyto(h_whole, b, casting="unsafe")
    a -= b
    a *= 2.0**53
    np.copyto(h_frac, a, casting="unsafe")
    np.bitwise_and(bits, _U64(1), out=word)
    # top = n_max and below = n_min - 1
    np.add(frac, h_frac, out=top)
    top -= odd
    top >>= 53
    top += whole
    top += h_whole
    np.subtract(frac, h_frac, out=below)
    below += odd
    below -= 1
    below >>= 53
    below += whole
    below -= h_whole

    # the test holds for drop 1 and fails for drop 2 on most values, so
    # every value takes those two and only the rest go on
    np.floor_divide(top, 10, out=h_whole)
    np.floor_divide(below, 10, out=h_frac)
    np.greater(h_whole, h_frac, out=flag)
    np.floor_divide(top, 100, out=h_whole)
    np.floor_divide(below, 100, out=h_frac)
    np.greater(h_whole, h_frac, out=more)
    np.copyto(j, flag)
    np.copyto(h_whole, more)
    j += h_whole
    more &= ok
    live = more.nonzero()[0]
    low, high = below[live], top[live]
    for drop in range(3, 17):
        p = int(_POW10[drop])
        step = high // p > low // p
        live = live[step]
        if not live.size:
            break
        j[live] = drop
        low, high = low[step], high[step]

    # P / 10^j rounded half-even: q, with r = whole - q 10^j
    p, q, r, half, half_frac = top, below, h_whole, h_frac, odd
    _POW10.take(j, out=p, mode="clip")
    np.floor_divide(whole, p, out=q)
    np.multiply(q, p, out=r)
    np.subtract(whole, r, out=r)
    _HALF_WHOLE.take(j, out=half, mode="clip")
    _HALF_FRAC.take(j, out=half_frac, mode="clip")
    # up when r > half, or r == half and F > half_frac, or both equal and q
    # is odd: F + (q & 1) > half_frac holds for the last two
    np.bitwise_and(q, 1, out=p)
    p += frac
    np.greater(p, half_frac, out=flag)
    np.equal(r, half, out=more)
    flag &= more
    np.greater(r, half, out=more)
    flag |= more
    np.copyto(p, flag)
    q += p
    np.subtract(17, j, out=j)
    np.subtract(16, k, out=k)
    return ok, q, j, k

