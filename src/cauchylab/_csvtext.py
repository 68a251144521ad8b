"""CSV text of whole numpy columns: the bytes of '%.17g' % x and '%d' % i.

A table is formatted a block of rows at a time as an (n, width) byte
matrix: every field of a row has a fixed width, padded with NUL bytes, and
one boolean mask drops the padding.  A float64 column is written as the
exact text of '%.17g' % x without a Python call per value:

- the decimal exponent E is floor(log10|x|), corrected by a range test on
  the scaled value;
- the 17 significant digits are D = round(|x| 10^(16-E)), from a
  double-double product with an exact table of 10^s and an exact (Dekker)
  error term for the leading product;
- the digit bytes come from 4-digit lookup chunks of D, and the %g layout
  is one gather from per-(E, digit count) index templates.

Where D is kept, the scaled value |x| 10^s is below 1e17 + 1, hi + lo is
10^s to 2^-106 relative, and the two roundings left (of |x| lo, below 12,
and of the sum of the error terms, below 20) are each under 20 * 2^-53.
So the fraction of the scaled value is known to within 1e-14, and rounding
it to the nearest integer is decided unless the fraction lies within _TIE
of 1/2 (an exact tie being one case).  Those values, nan, +-inf and |x|
outside the table's range are written by '%.17g' % x into the same field.

The writers import this module when they first run, so its tables are
built then and not when ``cauchylab`` is imported.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_G17_WIDTH = 24  # longest '%.17g' text: -2.2250738585072014e-308
# decimal exponents of |x| on the fast path: in this range the split of |x|
# cannot overflow and every part of the table is a normal double
_E_MIN, _E_MAX = -290, 290
_TIE = 1e-12  # distance of the fraction from 1/2 left to '%.17g' % x
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter
# Rows per byte matrix.  A column of 8192 rows took about 720 page faults
# per call: its temporaries (the index matrix alone is 1.5 MB) went back to
# the system on every free and were faulted in again on the next call.
_BLOCK_ROWS = 4096


def _pow10_pair(s: int) -> tuple:
    """(hi, lo) with hi = fl(10^s) and lo = fl(10^s - hi), both correctly
    rounded from exact Python integers."""
    if s >= 0:
        hi = float(10 ** s)
        return hi, float(10 ** s - int(hi))
    den = 10 ** -s
    hi = 1 / den
    num, pow2 = hi.as_integer_ratio()
    return hi, (pow2 - num * den) / (pow2 * den)


def _word(text: bytes) -> np.uint32:
    return np.frombuffer(text, dtype=np.uint32)[0]


# Source row of the layout gather, as seven uint32 words: bytes 0-15 the
# digits after the first, 16 the first digit, 17 the sign, 18-19 '.e',
# 20-22 the three digits of |E|, 23 NUL, 24-26 '+-0'.  The word of bytes
# 16-19 is _WORD4 + first digit * _BYTE0 + sign * _BYTE1 in either byte
# order.
_SRC_WIDTH = 28
_DOT, _EXP, _NUL, _PLUS, _MINUS, _ZERO = 18, 19, 23, 24, 25, 26
_WORD4, _WORD6 = _word(b"\0\0.e"), _word(b"+-0\0")
_BYTE0, _BYTE1 = _word(b"\1\0\0\0"), _word(b"\0\1\0\0")
_ZERO_GROUP = 25


def _layout(group: int, k: int) -> list:
    """Source positions of the '%.17g' text of k significant digits in one
    layout group: 0-20 fixed notation with E = group - 4, 21-24 exponent
    notation (E >= 17 with 2 or 3 exponent digits, E < -4 with 2 or 3),
    _ZERO_GROUP a signed zero."""
    digit = [16] + list(range(16))
    pos = [17]
    if group == _ZERO_GROUP:
        pos.append(_ZERO)
    elif group <= 20:
        e = group - 4
        if e >= 0:
            pos += digit[:e + 1]
            if k > e + 1:
                pos += [_DOT] + digit[e + 1:k]
        else:
            pos += [_ZERO, _DOT] + [_ZERO] * (-e - 1) + digit[:k]
    else:
        pos.append(16)
        if k > 1:
            pos += [_DOT] + digit[1:k]
        three = group in (22, 24)
        pos += [_EXP, _PLUS if group <= 22 else _MINUS]
        pos += [20, 21, 22] if three else [21, 22]
    return pos + [_NUL] * (_G17_WIDTH - len(pos))


def _pow10_table() -> np.ndarray:
    """(4, S): hi = fl(10^s), its leading 26 bits hh, hl = hi - hh and
    lo = fl(10^s - hi), for s = 16 - E with E in [_E_MIN - 1, _E_MAX + 1]."""
    hi, lo = np.array([_pow10_pair(16 - e) for e in range(_E_MIN - 1, _E_MAX + 2)]).T
    mant, expo = np.frexp(hi)
    hh = np.ldexp(np.round(mant * 2.0 ** 26), expo - 26)
    return np.stack([hi, hh, hi - hh, lo])


def _digit_tables() -> tuple:
    """uint32 words of the 4 ASCII digits of 0..9999 and of the 3 ASCII
    digits of 0..999 and a NUL; the trailing zero digits of 0..9999 (4 for
    0)."""
    i = np.arange(10000)
    digits = (i[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    exp3 = np.zeros((1000, 4), dtype=np.uint8)
    exp3[:, :3] = digits[:1000, 1:]
    zeros = np.select([i == 0, i % 1000 == 0, i % 100 == 0, i % 10 == 0], [4, 3, 2, 1])
    return digits.view(np.uint32)[:, 0], exp3.view(np.uint32)[:, 0], zeros.astype(np.int32)


_POW10 = _pow10_table()
_CHUNK4, _EXP3, _ZEROS4 = _digit_tables()
_TEMPLATES = np.array([_layout(g, k) for g in range(26) for k in range(1, 18)],
                      dtype=np.intp)


def _round_scaled(a, e):
    """D = round(a 10^(16-e)) as int64, where that rounding is undecided,
    and where a 10^(16-e) < 10^16 - 1/20 (e too large)."""
    hi, hh, hl, lo = np.take(_POW10, e - (_E_MIN - 1), axis=1)
    p = a * hi
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    whole = np.floor(r)
    frac = r - whole
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    return d, np.abs(frac - 0.5) < _TIE, (p - 1e16) + r < -0.05


def _scaled_digits(a, e):
    """(D, E, undecided) for positive a from a guess e of E that may be one
    off either way: a rounds to D 10^(E-16) at 17 significant digits, with
    10^16 <= D < 10^17, unless undecided."""
    d, undecided, low = _round_scaled(a, e)
    redo = np.flatnonzero(low | (d > 10 ** 17))
    if redo.size:
        e[redo] += np.where(low[redo], -1, 1)
        d[redo], undecided[redo], low[redo] = _round_scaled(a[redo], e[redo])
        undecided[redo] |= low[redo] | (d[redo] > 10 ** 17)
    # a value that rounds up to 10^17 is 10^16 of the next decade
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    return d, e + carry, undecided


def _g17_digits(x):
    """(D, E, fallback) of a float64 column: |x| rounds to D 10^(E-16) at 17
    significant digits, 10^16 <= D < 10^17, and D = 0 for +-0.  Where
    fallback is set, D and E are not defined and '%.17g' % x writes the
    text."""
    a = np.abs(x)
    fast = (a >= 10.0 ** _E_MIN) & (a < 10.0 ** _E_MAX)
    a = np.where(fast, a, 1.0)  # keeps the arithmetic of the rest finite
    # log10 can be one off near powers of ten
    d, e, undecided = _scaled_digits(a, np.floor(np.log10(a)).astype(np.int64))
    zero = x == 0.0
    d[zero] = 0
    return d, e, ~(fast | zero) | undecided


def _g17_bytes(x) -> np.ndarray:
    """(n, 24) NUL-padded bytes of '%.17g' % v for each v of a float column."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    d, e, fallback = _g17_digits(x)
    lead = d // 10 ** 8
    d0 = (lead // 10 ** 8).astype(np.int32)
    high8 = (lead - d0 * 10 ** 8).astype(np.int32)
    low8 = (d - lead * 10 ** 8).astype(np.int32)
    chunks = []
    for part in (high8, low8):
        c = part // 10000
        chunks += [c, part - c * 10000]
    # trailing zero digits of D: it has 17 - tz significant digits
    tz = np.take(_ZEROS4, chunks[0])
    for c in chunks[1:]:
        tz = np.where(c == 0, tz + 4, np.take(_ZEROS4, c))

    src = np.empty((n, _SRC_WIDTH), dtype=np.uint8)
    words = src.view(np.uint32)
    for j, c in enumerate(chunks):
        words[:, j] = np.take(_CHUNK4, c)
    words[:, 4] = _WORD4 + (d0 + 48) * _BYTE0 + np.signbit(x) * (45 * _BYTE1)
    words[:, 5] = np.take(_EXP3, np.abs(e))
    words[:, 6] = _WORD6

    group = np.where((e >= -4) & (e <= 16), e + 4,
                     np.where(e < 0, 23, 21) + (np.abs(e) >= 100))
    group[d == 0] = _ZERO_GROUP
    # one flat gather: template positions plus each row's offset in src
    idx = np.take(_TEMPLATES, group * 17 + (16 - tz), axis=0)
    idx += np.arange(0, n * _SRC_WIDTH, _SRC_WIDTH)[:, None]
    out = np.take(src, idx)
    for i in np.flatnonzero(fallback):
        text = ("%.17g" % x[i]).encode()
        out[i] = np.frombuffer(text.ljust(_G17_WIDTH, b"\0"), dtype=np.uint8)
    return out


def _int_bytes(v) -> np.ndarray:
    """(n, w) NUL-padded bytes of '%d' % i for each i of an integer column."""
    v = np.asarray(v, dtype=np.int64)
    mag = v.astype(np.uint64)
    neg = v < 0
    mag[neg] = -mag[neg]
    width = len(str(int(mag.max()))) if v.size else 1
    out = np.zeros((v.size, width + 1), dtype=np.uint8)
    out[neg, 0] = 45
    rest = mag.copy()
    for j in range(width, 0, -1):
        out[:, j] = np.where(rest > 0, rest % 10 + 48, 0)
        rest //= 10
    out[mag == 0, width] = 48
    return out


def _text_bytes(text: str) -> np.ndarray:
    """The bytes of a literal field, which must be ASCII without NUL: NUL
    is the padding the block formatter drops."""
    if not text.isascii() or "\0" in text:
        raise DomainError(f"CSV literal {text!r} must be ASCII without NUL")
    return np.frombuffer(text.encode(), dtype=np.uint8)


def byte_matrix(fields) -> np.ndarray:
    """(n, width) uint8 matrix of n rows of text, NUL padded, one field
    after another: a str is literal text in every row, a float64 array is
    written as '%.17g' % v, an integer array as '%d' % i, and a 2-D uint8
    array (a matrix from an earlier call) as it is.  The arrays have one
    length n."""
    parts = []
    for f in fields:
        if isinstance(f, str):
            parts.append(_text_bytes(f))
        elif f.ndim == 2:
            parts.append(f)
        elif f.dtype.kind == "f":
            parts.append(_g17_bytes(f))
        else:
            parts.append(_int_bytes(f))
    n = next(p.shape[0] for p in parts if p.ndim == 2)
    out = np.empty((n, sum(p.shape[-1] for p in parts)), dtype=np.uint8)
    col = 0
    for p in parts:
        out[:, col:col + p.shape[-1]] = p
        col += p.shape[-1]
    return out


def csv_block(fields) -> str:
    """The text of n CSV rows, each followed by LF, from the fields of
    byte_matrix: the bytes of every row formatted by itself with '%.17g'
    and '%d'.  The rows go through byte_matrix _BLOCK_ROWS at a time."""
    n = next(len(f) for f in fields if not isinstance(f, str))
    text = []
    for i in range(0, n, _BLOCK_ROWS):
        m = byte_matrix([f if isinstance(f, str) else f[i:i + _BLOCK_ROWS]
                         for f in fields] + ["\n"])
        text.append(str(m[m != 0].data, "ascii"))
    return "".join(text)
