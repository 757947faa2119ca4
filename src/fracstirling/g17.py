"""The bytes of "%.17g" % v for every float64 v of an array, formatted as arrays.

`slots(values)` returns one row of SLOT bytes per value: its "%.17g" text
with NUL bytes among and after the characters, so a caller lays rows side by
side and deletes every NUL of the joined text at once.

Digits.  A value's 17 digits are round(|v| 10^k) with k = 16 - e and
e = floor(log10 |v|).  The product is a double-double: Dekker's exact
product of |v| and the float nearest 10^k (Numer. Math. 18, 1971), plus |v|
times that float's own error, so 10^k enters to 2^-106 relative.  Its integer
part N and fraction f then hold N + f within 5e-15 of the exact product
wherever N < 10^17: about 1.2e-15 each from the table's error and from
rounding |v| lo, and 2.1e-15 from adding that to Dekker's error term.  The
rounding edges are the half-integers, so wherever |f - 1/2| >= _MARGIN,
2e5 times that bound, the exact product rounds as N + f does: up where
f > 1/2.  Where 10^k is itself a float, 0 <= k <= 22 and the table's error
is 0, N + f is the exact product: it has at most 105 significant bits, the
last no finer than 2^-48 below 10^17, so f and each step forming it are exact.
There the arrays decide every rounding, a tie f = 1/2 to the even N.  N
splits into its top nine digits, by one int64 floor division, and its low
eight; both are below 2^31, so int32 arithmetic splits each further, and the
digits are read four at a time from a table of the 10 000 four-digit groups.

Layout.  A slot is a sign byte and 23 columns.  The digits sit unshifted
(d.ddd and ddd.ddd), shifted one column right of a point, or shifted five
right of "0.000"; three masks from a table indexed by the point's place and
the count of digits up to the last nonzero one pick each column's source, so
trailing zeros and a point left with no digit after it read NUL.  The lead
"0.000", the exponent "e+dd" and the sign come from a second table, indexed
by the exponent and the sign.

Fallback.  Python's "%" (`_fmt`) formats only nan, +-inf, +-0, |v| outside
(1e-250, 1e250), where the power table ends, a product with
|f - 1/2| < _MARGIN where 10^k is not a float (k < 0 or k > 22, so |v| below
1e-6 or from 1e17 up), which holds every exact tie there, and one whose
integer part N lies outside [10^16, 10^17 - 1): log10 rounded across an
integer, within an ulp or so of a power of ten, or N + f might round up to
10^17 and carry into the exponent.  N is tested before the round-up: 1e-248
has N = 9999999999999999, and rounded first it would read 10^16 and print as
1e-248 where "%" prints 9.9999999999999998e-249.
"""

from __future__ import annotations

import numpy as np

# bytes of a slot: the longest "%.17g" text, as -4.9406564584124654e-324
SLOT = 24

_fmt = "%.17g".__mod__

# the least distance of the fraction f from a tie at which the arrays decide
# the rounding; the error of N + f is below 5e-15
_MARGIN = 1e-9

# the decimal exponents e = floor(log10 |v|) of 1e-250 < |v| < 1e250, with
# one to spare at each end for log10's rounding
_E_LO, _E_HI = -251, 251


def _split(a):
    """Dekker's split of floats into halves of at most 26 bits that add up exactly."""
    c = 134217729.0 * a  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _power_table():
    """Per exponent e, (hi, lo, hi_h, hi_l): hi the float nearest 10^(16 - e), lo
    that nearest 10^(16 - e) - hi, and hi_h + hi_l == hi its Dekker split."""
    hi, lo = [], []
    for k in range(16 - _E_LO, 16 - _E_HI, -1):
        if k >= 0:
            d = 10**k
            h = float(d)
            lo.append(float(d - int(h)))
        else:  # int / int is the float nearest the quotient
            d = 10**-k
            h = 1 / d
            num, den = h.as_integer_ratio()
            lo.append((den - num * d) / (den * d))
        hi.append(h)
    hi = np.array(hi)
    return np.stack([hi, np.array(lo), *_split(hi)], axis=1)


def _exponent_table():
    """(point, text): per exponent e, the digit the point follows (17 for 0.000ddd),
    and per e and sign the slot bytes of the sign, the lead "0.000" or the exponent."""
    e = np.arange(_E_LO, _E_HI)
    small, exp = (-4 <= e) & (e < 0), (e < -4) | (e > 16)
    point = np.where(small, 17, np.where(exp, 0, e))
    text = np.zeros((e.size, 2, SLOT), np.uint8)
    text[:, 1, 0] = ord("-")
    # 0.000: "0", ".", then -e - 1 zeros
    lead = np.arange(5) < np.where(small, 1 - e, 0)[:, None]
    text[:, :, 1:6] = (np.frombuffer(b"0.000", np.uint8) * lead)[:, None]
    # e+dd or e+ddd: the hundreds digit is NUL below 100
    magnitude = np.abs(e)
    tail = np.stack([np.full(e.size, ord("e")), np.where(e < 0, ord("-"), ord("+")),
                     np.where(magnitude >= 100, 48 + magnitude // 100, 0),
                     48 + magnitude // 10 % 10, 48 + magnitude % 10], axis=1)
    text[:, :, 19:] = (tail * exp[:, None])[:, None]
    return point, text.reshape(-1, SLOT)


def _column_table():
    """(4, 18 * 18, SLOT) uint8: per point p and significant digit count s, the
    masks of the digit sources d.ddd, dd.ddd shifted past the point and
    0.000ddd, and the point itself."""
    p = np.arange(18)[:, None, None]
    s = np.arange(18)[None, :, None]
    c = np.arange(SLOT)[None, None, :] - 1  # the column after the sign
    fixed = p < 17
    table = np.zeros((4, 18, 18, SLOT), np.uint8)
    table[0] = 255 * (fixed & (0 <= c) & (c <= p))
    table[1] = 255 * (fixed & (p + 1 < c) & (c <= np.maximum(s, p + 1)))
    table[2] = 255 * (~fixed & (5 <= c) & (c < 5 + s))
    table[3] = 46 * (fixed & (c == p + 1) & (s > p + 1))
    return table.reshape(4, 18 * 18, SLOT)


def _digit_tables():
    """(words, significant): the 4-byte words of 0000 .. 9999, then "\0\0\0d" for
    a lead digit d and one of NULs; and per quad k of the 16 digits after the
    lead and per value q of it, the count of significant digits where q holds
    the last nonzero digit: 1 + 4k + that digit's place in q."""
    q = np.arange(10000, dtype=np.int16)
    words = np.zeros((10011, 4), np.uint8)
    words[:10000] = q[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + 48
    words[10000:10010, 3] = np.arange(48, 58)
    last = 4 - sum(q % np.int16(10**k) == 0 for k in (1, 2, 3))
    significant = np.where(q > 0, 1 + 4 * np.arange(4)[:, None] + last, 1).astype(np.uint8)
    return words.view(np.uint32).ravel(), significant


_POWERS = _power_table()
_POINT, _EXPONENT_TEXT = _exponent_table()
_MASK_FIXED, _MASK_SHIFTED, _MASK_SMALL, _DOT = _column_table()
_WORDS, _SIGNIFICANT = _digit_tables()
_LEAD_WORD, _NUL_WORD = 10000, 10010  # the indices in _WORDS of "\0\0\00" and of NULs


def slots(values) -> np.ndarray:
    """The "%.17g" text of each value of a float64 array, as (size, SLOT) uint8 rows.

    A row holds the ASCII bytes of the text in order, with NUL bytes among
    and after them; deleting the NULs leaves exactly `"%.17g" % v`.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    fast = (a > 1e-250) & (a < 1e250)
    a[~fast] = 1.0  # a placeholder log10 takes
    row = np.floor(np.log10(a)).astype(np.int64) - _E_LO
    hi, lo, hi_h, hi_l = _POWERS.take(row, axis=0).T
    # p + err == a hi exactly, and p + err + a lo == a 10^k to 2^-106 relative
    p = a * hi
    a_h, a_l = _split(a)
    err = ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l
    err += a * lo
    whole = np.floor(p)
    rest = (p - whole) + err
    below = np.floor(rest)
    n = whole.astype(np.int64) + below.astype(np.int64)  # the integer part N
    rest -= below  # the fraction f
    # N has 17 digits and rounds to 17 digits: below 10^17 - 1 it carries into
    # no exponent; f is exact where 10^k is, and else decides only off a tie
    fast &= (n >= 10**16) & (n < 10**17 - 1) & ((lo == 0.0) | (np.abs(rest - 0.5) >= _MARGIN))
    n[~fast] = 10**16  # any 17-digit number: "%" rewrites these rows
    n += (rest > 0.5) | ((rest == 0.5) & (n % 2 == 1))  # a tie, exact, to the even N

    # per value six words: NULs, the lead digit, then the 16 digits after it;
    # the top nine digits and the low eight are each below 2^31
    top = n // 10**8
    low = n.astype(np.int32)
    top = top.astype(np.int32)
    low -= top * np.int32(10**8)  # exact modulo 2^32, and so exact
    words = np.empty((v.size, 6), np.int32)
    words[:, 0] = _NUL_WORD
    lead, high = np.divmod(top, np.int32(10**8))
    words[:, 1] = lead + _LEAD_WORD
    np.divmod(high, np.int32(10**4), out=(words[:, 2], words[:, 3]))
    np.divmod(low, np.int32(10**4), out=(words[:, 4], words[:, 5]))
    significant = _SIGNIFICANT[0].take(words[:, 2])
    for k in (1, 2, 3):
        np.maximum(significant, _SIGNIFICANT[k].take(words[:, 2 + k]), out=significant)
    size = v.size * SLOT
    digits = np.zeros(size + 6, np.uint8)  # SLOT bytes a value: d0 at byte 7, d16 at 23
    _WORDS.take(words, out=digits[:size].view(np.uint32).reshape(-1, 6), mode="clip")
    # the digits as the slot places them: after the sign, one byte later (past
    # a point), and after the sign and "0.000"
    fixed, shifted, small = digits[6:size + 6], digits[5:size + 5], digits[1:size + 1]
    cls = _POINT.take(row) * 18 + significant
    out = _MASK_FIXED.take(cls, axis=0)
    out &= fixed.reshape(-1, SLOT)
    part = np.empty_like(out)
    for mask, source in ((_MASK_SHIFTED, shifted), (_MASK_SMALL, small)):
        mask.take(cls, axis=0, out=part, mode="clip")
        part &= source.reshape(-1, SLOT)
        out |= part
    out |= _DOT.take(cls, axis=0, out=part, mode="clip")
    out |= _EXPONENT_TEXT.take(2 * row + np.signbit(v), axis=0, out=part, mode="clip")
    slow = (~fast).nonzero()[0]
    if slow.size:
        texts = [_fmt(x) for x in v[slow].tolist()]
        out[slow] = np.array(texts, dtype=f"S{SLOT}").view(np.uint8).reshape(-1, SLOT)
    return out
