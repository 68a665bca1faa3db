"""Exact number text an array at a time.

:func:`records` lays out ``'%.9g' % v`` (CSV) or ``'%.3f' % v`` (SVG) for
every value of a float array as a fixed slot record with a keep mask, and
:func:`join` compacts records with one ``np.compress``.  ``%`` rounds
correctly (Gay's dtoa), and so does the kernel where that is provable:
``|v|`` times an exact ``10**k`` (``|k| <= 22``) takes one rounding, of
error at most ``2**-23`` below ``2**30``, so it rounds to the printed
digits when ``1e-6`` or more from a half.  Any other value (not finite,
zero under ``%.9g``, ``|k| > 22``, scaled outside ``[1e8 + 1, 1e9 - 0.5)``
under ``%.9g`` or beyond ``1e9 - 0.5`` under ``%.3f``, or near a tie) is
printed by ``%`` and spliced into its record: the text is ``%``'s.
"""

from __future__ import annotations

import numpy as np

GENERAL_FORMAT, FIXED_FORMAT = "%.9g", "%.3f"  # CSV and SVG; the tables below fix them: not settings
_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
_J = np.arange(9)
_EXPONENTS = np.arange(-14, 31)  # the decimal exponents x with |8 - x| <= 22
_DIGITS = np.arange(10_000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
_DIGITS = _DIGITS.astype(np.uint8)  # the four digits of 0..9999
# A record is four little-endian words: the sign, "0.", three zeros, d0 and a
# point; d1..d4 and d5..d8, each digit followed by a point; "e", the
# exponent's sign and two digits, the separator and three unused slots.
_LEAD = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), "<u8")
_QUAD = np.full((10_000, 8), ord("."), np.uint8)
_QUAD[:, ::2] = 48 + _DIGITS
_QUAD = _QUAD.view("<u8")[:, 0]
_EXPONENT = np.frombuffer(b"".join(b"e%+03d\0\0\0\0" % x for x in _EXPONENTS.tolist()), "<u8")
# zero digits at the end and at the start of each four-digit group
_TRAILING_ZEROS = np.logical_and.accumulate(_DIGITS[:, ::-1] == 0, axis=1).sum(1, dtype=np.uint8)
_LEADING_ZEROS = np.logical_and.accumulate(_DIGITS == 0, axis=1).sum(1, dtype=np.uint8)


def _keep_rows(neg, zeros, lo, hi, pos, expo):
    """Keep masks, a row per parameter row: the sign, "0." and ``zeros``
    zeros (neither if negative), digits ``lo..hi`` with a point after digit
    ``pos`` if a digit follows it, the exponent, the separator."""
    rows = np.zeros((neg.size, 32), bool)
    rows[:, 0], rows[:, 1:3], rows[:, 3:6] = neg.ravel(), zeros >= 0, zeros > _J[:3]
    rows[:, 6:24:2], rows[:, 7:24:2] = (lo <= _J) & (_J <= hi), (_J == pos) & (pos < hi)
    rows[:, 24:28], rows[:, 28] = expo, True
    return rows


def _general_keep():
    """``%.9g`` rows by (exponent, last nonzero digit, sign)."""
    x, last, neg = (u.reshape(-1, 1) for u in np.meshgrid(_EXPONENTS, _J, [0, 1], indexing="ij"))
    expo = (x < -4) | (x > 8)
    small = ~expo & (x < 0)
    hi, pos = np.where(expo | small, last, np.maximum(last, x)), np.where(expo, 0, np.where(small, -1, x))
    return _keep_rows(neg, np.where(small, -1 - x, -1), 0, hi, pos, expo)


_GENERAL_KEEP = _general_keep()
# %.3f rows by (first integer digit shown, sign)
_FIXED_KEEP = _keep_rows(np.tile([[0], [1]], (6, 1)), -1, np.repeat(np.arange(6), 2)[:, None], 8, 5, False)


def strings(texts, sep, width=0):
    """Records of ``texts`` (a list of str) in at least ``width`` slots,
    followed by the separator code ``sep``: codes and keep mask."""
    raw = [s.encode() for s in texts]
    width = max([width, *map(len, raw)])
    codes = np.frombuffer(b"".join(r.ljust(width) + bytes([sep]) for r in raw), np.uint8)
    keep = np.arange(width + 1) < np.array([len(r) for r in raw], dtype=np.intp).reshape(-1, 1)
    keep[:, -1] = True
    return codes.reshape(len(raw), width + 1), keep


def records(values, sep, fixed=False):
    """Records of ``'%.3f' % v`` if ``fixed``, else of ``'%.9g' % v``, for
    every ``v`` in ``values``, each followed by the separator code ``sep``
    (broadcast against ``values``): codes and keep mask, of shape
    ``values.shape + (width,)``."""
    v = np.asarray(values, dtype=float)
    a = np.abs(v)
    with np.errstate(all="ignore"):
        if fixed:
            y = a * 1e3
            fall = ~(y < 1e9 - 0.5)
        else:
            # the decimal exponent x; y is out of range where it is not |v|'s
            e = np.floor(np.log10(a, out=np.zeros_like(a), where=a > 0))
            x = np.clip(e, _EXPONENTS[0], _EXPONENTS[-1]).astype(np.intp)
            y = a * _POW10[np.maximum(8 - x, 0)] / _POW10[np.maximum(x - 8, 0)]
            fall = ~((y >= 1e8 + 1) & (y < 1e9 - 0.5))
        fall |= np.abs(y - np.floor(y) - 0.5) < 1e-6  # near a tie
    n = np.rint(np.where(fall, 1e8, y)).astype(np.intp)
    lead, high, low = n // 10**8, n // 10**4 % 10**4, n % 10**4
    words = np.empty(v.shape + (4,), "<u8")
    words[..., 0], words[..., 1], words[..., 2] = _LEAD[lead], _QUAD[high], _QUAD[low]
    words[..., 3] = np.asarray(sep, np.uint64) << np.uint64(32)
    if fixed:
        code = (lead == 0) * (1 + _LEADING_ZEROS[high])
    else:
        words[..., 3] |= _EXPONENT[x - _EXPONENTS[0]]
        code = (x - _EXPONENTS[0]) * 9 + 8 - _TRAILING_ZEROS[low] - (low == 0) * _TRAILING_ZEROS[high]
    codes = words.view(np.uint8)
    keep = np.take(_FIXED_KEEP if fixed else _GENERAL_KEEP, 2 * code + np.signbit(v), axis=0)
    texts = [(FIXED_FORMAT if fixed else GENERAL_FORMAT) % u for u in v[fall].tolist()]
    if texts:
        text_codes, text_keep = strings(texts, 0, 28)
        width = text_codes.shape[1] - 1
        if width > 28:  # a wider text widens every record before its last word
            codes, keep = (np.insert(r, [24] * (width - 28), 0, axis=-1) for r in (codes, keep))
        spliced = np.flatnonzero(fall)
        codes.reshape(-1, width + 4)[spliced, :width] = text_codes[:, :-1]
        keep.reshape(-1, width + 4)[spliced, :width] = text_keep[:, :-1]
    return codes, keep


def join(cells) -> str:
    """The text of ``(codes, keep)`` records laid side by side along their
    last axis, row by row."""
    if len(cells) > 1:
        cells = [tuple(np.concatenate(part, axis=-1) for part in zip(*cells))]
    (codes, keep), = cells
    return np.compress(keep.ravel(), codes.ravel()).tobytes().decode()
