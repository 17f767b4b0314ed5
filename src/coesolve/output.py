"""Deterministic text serialization for result files.

Both CSV and JSON writers format floats with %.17g so repeated runs of the
same configuration produce byte-identical files.  The JSON writer is a
small local emitter because the stdlib encoder hard-codes repr for floats.

``write_csv`` writes, value for value, the bytes of ``"%.17g" % x``.  One
pass over the bits first splits the columns: a column after the first whose
every value is +0.0, such as an ``im_u*`` column of a real run, is never
formatted.  The other, live columns (the first column, and columns of -0.0
or of both zeros, among them) are formatted in chunks of about 4096 values
with numpy; each run of +0.0 columns becomes fixed text, ",0" per column,
folded into the separator after the live value before it as a one-byte
placeholder that is expanded once the chunk's text is joined.  The digit
string shows the 17-digit integer D nearest to |x| 10^(16-e), where e is the
decimal exponent of the rounded value.  Per value:

- e starts at floor(log10|x|).
- y = |x| 10^k, k = 16 - e, is formed as the unevaluated sum p + t.  The
  table holds 10^k as hi + lo, both correctly rounded from Python ints;
  Dekker's product (Numer. Math. 18, 1971) splits |x| hi exactly into
  p + err, and t = err + |x| lo.  The error of p + t is a few units of
  2^-106 y, below 1e-13 for y < 10^17.
- p >= 2^53 is an integer, so D = p + rint(t) is the correctly rounded
  value unless the fraction of t lies within 1e-6 of 1/2 (a near-tie).
- D outside [10^16, 10^17], or D = 10^16 with y < 10^16, means e was off by
  one: that value is redone with e -/+ 1, at most four times.  D = 10^17 is a
  carry: D = 10^16 at e + 1.
- An exact zero has D = 0 at e = 0, which shows as "0", or "-0" with its
  sign bit.

Every intermediate is a normal double for 1e-280 <= |x| < 1e280.  Values
outside that range (subnormals included), nan, +-inf, near-ties, values
still unresolved after the retries, and values with D = 10^16 whose
comparison of y with 10^16 is within 1e-6 while 10^k is inexact are
formatted by ``"%.17g" % x`` one by one and spliced in before their
separator.  ``tests/test_output.py`` keeps the old row loop as the reference.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")  # also "nan" (for -nan too), "inf", "-inf"


# JSON escapes of the code points below U+0020; "\n" keeps its short form.
_CONTROL_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)}
_CONTROL_ESCAPES[ord("\n")] = "\\n"


def _json_emit(obj, parts):
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        if not escaped.isprintable():  # no control character is printable
            escaped = escaped.translate(_CONTROL_ESCAPES)
        parts.append(f'"{escaped}"')
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        if math.isfinite(obj):
            parts.append(fmt_float(obj))
        else:
            parts.append(f'"{fmt_float(obj)}"')
    elif isinstance(obj, complex):
        _json_emit([obj.real, obj.imag], parts)
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            _json_emit(str(k), parts)
            parts.append(": ")
            _json_emit(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(", ")
            _json_emit(v, parts)
        parts.append("]")
    else:
        try:
            _json_emit(obj.item(), parts)  # numpy scalars
        except AttributeError:
            raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json_text(obj) -> str:
    parts = []
    _json_emit(obj, parts)
    return "".join(parts) + "\n"


def write_json(path, obj):
    with open(path, "w", newline="") as fh:
        fh.write(to_json_text(obj))


def field_table(x, values, t=None):
    """Header and rows of sampled fields: [t,] x, then re_u{d}, im_u{d} per component.

    ``values`` has shape (n, dim) at the points ``x``, or is a sequence of
    len(t) such snapshots (a (len(t), n, dim) array too) with times ``t``;
    rows run over x fastest.  The table is filled in place, one block per
    snapshot: real (float64) values leave their im columns at +0.0 with no
    complex copy.
    """
    snapshots = [values] if t is None else values
    dim = np.shape(snapshots[0])[-1]
    header = ["x"] + [f"{part}_u{d}" for d in range(dim) for part in ("re", "im")]
    if t is not None:
        header.insert(0, "t")
    table = np.zeros((len(snapshots) * len(x), len(header)))
    blocks = table.reshape(-1, len(x), len(header))  # a view: one block per time
    if t is not None:
        blocks[:, :, 0] = np.asarray(t, dtype=float)[:, None]
    blocks[:, :, len(header) - 2 * dim - 1] = x
    for block, u in zip(blocks, snapshots):
        if np.iscomplexobj(u):  # re and im interleaved, as the columns are
            block[:, -2 * dim :] = np.ascontiguousarray(u, dtype=complex).view(float)
        else:
            block[:, -2 * dim :: 2] = u
    return header, table


# Values per formatting pass: bounds the temporaries to about 0.6 MB.
_CHUNK = 4096
# |x| range of the vectorized path, and the exponents its retries can reach.
_LO, _HI = 1e-280, 1e280
_EMIN, _EMAX = -282, 281
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_ALL = (1 << 64) - 1

# A value is built in one 32-byte row of four little-endian uint64 words:
#   byte 0 "-", bytes 1-5 "0.000", byte 7 the first digit d0,
#   bytes 8-24 the other 16 digits and the point, at its place,
#   bytes 25-29 "e+ddd", byte 30 the separator ("," or "\n").
# Each layout keeps a subset of these bytes, in order; a per-layout mask
# zeroes the rest and the zero bytes are then deleted.
_NEG, _FIX, _D0, _EXP, _SEP = 0, 1, 7, 25, 30
_ROW = 32
_PREFIX = int.from_bytes(b"-0.000", "little")  # bytes 0-5 of word 0
# Bytes that no formatted value holds ("%.17g" shows digits, ".", "-", "+",
# "e", "nan" and "inf"; the separators are "," and "\n"): each stands in, in
# a separator slot, for the text of one kind of zero-column run.
_PLACEHOLDERS = bytes(range(1, 10)) + bytes(range(11, 32)) + bytes(range(128, 256))


class _Tables(NamedTuple):
    pow10: np.ndarray  # (4, k): hi, hi's two Veltkamp halves, lo; k = 16 - e
    quads: np.ndarray  # ASCII of 0000..9999 in the low 4 bytes
    trailing: np.ndarray  # trailing zeros of 0000..9999 (4 for 0000)
    exps: np.ndarray  # "e+ddd" in bytes 1-5, per exponent
    point: np.ndarray  # (6, 18): masks that put "." after digit p - 1
    masks: np.ndarray  # (keys, 4): bytes kept per (layout, digits, sign)


def _kept_bytes(layout, sig, neg):
    """Bytes of a row shown for ``layout`` (0-20: fixed with e = layout - 4;
    21, 22: exponent of 2 or 3 digits), ``sig`` significant digits and sign."""
    keep = [_NEG] if neg else []
    if layout < 4:  # "0." then -e - 1 zeros, then the digits
        keep += [_FIX, _FIX + 1, *range(_FIX + 2, _FIX + 5 - layout), *range(_D0, _D0 + sig)]
    else:
        e = layout - 4 if layout < 21 else 0
        keep += range(_D0, _D0 + e + 1)
        if sig > e + 1:  # the point and the fraction digits
            keep += range(_D0 + e + 1, _D0 + sig + 1)
        if layout >= 21:
            keep += [_EXP, _EXP + 1, *([_EXP + 2] if layout == 22 else []), _EXP + 3, _EXP + 4]
    keep.append(_SEP)
    return keep


@functools.cache
def _tables() -> _Tables:
    """The formatter's lookup tables, built on first use."""
    pow10 = []
    for k in range(16 - _EMAX, 16 - _EMIN + 1):
        if k >= 0:
            hi = float(10**k)
            lo = float(10**k - int(hi))
        else:
            den = 10**-k
            hi = 1 / den
            num, pow2 = hi.as_integer_ratio()
            lo = (pow2 - num * den) / (pow2 * den)
        big = hi * _SPLIT
        big -= big - hi
        pow10.append((hi, big, hi - big, lo))
    q = np.arange(10000)
    quads = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1) + ord("0")
    trailing = sum(q % 10**i == 0 for i in range(1, 5))
    exps = [
        int.from_bytes(b"\0" + f"e{'-' if e < 0 else '+'}{abs(e):03d}".encode(), "little")
        for e in range(_EMIN, _EMAX + 1)
    ]
    # Words 1 and 2 hold the digit bytes 1-8 and 9-16.  With "." after digit
    # p - 1, per word: keep the bytes below it, put ".", take the rest from
    # the digits shifted up one byte.
    point = np.zeros((18, 6), np.uint64)
    for p in range(1, 18):
        for w, first in ((0, 1), (3, 9)):
            j = p - first
            if j < 0:
                point[p, w : w + 3] = (0, 0, _ALL)
            elif j < 8:
                below = (1 << 8 * j) - 1
                point[p, w : w + 3] = (below, ord(".") << 8 * j, _ALL ^ below ^ 0xFF << 8 * j)
            else:
                point[p, w : w + 3] = (_ALL, 0, 0)
    keys, kept = [], []
    for key, layout in enumerate(itertools.product(range(23), range(1, 18), range(2))):
        kept += _kept_bytes(*layout)
        keys += [key] * (len(kept) - len(keys))
    masks = np.zeros((23 * 17 * 2, _ROW), np.uint8)
    masks[keys, kept] = 0xFF
    tables = _Tables(
        np.array(pow10).T.copy(),
        quads.astype(np.uint8).view("<u4").ravel().astype(np.uint64),
        trailing.astype(np.int8),
        np.array(exps, np.uint64),
        point.T.copy(),
        masks.view("<u8").astype(np.uint64),
    )
    for array in tables:
        array.flags.writeable = False
    return tables


def _scaled(a, e, pow10):
    """|x| 10^(16 - e) as p + t, with p = fl(a hi) and t carrying the rest."""
    hi, hi_big, hi_small, lo = np.take(pow10, _EMAX - e, axis=1)
    a_big = a * _SPLIT
    a_big -= a_big - a
    a_small = a - a_big
    p = a * hi
    err = ((a_big * hi_big - p) + a_big * hi_small + a_small * hi_big) + a_small * hi_small
    return p, err + a * lo, lo


def _significands(a, pow10):
    """D, e and a certified flag for each 1e-280 <= a < 1e280."""
    e = np.floor(np.log10(a)).astype(np.int64)
    p, t, _ = _scaled(a, e, pow10)
    r = np.rint(t)
    d = p.astype(np.int64) + r.astype(np.int64)
    ok = np.abs(t - r) < 0.5 - 1e-6
    # D in (10^16, 10^17] needs no second look.
    redo = np.flatnonzero((d - (10**16 + 1)).view(np.uint64) >= 10**17 - 10**16)
    for _ in range(4):
        if not redo.size:
            break
        p, t, lo = _scaled(a[redo], e[redo], pow10)
        r = np.rint(t)
        d_redo = p.astype(np.int64) + r.astype(np.int64)
        # p - 1e16 is exact, so this has the sign of y - 10^16 unless it is
        # within the error of t.
        below = (p - 1e16) + t
        edge = d_redo == 10**16
        low = (d_redo < 10**16) | (edge & (below < 0))
        high = d_redo > 10**17
        d[redo] = d_redo
        ok[redo] = (np.abs(t - r) < 0.5 - 1e-6) & ~(edge & (np.abs(below) < 1e-6) & (lo != 0))
        e[redo] = np.clip(e[redo] + high - low, _EMIN + 1, _EMAX - 1)
        redo = redo[low | high]
    ok[redo] = False
    carry = d == 10**17
    d[carry] = 10**16
    e[carry] += 1
    return d, e, ok


def _digit_words(d, tab):
    """The leading digit of each D, its other 16 digits as ASCII bytes in
    two words, and its count of trailing zeros.  The digit groups are freed
    on return, before the row words are built beside the digit words."""
    # D = d0 q0 q1 q2 q3: a leading digit, then four 4-digit groups.
    d0 = d // 10**16
    rest = d - d0 * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    q0 = upper // 10**4
    q1 = upper - q0 * 10**4
    q2 = lower // 10**4
    q3 = lower - q2 * 10**4
    zeros = tab.trailing[q3]
    zeros = np.where(q3 == 0, 4 + tab.trailing[q2], zeros)
    zeros = np.where(lower == 0, 8 + tab.trailing[q1], zeros)
    zeros = np.where((lower == 0) & (q1 == 0), 12 + tab.trailing[q0], zeros)
    return d0, tab.quads[q0] | tab.quads[q1] << 32, tab.quads[q2] | tab.quads[q3] << 32, zeros


def _masked_rows(values, d, e, sep, tab):
    """Each value's row (layout above), masked down to the bytes it shows."""
    d0, digits1, digits2, zeros = _digit_words(d, tab)
    fixed = (e >= -4) & (e < 17)
    # "." goes after digit p - 1: p = 1 in exponent form, p = 17 (never
    # shown) for 0.000ddd.
    p = np.where(fixed, np.where(e < 0, 17, e + 1), 1)
    m = tab.point  # each mask is taken where it is used, so one is alive at a time
    row = np.empty((d.size, 4), np.uint64)
    row[:, 0] = (d0.view(np.uint64) + ord("0")) << 56 | _PREFIX
    row[:, 1] = digits1 & m[0][p] | m[1][p] | (digits1 << 8 | ord("0")) & m[2][p]
    row[:, 2] = digits2 & m[3][p] | m[4][p] | (digits2 << 8 | digits1 >> 56) & m[5][p]
    row[:, 3] = np.where(p == 17, np.uint64(ord(".")), digits2 >> 56) | tab.exps[e - _EMIN] | sep
    layout = np.where(fixed, e + 4, np.where((e <= -100) | (e >= 100), 22, 21))
    # Keys run as in _tables: layout, then 17 - zeros digits, then sign.
    key = (layout * 17 + 16 - zeros) * 2 + np.signbit(values)
    kept = np.take(tab.masks, key, axis=0)
    kept &= row
    return kept


def _format_values(values, sep):
    """The bytes of ``"%.17g" % v`` + separator for each value of ``values``.

    ``sep`` holds each value's separator byte shifted to byte 6 of a word.
    """
    tab = _tables()
    a = np.abs(values)
    in_range = (a >= _LO) & (a < _HI)
    zero = a == 0
    # 2.0 stands in for the rest: any value with D in (10^16, 10^17) avoids a retry.
    d, e, good = _significands(np.where(in_range, a, 2.0), tab.pow10)
    d[zero] = 0  # D = 0 at the stand-in's e = 0: "0", or "-0" with the sign bit
    kept = _masked_rows(values, d, e, sep, tab)
    bad = np.flatnonzero(~(good & in_range | zero))
    kept[bad] = 0
    kept[bad, 3] = sep[bad]  # the separator only
    text = kept.astype("<u8", copy=False).tobytes().translate(None, b"\0")
    if not bad.size:
        return text
    ends = np.cumsum(np.count_nonzero(kept.view(np.uint8), axis=1))
    pieces, start = [], 0
    for i in bad:
        end = int(ends[i]) - 1  # where this value's separator starts
        pieces += [text[start:end], b"%.17g" % values[i]]
        start = end
    pieces.append(text[start:])
    return b"".join(pieces)


def _row_plan(bits):
    """How the rows of a table, given by its bits, are written: the live
    columns, each live value's separator byte, and the (placeholder, text)
    pairs that expand those bytes.

    A +0.0 column after the first is never formatted.  The text after a
    live value is ",0" for each such column that follows it, then "," or,
    after a row's last live value, "\n".  The first column, columns of -0.0
    or of both zeros, and all columns if the runs outnumber the
    placeholders, stay live."""
    cols = bits.shape[1]
    plain = slice(None), b"," * (cols - 1) + b"\n", ()
    zero = np.bitwise_or.reduce(bits, axis=0) == 0
    zero[0] = False
    if not zero.any():
        return plain
    js = np.flatnonzero(~zero).tolist()
    texts = [b",0" * (end - j - 1) + b"," for j, end in zip(js, js[1:] + [cols])]
    texts[-1] = texts[-1][:-1] + b"\n"
    fills = sorted(set(texts) - {b",", b"\n"})
    if len(fills) > len(_PLACEHOLDERS):
        return plain
    code = {b",": ord(","), b"\n": ord("\n"), **dict(zip(fills, _PLACEHOLDERS))}
    seps = bytes(map(code.__getitem__, texts))
    return js, seps, [(bytes([code[text]]), text) for text in fills]


def _live_text(block, sep, fills):
    """The text of rows whose live values are ``block``, zero runs expanded."""
    text = _format_values(block.ravel(), sep[: block.size])
    for placeholder, fill in fills:
        text = text.replace(placeholder, fill)
    return text


def write_csv(path, header, table):
    """Write a 2-D float table under a fixed header, %.17g formatted."""
    table = np.asarray(table, dtype=float).reshape(len(table), len(header))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if not table.size:
            fh.write(b"\n" * len(table))
            return
        rows = len(table)
        live, seps, fills = _row_plan(table.view(np.uint64))
        step = max(1, _CHUNK // len(seps))  # rows per chunk of live values
        sep = np.frombuffer(seps * min(step, rows), np.uint8).astype(np.uint64)
        sep <<= 8 * (_SEP - 24)
        for start in range(0, rows, step):
            fh.write(_live_text(table[start : start + step, live], sep, fills))
