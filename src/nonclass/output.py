"""CSV files of grids and sweeps: every float as exact '%.17g' text, so the
bytes depend only on the values, written atomically through one writer.
"""

import os
import tempfile

import numpy as np


def _atomic_write(path, chunks):
    """Write an iterable of byte chunks to path through a temporary file.

    The file appears under its name only once every chunk is written; on
    any failure, the failure of the chunk iterable included, the
    temporary file is removed and path is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".nonclass-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


_g17 = "{:.17g}".format

# grid points encoded per block: a block's working arrays take about 400
# bytes a point, and numpy's per-call cost is spread over this many
# values (2^13 and 2^14 encode a 401^2 grid fastest, within 3%)
_BLOCK_POINTS = 1 << 13
# rows of _g17_columns: sign, "0.000", 17 digits with one decimal point,
# "e-308"
_G17_WIDTH = 29
_TEN16 = 10**16
_TEN_POWERS = 10.0 ** np.arange(8, -1, -1)[:, None]  # 10^8 .. 10^0, a column


def _pow10_pairs(first, last):
    """(hi, lo) with hi + lo = 10**e to about 2^-106 relative, for e = first..last.

    hi is 10**e correctly rounded and lo the correctly rounded remainder,
    both from exact integer quotients (CPython rounds int / int
    correctly).
    """
    hi = np.empty(last - first + 1)
    lo = np.empty(last - first + 1)
    for i, e in enumerate(range(first, last + 1)):
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        hi[i] = num / den
        h_num, h_den = hi[i].as_integer_ratio()
        lo[i] = (num * h_den - h_num * den) / (den * h_den)
    return hi, lo


# 10^(16-k) for every k = floor(log10 |v|) of the range 1e-280 <= |v| <= 1e280
# that _g17_columns converts itself (log10 is exact at both ends), built once
_POW10_FIRST = 16 - 280
_POW10_HI, _POW10_LO = _pow10_pairs(_POW10_FIRST, 16 + 280)


def _split(a):
    """Dekker's split of a into two halves of at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """(p, err) with p = fl(a b) and p + err = a b exactly (Dekker 1971)."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, err


def _digits(sig):
    """The 17 decimal digits of each 0 <= sig < 10^17, as a (17, n) uint8 matrix."""
    digits = np.empty((17, sig.size), dtype=np.uint8)
    upper, lower = np.divmod(sig, 10**8)
    for half, rows in ((upper, digits[:9]), (lower, digits[9:])):
        # floor(m / 10^j), exact in float64 for integers m < 10^9, reads
        # the leading digits of m as numbers
        prefixes = np.floor(half / _TEN_POWERS[-len(rows):])
        prefixes[1:] -= 10.0 * prefixes[:-1]
        rows[...] = prefixes
    return digits


def _g17_columns(values):
    """'%.17g' % v for each v of a float64 array, as a (_G17_WIDTH, n) uint8 matrix.

    Column i holds the bytes of the text of v[i] in order, with 0 bytes
    between and after them; keeping its non-zero bytes gives exactly
    ('%.17g' % v[i]).encode().

    For 1e-280 <= |v| <= 1e280, with k = floor(log10 |v|), the 17-digit
    significand is D = rint(S), S = |v| 10^(16-k).  S is p + t: p, err
    from Dekker's exact product of |v| by hi, and t = err + |v| lo with
    hi + lo = 10^(16-k).  The error of t is under 5e-15 absolute for
    S < 2e17: about 2^-53 * 11 from rounding |v| lo, 2^-53 * 16 from the
    sum, and 2^-106 S from truncating 10^(16-k) to (hi, lo).  p is an
    integer (S > 2^53), so D = p + rint(t), and D is the correctly rounded
    significand unless frac(S) lies within that error of 1/2.  The
    reference conversion (Gay, AT&T Numerical Analysis Manuscript 90-10,
    1990) formats, one at a time, every value this cannot prove: 0, inf,
    nan and |v| outside the range; |frac(S) - 1/2| < 1e-9, a possible tie;
    and D outside the open interval (10^16, 10^17), where the log10
    estimate of k may be off by one or the digits may carry to the next
    power of ten.  Only values within half a unit in the 17th digit of a
    power of ten have D = 10^16 or 10^17.
    """
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    index = 16 - k - _POW10_FIRST
    hi, lo = _POW10_HI[index], _POW10_LO[index]
    p, err = _two_product(a, hi)
    t = err + a * lo
    t_int = np.rint(t)
    frac = t - t_int
    sig = p.astype(np.int64) + t_int.astype(np.int64)
    fast &= (np.abs(np.abs(frac) - 0.5) >= 1e-9) & (sig > _TEN16) & (sig < 10 * _TEN16)
    sig = np.where(fast, sig, _TEN16)  # placeholder digits, overwritten below

    # '%.17g' is fixed-point for exponents -4..16: the integer part ends at
    # digit last_int (0 in exponent form), and the point follows it when a
    # non-zero digit does; trailing zeros are dropped
    digits = _digits(sig)
    fixed = (k >= -4) & (k <= 16)
    below_one = fixed & (k < 0)
    last_int = np.where(fixed, np.maximum(k, 0), 0)
    row = np.arange(18, dtype=np.uint8)[:, None]
    last_nonzero = np.max((digits != 0) * row[:17], axis=0)
    text = np.zeros((18, v.size), dtype=np.uint8)
    text[:17] = (row[:17] <= np.maximum(last_nonzero, last_int)) * (digits + ord("0"))
    has_point = (last_nonzero > last_int) & ~below_one
    point_row = last_int + 1
    text[1:] = np.where((row[1:] > point_row) & has_point, text[:17], text[1:])
    text[point_row[has_point], np.flatnonzero(has_point)] = ord(".")

    out = np.zeros((_G17_WIDTH, v.size), dtype=np.uint8)
    out[0] = np.signbit(v) * ord("-")
    out[1] = below_one * ord("0")
    out[2] = below_one * ord(".")
    out[3:6] = (row[:3] < -1 - k) * below_one * ord("0")
    out[6:24] = text
    sci = ~fixed
    mag = np.abs(k)
    out[24] = sci * ord("e")
    out[25] = sci * np.where(k < 0, ord("-"), ord("+"))
    out[26] = (sci & (mag >= 100)) * (mag // 100 + ord("0"))
    out[27] = sci * (mag // 10 % 10 + ord("0"))
    out[28] = sci * (mag % 10 + ord("0"))

    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = np.array([b"%.17g" % x for x in v[slow].tolist()], dtype=f"S{_G17_WIDTH}")
        out[:, slow] = texts.view(np.uint8).reshape(-1, _G17_WIDTH).T
    return out


def _text_field(texts):
    """ASCII strings as a zero-padded uint8 matrix, one row per string."""
    raw = np.array([s.encode() for s in texts], dtype=bytes)
    return raw.view(np.uint8).reshape(len(texts), raw.itemsize)


def _grid_csv_chunks(grid):
    """The grid as CSV bytes, "x,y,value" then one line per point, y slowest.

    Every number is '%.17g' text.  Rows of the grid are encoded a block
    of about _BLOCK_POINTS points at a time, each block one byte chunk.
    """
    yield b"x,y,value\n"
    res = grid.resolution
    x_field = _text_field([_g17(x) for x in grid.x_centers().tolist()])
    y_field = _text_field([_g17(y) for y in grid.y_centers().tolist()])
    wx, wy = x_field.shape[1], y_field.shape[1]
    value_at = wx + wy + 2
    width = value_at + _G17_WIDTH + 1
    rows_per_block = max(1, _BLOCK_POINTS // res)
    for start in range(0, res, rows_per_block):
        stop = min(start + rows_per_block, res)
        line = np.zeros((stop - start, res, width), dtype=np.uint8)
        line[:, :, :wx] = x_field
        line[:, :, wx] = ord(",")
        line[:, :, wx + 1 : value_at - 1] = y_field[start:stop, None, :]
        line[:, :, value_at - 1] = ord(",")
        values = _g17_columns(grid.values[start:stop]).reshape(_G17_WIDTH, stop - start, res)
        line[:, :, value_at:-1] = values.transpose(1, 2, 0)
        line[:, :, -1] = ord("\n")
        yield line[line != 0].tobytes()


def write_grid(path, grid):
    """Write a QGrid to path as CSV: "x,y,value", then one line per point, y slowest."""
    _atomic_write(path, _grid_csv_chunks(grid))


def write_sweep(path, rows):
    """Write sweep rows (x, p, dq_analytic, dq_numeric) as CSV; a None dq_numeric is empty."""
    lines = ["x,p,dq_analytic,dq_numeric"]
    for x, p, analytic_dq, numeric_dq in rows:
        tail = _g17(numeric_dq) if numeric_dq is not None else ""
        lines.append(f"{_g17(x)},{p},{_g17(analytic_dq)},{tail}")
    _atomic_write(path, [("\n".join(lines) + "\n").encode()])
