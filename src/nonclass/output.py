"""CSV files of grids and sweeps: every float as exact '%.17g' text, so the
bytes depend only on the values, written atomically through one writer.

Grid values are encoded a block at a time by _g17_rows, which proves each
17-digit significand in float arithmetic and reads the text from tables
of heads, 4-digit quads and exponents, one 32-byte row per value.  Values
it cannot prove, |v| >= 1 among them, go through '%.17g' one at a time.
"""

import os

import numpy as np


def _atomic_write(path, chunks):
    """Write an iterable of byte chunks to path through a temporary file.

    The file appears under its name only once every chunk is written; on
    any failure, the failure of the chunk iterable included, the
    temporary file is removed and path is left as it was.  The file gets
    the mode open(path, "wb") gives a new one, 0o666 less the umask
    (tempfile.mkstemp would make it 0o600).
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".nonclass-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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

# grid points encoded per block: a block's working arrays take about 390
# bytes a point, so 2^12 points fit a 2 MB L2 cache; on 401^2 grids 2^12
# encodes 18% faster than 2^13 and 2% faster than 2^11 (2-core x86-64 VM)
_BLOCK_POINTS = 1 << 12
_ROW = 32  # bytes of a _g17_rows row: head, four quads, exponent
_TEN16 = 10**16


def _split(a):
    """Dekker's split of a into two halves of at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _ascii_table(texts, dtype):
    """ASCII strings as integers of dtype whose bytes are the NUL-padded text."""
    width = np.dtype(dtype).itemsize
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), dtype=dtype)


def _quad_table():
    """4 digits q as %04d at q, and at 10000 + q with their trailing zeros dropped.

    Digit j is a trailing zero when q % 10^(4-j) == 0.  Built in int16
    numpy arrays, not 20000 strings, so that importing stays small.
    """
    q = np.arange(10000, dtype=np.int16)[:, None]
    tens = np.array([10000, 1000, 100, 10, 1], np.int16)
    digits = (q // tens[1:] % 10 + ord("0")).astype(np.uint8)
    return np.concatenate([digits, digits * (q % tens[:-1] != 0)]).view(np.uint32).ravel()


# tables indexed by -k, k = floor(log10 |v|), over 1e-280 <= |v| < 1 (log10
# is exact at 1e-280) and one spare: hi + lo = 10^(16-k) to about 2^-106
# relative, each correctly rounded (CPython rounds int to float correctly),
# hi's split halves, and the exponent text, empty where '%.17g' is fixed-point
_POW10_HI = np.array([float(10**e) for e in range(16, 298)])
_POW10_LO = np.array([float(10**e - int(h)) for e, h in zip(range(16, 298), _POW10_HI.tolist())])
_POW10 = np.stack([_POW10_HI, _POW10_LO, *_split(_POW10_HI)])
_EXPONENTS = _ascii_table([b""] * 5 + [b"e-%02d" % m for m in range(5, 282)], np.uint64)
_QUADS = _quad_table()
# the text before the quads, at ((sign * 5 + layout) * 10 + d0) * 2 + point:
# layout 0 is exponent form, "d0." when digits follow; layout 1..4 is
# fixed-point k = -layout, "0." and layout - 1 zeros before d0
_HEADS = _ascii_table(
    [sign + (d0 + b"." * point if layout == 0 else b"0." + b"0" * (layout - 1) + d0)
     for sign in (b"", b"-") for layout in range(5) for d0 in b"0 1 2 3 4 5 6 7 8 9".split()
     for point in (0, 1)],
    np.uint64,
)


def _g17_rows(values):
    """'%.17g' % v for each v of a float64 array, as an (n, _ROW) uint8 matrix.

    Row i holds the text of v[i] in order, with 0 bytes between and after
    it; its non-zero bytes are exactly ('%.17g' % v[i]).encode().

    For 1e-280 <= |v| < 1, with k = floor(log10 |v|), the 17-digit
    significand is D = rint(S), S = |v| 10^(16-k).  S is p + t: p, err
    from Dekker's exact product of |v| by hi, and t = err + |v| lo with
    hi + lo = 10^(16-k).  The error of t is under 5e-15 absolute for
    S < 2e17: about 2^-53 * 11 from rounding |v| lo, 2^-53 * 16 from the
    sum, and 2^-106 S from truncating 10^(16-k) to (hi, lo).  p is an
    integer (S > 2^53), so D = p + rint(t), and D is the correctly rounded
    significand unless frac(S) lies within that error of 1/2.  Signed
    zeros are read from the same tables as D = 0.  The reference conversion (Gay,
    AT&T Numerical Analysis Manuscript 90-10, 1990) formats, one at a
    time, every value this cannot prove: inf, nan and other |v| outside
    the range; |frac(S) - 1/2| < 1e-9, a possible tie; and D outside the
    open interval (10^16, 10^17), where the log10 estimate of k may be off
    by one or the digits may carry to the next power of ten.  Only values
    within half a unit in the 17th digit of a power of ten have D = 10^16
    or 10^17.

    Each row is three table reads: a head (sign, "0." and zeros for k in
    -4..-1, the first digit d0, "." in exponent form when digits follow),
    four quads of digits, stripped of trailing zeros when every later quad
    is 0, and the exponent.
    """
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    zero = a == 0.0
    fast = (a >= 1e-280) & (a < 1.0)
    a = np.where(fast, a, 0.5)
    k = np.floor(np.log10(a)).astype(np.int64)
    hi, lo, b_hi, b_lo = _POW10.take(-k, axis=1)
    # Dekker's exact product a hi = p + err
    p = a * hi
    a_hi, a_lo = _split(a)
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    t = err + a * lo
    t_int = np.rint(t)
    frac = t - t_int
    sig = p.astype(np.int64) + t_int.astype(np.int64)
    fast &= (np.abs(np.abs(frac) - 0.5) >= 1e-9) & (sig > _TEN16) & (sig < 10 * _TEN16)
    # zeros, and placeholders for the values formatted one at a time below
    sig[~fast] = 0
    k[~fast] = 0

    # integer divmod as a floor division and a product (numpy divides by a
    # scalar fast, divmod not); the 8-digit halves fit int32
    d0 = sig // _TEN16
    rest = sig - d0 * _TEN16
    upper = rest // 10**8
    lower = (rest - upper * 10**8).astype(np.int32)
    upper = upper.astype(np.int32)
    quads = np.empty((4, v.size), dtype=np.int32)
    quads[0] = upper // 10**4
    quads[1] = upper - quads[0] * 10**4
    quads[2] = lower // 10**4
    quads[3] = lower - quads[2] * 10**4
    # quad j is read stripped, at 10000 + q, when quads j+1.. are all 0
    quads[0] += 10000 * ((quads[1] == 0) & (lower == 0))
    quads[1] += 10000 * (lower == 0)
    quads[2] += 10000 * (quads[3] == 0)
    quads[3] += 10000
    layout = np.where(k < -4, 0, -k)
    head = ((np.signbit(v) * 5 + layout) * 10 + d0) * 2 + (rest != 0)

    out = np.empty((v.size, _ROW // 8), dtype=np.uint64)
    out[:, 0] = _HEADS.take(head)
    out.view(np.uint32)[:, 2:6] = _QUADS.take(quads).T
    out[:, 3] = _EXPONENTS.take(-k)
    out = out.view(np.uint8)

    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        texts = np.array([b"%.17g" % x for x in v[slow].tolist()], dtype=f"S{_ROW}")
        out[slow] = texts.view(np.uint8).reshape(-1, _ROW)
    return out


def _text_field(texts):
    """ASCII strings as a zero-padded uint8 matrix, one row per string."""
    raw = np.array([s.encode() for s in texts], dtype=bytes)
    return raw.view(np.uint8).reshape(len(texts), raw.itemsize)


def _grid_csv_chunks(grid):
    """The grid as CSV bytes, "x,y,value" then one line per point, y slowest.

    Every number is '%.17g' text.  Rows of the grid are encoded a block
    of about _BLOCK_POINTS points at a time, each block one byte chunk.
    When the values, as bits, read the same backwards (a one-parity state
    on a symmetric window), only the first half is encoded, and value
    n-1-i takes the text kept for value i.  Bits, not floats, are
    compared, so a mirrored pair of 0.0 and -0.0 is not a palindrome.
    """
    yield b"x,y,value\n"
    res = grid.resolution
    values = np.ascontiguousarray(grid.values, dtype=np.float64).reshape(-1)
    bits = values.view(np.uint64)
    n = values.size
    encoded = (n + 1) // 2 if np.array_equal(bits, bits[::-1]) else n
    kept = np.empty((n - encoded, _ROW), dtype=np.uint8)  # the texts the mirror half reads
    x_field = _text_field([_g17(x) for x in grid.x_centers().tolist()])
    y_field = _text_field([_g17(y) for y in grid.y_centers().tolist()])
    wx, wy = x_field.shape[1], y_field.shape[1]
    value_at = wx + wy + 2
    width = value_at + _ROW + 1
    rows_per_block = max(1, _BLOCK_POINTS // res)
    block = np.zeros((rows_per_block, res, width), dtype=np.uint8)
    block[:, :, :wx] = x_field
    block[:, :, wx] = block[:, :, value_at - 1] = ord(",")
    block[:, :, -1] = ord("\n")
    texts = block.reshape(-1, width)[:, value_at:-1]
    for start in range(0, res, rows_per_block):
        stop = min(start + rows_per_block, res)
        line = block[: stop - start]
        line[:, :, wx + 1 : value_at - 1] = y_field[start:stop, None, :]
        # values lo..cut-1 are encoded here, cut..hi-1 read from their mirrors
        lo, hi = start * res, stop * res
        cut = min(max(lo, encoded), hi)
        if cut > lo:  # an empty call still costs about 0.1 ms
            texts[: cut - lo] = _g17_rows(values[lo:cut])
        keep = max(lo, min(cut, kept.shape[0]))
        kept[lo:keep] = texts[: keep - lo]
        texts[cut - lo : hi - lo] = kept[n - hi : n - cut][::-1]
        yield line.tobytes().translate(None, b"\0")


def write_grid(path, grid):
    """Write a QGrid to path as CSV: "x,y,value", then one line per point, y slowest."""
    _atomic_write(path, _grid_csv_chunks(grid))


def write_sweep(path, rows):
    """Write sweep rows (x, p, dq_analytic, dq_numeric) as CSV; a None dq_numeric is empty.

    Each row is written as it is taken, so rows may be a generator."""
    def lines():
        yield b"x,p,dq_analytic,dq_numeric\n"
        for x, p, analytic_dq, numeric_dq in rows:
            tail = _g17(numeric_dq) if numeric_dq is not None else ""
            yield f"{_g17(x)},{p},{_g17(analytic_dq)},{tail}\n".encode()
    _atomic_write(path, lines())
