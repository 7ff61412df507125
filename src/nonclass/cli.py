"""Command-line surface: dq, grid, sweep, and verify subcommands.

State specs use a compact grammar:

    coherent:re=2,im=2+add=1      photon-added coherent state
    svs:r=1,phi=0.5               squeezed vacuum
    fock:n=3                      number state

Exit codes: 0 success, 1 verification failure, 2 computation error
(a numeric dq that disagrees with its closed form included), 3 I/O
error, 64 usage error.
"""

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import analytic, optimizer, quasiprob, states, verify
from .errors import (
    AccuracyError,
    ConvergenceError,
    CutoffError,
    DomainError,
    SpecParseError,
    WindowError,
)

_FAMILY_KEYS = {
    "coherent": ("re", "im"),
    "svs": ("r", "phi"),
    "fock": ("n",),
}

# relative gap between the numeric and the closed-form q_max past which
# dq fails: the tolerance of verify's q_max checks and the benchmark's answer checks
_AGREEMENT_REL_TOL = 1e-6

_FLOAT_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_INT_RE = re.compile(r"[+-]?\d+")


@dataclass(frozen=True)
class StateSpec:
    family: str
    params: dict
    added_photons: int = 0
    cutoff_override: Optional[int] = None


_SWEEP_X = {"pac": "alpha_sq", "pasv": "mean_occupancy", "fock": "p"}


def _parse_float(text, pos):
    if not _FLOAT_RE.fullmatch(text):
        raise SpecParseError(f"expected a number, got {text!r}", position=pos)
    return float(text)


def _parse_int(text, pos):
    if not _INT_RE.fullmatch(text):
        raise SpecParseError(f"expected an integer, got {text!r}", position=pos)
    return int(text)


def parse_state_spec(text):
    """Parse `<family>:<k>=<v>[,<k>=<v>]*[+add=<p>]` into a StateSpec.

    Malformed text raises SpecParseError carrying the offending position;
    well-formed but out-of-range values (negative r, negative n) raise
    DomainError.  The cutoff override is not part of the grammar; it
    travels as a CLI flag.
    """
    if not text:
        raise SpecParseError("empty state spec", position=0)
    body = text
    added = 0
    cut = text.rfind("+add=")
    if cut != -1:
        body = text[:cut]
        added = _parse_int(text[cut + 5 :], cut + 5)
        if added < 0:
            raise DomainError("added photon count must be >= 0")
    colon = body.find(":")
    if colon == -1:
        raise SpecParseError("missing ':' after family name", position=len(body))
    family = body[:colon]
    if family not in _FAMILY_KEYS:
        raise SpecParseError(f"unknown family {family!r}", position=0)
    keys = _FAMILY_KEYS[family]
    params = {}
    pos = colon + 1
    rest = body[colon + 1 :]
    if not rest:
        raise SpecParseError("missing parameters", position=pos)
    for chunk in rest.split(","):
        if "=" not in chunk:
            raise SpecParseError(f"expected key=value, got {chunk!r}", position=pos)
        key, _, value = chunk.partition("=")
        if key not in keys:
            raise SpecParseError(f"unknown key {key!r} for {family}", position=pos)
        if key in params:
            raise SpecParseError(f"duplicate key {key!r}", position=pos)
        value_pos = pos + len(key) + 1
        if key == "n":
            params[key] = _parse_int(value, value_pos)
        else:
            params[key] = _parse_float(value, value_pos)
        pos += len(chunk) + 1
    for key in keys:
        if key not in params:
            raise SpecParseError(f"missing key {key!r} for {family}", position=len(body))
    if family == "svs" and params["r"] < 0.0:
        raise DomainError("squeezing parameter r must be >= 0")
    if family == "fock" and params["n"] < 0:
        raise DomainError("photon number n must be >= 0")
    return StateSpec(family=family, params=params, added_photons=added)


def _fmt_param(value):
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_state_spec(spec):
    """Inverse of parse_state_spec: parse(render(s)) == s for grammar specs."""
    body = ",".join(f"{k}={_fmt_param(spec.params[k])}" for k in _FAMILY_KEYS[spec.family])
    text = f"{spec.family}:{body}"
    if spec.added_photons:
        text += f"+add={spec.added_photons}"
    return text


def build_state(spec):
    """Materialize a StateSpec as a truncated Fock-basis state."""
    if spec.family == "coherent":
        alpha = complex(spec.params["re"], spec.params["im"])
        base = states.make_coherent(alpha, cutoff_override=spec.cutoff_override)
    elif spec.family == "svs":
        r, phi = spec.params["r"], spec.params["phi"]
        if spec.cutoff_override is None:
            base = states.make_squeezed_vacuum_for_addition(r, phi, spec.added_photons)
        else:
            base = states.make_squeezed_vacuum(r, phi, cutoff_override=spec.cutoff_override)
    elif spec.family == "fock":
        base = states.make_fock(spec.params["n"], cutoff_override=spec.cutoff_override)
    else:
        raise DomainError(f"unknown family {spec.family!r}")
    if spec.added_photons:
        base = states.add_photons(base, spec.added_photons)
    return base


# --- output helpers ---------------------------------------------------------

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


def _pow10_pairs(exps):
    """(hi, lo) with hi + lo = 10**e to about 2^-106 relative, per e of exps.

    hi is 10**e correctly rounded and lo the correctly rounded remainder,
    both from exact integer quotients (CPython rounds int / int
    correctly).  Only the exponents present are built.
    """
    base = int(exps.min())
    index = exps - base
    present = np.zeros(int(index.max()) + 1, dtype=bool)
    present[index] = True
    hi = np.zeros(present.size)
    lo = np.zeros(present.size)
    for i in np.flatnonzero(present).tolist():
        e = base + i
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        hi[i] = num / den
        h_num, h_den = hi[i].as_integer_ratio()
        lo[i] = (num * h_den - h_num * den) / (den * h_den)
    return hi[index], lo[index]


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
    hi, lo = _pow10_pairs(16 - k)
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


# --- subcommands -------------------------------------------------------------

def _state_spec(args):
    """The --state spec with the --cutoff override attached."""
    spec = parse_state_spec(args.state)
    if args.cutoff is not None:
        spec = replace(spec, cutoff_override=args.cutoff)
    return spec


def _checked_dq(spec, numeric, opts=None):
    """(analytic_dq, analytic_source, report) for a StateSpec.

    The closed form always comes from analytic.reference_dq, which covers
    every family the grammar accepts.  With numeric, the state is built
    and searched first, and a q_max more than _AGREEMENT_REL_TOL relative
    off the closed form raises AccuracyError; without it, report is None
    and no state is built.
    """
    report = optimizer.maximize_q(build_state(spec), opts) if numeric else None
    analytic_dq, analytic_source = analytic.reference_dq(
        spec.family, spec.params, spec.added_photons
    )
    if not numeric:
        return analytic_dq, analytic_source, None
    q_ref = (1.0 - analytic_dq) / math.pi
    rel = abs(report.q_max - q_ref) / q_ref
    if not rel <= _AGREEMENT_REL_TOL:
        raise AccuracyError(
            f"numeric and closed form disagree for {render_state_spec(spec)}: "
            f"dq_numeric = {report.dq!r}, analytic_dq = {analytic_dq!r} "
            f"[{analytic_source}]; q_max {report.q_max!r} vs {q_ref!r}, "
            f"{rel:.2e} relative, above {_AGREEMENT_REL_TOL:g}\n"
            "hint: retry dq with a larger --cutoff or a smaller --tol; a gap that "
            "stays is a fault in the numeric search or in the closed form"
        )
    return analytic_dq, analytic_source, report


def cmd_dq(args):
    spec = _state_spec(args)
    opts = None if args.tol is None else optimizer.OptOptions(target_step=args.tol)
    analytic_dq, analytic_source, report = _checked_dq(spec, True, opts)
    if args.json:
        payload = {
            "state_spec": render_state_spec(spec),
            "dq_numeric": report.dq,
            "analytic_dq": analytic_dq,
            "analytic_source": analytic_source,
            "q_max": report.q_max,
            "beta_max": [report.beta_max.re, report.beta_max.im],
            "final_step": report.final_step,
        }
        print(json.dumps(payload))
    else:
        print(f"dq_numeric = {report.dq:.12f}")
        print(f"analytic_dq = {analytic_dq:.12f} [{analytic_source}]")
        print(f"difference = {abs(report.dq - analytic_dq):.3e}")
    return 0


def cmd_grid(args):
    state = build_state(_state_spec(args))
    if args.window is not None:
        window = tuple(args.window)
    else:
        window = quasiprob.display_window(state)
    if args.what == "q":
        grid = quasiprob.q_grid(state, window, args.res)
    else:
        grid = quasiprob.wigner_grid(state, window, args.res)
    _atomic_write(args.out, _grid_csv_chunks(grid))
    return 0


def _sweep_points(args):
    """The sweep's rows as (x, p, StateSpec), checked against its domain."""
    p_list = []
    pos = 0
    for tok in args.p_list.split(","):
        if tok:
            p_list.append(_parse_int(tok, pos))
        pos += len(tok) + 1
    family = args.family
    if args.steps < 2:
        raise DomainError("sweep needs at least 2 steps")
    if args.x_min > args.x_max:
        raise DomainError("x_min must not exceed x_max")
    if family in ("pac", "pasv") and not p_list:
        raise DomainError("p_list must be non-empty for pac/pasv sweeps")
    if any(p < 0 for p in p_list):
        raise DomainError("added photon counts must be >= 0")
    if family in ("pac", "pasv") and args.x_min < 0.0:
        raise DomainError(f"{_SWEEP_X[family]} must be >= 0")
    xs = [float(x) for x in np.linspace(args.x_min, args.x_max, args.steps)]
    if family == "fock":
        points = []
        for x in xs:
            n = int(round(x))
            if abs(x - n) > 1e-9 or n < 0:
                raise DomainError("fock sweeps need a non-negative integer x grid")
            points.append((x, n, StateSpec("fock", {"n": n})))
        return points
    if family == "pac":
        return [(x, p, StateSpec("coherent", {"re": math.sqrt(x), "im": 0.0}, p))
                for p in p_list for x in xs]
    return [(x, p, StateSpec("svs", {"r": math.asinh(math.sqrt(x)), "phi": 0.0}, p))
            for p in p_list for x in xs]


def cmd_sweep(args):
    lines = ["x,p,dq_analytic,dq_numeric"]
    for x, p, spec in _sweep_points(args):
        ana, _, report = _checked_dq(spec, args.numeric)
        tail = _g17(report.dq) if report is not None else ""
        lines.append(f"{_g17(x)},{p},{_g17(ana)},{tail}")
    _atomic_write(args.out, [("\n".join(lines) + "\n").encode()])
    return 0


def cmd_verify(args):
    start = time.perf_counter()
    results = verify.run_all()
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failed += 1
        print(f"{mark}  {r.name:<{width}}  {r.detail}")
    elapsed = time.perf_counter() - start
    print(f"{len(results)} checks: {len(results) - failed} passed, {failed} failed ({elapsed:.1f}s)")
    return 0 if failed == 0 else 1


# --- argument plumbing --------------------------------------------------------

class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads an argument that starts with "-" as a flag unless
        # it matches this pattern, whose default (Python 3.10 to 3.13) has
        # no exponent, so "--window -1e-3 1 -1 1" would stop at "-1e-3".
        # Any negative number in the spec grammar's float syntax is a value.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise _UsageExit(message)


@functools.cache
def _build_parser():
    """The argument parser, built once per process.

    parse_args leaves no state in it: every call fills a fresh namespace.
    """
    parser = _Parser(prog="nonclass", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_flags(p):
        p.add_argument("--state", required=True, help="state spec, e.g. coherent:re=2,im=0+add=1")
        p.add_argument("--cutoff", type=int, default=None, help="override the Fock cutoff")

    p_dq = sub.add_parser("dq", help="non-classicality degree of one state")
    add_state_flags(p_dq)
    p_dq.add_argument("--tol", type=float, default=None, help="bound on the optimizer's last step")
    p_dq.add_argument("--json", action="store_true", help="emit the JSON report")
    p_dq.set_defaults(func=cmd_dq)

    p_grid = sub.add_parser("grid", help="tabulate Q or Wigner values on a lattice")
    add_state_flags(p_grid)
    p_grid.add_argument("--what", choices=("q", "wigner"), default="q")
    p_grid.add_argument(
        "--window",
        type=float,
        nargs=4,
        metavar=("XMIN", "XMAX", "YMIN", "YMAX"),
        default=None,
    )
    p_grid.add_argument(
        "--res",
        type=int,
        default=101,
        help=f"cells per axis; res^2 may not exceed {quasiprob.MAX_GRID_CELLS}",
    )
    p_grid.add_argument("--out", required=True, help="output CSV path")
    p_grid.set_defaults(func=cmd_grid)

    p_sweep = sub.add_parser("sweep", help="degree curves over a parameter range")
    p_sweep.add_argument("--family", choices=("pac", "pasv", "fock"), required=True)
    p_sweep.add_argument("--p-list", default="1", help="comma-separated added-photon counts")
    p_sweep.add_argument("--x-min", type=float, required=True)
    p_sweep.add_argument("--x-max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, default=51)
    p_sweep.add_argument("--numeric", action="store_true", help="also run the optimizer per row")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the built-in verification suite")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 64
    try:
        return args.func(args)
    except (SpecParseError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except (CutoffError, AccuracyError, WindowError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
