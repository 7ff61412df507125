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
import re
import sys
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import analytic, families, optimizer, output, quasiprob, verify
from .errors import (
    AccuracyError,
    ConvergenceError,
    CutoffError,
    DomainError,
    SpecParseError,
    WindowError,
)

# relative gap between the numeric and the closed-form q_max past which
# dq fails: the tolerance of verify's q_max checks and the benchmark's answer checks
_AGREEMENT_REL_TOL = 1e-6

_UNSIGNED = r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?"
_FLOAT_RE = re.compile(r"[+-]?" + _UNSIGNED)
_INT_RE = re.compile(r"[+-]?\d+")


@dataclass(frozen=True)
class StateSpec:
    family: str
    params: dict
    added_photons: int = 0
    cutoff_override: Optional[int] = None


# rows one sweep may compute (steps x p values)
MAX_SWEEP_ROWS = 1_000_000
# moment ratios one pac or pasv sweep may walk (steps x the sum of its p
# values), one Python step each in analytic.log_moment_ratios.  On a 2-core
# VM, 400 pasv rows of p = 250000 took 44 s and 1e5 rows of p = 100 took
# 5.1 s, so the worst sweep inside both limits ends in about a minute
MAX_SWEEP_MOMENTS = 100_000_000


def _parse_number(text, pos, integer):
    if not (_INT_RE if integer else _FLOAT_RE).fullmatch(text):
        kind = "an integer" if integer else "a number"
        raise SpecParseError(f"expected {kind}, got {text!r}", position=pos)
    if not integer:
        return float(text)
    digits = text.lstrip("+-").lstrip("0") or "0"  # int()'s digit limit counts leading zeros
    try:
        return -int(digits) if text[0] == "-" else int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise SpecParseError(f"expected an integer int() can convert, got one of {len(digits)} digits",
                             position=pos) from None


def parse_state_spec(text):
    """Parse `<family>:<k>=<v>[,<k>=<v>]*[+add=<p>]` into a StateSpec.

    The family's record gives the keys, which of them are integers, and
    the check of each value.  Malformed text raises SpecParseError
    carrying the offending position; a well-formed value that fails its
    check (negative r, negative n) raises DomainError.  The cutoff
    override is not part of the grammar; it travels as a CLI flag.
    """
    if not text:
        raise SpecParseError("empty state spec", position=0)
    body, added = text, 0
    cut = text.rfind("+add=")
    if cut != -1:
        body, p_text = text[:cut], text[cut + 5 :]
        added = analytic._integer("added_photons", _parse_number(p_text, cut + 5, integer=True))
    colon = body.find(":")
    if colon == -1:
        raise SpecParseError("missing ':' after family name", position=len(body))
    family = body[:colon]
    record = families.FAMILIES.get(family)
    if record is None:
        raise SpecParseError(f"unknown family {family!r}", position=0)
    params, pos = {}, colon + 1
    rest = body[colon + 1 :]
    if not rest:
        raise SpecParseError("missing parameters", position=pos)
    for chunk in rest.split(","):
        if "=" not in chunk:
            raise SpecParseError(f"expected key=value, got {chunk!r}", position=pos)
        key, _, value = chunk.partition("=")
        if key not in record.checks:
            raise SpecParseError(f"unknown key {key!r} for {family}", position=pos)
        if key in params:
            raise SpecParseError(f"duplicate key {key!r}", position=pos)
        value_pos = pos + len(key) + 1
        params[key] = _parse_number(value, value_pos, record.checks[key] is analytic._integer)
        pos += len(chunk) + 1
    for key in record.checks:
        if key not in params:
            raise SpecParseError(f"missing key {key!r} for {family}", position=len(body))
    return StateSpec(family=family, params=record.checked(params), added_photons=added)


def render_state_spec(spec):
    """Inverse of parse_state_spec: parse(render(s)) == s for grammar specs."""
    checks = families.record(spec.family).checks
    body = ",".join(
        f"{k}={spec.params[k]}" if check is analytic._integer else f"{k}={float(spec.params[k])!r}"
        for k, check in checks.items()
    )
    return f"{spec.family}:{body}" + (f"+add={spec.added_photons}" if spec.added_photons else "")


def build_state(spec):
    """Materialize a StateSpec as a truncated Fock-basis state, by its family's record.

    Runs reference_dq's checks, so both refuse the same specs.
    """
    p = analytic._integer("added_photons", spec.added_photons)
    record = families.record(spec.family)
    return record.build(record.checked(spec.params), spec.cutoff_override, p)


# --- subcommands -------------------------------------------------------------

def _state_spec(args):
    """The --state spec with the --cutoff override attached."""
    return replace(parse_state_spec(args.state), cutoff_override=args.cutoff)


def _checked_dq(spec, numeric, target_step=optimizer.TARGET_STEP):
    """(analytic_dq, analytic_source, report) for a StateSpec.

    The closed form comes from analytic.reference_dq.  With numeric, the
    state is built and searched first, and a q_max more than
    _AGREEMENT_REL_TOL relative off the closed form raises AccuracyError;
    without it, report is None and no state is built.
    """
    report = optimizer.maximize_q(build_state(spec), target_step) if numeric else None
    analytic_dq, analytic_source = analytic.reference_dq(
        spec.family, spec.params, spec.added_photons
    )
    if not numeric:
        return analytic_dq, analytic_source, None
    # the one dq -> q inverse left in src; the benchmark's perfbench/checks.py takes the same
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
    optimizer.check_target_step(args.tol)  # before the state is built
    analytic_dq, analytic_source, report = _checked_dq(spec, True, args.tol)
    if args.json:
        payload = {
            "state_spec": render_state_spec(spec),
            "dq_numeric": report.dq,
            "analytic_dq": analytic_dq,
            "analytic_source": analytic_source,
            "q_max": report.q_max,
            "beta_max": [report.beta_max.real, report.beta_max.imag],
            "final_step": report.final_step,
        }
        print(json.dumps(payload))
    else:
        print(f"dq_numeric = {report.dq:.12f}")
        print(f"analytic_dq = {analytic_dq:.12f} [{analytic_source}]")
        print(f"difference = {abs(report.dq - analytic_dq):.3e}")
    return 0


def cmd_grid(args):
    spec = _state_spec(args)
    # refuse a bad --res or --window before a heavy state is built
    if args.window is None:
        quasiprob.check_resolution(args.res)
    else:
        quasiprob.check_window(args.window, args.res)
    state = build_state(spec)
    window = quasiprob.display_window(state) if args.window is None else tuple(args.window)
    if args.what == "q":
        grid = quasiprob.q_grid(state, window, args.res)
    else:
        grid = quasiprob.wigner_grid(state, window, args.res)
    output.write_grid(args.out, grid)
    return 0


def _sweep_points(args):
    """The sweep's rows as a generator of (x, p, StateSpec), checked against its domain first."""
    p_list, pos = [], 0
    for tok in args.p_list.split(","):
        if tok:
            p = _parse_number(tok, pos, integer=True)
            p_list.append(analytic._integer("added photon counts", p))
        pos += len(tok) + 1
    record = families.sweeps()[args.family]
    sweep = record.sweep
    if args.steps < 2:
        raise DomainError("sweep needs at least 2 steps")
    rows = args.steps * (1 if sweep.x_is_p else len(p_list))
    if rows > MAX_SWEEP_ROWS:
        raise DomainError(f"sweep of {rows} rows exceeds the limit of {MAX_SWEEP_ROWS} rows")
    if not sweep.x_is_p:  # a Fock row walks no moments
        analytic._check_moment_walk(max(p_list, default=0))  # exit 2, as its row would
        walk = args.steps * sum(p_list)
        if walk > MAX_SWEEP_MOMENTS:
            raise DomainError(f"sweep walks {walk} moment ratios (steps x the sum of --p-list), "
                              f"above the limit of {MAX_SWEEP_MOMENTS}")
    for flag, x in (("--x-min", args.x_min), ("--x-max", args.x_max)):
        analytic._finite(flag, x)
    if args.x_min > args.x_max:
        raise DomainError("x_min must not exceed x_max")
    if not (sweep.x_is_p or p_list):
        raise DomainError(f"p_list must be non-empty for {sweep.name} sweeps")
    xs = np.linspace(args.x_min, args.x_max, args.steps)
    if not sweep.x_is_p:
        analytic._nonnegative(sweep.x_name, args.x_min)
        return ((x, p, StateSpec(record.name, sweep.params(x), p))
                for p in p_list for x in map(float, xs))
    if np.any(np.abs(xs - np.rint(xs)) > 1e-9) or np.any(np.rint(xs) < 0):
        raise DomainError(f"{sweep.name} sweeps need a non-negative integer x grid")
    return ((x, n, StateSpec(record.name, sweep.params(n)))
            for x in map(float, xs) for n in [round(x)])


def cmd_sweep(args):
    points = _sweep_points(args)  # every check, before the file is opened
    rows = ((x, p, *_checked_dq(spec, args.numeric)) for x, p, spec in points)
    output.write_sweep(args.out, ((x, p, ana, None if report is None else report.dq)
                                  for x, p, ana, _, report in rows))
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
        self._negative_number_matcher = re.compile(r"^-" + _UNSIGNED + "$")

    def error(self, message):
        raise _UsageExit(message)


# kept because it pays: one build costs about 1.1 ms, the p50 of a light dq request
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
    p_dq.add_argument("--tol", type=float, default=optimizer.TARGET_STEP,
                      help="bound on the Newton polish's last step (default %(default)g)")
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
    p_sweep.add_argument("--family", choices=tuple(families.sweeps()), required=True)
    p_sweep.add_argument("--p-list", default="1", help="comma-separated added-photon counts; "
                         f"steps x their sum may not exceed {MAX_SWEEP_MOMENTS}")
    p_sweep.add_argument("--x-min", type=float, required=True)
    p_sweep.add_argument("--x-max", type=float, required=True)
    p_sweep.add_argument(
        "--steps",
        type=int,
        default=51,
        help=f"points per curve; steps x (number of p values) may not exceed {MAX_SWEEP_ROWS}",
    )
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
