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

from . import analytic, optimizer, output, quasiprob, states, verify
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
    state = build_state(_state_spec(args))
    if args.window is not None:
        window = tuple(args.window)
    else:
        window = quasiprob.display_window(state)
    if args.what == "q":
        grid = quasiprob.q_grid(state, window, args.res)
    else:
        grid = quasiprob.wigner_grid(state, window, args.res)
    output.write_grid(args.out, grid)
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
    for flag, x in (("--x-min", args.x_min), ("--x-max", args.x_max)):
        if not math.isfinite(x):
            raise DomainError(f"{flag} must be finite, got {x}")
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
    rows = []
    for x, p, spec in _sweep_points(args):
        ana, _, report = _checked_dq(spec, args.numeric)
        rows.append((x, p, ana, None if report is None else report.dq))
    output.write_sweep(args.out, rows)
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
