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


@dataclass(frozen=True)
class SweepSpec:
    family: str
    p_list: tuple
    x_variable: str
    x_min: float
    x_max: float
    steps: int


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

def _atomic_write(path, payload):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".nonclass-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


_g17 = "{:.17g}".format


def _grid_csv(grid):
    xs = list(map(_g17, grid.x_centers().tolist()))
    lines = ["x,y,value"]
    for y, row in zip(grid.y_centers().tolist(), grid.values):
        y = _g17(y)
        lines += [f"{x},{y},{v}" for x, v in zip(xs, map(_g17, row.tolist()))]
    return "\n".join(lines) + "\n"


# --- subcommands -------------------------------------------------------------

def _state_spec(args):
    """The --state spec with the --cutoff override attached."""
    spec = parse_state_spec(args.state)
    if args.cutoff is not None:
        spec = replace(spec, cutoff_override=args.cutoff)
    return spec


def cmd_dq(args):
    spec = _state_spec(args)
    state = build_state(spec)
    opts = None if args.tol is None else optimizer.OptOptions(target_step=args.tol)
    report = optimizer.maximize_q(state, opts)
    # every family the grammar accepts has a closed form
    analytic_dq, analytic_source = analytic.reference_dq(
        spec.family, spec.params, spec.added_photons
    )
    q_ref = (1.0 - analytic_dq) / math.pi
    rel = abs(report.q_max - q_ref) / q_ref
    if not rel <= _AGREEMENT_REL_TOL:
        raise AccuracyError(
            f"numeric and closed form disagree: dq_numeric = {report.dq!r}, "
            f"analytic_dq = {analytic_dq!r} [{analytic_source}]; q_max {report.q_max!r} "
            f"vs {q_ref!r}, {rel:.2e} relative, above {_AGREEMENT_REL_TOL:g}\n"
            "hint: retry with a larger --cutoff or a smaller --tol; a gap that "
            "stays is a fault in the numeric search or in the closed form"
        )
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
    _atomic_write(args.out, _grid_csv(grid))
    return 0


def _sweep_spec(args):
    p_list = []
    pos = 0
    for tok in args.p_list.split(","):
        if tok:
            p_list.append(_parse_int(tok, pos))
        pos += len(tok) + 1
    spec = SweepSpec(
        family=args.family,
        p_list=tuple(p_list),
        x_variable=_SWEEP_X[args.family],
        x_min=args.x_min,
        x_max=args.x_max,
        steps=args.steps,
    )
    if spec.steps < 2:
        raise DomainError("sweep needs at least 2 steps")
    if spec.x_min > spec.x_max:
        raise DomainError("x_min must not exceed x_max")
    if spec.family in ("pac", "pasv") and not spec.p_list:
        raise DomainError("p_list must be non-empty for pac/pasv sweeps")
    if any(p < 0 for p in spec.p_list):
        raise DomainError("added photon counts must be >= 0")
    if spec.family in ("pac", "pasv") and spec.x_min < 0.0:
        raise DomainError(f"{spec.x_variable} must be >= 0")
    return spec


def _sweep_rows(spec, numeric):
    xs = np.linspace(spec.x_min, spec.x_max, spec.steps)
    rows = []
    if spec.family == "fock":
        for x in xs:
            p = int(round(float(x)))
            if abs(x - p) > 1e-9 or p < 0:
                raise DomainError("fock sweeps need a non-negative integer x grid")
            if p == 0:
                ana = 0.0
            else:
                ana = analytic.fock_nonclassicality(p).dq
            num = None
            if numeric:
                num = optimizer.maximize_q(states.make_fock(p)).dq
            rows.append((float(x), p, ana, num))
        return rows
    for p in spec.p_list:
        for x in xs:
            x = float(x)
            if spec.family == "pac":
                ana = analytic.dq_pac(analytic.PacParams(p=p, alpha_sq=x))
                st_spec = StateSpec("coherent", {"re": math.sqrt(x), "im": 0.0}, p)
            else:
                r = math.asinh(math.sqrt(x))
                ana = analytic.pasv_dq(analytic.PasvParams(p=p, r=r))
                st_spec = StateSpec("svs", {"r": r, "phi": 0.0}, p)
            num = optimizer.maximize_q(build_state(st_spec)).dq if numeric else None
            rows.append((x, p, ana, num))
    return rows


def cmd_sweep(args):
    spec = _sweep_spec(args)
    rows = _sweep_rows(spec, args.numeric)
    lines = ["x,p,dq_analytic,dq_numeric"]
    for x, p, ana, num in rows:
        tail = _g17(num) if num is not None else ""
        lines.append(f"{_g17(x)},{p},{_g17(ana)},{tail}")
    _atomic_write(args.out, "\n".join(lines) + "\n")
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
    def error(self, message):
        raise _UsageExit(message)


def _build_parser():
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
    p_grid.add_argument("--res", type=int, default=101, help="cells per axis")
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
