"""Answer checks, with the tolerances `nonclass verify` uses.

Each check returns None for a correct answer or a one-line reason.
"""

import json
import math

import numpy as np

QMAX_REL_TOL = 1e-6  # numeric q_max vs closed form
Q_QUADRATURE_TOL = 1e-3
W_QUADRATURE_TOL = 1e-2
# |W| <= (2/pi) <psi|psi>, and FockState certifies its squared norm only
# to 1 + 1e-12: a state whose W touches -2/pi at the origin (odd parity)
# comes out one ulp beyond the exact bound.
W_BOUND = 2.0 / math.pi * (1.0 + 1e-12)

# Known defects, each with the footprint by which a failed request is
# recognised.  Requests that hit one still count as failed; they are not
# new defects.  The pinned requests in workloads.py show each of them.
def _norm_check(request, outcome):
    # FockState rejects some states whose squared norm misses 1 by
    # rounding alone, and the ValueError escapes cli.main (ROADMAP item 4).
    # About 1 in 700 squeezed states with r > 2.3 hit it.
    return "squared norm" in f"{outcome.error} {outcome.stderr}"


def _near_fock_ring(request, outcome):
    # Close to its Fock limit a photon-added state's Q peak is a nearly
    # round ring; the optimizer's capped walk along it stops short, and
    # q_max comes out up to 1e-5 low.  Measured footprint: pasv r < 0.0015,
    # pac |alpha|^2 < 2e-5.
    if request.what != "dq" or not request.added or not outcome.failure.startswith("q_max"):
        return False
    p = request.params
    if request.family == "svs":
        return p["r"] < 0.002
    return p["re"] ** 2 + p["im"] ** 2 < 1e-4


KNOWN_DEFECTS = (
    ("the FockState norm check rejects a state over rounding", _norm_check),
    ("the optimizer stops short on the nearly round peak of a near-Fock state", _near_fock_ring),
)


def known_defect(request, outcome):
    """The known defect behind a failed request, or "" for none."""
    if request.defect:
        return request.defect
    for name, footprint in KNOWN_DEFECTS:
        if footprint(request, outcome):
            return name
    return ""


def check(request, outcome, reference_dq):
    """Judge one request's outcome.

    `reference_dq` is nonclass.analytic.reference_dq, the closed-form
    oracle; the caller passes the unwrapped function so that checking
    adds no spans to a traced run.
    """
    if outcome.error is not None:
        return f"exception escaped cli.main: {outcome.error}"
    if outcome.code != 0:
        tail = outcome.stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {outcome.code}: {tail[0][:160]}"
    if request.what == "dq":
        return _check_dq(request, outcome.stdout, reference_dq)
    return _check_grid(request, outcome.out_path)


def _check_dq(request, stdout, reference_dq):
    try:
        report = json.loads(stdout)
        q_max = float(report["q_max"])
        dq = float(report["dq_numeric"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable dq report: {exc!r}"
    dq_ref, _ = reference_dq(request.family, request.params, request.added)
    q_ref = (1.0 - dq_ref) / math.pi
    rel = abs(q_max - q_ref) / q_ref
    if not rel <= QMAX_REL_TOL:
        return f"q_max {q_max!r} vs closed form {q_ref!r} (rel {rel:.2e}); dq {dq!r} vs {dq_ref!r}"
    if not abs(dq - dq_ref) <= QMAX_REL_TOL * math.pi * q_ref:
        return f"dq_numeric {dq!r} disagrees with its own q_max {q_max!r}"
    return None


def _check_grid(request, path):
    res = request.res
    try:
        with open(path, encoding="ascii") as handle:
            header = handle.readline().strip()
            table = np.loadtxt(handle, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        return f"unreadable CSV: {exc!r}"
    if header != "x,y,value":
        return f"CSV header {header!r}"
    if table.shape != (res * res, 3):
        return f"CSV has {table.shape[0] + 1} rows of {table.shape[1]}, want {res * res + 1} of 3"
    xs, ys, values = table[:res, 0], table[::res, 1], table[:, 2]
    if not (np.all(np.diff(xs) > 0) and np.all(np.diff(ys) > 0)):
        return "CSV points are not a row-major lattice"
    total = float(values.sum()) * (xs[1] - xs[0]) * (ys[1] - ys[0])
    tol = Q_QUADRATURE_TOL if request.what == "q" else W_QUADRATURE_TOL
    if not abs(total - 1.0) <= tol:
        return f"midpoint quadrature {total!r} not within {tol:g} of 1"
    if request.what == "wigner" and not np.all(np.abs(values) <= W_BOUND):
        return f"W value {values[np.argmax(np.abs(values))]!r} outside (2/pi)[-1, 1] (1 + 1e-12)"
    return None
