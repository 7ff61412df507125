"""Self-contained verification checks behind the `verify` subcommand.

Each check returns a CheckResult.  The checks are the one definition
of every acceptance criterion, so each carries its inputs, tolerances
and wall-clock gates inline; tests/test_acceptance.py asserts each one
from a single `verify` run.  All randomness is seeded, so repeated runs
are identical.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels, analytic, optimizer, quasiprob, states


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


_REPORTS = {}


def _pasv_report(p, r, phi=0.6):
    key = ("pasv", p, r, phi)
    if key not in _REPORTS:
        _REPORTS[key] = optimizer.maximize_q(states.make_squeezed_vacuum(r, phi, p=p))
    return _REPORTS[key]


def _angle_dist_mod_pi(a, b):
    d = (a - b) % math.pi
    return min(d, math.pi - d)


def warm_up():
    """Make the first kernel calls, so timed checks do not pay first-call costs."""
    one = np.array([1.0 + 0.0j])
    _kernels.coherent_overlaps(one, np.array([0.1 + 0.1j]))
    _kernels.wigner_values(one, np.array([0.1 + 0.1j]))


# --- Fock degrees, numeric vs closed form --------------------------------

def check_fock_numeric():
    """Numeric degree of |p>, p=1..10, against the closed form (1e-6 absolute)."""
    start = time.perf_counter()
    worst = 0.0
    for p in range(1, 11):
        rep = optimizer.maximize_q(states.make_fock(p))
        worst = max(worst, abs(rep.dq - analytic.fock_nonclassicality(p).dq))
        if p == 1:
            pin = abs(rep.dq - (1.0 - 1.0 / math.e))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and pin <= 1e-6 and elapsed < 5.0
    return CheckResult(
        "fock_dq_numeric_vs_closed_form",
        ok,
        f"max|diff|={worst:.2e}, p=1 pin diff={pin:.2e}, {elapsed:.2f}s",
    )


# --- photon-added coherent states ----------------------------------------

_PAC_GRID_P = (1, 2, 5, 10)
_PAC_GRID_U = (0.1, 0.9, 3.0)


def check_pac_numeric():
    """Numeric pac q_max vs closed form (1e-6 relative) plus curve monotonicity."""
    start = time.perf_counter()
    worst = 0.0
    dq = {}
    for p in _PAC_GRID_P:
        for u in _PAC_GRID_U:
            rep = optimizer.maximize_q(states.make_coherent(math.sqrt(u), p=p))
            ana = analytic.qmax_pac(analytic.PacParams(p=p, alpha_sq=u))
            worst = max(worst, abs(rep.q_max - ana) / ana)
            dq[(p, u)] = rep.dq
    elapsed = time.perf_counter() - start
    mono = all(
        dq[(p, _PAC_GRID_U[i])] > dq[(p, _PAC_GRID_U[i + 1])]
        for p in _PAC_GRID_P
        for i in range(len(_PAC_GRID_U) - 1)
    ) and all(
        dq[(_PAC_GRID_P[i], u)] < dq[(_PAC_GRID_P[i + 1], u)]
        for u in _PAC_GRID_U
        for i in range(len(_PAC_GRID_P) - 1)
    )
    ok = worst <= 1e-6 and mono and elapsed < 30.0
    return CheckResult(
        "pac_qmax_numeric_vs_closed_form",
        ok,
        f"max rel diff={worst:.2e}, monotone={mono}, {elapsed:.2f}s",
    )


def check_pac_dq_monotone_analytic():
    """Closed-form pac degree falls with intensity and rises with p on [0,10]."""
    us = np.linspace(0.0, 10.0, 51)
    ok = True
    for p in (1, 5, 10):
        vals = [analytic.dq_pac(analytic.PacParams(p=p, alpha_sq=float(u))) for u in us]
        ok = ok and all(a > b for a, b in zip(vals, vals[1:]))
    for u in (0.0, 0.5, 2.0, 10.0):
        vals = [analytic.dq_pac(analytic.PacParams(p=p, alpha_sq=u)) for p in range(1, 11)]
        ok = ok and all(a < b for a, b in zip(vals, vals[1:]))
    return CheckResult("pac_dq_monotone_closed_form", ok, "51-point intensity grid, p=1..10")


# --- squeezed-vacuum correlations ----------------------------------------

def check_svs_antinormal():
    """Brute-force <a^p a^dag^p> on squeezed vacuum vs closed form (1e-9 rel)."""
    worst = 0.0
    for r in (0.0, 0.5, 1.0, 2.0):
        cutoff = states.svs_cutoff_for_moment(r, 6) if r > 0 else None
        st = states.make_squeezed_vacuum(r, 0.35, cutoff_override=cutoff)
        for p in range(0, 7):
            brute = states.antinormal_correlation(st, p)
            closed = analytic.svs_antinormal(p, r)
            worst = max(worst, abs(brute - closed) / closed)
    ok = worst <= 1e-9
    return CheckResult("svs_antinormal_brute_vs_closed_form", ok, f"max rel diff={worst:.2e}")


def check_svs_antinormal_p1():
    """p=1 correlation equals cosh^2 r to 1e-12 relative."""
    worst = 0.0
    for r in (0.0, 0.5, 1.0, 2.0):
        cutoff = states.svs_cutoff_for_moment(r, 2) if r > 0 else None
        st = states.make_squeezed_vacuum(r, 1.2, cutoff_override=cutoff)
        val = states.antinormal_correlation(st, 1)
        worst = max(worst, abs(val - math.cosh(r) ** 2) / math.cosh(r) ** 2)
    ok = worst <= 1e-12
    return CheckResult("svs_antinormal_p1_equals_cosh_sq", ok, f"max rel diff={worst:.2e}")


# --- photon-added squeezed vacuum ----------------------------------------

_PASV_GRID_P = (1, 2, 5, 10)
_PASV_GRID_R = (0.3, 0.55, 1.0, 2.0)


def check_pasv_numeric():
    """Numeric pasv q_max vs closed form (1e-6 relative)."""
    start = time.perf_counter()
    worst = 0.0
    for p in _PASV_GRID_P:
        for r in _PASV_GRID_R:
            rep = _pasv_report(p, r)
            ana = analytic.pasv_qmax(analytic.PasvParams(p=p, r=r)).qmax
            worst = max(worst, abs(rep.q_max - ana) / ana)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6
    return CheckResult(
        "pasv_qmax_numeric_vs_closed_form", ok, f"max rel diff={worst:.2e}, {elapsed:.2f}s"
    )


def check_pasv_maximizer():
    """Maximizer at |beta|^2 = p e^r cosh r (1e-3 rel), arg = phi/2 (1e-3, mod pi)."""
    worst_mod = 0.0
    worst_arg = 0.0
    for p in _PASV_GRID_P:
        for r in _PASV_GRID_R:
            rep = _pasv_report(p, r)
            b = rep.beta_max
            target = analytic.pasv_qmax(analytic.PasvParams(p=p, r=r)).beta_max_modulus_sq
            worst_mod = max(worst_mod, abs(abs(b) ** 2 - target) / target)
            worst_arg = max(worst_arg, _angle_dist_mod_pi(np.angle(b), 0.3))
    ok = worst_mod <= 1e-3 and worst_arg <= 1e-3
    return CheckResult(
        "pasv_maximizer_location",
        ok,
        f"max |beta|^2 rel diff={worst_mod:.2e}, max arg diff={worst_arg:.2e} (phi=0.6)",
    )


# --- enhancement inequalities --------------------------------------------

def check_enhancement_ratios():
    """Photon addition lowers the squeezed-vacuum peak: ratios below 1."""
    ok = True
    for r in np.linspace(0.0, 6.0, 121):
        r = float(r)
        base = analytic.svs_qmax(r)
        expect_p1 = (2.0 / math.e) / (1.0 + math.exp(-2.0 * r))
        expect_p2 = (16.0 / 3.0) * math.exp(-2.0) / (
            1.0 + (2.0 / 3.0) * math.exp(-2.0 * r) + math.exp(-4.0 * r)
        )
        got_p1 = analytic.pasv_qmax(analytic.PasvParams(p=1, r=r)).qmax / base
        got_p2 = analytic.pasv_qmax(analytic.PasvParams(p=2, r=r)).qmax / base
        ok = ok and abs(got_p1 - expect_p1) <= 1e-12 and abs(got_p2 - expect_p2) <= 1e-12
        ok = ok and got_p1 < 1.0 and got_p2 < 1.0
        for p in range(1, 21):
            ok = ok and analytic.pasv_qmax(analytic.PasvParams(p=p, r=r)).qmax < base
    return CheckResult("pasv_enhancement_ratios_below_one", ok, "p<=20, r in [0,6]")


def check_fock_sequence_decreasing():
    """Peak density of |p> strictly decreases in p (so the degree rises)."""
    q = [analytic.fock_nonclassicality(p).qmax for p in range(1, 21)]
    ok = all(a > b for a, b in zip(q, q[1:]))
    ratio = analytic.fock_nonclassicality(2).qmax / analytic.fock_nonclassicality(1).qmax
    ok = ok and abs(ratio - 2.0 / math.e) <= 1e-12
    return CheckResult("fock_qmax_sequence_decreasing", ok, "p=1..20, p2/p1 = 2/e")


def check_successive_limit_ratio():
    """Strong-squeezing successive ratio stays below 1 for p=1..100."""
    ok = all(
        analytic.strong_squeezing_limits(p).ratio_successive < 1.0 for p in range(1, 101)
    )
    return CheckResult("successive_limit_ratio_below_one", ok, "p=1..100")


# --- strong-squeezing limits ---------------------------------------------

def check_strong_squeezing():
    """r=30 pasv ratio matches the limit (1e-8 rel); p=1e4 limit is 1/sqrt(2)."""
    worst = 0.0
    for p in range(1, 11):
        ratio = analytic.pasv_qmax(analytic.PasvParams(p=p, r=30.0)).qmax / analytic.svs_qmax(30.0)
        limit = analytic.strong_squeezing_limits(p).ratio_to_svs
        worst = max(worst, abs(ratio - limit) / limit)
    big = analytic.strong_squeezing_limits(10_000).ratio_to_svs
    dev = abs(big - 1.0 / math.sqrt(2.0))
    ok = worst <= 1e-8 and dev <= 1e-4
    return CheckResult(
        "strong_squeezing_limits", ok, f"r=30 max rel diff={worst:.2e}, p=1e4 dev={dev:.2e}"
    )


# --- degree minimum over mean occupancy ----------------------------------

def check_pasv_dq_minimum():
    """p=1 degree vs mean occupancy: interior minimum near 1/3, endpoints pinned."""
    xs = np.linspace(0.0, 3.0, 30001)
    vals = [
        analytic.pasv_dq(analytic.PasvParams(p=1, r=math.asinh(math.sqrt(float(x)))))
        for x in xs
    ]
    i = int(np.argmin(vals))
    interior = 0 < i < len(xs) - 1
    x_star, dq_star = float(xs[i]), float(vals[i])
    at_zero = abs(vals[0] - (1.0 - 1.0 / math.e)) <= 1e-12
    tail = [analytic.pasv_dq(analytic.PasvParams(p=1, r=r)) for r in (2.0, 4.0, 8.0, 12.0)]
    rising = all(a < b for a, b in zip(tail, tail[1:])) and tail[-1] > 0.999
    ok = (
        interior
        and abs(x_star - 0.334) <= 0.03
        and abs(dq_star - 0.522) <= 0.005
        and at_zero
        and rising
    )
    return CheckResult(
        "pasv_dq_interior_minimum",
        ok,
        f"min at x={x_star:.4f}, dq={dq_star:.4f}; dq(0)=1-1/e={at_zero}, tail rising={rising}",
    )


# --- displacement and rotation invariance --------------------------------

def _invariance_states():
    return {
        "fock(1)": states.make_fock(1),
        "pac(1, alpha=1)": states.make_coherent(1.0, p=1),
        "pasv(1, r=1)": states.make_squeezed_vacuum(1.0, 0.0, p=1),
    }


def check_invariance_displacements():
    """The degree moves less than 1e-5 under 40 random displacements, |lam| <= 1:
    20 uniform on the unit disk, and 20 with |lam| uniform on [0, 1]."""
    draws = ((np.random.default_rng(20260822), math.sqrt), (np.random.default_rng(2024), float))
    worst = 0.0
    for label, st in _invariance_states().items():
        base = optimizer.maximize_q(st).dq
        for rng, modulus in draws:
            for _ in range(20):
                mod = modulus(rng.uniform(0.0, 1.0))
                ang = rng.uniform(0.0, 2.0 * math.pi)
                lam = mod * complex(math.cos(ang), math.sin(ang))
                moved = states.displace(st, lam)
                worst = max(worst, abs(optimizer.maximize_q(moved).dq - base))
    ok = worst <= 1e-5
    return CheckResult("dq_invariant_under_displacement", ok, f"max |shift|={worst:.2e}")


def check_invariance_rotations():
    """The degree moves less than 1e-9 under rotations."""
    worst = 0.0
    for label, st in _invariance_states().items():
        base = optimizer.maximize_q(st).dq
        for theta in (0.3, 0.321, 1.1, 2.7, 4.04, 5.9):
            moved = states.rotate(st, theta)
            worst = max(worst, abs(optimizer.maximize_q(moved).dq - base))
    ok = worst <= 1e-9
    return CheckResult("dq_invariant_under_rotation", ok, f"max |shift|={worst:.2e}")


# --- Wigner negativity detection -----------------------------------------

def _svs_deep(r, phi):
    # Squeezed vacuum with the cutoff pushed ~1e4 below the usual mass
    # target.  A state truncated at the 1e-12 level is very slightly
    # non-Gaussian and owns a genuine W dip near -1e-7, which would
    # drown the 1e-8 no-negativity gate; the deeper cutoff moves that
    # artifact below 1e-9 where it cannot mask a real detection bug.
    base = states.make_squeezed_vacuum(r, phi)
    t2 = math.tanh(r) ** 2
    extra = int(math.ceil(math.log(1e4) / math.log(1.0 / t2))) + 1
    return states.make_squeezed_vacuum(r, phi, cutoff_override=base.cutoff + 2 * extra)


def check_wigner_negativity():
    """Negativity for non-Gaussian states, none for Gaussian ones."""
    start = time.perf_counter()
    ok = True
    details = []
    for p in (1, 2, 3):
        st = states.make_fock(p)
        _, val = quasiprob.wigner_min_scan(st, quasiprob.display_window(st), 101)
        ok = ok and val < -1e-3
        if p == 1:
            pin = abs(val - (-2.0 / math.pi))
            ok = ok and pin <= 1e-6
            details.append(f"fock(1) min diff from -2/pi: {pin:.2e}")
    for p in (1, 2):
        st = states.make_coherent(1.0, p=p)
        _, val = quasiprob.wigner_min_scan(st, quasiprob.display_window(st), 101)
        ok = ok and val < -1e-3
    gauss_min = 0.0
    for st in (states.make_coherent(1.2 + 0.5j), _svs_deep(1.0, 0.0),
               _svs_deep(0.8, 0.3), _svs_deep(1.5, 2.0)):
        _, val = quasiprob.wigner_min_scan(st, quasiprob.display_window(st), 75)
        gauss_min = min(gauss_min, val)
        ok = ok and val >= -1e-8
    details.append(f"worst Gaussian min: {gauss_min:.2e}")
    elapsed = time.perf_counter() - start
    return CheckResult(
        "wigner_negativity_detection", ok, "; ".join(details) + f", {elapsed:.2f}s"
    )


# --- quadrature normalization --------------------------------------------

def _quadrature_states():
    return [
        ("coherent(2)", states.make_coherent(2.0), 101),
        ("fock(10)", states.make_fock(10), 151),
        ("svs(r=1)", states.make_squeezed_vacuum(1.0, 0.9), 101),
        ("pac(2, alpha=1.5)", states.make_coherent(1.5, p=2), 101),
        ("pasv(2, r=1)", states.make_squeezed_vacuum(1.0, 0.4, p=2), 151),
    ]


def check_quadrature_q():
    """Midpoint quadrature of Q is 1 within 1e-3 for every family, all with <n> <= 10."""
    worst = 0.0
    heaviest = 0.0
    for label, st, res in _quadrature_states():
        heaviest = max(heaviest, states.mean_photon(st))
        window = quasiprob.display_window(st)
        total = quasiprob.grid_quadrature(quasiprob.q_grid(st, window, max(res, 101)))
        worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-3 and heaviest <= 10.0
    return CheckResult(
        "q_quadrature_normalized", ok, f"max |1-integral|={worst:.2e}, max <n>={heaviest:.2f}"
    )


def check_quadrature_wigner():
    """Midpoint quadrature of W is 1 within 1e-2 for every family."""
    start = time.perf_counter()
    worst = 0.0
    for label, st, res in _quadrature_states():
        window = quasiprob.display_window(st)
        total = quasiprob.grid_quadrature(quasiprob.wigner_grid(st, window, res))
        worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-2
    return CheckResult(
        "wigner_quadrature_normalized", ok, f"max |1-integral|={worst:.2e}, {elapsed:.2f}s"
    )


# --- squeezed-vacuum closed-form cross-check -------------------------------

def check_svs_q_closed_form():
    """Husimi density of squeezed vacuum against its Gaussian closed form."""
    r, phi = 0.9, 0.7
    st = states.make_squeezed_vacuum(r, phi)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        b = complex(rng.normal(scale=1.2), rng.normal(scale=1.2))
        got = quasiprob.q_value(st, b)
        expect = math.exp(
            -abs(b) ** 2 * (1.0 - math.tanh(r) * math.cos(phi - 2.0 * np.angle(b)))
        ) / (math.pi * math.cosh(r))
        worst = max(worst, abs(got - expect) / expect)
    ok = worst <= 1e-10
    return CheckResult("svs_q_matches_gaussian_form", ok, f"max rel diff={worst:.2e}")


ALL_CHECKS = (
    check_fock_numeric,
    check_pac_numeric,
    check_pac_dq_monotone_analytic,
    check_svs_antinormal,
    check_svs_antinormal_p1,
    check_pasv_numeric,
    check_pasv_maximizer,
    check_enhancement_ratios,
    check_fock_sequence_decreasing,
    check_successive_limit_ratio,
    check_strong_squeezing,
    check_pasv_dq_minimum,
    check_invariance_displacements,
    check_invariance_rotations,
    check_wigner_negativity,
    check_quadrature_q,
    check_quadrature_wigner,
    check_svs_q_closed_form,
)


def run_all():
    """Run every check after a kernel warm-up; returns CheckResults."""
    warm_up()
    _REPORTS.clear()
    return [fn() for fn in ALL_CHECKS]
