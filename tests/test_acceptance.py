"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints a single pass/fail line
with the measured margin, and then asserts.  Run with -s (or read the
captured output of a failure) to see the lines.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

import nonclass
from nonclass import analytic, optimizer, quasiprob, states
from nonclass.analytic import (
    PacParams,
    PasvParams,
    dq_pac,
    fock_nonclassicality,
    pasv_dq,
    pasv_qmax,
    qmax_pac,
    strong_squeezing_limits,
    svs_antinormal,
    svs_qmax,
)
from nonclass.states import (
    add_photons,
    antinormal_correlation,
    displace,
    make_coherent,
    make_fock,
    make_squeezed_vacuum,
    mean_photon,
    rotate,
    svs_cutoff_for_moment,
)


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def _pac_state(p, alpha_sq):
    return add_photons(make_coherent(math.sqrt(alpha_sq)), p)


def _pasv_state(p, r, phi=0.0):
    base = make_squeezed_vacuum(r, phi, cutoff_override=svs_cutoff_for_moment(r, p))
    return add_photons(base, p)


def _svs_deep(r, phi):
    # cutoff pushed ~1e4 past the mass target so the genuine negativity of
    # the truncated (hence slightly non-Gaussian) state sits below 1e-9
    base = make_squeezed_vacuum(r, phi)
    t2 = math.tanh(r) ** 2
    extra = int(math.ceil(math.log(1e4) / math.log(1.0 / t2))) + 1
    return make_squeezed_vacuum(r, phi, cutoff_override=base.cutoff + 2 * extra)


def _min_window(st):
    radius = 2.0 * math.sqrt(max(mean_photon(st), 0.0)) + 5.0
    return (-radius, radius, -radius, radius)


def test_criterion_01_fock_degrees():
    start = time.perf_counter()
    worst = 0.0
    for p in range(1, 11):
        got = optimizer.maximize_q(make_fock(p)).dq
        worst = max(worst, abs(got - fock_nonclassicality(p).dq))
        if p == 1:
            pin = abs(got - (1.0 - 1.0 / math.e))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and pin <= 1e-6 and elapsed < 5.0
    _report(
        1,
        ok,
        f"worst |dq diff|={worst:.2e}, single-photon pin diff={pin:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_02_photon_added_coherent():
    start = time.perf_counter()
    p_vals, u_vals = (1, 2, 5, 10), (0.1, 0.9, 3.0)
    worst = 0.0
    dq = {}
    for p in p_vals:
        for u in u_vals:
            rep = optimizer.maximize_q(_pac_state(p, u))
            want = qmax_pac(PacParams(p=p, alpha_sq=u))
            worst = max(worst, abs(rep.q_max - want) / want)
            dq[p, u] = rep.dq
    mono_u = all(
        dq[p, a] > dq[p, b]
        for p in p_vals
        for a, b in zip(u_vals, u_vals[1:])
    )
    mono_p = all(
        dq[a, u] < dq[b, u]
        for u in u_vals
        for a, b in zip(p_vals, p_vals[1:])
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and mono_u and mono_p and elapsed < 30.0
    _report(
        2,
        ok,
        f"worst rel q_max diff={worst:.2e}, monotone in intensity={mono_u}, "
        f"monotone in p={mono_p}, {elapsed:.1f}s",
    )


def test_criterion_03_svs_correlations():
    worst = worst_p1 = 0.0
    for r in (0.0, 0.5, 1.0, 2.0):
        for p in range(1, 7):
            st = make_squeezed_vacuum(
                r, 0.3, cutoff_override=svs_cutoff_for_moment(r, p)
            )
            got = antinormal_correlation(st, p)
            want = svs_antinormal(p, r)
            rel = abs(got - want) / want
            worst = max(worst, rel)
            if p == 1:
                worst_p1 = max(worst_p1, abs(got - math.cosh(r) ** 2) / math.cosh(r) ** 2)
    ok = worst <= 1e-9 and worst_p1 <= 1e-12
    _report(3, ok, f"worst rel={worst:.2e}, first-moment rel={worst_p1:.2e}")


def test_criterion_04_photon_added_svs():
    phi = 0.6
    worst_q = worst_bsq = worst_ang = 0.0
    for p in (1, 2, 5, 10):
        for r in (0.3, 0.55, 1.0, 2.0):
            rep = optimizer.maximize_q(_pasv_state(p, r, phi))
            ref = pasv_qmax(PasvParams(p=p, r=r))
            worst_q = max(worst_q, abs(rep.q_max - ref.qmax) / ref.qmax)
            bsq = rep.beta_max.real**2 + rep.beta_max.imag**2
            worst_bsq = max(
                worst_bsq,
                abs(bsq - ref.beta_max_modulus_sq) / ref.beta_max_modulus_sq,
            )
            # maximizer angle is phi/2 modulo pi (antipodal peaks tie)
            ang = math.atan2(rep.beta_max.imag, rep.beta_max.real)
            d = abs((ang - phi / 2.0) % math.pi)
            worst_ang = max(worst_ang, min(d, math.pi - d))
    ok = worst_q <= 1e-6 and worst_bsq <= 1e-3 and worst_ang <= 1e-3
    _report(
        4,
        ok,
        f"worst rel q_max={worst_q:.2e}, worst rel |beta|^2={worst_bsq:.2e}, "
        f"worst angle diff={worst_ang:.2e}",
    )


def test_criterion_05_enhancement_inequalities():
    rs = [0.05 * k for k in range(1, 121)]
    ratios_ok = True
    for r in rs:
        for p in (1, 2):
            ratio = math.pi * math.cosh(r) * pasv_qmax(PasvParams(p=p, r=r)).qmax
            ratios_ok = ratios_ok and ratio < 1.0
    fock_seq = [math.pi * fock_nonclassicality(p).qmax for p in range(1, 21)]
    fock_ok = all(b < a for a, b in zip(fock_seq, fock_seq[1:]))
    succ_ok = all(
        strong_squeezing_limits(p).ratio_successive < 1.0 for p in range(1, 101)
    )
    ok = ratios_ok and fock_ok and succ_ok
    _report(
        5,
        ok,
        f"peak ratios below one={ratios_ok}, Fock sequence decreasing={fock_ok}, "
        f"successive limit ratio below one={succ_ok}",
    )


def test_criterion_06_strong_squeezing_limits():
    r = 30.0
    worst = 0.0
    for p in range(1, 11):
        got = math.pi * math.cosh(r) * pasv_qmax(PasvParams(p=p, r=r)).qmax
        want = strong_squeezing_limits(p).ratio_to_svs
        worst = max(worst, abs(got - want) / want)
    large_p = strong_squeezing_limits(10**4).ratio_to_svs
    dev = abs(large_p - 1.0 / math.sqrt(2.0))
    ok = worst <= 1e-8 and dev <= 1e-4
    _report(6, ok, f"worst rel at deep squeeze={worst:.2e}, large-p dev={dev:.2e}")


def test_criterion_07_degree_minimum():
    xs = np.linspace(1e-6, 3.0, 30001)
    dqs = np.array(
        [pasv_dq(PasvParams(p=1, r=math.asinh(math.sqrt(x)))) for x in xs]
    )
    k = int(np.argmin(dqs))
    interior = 0 < k < len(xs) - 1
    x_star, dq_star = float(xs[k]), float(dqs[k])
    at_zero = pasv_dq(PasvParams(p=1, r=0.0))
    deep = pasv_dq(PasvParams(p=1, r=12.0))
    ok = (
        interior
        and abs(x_star - 0.334) <= 0.03
        and abs(dq_star - 0.522) <= 0.005
        and abs(at_zero - (1.0 - 1.0 / math.e)) <= 1e-12
        and deep > 0.999
    )
    _report(
        7,
        ok,
        f"min at mean occupancy {x_star:.4f} with dq={dq_star:.4f}, "
        f"dq(0)={at_zero:.7f}, dq(r=12)={deep:.6f}",
    )


def test_criterion_08_invariance():
    rng = np.random.default_rng(2024)
    builders = (
        lambda: make_fock(1),
        lambda: _pac_state(1, 1.0),
        lambda: _pasv_state(1, 1.0),
    )
    worst_d = worst_r = 0.0
    for build in builders:
        st = build()
        base = optimizer.maximize_q(st).dq
        for _ in range(20):
            radius = float(rng.uniform(0.0, 1.0))
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            lam = radius * complex(math.cos(angle), math.sin(angle))
            got = optimizer.maximize_q(displace(st, lam)).dq
            worst_d = max(worst_d, abs(got - base))
        for theta in (0.3, 1.1, 2.7):
            got = optimizer.maximize_q(rotate(st, theta)).dq
            worst_r = max(worst_r, abs(got - base))
    ok = worst_d <= 1e-5 and worst_r <= 1e-9
    _report(
        8, ok, f"worst displacement drift={worst_d:.2e}, worst rotation drift={worst_r:.2e}"
    )


def test_criterion_09_wigner_detection():
    ok = True
    details = []
    for p in (1, 2, 3):
        st = make_fock(p)
        _, val = quasiprob.wigner_min_scan(st, _min_window(st), 101)
        ok = ok and val < -1e-3
        if p == 1:
            pin = abs(val - (-2.0 / math.pi))
            ok = ok and pin <= 1e-6
            details.append(f"single-photon dip pin diff={pin:.2e}")
    for p in (1, 2):
        st = _pac_state(p, 1.0)
        _, val = quasiprob.wigner_min_scan(st, _min_window(st), 101)
        ok = ok and val < -1e-3
    gauss_min = 0.0
    for st in (
        make_coherent(1.2 + 0.5j),
        _svs_deep(1.0, 0.0),
        _svs_deep(0.8, 0.3),
        _svs_deep(1.5, 2.0),
    ):
        _, val = quasiprob.wigner_min_scan(st, _min_window(st), 75)
        gauss_min = min(gauss_min, val)
        ok = ok and val >= -1e-8
    details.append(f"worst Gaussian min={gauss_min:.2e}")
    _report(9, ok, ", ".join(details))


def test_criterion_10_normalization():
    cases = [
        (make_coherent(2.0), 101),
        (make_fock(10), 151),
        (make_squeezed_vacuum(1.0, 0.9), 101),
        (_pac_state(2, 1.5), 101),
        (_pasv_state(2, 1.0, 0.4), 151),
    ]
    worst_q = worst_w = 0.0
    for st, res in cases:
        assert mean_photon(st) <= 10.0
        window = _min_window(st)
        gq = quasiprob.q_grid(st, window, res)
        worst_q = max(worst_q, abs(quasiprob.grid_quadrature(gq) - 1.0))
        gw = quasiprob.wigner_grid(st, window, res)
        worst_w = max(worst_w, abs(quasiprob.grid_quadrature(gw) - 1.0))
    ok = worst_q <= 1e-3 and worst_w <= 1e-2
    _report(10, ok, f"worst |Q quadrature - 1|={worst_q:.2e}, worst |W quadrature - 1|={worst_w:.2e}")


def test_criterion_11_verify_subcommand():
    # the child must import the same package as this process, installed or not
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nonclass.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "nonclass.cli", "verify"],
        capture_output=True,
        text=True,
        env=env,
    )
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and elapsed < 60.0 and "0 failed" in proc.stdout
    _report(
        11,
        ok,
        f"exit={proc.returncode}, {elapsed:.1f}s, "
        f"summary={proc.stdout.strip().splitlines()[-1] if proc.stdout else 'none'!r}",
    )
