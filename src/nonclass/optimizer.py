"""Deterministic maximization of the Husimi density over the phase plane.

With beta = rho e^{i theta}, <beta|psi> = sum_n c_n w_n(rho) e^{-i n theta},
where w_n are the log-domain Bargmann weights of
_kernels.bargmann_weights, so Q = |<beta|psi>|^2 / pi at any radius.
A coarse search over _RINGS concentric rings of the search disk picks the
start: on a ring of _ANGLES equally spaced angles the sum is one FFT of
the terms c_n w_n folded by n mod _ANGLES; when N <= _ANGLES there is
one fold, and the terms are written straight into the FFT's input.
Newton's method on ln Q in polar coordinates polishes it, one (3, N)
product g = _ladder(amps) @ row per point: g[0] gives a trial's Q, an
accepted trial's g the next step's derivatives, whose 2x2 Hessian is
split into eigenpairs in closed form, with no LAPACK call.  Every weight
shifts a _kernels.log_sqrt_poisson row, at radius 1 (rings) or the start
ring's (Newton points); the radius-1 row is built once, the longest so
far kept read-only and sliced.  Polar steps follow the ring-shaped ridge
of a nearly Fock state, where Cartesian steps crawl.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .analytic import dq_from_log_fidelity
from .errors import AccuracyError, ConvergenceError, DomainError, WindowError
from .states import _MAX_CUTOFF, mean_photon

# rings at R (j + 1/2) / (_RINGS - 1/2), j < _RINGS, are R / 49.5 apart,
# the outermost at R; the arc 2 pi R / _ANGLES between angles on it is
# shorter than that spacing
_RINGS = 50
_ANGLES = 320
_MAX_NEWTON_STEPS = 20
TARGET_STEP = 1e-7  # the default bound on the Newton polish's last step
_COARSE_WINDOW = ("search rings out to radius {:.4g} are too far apart for this state: "
                  "Q underflows to 0 on every ring, or the Newton step from the best "
                  "ring point is not finite")
# terms of ring weights built at once, so peak working memory does not grow with N
_BLOCK_TERMS = 2**15
# how far rounding may put pi q_max above 1, the bound of any normalized
# state: measured at most 2.6e-13 (and dq 3.5e-13 off its closed form) over
# 330 seeded coherent inputs up to |alpha| = 400, p <= 10 (N up to 2.5e5)
_PI_Q_ROUNDING = 1e-12


@dataclass(frozen=True)
class NonclassReport:
    """Result of a Q maximization.

    beta_max is where the Newton polish stopped, or the mirror point of
    that stop where Q is mirror-symmetric (see maximize_q), q_max the
    Husimi density at the stop,
    dq = analytic.dq_from_log_fidelity(ln(pi q_max)), the closed forms'
    dq rule too (0 where rounding puts pi q_max above 1 by at most
    1e-12), and final_step (at most target_step) the length of the last
    accepted Newton step, or of the shortest trial when none raised Q.
    analytic.reference_dq gives the closed form, where a family has one.
    """

    beta_max: complex
    q_max: float
    dq: float
    final_step: float


def _ladder(amps):
    """Rows: amplitudes of psi, a psi and a^2 psi; (a psi)_n = sqrt(n+1) c_{n+1}."""
    rows = np.zeros((3, amps.shape[0]), np.complex128)
    root = np.sqrt(np.arange(1.0, amps.shape[0]))
    rows[0] = amps
    np.multiply(root, amps[1:], out=rows[1, :-1])
    np.multiply(root[:-1], rows[1, 1:-1], out=rows[2, :-2])
    return rows


def _bargmann_row(log_w0, rho0, rho, theta):
    """w_n(rho) e^{-i n theta}, so that <beta|psi> = (ladder @ row)[0] at rho e^{i theta}."""
    n = np.arange(log_w0.shape[0])
    return _kernels.bargmann_weights(log_w0, rho0, rho) * np.exp(-1j * theta * n)


def _polar_newton_step(g, rho, theta):
    """Ascent step (d_rho, d_theta) for ln Q at rho e^{i theta}.

    Q = e^{-|beta|^2} |f(z)|^2 / pi with z = conj(beta) and f the Bargmann
    function, so f, f' and f'' at z, which are e^{|beta|^2/2} times the
    coherent overlaps g = (g0, g1, g2), g_k = <beta|a^k psi>, fix the
    derivatives.  With h = g1/g0, w = h z and v = (g2/g0) z^2 - w^2, ln Q
    has gradient (-2 rho + 2 Re w/rho, 2 Im w) and Hessian
    [[-2 + 2 Re v/rho^2, 2 Im(v+w)/rho], [2 Im(v+w)/rho, -2 Re(v+w)]].
    The powers of rho are divided out of w and v by hand, so rho = 0 is
    an ordinary point.  The step is Newton's along each concave
    eigendirection of the Hessian and the gradient along the others.
    The eigenpairs come in closed form, in Python floats: a diagonal
    Hessian (cross == 0, as at the vacuum) keeps the coordinate axes
    exactly, where an angle from atan2 would leave cos(pi/2) ~ 6e-17.
    """
    g0, g1, g2 = g
    # numpy divides, as Python's complex division rounds differently; the
    # products and sums round alike in Python complex, at less cost
    h = complex(g1 / g0)
    e = cmath.exp(-1j * theta)
    w1 = h * e  # w / rho
    v2 = (complex(g2 / g0) - h * h) * e * e  # v / rho^2
    u = v2 * rho + w1
    grad_rho, grad_theta = -2.0 * rho + 2.0 * w1.real, 2.0 * rho * w1.imag
    a, c, cross = -2.0 + 2.0 * v2.real, -2.0 * rho * u.real, 2.0 * u.imag
    # eigenpairs (l1, (x, y)) and (l2, (-y, x))
    if cross == 0.0:
        l1, l2, x, y = a, c, 1.0, 0.0
    else:
        # (x, y) along l1, the larger, from a sum that cannot cancel
        half, mid = 0.5 * (a - c), 0.5 * (a + c)
        radius = math.hypot(half, cross)
        t = abs(half) + radius
        norm = math.hypot(t, cross)
        x, y = (t / norm, cross / norm) if half >= 0.0 else (cross / norm, t / norm)
        l1, l2 = mid + radius, mid - radius
    s1 = x * grad_rho + y * grad_theta
    s2 = x * grad_theta - y * grad_rho
    if l1 < 0.0:
        s1 /= -l1
    if l2 < 0.0:
        s2 /= -l2
    return s1 * x - s2 * y, s1 * y + s2 * x


# the longest radius-1 row built so far, read-only; its split cumulative
# sums run in order, so each prefix is bit-identical to a shorter fresh row.
# Kept because it pays: a fresh row costs 13 us at N = 38 (2-core VM), 3% of a light search
_row_at_one = np.empty(0)


def _radius_one_row(n_amp):
    """ln w_n(1) for n < n_amp: a slice of the longest row built so far,
    grown on demand up to _MAX_CUTOFF + 1 amplitudes (2 MB), never past."""
    global _row_at_one
    row = _row_at_one
    if n_amp > row.shape[0]:
        row = _kernels.log_sqrt_poisson(1.0, n_amp)
        row.flags.writeable = False
        if n_amp <= _MAX_CUTOFF + 1:
            _row_at_one = row
    return row[:n_amp]


def _ring_values(amps, rings):
    """pi Q on _ANGLES equally spaced angles of each ring, one row per ring.

    The weights, shifted from one row at radius 1, come at most
    _BLOCK_TERMS terms per block of rings (one ring when N alone exceeds it).
    When N fits one fold (N <= _ANGLES) the terms are written straight into
    the folded rows, whose tails stay 0.
    """
    n_amp = amps.shape[0]
    log_w1 = _radius_one_row(n_amp)
    width = math.ceil(n_amp / _ANGLES) * _ANGLES
    one_fold = width == _ANGLES
    block = max(1, _BLOCK_TERMS // n_amp)
    folded = (np.zeros if one_fold else np.empty)((rings.size, _ANGLES), np.complex128)
    for j in range(0, rings.size, block):
        column = rings[j:j + block, None]
        terms = folded[j:j + block] if one_fold else np.zeros((column.shape[0], width), np.complex128)
        np.multiply(amps, _kernels.bargmann_weights(log_w1, 1.0, column), out=terms[:, :n_amp])
        if not one_fold:
            terms.reshape(column.shape[0], -1, _ANGLES).sum(axis=1, out=folded[j:j + block])
    ov = np.fft.fft(folded, axis=1)
    parts = ov.view(np.float64)
    np.square(parts, out=parts)
    return np.add(parts[:, 0::2], parts[:, 1::2])


def _search_radius(state):
    """3 sqrt(<n>) + 5, generous for any state whose support the cutoff
    certifies; quasiprob.display_window's square is 2 sqrt(<n>) + 5."""
    return 3.0 * math.sqrt(mean_photon(state)) + 5.0


def check_target_step(target_step):
    """Refuse a target_step that is not finite and positive (DomainError)."""
    if not 0.0 < target_step < math.inf:
        raise DomainError(f"target_step must be finite and positive, got {target_step}")


def maximize_q(state, target_step=TARGET_STEP):
    """Locate the peak Husimi density of a truncated state.

    The search disk is _search_radius(state); target_step bounds the
    Newton polish's last step.  Raises WindowError when the best coarse
    point lies on the outermost ring, or when the rings are too far
    apart to see the state: every ring value is 0, or the Newton step
    from the best one is not finite.  Raises ConvergenceError when the
    Newton polish has not stopped after _MAX_NEWTON_STEPS steps, and
    AccuracyError when pi q_max exceeds 1 by more than the rounding
    bound _PI_Q_ROUNDING = 1e-12.

    Where Q has symmetries, rounding does not pick beta_max among the
    peaks they make; both are read from _kernels.support(amplitudes).
    With one non-zero amplitude (first == last), Q is the same at every
    angle: the polish moves the radius alone, from angle 0.  When every
    non-zero amplitude index has one parity (an even gap: squeezed vacua,
    photons added or not; number states), Q(-beta) = Q(beta), and
    beta_max is the peak with Re beta > 0, or Re beta = 0 and Im beta >= 0.
    """
    check_target_step(target_step)
    radius = _search_radius(state)
    amps = state.amplitudes
    first, last, gap = _kernels.support(amps)
    # a step along the ring of a rotation-invariant Q would follow rounding alone
    rotation_invariant = first == last
    rings = radius * (np.arange(_RINGS) + 0.5) / (_RINGS - 0.5)
    values = _ring_values(amps, rings)
    j, m = divmod(int(np.argmax(values)), _ANGLES)  # first occurrence
    if j == _RINGS - 1:
        raise WindowError(
            f"Q optimum sits on the search boundary at radius {radius:.4g}: "
            "the search disk does not hold the peak"
        )
    if rotation_invariant:
        m = 0
    q = float(values[j, m]) / math.pi
    if q == 0.0:
        raise WindowError(_COARSE_WINDOW.format(radius))
    rho, theta = float(rings[j]), 2.0 * math.pi * m / _ANGLES
    cell = float(rings[1] - rings[0])
    ladder = _ladder(amps)
    rho0, log_w0 = rho, _kernels.log_sqrt_poisson(rho, amps.shape[0])
    g = ladder @ _bargmann_row(log_w0, rho0, rho, theta)
    for _ in range(_MAX_NEWTON_STEPS):
        d_rho, d_theta = _polar_newton_step(g, rho, theta)
        if rotation_invariant:
            d_theta = 0.0
        length = math.hypot(d_rho, rho * d_theta)
        if not math.isfinite(length):
            raise WindowError(_COARSE_WINDOW.format(radius))
        if length > cell:
            d_rho, d_theta, length = d_rho * cell / length, d_theta * cell / length, cell
        # halve the step until Q rises or the step is down to target_step
        s = 1.0
        while True:
            r, t = rho + s * d_rho, theta + s * d_theta
            if r < 0.0:
                r, t = -r, t + math.pi
            g_trial = ladder @ _bargmann_row(log_w0, rho0, r, t)
            q_trial = float(g_trial[0].real**2 + g_trial[0].imag**2) / math.pi
            if q_trial > q or length * s <= target_step:
                break
            s *= 0.5
        step = length * s
        if q_trial > q:
            rho, theta, q, g = r, t, q_trial, g_trial
        if step <= target_step:
            break
    else:
        raise ConvergenceError(f"Newton step {step:.3e} still above target "
                               f"{target_step:.3e} after {_MAX_NEWTON_STEPS} steps")
    if math.pi * q - 1.0 > _PI_Q_ROUNDING:
        raise AccuracyError(f"pi q_max = 1 + {math.pi * q - 1.0:.3e} exceeds 1 by more than rounding")
    dq = dq_from_log_fidelity(math.log(math.pi * q))
    beta = cmath.rect(rho, theta)
    # an even gap: <-beta|psi> = +-<beta|psi> term by term, so Q(-beta) = Q(beta)
    if gap % 2 == 0 and (beta.real < 0.0 or (beta.real == 0.0 and beta.imag < 0.0)):
        beta = -beta
    return NonclassReport(beta, q, dq, float(step))
