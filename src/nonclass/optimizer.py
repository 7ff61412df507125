"""Deterministic maximization of the Husimi density over the phase plane.

With beta = rho e^{i theta}, <beta|psi> = sum_n c_n w_n(rho) e^{-i n theta},
where w_n are the log-domain Bargmann weights of
_kernels.bargmann_weights, so Q = |<beta|psi>|^2 / pi at any radius.
A coarse search over _RINGS concentric rings of the search disk picks the
start: on a ring of _ANGLES equally spaced angles the sum is one FFT of
the terms c_n w_n folded by n mod _ANGLES.  Newton's method on ln Q in
polar coordinates polishes it, evaluating every point with the same
weights.  Polar steps follow the ring-shaped ridge of a nearly Fock
state, along which a Cartesian step only crawls.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConvergenceError, DomainError, WindowError
from .states import PhasePoint, mean_photon

# rings at R (j + 1/2) / (_RINGS - 1/2), j < _RINGS, are R / 49.5 apart,
# the outermost at R; the arc 2 pi R / _ANGLES between angles on it is
# shorter than that spacing
_RINGS = 50
_ANGLES = 320
_MAX_NEWTON_STEPS = 20


@dataclass(frozen=True)
class OptOptions:
    """Search controls.

    window_radius is the radius of the search disk about the origin,
    by default 3*sqrt(<n>)+5, generous for any state whose support the
    cutoff certifies; target_step bounds the last Newton step.
    """

    window_radius: float | None = None
    target_step: float = 1e-7

    def __post_init__(self):
        if self.window_radius is not None and not self.window_radius > 0.0:
            raise DomainError("window_radius must be positive")
        if not self.target_step > 0.0:
            raise DomainError("target_step must be positive")


@dataclass(frozen=True)
class NonclassReport:
    """Result of a Q maximization.

    beta_max is where the Newton polish stopped, q_max the Husimi density
    there, dq = 1 - pi * q_max clipped to [0, 1], and final_step (at most
    target_step) the length of the last accepted Newton step, or of the
    shortest trial when none raised Q.  analytic.reference_dq gives the
    closed form, where a family has one.
    """

    beta_max: PhasePoint
    q_max: float
    dq: float
    final_step: float


def _ladder(amps):
    """Rows: amplitudes of psi, a psi and a^2 psi; (a psi)_n = sqrt(n+1) c_{n+1}."""
    c = np.concatenate([amps, np.zeros(2)])
    root = np.sqrt(np.arange(1.0, c.size))
    a1 = root * c[1:]
    return np.stack([amps, a1[:-1], root[:-1] * a1[1:]])


def _bargmann_row(n_amp, rho, theta):
    """w_n(rho) e^{-i n theta}, so that <beta|psi> = amps @ row at rho e^{i theta}."""
    return _kernels.bargmann_weights(n_amp, rho) * np.exp(-1j * theta * np.arange(n_amp))


def _polar_newton_step(ladder, rho, theta):
    """Ascent step (d_rho, d_theta) for ln Q at rho e^{i theta}.

    Q = e^{-|beta|^2} |f(z)|^2 / pi with z = conj(beta) and f the Bargmann
    function, so f, f' and f'' at z, which are e^{|beta|^2/2} times the
    coherent overlaps g_k = <beta|a^k psi>, fix the derivatives.  With
    h = g1/g0, w = h z and v = (g2/g0) z^2 - w^2, ln Q has gradient
    (-2 rho + 2 Re w/rho, 2 Im w) and Hessian
    [[-2 + 2 Re v/rho^2, 2 Im(v+w)/rho], [2 Im(v+w)/rho, -2 Re(v+w)]].
    The powers of rho are divided out of w and v by hand, so rho = 0 is
    an ordinary point.  The step is Newton's along each concave
    eigendirection of the Hessian and the gradient along the others.
    """
    g0, g1, g2 = ladder @ _bargmann_row(ladder.shape[1], rho, theta)
    h = g1 / g0
    e = cmath.exp(-1j * theta)
    w1 = h * e  # w / rho
    v2 = (g2 / g0 - h * h) * e * e  # v / rho^2
    cross = 2.0 * (v2 * rho + w1).imag
    grad = np.array([-2.0 * rho + 2.0 * w1.real, 2.0 * rho * w1.imag])
    hess = np.array([[-2.0 + 2.0 * v2.real, cross],
                     [cross, -2.0 * rho * (v2 * rho + w1).real]])
    lam, vec = np.linalg.eigh(hess)
    return vec @ [c / -l if l < 0.0 else c for c, l in zip(vec.T @ grad, lam)]


def _ring_values(amps, rings):
    """pi Q on _ANGLES equally spaced angles of each ring, one row per ring."""
    n_amp = amps.shape[0]
    terms = np.zeros(math.ceil(n_amp / _ANGLES) * _ANGLES, np.complex128)
    folded = np.empty((rings.size, _ANGLES), np.complex128)
    for j, rho in enumerate(rings):
        np.multiply(amps, _kernels.bargmann_weights(n_amp, rho), out=terms[:n_amp])
        terms.reshape(-1, _ANGLES).sum(axis=0, out=folded[j])
    ov = np.fft.fft(folded, axis=1)
    return ov.real**2 + ov.imag**2


def maximize_q(state, opts=None):
    """Locate the peak Husimi density of a truncated state.

    Raises WindowError when the best coarse point lies on the outermost
    ring (enlarge window_radius) and ConvergenceError when the Newton
    polish has not stopped after _MAX_NEWTON_STEPS steps.
    """
    if opts is None:
        opts = OptOptions()
    radius = opts.window_radius
    if radius is None:
        radius = 3.0 * math.sqrt(max(mean_photon(state), 0.0)) + 5.0
    amps = state.amplitudes
    n_amp = amps.shape[0]
    rings = radius * (np.arange(_RINGS) + 0.5) / (_RINGS - 0.5)
    values = _ring_values(amps, rings)
    j, m = divmod(int(np.argmax(values)), _ANGLES)  # first occurrence
    if j == _RINGS - 1:
        raise WindowError(
            f"Q optimum sits on the search boundary at radius {radius:.4g}; "
            "increase window_radius"
        )
    q = float(values[j, m]) / math.pi
    rho, theta = float(rings[j]), 2.0 * math.pi * m / _ANGLES
    cell = float(rings[1] - rings[0])
    ladder = _ladder(amps)
    for _ in range(_MAX_NEWTON_STEPS):
        d_rho, d_theta = _polar_newton_step(ladder, rho, theta)
        length = math.hypot(d_rho, rho * d_theta)
        if length > cell:
            d_rho, d_theta, length = d_rho * cell / length, d_theta * cell / length, cell
        # halve the step until Q rises or the step is down to target_step
        s = 1.0
        while True:
            r, t = rho + s * d_rho, theta + s * d_theta
            if r < 0.0:
                r, t = -r, t + math.pi
            ov = amps @ _bargmann_row(n_amp, r, t)
            q_trial = float(ov.real**2 + ov.imag**2) / math.pi
            if q_trial > q or length * s <= opts.target_step:
                break
            s *= 0.5
        step = length * s
        if q_trial > q:
            rho, theta, q = r, t, q_trial
        if step <= opts.target_step:
            break
    else:
        raise ConvergenceError(f"Newton step {step:.3e} still above target "
                               f"{opts.target_step:.3e} after {_MAX_NEWTON_STEPS} steps")
    beta = cmath.rect(rho, theta)
    dq = min(1.0, max(0.0, 1.0 - math.pi * q))
    return NonclassReport(PhasePoint(beta.real, beta.imag), q, dq, float(step))
