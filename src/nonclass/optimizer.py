"""Deterministic maximization of the Husimi density over the phase plane.

A coarse lattice over the square that bounds the search disk picks the
start, and Newton's method on ln Q in polar coordinates beta = rho e^{i theta}
polishes it.  Polar steps follow the ring-shaped ridge of a nearly Fock
state, along which a Cartesian step only crawls.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConvergenceError, DomainError, WindowError
from .quasiprob import _husimi, _row_major
from .states import PhasePoint, mean_photon

# even, so the origin, where polar coordinates are singular, is never a
# lattice point
_COARSE_RESOLUTION = 100
_MAX_NEWTON_STEPS = 20


@dataclass(frozen=True)
class OptOptions:
    """Search controls.

    window_radius defaults to 3*sqrt(<n>)+5, generous for any state whose
    support the cutoff certifies; target_step bounds the last Newton step.
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
    """Amplitudes of psi, a psi and a^2 psi; (a psi)_n = sqrt(n+1) c_{n+1}."""
    c = np.concatenate([amps, np.zeros(2)])
    root = np.sqrt(np.arange(1.0, c.size))
    a1 = root * c[1:]
    return amps, a1, root[:-1] * a1[1:]


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
    beta = np.array([rho * cmath.exp(1j * theta)])
    g0, g1, g2 = (_kernels.coherent_overlaps(a, beta)[0] for a in ladder)
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


def maximize_q(state, opts=None):
    """Locate the peak Husimi density of a truncated state.

    Raises WindowError when the coarse optimum lands on the outer window
    boundary (enlarge window_radius) and ConvergenceError when the
    Newton polish has not stopped after _MAX_NEWTON_STEPS steps.
    """
    if opts is None:
        opts = OptOptions()
    radius = opts.window_radius
    if radius is None:
        radius = 3.0 * math.sqrt(max(mean_photon(state), 0.0)) + 5.0
    amps = state.amplitudes
    res = _COARSE_RESOLUTION
    xs = np.linspace(-radius, radius, res)
    values = _husimi(amps, _row_major(xs, xs))
    iy, ix = divmod(int(np.argmax(values)), res)  # first occurrence
    if iy in (0, res - 1) or ix in (0, res - 1):
        raise WindowError(
            f"Q optimum sits on the search boundary at radius {radius:.4g}; "
            "increase window_radius"
        )
    q, beta = float(values[iy * res + ix]), complex(xs[ix], xs[iy])
    rho, theta = cmath.polar(beta)
    cell = float(xs[1] - xs[0])
    ladder = _ladder(amps)
    for _ in range(_MAX_NEWTON_STEPS):
        d_rho, d_theta = _polar_newton_step(ladder, rho, theta)
        length = math.hypot(d_rho, rho * d_theta)
        if length > cell:
            d_rho, d_theta, length = d_rho * cell / length, d_theta * cell / length, cell
        s = [1.0]
        while length * s[-1] > opts.target_step:
            s.append(0.5 * s[-1])
        s = np.array(s)
        trials = (rho + s * d_rho) * np.exp(1j * (theta + s * d_theta))
        q_trial = _husimi(amps, trials)
        rises = np.flatnonzero(q_trial > q)
        if rises.size == 0:
            step = length * s[-1]
            break
        i = int(rises[0])
        rho, theta = rho + s[i] * d_rho, theta + s[i] * d_theta
        q, beta = float(q_trial[i]), complex(trials[i])
        step = length * s[i]
        if step <= opts.target_step:
            break
    else:
        raise ConvergenceError(f"Newton step {step:.3e} still above target "
                               f"{opts.target_step:.3e} after {_MAX_NEWTON_STEPS} steps")
    dq = min(1.0, max(0.0, 1.0 - math.pi * q))
    return NonclassReport(PhasePoint(beta.real, beta.imag), q, dq, float(step))
