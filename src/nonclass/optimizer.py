"""Deterministic maximization of the Husimi density over the phase plane.

A multi-scale zoom grid search: sample Q on a coarse lattice covering the
square that bounds the search disk, then repeatedly re-grid a window of
two coarse steps around the best cell at a finer spacing until the
lattice step reaches the target.  Grid search (rather than gradient
ascent) keeps the result deterministic and handles the ring-shaped
maximizer sets of Fock states gracefully.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, WindowError
from .quasiprob import _husimi, _row_major
from .states import PhasePoint, mean_photon

_MAX_RECENTERS_PER_LEVEL = 8


@dataclass(frozen=True)
class OptOptions:
    """Search controls.

    window_radius defaults to 3*sqrt(<n>)+5, generous for any state whose
    support the cutoff certifies.  Each zoom level shrinks the lattice
    step by zoom_factor while keeping the previous best point on the new
    lattice, so the best value can only improve.
    """

    window_radius: float | None = None
    coarse_resolution: int = 101
    zoom_factor: float = 10.0
    target_step: float = 1e-7
    max_zoom_levels: int = 10

    def __post_init__(self):
        if self.window_radius is not None and not self.window_radius > 0.0:
            raise DomainError("window_radius must be positive")
        if self.coarse_resolution < 3:
            raise DomainError("coarse_resolution must be at least 3")
        if not self.zoom_factor > 1.0:
            raise DomainError("zoom_factor must exceed 1")
        if not self.target_step > 0.0:
            raise DomainError("target_step must be positive")
        if self.max_zoom_levels < 0:
            raise DomainError("max_zoom_levels must be nonnegative")


@dataclass(frozen=True)
class NonclassReport:
    """Result of a Q maximization.

    beta_max is the best lattice point, q_max the Husimi density there,
    dq = 1 - pi * q_max clipped to [0, 1], and final_step the lattice
    step of the last zoom level.  The closed-form value, where a family
    has one, comes from analytic.reference_dq.
    """

    beta_max: PhasePoint
    q_max: float
    dq: float
    final_step: float


def _q_on_lattice(amps, xs, ys):
    return _husimi(amps, _row_major(xs, ys)).reshape(ys.size, xs.size)


def _argbest(values):
    flat = int(np.argmax(values))  # first occurrence = smallest (row, col)
    return divmod(flat, values.shape[1])


def maximize_q(state, opts=None):
    """Locate the peak Husimi density of a truncated state.

    Raises WindowError when the coarse optimum lands on the outer window
    boundary (enlarge window_radius) and ConvergenceError when the zoom
    budget runs out before the lattice step reaches target_step.
    """
    if opts is None:
        opts = OptOptions()
    radius = opts.window_radius
    if radius is None:
        radius = 3.0 * math.sqrt(max(mean_photon(state), 0.0)) + 5.0
    amps = state.amplitudes
    res = int(opts.coarse_resolution)
    xs = np.linspace(-radius, radius, res)
    ys = np.linspace(-radius, radius, res)
    values = _q_on_lattice(amps, xs, ys)
    iy, ix = _argbest(values)
    if iy in (0, res - 1) or ix in (0, res - 1):
        raise WindowError(
            f"Q optimum sits on the search boundary at radius {radius:.4g}; "
            "increase window_radius"
        )
    best_q = float(values[iy, ix])
    best_x, best_y = float(xs[ix]), float(ys[iy])
    step = float(xs[1] - xs[0])

    shrinks = 0
    recenters = 0
    while step > opts.target_step:
        if shrinks >= opts.max_zoom_levels:
            raise ConvergenceError(
                f"step {step:.3e} above target {opts.target_step:.3e} after "
                f"{opts.max_zoom_levels} zoom levels"
            )
        sub = 4 * int(math.ceil(opts.zoom_factor)) + 1
        offs = np.linspace(-2.0 * step, 2.0 * step, sub)
        fine_step = float(offs[1] - offs[0])
        fx = best_x + offs
        fy = best_y + offs
        vals = _q_on_lattice(amps, fx, fy)
        jy, jx = _argbest(vals)
        cand = float(vals[jy, jx])
        improved = cand > best_q
        if improved:
            best_q = cand
            best_x, best_y = float(fx[jx]), float(fy[jy])
        on_edge = jy in (0, sub - 1) or jx in (0, sub - 1)
        if on_edge and improved and recenters < _MAX_RECENTERS_PER_LEVEL:
            # The peak leaked out of the refinement window: re-grid at the
            # same scale around the new best before shrinking.  The cap
            # keeps degenerate ridge maxima (Fock rings, where float noise
            # makes argmax wander the ring) from stalling the zoom; value
            # error from cutting the walk short is at noise level.
            recenters += 1
            continue
        step = fine_step
        shrinks += 1
        recenters = 0

    dq = min(1.0, max(0.0, 1.0 - math.pi * best_q))
    return NonclassReport(
        beta_max=PhasePoint(best_x, best_y),
        q_max=best_q,
        dq=dq,
        final_step=step,
    )
