"""Husimi and Wigner evaluation on points and phase-space grids.

The Husimi density is Q(beta) = |<beta|psi>|^2 / pi, bounded by 1/pi.
The Wigner function is evaluated by the displaced-parity sum
W(beta) = (2/pi) sum_m (-1)^m |<m|D(-beta)|psi>|^2, which stays inside
[-2/pi, 2/pi] by construction.  Grids sample cell centers, so summing
values times the cell area is the midpoint quadrature rule.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError
from .states import mean_photon

WIGNER_GUARD = 30.0
# most cells a grid may have (res^2 <= 4096^2), checked before anything is allocated
MAX_GRID_CELLS = 4096**2
_MIN_SCAN_ZOOM = 10


@dataclass(frozen=True, eq=False)
class QGrid:
    """Values of Q or W sampled at the cell centers of a rectangle.

    values[i][j] holds the point (x_centers[j], y_centers[i]); rows scan
    y, columns scan x.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    resolution: int
    values: np.ndarray

    def cell_widths(self):
        """(dx, dy), the sides of one cell."""
        res = self.resolution
        return (self.x_max - self.x_min) / res, (self.y_max - self.y_min) / res

    def cell_area(self):
        dx, dy = self.cell_widths()
        return dx * dy

    def x_centers(self):
        return _cell_centers(self.x_min, self.x_max, self.resolution)

    def y_centers(self):
        return _cell_centers(self.y_min, self.y_max, self.resolution)


def _cell_centers(lo, hi, res):
    """Midpoints lo + (hi - lo)/res * (j + 1/2), j = 0..res-1, of res equal cells."""
    return lo + (hi - lo) / res * (np.arange(res) + 0.5)


def _row_major(xs, ys):
    """Points x + iy of the lattice xs by ys, x varying fastest."""
    return (xs[None, :] + 1j * ys[:, None]).ravel()


def _husimi(amps, betas):
    """Q = |<beta|psi>|^2 / pi at each of betas."""
    ov = _kernels.coherent_overlaps(amps, betas)
    return (ov.real**2 + ov.imag**2) / math.pi


def display_window(state):
    """Default window (x_min, x_max, y_min, y_max) for tabulating Q or W.

    A square about the origin of half-width 2 sqrt(<n>) + 5.
    """
    radius = 2.0 * math.sqrt(max(mean_photon(state), 0.0)) + 5.0
    return (-radius, radius, -radius, radius)


def q_value(state, beta):
    """Husimi density at one complex point beta."""
    return float(_husimi(state.amplitudes, np.array([complex(beta)]))[0])


def _check_window(window, resolution):
    x_min, x_max, y_min, y_max = map(float, window)
    if not all(map(math.isfinite, (x_min, x_max, y_min, y_max))):
        raise DomainError(f"window bounds must be finite, got {(x_min, x_max, y_min, y_max)}")
    if not (x_min < x_max and y_min < y_max):
        raise DomainError("window must satisfy x_min < x_max and y_min < y_max")
    if resolution < 1 or resolution != int(resolution):
        raise DomainError(f"resolution must be a positive integer, got {resolution}")
    if int(resolution) ** 2 > MAX_GRID_CELLS:
        raise DomainError(
            f"resolution {resolution} gives {int(resolution) ** 2} cells, "
            f"above the limit {MAX_GRID_CELLS}"
        )
    return x_min, x_max, y_min, y_max, int(resolution)


def _center_lattice(x_min, x_max, y_min, y_max, res):
    return _row_major(_cell_centers(x_min, x_max, res), _cell_centers(y_min, y_max, res))


def q_grid(state, window, resolution):
    """Husimi density on the cell-center lattice of a window.

    window is (x_min, x_max, y_min, y_max).
    """
    x_min, x_max, y_min, y_max, res = _check_window(window, resolution)
    betas = _center_lattice(x_min, x_max, y_min, y_max, res)
    vals = _husimi(state.amplitudes, betas)
    return QGrid(x_min, x_max, y_min, y_max, res, vals.reshape(res, res))


def wigner_grid(state, window, resolution):
    """Wigner function on the cell-center lattice of a window."""
    x_min, x_max, y_min, y_max, res = _check_window(window, resolution)
    if max(abs(x_min), abs(x_max)) ** 2 + max(abs(y_min), abs(y_max)) ** 2 > WIGNER_GUARD**2:
        raise DomainError("window corner exceeds the Wigner guard radius")
    betas = _center_lattice(x_min, x_max, y_min, y_max, res)
    vals = _kernels.wigner_values(state.amplitudes, betas)
    return QGrid(x_min, x_max, y_min, y_max, res, vals.reshape(res, res))


def grid_quadrature(grid):
    """Midpoint-rule integral of the sampled surface."""
    return float(np.sum(grid.values) * grid.cell_area())


def wigner_min_scan(state, window, resolution):
    """Locate the minimum of W on a window: coarse scan plus one zoom.

    Returns (beta, value) with beta a complex.  The refinement re-grids a
    window of two coarse cells around the best cell, _MIN_SCAN_ZOOM times finer.
    """
    grid = wigner_grid(state, window, resolution)
    flat = int(np.argmin(grid.values))
    iy, ix = divmod(flat, grid.resolution)
    xs, ys = grid.x_centers(), grid.y_centers()
    cx, cy = float(xs[ix]), float(ys[iy])
    best_val = float(grid.values[iy, ix])
    best_pt = (cx, cy)

    dx, dy = grid.cell_widths()
    sub = 4 * _MIN_SCAN_ZOOM + 1
    fine_x = cx + np.linspace(-2.0 * dx, 2.0 * dx, sub)
    fine_y = cy + np.linspace(-2.0 * dy, 2.0 * dy, sub)
    betas = _row_major(fine_x, fine_y)
    vals = _kernels.wigner_values(state.amplitudes, betas)
    j = int(np.argmin(vals))
    if vals[j] < best_val:
        best_val = float(vals[j])
        jy, jx = divmod(j, sub)
        best_pt = (float(fine_x[jx]), float(fine_y[jy]))
    return complex(best_pt[0], best_pt[1]), best_val
