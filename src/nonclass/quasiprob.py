"""Husimi and Wigner evaluation on points and phase-space grids.

The Husimi density is Q(beta) = |<beta|psi>|^2 / pi, bounded by 1/pi.
The Wigner function is the displaced parity (2/pi) <psi|D(2 beta) P|psi>,
evaluated by _kernels.wigner_values as sums over the Fock diagonals
conj(c_{n+k}) c_n, each weighted by a stable three-term chain of bounded
Laguerre matrix elements.  Grids sample cell centers, so summing values
times the cell area is the midpoint quadrature rule.  The centers of res
cells on [lo, hi] are (lo + half) + half (2j + 1 - res)/res with
half = (hi - lo)/2 (_cell_centers, the one definition behind every grid
and CSV): on a window symmetric about 0 they are mirror-exact,
c_{res-1-j} = -c_j bit for bit, so the points of one symmetry orbit of
a square symmetric window share one radius and the Wigner kernel runs
each of its chains once per orbit.  A state whose Fock support has one
parity (Fock states, squeezed vacua with photons added or not) has
Q(-beta) = Q(beta) and W(-beta) = W(beta) bit for bit.  One lattice
builder (_lattice) serves q_grid and wigner_grid: on a symmetric window
it evaluates half the cells of such a state and mirrors the rest
(_mirrored_cells), and the output keeps its bytes.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, analytic
from .errors import DomainError
from .states import mean_photon

# points per block of a Q grid: a block's complex working arrays (128 KB
# each) stay in a core's L2 cache, where a whole 401^2 lattice (2.5 MB an
# array) does not
_BLOCK_POINTS = 1 << 13
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
    values: np.ndarray

    @property
    def resolution(self):
        """Cells a side."""
        return self.values.shape[0]

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
    """Midpoints of res equal cells, j = 0..res-1, mirror-exact on a symmetric window.

    With half = (hi - lo)/2 the center is (lo + half) + half t_j, where
    t_j = (2j + 1 - res)/res.  The integer 2j + 1 - res is exact and
    changes sign under j -> res-1-j, so t_{res-1-j} = -t_j bit for bit;
    for lo = -hi, lo + half is exactly +0, so the centers satisfy
    c_{res-1-j} = -c_j exactly and the middle center of an odd res is
    +0.0.  |t_j| < 1, so no finite window of finite width overflows.
    """
    half = 0.5 * (hi - lo)
    return (lo + half) + half * ((2.0 * np.arange(res) + (1 - res)) / res)


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
    radius = 2.0 * math.sqrt(mean_photon(state)) + 5.0
    return (-radius, radius, -radius, radius)


def q_value(state, beta):
    """Husimi density at one complex point beta; a non-finite beta raises DomainError."""
    beta = analytic._finite("beta", complex(beta))
    return float(_husimi(state.amplitudes, np.array([beta]))[0])


def check_resolution(resolution):
    """resolution as an int: DomainError unless an integer >= 1 with res^2 <= MAX_GRID_CELLS."""
    res = analytic._integer("resolution", resolution, 1)
    if res**2 > MAX_GRID_CELLS:
        raise DomainError(f"resolution {res} gives {res**2} cells, above the limit {MAX_GRID_CELLS}")
    return res


def check_window(window, resolution):
    """(x_min, x_max, y_min, y_max, res) of a grid; DomainError for a bad window or resolution."""
    x_min, x_max, y_min, y_max = (analytic._finite("window bounds", float(x)) for x in window)
    if not (x_min < x_max and y_min < y_max):
        raise DomainError("window must satisfy x_min < x_max and y_min < y_max")
    if not (math.isfinite(x_max - x_min) and math.isfinite(y_max - y_min)):
        raise DomainError(
            f"window width and height must be finite, got {x_max - x_min} and {y_max - y_min}"
        )
    return x_min, x_max, y_min, y_max, check_resolution(resolution)


def _mirrored_cells(state, x_min, x_max, y_min, y_max, res):
    """Row-major cells a grid evaluates: ceil(res^2/2) when the rest are mirror images, else res^2.

    The rest mirror when the window is exactly symmetric about 0 and the
    state's support gap (_kernels.support) is even, 0 included, so that
    every non-zero amplitude has one parity.  Cell n-1-i of the n = res^2
    then has the bits of cell i, so flat[n-1-i] = flat[i] gives what the
    kernel gives:
    - the centers are mirror-exact (_cell_centers), so cell n-1-i sits
      at -beta_i, up to the sign of a zero coordinate, and a zero part
      changes no non-zero bit of either kernel;
    - Q: coherent_overlaps negates each term exactly at -beta (a sign
      flip commutes with rounding) and skips zero amplitudes, so the
      overlap at -beta is +-1 times the one at beta, and |.|^2 is equal;
    - W: only even k pass the gcd filter of _wigner_diagonals, where
      (-u)^k = u^k exactly, and -beta has the same radius, so the same
      chain values;
    - both: a point's bits do not depend on its batch, so the first half
      has the bits it has in the whole lattice.
    """
    if x_min == -x_max and y_min == -y_max and _kernels.support(state.amplitudes)[2] % 2 == 0:
        return (res * res + 1) // 2
    return res * res


def _lattice(state, window, resolution, values, block):
    """values(amplitudes, points) at the cell centers of a window, as a QGrid.

    Row-major blocks of whole rows, about block points each, up to the last
    cell _mirrored_cells asks for; the cells past it are mirror copies.
    """
    x_min, x_max, y_min, y_max, res = check_window(window, resolution)
    cells = _mirrored_cells(state, x_min, x_max, y_min, y_max, res)
    xs = _cell_centers(x_min, x_max, res)
    ys = _cell_centers(y_min, y_max, res)[: -(-cells // res)]  # the rows the cells reach
    vals = np.empty((res, res))
    flat = vals.reshape(-1)  # a view: the rows are contiguous
    rows = max(1, block // res)
    for start in range(0, ys.size, rows):
        lo, hi = start * res, min((start + rows) * res, cells)
        flat[lo:hi] = values(state.amplitudes, _row_major(xs, ys[start : start + rows])[: hi - lo])
    flat[cells:] = flat[: flat.size - cells][::-1]
    return QGrid(x_min, x_max, y_min, y_max, vals)


def q_grid(state, window, resolution):
    """Husimi density at the cell centers of window (x_min, x_max, y_min, y_max), as q_value."""
    return _lattice(state, window, resolution, _husimi, _BLOCK_POINTS)


def wigner_grid(state, window, resolution):
    """Wigner function at the cell centers of a window; one block, so one kernel call."""
    return _lattice(state, window, resolution, _kernels.wigner_values, MAX_GRID_CELLS)


def grid_quadrature(grid):
    """Midpoint-rule integral of the sampled surface."""
    return float(np.sum(grid.values) * grid.cell_area())


def wigner_min_scan(state, window, resolution):
    """Locate the minimum of W on a window: coarse scan plus one zoom.

    Returns (beta, value) with beta a complex.  The zoom is a wigner_grid
    of 4 * _MIN_SCAN_ZOOM cells a side on the square four coarse cells wide
    about the best cell, clipped to the window, so it is _MIN_SCAN_ZOOM
    times finer where unclipped and never leaves the scanned window.
    """
    grid = wigner_grid(state, window, resolution)
    iy, ix = divmod(int(np.argmin(grid.values)), grid.resolution)
    cx, cy = grid.x_centers()[ix], grid.y_centers()[iy]
    dx, dy = grid.cell_widths()
    box = (max(cx - 2.0 * dx, grid.x_min), min(cx + 2.0 * dx, grid.x_max),
           max(cy - 2.0 * dy, grid.y_min), min(cy + 2.0 * dy, grid.y_max))
    if box[0] < box[1] and box[2] < box[3]:  # else the cells are too narrow to zoom into
        zoom = wigner_grid(state, box, 4 * _MIN_SCAN_ZOOM)
        jy, jx = divmod(int(np.argmin(zoom.values)), zoom.resolution)
        if zoom.values[jy, jx] < grid.values[iy, ix]:
            grid, iy, ix = zoom, jy, jx
    return complex(grid.x_centers()[ix], grid.y_centers()[iy]), float(grid.values[iy, ix])
