"""Husimi and Wigner evaluation on points and grids, quadrature."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from nonclass import _kernels, cli, optimizer, quasiprob, states
from nonclass.errors import DomainError
from nonclass.quasiprob import (
    grid_quadrature,
    q_grid,
    q_value,
    wigner_grid,
    wigner_min_scan,
)


def test_vacuum_q_peak():
    vac = states.make_coherent(0.0)
    got = q_value(vac, 0.0 + 0.0j)
    assert got == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_q_bounded_above():
    rng = np.random.default_rng(31)
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    amps /= np.linalg.norm(amps)
    st = states.FockState(amps, 0.0)
    for _ in range(200):
        pt = complex(float(rng.normal(0, 2)), float(rng.normal(0, 2)))
        assert q_value(st, pt) <= 1.0 / math.pi + 1e-12


def test_q_value_at_a_peak_past_the_underflow_radius():
    # the peak of this state sits at |beta| ~ 44.97, where e^{-|beta|^2/2}
    # underflows; q_value there meets the optimizer's log-domain q_max
    st = cli.build_state(cli.parse_state_spec("svs:r=3,phi=0+add=10"))
    rep = optimizer.maximize_q(st)
    assert abs(rep.beta_max) > 44.0
    assert q_value(st, rep.beta_max) == pytest.approx(rep.q_max, rel=1e-10)


@pytest.mark.parametrize("beta", [complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 0.0)])
def test_q_value_refuses_non_finite_beta(beta):
    with pytest.raises(DomainError, match="beta must be finite"):
        q_value(states.make_fock(2), beta)


def test_vacuum_q_quadrature():
    vac = states.make_coherent(0.0)
    grid = q_grid(vac, (-3.0, 3.0, -3.0, 3.0), 61)
    assert grid_quadrature(grid) == pytest.approx(1.0, abs=1e-3)


def test_grid_cell_centers():
    vac = states.make_coherent(0.0)
    grid = q_grid(vac, (0.0, 1.0, 0.0, 1.0), 2)
    assert grid.x_centers() == pytest.approx([0.25, 0.75])
    assert grid.y_centers() == pytest.approx([0.25, 0.75])
    assert grid.cell_area() == pytest.approx(0.25)


@pytest.mark.parametrize("res", [1, 2, 151, 401, 4096])
@pytest.mark.parametrize("half_width", [1e-300, 7.3, 8e307])
def test_symmetric_window_centers_mirror_exactly(res, half_width):
    xs = quasiprob._cell_centers(-half_width, half_width, res)  # QGrid.x_centers
    assert np.array_equal(xs, -xs[::-1])
    assert np.all(np.diff(xs) > 0.0)
    if res % 2:
        mid = xs[res // 2]
        assert mid == 0.0 and not np.signbit(mid)


def test_asymmetric_window_centers_near_exact():
    # within 3 ulp of max(|lo|, |hi|) of the exact rational midpoint
    rng = np.random.default_rng(18)
    for _ in range(200):
        lo, hi = sorted(rng.uniform(-50.0, 50.0, 2) * 10.0 ** rng.uniform(-3.0, 3.0))
        res = int(rng.integers(1, 300))
        xs = quasiprob._cell_centers(lo, hi, res)
        ulp = Fraction(np.spacing(max(abs(lo), abs(hi))))
        lo_f, width = Fraction(lo), Fraction(hi) - Fraction(lo)
        for j, x in enumerate(xs.tolist()):
            exact = lo_f + width * (2 * j + 1) / (2 * res)
            assert abs(Fraction(x) - exact) <= 3 * ulp
        assert np.all(np.diff(xs) > 0.0)


def test_display_window_wigner_grid_keeps_the_symmetries():
    fock = states.make_fock(3)
    w = wigner_grid(fock, quasiprob.display_window(fock), 151).values
    for image in (w[::-1], w[:, ::-1], w.T):
        assert image.tobytes() == w.tobytes()
    svs = states.make_squeezed_vacuum(0.7, 0.0)
    w = wigner_grid(svs, quasiprob.display_window(svs), 151).values
    for image in (w[::-1], w[:, ::-1]):
        assert image.tobytes() == w.tobytes()


def test_symmetric_lattice_has_one_radius_per_orbit():
    # at most 76 * 77 / 2 orbits of the 151^2 lattice under the square's symmetries
    xs = quasiprob._cell_centers(-7.3, 7.3, 151)
    radii = (2.0 * xs[None, :]) ** 2 + (2.0 * xs[:, None]) ** 2
    assert np.unique(radii).size <= 76 * 77 // 2


def test_q_grid_matches_q_value_at_every_cell(monkeypatch):
    # blocks of 300 points hold 8 rows of 37, so the last block has 5 rows
    monkeypatch.setattr(quasiprob, "_BLOCK_POINTS", 300)
    st = states.add_photons(states.make_coherent(0.8 - 0.3j), 2)
    grid = q_grid(st, quasiprob.display_window(st), 37)
    xc, yc = grid.x_centers().tolist(), grid.y_centers().tolist()
    want = [[q_value(st, complex(x, y)) for x in xc] for y in yc]
    assert grid.values.tobytes() == np.array(want).tobytes()


def test_grid_matches_single_point():
    st = states.make_squeezed_vacuum(0.8, 0.3)
    grid = wigner_grid(st, (-2.0, 2.0, -2.0, 2.0), 9)
    xc, yc = grid.x_centers(), grid.y_centers()
    for iy in (0, 4, 8):
        for ix in (0, 4, 8):
            single = _kernels.wigner_values(st.amplitudes, np.array([complex(xc[ix], yc[iy])]))[0]
            assert abs(grid.values[iy][ix] - single) <= 1e-15


# States whose non-zero amplitudes share one parity, so Q and W are even
# in beta; on a symmetric window a grid evaluates ceil(res^2/2) cells and
# copies the rest from their mirror images
_ONE_PARITY = ["svs:r=0.7,phi=0.4", "svs:r=0.7,phi=0.4+add=3", "fock:n=0", "fock:n=5"]
_MIXED_PARITY = ["coherent:re=1.2,im=0.4", "coherent:re=1.2,im=0.4+add=2"]
_WINDOWS = {
    "display": None,
    "oblong": (-4.5, 4.5, -2.75, 2.75),  # symmetric, x half-width != y half-width
    "x only": (-4.5, 4.5, -2.0, 3.0),  # symmetric in x alone
}
_HALF_CASES = (
    [(spec, window, True) for spec in _ONE_PARITY for window in ("display", "oblong")]
    + [(spec, "display", False) for spec in _MIXED_PARITY]
    + [(spec, "x only", False) for spec in _ONE_PARITY[1::2]]
)


@pytest.mark.parametrize("block_points", [quasiprob._BLOCK_POINTS, 300])
@pytest.mark.parametrize("res", [1, 2, 37, 38])
@pytest.mark.parametrize("spec, window, mirrored", _HALF_CASES)
def test_grids_match_one_kernel_call_on_the_whole_lattice(monkeypatch, spec, window, mirrored,
                                                           res, block_points):
    monkeypatch.setattr(quasiprob, "_BLOCK_POINTS", block_points)
    st = cli.build_state(cli.parse_state_spec(spec))
    window = _WINDOWS[window] or quasiprob.display_window(st)
    lattice = quasiprob._row_major(quasiprob._cell_centers(window[0], window[1], res),
                                   quasiprob._cell_centers(window[2], window[3], res))
    ov = _kernels.coherent_overlaps(st.amplitudes, lattice)
    want = {
        q_grid: (ov.real**2 + ov.imag**2) / math.pi,  # the arithmetic of quasiprob._husimi
        wigner_grid: _kernels.wigner_values(st.amplitudes, lattice),
    }
    for make, kernel in ((q_grid, "coherent_overlaps"), (wigner_grid, "wigner_values")):
        points = []
        original = getattr(_kernels, kernel)

        def counting(amps, betas, original=original):
            points.append(len(betas))
            return original(amps, betas)

        monkeypatch.setattr(_kernels, kernel, counting)
        got = make(st, window, res).values
        monkeypatch.setattr(_kernels, kernel, original)
        assert got.tobytes() == want[make].tobytes()
        assert sum(points) == ((res * res + 1) // 2 if mirrored else res * res)
        if make is wigner_grid:
            assert len(points) == 1


def test_fock1_wigner_origin():
    st = states.make_fock(1)
    got = _kernels.wigner_values(st.amplitudes, np.array([0.0 + 0.0j]))[0]
    assert got == pytest.approx(-2.0 / math.pi, rel=1e-14)


def test_fock2_wigner_quadrature():
    st = states.make_fock(2)
    grid = wigner_grid(st, (-6.0, 6.0, -6.0, 6.0), 121)
    assert abs(grid_quadrature(grid) - 1.0) <= 1e-6


def test_min_scan_finds_fock1_dip():
    st = states.make_fock(1)
    where, val = wigner_min_scan(st, (-3.0, 3.0, -3.0, 3.0), 61)
    assert val == pytest.approx(-2.0 / math.pi, abs=1e-9)
    assert abs(where) <= 0.05


def test_min_scan_zoom_stays_in_the_window(monkeypatch):
    # the zoom is a grid on the scanned window; a zoom of its own
    # points reached 1.5 cells past the corner at (0, 0)
    points = []
    original = _kernels.wigner_values

    def recording(amps, betas):
        points.extend(betas)
        return original(amps, betas)

    monkeypatch.setattr(_kernels, "wigner_values", recording)
    where, val = wigner_min_scan(states.make_fock(1), (0.0, 3.0, 0.0, 3.0), 31)
    pts = np.array(points)
    assert pts.size > 31 * 31
    assert np.all((0.0 <= pts.real) & (pts.real <= 3.0) & (0.0 <= pts.imag) & (pts.imag <= 3.0))
    # the dip at the corner: the zoom comes closer to it than the coarse cells
    assert 0.0 < where.real < 0.05 and 0.0 < where.imag < 0.05
    coarse = wigner_grid(states.make_fock(1), (0.0, 3.0, 0.0, 3.0), 31)
    assert -2.0 / math.pi < val < float(np.min(coarse.values))


def test_min_scan_on_cells_too_narrow_to_zoom():
    # cells a third of an ulp wide: the clipped zoom window is empty, so the
    # coarse minimum stands
    window = (1.0, 1.0 + 2.0**-52, 0.0, 1.0)
    _, val = wigner_min_scan(states.make_fock(1), window, 3)
    coarse = wigner_grid(states.make_fock(1), window, 3)
    assert val == float(np.min(coarse.values))


def test_coherent_wigner_grid_past_radius_30():
    # the display window of 12+5i reaches a corner radius of 43.8; every
    # cell is within the truncation bound of (2/pi) e^{-2|beta-alpha|^2}
    # (measured 9.3e-13 at 41^2 against a bound of 1.3e-6)
    st = cli.build_state(cli.parse_state_spec("coherent:re=12,im=5"))
    window = quasiprob.display_window(st)
    assert math.hypot(window[1], window[3]) > 40.0
    grid = wigner_grid(st, window, 41)
    beta = grid.x_centers()[None, :] + 1j * grid.y_centers()[:, None]
    want = 2.0 / math.pi * np.exp(-2.0 * np.abs(beta - (12 + 5j)) ** 2)
    tau = st.tail_bound
    assert np.max(np.abs(grid.values - want)) <= 2.0 / math.pi * (2.0 * math.sqrt(tau) + tau)


@pytest.mark.parametrize("beta", [31.0, 31.5j, 22.0 + 22.0j])
def test_fock_700_wigner_past_radius_30(beta):
    # W_n(beta) = (2/pi) (-1)^n e^{-2|beta|^2} L_n(4|beta|^2); the chain runs
    # rescaled here, since e^{-2|beta|^2} underflows (measured 4.4e-15)
    beta = complex(beta)
    got = _kernels.wigner_values(states.make_fock(700).amplitudes, np.array([beta]))[0]
    with mpmath.workdps(60):
        x = 4 * (mpmath.mpf(beta.real) ** 2 + mpmath.mpf(beta.imag) ** 2)
        want = float(2 / mpmath.pi * mpmath.exp(-x / 2) * mpmath.laguerre(700, 0, x))
    assert want != 0.0
    assert abs(got / want - 1.0) <= 1e-12


@pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("make", [q_grid, wigner_grid])
def test_non_finite_window_rejected(make, position, bound):
    window = [-1.0, 1.0, -1.0, 1.0]
    window[position] = bound
    with pytest.raises(DomainError, match="window bounds must be finite"):
        make(states.make_fock(1), tuple(window), 3)


# every grid refuses a resolution that is inf or nan, as it refuses 0 or 1.5
_OUT_OF_DOMAIN = [(make, res) for make in (q_grid, wigner_grid, wigner_min_scan)
                  for res in (math.inf, math.nan)]


@pytest.mark.parametrize(
    "make, res", _OUT_OF_DOMAIN, ids=[f"{make.__name__}({res})" for make, res in _OUT_OF_DOMAIN]
)
def test_grids_refuse_out_of_domain(make, res):
    with pytest.raises(DomainError):
        make(states.make_fock(1), (-1.0, 1.0, -1.0, 1.0), res)


def test_window_validation():
    st = states.make_coherent(0.0)
    with pytest.raises(DomainError):
        q_grid(st, (1.0, -1.0, -1.0, 1.0), 11)
    with pytest.raises(DomainError):
        q_grid(st, (-1.0, 1.0, -1.0, 1.0), 0)
