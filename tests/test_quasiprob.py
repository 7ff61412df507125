"""Husimi and Wigner evaluation on points and grids, quadrature."""

import math

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
    st = states.FockState(amplitudes=amps, cutoff=11, tail_bound=0.0)
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


def test_wigner_grid_corner_guard():
    st = states.make_coherent(0.0)
    with pytest.raises(DomainError):
        wigner_grid(st, (-40.0, 40.0, -1.0, 1.0), 11)
    # one cell, centered at beta = 31, past the guard radius 30
    with pytest.raises(DomainError):
        wigner_grid(st, (30.5, 31.5, -0.5, 0.5), 1)


@pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("make", [q_grid, wigner_grid])
def test_non_finite_window_rejected(make, position, bound):
    window = [-1.0, 1.0, -1.0, 1.0]
    window[position] = bound
    with pytest.raises(DomainError, match="window bounds must be finite"):
        make(states.make_fock(1), tuple(window), 3)


def test_window_validation():
    st = states.make_coherent(0.0)
    with pytest.raises(DomainError):
        q_grid(st, (1.0, -1.0, -1.0, 1.0), 11)
    with pytest.raises(DomainError):
        q_grid(st, (-1.0, 1.0, -1.0, 1.0), 0)
