"""Zoom grid search: accuracy, determinism, failure modes."""

import math

import pytest

from nonclass import states
from nonclass.analytic import PacParams, dq_pac, fock_nonclassicality
from nonclass.errors import ConvergenceError, DomainError, WindowError
from nonclass.optimizer import OptOptions, maximize_q
from nonclass.states import add_photons, make_coherent, make_fock


class TestMaximizeQ:
    def test_coherent_peak_at_alpha(self):
        rep = maximize_q(make_coherent(1.0 + 2.0j))
        assert rep.beta_max.re == pytest.approx(1.0, abs=1e-6)
        assert rep.beta_max.im == pytest.approx(2.0, abs=1e-6)
        assert rep.q_max == pytest.approx(1.0 / math.pi, rel=1e-9)
        assert rep.dq <= 1e-9
        assert rep.final_step <= 1e-7

    def test_vacuum_is_classical(self):
        rep = maximize_q(make_coherent(0.0))
        assert rep.dq <= 1e-9
        assert abs(rep.beta_max.as_complex()) <= 1e-6

    def test_fock1_ring(self):
        rep = maximize_q(make_fock(1))
        want = fock_nonclassicality(1)
        assert rep.q_max == pytest.approx(want.qmax, rel=1e-7)
        # the maximizer set is the unit circle; only the radius is pinned
        assert abs(rep.beta_max.as_complex()) == pytest.approx(1.0, abs=1e-4)

    def test_pac_matches_closed_form(self):
        st = add_photons(make_coherent(math.sqrt(0.9)), 2)
        rep = maximize_q(st)
        want = dq_pac(PacParams(p=2, alpha_sq=0.9))
        assert abs(rep.dq - want) <= 1e-6

    def test_deterministic(self):
        st = states.make_squeezed_vacuum(0.8, 0.4)
        a = maximize_q(st)
        b = maximize_q(st)
        assert a == b  # frozen dataclass, field-wise equality

    def test_coarse_resolution_insensitive(self):
        for st in (make_fock(2), add_photons(make_coherent(1.0), 1)):
            a = maximize_q(st, OptOptions(coarse_resolution=101))
            b = maximize_q(st, OptOptions(coarse_resolution=201))
            assert abs(a.q_max - b.q_max) <= 1e-8

    def test_tight_window_raises(self):
        with pytest.raises(WindowError):
            maximize_q(make_coherent(2.0), OptOptions(window_radius=0.5))

    def test_exhausted_zoom_budget_raises(self):
        with pytest.raises(ConvergenceError):
            maximize_q(make_coherent(1.0), OptOptions(max_zoom_levels=1))

    def test_report_is_frozen(self):
        rep = maximize_q(make_coherent(0.0))
        with pytest.raises(AttributeError):
            rep.q_max = 0.0


class TestOptOptions:
    def test_validation(self):
        with pytest.raises(DomainError):
            OptOptions(window_radius=0.0)
        with pytest.raises(DomainError):
            OptOptions(coarse_resolution=2)
        with pytest.raises(DomainError):
            OptOptions(zoom_factor=1.0)
        with pytest.raises(DomainError):
            OptOptions(target_step=-1e-7)
        with pytest.raises(DomainError):
            OptOptions(max_zoom_levels=-1)

    def test_defaults_accepted(self):
        opts = OptOptions()
        assert opts.window_radius is None
        assert opts.coarse_resolution == 101
