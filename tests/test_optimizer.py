"""Coarse rings plus polar Newton polish: accuracy, determinism, failure modes."""

import json
import math

import hypothesis.strategies as hs
import numpy as np
import pytest
from hypothesis import given, settings

from nonclass import _kernels, analytic, cli, optimizer, states
from nonclass.analytic import PacParams, dq_pac, fock_nonclassicality
from nonclass.cli import StateSpec
from nonclass.errors import ConvergenceError, DomainError, WindowError
from nonclass.optimizer import OptOptions, maximize_q
from nonclass.states import add_photons, make_coherent, make_fock, mean_photon


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

    def test_tight_window_raises(self):
        with pytest.raises(WindowError):
            maximize_q(make_coherent(2.0), OptOptions(window_radius=0.5))

    def test_exhausted_newton_budget_raises(self, monkeypatch):
        monkeypatch.setattr(optimizer, "_MAX_NEWTON_STEPS", 1)
        with pytest.raises(ConvergenceError):
            maximize_q(make_coherent(1.0))

    def test_report_is_frozen(self):
        rep = maximize_q(make_coherent(0.0))
        with pytest.raises(AttributeError):
            rep.q_max = 0.0


class TestOptOptions:
    def test_validation(self):
        with pytest.raises(DomainError):
            OptOptions(window_radius=0.0)
        with pytest.raises(DomainError):
            OptOptions(target_step=-1e-7)

    def test_defaults_accepted(self):
        opts = OptOptions()
        assert opts.window_radius is None
        assert opts.target_step == 1e-7


def _rel_qmax_error(spec, q_max):
    dq_ref, _ = analytic.reference_dq(spec.family, spec.params, spec.added_photons)
    q_ref = (1.0 - dq_ref) / math.pi
    return abs(q_max - q_ref) / q_ref


_NEAR_FOCK = [
    StateSpec("svs", {"r": r, "phi": 0.7}, p)
    for r in (1e-6, 1e-5, 1e-4, 3e-4, 1e-3, 1.2e-3, 3e-3, 1e-2)
    for p in (1, 2, 3, 5, 9, 10)
] + [
    StateSpec("coherent", {"re": math.sqrt(u) * math.cos(1.0), "im": math.sqrt(u) * math.sin(1.0)},
              p)
    for u in (1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 2e-5, 1e-4, 1e-3)
    for p in (1, 2, 3, 5, 10)
]


class TestNearFock:
    """Close to the Fock limit the peak is a thin ridge along a ring; the
    polish must reach the top of it, not stop wherever it lands."""

    @pytest.mark.parametrize("spec", _NEAR_FOCK, ids=cli.render_state_spec)
    def test_matches_closed_form(self, spec):
        rep = maximize_q(cli.build_state(spec))
        assert _rel_qmax_error(spec, rep.q_max) <= 1e-6
        assert rep.final_step <= OptOptions().target_step

    @pytest.mark.parametrize(
        "text", ["svs:r=0.001204,phi=2.992263+add=9", "svs:r=2.394305e-05,phi=3.657521+add=6"]
    )
    def test_cli_inputs(self, text, capsys):
        assert cli.main(["dq", "--state", text, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert _rel_qmax_error(cli.parse_state_spec(text), payload["q_max"]) <= 1e-6


class TestOrigin:
    """Peaks at or next to beta = 0, where polar coordinates are singular."""

    @pytest.mark.parametrize(
        "state, q_ref",
        [
            (make_coherent(0.0), 1.0 / math.pi),
            (states.make_squeezed_vacuum(1e-8, 1.0), analytic.svs_qmax(1e-8)),
            (make_coherent(1e-6), 1.0 / math.pi),
        ],
        ids=["vacuum", "svs", "coherent"],
    )
    def test_peak_value_and_final_step(self, state, q_ref):
        rep = maximize_q(state)
        assert abs(rep.q_max - q_ref) <= 1e-12
        assert rep.final_step <= OptOptions().target_step


# |beta| past which the Cartesian overlap seed e^{-|beta|^2/2} underflows
_CARTESIAN_UNDERFLOW = 38.6


class TestRingStage:
    def test_matches_cartesian_overlaps(self):
        # the optimizer's own rings for pasv r=2, p=5, up to the underflow
        # radius: the fold-and-FFT ring values and the Newton polish's
        # single-point sums against the Cartesian kernel at the same points
        st = cli.build_state(StateSpec("svs", {"r": 2.0, "phi": 0.0}, 5))
        amps = st.amplitudes
        radius = 3.0 * math.sqrt(mean_photon(st)) + 5.0
        k = optimizer._RINGS
        rings = radius * (np.arange(k) + 0.5) / (k - 0.5)
        rings = rings[rings < _CARTESIAN_UNDERFLOW]
        angles = 2.0 * math.pi * np.arange(optimizer._ANGLES) / optimizer._ANGLES
        points = rings[:, None] * np.exp(1j * angles)
        ov = _kernels.coherent_overlaps(amps, points.ravel()).reshape(points.shape)
        want = ov.real**2 + ov.imag**2
        peak = want.max()
        assert np.max(np.abs(optimizer._ring_values(amps, rings) - want)) <= 1e-12 * peak
        for j in range(0, rings.size, 5):
            for m in (0, 37, 160):
                got = amps @ optimizer._bargmann_row(amps.size, rings[j], angles[m])
                assert abs(got - ov[j, m]) <= 1e-12 * math.sqrt(peak)

    @pytest.mark.parametrize("rho", [40.0, 45.0, 60.0])
    def test_finite_past_cartesian_underflow(self, rho):
        # |2025> peaks on the ring |beta| = 45, where the Cartesian kernel
        # returns 0; pi Q = e^{-rho^2} rho^{2n} / n! on every angle
        n = 2025
        amps = make_fock(n).amplitudes
        want = math.exp(2.0 * n * math.log(rho) - rho * rho - math.lgamma(n + 1.0))
        got = optimizer._ring_values(amps, np.array([rho]))
        assert np.all(got > 0.0)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-10
        ov = amps @ optimizer._bargmann_row(amps.size, rho, 0.3)
        assert abs(abs(ov) ** 2 / want - 1.0) <= 1e-10

    def test_peak_past_cartesian_underflow(self, capsys):
        # the peak sits at |beta| ~ 45; a Cartesian search lands near 38.6
        text = "svs:r=3,phi=0+add=10"
        assert cli.main(["dq", "--state", text, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        spec = cli.parse_state_spec(text)
        dq_ref, _ = analytic.reference_dq(spec.family, spec.params, spec.added_photons)
        assert abs(payload["dq_numeric"] - dq_ref) <= 1e-6
        assert _rel_qmax_error(spec, payload["q_max"]) <= 1e-6


def test_kernel_calls_go_through_module_attribute(monkeypatch):
    # perfbench's tracer wraps kernels by replacing module attributes; a
    # caller that bound _kernels.bargmann_weights at import would bypass it
    radii = []
    original = _kernels.bargmann_weights

    def counting(n_amp, rho):
        radii.append(rho)
        return original(n_amp, rho)

    def cartesian(amps, betas):
        raise AssertionError("the optimizer called coherent_overlaps")

    monkeypatch.setattr(_kernels, "bargmann_weights", counting)
    monkeypatch.setattr(_kernels, "coherent_overlaps", cartesian)
    state = add_photons(make_coherent(1.0), 1)
    maximize_q(state)
    k = optimizer._RINGS
    radius = 3.0 * math.sqrt(mean_photon(state)) + 5.0
    # the ring stage first, one call per ring, then the Newton polish
    assert radii[:k] == pytest.approx(radius * (np.arange(k) + 0.5) / (k - 0.5), rel=1e-15)
    assert len(radii) > k


# the dq_mix domain; derandomized, so every run draws the same examples
_DQ_MIX = settings(derandomize=True, database=None, max_examples=100, deadline=None)


class TestAgreesWithClosedForm:
    """Numeric q_max within 1e-6 relative of the closed form."""

    @_DQ_MIX
    @given(u=hs.floats(0.0, 3.0), arg=hs.floats(0.0, 2.0 * math.pi), p=hs.integers(0, 10))
    def test_pac(self, u, arg, p):
        a = math.sqrt(u)
        spec = StateSpec("coherent", {"re": a * math.cos(arg), "im": a * math.sin(arg)}, p)
        assert _rel_qmax_error(spec, maximize_q(cli.build_state(spec)).q_max) <= 1e-6

    @_DQ_MIX
    @given(r=hs.floats(0.0, 2.5), phi=hs.floats(0.0, 2.0 * math.pi), p=hs.integers(0, 10))
    def test_pasv(self, r, phi, p):
        spec = StateSpec("svs", {"r": r, "phi": phi}, p)
        assert _rel_qmax_error(spec, maximize_q(cli.build_state(spec)).q_max) <= 1e-6

    @_DQ_MIX
    @given(n=hs.integers(0, 20))
    def test_fock(self, n):
        spec = StateSpec("fock", {"n": n}, 0)
        assert _rel_qmax_error(spec, maximize_q(cli.build_state(spec)).q_max) <= 1e-6
