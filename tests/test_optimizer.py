"""Coarse rings plus polar Newton polish: accuracy, determinism, failure modes."""

import cmath
import inspect
import json
import math
import os
import subprocess
import sys

import hypothesis.strategies as hs
import numpy as np
import pytest
from hypothesis import example, given, settings

from nonclass import _kernels, analytic, cli, optimizer, states
from nonclass.analytic import dq_pac, fock_nonclassicality
from nonclass.cli import StateSpec
from nonclass.errors import AccuracyError, ConvergenceError, DomainError, WindowError
from nonclass.optimizer import TARGET_STEP, maximize_q
from nonclass.states import add_photons, make_coherent, make_fock, mean_photon


class TestMaximizeQ:
    def test_coherent_peak_at_alpha(self):
        rep = maximize_q(make_coherent(1.0 + 2.0j))
        assert rep.beta_max.real == pytest.approx(1.0, abs=1e-6)
        assert rep.beta_max.imag == pytest.approx(2.0, abs=1e-6)
        assert rep.q_max == pytest.approx(1.0 / math.pi, rel=1e-9)
        assert rep.dq <= 1e-9
        assert rep.final_step <= 1e-7

    def test_vacuum_is_classical(self):
        rep = maximize_q(make_coherent(0.0))
        assert rep.dq <= 1e-9
        assert abs(rep.beta_max) <= 1e-6

    def test_fock1_ring(self):
        rep = maximize_q(make_fock(1))
        want = fock_nonclassicality(1)
        assert rep.q_max == pytest.approx(want.qmax, rel=1e-7)
        # the maximizer set is the unit circle; only the radius is pinned
        assert abs(rep.beta_max) == pytest.approx(1.0, abs=1e-4)

    def test_pac_matches_closed_form(self):
        st = add_photons(make_coherent(math.sqrt(0.9)), 2)
        rep = maximize_q(st)
        want = dq_pac(p=2, alpha_sq=0.9)
        assert abs(rep.dq - want) <= 1e-6

    def test_deterministic(self):
        st = states.make_squeezed_vacuum(0.8, 0.4)
        a = maximize_q(st)
        b = maximize_q(st)
        assert a == b  # frozen dataclass, field-wise equality

    def test_tight_window_raises(self, monkeypatch):
        monkeypatch.setattr(optimizer, "_search_radius", lambda state: 0.5)
        with pytest.raises(WindowError, match="search boundary at radius 0.5"):
            maximize_q(make_coherent(2.0))

    @pytest.mark.parametrize("state", [make_fock(2), make_coherent(3.0)], ids=["fock2", "coherent3"])
    def test_coarse_window_raises(self, monkeypatch, state):
        # rings ~200 apart: Q is 0 on every one of them
        monkeypatch.setattr(optimizer, "_search_radius", lambda state: 1e4)
        with pytest.raises(WindowError, match=r"radius 1e\+04 are too far apart"):
            maximize_q(state)

    def test_non_finite_newton_step_raises(self, monkeypatch):
        monkeypatch.setattr(optimizer, "_polar_newton_step", lambda *a: (math.nan, math.nan))
        with pytest.raises(WindowError, match="not finite"):
            maximize_q(make_coherent(1.0))

    def test_exhausted_newton_budget_raises(self, monkeypatch):
        monkeypatch.setattr(optimizer, "_MAX_NEWTON_STEPS", 1)
        with pytest.raises(ConvergenceError):
            maximize_q(make_coherent(1.0))

    def test_report_is_frozen(self):
        rep = maximize_q(make_coherent(0.0))
        with pytest.raises(AttributeError):
            rep.q_max = 0.0


class TestTargetStep:
    def test_validation(self):
        with pytest.raises(DomainError):
            maximize_q(make_coherent(1.0), 0.0)
        with pytest.raises(DomainError):
            maximize_q(make_coherent(1.0), -1e-7)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_refused(self, bad):
        with pytest.raises(DomainError, match="target_step must be finite and positive"):
            maximize_q(make_coherent(1.0), bad)

    def test_default(self):
        assert inspect.signature(maximize_q).parameters["target_step"].default == 1e-7


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
        assert rep.final_step <= TARGET_STEP

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
        assert rep.final_step <= TARGET_STEP


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
            log_w0 = _kernels.log_sqrt_poisson(rings[j], amps.size)
            for m in (0, 37, 160):
                got = amps @ optimizer._bargmann_row(log_w0, rings[j], rings[j], angles[m])
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
        log_w0 = _kernels.log_sqrt_poisson(rho - 0.25, amps.size)
        ov = amps @ optimizer._bargmann_row(log_w0, rho - 0.25, rho, 0.3)
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


# ring values of these (spec, cutoff) cases, digested, in a child process
# that first grows the radius-1 row to the cap or not; N = 319, 320 and 321
# sit at the edge of one fold
_RING_CASES = [("coherent:re=1.2,im=0.4+add=5", None), ("svs:r=1,phi=0.6+add=2", None),
               ("fock:n=7", None), ("svs:r=2.5,phi=0.2+add=10", None),
               ("coherent:re=3,im=1", 318), ("coherent:re=3,im=1", 319), ("svs:r=0.8,phi=0.3", 320),
               ("coherent:re=10,im=-2+add=3", None)]
_RING_SCRIPT = """
import dataclasses, hashlib, sys
import numpy as np
from nonclass import cli, optimizer
if sys.argv[1] == "grown":
    optimizer._radius_one_row(250_001)
for text, cutoff in {cases!r}:
    state = cli.build_state(dataclasses.replace(cli.parse_state_spec(text), cutoff_override=cutoff))
    k = optimizer._RINGS
    rings = optimizer._search_radius(state) * (np.arange(k) + 0.5) / (k - 0.5)
    values = optimizer._ring_values(state.amplitudes, rings)
    print(state.amplitudes.size, hashlib.sha256(values.tobytes()).hexdigest())
"""


class TestRadiusOneRow:
    """The ring stage slices one read-only radius-1 row, the longest built so far."""

    def test_slices_equal_fresh_rows(self):
        # every N below 700 (each tail length of any SIMD width), powers of
        # two and their neighbours, seeded draws and the cap, after the row
        # has grown to the cap
        rng = np.random.default_rng(7)
        sizes = set(range(1, 700)) | {2**k + d for k in range(10, 18) for d in (-1, 0, 1)}
        sizes |= set(rng.integers(700, 250_001, 40).tolist()) | {250_000, 250_001}
        optimizer._radius_one_row(250_001)
        for n in sorted(sizes):
            assert optimizer._radius_one_row(n).tobytes() == _kernels.log_sqrt_poisson(1.0, n).tobytes()

    def test_row_is_read_only(self):
        row = optimizer._radius_one_row(40)
        with pytest.raises(ValueError):
            row[0] = 0.0

    def test_grows_no_further_than_the_cap(self):
        optimizer._radius_one_row(250_001)
        past = optimizer._radius_one_row(250_002)
        assert past.tobytes() == _kernels.log_sqrt_poisson(1.0, 250_002).tobytes()
        assert optimizer._row_at_one.shape == (250_001,)

    def test_ring_values_independent_of_the_row_history(self):
        env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
        src = os.path.dirname(os.path.dirname(os.path.abspath(optimizer.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        script = _RING_SCRIPT.format(cases=_RING_CASES)
        fresh, grown = (subprocess.run([sys.executable, "-c", script, mode], capture_output=True,
                                       text=True, env=env, check=True).stdout
                        for mode in ("fresh", "grown"))
        sizes = [int(line.split()[0]) for line in fresh.splitlines()]
        assert {319, 320, 321} <= set(sizes) and len(sizes) == len(_RING_CASES)
        assert fresh == grown


def _reference_newton_step(g, rho, theta):
    # reference: the step from LAPACK's eigenpairs of the Hessian, which
    # the closed form in _polar_newton_step replaced
    g0, g1, g2 = g
    h = g1 / g0
    e = cmath.exp(-1j * theta)
    w1 = h * e
    v2 = (g2 / g0 - h * h) * e * e
    cross = 2.0 * (v2 * rho + w1).imag
    grad = np.array([-2.0 * rho + 2.0 * w1.real, 2.0 * rho * w1.imag])
    hess = np.array([[-2.0 + 2.0 * v2.real, cross],
                     [cross, -2.0 * rho * (v2 * rho + w1).real]])
    lam, vec = np.linalg.eigh(hess)
    return vec @ [c / -l if l < 0.0 else c for c, l in zip(vec.T @ grad, lam)]


class TestNewtonStep:
    """The closed-form eigenpairs of the 2x2 Hessian against LAPACK's."""

    # measured at most 1.4e-8 relative over 2,000,000 draws like these (two
    # seeds), the largest gaps at nearly singular Hessians
    BOUND = 1e-7

    def test_matches_eigh_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(20_000):
            g = (rng.normal(size=3) + 1j * rng.normal(size=3)) * np.exp(rng.uniform(-5.0, 5.0, 3))
            rho, theta = rng.uniform(0.0, 10.0), rng.uniform(0.0, 2.0 * math.pi)
            got = np.array(optimizer._polar_newton_step(g, rho, theta))
            want = _reference_newton_step(g, rho, theta)
            assert np.linalg.norm(got - want) <= self.BOUND * np.linalg.norm(want)

    @pytest.mark.parametrize(
        "g, rho, theta",
        [
            # real g at theta = 0: a diagonal Hessian, with each order of its entries
            ([1.0, 0.7, -0.3], 1.3, 0.0),
            ([1.0, 2.5, 4.0], 0.8, 0.0),
            ([-2.0, 0.1, 3.0], 2.0, 0.0),
            # the vacuum's g, at rho = 0.05 and at rho = 0
            ([1.0, 0.0, 0.0], 0.05, 0.7),
            ([1.0, 0.0, 0.0], 0.0, 0.7),
            # zero gradient (g1 = rho g0 at theta = 0) with a Hessian that is not diagonal
            ([1.0, 1.5, 0.4 + 0.9j], 1.5, 0.0),
        ],
        ids=["diagonal", "diagonal-convex", "diagonal-mixed", "vacuum", "vacuum-origin",
             "zero-gradient"],
    )
    def test_exact_cases(self, g, rho, theta):
        g = np.array(g, dtype=np.complex128)
        assert optimizer._polar_newton_step(g, rho, theta) == tuple(_reference_newton_step(g, rho, theta))


def _canonical(beta):
    return beta.real > 0.0 or (beta.real == 0.0 and beta.imag >= 0.0)


class TestSymmetricPeaks:
    """Where Q's symmetries make several peaks, rounding does not pick the one reported."""

    @pytest.mark.parametrize("text", ["svs:r=1,phi=0.6+add=2", "svs:r=2.2,phi=4.1",
                                      "svs:r=3,phi=0+add=10", "svs:r=0.5,phi=2.9+add=1"])
    def test_mirror_peak_keeps_its_sign(self, text):
        # every non-zero index even, or every one odd: Q(-beta) = Q(beta);
        # an amplitude moved by 1 ulp moves which peak rounding finds, not
        # the one reported
        state = cli.build_state(cli.parse_state_spec(text))
        base = maximize_q(state).beta_max
        assert _canonical(base)
        rng = np.random.default_rng(7)
        nz = np.flatnonzero(state.amplitudes)
        for n in rng.choice(nz[: max(nz.size // 4, 8)], size=8):
            amps = state.amplitudes.copy()
            amps[n] = complex(np.nextafter(amps[n].real, math.inf), amps[n].imag)
            beta = maximize_q(states.FockState(amps, state.tail_bound)).beta_max
            assert _canonical(beta)
            assert abs(beta - base) <= 1e-6 * (1.0 + abs(base))

    def test_hand_built_even_gap_peak_is_canonical(self):
        # non-zero only at n = 0, 4 and 8: support's gap is 4, even, so
        # Q(-beta) = Q(beta).  Read as gap 1, 6 of these 9 rotations would
        # report the peak with Re beta < 0
        rng = np.random.default_rng(42)
        amps = np.zeros(9, np.complex128)
        amps[[0, 4, 8]] = rng.normal(size=3) + 1j * rng.normal(size=3)
        amps /= np.linalg.norm(amps)
        assert _kernels.support(amps) == (0, 8, 4)
        state = states.FockState(amps, 0.0)
        for theta in np.linspace(0.0, 2.0 * math.pi, 9):
            assert _canonical(maximize_q(states.rotate(state, theta)).beta_max)

    @pytest.mark.parametrize("n", [0, 1, 4, 13, 20])
    def test_number_state_radius_alone(self, monkeypatch, n):
        # Q of |n> is the same at every angle: every Newton point sits at
        # angle 0, and the peak is reported on the positive real axis
        points = []
        original = optimizer._bargmann_row

        def recording(log_w0, rho0, rho, theta):
            points.append(theta)
            return original(log_w0, rho0, rho, theta)

        monkeypatch.setattr(optimizer, "_bargmann_row", recording)
        for state in (make_fock(n), states.rotate(make_fock(n, n + 5), 1.1)):
            points.clear()
            rep = maximize_q(state)
            assert set(points) == {0.0}
            assert rep.beta_max.imag == 0.0 and rep.beta_max.real >= 0.0
            assert rep.beta_max.real == pytest.approx(math.sqrt(n), abs=1e-6)


def test_kernel_calls_go_through_module_attribute(monkeypatch):
    # perfbench's tracer wraps kernels by replacing module attributes; a
    # caller that bound _kernels.bargmann_weights at import would bypass it
    radii = []
    original = _kernels.bargmann_weights

    def counting(log_w0, rho0, rho):
        radii.extend(np.ravel(rho))
        return original(log_w0, rho0, rho)

    def cartesian(amps, betas):
        raise AssertionError("the optimizer called coherent_overlaps")

    monkeypatch.setattr(_kernels, "bargmann_weights", counting)
    monkeypatch.setattr(_kernels, "coherent_overlaps", cartesian)
    state = add_photons(make_coherent(1.0), 1)
    maximize_q(state)
    k = optimizer._RINGS
    radius = 3.0 * math.sqrt(mean_photon(state)) + 5.0
    # the ring stage first, its blocks' radii in ring order, then the Newton polish
    assert radii[:k] == pytest.approx(radius * (np.arange(k) + 0.5) / (k - 0.5), rel=1e-15)
    assert len(radii) > k


def test_newton_polish_builds_each_row_once(monkeypatch):
    # the accepted trial's row also gives the next Newton step its overlaps,
    # so no point of the polish has its row built twice
    points = []
    original = optimizer._bargmann_row

    def recording(log_w0, rho0, rho, theta):
        points.append((rho, theta))
        return original(log_w0, rho0, rho, theta)

    monkeypatch.setattr(optimizer, "_bargmann_row", recording)
    maximize_q(add_photons(make_coherent(1.0), 1))
    assert len(points) > 2 and len(set(points)) == len(points)


class _RecordedRow(np.ndarray):
    """A Bargmann row that logs every numpy operation formed with it."""

    log = None

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _RecordedRow.log.append((ufunc.__name__, method, tuple(np.shape(x) for x in inputs)))
        plain = [x.view(np.ndarray) if isinstance(x, _RecordedRow) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.parametrize("text", ["coherent:re=1,im=0+add=1", "svs:r=0.8,phi=0.3+add=3", "fock:n=4"])
def test_newton_polish_forms_one_product_per_row(monkeypatch, text):
    # each point's overlaps (g0, g1, g2) come from one (3, N) @ (N,) product:
    # a trial's Q is |g0|^2 / pi, so no separate dot with the amplitudes
    rows = []
    original = optimizer._bargmann_row

    def recording(log_w0, rho0, rho, theta):
        rows.append(original(log_w0, rho0, rho, theta).view(_RecordedRow))
        return rows[-1]

    monkeypatch.setattr(optimizer, "_bargmann_row", recording)
    monkeypatch.setattr(_RecordedRow, "log", [])
    state = cli.build_state(cli.parse_state_spec(text))
    maximize_q(state)
    n_amp = state.cutoff + 1
    assert len(rows) > 1
    assert _RecordedRow.log == [("matmul", "__call__", ((3, n_amp), (n_amp,)))] * len(rows)


class TestLargeAlpha:
    """Coherent inputs up to |alpha| = 400, photons added or not, where the
    closed-form dq ~ p^2/(2|alpha|^4) falls to 1e-10 and below: the numeric
    dq within the certificate's rounding bound of it, and pi q_max never
    above 1 by more.  Weights from a plain cumulative sum of 1/2 ln k drift
    enough to read dq 0 (pi Q = 1 + 7.7e-9), 3.74e-10 and 4.74e-9 on the
    three named inputs, against 1.76e-10, 1.54e-9 and 3.00e-11.
    """

    BOUND = optimizer._PI_Q_ROUNDING

    @pytest.mark.parametrize("text", ["coherent:re=400,im=0+add=3", "coherent:re=300,im=0+add=5",
                                      "coherent:re=-211.459,im=-290.380+add=1"])
    def test_named_inputs_match_their_closed_forms(self, capsys, text):
        assert cli.main(["dq", "--state", text, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["dq_numeric"] - payload["analytic_dq"]) <= self.BOUND
        assert math.pi * payload["q_max"] <= 1.0 + self.BOUND

    # heavy states take up to 0.3 s a search, so few examples; p = 0 at 400
    # has pi q_max nearest 1
    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(mod=hs.floats(0.0, 400.0), arg=hs.floats(0.0, 2.0 * math.pi), p=hs.integers(0, 10))
    @example(mod=400.0, arg=1.0, p=0)
    def test_dq_over_the_domain(self, mod, arg, p):
        spec = StateSpec("coherent", {"re": mod * math.cos(arg), "im": mod * math.sin(arg)}, p)
        rep = maximize_q(cli.build_state(spec))
        dq_ref, _ = analytic.reference_dq(spec.family, spec.params, p)
        assert math.pi * rep.q_max <= 1.0 + self.BOUND
        assert abs(rep.dq - dq_ref) <= self.BOUND


@pytest.mark.parametrize("excess, raises", [(1e-11, True), (1e-14, False)])
def test_pi_q_above_one_past_rounding_is_an_error(monkeypatch, capsys, excess, raises):
    # weights scaled by 1 + excess put pi q_max of a coherent state about
    # 2 excess above 1: past the rounding bound that is AccuracyError, exit 2;
    # inside it dq reads 0
    state = make_coherent(2.0)
    original = _kernels.bargmann_weights
    monkeypatch.setattr(_kernels, "bargmann_weights", lambda *args: original(*args) * (1.0 + excess))
    if raises:
        with pytest.raises(AccuracyError, match="exceeds 1"):
            maximize_q(state)
        assert cli.main(["dq", "--state", "coherent:re=2,im=0", "--json"]) == 2
    else:
        assert maximize_q(state).dq == 0.0
        assert cli.main(["dq", "--state", "coherent:re=2,im=0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["dq_numeric"] == 0.0


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


# every family of the grammar, small enough that one search takes a few ms
_SPECS = hs.one_of(
    hs.builds(lambda u, arg, p: StateSpec("coherent", {"re": math.sqrt(u) * math.cos(arg),
                                                       "im": math.sqrt(u) * math.sin(arg)}, p),
              hs.floats(0.0, 3.0), hs.floats(0.0, 2.0 * math.pi), hs.integers(0, 5)),
    hs.builds(lambda r, phi, p: StateSpec("svs", {"r": r, "phi": phi}, p),
              hs.floats(0.0, 1.5), hs.floats(0.0, 2.0 * math.pi), hs.integers(0, 5)),
    hs.builds(lambda n, p: StateSpec("fock", {"n": n}, p), hs.integers(0, 20), hs.integers(0, 5)),
)
_INVARIANT = settings(derandomize=True, database=None, max_examples=150, deadline=None)


class TestInvariants:
    """dq is a property of the state up to phase-space rotations and displacements."""

    @_INVARIANT
    @given(spec=_SPECS, theta=hs.floats(-2.0 * math.pi, 2.0 * math.pi))
    @example(spec=StateSpec("fock", {"n": 16}, 1), theta=1.6342832427034821)
    def test_rotation(self, spec, theta):
        # measured at most 3.6e-15 over 1500 draws of this domain.  The
        # example once raised ConvergenceError, the polish wandering along
        # the flat ring of a number state; the polish now moves the radius
        # alone there, and both searches give the same dq exactly
        state = cli.build_state(spec)
        assert abs(maximize_q(states.rotate(state, theta)).dq - maximize_q(state).dq) <= 1e-13

    # not drawn from _SPECS: displaced near-Fock states such as
    # coherent:re=1e-6,im=0+add=1 moved by 0.9 make the Newton polish crawl
    # along their ridge until ConvergenceError (ROADMAP item 9)
    @_INVARIANT
    @given(text=hs.sampled_from(["fock:n=3", "coherent:re=1,im=0+add=1",
                                 "svs:r=1,phi=0+add=1"]),
           mod=hs.floats(0.0, 10.0), arg=hs.floats(0.0, 2.0 * math.pi))
    def test_displacement(self, text, mod, arg):
        # |lam| up to 10, past the former limit of 5; measured at most
        # 2.4e-13 over 400 draws per state
        state = cli.build_state(cli.parse_state_spec(text))
        moved = states.displace(state, cmath.rect(mod, arg))
        assert abs(maximize_q(moved).dq - maximize_q(state).dq) <= 1e-11

    @_INVARIANT
    @given(spec=_SPECS)
    def test_dq_in_the_unit_interval(self, spec):
        # Q <= 1/pi: dq reads 0 only where pi q_max passes 1 by at most
        # _PI_Q_ROUNDING (1e-12); past that maximize_q raises AccuracyError
        rep = maximize_q(cli.build_state(spec))
        assert 0.0 <= rep.dq <= 1.0
        assert -1e-15 <= 1.0 - math.pi * rep.q_max <= 1.0
