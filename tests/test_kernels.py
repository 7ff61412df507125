"""Numerical kernels against closed forms and frozen high-precision oracles."""

import math

import numpy as np
import pytest
from scipy.special import eval_laguerre

from nonclass import states
from nonclass._kernels import (
    _wigner_diagonals,
    bargmann_weights,
    coherent_overlaps,
    half_log_factorials,
    wigner_values,
)

# W values for the r=1, phi=0 squeezed vacuum truncated at its automatic
# cutoff (96 rows), computed with a 60-digit run of the same recurrence.
# The negative dips are real properties of the truncated state.
SVS_ORACLE = [
    (3.0 + 3.0j, -2.82213880358e-08),
    (5.0 + 2.0j, -6.69547731065e-08),
    (0.0 + 2.0j, 2.14314592724e-12),
    (6.0 + 0.0j, 3.71802410761e-05),
    (7.3 + 0.0j, 3.27893068533e-07),
]


def _deep_svs(r):
    base = states.make_squeezed_vacuum(r, 0.0)
    t2 = math.tanh(r) ** 2
    extra = int(math.ceil(math.log(1e4) / math.log(1.0 / t2))) + 1
    return states.make_squeezed_vacuum(r, 0.0, cutoff_override=base.cutoff + 2 * extra)


class TestOverlapKernels:
    def test_svs_closed_form(self):
        # <beta|psi> = (cosh r)^{-1/2} exp(-|b|^2/2 + e^{i phi} tanh(r) conj(b)^2/2)
        r, phi = 1.0, 0.4
        st = states.make_squeezed_vacuum(r, phi)
        assert st.cutoff == 96
        rng = np.random.default_rng(6)
        betas = rng.normal(0, 2, 60) + 1j * rng.normal(0, 2, 60)
        want = np.exp(
            -0.5 * np.abs(betas) ** 2
            + 0.5 * np.exp(1j * phi) * math.tanh(r) * np.conj(betas) ** 2
        ) / math.sqrt(math.cosh(r))
        got = coherent_overlaps(st.amplitudes, betas)
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_deterministic(self):
        st = states.make_coherent(1.5 + 0.5j)
        betas = np.array([0.3 + 0.1j, 2.0 - 1.0j, -0.7j])
        first = coherent_overlaps(st.amplitudes, betas)
        second = coherent_overlaps(st.amplitudes, betas)
        assert np.array_equal(first, second)

    def test_coherent_closed_form(self):
        alpha = 2.0 + 0.0j
        st = states.make_coherent(alpha)
        betas = np.array([0.0j, 1.0 + 1.0j, 3.0 - 2.0j, -1.5 + 0.5j])
        want = np.exp(-0.5 * np.abs(betas) ** 2 - 0.5 * abs(alpha) ** 2 + np.conj(betas) * alpha)
        got = coherent_overlaps(st.amplitudes, betas)
        assert np.max(np.abs(got - want)) <= 1e-12


def _weights_one_radius(n_amp, rho):
    # reference: the weights at one radius with their own cumulative sum
    # of 1/2 ln k, which the shared table must reproduce bit for bit
    log_rho = math.log(rho) if rho != 0.0 else -math.inf
    log_w = np.zeros(n_amp)
    k = np.arange(1.0, n_amp)
    log_w[1:] = k * log_rho - np.cumsum(0.5 * np.log(k))
    return np.exp(log_w - 0.5 * rho * rho)


class TestBargmannWeights:
    RADII = [0.0, 1e-300, 0.3, 1.0, 7.7, 45.0, 60.0]

    @pytest.mark.parametrize("n_amp", [1, 2, 97, 2026])
    def test_batched_rows_equal_single_radius_calls(self, n_amp):
        half_lf = half_log_factorials(n_amp)
        block = bargmann_weights(half_lf, np.array(self.RADII)[:, None])
        assert block.shape == (len(self.RADII), n_amp)
        for row, rho in zip(block, self.RADII):
            single = bargmann_weights(half_lf, rho)
            assert np.array_equal(row, single)
            assert single.tobytes() == _weights_one_radius(n_amp, rho).tobytes()

    def test_origin_and_negative_radius(self):
        half_lf = half_log_factorials(5)
        assert np.array_equal(bargmann_weights(half_lf, 0.0), [1.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            bargmann_weights(half_lf, -1.0)


class TestWignerKernels:
    def test_vacuum_at_origin(self):
        st = states.make_coherent(0.0)
        got = wigner_values(st.amplitudes, np.array([0.0j]))[0]
        assert got == pytest.approx(2.0 / math.pi, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 5, 8])
    def test_fock_closed_form(self, n):
        # W(beta) = (2/pi)(-1)^n L_n(4|beta|^2) exp(-2|beta|^2); only the
        # k = 0 diagonal is nonzero
        st = states.make_fock(n)
        rng = np.random.default_rng(9)
        betas = rng.normal(0, 1.5, 40) + 1j * rng.normal(0, 1.5, 40)
        x = 4.0 * np.abs(betas) ** 2
        want = (2.0 / math.pi) * (-1.0) ** n * eval_laguerre(n, x) * np.exp(-0.5 * x)
        got = wigner_values(st.amplitudes, betas)
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_coherent_far_field_no_cancellation_blowup(self):
        # the naive sum loses ~all digits by |beta| ~ 6; the evaluator must not
        alpha = 2.0
        st = states.make_coherent(alpha)
        beta = 6.0 + 0.0j
        want = (2.0 / math.pi) * math.exp(-2.0 * abs(beta - alpha) ** 2)
        got = wigner_values(st.amplitudes, np.array([beta]))[0]
        assert abs(got - want) <= 1e-18

    def test_svs_oracle_points(self):
        st = states.make_squeezed_vacuum(1.0, 0.0)
        assert st.cutoff == 96
        betas = np.array([b for b, _ in SVS_ORACLE])
        got = wigner_values(st.amplitudes, betas)
        for (beta, want), val in zip(SVS_ORACLE, got):
            if abs(want) > 1e-10:
                assert val == pytest.approx(want, rel=1e-9), beta
            else:
                assert val == pytest.approx(want, abs=1e-15), beta

    def test_support_clamp_is_exact_zero(self):
        st = states.make_fock(2)
        far = math.sqrt(st.cutoff) + 7.0
        got = wigner_values(st.amplitudes, np.array([far + 0.0j, far * 1.0j]))
        assert got[0] == 0.0 and got[1] == 0.0

    def test_scaled_chain_regime(self):
        # 4|beta|^2 = 1296 pushes the recurrence seeds below the double
        # underflow ledge; values frozen from a 60-digit run
        st = _deep_svs(1.5)
        betas = np.array([18.0 + 0.0j, 17.9 + 0.3j])
        want = np.array([2.1003120667042844e-15, 2.425403916268809e-15])
        got = _wigner_diagonals(st.amplitudes, betas)
        assert np.max(np.abs(got - want) / want) <= 1e-9

    def test_batch_independent(self):
        # a point's value must not depend on the other points in its call:
        # repeated radii (signs flipped, parts swapped) share their chains
        st = _deep_svs(1.5)
        base = np.array([0.7 + 0.2j, 1.3 - 2.1j, 3.0 + 0.5j])
        mirrored = np.concatenate(
            [base, -base, np.conj(base), -np.conj(base), 1j * np.conj(base), -1j * base]
        )
        scaled = [18.0 + 0.0j, 18.0j, -18.0 + 0.0j, 17.9 + 0.3j]  # seeds below the ledge
        betas = np.concatenate([mirrored, scaled])
        batch = wigner_values(st.amplitudes, betas)
        single = np.array([wigner_values(st.amplitudes, np.array([b]))[0] for b in betas])
        assert np.array_equal(batch, single)

    def test_deterministic(self):
        st = states.make_fock(3)
        betas = np.array([0.5 + 0.5j, 1.0 - 2.0j])
        first = wigner_values(st.amplitudes, betas)
        second = wigner_values(st.amplitudes, betas)
        assert np.array_equal(first, second)
