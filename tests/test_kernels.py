"""Numerical kernels against closed forms and frozen high-precision oracles."""

import math

import numpy as np
import pytest
from scipy.special import eval_laguerre

from nonclass import quasiprob, states
from nonclass._kernels import (
    _wigner_diagonals,
    bargmann_weights,
    coherent_overlaps,
    half_log_factorials,
    laguerre_chains,
    wigner_values,
)

# W values for the r=1, phi=0 squeezed vacuum truncated at cutoff 96
# (_svs_at_96), computed with a 60-digit run of the same recurrence.
# The negative dips are real properties of the truncated state.
SVS_ORACLE = [
    (3.0 + 3.0j, -2.82213880358e-08),
    (5.0 + 2.0j, -6.69547731065e-08),
    (0.0 + 2.0j, 2.14314592724e-12),
    (6.0 + 0.0j, 3.71802410761e-05),
    (7.3 + 0.0j, 3.27893068533e-07),
]

# ln W of |N> at its support cut |beta| = sqrt(N) + 6 (W > 0 there), from
# 50-digit mpmath; the values wigner_values' docstring cites
FOCK_LN_W_AT_CUT = {
    0: -72.45158270528945,
    1: -93.17858314672571,
    1000: -325.18510089817465,
    5000: -477.48093827985817,
    20000: -669.43888050469335,
    250000: -1248.7817091362417,
}


def _deep_svs():
    # the r = 1.5 squeezed vacuum with its cutoff pushed ~1e4 past the mass
    # target of the geometric tail rule in use when the values frozen below
    # were computed
    return states.make_squeezed_vacuum(1.5, 0.0, cutoff_override=358)


def _svs_at_96(phi):
    # the r = 1 squeezed vacuum at cutoff 96, its automatic cutoff under the
    # geometric tail rule in use when SVS_ORACLE was computed.  The tail
    # bound now certifies 102, and the amplitude recurrence gives the same
    # leading amplitudes at any cutoff.
    return states.make_squeezed_vacuum(1.0, phi).amplitudes[:97]


# The Wigner kernel as it was before its chain steps ran in place and
# skipped exact zeros: one complex sum per diagonal, a fresh array per
# step, every chain run to its end.  The kernel must match it bit for bit.
_REF_SCALE_LOG = 644.0
_REF_SCALE_DOWN = math.exp(-_REF_SCALE_LOG)
_REF_SEED_FLOOR = -640.0
_REF_UNWIND_AT = 1e20


def _reference_wigner_diagonals(amps, betas):
    n_amp = amps.shape[0]
    g = 2.0 * betas
    x_pt = g.real**2 + g.imag**2
    pos_pt = x_pt > 0.0
    u = np.where(pos_pt, g / np.sqrt(np.where(pos_pt, x_pt, 1.0)), 1.0 + 0.0j)
    x, inv = np.unique(x_pt, return_inverse=True)
    n_x = x.shape[0]
    pos = x > 0.0
    lx = np.log(np.where(pos, x, 1.0))
    total = np.zeros(betas.shape[0], np.float64)
    ph = np.ones(betas.shape[0], np.complex128)
    for k in range(n_amp):
        if k > 0:
            ph = ph * u
        pairs = [(-1.0 if n % 2 else 1.0) * (np.conj(amps[n + k]) * amps[n])
                 for n in range(n_amp - k)]
        if not any(pairs):
            continue  # the diagonal adds exact zeros
        if k == 0:
            seed = -0.5 * x
        else:
            seed = 0.5 * (k * lx - math.lgamma(k + 1.0)) - 0.5 * x
        j = np.zeros(n_x, np.int64)
        low = seed < _REF_SEED_FLOOR
        if low.any():
            j = np.where(low, ((_REF_SEED_FLOOR - seed) // _REF_SCALE_LOG).astype(np.int64) + 1, 0)
            seed = seed + _REF_SCALE_LOG * j
        b_cur = np.exp(seed)
        if k > 0:
            b_cur = np.where(pos, b_cur, 0.0)
        b_prev = np.zeros(n_x, np.float64)
        acc = np.zeros(n_x, np.complex128)
        any_scaled = bool((j > 0).any())
        for n, pair in enumerate(pairs):
            if any_scaled:
                acc = acc + pair * np.where(j == 0, b_cur, 0.0)
            else:
                acc = acc + pair * b_cur
            ca = (2.0 * n + k + 1.0 - x) / math.sqrt((n + 1.0) * (n + k + 1.0))
            cb = math.sqrt(n * (n + k) / ((n + 1.0) * (n + k + 1.0)))
            b_prev, b_cur = b_cur, ca * b_cur - cb * b_prev
            if any_scaled:
                grown = (j > 0) & (np.maximum(np.abs(b_cur), np.abs(b_prev)) > _REF_UNWIND_AT)
                if grown.any():
                    shrink = np.where(grown, _REF_SCALE_DOWN, 1.0)
                    b_cur = b_cur * shrink
                    b_prev = b_prev * shrink
                    j = j - grown
                    any_scaled = bool((j > 0).any())
        acc = acc[inv]
        if k == 0:
            total += acc.real
        else:
            total += 2.0 * (ph * acc).real
    return (2.0 / math.pi) * total


# The overlap kernel as it was before its steps ran in place and skipped
# zero amplitudes: a fresh array per step, every amplitude summed, one
# call per lattice.  The kernel and the blocked Q grid must match it bit
# for bit.
def _reference_coherent_overlaps(amps, betas):
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    betas = np.ascontiguousarray(betas, dtype=np.complex128)
    if betas.size == 0:
        return np.empty(0, np.complex128)
    bc = np.conj(betas)
    seed = -0.5 * (betas.real**2 + betas.imag**2)
    j = np.zeros(betas.shape[0], np.int64)
    low = seed < _REF_SEED_FLOOR
    if low.any():
        j = np.where(low, ((_REF_SEED_FLOOR - seed) // _REF_SCALE_LOG).astype(np.int64) + 1, 0)
        seed = seed + _REF_SCALE_LOG * j
    any_scaled = bool(j.any())
    term = np.exp(seed).astype(np.complex128)
    acc = amps[0] * (np.where(j == 0, term, 0.0) if any_scaled else term)
    for n in range(1, amps.shape[0]):
        term = term * bc / math.sqrt(n)
        if any_scaled:
            grown = (j > 0) & (np.abs(term) > _REF_UNWIND_AT)
            term = term * np.where(grown, _REF_SCALE_DOWN, 1.0)
            j = j - grown
            any_scaled = bool(j.any())
        acc = acc + amps[n] * (np.where(j == 0, term, 0.0) if any_scaled else term)
    return acc


class TestOverlapKernels:
    def test_svs_closed_form(self):
        # <beta|psi> = (cosh r)^{-1/2} exp(-|b|^2/2 + e^{i phi} tanh(r) conj(b)^2/2)
        r, phi = 1.0, 0.4
        amps = _svs_at_96(phi)
        rng = np.random.default_rng(6)
        betas = rng.normal(0, 2, 60) + 1j * rng.normal(0, 2, 60)
        want = np.exp(
            -0.5 * np.abs(betas) ** 2
            + 0.5 * np.exp(1j * phi) * math.tanh(r) * np.conj(betas) ** 2
        ) / math.sqrt(math.cosh(r))
        got = coherent_overlaps(amps, betas)
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_deterministic(self):
        st = states.make_coherent(1.5 + 0.5j)
        betas = np.array([0.3 + 0.1j, 2.0 - 1.0j, -0.7j])
        first = coherent_overlaps(st.amplitudes, betas)
        second = coherent_overlaps(st.amplitudes, betas)
        assert np.array_equal(first, second)

    def test_coherent_closed_form(self):
        # compared with the untruncated state: at its automatic cutoff (tail
        # near 1e-12) the truncation alone moves the overlap by ~2e-10
        alpha = 2.0 + 0.0j
        st = states.make_coherent(alpha, cutoff_override=51)
        betas = np.array([0.0j, 1.0 + 1.0j, 3.0 - 2.0j, -1.5 + 0.5j])
        want = np.exp(-0.5 * np.abs(betas) ** 2 - 0.5 * abs(alpha) ** 2 + np.conj(betas) * alpha)
        got = coherent_overlaps(st.amplitudes, betas)
        assert np.max(np.abs(got - want)) <= 1e-12

    # past |beta| ~ 38.6 the unscaled seed e^{-|beta|^2/2} underflows to 0
    FAR_RADII = [39.0, 50.0, 60.0]

    def test_far_field_svs_closed_form(self):
        # along the squeezed axis the r = 3 squeezed vacuum keeps Q ~ 1e-8 at |beta| = 60
        r = 3.0
        st = states.make_squeezed_vacuum(r, 0.0)
        betas = np.array(self.FAR_RADII, dtype=np.complex128)
        want = np.exp(
            -0.5 * np.abs(betas) ** 2 + 0.5 * math.tanh(r) * np.conj(betas) ** 2
        ) / math.sqrt(math.cosh(r))
        got = coherent_overlaps(st.amplitudes, betas)
        assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))

    def test_far_field_against_bargmann_weights(self):
        # photon-added squeezed vacuum peaking at |beta| ~ 45: Q from the
        # Cartesian recurrence against Q from the log-domain weights
        st = states.make_squeezed_vacuum(3.0, 0.0, p=10)
        half_lf = half_log_factorials(st.cutoff + 1)
        n = np.arange(st.cutoff + 1)
        for rho in self.FAR_RADII:
            for theta in (0.0, 0.01):
                beta = complex(rho * math.cos(theta), rho * math.sin(theta))
                ov = coherent_overlaps(st.amplitudes, np.array([beta]))[0]
                ref = st.amplitudes @ (bargmann_weights(half_lf, rho) * np.exp(-1j * theta * n))
                q, q_ref = abs(ov) ** 2 / math.pi, abs(ref) ** 2 / math.pi
                assert abs(q - q_ref) <= 1e-9 * q_ref

    def test_scaled_seeds_batch_independent(self):
        # points that need no seed scaling get the same bits beside points that do
        st = states.make_squeezed_vacuum(3.0, 0.0)
        betas = np.array([0.5, 20.0 + 3.0j, 35.0, 36.0 - 1.0j, 39.0, 50.0, 60.0 + 0.5j])
        batch = coherent_overlaps(st.amplitudes, betas)
        for beta, got in zip(betas, batch):
            single = coherent_overlaps(st.amplitudes, np.array([beta]))[0]
            assert got.tobytes() == single.tobytes()

    def test_points_past_every_scale_count_are_exact_zeros(self):
        # the scale count of |beta| = 2e11 is past int64, and |beta|^2 past
        # the double range from |beta| ~ 1.3e154; such points never unwind
        st = states.make_squeezed_vacuum(3.0, 0.0)
        far = np.array([2e11, -2e11j, 1e200 + 1e200j, -1.7e308, 1e308j])
        got = coherent_overlaps(st.amplitudes, np.concatenate([far, [0.5, 39.0]]))
        assert got[:5].tobytes() == np.zeros(5, np.complex128).tobytes()
        for beta, value in zip([0.5, 39.0], got[5:]):
            assert value != 0.0
            assert value.tobytes() == coherent_overlaps(st.amplitudes, np.array([beta]))[0].tobytes()


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
        # the naive sum loses ~all digits by |beta| ~ 6; the evaluator must not.
        # Cutoff 51 keeps the truncation itself below the 1e-18 tolerance.
        alpha = 2.0
        st = states.make_coherent(alpha, cutoff_override=51)
        beta = 6.0 + 0.0j
        want = (2.0 / math.pi) * math.exp(-2.0 * abs(beta - alpha) ** 2)
        got = wigner_values(st.amplitudes, np.array([beta]))[0]
        assert abs(got - want) <= 1e-18

    def test_svs_oracle_points(self):
        betas = np.array([b for b, _ in SVS_ORACLE])
        got = wigner_values(_svs_at_96(0.0), betas)
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

    @pytest.mark.parametrize("n", [0, 1, 1000, 5000])
    def test_fock_value_at_the_support_cut(self, n):
        # the outermost radius evaluated gives the frozen value (1.6e-13
        # relative at n = 1000), and the next double out is an exact 0
        cut = math.sqrt(n) + 6.0
        got = wigner_values(states.make_fock(n).amplitudes, np.array([cut, np.nextafter(cut, np.inf)]))
        assert math.log(got[0]) == pytest.approx(FOCK_LN_W_AT_CUT[n], abs=1e-12)
        assert got[1] == 0.0

    @pytest.mark.parametrize("n", sorted(FOCK_LN_W_AT_CUT))
    def test_fock_chain_at_the_support_cut(self, n):
        # W of |n> at the cut is (2/pi)|B(n, 0, x)|, the last value of its
        # chain; one still carried scaled is e^{-644 j} times what it reads.
        # Measured at most 1.6e-12 off in ln W (n = 20,000).  Past the cut
        # |W| <= (n+1) W_n for any state of cutoff n (the test below), and
        # the largest of these bounds is |0>'s, e^-72.45.
        x = 4.0 * (math.sqrt(n) + 6.0) ** 2
        *_, (b, j) = laguerre_chains(0, np.array([x]), np.log([x]), n)
        ln_w = math.log(2.0 / math.pi) + math.log(abs(b[0])) - (0.0 if j is None else 644.0 * j[0])
        assert ln_w == pytest.approx(FOCK_LN_W_AT_CUT[n], abs=1e-11)
        assert math.log(n + 1) + ln_w <= -72.45

    @pytest.mark.parametrize("n", [2, 10, 40])
    def test_fock_bounds_any_state_past_the_cut(self, n):
        # the bound above, on random states, evaluated without the cut
        rng = np.random.default_rng(n)
        amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        amps /= np.linalg.norm(amps)
        fock = states.make_fock(n).amplitudes
        for radius in (math.sqrt(n) + 6.0, math.sqrt(n) + 7.0):
            betas = radius * np.exp(2j * math.pi * np.arange(16) / 16)
            bound = (n + 1) * _wigner_diagonals(fock, np.array([radius + 0.0j]))[0]
            assert np.max(np.abs(_wigner_diagonals(amps, betas))) <= bound

    @pytest.mark.parametrize("build", [
        lambda: states.make_fock(3),
        lambda: states.make_coherent(1.2 + 0.5j, p=2),
        lambda: states.make_squeezed_vacuum(0.8, 0.4, p=1),
    ], ids=["fock", "pac", "pasv"])
    def test_parity_of_the_displaced_state(self, build):
        # W(b) = (2/pi) sum_m (-1)^m |(D(-b) psi)_m|^2 ties the two users of
        # the Laguerre chains together; measured at most 2.0e-16 apart
        st = build()
        betas = np.array([0.0, 0.7 - 0.3j, -1.1 + 0.9j, 1.6j])
        got = wigner_values(st.amplitudes, betas)
        for beta, w in zip(betas, got):
            c = states.displace(st, -beta).amplitudes
            sign = (-1.0) ** np.arange(c.shape[0])
            assert abs(w - (2.0 / math.pi) * np.sum(sign * (c.real**2 + c.imag**2))) <= 1e-14

    def test_scaled_chain_regime(self):
        # 4|beta|^2 = 1296 pushes the recurrence seeds below the double
        # underflow ledge; values frozen from a 60-digit run
        st = _deep_svs()
        betas = np.array([18.0 + 0.0j, 17.9 + 0.3j])
        want = np.array([2.1003120667042844e-15, 2.425403916268809e-15])
        got = _wigner_diagonals(st.amplitudes, betas)
        assert np.max(np.abs(got - want) / want) <= 1e-9

    def test_batch_independent(self):
        # a point's value must not depend on the other points in its call:
        # repeated radii (signs flipped, parts swapped) share their chains
        st = _deep_svs()
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


def _bit_identity_cases():
    pac = states.add_photons(states.make_coherent(1.2 + 0.7j), 3)
    assert np.all(pac.amplitudes[:3] == 0.0)  # leading zero amplitudes
    axis = np.linspace(-4.0, 4.0, 33)  # passes through 0 exactly
    lattice = (axis[None, :] + 1j * axis[:, None]).ravel()
    assert np.any(lattice == 0.0)
    rng = np.random.default_rng(11)
    scattered = rng.normal(0, 2.0, 200) + 1j * rng.normal(0, 2.0, 200)
    betas = np.concatenate([lattice, scattered])
    return {
        "svs": (states.make_squeezed_vacuum(0.8, 0.7).amplitudes, betas),
        "pasv_p2": (
            states.make_squeezed_vacuum(0.6, 1.1, p=2).amplitudes,
            betas,
        ),
        "pac_p3": (pac.amplitudes, betas),
        "fock_7": (states.make_fock(7).amplitudes, betas),
        "scaled_chain": (_deep_svs().amplitudes, np.array([18.0 + 0.0j, 17.9 + 0.3j])),
        "single_point": (states.make_squeezed_vacuum(0.8, 0.7).amplitudes, np.array([1.3 - 2.1j])),
    }


@pytest.mark.parametrize(
    "case", ["svs", "pasv_p2", "pac_p3", "fock_7", "scaled_chain", "single_point"]
)
def test_wigner_kernel_bit_identical_to_reference(case):
    amps, betas = _bit_identity_cases()[case]
    got = _wigner_diagonals(amps, betas)
    want = _reference_wigner_diagonals(amps, betas)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


_BLOCK = quasiprob._BLOCK_POINTS


def _overlap_cases():
    rng = np.random.default_rng(13)

    def scattered(n):
        return rng.normal(0, 2.5, n) + 1j * rng.normal(0, 2.5, n)

    def far(n):
        # |beta| 36-60, where the seed is carried scaled, near the squeezed axis
        return rng.uniform(36.0, 60.0, n) * np.exp(1j * rng.uniform(-0.02, 0.02, n))

    pac = states.add_photons(states.make_coherent(1.2 + 0.7j), 3)
    assert np.all(pac.amplitudes[:3] == 0.0)  # leading zero amplitudes
    axis = np.linspace(-4.0, 4.0, 33)  # passes through 0 exactly
    lattice = (axis[None, :] + 1j * axis[:, None]).ravel()
    pasv = states.make_squeezed_vacuum(0.6, 1.1, p=2).amplitudes
    svs3 = states.make_squeezed_vacuum(3.0, 0.0).amplitudes
    return {
        "no_points": (pasv, np.empty(0, np.complex128)),
        "one_point": (pasv, np.array([1.3 - 2.1j])),
        "block_minus_one": (pasv, scattered(_BLOCK - 1)),
        "block": (pasv, scattered(_BLOCK)),
        "block_plus_one": (pasv, scattered(_BLOCK + 1)),
        "three_blocks": (pasv, scattered(3 * _BLOCK)),
        "pac_p3": (pac.amplitudes, np.concatenate([lattice, scattered(200)])),
        "scaled_mixed": (svs3, np.concatenate([scattered(50), far(50), lattice])),
    }


@pytest.mark.parametrize("case", list(_overlap_cases()))
def test_overlap_kernel_bit_identical_to_reference(case):
    amps, betas = _overlap_cases()[case]
    got = coherent_overlaps(amps, betas)
    assert got.tobytes() == _reference_coherent_overlaps(amps, betas).tobytes()


@pytest.mark.parametrize("block_points", [_BLOCK, 600])
def test_q_grid_blocks_bit_identical_to_one_lattice(monkeypatch, block_points):
    # squeezed along the imaginary axis, Q reaches |y| ~ 50, where seeds
    # are carried scaled (|beta| past ~35.8); 97 rows make blocks of 84
    # and 13 rows, or of 6 rows and a last one, some with scaled seeds
    # and some with none
    monkeypatch.setattr(quasiprob, "_BLOCK_POINTS", block_points)
    st = states.make_squeezed_vacuum(2.5, math.pi)
    grid = quasiprob.q_grid(st, (-2.0, 6.0, -50.0, 50.0), 97)
    xs, ys = grid.x_centers(), grid.y_centers()
    assert np.any(np.abs(ys) > 36.0) and np.any(np.abs(ys) < 30.0)
    ov = _reference_coherent_overlaps(st.amplitudes, (xs[None, :] + 1j * ys[:, None]).ravel())
    want = (ov.real**2 + ov.imag**2) / math.pi
    assert grid.values.tobytes() == want.reshape(97, 97).tobytes()
    assert np.all(grid.values[np.abs(ys) > 36.0] > 0.0)
