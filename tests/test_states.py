"""State construction, photon addition, displacement, rotation, moments."""

import math
import re

import mpmath
import numpy as np
import pytest
from scipy.special import eval_laguerre

from nonclass import _kernels, analytic, states
from nonclass.errors import AccuracyError, CutoffError, DomainError
from nonclass.states import (
    FockState,
    add_photons,
    antinormal_correlation,
    displace,
    make_coherent,
    make_fock,
    make_squeezed_vacuum,
    mean_photon,
    rotate,
    svs_cutoff_for_moment,
)


def _overlap(state, beta):
    """<beta|psi> at one point, from the batch kernel."""
    return complex(_kernels.coherent_overlaps(state.amplitudes, np.array([beta]))[0])


class TestCoherent:
    def test_norm_and_mean(self):
        for alpha in (0.0, 1.0, 2.0 + 2.0j, -3.1 + 0.4j, 5.0j):
            st = make_coherent(alpha)
            assert abs(st.norm_sq() - 1.0) <= st.tail_bound + 1e-14
            assert st.tail_bound <= 1e-12
            assert mean_photon(st) == pytest.approx(abs(alpha) ** 2, abs=1e-9)

    def test_overlap_closed_form(self):
        rng = np.random.default_rng(41)
        alpha = 1.3 - 0.8j
        st = make_coherent(alpha)
        for _ in range(50):
            beta = complex(rng.normal(), rng.normal())
            got = _overlap(st, beta)
            want = np.exp(
                -0.5 * abs(beta) ** 2 - 0.5 * abs(alpha) ** 2 + np.conj(beta) * alpha
            )
            assert abs(got - want) <= 1e-12

    def test_vacuum_is_single_spike(self):
        st = make_coherent(0.0)
        assert st.amplitudes[0] == 1.0
        assert float(np.max(np.abs(st.amplitudes[1:]))) == 0.0


class TestFockAndAddition:
    def test_fock_is_delta(self):
        st = make_fock(4)
        assert st.cutoff == 4
        assert st.amplitudes[4] == 1.0
        assert float(np.sum(np.abs(st.amplitudes[:4]))) == 0.0

    def test_fock_cutoff_override(self):
        st = make_fock(3, cutoff_override=9)
        assert st.cutoff == 9
        assert st.tail_bound == 0.0
        assert st.amplitudes[3] == 1.0
        assert np.count_nonzero(st.amplitudes) == 1
        with pytest.raises(DomainError):
            make_fock(3, cutoff_override=2)

    def test_addition_to_vacuum_gives_fock(self):
        vac = make_coherent(0.0)
        st = add_photons(vac, 3)
        ref = make_fock(3)
        assert np.allclose(
            st.amplitudes[: ref.cutoff + 1], ref.amplitudes, rtol=0, atol=1e-15
        )

    def test_q_scaling_law(self):
        # adding p photons multiplies Q by |beta|^{2p} / <a^p a+^p>
        base = make_coherent(1.3 + 0.2j)
        added = add_photons(base, 2)
        denom = antinormal_correlation(base, 2)
        rng = np.random.default_rng(17)
        for _ in range(100):
            beta = complex(rng.normal(0, 1.5), rng.normal(0, 1.5))
            lhs = abs(_overlap(added, beta)) ** 2
            rhs = abs(beta) ** 4 * abs(_overlap(base, beta)) ** 2 / denom
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_zero_addition_is_identity(self):
        st = make_coherent(1.0)
        assert add_photons(st, 0) is st

    def test_addition_rejects_bad_count(self):
        with pytest.raises(DomainError):
            add_photons(make_coherent(1.0), -2)
        with pytest.raises(DomainError):
            add_photons(make_coherent(1.0), 1.5)


class TestSqueezedVacuum:
    def test_odd_amplitudes_vanish(self):
        st = make_squeezed_vacuum(1.0, 0.7)
        assert float(np.max(np.abs(st.amplitudes[1::2]))) == 0.0

    def test_norm(self):
        for r in (0.3, 1.0, 2.0):
            st = make_squeezed_vacuum(r, 0.0)
            assert abs(st.norm_sq() - 1.0) <= 1e-11

    def test_mean_photon_is_sinh_sq(self):
        for r in (0.5, 1.2):
            st = make_squeezed_vacuum(r, 0.3)
            assert mean_photon(st) == pytest.approx(math.sinh(r) ** 2, rel=1e-10)

    def test_q_closed_form(self):
        r, phi = 0.9, 0.7
        st = make_squeezed_vacuum(r, phi)
        rng = np.random.default_rng(5)
        th = math.tanh(r)
        for _ in range(100):
            beta = complex(rng.normal(0, 1.2), rng.normal(0, 1.2))
            got = abs(_overlap(st, beta)) ** 2
            want = math.exp(
                -abs(beta) ** 2 * (1.0 - th * math.cos(phi - 2.0 * np.angle(beta)))
            ) / math.cosh(r)
            assert abs(got - want) <= 1e-10 * want

    def test_moment_cutoff_controls_weighted_tail(self):
        r, p = 1.5, 4
        cut = svs_cutoff_for_moment(r, p)
        st = make_squeezed_vacuum(r, 0.0, cutoff_override=cut)
        got = antinormal_correlation(st, p)
        want = analytic.svs_antinormal(p, r)
        assert got == pytest.approx(want, rel=1e-10)

    def test_addition_cutoff(self):
        plain = make_squeezed_vacuum(1.0, 0.3)
        same = states.make_squeezed_vacuum_for_addition(1.0, 0.3, 0)
        assert np.array_equal(same.amplitudes, plain.amplitudes)
        assert same.tail_bound == plain.tail_bound
        assert states.make_squeezed_vacuum_for_addition(0.0, 0.3, 4).cutoff == 0
        grown = states.make_squeezed_vacuum_for_addition(1.0, 0.3, 5)
        assert grown.cutoff == max(plain.cutoff, svs_cutoff_for_moment(1.0, 5)) > plain.cutoff

    @pytest.mark.parametrize("p", [0, 1, 5, 10])
    @pytest.mark.parametrize("r", [0.0, 1e-9, 1.0, 2.0, 2.5])
    def test_addition_cutoff_built_once(self, r, p):
        # one build at the larger cutoff is byte for byte the state an
        # explicit override gives
        auto = make_squeezed_vacuum(r, 0.3).cutoff
        moment = svs_cutoff_for_moment(r, p) if p else 0
        got = states.make_squeezed_vacuum_for_addition(r, 0.3, p)
        want = make_squeezed_vacuum(r, 0.3, cutoff_override=max(auto, moment))
        assert got.cutoff == want.cutoff
        assert got.tail_bound == want.tail_bound
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()

    @pytest.mark.parametrize("p", range(11))
    @pytest.mark.parametrize("r", [1e-9, 1e-3, 0.1, 0.3, 0.5, 1.0, 1.5, 2.0, 2.5])
    def test_moment_cutoff_matches_loop(self, r, p):
        # reference: the comparison in floating point, the weight
        # (2m+1)...(2m+p) multiplied out term by term
        t2 = math.tanh(r) ** 2
        scale = 1e-13 * math.exp(math.lgamma(p + 1) + 2 * p * math.log(math.cosh(r)))
        prob, m = 1.0 / math.cosh(r), 0
        while True:
            m += 1
            prob = prob * t2 * (2 * m - 1) / (2 * m)
            weight = 1.0
            for k in range(1, p + 1):
                weight *= 2 * m + k
            ratio = t2 * (2 * m + p + 1) * (2 * m + p + 2) / ((2 * m + 2) ** 2)
            if ratio < 1.0 and prob * weight / (1.0 - ratio) <= scale:
                break
        assert svs_cutoff_for_moment(r, p) == 2 * m

    @pytest.mark.parametrize("p", [120, 160, 400])
    def test_moment_cutoff_for_large_p(self, p):
        # the float loop's weight and scale overflow here; reference: the
        # same test on logs summed term by term
        r = 1.0
        t2 = math.tanh(r) ** 2
        log_scale = math.log(1e-13) + math.lgamma(p + 1) + 2 * p * math.log(math.cosh(r))
        log_prob, m = -math.log(math.cosh(r)), 0
        while True:
            m += 1
            log_prob += math.log(t2 * (2 * m - 1) / (2 * m))
            log_weight = sum(math.log(2 * m + k) for k in range(1, p + 1))
            ratio = t2 * (2 * m + p + 1) * (2 * m + p + 2) / ((2 * m + 2) ** 2)
            if ratio < 1.0 and log_prob + log_weight - math.log1p(-ratio) <= log_scale:
                break
        assert svs_cutoff_for_moment(r, p) == 2 * m

    @staticmethod
    def _moment_cutoff_scan(r, p):
        # reference: the search as a scan over every m from 1, in the
        # same logs, stopping at m = _MAX_CUTOFF // 2
        if r == 0.0:
            return 0
        t2 = math.tanh(r) ** 2
        log_t2 = math.log(t2) if t2 > 0.0 else -math.inf
        log_cosh = math.log(math.cosh(r))
        log_4 = math.log(4.0)
        log_scale = math.log(1e-13) + math.lgamma(p + 1) + 2 * p * log_cosh
        m = 0
        while True:
            m += 1
            ratio = t2 * (2 * m + p + 1) * (2 * m + p + 2) / ((2 * m + 2) ** 2)
            log_term = (m * log_t2 - log_cosh + math.lgamma(2 * m + p + 1)
                        - 2.0 * math.lgamma(m + 1) - m * log_4)
            if ratio < 1.0 and log_term - math.log1p(-ratio) <= log_scale:
                return 2 * m
            if 2 * m >= states._MAX_CUTOFF:
                raise CutoffError(f"moment-aware cutoff for r={r}, p={p} exceeds {states._MAX_CUTOFF}")

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 5, 8, 13, 20])
    @pytest.mark.parametrize("r", [1e-9, 1e-4, 0.05, 0.4, 1.0, 1.7, 2.5, 3.1, 3.5])
    def test_moment_cutoff_search_matches_scan(self, r, p):
        assert svs_cutoff_for_moment(r, p) == self._moment_cutoff_scan(r, p)

    def test_moment_cutoff_search_at_the_cap(self):
        # p = 1: only m = _MAX_CUTOFF // 2 + 1, one pair past the cap, passes
        # at the first r, and no m passes 2e-9 above it, so both searches
        # refuse both r
        for r, p in [(4.831454028841108, 1), (4.8314540311694145, 1), (6.0, 3)]:
            with pytest.raises(CutoffError) as want:
                self._moment_cutoff_scan(r, p)
            with pytest.raises(CutoffError) as got:
                svs_cutoff_for_moment(r, p)
            assert str(got.value) == str(want.value)

    @staticmethod
    def _auto_cutoff_scan(r):
        # reference: the automatic rule as a pair-by-pair scan with a
        # running product
        t2 = math.tanh(r) ** 2
        prob = 1.0 / math.cosh(r)
        m = 0
        while True:
            nxt = prob * t2 * (2 * m + 1) / (2 * m + 2)
            if nxt / (1.0 - t2) <= 0.5 * states.TAIL_TARGET:
                return 2 * m
            prob = nxt
            m += 1
            if 2 * m > states._MAX_CUTOFF:
                raise CutoffError(
                    f"r={r} needs a cutoff beyond {states._MAX_CUTOFF}; "
                    "reduce r or supply amplitudes another way"
                )

    _AUTO_R = [0.0, 1e-300, 1e-9, 1e-3, 0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.5]

    @pytest.mark.parametrize("r", _AUTO_R)
    def test_auto_cutoff_search_matches_scan(self, r):
        assert states._svs_auto_cutoff(r) == self._auto_cutoff_scan(r)

    def test_auto_cutoff_search_matches_scan_at_random_r(self):
        for r in np.random.default_rng(14).uniform(0.0, 4.0, 300):
            assert states._svs_auto_cutoff(float(r)) == self._auto_cutoff_scan(float(r)), r

    @pytest.mark.parametrize("r", [6.0, 12.0])
    def test_auto_cutoff_refusal_matches_scan(self, r):
        with pytest.raises(CutoffError) as want:
            self._auto_cutoff_scan(r)
        with pytest.raises(CutoffError) as got:
            states._svs_auto_cutoff(r)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("r", [r for r in _AUTO_R if r <= 3.0])
    def test_tail_bound_is_the_tested_pair_mass(self, r):
        # the state carries the bound the automatic rule tests; it agrees
        # with the certificate from the last amplitude up to the rounding
        # of the log-domain sum, whose largest term is lgamma(2m + 1) for
        # the first excluded pair m
        st = make_squeezed_vacuum(r, 0.3)
        assert st.tail_bound <= 0.5 * states.TAIL_TARGET
        t2 = math.tanh(r) ** 2
        pairs = st.cutoff // 2
        last = abs(st.amplitudes[2 * pairs]) ** 2
        want = last * t2 * (2 * pairs + 1) / (2 * pairs + 2) / (1.0 - t2)
        rel = 1e-12 + 8 * np.finfo(float).eps * math.lgamma(2 * pairs + 3)
        assert st.tail_bound == pytest.approx(want, rel=rel, abs=0.0)

    def test_squeeze_past_cosh_range_refused(self):
        # cosh 800 overflows a double; no cutoff could hold the state anyway
        with pytest.raises(CutoffError):
            svs_cutoff_for_moment(800.0, 2)
        with pytest.raises(CutoffError):
            make_squeezed_vacuum(800.0, 0.0, cutoff_override=10)

    def test_extreme_squeezing_refused(self):
        with pytest.raises(CutoffError):
            make_squeezed_vacuum(8.0, 0.0)

    def test_negative_r_refused(self):
        with pytest.raises(DomainError):
            make_squeezed_vacuum(-0.5, 0.0)


class TestDisplace:
    def test_zero_is_identity(self):
        st = make_coherent(1.0 + 1.0j)
        assert displace(st, 0.0) is st

    def test_vacuum_displacement_is_coherent(self):
        lam = 0.9 - 0.4j
        got = displace(make_coherent(0.0), lam)
        ref = make_coherent(lam)
        n = min(got.cutoff, ref.cutoff) + 1
        assert np.max(np.abs(got.amplitudes[:n] - ref.amplitudes[:n])) <= 1e-12

    def test_guard_radius(self):
        with pytest.raises(DomainError):
            displace(make_coherent(0.0), 5.0 + 0.1j)

    def test_norm_preserved(self):
        st = displace(make_fock(1), 0.7)
        assert st.norm_sq() == pytest.approx(1.0, abs=1e-10)

    def test_fock_10_by_5_matches_mpmath(self):
        # the former row recurrence in m was off by 5.3e-9 relative here
        st = displace(make_fock(10), 5.0)
        ref = _displaced_fock_reference(10, 5.0, st.cutoff)
        assert np.max(np.abs(st.amplitudes - ref)) <= 1e-13
        big = np.abs(ref) > 1e-8
        assert np.max(np.abs(st.amplitudes[big] / ref[big] - 1.0)) <= 1e-12

    def test_fock_30_by_4_3j_reports_true_loss(self):
        # |30> displaced by 4+3j keeps 1 - 8.26e-7 of its norm within the
        # enlarged cutoff 125, so the check must raise with that loss (the
        # row recurrence reported -5.494e-04, a norm that grew)
        ref = _displaced_fock_reference(30, 4.0 + 3.0j, 125)
        want = 1.0 - math.sqrt(float(np.sum(np.abs(ref) ** 2)))
        with pytest.raises(AccuracyError, match="lost norm") as info:
            displace(make_fock(30), 4.0 + 3.0j)
        got = float(re.search(r"lost norm (\S+);", str(info.value)).group(1))
        assert got == pytest.approx(want, rel=1e-3)

    @pytest.mark.parametrize("n", [0, 7, 30])
    def test_laguerre_rows_match_mpmath(self, n):
        rows = list(_kernels.laguerre_rows(25.0, 30, 125))
        assert len(rows) == 31
        with mpmath.workdps(40):
            ref = [float(_bounded_laguerre(n, k, 25)) for k in range(126)]
        assert np.max(np.abs(rows[n] - ref)) <= 1e-14


def _bounded_laguerre(n, k, x):
    """B(n, k, x) = sqrt(n!/(n+k)!) x^(k/2) e^(-x/2) L_n^(k)(x), in mpmath."""
    x = mpmath.mpf(x)
    return (
        mpmath.sqrt(mpmath.factorial(n) / mpmath.factorial(n + k))
        * x ** (mpmath.mpf(k) / 2) * mpmath.exp(-x / 2) * mpmath.laguerre(n, k, x)
    )


def _displaced_fock_reference(n, lam, cutoff):
    """<m|D(lam)|n> for m = 0..cutoff from 40-digit matrix elements."""
    u = complex(lam) / abs(lam)
    x = abs(lam) ** 2
    out = np.empty(cutoff + 1, dtype=np.complex128)
    with mpmath.workdps(40):
        for m in range(cutoff + 1):
            phase = u ** (m - n) if m >= n else (-u.conjugate()) ** (n - m)
            out[m] = phase * float(_bounded_laguerre(min(m, n), abs(m - n), x))
    return out


class TestRotate:
    def test_amplitude_phases(self):
        st = make_coherent(1.2 + 0.3j)
        theta = 0.8
        rot = rotate(st, theta)
        n = np.arange(st.cutoff + 1)
        want = st.amplitudes * np.exp(-1j * n * theta)
        assert np.max(np.abs(rot.amplitudes - want)) == 0.0

    def test_mean_photon_invariant(self):
        st = make_squeezed_vacuum(1.0, 0.2)
        assert mean_photon(rotate(st, 1.3)) == pytest.approx(
            mean_photon(st), rel=1e-14
        )


class TestAntinormalCorrelation:
    def test_vacuum_gives_factorial(self):
        vac = make_coherent(0.0)
        for p in range(1, 9):
            assert antinormal_correlation(vac, p) == pytest.approx(
                math.factorial(p), rel=1e-14
            )

    def test_coherent_gives_laguerre(self):
        # <a^p a+^p> on |alpha> = p! L_p(-|alpha|^2)
        alpha = 1.1 + 0.6j
        st = make_coherent(alpha)
        u = abs(alpha) ** 2
        for p in range(1, 6):
            want = math.factorial(p) * eval_laguerre(p, -u)
            assert antinormal_correlation(st, p) == pytest.approx(want, rel=1e-9)

    def test_svs_matches_closed_form(self):
        r = 1.0
        for p in (1, 2, 3):
            cut = svs_cutoff_for_moment(r, p)
            st = make_squeezed_vacuum(r, 0.4, cutoff_override=cut)
            want = analytic.svs_antinormal(p, r)
            assert antinormal_correlation(st, p) == pytest.approx(want, rel=1e-9)

    def test_weights_rescaled_bit_for_bit(self):
        # (n+1)...(n+140) for n <= 46 peaks near 2^950: rescaled, yet equal
        # to the unscaled running product times 2^-shift
        st = make_coherent(1.0)
        weight, shift = states._addition_weights(st, 140)
        assert shift == 600
        n = np.arange(st.cutoff + 1, dtype=np.float64)
        plain = np.ones_like(n)
        for k in range(1, 141):
            plain *= n + k
        assert np.ldexp(weight, shift).tobytes() == plain.tobytes()

    def test_weights_past_double_range(self):
        # (n+1)...(n+400) overflows a double; weight 2^shift keeps it to
        # rounding, and the moment itself is reported as inf
        st = make_coherent(1.0)
        weight, shift = states._addition_weights(st, 400)
        assert weight.max() <= 2.0**900
        for n in (0, 10, st.cutoff):
            num, den = float(weight[n]).as_integer_ratio()
            ratio = num * 2**shift / (den * math.prod(range(n + 1, n + 401)))
            assert abs(ratio - 1.0) <= 400 * 2.0**-52
        assert antinormal_correlation(st, 400) == math.inf


class TestFockStateValidation:
    def test_norm_leak_beyond_tail_rejected(self):
        amps = np.zeros(5, dtype=complex)
        amps[0] = 0.9
        with pytest.raises(AccuracyError, match="squared norm"):
            FockState(amplitudes=amps, cutoff=4, tail_bound=1e-12)

    def test_length_mismatch_rejected(self):
        amps = np.zeros(5, dtype=complex)
        amps[0] = 1.0
        with pytest.raises(ValueError):
            FockState(amplitudes=amps, cutoff=3, tail_bound=0.0)

    def test_amplitudes_read_only(self):
        st = make_fock(2)
        with pytest.raises((ValueError, RuntimeError)):
            st.amplitudes[0] = 1.0
