"""State construction, photon addition, displacement, rotation, moments."""

import cmath
import math

import hypothesis.strategies as hs
import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.special import eval_laguerre

from nonclass import _kernels, analytic, optimizer, states
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


def _svs_amplitude(r, phi, m):
    """c_{2m} = (cosh r)^{-1/2} e^{i m phi} tanh^m r sqrt((2m)!)/(m! 2^m), to 40 digits."""
    with mpmath.workdps(40):
        r, phi = mpmath.mpf(r), mpmath.mpf(phi)
        root = mpmath.exp(mpmath.loggamma(2 * m + 1) / 2 - mpmath.loggamma(m + 1)) / 2**m
        return mpmath.expj(m * phi) * mpmath.tanh(r) ** m * root / mpmath.sqrt(mpmath.cosh(r))


def _svs_amplitude_errors(state, r, phi, samples=7):
    """Relative errors of `samples` even amplitudes of a p = 0 squeezed vacuum,
    first and last included, against _svs_amplitude; amplitudes below 1e-290,
    past the doubles' relative precision, are left out."""
    errors = []
    for m in sorted(set(np.linspace(0, state.cutoff // 2, samples).astype(int).tolist())):
        want = _svs_amplitude(r, phi, m)
        if abs(want) >= 1e-290:
            errors.append(float(abs(complex(state.amplitudes[2 * m]) - want) / abs(want)))
    return errors


# squeezed vacua up to r = 4.5, past dq_mix's 2.5, with up to 10 photons
# added; derandomized, so every run draws the same examples
_SVS_DOMAIN = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def _coherent_amplitude_errors(state, alpha, samples=7):
    """Relative errors of `samples` amplitudes of a p = 0 coherent state, from
    the first to the last of those at 1e-8 of the largest or above, against
    e^{-mu/2} mu^{n/2} e^{i n theta}/sqrt(n!) to 40 digits.

    mu = |alpha|^2 and theta = arg alpha are the doubles the constructor
    rounds them to: a last-bit change of mu moves c_n by (n - mu) ulps, and
    one of theta by n ulps, which only rescale or rotate alpha.
    """
    mags = np.abs(state.amplitudes)
    kept = np.flatnonzero(mags >= 1e-8 * np.max(mags))
    errors = []
    with mpmath.workdps(40):
        mu, theta = mpmath.mpf(abs(alpha) ** 2), mpmath.mpf(math.atan2(alpha.imag, alpha.real))
        for n in sorted(set(np.linspace(kept[0], kept[-1], samples).astype(int).tolist())):
            want = mpmath.expj(n * theta) * mpmath.sqrt(mu**n / mpmath.factorial(n)) * mpmath.exp(-mu / 2)
            errors.append(float(abs(complex(state.amplitudes[n]) - want) / abs(want)))
    return errors


# coherent inputs from |alpha| = 0 through 1e-150 to 400, where the cutoff
# nears _MAX_CUTOFF, any phase, up to 10 photons added
_COHERENT_DOMAIN = settings(derandomize=True, database=None, max_examples=60, deadline=None)
_COHERENT_MODULI = hs.one_of(hs.floats(0.0, 400.0), hs.floats(-150.0, 2.6).map(lambda e: 10.0**e))


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

    def test_vacuum_is_exact_at_cutoff_zero(self):
        st = make_coherent(0.0)
        assert st.cutoff == 0
        assert st.amplitudes.tolist() == [1.0]
        assert st.tail_bound == 0.0

    def test_vacuum_with_cutoff_override_is_fock_zero(self):
        st = make_coherent(0.0, cutoff_override=5)
        assert st.amplitudes.tolist() == make_fock(0, 5).amplitudes.tolist()
        assert st.tail_bound == 0.0

    @pytest.mark.parametrize("alpha", [38.0, 8.115528882220556, 32.5**0.5, 1e-6j, -1e-8,
                                       -81.7237058770635 - 289.8797482071739j])
    def test_closed_form_at_pinned_inputs(self, alpha):
        # 38 failed the loop's norm check; at sqrt(32.5) Stirling's series
        # without its M^-7 term is 1.7e-14 off; at 1e-6 log1p(mu/j - 1)
        # cancels and at 1e-8 it reaches log1p(-1); at the last, cumulative
        # sums of unsplit log steps drift 5e-14
        st = make_coherent(alpha)
        assert abs(st.norm_sq() - 1.0) <= 5e-15
        assert max(_coherent_amplitude_errors(st, complex(alpha), samples=15)) <= 1e-14

    @_COHERENT_DOMAIN
    @given(mod=_COHERENT_MODULI, arg=hs.floats(-2.0 * math.pi, 2.0 * math.pi), p=hs.integers(0, 10))
    @example(mod=0.0, arg=0.0, p=3)
    @example(mod=1e-150, arg=1.0, p=0)
    @example(mod=400.0, arg=-2.0, p=10)
    def test_closed_form_over_the_domain(self, mod, arg, p):
        # no norm-check failure; amplitudes at mpmath's; and the certified tail
        # at least the mass that a state twice as deep holds past the cutoff
        alpha = cmath.rect(mod, arg)
        st = make_coherent(alpha, p=p)
        inp = make_coherent(alpha, cutoff_override=st.cutoff - p)
        assert max(_coherent_amplitude_errors(inp, alpha)) <= 5e-14
        depth = min(2 * st.cutoff + 40, states._MAX_CUTOFF) - p
        beyond = make_coherent(alpha, cutoff_override=depth, p=p).amplitudes[st.cutoff + 1:]
        assert float(np.sum(beyond.real**2 + beyond.imag**2)) <= st.tail_bound


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

    @pytest.mark.parametrize("p", [1, 2, 5, 10])
    def test_addition_to_built_states(self, p):
        # add_photons on a state already built: a squeezed vacuum cut at
        # svs_cutoff_for_moment(r, p) gives the constructor's amplitudes
        # within 2e-14 relative, entry by entry (measured 5.6e-15: the
        # constructor raises the exact ln|c_n|, add_photons the rounded c_n),
        # its tail left uncertified; a coherent state cut for p = 0 loses
        # tail, yet its q_max is within 1e-6 relative of the closed form
        for r, phi in ((0.3, 0.6), (0.55, 0.6), (1.0, 0.0), (1.0, 0.4), (1.0, 0.6), (2.0, 0.6)):
            st = add_photons(make_squeezed_vacuum(r, phi, cutoff_override=svs_cutoff_for_moment(r, p)), p)
            built = make_squeezed_vacuum(r, phi, p=p).amplitudes
            held = built != 0.0
            assert np.array_equal(st.amplitudes != 0.0, held)
            assert np.max(np.abs(st.amplitudes[held] / built[held] - 1.0)) <= 2e-14
            assert st.tail_bound == math.inf
        for u in (0.1, 0.9, 1.0, 1.5, 3.0):
            got = optimizer.maximize_q(add_photons(make_coherent(math.sqrt(u)), p)).q_max
            want = analytic.qmax_pac(p=p, alpha_sq=u)
            assert abs(got - want) <= 1e-6 * want

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

    @pytest.mark.parametrize("r, phi, p", [(2.49724, 3.051618, 5), (3.5, 0.0, 1), (3.0, 0.0, 10)])
    def test_closed_form_at_pinned_inputs(self, r, phi, p):
        # dq_mix inputs where the loop that compounded tanh r drifted: the first
        # failed the norm check, the others missed mpmath by 2e-13 and 7e-14
        st = make_squeezed_vacuum(r, phi, p=p)
        assert st.tail_bound <= states.TAIL_TARGET
        inp = make_squeezed_vacuum(r, phi, cutoff_override=st.cutoff - p)
        assert max(_svs_amplitude_errors(inp, r, phi, samples=15)) <= 5e-14

    @pytest.mark.parametrize("phi", [1e30, -3e38, 1e300])
    def test_any_finite_angle(self, phi):
        # an angle this large only rotates the state; past float32's range it
        # is taken mod 2 pi before the exponent is split
        st = make_squeezed_vacuum(2.0, phi, p=1)
        unrotated = make_squeezed_vacuum(2.0, 0.0, p=1)
        assert np.allclose(np.abs(st.amplitudes), np.abs(unrotated.amplitudes), rtol=1e-14, atol=0.0)

    @_SVS_DOMAIN
    @given(r=hs.floats(0.0, 4.5), phi=hs.floats(-2.0 * math.pi, 2.0 * math.pi),
           p=hs.integers(0, 10))
    @example(r=4.5, phi=5.9, p=10)
    @example(r=1e-6, phi=-1.0, p=3)
    def test_closed_form_over_the_domain(self, r, phi, p):
        # no norm-check failure; amplitudes at mpmath's; and the certified tail
        # at least the mass that a state twice as deep holds past the cutoff
        st = make_squeezed_vacuum(r, phi, p=p)
        inp = make_squeezed_vacuum(r, phi, cutoff_override=st.cutoff - p)
        assert max(_svs_amplitude_errors(inp, r, phi)) <= 5e-14
        depth = min(2 * st.cutoff + 40, states._MAX_CUTOFF) - p
        beyond = make_squeezed_vacuum(r, phi, cutoff_override=depth, p=p).amplitudes[st.cutoff + 1:]
        assert float(np.sum(beyond.real**2 + beyond.imag**2)) <= st.tail_bound


def _log_target():
    return math.log(states.TAIL_TARGET / states._ROUNDING_MARGIN)


def _gaussian_input(family, param):
    """(mu, sigma, vacuum, label) of a coherent input with |alpha|^2 = param
    or a squeezed vacuum with r = param, as the constructors pass them."""
    if family == "coherent":
        return param, 0.0, param == 0.0, f"|alpha|^2={param:.6g}"
    return 0.0, math.sinh(param) ** 2, param == 0.0, f"r={param}"


def _true_discarded_mass(family, param, phase, p, cutoff):
    """Mass the p-photon-added input cut at `cutoff` discards, to 40 digits.

    sum_{n > cutoff} |c_n|^2 (n+1)...(n+p) / M_p, summed until a term is
    below 1e-30 of the sum, with M_p the exact moment: p! L_p(-|alpha|^2)
    for |alpha>, p! c^p P_p(c), c = cosh r, for the squeezed vacuum.
    """
    with mpmath.workdps(40):
        if family == "coherent":
            alpha = mpmath.mpc(param * math.cos(phase), param * math.sin(phase))
            mu = abs(alpha) ** 2
            moment = mpmath.factorial(p) * mpmath.laguerre(p, 0, -mu)
            n = cutoff + 1
            prob = mpmath.exp(-mu) * mu**n / mpmath.factorial(n)
            step = 1
        else:
            r = mpmath.mpf(param)
            c, t2 = mpmath.cosh(r), mpmath.tanh(r) ** 2
            moment = mpmath.factorial(p) * c**p * mpmath.legendre(p, c)
            n = cutoff + 2 - cutoff % 2  # the first even n past the cutoff
            m = n // 2
            prob = t2**m * mpmath.factorial(n) / (mpmath.factorial(m) ** 2 * 4**m * c)
            step = 2
        total = mpmath.mpf(0)
        while True:
            term = prob * mpmath.rf(n + 1, p)
            total += term
            if term < 1e-30 * total:
                return float(total / moment)
            n += step
            prob *= mu / n if family == "coherent" else t2 * (n - 1) / n


def _certificate_cases():
    # seeded (family, |alpha| or r, phase, p): |alpha|^2 in [0, 16],
    # r in [0.01, 2.5], p in [0, 10], with the edges of each range
    rng = np.random.default_rng(17)
    cases = [("coherent", 4.0, 0.3, 10), ("coherent", 1e-3, 1.0, 0),
             ("svs", 2.5, 0.2, 10), ("svs", 0.01, 2.0, 0), ("svs", 2.0, 0.0, 10)]
    for _ in range(10):
        cases.append(("coherent", 4.0 * math.sqrt(rng.uniform()), rng.uniform(0.0, 2 * math.pi),
                      int(rng.integers(0, 11))))
        cases.append(("svs", rng.uniform(0.01, 2.5), rng.uniform(0.0, 2 * math.pi),
                      int(rng.integers(0, 11))))
    return cases


class TestCutoffRule:
    @pytest.mark.parametrize("case", range(25))
    def test_certificate_bounds_true_discarded_mass(self, case):
        family, param, phase, p = _certificate_cases()[case]
        if family == "coherent":
            st = make_coherent(param * complex(math.cos(phase), math.sin(phase)), p=p)
        else:
            st = make_squeezed_vacuum(param, phase, p=p)
        true = _true_discarded_mass(family, param, phase, p, st.cutoff - p)
        assert 0.0 < true <= st.tail_bound <= states.TAIL_TARGET

    @pytest.mark.parametrize("p", [1, 3, 6, 10, 20])
    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 1.7, 2.5])
    def test_moment_cutoff_keeps_moments(self, r, p):
        # at svs_cutoff_for_moment(r, p) every moment of order q <= p is
        # within TAIL_TARGET relative of the closed form, plus rounding
        cut = svs_cutoff_for_moment(r, p)
        st = make_squeezed_vacuum(r, 0.3, cutoff_override=cut)
        assert make_squeezed_vacuum(r, 0.3, p=p).cutoff == cut + p
        for q in range(p + 1):
            got = antinormal_correlation(st, q)
            assert abs(got / analytic.svs_antinormal(q, r) - 1.0) <= states.TAIL_TARGET + 2e-13

    def test_photon_added_svs_certificate(self):
        # the p = 10 state certifies its own tail; adding the photons to
        # the p = 0 state (cutoff 763) cannot, and says so
        st = make_squeezed_vacuum(2.0, 0.0, p=10)
        true = _true_discarded_mass("svs", 2.0, 0.0, 10, st.cutoff - 10)
        assert true <= st.tail_bound <= 1e-12
        added = add_photons(make_squeezed_vacuum(2.0, 0.0), 10)
        assert _true_discarded_mass("svs", 2.0, 0.0, 10, added.cutoff - 10) > 1e-5
        assert added.tail_bound == math.inf

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 5, 8, 13, 20, 160])
    @pytest.mark.parametrize("family, param", [
        ("svs", r) for r in (1e-9, 1e-4, 0.05, 0.4, 1.0, 1.7, 2.5, 3.1, 3.5)
    ] + [("coherent", mu) for mu in (1e-9, 0.3, 3.0, 16.0, 100.0, 400.0, 1444.0)])
    def test_cutoff_is_the_least_passing(self, family, param, p):
        # the window search against the bound itself: it passes at N and
        # fails at N - 1, and the bound falls with N
        mu, sigma, vacuum, label = _gaussian_input(family, param)
        cutoff, _, tail = states._gaussian_cutoff(mu, sigma, p, None, vacuum, label)
        ratios = analytic.log_moment_ratios(mu, sigma, p + states._MOMENT_ORDERS)
        bounds = states._log_tail_bounds(ratios, p, max(cutoff - 1, 0), cutoff)
        assert bounds[-1] <= _log_target() < (bounds[0] if cutoff else math.inf)
        assert tail == math.exp(bounds[-1]) * states._ROUNDING_MARGIN

    @pytest.mark.parametrize("p", [0, 1, 10])
    def test_measured_cutoffs(self, p):
        # measured input cutoffs of the rule, pinned
        want = {0: (25, 102, 2075), 1: (27, 116, 2383), 10: (36, 195, 4046)}[p]
        got = (make_coherent(math.sqrt(3.0), p=p).cutoff - p,
               make_squeezed_vacuum(1.0, 0.0, p=p).cutoff - p,
               svs_cutoff_for_moment(2.5, p))
        assert got == want

    @pytest.mark.parametrize("p", [0, 1, 4])
    def test_vacuum_is_exact(self, p):
        for st in (make_coherent(0.0, p=p), make_squeezed_vacuum(0.0, 0.7, p=p)):
            assert st.cutoff == p and st.tail_bound == 0.0
            assert st.amplitudes.tobytes() == make_fock(p).amplitudes.tobytes()
        assert make_coherent(0.0, cutoff_override=6, p=p).cutoff == 6 + p

    def test_override_certified_by_the_same_bound(self):
        auto = make_squeezed_vacuum(1.0, 0.3, p=2)
        same = make_squeezed_vacuum(1.0, 0.3, cutoff_override=auto.cutoff - 2, p=2)
        assert same.tail_bound == auto.tail_bound
        assert same.amplitudes.tobytes() == auto.amplitudes.tobytes()
        deeper = make_coherent(1.5, cutoff_override=80, p=3)
        assert 0.0 < deeper.tail_bound < make_coherent(1.5, p=3).tail_bound
        with pytest.raises(CutoffError, match="certifies tail"):
            make_squeezed_vacuum(1.0, 0.3, cutoff_override=auto.cutoff - 3, p=2)
        with pytest.raises(CutoffError, match="certifies tail"):
            make_coherent(1.0, cutoff_override=12, p=5)

    def test_searched_cutoff_certifies_its_override_tail(self):
        # each tail-bound row is its own cumulative sum of logs, so the
        # search and an override of the cutoff it picks certify the same bits
        rng = np.random.default_rng(35)
        differ = []
        for draw in range(2000):
            p = int(rng.integers(0, 11))
            if draw % 2:
                make, args = make_coherent, (complex(*rng.normal(0.0, 6.0, 2)),)
            else:
                make, args = make_squeezed_vacuum, (rng.uniform(0.0, 3.5), rng.uniform(0.0, 2.0 * math.pi))
            auto = make(*args, p=p)
            if make(*args, cutoff_override=auto.cutoff - p, p=p).tail_bound != auto.tail_bound:
                differ.append(draw)
        assert differ == []

    def test_coherent_refusal_when_no_window_row_passes(self):
        # the search window is non-empty here, but none of its rows passes
        with pytest.raises(CutoffError) as info:
            make_coherent(math.sqrt(162284.0), p=10)
        assert str(info.value) == "moment-aware cutoff for |alpha|^2=162284, p=10 exceeds 250000"

    @pytest.mark.parametrize("cutoff", [None, 10])
    @pytest.mark.parametrize("build, label", [
        (lambda c: make_squeezed_vacuum(8.0, 0.0, cutoff_override=c), "r=8.0"),
        (lambda c: make_squeezed_vacuum(800.0, 0.0, cutoff_override=c), "r=800.0"),
        (lambda c: make_coherent(600.0, cutoff_override=c), "|alpha|^2=360000"),
    ], ids=["svs-8", "svs-800", "coherent-600"])
    def test_one_refusal_past_the_cap(self, build, label, cutoff):
        # <n> past the cap: one refusal, with or without an override
        with pytest.raises(CutoffError) as info:
            build(cutoff)
        assert str(info.value) == f"moment-aware cutoff for {label}, p=0 exceeds 250000"

    @pytest.mark.parametrize("r, p", [(4.831454028841108, 1), (4.8314540311694145, 1), (6.0, 3)])
    def test_refusal_at_the_cap(self, r, p):
        with pytest.raises(CutoffError) as info:
            svs_cutoff_for_moment(r, p)
        assert str(info.value) == f"moment-aware cutoff for r={r}, p={p} exceeds 250000"

    @pytest.mark.parametrize("build", [
        lambda: make_coherent(1.0, p=10**13),
        lambda: make_squeezed_vacuum(1.0, 0.0, p=10**13),
        lambda: make_coherent(1e100),
        lambda: make_coherent(1.0, cutoff_override=states._MAX_CUTOFF, p=1),
    ])
    def test_oversized_refused_before_building(self, build):
        with pytest.raises(CutoffError):
            build()

    @pytest.mark.parametrize("case", range(12))
    def test_pac_q_matches_closed_form(self, case):
        # Q of p photons on |alpha> is |beta|^2p e^{-|beta-alpha|^2} / (pi p! L_p(-|alpha|^2));
        # truncation moves Q by at most (2 sqrt(tau) + tau)/pi
        rng = np.random.default_rng(100 + case)
        modulus, phase = 4.0 * math.sqrt(rng.uniform()), rng.uniform(0.0, 2 * math.pi)
        alpha = modulus * complex(math.cos(phase), math.sin(phase))
        p = int(rng.integers(0, 11))
        st = make_coherent(alpha, p=p)
        tau = st.tail_bound
        betas = alpha + rng.normal(0.0, 2.0, 40) + 1j * rng.normal(0.0, 2.0, 40)
        got = np.abs(_kernels.coherent_overlaps(st.amplitudes, betas)) ** 2 / math.pi
        with mpmath.workdps(40):
            moment = mpmath.factorial(p) * mpmath.laguerre(p, 0, -abs(mpmath.mpc(alpha)) ** 2)
            want = np.array([float(abs(mpmath.mpc(b)) ** (2 * p) * mpmath.exp(-abs(mpmath.mpc(b) - alpha) ** 2)
                                   / (mpmath.pi * moment)) for b in betas])
        assert np.max(np.abs(got - want)) <= (2.0 * math.sqrt(tau) + tau) / math.pi + 1e-15


def _log_moment(family, param, p):
    """ln M_p of the input to 40 digits: p! L_p(-mu), mu = |alpha|^2 as the
    double the constructor takes, or p! c^p P_p(c), c = cosh r."""
    with mpmath.workdps(40):
        if family == "coherent":
            return mpmath.log(mpmath.factorial(p) * mpmath.laguerre(p, 0, -mpmath.mpf(abs(param) ** 2)))
        c = mpmath.cosh(mpmath.mpf(param))
        return mpmath.log(mpmath.factorial(p)) + p * mpmath.log(c) + mpmath.log(mpmath.legendre(p, c))


def _raised_amplitude(family, param, phase, p, n, log_moment):
    """Amplitude of |n> in the p-photon-added input, normalized by the exact
    M_p, to 40 digits: c_{n-p} sqrt((n-p+1)...n / M_p), for |alpha> at
    alpha = param (mu and arg alpha the doubles the constructor takes) or the
    squeezed vacuum at r = param, phi = phase."""
    k = n - p
    with mpmath.workdps(40):
        if family == "coherent":
            mu = mpmath.mpf(abs(param) ** 2)
            log_c = (k * mpmath.log(mu) - mu - mpmath.loggamma(k + 1)) / 2
            turn = k * mpmath.mpf(math.atan2(param.imag, param.real))
        elif k % 2:
            return mpmath.mpc(0)
        else:
            m, r = k // 2, mpmath.mpf(param)
            log_c = (m * mpmath.log(mpmath.tanh(r)) + mpmath.loggamma(2 * m + 1) / 2
                     - mpmath.loggamma(m + 1) - m * mpmath.log(2) - mpmath.log(mpmath.cosh(r)) / 2)
            turn = m * mpmath.mpf(phase)
        log_b = log_c + (mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - log_moment) / 2
        return mpmath.expj(turn) * mpmath.exp(log_b)


def _build(family, param, phase, p):
    if family == "coherent":
        return make_coherent(param, p=p)
    return make_squeezed_vacuum(param, phase, p=p)


def _raised_amplitude_errors(family, param, phase, p, samples=9):
    """Relative errors of `samples` amplitudes of the p-photon-added state,
    from the first to the last of those at 1e-8 of the largest or above,
    against _raised_amplitude; the state divides by its own kept mass, not
    by M_p, which moves each amplitude by at most its tail_bound."""
    st = _build(family, param, phase, p)
    mags = np.abs(st.amplitudes)
    kept = np.flatnonzero(mags >= 1e-8 * np.max(mags))
    log_moment = _log_moment(family, param, p)
    errors = []
    for n in sorted(set(np.linspace(kept[0], kept[-1], samples).astype(int).tolist())):
        n += (n - p) % 2 if family == "svs" else 0
        want = _raised_amplitude(family, param, phase, p, n, log_moment)
        errors.append(float(abs(complex(st.amplitudes[n]) - want) / abs(want)))
    return st, errors


# item 20's rows: the input cutoffs of the former build that lost mass, and
# the extremes it kept
_FORMER_LOSS_ROWS = [("svs", 0.5, 0.0, 1600), ("svs", 0.5, 0.0, 2000), ("svs", 0.1, 0.0, 5000),
                     ("svs", 1.0, 0.0, 3000), ("coherent", 1.0 + 0j, 0.0, 20000),
                     ("coherent", 300.0 + 0j, 0.0, 3)]


def _certificate_rows():
    # seeded coherent |alpha| <= 20 and svs r <= 1, p log-uniform in [1, 5000]
    rng = np.random.default_rng(38)
    rows = list(_FORMER_LOSS_ROWS)
    for _ in range(8):
        p = int(round(10.0 ** rng.uniform(0.0, math.log10(5000.0))))
        rows.append(("coherent", cmath.rect(20.0 * math.sqrt(rng.uniform()), rng.uniform(-math.pi, math.pi)),
                     0.0, p))
        p = int(round(10.0 ** rng.uniform(0.0, math.log10(5000.0))))
        rows.append(("svs", rng.uniform(0.02, 1.0), rng.uniform(0.0, 2.0 * math.pi), p))
    return rows


class TestPhotonAddition:
    def test_raised_norm_within_its_certificate(self):
        # the constructor divides b by sqrt(S), S = sum |b|^2 before
        # normalization, so S = |b_n|^2 / |amplitude_n|^2 at the largest
        # amplitude, b_n from 40-digit mpmath; S lies in [1 - tail - eps,
        # 1 + eps], eps = 2^-48 (ln M_p + L_N + 24).  Svs states with r <= 1
        # also meet the closed form's q_max to 1e-10 relative
        for family, param, phase, p in _certificate_rows():
            st = _build(family, param, phase, p)
            log_moment = _log_moment(family, param, p)
            n = int(np.argmax(np.abs(st.amplitudes)))
            want = _raised_amplitude(family, param, phase, p, n, log_moment)
            total = float(abs(want) ** 2) / abs(complex(st.amplitudes[n])) ** 2
            top = st.cutoff - p  # L_N = ln sqrt((N+1)...(N+p))
            eps = 2.0**-48 * (float(log_moment) + 0.5 * float(mpmath.log(mpmath.rf(top + 1, p))) + 24.0)
            assert 1.0 - st.tail_bound - eps <= total <= 1.0 + eps, (family, param, p, total - 1.0)
            if family == "svs" and param <= 1.0:
                q_max = optimizer.maximize_q(st).q_max
                want_q = analytic.pasv_qmax(p, param).qmax
                assert abs(q_max - want_q) <= 1e-10 * want_q, (param, p)

    def test_lost_mass_is_refused(self, monkeypatch):
        # an input that loses mass where the raised state holds it, as the
        # former build's underflowed input did, fails the check by name
        original = states._log_addition_weights

        def lossy(p, n_amp):
            log_w = original(p, n_amp)
            log_w[n_amp // 2:] = -math.inf
            return log_w

        monkeypatch.setattr(states, "_log_addition_weights", lossy)
        for build in (lambda: make_squeezed_vacuum(0.5, 0.0, p=2000), lambda: make_coherent(1.0, p=3)):
            with pytest.raises(AccuracyError, match="lost mass"):
                build()

    @pytest.mark.parametrize("family, param, phase, p, bound", [
        ("coherent", cmath.rect(300.0, 0.7), 0.0, 10, 1e-13),
        ("svs", 4.4, 2.1, 10, 1e-13),
    ] + [row + (5e-12,) for row in _FORMER_LOSS_ROWS[:4]])
    def test_raised_amplitudes_match_mpmath(self, family, param, phase, p, bound):
        # measured at most 4.1e-14 at p = 10 and 1.6e-12 at the large p
        st, errors = _raised_amplitude_errors(family, param, phase, p)
        assert max(errors) <= bound + st.tail_bound

    @pytest.mark.parametrize("p", [1, 7, 160, 5000])
    def test_addition_weights_are_exact(self, p):
        # L_n = ln sqrt((n+1)...(n+p)) against 40-digit mpmath up to n =
        # 250,000, within 4 ulps of L_n (measured 1)
        n = np.unique(np.concatenate([np.arange(40), np.geomspace(40, 250_000, 60).astype(int)]))
        got = states._log_addition_weights(p, 250_001)[n]
        with mpmath.workdps(40):
            want = [float((mpmath.loggamma(k + p + 1) - mpmath.loggamma(k + 1)) / 2) for k in n.tolist()]
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(np.abs(want)))


class TestDisplace:
    # |lam|^2 is 0 below |lam| = 2.3e-162, where the chains' ln x cannot be taken
    @pytest.mark.parametrize("lam", [0.0, 3.3e-255, 1e-170j])
    def test_zero_is_identity(self, lam):
        st = make_coherent(1.0 + 1.0j)
        assert displace(st, lam) is st

    # 12 - 3i measured 1.2e-14
    @pytest.mark.parametrize("lam", [0.9 - 0.4j, 12.0 - 3.0j])
    def test_vacuum_displacement_is_coherent(self, lam):
        got = displace(make_coherent(0.0), lam)
        ref = make_coherent(lam)
        n = min(got.cutoff, ref.cutoff) + 1
        assert np.max(np.abs(got.amplitudes[:n] - ref.amplitudes[:n])) <= 1e-12

    # output cutoffs 422, 342 and 676; measured at most 1.4e-14 absolute
    # and 1.6e-11 relative (Fock 30 by 15)
    @pytest.mark.parametrize("n,lam", [(10, 12.0), (10, 8.0 + 6.0j), (30, 15.0)])
    def test_large_displacement_matches_mpmath(self, n, lam):
        st = displace(make_fock(n), lam)
        ref = _displaced_fock_reference(n, lam, st.cutoff)
        assert np.max(np.abs(st.amplitudes - ref)) <= 2e-13
        big = np.abs(ref) > 1e-8
        assert np.max(np.abs(st.amplitudes[big] / ref[big] - 1.0)) <= 2e-11

    def test_cutoff_cap_before_the_square_overflows(self):
        # reach^2 is inf here, which math.ceil cannot take
        with pytest.raises(CutoffError):
            displace(make_fock(1), 1e200)

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

    def test_fock_30_by_4_3j_matches_mpmath(self):
        # the output cutoff grows with the input's support; the former
        # 30 + ceil(|lam|^2 + 12|lam| + 10) = 125 kept only 1 - 8.26e-7 of
        # the norm and raised AccuracyError
        st = displace(make_fock(30), 4.0 + 3.0j)
        assert st.cutoff == 246
        ref = _displaced_fock_reference(30, 4.0 + 3.0j, st.cutoff)
        assert np.max(np.abs(st.amplitudes - ref)) <= 1e-13
        big = np.abs(ref) > 1e-8
        assert np.max(np.abs(st.amplitudes[big] / ref[big] - 1.0)) <= 1e-12


class TestLaguerreChains:
    # the chain _kernels.laguerre_chains runs for the Wigner diagonals (one
    # k, many x) and for displace (every k, one x)

    @staticmethod
    def _rows(k, x, lx, last):
        # (B(n, k, x) with carried entries as 0, carried mask) for each n,
        # copied, since each yielded array is overwritten by the next step
        rows = []
        for b, j in _kernels.laguerre_chains(k, x, lx, last):
            held = np.zeros(b.shape, bool) if j is None else j > 0
            rows.append((np.where(held, 0.0, b), held))
        return rows

    @pytest.mark.parametrize("n", [0, 7, 30])
    def test_every_k_at_one_x_matches_mpmath(self, n):
        # measured at most 4.3e-15 absolute (n = 30)
        rows = self._rows(np.arange(126), 25.0, math.log(25.0), 30)
        assert len(rows) == 31
        with mpmath.workdps(40):
            ref = [float(_bounded_laguerre(n, k, 25)) for k in range(126)]
        assert np.max(np.abs(rows[n][0] - ref)) <= 1e-14

    @pytest.mark.parametrize("k", [0, 1, 17])
    def test_carried_chains_over_x_match_mpmath(self, k):
        # every seed e^{-x/2} here is below e^-640, so the chains start
        # carried scaled and unwind on the way to n = 150.  Unwound values
        # are within 6.1e-14 relative (k = 17): the rounding of a seed
        # exponent near -750 alone allows 5.7e-14.  A carried value reads 0,
        # and its true value is below e^-597.9, where unwinding starts.
        x = np.linspace(1300.0, 1500.0, 11)
        rows = self._rows(k, x, np.log(x), 150)
        assert rows[0][1].any() and not rows[-1][1].any()
        with mpmath.workdps(40):
            for n, (row, held) in enumerate(rows):
                for got, xv, is_held in zip(row, x, held):
                    want = _bounded_laguerre(n, k, xv)
                    if is_held:
                        assert got == 0.0 and mpmath.log(abs(want)) < -597.9
                    else:
                        assert abs(got / want - 1) <= 2e-13


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

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0])
    def test_svs_matches_closed_form(self, r):
        # each moment on the squeezed vacuum cut at svs_cutoff_for_moment(r, p)
        for p in range(1, 7):
            st = make_squeezed_vacuum(r, 0.3, cutoff_override=svs_cutoff_for_moment(r, p))
            got = antinormal_correlation(st, p)
            assert got == pytest.approx(analytic.svs_antinormal(p, r), rel=1e-9)
            if p == 1:
                assert got == pytest.approx(math.cosh(r) ** 2, rel=1e-12)

    def test_raised_amplitudes_past_double_range(self):
        # c_n^2 (n+1)...(n+400) overflows a double; add_photons raises it in
        # the log domain to within 5e-13 relative of the exact map on the
        # input's doubles (measured 1.2e-13), and the moment itself is inf
        st = make_coherent(1.0)
        got = add_photons(st, 400).amplitudes
        with mpmath.workdps(40):
            raised = [mpmath.mpf(c) * mpmath.sqrt(mpmath.rf(n + 1, 400))
                      for n, c in enumerate(st.amplitudes.real.tolist())]
            norm = mpmath.sqrt(mpmath.fsum(b * b for b in raised))
            want = np.array([float(b / norm) for b in raised])
        assert not got[:400].any() and not got.imag.any()
        assert np.max(np.abs(got.real[400:] / want - 1.0)) <= 5e-13
        assert antinormal_correlation(st, 400) == math.inf


# every entry point refuses a count or cutoff_override that is inf or nan,
# as it refuses -1 or 1.5
_NOT_FINITE = (math.inf, math.nan)
_OUT_OF_DOMAIN = (
    [("make_fock", make_fock, (x,)) for x in _NOT_FINITE]
    + [("make_fock", make_fock, (1, x)) for x in _NOT_FINITE]
    + [("make_coherent", make_coherent, (1.0, x)) for x in _NOT_FINITE]
    + [("make_coherent", make_coherent, (1.0, None, x)) for x in _NOT_FINITE]
    + [("make_squeezed_vacuum", make_squeezed_vacuum, (0.5, 0.0, x)) for x in _NOT_FINITE]
    + [("make_squeezed_vacuum", make_squeezed_vacuum, (0.5, 0.0, None, x)) for x in _NOT_FINITE]
    + [("add_photons", lambda p: add_photons(make_fock(1), p), (x,)) for x in _NOT_FINITE]
    + [("antinormal_correlation", lambda p: antinormal_correlation(make_fock(1), p), (x,))
       for x in _NOT_FINITE]
    + [("svs_cutoff_for_moment", svs_cutoff_for_moment, (0.5, x)) for x in _NOT_FINITE]
)


@pytest.mark.parametrize(
    "entry, args", [case[1:] for case in _OUT_OF_DOMAIN],
    ids=[f"{name}{args}" for name, _, args in _OUT_OF_DOMAIN],
)
def test_entry_points_refuse_out_of_domain(entry, args):
    with pytest.raises(DomainError):
        entry(*args)


def test_integral_float_counts_build_the_integer_state():
    # 2.0 passes the integer check, so the constructors must use it as 2
    for build in (lambda p: make_coherent(1.0, p=p), lambda p: make_squeezed_vacuum(0.5, 0.3, p=p)):
        assert build(2.0).amplitudes.tobytes() == build(2).amplitudes.tobytes()


class TestFockStateValidation:
    def test_norm_leak_beyond_tail_rejected(self):
        amps = np.zeros(5, dtype=complex)
        amps[0] = 0.9
        with pytest.raises(AccuracyError, match="squared norm"):
            FockState(amps, 1e-12)

    @pytest.mark.parametrize("amps", [np.ones((1, 1)), np.zeros(0)])
    def test_vector_must_be_one_dimensional_and_non_empty(self, amps):
        with pytest.raises(DomainError, match="non-empty 1-D vector"):
            FockState(amps, 0.0)

    @pytest.mark.parametrize("tail_bound", [-1e-12, math.nan])
    def test_tail_bound_must_be_nonnegative(self, tail_bound):
        with pytest.raises(DomainError, match="tail_bound"):
            FockState(np.ones(1), tail_bound)

    def test_cutoff_follows_the_vector(self):
        # inf is a valid tail_bound: add_photons certifies it
        st = FockState(np.array([0.6, 0.8j, 0.0]), math.inf)
        assert st.cutoff == 2

    def test_amplitudes_read_only(self):
        st = make_fock(2)
        with pytest.raises((ValueError, RuntimeError)):
            st.amplitudes[0] = 1.0
