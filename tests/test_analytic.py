"""Closed forms against independent numerical optimization and identities,
and their special functions against frozen values, mpmath and scipy."""

import math
import time

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import eval_laguerre, gammaln

from nonclass.analytic import (
    PAC_FOCK_THRESHOLD,
    _log_cosh,
    _log_fock_fidelity,
    _log_svs_moment_scaled,
    dq_from_log_fidelity,
    dq_pac,
    fock_nonclassicality,
    log_moment_ratios,
    pasv_dq,
    pasv_qmax,
    qmax_pac,
    reference_dq,
    strong_squeezing_limits,
    svs_antinormal,
    svs_qmax,
)
from nonclass.errors import CutoffError, DomainError


class TestFock:
    def test_single_photon(self):
        res = fock_nonclassicality(1)
        assert res.qmax == pytest.approx(1.0 / (math.pi * math.e), rel=1e-15)
        assert res.dq == pytest.approx(1.0 - 1.0 / math.e, rel=1e-15)

    def test_two_photon_ratio(self):
        r1 = fock_nonclassicality(1).qmax
        r2 = fock_nonclassicality(2).qmax
        assert r2 / r1 == pytest.approx(2.0 / math.e, rel=1e-14)

    def test_degree_increases_with_p(self):
        dqs = [fock_nonclassicality(p).dq for p in range(1, 21)]
        assert all(b > a for a, b in zip(dqs, dqs[1:]))
        assert all(0.0 < d < 1.0 for d in dqs)

    def test_asymptote(self):
        # dq ~ 1 - 1/sqrt(2 pi p) at large p
        res = fock_nonclassicality(200)
        assert abs(res.dq - (1.0 - 1.0 / math.sqrt(2.0 * math.pi * 200))) <= 1e-4

    def test_large_p_stays_finite(self):
        res = fock_nonclassicality(10000)
        assert 0.0 < res.qmax < 1.0 / math.pi
        assert res.dq == pytest.approx(1.0 - 1.0 / math.sqrt(2.0 * math.pi * 10000), abs=2e-6)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            fock_nonclassicality(0)

    def test_against_mpmath_up_to_the_double_range(self):
        # pinned first: both sides of the switch to the Stirling form, and
        # where p ln p - p - ln p! lost 5.9e-12 of dq (1e9), all of it (1e16)
        # or overflowed (1e300); then every n to 64 and four a decade
        pinned = [31, 32, 10**9, 10**16, 10**300]
        spread = [int(10.0 ** (k / 4)) for k in range(8, 1233)] + [int(1.7e308)]
        for n in pinned + list(range(1, 65)) + spread:
            # n ln n - n - ln n! cancels all but about ln n of its n ln n, so
            # the reference carries every digit of n and then 50 more
            with mpmath.workdps(50 + len(str(n))):
                m = mpmath.mpf(n)
                log_f = m * mpmath.log(m) - m - mpmath.loggamma(m + 1)
                want_log_f, want_dq = float(log_f), float(-mpmath.expm1(log_f))
            assert abs(_log_fock_fidelity(n) - want_log_f) <= 1e-14 * abs(want_log_f), n
            assert abs(fock_nonclassicality(n).dq - want_dq) <= 1e-14 * want_dq, n


def _pac_q_along_real_axis(p, u):
    # Q on the real axis: b^{2p} exp(-(b-a)^2) / (pi p! L_p(-u)); the global
    # peak sits there when alpha is real, so a 1-d search is a full oracle
    a = math.sqrt(u)
    norm = math.pi * math.factorial(p) * eval_laguerre(p, -u)

    def neg_q(b):
        return -(b ** (2 * p)) * math.exp(-((b - a) ** 2)) / norm

    hi = a + 2.0 * math.sqrt(p) + 5.0
    res = minimize_scalar(neg_q, bounds=(0.0, hi), method="bounded",
                          options={"xatol": 1e-12})
    return -res.fun


class TestPac:
    @pytest.mark.parametrize("p", [1, 2, 5, 10])
    @pytest.mark.parametrize("u", [1e-13, 0.1, 0.9, 3.0, 10.0])
    def test_against_numeric_oracle(self, p, u):
        want = _pac_q_along_real_axis(p, u)
        got = qmax_pac(p=p, alpha_sq=u)
        assert got == pytest.approx(want, rel=1e-9)

    def test_fock_limit(self):
        for p in (1, 3, 7):
            got = qmax_pac(p=p, alpha_sq=0.0)
            assert got == fock_nonclassicality(p).qmax

    def test_branch_switch_is_gentle(self):
        # sqrt cusp at alpha_sq = 0 means ~2 sqrt(p u) relative slack
        below = qmax_pac(p=2, alpha_sq=PAC_FOCK_THRESHOLD / 10.0)
        above = qmax_pac(p=2, alpha_sq=PAC_FOCK_THRESHOLD * 10.0)
        assert abs(above - below) / below <= 1e-3

    def test_zero_added_photons(self):
        assert qmax_pac(p=0, alpha_sq=3.0) == 1.0 / math.pi
        assert dq_pac(p=0, alpha_sq=3.0) == 0.0

    def test_dq_clamped_to_unit_interval(self):
        assert 0.0 <= dq_pac(p=50, alpha_sq=0.01) <= 1.0


class TestSvs:
    def test_qmax_closed_form(self):
        for r in (0.0, 0.5, 1.0, 3.0, 25.0):
            assert svs_qmax(r) == pytest.approx(
                1.0 / (math.pi * math.cosh(r)), rel=1e-14
            )

    def test_qmax_rejects_negative(self):
        with pytest.raises(DomainError):
            svs_qmax(-0.1)

    def test_log_cosh_relative_accuracy(self):
        # log1p(2 sinh^2(r/2)) keeps ln cosh r ~ r^2/2 relative as r -> 0,
        # where log(cosh r) reads 0 from r ~ 1e-8
        rs = np.concatenate([np.geomspace(1e-8, 3.0, 40), [19.9, 20.0, 20.1, 100.0, 700.0]])
        with mpmath.workdps(60):
            want = [float(mpmath.log(mpmath.cosh(mpmath.mpf(r)))) for r in rs]
        for r, w in zip(rs, want):
            assert abs(_log_cosh(float(r)) - w) <= 2e-15 * w

    def test_antinormal_first_two(self):
        for r in (0.2, 0.9, 1.7):
            c = math.cosh(r)
            t2 = math.tanh(r) ** 2
            assert svs_antinormal(1, r) == pytest.approx(c * c, rel=1e-14)
            want2 = 2.0 * c**4 * (1.0 + 0.5 * t2)
            assert svs_antinormal(2, r) == pytest.approx(want2, rel=1e-13)

    def test_antinormal_brute_series(self):
        # direct sum over the even number distribution
        r, p = 1.1, 3
        t = math.tanh(r)
        total = 0.0
        for m in range(400):
            n = 2 * m
            log_pn = (
                -math.log(math.cosh(r))
                + n * math.log(t / 2.0)
                + math.lgamma(n + 1.0)
                - 2.0 * math.lgamma(m + 1.0)
            )
            w = math.exp(log_pn)
            for j in range(1, p + 1):
                w *= n + j
            total += w
        assert svs_antinormal(p, r) == pytest.approx(total, rel=1e-10)

    def test_antinormal_p_zero(self):
        assert svs_antinormal(0, 2.0) == 1.0


class TestPasv:
    def test_ratio_identity_p1(self):
        for r in (0.1, 0.5, 1.0, 2.0, 4.0):
            got = math.pi * math.cosh(r) * pasv_qmax(p=1, r=r).qmax
            want = (2.0 / math.e) / (1.0 + math.exp(-2.0 * r))
            assert got == pytest.approx(want, rel=1e-12)

    def test_ratio_identity_p2(self):
        for r in (0.1, 0.7, 1.5, 3.0):
            s = math.exp(-2.0 * r)
            got = math.pi * math.cosh(r) * pasv_qmax(p=2, r=r).qmax
            want = (16.0 / 3.0) * math.exp(-2.0) / (1.0 + (2.0 / 3.0) * s + s * s)
            assert got == pytest.approx(want, rel=1e-12)

    def test_maximizer_radius(self):
        for p, r in [(1, 0.4), (2, 1.0), (5, 2.0)]:
            got = pasv_qmax(p=p, r=r).beta_max_modulus_sq
            assert got == pytest.approx(p * math.exp(r) * math.cosh(r), rel=1e-14)

    def test_reduces_to_fock_at_zero_squeezing(self):
        for p in (1, 2, 6):
            got = pasv_qmax(p=p, r=0.0).qmax
            assert got == pytest.approx(fock_nonclassicality(p).qmax, rel=1e-14)

    def test_p0_is_plain_svs(self):
        res = pasv_qmax(p=0, r=1.3)
        assert res.qmax == svs_qmax(1.3)
        assert res.beta_max_modulus_sq == 0.0

    def test_degree_minimum_exact_location(self):
        # d(dq)/dr = 0 at sinh^2 r = 1/3 for p = 1, where
        # dq = 1 - 3 sqrt(3) / (4 e)
        r_star = math.asinh(1.0 / math.sqrt(3.0))
        want = 1.0 - 3.0 * math.sqrt(3.0) / (4.0 * math.e)
        assert pasv_dq(p=1, r=r_star) == pytest.approx(want, rel=1e-10)
        # nearby points sit above the minimum
        for dr in (-0.05, 0.05):
            assert pasv_dq(p=1, r=r_star + dr) > want


class TestStrongSqueezing:
    def test_p1_exact(self):
        lim = strong_squeezing_limits(1)
        assert lim.ratio_to_svs == pytest.approx(2.0 / math.e, rel=1e-14)
        assert lim.ratio_successive == pytest.approx(8.0 / (3.0 * math.e), rel=1e-14)

    def test_tends_to_inverse_sqrt_two(self):
        got = strong_squeezing_limits(10**6).ratio_to_svs
        assert abs(got - 1.0 / math.sqrt(2.0)) <= 1e-6

    def test_monotone_decreasing(self):
        vals = [strong_squeezing_limits(p).ratio_to_svs for p in range(1, 101)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(v > 1.0 / math.sqrt(2.0) for v in vals)

    def test_successive_is_the_step_ratio(self):
        for p in range(1, 30):
            step = (
                strong_squeezing_limits(p + 1).ratio_to_svs
                / strong_squeezing_limits(p).ratio_to_svs
            )
            lim = strong_squeezing_limits(p).ratio_successive
            assert lim == pytest.approx(step, rel=1e-12)
            assert lim < 1.0

    def test_deep_squeeze_approaches_limit(self):
        r = 30.0
        for p in range(1, 11):
            got = math.pi * math.cosh(r) * pasv_qmax(p=p, r=r).qmax
            want = strong_squeezing_limits(p).ratio_to_svs
            assert got == pytest.approx(want, rel=1e-8)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            strong_squeezing_limits(0)


class TestReferenceDq:
    def test_plain_coherent(self):
        assert reference_dq("coherent", {"re": 1.0, "im": 0.0}, 0) == (0.0, "coherent")

    def test_pac_routing(self):
        dq, tag = reference_dq("coherent", {"re": 1.0, "im": 1.0}, 2)
        assert dq == pytest.approx(dq_pac(p=2, alpha_sq=2.0), rel=1e-15)
        assert tag == "pac(p=2, alpha_sq=2.0)"

    def test_svs_routing(self):
        dq, tag = reference_dq("svs", {"r": 1.0, "phi": 0.3}, 0)
        assert dq == pytest.approx(1.0 - math.pi * svs_qmax(1.0), rel=1e-15)
        assert tag == "svs(r=1.0)"

    @pytest.mark.parametrize("r", [1e-8, 1e-5])
    def test_svs_near_zero(self, r):
        # dq = 1 - 1/cosh r ~ r^2/2 keeps its relative accuracy; formed as
        # 1 - pi qmax it read 0.0 at r = 1e-8 and was 8.3e-8 off at r = 1e-5
        with mpmath.workdps(60):
            want = float(1 - 1 / mpmath.cosh(mpmath.mpf(r)))
        assert abs(reference_dq("svs", {"r": r, "phi": 0.0}, 0)[0] - want) <= 1e-15 * want

    def test_pasv_routing(self):
        dq, tag = reference_dq("svs", {"r": 0.8, "phi": 0.0}, 1)
        assert dq == pytest.approx(pasv_dq(p=1, r=0.8), rel=1e-15)
        assert tag == "pasv(p=1, r=0.8)"

    def test_fock_routing_includes_added_photons(self):
        dq, tag = reference_dq("fock", {"n": 1}, 2)
        assert dq == pytest.approx(fock_nonclassicality(3).dq, rel=1e-15)
        assert tag == "fock(p=3)"
        assert reference_dq("fock", {"n": 0}, 0) == (0.0, "fock(0)")

    def test_unknown_family(self):
        with pytest.raises(DomainError, match="unknown family 'thermal'"):
            reference_dq("thermal", {"nbar": 1.0}, 0)

    def test_alpha_sq_overflow_is_a_domain_error(self):
        # make_coherent refuses the same input with the same message
        with pytest.raises(DomainError, match="overflows a double"):
            reference_dq("coherent", {"re": 1e200, "im": 0.0}, 1)


def test_dq_from_log_fidelity():
    assert dq_from_log_fidelity(-math.inf) == 1.0
    # rounding may put a numeric pi q_max just above 1
    assert dq_from_log_fidelity(math.log1p(1e-13)) == 0.0


@pytest.mark.parametrize("r", [1e-8, 1e-5, 0.5, 3.0])
def test_svs_reference_is_minus_expm1_of_minus_log_cosh(r):
    dq, _ = reference_dq("svs", {"r": r, "phi": 0.0}, 0)
    assert dq == -math.expm1(-_log_cosh(r))


# every closed form refuses a p that is not a non-negative integer (p >= 1
# for the Fock and strong-squeezing forms) and an r or alpha_sq that is not
# finite and >= 0
_BAD_P = (-1, 2.5, math.inf, math.nan)
_BAD_X = (-0.5, math.inf, math.nan)
_P_AND_X = (qmax_pac, dq_pac, pasv_qmax, pasv_dq, svs_antinormal)
_OUT_OF_DOMAIN = (
    [(form, (p, 1.0)) for form in _P_AND_X for p in _BAD_P]
    + [(form, (1, x)) for form in _P_AND_X for x in _BAD_X]
    + [(svs_qmax, (x,)) for x in _BAD_X]
    + [(form, (p,)) for form in (fock_nonclassicality, strong_squeezing_limits) for p in _BAD_P]
    # reference_dq refuses what cli.build_state refuses, on every branch
    + [(reference_dq, ("svs", {"r": r, "phi": 0.0}, 0)) for r in _BAD_X]
    + [(reference_dq, ("svs", {"r": 1.0, "phi": phi}, 0)) for phi in (math.inf, math.nan)]
    + [(reference_dq, ("coherent", {"re": re, "im": 0.0}, 0)) for re in (math.inf, math.nan)]
    + [(reference_dq, ("fock", {"n": n}, p)) for n, p in ((1.5, 1), (-3, 5), (math.inf, 0))]
    + [(reference_dq, ("coherent", {"re": 1.0, "im": 0.0}, p)) for p in (1.5, math.nan)]
)


@pytest.mark.parametrize(
    "form, args", _OUT_OF_DOMAIN, ids=[f"{form.__name__}{args}" for form, args in _OUT_OF_DOMAIN]
)
def test_closed_forms_refuse_out_of_domain(form, args):
    with pytest.raises(DomainError):
        form(*args)


# --- special functions of the closed forms ---------------------------------

def log_moment(mu, sigma, p):
    """ln M_p = ln <a^p a^dag^p>, the sum the closed forms divide by."""
    return math.fsum(log_moment_ratios(mu, sigma, p))


def coherent_moment(p, u):
    """M_p = p! L_p(-u) of a coherent input with |alpha|^2 = u."""
    return math.exp(log_moment(u, 0.0, p))


class TestLogMomentRatios:
    @pytest.mark.parametrize("r", [1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 2.5, 4.0, 8.0])
    def test_svs_log_moments_match_mpmath(self, r):
        # ln M_j = ln(j! c^j P_j(c)), c = cosh r
        got = np.cumsum(log_moment_ratios(0.0, math.sinh(r) ** 2, 300))
        with mpmath.workdps(40):
            c = mpmath.cosh(mpmath.mpf(r))
            want = [float(mpmath.log(mpmath.factorial(j) * c**j * mpmath.legendre(j, c)))
                    for j in range(1, 301)]
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("mu", [0.0, 1e-9, 0.01, 1.0, 3.0, 16.0, 100.0, 1444.0])
    def test_coherent_log_moments_match_mpmath(self, mu):
        # ln M_j = ln(j! L_j(-mu)); at mu = 0, ln M_1 = 0 exactly
        got = np.cumsum(log_moment_ratios(mu, 0.0, 300))
        with mpmath.workdps(40):
            want = [float(mpmath.log(mpmath.factorial(j) * mpmath.laguerre(j, 0, -mu)))
                    for j in range(1, 301)]
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


class TestLogFactorial:
    # ln n! is math.lgamma(n + 1) throughout the package.  svs_antinormal
    # at r = 0 is p! itself (cosh 0 = 1 and the Gauss series is 1 at x = 0),
    # so it reads the factorial back through the closed forms.
    def test_small_values_exact(self):
        assert svs_antinormal(0, 0.0) == 1.0
        assert svs_antinormal(1, 0.0) == 1.0
        assert math.isclose(svs_antinormal(5, 0.0), 120.0, rel_tol=1e-15)

    def test_against_lgamma(self):
        # the 40-digit ln Gamma(n + 1) of mpmath as the reference
        with mpmath.workdps(40):
            for n in list(range(0, 300, 7)) + [256, 257, 1000, 5000, 100000]:
                ref = float(mpmath.loggamma(n + 1))
                got = [math.lgamma(n + 1)]
                if n <= 170:
                    got.append(math.log(svs_antinormal(n, 0.0)))
                for value in got:
                    if ref == 0.0:
                        assert value == 0.0
                    else:
                        assert abs(value - ref) / ref <= 1e-13

    def test_rejects_bad_input(self):
        # math.lgamma would take 2.5 + 1 silently, so the callers check p
        with pytest.raises(DomainError):
            svs_antinormal(-1, 0.0)
        with pytest.raises(DomainError):
            svs_antinormal(2.5, 0.0)
        with pytest.raises(DomainError):
            fock_nonclassicality(-1)
        with pytest.raises(DomainError):
            fock_nonclassicality(2.5)


class TestLaguerre:
    # the coherent moment M_p = p! L_p(-|alpha|^2), the pac normalization
    def test_frozen_values(self):
        # 2! L_2(-1) = 2 (1 + 2 + 1/2)
        assert math.isclose(coherent_moment(2, 1.0), 7.0, rel_tol=1e-15)
        # 5! L_5(-4) = 120 * 4043/15
        assert math.isclose(coherent_moment(5, 4.0), 32344.0, rel_tol=1e-13)
        assert coherent_moment(0, 17.3) == 1.0

    def test_series_definition_negative_argument(self):
        # L_p(-u) = sum_k C(p,k) u^k / k! for u >= 0
        for p, u in [(5, 4.0), (3, 0.7), (8, 2.5)]:
            ref = math.factorial(p) * sum(
                math.comb(p, k) * u**k / math.factorial(k) for k in range(p + 1))
            assert math.isclose(coherent_moment(p, u), ref, rel_tol=1e-12)

    def test_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = int(rng.integers(0, 31))
            u = float(rng.uniform(0.0, 10.0))
            ref = math.factorial(p) * eval_laguerre(p, -u)
            assert abs(coherent_moment(p, u) - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_positive_for_negative_argument(self):
        # the normalization p! L_p(-|alpha|^2) must stay positive, so its
        # log is finite even where M_p itself overflows
        rng = np.random.default_rng(23)
        for _ in range(1000):
            p = int(rng.integers(0, 51))
            u = float(rng.uniform(0.0, 1000.0))
            assert math.isfinite(log_moment(u, 0.0, p))


def _log_svs_excess(p, r):
    """ln(M_p / (p! cosh^{2p} r)) = ln 2F1(-p/2, -(p-1)/2; 1; tanh^2 r)."""
    return _log_svs_moment_scaled(p, r) - math.lgamma(p + 1)


def _log_svs_excess_limit(p):
    """The Gauss sum 2F1(-p/2, -(p-1)/2; 1; 1) = 2^p Gamma(p+1/2) / (sqrt(pi) p!), in logs."""
    return p * math.log(2.0) + gammaln(p + 0.5) - 0.5 * math.log(math.pi) - gammaln(p + 1.0)


class TestSvsMoment:
    # the squeezed-vacuum moment M_p = p! cosh^{2p} r 2F1(tanh^2 r), the
    # pasv normalization: 0 <= ln(M_p / (p! cosh^{2p} r)) <= the Gauss sum
    # at tanh^2 r = 1, equal to 0 at r = 0 and to the Gauss sum at r >= 20
    def test_frozen_value(self):
        # p = 2: M_2 = 2 cosh^4 r (1 + tanh^2 r / 2), 1.25 at tanh^2 r = 1/2
        r = math.atanh(math.sqrt(0.5))
        assert math.isclose(svs_antinormal(2, r), 2.5 * math.cosh(r) ** 4, rel_tol=1e-14)

    def test_unit_at_origin(self):
        for p in range(21):
            assert abs(_log_svs_excess(p, 0.0)) <= 1e-15 * max(1.0, math.lgamma(p + 1))

    @pytest.mark.parametrize("p", [1, 2, 3, 10, 39, 200, 1000])
    def test_between_the_bounds(self, p):
        rng = np.random.default_rng(3 + p)
        top = _log_svs_excess_limit(p)
        slack = 1e-14 * (math.lgamma(p + 1) + 2 * p * 20.0)
        for r in rng.uniform(0.0, 25.0, 40):
            excess = _log_svs_excess(p, float(r))
            assert -slack <= excess <= top + slack

    def test_gauss_summation_at_one(self):
        # 2F1(a, b; c; 1) = Gamma(c)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b)); from
        # r = 20 on, tanh^2 r rounds to 1
        for p in list(range(1, 21)) + [100, 1000]:
            ref = _log_svs_excess_limit(p)
            for r in (20.0, 21.0, 100.0, 700.0, 1e4):
                got = _log_svs_excess(p, r)
                assert abs(got - ref) <= (1e-12 if p <= 20 else 1e-11)

    def test_continuous_at_the_right_endpoint(self):
        for p in (3, 10, 19):
            a = _log_svs_excess(p, 14.0)
            b = _log_svs_excess(p, 20.0)
            assert abs(a - b) <= 1e-9

    def test_rejects_out_of_domain(self):
        with pytest.raises(DomainError):
            svs_antinormal(2, -0.1)
        with pytest.raises(DomainError):
            svs_antinormal(2, math.inf)
        with pytest.raises(DomainError):
            svs_antinormal(-1, 0.5)


def _pasv_qmax_mpmath(p, r):
    """Peak Husimi density of p photons on squeezed vacuum r, 40 digits:
    c^{p-1} (p e^{r-1})^p / (pi M_p), M_p = p! c^p P_p(c), c = cosh r."""
    with mpmath.workdps(40):
        r = mpmath.mpf(r)
        c = mpmath.cosh(r)
        log_m = mpmath.loggamma(p + 1) + p * mpmath.log(c) + mpmath.log(
            mpmath.legendre(p, c, maxterms=10**6))
        return float(mpmath.exp(p * (mpmath.log(p) + r - 1) + (p - 1) * mpmath.log(c) - log_m)
                     / mpmath.pi)


class TestMomentRange:
    @pytest.mark.parametrize("p", [1100, 2000, 5000])
    @pytest.mark.parametrize("r", [0.3, 1.0, 3.0])
    def test_large_p_pasv_against_mpmath(self, p, r):
        got = pasv_qmax(p=p, r=r).qmax
        assert got == pytest.approx(_pasv_qmax_mpmath(p, r), rel=1e-10)

    @pytest.mark.parametrize("r, want", [
        (19.0, (2.6243422998628923e-09, 2.5571959809247297e-09,
                2.53266924750855e-09, 2.522249615945768e-09)),
        (21.0, (3.551661084617681e-10, 3.460788423699759e-10,
                3.427595099562284e-10, 3.413493661674193e-10)),
        (100.0, (1.7424785732295034e-44, 1.6978955849405477e-44,
                 1.681610625676307e-44, 1.674692326670546e-44)),
        (400.0, (8.970628578248298e-175, 8.741106428023304e-175,
                 8.657268197115939e-175, 8.621651408393917e-175)),
        (700.0, (4.61825920417082e-305, 4.5000966056874096e-305,
                 4.456935005784486e-305, 4.438598769570665e-305)),
    ])
    def test_deep_squeeze_pinned(self, r, want):
        # values of the former series evaluation, p = 1, 3, 10, 1000
        for p, value in zip((1, 3, 10, 1000), want):
            assert pasv_qmax(p=p, r=r).qmax == pytest.approx(value, rel=1e-11)

    @pytest.mark.parametrize("form", [dq_pac, pasv_dq])
    def test_photon_count_past_the_cap(self, form):
        # p moment ratios are walked one Python step each: a p past the cap
        # of 250,000 is refused before the walk, so the call returns at once
        start = time.perf_counter()
        with pytest.raises(CutoffError, match="exceeds the limit 250000"):
            form(10**13, 1.0)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("r", [400.0, 711.0, 1e4])
    def test_past_the_double_range_is_inf(self, r):
        for p in (1, 3, 200):
            assert svs_antinormal(p, r) == math.inf
            res = pasv_qmax(p=p, r=r)
            assert res.beta_max_modulus_sq == math.inf
            assert 0.0 <= res.qmax < 1e-170
            assert pasv_dq(p=p, r=r) == 1.0
        assert svs_antinormal(200, 5.0) == math.inf
