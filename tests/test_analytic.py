"""Closed forms against independent numerical optimization and identities,
and their special functions against frozen values, mpmath and scipy."""

import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import eval_laguerre, gammaln

from nonclass.analytic import (
    PAC_FOCK_THRESHOLD,
    PacParams,
    PasvParams,
    _log_laguerre_at_neg,
    dq_pac,
    fock_nonclassicality,
    hyp2f1_photon,
    pasv_dq,
    pasv_qmax,
    qmax_pac,
    reference_dq,
    strong_squeezing_limits,
    svs_antinormal,
    svs_qmax,
)
from nonclass.errors import DomainError


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
        res = fock_nonclassicality(200)
        assert abs(res.dq - res.dq_asymptotic) <= 1e-4

    def test_large_p_stays_finite(self):
        res = fock_nonclassicality(10000)
        assert 0.0 < res.qmax < 1.0 / math.pi
        assert res.dq == pytest.approx(res.dq_asymptotic, abs=2e-6)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            fock_nonclassicality(0)


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
        got = qmax_pac(PacParams(p=p, alpha_sq=u))
        assert got == pytest.approx(want, rel=1e-9)

    def test_fock_limit(self):
        for p in (1, 3, 7):
            got = qmax_pac(PacParams(p=p, alpha_sq=0.0))
            assert got == fock_nonclassicality(p).qmax

    def test_branch_switch_is_gentle(self):
        # sqrt cusp at alpha_sq = 0 means ~2 sqrt(p u) relative slack
        below = qmax_pac(PacParams(p=2, alpha_sq=PAC_FOCK_THRESHOLD / 10.0))
        above = qmax_pac(PacParams(p=2, alpha_sq=PAC_FOCK_THRESHOLD * 10.0))
        assert abs(above - below) / below <= 1e-3

    def test_zero_added_photons(self):
        assert qmax_pac(PacParams(p=0, alpha_sq=3.0)) == 1.0 / math.pi
        assert dq_pac(PacParams(p=0, alpha_sq=3.0)) == 0.0

    def test_dq_clamped_to_unit_interval(self):
        assert 0.0 <= dq_pac(PacParams(p=50, alpha_sq=0.01)) <= 1.0

    def test_params_validation(self):
        with pytest.raises(DomainError):
            PacParams(p=-1, alpha_sq=1.0)
        with pytest.raises(DomainError):
            PacParams(p=1, alpha_sq=-0.5)
        with pytest.raises(DomainError):
            PacParams(p=1, alpha_sq=math.inf)


class TestSvs:
    def test_qmax_closed_form(self):
        for r in (0.0, 0.5, 1.0, 3.0, 25.0):
            assert svs_qmax(r) == pytest.approx(
                1.0 / (math.pi * math.cosh(r)), rel=1e-14
            )

    def test_qmax_rejects_negative(self):
        with pytest.raises(DomainError):
            svs_qmax(-0.1)

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
            got = math.pi * math.cosh(r) * pasv_qmax(PasvParams(p=1, r=r)).qmax
            want = (2.0 / math.e) / (1.0 + math.exp(-2.0 * r))
            assert got == pytest.approx(want, rel=1e-12)

    def test_ratio_identity_p2(self):
        for r in (0.1, 0.7, 1.5, 3.0):
            s = math.exp(-2.0 * r)
            got = math.pi * math.cosh(r) * pasv_qmax(PasvParams(p=2, r=r)).qmax
            want = (16.0 / 3.0) * math.exp(-2.0) / (1.0 + (2.0 / 3.0) * s + s * s)
            assert got == pytest.approx(want, rel=1e-12)

    def test_maximizer_radius(self):
        for p, r in [(1, 0.4), (2, 1.0), (5, 2.0)]:
            got = pasv_qmax(PasvParams(p=p, r=r)).beta_max_modulus_sq
            assert got == pytest.approx(p * math.exp(r) * math.cosh(r), rel=1e-14)

    def test_reduces_to_fock_at_zero_squeezing(self):
        for p in (1, 2, 6):
            got = pasv_qmax(PasvParams(p=p, r=0.0)).qmax
            assert got == pytest.approx(fock_nonclassicality(p).qmax, rel=1e-14)

    def test_p0_is_plain_svs(self):
        res = pasv_qmax(PasvParams(p=0, r=1.3))
        assert res.qmax == svs_qmax(1.3)
        assert res.beta_max_modulus_sq == 0.0

    def test_degree_minimum_exact_location(self):
        # d(dq)/dr = 0 at sinh^2 r = 1/3 for p = 1, where
        # dq = 1 - 3 sqrt(3) / (4 e)
        r_star = math.asinh(1.0 / math.sqrt(3.0))
        want = 1.0 - 3.0 * math.sqrt(3.0) / (4.0 * math.e)
        assert pasv_dq(PasvParams(p=1, r=r_star)) == pytest.approx(want, rel=1e-10)
        # nearby points sit above the minimum
        for dr in (-0.05, 0.05):
            assert pasv_dq(PasvParams(p=1, r=r_star + dr)) > want

    def test_params_validation(self):
        with pytest.raises(DomainError):
            PasvParams(p=1, r=-1.0)
        with pytest.raises(DomainError):
            PasvParams(p=-2, r=1.0)


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
            got = math.pi * math.cosh(r) * pasv_qmax(PasvParams(p=p, r=r)).qmax
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
        assert dq == pytest.approx(dq_pac(PacParams(p=2, alpha_sq=2.0)), rel=1e-15)
        assert tag == "pac(p=2, alpha_sq=2.0)"

    def test_svs_routing(self):
        dq, tag = reference_dq("svs", {"r": 1.0, "phi": 0.3}, 0)
        assert dq == pytest.approx(1.0 - math.pi * svs_qmax(1.0), rel=1e-15)
        assert tag == "svs(r=1.0)"

    def test_pasv_routing(self):
        dq, tag = reference_dq("svs", {"r": 0.8, "phi": 0.0}, 1)
        assert dq == pytest.approx(pasv_dq(PasvParams(p=1, r=0.8)), rel=1e-15)
        assert tag == "pasv(p=1, r=0.8)"

    def test_fock_routing_includes_added_photons(self):
        dq, tag = reference_dq("fock", {"n": 1}, 2)
        assert dq == pytest.approx(fock_nonclassicality(3).dq, rel=1e-15)
        assert tag == "fock(p=3)"
        assert reference_dq("fock", {"n": 0}, 0) == (0.0, "fock(0)")

    def test_unknown_family(self):
        assert reference_dq("thermal", {"nbar": 1.0}, 0) is None


# --- special functions of the closed forms ---------------------------------

def laguerre_at_neg(p, u):
    """L_p(-u) from the log-domain recurrence analytic uses."""
    return math.exp(_log_laguerre_at_neg(p, u))


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
    # analytic uses L_p only at negative argument, through its log
    def test_frozen_values(self):
        # L_2(-1) = 1 + 2 + 1/2
        assert math.isclose(laguerre_at_neg(2, 1.0), 3.5, rel_tol=1e-15)
        # L_5(-4) = sum_k C(5,k) 4^k / k! = 4043/15
        assert math.isclose(laguerre_at_neg(5, 4.0), 4043.0 / 15.0, rel_tol=1e-13)
        assert laguerre_at_neg(0, 17.3) == 1.0

    def test_series_definition_negative_argument(self):
        # L_p(-u) = sum_k C(p,k) u^k / k! for u >= 0
        for p, u in [(5, 4.0), (3, 0.7), (8, 2.5)]:
            ref = sum(math.comb(p, k) * u**k / math.factorial(k) for k in range(p + 1))
            assert math.isclose(laguerre_at_neg(p, u), ref, rel_tol=1e-12)

    def test_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = int(rng.integers(0, 31))
            u = float(rng.uniform(0.0, 10.0))
            ref = eval_laguerre(p, -u)
            assert abs(laguerre_at_neg(p, u) - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_positive_for_negative_argument(self):
        # the normalization denominator p! L_p(-|alpha|^2) must stay positive,
        # so its log is finite even where L_p itself overflows
        rng = np.random.default_rng(23)
        for _ in range(1000):
            p = int(rng.integers(0, 51))
            u = float(rng.uniform(0.0, 1000.0))
            assert math.isfinite(_log_laguerre_at_neg(p, u))


class TestHyp2f1Photon:
    def test_frozen_value(self):
        # p=2: 1 + x/2 at x = 1/2
        assert math.isclose(hyp2f1_photon(2, 0.5), 1.25, rel_tol=1e-15)

    def test_unit_at_origin(self):
        for p in range(21):
            assert hyp2f1_photon(p, 0.0) == 1.0

    def test_terms_nonnegative_so_value_at_least_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = int(rng.integers(0, 40))
            x = float(rng.uniform(0.0, 1.0))
            assert hyp2f1_photon(p, x) >= 1.0

    def test_gauss_summation_at_one(self):
        # 2F1(a, b; c; 1) = Gamma(c)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b))
        # collapses to 2^p Gamma(p+1/2) / (sqrt(pi) Gamma(p+1))
        for p in range(1, 21):
            ref = math.exp(
                p * math.log(2.0)
                + gammaln(p + 0.5)
                - 0.5 * math.log(math.pi)
                - gammaln(p + 1.0)
            )
            assert math.isclose(hyp2f1_photon(p, 1.0), ref, rel_tol=1e-12)

    def test_continuous_at_the_right_endpoint(self):
        for p in (3, 10, 19):
            a = hyp2f1_photon(p, 1.0 - 1e-12)
            b = hyp2f1_photon(p, 1.0)
            assert abs(a - b) / b <= 1e-9

    def test_rejects_out_of_domain(self):
        with pytest.raises(DomainError):
            hyp2f1_photon(2, 1.0 + 1e-9)
        with pytest.raises(DomainError):
            hyp2f1_photon(2, -0.1)
        with pytest.raises(DomainError):
            hyp2f1_photon(-1, 0.5)
