"""Special functions of the closed forms against frozen values and scipy."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import eval_laguerre, gammaln

from nonclass.analytic import (
    _log_laguerre_at_neg,
    fock_nonclassicality,
    hyp2f1_photon,
    svs_antinormal,
)
from nonclass.errors import DomainError


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
