"""Special-function evaluations used by the closed-form expressions.

Everything here is evaluated through stable recurrences or terminating
sums; factorial-sized quantities are handled in log space so the module
stays usable for photon numbers up to at least 10^4.
"""

import math

from .errors import DomainError

# Exact cumulative sums of ln(k) for the small-argument branch of
# log_factorial.  256 is comfortably past the float64 overflow point of
# the plain factorial (170!).
_EXACT_LIMIT = 256
_LOG_FACT_TABLE = [0.0] * (_EXACT_LIMIT + 1)
for _k in range(2, _EXACT_LIMIT + 1):
    _LOG_FACT_TABLE[_k] = _LOG_FACT_TABLE[_k - 1] + math.log(_k)


def log_factorial(n):
    """ln(n!) with exact summation for n <= 256 and a Stirling series beyond.

    Accurate to better than 1e-12 relative everywhere.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"log_factorial requires a nonnegative integer, got {n}")
    n = int(n)
    if n <= _EXACT_LIMIT:
        return _LOG_FACT_TABLE[n]
    # Stirling series for ln Gamma(n+1); the 1/n^5 term keeps the
    # truncation error near 1e-19 relative at the branch point.
    inv = 1.0 / n
    inv2 = inv * inv
    series = inv / 12.0 - inv * inv2 / 360.0 + inv * inv2 * inv2 / 1260.0
    return n * math.log(n) - n + 0.5 * math.log(2.0 * math.pi * n) + series


def hyp2f1_photon(p, x):
    """Value of the terminating Gauss series 2F1(-p/2, -(p-1)/2; 1; x).

    For integer p >= 0 one of the two numerator parameters is a
    non-positive integer or half-integer whose Pochhammer symbol hits
    zero, so the series is a polynomial of degree floor(p/2) in x.  All
    terms are nonnegative for x in [0, 1], hence no cancellation.
    """
    if p < 0 or p != int(p):
        raise DomainError(f"hyp2f1_photon requires integer p >= 0, got {p}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"hyp2f1_photon requires 0 <= x <= 1, got {x}")
    p = int(p)
    a = -0.5 * p
    b = -0.5 * (p - 1)
    term = 1.0
    total = 1.0
    for k in range(p // 2):
        term *= (a + k) * (b + k) * x / ((k + 1.0) * (k + 1.0))
        total += term
    return total
