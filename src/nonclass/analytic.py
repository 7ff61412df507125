"""Closed forms for peak Husimi densities and non-classicality degrees.

Covers photon-added coherent states (pac), Fock states, squeezed vacuum
(svs), photon-added squeezed vacuum (pasv), and the strong-squeezing
limits of the pasv enhancement ratio.  Factorial-sized prefactors are
assembled in log space, ln n! as math.lgamma(n + 1).

Every photon-added closed form divides by the input's antinormal moment
M_p = <a^p a^dag^p>: p! L_p(-|alpha|^2) on a coherent state, p! cosh^{2p} r
2F1(-p/2, -(p-1)/2; 1; tanh^2 r) on a squeezed vacuum.  ln M_p is the
exact sum (math.fsum) of the first p ratios ln(M_j / M_{j-1}) of
log_moment_ratios, the one moment path of the package; the cutoff rule
of `states` reads the same ratios.  Measured against 40-digit mpmath
(|alpha|^2 in [1e-3, 1e3], r in [0, 21]), the pac and pasv peak densities
stay within 1.2e-13 relative for p <= 20 and 6e-12 for p up to 1000, and
the pasv one within 8e-11 for p up to 20000.  A p past _MAX_CUTOFF raises
CutoffError before any ratio is walked.

Each closed form computes ln F, F = pi qmax, and its qmax is e^{ln F}/pi.
Every degree, closed form or numeric, is dq_from_log_fidelity(ln F), which
stays accurate relative as F -> 1 wherever ln F does, as -ln cosh r does.
"""

import cmath
import math
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import CutoffError, DomainError

# The pac closed form divides by alpha_sq, so its Fock limit stands in
# below this threshold.  The peak density has square-root behavior in
# alpha_sq near zero: the two branches differ by about 2*sqrt(p*alpha_sq)
# relative at the switch, below rounding here, while the closed form
# stays accurate to ~1e-13 down to it.
PAC_FOCK_THRESHOLD = 1e-200
# the one cap on sizes: the largest cutoff a state constructor builds
# (states._MAX_CUTOFF, checked before anything is allocated) and the largest
# p whose moment ratios a closed form walks, one Python step per order
_MAX_CUTOFF = 250_000


def _integer(name, x, least=0):
    """x as an int; DomainError unless x is an integer >= least."""
    if not (x >= least and x % 1 == 0):  # nan fails the first test, inf % 1 is nan
        raise DomainError(f"{name} must be an integer >= {least}, got {x}")
    return int(x)


def _nonnegative(name, x):
    """x as a float; DomainError unless x is finite and >= 0."""
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"{name} must be finite and >= 0, got {x}")
    return float(x)


def _finite(name, x):
    """x unchanged; DomainError unless x, real or complex, is finite."""
    if not cmath.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x}")
    return x


def _check_moment_walk(p):
    """CutoffError for a p past _MAX_CUTOFF, before its p moment ratios are walked."""
    if p > _MAX_CUTOFF:
        raise CutoffError(f"p={p} exceeds the limit {_MAX_CUTOFF} of the closed forms")


def _alpha_sq(alpha):
    """abs(alpha)**2; DomainError unless alpha is finite and that square fits a double."""
    _finite("alpha", alpha)
    try:
        return abs(alpha) ** 2
    except OverflowError:
        raise DomainError(f"|alpha|^2 overflows a double for alpha={alpha}") from None


def dq_from_log_fidelity(log_f):
    """dq = 1 - F = -expm1(ln F) of a fidelity F = pi qmax; a rounding past F = 1 gives 0."""
    return max(0.0, -math.expm1(log_f))


class FockNonclassicality(NamedTuple):
    qmax: float
    dq: float


class PasvQmax(NamedTuple):
    qmax: float
    beta_max_modulus_sq: float


class SqueezeLimits(NamedTuple):
    ratio_to_svs: float
    ratio_successive: float


def log_moment_ratios(mu, sigma, count):
    """ln(M_j / M_{j-1}) for j = 1..count, M_j = <a^j a^dag^j> of a Gaussian input.

    M_0 = 1 and M_{j+1} = a_j M_j - b_j M_{j-1}, with a_j = (2j+1)(1+sigma)
    + mu and b_j = j^2 (1+sigma).  For a coherent input (sigma = 0) that is
    M_j = j! L_j(-mu); for a squeezed vacuum (mu = 0, c^2 = 1 + sigma) it
    is M_j = j! c^j P_j(c), P_j the Legendre polynomial.  The ratio M_j /
    M_{j-1} is carried as j (1 + delta_j): every term of the delta
    recurrence below is nonnegative, and log1p keeps ln(1 + delta_j)
    accurate where delta_j is small, so ln M_j, the cumulative sum, is
    good to a few ulps relative.
    """
    delta = mu + sigma
    deltas = [delta]
    for j in range(1, count):
        delta = ((2 * j + 1) * sigma + mu + j * (delta - sigma) / (1.0 + delta)) / (j + 1)
        deltas.append(delta)
    return np.log(np.arange(1.0, count + 1.0)) + np.log1p(deltas)


def _log_svs_moment_scaled(p, r):
    """ln(M_p / cosh^{2p} r) on the squeezed vacuum, ln p! + ln 2F1(tanh^2 r).

    Taken at min(r, 20): past r = 19.1 tanh^2 r rounds to 1, so the value
    no longer moves, and sinh^2 r stays inside the double range.
    """
    r = min(r, 20.0)
    return math.fsum(log_moment_ratios(0.0, math.sinh(r) ** 2, p)) - 2.0 * p * _log_cosh(r)


def _log_cosh(r):
    """ln cosh r, as log1p(2 sinh^2(r/2)) up to r = 20: relative accuracy as r -> 0."""
    if r > 20.0:
        return r - math.log(2.0) + math.log1p(math.exp(-2.0 * r))
    return math.log1p(2.0 * math.sinh(0.5 * r) ** 2)


def _log_fock_fidelity(p):
    """ln F of the Fock state |p>, p an int >= 1: p ln p - p - ln p!.

    From p = 32 on that is -ln(2 pi p)/2 - R(p), R the Stirling remainder
    (_kernels.stirling_remainder): the three terms of the first form cancel
    ever more as p grows (6e-12 of dq lost at p = 1e9, all of it at 1e16).
    """
    if p < 32:
        return p * math.log(p) - p - math.lgamma(p + 1)
    # as a float, p * p is inf past 1e154, not an int too large to divide by
    return -0.5 * (math.log(math.tau) + math.log(p)) - _kernels.stirling_remainder(float(p))


def fock_nonclassicality(p):
    """Peak Husimi density and degree for the Fock state |p>.

    qmax = (1/pi)(1/p!)(p/e)^p and dq = dq_from_log_fidelity(ln pi qmax).
    """
    log_f = _log_fock_fidelity(_integer("p", p, 1))
    return FockNonclassicality(qmax=math.exp(log_f) / math.pi, dq=dq_from_log_fidelity(log_f))


def _log_pac_fidelity(p, alpha_sq):
    """ln F of a p-photon-added coherent state; see qmax_pac."""
    p, u = _integer("p", p), _nonnegative("alpha_sq", alpha_sq)
    _check_moment_walk(p)
    if p == 0:
        return 0.0
    if u < PAC_FOCK_THRESHOLD:
        return _log_fock_fidelity(p)
    s = math.sqrt(1.0 + 4.0 * p / u)
    log_peak_sq = math.log(u / 4.0) + 2.0 * math.log1p(s)  # ln |beta_max|^2
    exponent = (u / 4.0) * (s - 1.0) ** 2
    return p * log_peak_sq - exponent - math.fsum(log_moment_ratios(u, 0.0, p))


def qmax_pac(p, alpha_sq):
    """Peak Husimi density of a p-photon-added coherent state.

    (1/pi) [p! L_p(-|a|^2)]^{-1} [(|a|/2)(sqrt(1+4p/|a|^2)+1)]^{2p}
    exp[-(|a|^2/4)(sqrt(1+4p/|a|^2)-1)^2], with the Fock limit taken for
    alpha_sq below PAC_FOCK_THRESHOLD.
    """
    return math.exp(_log_pac_fidelity(p, alpha_sq)) / math.pi


def dq_pac(p, alpha_sq):
    """Geometric degree of a photon-added coherent state, dq_from_log_fidelity of its ln F."""
    return dq_from_log_fidelity(_log_pac_fidelity(p, alpha_sq))


def svs_qmax(r):
    """Peak Husimi density 1/(pi cosh r) of the squeezed vacuum (at beta=0)."""
    return math.exp(_log_pasv_fidelity(0, r)) / math.pi


def svs_antinormal(p, r):
    """<a^p (a^dag)^p> on squeezed vacuum.

    p! (cosh r)^{2p} 2F1(-p/2, -(p-1)/2; 1; tanh^2 r), from the moment
    path; math.inf past the double range.
    """
    p, r = _integer("p", p), _nonnegative("r", r)
    _check_moment_walk(p)
    if p == 0:
        return 1.0
    log_moment = _log_svs_moment_scaled(p, r) + 2.0 * p * _log_cosh(r)
    try:
        return math.exp(log_moment)
    except OverflowError:
        return math.inf


def _log_pasv_fidelity(p, r):
    """ln F of a p-photon-added squeezed vacuum; at p = 0 the squeezed vacuum's -ln cosh r."""
    p, r = _integer("p", p), _nonnegative("r", r)
    _check_moment_walk(p)
    if p == 0:
        return -_log_cosh(r)
    return p * (math.log(p) + r - 1.0 - _log_cosh(r)) - _log_svs_moment_scaled(p, r) - _log_cosh(r)


def pasv_qmax(p, r):
    """Peak Husimi density of a p-photon-added squeezed vacuum.

    qmax = svs_qmax(r) * (1/p!) (p e^{r-1}/cosh r)^p / 2F1(...), with the
    maximizer at |beta_max|^2 = p e^r cosh r (arg beta_max = phi/2), which
    is math.inf past the double range.  The squeeze angle phi only
    rotates the maximizer, so the peak depends on p and r alone.
    """
    qmax = math.exp(_log_pasv_fidelity(p, r)) / math.pi
    # the product overflows to inf from r ~ 355; math.exp(r) would raise past 709
    beta_sq = 0.0 if p == 0 else p * math.exp(r) * math.cosh(r) if r < 700.0 else math.inf
    return PasvQmax(qmax=qmax, beta_max_modulus_sq=beta_sq)


def pasv_dq(p, r):
    """Geometric degree of a photon-added squeezed vacuum, dq_from_log_fidelity of its ln F."""
    return dq_from_log_fidelity(_log_pasv_fidelity(p, r))


def strong_squeezing_limits(p):
    """Strong-squeezing limits of the pasv/svs peak-density ratio.

    ratio_to_svs = (p/e)^p sqrt(pi)/Gamma(p+1/2) is the r -> infinity
    limit of pi cosh(r) qmax_pasv; ratio_successive compares p+1 with p:
    (1/e)(1+1/p)^p (p+1)/(p+1/2), always below 1.
    """
    p = _integer("p", p, 1)
    ratio_to_svs = math.exp(
        p * math.log(p) - p + 0.5 * math.log(math.pi) - math.lgamma(p + 0.5)
    )
    ratio_successive = (
        math.exp(p * math.log1p(1.0 / p) - 1.0) * (p + 1.0) / (p + 0.5)
    )
    return SqueezeLimits(ratio_to_svs=ratio_to_svs, ratio_successive=ratio_successive)


def reference_dq(family, params, added_photons):
    """Closed-form (dq, source_tag) from the family's record (families.FAMILIES).

    dq is dq_from_log_fidelity of the record's (ln F, source_tag).  params
    go through the record's checks, as in cli.build_state, so each path
    refuses the same arguments with DomainError; so does a family with no
    record.  The CLI's dq and sweep take their closed form from here.
    """
    p = _integer("added_photons", added_photons)
    record = families.record(family)
    log_f, tag = record.reference(record.checked(params), p)
    return dq_from_log_fidelity(log_f), tag


# last: families reads this module's checks when it builds its table
from . import families  # noqa: E402
