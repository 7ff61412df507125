"""Closed forms for peak Husimi densities and non-classicality degrees.

Covers photon-added coherent states (pac), Fock states, squeezed vacuum
(svs), photon-added squeezed vacuum (pasv), and the strong-squeezing
limits of the pasv enhancement ratio.  Factorial-sized prefactors are
assembled in log space, ln n! as math.lgamma(n + 1), so the formulas
stay healthy up to p ~ 1e4.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError

# The pac closed form divides by alpha_sq, so its Fock limit stands in
# below this threshold.  The peak density has square-root behavior in
# alpha_sq near zero: the two branches differ by about 2*sqrt(p*alpha_sq)
# relative at the switch, below rounding here, while the closed form
# stays accurate to ~1e-13 down to it.
PAC_FOCK_THRESHOLD = 1e-200


@dataclass(frozen=True)
class PacParams:
    """Photon-added coherent state: p added photons on |alpha|^2 = alpha_sq."""

    p: int
    alpha_sq: float

    def __post_init__(self):
        if self.p < 0 or self.p != int(self.p):
            raise DomainError(f"p must be a nonnegative integer, got {self.p}")
        if not (math.isfinite(self.alpha_sq) and self.alpha_sq >= 0.0):
            raise DomainError(f"alpha_sq must be finite and >= 0, got {self.alpha_sq}")


@dataclass(frozen=True)
class PasvParams:
    """Photon-added squeezed vacuum: p added photons on squeeze modulus r.

    The squeeze angle phi only rotates the maximizer (arg beta_max =
    phi/2); the peak value depends on p and r alone.
    """

    p: int
    r: float

    def __post_init__(self):
        if self.p < 0 or self.p != int(self.p):
            raise DomainError(f"p must be a nonnegative integer, got {self.p}")
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise DomainError(f"r must be finite and >= 0, got {self.r}")


class FockNonclassicality(NamedTuple):
    qmax: float
    dq: float
    dq_asymptotic: float


class PasvQmax(NamedTuple):
    qmax: float
    beta_max_modulus_sq: float


class SqueezeLimits(NamedTuple):
    ratio_to_svs: float
    ratio_successive: float


def _log_laguerre_at_neg(p, u):
    """ln L_p(-u) for u >= 0 through the rescaled three-term recurrence.

    All values are positive for negative argument; periodic rescaling
    keeps the iteration inside float range for large p*u.
    """
    if p == 0:
        return 0.0
    shift = 0.0
    prev = 1.0
    cur = 1.0 + u
    for k in range(1, p):
        prev, cur = cur, ((2 * k + 1 + u) * cur - k * prev) / (k + 1)
        if cur > 1e250:
            prev /= 1e250
            cur /= 1e250
            shift += 250.0 * math.log(10.0)
    return math.log(cur) + shift


def _log_cosh(r):
    if r > 20.0:
        return r - math.log(2.0) + math.log1p(math.exp(-2.0 * r))
    return math.log(math.cosh(r))


def fock_nonclassicality(p):
    """Peak Husimi density and degree for the Fock state |p>.

    qmax = (1/pi)(1/p!)(p/e)^p, dq = 1 - pi*qmax, and the large-p
    asymptote dq ~ 1 - 1/sqrt(2 pi p).
    """
    if p < 1 or p != int(p):
        raise DomainError(f"Fock degree needs integer p >= 1, got {p}")
    p = int(p)
    qmax = math.exp(p * math.log(p) - p - math.lgamma(p + 1)) / math.pi
    dq = 1.0 - math.pi * qmax
    return FockNonclassicality(
        qmax=qmax, dq=dq, dq_asymptotic=1.0 - 1.0 / math.sqrt(2.0 * math.pi * p)
    )


def qmax_pac(params):
    """Peak Husimi density of a p-photon-added coherent state.

    (1/pi) [p! L_p(-|a|^2)]^{-1} [(|a|/2)(sqrt(1+4p/|a|^2)+1)]^{2p}
    exp[-(|a|^2/4)(sqrt(1+4p/|a|^2)-1)^2], with the Fock limit taken for
    alpha_sq below PAC_FOCK_THRESHOLD.
    """
    p, u = int(params.p), float(params.alpha_sq)
    if p == 0:
        return 1.0 / math.pi
    if u < PAC_FOCK_THRESHOLD:
        return fock_nonclassicality(p).qmax
    s = math.sqrt(1.0 + 4.0 * p / u)
    log_peak_sq = math.log(u / 4.0) + 2.0 * math.log1p(s)  # ln |beta_max|^2
    exponent = (u / 4.0) * (s - 1.0) ** 2
    log_q = (
        p * log_peak_sq
        - exponent
        - math.lgamma(p + 1)
        - _log_laguerre_at_neg(p, u)
        - math.log(math.pi)
    )
    return math.exp(log_q)


def dq_pac(params):
    """Geometric degree 1 - pi * qmax for a photon-added coherent state."""
    return min(1.0, max(0.0, 1.0 - math.pi * qmax_pac(params)))


def svs_qmax(r):
    """Peak Husimi density 1/(pi cosh r) of the squeezed vacuum (at beta=0)."""
    if not (math.isfinite(r) and r >= 0.0):
        raise DomainError(f"r must be finite and >= 0, got {r}")
    return math.exp(-_log_cosh(r)) / math.pi


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


def svs_antinormal(p, r):
    """<a^p (a^dag)^p> on squeezed vacuum.

    p! (cosh r)^{2p} 2F1(-p/2, -(p-1)/2; 1; tanh^2 r).
    """
    if p < 0 or p != int(p):
        raise DomainError(f"p must be a nonnegative integer, got {p}")
    if not (math.isfinite(r) and r >= 0.0):
        raise DomainError(f"r must be finite and >= 0, got {r}")
    p = int(p)
    if p == 0:
        return 1.0
    t2 = min(math.tanh(r) ** 2, 1.0)
    log_val = math.lgamma(p + 1) + 2.0 * p * _log_cosh(r)
    return math.exp(log_val) * hyp2f1_photon(p, t2)


def pasv_qmax(params):
    """Peak Husimi density of a p-photon-added squeezed vacuum.

    qmax = svs_qmax(r) * (1/p!) (p e^{r-1}/cosh r)^p / 2F1(...), with the
    maximizer at |beta_max|^2 = p e^r cosh r (arg beta_max = phi/2).
    """
    p, r = int(params.p), float(params.r)
    if p == 0:
        return PasvQmax(qmax=svs_qmax(r), beta_max_modulus_sq=0.0)
    t2 = min(math.tanh(r) ** 2, 1.0)
    log_ratio = (
        p * (math.log(p) + r - 1.0 - _log_cosh(r))
        - math.lgamma(p + 1)
        - math.log(hyp2f1_photon(p, t2))
    )
    qmax = svs_qmax(r) * math.exp(log_ratio)
    beta_sq = p * math.exp(r) * math.cosh(r)
    return PasvQmax(qmax=qmax, beta_max_modulus_sq=beta_sq)


def pasv_dq(params):
    """Geometric degree 1 - pi * qmax for a photon-added squeezed vacuum."""
    return min(1.0, max(0.0, 1.0 - math.pi * pasv_qmax(params).qmax))


def strong_squeezing_limits(p):
    """Strong-squeezing limits of the pasv/svs peak-density ratio.

    ratio_to_svs = (p/e)^p sqrt(pi)/Gamma(p+1/2) is the r -> infinity
    limit of pi cosh(r) qmax_pasv; ratio_successive compares p+1 with p:
    (1/e)(1+1/p)^p (p+1)/(p+1/2), always below 1.
    """
    if p < 1 or p != int(p):
        raise DomainError(f"strong_squeezing_limits needs integer p >= 1, got {p}")
    p = int(p)
    ratio_to_svs = math.exp(
        p * math.log(p) - p + 0.5 * math.log(math.pi) - math.lgamma(p + 0.5)
    )
    ratio_successive = (
        math.exp(p * math.log1p(1.0 / p) - 1.0) * (p + 1.0) / (p + 0.5)
    )
    return SqueezeLimits(ratio_to_svs=ratio_to_svs, ratio_successive=ratio_successive)


def reference_dq(family, params, added_photons):
    """Analytic degree for a (family, params, added photons) description.

    Returns (dq, source_tag) or None when no closed form covers the
    combination.  The CLI's dq and sweep subcommands both take their
    closed-form value from here and check a numeric degree against it.
    """
    p = int(added_photons)
    if family == "coherent":
        if p == 0:
            return 0.0, "coherent"
        u = float(params["re"]) ** 2 + float(params["im"]) ** 2
        return dq_pac(PacParams(p=p, alpha_sq=u)), f"pac(p={p}, alpha_sq={u!r})"
    if family == "svs":
        r = float(params["r"])
        if p == 0:
            return 1.0 - math.pi * svs_qmax(r), f"svs(r={r!r})"
        return pasv_dq(PasvParams(p=p, r=r)), f"pasv(p={p}, r={r!r})"
    if family == "fock":
        n_total = int(params["n"]) + p
        if n_total == 0:
            return 0.0, "fock(0)"
        return fock_nonclassicality(n_total).dq, f"fock(p={n_total})"
    return None
