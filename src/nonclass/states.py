"""Truncated Fock-space states and the operations the pipeline needs.

A state is a vector of Fock amplitudes c_0..c_N with a certified bound on
the probability mass the truncation discarded.  Fock states are exact.
Coherent states and squeezed vacua, with or without photons added, take
their cutoffs from one rule (_gaussian_cutoff), which keeps that bound
below TAIL_TARGET, and their amplitudes from one log-domain routine
(_gaussian_state).  Operations are exact linear maps on the truncated
vector.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, analytic
from .errors import AccuracyError, CutoffError, DomainError

TAIL_TARGET = 1e-12
# the one size cap (see analytic): the largest cutoff any constructor builds,
# checked before anything is allocated
_MAX_CUTOFF = analytic._MAX_CUTOFF
# moment orders k the tail bound of _gaussian_cutoff tries
_MOMENT_ORDERS = 64
# the certified tail is the computed bound times this; see _gaussian_cutoff
_ROUNDING_MARGIN = 1.0 + 1e-6


@dataclass(frozen=True, eq=False)
class FockState:
    """Truncated Fock expansion of a pure single-mode state.

    amplitudes: complex coefficients c_0..c_cutoff, a non-empty 1-D vector.
    tail_bound: certified upper bound on the discarded probability mass,
    >= 0 (math.inf where nothing finite can be certified).
    """

    amplitudes: np.ndarray
    tail_bound: float

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or amps.size == 0:
            raise DomainError(f"amplitudes must be a non-empty 1-D vector, got shape {amps.shape}")
        if not 0.0 <= self.tail_bound:
            raise DomainError(f"tail_bound must be >= 0, got {self.tail_bound}")
        total = self.norm_sq()
        if not (1.0 - self.tail_bound - 5e-15 <= total <= 1.0 + 1e-12 + 5e-15):
            raise AccuracyError(
                f"squared norm {total} outside [1-tail_bound, 1+1e-12]"
            )

    @property
    def cutoff(self):
        """N, the largest photon number the vector holds."""
        return self.amplitudes.size - 1

    def norm_sq(self):
        return float(np.sum(self.amplitudes.real**2 + self.amplitudes.imag**2))


def make_coherent(alpha, cutoff_override=None, p=0):
    """Coherent state |alpha>, or with p photons added, (a^dag)^p |alpha> normalized.

    The input is cut at the cutoff _gaussian_cutoff picks, or at
    cutoff_override, the returned state at that cutoff + p, and its tail_bound
    certifies its own discarded mass; an override that cannot certify
    TAIL_TARGET, or a cutoff past _MAX_CUTOFF, raises CutoffError.  alpha = 0
    is |p>, built by make_fock at cutoff + p.  Else c_n = w_n e^{i n theta},
    mu = |alpha|^2 and theta = arg alpha as doubles, ln w_n = ln(e^{-mu/2}
    mu^{n/2}/sqrt(n!)) from _kernels.log_sqrt_poisson.
    """
    alpha, p = complex(alpha), analytic._integer("p", p)
    mu = analytic._alpha_sq(alpha)
    cutoff, log_moment, tail = _gaussian_cutoff(mu, 0.0, p, cutoff_override, alpha == 0, f"|alpha|^2={mu:.6g}")
    if alpha == 0:  # (a^dag)^p |0> is |p>
        return make_fock(p, cutoff + p)
    log_w = _kernels.log_sqrt_poisson(abs(alpha), cutoff + 1)
    return _gaussian_state(log_w, 1j * math.atan2(alpha.imag, alpha.real), 1, cutoff, p, log_moment, tail)


def make_squeezed_vacuum(r, phi, cutoff_override=None, p=0):
    """Squeezed vacuum with squeeze modulus r and angle phi, or with p photons added.

    Even amplitudes c_{2m} = (cosh r)^{-1/2} e^{i m phi} t^m sqrt((2m)!)/(m! 2^m),
    t = tanh r, with no recurrence: c_{2m} = e^{l_m + m z}, z = ln t + i phi
    (phi mod 2 pi past 2^100, ln t not from a rounded t), and l_m, ln of the
    factorial ratio less ln(cosh r)/2, a split_cumsum of log1p(-1/(2j))/2.
    Cutoffs, tail_bound and r = 0 are as in make_coherent.
    """
    analytic._finite("phi", float(phi))
    sigma, p = _squeeze_sigma(r), analytic._integer("p", p)
    cutoff, log_moment, tail = _gaussian_cutoff(0.0, sigma, p, cutoff_override, r == 0.0, f"r={r}")
    if r == 0.0:  # the vacuum, as in make_coherent; t = 0 has no logarithm
        return make_fock(p, cutoff + p)
    log_t = math.log(math.tanh(r)) if r < 0.5 else math.log1p(-2.0 / (math.exp(2.0 * r) + 1.0))
    log_c = np.zeros(cutoff // 2 + 1)
    _kernels.split_cumsum(0.5 * np.log1p(-0.5 / np.arange(1.0, log_c.size)), log_c[1:])
    log_c -= 0.5 * analytic._log_cosh(r)
    z = complex(log_t, phi if abs(phi) < 2.0**100 else math.fmod(phi, math.tau))
    return _gaussian_state(log_c, z, 2, cutoff, p, log_moment, tail)


def _gaussian_state(log_c, z, step, cutoff, p, log_moment, tail):
    """(a^dag)^p sum_k c_k |step k>, normalized, c_k = e^{log_c[k] + k z} the
    Gaussian input whose ln M_p and tail _gaussian_cutoff gave.

    e^{k z} is e^{k hi} e^{k (z - hi)}, hi z with both parts rounded to 24
    bits, so that k hi is exact; at p = 0 the amplitudes are e^{log_c} times
    those.  (a^dag)^p puts c_k e^{L_n} on |n + p>, n = step k, so for p > 0
    the moduli |b| are one exp of log_c + k Re z + L - ln(M_p)/2, normal where
    the mass lies, and only i Im z stays in the factors.  Their exact sum of squares S is 1 less the discarded
    mass: S must lie in [1 - tail - eps, 1 + eps], or AccuracyError names the
    lost mass, and b is divided by sqrt(S).  eps bounds the rounding (u =
    2^-53): where ln|b| >= -40 (the rest is under N e^-80 of S), ln|c| >=
    -(L_N + 40), and ln|b| sums logs each within a few u relative (ln M_p,
    ln(p!)/2, the one-signed steps of L and ln|c|), so within 10u (ln M_p +
    L_N + 20); with 20u for exp, squares and sum, S is within eps = 2^-48
    (ln M_p + L_N + 24).
    """
    k = np.arange(log_c.size)
    if p == 0:
        mod = np.exp(log_c)
    else:
        log_w = _log_addition_weights(p, cutoff + 1)
        mod = np.exp(log_c + k * z.real + (log_w[::step] - 0.5 * log_moment))
        total, eps = float(np.sum(mod * mod)), 2.0**-48 * (log_moment + log_w[-1] + 24.0)
        if not 1.0 - tail - eps <= total <= 1.0 + eps:
            raise AccuracyError(f"photon-added state lost mass {1.0 - total:.3e}, past its tail {tail:.3e}")
        mod, z = mod / math.sqrt(total), 1j * z.imag
    hi = complex(np.complex64(z))  # k hi is exact
    amps = np.zeros(cutoff + p + 1, dtype=np.complex128)
    amps[p::step] = mod * np.exp(k * hi) * np.exp(k * (z - hi))
    return FockState(amps, tail)


def svs_cutoff_for_moment(r, p):
    """The input cutoff of make_squeezed_vacuum(r, phi, p=p): there every
    truncated <a^q a^dag^q>, q <= p, is within TAIL_TARGET relative of the
    exact one, the mass the q-photon-added state discards, which is no more
    than the p-photon one's, since (n+q+1)...(n+p) rises with n."""
    sigma, p = _squeeze_sigma(r), analytic._integer("p", p)
    return _gaussian_cutoff(0.0, sigma, p, None, r == 0.0, f"r={r}")[0]


def _check_cutoff(cutoff):
    if cutoff > _MAX_CUTOFF:
        # as given, not ':.6g', which takes float() of an int and overflows past 1.8e308
        raise CutoffError(f"cutoff {cutoff} exceeds the limit {_MAX_CUTOFF}")
    return cutoff


def _squeeze_sigma(r):
    """sinh^2 r, at min(r, 20) so it cannot overflow; DomainError unless r is finite and >= 0."""
    return math.sinh(min(analytic._nonnegative("r", r), 20.0)) ** 2


def _gaussian_cutoff(mu, sigma, p, cutoff_override, vacuum, label):
    """(N, ln M_p, tail) for p photons added to a coherent or squeezed input.

    The one cutoff rule for every non-Fock state.  The input is a coherent
    state (mu = |alpha|^2, sigma = 0) or a squeezed vacuum (mu = 0, sigma =
    sinh^2 r), truncated at N; the p-photon-added state at N + p.  Its
    moments M_j = <a^j a^dag^j> are exact, from analytic.log_moment_ratios,
    which the closed forms divide by too; ln M_p is the math.fsum of the first
    p.  For n >= N+1, (n+p+1)...(n+p+k) >= (N+p+2)...(N+p+k+1), so the
    photon-added state discards at most min over 1 <= k <= _MOMENT_ORDERS of
    M_{p+k} / (M_p (N+p+2)...(N+p+k+1)), compared in logs.  N is the least
    cutoff, or cutoff_override, at which that bound times _ROUNDING_MARGIN is
    at most TAIL_TARGET; tail is that product, the same bits whether N was
    searched or given.  The margin covers rounding: the log ratios drift a
    few ulps per step, under 3e-8 over p + _MOMENT_ORDERS steps up to
    _MAX_CUTOFF.  The vacuum is exact at any cutoff; its N is 0.  An input
    whose <n> = mu + sigma passes _MAX_CUTOFF gets the one refusal, with or
    without cutoff_override, before any bound is formed; an N + p past
    _MAX_CUTOFF raises CutoffError before anything that size is built.
    """
    cutoff = 0 if cutoff_override is None else analytic._integer("cutoff_override", cutoff_override)
    _check_cutoff(cutoff + p)
    if vacuum:
        return cutoff, 0.0, 0.0
    beyond = CutoffError(f"moment-aware cutoff for {label}, p={p} exceeds {_MAX_CUTOFF}")
    # no N up to the cap holds <n> past it: about half a Poisson's mass lies
    # past any N < mu; as C(2m, m)/4^m <= 1/sqrt(pi m), at most 399/cosh r of
    # a squeezed vacuum lies at n <= _MAX_CUTOFF, and sinh^2 r > _MAX_CUTOFF
    # means cosh r > 500; added photons only move mass up
    if mu + sigma > _MAX_CUTOFF:
        raise beyond
    log_ratios = analytic.log_moment_ratios(mu, sigma, p + _MOMENT_ORDERS)
    log_target = math.log(TAIL_TARGET / _ROUNDING_MARGIN)
    if cutoff_override is None:
        # order k passes once N + p + 2 >= e^x_k and fails while
        # N + p + k + 1 < e^x_k, so the least N lies in [lo, hi], empty if
        # lo > hi; one step of slack each way absorbs the rounding of exp
        orders = np.arange(1, _MOMENT_ORDERS + 1)
        x = (np.cumsum(log_ratios[p:]) - log_target) / orders
        reach = np.exp(np.minimum(x, 30.0))  # e^30 is far past the cap
        lo = max(math.ceil(float(np.min(reach - orders))) - p - 2, 0)
        hi = min(max(math.ceil(float(np.min(reach))) - p - 1, 0), _MAX_CUTOFF - p)
        bounds = _log_tail_bounds(log_ratios, p, lo, hi)
        passing = np.flatnonzero(bounds <= log_target)
        if passing.size == 0:
            raise beyond
        cutoff = lo + int(passing[0])
        log_bound = bounds[passing[0]]
    else:
        log_bound = _log_tail_bounds(log_ratios, p, cutoff, cutoff)[0]
    tail = max(math.exp(log_bound) * _ROUNDING_MARGIN, math.ulp(0.0))  # never rounded to 0
    if log_bound > log_target:
        raise CutoffError(f"cutoff {cutoff} certifies tail {tail:.3e} > 1e-12 for {label}, p={p}")
    return cutoff, math.fsum(log_ratios[:p]), tail


def _log_tail_bounds(log_ratios, p, lo, hi):
    """ln of the tail bound of _gaussian_cutoff at each input cutoff N = lo..hi.

    Row N is the least over k of ln M_{p+k} - ln M_p - ln((N+p+2)...(N+p+k+1)),
    its products its own cumulative sum of logs, so its bits do not depend on
    lo or hi: a searched N certifies the tail that N gets as an override."""
    moments = np.cumsum(log_ratios[p : p + _MOMENT_ORDERS])
    first = np.arange(lo + p + 2, hi + p + 3, dtype=np.float64)[:, None]
    products = np.cumsum(np.log(first + np.arange(_MOMENT_ORDERS)), axis=1)
    return np.min(moments - products, axis=1)


def make_fock(p, cutoff_override=None):
    """Fock state |p>; exact at cutoff p, or zero-padded to cutoff_override.
    A cutoff_override below p raises DomainError, one past _MAX_CUTOFF CutoffError."""
    p = analytic._integer("p", p)
    cutoff = p if cutoff_override is None else analytic._integer("cutoff_override", cutoff_override)
    if _check_cutoff(cutoff) < p:
        raise DomainError("cutoff_override below the photon number")
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[p] = 1.0
    return FockState(amps, 0.0)


def _log_addition_weights(p, n_amp):
    """L_n = ln sqrt((n+1)...(n+p)), n < n_amp, the weight (a^dag)^p puts on
    c_n: ln(p!)/2, then a split_cumsum of the steps log1p(p/j)/2, whose sum
    stays below 2^21 up to _MAX_CUTOFF."""
    log_w = np.full(n_amp, 0.5 * math.lgamma(p + 1.0))
    log_w[1:] += _kernels.split_cumsum(0.5 * np.log1p(p / np.arange(1.0, n_amp)), np.empty(n_amp - 1))
    return log_w


def _raised(state, p):
    """(n, b, s): (a^dag)^p puts b e^s on |n+p>, n where c_n != 0, b = c_n e^{L_n - s},
    s the largest ln|c_n| + L_n, so |b| <= 1 is one exp of ln|c_n| + L_n - s."""
    n = np.flatnonzero(state.amplitudes)
    c, mod = state.amplitudes[n], np.abs(state.amplitudes[n])
    log_b = np.log(mod) + _log_addition_weights(p, state.cutoff + 1)[n]
    s = float(np.max(log_b)) if n.size else 0.0
    return n, np.exp(log_b - s) * (c / mod), s


def add_photons(state, p):
    """Apply (a^dag)^p and renormalize: c_n goes to |n+p> as _raised's b / |b|.

    An exact input (tail_bound 0) stays exact; |n> gives |n+p> exactly.  Any
    other input certifies math.inf, as no finite bound is true without its
    moments: build coherent and squeezed inputs with their constructors' p.
    An output cutoff past _MAX_CUTOFF raises CutoffError.
    """
    p = analytic._integer("p", p)
    if p == 0:
        return state
    out = np.zeros(_check_cutoff(state.cutoff + p) + 1, dtype=np.complex128)
    n, b, _ = _raised(state, p)
    out[n + p] = b / math.sqrt(float(np.sum(b.real**2 + b.imag**2)))
    return FockState(out, 0.0 if state.tail_bound == 0.0 else math.inf)


def displace(state, lam):
    """Apply the displacement D(lam) within an enlarged cutoff.

    The output cutoff is ceil(s^2 + 12 s + 10) with s = sqrt(input.cutoff)
    + |lam|: D(lam) moves the amplitude of |n> out to photon numbers near
    (sqrt(n) + |lam|)^2, and 12 s + 10 is the margin past that.  With
    x = |lam|^2 and u = lam/|lam|, the matrix elements are
    <n+k|D|n> = u^k B(n, k, x) and <n|D|n+k> = (-conj(u))^k B(n, k, x),
    where B, bounded by 1, comes row by row in n from the Wigner kernel's
    stable Laguerre chain, run over every k at once.  If the enlarged
    cutoff still cannot hold the displaced state (norm change beyond
    1e-8), AccuracyError is raised.  An output cutoff past _MAX_CUTOFF
    raises CutoffError.
    """
    lam = analytic._finite("displacement", complex(lam))
    mod = abs(lam)
    x = mod * mod
    # |lam|^2 underflows to 0 only below |lam| = 2.3e-162, where D(lam) moves
    # no amplitude by more than about |lam| sqrt(N) < 1e-159
    if x == 0.0:
        return state
    reach = math.sqrt(state.cutoff) + mod
    out_cutoff = math.ceil(_check_cutoff(reach * reach + 12.0 * reach + 10.0))
    c = state.amplitudes
    k = np.arange(out_cutoff + 1)
    u = lam / mod
    below, above = u**k, (-u.conjugate()) ** k  # phases of <n+k|D|n>, <n|D|n+k>
    out = np.zeros(out_cutoff + 1, dtype=np.complex128)
    for n, (b, j) in enumerate(_kernels.laguerre_chains(k, x, math.log(x), state.cutoff)):
        if j is not None:
            b = np.where(j == 0, b, 0.0)
        out[n:] += c[n] * below[: out_cutoff + 1 - n] * b[: out_cutoff + 1 - n]
        out[n] += above[1 : state.cutoff + 1 - n] * b[1 : state.cutoff + 1 - n] @ c[n + 1 :]
    norm_in = math.sqrt(state.norm_sq())
    norm_out = math.sqrt(float(np.sum(out.real**2 + out.imag**2)))
    loss = norm_in - norm_out
    if abs(loss) > 1e-8:
        raise AccuracyError(
            f"displacement by {lam} lost norm {loss:.3e}; state support is too "
            "wide for the enlarged cutoff"
        )
    mass_loss = max(norm_in * norm_in - norm_out * norm_out, 0.0)
    return FockState(out, state.tail_bound + mass_loss + 1e-15)


def rotate(state, theta):
    """Apply the phase-space rotation c_n -> e^{-i n theta} c_n."""
    analytic._finite("rotation angle", float(theta))
    n = np.arange(state.cutoff + 1, dtype=np.float64)
    out = state.amplitudes * np.exp(-1j * theta * n)
    return FockState(out, state.tail_bound)


def antinormal_correlation(state, p):
    """<a^p (a^dag)^p> = sum_n |c_n|^2 (n+1)...(n+p) on the truncated state,
    as e^{2s} sum |b|^2 from _raised; inf past the double range."""
    _, b, s = _raised(state, analytic._integer("p", p))
    with np.errstate(over="ignore"):
        return float(np.exp(2.0 * s) * np.sum(b.real**2 + b.imag**2))


def mean_photon(state):
    """<n> on the truncated state."""
    c = state.amplitudes
    n = np.arange(state.cutoff + 1, dtype=np.float64)
    return float(np.sum((c.real**2 + c.imag**2) * n))
