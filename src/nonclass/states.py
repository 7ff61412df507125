"""Truncated Fock-space states and the operations the pipeline needs.

A state is a vector of Fock amplitudes c_0..c_N with a certified bound on
the probability mass the truncation discarded.  Constructors pick their
own cutoffs so that bound stays below 1e-12; operations are exact linear
maps on the truncated vector.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import AccuracyError, CutoffError, DomainError

TAIL_TARGET = 1e-12
DISPLACEMENT_GUARD = 5.0
# largest cutoff any constructor builds, chosen or overridden; checked
# before anything is allocated
_MAX_CUTOFF = 250_000


@dataclass(frozen=True, eq=False)
class FockState:
    """Truncated Fock expansion of a pure single-mode state.

    amplitudes: complex coefficients c_0..c_cutoff.
    tail_bound: certified upper bound on the discarded probability mass.
    """

    amplitudes: np.ndarray
    cutoff: int
    tail_bound: float

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        if self.cutoff < 0 or amps.shape != (self.cutoff + 1,):
            raise ValueError("amplitude vector must have length cutoff+1")
        if not 0.0 <= self.tail_bound:
            raise ValueError("tail_bound must be nonnegative")
        total = float(np.sum(amps.real**2 + amps.imag**2))
        if not (1.0 - self.tail_bound - 5e-15 <= total <= 1.0 + 1e-12 + 5e-15):
            raise AccuracyError(
                f"squared norm {total} outside [1-tail_bound, 1+1e-12]"
            )

    def norm_sq(self):
        a = self.amplitudes
        return float(np.sum(a.real**2 + a.imag**2))


def make_coherent(alpha, cutoff_override=None):
    """Coherent state |alpha> truncated with a certified Poisson tail.

    The automatic cutoff ceil(|alpha|^2 + 12 sqrt(|alpha|^2+1) + 20) puts
    the discarded mass far below 1e-12.  A cutoff_override that cannot
    certify that target, or a cutoff past _MAX_CUTOFF, raises CutoffError.
    """
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise DomainError("alpha must be finite")
    try:
        mu = abs(alpha) ** 2
    except OverflowError:
        raise DomainError(f"|alpha|^2 overflows a double for alpha={alpha}") from None
    if cutoff_override is None:
        cutoff = math.ceil(_check_cutoff(mu + 12.0 * math.sqrt(mu + 1.0) + 20.0))
    else:
        cutoff = _check_override(cutoff_override)
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[0] = math.exp(-0.5 * mu)
    for n in range(1, cutoff + 1):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    tail = _poisson_tail_bound(mu, cutoff)
    if tail > TAIL_TARGET:
        raise CutoffError(
            f"cutoff {cutoff} certifies tail {tail:.3e} > 1e-12 for |alpha|^2={mu:.6g}"
        )
    return FockState(amplitudes=amps, cutoff=cutoff, tail_bound=tail)


def _check_cutoff(cutoff):
    if cutoff > _MAX_CUTOFF:
        raise CutoffError(f"cutoff {cutoff:.6g} exceeds the limit {_MAX_CUTOFF}")
    return cutoff


def _check_override(cutoff_override):
    if cutoff_override != int(cutoff_override) or int(cutoff_override) < 0:
        raise DomainError(f"cutoff_override must be a nonnegative integer, got {cutoff_override}")
    return _check_cutoff(int(cutoff_override))


def _poisson_tail_bound(mu, cutoff):
    """Upper bound on the Poisson(mu) mass above `cutoff`.

    Successive pmf ratios beyond the cutoff are at most mu/(cutoff+2),
    giving a geometric bound from the first excluded term.
    """
    if mu == 0.0:
        return 0.0
    q = mu / (cutoff + 2.0)
    if q >= 1.0:
        return math.inf
    log_first = -mu + (cutoff + 1) * math.log(mu) - math.lgamma(cutoff + 2)
    return math.exp(log_first) / (1.0 - q)


def make_squeezed_vacuum(r, phi, cutoff_override=None):
    """Squeezed vacuum with squeeze modulus r and squeeze angle phi.

    Even amplitudes c_{2m} = (cosh r)^{-1/2} (e^{i phi} tanh(r)/2)^m
    sqrt((2m)!)/m!.  The automatic cutoff (_svs_auto_cutoff) certifies a
    geometric tail bound below 1e-12.
    """
    _check_squeeze(r, phi)
    if cutoff_override is None:
        cutoff = _svs_auto_cutoff(r)
    else:
        cutoff = _check_override(cutoff_override)
    t = math.tanh(r)
    pairs = cutoff // 2
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    z = 0.5 * t * complex(math.cos(phi), math.sin(phi))
    val = 1.0 / math.sqrt(math.cosh(r))
    amps[0] = val
    for m in range(1, pairs + 1):
        val = val * z * math.sqrt((2 * m - 1) * (2 * m)) / m
        amps[2 * m] = val
    # certified geometric bound from the first excluded pair on; _svs_auto_cutoff tests it
    tail = math.exp(_svs_log_pair_mass(r, pairs + 1)) / (1.0 - t * t)
    if tail > TAIL_TARGET:
        raise CutoffError(
            f"cutoff {cutoff} certifies tail {tail:.3e} > 1e-12 for r={r:.6g}"
        )
    return FockState(amplitudes=amps, cutoff=cutoff, tail_bound=tail)


def _check_squeeze(r, phi):
    if not (math.isfinite(r) and r >= 0.0):
        raise DomainError(f"squeeze modulus r must be finite and >= 0, got {r}")
    if not math.isfinite(phi):
        raise DomainError("squeeze angle phi must be finite")
    _check_squeeze_reach(r)


def _check_squeeze_reach(r):
    """CutoffError when no cutoff up to _MAX_CUTOFF can hold squeeze r.

    Each pair carries mass |c_2m|^2 <= 1/cosh r, and such a cutoff keeps
    at most _MAX_CUTOFF // 2 + 1 pairs.  ln cosh r is taken as
    r + log1p(e^{-2r}) - ln 2, which cannot overflow, so the check runs
    before any cosh r.
    """
    if r + math.log1p(math.exp(-2.0 * r)) - math.log(2.0) > math.log(_MAX_CUTOFF // 2 + 1):
        raise CutoffError(
            f"r={r} needs a cutoff beyond {_MAX_CUTOFF}; "
            "reduce r or supply amplitudes another way"
        )


def _svs_log_pair_mass(r, m, p=0):
    """ln(|c_2m|^2 (2m+1)...(2m+p)), |c_2m|^2 = t2^m (2m)! / (m!^2 4^m cosh r).

    t2 = tanh^2 r and ln n! = lgamma(n + 1), so no term overflows; -inf at r = 0, m >= 1.
    """
    t2 = math.tanh(r) ** 2
    log_t2 = math.log(t2) if t2 > 0.0 else -math.inf
    return (m * log_t2 - math.log(math.cosh(r)) + math.lgamma(2 * m + p + 1)
            - 2.0 * math.lgamma(m + 1) - m * math.log(4.0))


def _least_pair_count(passes, first, message):
    """Least m in [first, _MAX_CUTOFF // 2] with passes(m), else CutoffError(message).

    passes must be false up to some m and true from there on.  Double to
    bracket that m, then bisect, keeping passes(lo) false (lo = first - 1
    is below every candidate) and passes(hi) true.
    """
    last = _MAX_CUTOFF // 2
    lo, hi = first - 1, first
    while not passes(hi):
        if hi == last:
            raise CutoffError(message)
        lo, hi = hi, min(2 * hi + 1, last)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _svs_auto_cutoff(r):
    """The automatic squeezed-vacuum cutoff 2m, 0 at r = 0.

    m is the least pair count whose next pair, with the geometric tail
    after it (ratio below tanh^2 r), carries at most half of TAIL_TARGET,
    compared in logs.  Pair masses fall with m, so the search is exact.
    """
    log_one_minus_t2 = math.log(1.0 - math.tanh(r) ** 2)
    log_target = math.log(0.5 * TAIL_TARGET)
    return 2 * _least_pair_count(
        lambda m: _svs_log_pair_mass(r, m + 1) - log_one_minus_t2 <= log_target, 0,
        f"r={r} needs a cutoff beyond {_MAX_CUTOFF}; reduce r or supply amplitudes another way",
    )


def svs_cutoff_for_moment(r, p):
    """Cutoff making the p-weighted squeezed-vacuum tail negligible.

    The moment sum_n |c_n|^2 (n+1)...(n+p) converges much more slowly
    than the mass, so oracle-grade photon addition on squeezed vacuum
    needs a cutoff where the weighted tail is below 1e-13 of a lower
    bound (p! cosh^{2p} r) of the moment itself.  The comparison is made
    in logs (_svs_log_pair_mass), so no term overflows for large p.  The
    cutoff is 2m for the first m >= 1 that passes; past m =
    _MAX_CUTOFF // 2 the search raises CutoffError.
    """
    if p < 0 or p != int(p):
        raise DomainError(f"p must be a nonnegative integer, got {p}")
    p = int(p)
    if r == 0.0:
        return 0
    _check_squeeze_reach(r)
    t2 = math.tanh(r) ** 2
    log_scale = math.log(1e-13) + math.lgamma(p + 1) + 2 * p * math.log(math.cosh(r))

    def passes(m):
        # the term ratio from pair m to m+1; the tail from m is geometric once it is below 1
        ratio = t2 * (2 * m + p + 1) * (2 * m + p + 2) / ((2 * m + 2) ** 2)
        return ratio < 1.0 and _svs_log_pair_mass(r, m, p) - math.log1p(-ratio) <= log_scale

    # passes() is false up to some m and true from there on.  For p >= 1
    # the ratio falls with m, and where it is below 1 so does the tail
    # bound.  For p = 0 the bound can rise with m only while m(1 - t2) < 1,
    # far above the target for any r that _check_squeeze_reach admits.
    return 2 * _least_pair_count(
        passes, 1, f"moment-aware cutoff for r={r}, p={p} exceeds {_MAX_CUTOFF}"
    )


def make_squeezed_vacuum_for_addition(r, phi, p):
    """Squeezed vacuum with its cutoff grown for adding p photons.

    Photon addition weights the tail by (n+1)...(n+p), so the cutoff is
    raised to svs_cutoff_for_moment(r, p) when that exceeds the automatic
    one; the amplitudes are built once, at the larger cutoff.  For
    p == 0 or r == 0 this is make_squeezed_vacuum(r, phi).
    """
    _check_squeeze(r, phi)
    cutoff = _svs_auto_cutoff(r)
    if p > 0:
        cutoff = max(cutoff, svs_cutoff_for_moment(r, p))
    return make_squeezed_vacuum(r, phi, cutoff_override=cutoff)


def make_fock(p, cutoff_override=None):
    """Fock state |p>; exact at cutoff p, or zero-padded to cutoff_override.

    A cutoff_override below p raises DomainError, a cutoff past
    _MAX_CUTOFF CutoffError.
    """
    if p < 0 or p != int(p):
        raise DomainError(f"Fock index must be a nonnegative integer, got {p}")
    p = int(p)
    cutoff = _check_cutoff(p) if cutoff_override is None else _check_override(cutoff_override)
    if cutoff < p:
        raise DomainError("cutoff_override below the photon number")
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[p] = 1.0
    return FockState(amplitudes=amps, cutoff=cutoff, tail_bound=0.0)


def _addition_weights(state, p):
    """(weight, shift) with weight[n] 2^shift = (n+1)...(n+p), n = 0..cutoff.

    These are the weights (a^dag)^p puts on |c_n|^2.  The running product
    is scaled by 2^-600 each time its last, largest entry passes 2^900, so
    it never overflows.  Scaling by a power of two commutes with rounding:
    weight is the unscaled product times 2^-shift bit for bit, and a
    product that never passes 2^900 has shift 0.
    """
    n = np.arange(state.cutoff + 1, dtype=np.float64)
    weight = np.ones_like(n)
    shift = 0
    for k in range(1, p + 1):
        weight *= n + k
        if weight[-1] > 2.0**900:
            weight *= 2.0**-600
            shift += 600
    return weight, shift


def add_photons(state, p):
    """Apply (a^dag)^p and renormalize; returns the raised state.

    Amplitudes map as c_{n+p} = c_n sqrt((n+p)!/n!) / sqrt(S) with
    S = antinormal_correlation(state, p) computed on the truncated input;
    for heavy-tailed inputs pick the input cutoff with the moment in mind
    (see svs_cutoff_for_moment).  An output cutoff past _MAX_CUTOFF
    raises CutoffError.
    """
    if p < 0 or p != int(p):
        raise DomainError(f"photon count must be a nonnegative integer, got {p}")
    p = int(p)
    if p == 0:
        return state
    _check_cutoff(state.cutoff + p)
    weight, _ = _addition_weights(state, p)  # both sums below take the same 2^shift
    c = state.amplitudes
    norm_sq_inv = float(np.sum((c.real**2 + c.imag**2) * weight))
    out = np.zeros(state.cutoff + p + 1, dtype=np.complex128)
    out[p:] = c * np.sqrt(weight) / math.sqrt(norm_sq_inv)
    return FockState(amplitudes=out, cutoff=state.cutoff + p, tail_bound=state.tail_bound)


def displace(state, lam):
    """Apply the displacement D(lam) within an enlarged cutoff.

    The output cutoff is input.cutoff + ceil(|lam|^2 + 12|lam| + 10).
    With x = |lam|^2 and u = lam/|lam|, the matrix elements are
    <n+k|D|n> = u^k B(n, k, x) and <n|D|n+k> = (-conj(u))^k B(n, k, x),
    where B, bounded by 1, comes row by row in n from the stable Laguerre
    chains of the Wigner kernel (_kernels.laguerre_rows).  If the enlarged
    cutoff still cannot hold the displaced state (norm change beyond
    1e-8), AccuracyError is raised.
    """
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise DomainError("displacement must be finite")
    mod = abs(lam)
    if mod > DISPLACEMENT_GUARD:
        raise DomainError(
            f"|lam|={mod:.4g} exceeds the displacement guard {DISPLACEMENT_GUARD}"
        )
    if mod == 0.0:
        return state
    out_cutoff = state.cutoff + math.ceil(mod * mod + 12.0 * mod + 10.0)
    c = state.amplitudes
    k = np.arange(out_cutoff + 1)
    u = lam / mod
    below, above = u**k, (-u.conjugate()) ** k  # phases of <n+k|D|n>, <n|D|n+k>
    out = np.zeros(out_cutoff + 1, dtype=np.complex128)
    for n, b in enumerate(_kernels.laguerre_rows(mod * mod, state.cutoff, out_cutoff)):
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
    return FockState(
        amplitudes=out,
        cutoff=out_cutoff,
        tail_bound=state.tail_bound + mass_loss + 1e-15,
    )


def rotate(state, theta):
    """Apply the phase-space rotation c_n -> e^{-i n theta} c_n."""
    if not math.isfinite(theta):
        raise DomainError("rotation angle must be finite")
    n = np.arange(state.cutoff + 1, dtype=np.float64)
    out = state.amplitudes * np.exp(-1j * theta * n)
    return FockState(amplitudes=out, cutoff=state.cutoff, tail_bound=state.tail_bound)


def antinormal_correlation(state, p):
    """<a^p (a^dag)^p> = sum_n |c_n|^2 (n+1)...(n+p) on the truncated state."""
    if p < 0 or p != int(p):
        raise DomainError(f"p must be a nonnegative integer, got {p}")
    c = state.amplitudes
    weight, shift = _addition_weights(state, int(p))
    with np.errstate(over="ignore"):  # a moment past the double range is inf
        return float(np.ldexp(np.sum((c.real**2 + c.imag**2) * weight), shift))


def mean_photon(state):
    """<n> on the truncated state."""
    c = state.amplitudes
    n = np.arange(state.cutoff + 1, dtype=np.float64)
    return float(np.sum((c.real**2 + c.imag**2) * n))
