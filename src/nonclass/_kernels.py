"""Hot numeric kernels: coherent overlaps, Bargmann weights, displaced-parity Wigner.

Each kernel has one vectorized numpy implementation.  All are
deterministic: the same inputs give bit-identical outputs.
"""

import math

import numpy as np

# A recurrence seed below e^_SEED_FLOOR, which would lose precision or
# underflow, is carried scaled up by e^{644 j}, and unwound (j -= 1) each
# time the carried value passes _UNWIND_AT.  While j > 0 the true value
# is below ~e^-598, and it is dropped from the sum.
_SCALE_LOG = 644.0
_SCALE_DOWN = math.exp(-_SCALE_LOG)  # ~1.4e-280, still a normal double
_SEED_FLOOR = -640.0
_UNWIND_AT = 1e20


def _scale_counts(seed, steps):
    """The fewest j lifting each seed to _SEED_FLOOR or above, or None when all are there.

    A chain unwinds at most once per step, so a point whose j exceeds
    the chain's steps is dropped from every sum: its j is capped at
    steps + 1, which also keeps the count inside int64.
    """
    low = seed < _SEED_FLOOR
    if not low.any():
        return None
    count = np.minimum((_SEED_FLOOR - seed) // _SCALE_LOG, float(steps))
    return np.where(low, count.astype(np.int64) + 1, 0)


# ---------------------------------------------------------------------------
# coherent overlaps  <beta|psi> = e^{-|b|^2/2} sum_n c_n conj(b)^n / sqrt(n!)
# ---------------------------------------------------------------------------

def coherent_overlaps(amps, betas):
    """Batch <beta|psi> for a complex amplitude vector and beta array.

    Serves quasiprob's Husimi path (q_grid, a block of rows per call, and
    q_value) and verify; the optimizer uses bargmann_weights instead.
    Seeds e^{-|b|^2/2} below e^_SEED_FLOOR (|b| past ~35.8) are carried
    scaled, so no overlap underflows; a point too far out to unwind
    within the amplitudes (|b|^2 past ~1288 n_amp) is an exact 0.  A
    point gets the same bits in any batch.

    Each step divides the term by sqrt(n) in place and adds to a sum
    that starts at +0, in place.  numpy divides a complex by a real s as
    (re + im*0) fl(1/s), (im - re*0) fl(1/s); the step multiplies both
    parts by fl(1/s), which can differ only in the sign of a zero part.
    A zero part changes no non-zero part downstream, and a sum that
    starts at +0 never holds -0, so the overlaps keep their bits.  For
    the same reason an exactly zero amplitude (the p leading zeros of a
    photon-added state) adds nothing, and it is skipped.  The two
    complex products, term * conj(b) and c_n * term, stay out of place,
    as in the Wigner chains below.
    """
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    betas = np.ascontiguousarray(betas, dtype=np.complex128)
    if betas.size == 0:
        return np.empty(0, np.complex128)
    bc = np.conj(betas)
    # a part past 1e150 would overflow |b|^2; clipped there, the point's
    # count still reaches the cap, so it is the exact 0 it is unclipped
    re, im = np.clip(betas.real, -1e150, 1e150), np.clip(betas.imag, -1e150, 1e150)
    seed = -0.5 * (re**2 + im**2)
    j = _scale_counts(seed, amps.shape[0] - 1)
    any_scaled = j is not None
    if any_scaled:
        seed += _SCALE_LOG * j
    term = np.exp(seed).astype(np.complex128)
    del seed, re, im  # freed before the loop, whose working set sets peak memory
    acc = np.zeros(betas.shape[0], np.complex128)
    for n, c_n in enumerate(amps.tolist()):
        if n > 0:
            term = term * bc
            parts = term.view(np.float64)
            parts *= 1.0 / math.sqrt(n)
            if any_scaled:
                grown = (j > 0) & (np.abs(term) > _UNWIND_AT)
                term = term * np.where(grown, _SCALE_DOWN, 1.0)
                j -= grown
                any_scaled = bool(j.any())
        if c_n:
            acc += c_n * (np.where(j == 0, term, 0.0) if any_scaled else term)
    return acc


# ---------------------------------------------------------------------------
# Bargmann weights: with beta = rho e^{i theta},
#   <beta|psi> = sum_n c_n w_n(rho) e^{-i n theta},
#   w_n(rho) = rho^n e^{-rho^2/2} / sqrt(n!) = sqrt(Poisson(n; rho^2)) <= 1,
# built in the log domain, so no weight underflows before its term is
# negligible, at any radius.
# ---------------------------------------------------------------------------

def half_log_factorials(n_amp):
    """1/2 ln n! for n < n_amp, one cumulative sum of 1/2 ln k.

    bargmann_weights takes this table in place of a length, so a caller
    that needs weights at many radii builds it once.
    """
    half_lf = np.zeros(n_amp)
    half_lf[1:] = np.cumsum(0.5 * np.log(np.arange(1.0, n_amp)))
    return half_lf


def bargmann_weights(half_lf, rho):
    """w_n(rho) for n < len(half_lf), given half_log_factorials(len(half_lf)).

    rho is one radius, giving one row of weights, or a column of radii
    (shape (k, 1)), giving k rows; each row is bit-identical to the call
    on its radius alone.  A radius below 0 raises ValueError.  At rho = 0
    the log of rho^n is 0 for n = 0 and -inf above, so the origin gives
    w = (1, 0, 0, ...) like any other point.
    """
    n_amp = half_lf.shape[0]
    if np.ndim(rho):
        log_rho = np.array([[math.log(r) if r != 0.0 else -math.inf] for r in rho[:, 0]])
    else:
        log_rho = math.log(rho) if rho != 0.0 else -math.inf
    log_w = np.empty(np.shape(rho)[:1] + (n_amp,))
    log_w[..., 0] = 0.0
    np.multiply(np.arange(1.0, n_amp), log_rho, out=log_w[..., 1:])
    log_w -= half_lf
    log_w -= 0.5 * rho * rho
    return np.exp(log_w, out=log_w)


# ---------------------------------------------------------------------------
# Wigner by displaced parity, expanded over Fock diagonals:
#   W(beta) = (2/pi) <psi|D(2 beta) P|psi>        (P = photon-number parity)
#           = (2/pi) [ sum_n (-1)^n |c_n|^2 B(n,0,x)
#             + 2 sum_{k>=1} Re( e^{ikt} sum_n (-1)^n conj(c_{n+k}) c_n B(n,k,x) ) ]
# with x = 4|beta|^2, t = arg(2 beta), and the normalized matrix elements
#   B(n,k,x) = sqrt(n!/(n+k)!) x^{k/2} e^{-x/2} L_n^(k)(x) = |<n+k|D(lam)|n>|
# at x = |lam|^2, all bounded by 1 in magnitude.  Each fixed-k chain obeys
#   B(n+1) = (2n+k+1-x)/sqrt((n+1)(n+k+1)) B(n)
#            - sqrt(n(n+k)/((n+1)(n+k+1))) B(n-1)
# seeded by B(0) = exp((k ln x - ln k!)/2 - x/2), B(-1) = 0.  Run upward in
# n the chain tracks the dominant solution where the values grow and is
# neutrally stable where they oscillate, so it stays accurate at any
# window radius.  (A row recurrence on <m|D|psi> instead is violently
# unstable past the classical turning point: there the true rows decay
# superexponentially while roundoff rides the growing second solution.)
# A chain whose seed underflows is carried scaled up by e^{644 j} and
# unwound as it grows back (see _SCALE_LOG); while j > 0 its true values
# are dropped from the sum.  laguerre_chains runs these chains for the
# Wigner diagonals below and for states.displace.
# ---------------------------------------------------------------------------

def laguerre_chains(k, x, lx, last):
    """Yield (B(n, k, x), j) for n = 0..last, k an int and x an array
    (one diagonal at many radii) or k an int array and x > 0 a scalar.

    lx is ln x, any finite value where x = 0 (B(0, k, 0) = 0 for k > 0).
    Entries whose j is above 0 (j is None while there are none) are
    carried scaled and read as 0.  Steps run in place: a yielded array
    is overwritten by the next step.
    """
    if np.ndim(k):
        sqrt = np.sqrt
        log_kf = np.array([math.lgamma(i + 1.0) for i in k.tolist()])
    else:
        sqrt = math.sqrt  # np.sqrt on scalars slows a Wigner grid by ~8%
        log_kf = math.lgamma(k + 1.0)
    seed = 0.5 * (k * lx - log_kf) - 0.5 * x
    j = _scale_counts(seed, last)
    if j is not None:
        seed = seed + _SCALE_LOG * j
    b_cur = np.exp(seed)
    b_cur[(k > 0) & (x <= 0.0)] = 0.0
    b_prev = np.zeros_like(b_cur)
    tmp = np.empty_like(b_cur)
    for n in range(last):
        yield b_cur, j
        # B(n+1) = ca B(n) - cb B(n-1), written into B(n-1)'s buffer
        np.subtract(2.0 * n + k + 1.0, x, out=tmp)
        tmp /= sqrt((n + 1.0) * (n + k + 1.0))
        tmp *= b_cur
        b_prev *= sqrt(n * (n + k) / ((n + 1.0) * (n + k + 1.0)))
        np.subtract(tmp, b_prev, out=b_prev)
        b_prev, b_cur = b_cur, b_prev
        if j is not None:
            grown = (j > 0) & (np.maximum(np.abs(b_cur), np.abs(b_prev)) > _UNWIND_AT)
            if grown.any():
                shrink = np.where(grown, _SCALE_DOWN, 1.0)
                b_cur *= shrink
                b_prev *= shrink
                j -= grown
                if not j.any():
                    j = None
    yield b_cur, j


# The chains depend on a point only through x; the angle enters only
# through the phase e^{ikt}.  Each chain therefore runs once per distinct
# x (exact values, no rounding) and its sums go back to the points by the
# inverse index, so a point's value is bit-identical to a call on that
# point alone.  On a square window symmetric about 0 the grid's cell
# centers are mirror-exact (quasiprob._cell_centers), so sign flips and
# the swap of x and y leave x unchanged bit for bit: one x, and one run
# of each chain, per orbit of up to 8 points.  No work is spent on exact
# zeros, which leaves every sum bit-identical (each sum starts at +0, and
# adding +-0 never changes it):
# - a diagonal whose pair products (-1)^n conj(c_{n+k}) c_n are all exactly
#   zero (odd k of a squeezed vacuum, photons added or not; k > 0 of a
#   Fock state) is skipped.  A non-zero pair needs c_n and c_{n+k} both
#   non-zero, so k is a difference of two non-zero indices: a multiple of
#   their gcd and at most their span.  Every other diagonal is skipped
#   before its pair list is built, so those examples build none;
# - a zero pair adds nothing (every other n of a squeezed vacuum, n < p
#   after adding p photons to a coherent state), and a chain stops at its
#   last non-zero pair;
# - B is real, so a diagonal's sum is kept as real and imaginary parts,
#   and a real pair touches only the first.
# The two complex products per diagonal (phase and phase times sum) are
# left out of place: numpy rounds a complex product whose output is its
# own one-element input differently, which would make a single-point
# call disagree with the same point in a batch.

def _wigner_diagonals(amps, betas):
    n_amp = amps.shape[0]
    n_pt = betas.shape[0]
    g = 2.0 * betas
    x_pt = g.real**2 + g.imag**2
    pos_pt = x_pt > 0.0
    u = np.where(pos_pt, g / np.sqrt(np.where(pos_pt, x_pt, 1.0)), 1.0 + 0.0j)
    x, inv = np.unique(x_pt, return_inverse=True)
    n_x = x.shape[0]
    lx = np.log(np.where(x > 0.0, x, 1.0))
    c = amps.tolist()
    nz = np.flatnonzero(amps)
    span = int(nz[-1] - nz[0]) if nz.size else -1
    step = max(int(np.gcd.reduce(np.diff(nz))), 1)
    total = np.zeros(n_pt, np.float64)
    ph = np.ones(n_pt, np.complex128)
    at_pt = np.empty(n_pt, np.complex128)
    acc = np.empty(n_x, np.complex128)
    acc_re = np.empty(n_x, np.float64)
    acc_im = np.empty(n_x, np.float64)
    tmp = np.empty(n_x, np.float64)
    for k in range(span + 1):
        if k > 0:
            ph = ph * u
        if k % step:
            continue  # the diagonal adds exact zeros
        pairs = [c[n + k].conjugate() * c[n] for n in range(n_amp - k)]
        pairs[1::2] = [-pair for pair in pairs[1::2]]
        last = max((n for n, pair in enumerate(pairs) if pair), default=-1)
        if last < 0:
            continue  # the diagonal adds exact zeros
        acc_re.fill(0.0)
        acc_im.fill(0.0)
        for pair, (b, j) in zip(pairs, laguerre_chains(k, x, lx, last)):
            if pair:
                b_use = b if j is None else np.where(j == 0, b, 0.0)
                if pair.real:
                    np.multiply(b_use, pair.real, out=tmp)
                    acc_re += tmp
                if pair.imag:
                    np.multiply(b_use, pair.imag, out=tmp)
                    acc_im += tmp
        acc.real = acc_re
        acc.imag = acc_im
        np.take(acc, inv, out=at_pt, mode="clip")  # inv is in range: skip the checked path
        if k == 0:
            total += at_pt.real
        else:
            total += 2.0 * (ph * at_pt).real
    return (2.0 / math.pi) * total


def wigner_values(amps, betas):
    """Batch W(beta) for a complex amplitude vector and beta array.

    Points beyond the support radius sqrt(N)+6 of a state with cutoff N
    come back as exact 0, unevaluated.  There |W| <= (N+1) W_N, W_N the
    Wigner function of |N>, since no |<m|D(2b)|n>| with m, n <= N exceeds
    |N>'s (checked up to N = 5,000); 50-digit mpmath puts W_N at the cut
    at e^-72.5 (N = 0), e^-325 (1,000), e^-669 (20,000) and e^-1249
    (250,000, the largest cutoff), values the tests pin.
    """
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    betas = np.ascontiguousarray(betas, dtype=np.complex128)
    if betas.size == 0:
        return np.empty(0, np.float64)
    abs_b = np.abs(betas)
    support = math.sqrt(max(amps.shape[0] - 1, 0)) + 6.0
    inside = abs_b <= support
    if not inside.all():
        out = np.zeros(betas.shape[0], np.float64)
        if inside.any():
            out[inside] = wigner_values(amps, betas[inside])
        return out
    return _wigner_diagonals(amps, betas)
