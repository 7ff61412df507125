"""Hot numeric kernels: coherent overlaps, Bargmann weights, displaced-parity Wigner.

Each kernel has one vectorized numpy implementation.  All are
deterministic: the same inputs give bit-identical outputs.
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# coherent overlaps  <beta|psi> = e^{-|b|^2/2} sum_n c_n conj(b)^n / sqrt(n!)
# ---------------------------------------------------------------------------

def coherent_overlaps(amps, betas):
    """Batch <beta|psi> for a complex amplitude vector and beta array.

    Serves quasiprob.q_grid (and q_value, wigner_min_scan),
    states.coherent_overlap and verify; the optimizer uses
    bargmann_weights instead.  The seed e^{-|b|^2/2} underflows past
    |b| ~ 38.6, where every overlap comes back as 0.
    """
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    betas = np.ascontiguousarray(betas, dtype=np.complex128)
    if betas.size == 0:
        return np.empty(0, np.complex128)
    n_amp = amps.shape[0]
    bc = np.conj(betas)
    term = np.exp(-0.5 * (betas.real**2 + betas.imag**2)).astype(np.complex128)
    acc = amps[0] * term
    for n in range(1, n_amp):
        term = term * bc / math.sqrt(n)
        acc = acc + amps[n] * term
    return acc


# ---------------------------------------------------------------------------
# Bargmann weights: with beta = rho e^{i theta},
#   <beta|psi> = sum_n c_n w_n(rho) e^{-i n theta},
#   w_n(rho) = rho^n e^{-rho^2/2} / sqrt(n!) = sqrt(Poisson(n; rho^2)) <= 1,
# built in the log domain, so no weight underflows before its term is
# negligible, at any radius.
# ---------------------------------------------------------------------------

def bargmann_weights(n_amp, rho):
    """w_n(rho) for n < n_amp at one radius rho >= 0 (ValueError below 0).

    At rho = 0 the log of rho^n is 0 for n = 0 and -inf above, so the
    origin gives w = (1, 0, 0, ...) like any other point.
    """
    log_rho = math.log(rho) if rho != 0.0 else -math.inf
    log_w = np.zeros(n_amp)
    k = np.arange(1.0, n_amp)
    log_w[1:] = k * log_rho - np.cumsum(0.5 * np.log(k))
    return np.exp(log_w - 0.5 * rho * rho)


# ---------------------------------------------------------------------------
# Wigner by displaced parity, expanded over Fock diagonals:
#   W(beta) = (2/pi) <psi|D(2 beta) P|psi>        (P = photon-number parity)
#           = (2/pi) [ sum_n (-1)^n |c_n|^2 B(n,0,x)
#             + 2 sum_{k>=1} Re( e^{ikt} sum_n (-1)^n conj(c_{n+k}) c_n B(n,k,x) ) ]
# with x = 4|beta|^2, t = arg(2 beta), and the normalized matrix elements
#   B(n,k,x) = sqrt(n!/(n+k)!) x^{k/2} e^{-x/2} L_n^(k)(x),
# all bounded by 1 in magnitude.  Each fixed-k chain obeys
#   B(n+1) = (2n+k+1-x)/sqrt((n+1)(n+k+1)) B(n)
#            - sqrt(n(n+k)/((n+1)(n+k+1))) B(n-1)
# seeded by B(0) = exp((k ln x - ln k!)/2 - x/2), B(-1) = 0.  Run upward in
# n the chain tracks the dominant solution where the values grow and is
# neutrally stable where they oscillate, so it stays accurate at any
# window radius.  (A row recurrence on <m|D|psi> instead is violently
# unstable past the classical turning point: there the true rows decay
# superexponentially while roundoff rides the growing second solution.)
# A chain whose seed underflows is carried scaled up by e^{644 j} and
# unwound as it grows back; while j > 0 the true values are below ~e^-620
# and are correctly dropped from the sum.
# The chains depend on a point only through x; the angle enters only
# through the phase e^{ikt}.  Each chain therefore runs once per distinct
# x (exact values, no rounding) and its sums go back to the points by the
# inverse index, so a point's value is bit-identical to a call on that
# point alone.  A diagonal whose pair products conj(c_{n+k}) c_n are all
# exactly zero (odd k of a squeezed vacuum, photons added or not; k > 0
# of a Fock state) would add exact zeros, and is skipped.
# ---------------------------------------------------------------------------

_SCALE_LOG = 644.0
_SCALE_DOWN = math.exp(-_SCALE_LOG)  # ~1.4e-280, still a normal double
_SEED_FLOOR = -640.0
_UNWIND_AT = 1e20


def _wigner_diagonals(amps, betas):
    n_amp = amps.shape[0]
    g = 2.0 * betas
    x_pt = g.real**2 + g.imag**2
    pos_pt = x_pt > 0.0
    u = np.where(pos_pt, g / np.sqrt(np.where(pos_pt, x_pt, 1.0)), 1.0 + 0.0j)
    x, inv = np.unique(x_pt, return_inverse=True)
    n_x = x.shape[0]
    pos = x > 0.0
    lx = np.log(np.where(pos, x, 1.0))
    total = np.zeros(betas.shape[0], np.float64)
    ph = np.ones(betas.shape[0], np.complex128)
    for k in range(n_amp):
        if k > 0:
            ph = ph * u
        pairs = [(-1.0 if n % 2 else 1.0) * (np.conj(amps[n + k]) * amps[n])
                 for n in range(n_amp - k)]
        if not any(pairs):
            continue  # the diagonal adds exact zeros
        if k == 0:
            seed = -0.5 * x
        else:
            seed = 0.5 * (k * lx - math.lgamma(k + 1.0)) - 0.5 * x
        j = np.zeros(n_x, np.int64)
        low = seed < _SEED_FLOOR
        if low.any():
            j = np.where(low, ((_SEED_FLOOR - seed) // _SCALE_LOG).astype(np.int64) + 1, 0)
            seed = seed + _SCALE_LOG * j
        b_cur = np.exp(seed)
        if k > 0:
            b_cur = np.where(pos, b_cur, 0.0)
        b_prev = np.zeros(n_x, np.float64)
        acc = np.zeros(n_x, np.complex128)
        any_scaled = bool((j > 0).any())
        for n, pair in enumerate(pairs):
            if any_scaled:
                acc = acc + pair * np.where(j == 0, b_cur, 0.0)
            else:
                acc = acc + pair * b_cur
            ca = (2.0 * n + k + 1.0 - x) / math.sqrt((n + 1.0) * (n + k + 1.0))
            cb = math.sqrt(n * (n + k) / ((n + 1.0) * (n + k + 1.0)))
            b_prev, b_cur = b_cur, ca * b_cur - cb * b_prev
            if any_scaled:
                grown = (j > 0) & (np.maximum(np.abs(b_cur), np.abs(b_prev)) > _UNWIND_AT)
                if grown.any():
                    shrink = np.where(grown, _SCALE_DOWN, 1.0)
                    b_cur = b_cur * shrink
                    b_prev = b_prev * shrink
                    j = j - grown
                    any_scaled = bool((j > 0).any())
        acc = acc[inv]
        if k == 0:
            total += acc.real
        else:
            total += 2.0 * (ph * acc).real
    return (2.0 / math.pi) * total


def wigner_values(amps, betas):
    """Batch W(beta) for a complex amplitude vector and beta array.

    Points beyond the state's support radius sqrt(N)+6 come back as
    exact 0: the envelope bound (2/pi)e^{-2|b|^2}(sum |c_n|(2|b|)^n/sqrt(n!))^2
    puts the true value below e^{-40} there, so evaluation is skipped.
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
