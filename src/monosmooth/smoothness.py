"""Finite differences and moduli of smoothness for truncated cosine series.

Norm convention: ||g||_p = (int_0^{2pi} |g|^p dx)^{1/p}, with no 1/(2pi)
factor.  All two-sided comparisons in this package carry unspecified
constants, so the convention only rescales the reported bands; it is
recorded in every report header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequences import DIVERGENT, WeightedSumSpec, weighted_sum

NORM_CONVENTION = "Lp integral over [0, 2pi), no 1/(2pi) normalization"


@dataclass(frozen=True)
class SmoothnessParams:
    """Difference order k and integrability exponent p."""

    k: int
    p: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("difference order k must be >= 1")
        if self.p <= 0:
            raise ValueError("p must be positive")


@dataclass(frozen=True)
class QuadratureSpec:
    """Uniform grids: M sample points on [0, 2pi), H shift samples on (0, t]."""

    M: int = 8192
    H: int = 64

    def __post_init__(self):
        if self.M < 2 or self.M & (self.M - 1):
            raise ValueError("M must be a power of two")
        if self.H < 16:
            raise ValueError("H must be >= 16")


def synthesize(seq, horizon, x):
    """Partial cosine series sum_{nu=1}^{horizon} a_nu cos(nu x)."""
    a = seq.values(1, horizon)
    nu = np.arange(1, horizon + 1, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.cos(np.multiply.outer(x, nu)) @ a


def k_difference(seq, horizon, k, h, x):
    """k-th difference: sum_{j=0}^{k} (-1)^(k-j) C(k,j) f(x + j h)."""
    if k < 1:
        raise ValueError("difference order k must be >= 1")
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=float)
    for j in range(k + 1):
        out += (-1) ** (k - j) * math.comb(k, j) * synthesize(seq, horizon, x + j * h)
    return out if out.shape else float(out)


#: elements per temporary array (shifts x harmonics or grid points)
CHUNK_ELEMENTS = 2 ** 22


def grid_size(horizon):
    """Quadrature grid for a series truncated at `horizon` when the caller
    chose none: the smallest power of two above 2 * horizon, at least 8192."""
    return max(QuadratureSpec.M, 1 << (2 * horizon).bit_length())


def _chunks(n, width):
    step = max(1, CHUNK_ELEMENTS // width)
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _parseval_sums(hs, nu, a2, k):
    # sum_nu a_nu^2 |2 sin(nu h/2)|^(2k) for each h in hs
    amp = np.multiply.outer(hs, 0.5 * nu)
    np.sin(amp, out=amp)
    np.square(amp, out=amp)
    amp *= 4.0
    base = amp.copy() if k > 1 else None
    for _ in range(k - 1):
        amp *= base
    return amp @ a2


def _grid_sums(hs, nu, a, k, M, p):
    # sum over the M-point grid of |Delta_h^k f|^p for each h in hs
    spec = np.zeros((hs.size, M // 2 + 1), dtype=complex)
    spec[:, 1:nu.size + 1] = a * (np.exp(1j * np.multiply.outer(hs, nu)) - 1.0) ** k
    vals = np.fft.irfft(spec, n=M, axis=1)
    del spec
    # irfft(spec) * M / 2 = Re sum_nu spec_nu e^(i nu x) on the grid
    np.abs(vals, out=vals)
    vals *= M / 2
    vals **= p
    return vals.sum(axis=1)


def difference_norms(seq, horizon, k, hs, p, quad=QuadratureSpec(), method="auto"):
    """||Delta_h^k f||_p for each shift in the array hs, series cut at horizon.

    p = 2: Parseval, sqrt(pi sum_nu a_nu^2 |2 sin(nu h/2)|^(2k)).  Other p
    (or method="grid"): the sum over the uniform M-point grid, one inverse
    real FFT over the rows of the spectrum a_nu (e^(i nu h) - 1)^k, exact
    when M > 2 * horizon.  Shifts go in chunks of CHUNK_ELEMENTS elements.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if k < 1:
        raise ValueError("difference order k must be >= 1")
    hs = np.asarray(hs, dtype=float)
    a = seq.values(1, horizon)
    nu = np.arange(1, horizon + 1, dtype=float)
    out = np.empty(hs.size)
    if p == 2 and method == "auto":
        a2 = a * a
        for rows in _chunks(hs.size, horizon):
            out[rows] = _parseval_sums(hs[rows], nu, a2, k)
        return np.sqrt(math.pi * out)
    M = quad.M
    if M <= 2 * horizon:
        raise ValueError("quadrature grid too coarse: need M > 2 * horizon")
    for rows in _chunks(hs.size, M):
        out[rows] = _grid_sums(hs[rows], nu, a, k, M, p)
    return (2.0 * math.pi / M * out) ** (1.0 / p)


def lp_norm(seq, horizon, k, h, p, quad=QuadratureSpec(), method="auto"):
    """L^p norm of the k-th difference at one shift h (see difference_norms)."""
    return float(difference_norms(seq, horizon, k, [h], p, quad, method)[0])


def modulus_direct(seq, horizon, params, t, quad=QuadratureSpec(), method="auto"):
    """omega(f; t)_p: max of ||Delta_h^k f||_p over h in {t i/H, i=1..H}.

    Only positive shifts are sampled: the series is even, so the norm is
    invariant under h -> -h (checked numerically in the test suite).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    hs = t * np.arange(1, quad.H + 1, dtype=float) / quad.H
    return float(np.max(difference_norms(seq, horizon, params.k, hs, params.p,
                                         quad, method)))


def bound_core(seq, params, n):
    """Coefficient core E(n) of the two-sided modulus estimate.

    E(n) = n^{-k} (sum_{nu<=n} a_nu^p nu^{(k+1)p-2})^{1/p}
         + (sum_{nu>n} a_nu^p nu^{p-2})^{1/p}.

    Returns DIVERGENT when the infinite tail sum diverges.
    """
    k, p = params.k, params.p
    if n < 1:
        raise ValueError("n must be >= 1")
    near = weighted_sum(seq, WeightedSumSpec(q=p, s=(k + 1) * p - 2, m=1, n=n))
    far = weighted_sum(seq, WeightedSumSpec(q=p, s=p - 2, m=n + 1))
    if far == DIVERGENT:
        return DIVERGENT
    return n ** (-float(k)) * near ** (1.0 / p) + far ** (1.0 / p)
