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

from .sequences import (DIVERGENT, WeightedSumSpec, check_rules, positive_integer,
                        weighted_sum)

NORM_CONVENTION = "Lp integral over [0, 2pi), no 1/(2pi) normalization"

#: rule row (see sequences.broken_rules) for a difference order k
K_RULE = ("k", ("k",), positive_integer, "must be a positive integer")


@dataclass(frozen=True)
class SmoothnessParams:
    """Difference order k and integrability exponent p."""

    k: int
    p: float

    RULES = (K_RULE, ("p", ("p",), lambda p: p > 0, "must be positive"))

    def __post_init__(self):
        check_rules(self)
        object.__setattr__(self, "k", int(self.k))  # 2.0 from JSON indexes as 2


@dataclass(frozen=True)
class QuadratureSpec:
    """Uniform grids: M sample points on [0, 2pi), H shift samples on (0, t]."""

    M: int = 8192
    H: int = 64

    RULES = (
        ("M", ("M",), lambda M: positive_integer(M) and M >= 2 and not int(M) & (int(M) - 1),
         "must be a power of two"),
        ("H", ("H",), lambda H: positive_integer(H) and H >= 16, "must be an integer >= 16"),
    )

    def __post_init__(self):
        check_rules(self)
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "H", int(self.H))


#: elements per work buffer (shifts x harmonics or grid points): 2^17
#: doubles are 1 MB, so a chunk's buffers stay within a 2 MB L2 cache
CHUNK_ELEMENTS = 2 ** 17

#: harmonics per angle-addition block in _half_angles
_BLOCK = 128


def grid_size(horizon):
    """Quadrature grid for a series truncated at `horizon` when the caller
    chose none: the smallest power of two above 2 * horizon, at least 8192."""
    return max(QuadratureSpec.M, 1 << (2 * horizon).bit_length())


def _half_angles(hs, n, out, cos=True):
    """sin(nu h/2) and cos(nu h/2) for h in the array hs, nu = 1..n, each
    of shape (hs.size, n).

    With nu = B j + i (i = 1..B, B = min(_BLOCK, n)), angle addition
    combines the coarse angles B j h/2 with the fine angles i h/2, so a
    shift takes 2 (n/B + B) trig calls instead of n.  out: two float
    buffers of at least hs.size * B * ceil(n/B) elements, written over.
    Without cos the second array is left unwritten, a scratch buffer.
    """
    block = min(_BLOCK, n)
    blocks = -(-n // block)
    size = hs.size * blocks * block
    s, c = (buf[:size].reshape(hs.size, blocks, block) for buf in out)
    coarse = np.multiply.outer(hs, 0.5 * block * np.arange(blocks))
    fine = np.multiply.outer(hs, 0.5 * np.arange(1, block + 1))
    sc, cc = np.sin(coarse), np.cos(coarse)
    fine = np.stack([np.cos(fine), np.sin(fine)], axis=1)
    # sin(x + y) = sin x cos y + cos x sin y, cos(x + y) = cos x cos y - sin x sin y
    np.matmul(np.stack([sc, cc], axis=2), fine, out=s)
    if cos:
        np.matmul(np.stack([cc, -sc], axis=2), fine, out=c)
    return s.reshape(hs.size, -1)[:, :n], c.reshape(hs.size, -1)[:, :n]


def _parseval_sums(hs, a, k, sup=False):
    """Rows of sums over nu for each h in hs: sum a_nu^2 |2 sin(nu h/2)|^(2k),
    which is ||Delta_h^k f||_2^2 / pi, and with sup also
    sum |a_nu| |2 sin(nu h/2)|^k, which is at least max |Delta_h^k f|.

    Shifts go in chunks of CHUNK_ELEMENTS // horizon rows, so that a
    chunk's work fits in L2; the half-angle buffers are allocated once and
    reused by every chunk through out= arguments.
    """
    n = a.size
    rows = max(1, min(hs.size, CHUNK_ELEMENTS // n))
    # room for _half_angles, whose last block may run past the horizon
    halves = np.empty((2, rows * (n + _BLOCK)))
    a2 = 4.0 ** k * a * a
    a1 = 2.0 ** k * np.abs(a)
    out = np.empty((1 + sup, hs.size))
    for lo in range(0, hs.size, rows):
        sl = slice(lo, lo + rows)
        s, c = _half_angles(hs[sl], n, halves, cos=False)
        np.square(s, out=s)
        if k > 1:
            np.copyto(c, s)
        for _ in range(k - 1):
            s *= c
        out[0, sl] = s @ a2
        if sup:
            # |sin|^k is the root of the sin^(2k) just summed
            out[1, sl] = np.sqrt(s, out=s) @ a1
    return out


def _norm_bounds(hs, a, k, p):
    """Upper bounds on the grid norms ||g||_p, g = Delta_h^k f, for each h in
    hs, from _parseval_sums and no FFT.

    L = ||g||_2 is exact on the grid when M > 2 * horizon.  p <= 2: the
    power mean of |g|^p over the grid is at most that of g^2, so
    ||g||_p <= (2pi)^(1/p - 1/2) L.  p > 2: sum |g|^p <= max|g|^(p-2) sum g^2
    and max|g| <= S = sum |a_nu| |2 sin(nu h/2)|^k, so
    ||g||_p <= S^(1 - 2/p) L^(2/p).  The coefficients are divided by their
    largest first, so that neither sum underflows for tiny amplitudes.
    """
    top = np.abs(a).max() or 1.0
    sums = _parseval_sums(hs, a / top, k, sup=p > 2)
    l2 = np.sqrt(math.pi * sums[0])
    if p <= 2:
        # a numpy power: it overflows to inf, never pruning, for tiny p
        return top * np.float64(2.0 * math.pi) ** (1.0 / p - 0.5) * l2
    return top * sums[1] ** (1.0 - 2.0 / p) * l2 ** (2.0 / p)


def _power_sums(v, p):
    # row sums of |v|^p, written over v (p = 3 by multiplication), and a
    # scale per row: 1, or the row's max where max^p, or M times it, would
    # leave the normal float range.  Such a row is divided by its max
    # first, so a row's norm is scale (2pi/M sum)^(1/p) either way; any
    # other row is not divided, and its sum is the plain one.
    np.abs(v, out=v)
    top = v.max(axis=1)
    with np.errstate(divide="ignore"):
        e = p * np.log2(top)
    far = np.isfinite(e) & ((e < -1022) | (e >= 1024 - math.log2(v.shape[1])))
    v[far] /= top[far, None]
    scale = np.where(far, top, 1.0)
    if p == 3:
        return np.einsum("ij,ij,ij->i", v, v, v), scale
    if p != 1:
        v **= p
    return v.sum(axis=1), scale


def _grid_sums(hs, a, k, p, M, spec, work):
    # sum over the M-point grid of |Delta_h^k f|^p for each h in hs, and the
    # row scales of _power_sums
    rows, n = hs.size, a.size
    halves = work.view(float).reshape(2, -1)
    s, c = _half_angles(hs, n, halves)
    z = spec[:rows, 1:n + 1]
    # e^(i nu h) - 1 = -2 sin^2(nu h/2) + 2i sin(nu h/2) cos(nu h/2)
    np.multiply(s, s, out=z.real)
    z.real *= -2.0
    np.multiply(s, c, out=z.imag)
    z.imag *= 2.0
    if k > 1:
        # the half angles are spent: their buffers hold the base of the power
        base = work[:rows * n].reshape(rows, n)
        np.copyto(base, z)
        for _ in range(k - 1):
            z *= base
    z *= a
    return _power_sums(np.fft.irfft(spec[:rows], n=M, axis=1), p)


def _grid_kernel(a, k, p, M, shifts):
    """(rows, norms): norms(hs) gives the grid norms ||Delta_h^k f||_p of up
    to rows shifts, rows = CHUNK_ELEMENTS // M so that a chunk's work fits
    in L2 (and no more than the `shifts` the caller has).

    The half-angle and spectrum buffers are allocated once and reused by
    every call through out= arguments; only the spectrum's columns
    1..horizon are ever written, so its zero padding stays zero.  The grid
    values are the irfft's own result, taken to |v|^p in place.
    """
    if M <= 2 * a.size:
        raise ValueError("quadrature grid too coarse: need M > 2 * horizon")
    rows = max(1, min(shifts, CHUNK_ELEMENTS // M))
    # room for _half_angles, whose last block may run past the horizon
    work = np.empty(rows * (a.size + _BLOCK), dtype=complex)
    spec = np.zeros((rows, M // 2 + 1), dtype=complex)
    # irfft(spec) * M / 2 = Re sum_nu spec_nu e^(i nu x) on the grid
    a = a * (M / 2)

    def norms(hs):
        sums, scale = _grid_sums(hs, a, k, p, M, spec, work)
        return scale * (2.0 * math.pi / M * sums) ** (1.0 / p)

    return rows, norms


def difference_norms(seq, horizon, k, hs, p, quad=QuadratureSpec()):
    """||Delta_h^k f||_p for each shift in the array hs, series cut at horizon.

    p = 2: Parseval, sqrt(pi sum_nu a_nu^2 |2 sin(nu h/2)|^(2k)).  Other p:
    the sum over the uniform M-point grid (_grid_kernel), one inverse
    real FFT over the rows of the spectrum a_nu (e^(i nu h) - 1)^k, exact
    when M > 2 * horizon.  sin(nu h/2) and cos(nu h/2) come from angle
    addition (_half_angles), and |v|^3 from multiplication.  A row whose
    |v|^p would overflow or underflow is divided by its max first.

    Shifts go in chunks of CHUNK_ELEMENTS // width rows, width being the
    horizon (Parseval) or M (grid), so that a chunk's work fits in L2.
    """
    SmoothnessParams(k=k, p=p)  # raises if k or p breaks a rule
    hs = np.asarray(hs, dtype=float)
    a = seq.values(1, horizon)
    if p == 2:
        return np.sqrt(math.pi * _parseval_sums(hs, a, k)[0])
    rows, grid_norms = _grid_kernel(a, k, p, quad.M, hs.size)
    out = np.empty(hs.size)
    for lo in range(0, hs.size, rows):
        out[lo:lo + rows] = grid_norms(hs[lo:lo + rows])
    return out


def lp_norm(seq, horizon, k, h, p, quad=QuadratureSpec()):
    """L^p norm of the k-th difference at one shift h (see difference_norms)."""
    return float(difference_norms(seq, horizon, k, [h], p, quad)[0])


def modulus_direct(seq, horizon, params, t, quad=QuadratureSpec()):
    """omega(f; t)_p: max of ||Delta_h^k f||_p over h in {t i/H, i=1..H}.

    Only positive shifts are sampled: the series is even, so the norm is
    invariant under h -> -h (checked numerically in the test suite).

    p = 2: the max of the Parseval norms.  Otherwise a
    branch-and-bound max: _norm_bounds bounds every shift's grid norm
    without an FFT, and shifts are visited in descending bound, the top
    one alone and then CHUNK_ELEMENTS // M at a time, skipping those whose
    bound times 1 + 1e-9 (a margin for rounding in the bound and the norm)
    cannot beat the largest norm found.  Each visited norm is the float
    difference_norms gives, and every skipped one is below the max, so the
    result is the max of difference_norms, bit for bit.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    hs = t * np.arange(1, quad.H + 1, dtype=float) / quad.H
    k, p = params.k, params.p
    if p == 2:
        return float(np.max(difference_norms(seq, horizon, k, hs, p, quad)))
    a = seq.values(1, horizon)
    bound = _norm_bounds(hs, a, k, p) * (1.0 + 1e-9)
    rows, grid_norms = _grid_kernel(a, k, p, quad.M, hs.size)
    order = np.argsort(-bound, kind="stable")
    norms = np.full(hs.size, -np.inf)
    lo, size = 0, 1
    while lo < hs.size:
        chunk = order[lo:lo + size]
        # "not <=" keeps a NaN bound, which can then never be skipped
        chunk = chunk[~(bound[chunk] <= norms.max())]
        if not chunk.size:
            break
        norms[chunk] = grid_norms(hs[chunk])
        lo, size = lo + size, rows
    return float(norms.max())


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
