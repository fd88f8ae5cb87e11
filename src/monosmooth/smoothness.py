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

from .sequences import (DIVERGENT, _at, _running_sums, _tail_rest, _weighted_sums, check_rules,
                        positive_integer)

#: rule row (see sequences.broken_rules) for a difference order k
K_RULE = ("k", ("k",), positive_integer, "must be a positive integer")


@dataclass(frozen=True)
class SmoothnessParams:
    """Difference order k and integrability exponent p."""

    k: int
    p: float

    RULES = (K_RULE, ("p", ("p",), lambda p: 0 < p < math.inf, "must lie in (0, inf)"))

    def __post_init__(self):
        check_rules(self, floats=("p",))
        object.__setattr__(self, "k", int(self.k))  # 2.0 from JSON indexes as 2


@dataclass(frozen=True)
class QuadratureSpec:
    """Uniform quadrature grid: M sample points on [0, 2pi)."""

    M: int = 8192

    RULES = (
        ("M", ("M",), lambda M: positive_integer(M) and M >= 2 and not int(M) & (int(M) - 1),
         "must be a power of two"),
    )

    def __post_init__(self):
        check_rules(self)
        object.__setattr__(self, "M", int(self.M))


#: geometric shift samples per octave of the omega sup
SHIFTS_PER_OCTAVE = 16


#: elements per work buffer (shifts x harmonics or grid points): 2^17
#: doubles are 1 MB, so a chunk's buffers stay within a 2 MB L2 cache
CHUNK_ELEMENTS = 2 ** 17

#: harmonics per angle-addition block in _half_angles
_BLOCK = 128

def grid_size(horizon):
    """Quadrature grid for a series truncated at `horizon` when the caller
    chose none (quad=None): the smallest power of two above 2 * horizon, at
    least 8192."""
    return max(QuadratureSpec.M, 1 << (2 * horizon).bit_length())


def shift_grid(hi, lo, per_octave=SHIFTS_PER_OCTAVE):
    """Ascending shifts hi 2^(-j/per_octave), j = 0, 1, ..., down to lo or
    the first point below it: the samples of an omega sup."""
    steps = np.arange(math.ceil(per_octave * math.log2(hi / lo)) + 1)
    return hi * 2.0 ** (-steps[::-1] / per_octave)


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
    sin, cosine = np.sin(coarse), np.cos(coarse)
    # sin(x + y) = sin x cos y + cos x sin y, cos(x + y) = cos x cos y - sin x sin y:
    # each shift's coarse rows (sin x, cos x), then (cos x, -sin x), times
    # its fine columns (cos y, sin y), the factors filled in place.  (One
    # product over both, with s and c as planes of one output, made page
    # faults on every call.)
    left = np.empty((hs.size, blocks, 2))
    left[..., 0], left[..., 1] = sin, cosine
    right = np.empty((hs.size, 2, block))
    right[:, 0], right[:, 1] = np.cos(fine), np.sin(fine)
    np.matmul(left, right, out=s)
    if cos:
        left[..., 0], left[..., 1] = cosine, -sin
        np.matmul(left, right, out=c)
    return s.reshape(hs.size, -1)[:, :n], c.reshape(hs.size, -1)[:, :n]


def _power(x, k, base):
    """x^k in place, x multiplied by a copy of itself k - 1 times from the
    left; the copy goes in base (x's shape), except at k = 2, where x is
    its own base."""
    if k > 2:
        np.copyto(base, x)
    for _ in range(k - 1):
        x *= x if k == 2 else base


def _parseval_sums(hs, a, k, p=2):
    """Rows of sums over nu for each h in hs, with A_nu = a_nu (2 sin(nu h/2))^k,
    in units of 4^k (2^k for sum |A_nu|), so that no power of 2 leaves the
    float range at large k: sum A_nu^2, which is ||Delta_h^k f||_2^2 / pi;
    for p > 2 also sum |A_nu|, which is at least max |Delta_h^k f|; for
    p < 2 also sum A_nu A_(nu+1), the adjacent products of the weighted L1
    bound.  A unit is a power of two, so it scales every sum exactly.

    Shifts go in chunks of CHUNK_ELEMENTS // horizon rows (two thirds of
    that at p < 2, which needs a third buffer), so that a chunk's work fits
    in L2; the buffers are allocated once and reused by every chunk
    through out= arguments.
    """
    n = a.size
    bufs = 2 + (p < 2)
    rows = max(1, min(hs.size, 2 * CHUNK_ELEMENTS // (bufs * n)))
    # room for _half_angles, whose last block may run past the horizon, and
    # at p < 2 for the adjacent products
    halves = np.empty((bufs, rows * (n + _BLOCK)))
    a2 = a * a
    aa = a[:-1] * a[1:] if p < 2 else None
    out = np.empty((1 + (p != 2), hs.size))
    for lo in range(0, hs.size, rows):
        sl = slice(lo, lo + rows)
        s, c = _half_angles(hs[sl], n, halves[:2], cos=False)
        if p < 2:
            # (sin(nu h/2) sin((nu+1) h/2))^k, signed, with c as the base
            adj = halves[2, :s.shape[0] * (n - 1)].reshape(s.shape[0], n - 1)
            np.multiply(s[:, :-1], s[:, 1:], out=adj)
            _power(adj, k, c[:, :-1])
            out[1, sl] = adj @ aa
        np.square(s, out=s)
        _power(s, k, c)
        # row by row: a matrix-vector product (BLAS gemv) rounds a row
        # differently with the rows beside it, and at p = 2 this sum is the
        # norm itself
        out[0, sl] = np.einsum("ij,j->i", s, a2)
        if p > 2:
            # |sin|^k is the root of the sin^(2k) just summed
            out[1, sl] = np.sqrt(s, out=s) @ a
    return out


def _lp_bound(l2, s, p):
    # ||g||_p <= (2pi)^(1/p - 1/2) L for p <= 2, and S^(1 - 2/p) L^(2/p) for
    # p > 2, from L = ||g||_2 and S >= max |g| (see _norm_bounds)
    if p <= 2:
        # past 2^1000 the factor prunes nothing, and so is inf
        if (1.0 / p - 0.5) * math.log2(2.0 * math.pi) >= 1000:
            return np.full(np.shape(l2), np.inf)
        return np.float64(2.0 * math.pi) ** (1.0 / p - 0.5) * l2
    return s ** (1.0 - 2.0 / p) * l2 ** (2.0 / p)


def _check_root(x, p, scale, what):
    """Refuse scale * x^(1/p), x >= 0, where it would reach 2^1023 or is NaN
    (a sum whose terms left the float range)."""
    with np.errstate(divide="ignore", over="ignore"):  # x = 0; a bound past 2^1024 at large p
        if not np.all(np.log2(x) < p * (1023.0 - np.log2(scale))):
            raise ValueError(f"p: {what} (a sum to the power 1/p = {1 / p:g}) "
                             "leaves the float range")


def _prefix_bounds(hs, a, k, p):
    """Upper bounds on the grid norms ||Delta_h^k f||_p for each h in hs,
    O(1) a shift: as _norm_bounds, from L and S bounded with
    |2 sin(nu h/2)| <= min(nu h, 2).  With m the count of nu h < 2,

        L^2 <= pi (h^2k sum_{nu<=m} a_nu^2 nu^2k + 4^k sum_{nu>m} a_nu^2),
        S <= h^k sum_{nu<=m} a_nu nu^k + 2^k sum_{nu>m} a_nu,

    from sums over the pieces between the distinct m, each summed once.
    Where nu^2k or h^2k could leave the float range, every bound is inf and
    prunes nothing; so is a bound past the float range.
    """
    n = a.size
    if 2 * k * max(1.0, math.log2(n), math.log2(2.0 / hs[0])) >= 1000:
        return np.full(hs.size, np.inf)
    top = a.max() or 1.0
    a = a / top
    m = np.clip(np.ceil(2.0 / hs) - 1, 0, n).astype(int)
    # the pieces of 1..n between consecutive cuts, and each m's cut (sorted
    # by hand: np.unique's first call imports numpy.ma, 14 ms)
    cuts = np.sort(np.concatenate(([0, n], m)))
    cuts = cuts[np.diff(cuts, prepend=-1) > 0]
    at = np.searchsorted(cuts, m)
    hk = np.minimum(hs, 2.0) ** k
    ank = a * np.arange(1.0, n + 1) ** k

    def split(q):
        # h^qk sum_{nu<=m} (a_nu nu^k)^q + 2^qk sum_{nu>m} a_nu^q
        head = np.add.reduceat(ank ** q, cuts[:-1]).cumsum()
        tail = np.add.reduceat(a ** q, cuts[:-1])[::-1].cumsum()[::-1]
        return hk ** q * np.append(0.0, head)[at] + 2.0 ** (q * k) * np.append(tail, 0.0)[at]

    with np.errstate(over="ignore"):  # an inf bound prunes nothing
        return top * _lp_bound(np.sqrt(math.pi * split(2)), split(1) if p > 2 else None, p)


def _weight_sum(eps, M):
    """(2pi/M) sum_j 1/w(x_j) over the M-point grid, w = eps + 1 - cos x:
    (2pi/r) (1 + rho^M)/(1 - rho^M), r = sqrt(eps (2 + eps)), rho = 1 + eps - r,
    from the Poisson kernel series of 1/w."""
    r = np.sqrt(eps * (2.0 + eps))
    gap = -np.expm1(M * np.log1p(eps - r))  # 1 - rho^M
    return 2.0 * math.pi / r * (2.0 - gap) / gap


def _norm_bounds(hs, a, k, p, M):
    """Upper bounds on the M-point grid norms ||g||_p, g = Delta_h^k f, for
    each h in hs, from _parseval_sums and no FFT.

    L = ||g||_2 is exact on the grid when M > 2 * horizon.  p <= 2: the
    power mean of |g|^p over the grid is at most that of g^2, so
    ||g||_p <= (2pi)^(1/p - 1/2) L.  p > 2: sum |g|^p <= max|g|^(p-2) sum g^2
    and max|g| <= S = sum a_nu |2 sin(nu h/2)|^k, so
    ||g||_p <= S^(1 - 2/p) L^(2/p).

    p < 2 also takes the smaller of that and a weighted Cauchy-Schwarz
    bound, tight where g is concentrated: with w = eps + 1 - cos x,
    ||g||_1 <= B1 = (W(eps) (eps L^2 + Q))^(1/2), W = _weight_sum, and
    Q = int (1 - cos x) g^2 = pi (sum A_nu^2 - cos(kh/2) sum A_nu A_(nu+1)),
    exact on the grid since w g^2 has degree below M; eps = Q/L^2.  Q is
    raised by a rounding allowance, since its two sums nearly cancel at
    small h.  Then ||g||_p <= B1^(2/p - 1) L^(2 - 2/p) for 1 <= p < 2 (log-
    convexity) and (2pi)^(1/p - 1) B1 for p < 1 (power mean).

    The coefficients are divided by their largest first, so that no sum
    underflows for tiny amplitudes, and the bound is taken in units of 2^k
    (see _parseval_sums).
    """
    top = a.max() or 1.0
    sums = _parseval_sums(hs, a / top, k, p)
    l2 = np.sqrt(math.pi * sums[0])
    bound = _lp_bound(l2, sums[1], p)
    if p < 2:
        # Q/pi and its rounding allowance: each of the two sums errs by up to
        # about n eps sum A^2 (which bounds sum |A A'| by Cauchy-Schwarz),
        # and each term by about k eps of itself
        slack = 4 * (a.size + k) * np.finfo(float).eps
        q = sums[0] - np.cos(0.5 * k * hs) * sums[1] + slack * sums[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            b1 = np.sqrt(_weight_sum(q / sums[0], M) * 2.0 * math.pi * q)
            b1 = (b1 ** (2.0 / p - 1.0) * l2 ** (2.0 - 2.0 / p) if p >= 1
                  else np.float64(2.0 * math.pi) ** (1.0 / p - 1.0) * b1)
        # fmin: a NaN weighted bound (a zero row) keeps the other
        bound = np.fmin(bound, b1)
    with np.errstate(over="ignore"):  # an inf bound prunes nothing
        return np.ldexp(top * bound, k)


def _power_sums(v, p):
    # row sums of |v|^p, written over v (p = 3 by multiplication), and a
    # scale per row: 1, or the row's max where max^p, or M times it, would
    # leave the normal float range (the scalar 1 when no row needs one).
    # Such a row is divided by its max first, so a row's norm is
    # scale (2pi/M sum)^(1/p) either way; any other row is not divided, and
    # its sum is the plain one.
    np.abs(v, out=v)
    top = v.max(axis=1)
    with np.errstate(divide="ignore"):
        e = p * np.log2(top)
    far = np.isfinite(e) & ((e < -1022) | (e >= 1024 - math.log2(v.shape[1])))
    scale = 1.0
    if far.any():
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
    # row by row: a multiply over all rows at once can round a row
    # differently with the number of rows in the call.  The half angles
    # are spent: their buffers hold the base of the power.  A term past the
    # float range makes an inf or NaN sum, which the caller's _check_root
    # refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for zr, base in zip(z, work[:rows * n].reshape(rows, n)):
            _power(zr, k, base)
            zr *= a
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
        sums = 2.0 * math.pi / M * sums
        _check_root(sums, p, scale, "an L^p norm")
        return scale * sums ** (1.0 / p)

    return rows, norms


def parseval_scale(a, k):
    """1, or the largest a_nu when its square, or 4^k len(a) times it,
    would leave the normal float range: the divisor that keeps the
    Parseval sum of a_nu^2 |2 sin(nu h/2)|^(2k) finite and normal.  All
    coefficients 0 take 1, since every sum is then 0."""
    top = float(a.max(initial=0.0))
    if not top:
        return 1.0
    e = 2.0 * math.log2(top)
    return top if e < -1022 or e + 2 * k + math.log2(a.size) >= 1024 else 1.0


def _parseval_kernel(a, k, shifts):
    """(rows, norms) as _grid_kernel, for p = 2: the Parseval norms
    sqrt(pi sum_nu a_nu^2 |2 sin(nu h/2)|^(2k)), with the coefficients
    divided by their largest first only when its square, or 4^k horizon
    times it, would leave the normal float range (parseval_scale).  rows is
    the chunk of _parseval_sums, and each row's sum is its own, so that a
    norm does not depend on the rows in its call."""
    rows = max(1, min(shifts, CHUNK_ELEMENTS // a.size))
    scale = parseval_scale(a, k)
    a = a / scale

    def norms(hs):
        with np.errstate(over="ignore"):
            out = scale * np.ldexp(np.sqrt(math.pi * _parseval_sums(hs, a, k)[0]), k)
        if not np.all(np.isfinite(out)):
            raise ValueError("an L^2 norm of Delta_h^k f leaves the float range")
        return out

    return rows, norms


def _norm_kernel(a, k, p, M, shifts):
    # the norms of difference_norms: Parseval at p = 2, the M-point grid else
    return _parseval_kernel(a, k, shifts) if p == 2 else _grid_kernel(a, k, p, M, shifts)


def difference_norms(seq, horizon, k, hs, p, quad=None):
    """||Delta_h^k f||_p for each shift in the array hs, series cut at horizon.

    p = 2: Parseval (_parseval_kernel), exact for the series.  Other p:
    the sum over the uniform M-point grid (_grid_kernel), one inverse
    real FFT over the rows of the spectrum a_nu (e^(i nu h) - 1)^k, exact
    when M > 2 * horizon (M = quad.M, or grid_size(horizon) without quad).
    sin(nu h/2) and cos(nu h/2) come from angle addition (_half_angles),
    and |v|^3 from multiplication.  A row whose |v|^p would overflow or
    underflow is divided by its max first.

    Shifts go in chunks of CHUNK_ELEMENTS // width rows, width being the
    horizon (Parseval) or M (grid), so that a chunk's work fits in L2.  A
    shift's norm does not depend on the other shifts of the call.
    """
    SmoothnessParams(k=k, p=p)  # raises if k or p breaks a rule
    hs = np.asarray(hs, dtype=float)
    a = seq.values(1, horizon)
    rows, norms = _norm_kernel(a, k, p, quad.M if quad else grid_size(horizon), hs.size)
    out = np.empty(hs.size)
    for lo in range(0, hs.size, rows):
        out[lo:lo + rows] = norms(hs[lo:lo + rows])
    return out


def lp_norm(seq, horizon, k, h, p, quad=None):
    """L^p norm of the k-th difference at one shift h (see difference_norms)."""
    return float(difference_norms(seq, horizon, k, [h], p, quad)[0])


#: shifts in the first call of modulus_direct's search, by pre-bound (at
#: most a kernel's rows).  A measured constant: on power laws at horizon
#: 4096, M = 16384, k = 2 the search visits 2-5 shifts at p = 3 and 3-21 at
#: p = 1, an extra row costs about what a second irfft call saves, and 4
#: was the fastest of 1-8 (a 2-core Xeon)
FIRST_ROWS = 4


def modulus_direct(seq, horizon, params, t, quad=None):
    """omega(f; t)_p: max of ||Delta_h^k f||_p over h in shift_grid(t, t/64),
    SHIFTS_PER_OCTAVE geometric points per octave of [t/64, t].

    Only positive shifts are sampled: the series is even, so the norm is
    invariant under h -> -h (checked numerically in the test suite).

    A branch-and-bound max at every p, no shift skipped unless its bound
    times 1 + 1e-9 (a margin for rounding in the bound and the norm) cannot
    beat the largest norm found:
    1. _prefix_bounds bounds every shift in O(1), and the norms of the
       FIRST_ROWS shifts with the top pre-bounds, in one call, are the
       first incumbents.
    2. The other shifts whose pre-bound beats them are visited in
       descending bound, a kernel's rows at a time, until a chunk has none
       left to visit.  At p = 2 the bound is the pre-bound, since an exact
       bound would cost as much as the Parseval norm; at other p it is
       _norm_bounds's, from Parseval sums and no FFT.
    Each visited norm is the float difference_norms gives (a norm does not
    depend on the rows in its call), and every skipped one is below the
    max, so the result is the max of difference_norms, bit for bit.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    hs = shift_grid(t, t / 64)
    k, p = params.k, params.p
    a = seq.values(1, horizon)
    M = quad.M if quad else grid_size(horizon)
    margin = 1.0 + 1e-9
    pre = _prefix_bounds(hs, a, k, p) * margin
    order = np.argsort(-pre, kind="stable")
    # a kernel of the first rows, freed before the bound pass allocates its buffers
    rows, first_norms = _norm_kernel(a, k, p, M, FIRST_ROWS)
    first, rest = order[:rows], order[rows:]
    norms = np.full(hs.size, -np.inf)
    norms[first] = first_norms(hs[first])
    del first_norms
    # "not <=" keeps a NaN bound, which can then never be skipped
    live = rest[~(pre[rest] <= norms.max())]
    bound = pre[live]  # at p = 2, already descending
    if p != 2 and live.size:
        bound = _norm_bounds(hs[live], a, k, p, M) * margin
        rank = np.argsort(-bound, kind="stable")
        live, bound = live[rank], bound[rank]
    visit = ~(bound <= norms.max())
    live, bound = live[visit], bound[visit]
    if live.size:
        rows, kernel_norms = _norm_kernel(a, k, p, M, live.size)
        for lo in range(0, live.size, rows):
            chunk = live[lo:lo + rows][~(bound[lo:lo + rows] <= norms.max())]
            if not chunk.size:
                break
            norms[chunk] = kernel_norms(hs[chunk])
    return float(norms.max())


def _core_values(near, far, n, k, p):
    """E = n^-k (N e^h)^(1/p) + (F e^g)^(1/p) at the float array n, a sum of
    shift 0 by its plain power and any other in log space; refused
    (ValueError) where NaN or >= 2^1023."""
    (s, h), (f, g) = near, far  # a shift is the float 0 where no sum was shifted
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        e = s ** (1.0 / p) * n ** -float(k)
        if isinstance(h, np.ndarray) and h.any():
            e[h != 0] = np.exp((np.log(s[h != 0]) + h[h != 0]) / p - k * np.log(n[h != 0]))
        root = f ** (1.0 / p)
        if isinstance(g, np.ndarray) and g.any():
            root[g != 0] = np.exp((np.log(f[g != 0]) + g[g != 0]) / p)
        e += root
    if not e.max() < 2.0 ** 1023:
        raise ValueError(f"p: E(n) (a sum to the power 1/p = {1 / p:g}) leaves the float range")
    return e


def core_table(seq, params, top):
    """(E(n) for n = 1..top, ln N_top), top >= the stored head: as bound_core,
    the far sums over the table on the tail's sum past it, ln a_nu and ln nu
    taken once for both; besov's _closure continues N_top."""
    k, p = params.k, params.p
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # as _weighted_sums
        ln_a, ln_nu = np.log(seq.values(1, top)), np.log(np.arange(1.0, top + 1))
        near = _running_sums(ln_a, ln_nu, p, k + 1 - 2 / p)
        far = _running_sums(ln_a[1:], ln_nu[1:], p, 1 - 2 / p,
                            *_tail_rest(seq.tail, p, p - 2, 1 - 2 / p, top + 1), backward=True)
    n, (s, h) = np.arange(1.0, top + 1), _at(near, -1)
    log_near_top = np.log(s) + h if s else -math.inf  # N_top = 0: an all-zero head
    return _core_values(_at(near, slice(1, None)), far, n, k, p), log_near_top


def bound_core(seq, params, n):
    """Coefficient core E(n) of the two-sided modulus estimate, for an int n
    or a 1-d array of them (then an array).

    E(n) = n^{-k} (sum_{nu<=n} a_nu^p nu^{(k+1)p-2})^{1/p}
         + (sum_{nu>n} a_nu^p nu^{p-2})^{1/p},

    each sum over the grid one call of weighted_sum's kernel _weighted_sums,
    so that no term or sum leaves the float range at any k or p, and a grid
    value is its one-point call.  DIVERGENT when the tail's far sum diverges.
    """
    k, p = params.k, params.p
    single = np.ndim(n) == 0
    ns = np.array(n, ndmin=1)  # a single n: the one-point grid
    if (ns < 1).any():
        raise ValueError("n must be >= 1")
    if not seq.tail.converges(p, p - 2):
        return DIVERGENT if single else np.full(ns.shape, DIVERGENT)
    near = _weighted_sums(seq, p, k + 1 - 2 / p, 1, ns)
    far = _weighted_sums(seq, p, 1 - 2 / p, ns + 1, s=p - 2)
    e = _core_values(near, far, ns.astype(float), k, p)
    return float(e[0]) if single else e
