"""Monotone coefficient sequences with analytic tail models.

A sequence stores a finite head a_1..a_N and a tail model describing
a_nu for nu > N, so that infinite weighted sums of the form
sum a_nu^q nu^s can be evaluated (or recognised as divergent).
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import sys
import threading
from dataclasses import dataclass, field, replace

import numpy as np

#: Sentinel returned by sum evaluators when the series diverges.
DIVERGENT = math.inf

_SUM_REL_TOL = 1e-9
_SUM_NU_CAP = 2 ** 23
#: A tail exponent a = q beta - s with |a - 1| <= _CRITICAL_TOL counts as
#: critical (a = 1), so that no verdict hangs on the rounding of q beta - s.
#: Against the closed form, PowerLogTail.integral's quadrature is exact to
#: 4e-16 for a - 1 >= 1e-10 at x0 >= 4096, but 3 % off at 1e-12.
_CRITICAL_TOL = 1e-10
_SHIFT_STEP = 512.0  # e-folds per step of a running shift (_running_sums)
#: the smallest normal float, 2^-1022
_TINY = sys.float_info.min
#: floats that one sequence keeps of its derived results (8 MiB); see
#: CoefficientSequence._kept
_STORE_BUDGET = 2 ** 20


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _arrays(value):
    """The arrays of a result kept on a sequence: an array, or a tuple of
    arrays and scalars."""
    return [a for a in (value if isinstance(value, tuple) else (value,))
            if isinstance(a, np.ndarray)]


@functools.cache
def _gauss_legendre():
    """16-point Gauss-Legendre nodes and weights on [-1, 1], read-only.

    Built on first use, since numpy.polynomial costs an import of its own.
    """
    return _read_only(*np.polynomial.legendre.leggauss(16))


@functools.cache
def _exp_quadrature():
    """Nodes W and weights for int_0^inf e^-w f(w) dw ~ weights @ f(W),
    read-only and built on first use.

    16-point Gauss-Legendre on [0, 1e-9] and on 23 geometric panels of
    [1e-9, 90], e^-w folded into the weights; past 90 lies e^-90 ~ 1e-39.
    The panels resolve f varying on scales down to about 1e-7.
    """
    x, w = _gauss_legendre()
    edges = np.concatenate([[0.0], np.geomspace(1e-9, 90.0, 24)])
    lo, half = edges[:-1, None], np.diff(edges)[:, None] / 2
    nodes = (lo + half * (x + 1)).ravel()
    return _read_only(nodes, (half * w).ravel() * np.exp(-nodes))


def positive_integer(v):
    """True for an integer v >= 1; a whole float such as 2.0 counts."""
    return (isinstance(v, numbers.Integral)
            or isinstance(v, float) and v.is_integer()) and v >= 1


def finite_real(v):
    """True for a finite real number, not NaN or inf."""
    return isinstance(v, numbers.Real) and math.isfinite(v)


def broken_rules(rules, values):
    """'label: message' for each row (label, keys, test, message) of rules
    whose test(*values of keys) is false or raises TypeError or ValueError;
    message may hold {} fields for those values; rows missing a key are skipped.
    """
    bad = []
    for label, keys, test, message in rules:
        if all(key in values for key in keys):
            args = [values[key] for key in keys]
            try:
                ok = test(*args)
            except (TypeError, ValueError):
                ok = False
            if not ok:
                bad.append(f"{label}: {message.format(*args)}")
    return bad


def check_rules(obj):
    """Raise one ValueError listing every row of obj.RULES that obj breaks."""
    bad = broken_rules(obj.RULES, vars(obj))
    if bad:
        raise ValueError("; ".join(bad))


@dataclass(frozen=True)
class ZeroTail:
    """Coefficients vanish beyond the stored horizon."""

    c = 0.0  # the other tails' scale; unannotated, so not a dataclass field

    def value(self, nu):
        return np.zeros_like(np.asarray(nu, dtype=float))

    def converges(self, q, s):
        return True

    def integral(self, q, s, x0, shift=0.0):
        return 0.0

    def to_json(self):
        return {"variant": "zero"}


@dataclass(frozen=True)
class PowerLogTail:
    """a_nu = c * nu**(-beta) * (1 + ln nu)**(-gamma) for nu beyond the horizon."""

    c: float
    beta: float
    gamma: float

    RULES = (
        ("c", ("c",), lambda v: finite_real(v) and v >= 0, "must be a finite real number >= 0"),
        ("beta", ("beta",), lambda v: finite_real(v) and v > 0,
         "must be a finite real number > 0"),
        # beta + gamma < 0 makes the values eventually increase; a beta that
        # breaks its own row is not held against gamma
        ("gamma", ("gamma", "beta"),
         lambda g, b: finite_real(g) and not (finite_real(b) and b > 0 and b + g < 0),
         "must be a finite real number >= -beta"),
    )

    def __post_init__(self):
        check_rules(self)

    def value(self, nu):
        nu = np.asarray(nu, dtype=float)
        out = self.c * nu ** (-self.beta)
        return out * (1.0 + np.log(nu)) ** (-self.gamma) if self.gamma else out

    def converges(self, q, s):
        if self.c == 0:
            return True
        a = q * self.beta - s
        if a > 1 + _CRITICAL_TOL:
            return True
        return abs(a - 1) <= _CRITICAL_TOL and q * self.gamma > 1

    def integral(self, q, s, x0, shift=0.0):
        # int_x0^inf (c x^-beta (1+ln x)^-gamma)^q x^s dx times e^-shift, a shift
        # taken in log space (c^q alone may leave the float range), with u0^-g
        # drawn out.  g = q gamma = 0 gives c^q x0^(1-a) / (a-1); otherwise
        # u = 1 + ln x gives c^q int_u0^inf e^(-b(u-1)) u^-g du, b = a - 1 > 0
        # when it converges and is not critical, and w = b(u - u0) turns that
        # into c^q e^(-b(u0-1)) / b * int_0^inf e^-w (u0 + w/b)^-g dw
        a = q * self.beta - s
        g = q * self.gamma
        if not g:
            if shift:
                return math.exp(q * math.log(self.c) + (1 - a) * math.log(x0) - shift) / (a - 1)
            return self.c ** q * x0 ** (1 - a) / (a - 1)
        u0 = 1.0 + math.log(x0)
        if abs(a - 1) <= _CRITICAL_TOL:
            if shift:
                return math.exp(q * math.log(self.c) + (1 - g) * math.log(u0) - shift) / (g - 1)
            return self.c ** q * u0 ** (1 - g) / (g - 1)
        b = a - 1
        nodes, weights = _exp_quadrature()
        if shift:
            val = float(weights @ (1 + nodes / (b * u0)) ** -g)
            log_c = q * math.log(self.c) - b * (u0 - 1) - g * math.log(u0)
            return math.exp(log_c - shift) / b * val
        val = float(weights @ (u0 + nodes / b) ** -g)
        return self.c ** q * math.exp(-b * (u0 - 1)) / b * val

    def to_json(self):
        return {"variant": "power_log", "c": self.c, "beta": self.beta, "gamma": self.gamma}


@dataclass(frozen=True)
class PowerLawTail(PowerLogTail):
    """a_nu = c * nu**(-beta): the power-log tail at gamma = 0."""

    gamma: float = field(default=0.0, init=False)

    integral = PowerLogTail.integral  # in this class body, so that it can be wrapped per class

    def to_json(self):
        return {"variant": "power_law", "c": self.c, "beta": self.beta}


def tail_from_json(doc):
    variant = doc.get("variant")
    if variant == "zero":
        return ZeroTail()
    if variant == "power_law":
        return PowerLawTail(c=doc["c"], beta=doc["beta"])
    if variant == "power_log":
        return PowerLogTail(c=doc["c"], beta=doc["beta"], gamma=doc["gamma"])
    raise ValueError(f"unknown tail variant: {variant!r}")


@dataclass(frozen=True, eq=False)
class CoefficientSequence:
    """Cosine coefficients: finite head (1-based) plus a tail model.

    head is one read-only, C-contiguous float64 array, a private copy of the
    list, tuple or array given.  Equality and the hash are by value: equal
    tails and equal heads, a -0.0 in the head stored as 0.0 so that equal
    heads hash alike.  Results derived from it are kept beside it
    (_kept), as attributes and not as fields.
    """

    head: np.ndarray
    tail: ZeroTail | PowerLogTail = ZeroTail()

    RULES = (
        # np.greater_equal, unlike >=, also reads the CLI's raw JSON lists
        ("head", ("head",), lambda h: np.ndim(h) == 1 and len(h) > 0 and np.isfinite(h).all()
         and np.greater_equal(h, 0).all(), "must be a non-empty list of finite real numbers >= 0"),
    )

    def __post_init__(self):
        head = np.array(self.head, dtype=float)
        object.__setattr__(self, "head", head)
        check_rules(self)
        head += 0.0  # -0.0 + 0.0 is 0.0
        head.flags.writeable = False
        object.__setattr__(self, "_store", {})
        object.__setattr__(self, "_store_lock", threading.Lock())

    def __eq__(self, other):
        if not isinstance(other, CoefficientSequence):
            return NotImplemented
        return self.tail == other.tail and np.array_equal(self.head, other.head)

    def __hash__(self):
        return hash((self.head.tobytes(), self.tail))

    def __reduce__(self):
        # a pickled or copied sequence is built afresh, so its head is read-only too
        return type(self), (self.head, self.tail)

    @property
    def horizon(self):
        return len(self.head)

    def _kept(self, key, build):
        """build(), kept on this sequence under key, a tuple of every other
        input that fixes the result: besov's omega tables and closure nodes,
        and validate_monotone's result.  Its arrays (_arrays) are made
        read-only.  The results kept, least recently used first, hold at most
        _STORE_BUDGET floats; one larger than that is built for its call and
        not kept.  The lock makes each lookup, with its build and evictions,
        one step for threads; so build must not look up this sequence's
        results.  A copy (scaled, dataclasses.replace, pickling) is built
        afresh, and so starts with nothing kept."""
        with self._store_lock:
            value = self._store.pop(key, None)
            if value is None:
                value = build()
                size = sum(a.size for a in _read_only(*_arrays(value)))
                if size > _STORE_BUDGET:
                    return value
                while sum(a.size for v in self._store.values() for a in _arrays(v)) + size \
                        > _STORE_BUDGET:
                    del self._store[next(iter(self._store))]
            self._store[key] = value
            return value

    def values(self, m, n):
        """Array of a_m .. a_n (inclusive, 1-based)."""
        if m < 1 or n < m:
            raise ValueError(f"bad index range [{m}, {n}]")
        head = self.head[m - 1:n]
        if head.size == n - m + 1:
            return head.copy()
        return np.concatenate([head, self.tail.value(np.arange(m + head.size, n + 1))])

    def scaled(self, s):
        """Sequence with every coefficient multiplied by s >= 0."""
        if s < 0:
            raise ValueError("scale factor must be nonnegative")
        tail = replace(self.tail, c=s * self.tail.c) if self.tail.c else self.tail
        return CoefficientSequence(head=s * self.head, tail=tail)

    def to_json(self):
        return {"head": self.head.tolist(), "tail": self.tail.to_json()}

    @classmethod
    def from_json(cls, doc):
        if isinstance(doc, str):
            doc = json.loads(doc)
        return cls(head=doc["head"], tail=tail_from_json(doc["tail"]))


def _sampled(tail, horizon):
    """Sequence with the head tail.value(1..horizon) (empty, and refused, at a
    horizon below 1), continued by the tail unless it vanishes."""
    head = tail.value(np.arange(1, horizon + 1))
    return CoefficientSequence(head=head, tail=tail if tail.c else ZeroTail())


def make_power_law(c, beta, horizon):
    """Sequence a_nu = c * nu**(-beta) with an analytic power-law tail."""
    return _sampled(PowerLawTail(c=c, beta=beta), horizon)


def make_power_log(c, beta, gamma, horizon):
    """Sequence a_nu = c * nu**(-beta) * (1 + ln nu)**(-gamma)."""
    return _sampled(PowerLogTail(c=c, beta=beta, gamma=gamma), horizon)


def make_random_monotone(rng, size, scale=1.0):
    """Random nonincreasing nonnegative head (sorted uniforms), zero tail."""
    head = np.sort(rng.uniform(0.0, scale, size=size))[::-1]
    return CoefficientSequence(head=head, tail=ZeroTail())


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    index: int | None = None
    reason: str | None = None


def validate_monotone(seq):
    """Check a_nu >= a_{nu+1} across the head and the tail junction; a_nu >= 0
    holds by the rules of the head and the tail.

    Returns a ValidationResult; `index` is the first (1-based) position
    violating monotonicity.  The result is kept on seq (seq._kept), so a
    sequence is scanned once; a copy made by scaled or dataclasses.replace
    is a new object and is scanned afresh.
    """
    return seq._kept(("monotone",), lambda: _scan_monotone(seq))


def _scan_monotone(seq):
    head = seq.head
    rising = np.nonzero(np.diff(head) > 0)[0]
    if rising.size:
        i = int(rising[0]) + 2
        return ValidationResult(False, i, f"a_{i} > a_{i - 1}")
    n = seq.horizon
    junction = float(seq.tail.value(n + 1))
    if junction > head[-1]:
        return ValidationResult(
            False, n + 1, f"tail value at nu={n + 1} exceeds a_{n}"
        )
    return ValidationResult(True)


def _log_terms(ln_a, ln_nu, q, e_q, out=None):
    """q (ln a_nu + e_q ln nu) = ln a_nu^q nu^s, the exponent ratio e_q = s/q
    as the caller rounds it: no factor leaves the float range unless the
    term does; a_nu = 0 gives -inf."""
    x = np.multiply(ln_nu, e_q, out=out)
    x += ln_a
    x *= q
    return x


def _tail_sum(tail, q, s, lo, shift=0.0):
    """sum_{nu >= lo} of the tail model's f(nu) = a_nu^q nu^s e^-shift: blocks of
    doubling width summed until the partial sum plus the rest, estimated
    as int_{hi-1/2}^inf f + f'(hi - 1/2)/24 (the midpoint rule's
    Euler-Maclaurin term), moves by at most _SUM_REL_TOL of itself, or
    _SUM_NU_CAP is reached."""
    total, width, est = 0.0, 256, None
    while True:
        hi = min(lo + width, max(lo, _SUM_NU_CAP))
        x = hi - 0.5
        nu = np.append(np.arange(lo, hi, dtype=float), x)  # the block, then x
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a_nu = 0
            f = _log_terms(np.log(tail.value(nu)), np.log(nu), q, s / q)
            f = np.exp(f - shift if shift else f, out=f)
        total += float(np.sum(f[:-1]))
        # f'/f = (s - q (beta + gamma/(1 + ln x)))/x
        slope = (s - q * (tail.beta + tail.gamma / (1 + math.log(x)))) / x
        try:
            prev, est = est, total + tail.integral(q, s, x, shift) + float(f[-1]) * slope / 24
        except OverflowError:  # c^q past the float range: so is the sum
            return math.inf
        if prev is not None and abs(est - prev) <= _SUM_REL_TOL * abs(est) or hi >= _SUM_NU_CAP:
            return est
        lo = hi
        width *= 2


def _tail_rest(tail, q, s, e_q, first):
    """(rest, shift), rest e^shift the tail model's sum of a_nu^q nu^s from
    first (_tail_sum) or, where that is not a normal float, that sum divided
    by its first term; 0 on a zero tail."""
    rest = _tail_sum(tail, q, s, first) if tail.c else 0.0
    if not tail.c or _TINY <= rest < math.inf:
        return rest, 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        shift = float(_log_terms(np.log(tail.value(first)), math.log(first), q, e_q))
    if not math.isfinite(shift):  # a first term past the float range
        return rest, 0.0
    return _tail_sum(tail, q, s, first, shift), shift


def _running_sums(ln_a, ln_nu, q, e_q, carry=0.0, carry_shift=0.0, backward=False):
    """(sums, shifts), one longer than ln_a: sums_i e^shifts_i is carry
    e^carry_shift plus the terms a_nu^q nu^s (_log_terms) before position i,
    or, backward, from i on.  Where every sum with a positive term is a
    normal float, the shift is 0 (a scalar) and sums the plain cumulative
    sum plus carry.  Otherwise, from the first sum out of that range on, the
    shift is the running max of the log-terms (the carry's too) rounded down
    to a multiple of _SHIFT_STEP, each run of one shift summed divided by
    e^shift on top of the run before it.  A sum depends only on the terms
    before it.  Under the caller's np.errstate, which ignores overflow and
    the NaN of inf - inf (refused by the caller)."""
    sums = np.empty(ln_a.size + 1)
    order = slice(None, None, -1 if backward else 1)  # of summation
    run = sums[order]
    x = _log_terms(ln_a, ln_nu, q, e_q, sums[:-1] if backward else sums[1:])
    np.exp(x, out=x)
    run[0] = 0.0
    np.cumsum(run, out=run)
    plain = carry * np.exp(carry_shift) if carry_shift else carry
    if plain:
        sums += plain
    # the first sum with a positive term: the carry's, the first term's, or,
    # below 2^-1022, the one at the first log-term > -inf (a term may underflow)
    low, x = plain if carry else run[1] if run.size > 1 else math.inf, None
    if not (carry or low >= _TINY):
        pos = (x := _log_terms(ln_a, ln_nu, q, e_q)[order]) > -math.inf
        low = run[pos.argmax() + 1] if pos.any() else math.inf
    if low >= _TINY and run[-1] < math.inf:
        return sums, 0.0
    x = np.append(math.log(carry) + carry_shift if carry else -math.inf,
                  _log_terms(ln_a, ln_nu, q, e_q)[order] if x is None else x)
    top = np.maximum.accumulate(x)
    left = np.logical_or.accumulate(~((run >= _TINY) & (run < math.inf) | (top == -math.inf)))
    shifts = np.where(left, np.floor(top / _SHIFT_STEP) * _SHIFT_STEP, 0.0)
    terms, total = np.exp(x - shifts), 0.0
    edges = [0, *(np.flatnonzero(shifts[1:] != shifts[:-1]) + 1).tolist(), run.size]
    for lo, hi in zip(edges[:-1], edges[1:]):
        np.cumsum(terms[lo:hi], out=run[lo:hi])
        run[lo:hi] += total
        if hi < run.size:  # carried into the next run's frame
            total = run[hi - 1] * np.exp(shifts[hi - 1] - shifts[hi]) if run[hi - 1] else 0.0
    return sums, shifts[order]


def _at(run, i):
    return run[0][i], run[1] if isinstance(run[1], float) else run[1][i]  # run read at index i


def _weighted_sums(seq, q, e_q, m, n=None, s=None):
    """(sums, shifts), sums e^shifts the sums of a_nu^q nu^s (_log_terms with
    the exponent ratio e_q): over [m, n] for a start m and each end of the
    array n, one _running_sums forward to max n; with n None, from each
    start of the array m on, one backward over the head on the tail's rest
    past it (_tail_rest), read by every start up to the head's end + 1, a
    start past that taking its own rest.  shifts is the scalar 0 where no
    sum left the normal float range."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # see _running_sums
        if n is not None:
            top = int(n.max())
            run = _running_sums(np.log(seq.values(m, top)),
                                np.log(np.arange(m, top + 1, dtype=float)), q, e_q)
            return _at(run, n - m + 1)
        end = seq.horizon
        lo = int(min(m.min(), end + 1))
        run = _running_sums(np.log(seq.head[lo - 1:]), np.log(np.arange(lo, end + 1, dtype=float)),
                            q, e_q, *_tail_rest(seq.tail, q, s, e_q, end + 1), backward=True)
    sums, shifts = _at(run, np.minimum(m, end + 1) - lo)
    past = m > end + 1
    if past.any():
        firsts = sorted(set(m[past].tolist()))
        rests = np.array([_tail_rest(seq.tail, q, s, e_q, first) for first in firsts])
        rest, shifts = rests[np.searchsorted(firsts, m[past])], shifts + np.zeros(m.shape)
        sums[past], shifts[past] = rest[:, 0], rest[:, 1]
    return sums, shifts


def weighted_sum(seq, q, s, m=1, n=None):
    """Sum over nu in [m, n] of a_nu**q * nu**s; n is None for an infinite
    upper limit.

    Grids: with n None, m may be an array of starts, and with n given, n
    may be an array of ends (m then a single start).  One call of the
    kernel _weighted_sums serves the whole grid, and a scalar m and n give
    a float, the one-point grid of the same path: no sum depends on the
    other points of its grid.  Divergent series give DIVERGENT (math.inf)
    at every start.  A sum out of the normal float range is summed shifted
    and turned back into a float, so only a sum that itself reaches 2^1024
    is refused (ValueError).
    """
    if q <= 0:
        raise ValueError("exponent q must be positive")
    single = np.ndim(m if n is None else n) == 0  # the grid's; with n given, m is one start
    starts = np.array(m, ndmin=1)
    if (starts < 1).any():
        raise ValueError("range must start at m >= 1")
    ends = None if n is None else np.array(n, ndmin=1)
    if n is not None and (ends < m).any():
        raise ValueError("empty range")
    if n is None and not seq.tail.converges(q, s):
        return DIVERGENT if single else np.full(starts.shape, DIVERGENT)
    sums, shifts = _weighted_sums(seq, q, s / q, starts if n is None else int(m), ends, s)
    if not isinstance(shifts, float) and shifts.any():
        with np.errstate(over="ignore", invalid="ignore"):  # e^shift may leave the float range
            sums = sums * np.exp(shifts / 2) * np.exp(shifts / 2)
        if not (sums < math.inf).all():
            raise ValueError(f"a sum of a_nu^{q:g} nu^{s:g} leaves the float range")
    return float(sums[0]) if single else sums
