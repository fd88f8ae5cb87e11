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


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


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
    heads hash alike.
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
    violating monotonicity.  The result is kept on seq, not as a field, so
    a sequence is scanned once; a copy made by scaled or dataclasses.replace
    is a new object and is scanned afresh.
    """
    if "_monotone" not in vars(seq):
        object.__setattr__(seq, "_monotone", _scan_monotone(seq))
    return seq._monotone


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


def _powers(vals, nu, q, s, shift=0.0):
    """a^q nu^s e^-shift for arrays of a >= 0 (a sequence's values, by its
    rules) and nu >= 1, as exp(q (ln a + (s/q) ln nu) - shift): no intermediate
    leaves the float range unless the term does, and a = 0 gives 0, not 0 * inf."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = q * (np.log(vals) + (s / q) * np.log(nu))
        if shift:
            t -= shift
        return np.exp(t)


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
        f = _powers(tail.value(nu), nu, q, s, shift)
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


def weighted_sum(seq, q, s, m=1, n=None):
    """Sum over nu in [m, n] of a_nu**q * nu**s; n is None for an infinite
    upper limit.

    Grids: with n None, m may be an array of starts, and with n given, n
    may be an array of ends (m then a single start).  One table of terms
    serves the whole grid: a reverse cumulative sum read at each start, or
    a cumulative sum read at each end.  A scalar m and n give a float, the
    one-point grid of the same path, computed as a one-element array.

    An infinite range sums its table over the stored head and adds the
    tail model's sum past the head (_tail_sum), one that every start
    within the head shares; a start past the head takes the tail's sum
    from itself.  No sum depends on the other starts of its grid.
    Divergent series give DIVERGENT (math.inf) at every start.  Each term
    is formed by _powers, so only a sum that itself leaves the float range
    is refused (ValueError).
    """
    if q <= 0:
        raise ValueError("exponent q must be positive")
    single = np.ndim(m) == 0 and np.ndim(n) == 0
    starts = np.array(m, ndmin=1)
    if (starts < 1).any():
        raise ValueError("range must start at m >= 1")
    if n is not None:
        ends = np.array(n, ndmin=1)
        if (ends < m).any():
            raise ValueError("empty range")
        top = int(ends.max())
        nu = np.arange(m, top + 1, dtype=float)
        sums = np.cumsum(_powers(seq.values(m, top), nu, q, s))
        return _in_range(sums[ends - m], q, s, single)

    tail, top = seq.tail, seq.horizon
    if not tail.converges(q, s):
        return DIVERGENT if single else np.full(starts.shape, DIVERGENT)
    lo = int(min(starts.min(), top + 1))
    sums = np.zeros(top - lo + 2)
    if lo <= top:
        terms = _powers(seq.values(lo, top), np.arange(lo, top + 1, dtype=float), q, s)
        np.cumsum(terms[::-1], out=sums[-2::-1])
    sums = sums[np.minimum(starts, top + 1) - lo]
    if tail.c:
        past = np.maximum(starts, top + 1)
        firsts = sorted(set(past.ravel().tolist()))
        rest = np.array([_tail_sum(tail, q, s, first) for first in firsts])
        sums = sums + rest[np.searchsorted(firsts, past)]
    return _in_range(sums, q, s, single)


def _in_range(sums, q, s, single):
    """sums, or its one float if single; ValueError where one is not finite."""
    if not np.isfinite(sums).all():
        raise ValueError(f"a sum of a_nu^{q:g} nu^{s:g} leaves the float range")
    return float(sums[0]) if single else sums
