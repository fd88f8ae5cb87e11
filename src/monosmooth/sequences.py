"""Monotone coefficient sequences with analytic tail models.

A sequence stores a finite head a_1..a_N and a tail model describing
a_nu for nu > N, so that infinite weighted sums of the form
sum a_nu^q nu^s can be evaluated (or recognised as divergent).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace

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


def _exp_quadrature(upper=None):
    """Nodes W and weights for int_0^inf e^-w f(w) dw ~ weights @ f(W).

    16-point Gauss-Legendre on [0, 1e-9] and on 23 geometric panels of
    [1e-9, 90], e^-w folded into the weights; past 90 lies e^-90 ~ 1e-39.
    The panels resolve f varying on scales down to about 1e-7.  With an
    array upper, row i holds the same rule for int_0^upper[i]: the panels
    are cut at upper[i], and those past it get zero weight.
    """
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.concatenate([[0.0], np.geomspace(1e-9, 90.0, 24)])
    if upper is not None:
        edges = np.minimum(edges, np.asarray(upper, dtype=float)[:, None])
    lo, half = edges[..., :-1, None], np.diff(edges)[..., None] / 2
    nodes = (lo + half * (x + 1)).reshape(edges.shape[:-1] + (-1,))
    return nodes, (half * w).reshape(nodes.shape) * np.exp(-nodes)


_EXP_NODES, _EXP_WEIGHTS = _exp_quadrature()


def positive_integer(v):
    """True for an integer v >= 1; a whole float such as 2.0 counts."""
    return (isinstance(v, numbers.Integral)
            or isinstance(v, float) and v.is_integer()) and v >= 1


def broken_rules(rules, values):
    """'label: message' for each row (label, keys, test, message) of rules
    whose test(*values of keys) is false or raises TypeError; message may
    hold {} fields for those values.  Rows with a key absent are skipped.
    """
    bad = []
    for label, keys, test, message in rules:
        if all(key in values for key in keys):
            args = [values[key] for key in keys]
            try:
                ok = test(*args)
            except TypeError:
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

    def integral(self, q, s, x0):
        return 0.0

    def to_json(self):
        return {"variant": "zero"}


@dataclass(frozen=True)
class PowerLawTail:
    """a_nu = c * nu**(-beta) for nu beyond the horizon."""

    c: float
    beta: float
    gamma = 0.0  # PowerLogTail's log exponent; unannotated, so not a dataclass field

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("power-law tail needs c >= 0")
        if self.beta <= 0:
            raise ValueError("power-law tail needs beta > 0")

    def value(self, nu):
        return self.c * np.asarray(nu, dtype=float) ** (-self.beta)

    def converges(self, q, s):
        return self.c == 0 or q * self.beta - s > 1 + _CRITICAL_TOL

    def integral(self, q, s, x0):
        # closed form of int_x0^inf (c x^-beta)^q x^s dx
        a = q * self.beta - s
        return self.c ** q * x0 ** (1 - a) / (a - 1)

    def to_json(self):
        return {"variant": "power_law", "c": self.c, "beta": self.beta}


@dataclass(frozen=True)
class PowerLogTail:
    """a_nu = c * nu**(-beta) * (1 + ln nu)**(-gamma)."""

    c: float
    beta: float
    gamma: float

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("power-log tail needs c >= 0")
        if self.beta <= 0:
            raise ValueError("power-log tail needs beta > 0")
        if self.beta + self.gamma < 0:
            # otherwise values eventually increase
            raise ValueError("power-log tail needs beta + gamma >= 0")

    def value(self, nu):
        nu = np.asarray(nu, dtype=float)
        return self.c * nu ** (-self.beta) * (1.0 + np.log(nu)) ** (-self.gamma)

    def converges(self, q, s):
        if self.c == 0:
            return True
        a = q * self.beta - s
        if a > 1 + _CRITICAL_TOL:
            return True
        return abs(a - 1) <= _CRITICAL_TOL and q * self.gamma > 1

    def integral(self, q, s, x0):
        # int_x0^inf (c x^-beta (1+ln x)^-gamma)^q x^s dx; u = 1 + ln x gives
        # c^q int_u0^inf e^(-b(u-1)) u^-g du, b = a - 1 > 0 when it converges
        # and is not critical, and w = b(u - u0) turns that into
        # c^q e^(-b(u0-1)) / b * int_0^inf e^-w (u0 + w/b)^-g dw
        a = q * self.beta - s
        g = q * self.gamma
        u0 = 1.0 + math.log(x0)
        if abs(a - 1) <= _CRITICAL_TOL:
            return self.c ** q * u0 ** (1 - g) / (g - 1)
        b = a - 1
        val = float(_EXP_WEIGHTS @ (u0 + _EXP_NODES / b) ** -g)
        return self.c ** q * math.exp(-b * (u0 - 1)) / b * val

    def to_json(self):
        return {
            "variant": "power_log",
            "c": self.c,
            "beta": self.beta,
            "gamma": self.gamma,
        }


def tail_from_json(doc):
    variant = doc.get("variant")
    if variant == "zero":
        return ZeroTail()
    if variant == "power_law":
        return PowerLawTail(c=doc["c"], beta=doc["beta"])
    if variant == "power_log":
        return PowerLogTail(c=doc["c"], beta=doc["beta"], gamma=doc["gamma"])
    raise ValueError(f"unknown tail variant: {variant!r}")


@dataclass(frozen=True)
class CoefficientSequence:
    """Cosine coefficients: finite head (1-based) plus a tail model."""

    head: tuple
    tail: ZeroTail | PowerLawTail | PowerLogTail = ZeroTail()

    def __post_init__(self):
        if len(self.head) < 1:
            raise ValueError("head must store at least one coefficient")
        object.__setattr__(self, "head", tuple(float(a) for a in self.head))
        # read-only array for values(); not a field, so __eq__, __hash__
        # and to_json see only the tuple
        object.__setattr__(self, "_head_array", np.array(self.head))
        self._head_array.flags.writeable = False

    @property
    def horizon(self):
        return len(self.head)

    def values(self, m, n):
        """Array of a_m .. a_n (inclusive, 1-based)."""
        if m < 1 or n < m:
            raise ValueError(f"bad index range [{m}, {n}]")
        head = self._head_array[m - 1:n]
        if head.size == n - m + 1:
            return head.copy()
        return np.concatenate([head, self.tail.value(np.arange(m + head.size, n + 1))])

    def scaled(self, s):
        """Sequence with every coefficient multiplied by s >= 0."""
        if s < 0:
            raise ValueError("scale factor must be nonnegative")
        head = tuple(s * a for a in self.head)
        tail = replace(self.tail, c=s * self.tail.c) if self.tail.c else self.tail
        return CoefficientSequence(head=head, tail=tail)

    def to_json(self):
        return {"head": list(self.head), "tail": self.tail.to_json()}

    @classmethod
    def from_json(cls, doc):
        if isinstance(doc, str):
            doc = json.loads(doc)
        return cls(head=tuple(doc["head"]), tail=tail_from_json(doc["tail"]))


def _sampled(tail, horizon):
    """Sequence with the head tail.value(1..horizon), continued by the tail
    unless it vanishes."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    head = tuple(tail.value(np.arange(1, horizon + 1)))
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
    return CoefficientSequence(head=tuple(head), tail=ZeroTail())


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    index: int | None = None
    reason: str | None = None


def validate_monotone(seq):
    """Check a_nu >= a_{nu+1} >= 0 across the head and the tail junction.

    Returns a ValidationResult; `index` is the first (1-based) position
    violating nonnegativity or monotonicity.
    """
    head = seq._head_array
    neg = np.nonzero(head < 0)[0]
    if neg.size:
        i = int(neg[0]) + 1
        return ValidationResult(False, i, f"a_{i} < 0")
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


@dataclass(frozen=True)
class WeightedSumSpec:
    """Parameters of the sum over nu in [m, n] of a_nu**q * nu**s.

    n is None for an infinite upper limit.
    """

    q: float
    s: float
    m: int = 1
    n: int | None = None

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("exponent q must be positive")
        if self.m < 1:
            raise ValueError("range must start at m >= 1")
        if self.n is not None and self.n < self.m:
            raise ValueError("empty range")


def weighted_sum(seq, spec):
    """Evaluate sum over [m, n] of a_nu**q * nu**s.

    Infinite ranges are summed directly until an integral-comparison
    remainder drops below _SUM_REL_TOL, then closed with the tail model's
    analytic integral.  Divergent series return DIVERGENT (math.inf).
    """
    q, s, m, n = spec.q, spec.s, spec.m, spec.n
    if n is not None:
        nu = np.arange(m, n + 1, dtype=float)
        vals = seq.values(m, n)
        return float(np.sum(vals ** q * nu ** s))

    tail = seq.tail
    if not tail.converges(q, s):
        return DIVERGENT

    total = 0.0
    horizon = seq.horizon
    if m <= horizon:
        nu = np.arange(m, horizon + 1, dtype=float)
        total += float(np.sum(seq.values(m, horizon) ** q * nu ** s))
    start = max(m, horizon + 1)
    if tail.c == 0:
        return total

    def block(lo, hi):
        nu = np.arange(lo, hi, dtype=float)
        return float(np.sum(tail.value(nu) ** q * nu ** s))

    # partial sum to a growing cutoff plus the midpoint-corrected integral
    lo = start
    width = 1024
    est = None
    while True:
        hi = min(lo + width, _SUM_NU_CAP)
        total += block(lo, hi)
        prev, est = est, total + tail.integral(q, s, hi - 0.5)
        if prev is not None and abs(est - prev) <= _SUM_REL_TOL * abs(est):
            return est
        if hi >= _SUM_NU_CAP:
            return est
        lo = hi
        width *= 2
