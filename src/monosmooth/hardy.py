"""Discrete Hardy-type inequality evaluators and empirical constants.

Every Hardy-type display has one shape: with P(mu) = (a_mu mu^(l+1))^p it
compares

    sum_mu mu^e inner(mu)^p   with   sum_mu mu^e P(mu),

where inner is the tail sum_{nu=mu}^{n} a_nu nu^l and e = a - 1, or the
head sum_{nu=s}^{mu} a_nu nu^l and e = -a - 1.  The displays differ only in
their ranges, side condition and asserted bound, so each is one row of
_DISPLAYS, evaluated exactly as written.  The asserted comparison direction
is carried as `bound` on the report ("upper": lhs <= C rhs, "lower":
lhs >= C rhs, "two_sided": both).  Ratios are always lhs/rhs.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .sequences import check_rules, validate_monotone

LEMMA_IDS = (
    "jensen",
    "lp_upper",
    "lp_lower",
    "lp_converse_upper",
    "lp_converse_lower",
    "lp_complete_tail",
    "lp_complete_head",
)

# (lemma id, p >= 1) -> (inner sum, lhs start, rhs start, c, bound).  A start
# k is mu = k m, and k = 0 is mu = 1; every sum runs to n, and a head sum
# starts where its lhs does.  c is the side condition n >= c m.
_DISPLAYS = {
    ("lp_upper", True): ("tail", 1, 1, 0, "upper"),
    ("lp_upper", False): ("tail", 1, 1, 0, "lower"),
    ("lp_lower", True): ("head", 1, 1, 0, "upper"),
    ("lp_lower", False): ("head", 1, 1, 0, "lower"),
    ("lp_converse_upper", True): ("tail", 1, 8, 16, "lower"),
    ("lp_converse_upper", False): ("tail", 4, 1, 4, "upper"),
    ("lp_converse_lower", True): ("head", 1, 4, 4, "lower"),
    ("lp_converse_lower", False): ("head", 4, 1, 4, "upper"),
    ("lp_complete_tail", True): ("tail", 0, 0, 0, "two_sided"),
    ("lp_complete_tail", False): ("tail", 0, 0, 0, "two_sided"),
    ("lp_complete_head", True): ("head", 0, 0, 0, "two_sided"),
    ("lp_complete_head", False): ("head", 0, 0, 0, "two_sided"),
}
# displays that hold only for monotone sequences
_MONOTONE = {"lp_converse_upper", "lp_converse_lower",
             "lp_complete_tail", "lp_complete_head"}


@dataclass(frozen=True)
class HardyParams:
    """Weights and range of one inequality instance."""

    alpha: float
    lam: float
    p: float
    m: int
    n: int

    RULES = (
        ("alpha", ("alpha",), lambda v: v > 0, "must be positive"),
        ("lam", ("lam",), lambda v: isinstance(v, Real), "must be a real number"),
        ("p", ("p",), lambda v: v > 0, "must be positive"),
        ("m, n", ("m", "n"), lambda m, n: isinstance(m, Integral) and isinstance(n, Integral),
         "must be integers"),
        ("m, n", ("m", "n"), lambda m, n: 1 <= m < n, "need 1 <= m < n"),
    )

    def __post_init__(self):
        check_rules(self)


@dataclass(frozen=True)
class RatioReport:
    lemma_id: str
    lhs: float
    rhs: float
    ratio: float | None
    bound: str
    ok: bool = True


@dataclass
class SweepReport:
    lemma_id: str
    bound: str
    ratios: list = field(default_factory=list)
    skipped: int = 0

    @property
    def count(self):
        return len(self.ratios)

    @property
    def ratio_min(self):
        return min(self.ratios) if self.ratios else None

    @property
    def ratio_max(self):
        return max(self.ratios) if self.ratios else None

    @property
    def ratio_median(self):
        return statistics.median(self.ratios) if self.ratios else None

    @property
    def spread(self):
        if not self.ratios or self.ratio_min == 0:
            return None
        return self.ratio_max / self.ratio_min


def _sides(lemma_id, a, hp, power):
    """lhs and rhs of the row of _DISPLAYS for lemma_id and hp.p, where a
    holds a_1 .. a_N and power(x) holds nu^x for nu = 1 .. N, N >= hp.n."""
    inner, lo, hi, c, _ = _DISPLAYS[lemma_id, hp.p >= 1]
    p, m, n = hp.p, hp.m, hp.n
    if n < c * m:
        raise ValueError(f"{lemma_id} with p {'>=' if p >= 1 else '<'} 1 needs n >= {c}m")
    lo, hi = lo * m or 1, hi * m or 1
    w = a[lo - 1:n] * power(hp.lam)[lo - 1:n]  # summands of the inner sums
    sums = np.cumsum(w[::-1])[::-1] if inner == "tail" else np.cumsum(w)
    weight = power(hp.alpha - 1 if inner == "tail" else -hp.alpha - 1)[:n]
    point = (a[hi - 1:n] * power(hp.lam + 1)[hi - 1:n]) ** p
    lhs = float(np.sum(weight[lo - 1:] * sums ** p))
    return lhs, float(np.sum(weight[hi - 1:] * point))


def _sweep(lemma_id, cases, jensen_exponents=None):
    """evaluate(seq, hp) -> RatioReport for the (seq, hp) pairs of cases.

    The evaluations share one table of nu^x over nu = 1 .. max n, one
    values() read and one monotonicity check per sequence object; all
    three live as long as evaluate.  A rejected case raises ValueError.
    """
    top = {}  # id(seq) -> largest n asked of it
    for seq, hp in cases:
        top[id(seq)] = max(top.get(id(seq), 0), hp.n)
    nu = np.arange(1, max(top.values(), default=1) + 1, dtype=float)
    powers, heads, monotone = {}, {}, {}

    def power(x):
        if x not in powers:
            powers[x] = nu ** x
        return powers[x]

    def head(seq):
        if id(seq) not in heads:
            heads[id(seq)] = seq.values(1, top[id(seq)])
        return heads[id(seq)]

    def evaluate(seq, hp):
        if lemma_id not in LEMMA_IDS:
            raise ValueError(f"unknown lemma id: {lemma_id!r}")
        if lemma_id == "jensen":
            lo, hi = jensen_exponents if jensen_exponents else (1.0, 2.0)
            if not 0 < lo < hi:
                raise ValueError("jensen needs exponents 0 < alpha < beta")
            a = head(seq)[:hp.n]
            lhs = float(np.sum(a ** hi) ** (1.0 / hi))
            rhs = float(np.sum(a ** lo) ** (1.0 / lo))
            return _report(lemma_id, lhs, rhs, "upper")
        if lemma_id in _MONOTONE:
            if id(seq) not in monotone:
                monotone[id(seq)] = validate_monotone(seq)
            res = monotone[id(seq)]
            if not res.ok:
                raise ValueError(f"{lemma_id} needs a monotone sequence: {res.reason}")
        lhs, rhs = _sides(lemma_id, head(seq), hp, power)
        return _report(lemma_id, lhs, rhs, _DISPLAYS[lemma_id, hp.p >= 1][-1])

    return evaluate


def verify_lemma(lemma_id, seq, hp, jensen_exponents=None):
    """Evaluate one inequality instance and return its RatioReport.

    Side conditions (n >= c m for the converse bounds, monotone
    sequences where required) are rejected before evaluation.  This is
    a sweep of one case: estimate_constant evaluates each of its cases
    the same way.
    """
    return _sweep(lemma_id, [(seq, hp)], jensen_exponents)(seq, hp)


def _report(lemma_id, lhs, rhs, bound):
    if rhs > 0:
        return RatioReport(lemma_id, lhs, rhs, lhs / rhs, bound)
    # rhs vanished: a genuine violation only if lhs did not
    return RatioReport(lemma_id, lhs, rhs, None, bound, ok=(lhs == 0))


def estimate_constant(lemma_id, cases, jensen_exponents=None):
    """Evaluate lemma_id on every (seq, hp) case, as verify_lemma would, and
    collect ratio statistics.

    Cases whose ratio is undefined (rhs = 0) or whose side conditions
    fail are counted as skipped.
    """
    cases = list(cases)
    evaluate = _sweep(lemma_id, cases, jensen_exponents)
    report = SweepReport(lemma_id=lemma_id, bound="")
    for seq, hp in cases:
        try:
            r = evaluate(seq, hp)
        except ValueError:
            report.skipped += 1
            continue
        report.bound = r.bound
        if r.ratio is None:
            report.skipped += 1
        else:
            report.ratios.append(r.ratio)
    if not report.ratios and not report.skipped:
        raise ValueError("estimate_constant needs at least one case")
    return report
