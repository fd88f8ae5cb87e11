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

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .sequences import _Store, check_rules, validate_monotone

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
#: every lemma id: jensen, then the displays' in table order
LEMMA_IDS = ("jensen", *dict.fromkeys(lemma for lemma, _ in _DISPLAYS))
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
        # finite, for values that pass the rows above (NaN fails v > 0)
        ("alpha", ("alpha",), lambda v: v != math.inf, "must be finite"),
        ("lam", ("lam",), lambda v: not isinstance(v, Real) or math.isfinite(v), "must be finite"),
        ("p", ("p",), lambda v: v != math.inf, "must be finite"),
        ("m, n", ("m", "n"), lambda m, n: isinstance(m, Integral) and isinstance(n, Integral),
         "must be integers"),
        ("m, n", ("m", "n"), lambda m, n: 1 <= m < n, "need 1 <= m < n"),
    )

    def __post_init__(self):
        check_rules(self, floats=("alpha", "lam", "p"))


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
        # statistics.median's arithmetic, without importing statistics
        if not self.ratios:
            return None
        ratios, i = sorted(self.ratios), len(self.ratios) // 2
        return ratios[i] if len(ratios) % 2 else (ratios[i - 1] + ratios[i]) / 2

    @property
    def spread(self):
        if not self.ratios or self.ratio_min == 0:
            return None
        return self.ratio_max / self.ratio_min


def _sides(lemma_id, a, hp, tables, out):
    """lhs and rhs of the row of _DISPLAYS for lemma_id and hp.p, where a
    holds a_1 .. a_n, tables holds nu^x for nu = 1 .. n at x = lam, the
    weight's exponent and lam + 1, and out holds two workspaces at least n
    long.  The inner sums are formed and raised to p in out, with the ufuncs
    and strides of the expression (sums) ** p, and each side is one
    np.einsum of the weight against its terms, which sums without a
    temporary and, unlike np.dot, gives the same float whatever the BLAS
    thread count; so nothing is allocated."""
    inner, lo, hi, c, _ = _DISPLAYS[lemma_id, hp.p >= 1]
    p, m, n = hp.p, hp.m, hp.n
    if n < c * m:
        raise ValueError(f"{lemma_id} with p {'>=' if p >= 1 else '<'} 1 needs n >= {c}m")
    lo, hi = lo * m or 1, hi * m or 1
    summand, weight, point = tables
    work, spare = out
    # summands of the inner sums, then the sums raised to p
    sums = np.multiply(a[lo - 1:n], summand[lo - 1:n], out=work[:n - lo + 1])
    if inner == "tail":
        # the suffix sums, last first, read backwards into the other
        # workspace: numpy's power picks its loop by the strides, and this
        # is the one (suffix sums)[::-1] ** p takes; a forward pass in
        # place rounds some powers an ulp apart
        tail = np.cumsum(sums[::-1], out=spare[:n - lo + 1])
        if p == 0.5:  # the square root that ** takes for 1/2
            np.sqrt(tail[::-1], out=sums)
        else:
            np.power(tail[::-1], p, out=sums)
    else:
        np.cumsum(sums, out=sums)
        sums **= p  # in place, ** picks the same ufunc (square, sqrt, ...) as sums ** p
    lhs = float(np.einsum("i,i->", weight[lo - 1:n], sums))
    terms = np.multiply(a[hi - 1:n], point[hi - 1:n], out=work[:n - hi + 1])
    terms **= p
    return lhs, float(np.einsum("i,i->", weight[hi - 1:n], terms))


# the nu^x rows of every sweep in the process, keyed by x; a row serves
# every n up to its length
_ROWS = _Store()


def _power_table(x, n):
    """nu^x for nu = 1 .. n.  An integer x takes in-place **, the ufunc that
    nu ** x takes (exact wherever nu^x is an integer below 2^53); any other
    x is exp(x ln nu).  A power past the float range is inf, not warned of."""
    row = np.arange(1, n + 1, dtype=float)
    with np.errstate(over="ignore"):
        if float(x).is_integer():
            row **= x
        else:
            np.log(row, out=row)
            row *= x
            np.exp(row, out=row)
    return row


def _power_row(x, n):
    """The _ROWS row of x if it is n long at least, else a new _power_table
    row in its place."""
    return _ROWS.get(x, lambda: _power_table(x, n), fits=lambda row: row.size >= n)


def _sweep(lemma_id, cases):
    """evaluate(seq, hp) -> RatioReport for the (seq, hp) pairs of cases.

    The evaluations read one row of nu^x (_power_row) for each exponent
    that a case passing its side condition needs, at least as long as the
    largest n that reads it, and share two workspaces of the largest n.  A
    case whose lhs or rhs leaves the float range, a row of nu^x past it
    included, is refused after its evaluation.  Each sequence object is
    read once: its read-only head array, not a copy, when the head covers
    the largest n asked of it, and values(1, n) otherwise;
    validate_monotone keeps its result on the sequence.  The workspaces
    live as long as evaluate.  A rejected case raises ValueError; an
    unknown lemma_id raises before any case.
    """
    if lemma_id not in LEMMA_IDS:
        raise ValueError(f"unknown lemma id: {lemma_id!r}")
    top = {}  # id(seq) -> largest n asked of it
    exponents = {}  # x -> the largest n its row serves, in first-use order
    rows = {}  # id(hp) -> the exponents _sides reads, for a case that meets n >= c m
    for seq, hp in cases:
        top[id(seq)] = max(top.get(id(seq), 0), hp.n)
        if lemma_id != "jensen":
            inner, _, _, c, _ = _DISPLAYS[lemma_id, hp.p >= 1]
            if hp.n >= c * hp.m:
                weight = hp.alpha - 1 if inner == "tail" else -hp.alpha - 1
                xs = (hp.lam, weight, hp.lam + 1)
                for x in xs:
                    exponents[x] = max(exponents.get(x, 0), hp.n)
                rows[id(hp)] = xs
    table = {x: _power_row(x, n) for x, n in exponents.items()}
    size = max(top.values(), default=1)
    out = np.empty(size), np.empty(size)
    heads = {}

    def head(seq):
        if id(seq) not in heads:
            n = top[id(seq)]
            heads[id(seq)] = seq.head if seq.horizon >= n else seq.values(1, n)
        return heads[id(seq)]

    def evaluate(seq, hp):
        if lemma_id in _MONOTONE:
            res = validate_monotone(seq)
            if not res.ok:
                raise ValueError(f"{lemma_id} needs a monotone sequence: {res.reason}")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned of
            if lemma_id == "jensen":  # the l^2 norm is at most the l^1 norm
                a = head(seq)[:hp.n]
                squares = out[0][:hp.n]
                squares[:] = a
                squares **= 2.0
                lhs, rhs, bound = float(np.sum(squares) ** 0.5), float(np.sum(a)), "upper"
            else:
                tables = [table[x] for x in rows.get(id(hp), ())]
                lhs, rhs = _sides(lemma_id, head(seq), hp, tables, out)
                bound = _DISPLAYS[lemma_id, hp.p >= 1][-1]
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            raise ValueError(f"{lemma_id}: lhs or rhs leaves the float range at n = {hp.n}")
        return _report(lemma_id, lhs, rhs, bound)

    return evaluate


def verify_lemma(lemma_id, seq, hp):
    """Evaluate one inequality instance and return its RatioReport.

    Side conditions (n >= c m for the converse bounds, monotone
    sequences where required) are rejected before evaluation.  This is
    a sweep of one case: estimate_constant evaluates each of its cases
    the same way.
    """
    return _sweep(lemma_id, [(seq, hp)])(seq, hp)


def _report(lemma_id, lhs, rhs, bound):
    if rhs > 0:
        return RatioReport(lemma_id, lhs, rhs, lhs / rhs, bound)
    # rhs vanished: a genuine violation only if lhs did not
    return RatioReport(lemma_id, lhs, rhs, None, bound, ok=(lhs == 0))


def estimate_constant(lemma_id, cases):
    """Evaluate lemma_id on every (seq, hp) case, as verify_lemma would, and
    collect ratio statistics.

    Cases whose ratio is undefined (rhs = 0) or whose side conditions
    fail are counted as skipped.
    """
    cases = list(cases)
    evaluate = _sweep(lemma_id, cases)
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
