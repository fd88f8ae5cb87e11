"""Class-membership functionals for monotone cosine series.

Three scale functionals are implemented on a common footing:

* I(delta)  -- weighted integral of the modulus of smoothness, evaluated
  through the dyadic-harmonic cell discretization with the t-weight
  integrated in closed form per cell;
* J(n)      -- its discrete counterpart built from omega(1/nu) samples;
* K(n)      -- the purely coefficient-based functional.

Membership verdicts compare a functional against an admissible weight
function phi; they are grid-evidence heuristics, never proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sequences import (DIVERGENT, WeightedSumSpec, check_rules, positive_integer,
                        weighted_sum)
from .smoothness import (K_RULE, QuadratureSpec, SmoothnessParams, bound_core,
                         difference_norms, grid_size)

SEMINORM_REL_TOL = 1e-4
NU_CAP = 2 ** 17
#: divergence verdict threshold: remainder bound relative to the partial
#: sum at the cutoff cap
DIVERGENCE_FRACTION = 0.10


@dataclass(frozen=True)
class ClassParams:
    """Smoothness-class parameters (theta, r, lambda, k, p)."""

    theta: float
    r: float
    lam: float
    k: int
    p: float

    RULES = (
        ("theta", ("theta",), lambda v: v > 0, "must be positive"),
        ("r", ("r",), lambda v: v > 0, "must be positive"),
        ("lam", ("lam",), lambda v: v > 0, "must be positive"),
        ("p", ("p",), lambda v: 1 < v < math.inf, "must lie in (1, inf)"),
        K_RULE,
        ("k", ("k", "r", "lam"), lambda k, r, lam: k > r + lam, "must exceed r + lam"),
    )

    def __post_init__(self):
        check_rules(self)

    @property
    def smoothness(self):
        return SmoothnessParams(k=self.k, p=self.p)


#: the parameters of each phi variant, in the order of the compact form
#: "power_log:ALPHA,GAMMA"; only c has a default
PHI_ARGS = {"power": ("alpha",), "constant": ("c",), "power_log": ("alpha", "gamma")}


@dataclass(frozen=True)
class PhiSpec:
    """Admissible weight function, as a closed-form family."""

    variant: str          # "power" | "constant" | "power_log"
    alpha: float | None = None
    c: float = 1.0
    gamma: float | None = None

    def __post_init__(self):
        if self.variant not in PHI_ARGS:
            raise ValueError(f"unknown phi variant: {self.variant!r}")
        name, args = self.variant.replace("_", "-"), PHI_ARGS[self.variant]
        missing = [a for a in args if getattr(self, a) is None]
        if missing:
            raise ValueError(f"{name} phi needs {' and '.join(missing)}")
        if getattr(self, args[0]) <= 0:  # alpha, or c
            raise ValueError(f"{name} phi needs {args[0]} > 0")

    @classmethod
    def power(cls, alpha):
        return cls(variant="power", alpha=alpha)

    @classmethod
    def constant(cls, c=1.0):
        return cls(variant="constant", c=c)

    @classmethod
    def power_log(cls, alpha, gamma):
        return cls(variant="power_log", alpha=alpha, gamma=gamma)

    def __call__(self, delta):
        return phi_eval(self, delta)

    def to_json(self):
        return {"variant": self.variant,
                **{a: getattr(self, a) for a in PHI_ARGS[self.variant]}}


def phi_eval(phi, delta):
    """phi(delta) for delta in (0, 1)."""
    delta = np.asarray(delta, dtype=float)
    if np.any((delta <= 0) | (delta >= 1)):
        raise ValueError("phi is evaluated on (0, 1) only")
    if phi.variant == "power":
        out = delta ** phi.alpha
    elif phi.variant == "constant":
        out = np.full_like(delta, phi.c)
    else:
        out = delta ** phi.alpha * (1.0 + np.abs(np.log(delta))) ** phi.gamma
    return float(out) if out.shape == () else out


def phi_validate(phi, grid):
    """Empirical almost-increasing and doubling constants of phi.

    C1 = max over grid pairs d1 <= d2 of phi(d1)/phi(d2);
    C2 = max over the grid of phi(2 d)/phi(d), for grid in (0, 1/2].
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.size == 0 or grid[0] <= 0 or grid[-1] > 0.5:
        raise ValueError("grid must lie in (0, 1/2]")
    v = phi_eval(phi, grid)
    v = np.atleast_1d(v)
    if np.all(v == 0):
        raise ValueError("phi vanishes identically on the grid")
    run_max = np.maximum.accumulate(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        c1 = float(np.nanmax(run_max / v))
    doubled = np.atleast_1d(phi_eval(phi, np.minimum(2.0 * grid, 1.0 - 1e-12)))
    c2 = float(np.max(doubled / v))
    return c1, c2


class _OmegaTable:
    """omega(1/nu), nu = 1..top, looked up in one table that _fill(top) builds.

    top starts at nu_cap and doubles when a larger nu is asked for.  All
    DIVERGENT, with no table, if sum a^p nu^(p-2) is.  Beside it the source
    keeps the far-sum terms of I and J, one table per (summand, theta,
    exponent) (see tail_term).  A modulus source, for I and J, is a
    subclass with nu_cap and _fill(top).  Each source names batch in its
    own class body, so that it can be wrapped per class.
    """

    def __init__(self, seq, params):
        self.seq = seq
        self.params = params
        self._omega = np.array([], dtype=float)
        self._terms = {}
        self._divergent = weighted_sum(
            seq, WeightedSumSpec(q=params.p, s=params.p - 2, m=1)) == DIVERGENT

    def batch(self, nus):
        nus = np.asarray(nus, dtype=int)
        if self._divergent:
            return np.full(nus.shape, DIVERGENT)
        top = max(self._omega.size, self.nu_cap)
        while top < nus.max(initial=0):
            top *= 2
        if top > self._omega.size:
            self._omega = self._fill(top)
            self._terms = {}
        return self._omega[nus - 1]

    def __call__(self, nu):
        return float(self.batch(np.array([nu]))[0])

    def tail_term(self, summand, theta, e):
        """term(nus) = summand(omega(1/nu), nu, theta, e) for extrapolated_tail_sum.

        nus must be consecutive and ascending, as extrapolated_tail_sum
        passes them; term returns a slice of a table of these values for
        nu = 1..(the largest nu asked for so far).  The table grows only
        that far; a request past the omega table first grows the omega
        table through batch, which drops every term table, so they are
        rebuilt from the new omega.  Each entry is the elementwise value a
        per-request evaluation would give.
        """
        key = (summand, theta, e)

        def term(nus):
            if self._divergent:
                return np.full(nus.shape, DIVERGENT)
            top = int(nus[-1])
            if top > self._omega.size:
                self.batch(nus[-1:])
            table = self._terms.get(key, np.empty(0))
            if top > table.size:
                nu = np.arange(table.size + 1, top + 1, dtype=float)
                grown = summand(self._omega[table.size:top], nu, theta, e)
                table = self._terms[key] = np.concatenate([table, grown])
            return table[int(nus[0]) - 1:top]

        return term


class CoreModulusSource(_OmegaTable):
    """omega(1/nu) surrogate built from the coefficient core E(nu).

    The first request fills E(nu) (see bound_core) for nu = 1..2^17: the
    near sum is one cumulative sum, the far sum one backward cumulative sum
    plus weighted_sum past the table's end, so its relative accuracy holds
    at every nu.  A request past the end doubles the table and rebuilds the
    far-sum term tables.  omega(1/nu) thus does not depend on which nu were
    asked for first below 2^17.
    """

    nu_cap = NU_CAP
    batch = _OmegaTable.batch

    def _fill(self, top):
        k, p = self.params.k, self.params.p
        nu = np.arange(1, top + 1, dtype=float)
        a_p = self.seq.values(1, top)
        a_p **= p
        near = nu ** ((k + 1) * p - 2)
        near *= a_p
        np.cumsum(near, out=near)
        terms = nu ** (p - 2)
        terms *= a_p
        far = a_p
        far[-1] = 0.0
        np.cumsum(terms[:0:-1], out=far[-2::-1])
        far += weighted_sum(self.seq, WeightedSumSpec(q=p, s=p - 2, m=top + 1))
        far **= 1.0 / p
        near **= 1.0 / p
        nu **= -float(k)
        near *= nu
        near += far
        return near


class DirectModulusSource(_OmegaTable):
    """Direct moduli omega(1/nu), nu = 1..top, from one ascending shift grid.

    The grid holds the endpoints 1/nu and H geometric points per octave of
    (1/top, 1]; the running max of ||Delta_h^k f||_p over it gives every
    omega(1/nu) = sup_{0 < h <= 1/nu} at once.  The series stops at 8 * top
    harmonics; at p = 2 the rest adds C(2k, k) sum_{mu > N} a_mu^2, the mean
    of |2 sin(x/2)|^(2k) being C(2k, k).  top starts at nu_cap and doubles
    when a larger nu is asked for, which refills omega at every nu and
    rebuilds the far-sum term tables.  All DIVERGENT if sum a^p nu^(p-2) is.
    """

    batch = _OmegaTable.batch
    RULES = (("H", ("H",), positive_integer, "must be a positive integer"),)

    def __init__(self, seq, params, H=16, nu_cap=2048):
        self.H = H
        check_rules(self)
        super().__init__(seq, params)
        self.nu_cap = nu_cap

    def _fill(self, top):
        k, p = self.params.k, self.params.p
        tail_vanishes = getattr(self.seq.tail, "c", 0.0) == 0
        horizon = min(8 * top, self.seq.horizon) if tail_vanishes else 8 * top
        ends = 1.0 / np.arange(1, top + 1)
        steps = np.arange(math.ceil(self.H * math.log2(top)) + 1)
        hs = np.union1d(ends, 2.0 ** (-steps / self.H))
        norms = difference_norms(self.seq, horizon, k, hs, p,
                                 QuadratureSpec(M=grid_size(horizon)))
        if p == 2:
            rest = weighted_sum(self.seq, WeightedSumSpec(q=2, s=0, m=horizon + 1))
            norms = np.sqrt(norms ** 2 + math.pi * math.comb(2 * k, k) * rest)
        return np.maximum.accumulate(norms)[np.searchsorted(hs, ends)]


def extrapolated_tail_sum(term, start, rel_tol=SEMINORM_REL_TOL, cap=NU_CAP):
    """Sum term(nu) for nu >= start with a power-fit remainder.

    Terms are summed in doubling blocks; the remainder beyond the cutoff
    is estimated by integral comparison against the power law fitted to
    the last block.  Returns DIVERGENT when the fitted decay exponent
    stays at or below 1 up to the cap, or when the remainder bound still
    exceeds DIVERGENCE_FRACTION of the partial value there.  A start at or
    past the cap doubles the cap (as DirectModulusSource doubles its table)
    until two terms fit below it; that sum ends at the raised cap with its
    fitted remainder, whatever its size, when the exponent exceeds 1.
    term is called with each block's consecutive integers nu, ascending.
    """
    raised = start >= cap
    while raised and cap <= start + 1:
        cap *= 2
    total = 0.0
    lo = start
    width = max(64, start)
    qexp = None
    rem = None
    while True:
        hi = min(lo + width, cap)
        tv = term(np.arange(lo, hi))
        if np.any(~np.isfinite(tv)):
            return DIVERGENT
        total += float(tv.sum())
        first, last = float(tv[0]), float(tv[-1])
        if last == 0.0:
            return total
        if first > 0 and hi - 1 > lo:
            qexp = math.log(first / last) / math.log((hi - 1) / lo)
        if qexp is not None and qexp > 1.0 + 1e-6:
            rem = last * (hi - 1) / (qexp - 1.0)
            if rem <= rel_tol * (total + rem):
                return total + rem
        if hi >= cap:
            if qexp is None or qexp <= 1.0 + 1e-6:
                return DIVERGENT
            if not raised and rem is not None and rem > DIVERGENCE_FRACTION * total:
                return DIVERGENT
            return total + (rem or 0.0)
        lo = hi
        width *= 2


def _power_summand(om, nu, th, e):
    """J's far-sum term omega^theta nu^e."""
    return om ** th * nu ** e


def _cell_summand(om, nu, th, c):
    """I's far-cell term: omega^theta times int t^(-c-1) dt over [1/(nu+1), 1/nu]."""
    return om ** th * ((nu + 1) ** c - nu ** c) / c


def integral_seminorm(seq, cp, delta, source, rel_tol=SEMINORM_REL_TOL):
    """I(delta): cell-discretized weighted integral of omega^theta.

    The t-weight is integrated in closed form on each cell
    [1/(nu+1), 1/nu], with omega evaluated at 1/nu; partial end cells
    are truncated at delta.  Returns DIVERGENT if the small-t part fails
    to converge.  The far cells' terms come from the source's term table
    (see _OmegaTable.tail_term).
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    th = cp.theta
    c1 = cp.r * th
    c2 = (cp.r + cp.lam) * th
    nu0 = math.ceil(1.0 / delta)
    cap = min(source.nu_cap, NU_CAP)

    # small-t piece: cells at and beyond nu0, top cell clipped at delta
    w_top = ((nu0 + 1) ** c1 - delta ** (-c1)) / c1
    top_val = source.batch(np.array([nu0]))[0]
    if not math.isfinite(top_val):
        return DIVERGENT
    s1 = top_val ** th * w_top

    term = source.tail_term(_cell_summand, th, c1)
    rest = extrapolated_tail_sum(term, nu0 + 1, rel_tol=rel_tol, cap=cap)
    if rest == DIVERGENT:
        return DIVERGENT
    s1 += rest

    # large-t piece: cells 1 .. nu0-1, bottom cell clipped at delta
    s2 = 0.0
    if nu0 > 1:
        nus = np.arange(1, nu0, dtype=int)
        om = source.batch(nus)
        if np.any(~np.isfinite(om)):
            return DIVERGENT
        nuf = nus.astype(float)
        w2 = ((nuf + 1) ** c2 - nuf ** c2) / c2
        w2[-1] = (delta ** (-c2) - (nu0 - 1) ** c2) / c2
        s2 = float(np.sum(om ** th * w2))

    return (s1 + delta ** (cp.lam * th) * s2) ** (1.0 / th)


def discrete_seminorm(seq, cp, n, source, rel_tol=SEMINORM_REL_TOL):
    """J(n): discrete seminorm built from omega(1/nu) samples.

    The far sum's terms come from the source's term table (see
    _OmegaTable.tail_term).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    th = cp.theta
    cap = min(source.nu_cap, NU_CAP)

    term = source.tail_term(_power_summand, th, cp.r * th - 1)
    far = extrapolated_tail_sum(term, n + 1, rel_tol=rel_tol, cap=cap)
    if far == DIVERGENT:
        return DIVERGENT
    nus = np.arange(1, n + 1, dtype=int)
    om = source.batch(nus)
    if np.any(~np.isfinite(om)):
        return DIVERGENT
    near = float(np.sum(om ** th * nus.astype(float) ** ((cp.r + cp.lam) * th - 1)))
    return (far + n ** (-cp.lam * th) * near) ** (1.0 / th)


def coefficient_functional(seq, cp, n):
    """K(n): the coefficient-based functional, via weighted sums."""
    if n < 1:
        raise ValueError("n must be >= 1")
    th, p = cp.theta, cp.p
    e_far = cp.r * th + th - th / p - 1
    e_near = e_far + cp.lam * th
    far = weighted_sum(seq, WeightedSumSpec(q=th, s=e_far, m=n + 1))
    if far == DIVERGENT:
        return DIVERGENT
    near = weighted_sum(seq, WeightedSumSpec(q=th, s=e_near, m=1, n=n))
    return (far + n ** (-cp.lam * th) * near) ** (1.0 / th)


@dataclass
class MembershipReport:
    functional: str
    grid: list
    values: list
    ratios: list
    sup_ratio: float | None
    verdict: str  # "bounded" | "unbounded" | "divergent"
    meta: dict = field(default_factory=dict)

    @property
    def in_class(self):
        return self.verdict == "bounded"


#: stabilization rule: running sup may grow by at most this fraction
#: over the last doubling of n to still count as bounded
STABILIZATION_TOL = 1e-2


def membership_test(seq, cp, phi, functional="K", n_grid=None, source=None,
                    rel_tol=SEMINORM_REL_TOL):
    """Grid-evidence verdict on sup_n functional(n)/phi(1/n).

    functional is one of "I", "J", "K"; for "I" the scale is
    delta_n = 1/(n+1).  A divergent functional value yields the
    "divergent" verdict immediately.
    """
    if functional not in ("I", "J", "K"):
        raise ValueError("functional must be one of I, J, K")
    if n_grid is None:
        n_grid = [2 ** j for j in range(1, 13)]
    n_grid = sorted(int(n) for n in n_grid)
    if functional in ("I", "J") and source is None:
        source = CoreModulusSource(seq, cp.smoothness)
    if phi.variant == "power" and phi.alpha >= cp.lam:
        raise ValueError("power phi needs alpha < lambda")

    values = []
    for n in n_grid:
        if functional == "K":
            v = coefficient_functional(seq, cp, n)
        elif functional == "J":
            v = discrete_seminorm(seq, cp, n, source, rel_tol=rel_tol)
        else:
            v = integral_seminorm(seq, cp, 1.0 / (n + 1), source, rel_tol=rel_tol)
        if v == DIVERGENT:
            return MembershipReport(functional, n_grid, values + [DIVERGENT],
                                    [], None, "divergent")
        values.append(v)

    ratios = [v / phi_eval(phi, 1.0 / n) for v, n in zip(values, n_grid)]
    sup_ratio = max(ratios)
    # bounded iff the running sup stabilized: either its growth over the
    # last doubling of n is already below tolerance, or that growth has
    # visibly decayed since the middle of the grid (slowly converging
    # families such as the critical power laws)
    run = np.maximum.accumulate(ratios)
    growth = run[1:] / run[:-1] - 1.0 if len(run) > 1 else np.array([0.0])
    g_last = float(growth[-1])
    g_mid = float(growth[len(growth) // 2])
    verdict = "bounded" if (
        g_last < STABILIZATION_TOL
        or (len(growth) >= 4 and g_mid > 0 and g_last <= 0.7 * g_mid)
    ) else "unbounded"
    return MembershipReport(functional, n_grid, values, ratios, sup_ratio, verdict)


@dataclass
class Band:
    name: str
    ratios: list

    @property
    def lo(self):
        return min(self.ratios) if self.ratios else None

    @property
    def hi(self):
        return max(self.ratios) if self.ratios else None

    @property
    def spread(self):
        return self.hi / self.lo if self.ratios and self.lo > 0 else None

    def to_json(self):
        return {"name": self.name, "min": self.lo, "max": self.hi,
                "spread": self.spread, "ratios": list(self.ratios)}


def equivalence_report(seq, cp, n_grid, source=None, rel_tol=SEMINORM_REL_TOL):
    """Ratio bands J(n)/I(1/(n+1)), K(n)/J(n), omega(1/n)/E(n) over a grid.

    Each band's spread (max/min) is the empirical stand-in for the
    two-sided equivalence constants.  Divergent entries are skipped.
    """
    n_grid = sorted(int(n) for n in n_grid)
    if source is None:
        source = DirectModulusSource(seq, cp.smoothness)
    ji, kj, we = [], [], []
    values = {"n": n_grid, "I": [], "J": [], "K": [], "omega": [], "E": []}
    for n in n_grid:
        jv = discrete_seminorm(seq, cp, n, source, rel_tol=rel_tol)
        iv = integral_seminorm(seq, cp, 1.0 / (n + 1), source, rel_tol=rel_tol)
        kv = coefficient_functional(seq, cp, n)
        ev = bound_core(seq, cp.smoothness, n)
        wv = float(source.batch(np.array([n]))[0])
        values["I"].append(iv)
        values["J"].append(jv)
        values["K"].append(kv)
        values["omega"].append(wv)
        values["E"].append(ev)
        if DIVERGENT not in (jv, iv) and iv > 0:
            ji.append(jv / iv)
        if DIVERGENT not in (kv, jv) and jv > 0:
            kj.append(kv / jv)
        if ev != DIVERGENT and ev > 0:
            we.append(wv / ev)
    return {
        "values": values,
        "bands": {
            "JI": Band("J/I", ji),
            "KJ": Band("K/J", kj),
            "wE": Band("omega/E", we),
        },
    }
