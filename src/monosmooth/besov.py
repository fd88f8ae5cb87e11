"""Class-membership functionals for monotone cosine series.

Three scale functionals are implemented on a common footing:

* I(delta)  -- weighted integral of the modulus of smoothness, evaluated
  through the dyadic-harmonic cell discretization with the t-weight
  integrated in closed form per cell;
* J(n)      -- its discrete counterpart built from omega(1/nu) samples;
* K(n)      -- the purely coefficient-based functional.

Membership verdicts compare a functional against an admissible weight
function phi through the closed form of the tail model; a grid of n keeps
the evidence beside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequences import (_CRITICAL_TOL, _EXP_NODES, _EXP_WEIGHTS, DIVERGENT, WeightedSumSpec,
                        _exp_quadrature, check_rules, positive_integer, weighted_sum)
from .smoothness import (K_RULE, QuadratureSpec, SmoothnessParams, bound_core,
                         difference_norms, grid_size)

#: smallest core table: the far sums' closure error falls like its size^-2
NU_CAP = 2 ** 13


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


def _decay(x, y, order, power):
    """(x', y') with F(n) ~ n^-x' (ln n)^-y' for g(nu) ~ nu^-x (ln nu)^-y, x >= 0,
    F(n) = n^-order (sum_{nu<=n} g^P nu^(order P - 1))^(1/P) + (sum_{nu>n} g^P / nu)^(1/P),
    P = power; at x = 0 or order (within _CRITICAL_TOL) a sum has a ln n power."""
    if abs(x) <= _CRITICAL_TOL:
        return 0.0, y - 1.0 / power
    if x < order - _CRITICAL_TOL:
        return x, y
    if x > order + _CRITICAL_TOL:
        return float(order), 0.0
    return float(order), min(y - 1.0 / power, 0.0)


def tail_decay(tail, params):
    """(x_E, y): the tail model's E(nu) decays like nu^-x_E (ln nu)^-y; E is
    _decay's F for g = a_nu nu^(1 - 1/p), order k and power p."""
    if tail.c == 0:
        return float(params.k), 0.0
    return _decay(tail.beta - 1 + 1 / params.p, tail.gamma, params.k, params.p)


def _log_q(upper, scale, sign, g):
    """ln int_0^upper e^-t (1 + sign t/scale)^-g dt for arrays upper, scale."""
    if g == 0:
        return np.log(-np.expm1(-upper))
    if np.all(np.isinf(upper)):
        nodes, weights = _EXP_NODES, _EXP_WEIGHTS
    else:
        nodes, weights = _exp_quadrature(upper)
    f = np.exp(-g * np.log1p(sign * nodes / scale[:, None]))
    return np.log((f * weights).sum(axis=1))


class _OmegaTable:
    """omega(1/nu), nu = 1..top, looked up in one table that _fill(top) builds.

    top starts at nu_cap and doubles when a larger nu is asked for.  All
    DIVERGENT, with no table, if sum a^p nu^(p-2) is.  Beside it are the
    far-sum suffix tables of I and J (far_sums).  A modulus source is a
    subclass with nu_cap and _fill(top); it names batch in its own class
    body, so that it can be wrapped per class.
    """

    def __init__(self, seq, params):
        self.seq = seq
        self.params = params
        self._omega = np.array([], dtype=float)
        self._sums = {}
        self._core = None
        self._divergent = not seq.tail.converges(params.p, params.p - 2)

    def _grow(self, nu):
        top = max(self._omega.size, self.nu_cap)
        while top < nu:
            top *= 2
        if top > self._omega.size:
            self._omega = self._fill(top)
            self._sums = {}

    def batch(self, nus):
        nus = np.asarray(nus, dtype=int)
        if self._divergent:
            return np.full(nus.shape, DIVERGENT)
        self._grow(nus.max(initial=0))
        return self._omega[nus - 1]

    def __call__(self, nu):
        return float(self.batch(np.array([nu]))[0])

    def far_sums(self, cell, theta, c):
        """sums(starts): sum_{nu >= start} omega(1/nu)^theta w(nu) per start,
        w(nu) = nu^(c-1) (J) or, with cell, ((nu+1)^c - nu^c)/c (I's cells).

        One lookup in a suffix table, the terms' reverse cumulative sum plus
        _closure's sum past top, built on first use and dropped with omega.
        """
        key = (cell, theta, c)

        def sums(starts):
            if self._divergent:
                return np.full(starts.shape, DIVERGENT)
            self._grow(starts.max(initial=0))
            if key not in self._sums:
                rest = self._closure(cell, theta, c)
                nu = np.arange(1, self._omega.size + 1, dtype=float)
                w = ((nu + 1) ** c - nu ** c) / c if cell else nu ** (c - 1)
                terms = self._omega ** theta * w
                self._sums[key] = np.append(np.cumsum(terms[::-1])[::-1] + rest, rest)
            return self._sums[key][starts - 1]

        return sums

    def _closure(self, cell, theta, c):
        """The far sum past top: the core source's, scaled by
        (omega(1/top)/E(top))^theta so that it continues this table."""
        top = self._omega.size
        if self._core is None:
            self._core = CoreModulusSource(self.seq, self.params)
        rest = extrapolated_tail_sum(self._core.far_sums(cell, theta, c), top + 1)
        if rest in (0.0, DIVERGENT):  # E(top) > 0 whenever rest > 0
            return rest
        return (self._omega[-1] / self._core(top)) ** theta * rest


class CoreModulusSource(_OmegaTable):
    """omega(1/nu) surrogate built from the coefficient core E(nu).

    The first request fills E(nu) (see bound_core) for nu = 1..T, T the
    smallest power of two >= max(NU_CAP, horizon, the largest nu asked
    for): the near sum is one cumulative sum, the far sum one backward
    cumulative sum plus weighted_sum past the table's end.  A request past
    the end doubles the table.  Past T, _closure sums I's and J's far sums.
    """

    batch = _OmegaTable.batch

    def __init__(self, seq, params):
        super().__init__(seq, params)
        self.nu_cap = max(NU_CAP, 1 << (seq.horizon - 1).bit_length())

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

    def _closure(self, cell, theta, c):
        """sum_{nu > top} E(nu)^theta w(nu) past the table's end, top.

        The tail model a_u = c_t u^-beta (1 + ln u)^-gamma continues E:
        E(x) = x^-k (N_top + int_{top+1/2}^{x+1/2} a^p u^((k+1)p-2) du)^(1/p)
             + (int_{x+1/2}^inf a^p u^(p-2) du)^(1/p),
        N_top the table's near sum.  The sum is the integral of E^theta w
        over [top + 1/2, inf), w(x) = x^(c-1) (J) or (x + 1/2)^(c-1) (I),
        to O(top^-2).  Its summand goes like x^-q (ln x)^(-theta y), with
        q = theta x_E - c + 1 (tail_decay): DIVERGENT when q < 1, or q = 1
        within _CRITICAL_TOL and theta y <= 1.  In log space, l = ln x and
        E = x^-x_E Et, w = (q - 1)(l - l0) maps the integral onto _EXP_NODES
        (at q = 1, w = (theta y - 1) ln(l/l0), and nodes past l0 e^700 are
        dropped); the inner integrals are _log_q's.
        """
        tail, top = self.seq.tail, self._omega.size
        k, p = self.params.k, self.params.p
        xe, ye = tail_decay(tail, self.params)
        q1 = theta * xe - c
        critical = abs(q1) <= _CRITICAL_TOL
        if q1 < 0 or critical and theta * ye <= 1:
            return DIVERGENT
        l0 = math.log(top + 0.5)
        if critical:
            rho = theta * ye - 1
            keep = _EXP_NODES / rho <= 700
            ell = l0 * np.exp(_EXP_NODES[keep] / rho)
            log_jac = _EXP_NODES[keep] + np.log(ell) - math.log(rho)
            weights = _EXP_WEIGHTS[keep]
        else:
            ell = l0 + _EXP_NODES / q1
            log_jac = np.full(ell.shape, -q1 * l0 - math.log(q1))
            weights = _EXP_WEIGHTS
        near_top = weighted_sum(self.seq, WeightedSumSpec(q=p, s=(k + 1) * p - 2, m=1, n=top))
        with np.errstate(divide="ignore"):
            log_near = p * (xe - k) * ell + np.log(near_top)
        if tail.c == 0:
            log_e = log_near / p
        else:
            g = p * tail.gamma
            delta = np.log1p(0.5 * np.exp(-ell))  # ln(x + 1/2) - l
            vy = 1.0 + ell + delta
            lc = math.log(tail.c)
            xf = tail.beta - 1 + 1 / p
            bf, b = p * xf, p * (k - xf)
            # grown: ln of x^(p (x_E - k)) int_{top+1/2}^y (a/c_t)^p u^((k+1)p-2) du
            span = ell + delta - l0
            if b > -_CRITICAL_TOL:  # u = y e^(-t/b); a b near 0 counts as _CRITICAL_TOL
                b = max(b, _CRITICAL_TOL)
                grown = (p * (xe - xf) * ell + b * delta - g * np.log(vy) - math.log(b)
                         + _log_q(b * span, b * vy, -1.0, g))
            else:  # u = (top + 1/2) e^(t/|b|)
                v0 = 1.0 + l0
                grown = (b * l0 - g * math.log(v0) - math.log(-b)
                         + _log_q(-b * span, np.full(ell.shape, -b * v0), 1.0, g))
            log_near = np.logaddexp(log_near, p * lc + grown)
            log_far = (lc + (xe - xf) * ell - xf * delta
                       + (_log_q(np.inf, bf * vy, 1.0, g) - g * np.log(vy) - math.log(bf)) / p)
            log_e = np.logaddexp(log_near / p, log_far)
        log_w = (c - 1) * np.log1p(0.5 * np.exp(-ell)) if cell else 0.0
        terms = log_jac + theta * log_e + log_w
        top_term = terms.max(initial=-np.inf)
        if top_term == -np.inf:
            return 0.0
        return math.exp(top_term) * float(weights @ np.exp(terms - top_term))


class DirectModulusSource(_OmegaTable):
    """Direct moduli omega(1/nu), nu = 1..top, from one ascending shift grid.

    The grid holds the endpoints 1/nu and H geometric points per octave of
    (1/top, 1]; the running max of ||Delta_h^k f||_p over it gives every
    omega(1/nu) = sup_{0 < h <= 1/nu} at once.  The series stops at 8 * top
    harmonics; at p = 2 the rest adds C(2k, k) sum_{mu > N} a_mu^2, the mean
    of |2 sin(x/2)|^(2k) being C(2k, k).  top starts at nu_cap and doubles
    when a larger nu is asked for, which refills omega at every nu.
    """

    batch = _OmegaTable.batch
    RULES = (("H", ("H",), positive_integer, "must be a positive integer"),)
    nu_cap = 2048

    def __init__(self, seq, params, H=16):
        self.H = H
        check_rules(self)
        super().__init__(seq, params)

    def _fill(self, top):
        k, p = self.params.k, self.params.p
        horizon = min(8 * top, self.seq.horizon) if self.seq.tail.c == 0 else 8 * top
        ends = 1.0 / np.arange(1, top + 1)
        steps = np.arange(math.ceil(self.H * math.log2(top)) + 1)
        hs = np.union1d(ends, 2.0 ** (-steps / self.H))
        norms = difference_norms(self.seq, horizon, k, hs, p,
                                 QuadratureSpec(M=grid_size(horizon)))
        if p == 2:
            rest = weighted_sum(self.seq, WeightedSumSpec(q=2, s=0, m=horizon + 1))
            norms = np.sqrt(norms ** 2 + math.pi * math.comb(2 * k, k) * rest)
        return np.maximum.accumulate(norms)[np.searchsorted(hs, ends)]


def extrapolated_tail_sum(term, start):
    """sum_{nu >= start} of a far-sum summand: one lookup of term, a
    source's far_sums.  DIVERGENT when the tail model's far sum diverges."""
    return float(term(np.array([start]))[0])


def integral_seminorm(cp, delta, source):
    """I(delta): cell-discretized weighted integral of omega^theta.

    The t-weight is integrated in closed form on each cell
    [1/(nu+1), 1/nu], with omega evaluated at 1/nu; partial end cells
    are truncated at delta.  The far cells' sum, DIVERGENT or not, is a
    lookup in the source's suffix table (see _OmegaTable.far_sums).
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    th = cp.theta
    c1, c2 = cp.r * th, (cp.r + cp.lam) * th
    nu0 = math.ceil(1.0 / delta)

    # small-t piece: cells at and beyond nu0, top cell clipped at delta
    rest = extrapolated_tail_sum(source.far_sums(True, th, c1), nu0 + 1)
    if rest == DIVERGENT:
        return DIVERGENT
    w_top = ((nu0 + 1) ** c1 - delta ** (-c1)) / c1
    s1 = source.batch(np.array([nu0]))[0] ** th * w_top + rest

    # large-t piece: cells 1 .. nu0-1, bottom cell clipped at delta
    s2 = 0.0
    if nu0 > 1:
        nus = np.arange(1, nu0, dtype=int)
        om = source.batch(nus)
        nuf = nus.astype(float)
        w2 = ((nuf + 1) ** c2 - nuf ** c2) / c2
        w2[-1] = (delta ** (-c2) - (nu0 - 1) ** c2) / c2
        s2 = float(np.sum(om ** th * w2))

    return (s1 + delta ** (cp.lam * th) * s2) ** (1.0 / th)


def discrete_seminorm(cp, n, source):
    """J(n): discrete seminorm built from omega(1/nu) samples; the far sum is
    a lookup in the source's suffix table (see _OmegaTable.far_sums)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    th = cp.theta
    far = extrapolated_tail_sum(source.far_sums(False, th, cp.r * th), n + 1)
    if far == DIVERGENT:
        return DIVERGENT
    nus = np.arange(1, n + 1, dtype=int)
    om = source.batch(nus)
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
    grid_verdict: str  # the stabilization rule's, on the grid

    @property
    def in_class(self):
        return self.verdict == "bounded"

    @property
    def grid_disagrees(self):
        return self.grid_verdict != self.verdict


#: stabilization rule: running sup may grow by at most this fraction
#: over the last doubling of n to still count as bounded
STABILIZATION_TOL = 1e-2


def closed_form_verdict(seq, cp, phi):
    """The tail model's verdict on sup_n K(n)/phi(1/n), shared by J and I.

    "divergent" when K's far sum diverges (tail.converges).  Otherwise K,
    J and I go like n^-x (ln n)^-y, (x, y) = _decay(x_E - r, y_E, lambda,
    theta) from tail_decay, and phi(1/n) = n^-alpha (1 + ln n)^gamma: the
    ratio's n^(alpha - x) (ln n)^(-y - gamma) is bounded iff alpha - x < 0,
    or alpha - x = 0 within _CRITICAL_TOL and -y - gamma <= 0.
    """
    th = cp.theta
    if not seq.tail.converges(th, cp.r * th + th - th / cp.p - 1):
        return "divergent"
    xe, ye = tail_decay(seq.tail, cp.smoothness)
    x, y = _decay(xe - cp.r, ye, cp.lam, th)
    alpha = 0.0 if phi.variant == "constant" else phi.alpha
    power = alpha - x
    log = -y - (phi.gamma if phi.variant == "power_log" else 0.0)
    if power < -_CRITICAL_TOL or abs(power) <= _CRITICAL_TOL and log <= 0:
        return "bounded"
    return "unbounded"


def _grid_verdict(ratios):
    # bounded iff the running sup stabilized: either its growth over the
    # last doubling of n is already below tolerance, or that growth has
    # visibly decayed since the middle of the grid (slowly converging
    # families such as the critical power laws).  A sup that stays at 0 has
    # not grown; one that leaves 0 has grown without bound.
    run = np.maximum.accumulate(ratios)
    prev, cur = run[:-1], run[1:]
    growth = np.divide(cur, prev, out=np.where(cur > prev, np.inf, 1.0), where=prev > 0) - 1.0
    if not growth.size:
        growth = np.array([0.0])
    g_last = float(growth[-1])
    g_mid = float(growth[len(growth) // 2])
    return "bounded" if (
        g_last < STABILIZATION_TOL
        or (len(growth) >= 4 and g_mid > 0 and g_last <= 0.7 * g_mid)
    ) else "unbounded"


def membership_test(seq, cp, phi, functional="K", n_grid=None):
    """Verdict on sup_n functional(n)/phi(1/n), with grid evidence.

    functional is one of "I", "J", "K"; for "I" the scale is
    delta_n = 1/(n+1).  The verdict is closed_form_verdict's.  The grid's
    values stop at the first divergent one; the stabilization rule's
    verdict on them is grid_verdict ("divergent" if a value diverged).
    """
    if functional not in ("I", "J", "K"):
        raise ValueError("functional must be one of I, J, K")
    if n_grid is None:
        n_grid = [2 ** j for j in range(1, 13)]
    n_grid = sorted(int(n) for n in n_grid)
    if functional in ("I", "J"):
        source = CoreModulusSource(seq, cp.smoothness)
    if phi.variant == "power" and phi.alpha >= cp.lam:
        raise ValueError("power phi needs alpha < lambda")

    verdict = closed_form_verdict(seq, cp, phi)
    values = []
    for n in n_grid:
        if functional == "K":
            v = coefficient_functional(seq, cp, n)
        elif functional == "J":
            v = discrete_seminorm(cp, n, source)
        else:
            v = integral_seminorm(cp, 1.0 / (n + 1), source)
        if v == DIVERGENT:
            return MembershipReport(functional, n_grid, values + [DIVERGENT],
                                    [], None, verdict, "divergent")
        values.append(v)

    ratios = [v / phi_eval(phi, 1.0 / n) for v, n in zip(values, n_grid)]
    return MembershipReport(functional, n_grid, values, ratios, max(ratios), verdict,
                            _grid_verdict(ratios))


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


def equivalence_report(seq, cp, n_grid, source=None):
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
        jv = discrete_seminorm(cp, n, source)
        iv = integral_seminorm(cp, 1.0 / (n + 1), source)
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
