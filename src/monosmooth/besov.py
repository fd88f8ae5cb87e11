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
from numbers import Real

import numpy as np

from .sequences import (_CRITICAL_TOL, _TINY, DIVERGENT, _exp_quadrature, _exp_rule, check_rules,
                        positive_integer, weighted_sum)
from .smoothness import (K_RULE, SHIFTS_PER_OCTAVE, SmoothnessParams, bound_core,
                         core_table, difference_norms, parseval_scale, shift_grid)

#: smallest core table: the far sums' closure error falls like its size^-2
NU_CAP = 2 ** 13
#: memory budget of the direct source: its series holds 8 top harmonics per
#: array, 2^17 floats (1 MiB) at top = 2^14, and its fill grows as top^2
DIRECT_TOP_MAX = 2 ** 14


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
        # J and I are sums to the power 1/theta, and I's cell weights divide
        # by r theta; for values that pass the rows above
        ("theta", ("theta", "r"),
         lambda th, r: not (isinstance(th, Real) and isinstance(r, Real) and th > 0 and r > 0)
         or 1 / th < math.inf and 0 < r * th < math.inf,
         "1/theta and r theta must be finite and nonzero, got theta = {!r}, r = {!r}"),
        ("lam", ("lam",), lambda v: v > 0, "must be positive"),
        ("p", ("p",), lambda v: 1 < v < math.inf, "must lie in (1, inf)"),
        K_RULE,
        ("k", ("k", "r", "lam"), lambda k, r, lam: k > r + lam, "must exceed r + lam"),
    )

    def __post_init__(self):
        check_rules(self, floats=("theta", "r", "lam", "p"))

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
        if not isinstance(self.variant, str) or self.variant not in PHI_ARGS:
            raise ValueError(f"unknown phi variant: {self.variant!r}")
        name, args = self.variant.replace("_", "-"), PHI_ARGS[self.variant]
        missing = [a for a in args if getattr(self, a) is None]
        if missing:
            raise ValueError(f"{name} phi needs {' and '.join(missing)}")
        if getattr(self, args[0]) <= 0:  # alpha, or c
            raise ValueError(f"{name} phi needs {args[0]} > 0")
        if not all(math.isfinite(getattr(self, a)) for a in args):
            raise ValueError(f"{name} phi needs finite {' and '.join(args)}")

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


#: _log_q's rows per block: 32 rows of 384 nodes are 96 KiB an array
_LOG_Q_ROWS = 32


def _log_q(upper, scale, sign, g):
    """ln int_0^upper e^-t (1 + sign t/scale)^-g dt for arrays (or scalars) upper and
    scale, on _exp_rule cut at each row's upper, _LOG_Q_ROWS rows at a time: a temporary
    past glibc's 128 KiB mmap threshold would leave the allocator slower for the run."""
    if g == 0:
        return np.log(-np.expm1(-upper))
    upper, scale = np.broadcast_arrays(upper, scale)
    out = np.empty(upper.shape)
    for i in range(0, upper.size, _LOG_Q_ROWS):
        rows = slice(i, i + _LOG_Q_ROWS)
        nodes, weights = _exp_rule(upper[rows])
        weights *= np.exp(-g * np.log1p(sign * nodes / scale[rows, None]))
        out[rows] = np.log(weights.sum(axis=1))
    return out


def _check_weight(c, nu):
    """Refuse a weight nu^c of I or J that would reach 2^1000, at an int nu
    or the least such nu of an array."""
    nu = np.asarray(nu)
    bad = nu[c * np.log2(nu) >= 1000]
    if bad.size:
        raise ValueError(f"theta: nu^{c:g}, a weight of I or J, leaves the float range "
                         f"at nu = {bad.min()}")


def _theta_root(total, th, name, label, at):
    """total^(1/theta) for I or J, refused (ValueError) where it leaves the
    float range, as coefficient_functional refuses K; at: the grid, whose
    first such point is named."""
    with np.errstate(over="ignore"):
        root = total ** (1.0 / th)
    bad = ~(root < math.inf)
    if bad.any():
        raise ValueError(f"theta: {name} (a sum to the power 1/theta = {1 / th:g}) leaves the "
                         f"float range at {label} = {at[bad][0]:g}")
    return root


def _shaped(n, values):
    """values over the grid n as n was given: a float for a single n, whose
    grid is the one-point array, so that its float comes from the same
    array loops as a longer grid's."""
    return float(values[0]) if np.ndim(n) == 0 else values


class _OmegaTable:
    """omega(1/nu), nu = 1..top, looked up in one table that _fill(top) builds.

    The first top is the smallest power of two that is at least nu_cap and
    the first nu asked for; a later request past top doubles it until it
    fits.  All DIVERGENT, with no table, if sum a^p nu^(p-2) is.  A modulus
    source is a subclass with nu_cap and _fill(top); it names batch in its
    own class body, so that it can be wrapped per class.  The sources of
    this module keep each table, and the core closure's nodes, in the
    sequence's store (CoefficientSequence._store), keyed by every other
    input that fixes them, so that a new source on the same sequence reads
    them and does not build them again.
    """

    def __init__(self, seq, params):
        self.seq = seq
        self.params = params
        self._omega = np.array([], dtype=float)
        self._divergent = not seq.tail.converges(params.p, params.p - 2)

    def _grow(self, nu):
        top = max(self._omega.size, self.nu_cap)
        while top < nu:
            top *= 2
        if top > self._omega.size:
            self._omega = self._fill(top)

    def batch(self, nus):
        nus = np.asarray(nus, dtype=int)
        if self._divergent:
            return np.full(nus.shape, DIVERGENT)
        self._grow(nus.max(initial=0))
        return self._omega[nus - 1]

    def __call__(self, nu):
        return float(self.batch(np.array([nu]))[0])

    def far_sums(self, cell, theta, c, starts):
        """sum_{nu >= start} omega(1/nu)^theta w(nu) per start of the array
        starts, w(nu) = nu^(c-1) (J) or, with cell, ((nu+1)^c - nu^c)/c (I's
        cells): the terms' reverse cumulative sum over the table plus
        _closure's sum past top."""
        if self._divergent:
            return np.full(starts.shape, DIVERGENT)
        self._grow(starts.max(initial=0))
        _check_weight(c, self._omega.size + 1)
        rest = self._closure(cell, theta, c)
        nu = np.arange(1, self._omega.size + 1, dtype=float)
        w = ((nu + 1) ** c - nu ** c) / c if cell else nu ** (c - 1)
        terms = self._omega ** theta * w
        return np.append(np.cumsum(terms[::-1])[::-1] + rest, rest)[starts - 1]

    def _closure(self, cell, theta, c):
        """The far sum past top: the core source's, scaled by
        (omega(1/top)/E(top))^theta so that it continues this table."""
        top = self._omega.size
        core = CoreModulusSource(self.seq, self.params)
        rest = extrapolated_tail_sum(lambda starts: core.far_sums(cell, theta, c, starts), top + 1)
        if rest in (0.0, DIVERGENT):  # E(top) > 0 whenever rest > 0
            return rest
        return (self._omega[-1] / core(top)) ** theta * rest


class CoreModulusSource(_OmegaTable):
    """omega(1/nu) surrogate built from the coefficient core E(nu): the
    first request fills smoothness.core_table for nu = 1..T, T the smallest
    power of two >= max(NU_CAP, horizon, the largest nu asked for); a
    request past T doubles it, and _closure sums I's and J's far sums past
    it.  The table is kept on the sequence under ("core", k, p, T)."""

    batch = _OmegaTable.batch

    def __init__(self, seq, params):
        super().__init__(seq, params)
        self.nu_cap = max(NU_CAP, 1 << (seq.horizon - 1).bit_length())

    def _fill(self, top):
        k, p = self.params.k, self.params.p
        table, self._log_near_top = self.seq._store.get(
            ("core", k, p, top), lambda: core_table(self.seq, self.params, top))
        return table

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
        E = x^-x_E Et, w = (q - 1)(l - l0) maps the integral onto the nodes
        of _exp_quadrature (at q = 1, w = (theta y - 1) ln(l/l0), and a node past l0 e^700
        takes the summand's asymptotic form, whose term is constant in w);
        E's inner integrals are _log_q's, each on _exp_rule cut at its
        node.  The nodes' l, log-Jacobian and ln E (_log_e) are
        kept on the sequence under ("closure", k, p, top, q - 1, theta y - 1),
        so that J and I, and every source of that table, share them.
        """
        tail = self.seq.tail
        xe, ye = tail_decay(tail, self.params)
        q1, rho = theta * xe - c, theta * ye - 1
        critical = abs(q1) <= _CRITICAL_TOL
        if q1 < 0 or critical and theta * ye <= 1:
            return DIVERGENT
        k, p, top = self.params.k, self.params.p, self._omega.size
        ell, log_jac, log_e = self.seq._store.get(("closure", k, p, top, q1, rho),
                                                  lambda: self._log_e(q1, rho, critical))
        log_w = (c - 1) * np.log1p(0.5 * np.exp(-ell)) if cell else 0.0
        terms = log_jac + theta * log_e + log_w
        nodes, weights = _exp_quadrature()
        if critical:
            # past l0 e^700 the summand is its asymptotic form: E ~ c_t x^-x_f
            # l^-gamma ((p x_f)^-1/p + (p (k - x_f))^-1/p), x_f = x_E = r < k,
            # which makes every such term -rho ln l0 - ln rho + theta ln(E x^x_f l^gamma)
            xf = tail.beta - 1 + 1 / p
            limit = (theta * (math.log(tail.c) + np.logaddexp(-math.log(p * xf) / p,
                                                               -math.log(p * (k - xf)) / p))
                     - rho * math.log(math.log(top + 0.5)) - math.log(rho))
            terms = np.append(terms, np.full(nodes.size - terms.size, limit))
        top_term = terms.max(initial=-np.inf)
        if top_term == -np.inf:
            return 0.0
        return math.exp(top_term) * float(weights @ np.exp(terms - top_term))

    def _log_e(self, q1, rho, critical):
        """(l, the log-Jacobian, ln E) at _closure's nodes for q - 1 = q1 and
        theta y - 1 = rho, which fix them for J and I alike."""
        tail, top = self.seq.tail, self._omega.size
        k, p = self.params.k, self.params.p
        xe = tail_decay(tail, self.params)[0]
        l0 = math.log(top + 0.5)
        nodes = _exp_quadrature()[0]
        if critical:
            cut = np.searchsorted(nodes, 700 * rho, side="right")
            ell = l0 * np.exp(nodes[:cut] / rho)
            log_jac = nodes[:cut] + np.log(ell) - math.log(rho)
        else:
            ell = l0 + nodes / q1
            log_jac = np.full(ell.shape, -q1 * l0 - math.log(q1))
        log_near = p * (xe - k) * ell + self._log_near_top
        if tail.c == 0:
            return ell, log_jac, log_near / p
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
                     + _log_q(-b * span, -b * v0, 1.0, g))
        log_near = np.logaddexp(log_near, p * lc + grown)
        log_far = (lc + (xe - xf) * ell - xf * delta
                   + (_log_q(np.inf, bf * vy, 1.0, g) - g * np.log(vy) - math.log(bf)) / p)
        return ell, log_jac, np.logaddexp(log_near / p, log_far)


class DirectModulusSource(_OmegaTable):
    """Direct moduli omega(1/nu), nu = 1..top, from one ascending shift grid.

    The grid holds the endpoints 1/nu and shift_grid(1, 1/top, H), H
    geometric points per octave of [1/top, 1]; the running max of
    ||Delta_h^k f||_p over it gives every omega(1/nu) = sup_{0 < h <= 1/nu}
    at once.  The series stops at N = 8 * top harmonics; at p = 2 the rest
    adds C(2k, k) sum_{mu > N} a_mu^2, the mean of |2 sin(x/2)|^(2k) being
    C(2k, k).

    The first top is the smallest power of two >= 4 nu, nu the first one
    asked for (the largest n of a grid, when a report sizes the source
    first), and at least nu_cap = 256; a larger nu doubles top, which
    refills omega at every nu.  The fill costs top * 8 top, so the factor
    counts squared: for a_nu = nu^-2, k = 2 and n <= 64, 4 is the smallest
    that keeps every I, J and omega within 1e-4 of a 2048 table at p = 1.5,
    2 and 3 (2 moves them by up to 2.6e-4).  A top past DIRECT_TOP_MAX
    is refused (ValueError) before anything is allocated.  The table is
    kept on the sequence under ("direct", H, k, p, top).
    """

    batch = _OmegaTable.batch
    RULES = (("H", ("H",), positive_integer, "must be a positive integer"),)
    nu_cap = 256

    def __init__(self, seq, params, H=SHIFTS_PER_OCTAVE):
        self.H = H
        check_rules(self)
        super().__init__(seq, params)

    def _grow(self, nu):
        super()._grow(nu if self._omega.size else 4 * nu)

    def _fill(self, top):
        if top > DIRECT_TOP_MAX:
            raise ValueError(f"n_grid: the direct omega table would reach top = {top} "
                             f"(4 max n), past its budget of {DIRECT_TOP_MAX}")
        return self.seq._store.get(("direct", self.H, self.params.k, self.params.p, top),
                                   lambda: self._moduli(top))

    def _moduli(self, top):
        """The table of _fill, built."""
        k, p = self.params.k, self.params.p
        horizon = min(8 * top, self.seq.horizon) if self.seq.tail.c == 0 else 8 * top
        ends = 1.0 / np.arange(1, top + 1)
        hs = np.union1d(ends, shift_grid(1.0, 1.0 / top, self.H))
        norms = difference_norms(self.seq, horizon, k, hs, p)
        if p == 2:
            # in units of the largest coefficient when the squares would
            # leave the normal float range, as difference_norms does, and of
            # 2^k (4^k for the squares), exact powers of two, so that neither
            # the squares nor C(2k, k) leave it at large k
            scale = parseval_scale(self.seq.values(1, horizon), k)
            seq = self.seq if scale == 1 else self.seq.scaled(1 / scale)
            rest = weighted_sum(seq, 2, 0, horizon + 1)
            if rest:  # skipped at 0, where norms ** 2 could leave the float range
                norms = scale * np.ldexp(np.sqrt(np.ldexp(norms / scale, -k) ** 2 + math.pi
                                                 * (math.comb(2 * k, k) / 4 ** k) * rest), k)
        return np.maximum.accumulate(norms)[np.searchsorted(hs, ends)]


def extrapolated_tail_sum(term, start):
    """sum_{nu >= start} of a far-sum summand: one call of term, a source's
    far_sums at one cell, theta and c.  DIVERGENT when the tail model's far
    sum diverges."""
    return float(term(np.array([start]))[0])


def integral_seminorm(cp, delta, source):
    """I(delta), for one delta or an array of them: cell-discretized
    weighted integral of omega^theta.

    The t-weight is integrated in closed form on each cell
    [1/(nu+1), 1/nu], with omega evaluated at 1/nu; partial end cells
    are truncated at delta.  The far cells' sums, DIVERGENT or not, are
    read from one suffix sum over the source's table (_OmegaTable.far_sums),
    and the near cells' sums are one cumulative sum over nu < max 1/delta,
    read at each delta.
    """
    deltas = np.array(delta, dtype=float, ndmin=1)
    if ((deltas <= 0) | (deltas >= 1)).any():
        raise ValueError("delta must lie in (0, 1)")
    th = cp.theta
    c1, c2 = cp.r * th, (cp.r + cp.lam) * th
    nu0 = np.ceil(1.0 / deltas).astype(int)
    _check_weight(c2, nu0)
    rest = source.far_sums(True, th, c1, nu0 + 1)
    if rest[0] == DIVERGENT:  # the tail model's: at every delta or at none
        return _shaped(delta, rest)
    nu = np.arange(1, nu0.max() + 1)
    om = source.batch(nu) ** th
    nu, n0 = nu.astype(float), nu0.astype(float)

    # small-t piece: cells at and beyond nu0, top cell clipped at delta
    s1 = om[nu0 - 1] * (((n0 + 1) ** c1 - deltas ** (-c1)) / c1) + rest
    # large-t piece: cells 1 .. nu0-1, bottom cell clipped at delta
    cells = np.cumsum(om[:-1] * ((nu[1:] ** c2 - nu[:-1] ** c2) / c2))
    s2 = (np.append(0.0, cells)[nu0 - 2]
          + om[nu0 - 2] * ((deltas ** (-c2) - (n0 - 1) ** c2) / c2))
    return _shaped(delta, _theta_root(s1 + deltas ** (cp.lam * th) * s2, th, "I(delta)", "delta",
                                      deltas))


def discrete_seminorm(cp, n, source):
    """J(n), for an int n or an array of them: discrete seminorm built from
    omega(1/nu) samples.  The far sums are read from one suffix sum over
    the source's table (_OmegaTable.far_sums), and the near sums from one
    cumulative sum of omega(1/nu)^theta nu^((r+lam) theta - 1) over
    nu <= max n, read at each n."""
    ns = np.array(n, ndmin=1)
    if (ns < 1).any():
        raise ValueError("n must be >= 1")
    th = cp.theta
    c2 = (cp.r + cp.lam) * th
    _check_weight(c2, ns)
    far = source.far_sums(False, th, cp.r * th, ns + 1)
    if far[0] == DIVERGENT:  # the tail model's: at every n or at none
        return _shaped(n, far)
    nu = np.arange(1, ns.max() + 1)
    near = np.cumsum(source.batch(nu) ** th * nu.astype(float) ** (c2 - 1))
    return _shaped(n, _theta_root(far + ns ** (-cp.lam * th) * near[ns - 1], th, "J(n)", "n", ns))


def coefficient_functional(seq, cp, n):
    """K(n), for an int n or an array of them: the coefficient-based
    functional, K(n)^theta = sum_{nu>n} a_nu^theta nu^e + n^(-lam theta)
    sum_{nu<=n} a_nu^theta nu^(e + lam theta), e = r theta + theta -
    theta/p - 1.  Both are one weighted_sum over the grid: its far sums a
    suffix table, its near sums a prefix one.  A K(n)^theta that leaves the
    normal float range (an underflow of a positive sum included), or a K(n)
    that would, is refused (ValueError).
    """
    ns = np.array(n, ndmin=1)
    if min(ns.tolist()) < 1:
        raise ValueError("n must be >= 1")
    th, p = cp.theta, cp.p
    e_far = cp.r * th + th - th / p - 1
    near = weighted_sum(seq, th, e_far + cp.lam * th, 1, ns)
    far = weighted_sum(seq, th, e_far, ns + 1)
    if far[0] == DIVERGENT:  # the tail model's: at every n or at none
        return _shaped(n, far)
    with np.errstate(over="ignore"):
        total = far + ns ** (-cp.lam * th) * near
        k = total ** (1.0 / th)
    if not (k.max() < math.inf and total.min() >= _TINY):
        bad = ~np.isfinite(k) | (total < _TINY) & (near > 0)
        if bad.any():
            raise ValueError(f"theta: K(n)^theta, a sum, or K(n) leaves the float range "
                             f"at n = {ns[bad].min()}")
    return _shaped(n, k)


@dataclass
class MembershipReport:
    functional: str
    grid: list
    values: list
    ratios: list
    sup_ratio: float | None
    verdict: str  # "bounded" | "unbounded" | "divergent"


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


def membership_test(seq, cp, phi, functional="K", n_grid=None):
    """Verdict on sup_n functional(n)/phi(1/n), with grid evidence.

    functional is one of "I", "J", "K"; for "I" the scale is
    delta_n = 1/(n+1).  The functional and phi are each called once, on
    the whole grid.  The verdict is closed_form_verdict's.  A functional
    that diverges does so at every n, and then the values are [DIVERGENT].
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
    ns = np.array(n_grid)
    if functional == "K":
        values = coefficient_functional(seq, cp, ns)
    elif functional == "J":
        values = discrete_seminorm(cp, ns, source)
    else:
        values = integral_seminorm(cp, 1.0 / (ns + 1), source)
    if values[0] == DIVERGENT:
        return MembershipReport(functional, n_grid, [DIVERGENT], [], None, verdict)
    ratios = (values / phi_eval(phi, 1.0 / ns)).tolist()
    return MembershipReport(functional, n_grid, values.tolist(), ratios, max(ratios), verdict)


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
    two-sided equivalence constants.  Divergent entries are skipped.  Each
    functional, E and omega are one call on the whole grid.  The
    source is first asked for the largest n, which sizes a fresh one, then
    for n + 2, where the far sum of I(1/(n+1)) starts, so that every value
    comes from one omega table.
    """
    n_grid = sorted(int(n) for n in n_grid)
    ns = np.array(n_grid)
    if source is None:
        source = DirectModulusSource(seq, cp.smoothness)
    source.batch(n_grid[-1:])
    source.batch([n_grid[-1] + 2])
    jv = discrete_seminorm(cp, ns, source)
    iv = integral_seminorm(cp, 1.0 / (ns + 1), source)
    kv = coefficient_functional(seq, cp, ns)
    ev = bound_core(seq, cp.smoothness, ns)
    wv = source.batch(ns)

    def band(name, num, den, keep):
        return Band(name, (num[keep] / den[keep]).tolist())

    return {
        "values": {"n": n_grid, "I": iv.tolist(), "J": jv.tolist(), "K": kv.tolist(),
                   "omega": wv.tolist(), "E": ev.tolist()},
        "bands": {
            "JI": band("J/I", jv, iv, (jv != DIVERGENT) & (iv != DIVERGENT) & (iv > 0)),
            "KJ": band("K/J", kv, jv, (kv != DIVERGENT) & (jv != DIVERGENT) & (jv > 0)),
            "wE": band("omega/E", wv, ev, (ev != DIVERGENT) & (ev > 0)),
        },
    }
