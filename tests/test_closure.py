"""The far sums of J and I, the closed-form membership verdict, homogeneity.

The reference for J and I never calls the library's far sums: it sums
E(nu) term by term up to N = 2^14 (the library's core table stops at
2^13), and past N it integrates, in mpmath, the Euler-Maclaurin
continuation of E's partial sums, whose integrals are closed forms or
incomplete gamma functions.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monosmooth.besov import (
    ClassParams,
    CoreModulusSource,
    DirectModulusSource,
    PhiSpec,
    coefficient_functional,
    discrete_seminorm,
    integral_seminorm,
    membership_test,
    tail_decay,
)
from monosmooth.sequences import (CoefficientSequence, PowerLogTail, PowerLawTail,
                                  make_power_law, make_power_log)
from monosmooth.smoothness import bound_core

N = 2 ** 14
REF_RTOL = 1e-6


def _integral(c, beta, gamma, p, s, lo, hi=mp.inf):
    """int_lo^hi (c u^-beta (1 + ln u)^-gamma)^p u^s du; v = 1 + ln u turns it
    into c^p e^-kappa int e^(kappa v) v^-G dv, kappa = s - beta p + 1, G = gamma p."""
    if c == 0:
        return mp.mpf(0)
    kappa, G = mp.mpf(s) - beta * p + 1, mp.mpf(gamma) * p
    va, vb = 1 + mp.log(lo), (mp.inf if hi == mp.inf else 1 + mp.log(hi))
    if kappa == 0:
        return c ** p * (mp.log(vb / va) if G == 1 else (vb ** (1 - G) - va ** (1 - G)) / (1 - G))
    if G == 0:
        top = 0 if hi == mp.inf else hi ** kappa
        return c ** p * (top - lo ** kappa) / kappa
    scale = c ** p * mp.exp(-kappa)
    if kappa < 0:
        return scale * (-kappa) ** (G - 1) * mp.gammainc(1 - G, -kappa * va, -kappa * vb)
    if G == 1:
        return scale * (mp.ei(kappa * vb) - mp.ei(kappa * va))
    # t = -kappa v runs over negative reals: (-t)^-G = e^(i pi G) t^-G
    return scale * kappa ** (G - 1) * mp.re(
        mp.expjpi(G) * mp.gammainc(1 - G, -kappa * vb, -kappa * va))


def _g(c, beta, gamma, p, s, u):
    """(g, g') for g(u) = (c u^-beta (1 + ln u)^-gamma)^p u^s."""
    v = 1 + mp.log(u)
    g = (c * u ** -beta * v ** -gamma) ** p * u ** s
    return g, g * (s - beta * p - gamma * p / v) / u


def reference(head, tail, cp, ns):
    """[(J(n), I(1/(n+1)))] of the core source, for a_nu = head[nu-1] up to
    len(head) and c nu^-beta (1 + ln nu)^-gamma past it, (c, beta, gamma) = tail."""
    c, beta, gamma = tail
    th, r, lam, k, p = cp.theta, cp.r, cp.lam, cp.k, cp.p
    sn, sf = (k + 1) * p - 2, p - 2
    nu = np.arange(1, N + 1, dtype=float)
    a = c * nu ** -beta * (1 + np.log(nu)) ** -gamma
    a[:len(head)] = head
    near = np.cumsum(a ** p * nu ** sn)
    g_n0, dg_n0 = _g(c, beta, gamma, p, sn, mp.mpf(N))
    g_f0, dg_f0 = _g(c, beta, gamma, p, sf, mp.mpf(N))
    # Euler-Maclaurin: sum_{mu > x} g = int_x^inf g - g(x)/2 - g'(x)/12 + ...
    far_n = _integral(c, beta, gamma, p, sf, mp.mpf(N)) - g_f0 / 2 - dg_f0 / 12
    far = np.append(np.cumsum((a ** p * nu ** sf)[:0:-1])[::-1], 0.0) + float(far_n)
    e = nu ** -float(k) * near ** (1 / p) + far ** (1 / p)

    def e_cont(x):
        gn, dgn = _g(c, beta, gamma, p, sn, x)
        gf, dgf = _g(c, beta, gamma, p, sf, x)
        s_near = (mp.mpf(near[-1]) + _integral(c, beta, gamma, p, sn, mp.mpf(N), x)
                  + (gn - g_n0) / 2 + (dgn - dg_n0) / 12)
        s_far = _integral(c, beta, gamma, p, sf, x) - gf / 2 - dgf / 12
        return x ** -k * s_near ** (mp.mpf(1) / p) + s_far ** (mp.mpf(1) / p)

    c1, c2 = r * th, (r + lam) * th
    x_e = k if c == 0 else min(k, beta - 1 + 1 / p)
    q1 = th * (x_e - r)  # the far summands decay like x^-(1 + q1)
    l0 = mp.log(N)
    powers = {}

    def tail_sum(weight):
        """sum_{nu > N} E(nu)^theta weight(nu) = int_N^inf - (value at N)/2."""
        def f(ln_x):
            if ln_x not in powers:
                powers[ln_x] = e_cont(mp.exp(ln_x)) ** th
            return powers[ln_x] * weight(mp.exp(ln_x)) * mp.exp(ln_x)

        if q1 > 1e-9:
            total = mp.quad(f, [l0 + d / q1 for d in (0, 1, 4, 12, 40, 80)])
        else:  # x^-1 (ln x)^(-theta gamma): integrate over ln ln x
            rho = th * gamma - 1
            total = mp.quad(lambda w: f(l0 * mp.exp(w)) * l0 * mp.exp(w),
                            [d / rho for d in (0, 1, 4, 12, 30)])
        return float(total - weight(mp.mpf(N)) * e_cont(mp.mpf(N)) ** th / 2)

    tj = tail_sum(lambda x: x ** (c1 - 1))
    ti = tail_sum(lambda x: x ** c1 * mp.expm1(c1 * mp.log1p(1 / x)) / c1)
    wj = e ** th * nu ** (c1 - 1)
    wi = e ** th * ((nu + 1) ** c1 - nu ** c1) / c1
    out = []
    for n in ns:
        j = (math.fsum(wj[n:]) + tj
             + n ** (-lam * th) * math.fsum(e[:n] ** th * nu[:n] ** (c2 - 1))) ** (1 / th)
        delta = 1 / (n + 1)
        s1 = e[n] ** th * ((n + 2) ** c1 - delta ** -c1) / c1 + math.fsum(wi[n + 1:]) + ti
        w2 = ((nu[:n] + 1) ** c2 - nu[:n] ** c2) / c2
        w2[-1] = (delta ** -c2 - n ** c2) / c2
        i = (s1 + delta ** (lam * th) * math.fsum(e[:n] ** th * w2)) ** (1 / th)
        out.append((j, i))
    return out


def _assert_matches_reference(seq, tail, cp, ns=(1, 100, 4096)):
    src = CoreModulusSource(seq, cp.smoothness)
    for n, (j, i) in zip(ns, reference(seq.head, tail, cp, ns)):
        assert discrete_seminorm(cp, n, src) == pytest.approx(j, rel=REF_RTOL)
        assert integral_seminorm(cp, 1 / (n + 1), src) == pytest.approx(i, rel=REF_RTOL)


# (class parameters, alpha of phi = delta^alpha): beta* = r + alpha + 1 - 1/p
CLASS_SETS = {
    "A": (ClassParams(theta=1, r=0.5, lam=0.5, k=2, p=2), 0.25),
    "D": (ClassParams(theta=1.5, r=0.75, lam=0.75, k=3, p=4), 0.4),
}


@pytest.mark.parametrize("offset", [-1 / 8, 0, 1 / 8, 1 / 4])
@pytest.mark.parametrize("gamma", [0.0, 0.3])
@pytest.mark.parametrize("name", sorted(CLASS_SETS))
def test_seminorms_match_reference_around_beta_star(name, gamma, offset):
    cp, alpha = CLASS_SETS[name]
    beta = cp.r + alpha + 1 - 1 / cp.p + offset
    if gamma == 0:
        seq = make_power_law(1.3, beta, 4096)
    else:
        seq = make_power_log(1.3, beta, gamma, 4096)
    _assert_matches_reference(seq, (1.3, beta, gamma), cp)


CP = CLASS_SETS["A"][0]  # k = 2, p = 2, r = 0.5: x_E = min(2, beta - 1/2)


@pytest.mark.parametrize("seq, tail, regime", [
    (CoefficientSequence(tuple(np.arange(1, 101.0) ** -1.5)), (0.0, 1.0, 0.0), (2.0, 0.0)),
    (make_power_log(1.3, 1.5, 0.7, 4096), (1.3, 1.5, 0.7), (1.0, 0.7)),
    (make_power_log(1.3, 2.5, 0.3, 4096), (1.3, 2.5, 0.3), (2.0, -0.2)),
    (make_power_law(1.3, 3.0, 4096), (1.3, 3.0, 0.0), (2.0, 0.0)),
    # q = 1: x_E = r, the far summands go like x^-1 (ln x)^-2.3
    (make_power_log(1.3, 1.0, 2.3, 4096), (1.3, 1.0, 2.3), (0.5, 2.3)),
], ids=["zero-tail", "xE-below-k", "xE-at-k", "xE-above-k", "q1-log"])
def test_each_model_regime_matches_reference(seq, tail, regime):
    assert tail_decay(seq.tail, CP.smoothness) == pytest.approx(regime)
    _assert_matches_reference(seq, tail, CP)


def test_divergent_only_where_the_model_far_sum_diverges():
    # q = 1 without a log factor, and q < 1: the model's far sum diverges
    for seq in (make_power_law(1, 1.0, 4096), make_power_log(1, 1.0, 0.5, 4096),
                make_power_law(1, 0.9, 4096)):
        src = CoreModulusSource(seq, CP.smoothness)
        assert math.isfinite(src(10))
        assert discrete_seminorm(CP, 10, src) == math.inf
        assert integral_seminorm(CP, 1 / 11, src) == math.inf


def test_direct_source_far_sums_are_finite_up_to_its_table():
    # a_nu = nu^-2 at the default table of 2048: J(n) was divergent for
    # n = 256..2046, where the far sum starts less than 16x below the table's end
    seq = make_power_law(1, 2, 4096)
    src = DirectModulusSource(seq, CP.smoothness)
    js = [discrete_seminorm(CP, n, src) for n in range(128, 2101)]
    assert all(math.isfinite(j) and j > 0 for j in js)
    assert all(b < a for a, b in zip(js, js[1:]))


# -- the closed-form verdict ----------------------------------------------

def _oracle(d, gamma, alpha, gamma_phi, theta, lam):
    """Verdict on sup_n K(n)/phi(1/n) for a_nu = nu^-beta (1 + ln nu)^-gamma,
    d = beta - (r + 1 - 1/p) != lam, phi(1/n) = n^-alpha (1 + ln n)^gamma_phi.

    K(n)^theta = sum_{nu>n} nu^(-theta d - 1) (ln nu)^(-theta gamma) + ...:
    K(n) ~ n^-d (ln n)^-gamma for 0 < d < lam, (ln n)^-(gamma - 1/theta)
    at d = 0 when theta gamma > 1, and n^-lam for d > lam.
    """
    if d < 0 or d == 0 and theta * gamma <= 1:
        return "divergent"
    x, y = (lam, 0.0) if d > lam else (d, gamma - 1 / theta if d == 0 else gamma)
    if alpha != x:
        return "bounded" if alpha < x else "unbounded"
    return "bounded" if y + gamma_phi >= 0 else "unbounded"


_PHIS = [(PhiSpec.constant(2.0), 0.0, 0.0)] + [
    (PhiSpec.power(a), a, 0.0) for a in (0.25, 0.5)] + [
    (PhiSpec.power_log(a, g), a, g) for a in (0.25, 0.5) for g in (-1.0, 0.5)]


@pytest.mark.parametrize("theta, p, r", [(1, 2, 0.5), (0.5, 4, 0.75), (2, 1.5, 0.5)])
def test_closed_form_verdict_matches_oracle(theta, p, r):
    cp = ClassParams(theta=theta, r=r, lam=1.0, k=2, p=p)
    wrong = []
    for phi, alpha, gamma_phi in _PHIS:
        for d in (-0.25, 0.0, alpha / 2, alpha, alpha + 0.125, alpha + 0.25, 1.25):
            beta = r + 1 - 1 / p + d
            for gamma in (-0.5, 0.0, 0.5, 1.5):
                if beta <= 0 or beta + gamma < 0:
                    continue
                seq = (make_power_law(1, beta, 64) if gamma == 0
                       else make_power_log(1, beta, gamma, 64))
                got = membership_test(seq, cp, phi, "K", n_grid=[2]).verdict
                want = _oracle(d, gamma, alpha, gamma_phi, theta, cp.lam)
                if got != want:
                    wrong.append((phi, d, gamma, got, want))
    assert wrong == []


def test_grid_verdict_kept_and_flagged_where_it_disagrees():
    # power-log gamma = -0.5 on the critical line: the ratio grows like
    # (ln n)^0.5, which the stabilization rule calls bounded on 2..4096
    cp, alpha = CLASS_SETS["D"]
    cp = ClassParams(theta=1, r=cp.r, lam=cp.lam, k=cp.k, p=cp.p)
    seq = make_power_log(1.2, cp.r + alpha + 1 - 1 / cp.p, -0.5, 4096)
    for functional in "KJI":
        rep = membership_test(seq, cp, PhiSpec.power(alpha), functional)
        assert rep.verdict == "unbounded"
        assert rep.grid_verdict == "bounded" and rep.grid_disagrees
    agree = membership_test(make_power_law(1, 1.25, 4096), CP, PhiSpec.power(0.25), "J")
    assert agree.verdict == agree.grid_verdict == "bounded" and not agree.grid_disagrees


# -- homogeneity -------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(s=st.floats(0.01, 100.0), beta=st.floats(1.05, 3.0),
       gamma=st.sampled_from([0.0, 0.6]), n=st.integers(1, 4096))
def test_functionals_are_homogeneous(s, beta, gamma, n):
    seq = make_power_law(1, beta, 512) if gamma == 0 else make_power_log(1, beta, gamma, 512)
    scaled = seq.scaled(s)
    assert isinstance(scaled.tail, PowerLogTail if gamma else PowerLawTail)
    a, b = CoreModulusSource(seq, CP.smoothness), CoreModulusSource(scaled, CP.smoothness)
    delta = 1 / (n + 1)
    pairs = [(integral_seminorm(CP, delta, a), integral_seminorm(CP, delta, b)),
             (discrete_seminorm(CP, n, a), discrete_seminorm(CP, n, b)),
             (coefficient_functional(seq, CP, n), coefficient_functional(scaled, CP, n)),
             (bound_core(seq, CP.smoothness, n), bound_core(scaled, CP.smoothness, n))]
    for base, got in pairs:
        assert got == pytest.approx(s * base, rel=1e-10)
