"""Reference values that the benchmark checks monosmooth's outputs against.

Nothing here calls monosmooth.  Sums are evaluated from the displayed
formulas with math.fsum (inner running sums in extended precision), infinite
power-law sums with the Hurwitz zeta function, and verdicts from the closed
form phase diagram.  All of it runs before timing starts, and it needs only
numpy, which monosmooth imports anyway, so the benchmark loads nothing into
the measured process that the program does not.
"""

from __future__ import annotations

import math

import numpy as np

# B_2j / (2j)! for j = 1..5
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)


def hurwitz_zeta(s, m, head=32):
    """sum_{k>=0} (m + k)^-s for s > 1, m >= 1: the first `head` terms summed,
    the rest by Euler-Maclaurin from N = m + head (error below N^(-s-11))."""
    n = m + head
    total = [(m + k) ** -s for k in range(head)]
    total += [n ** (1 - s) / (s - 1), 0.5 * n ** -s]
    rising = s  # s (s+1) ... (s+2j-2)
    for j, b in enumerate(_BERNOULLI, 1):
        total.append(b * rising * n ** (-s - 2 * j + 1))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return math.fsum(total)


def power_law_sum(c, beta, q, s, m, n=None):
    """sum_{nu=m}^{n} (c nu^-beta)^q nu^s; n=None sums to infinity."""
    expo = s - q * beta
    if n is None:
        if expo >= -1:
            return math.inf
        return c ** q * hurwitz_zeta(-expo, m)
    nu = np.arange(m, n + 1, dtype=float)
    return math.fsum((c ** q * nu ** expo).tolist())


def core_e(c, beta, k, p, n):
    """E(n) for a_nu = c nu^-beta:
    n^-k (sum_{nu<=n} a^p nu^((k+1)p-2))^(1/p) + (sum_{nu>n} a^p nu^(p-2))^(1/p)."""
    near = power_law_sum(c, beta, p, (k + 1) * p - 2, 1, n)
    far = power_law_sum(c, beta, p, p - 2, n + 1)
    return n ** (-float(k)) * near ** (1.0 / p) + far ** (1.0 / p)


def coefficient_k(c, beta, theta, r, lam, p, n):
    """K(n) for a_nu = c nu^-beta, e = r th + th - th/p - 1:
    (sum_{nu>n} a^th nu^e + n^(-lam th) sum_{nu<=n} a^th nu^(e + lam th))^(1/th)."""
    e = r * theta + theta - theta / p - 1
    far = power_law_sum(c, beta, theta, e, n + 1)
    near = power_law_sum(c, beta, theta, e + lam * theta, 1, n)
    return (far + n ** (-lam * theta) * near) ** (1.0 / theta)


def omega2(a, k, t, shifts):
    """p = 2 modulus by Parseval: sqrt(pi max_h sum a_nu^2 |2 sin(nu h / 2)|^(2k))
    over h = t i / shifts, i = 1..shifts, for the coefficients a_1..a_N."""
    a2 = np.asarray(a, dtype=float) ** 2
    nu = np.arange(1, a2.size + 1, dtype=float)
    best = 0.0
    for i in range(1, shifts + 1):
        h = t * i / shifts
        best = max(best, float(np.dot(a2, np.abs(2.0 * np.sin(0.5 * nu * h)) ** (2 * k))))
    return math.sqrt(math.pi * best)


def hardy_sides(lemma, a, alpha, lam, p, m, n):
    """(lhs, rhs) of one displayed Hardy-type inequality on a_1..a_n, or None
    where its side condition excludes the instance.

    With T(mu) = sum_{nu=mu}^{n} a_nu nu^lam, H_s(mu) = sum_{nu=s}^{mu} a_nu nu^lam
    and P(mu) = (a_mu mu^(lam+1))^p, every display is
    sum_mu mu^e inner(mu)^p against sum_mu mu^e P(mu) over stated ranges.
    """
    a = np.asarray(a[:n], dtype=float)
    nu = np.arange(1, n + 1, dtype=float)
    if lemma == "jensen":
        return math.fsum((a ** 2).tolist()) ** 0.5, math.fsum(a.tolist())
    w = (a * nu ** lam).astype(np.longdouble)
    point = (a * nu ** (lam + 1)) ** p

    def tail():
        return np.cumsum(w[::-1])[::-1].astype(float)

    def head(start):
        h = np.zeros(n)
        h[start - 1:] = np.cumsum(w[start - 1:]).astype(float)
        return h

    def outer(e, inner, lo):
        return math.fsum((nu[lo - 1:] ** e * inner[lo - 1:] ** p).tolist())

    def rhs(e, lo):
        return math.fsum((nu[lo - 1:] ** e * point[lo - 1:]).tolist())

    up, down = alpha - 1, -alpha - 1
    if lemma == "lp_upper":
        return outer(up, tail(), m), rhs(up, m)
    if lemma == "lp_lower":
        return outer(down, head(m), m), rhs(down, m)
    if lemma == "lp_converse_upper":
        if p >= 1:
            return None if n < 16 * m else (outer(up, tail(), m), rhs(up, 8 * m))
        return None if n < 4 * m else (outer(up, tail(), 4 * m), rhs(up, m))
    if lemma == "lp_converse_lower":
        if n < 4 * m:
            return None
        if p >= 1:
            return outer(down, head(m), m), rhs(down, 4 * m)
        return outer(down, head(4 * m), 4 * m), rhs(down, m)
    if lemma == "lp_complete_tail":
        return outer(up, tail(), 1), rhs(up, 1)
    if lemma == "lp_complete_head":
        return outer(down, head(1), 1), rhs(down, 1)
    raise ValueError(f"unknown lemma {lemma!r}")


def phase_verdict(offset, alpha, gamma):
    """Closed-form verdict on sup_n K(n)/phi(1/n) for phi = delta^alpha and
    a_nu = c nu^-beta (1 + ln nu)^-gamma, beta = beta* + offset with
    beta* = r + alpha + 1 - 1/p.

    With d = beta - (r + 1 - 1/p) = alpha + offset, K(n) ~ n^-d (log n)^-gamma
    for 0 < d < lambda, so the ratio grows like n^(alpha - d) (log n)^-gamma.
    J and I are equivalent to K and share the diagram.  Offsets are exact
    inputs, so offset 0 is decided without rounding.
    """
    if alpha + offset < 0:
        return "divergent"
    if offset < 0:
        return "unbounded"
    if offset > 0:
        return "bounded"
    return "bounded" if gamma >= 0 else "unbounded"
