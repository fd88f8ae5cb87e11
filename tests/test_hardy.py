import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from monosmooth import hardy
from monosmooth.hardy import (
    LEMMA_IDS,
    HardyParams,
    estimate_constant,
    verify_lemma,
)
from monosmooth.sequences import CoefficientSequence, make_power_law, make_random_monotone


# --- the tail sum and the two lp displays, as the oracles below use them ---

def inner_tail(seq, lam, mu, n):
    """sum_{nu=mu}^{n} a_nu nu^lam."""
    if not (1 <= mu <= n):
        raise ValueError("need 1 <= mu <= n")
    nu = np.arange(mu, n + 1, dtype=float)
    return float(np.sum(seq.values(mu, n) * nu ** lam))


def hardy_tail_pair(seq, hp):
    """(lhs, rhs) of the tail-type display lp_upper on [m, n]."""
    r = verify_lemma("lp_upper", seq, hp)
    return r.lhs, r.rhs


def hardy_head_pair(seq, hp):
    """(lhs, rhs) of the head-type display lp_lower on [m, n]."""
    r = verify_lemma("lp_lower", seq, hp)
    return r.lhs, r.rhs


# --- independent naive oracles: literal nested loops, no shared code ---

def naive_inner_tail(a, lam, mu, n):
    return sum(a[v - 1] * v ** lam for v in range(mu, n + 1))


def naive_inner_head(a, lam, m, mu):
    return sum(a[v - 1] * v ** lam for v in range(m, mu + 1))


def naive_tail_pair(a, alpha, lam, p, m, n):
    lhs = sum(mu ** (alpha - 1) * naive_inner_tail(a, lam, mu, n) ** p
              for mu in range(m, n + 1))
    rhs = sum(mu ** (alpha - 1) * (a[mu - 1] * mu ** (lam + 1)) ** p
              for mu in range(m, n + 1))
    return lhs, rhs


def naive_head_pair(a, alpha, lam, p, m, n):
    lhs = sum(mu ** (-alpha - 1) * naive_inner_head(a, lam, m, mu) ** p
              for mu in range(m, n + 1))
    rhs = sum(mu ** (-alpha - 1) * (a[mu - 1] * mu ** (lam + 1)) ** p
              for mu in range(m, n + 1))
    return lhs, rhs


def naive_lemma(lemma_id, a, hp, jensen_exponents=(1.0, 2.0)):
    alpha, lam, p, m, n = hp.alpha, hp.lam, hp.p, hp.m, hp.n
    if lemma_id == "jensen":
        lo, hi = jensen_exponents
        return (sum(x ** hi for x in a[:n]) ** (1 / hi),
                sum(x ** lo for x in a[:n]) ** (1 / lo))
    if lemma_id == "lp_upper":
        return naive_tail_pair(a, alpha, lam, p, m, n)
    if lemma_id == "lp_lower":
        return naive_head_pair(a, alpha, lam, p, m, n)
    if lemma_id == "lp_converse_upper":
        if p >= 1:
            lhs = sum(mu ** (alpha - 1) * naive_inner_tail(a, lam, mu, n) ** p
                      for mu in range(m, n + 1))
            rhs = sum(mu ** (alpha - 1) * (a[mu - 1] * mu ** (lam + 1)) ** p
                      for mu in range(8 * m, n + 1))
        else:
            lhs = sum(mu ** (alpha - 1) * naive_inner_tail(a, lam, mu, n) ** p
                      for mu in range(4 * m, n + 1))
            rhs = sum(mu ** (alpha - 1) * (a[mu - 1] * mu ** (lam + 1)) ** p
                      for mu in range(m, n + 1))
        return lhs, rhs
    if lemma_id == "lp_converse_lower":
        if p >= 1:
            lhs = sum(mu ** (-alpha - 1) * naive_inner_head(a, lam, m, mu) ** p
                      for mu in range(m, n + 1))
            rhs = sum(mu ** (-alpha - 1) * (a[mu - 1] * mu ** (lam + 1)) ** p
                      for mu in range(4 * m, n + 1))
        else:
            lhs = sum(mu ** (-alpha - 1) * naive_inner_head(a, lam, 4 * m, mu) ** p
                      for mu in range(4 * m, n + 1))
            rhs = sum(mu ** (-alpha - 1) * (a[mu - 1] * mu ** (lam + 1)) ** p
                      for mu in range(m, n + 1))
        return lhs, rhs
    if lemma_id == "lp_complete_tail":
        return naive_tail_pair(a, alpha, lam, p, 1, n)
    if lemma_id == "lp_complete_head":
        lhs = sum(mu ** (-alpha - 1) * naive_inner_head(a, lam, 1, mu) ** p
                  for mu in range(1, n + 1))
        rhs = sum(mu ** (-alpha - 1) * (a[mu - 1] * mu ** (lam + 1)) ** p
                  for mu in range(1, n + 1))
        return lhs, rhs
    raise AssertionError(lemma_id)


def test_inner_tail_counting():
    assert inner_tail(CoefficientSequence((1, 1, 1)), 0, 2, 3) == 2.0


def test_inner_tail_hand():
    assert inner_tail(CoefficientSequence((1, 0.5)), 1, 1, 2) == pytest.approx(2.0)


def test_inner_tail_harmonic():
    seq = make_power_law(1, 2, 128)
    oracle = sum(1.0 / v for v in range(1, 101))
    got = inner_tail(seq, 1, 1, 100)
    assert got == pytest.approx(oracle, rel=1e-13)
    assert oracle == pytest.approx(5.187378, rel=1e-6)


def test_hardy_tail_pair_constant():
    hp = HardyParams(alpha=1, lam=0, p=1, m=1, n=3)
    assert hardy_tail_pair(CoefficientSequence((1, 1, 1)), hp) == (6.0, 6.0)


def test_hardy_tail_pair_single_term():
    hp = HardyParams(alpha=1, lam=0, p=1, m=1, n=3)
    assert hardy_tail_pair(CoefficientSequence((1, 0, 0)), hp) == (1.0, 1.0)


def test_hardy_tail_pair_power_law():
    hp = HardyParams(alpha=2, lam=0, p=2, m=1, n=50)
    lhs, rhs = hardy_tail_pair(make_power_law(1, 2, 50), hp)
    assert 0 < lhs < math.inf and 0 < rhs < math.inf


def test_hardy_head_pair_constant():
    hp = HardyParams(alpha=1, lam=0, p=1, m=1, n=3)
    lhs, rhs = hardy_head_pair(CoefficientSequence((1, 1, 1)), hp)
    assert lhs == pytest.approx(11.0 / 6.0)
    assert rhs == pytest.approx(11.0 / 6.0)


def test_hardy_head_pair_two_terms():
    hp = HardyParams(alpha=1, lam=0, p=1, m=1, n=2)
    lhs, rhs = hardy_head_pair(CoefficientSequence((1, 0, 0)), hp)
    assert lhs == pytest.approx(1.25)
    assert rhs == pytest.approx(1.0)


def test_jensen_three_four_five():
    hp = HardyParams(alpha=1, lam=0, p=1, m=1, n=2)
    rep = verify_lemma("jensen", CoefficientSequence((3, 4)), hp)
    assert rep.lhs == pytest.approx(5.0)
    assert rep.rhs == pytest.approx(7.0)
    assert rep.ratio == pytest.approx(5.0 / 7.0)
    assert rep.bound == "upper"


def test_complete_tail_constant():
    hp = HardyParams(alpha=1, lam=0, p=1, m=1, n=4)
    rep = verify_lemma("lp_complete_tail", CoefficientSequence((1, 1, 1, 1)), hp)
    assert (rep.lhs, rep.rhs, rep.ratio) == (10.0, 10.0, 1.0)
    assert rep.bound == "two_sided"


def test_converse_upper_oriented():
    hp = HardyParams(alpha=1, lam=0, p=2, m=1, n=32)
    rep = verify_lemma("lp_converse_upper", make_power_law(1, 1, 32), hp)
    assert rep.bound == "lower"
    assert rep.ratio is not None and rep.ratio >= 1.0
    # p >= 1 branch against the naive oracle
    a = list(make_power_law(1, 1, 32).values(1, 32))
    lhs, rhs = naive_lemma("lp_converse_upper", a, hp)
    assert rep.lhs == pytest.approx(lhs, rel=1e-12)
    assert rep.rhs == pytest.approx(rhs, rel=1e-12)


def test_side_conditions_rejected():
    seq = make_power_law(1, 1, 16)
    with pytest.raises(ValueError):
        verify_lemma("lp_converse_upper", seq,
                     HardyParams(alpha=1, lam=0, p=2, m=1, n=12))
    with pytest.raises(ValueError):
        verify_lemma("lp_converse_lower", seq,
                     HardyParams(alpha=1, lam=0, p=2, m=2, n=6))
    with pytest.raises(ValueError):
        verify_lemma("nope", seq, HardyParams(alpha=1, lam=0, p=1, m=1, n=4))
    # n = c m is accepted and n = c m - 1 rejected, by lemma and p regime
    for lemma, p, regime, c in (("lp_converse_upper", 2, ">=", 16),
                                ("lp_converse_upper", 0.5, "<", 4),
                                ("lp_converse_lower", 2, ">=", 4),
                                ("lp_converse_lower", 0.5, "<", 4)):
        for m in (1, 2, 3):
            rep = verify_lemma(lemma, seq, HardyParams(alpha=1, lam=0, p=p, m=m, n=c * m))
            assert rep.ratio is not None
            msg = f"^{lemma} with p {regime} 1 needs n >= {c}m$"
            with pytest.raises(ValueError, match=msg):
                verify_lemma(lemma, seq, HardyParams(alpha=1, lam=0, p=p, m=m, n=c * m - 1))


def test_monotonicity_required_for_converse():
    seq = CoefficientSequence((1, 2, 1, 1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        verify_lemma("lp_complete_tail", seq,
                     HardyParams(alpha=1, lam=0, p=1, m=1, n=8))


def test_hardy_params_validation():
    with pytest.raises(ValueError):
        HardyParams(alpha=0, lam=0, p=1, m=1, n=2)
    with pytest.raises(ValueError):
        HardyParams(alpha=1, lam=0, p=0, m=1, n=2)
    with pytest.raises(ValueError):
        HardyParams(alpha=1, lam=0, p=1, m=3, n=2)


def test_hardy_params_need_integer_range():
    with pytest.raises(ValueError, match="^m, n: must be integers$"):
        HardyParams(alpha=1, lam=0, p=1, m=1.5, n=4)
    with pytest.raises(ValueError, match="^alpha: must be positive; m, n: need 1 <= m < n$"):
        HardyParams(alpha=0, lam=0, p=1, m=4, n=4)


def test_brute_force_small_sweep():
    rng = np.random.default_rng(42)
    # 25 draws at m = 1 and n <= 12, then m in {1, 2, 3} at n = 4m, 16m - 1,
    # 16m and 64: every start m, 4m, 8m and both sides of every n >= c m
    sizes = [None] * 25 + [(m, n) for m in (1, 2, 3)
                           for n in (4 * m, 16 * m - 1, 16 * m, 64)]
    for size in sizes:
        m, n = size or (1, int(rng.integers(5, 13)))
        a = tuple(np.sort(rng.uniform(0, 1, size=n))[::-1])
        seq = CoefficientSequence(a)
        p = float(rng.choice([0.5, 1.0, 2.0]))
        hp = HardyParams(alpha=float(rng.choice([0.5, 1.0, 2.0])),
                         lam=float(rng.choice([-0.5, 0.0, 1.0])),
                         p=p, m=m, n=n)
        for lemma in LEMMA_IDS:
            c = {"lp_converse_upper": 16 if p >= 1 else 4,
                 "lp_converse_lower": 4}.get(lemma, 0)
            if n < c * m:
                with pytest.raises(ValueError):
                    verify_lemma(lemma, seq, hp)
            else:
                rep = verify_lemma(lemma, seq, hp)
                lhs, rhs = naive_lemma(lemma, list(a), hp)
                assert rep.lhs == pytest.approx(lhs, rel=1e-12)
                assert rep.rhs == pytest.approx(rhs, rel=1e-12)


def test_estimate_constant_sweep():
    cases = []
    for beta in (0.5, 1.0, 2.0):
        for n in (16, 64, 256):
            cases.append((make_power_law(1, beta, n),
                          HardyParams(alpha=1, lam=0, p=1, m=1, n=n)))
    rep = estimate_constant("lp_complete_tail", cases)
    assert rep.count == 9
    assert rep.skipped == 0
    assert rep.spread is not None and rep.spread < 100
    assert rep.ratio_min <= rep.ratio_median <= rep.ratio_max


def test_estimate_constant_single_trial_matches_verify():
    seq = make_power_law(1, 1, 32)
    hp = HardyParams(alpha=1, lam=0, p=1, m=1, n=32)
    rep = estimate_constant("lp_upper", [(seq, hp)])
    assert rep.count == 1
    assert rep.ratios[0] == verify_lemma("lp_upper", seq, hp).ratio


def test_estimate_constant_all_zero_skipped():
    seq = CoefficientSequence((0.0,) * 8)
    hp = HardyParams(alpha=1, lam=0, p=1, m=1, n=8)
    rep = estimate_constant("lp_upper", [(seq, hp)] * 3)
    assert rep.count == 0
    assert rep.skipped == 3


def _loop(lemma, cases):
    """Ratios, skipped count and bound of verify_lemma run case by case."""
    ratios, skipped, bound = [], 0, ""
    for seq, hp in cases:
        try:
            r = verify_lemma(lemma, seq, hp)
        except ValueError:
            skipped += 1
            continue
        bound = r.bound
        if r.ratio is None:
            skipped += 1
        else:
            ratios.append(r.ratio)
    return ratios, skipped, bound


def test_sweep_equals_its_cases():
    power = make_power_law(1, 1.25, 256)  # n = 512 reads its tail
    copy = make_power_law(1, 1.25, 256)
    assert copy == power and copy is not power
    rand = make_random_monotone(np.random.default_rng(7), 512)
    rising = CoefficientSequence(tuple(np.linspace(0.1, 1.0, 512)))
    seqs = [power, rand, power, copy, rising, power]
    cases = [(seq, HardyParams(alpha=alpha, lam=lam, p=p, m=m, n=n))
             for p in (0.5, 1.0, 1.5, 2.0)
             for alpha, lam in ((1.0, 0.0), (0.5, -0.25))
             for n in (64, 512, 256)
             for m in (1, n // 8)
             for seq in seqs]
    for lemma in LEMMA_IDS:
        want = _loop(lemma, cases)
        for given_cases in (cases, (case for case in cases)):
            rep = estimate_constant(lemma, given_cases)
            assert (rep.ratios, rep.skipped, rep.bound) == want, lemma
        if lemma in hardy._MONOTONE:
            assert estimate_constant(
                lemma, [(rising, HardyParams(alpha=1, lam=0, p=1, m=1, n=64))]).skipped == 1
    # m = n/8 breaks n >= 16m for the p >= 1 converse upper bound
    assert _loop("lp_converse_upper", cases)[1] > 0
    with pytest.raises(ValueError, match="^estimate_constant needs at least one case$"):
        estimate_constant("lp_upper", [])
    with pytest.raises(ValueError, match="^estimate_constant needs at least one case$"):
        estimate_constant("lp_upper", iter(()))


def test_sweep_keeps_no_state():
    seq = make_power_law(1, 1.5, 512)
    first = [(seq, HardyParams(alpha=1.0, lam=0.0, p=2, m=1, n=n)) for n in (64, 512)]
    second = [(seq, HardyParams(alpha=0.5, lam=0.25, p=2, m=1, n=n)) for n in (128, 512)]
    before = {k: (v, repr(v)) for k, v in vars(hardy).items() if not k.startswith("__")}

    def run(cases):
        rep = estimate_constant("lp_complete_tail", cases)
        return rep.ratios, rep.skipped, rep.bound

    a1, b1 = run(first), run(second)
    b2, a2 = run(second), run(first)
    assert (a1, b1) == (a2, b2)
    after = {k: v for k, v in vars(hardy).items() if not k.startswith("__")}
    assert after.keys() == before.keys()
    for key, (value, text) in before.items():
        assert after[key] is value and repr(after[key]) == text, key


def test_zero_rhs_violation_flag():
    rep = verify_lemma("lp_upper", CoefficientSequence((0.0,) * 4),
                       HardyParams(alpha=1, lam=0, p=1, m=1, n=4))
    assert rep.ratio is None and rep.ok


@given(st.lists(st.floats(min_value=0, max_value=5), min_size=1, max_size=12),
       st.floats(min_value=0.2, max_value=1.5),
       st.floats(min_value=0.1, max_value=2))
def test_jensen_inequality_property(xs, lo, gap):
    hi = lo + gap
    lhs = sum(x ** hi for x in xs) ** (1 / hi)
    rhs = sum(x ** lo for x in xs) ** (1 / lo)
    assert lhs <= rhs * (1 + 1e-9)
    if sum(x > 0 for x in xs) <= 1:
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
