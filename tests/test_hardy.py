import math
import re
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import monosmooth
from monosmooth import hardy, sequences
from monosmooth.hardy import (
    LEMMA_IDS,
    HardyParams,
    estimate_constant,
    verify_lemma,
)
from monosmooth.sequences import (CoefficientSequence, PowerLawTail, make_power_law,
                                  make_power_log, make_random_monotone, validate_monotone)


def test_lemma_ids_are_jensen_then_the_displays_in_table_order():
    # the CLI's lemma rule and the benchmark's sweeps iterate this tuple
    assert LEMMA_IDS == ("jensen", "lp_upper", "lp_lower", "lp_converse_upper",
                         "lp_converse_lower", "lp_complete_tail", "lp_complete_head")


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


# --- the allocating evaluation, one temporary per ufunc, as the oracle of
# the in-place sweep: a case at a time, with tables over its own 1 .. n,
# each formed as the sweep forms it (nu ** x at an integer x, else
# exp(x ln nu)) and each side one einsum, as in the sweep ---

def table_power(nu, x):
    return nu ** x if float(x).is_integer() else np.exp(x * np.log(nu))


def dot(weight, terms):
    return float(np.einsum("i,i->", weight, terms))


def oracle_sides(lemma_id, a, hp, power):
    inner, lo, hi, c, _ = hardy._DISPLAYS[lemma_id, hp.p >= 1]
    p, m, n = hp.p, hp.m, hp.n
    if n < c * m:
        raise ValueError(f"{lemma_id} with p {'>=' if p >= 1 else '<'} 1 needs n >= {c}m")
    lo, hi = lo * m or 1, hi * m or 1
    w = a[lo - 1:n] * power(hp.lam)[lo - 1:n]
    sums = np.cumsum(w[::-1])[::-1] if inner == "tail" else np.cumsum(w)
    weight = power(hp.alpha - 1 if inner == "tail" else -hp.alpha - 1)[:n]
    point = (a[hi - 1:n] * power(hp.lam + 1)[hi - 1:n]) ** p
    return dot(weight[lo - 1:], sums ** p), dot(weight[hi - 1:], point)


def oracle_sweep(lemma_id, cases):
    """Ratios, skipped count and bound of estimate_constant, case by case."""
    ratios, skipped, bound = [], 0, ""
    for seq, hp in cases:
        a = seq.values(1, hp.n)
        nu = np.arange(1, hp.n + 1, dtype=float)
        if lemma_id == "jensen":
            lhs, rhs, rbound = float(np.sum(a ** 2.0) ** 0.5), float(np.sum(a)), "upper"
        elif lemma_id in hardy._MONOTONE and not validate_monotone(seq).ok:
            skipped += 1
            continue
        else:
            try:
                lhs, rhs = oracle_sides(lemma_id, a, hp, lambda x: table_power(nu, x))
            except ValueError:
                skipped += 1
                continue
            rbound = hardy._DISPLAYS[lemma_id, hp.p >= 1][-1]
        bound = rbound
        if rhs > 0:
            ratios.append(lhs / rhs)
        else:
            skipped += 1
    return ratios, skipped, bound


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


@pytest.mark.parametrize("key, value, line", [
    ("alpha", math.inf, "alpha: must be finite"),
    ("lam", math.nan, "lam: must be finite"),
    ("lam", -math.inf, "lam: must be finite"),
    ("p", math.inf, "p: must be finite"),
    ("alpha", math.nan, "alpha: must be positive"),
])
def test_hardy_params_must_be_finite(key, value, line):
    # each non-finite value breaks one rule; NaN already fails "positive"
    args = {"alpha": 1, "lam": 0, "p": 1, "m": 1, "n": 16, key: value}
    with pytest.raises(ValueError, match=f"^{line}$"):
        HardyParams(**args)


@pytest.mark.parametrize("lemma", LEMMA_IDS)
def test_fraction_weights_sum_as_their_floats(lemma):
    # a Fraction passes the rules; alpha, lam and p are then kept as floats,
    # so the sweep sums it as the float it equals
    seq = make_power_law(1, 1.5, 64)
    hp = HardyParams(alpha=Fraction(1, 2), lam=Fraction(1, 3), p=Fraction(3, 2), m=1, n=64)
    assert (hp.alpha, hp.lam, hp.p) == (0.5, 1 / 3, 1.5)
    assert all(type(v) is float for v in (hp.alpha, hp.lam, hp.p))
    floats = HardyParams(alpha=0.5, lam=1 / 3, p=1.5, m=1, n=64)
    assert repr(verify_lemma(lemma, seq, hp)) == repr(verify_lemma(lemma, seq, floats))
    # one case fails n >= 16 m and is skipped, as its float twin is
    cases = [(seq, hp), (seq, HardyParams(alpha=Fraction(1), lam=Fraction(-1, 4), p=2, m=8,
                                          n=64))]
    twins = [(seq, floats), (seq, HardyParams(alpha=1.0, lam=-0.25, p=2, m=8, n=64))]
    assert repr(estimate_constant(lemma, cases)) == repr(estimate_constant(lemma, twins))


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
    # a sweep leaves nothing behind but rows of the row cache, and its
    # results do not depend on which rows an earlier sweep left there
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
    hardy._ROWS._results.clear()
    b3, a3 = run(second), run(first)
    assert (a1, b1) == (a3, b3)
    after = {k: v for k, v in vars(hardy).items() if not k.startswith("__")}
    assert after.keys() == before.keys()
    for key, (value, text) in before.items():
        if key != "_ROWS":
            assert after[key] is value and repr(after[key]) == text, key
    assert after["_ROWS"] is before["_ROWS"][0] and hardy._ROWS._results
    for x, row in hardy._ROWS._results.items():
        assert not row.flags.writeable and np.array_equal(row, hardy._power_table(x, row.size)), x


def test_zero_rhs_violation_flag():
    rep = verify_lemma("lp_upper", CoefficientSequence((0.0,) * 4),
                       HardyParams(alpha=1, lam=0, p=1, m=1, n=4))
    assert rep.ratio is None and rep.ok


@given(st.lists(st.floats(min_value=0, max_value=5), min_size=1, max_size=12),
       st.floats(min_value=0.2, max_value=1.5),
       st.floats(min_value=0.1, max_value=2))
# in floats, x^lo and x^hi are subnormal here and lhs exceeds rhs by 4.6e-4
@example([1.0648923340811393e-303], 0.9609375, 0.1015625)
def test_jensen_inequality_property(xs, lo, gap):
    hi = lo + gap
    with mpmath.workdps(40):
        lhs = mpmath.fsum(mpmath.mpf(x) ** hi for x in xs) ** (1 / mpmath.mpf(hi))
        rhs = mpmath.fsum(mpmath.mpf(x) ** lo for x in xs) ** (1 / mpmath.mpf(lo))
        assert lhs <= rhs * (1 + 1e-9)
        if sum(x > 0 for x in xs) <= 1:
            assert abs(lhs - rhs) <= max(1e-9 * rhs, 1e-12)


def _sequences(horizon):
    """Sequences whose heads stop at horizon: three with a tail model, one
    with a zero tail and one that rises."""
    rng = np.random.default_rng(horizon)
    return [make_power_law(1.0, 1.25, horizon),
            make_power_log(2.0, 0.75, -0.5, horizon),
            CoefficientSequence(tuple(np.linspace(1.0, 0.5, horizon)), PowerLawTail(0.4, 1.5)),
            make_random_monotone(rng, horizon),
            CoefficientSequence(tuple(np.linspace(0.1, 1.0, horizon)))]


_SEQUENCES = {horizon: _sequences(horizon) for horizon in (8, 40, 256)}


@settings(max_examples=settings().max_examples * 3 // 5, deadline=None)
@given(st.sampled_from(LEMMA_IDS),
       st.lists(st.tuples(st.sampled_from(sorted(_SEQUENCES)), st.integers(0, 4),
                          st.sampled_from([0.5, 1, 1.0, 1.5, 2, 2.0, 3]),
                          st.sampled_from([-0.5, 0, 1]),
                          st.sampled_from([0.5, 1, 2.25]),
                          st.sampled_from([16, 64, 256]), st.booleans()),
                min_size=1, max_size=6))
@example("lp_upper", [(8, 1, 3, 0, 0.5, 64, True)])  # tail sums raised to p = 3
def test_sweep_equals_the_allocating_oracle(lemma, draws):
    # heads of 8 and 40 are shorter than most n, so the tail is read
    cases = [(_SEQUENCES[horizon][i], HardyParams(alpha=alpha, lam=lam, p=p,
                                                  m=n // 8 if eighth else 1, n=n))
             for horizon, i, p, lam, alpha, n, eighth in draws]
    rep = estimate_constant(lemma, cases)
    assert (rep.ratios, rep.skipped, rep.bound) == oracle_sweep(lemma, cases)


def test_unknown_lemma_id_raises_before_any_case():
    case = (make_power_law(1, 1.5, 64), HardyParams(alpha=1, lam=0, p=1, m=1, n=64))
    with pytest.raises(ValueError, match="^unknown lemma id: 'lp_uper'$"):
        estimate_constant("lp_uper", [case] * 3)
    with pytest.raises(ValueError, match="^unknown lemma id: 'lp_uper'$"):
        verify_lemma("lp_uper", *case)


@settings(deadline=None)
@given(st.floats(min_value=-50, max_value=50).filter(lambda x: not x.is_integer()),
       st.integers(2, 2 ** 16))
@example(49.5, 2 ** 16)
@example(-49.5, 2 ** 16)
@example(0.5, 2)
def test_exp_rows_agree_with_pow(x, n):
    # exp(x ln nu) against nu ** x: ln nu is rounded to 2^-53 relative and
    # x ln nu again, and exp turns that absolute error of about
    # |x| ln nu 2^-52 into a relative one; the 8 ulps cover exp and pow.
    # Measured on 700 rows (x uniform in [-50, 50], n up to 2^16, AVX-512
    # numpy 2.4): at most 0.89 of this bound, 0.83 |x| ln n 2^-52 at |x| near 48
    nu = np.arange(1.0, n + 1)
    row = hardy._power_table(x, n)
    want = nu ** x
    assert np.all(np.abs(row - want) <= (abs(x) * math.log(n) + 8) * 2.0 ** -52 * want)


@given(st.integers(-50, 50), st.booleans(), st.integers(2, 2 ** 16))
def test_integer_rows_equal_pow(x, as_float, n):
    # an integer exponent keeps **, so hand-checked sums such as (10, 10, 1)
    # and (6, 6) stay exact
    x = float(x) if as_float else x
    assert np.array_equal(hardy._power_table(x, n), np.arange(1.0, n + 1) ** x)


def test_power_table_builds_one_row():
    assert np.array_equal(hardy._power_table(2, 8), np.arange(1.0, 9) ** 2)
    assert hardy._power_table(-0.5, 4) == pytest.approx(np.arange(1.0, 5) ** -0.5, rel=1e-15)


# --- the row cache: one read-only nu^x row per exponent, per process ---

@pytest.fixture
def cold_rows(monkeypatch):
    """The rows kept by an empty row cache for the test, the process's own
    cache afterwards."""
    monkeypatch.setattr(hardy, "_ROWS", sequences._Store())
    return hardy._ROWS._results


def _oracle_row(x, n):
    with np.errstate(over="ignore"):
        return table_power(np.arange(1.0, n + 1), x)


@pytest.mark.parametrize("x", [0, 1, 3, -2, 0.5, -1.75, 400])
def test_cached_rows_equal_the_oracle(cold_rows, x):
    # a row serves every shorter n as it is, and a longer n replaces it
    row = hardy._power_row(x, 64)
    assert np.array_equal(row, _oracle_row(x, 64)) and cold_rows[x] is row
    assert hardy._power_row(x, 40) is row
    assert np.array_equal(row[:40], _oracle_row(x, 40))
    longer = hardy._power_row(x, 200)
    assert np.array_equal(longer, _oracle_row(x, 200))
    assert list(cold_rows) == [x] and cold_rows[x] is longer
    if x == 400:
        # 6^400 is past 2^1024: the row holds inf and a side that reads it
        # is refused after its evaluation, from a warm row as from a cold one
        assert np.isinf(longer[5]) and np.all(np.isfinite(longer[:5]))
        hp = HardyParams(alpha=1, lam=400, p=2, m=1, n=64)
        for _ in range(2):
            with pytest.raises(ValueError, match="^lp_upper: lhs or rhs leaves the float range"):
                verify_lemma("lp_upper", make_power_law(1, 1.5, 64), hp)


def test_cached_rows_are_read_only(cold_rows):
    estimate_constant("lp_upper", [(make_power_law(1, 1.5, 64),
                                    HardyParams(alpha=1.5, lam=0.25, p=2, m=1, n=64))])
    assert sorted(cold_rows) == [0.25, 0.5, 1.25]
    for row in cold_rows.values():
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 2.0


def test_a_row_past_the_budget_serves_its_call(cold_rows, monkeypatch):
    # the store's own order and budget are test_sequences.py's store tests
    monkeypatch.setattr(sequences, "_STORE_BUDGET", 3 * 1024)
    hardy._power_row(1.5, 2048)
    seq = make_power_law(1, 1.5, 4096)
    hp = HardyParams(alpha=1.5, lam=0.25, p=2, m=1, n=4096)
    small = verify_lemma("lp_upper", seq, hp)
    assert list(cold_rows) == [1.5] and cold_rows[1.5].size == 2048
    monkeypatch.setattr(sequences, "_STORE_BUDGET", 2 ** 20)
    assert repr(small) == repr(verify_lemma("lp_upper", seq, hp))
    assert sorted(cold_rows) == [0.25, 0.5, 1.25, 1.5]


def _hardy_sweep(workloads, seed, lemmas=LEMMA_IDS):
    """The experiments of one hardy-sweep cycle of perfbench, by name: the
    estimate_constant sweep and the verify_lemma case of each lemma and p."""
    inp = workloads.hardy_inputs(monosmooth, seed)
    results = {}
    for lemma in lemmas:
        for p, cases in inp["cases"].items():
            _, vseq, vhp = next(case for case in cases if case[0] == "random"
                                and case[2].n == workloads.HARDY_N[-1] and case[2].m == 1)
            rep = estimate_constant(lemma, [(seq, hp) for _, seq, hp in cases])
            results[lemma, p] = repr((rep.ratios, rep.skipped, rep.bound,
                                      verify_lemma(lemma, vseq, vhp)))
    return results


def test_results_do_not_depend_on_the_rows_kept(cold_rows, workloads):
    cold = _hardy_sweep(workloads, 1)
    assert len(cold) == 21 and len(cold_rows) == 8
    assert _hardy_sweep(workloads, 1) == cold
    assert _hardy_sweep(workloads, 1, LEMMA_IDS[::-1]) == cold
    cold_rows.clear()
    assert _hardy_sweep(workloads, 1, LEMMA_IDS[::-1]) == cold


def test_a_sweep_cycle_builds_each_row_once(cold_rows, monkeypatch, workloads):
    # lam, lam + 1, alpha - 1 and -alpha - 1 of the workload's two variants
    built = []

    def counted(x, n, _f=hardy._power_table):
        built.append((x, n))
        return _f(x, n)

    monkeypatch.setattr(hardy, "_power_table", counted)
    displays = LEMMA_IDS[1:]
    assert len(_hardy_sweep(workloads, 2, displays)) == 18
    assert len(built) == 8 and {n for _, n in built} == {2 ** 16}
    built.clear()
    _hardy_sweep(workloads, 2, displays)
    assert built == []
    cold_rows.clear()
    seq = make_power_law(1, 1.5, 512)
    cases = [(seq, HardyParams(alpha=0.75, lam=-0.25, p=p, m=1, n=n))
             for p in (0.5, 2) for n in (128, 512)]
    estimate_constant("lp_lower", cases)
    assert len(built) == 3
    verify_lemma("lp_lower", *cases[1])
    assert len(built) == 3


# --- closed forms at p = 1 ---

@pytest.mark.parametrize("alpha", [0.5, 1, 2])
def test_unit_at_one_gives_lp_lower_a_zeta_partial_sum(alpha):
    # every head sum is a_1 = 1: lhs = H_n^(alpha + 1) and rhs = 1
    n = 4096
    seq = CoefficientSequence((1.0,) + (0.0,) * (n - 1))
    rep = verify_lemma("lp_lower", seq, HardyParams(alpha=alpha, lam=0, p=1, m=1, n=n))
    want = math.fsum(mu ** (-alpha - 1) for mu in range(1, n + 1))
    assert rep.rhs == 1.0
    assert rep.ratio == pytest.approx(want, rel=1e-13, abs=0)
    if alpha != 0.5:
        assert rep.ratio == pytest.approx({1: 1.64468995602312, 2: 1.20205687336454}[alpha],
                                          rel=1e-13, abs=0)


@pytest.mark.parametrize("alpha", [0.5, 1, 2])
def test_unit_at_n_gives_lp_upper_a_power_sum(alpha):
    # every tail sum is a_n = 1: lhs = sum_mu mu^(alpha - 1) and rhs = n^alpha
    n = 4096
    seq = CoefficientSequence((0.0,) * (n - 1) + (1.0,))
    rep = verify_lemma("lp_upper", seq, HardyParams(alpha=alpha, lam=0, p=1, m=1, n=n))
    want = math.fsum(mu ** (alpha - 1) for mu in range(1, n + 1)) / n ** alpha
    assert rep.ratio == pytest.approx(want, rel=1e-13, abs=0)
    if alpha == 0.5:
        assert rep.ratio == pytest.approx(1.97730402862882, rel=1e-13, abs=0)


@pytest.mark.parametrize("lemma, alpha, lam, x", [
    ("lp_upper", 1, 1e300, "1e+300"),  # lam itself
    ("lp_upper", 1, 170.5, "171.5"),  # lam + 1 only: 64^171.5 > 2^1024 > 64^170.5
    ("lp_upper", 1e300, 0, "1e+300"),  # the tail weight alpha - 1
])
def test_overflowing_row_is_refused(lemma, alpha, lam, x):
    # the row nu^x is inf at nu = 64, and so is a side that reads it
    assert float(x) * math.log(64) > math.log(sys.float_info.max)
    seq = make_power_law(1, 1.5, 64)
    hp = HardyParams(alpha=alpha, lam=lam, p=2, m=1, n=64)
    line = f"{lemma}: lhs or rhs leaves the float range at n = 64"
    with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
        verify_lemma(lemma, seq, hp)
    # in a sweep the refused case is skipped and the rest evaluated as alone
    fine = HardyParams(alpha=1, lam=0.5, p=2, m=1, n=64)
    rep = estimate_constant(lemma, [(seq, hp), (seq, fine), (seq, hp)])
    assert rep.skipped == 2 and rep.ratios == [verify_lemma(lemma, seq, fine).ratio]


@pytest.mark.parametrize("lemma, seq, lam", [
    ("lp_upper", make_power_law(1, 1.5, 64), 100),  # (a_mu mu^101)^2 near 2^1200
    ("lp_lower", make_power_law(1, 1.5, 64), 100),
    ("jensen", make_power_law(1e200, 1, 64), 0),  # a_1^2 = 1e400
])
def test_side_past_the_float_range_is_refused(lemma, seq, lam):
    # the table rows are finite (64^101 is near 2^606), but a power or sum
    # of a side overflows: it was inf (ratio nan) with a RuntimeWarning
    hp = HardyParams(alpha=1, lam=lam, p=2, m=1, n=64)
    line = f"{lemma}: lhs or rhs leaves the float range at n = 64"
    with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
        verify_lemma(lemma, seq, hp)
    fine = HardyParams(alpha=1, lam=0, p=2, m=1, n=64)
    small = make_power_law(1, 1.5, 64)
    rep = estimate_constant(lemma, [(seq, hp), (small, fine)])
    assert rep.skipped == 1 and rep.ratios == [verify_lemma(lemma, small, fine).ratio]


def test_underflowing_rows_are_kept():
    # lam = lam + 1 = -1e300: nu^x is 1 at nu = 1 and 0 past it, so every
    # head sum is a_1 = 1 and lhs = sum_{mu <= 64} mu^-2, rhs = 1
    rep = verify_lemma("lp_lower", make_power_law(1, 1.5, 64),
                       HardyParams(alpha=1, lam=-1e300, p=2, m=1, n=64))
    assert rep.lhs == pytest.approx(sum(mu ** -2.0 for mu in range(1, 65)), rel=1e-15)
    assert rep.rhs == 1.0


def test_row_refusal_uses_each_case_own_n():
    # lam + 1 = 140 overflows at n = 256 (140 ln 256 = 776) but not at 64
    # (582); the n = 64 case keeps a finite row over its own range
    seq = make_power_law(1, 1.5, 256)
    small = HardyParams(alpha=1, lam=139, p=0.5, m=1, n=64)
    large = HardyParams(alpha=1, lam=139, p=0.5, m=1, n=256)
    rep = estimate_constant("lp_upper", [(seq, large), (seq, small)])
    assert rep.skipped == 1
    assert rep.ratios == [verify_lemma("lp_upper", seq, small).ratio]
    assert math.isfinite(rep.ratios[0])


def test_monotonicity_is_checked_by_every_sweep():
    rising = CoefficientSequence((1, 2, 1, 1, 1, 1, 1, 1))
    hp = HardyParams(alpha=1, lam=0, p=1, m=1, n=8)
    for _ in range(3):
        with pytest.raises(ValueError, match="needs a monotone sequence: a_2 > a_1"):
            verify_lemma("lp_complete_tail", rising, hp)
        assert estimate_constant("lp_complete_head", [(rising, hp)] * 2).skipped == 2


def test_sweep_allocates_no_temporaries_per_case():
    # the tables (three exponents), two workspaces and nothing per case: the
    # allocating evaluation peaks at ten n-long arrays here
    n = 2 ** 14
    seq = make_power_law(1, 1.5, n)
    cases = [(seq, HardyParams(alpha=1.5, lam=0.25, p=p, m=m, n=n))
             for p in (0.5, 1, 2, 3) for m in (1, n // 8)]
    tracemalloc.start()
    try:
        estimate_constant("lp_upper", cases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 8 * n


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from([0.0, 0.5, 1.0, 1.0 + 2 ** -52]), min_size=1, max_size=12))
@example([1.0, 2.0])
@example([1.0, 1.0, 3.0, 3.0])
def test_ratio_median_is_statistics_median(ratios):
    # even lengths take the mean of the middle two, as statistics.median
    # does; sampled values make ties
    import statistics

    median = hardy.SweepReport("lp_upper", "upper", ratios=list(ratios)).ratio_median
    assert median == statistics.median(ratios)
    assert type(median) is type(statistics.median(ratios))
