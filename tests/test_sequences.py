import copy
import dataclasses
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monosmooth import hardy, sequences
from monosmooth.sequences import (
    DIVERGENT,
    CoefficientSequence,
    PowerLawTail,
    PowerLogTail,
    ZeroTail,
    broken_rules,
    make_power_law,
    make_power_log,
    validate_monotone,
    weighted_sum,
)


def test_broken_rules_lists_every_row_with_its_keys_present():
    rules = (("a", ("a",), lambda v: v > 0, "must be positive"),
             ("b", ("b",), lambda v: v > 0, "must be positive"),
             ("a", ("a", "c"), lambda a, c: a < c, "must be below c"),
             ("d", ("d",), lambda v: v in ("x",), "unknown id {!r}"))
    # c is missing, so its row is skipped; "x" > 0 raises TypeError, so b breaks
    assert broken_rules(rules, {"a": -1, "b": "x", "d": "y"}) == [
        "a: must be positive", "b: must be positive", "d: unknown id 'y'"]
    assert broken_rules(rules, {"a": 1, "c": 0}) == ["a: must be below c"]
    assert broken_rules(rules, {}) == []


def test_make_power_law_basic():
    seq = make_power_law(1, 1, 3)
    assert seq.head == pytest.approx((1.0, 0.5, 1.0 / 3.0))
    assert isinstance(seq.tail, PowerLawTail)
    assert validate_monotone(seq).ok


def test_make_power_law_zero():
    seq = make_power_law(0, 2, 5)
    assert np.array_equal(seq.head, np.zeros(5))
    assert isinstance(seq.tail, ZeroTail)


def test_make_power_law_half():
    seq = make_power_law(1, 0.5, 4)
    assert seq.head == pytest.approx((1.0, 2 ** -0.5, 3 ** -0.5, 0.5))


def test_make_power_law_rejects_bad_params():
    with pytest.raises(ValueError):
        make_power_law(1, 0, 3)
    with pytest.raises(ValueError):
        make_power_law(-1, 1, 3)
    with pytest.raises(ValueError):
        make_power_law(1, 1, 0)


_C = "c: must be a finite real number >= 0"
_BETA = "beta: must be a finite real number > 0"
_GAMMA = "gamma: must be a finite real number >= -beta"
_HEAD = "head: must be a non-empty list of finite real numbers >= 0"


@pytest.mark.parametrize("build, message", [
    (lambda: PowerLawTail(c=math.inf, beta=2), _C),
    (lambda: PowerLogTail(1, 2, math.nan), _GAMMA),
    (lambda: make_power_log(1, 2, math.nan, 4), _GAMMA),
    (lambda: PowerLogTail(-1, 1, 0.5), _C),
    (lambda: PowerLawTail(1, 0), _BETA),
    (lambda: PowerLogTail(1, 1, -1.5), _GAMMA),
    # one line per bad value: a beta that breaks its own row is not held
    # against gamma, and "x" is not also a NaN
    (lambda: PowerLogTail(1, -1, 0.5), _BETA),
    (lambda: PowerLogTail("x", math.nan, None), f"{_C}; {_BETA}; {_GAMMA}"),
    (lambda: CoefficientSequence((1.0, math.inf)), _HEAD),
    (lambda: CoefficientSequence(()), _HEAD),
    (lambda: CoefficientSequence(3.0), _HEAD),
    # a monotone sequence tending to 0 is nonnegative
    (lambda: CoefficientSequence((1, -0.5)), _HEAD),
    (lambda: CoefficientSequence((0.5, -0.25, -1.0)), _HEAD),
], ids=["power-law-c-inf", "power-log-gamma-nan", "make-power-log-gamma-nan", "c-negative",
        "beta-zero", "beta-plus-gamma-negative", "beta-negative-only", "all-three",
        "head-inf", "head-empty", "head-scalar", "head-negative", "head-negative-run"])
def test_tail_and_head_check_their_own_numbers(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_power_law_is_the_power_log_tail_at_gamma_zero():
    # PowerLawTail names PowerLogTail's integral in its own body, so that it
    # can be wrapped per class, and defines nothing else that computes
    assert PowerLawTail.integral is PowerLogTail.integral
    assert not {"value", "converges", "__post_init__"} & set(vars(PowerLawTail))
    law, log = PowerLawTail(1.5, 1.25), PowerLogTail(1.5, 1.25, 0.0)
    assert law.gamma == 0.0 and law.to_json() == {"variant": "power_law", "c": 1.5, "beta": 1.25}
    nu = np.arange(1, 100, dtype=float)
    assert np.array_equal(log.value(nu), 1.5 * nu ** -1.25)
    assert np.array_equal(law.value(nu), log.value(nu))
    x0 = 4096.5
    for q, s in ((1, 0.0), (2, 0.5)):
        a = q * 1.25 - s
        # the closed form, bit for bit, and in log space under a shift
        assert log.integral(q, s, x0) == 1.5 ** q * x0 ** (1 - a) / (a - 1)
        assert log.integral(q, s, x0, shift=5.0) == pytest.approx(
            log.integral(q, s, x0) * math.exp(-5), rel=1e-15)
        for shift in (0.0, 5.0):
            assert log.integral(q, s, x0, shift) == law.integral(q, s, x0, shift)


def test_critical_shifted_integral_is_the_unshifted_times_e_minus_shift():
    # a = q beta - s = 1: c^q u0^(1-g) / (g-1), u0 = 1 + ln x0, g = q gamma
    tail = PowerLogTail(1, 1, 2)
    assert tail.integral(1, 0, 1e3) == pytest.approx(1 / (1 + math.log(1e3)), rel=1e-15)
    assert tail.integral(1, 0, 1e3, shift=5) == pytest.approx(
        tail.integral(1, 0, 1e3) * math.exp(-5), rel=1e-15)


def test_validate_accepts_decreasing():
    assert validate_monotone(CoefficientSequence((1, 0.5, 0.25))).ok


def test_validate_rejects_increase_at_index_2():
    res = validate_monotone(CoefficientSequence((1, 2, 0.5)))
    assert not res.ok
    assert res.index == 2


def test_validate_rejects_negative():
    # no sequence holds a negative coefficient, so validate_monotone checks
    # only the order; a zero run and a zero tail are monotone
    with pytest.raises(ValueError, match="finite real numbers >= 0"):
        CoefficientSequence((1, -0.5))
    assert validate_monotone(CoefficientSequence((1, 0.0, 0.0))).ok
    res = validate_monotone(CoefficientSequence((1, 0.0, 0.5)))
    assert (res.ok, res.index, res.reason) == (False, 3, "a_3 > a_2")


def test_validate_constant_run_with_tail_junction():
    # a_nu >= a_{nu+1} is non-strict; tail value 0.125 at nu = 4 is fine
    seq = CoefficientSequence((0.5, 0.5, 0.5), PowerLawTail(c=0.5, beta=1))
    assert seq.tail.value(4) == pytest.approx(0.125)
    assert validate_monotone(seq).ok


def test_validate_rejects_tail_jump():
    seq = CoefficientSequence((0.1, 0.05), PowerLawTail(c=1.0, beta=1))
    res = validate_monotone(seq)
    assert not res.ok and res.index == 3


def test_weighted_sum_counting():
    seq = CoefficientSequence((1, 1, 1))
    assert weighted_sum(seq, 1, 0, 1, 3) == 3.0


def test_weighted_sum_hand_value():
    seq = CoefficientSequence((1, 0.5, 0.25))
    got = weighted_sum(seq, 2, 1, 1, 3)
    assert got == pytest.approx(1.6875, rel=1e-14)


def test_weighted_sum_basel():
    # oracle: direct summation of nu^-2 plus midpoint integral remainder
    nu = np.arange(1, 10 ** 7 + 1, dtype=float)
    oracle = float(np.sum(nu ** -2.0)) + 1.0 / (10 ** 7 + 0.5)
    assert oracle == pytest.approx(math.pi ** 2 / 6, rel=1e-9)
    seq = make_power_law(1, 2, 50)
    got = weighted_sum(seq, 1, 0, 1)
    assert got == pytest.approx(oracle, rel=1e-6)


def test_weighted_sum_divergent_is_value_not_error():
    seq = make_power_law(1, 1, 10)
    assert weighted_sum(seq, 1, 0, 1) == DIVERGENT
    # boundary: q*beta - s == 1 diverges for a pure power law
    assert weighted_sum(seq, 1, 0, 5) == DIVERGENT
    # also where q*beta - s rounds to 1 + 2e-16
    for q, beta, s in ((1, 2.2, 1.2), (1.5, 0.8, 0.2)):
        assert q * beta - s != 1
        got = weighted_sum(make_power_law(1, beta, 10), q, s)
        assert got == DIVERGENT
        assert not PowerLogTail(c=1, beta=beta, gamma=0.5).converges(q, s)


def test_weighted_sum_power_log_tail():
    seq = make_power_log(1, 1, 2, 32)
    got = weighted_sum(seq, 1, 0, 1)
    nu = np.arange(1, 2 * 10 ** 6, dtype=float)
    direct = float(np.sum(nu ** -1.0 * (1 + np.log(nu)) ** -2.0))
    # crude upper remainder: integral of the summand from the cutoff
    assert direct < got < direct + 1.0 / (1 + math.log(2 * 10 ** 6 - 1))
    assert got == pytest.approx(direct + (1 + math.log(2e6)) ** -1, rel=1e-3)
    # the same series where q*beta - s = 2.2 - 1.2 rounds to 1 + 2e-16
    tail = PowerLogTail(c=1, beta=2.2, gamma=2)
    critical = 1 / (1 + math.log(4096.5))
    assert tail.integral(1, 1.2, 4096.5) == pytest.approx(critical, rel=1e-12)
    seq = make_power_log(1, 2.2, 2, 32)
    shifted = weighted_sum(seq, 1, 1.2, 1)
    assert shifted == pytest.approx(got, rel=1e-9)


def test_power_log_integral_matches_incomplete_gamma():
    # int_x0^inf x^-a (1 + ln x)^-g dx = e^b b^(g-1) Gamma(1-g, b u0),
    # b = a - 1, u0 = 1 + ln x0
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    with mp.workdps(30):
        for s in 9 - np.geomspace(0.001, 9, 8):
            a = 10.0 - s  # exactly the a = q * beta - s that integral() sees
            for g in np.linspace(-3, 10, 9):
                tail = PowerLogTail(c=1.0, beta=10.0, gamma=g)
                for x0 in np.geomspace(1.5, 2 ** 23, 6):
                    b, u0 = mp.mpf(a) - 1, 1 + mp.log(x0)
                    want = mp.e ** b * b ** (g - 1) * mp.gammainc(1 - mp.mpf(g), b * u0)
                    got = tail.integral(1, s, x0)
                    worst = max(worst, abs(got / float(want) - 1))
    assert worst < 1e-12


def test_weighted_sum_range_beyond_horizon_uses_tail():
    seq = make_power_law(1, 2, 4)
    got = weighted_sum(seq, 1, 0, 3, 8)
    want = sum(v ** -2.0 for v in range(3, 9))
    assert got == pytest.approx(want, rel=1e-14)


def test_spec_validation():
    seq = make_power_law(1, 2, 8)
    with pytest.raises(ValueError, match="exponent q must be positive"):
        weighted_sum(seq, 0, 0)
    with pytest.raises(ValueError, match="range must start at m >= 1"):
        weighted_sum(seq, 1, 0, 0)
    with pytest.raises(ValueError, match="empty range"):
        weighted_sum(seq, 1, 0, 5, 4)
    # a_nu^2 = 1e600 nu^-1: every sum is past 2^1024, over 1..64 and over
    # infinite ranges from within the head, its end + 1 and past it (at s =
    # 0 this tail diverges, which gives DIVERGENT and refuses nothing)
    huge = make_power_law(1e300, 0.5, 64)
    for s, m, n in ((0, 1, 64), (-2, 1, None), (-2, np.array([1, 65, 100]), None)):
        with pytest.raises(ValueError, match=r"a sum of a_nu\^2 nu\^-?\d leaves the float range"):
            weighted_sum(huge, 2, s, m, n)


def test_json_round_trip():
    seq = make_power_log(0.5, 1.5, 0.5, 6)
    doc = json.dumps(seq.to_json())
    back = CoefficientSequence.from_json(doc)
    assert back == seq
    assert CoefficientSequence.from_json(make_power_law(1, 2, 3).to_json()) \
        == make_power_law(1, 2, 3)


def test_values_returns_a_copy():
    seq = make_power_law(1, 2, 4)
    for m, n in ((1, 4), (2, 3), (3, 6), (5, 7)):
        out = seq.values(m, n)
        want = out.copy()
        out[:] = -1.0
        assert np.array_equal(seq.values(m, n), want)
    assert seq.head.tolist() == [1.0, 0.25, 1 / 9, 1 / 16]
    assert seq == make_power_law(1, 2, 4)
    assert hash(seq) == hash(make_power_law(1, 2, 4))


@pytest.mark.parametrize("given", [
    [3, 2.0, 1],
    (3, 2.0, 1),
    np.array([3.0, 2.0, 1.0]),
    np.array([3, 0, 2, 0, 1])[::2],  # a strided view of ints
    json.dumps({"head": [3, 2.0, 1], "tail": {"variant": "zero"}}),
], ids=["list", "tuple", "array", "strided-ints", "json"])
def test_head_is_one_read_only_float64_array(given):
    seq = CoefficientSequence.from_json(given) if isinstance(given, str) else CoefficientSequence(given)
    head = seq.head
    assert type(head) is np.ndarray and head.dtype == np.float64 and head.ndim == 1
    assert head.flags.c_contiguous and not head.flags.writeable
    with pytest.raises(ValueError):
        head[0] = 0.0
    assert head.tolist() == [3.0, 2.0, 1.0]
    # the only array kept, and no tuple of floats beside it
    assert not any(isinstance(v, (tuple, np.ndarray)) for k, v in vars(seq).items() if k != "head")
    assert seq.to_json()["head"] == head.tolist()


def test_head_is_a_private_copy():
    given = np.array([2.0, 1.0])
    seq = CoefficientSequence(given)
    given[0] = 5.0
    assert seq.head.tolist() == [2.0, 1.0] and given.flags.writeable
    # unpickled and copied sequences keep a read-only head of their own
    for twin in (pickle.loads(pickle.dumps(seq)), copy.copy(seq), copy.deepcopy(seq)):
        assert twin == seq and twin.head is not seq.head and not twin.head.flags.writeable


def test_value_equal_sequences_are_equal_and_hash_alike():
    seq = CoefficientSequence([1.0, 0.0, -0.0])
    twin = CoefficientSequence((1, -0.0, 0))
    assert seq == twin and hash(seq) == hash(twin) and {seq: 1}[twin] == 1
    # -0.0 is stored as 0.0, so equal heads have equal bytes
    assert seq.head.tobytes() == twin.head.tobytes() == np.array([1.0, 0.0, 0.0]).tobytes()
    assert json.dumps(twin.to_json()) == '{"head": [1.0, 0.0, 0.0], "tail": {"variant": "zero"}}'
    tailed = make_power_law(1, 2, 4)
    assert tailed == make_power_law(1.0, 2.0, 4) and hash(tailed) == hash(make_power_law(1, 2, 4))
    assert tailed == CoefficientSequence.from_json(json.dumps(tailed.to_json()))
    for other in (CoefficientSequence([1.0, 0.0]),
                  CoefficientSequence([1.0, 0.0, 5e-324]),
                  dataclasses.replace(seq, tail=PowerLawTail(1e-3, 2.0)),
                  dataclasses.replace(tailed, tail=PowerLogTail(1, 2, 0.0)),
                  make_power_law(1, 2, 5)):
        assert other != seq and other != tailed
    assert seq != (1.0, 0.0, 0.0)


def test_to_json_bytes_are_unchanged():
    # the bytes written when the head was a tuple of floats
    assert json.dumps(make_power_law(1, 2, 4).to_json()) == (
        '{"head": [1.0, 0.25, 0.1111111111111111, 0.0625], '
        '"tail": {"variant": "power_law", "c": 1, "beta": 2}}')


def test_a_long_head_is_stored_once():
    # 2^16 float64s are 512 KiB; a tuple of Python floats beside them adds 2 MB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        seq = make_power_law(1, 2, 2 ** 16)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert seq.horizon == 2 ** 16
    assert kept < 2 ** 20


def test_validation_is_kept_on_the_sequence():
    seq = make_power_law(1, 1.5, 64)
    before = (hash(seq), seq.to_json(), repr(seq), dataclasses.fields(seq))
    first = validate_monotone(seq)
    assert first.ok and validate_monotone(seq) is first
    # not a field: equality, hash, repr and JSON see only head and tail
    assert (hash(seq), seq.to_json(), repr(seq), dataclasses.fields(seq)) == before
    twin = make_power_law(1, 1.5, 64)
    assert twin == seq and hash(twin) == hash(seq)
    assert validate_monotone(twin) == first


def test_validation_of_a_copy_is_fresh():
    seq = make_power_law(1, 1.5, 8)
    assert validate_monotone(seq).ok
    jump = dataclasses.replace(seq, tail=PowerLawTail(10.0, 1.5))
    res = validate_monotone(jump)
    assert (res.ok, res.index) == (False, 9)
    rising = dataclasses.replace(seq, head=(1.0, 2.0))
    assert validate_monotone(rising) == validate_monotone(CoefficientSequence((1, 2)))
    assert validate_monotone(rising).index == 2
    up = CoefficientSequence((0.5, 1))
    assert validate_monotone(up).reason == "a_2 > a_1"
    assert validate_monotone(up.scaled(0.0)).ok  # all zeros, scanned afresh
    assert validate_monotone(seq).ok


def test_scaled():
    seq = make_power_law(2, 1.5, 8)
    s = seq.scaled(0.5)
    assert np.allclose(s.values(1, 20), 0.5 * seq.values(1, 20))


monotone_heads = st.lists(
    st.floats(min_value=0, max_value=10), min_size=1, max_size=20,
).map(lambda xs: tuple(sorted(xs, reverse=True)))


@given(monotone_heads, monotone_heads)
def test_weighted_sum_monotone_in_sequence(h1, h2):
    n = min(len(h1), len(h2))
    lo = tuple(min(a, b) for a, b in zip(h1[:n], h2[:n]))
    hi = tuple(max(a, b) for a, b in zip(h1[:n], h2[:n]))
    assert weighted_sum(CoefficientSequence(lo), 1.5, 0.5, 1, n) \
        <= weighted_sum(CoefficientSequence(hi), 1.5, 0.5, 1, n) + 1e-12


@given(monotone_heads, st.integers(min_value=1, max_value=19))
def test_weighted_sum_additivity(head, split):
    n = len(head)
    if split >= n:
        return
    seq = CoefficientSequence(head)
    left = weighted_sum(seq, 2, 1, 1, split)
    right = weighted_sum(seq, 2, 1, split + 1, n)
    whole = weighted_sum(seq, 2, 1, 1, n)
    assert left + right == pytest.approx(whole, rel=1e-12, abs=1e-300)


@settings(deadline=None)
@given(st.floats(min_value=1.2, max_value=3), st.integers(min_value=4, max_value=64))
def test_tail_consistency_across_horizons(beta, horizon):
    a = weighted_sum(make_power_law(1, beta, horizon), 1, 0)
    b = weighted_sum(make_power_law(1, beta, 2 * horizon), 1, 0)
    assert a == pytest.approx(b, rel=1e-8)


def test_quadrature_tables_are_the_former_module_tables():
    # the tables are built on first use; each is the same float array as
    # the one the module once built at import, and read-only, since every
    # caller shares it
    from monosmooth.sequences import _exp_quadrature, _gauss_legendre

    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.concatenate([[0.0], np.geomspace(1e-9, 90.0, 24)])
    lo, half = edges[:-1, None], np.diff(edges)[:, None] / 2
    nodes = (lo + half * (x + 1)).ravel()
    former = (nodes, (half * w).ravel() * np.exp(-nodes))
    for table, want in ((_gauss_legendre(), (x, w)), (_exp_quadrature(), former)):
        assert [a.tobytes() for a in table] == [a.tobytes() for a in want]
        assert [a.dtype for a in table] == [a.dtype for a in want]
        assert not any(a.flags.writeable for a in table)
    assert _exp_quadrature() is _exp_quadrature()


# --- the store of kept results: a sequence's, and hardy's row cache ---

@pytest.fixture(params=["sequence", "hardy"])
def store(request, monkeypatch):
    """An empty store: a new sequence's, or hardy's row cache emptied for the test."""
    if request.param == "hardy":
        assert type(hardy._ROWS) is sequences._Store
        monkeypatch.setattr(hardy, "_ROWS", sequences._Store())
        return hardy._ROWS
    return CoefficientSequence((1.0,))._store


def _kept_floats(store):
    return sum(a.size for v in store._results.values() for a in sequences._arrays(v))


def test_store_evicts_the_least_recently_used(store, monkeypatch):
    monkeypatch.setattr(sequences, "_STORE_BUDGET", 3 * 1024)
    built = []

    def get(key, n, fits=None):
        def build():
            built.append(key)
            return np.arange(float(n)), 0.5  # an array and a scalar, as the core table
        return store.get(key, build, fits)

    a = get("a", 1024)
    assert not a[0].flags.writeable
    get("b", 1024)
    get("c", 1024)
    assert get("a", 1024) is a  # a hit, now the most recently used
    get("d", 1024)  # makes room by dropping b
    assert list(store._results) == ["c", "a", "d"]
    big = get("big", 4096)  # past the budget: built for its call, not kept
    assert not big[0].flags.writeable
    assert list(store._results) == ["c", "a", "d"]
    get("b", 1024)
    assert built == ["a", "b", "c", "d", "big", "b"]
    assert list(store._results) == ["a", "d", "b"] and _kept_floats(store) == 3 * 1024
    # a kept result that fits is a hit; one that does not is built again in
    # its place, here twice as long, so that the least recently used goes
    d = get("d", 512, lambda v: v[0].size >= 512)
    assert d[0].size == 1024 and list(store._results) == ["a", "b", "d"] and len(built) == 6
    get("b", 2048, lambda v: v[0].size >= 2048)
    assert built[6:] == ["b"] and list(store._results) == ["d", "b"]
    assert store._results["b"][0].size == 2048 and _kept_floats(store) == 3 * 1024


def test_threads_share_one_store(store, monkeypatch, in_threads):
    # more threads than cores, switching every microsecond, on twelve keys
    # and a budget of four results of 512, so that most lookups build and
    # evict: each lookup, with its build and evictions, is one step, so
    # none fails, every result read is whole and the store ends within its
    # budget.  Unlocked, the evictions raise KeyError and "dictionary
    # changed size during iteration"
    monkeypatch.setattr(sequences, "_STORE_BUDGET", 4 * 512)

    def work(k):
        for i in range(3000):
            key, n = (7 * i + k) % 12, 64 << (i + k) % 4
            got = store.get(key, lambda: (np.arange(float(n)) + key, 0.5),
                            lambda v: v[0].size >= n)
            assert np.array_equal(got[0][:n], np.arange(float(n)) + key) and got[1] == 0.5

    assert in_threads(work, 8) == []
    assert _kept_floats(store) <= 4 * 512


def test_a_build_that_reads_its_own_store_fails(checked_stores):
    # the plain lock would wait forever; the checked one raises, so a test
    # that makes a build look up its own store fails instead of hanging
    seq, other = CoefficientSequence((1.0,)), CoefficientSequence((2.0,))
    assert seq._store.get("a", lambda: other._store.get("b", lambda: 1.0)) == 1.0
    for store in (seq._store, hardy._ROWS):
        with pytest.raises(RuntimeError, match="its own store"):
            store.get("c", lambda: store.get("d", lambda: 1.0))
        assert store.get("c", lambda: 2.0) == 2.0  # the lock was released
