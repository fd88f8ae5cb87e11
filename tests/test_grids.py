"""K, J, I and E over a grid of n: one call on the whole grid.

At every n of a grid, shuffled and with a duplicate, each functional gives
the float of its one-point call, and K, J and I match per-n sums written
out here: K its near and far sums term by term (far ones to 2^16, then the
tail model's midpoint integral), J and I their near sums term by term with
the far sums looked up in the source's suffix tables.
"""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monosmooth.besov import (ClassParams, CoreModulusSource, DirectModulusSource,
                              coefficient_functional, discrete_seminorm, integral_seminorm)
from monosmooth.sequences import make_power_law, make_power_log, weighted_sum
from monosmooth.smoothness import SmoothnessParams, bound_core

#: the far sums of the K reference are summed term by term up to here
FAR_END = 2 ** 16

classes = st.builds(ClassParams, theta=st.sampled_from([0.5, 1.0, 2.0]), r=st.just(0.5),
                    lam=st.just(0.5), k=st.just(2), p=st.sampled_from([1.5, 2.0, 3.0]))
# beta > r + 1 - 1/p + 1/2 keeps every far sum convergent and not near critical
sequences = st.one_of(
    st.builds(make_power_law, c=st.floats(0.5, 2.0), beta=st.floats(1.75, 3.0),
              horizon=st.sampled_from([64, 512, 4096])),
    st.builds(make_power_log, c=st.floats(0.5, 2.0), beta=st.floats(1.75, 3.0),
              gamma=st.floats(-0.5, 1.5), horizon=st.sampled_from([64, 512, 4096])),
)


def grids(top):
    """At most 8 points in 1..top, shuffled, the first one twice."""
    return (st.lists(st.integers(1, top), min_size=1, max_size=7)
            .flatmap(lambda g: st.permutations(g + g[:1])).map(np.array))


def k_reference(seq, cp, n):
    th, p = cp.theta, cp.p
    e_far = cp.r * th + th - th / p - 1
    nu = np.arange(1, FAR_END + 1, dtype=float)
    a = seq.values(1, FAR_END)
    near = math.fsum(a[:n] ** th * nu[:n] ** (e_far + cp.lam * th))
    far = math.fsum(a[n:] ** th * nu[n:] ** e_far) + seq.tail.integral(th, e_far, FAR_END + 0.5)
    return (far + n ** (-cp.lam * th) * near) ** (1 / th)


def j_reference(cp, n, source):
    th = cp.theta
    nu = np.arange(1, n + 1, dtype=float)
    near = math.fsum(source.batch(np.arange(1, n + 1)) ** th * nu ** ((cp.r + cp.lam) * th - 1))
    far = source.far_sums(False, th, cp.r * th, np.array([n + 1]))[0]
    return (far + n ** (-cp.lam * th) * near) ** (1 / th)


def i_reference(cp, n, source):
    # delta = 1/(n+1): the cells up to nu = n, the last one clipped at delta
    th, delta = cp.theta, 1 / (n + 1)
    c1, c2 = cp.r * th, (cp.r + cp.lam) * th
    nu0 = math.ceil(1 / delta)
    om = source.batch(np.arange(1, nu0 + 1)) ** th
    nu = np.arange(1, nu0, dtype=float)
    w2 = ((nu + 1) ** c2 - nu ** c2) / c2
    w2[-1] = (delta ** -c2 - (nu0 - 1) ** c2) / c2
    s1 = om[-1] * ((nu0 + 1) ** c1 - delta ** -c1) / c1 \
        + source.far_sums(True, th, c1, np.array([nu0 + 1]))[0]
    return (s1 + delta ** (cp.lam * th) * math.fsum(om[:-1] * w2)) ** (1 / th)


def _check_grid(seq, cp, ns, source):
    # sized for the largest n first, as equivalence_report does, so that the
    # grid call and the one-point calls read one table
    source.batch([ns.max() + 2])
    got = {
        "K": coefficient_functional(seq, cp, ns),
        "J": discrete_seminorm(cp, ns, source),
        "I": integral_seminorm(cp, 1.0 / (ns + 1), source),
        "E": bound_core(seq, cp.smoothness, ns),
    }
    for i, n in enumerate(ns.tolist()):
        one = {
            "K": coefficient_functional(seq, cp, n),
            "J": discrete_seminorm(cp, n, source),
            "I": integral_seminorm(cp, 1 / (n + 1), source),
            "E": bound_core(seq, cp.smoothness, n),
        }
        for name, value in one.items():
            assert isinstance(value, float)
            assert got[name][i] == value, (name, n)
        assert one["K"] == pytest.approx(k_reference(seq, cp, n), rel=1e-9, abs=0)
        assert one["J"] == pytest.approx(j_reference(cp, n, source), rel=1e-12, abs=0)
        assert one["I"] == pytest.approx(i_reference(cp, n, source), rel=1e-12, abs=0)


@settings(max_examples=max(10, settings().max_examples // 5), deadline=None)
@given(seq=sequences, cp=classes, ns=grids(2 ** 13))
def test_core_grid_equals_one_point_calls(seq, cp, ns):
    _check_grid(seq, cp, ns, CoreModulusSource(seq, cp.smoothness))


# the direct source's fill grows as top^2, top = 4 max n: its grids stop at
# 64, the reach of the README grid
@settings(max_examples=max(5, settings().max_examples // 20), deadline=None)
@given(seq=sequences, cp=classes, ns=grids(64))
def test_direct_grid_equals_one_point_calls(seq, cp, ns):
    _check_grid(seq, cp, ns, DirectModulusSource(seq, cp.smoothness))


# heads of 2^13, so that no start lies past the head: a power law whose
# sums leave the normal float range at every c (c^p = 1e+-300 at p = 1.5), at
# large k and at large p.  A RuntimeWarning fails the test (pyproject.toml)
@settings(max_examples=max(10, settings().max_examples // 5), deadline=None)
@given(c=st.sampled_from([1e-200, 1.0, 1e200]), beta=st.floats(1.6, 3.0),
       k=st.sampled_from([1, 2, 28, 40, 600]), p=st.sampled_from([1.5, 3.0, 80.0, 500.0]),
       ns=grids(2 ** 13))
def test_core_table_and_grids_of_e_past_the_float_range(c, beta, k, p, ns):
    seq = make_power_law(c, beta, 2 ** 13)
    params = SmoothnessParams(k, p)
    nu = np.arange(1, 2 ** 13 + 1)
    want = bound_core(seq, params, nu)
    assert np.all(np.isfinite(want)) and np.all(want > 0)
    assert np.allclose(CoreModulusSource(seq, params).batch(nu), want, rtol=1e-12, atol=0)
    assert bound_core(seq, params, ns).tolist() == [bound_core(seq, params, n) for n in ns.tolist()]


def test_weighted_sum_grid_shapes():
    # a start past the head takes the tail from itself; a zero tail ends at
    # the head
    seq = make_power_law(1, 2, 16)
    starts = np.array([[3, 40], [17, 3]])
    got = weighted_sum(seq, 1, 0, starts)
    assert got.shape == (2, 2)
    assert [[weighted_sum(seq, 1, 0, m) for m in row] for row in starts.tolist()] \
        == got.tolist()
    ends = np.array([16, 1, 9])
    assert weighted_sum(seq, 2, 1, 1, ends).tolist() == \
        [weighted_sum(seq, 2, 1, 1, n) for n in ends.tolist()]
    short = make_power_law(0, 2, 16)
    assert weighted_sum(short, 1, 0, np.array([1, 17, 40])).tolist()[1:] == [0.0, 0.0]


def test_a_grid_takes_one_tail_sum_per_start_past_the_head(monkeypatch):
    # every start up to the head's end + 1 shares the tail's sum past the
    # head; a start past that takes its own.  Every module's binding of
    # _tail_sum is counted
    seq = make_power_law(1, 2, 4096)
    firsts = []
    for name in ("sequences", "smoothness", "besov"):
        module = importlib.import_module(f"monosmooth.{name}")
        if hasattr(module, "_tail_sum"):
            def counted(tail, q, s, lo, shift=0.0, _f=module._tail_sum):
                firsts.append(lo)
                return _f(tail, q, s, lo, shift)
            monkeypatch.setattr(module, "_tail_sum", counted)
    weighted_sum(seq, 1, 0, np.array([3, 4097, 4097, 5000]))
    assert sorted(firsts) == [4097, 5000]
    firsts.clear()
    bound_core(seq, SmoothnessParams(2, 2), np.array([2, 4096, 4999]))
    assert sorted(firsts) == [4097, 5000]
