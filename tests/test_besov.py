import copy
import dataclasses
import math
import pickle
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monosmooth
from monosmooth import besov, sequences, smoothness
from monosmooth.besov import (
    Band,
    ClassParams,
    CoreModulusSource,
    DirectModulusSource,
    MembershipReport,
    PhiSpec,
    coefficient_functional,
    discrete_seminorm,
    equivalence_report,
    integral_seminorm,
    membership_test,
    phi_eval,
    _OmegaTable,
)
from monosmooth.sequences import (CoefficientSequence, DIVERGENT, make_power_law,
                                  make_power_log, validate_monotone, weighted_sum)
from monosmooth.smoothness import (QuadratureSpec, SmoothnessParams, bound_core,
                                   difference_norms, grid_size)

CP = ClassParams(theta=1, r=0.5, lam=0.5, k=2, p=2)


class FakeSource(_OmegaTable):
    """Synthetic modulus samples omega(1/nu) = nu^(-decay)."""

    nu_cap = 2 ** 17

    def __init__(self, decay):
        # one harmonic: the base class's L^p divergence check never fires
        super().__init__(CoefficientSequence((1.0,)), CP.smoothness)
        self.decay = decay

    def _fill(self, top):
        return np.arange(1, top + 1, dtype=float) ** -self.decay


def phi_validate(phi, grid):
    """Empirical almost-increasing and doubling constants of phi.

    C1 = max over grid pairs d1 <= d2 of phi(d1)/phi(d2);
    C2 = max over the grid of phi(2 d)/phi(d), for grid in (0, 1/2].
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    v = np.atleast_1d(phi_eval(phi, grid))
    run_max = np.maximum.accumulate(v)
    c1 = float(np.max(run_max / v))
    doubled = np.atleast_1d(phi_eval(phi, np.minimum(2.0 * grid, 1.0 - 1e-12)))
    return c1, float(np.max(doubled / v))


def test_phi_power_value():
    assert phi_eval(PhiSpec.power(0.5), 0.25) == pytest.approx(0.5)


def test_phi_constant_validate():
    c1, c2 = phi_validate(PhiSpec.constant(3.0), np.geomspace(1e-4, 0.5, 40))
    assert c1 == pytest.approx(1.0)
    assert c2 == pytest.approx(1.0)


def test_phi_power_doubling_constant():
    c1, c2 = phi_validate(PhiSpec.power(0.3), np.geomspace(1e-4, 0.5, 60))
    assert c1 == pytest.approx(1.0, abs=1e-12)
    assert c2 == pytest.approx(2 ** 0.3, rel=1e-9)


def test_phi_power_log_runs():
    phi = PhiSpec.power_log(0.25, 1.0)
    assert phi_eval(phi, 0.5) > 0
    c1, c2 = phi_validate(phi, np.geomspace(1e-3, 0.5, 40))
    assert c1 >= 1.0 and c2 > 0


def test_phi_domain_rejected():
    with pytest.raises(ValueError):
        phi_eval(PhiSpec.power(0.5), 1.0)
    with pytest.raises(ValueError):
        phi_eval(PhiSpec.power(0.5), 0.0)


def test_class_params_validation():
    with pytest.raises(ValueError):
        ClassParams(theta=0, r=0.5, lam=0.5, k=2, p=2)
    with pytest.raises(ValueError):
        ClassParams(theta=1, r=0.5, lam=0.5, k=2, p=1)
    with pytest.raises(ValueError):
        ClassParams(theta=1, r=0.5, lam=0.5, k=1, p=2)  # needs k > r + lam


def test_class_params_list_every_broken_rule():
    with pytest.raises(ValueError, match="^k: must be a positive integer$"):
        ClassParams(theta=1, r=0.5, lam=0.5, k=2.5, p=2)
    with pytest.raises(ValueError) as err:
        ClassParams(theta=0, r=0.5, lam=0.5, k=0.5, p=1)
    assert str(err.value) == ("theta: must be positive; p: must lie in (1, inf); "
                              "k: must be a positive integer; k: must exceed r + lam")
    # a whole float order is stored as an int, so it can index and count
    assert ClassParams(theta=1, r=0.5, lam=0.5, k=2.0, p=2).smoothness.k == 2
    assert isinstance(SmoothnessParams(k=2.0, p=2).k, int)


def test_direct_source_h_rule_and_default():
    assert DirectModulusSource(make_power_law(1, 2, 8), CP.smoothness).H == 16
    with pytest.raises(ValueError, match="^H: must be a positive integer$"):
        DirectModulusSource(make_power_law(1, 2, 8), CP.smoothness, H=0)


def test_phi_needs_every_parameter_of_its_variant():
    with pytest.raises(ValueError, match="^power phi needs alpha$"):
        PhiSpec(variant="power")
    with pytest.raises(ValueError, match="^power-log phi needs gamma$"):
        PhiSpec(variant="power_log", alpha=0.25)
    assert PhiSpec(variant="constant") == PhiSpec.constant()


def test_coefficient_functional_zero():
    z = CoefficientSequence((0.0, 0.0))
    assert coefficient_functional(z, CP, 2) == 0.0


def test_coefficient_functional_single_harmonic():
    # only a_1 = 1: far part empty, near part n^{-lam} * 1^{(r+lam)+1-1/p-1}
    seq = CoefficientSequence((1.0, 0.0, 0.0))
    got = coefficient_functional(seq, CP, 2)
    assert got == pytest.approx(2 ** -0.5, rel=1e-12)


def test_coefficient_functional_power_law_oracle():
    # a_nu = nu^{-2}, theta=1, r=0.5, lam=0.5, p=2, n=8:
    # far exponent 0.5+1-0.5-1 = 0, near exponent 0.5
    seq = make_power_law(1, 2, 8)
    nu = np.arange(1, 10 ** 7, dtype=float)
    far = float(np.sum(nu[8:] ** -2.0)) + 1.0 / (10 ** 7 - 0.5)
    near = float(np.sum(nu[:8] ** -2.0 * nu[:8] ** 0.5))
    want = far + 8 ** -0.5 * near
    assert coefficient_functional(seq, CP, 8) == pytest.approx(want, rel=1e-6)


def test_coefficient_functional_divergent():
    seq = make_power_law(1, 0.5, 8)  # far summand ~ nu^{-1/2}
    assert coefficient_functional(seq, CP, 4) == DIVERGENT


def test_functional_homogeneity():
    seq = make_power_law(1, 2, 64)
    s = 3.7
    base = coefficient_functional(seq, CP, 16)
    assert coefficient_functional(seq.scaled(s), CP, 16) \
        == pytest.approx(s * base, rel=1e-10)


def test_discrete_seminorm_fake_source_oracle():
    # omega(1/nu) = nu^{-2}: J(4) = sum_{nu>4} nu^{-2.5}
    #                             + 4^{-0.5} sum_{nu<=4} nu^{-2}
    src = FakeSource(2.0)
    nu = np.arange(1, 10 ** 6, dtype=float)
    far = float(np.sum(nu[4:] ** -2.5))
    near = float(np.sum(nu[:4] ** -2.0))
    want = far + 4 ** -0.5 * near
    got = discrete_seminorm(CP, 4, src)
    assert got == pytest.approx(want, rel=2e-4)


def test_discrete_seminorm_single_harmonic_direct():
    # a = (1): omega(1/nu) = (2 sin(1/(2 nu)))^2 sqrt(pi) exactly
    seq = CoefficientSequence((1.0,))
    src = DirectModulusSource(seq, CP.smoothness)
    nu = np.arange(1, 2 * 10 ** 5, dtype=float)
    om = (2 * np.sin(0.5 / nu)) ** 2 * math.sqrt(math.pi)
    want = float(np.sum(om[1:] * nu[1:] ** -0.5)) + om[0]
    got = discrete_seminorm(CP, 1, src)
    assert got == pytest.approx(want, rel=5e-4)


def test_integral_seminorm_fake_source_oracle():
    # naive loop over the same cell rule, summed far past the tail cut
    src = FakeSource(2.0)
    delta = 0.2
    th, c1, c2 = 1.0, 0.5, 1.0
    nu0 = 5
    s1 = src(nu0) ** th * ((nu0 + 1) ** c1 - delta ** -c1) / c1
    for v in range(nu0 + 1, 10 ** 5):
        s1 += src(v) ** th * ((v + 1) ** c1 - v ** c1) / c1
    s2 = 0.0
    for v in range(1, nu0):
        if v == nu0 - 1:
            w = (delta ** -c2 - (nu0 - 1) ** c2) / c2
        else:
            w = ((v + 1) ** c2 - v ** c2) / c2
        s2 += src(v) ** th * w
    want = (s1 + delta ** (CP.lam * th) * s2) ** (1 / th)
    got = integral_seminorm(CP, delta, src)
    assert got == pytest.approx(want, rel=2e-4)


def test_integral_seminorm_zero():
    src = FakeSource(2.0)

    class Zero(FakeSource):
        def _fill(self, top):
            return np.zeros(top)

    assert integral_seminorm(CP, 0.3, Zero(2.0)) == 0.0
    assert integral_seminorm(CP, 0.3, src) > 0


def test_seminorms_of_the_zero_sequence():
    zero = CoefficientSequence((0.0, 0.0))
    for src in (CoreModulusSource(zero, CP.smoothness),
                DirectModulusSource(zero, CP.smoothness, H=4)):
        assert discrete_seminorm(CP, 4, src) == 0.0
        assert integral_seminorm(CP, 0.2, src) == 0.0


def test_integral_seminorm_ratio_to_closed_form_stabilizes():
    # synthetic omega(t) = t^2 with theta=1, r=0.5, lam=0.5:
    # closed form I(delta) = delta^{1.5}/1.5 + delta^{0.5}(1 - delta).
    # The cell discretization converges to a constant multiple of it;
    # assert the ratio drifts < 1% per doubling of 1/delta.
    src = FakeSource(2.0)
    ratios = []
    for n in (64, 128, 256, 512):
        delta = 1.0 / n
        closed = delta ** 1.5 / 1.5 + delta ** 0.5 * (1 - delta)
        ratios.append(integral_seminorm(CP, delta, src) / closed)
    for a, b in zip(ratios, ratios[1:]):
        assert abs(b / a - 1) < 0.01


def test_integral_seminorm_divergent_small_t():
    # a_nu = nu^-0.8: omega(1/nu) = E(nu) ~ nu^{-0.3}, summand ~ nu^{-0.3-0.5}
    # diverges, while f is in L^2
    seq = make_power_law(1, 0.8, 64)
    src = CoreModulusSource(seq, CP.smoothness)
    assert math.isfinite(src(5))
    assert integral_seminorm(CP, 0.25, src) == DIVERGENT
    assert discrete_seminorm(CP, 4, src) == DIVERGENT


def test_seminorm_input_validation():
    src = FakeSource(2.0)
    with pytest.raises(ValueError):
        integral_seminorm(CP, 1.5, src)
    with pytest.raises(ValueError):
        discrete_seminorm(CP, 0, src)
    with pytest.raises(ValueError):
        coefficient_functional(make_power_law(1, 2, 4), CP, 0)


def test_core_source_tracks_direct_modulus():
    seq = make_power_law(1, 2, 4096)
    core = CoreModulusSource(seq, CP.smoothness)
    direct = DirectModulusSource(seq, CP.smoothness, H=16)
    for nu in (2, 8, 32):
        ratio = direct(nu) / core(nu)
        assert 0.1 < ratio < 10


def test_core_source_equals_bound_core():
    # the omega table reproduces E(nu) from weighted_sum, at nu inside the
    # stored head, past it, and past nu_cap, where the table doubles
    params = SmoothnessParams(2, 3)
    for seq in (make_power_law(1, 1.5, 4096), make_power_log(1, 1.2, 0.5, 512)):
        core = CoreModulusSource(seq, params)
        for nus in ([3, 40], [600, 5000], [1, 70000], [2 ** 17 + 3]):
            want = [bound_core(seq, params, nu) for nu in nus]
            assert np.allclose(core.batch(nus), want, rtol=1e-8, atol=0)


def test_core_source_does_not_depend_on_request_history():
    # within the first table (2^13 here) every value is the same float; a
    # larger table moves weighted_sum's far sum past its end, which holds
    # to its 1e-9 tolerance
    seq = make_power_law(1, 1.5, 4096)
    fresh = CoreModulusSource(seq, CP.smoothness)
    used = CoreModulusSource(seq, CP.smoothness)
    used.batch([8000])
    assert np.array_equal(fresh.batch([5, 300]), used.batch([5, 300]))
    used.batch([100000])
    assert np.allclose(fresh.batch([5, 300]), used.batch([5, 300]), rtol=1e-9, atol=0)


def _power_law_omega(k, nu):
    # a_nu = nu^-2: sum_mu a_mu^2 |2 sin(mu h/2)|^(2k) in closed form, h <= 1;
    # both are increasing in h, so omega(1/nu) = sqrt(pi g(1/nu))
    h = 1.0 / np.asarray(nu, dtype=float)
    if k == 1:
        g = math.pi ** 2 * h ** 2 / 6 - math.pi * h ** 3 / 6 + h ** 4 / 24
    else:
        g = 2 * math.pi * h ** 3 / 3 - h ** 4 / 2
    return np.sqrt(math.pi * g)


@pytest.mark.parametrize("k", [1, 2])
def test_direct_source_power_law_oracle(k):
    src = DirectModulusSource(make_power_law(1, 2, 4096), SmoothnessParams(k, 2), H=16)
    src(512)  # the first table: 4 * 512 = 2048
    nu = np.arange(1, 2048)
    om = src.batch(nu)
    assert np.max(np.abs(om / _power_law_omega(k, nu) - 1)) < 1e-3
    assert np.all(np.diff(om) <= 0)


def test_direct_source_extends_past_nu_cap():
    # nu = 3 fills the first table, 256 (the floor above 4 * 3); nu = 300
    # doubles it to 512
    src = DirectModulusSource(make_power_law(1, 2, 64), SmoothnessParams(1, 2), H=16)
    nu = np.array([3, 64, 200, 300])
    assert src(3) == pytest.approx(_power_law_omega(1, 3), rel=1e-3)
    assert src._omega.size == 256
    assert np.allclose(src.batch(nu), _power_law_omega(1, nu), rtol=1e-3, atol=0)
    assert src._omega.size == 512


def _dropped_part_bound(seq, k, p, n):
    """A bound, for every h, on ||Delta_h^k g||_p, g = sum_{nu > n} a_nu cos(nu x).

    |2 sin(nu h/2)|^k <= 2^k.  p <= 2: Hoelder and Parseval,
    (2pi)^(1/p - 1/2) (pi 4^k sum a_nu^2)^(1/2).  p > 2: Hausdorff-Young,
    g's exponential coefficients being at most 2^(k-1) a_nu at +-nu,
    (2pi)^(1/p) 2^(1/p') 2^(k-1) (sum a_nu^p')^(1/p').
    """
    if p <= 2:
        rest = weighted_sum(seq, 2, 0, n + 1)
        return (2 * math.pi) ** (1 / p - 0.5) * math.sqrt(math.pi * 4 ** k * rest)
    q = p / (p - 1)
    rest = weighted_sum(seq, q, 0, n + 1)
    return (2 * math.pi) ** (1 / p) * 2 ** (1 / q) * 2 ** (k - 1) * rest ** (1 / q)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 1.5, 3, 4])
def test_direct_source_truncation_is_within_its_bound(p, k):
    # omega(1/top) of the first table, 256 (its series cut at N = 8 * 256),
    # is the norm at its smallest shift, 1/top.  By Minkowski a norm at a
    # cut moves from the full series' by at most the dropped part's bound,
    # so it is within the sum of both cuts' bounds of the norm cut at 2^17
    seq = make_power_law(1, 2, 4096)
    src = DirectModulusSource(seq, SmoothnessParams(k, p), H=4)
    src(64)
    top = src._omega.size
    assert top == 256
    far = 2 ** 17
    want = difference_norms(seq, far, k, [1 / top], p, QuadratureSpec(grid_size(far)))[0]
    slack = _dropped_part_bound(seq, k, p, 8 * top) + _dropped_part_bound(seq, k, p, far)
    assert abs(src(top) - want) <= slack


def test_direct_source_zero_tail_is_exact():
    # a = (1): ||Delta_h^k cos||_p = |2 sin(h/2)|^k ||cos||_p, increasing in h
    nu = np.arange(1, 300)
    one = CoefficientSequence((1.0,))
    for k, p, norm in ((2, 2, math.sqrt(math.pi)), (1, 3, (8 / 3) ** (1 / 3))):
        # nu = 1 fills a first table of 256, and nu up to 299 doubles it to 512
        src = DirectModulusSource(one, SmoothnessParams(k, p), H=16)
        src(1)
        want = (2 * np.sin(0.5 / nu)) ** k * norm
        assert np.allclose(src.batch(nu), want, rtol=1e-9, atol=0)


def test_direct_source_p2_scales_with_tiny_and_huge_coefficients():
    # a zero tail adds nothing past the cut, so the norms are not squared
    # again; a power-law tail is added in units of the largest coefficient.
    # Unscaled, the squares underflow at 1e-200 and overflow at 1e200.
    head = np.arange(1.0, 65) ** -2
    nu = np.arange(1, 65)
    for make in (lambda c: CoefficientSequence(tuple(c * head)),
                 lambda c: make_power_law(c, 2, 64)):
        want = DirectModulusSource(make(1.0), SmoothnessParams(2, 2), H=4).batch(nu)
        for c in (1e-200, 1e200):
            src = DirectModulusSource(make(c), SmoothnessParams(2, 2), H=4)
            with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise",
                                                        divide="raise"):
                warnings.simplefilter("error")
                got = src.batch(nu)
            assert np.allclose(got, c * want, rtol=1e-12, atol=0)


def test_direct_source_p2_tail_at_large_k():
    # the tail past the cut is added in units of 4^k: at k = 600 the squared
    # norms (near 2^1200) and C(2k, k) would leave the float range
    k = 600
    seq = make_power_law(1, 2, 64)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = DirectModulusSource(seq, SmoothnessParams(k, 2), H=4).batch(np.arange(1, 65))
    assert np.all(np.isfinite(got)) and np.all(np.diff(got) <= 0)
    # omega^2 holds the tail's pi C(2k, k) sum_{mu > N} a_mu^2, N = 8 * 256, and
    # is at most pi 4^k sum_mu a_mu^2, the bound on ||Delta_h^k f||_2^2
    log_tail = (math.log(math.pi * weighted_sum(seq, 2, 0, 8 * 256 + 1))
                + math.lgamma(2 * k + 1) - 2 * math.lgamma(k + 1))
    log_all = math.log(math.pi * weighted_sum(seq, 2, 0)) + 2 * k * math.log(2)
    assert np.all(2 * np.log(got) >= log_tail - 1e-9)
    assert np.all(2 * np.log(got) <= log_all + 1e-9)


def test_core_table_past_the_float_range_is_bound_cores():
    # the near terms a_nu^3 nu^(3k + 1) of nu^-2 are nu^(3k - 5): on a table
    # of 2^13 their sum is about 2^1001 / 77 at k = 27 and 2^1040 / 80 (past
    # 2^1024) at k = 28, where the filled table was refused ("k: a sum of
    # a_nu^3 nu^((k+1)p - 2) in the core table leaves the float range at
    # k = 28") and is now shifted as bound_core shifts it
    seq = make_power_law(1, 2, 64)
    nu = np.arange(1, 65)
    for k in (27, 28):
        params = SmoothnessParams(k, 3)
        table = CoreModulusSource(seq, params).batch(nu)
        assert np.all(np.isfinite(table)) and np.all(table > 0)
        assert table == pytest.approx(bound_core(seq, params, nu), rel=1e-13)


_NU2 = make_power_law(1, 2, 4096)


@pytest.mark.parametrize("seq, k, p", [
    (_NU2, 2, 80),  # far sums below 2^-1022 past n = 5950
    (_NU2, 2, 500),  # the near sum passes 2^1024 at nu = 5
    (_NU2, 28, 3),  # the near sum passes 2^1024
    (_NU2, 40, 3),
    (_NU2, 600, 2),
    (CoefficientSequence(head=[1e300, 1e299, 1e298, 1e297]), 30, 2.4),  # a_1^2.4 = 1e720
    (CoefficientSequence(head=_NU2.head), 2, 80),  # far sums past nu = 4096 are exactly 0
], ids=["nu-2-k2-p80", "nu-2-k2-p500", "nu-2-k28-p3", "nu-2-k40-p3", "nu-2-k600-p2",
        "huge-head-k30-p2.4", "zero-tail-k2-p80"])
def test_core_table_out_of_range_equals_bound_core(seq, k, p):
    # one algorithm for E(n): the core table and bound_core take the same
    # running sums, which shift a sum with a positive term that is not a
    # normal float; the table's far sums run over the whole table on top of
    # the tail's sum past it, bound_core's over the head
    params = SmoothnessParams(k, p)
    nu = np.arange(1, 2 ** 13 + 1)
    table = CoreModulusSource(seq, params).batch(nu)
    assert np.all(np.isfinite(table)) and np.all(table > 0)
    assert np.allclose(table, bound_core(seq, params, nu), rtol=1e-12, atol=0)


@pytest.mark.parametrize("p", [27, 40])
def test_core_table_at_large_p_agrees_with_bound_core(p):
    # nu^((k+1)p - 2) alone passes 2^1024 at the end of a table of 2^13 for
    # every p >= 27 at k = 2 (8192^79), and was once formed before a_nu^p;
    # the plain cumulative sums keep these tables (p = 80, whose far sums
    # are subnormal, is test_core_table_out_of_range_equals_bound_core's)
    seq = make_power_law(1, 2, 4096)
    params = SmoothnessParams(2, p)
    ns = np.array([1, 2, 4, 8, 16])
    table = CoreModulusSource(seq, params).batch(ns)
    assert np.allclose(table, bound_core(seq, params, ns), rtol=1.1e-15, atol=0)


def test_core_table_with_a_power_near_the_float_range_is_filled():
    # at k = 39 and p = 2, nu^78 is 2^1014 at the end of a table of 2^13: a
    # table that was once refused in advance (at 2^1000), and is E itself
    seq = make_power_law(1, 2, 4096)
    params = SmoothnessParams(39, 2)
    nu = np.arange(1, 2 ** 13 + 1)
    table = CoreModulusSource(seq, params).batch(nu)
    assert np.all(np.isfinite(table)) and np.all(table > 0)
    assert table == pytest.approx(bound_core(seq, params, nu), rel=1e-13)


def test_seminorms_past_the_direct_source_cap():
    # after a first table of 256, n = 256 starts the far sums past it, and
    # the table doubles; against a first table of 2048
    seq = make_power_law(1, 2, 4096)
    small = DirectModulusSource(seq, CP.smoothness, H=16)
    small(1)
    full = DirectModulusSource(seq, CP.smoothness, H=16)
    full(512)
    j = discrete_seminorm(CP, 256, small)
    assert small._omega.size == 512
    assert math.isfinite(j) and j > 0
    assert j == pytest.approx(discrete_seminorm(CP, 256, full), rel=1e-3)
    i = integral_seminorm(CP, 1 / 257, small)
    assert i == pytest.approx(integral_seminorm(CP, 1 / 257, full), rel=1e-3)
    assert full._omega.size == 2048


def test_direct_source_takes_sup_over_shifts():
    # ||Delta_h cos(4 .)||_2 = 2 |sin(2h)| sqrt(pi) peaks at h = pi/4 < 1
    seq = CoefficientSequence((0.0, 0.0, 0.0, 1.0))
    src = DirectModulusSource(seq, SmoothnessParams(1, 2), H=16)
    peak = 2 * math.sqrt(math.pi)
    assert 0.99 * peak < src(1) <= peak * (1 + 1e-12)
    assert src(1) > 1.05 * 2 * math.sin(2.0) * math.sqrt(math.pi)


def test_direct_source_divergent():
    # sum a_nu^2 = sum 1/nu diverges: f is not in L^2, on either source
    seq = make_power_law(1, 0.5, 64)
    for src in (DirectModulusSource(seq, CP.smoothness, H=16),
                CoreModulusSource(seq, CP.smoothness)):
        assert np.all(src.batch(np.array([1, 5, 4000])) == DIVERGENT)
        assert discrete_seminorm(CP, 4, src) == DIVERGENT
        assert integral_seminorm(CP, 0.2, src) == DIVERGENT


def _far_sum(source, start, theta, c, cell):
    # the terms from start to the table's end, summed per call, plus the
    # source's sum past the table (once per table); batch grows the table
    # as far_sums does
    source.batch([start])
    top = source._omega.size
    closures = source.__dict__.setdefault("per_call_closures", {})
    key = (top, cell, theta, c)
    if key not in closures:
        closures[key] = source._closure(cell, theta, c)
    nus = np.arange(start, top + 1)
    nuf = nus.astype(float)
    w = ((nuf + 1) ** c - nuf ** c) / c if cell else nuf ** (c - 1)
    return float(np.sum(source.batch(nus) ** theta * w)) + closures[key]


def _per_request_j(cp, n, source):
    # J(n) with its far sum summed per call
    th = cp.theta
    far = _far_sum(source, n + 1, th, cp.r * th, False)
    nus = np.arange(1, n + 1)
    om = source.batch(nus)
    near = float(np.sum(om ** th * nus.astype(float) ** ((cp.r + cp.lam) * th - 1)))
    return (far + n ** (-cp.lam * th) * near) ** (1.0 / th)


def _per_request_i(cp, delta, source):
    # I(delta) with its far cells summed per call
    th = cp.theta
    c1, c2 = cp.r * th, (cp.r + cp.lam) * th
    nu0 = math.ceil(1.0 / delta)
    far = _far_sum(source, nu0 + 1, th, c1, True)  # first: it may grow the table
    top = source.batch(np.array([nu0]))[0]
    s1 = top ** th * ((nu0 + 1) ** c1 - delta ** (-c1)) / c1 + far
    s2 = 0.0
    if nu0 > 1:
        nus = np.arange(1, nu0)
        nuf = nus.astype(float)
        w2 = ((nuf + 1) ** c2 - nuf ** c2) / c2
        w2[-1] = (delta ** (-c2) - (nu0 - 1) ** c2) / c2
        s2 = float(np.sum(source.batch(nus) ** th * w2))
    return (s1 + delta ** (cp.lam * th) * s2) ** (1.0 / th)


# steep: the sum past the table is a small part of every far sum
STEEP = ClassParams(theta=2, r=0.5, lam=0.5, k=3, p=2)
_HEAD_64 = CoefficientSequence(tuple(np.arange(1, 65, dtype=float) ** -2))


@pytest.mark.parametrize("seq, make, cp, n_max", [
    (make_power_law(1, 5, 4096), CoreModulusSource, STEEP, 4096),
    (make_power_log(1, 5, 0.5, 4096), CoreModulusSource, STEEP, 4096),
    # n = 1 fills the first table, 256; n >= 256 starts the far sums past
    # it: omega refills up to 2^13
    (_HEAD_64, lambda s, p: DirectModulusSource(s, p, H=4), STEEP, 4096),
    # far sums that the sum past the table dominates
    (make_power_law(1, 1.75, 4096), CoreModulusSource, CP, 24),
], ids=["core-power-law", "core-power-log", "direct-raised-cap", "core-to-cap"])
def test_seminorms_equal_per_request_evaluation(seq, make, cp, n_max):
    # a far sum is one lookup of a suffix table: the same terms and the
    # same sum past the table as a per-call sum, in another order
    tabled, plain = make(seq, cp.smoothness), make(seq, cp.smoothness)
    for n in range(1, n_max + 1):
        assert discrete_seminorm(cp, n, tabled) \
            == pytest.approx(_per_request_j(cp, n, plain), rel=1e-12)
        assert integral_seminorm(cp, 1 / (n + 1), tabled) \
            == pytest.approx(_per_request_i(cp, 1 / (n + 1), plain), rel=1e-12)


def test_seminorms_do_not_depend_on_request_order():
    # after a first table of 256, n = 300 refills the omega table (horizon
    # 8 * top changes every entry); each value must come from the omega
    # table current when it is asked for
    seq = make_power_law(1, 2, 4096)
    grid = [1, 3, 10, 40, 255, 256, 300]
    shuffled = list(grid)
    np.random.default_rng(7).shuffle(shuffled)
    assert shuffled not in (grid, grid[::-1])

    def make():
        src = DirectModulusSource(seq, CP.smoothness, H=4)
        src(1)
        return src

    def values(src):
        return [(discrete_seminorm(CP, n, src),
                 integral_seminorm(CP, 1 / (n + 1), src)) for n in grid]

    settled = make()
    settled.batch([2 * 256])
    assert values(make()) != values(settled)
    want = values(settled)
    for order in (grid, grid[::-1], shuffled):
        src, plain = make(), make()
        for n in order:
            assert discrete_seminorm(CP, n, src) \
                == pytest.approx(_per_request_j(CP, n, plain), rel=1e-12)
            assert integral_seminorm(CP, 1 / (n + 1), src) \
                == pytest.approx(_per_request_i(CP, 1 / (n + 1), plain), rel=1e-12)
        assert values(src) == want


@settings(max_examples=max(1, settings().max_examples // 10), deadline=None)
@given(beta=st.floats(1.5, 3.0), last=st.integers(65, 128),
       rest=st.lists(st.integers(1, 128), max_size=4), order=st.randoms())
def test_equivalence_report_does_not_depend_on_grid_order(beta, last, rest, order):
    # the report sizes a fresh source from its largest n (past 64, a table
    # above the floor of 256), so every value comes from that one table:
    # the same floats for a shuffled grid as for the sorted one, and as
    # for each n asked of a source sized first
    seq = make_power_law(1, beta, 4096)
    grid = sorted(set(rest) | {last})
    shuffled = list(grid)
    order.shuffle(shuffled)

    def report(ns):
        return equivalence_report(seq, CP, ns, DirectModulusSource(seq, CP.smoothness, H=4))

    values = report(grid)["values"]
    assert report(shuffled)["values"] == values
    src = DirectModulusSource(seq, CP.smoothness, H=4)
    src(grid[-1])
    for n in shuffled:
        i = grid.index(n)
        assert values["J"][i] == discrete_seminorm(CP, n, src)
        assert values["I"][i] == integral_seminorm(CP, 1 / (n + 1), src)
        assert values["omega"][i] == src(n)


def test_membership_constant_phi_bounded_vs_divergent():
    phi = PhiSpec.constant(1.0)
    grid = [2 ** j for j in range(1, 11)]
    ok = membership_test(make_power_law(1, 1.2, 64), CP, phi,
                         functional="K", n_grid=grid)
    bad = membership_test(make_power_law(1, 0.8, 64), CP, phi,
                          functional="K", n_grid=grid)
    assert ok.verdict == "bounded"
    assert bad.verdict == "divergent"
    assert ok.sup_ratio is not None and bad.sup_ratio is None


def test_membership_rejects_steep_power_phi():
    with pytest.raises(ValueError):
        membership_test(make_power_law(1, 2, 16), CP, PhiSpec.power(0.5),
                        functional="K")
    with pytest.raises(ValueError):
        membership_test(make_power_law(1, 2, 16), CP, PhiSpec.constant(1.0),
                        functional="Q")


def test_membership_report_shape():
    rep = membership_test(make_power_law(1, 2, 64), CP, PhiSpec.constant(1.0),
                          functional="K", n_grid=[2, 4, 8, 16, 32])
    assert isinstance(rep, MembershipReport)
    assert rep.grid == [2, 4, 8, 16, 32]
    assert len(rep.values) == len(rep.ratios) == 5


@pytest.mark.parametrize("functional", ["K", "J", "I"])
def test_membership_of_the_zero_sequence(functional):
    # every value and ratio is 0, with no RuntimeWarning on the way
    zero = CoefficientSequence((0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = membership_test(zero, CP, PhiSpec.constant(), functional,
                              n_grid=[2, 4, 8, 16, 32])
    assert rep.verdict == "bounded"
    assert rep.values == rep.ratios == [0.0] * 5 and rep.sup_ratio == 0.0


def test_band_spread():
    b = Band("x", [1.0, 2.0, 4.0])
    assert b.lo == 1.0 and b.hi == 4.0 and b.spread == 4.0


@pytest.mark.parametrize("make, n", [
    (CoreModulusSource, 2 ** 13 - 1), (CoreModulusSource, 2 ** 13),
    (DirectModulusSource, 63), (DirectModulusSource, 64),
], ids=["core-T-1", "core-T", "direct-63", "direct-64"])
def test_equivalence_report_reads_one_table(make, n):
    # I(1/(n+1)) reads its far sum from n + 2; at n = T - 1 (T = 2^13, the
    # core table) it once doubled the table after J(n) had been read from it.
    # The direct source keeps its 4 n sizing: 256 for n <= 64
    seq = make_power_law(1, 2, 4096)
    sized = make(seq, CP.smoothness)
    sized(n)
    sized(n + 2)
    src = make(seq, CP.smoothness)
    values = equivalence_report(seq, CP, [4, n], src)["values"]
    assert src._omega.size == sized._omega.size
    if make is DirectModulusSource:
        assert src._omega.size == 256
    assert values["J"][-1] == discrete_seminorm(CP, n, sized)
    assert values["I"][-1] == integral_seminorm(CP, 1 / (n + 1), sized)


def test_equivalence_report_small_grid():
    rep = equivalence_report(make_power_law(1, 2, 64), CP, [4, 8, 16])
    bands = rep["bands"]
    assert set(bands) == {"JI", "KJ", "wE"}
    for band in bands.values():
        assert band.spread is not None and band.spread < 50
    assert len(rep["values"]["n"]) == 3


# -- the tables and closure nodes kept on the sequence ------------------------

# the shared sequences live for the whole process, so that a second pass of
# this file in it (CI's "warm table store" step) finds their stores warm
_SHARED = {}


def _shared(name):
    """(seq, cp): a power law; class-sweep's set D on the critical line of
    its verdict, a power-log tail with gamma = -0.5; a power-log tail whose
    closure takes the critical nodes (x_E = r, so q = 1); a zero tail."""
    if not _SHARED:
        d = ClassParams(theta=1, r=0.75, lam=0.75, k=3, p=4)
        _SHARED.update({
            "power-law": (make_power_law(1.2, 2, 4096), CP),
            "power-log": (make_power_log(1.0, d.r + 0.4 + 1 - 1 / d.p, -0.5, 4096), d),
            "critical-closure": (make_power_log(1.0, 1.0, 1.5, 4096), CP),
            "zero-tail": (CoefficientSequence(1.0 / np.arange(1, 65)), CP),
        })
    return _SHARED[name]


def _kept_floats(seq):
    return sum(a.size for v in seq._store.values() for a in sequences._arrays(v))


def _store_results(seq, cp):
    """repr of every functional that reads the store: J and I on one core
    source each, membership J and I, and the equivalence report on a core
    and on a direct source."""
    ns = np.array([2, 16, 300])
    out = [discrete_seminorm(cp, ns, CoreModulusSource(seq, cp.smoothness)).tolist(),
           integral_seminorm(cp, 1.0 / (ns + 1), CoreModulusSource(seq, cp.smoothness)).tolist()]
    for functional in "JI":
        rep = membership_test(seq, cp, PhiSpec.power(0.25), functional)
        out.append((rep.values, rep.ratios, rep.verdict))
    for source in (CoreModulusSource(seq, cp.smoothness),
                   DirectModulusSource(seq, cp.smoothness, H=4)):
        rep = equivalence_report(seq, cp, [4, 8, 16], source)
        out.append((rep["values"], {name: band.ratios for name, band in rep["bands"].items()}))
    return repr(out)


@pytest.mark.parametrize("name", ["power-law", "power-log", "critical-closure", "zero-tail"])
def test_results_do_not_depend_on_the_store(name, monkeypatch):
    # cold (a fresh copy), warm (the shared sequence, twice), and on copies
    # whose budget keeps nothing, or one table at a time so that each
    # closure evicts the table it continues
    seq, cp = _shared(name)
    cold = _store_results(dataclasses.replace(seq), cp)
    assert _store_results(seq, cp) == cold
    assert _store_results(seq, cp) == cold
    assert seq._store
    for budget in (0, 9000):
        monkeypatch.setattr(sequences, "_STORE_BUDGET", budget)
        twin = dataclasses.replace(seq)
        assert _store_results(twin, cp) == cold
        assert _kept_floats(twin) <= budget


def test_kept_results_are_read_only():
    seq = make_power_log(1.0, 2.0, 0.5, 512)
    source = CoreModulusSource(seq, CP.smoothness)
    discrete_seminorm(CP, 8, source)
    equivalence_report(seq, CP, [4, 8], DirectModulusSource(seq, CP.smoothness, H=4))
    validate_monotone(seq)
    assert {key[0] for key in seq._store} == {"core", "closure", "direct", "monotone"}
    arrays = [a for v in seq._store.values() for a in sequences._arrays(v)]
    assert len(arrays) == 5 and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        source._omega[0] = 0.0


def test_store_budget_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(sequences, "_STORE_BUDGET", 3 * 1024)
    seq = CoefficientSequence((1.0,))
    built = []

    def get(key, n):
        def build():
            built.append(key)
            return np.arange(float(n)), 0.5  # an array and a scalar, as the core table
        return seq._kept((key,), build)

    a = get("a", 1024)
    get("b", 1024)
    get("c", 1024)
    assert get("a", 1024) is a  # a hit, now the most recently used
    get("d", 1024)  # makes room by dropping b
    assert list(seq._store) == [("c",), ("a",), ("d",)]
    get("big", 4096)  # past the budget: built for its call, not kept
    assert list(seq._store) == [("c",), ("a",), ("d",)]
    get("b", 1024)
    assert built == ["a", "b", "c", "d", "big", "b"]
    assert list(seq._store) == [("a",), ("d",), ("b",)] and _kept_floats(seq) == 3 * 1024
    # a core table past the budget is built for each source and not kept
    monkeypatch.setattr(sequences, "_STORE_BUDGET", 4096)
    fills = _count_fills(monkeypatch)
    seq = make_power_law(1, 2, 64)
    for _ in range(2):
        CoreModulusSource(seq, CP.smoothness)(5)
    assert len(fills) == 2 and not seq._store


def _count_fills(monkeypatch):
    fills = []

    def counted(seq, params, top, _f=besov.core_table):
        fills.append((id(seq), params.k, params.p, top))
        return _f(seq, params, top)

    monkeypatch.setattr(besov, "core_table", counted)
    return fills


def _in_threads(work, count):
    """work(i) in count threads switching every microsecond; the exceptions raised."""
    failures = []

    def run(i):
        try:
            work(i)
        except Exception as exc:  # read after join, in the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return failures


def test_threads_fill_one_sequence(monkeypatch):
    # two threads ask for one table at once: one fills it, the other reads it
    seq = make_power_log(1.0, 2.0, 0.5, 4096)
    ns = np.array([4, 64])
    want = discrete_seminorm(CP, ns, CoreModulusSource(dataclasses.replace(seq), CP.smoothness))
    fills = _count_fills(monkeypatch)
    got = []
    assert _in_threads(lambda i: got.append(
        discrete_seminorm(CP, ns, CoreModulusSource(seq, CP.smoothness))), 2) == []
    assert len(fills) == 1 and len(got) == 2
    assert all(np.array_equal(j, want) for j in got)
    # four threads on six tables and a budget of two, so that most lookups
    # fill and evict: each lookup is one step, and every table read is whole
    monkeypatch.setattr(sequences, "_STORE_BUDGET", 2 * 2 ** 13)
    params = [SmoothnessParams(k, p) for k in (2, 3) for p in (1.5, 2, 3)]
    nus = np.array([1, 100, 8192])
    oracle = [CoreModulusSource(dataclasses.replace(seq), sp).batch(nus) for sp in params]

    def work(i):
        for j in range(30):
            at = (5 * j + i) % len(params)
            assert np.array_equal(CoreModulusSource(seq, params[at]).batch(nus), oracle[at])

    assert _in_threads(work, 4) == []
    assert _kept_floats(seq) <= 2 * 2 ** 13


def test_copies_start_with_an_empty_store():
    seq = make_power_law(1, 2, 64)
    discrete_seminorm(CP, 8, CoreModulusSource(seq, CP.smoothness))
    validate_monotone(seq)
    assert {key[0] for key in seq._store} == {"core", "closure", "monotone"}
    for twin in (seq.scaled(1.0), dataclasses.replace(seq), pickle.loads(pickle.dumps(seq)),
                 copy.copy(seq), copy.deepcopy(seq)):
        assert twin == seq and twin._store == {} and twin._store_lock is not seq._store_lock
    assert len(seq._store) == 3


def test_a_class_sweep_cycle_fills_each_table_once(monkeypatch, workloads):
    # one class-sweep cycle of perfbench (seed 1, 68 experiments) on 20
    # sequences: with every store emptied before each experiment, as each
    # source filled its own before the store, it fills 45 tables (20
    # distinct) and 35 sets of closure nodes (15 distinct); on cold stores,
    # 20 and 15; on the warm stores of the cycle before, none
    monkeypatch.syspath_prepend(str(Path(workloads.__file__).parent))  # its reference module
    fills = _count_fills(monkeypatch)
    closures = []

    def counted(self, q1, rho, critical, _f=CoreModulusSource._log_e):
        closures.append((id(self.seq), self._omega.size, q1, rho))
        return _f(self, q1, rho, critical)

    monkeypatch.setattr(CoreModulusSource, "_log_e", counted)
    inp = workloads.cs_inputs(monosmooth, 1)
    cycle = workloads.cs_cycle(monosmooth, inp, None, lambda thunk: None)
    seqs = [seq for _, _, seq in inp["seqs"].values()]
    assert len(cycle) == 68 and len(seqs) == 20

    def run(clear_each):
        fills.clear()
        closures.clear()
        results = []
        for experiment in cycle:
            for seq in seqs if clear_each else ():
                seq._store.clear()
            results.append(repr(experiment.run()))
        return results, (len(fills), len(set(fills)), len(closures), len(set(closures)))

    cold, counts = run(True)
    assert counts == (45, 20, 35, 15)
    for seq in seqs:
        seq._store.clear()
    assert run(False) == (cold, (20, 20, 15, 15))
    assert run(False) == (cold, (0, 0, 0, 0))


def test_a_warm_direct_table_sends_nothing_to_the_fft(monkeypatch):
    # a p = 3 direct source takes its norms through the grid kernel; a
    # second source on the same sequence, H, k, p and top reads the table
    sent = []

    def counting(hs, *args, _f=smoothness._grid_sums):
        sent.append(hs.size)
        return _f(hs, *args)

    monkeypatch.setattr(smoothness, "_grid_sums", counting)
    seq = make_power_law(1, 2, 4096)
    cp = ClassParams(theta=1, r=0.5, lam=0.5, k=2, p=3)
    first = equivalence_report(seq, cp, [4, 8], DirectModulusSource(seq, cp.smoothness, H=4))
    assert sum(sent) > 256
    sent.clear()
    again = equivalence_report(seq, cp, [4, 8], DirectModulusSource(seq, cp.smoothness, H=4))
    assert sent == [] and repr(again) == repr(first)
    DirectModulusSource(seq, cp.smoothness, H=8)(4)  # another H is another table
    assert sum(sent) > 256
