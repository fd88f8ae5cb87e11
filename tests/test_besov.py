import math
import warnings

import numpy as np
import pytest

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
    _grid_verdict,
    _OmegaTable,
)
from monosmooth.sequences import (CoefficientSequence, DIVERGENT, make_power_law,
                                  make_power_log)
from monosmooth.smoothness import SmoothnessParams, bound_core

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


class SmallDirect(DirectModulusSource):
    """A direct source whose first table stops at nu = 64, so that a test
    reaches the doubling cheaply."""

    nu_cap = 64


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
                SmallDirect(zero, CP.smoothness, H=4)):
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
    nu = np.arange(1, 2048)
    om = src.batch(nu)
    assert np.max(np.abs(om / _power_law_omega(k, nu) - 1)) < 1e-3
    assert np.all(np.diff(om) <= 0)


def test_direct_source_extends_past_nu_cap():
    src = SmallDirect(make_power_law(1, 2, 64), SmoothnessParams(1, 2), H=16)
    nu = np.array([3, 64, 100, 200])
    assert src(3) == pytest.approx(_power_law_omega(1, 3), rel=1e-3)
    assert np.allclose(src.batch(nu), _power_law_omega(1, nu), rtol=1e-3, atol=0)


def test_direct_source_zero_tail_is_exact():
    # a = (1): ||Delta_h^k cos||_p = |2 sin(h/2)|^k ||cos||_p, increasing in h
    nu = np.arange(1, 300)
    one = CoefficientSequence((1.0,))
    for k, p, norm in ((2, 2, math.sqrt(math.pi)), (1, 3, (8 / 3) ** (1 / 3))):
        # nu up to 299 fills one table of 512, as from a first table of 256
        src = SmallDirect(one, SmoothnessParams(k, p), H=16)
        want = (2 * np.sin(0.5 / nu)) ** k * norm
        assert np.allclose(src.batch(nu), want, rtol=1e-9, atol=0)


def test_seminorms_past_the_direct_source_cap():
    # n = 64 starts the far sums at or past nu_cap = 64; the table doubles
    seq = make_power_law(1, 2, 4096)
    small = SmallDirect(seq, CP.smoothness, H=16)
    full = DirectModulusSource(seq, CP.smoothness, H=16)
    j = discrete_seminorm(CP, 64, small)
    assert math.isfinite(j) and j > 0
    assert j == pytest.approx(discrete_seminorm(CP, 64, full), rel=1e-3)
    i = integral_seminorm(CP, 1 / 65, small)
    assert i == pytest.approx(integral_seminorm(CP, 1 / 65, full), rel=1e-3)


def test_direct_source_takes_sup_over_shifts():
    # ||Delta_h cos(4 .)||_2 = 2 |sin(2h)| sqrt(pi) peaks at h = pi/4 < 1
    seq = CoefficientSequence((0.0, 0.0, 0.0, 1.0))
    src = SmallDirect(seq, SmoothnessParams(1, 2), H=16)
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
    # n >= 64 starts the far sums past nu_cap = 64: omega refills up to 2^13
    (_HEAD_64, lambda s, p: SmallDirect(s, p, H=4), STEEP, 4096),
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
    # n = 200 refills the omega table (horizon 8 * top changes every entry);
    # each value must come from the omega table current when it is asked for
    seq = make_power_law(1, 2, 4096)
    grid = [1, 3, 10, 40, 63, 64, 200]
    shuffled = list(grid)
    np.random.default_rng(7).shuffle(shuffled)
    assert shuffled not in (grid, grid[::-1])

    def make():
        return SmallDirect(seq, CP.smoothness, H=4)

    def values(src):
        return [(discrete_seminorm(CP, n, src),
                 integral_seminorm(CP, 1 / (n + 1), src)) for n in grid]

    settled = make()
    settled.batch([4 * 64])
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


def test_membership_constant_phi_bounded_vs_divergent():
    phi = PhiSpec.constant(1.0)
    grid = [2 ** j for j in range(1, 11)]
    ok = membership_test(make_power_law(1, 1.2, 64), CP, phi,
                         functional="K", n_grid=grid)
    bad = membership_test(make_power_law(1, 0.8, 64), CP, phi,
                          functional="K", n_grid=grid)
    assert ok.verdict == "bounded" and ok.in_class
    assert bad.verdict == "divergent" and not bad.in_class
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
    # every ratio is 0: a running sup that stays at 0 has not grown
    zero = CoefficientSequence((0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = membership_test(zero, CP, PhiSpec.constant(), functional,
                              n_grid=[2, 4, 8, 16, 32])
    assert (rep.verdict, rep.grid_verdict) == ("bounded", "bounded")
    # one that leaves 0 has grown without bound
    assert _grid_verdict([0.0, 0.0, 0.0, 1.0]) == "unbounded"


def test_band_spread():
    b = Band("x", [1.0, 2.0, 4.0])
    assert b.lo == 1.0 and b.hi == 4.0 and b.spread == 4.0


def test_equivalence_report_small_grid():
    rep = equivalence_report(make_power_law(1, 2, 64), CP, [4, 8, 16])
    bands = rep["bands"]
    assert set(bands) == {"JI", "KJ", "wE"}
    for band in bands.values():
        assert band.spread is not None and band.spread < 50
    assert len(rep["values"]["n"]) == 3
