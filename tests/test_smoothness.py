import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monosmooth import smoothness
from monosmooth.sequences import (CoefficientSequence, DIVERGENT, make_power_law,
                                  make_power_log, make_random_monotone)
from monosmooth.smoothness import (
    QuadratureSpec,
    SmoothnessParams,
    bound_core,
    difference_norms,
    grid_size,
    lp_norm,
    modulus_direct,
    shift_grid,
)

ONE = CoefficientSequence((1.0,))


def grid_norms(seq, horizon, k, hs, p, M=QuadratureSpec.M):
    """The M-point grid norms of _grid_kernel, chunk by chunk; difference_norms
    takes them at p != 2, and Parseval at p = 2."""
    hs = np.asarray(hs, dtype=float)
    rows, norms = smoothness._grid_kernel(seq.values(1, horizon), k, p, M, hs.size)
    return np.concatenate([norms(hs[lo:lo + rows]) for lo in range(0, hs.size, rows)])


# --- oracles: the series and its k-th difference, summed term by term ---

def synthesize(seq, horizon, x):
    """Partial cosine series sum_{nu=1}^{horizon} a_nu cos(nu x)."""
    a = seq.values(1, horizon)
    nu = np.arange(1, horizon + 1, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.cos(np.multiply.outer(x, nu)) @ a


def k_difference(seq, horizon, k, h, x):
    """k-th difference: sum_{j=0}^{k} (-1)^(k-j) C(k,j) f(x + j h)."""
    if k < 1:
        raise ValueError("difference order k must be >= 1")
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=float)
    for j in range(k + 1):
        out += (-1) ** (k - j) * math.comb(k, j) * synthesize(seq, horizon, x + j * h)
    return out if out.shape else float(out)


def test_synthesize_single_harmonic():
    assert synthesize(ONE, 1, 0.0) == pytest.approx(1.0)
    assert synthesize(ONE, 1, math.pi) == pytest.approx(-1.0)
    xs = np.linspace(0, 2 * math.pi, 7)
    assert np.allclose(synthesize(ONE, 1, xs), np.cos(xs))


def test_first_difference_of_cos_at_zero():
    # Delta_h cos(x) at x = 0, h = pi: cos(pi) - cos(0) = -2
    assert k_difference(ONE, 1, 1, math.pi, 0.0) == pytest.approx(-2.0)


def test_second_difference_closed_form():
    # Delta_h^2 cos = (2 sin(h/2))^2 cos(x + h + pi)
    xs = np.linspace(0, 2 * math.pi, 33)
    for h in (0.1, 0.7, 2.0):
        want = (2 * math.sin(h / 2)) ** 2 * np.cos(xs + h + math.pi)
        got = k_difference(ONE, 1, 2, h, xs)
        assert np.allclose(got, want, atol=1e-12)


def test_difference_is_linear():
    rng = np.random.default_rng(7)
    a = np.sort(rng.uniform(0, 1, 6))[::-1]
    b = np.sort(rng.uniform(0, 1, 6))[::-1]
    xs = rng.uniform(0, 2 * math.pi, 16)
    sa = CoefficientSequence(tuple(a))
    sb = CoefficientSequence(tuple(b))
    sab = CoefficientSequence(tuple(a + b))
    got = k_difference(sab, 6, 2, 0.3, xs)
    want = k_difference(sa, 6, 2, 0.3, xs) + k_difference(sb, 6, 2, 0.3, xs)
    assert np.allclose(got, want, atol=1e-12)


def test_k_difference_rejects_zero_order():
    with pytest.raises(ValueError):
        k_difference(ONE, 1, 0, 0.1, 0.0)


@pytest.mark.parametrize("nu", [1, 2, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_single_harmonic_amplitude_law(nu, k):
    # ||Delta_h^k cos(nu .)||_2 = (2|sin(nu h/2)|)^k sqrt(pi)
    head = [0.0] * nu
    head[nu - 1] = 1.0
    seq = CoefficientSequence(tuple(head))
    for h in np.linspace(0.05, 3.0, 7):
        want = (2 * abs(math.sin(nu * h / 2))) ** k * math.sqrt(math.pi)
        for got in (lp_norm(seq, nu, k, h, 2), grid_norms(seq, nu, k, [h], 2)[0]):
            assert got == pytest.approx(want, rel=1e-12)


def test_grid_matches_pointwise_difference(monkeypatch):
    # 3 shifts per chunk, so 8 shifts end in a partial chunk of two: a row
    # left in the reused buffers by an earlier chunk would change its norm
    monkeypatch.setattr(smoothness, "CHUNK_ELEMENTS", 3 * 256)
    seq = make_power_law(1, 2, 20)
    quad = QuadratureSpec(M=256)
    hs = np.array([0.05, 0.3, 0.4, 0.7, 1.2, 2.0, 3.1, 5.5])
    xs = np.arange(256) * (2 * math.pi / 256)
    for p in (1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 64.0):
        for k in (1, 2, 3):
            got = grid_norms(seq, 20, k, hs, p, quad.M)
            for h, norm in zip(hs, got):
                vals = np.abs(k_difference(seq, 20, k, h, xs))
                scale = vals.max()  # keeps |v|^p in range at p = 64
                want = scale * (np.sum((vals / scale) ** p) * (2 * math.pi / 256)) ** (1 / p)
                assert norm == pytest.approx(want, rel=1e-12)


def test_parseval_matches_grid_for_p2():
    seq = make_power_law(1, 1.5, 50)
    for h in (0.05, 0.9, 2.7):
        auto = lp_norm(seq, 50, 3, h, 2)
        grid = grid_norms(seq, 50, 3, [h], 2)[0]
        assert auto == pytest.approx(grid, rel=1e-12)


def test_lp_norm_rejections():
    with pytest.raises(ValueError):
        lp_norm(ONE, 1, 1, 0.1, 0)
    with pytest.raises(ValueError):
        lp_norm(ONE, 1, 0, 0.1, 2)
    with pytest.raises(ValueError):
        lp_norm(make_power_law(1, 2, 5000), 5000, 1, 0.1, 1, quad=QuadratureSpec(M=8192))


def test_default_grid_is_sized_from_the_horizon():
    # without quad, M = grid_size(horizon): 16384 at horizon 4096, where the
    # 8192 of QuadratureSpec() is too coarse; below that the two agree
    seq = make_power_law(1, 2, 4096)
    quad = QuadratureSpec(M=grid_size(4096))
    assert quad.M == 16384
    assert lp_norm(seq, 4096, 2, 0.1, 1.0) == lp_norm(seq, 4096, 2, 0.1, 1.0, quad)
    params = SmoothnessParams(k=2, p=3)
    assert modulus_direct(seq, 4096, params, 0.1) == modulus_direct(seq, 4096, params, 0.1, quad)
    assert lp_norm(seq, 4095, 2, 0.1, 1.0) == lp_norm(seq, 4095, 2, 0.1, 1.0, QuadratureSpec())


@pytest.mark.parametrize("p", [1.0, 3.0])
def test_batched_modulus_matches_single_shift_loop(p, monkeypatch):
    # five shifts per chunk, so the visited shifts span several chunks
    monkeypatch.setattr(smoothness, "CHUNK_ELEMENTS", 5 * 1024)
    seq = make_power_law(1, 2, 300)
    quad = QuadratureSpec(M=1024)
    for t in (0.05, 0.5, 2.0):
        loop = max(lp_norm(seq, 300, 2, h, p, quad) for h in shift_grid(t, t / 64))
        got = modulus_direct(seq, 300, SmoothnessParams(2, p), t, quad)
        assert got == pytest.approx(loop, rel=1e-12)


def test_difference_norms_parseval_matches_grid(monkeypatch):
    monkeypatch.setattr(smoothness, "CHUNK_ELEMENTS", 3 * 50)  # 3 shifts per chunk
    seq = make_power_law(1, 1.5, 50)
    hs = np.linspace(0.01, 3.0, 11)
    auto = difference_norms(seq, 50, 3, hs, 2)
    grid = grid_norms(seq, 50, 3, hs, 2)
    assert np.allclose(auto, grid, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [1, 127, 128, 129, 1000, 16384])
def test_half_angles_match_direct_trig(n):
    rng = np.random.default_rng(n)
    hs = np.concatenate([rng.uniform(0, 2 * math.pi, 6), [1e-6, math.pi, 2 * math.pi]])
    hs = hs[hs > 0]
    args = np.multiply.outer(hs, np.arange(1, n + 1) / 2.0)
    s, c = smoothness._half_angles(hs, n, np.empty((2, hs.size * (n + smoothness._BLOCK))))
    assert s.shape == c.shape == (hs.size, n)
    # angle addition rounds the block and offset angles once each, so an
    # error of a few ulp of the argument is as exact as np.sin of it
    ulps = 4 * np.spacing(np.maximum(args, 1.0))
    assert np.all(np.abs(s - np.sin(args)) <= ulps)
    assert np.all(np.abs(c - np.cos(args)) <= ulps)


def test_huge_integer_p_uses_pow():
    # p = 10**9 would never finish if integer powers were taken by repeated
    # multiplication.  Every |v|^p underflows, so each row is divided by its
    # max first; the norm is then the grid max times (2pi/M count)^(1/p),
    # count being the points at the max, which is the max to within 4e-9
    seq = CoefficientSequence((1e-3, 5e-4))
    hs = [0.5, 1.0]
    got = difference_norms(seq, 2, 1, hs, 10 ** 9, QuadratureSpec(M=256))
    xs = np.arange(256) * (2 * math.pi / 256)
    for h, norm in zip(hs, got):
        top = np.abs(k_difference(seq, 2, 1, h, xs)).max()
        assert norm == pytest.approx(top, rel=1e-8)


@pytest.mark.parametrize("c, p, k", [(2.0, 400.0, 3), (0.01, 200.0, 1), (1e-200, 4.0, 2)])
def test_grid_norm_scales_rows_out_of_float_range(c, p, k):
    # |v|^p overflows at c = 2, p = 400 and underflows at the other two;
    # such a row is divided by its max, which gives the scaled reference
    seq = make_power_law(c, 2, 100)
    hs = np.array([1.0, 2.0])
    xs = np.arange(256) * (2 * math.pi / 256)
    with np.errstate(over="raise", invalid="raise"):
        got = difference_norms(seq, 100, k, hs, p, QuadratureSpec(M=256))
    for h, norm in zip(hs, got):
        vals = np.abs(k_difference(seq, 100, k, h, xs))
        top = vals.max()
        want = top * (np.sum((vals / top) ** p) * (2 * math.pi / 256)) ** (1 / p)
        assert norm == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 64.0])
def test_pruned_modulus_is_the_max_of_all_norms(k, p, monkeypatch):
    # three shifts per chunk, so the visited shifts span several chunks; at
    # t = 3 and 6 the largest norm lies inside the shift range, not at h = t.
    # p = 2 prunes its Parseval norms by the pre-bounds alone.
    monkeypatch.setattr(smoothness, "CHUNK_ELEMENTS", 3 * 1024)
    quad = QuadratureSpec(M=1024)
    big = make_power_law(1, 2, 300)
    tiny = CoefficientSequence(tuple(1e-200 * np.array(big.head)))
    for seq in (big, tiny):
        for t in (0.05, 0.5, 2.0, 3.0, 6.0):
            want = np.max(difference_norms(seq, 300, k, shift_grid(t, t / 64), p, quad))
            got = modulus_direct(seq, 300, SmoothnessParams(k, p), t, quad)
            assert got == want


_BOUND_CASES = [*range(4), *((beta, c) for beta in (1.2, 1.66, 2.9) for c in (1.0, 1e-200, 1e200))]


@pytest.mark.parametrize("case", _BOUND_CASES,
                         ids=[str(c) if isinstance(c, int) else "beta=%g-c=%g" % c
                              for c in _BOUND_CASES])
def test_grid_norms_within_their_bounds(case):
    # a seed draws a random monotone sequence and shifts; (beta, c) is a
    # power law on shifts down to 1e-5, where Q of the weighted bound is a
    # small difference of two sums
    if isinstance(case, int):
        rng = np.random.default_rng(case)
        size = int(rng.integers(1, 200))
        seq = make_random_monotone(rng, size, scale=float(rng.uniform(0.1, 10)))
        hs = rng.uniform(0.001, 2 * math.pi, size=32)
    else:
        size = 200
        seq = make_power_law(case[1], case[0], size)
        hs = np.geomspace(1e-5, 2 * math.pi, 32)
    quad = QuadratureSpec(M=grid_size(size) // 16)
    a = seq.values(1, size)
    for k in (1, 2, 3):
        for p in (0.5, 1.0, 1.5, 3.0, 4.0, 64.0):
            norms = difference_norms(seq, size, k, hs, p, quad)
            for bounds in (smoothness._norm_bounds(hs, a, k, p, quad.M),
                           smoothness._prefix_bounds(hs, a, k, p)):
                assert np.all(norms <= bounds), (k, p)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_weighted_bound_from_grid_sums(k):
    # the p = 1 bound is min((2pi)^(1/2) L, (W(eps) (eps L^2 + Q))^(1/2)),
    # eps = Q/L^2, with L^2, Q and W summed over the grid from the
    # pointwise difference; h up to 4 puts sign changes of sin(nu h/2),
    # which odd k keeps, among the harmonics
    seq = make_power_law(1, 1.2, 40)
    M = 128
    xs = np.arange(M) * (2 * math.pi / M)
    wave = 2.0 * np.sin(xs / 2) ** 2  # 1 - cos x
    for h in (0.01, 0.05, 0.3, 1.0, 2.5, 4.0):
        g = k_difference(seq, 40, k, h, xs)
        l2 = 2 * math.pi / M * np.sum(g * g)
        q = 2 * math.pi / M * np.sum(wave * g * g)
        eps = q / l2
        w = 2 * math.pi / M * np.sum(1.0 / (eps + wave))
        want = min(math.sqrt(w * (eps * l2 + q)), math.sqrt(2 * math.pi * l2))
        got = smoothness._norm_bounds(np.array([h]), seq.values(1, 40), k, 1.0, M)[0]
        assert got == pytest.approx(want, rel=1e-9), h


@pytest.mark.parametrize("M", [4, 1024, 16384])
def test_weight_sum_is_the_grid_sum(M):
    # (2pi/M) sum_j 1/(eps + 1 - cos x_j), with 1 - cos x = 2 sin^2(x/2)
    # free of cancellation near x = 0
    xs = np.arange(M) * (2 * math.pi / M)
    for eps in (1e-12, 1e-6, 1e-3, 0.1, 1.0, 2.0):
        want = 2 * math.pi / M * np.sum(1.0 / (eps + 2.0 * np.sin(xs / 2) ** 2))
        assert smoothness._weight_sum(eps, M) == pytest.approx(want, rel=1e-9)


@settings(max_examples=settings().max_examples // 2, deadline=None)
@given(beta=st.floats(1.1, 3.5), exponent=st.floats(-200, 200),
       k=st.sampled_from([1, 2, 3]), p=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.0]),
       t=st.floats(1e-3, 6.0), horizon=st.integers(1, 512), finer=st.booleans())
def test_two_stage_search_is_the_max_of_all_norms(beta, exponent, k, p, t, horizon, finer):
    seq = make_power_law(10.0 ** exponent, beta, horizon)
    quad = QuadratureSpec(M=1 << (2 * horizon).bit_length() + 2 * finer)
    want = np.max(difference_norms(seq, horizon, k, shift_grid(t, t / 64), p, quad))
    assert modulus_direct(seq, horizon, SmoothnessParams(k, p), t, quad) == want


def test_grid_norm_does_not_depend_on_the_rows_in_its_call():
    # at horizon 1 a multiply over all rows at once rounded this norm one ulp
    # away from the same shift's in a call with other rows
    seq = make_power_law(8.159486671566079e148, 2.8651251426824587, 1)
    t = 1.9520476814488126
    hs = shift_grid(t, t / 64)
    alone = [grid_norms(seq, 1, 3, hs[i:i + 1], 1.5, M=16)[0] for i in range(hs.size)]
    assert grid_norms(seq, 1, 3, hs, 1.5, M=16).tolist() == alone
    quad = QuadratureSpec(M=16)
    assert modulus_direct(seq, 1, SmoothnessParams(3, 1.5), t, quad) \
        == np.max(difference_norms(seq, 1, 3, hs, 1.5, quad)) == 8.554276941237712e+149


def test_parseval_norm_does_not_depend_on_the_rows_in_its_call():
    # a matrix-vector product summed the rows of a 97-row call differently
    # from the same rows alone, by up to 1.6e-15; the pruned p = 2 search
    # visits a few rows, so each must be the float of the full call
    rng = np.random.default_rng(21)
    for beta, horizon, k in ((2.0, 4096, 2), (1.3, 300, 1), (2.9, 2048, 3)):
        seq = make_power_law(float(rng.uniform(0.5, 2.0)), beta, horizon)
        for t in (1 / 64, 0.3, 2.0):
            hs = shift_grid(t, t / 64)
            alone = [difference_norms(seq, horizon, k, hs[i:i + 1], 2)[0] for i in range(hs.size)]
            assert difference_norms(seq, horizon, k, hs, 2).tolist() == alone


@pytest.mark.parametrize("t", [1e-3, 0.5])
def test_two_stage_search_at_large_k(t):
    # nu^2k overflows at k = 100: the pre-bounds are all inf and prune
    # nothing, with no overflow warning, and the exact bounds still prune
    seq = make_power_law(1, 2, 300)
    quad = QuadratureSpec(M=1024)
    want = np.max(difference_norms(seq, 300, 100, shift_grid(t, t / 64), 1.0, quad))
    assert modulus_direct(seq, 300, SmoothnessParams(100, 1.0), t, quad) == want


def _rows_sent_to_the_fft(monkeypatch, p, kernel="_grid_sums"):
    # the modulus of nu^-2 at t = 1/64 (k = 2, horizon 4096, M = 16384), and
    # the row count of each call it made to kernel
    sent = []
    sums = getattr(smoothness, kernel)

    def counting(hs, *args):
        sent.append(hs.size)
        return sums(hs, *args)

    monkeypatch.setattr(smoothness, kernel, counting)
    seq = make_power_law(1, 2, 4096)
    quad = QuadratureSpec(M=16384)
    got = modulus_direct(seq, 4096, SmoothnessParams(2, p), 1 / 64, quad)
    rows = list(sent)
    want = np.max(difference_norms(seq, 4096, 2, shift_grid(1 / 64, 1 / 4096), p, quad))
    assert got == want
    return rows


def test_pruning_sends_few_shifts_to_the_fft(monkeypatch):
    # at h = t the norm is largest; the others' bounds fall below it fast
    sent = _rows_sent_to_the_fft(monkeypatch, 3)
    assert sum(sent) <= 16
    assert sent[0] == smoothness.FIRST_ROWS  # the top pre-bounds go in one call


def test_pruning_at_p1_sends_few_shifts_to_the_fft(monkeypatch):
    # the weighted L1 bound keeps p = 1 within the same limit: the power-mean
    # bound alone sends 33 rows
    sent = _rows_sent_to_the_fft(monkeypatch, 1)
    assert sum(sent) <= 16
    assert sent[0] == smoothness.FIRST_ROWS


def test_pruning_at_p2_sums_few_parseval_rows(monkeypatch):
    # the pre-bound at p = 2 bounds the Parseval norm itself: of the 97
    # shifts, the search sums the rows of at most 4
    assert sum(_rows_sent_to_the_fft(monkeypatch, 2, "_parseval_sums")) <= 4


@pytest.mark.parametrize("top", [64, 2048])
@pytest.mark.parametrize("H", [4, 16])
def test_shift_grid_is_the_direct_source_grid(top, H):
    # the grid DirectModulusSource built before it called shift_grid
    ends = 1.0 / np.arange(1, top + 1)
    steps = np.arange(math.ceil(H * math.log2(top)) + 1)
    want = np.union1d(ends, 2.0 ** (-steps / H))
    assert np.union1d(ends, shift_grid(1, 1 / top, H)).tobytes() == want.tobytes()


def test_parseval_norms_scale_with_tiny_and_huge_coefficients():
    # p = 2 squares the coefficients: unless divided by the largest first,
    # the squares underflow to 0 at 1e-200 and overflow to inf at 1e200
    base = make_power_law(1, 2, 300)
    params = SmoothnessParams(2, 2)
    hs = np.array([0.01, 0.5, 2.0])
    want = difference_norms(base, 300, 2, hs, 2)
    for c in (1e-200, 1e200):
        seq = CoefficientSequence(tuple(c * np.array(base.head)))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = difference_norms(seq, 300, 2, hs, 2)
            omega = modulus_direct(seq, 300, params, 0.5)
        assert np.allclose(got, c * want, rtol=1e-12, atol=0)
        assert omega == pytest.approx(c * modulus_direct(base, 300, params, 0.5), rel=1e-12)


def test_grid_size():
    assert grid_size(100) == 8192
    assert grid_size(4096) == 16384
    assert grid_size(16384) == 65536
    for horizon in (1, 4095, 4097, 20000):
        assert grid_size(horizon) > 2 * horizon
    # the CLI's budget of M is the grid of its longest horizon
    from monosmooth.cli import LENGTH_MAX, M_MAX
    assert grid_size(LENGTH_MAX) == M_MAX


def test_grid_quadrature_converges_for_p1():
    seq = make_power_law(1, 2, 30)
    vals = [lp_norm(seq, 30, 2, 0.5, 1, quad=QuadratureSpec(M=M))
            for M in (2048, 4096, 8192)]
    assert abs(vals[2] - vals[1]) < 1e-6 * vals[2]


def test_modulus_single_harmonic_k1():
    # omega(cos; t)_2 = 2 sin(t/2) sqrt(pi) for t <= pi (sup at h = t)
    params = SmoothnessParams(1, 2)
    for t in (math.pi / 16, math.pi / 4, math.pi / 2, math.pi):
        want = 2 * math.sin(t / 2) * math.sqrt(math.pi)
        got = modulus_direct(ONE, 1, params, t)
        assert got == pytest.approx(want, rel=1e-12)


def test_modulus_single_harmonic_k2_at_pi():
    got = modulus_direct(ONE, 1, SmoothnessParams(2, 2), math.pi)
    assert got == pytest.approx(4 * math.sqrt(math.pi), rel=1e-12)


def test_modulus_zero_sequence():
    z = CoefficientSequence((0.0, 0.0))
    assert modulus_direct(z, 2, SmoothnessParams(1, 2), 1.0) == 0.0


@settings(max_examples=settings().max_examples // 2, deadline=None)
@given(beta=st.floats(1.1, 3.5), exponent=st.floats(-100, 100),
       k=st.sampled_from([1, 2, 3]), p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]),
       ts=st.lists(st.floats(1e-3, 3.0), min_size=2, max_size=2), horizon=st.integers(1, 256))
def test_modulus_monotone_in_t(beta, exponent, k, p, ts, horizon):
    # omega samples [t/64, t], so a larger t need not reach the shifts of a
    # smaller one; for power laws at p >= 1 and t < pi the sampled omega
    # grows with t all the same.  Past that range it need not: of 3000
    # draws with p down to 0.5 and t up to 6, 6 decreased (at p = 0.5, or
    # past t = pi at horizon 1), and none of 12000 draws in this range did
    # (the draw range is tested, not proven)
    seq = make_power_law(10.0 ** exponent, beta, horizon)
    quad = QuadratureSpec(M=grid_size(horizon))
    params = SmoothnessParams(k, p)
    lo, hi = sorted(ts)
    assert modulus_direct(seq, horizon, params, lo, quad) \
        <= modulus_direct(seq, horizon, params, hi, quad)


def test_modulus_even_in_h():
    # the series is even, so the norm at -h equals the norm at h
    seq = make_power_law(1, 2, 20)
    for h in (0.3, 1.1):
        xs = np.arange(512) * (2 * math.pi / 512)
        pos = k_difference(seq, 20, 2, h, xs)
        neg = k_difference(seq, 20, 2, -h, xs)
        assert np.sum(pos ** 2) == pytest.approx(np.sum(neg ** 2), rel=1e-10)


def test_modulus_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        modulus_direct(ONE, 1, SmoothnessParams(1, 2), 0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        SmoothnessParams(0, 2)
    with pytest.raises(ValueError):
        SmoothnessParams(1, 0)
    with pytest.raises(ValueError):
        QuadratureSpec(M=100)  # not a power of two
    for n in (0, np.array([4, 0, 2])):
        with pytest.raises(ValueError, match="n must be >= 1"):
            bound_core(ONE, SmoothnessParams(1, 2), n)


def test_bound_core_single_harmonic():
    # a = (1): E(1) = 1^{-1} (1)^{1/2} + 0 = 1 for k = 1, p = 2
    assert bound_core(ONE, SmoothnessParams(1, 2), 1) == pytest.approx(1.0)


def test_bound_core_power_law_oracle():
    # a_nu = nu^{-2}, k = 1, p = 2, n = 4:
    #   E(4) = (1/4)(sum_{nu<=4} nu^{-2})^{1/2} + (sum_{nu>4} nu^{-4})^{1/2}
    seq = make_power_law(1, 2, 4)
    h4_2 = sum(v ** -2.0 for v in range(1, 5))
    zeta4 = math.pi ** 4 / 90
    h4_4 = sum(v ** -4.0 for v in range(1, 5))
    want = 0.25 * h4_2 ** 0.5 + (zeta4 - h4_4) ** 0.5
    got = bound_core(seq, SmoothnessParams(1, 2), 4)
    assert got == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("n", [8, 100, 5000])
def test_bound_core_scales_sums_past_the_normal_range(n):
    # p = 300: both sums of E(100) are near 1e-604, 0 in floats (E was 0.0);
    # each is taken again divided by its largest term.  At n = 8 neither
    # leaves the range, and at 5000 the far sum is the tail model's alone
    got = bound_core(make_power_law(1, 2, 4096), SmoothnessParams(k=2, p=300), n)
    root = 1 / mpmath.mpf(300)
    near = mpmath.fsum(mpmath.mpf(v) ** 298 for v in range(1, n + 1))
    want = mpmath.mpf(n) ** -2 * near ** root + mpmath.zeta(302, n + 1) ** root
    assert got == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("c", [1e-200, 1e200])
def test_bound_core_scaling_is_homogeneous(c):
    # E is 1-homogeneous in the coefficients; every sum of a_nu^2 is below
    # 2^-1022 at c = 1e-200 (E was 0) and past 2^1024 at c = 1e200 (a
    # ValueError), also for a power-log tail; a grid value is still its
    # one-point call
    params = SmoothnessParams(k=2, p=2)
    for make in (lambda c: make_power_law(c, 2, 64), lambda c: make_power_log(c, 2, -0.5, 64)):
        want = bound_core(make(1.0), params, np.array([4, 100]))
        got = bound_core(make(c), params, np.array([4, 100]))
        assert got == pytest.approx(c * want, rel=1e-13)
        assert got.tolist() == [bound_core(make(c), params, n) for n in (4, 100)]


def test_bound_core_divergent_tail():
    # a_nu = nu^{-1/2}, p = 2: tail sum of nu^{-1} diverges
    seq = make_power_law(1, 0.5, 8)
    assert bound_core(seq, SmoothnessParams(1, 2), 4) == DIVERGENT


def test_modulus_sandwiched_by_core():
    # omega(1/n) and E(n) stay within a modest constant band
    seq = make_power_law(1, 2, 4096)
    params = SmoothnessParams(1, 2)
    for n in (4, 16, 64):
        w = modulus_direct(seq, 4096, params, 1.0 / n)
        e = bound_core(seq, params, n)
        assert 0.1 < w / e < 10


def test_a_nan_sum_is_refused():
    # a grid sum whose terms overflowed is inf or NaN (inf - inf in the
    # FFT); both leave the float range, and neither may come out as a norm
    for sums in ([np.nan, 1.0], [np.inf, 1.0], [np.nan, np.nan]):
        with pytest.raises(ValueError, match="leaves the float range"):
            smoothness._check_root(np.array(sums), 2.4, 1.0, "an L^p norm")
    smoothness._check_root(np.array([0.0, 1.0]), 2.4, 1.0, "an L^p norm")
