import math

import numpy as np
import pytest

from monosmooth import smoothness
from monosmooth.sequences import (CoefficientSequence, DIVERGENT, make_power_law,
                                  make_random_monotone)
from monosmooth.smoothness import (
    QuadratureSpec,
    SmoothnessParams,
    bound_core,
    difference_norms,
    grid_size,
    lp_norm,
    modulus_direct,
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
    quad = QuadratureSpec(M=256, H=16)
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


@pytest.mark.parametrize("p", [1.0, 3.0])
def test_batched_modulus_matches_single_shift_loop(p, monkeypatch):
    # five shifts per chunk, so the 16 shifts span four chunks
    monkeypatch.setattr(smoothness, "CHUNK_ELEMENTS", 5 * 1024)
    seq = make_power_law(1, 2, 300)
    quad = QuadratureSpec(M=1024, H=16)
    for t in (0.05, 0.5, 2.0):
        loop = max(lp_norm(seq, 300, 2, t * i / 16, p, quad) for i in range(1, 17))
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


def _shifts(t, H):
    return t * np.arange(1, H + 1, dtype=float) / H


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 64.0])
def test_pruned_modulus_is_the_max_of_all_norms(k, p, monkeypatch):
    # three shifts per chunk, so the visited shifts span several chunks; at
    # t = 3 and 6 the largest norm lies inside the shift range, not at h = t.
    # p = 2 takes the Parseval norms, unpruned, on both sides.
    monkeypatch.setattr(smoothness, "CHUNK_ELEMENTS", 3 * 1024)
    quad = QuadratureSpec(M=1024, H=64)
    big = make_power_law(1, 2, 300)
    tiny = CoefficientSequence(tuple(1e-200 * np.array(big.head)))
    for seq in (big, tiny):
        for t in (0.05, 0.5, 2.0, 3.0, 6.0):
            want = np.max(difference_norms(seq, 300, k, _shifts(t, 64), p, quad))
            got = modulus_direct(seq, 300, SmoothnessParams(k, p), t, quad)
            assert got == want


@pytest.mark.parametrize("seed", range(4))
def test_grid_norms_within_their_bounds(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 200))
    seq = make_random_monotone(rng, size, scale=float(rng.uniform(0.1, 10)))
    quad = QuadratureSpec(M=grid_size(size) // 16)
    hs = rng.uniform(0.001, 2 * math.pi, size=32)
    for k in (1, 2, 3):
        for p in (0.5, 1.0, 1.5, 3.0, 4.0, 64.0):
            norms = difference_norms(seq, size, k, hs, p, quad)
            bounds = smoothness._norm_bounds(hs, seq.values(1, size), k, p)
            assert np.all(norms <= bounds), (k, p)


def test_pruning_sends_few_shifts_to_the_fft(monkeypatch):
    # at h = t the norm is largest; the others' bounds fall below it fast
    sent = []
    grid_sums = smoothness._grid_sums

    def counting(hs, *args):
        sent.append(hs.size)
        return grid_sums(hs, *args)

    monkeypatch.setattr(smoothness, "_grid_sums", counting)
    seq = make_power_law(1, 2, 4096)
    quad = QuadratureSpec(M=16384, H=64)
    got = modulus_direct(seq, 4096, SmoothnessParams(2, 3), 1 / 64, quad)
    assert sum(sent) <= 16
    assert sent[0] == 1  # the top shift goes alone
    want = np.max(difference_norms(seq, 4096, 2, _shifts(1 / 64, 64), 3, quad))
    assert got == want


def test_grid_size():
    assert grid_size(100) == 8192
    assert grid_size(4096) == 16384
    assert grid_size(16384) == 65536
    for horizon in (1, 4095, 4097, 20000):
        assert grid_size(horizon) > 2 * horizon


def test_grid_quadrature_converges_for_p1():
    seq = make_power_law(1, 2, 30)
    vals = [lp_norm(seq, 30, 2, 0.5, 1, quad=QuadratureSpec(M=M, H=16))
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


def test_modulus_monotone_in_t():
    seq = make_power_law(1, 2, 40)
    omega = [modulus_direct(seq, 40, SmoothnessParams(2, 2), t)
             for t in np.linspace(0.05, 3.0, 12)]
    assert np.all(np.diff(omega) >= -1e-12)


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
    with pytest.raises(ValueError):
        QuadratureSpec(H=8)


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
