"""The difference norms of the README sequence against f itself.

For a_nu = nu^-2, f(x) = sum cos(nu x)/nu^2 = pi^2/6 - pi x/2 + x^2/4 on
[0, 2 pi] (the Bernoulli polynomial B_2, continued with period 2 pi).  So
Delta_h^k f is linear between its kinks x = -j h (mod 2 pi), j = 1..k, and
its L^p norm is a sum of integrals of |linear|^p, each split at its zero.
The norms the library takes of the series cut at 4096 harmonics are
compared with these; the errors are pinned, so that any growth fails.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from monosmooth.sequences import make_power_law
from monosmooth.smoothness import QuadratureSpec, difference_norms


def exact_difference_norm(k, h, p):
    """||Delta_h^k f||_p over [0, 2 pi), f = sum cos(nu x)/nu^2, to 30 digits."""
    with mp.workdps(30):
        h, p, period = mp.mpf(h), mp.mpf(p), 2 * mp.pi

        def f(x):
            x = x % period
            return mp.pi ** 2 / 6 - mp.pi * x / 2 + x ** 2 / 4

        def g(x):  # Delta_h^k f(x) = sum_j (-1)^(k-j) C(k, j) f(x + j h)
            return mp.fsum((-1) ** (k - j) * mp.binomial(k, j) * f(x + j * h)
                           for j in range(k + 1))

        cuts = sorted({mp.mpf(0), period} | {(-j * h) % period for j in range(1, k + 1)})
        total = mp.mpf(0)
        for a, b in zip(cuts, cuts[1:]):
            ga, gb = g(a), g(b)
            points = [a, a + ga * (b - a) / (ga - gb), b] if ga * gb < 0 else [a, b]
            total += mp.quad(lambda x: abs(g(x)) ** p, points)
        return float(total ** (1 / p))


@pytest.mark.parametrize("h", [0.125, 0.001])
def test_reference_is_parseval_at_p_2(h):
    # ||Delta_h^2 f||_2^2 = pi sum nu^-4 (2 sin(nu h/2))^4; the sum past
    # 2^20 is below 16/(3 2^60)
    nu = np.arange(1.0, 2 ** 20 + 1)
    want = math.sqrt(math.pi * np.sum((2 * np.sin(nu * h / 2)) ** 4 / nu ** 4))
    assert exact_difference_norm(2, h, 2) == pytest.approx(want, rel=1e-14)


#: (h, p) -> the relative error of the norm of the series cut at 4096
#: harmonics, on a grid of M = 16384 points, against exact_difference_norm
_ERRORS = {
    (0.125, 1): 1.0032e-6,
    (0.125, 1.5): 3.3521e-8,
    (0.125, 3): -6.8865e-9,
    (0.001, 1): 0.19290,
    (0.001, 1.5): 0.025685,
    (0.001, 3): -0.019760,
}


@pytest.mark.parametrize("h, p", list(_ERRORS), ids=[f"h{h}-p{p}" for h, p in _ERRORS])
def test_difference_norm_error_against_f_is_pinned(h, p):
    # at h = 0.001 the cut, not the grid, makes most of the error: the
    # 4096 harmonics stop at nu h = 4.1
    got = float(difference_norms(make_power_law(1, 2, 4096), 4096, 2, [h], p,
                                 QuadratureSpec(M=16384))[0])
    error, pinned = got / exact_difference_norm(2, h, p) - 1, _ERRORS[h, p]
    assert math.copysign(1, error) == math.copysign(1, pinned)
    assert abs(error) <= abs(pinned) * 1.001
