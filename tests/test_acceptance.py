"""Acceptance suite: one test per published criterion.

Each test prints a single pass/fail line (visible with pytest -s / -v)
and asserts both the numerical claim and its runtime budget.
"""

import json
import math
import time

import numpy as np
import pytest

from monosmooth.besov import (
    ClassParams,
    CoreModulusSource,
    PhiSpec,
    coefficient_functional,
    discrete_seminorm,
    equivalence_report,
    integral_seminorm,
    membership_test,
)
from monosmooth.cli import main
from monosmooth.hardy import LEMMA_IDS, HardyParams, verify_lemma
from monosmooth.sequences import CoefficientSequence, make_power_law
from monosmooth.smoothness import SmoothnessParams, bound_core, lp_norm, modulus_direct

from test_hardy import naive_lemma

CP = ClassParams(theta=1, r=0.5, lam=0.5, k=2, p=2)


def _verdict(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_single_harmonic_norm_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    hs = np.linspace(0.05, math.pi, 20)
    for nu in (1, 2, 5):
        head = [0.0] * nu
        head[nu - 1] = 1.0
        seq = CoefficientSequence(tuple(head))
        for k in (1, 2, 3):
            for h in hs:
                want = (2 * abs(math.sin(nu * h / 2))) ** k * math.sqrt(math.pi)
                got = lp_norm(seq, nu, k, float(h), 2)
                if want > 0:
                    worst = max(worst, abs(got - want) / want)
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 1.0
    _verdict(1, ok, f"max rel err {worst:.2e}, {dt:.2f}s")


def test_criterion_02_modulus_sup_law():
    t0 = time.perf_counter()
    seq = CoefficientSequence((1.0,))
    params = SmoothnessParams(1, 2)
    worst = 0.0
    for i in range(1, 17):
        t = math.pi * i / 16
        want = 2 * math.sin(t / 2) * math.sqrt(math.pi)
        got = modulus_direct(seq, 1, params, t)
        worst = max(worst, abs(got - want) / want)
    dt = time.perf_counter() - t0
    ok = worst < 1e-3 and dt < 5.0
    _verdict(2, ok, f"max rel err {worst:.2e}, {dt:.2f}s")


def test_criterion_03_brute_force_hardy_oracle():
    rng = np.random.default_rng(20240819)
    worst = 0.0
    checked = 0
    for _ in range(200):
        n = int(rng.integers(4, 13))
        a = tuple(np.sort(rng.uniform(0.0, 1.0, size=n))[::-1])
        seq = CoefficientSequence(a)
        p = float(rng.choice([0.5, 1.0, 2.0]))
        hp = HardyParams(alpha=float(rng.choice([0.5, 1.0, 2.0])),
                         lam=float(rng.choice([-0.5, 0.0, 1.0])),
                         p=p, m=1, n=n)
        for lemma in LEMMA_IDS:
            if lemma == "lp_converse_upper" and p >= 1:
                continue  # side condition n >= 16m unreachable at n <= 12
            rep = verify_lemma(lemma, seq, hp)
            lhs, rhs = naive_lemma(lemma, list(a), hp)
            for got, want in ((rep.lhs, lhs), (rep.rhs, rhs)):
                if want != 0:
                    worst = max(worst, abs(got - want) / abs(want))
                else:
                    worst = max(worst, abs(got))
            checked += 1
    ok = worst < 1e-12
    _verdict(3, ok, f"{checked} evaluations, max rel err {worst:.2e}")


def test_criterion_04_two_sided_hardy_band():
    t0 = time.perf_counter()
    grid = [2 ** j for j in range(3, 13)]  # 8 .. 4096
    all_ratios = []
    stable = True
    for lemma in ("lp_complete_tail", "lp_complete_head"):
        for beta in (0.5, 1.0, 2.0):
            seq = make_power_law(1, beta, 4096)
            for p in (0.5, 1.0, 2.0):
                ratios = []
                for n in grid:
                    hp = HardyParams(alpha=1, lam=0, p=p, m=1, n=n)
                    ratios.append(verify_lemma(lemma, seq, hp).ratio)
                all_ratios.extend(ratios)
                run = np.maximum.accumulate(ratios)
                # last two doublings, one step each
                for a, b in ((run[-3], run[-2]), (run[-2], run[-1])):
                    if abs(b / a - 1) >= 0.05:
                        stable = False
    spread = max(all_ratios) / min(all_ratios)
    dt = time.perf_counter() - t0
    ok = spread <= 100 and stable and dt < 30
    _verdict(4, ok, f"spread {spread:.2f}, stabilized={stable}, {dt:.1f}s")


def test_criterion_05_modulus_core_band():
    t0 = time.perf_counter()
    seq = make_power_law(1, 2, 4096)
    ok = True
    detail = []
    for k in (1, 2):
        params = SmoothnessParams(k, 2)
        ratios = []
        for n in (2, 4, 8, 16, 32, 64):
            w = modulus_direct(seq, 4096, params, 1.0 / n)
            ratios.append(w / bound_core(seq, params, n))
        spread = max(ratios) / min(ratios)
        detail.append(f"k={k}: {spread:.2f}")
        ok = ok and spread <= 20 and min(ratios) > 0
    dt = time.perf_counter() - t0
    ok = ok and dt < 60
    _verdict(5, ok, f"spreads {', '.join(detail)}, {dt:.1f}s")


@pytest.fixture(scope="module")
def equivalence_sweep():
    seq = make_power_law(1, 2, 4096)
    grid = [2 ** j for j in range(2, 9)]  # 4 .. 256
    t0 = time.perf_counter()
    rep = equivalence_report(seq, CP, grid)
    return rep, time.perf_counter() - t0


def test_criterion_06_seminorm_vs_integral_band(equivalence_sweep):
    rep, dt = equivalence_sweep
    spread = rep["bands"]["JI"].spread
    ok = spread is not None and spread <= 10 and dt < 60
    _verdict(6, ok, f"J/I spread {spread:.2f}, sweep {dt:.1f}s")


def test_criterion_07_coefficient_vs_seminorm_band(equivalence_sweep):
    rep, dt = equivalence_sweep
    spread = rep["bands"]["KJ"].spread
    ok = spread is not None and spread <= 10 and dt < 120
    _verdict(7, ok, f"K/J spread {spread:.2f}, sweep {dt:.1f}s")


def test_criterion_08_power_weight_discrimination():
    t0 = time.perf_counter()
    phi = PhiSpec.power(0.25)
    grid = [2 ** j for j in range(1, 13)]
    # critical decay r + alpha + 1 - 1/p = 1.25; slower decay must fail
    inside = membership_test(make_power_law(1, 1.25, 4096), CP, phi,
                             functional="K", n_grid=grid)
    outside = membership_test(make_power_law(1, 1.05, 4096), CP, phi,
                              functional="K", n_grid=grid)
    dt = time.perf_counter() - t0
    ok = inside.verdict == "bounded" and outside.verdict == "unbounded" and dt < 60
    _verdict(8, ok, f"in={inside.verdict}, out={outside.verdict}, {dt:.1f}s")


def test_criterion_09_constant_weight_discrimination():
    t0 = time.perf_counter()
    phi = PhiSpec.constant(1.0)
    grid = [2 ** j for j in range(1, 11)]
    # weighted series exponent r*th + th - th/p - 1 = 0: boundary a_nu = 1/nu
    conv = membership_test(make_power_law(1, 1.2, 4096), CP, phi,
                           functional="K", n_grid=grid)
    div = membership_test(make_power_law(1, 0.8, 4096), CP, phi,
                          functional="K", n_grid=grid)
    dt = time.perf_counter() - t0
    ok = conv.verdict == "bounded" and div.verdict == "divergent" and dt < 30
    _verdict(9, ok, f"convergent={conv.verdict}, divergent={div.verdict}, {dt:.1f}s")


def test_criterion_10_homogeneity():
    s = 3.7
    seq = make_power_law(1, 2, 1024)
    scaled = seq.scaled(s)
    params = CP.smoothness
    src_a = CoreModulusSource(seq, params)
    src_b = CoreModulusSource(scaled, params)
    pairs = {
        "I": (integral_seminorm(CP, 1.0 / 17, src_a),
              integral_seminorm(CP, 1.0 / 17, src_b)),
        "J": (discrete_seminorm(CP, 16, src_a),
              discrete_seminorm(CP, 16, src_b)),
        "K": (coefficient_functional(seq, CP, 16),
              coefficient_functional(scaled, CP, 16)),
        "E": (bound_core(seq, params, 16), bound_core(scaled, params, 16)),
        "omega": (modulus_direct(seq, 1024, params, 1.0 / 16),
                  modulus_direct(scaled, 1024, params, 1.0 / 16)),
    }
    worst = max(abs(b / (s * a) - 1) for a, b in pairs.values())
    ok = worst < 1e-10
    _verdict(10, ok, f"max rel scaling err {worst:.2e}")


def test_criterion_11_deterministic_reports(tmp_path):
    cfg = {
        "task": "membership",
        "sequence": {"family": "random", "size": 64},
        "theta": 1, "r": 0.5, "lam": 0.5, "k": 2, "p": 2,
        "phi": "constant:1", "functional": "K",
        "n_grid": [2, 4, 8, 16, 32, 64],
        "seed": 11,
    }
    outs = []
    for name in ("one.json", "two.json"):
        doc = dict(cfg, out=str(tmp_path / name))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path)]) == 0
        outs.append((tmp_path / name).read_bytes())
    ok = outs[0] == outs[1]
    _verdict(11, ok, f"{len(outs[0])} bytes, byte-identical={ok}")
