"""The benchmark's workloads.

Each workload has two halves:

* ``inputs(ms, seed)`` draws every input from the seed and builds it with
  monosmooth's own constructors; this is the input generation that setup_s
  counts, so it imports nothing beyond monosmooth and the stdlib;
* ``cycle(ms, inputs, workdir, ref)`` returns the experiment cycle, a fixed
  list of experiments that a run repeats whole, so that every run measures
  the same mix of work.  Each reference value is obtained as ``ref(thunk)``:
  the harness computes the thunks in one process and replays their values,
  in the same order, in the measured process, which so never runs them.

An experiment has a name, unique within its workload, that fixes its case
(class-sweep: functional, family, gamma and offset).  Its ``run(tracer)``
does the timed work and ``check(result)`` compares the result with its
reference, returning None or a Failure.  A failure names the known defect
its shape matches, or none; it is explained only if KNOWN_FAILURES pins
that defect to that very experiment, so a new failure of any kind, or a
known kind of failure on a new case, is unexplained.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent

# The known defects, by the shape of failure each gives:
#   D2       a p != 2 direct modulus at default settings raises
#            "need M > 2 * horizon" (ROADMAP defect 2)
#   D3       a domain error escapes the CLI as a traceback instead of a
#            one-line error with exit 2 (ROADMAP defect 3)
#   D5       the membership stabilization rule gives a wrong finite verdict
#            (ROADMAP defect 5)
#   JI-core  J or I on CoreModulusSource comes back divergent where the
#            closed form is finite (extrapolated_tail_sum's cap rule)
# and the experiments each makes fail today, on every seed.
KNOWN_FAILURES = {
    "cli-modulus-p1-default-flag": "D2",
    "cli-verify-lemma-side-condition-flag": "D3",
    "membership-K D gamma=-0.5 offset=0": "D5",
    **{f"membership-{functional} {case} offset={offset}": "JI-core"
       for case, offsets in (("A gamma=0.0", ("-alpha/2", "0", "+0.25")),
                             ("B gamma=0.0", ("-alpha/2", "0")),
                             ("B gamma=0.5", ("-alpha/2", "0")),
                             ("D gamma=0.0", ("-alpha/2", "0", "+0.25")),
                             ("D gamma=-0.5", ("-alpha/2", "0", "+0.25")))
       for offset in offsets for functional in "JI"},
}


def explained(name, failure):
    """Whether a failure of experiment `name` is a pinned known defect."""
    return failure.defect is not None and KNOWN_FAILURES.get(name) == failure.defect

# acceptance bounds on band spreads (max/min ratio over the grid)
BAND_LIMITS = {"JI": 10.0, "KJ": 10.0, "wE": 20.0}
# omega tolerance: wide enough for a horizon or shift-grid change of the
# direct modulus (1.3e-3 against a truncation-free evaluation), far below
# any band or verdict effect
OMEGA_RTOL = 1e-2
# sums with an independent closed form or exactly summed reference
SUM_RTOL = 1e-6
HARDY_RTOL = 1e-9


class Failure(NamedTuple):
    message: str
    defect: str | None


@dataclass
class Experiment:
    name: str
    run: Callable
    check: Callable


def _close(got, want, rtol):
    return math.isfinite(got) and abs(got - want) <= rtol * abs(want)


def _spread(values):
    return max(values) / min(values)


# --------------------------------------------------------------------------
# direct-modulus: a fresh DirectModulusSource per equivalence report (p = 2
# source fill) and omega(t) sweeps through the p != 2 grid lp_norm path,
# sized so each half takes about half the time, plus p = 2 Parseval sweeps

DM_CLASS = dict(theta=1.0, r=0.5, lam=0.5, k=2, p=2.0)  # README equivalence
DM_N_GRID = [4, 8, 16, 32, 64]
DM_SOURCE_H = 16
SWEEP_K = 2
SWEEP_HORIZON = 4096
SWEEP_M = 16384
SWEEP_H = 64  # QuadratureSpec default
SWEEP_GRIDS = 5
DM_REF_HORIZON = 32768


def _t_grid(rng, points, top_exp):
    t0 = 2.0 ** -rng.randint(top_exp, top_exp + 4) * rng.uniform(0.75, 1.0)
    return [t0 * 2 ** i for i in range(points)]


def dm_inputs(ms, seed):
    rng = random.Random(seed)
    make = ms.sequences.make_power_law
    c, beta = rng.uniform(0.5, 2.0), 2.0 + rng.uniform(-0.05, 0.05)
    sweeps = []
    for lo, hi in ((1.6, 2.4), (2.6, 3.4)):
        sc, sb = rng.uniform(0.5, 2.0), rng.uniform(lo, hi)
        sweeps.append((sc, sb, make(sc, sb, SWEEP_HORIZON)))
    return {
        "equivalence": (c, beta, make(c, beta, SWEEP_HORIZON)),
        "sweeps": sweeps,
        "t_grids": [_t_grid(rng, 5, 5) for _ in range(SWEEP_GRIDS)],
    }


def _check_equivalence(rep, refs, core):
    """Bands within the acceptance bounds; K, E (and omega) against refs."""
    vals = rep["values"]
    for key in ("I", "J"):
        if not all(math.isfinite(v) and v > 0 for v in vals[key]):
            return Failure(f"{key} divergent on a convergent sequence: {vals[key]}",
                           "JI-core" if core else None)
    for key in ("K", "E", "omega"):
        if not all(math.isfinite(v) and v > 0 for v in vals[key]):
            return Failure(f"{key} not finite: {vals[key]}", None)
    for name, limit in BAND_LIMITS.items():
        band = rep["bands"][name]
        if len(band.ratios) != len(vals["n"]) or band.spread > limit:
            return Failure(f"{name} band {band.ratios} outside spread {limit}", None)
    if refs is None:
        return None
    for i, n in enumerate(vals["n"]):
        e_ref, k_ref, w_ref = refs[n]
        if not _close(vals["K"][i], k_ref, SUM_RTOL):
            return Failure(f"K({n}) = {vals['K'][i]}, reference {k_ref}", None)
        if not _close(vals["E"][i], e_ref, SUM_RTOL):
            return Failure(f"E({n}) = {vals['E'][i]}, reference {e_ref}", None)
        if not _close(vals["omega"][i], w_ref, OMEGA_RTOL):
            return Failure(f"omega(1/{n}) = {vals['omega'][i]}, reference {w_ref}", None)
    return None


def _check_sweep(p, refs, omegas):
    """omega(t) finite, nondecreasing, Hoelder-consistent with the p = 2
    Parseval reference on the same shifts, and within the omega/E band."""
    if len(omegas) != len(refs) or not all(math.isfinite(w) and w > 0 for w in omegas):
        return Failure(f"p={p} sweep not finite: {omegas}", None)
    for lo, hi in zip(omegas, omegas[1:]):
        if hi < lo * (1 - OMEGA_RTOL):
            return Failure(f"p={p} omega decreases in t: {omegas}", None)
    for w, (t, w2, _) in zip(omegas, refs):
        # on [0, 2pi): ||g||_1 <= (2pi)^(1/2) ||g||_2 <= (2pi)^(2/3) ||g||_3
        if p == 1 and w > math.sqrt(2 * math.pi) * w2 * (1 + OMEGA_RTOL):
            return Failure(f"omega_1({t}) = {w} above the Hoelder bound of {w2}", None)
        if p == 3 and w < (2 * math.pi) ** (-1 / 6) * w2 * (1 - OMEGA_RTOL):
            return Failure(f"omega_3({t}) = {w} below the Hoelder bound of {w2}", None)
        if p == 2 and not _close(w, w2, OMEGA_RTOL):
            return Failure(f"omega_2({t}) = {w}, reference {w2}", None)
    ratios = [w / e for w, (_, _, e) in zip(omegas, refs)]
    if _spread(ratios) > BAND_LIMITS["wE"]:
        return Failure(f"p={p} omega/E band {ratios} outside spread 20", None)
    return None


def _power_law_head(c, beta, horizon):
    return c * np.arange(1.0, horizon + 1) ** -beta


def dm_cycle(ms, inp, workdir, ref):
    from reference import coefficient_k, core_e, omega2

    besov, smoothness = ms.besov, ms.smoothness
    cp = besov.ClassParams(**DM_CLASS)
    c, beta, seq = inp["equivalence"]

    def equivalence_refs():
        a = _power_law_head(c, beta, DM_REF_HORIZON)
        return {n: (core_e(c, beta, cp.k, cp.p, n),
                    coefficient_k(c, beta, cp.theta, cp.r, cp.lam, cp.p, n),
                    omega2(a, cp.k, 1.0 / n, DM_SOURCE_H))
                for n in DM_N_GRID}

    refs = ref(equivalence_refs)

    def equivalence(tracer=None):
        source = besov.DirectModulusSource(seq, cp.smoothness, H=DM_SOURCE_H)
        return besov.equivalence_report(seq, cp, DM_N_GRID, source=source)

    cycle = [Experiment("equivalence-direct", equivalence,
                        lambda rep, refs=refs: _check_equivalence(rep, refs, core=False))]

    def sweep(seq, ps, grid):
        quad = smoothness.QuadratureSpec(M=SWEEP_M)
        params = [smoothness.SmoothnessParams(k=SWEEP_K, p=p) for p in ps]
        return lambda tracer=None: [
            [smoothness.modulus_direct(seq, SWEEP_HORIZON, sp, t, quad) for t in grid]
            for sp in params]

    def check_sweeps(ps, refs, omegas):
        return next(filter(None, (_check_sweep(p, r, om)
                                  for p, r, om in zip(ps, refs, omegas))), None)

    def sweep_refs(c, beta, ps, grid):
        a = _power_law_head(c, beta, SWEEP_HORIZON)
        return [[(t, omega2(a, SWEEP_K, t, SWEEP_H),
                  core_e(c, beta, SWEEP_K, p, max(1, round(1.0 / t))))
                 for t in grid] for p in ps]

    # p = 1 and p = 3 on one t grid make one experiment, so that the median
    # experiment is a grid-norm sweep; p = 2 on the first grid is a Parseval one
    for j, (sc, sb, sseq) in enumerate(inp["sweeps"]):
        for i, grid in enumerate(inp["t_grids"]):
            kinds = [("sweep-p1-p3", (1.0, 3.0))] + ([("sweep-p2", (2.0,))] if i == 0 else [])
            for kind, ps in kinds:
                srefs = ref(lambda: sweep_refs(sc, sb, ps, grid))
                cycle.append(Experiment(
                    f"{kind} sequence={j} grid={i}", sweep(sseq, ps, grid),
                    lambda om, ps=ps, srefs=srefs: check_sweeps(ps, srefs, om)))
    return cycle


# --------------------------------------------------------------------------
# class-sweep: phase-diagram membership runs (K, and J and I on
# CoreModulusSource) at fixed offsets around beta*, plus core-source
# equivalence reports and bound_core; no DirectModulusSource, no lp_norm

CS_SETS = {
    # class parameters, phi = delta^alpha
    "A": (dict(theta=1.0, r=0.5, lam=0.5, k=2, p=2.0), 0.25),  # README membership
    "B": (dict(theta=1.0, r=0.5, lam=1.0, k=3, p=3.0), 0.5),
    "D": (dict(theta=1.0, r=0.75, lam=0.75, k=3, p=4.0), 0.4),
}
# (set, gamma): gamma 0 is the power law nu^-beta, else the power-log
# nu^-beta (1 + ln nu)^-gamma, whose sign decides the critical line
CS_FAMILIES = (("A", 0.0), ("B", 0.0), ("B", 0.5), ("D", 0.0), ("D", -0.5))
CS_HORIZON = 4096
CS_ABOVE = 0.25  # offset of the convergent sequence used by equivalence and E


def cs_offsets(alpha):
    """(label, offset) on the divergent side, the unbounded side, the
    critical line and the bounded side."""
    return (("-alpha-0.25", -alpha - 0.25), ("-alpha/2", -alpha / 2), ("0", 0.0),
            ("+0.25", CS_ABOVE))


def cs_inputs(ms, seed):
    rng = random.Random(seed)
    seqs = {}
    for name, gamma in CS_FAMILIES:
        params, alpha = CS_SETS[name]
        c = rng.uniform(0.5, 2.0)
        beta_star = params["r"] + alpha + 1 - 1 / params["p"]
        for _, off in cs_offsets(alpha):
            beta = beta_star + off
            seqs[name, gamma, off] = (c, beta, (
                ms.sequences.make_power_law(c, beta, CS_HORIZON) if gamma == 0
                else ms.sequences.make_power_log(c, beta, gamma, CS_HORIZON)))
    n_grids = {}
    for fam in CS_FAMILIES:
        j0 = rng.randint(1, 3)
        n_grids[fam] = [2 ** j for j in range(j0, j0 + 5)]
    return {"seqs": seqs, "n_grids": n_grids,
            "e_grid": sorted(rng.sample(range(1, 4097), 8))}


def _check_verdict(functional, want, rep):
    if rep.verdict == want:
        return None
    msg = f"{functional} verdict {rep.verdict}, closed form {want}"
    if rep.verdict == "divergent" and want != "divergent":
        return Failure(msg, "JI-core" if functional in "JI" else None)
    if "divergent" in (rep.verdict, want):
        return Failure(msg, None)
    return Failure(msg, "D5")


def _check_bound_core(values, refs):
    for (n, want), got in zip(refs, values):
        if not _close(got, want, SUM_RTOL):
            return Failure(f"E({n}) = {got}, reference {want}", None)
    return None


def cs_cycle(ms, inp, workdir, ref):
    from reference import coefficient_k, core_e, phase_verdict

    besov, smoothness = ms.besov, ms.smoothness
    cycle = []
    for fam in CS_FAMILIES:
        name, gamma = fam
        params, alpha = CS_SETS[name]
        cp = besov.ClassParams(**params)
        phi = besov.PhiSpec.power(alpha)
        case = f"{name} gamma={gamma}"
        for label, off in cs_offsets(alpha):
            seq = inp["seqs"][name, gamma, off][2]
            want = phase_verdict(off, alpha, gamma)
            for functional in "KJI":
                cycle.append(Experiment(
                    f"membership-{functional} {case} offset={label}",
                    lambda tracer=None, seq=seq, cp=cp, phi=phi, f=functional:
                        besov.membership_test(seq, cp, phi, functional=f),
                    lambda rep, f=functional, want=want: _check_verdict(f, want, rep)))

        c, beta, seq = inp["seqs"][name, gamma, CS_ABOVE]
        grid = inp["n_grids"][fam]
        refs = None
        if gamma == 0:
            refs = ref(lambda: {
                n: (core_e(c, beta, cp.k, cp.p, n),
                    coefficient_k(c, beta, cp.theta, cp.r, cp.lam, cp.p, n),
                    core_e(c, beta, cp.k, cp.p, n)) for n in grid})
        cycle.append(Experiment(
            f"equivalence-core {case}",
            lambda tracer=None, seq=seq, cp=cp, grid=grid: besov.equivalence_report(
                seq, cp, grid, source=besov.CoreModulusSource(seq, cp.smoothness)),
            lambda rep, refs=refs: _check_equivalence(rep, refs, core=True)))
        if gamma == 0:
            erefs = ref(lambda: [(n, core_e(c, beta, cp.k, cp.p, n)) for n in inp["e_grid"]])
            cycle.append(Experiment(
                f"bound-core {case}",
                lambda tracer=None, seq=seq, cp=cp: [
                    smoothness.bound_core(seq, cp.smoothness, n) for n in inp["e_grid"]],
                lambda vals, erefs=erefs: _check_bound_core(vals, erefs)))
    return cycle


# --------------------------------------------------------------------------
# hardy-sweep: estimate_constant over the seven lemmas and three p regimes,
# on power-law, power-log and random monotone sequences with n = 2^10..2^16

HARDY_P = (0.5, 1.0, 2.0)
HARDY_N = (2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16)


def hardy_inputs(ms, seed):
    rng = random.Random(seed)
    seqs = ms.sequences
    horizon = HARDY_N[-1]
    families = {
        "power_law": seqs.make_power_law(1.0, rng.uniform(0.6, 2.0), horizon),
        "power_log": seqs.make_power_log(
            1.0, rng.uniform(0.8, 1.5), rng.uniform(-0.5, 1.0), horizon),
        "random": seqs.make_random_monotone(np.random.default_rng(seed), horizon),
    }
    # (alpha, lam, divisor d giving m = n/d, or 0 for m = 1): m = n/8 makes
    # the p >= 1 converse upper bound fail its n >= 16m side condition
    variants = [(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5), 0),
                (rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5), 8)]
    cases = {
        p: [(fam, seq, ms.hardy.HardyParams(
                alpha=alpha, lam=lam, p=p, m=n // d if d else 1, n=n))
            for fam, seq in families.items() for n in HARDY_N
            for alpha, lam, d in variants]
        for p in HARDY_P
    }
    return {"cases": cases}


def _check_hardy(want_ratios, want_skipped, want_sides, result):
    sweep, rep = result
    if sweep.skipped != want_skipped or len(sweep.ratios) != len(want_ratios):
        return Failure(f"{sweep.lemma_id}: {len(sweep.ratios)} ratios and "
                       f"{sweep.skipped} skipped, reference {len(want_ratios)} "
                       f"and {want_skipped}", None)
    for got, want in zip(sweep.ratios, want_ratios):
        if not _close(got, want, HARDY_RTOL):
            return Failure(f"{sweep.lemma_id}: ratio {got}, reference {want}", None)
    for side, got, want in (("lhs", rep.lhs, want_sides[0]), ("rhs", rep.rhs, want_sides[1])):
        if not _close(got, want, HARDY_RTOL):
            return Failure(f"{rep.lemma_id}: {side} {got}, reference {want}", None)
    return None


def hardy_cycle(ms, inp, workdir, ref):
    from reference import hardy_sides

    hardy = ms.hardy
    heads = {}

    def head(fam, seq):
        if fam not in heads:
            heads[fam] = np.asarray(seq.head)
        return heads[fam]

    def lemma_refs(lemma, cases, vhp):
        """Ratios and skipped count of the sweep, lhs and rhs of the vhp case."""
        ratios, skipped = [], 0
        for fam, seq, hp in cases:
            sides = hardy_sides(lemma, head(fam, seq), hp.alpha, hp.lam, hp.p, hp.m, hp.n)
            if sides is None:
                skipped += 1
            else:
                ratios.append(sides[0] / sides[1])
        sides = hardy_sides(lemma, heads["random"], vhp.alpha, vhp.lam, vhp.p, vhp.m, vhp.n)
        return ratios, skipped, sides

    cycle = []
    for lemma in hardy.LEMMA_IDS:
        for p in HARDY_P:
            cases = inp["cases"][p]
            # lhs and rhs themselves on the largest random-sequence case
            _, vseq, vhp = next(case for case in cases if case[0] == "random"
                                and case[2].n == HARDY_N[-1] and case[2].m == 1)
            ratios, skipped, sides = ref(lambda: lemma_refs(lemma, cases, vhp))
            pairs = [(seq, hp) for _, seq, hp in cases]
            cycle.append(Experiment(
                f"hardy-{lemma} p={p}",
                lambda tracer=None, lemma=lemma, pairs=pairs, vseq=vseq, vhp=vhp: (
                    hardy.estimate_constant(lemma, pairs),
                    hardy.verify_lemma(lemma, vseq, vhp)),
                lambda res, r=ratios, s=skipped, sd=sides: _check_hardy(r, s, sd, res)))
    return cycle


# --------------------------------------------------------------------------
# cli-cold: README commands as fresh processes, in flag and --config form,
# plus two commands that fail today (defects 2 and 3)

CLI_CLASS = ["--theta", "1", "--r", "0.5", "--lam", "0.5", "--k", "2", "--p", "2"]
CLI_MEMBERSHIP_ALPHA = 0.25


def _fmt(x):
    return repr(float(x))


def cli_inputs(ms, seed):
    """Each command as (name, argv without --out, config doc without out,
    parameters its check needs)."""
    rng = random.Random(seed)
    lemma_ids = ms.hardy.LEMMA_IDS

    def seq_doc(c, beta):
        return {"family": "power_law", "c": c, "beta": beta, "horizon": 4096}

    cmds = []
    gb, gh = rng.uniform(1.5, 2.5), rng.choice([1024, 2048, 4096])
    cmds.append(("gen", ["gen", "--beta", _fmt(gb), "--horizon", str(gh)],
                 {"task": "gen", "family": "power_law", "c": 1.0, "beta": gb, "horizon": gh},
                 {"beta": gb, "horizon": gh}))
    mc, mb = rng.uniform(0.5, 2.0), rng.uniform(1.8, 2.2)
    grid = _t_grid(rng, 3, 3)
    for p, extra in ((2, {}), (1, {"M": 16384})):
        argv = ["modulus", "--power-law", _fmt(mc), _fmt(mb), "--k", "2", "--p", str(p),
                "--t-grid", ",".join(_fmt(t) for t in grid)]
        argv += [x for key, v in extra.items() for x in (f"--{key}", str(v))]
        cmds.append((f"modulus-p{p}", argv,
                     {"task": "modulus", "sequence": seq_doc(mc, mb), "k": 2, "p": p,
                      "t_grid": grid, **extra},
                     {"c": mc, "beta": mb, "p": p, "t_grid": grid}))
    lc, lb = rng.uniform(0.5, 2.0), rng.uniform(0.8, 1.5)
    lemma, la, lp = rng.choice(lemma_ids), rng.uniform(0.5, 2.0), rng.choice([0.5, 1.0, 2.0])
    cmds.append(("verify-lemma",
                 ["verify-lemma", "--power-law", _fmt(lc), _fmt(lb), "--lemma", lemma,
                  "--alpha", _fmt(la), "--lam", "0", "--p", _fmt(lp), "--m", "1", "--n", "256"],
                 {"task": "verify-lemma", "lemma": lemma, "sequence": seq_doc(lc, lb),
                  "alpha": la, "lam": 0, "p": lp, "m": 1, "n": 256},
                 {"c": lc, "beta": lb, "lemma": lemma, "alpha": la, "p": lp}))
    bc, off = rng.uniform(0.5, 2.0), rng.choice([-0.125, 0.0, 0.25])
    bb = 0.5 + CLI_MEMBERSHIP_ALPHA + 1 - 1 / 2 + off
    cmds.append(("membership",
                 ["membership", "--power-law", _fmt(bc), _fmt(bb), *CLI_CLASS,
                  "--phi", f"power:{CLI_MEMBERSHIP_ALPHA}"],
                 {"task": "membership", "sequence": seq_doc(bc, bb), "theta": 1, "r": 0.5,
                  "lam": 0.5, "k": 2, "p": 2, "phi": f"power:{CLI_MEMBERSHIP_ALPHA}"},
                 {"offset": off}))
    sc, sb = rng.uniform(0.5, 2.0), rng.uniform(1.8, 2.2)
    sgrid = [2 ** j for j in range(rng.randint(1, 3), 6)]
    cmds.append(("seminorm-core",
                 ["seminorm", "--power-law", _fmt(sc), _fmt(sb), *CLI_CLASS,
                  "--n-grid", ",".join(map(str, sgrid)), "--source", "core"],
                 {"task": "seminorm", "sequence": seq_doc(sc, sb), "theta": 1, "r": 0.5,
                  "lam": 0.5, "k": 2, "p": 2, "n_grid": sgrid, "source": "core"},
                 {"c": sc, "beta": sb, "n_grid": sgrid}))
    dc, db = rng.uniform(0.5, 2.0), rng.uniform(1.8, 2.2)
    dgrid = _t_grid(rng, 2, 3)
    cmds.append(("modulus-p1-default",
                 ["modulus", "--power-law", _fmt(dc), _fmt(db), "--k", "2", "--p", "1",
                  "--t-grid", ",".join(_fmt(t) for t in dgrid)],
                 None, {"c": dc, "beta": db, "p": 1, "t_grid": dgrid}))
    cmds.append(("verify-lemma-side-condition",
                 ["verify-lemma", "--power-law", "1", "1", "--lemma", "lp_converse_upper",
                  "--alpha", "1", "--lam", "0", "--p", "2", "--m", "1", "--n", "8"],
                 None, {}))
    return {"commands": cmds}


def _read_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _cli_reference(name, q):
    """What a command's report must hold, computed before timing."""
    import reference

    if name.startswith("modulus"):
        a = _power_law_head(q["c"], q["beta"], SWEEP_HORIZON)
        return [(t, reference.omega2(a, 2, t, SWEEP_H),
                 reference.core_e(q["c"], q["beta"], 2, q["p"], max(1, round(1 / t))))
                for t in q["t_grid"]]
    if name == "verify-lemma":
        a = _power_law_head(q["c"], q["beta"], 256)
        return reference.hardy_sides(q["lemma"], a, q["alpha"], 0.0, q["p"], 1, 256)
    if name == "membership":
        return reference.phase_verdict(q["offset"], CLI_MEMBERSHIP_ALPHA, 0.0)
    if name == "seminorm-core":
        return [reference.coefficient_k(q["c"], q["beta"], 1.0, 0.5, 0.5, 2.0, n)
                for n in q["n_grid"]]
    return None


def _cli_report_problem(name, q, ref, path):
    """None if the report at path is right, else what is wrong."""
    if name == "gen":
        with open(path) as fh:
            doc = json.load(fh)
        head = doc["head"]
        if len(head) != q["horizon"] or doc["tail"] != {
                "variant": "power_law", "c": 1.0, "beta": q["beta"]}:
            return f"gen report shape or tail wrong: {doc['tail']}"
        bad = [i for i in (0, 1, len(head) - 1)
               if not _close(head[i], (i + 1.0) ** -q["beta"], 1e-12)]
        return f"gen head wrong at {bad}" if bad else None
    if name.startswith("modulus"):
        cols, rows = _read_rows(path)
        if cols != ["t", "omega_direct", "E_core"] or len(rows) != len(ref):
            return f"modulus report columns {cols}, {len(rows)} rows"
        omegas = [float(r[1]) for r in rows]
        for (t, w2, e), row in zip(ref, rows):
            if not _close(float(row[0]), t, 1e-9) or not _close(float(row[2]), e, SUM_RTOL):
                return f"modulus row {row}, reference t={t} E={e}"
        fail = _check_sweep(q["p"], ref, omegas)
        return fail.message if fail else None
    if name == "verify-lemma":
        cols, rows = _read_rows(path)
        row = dict(zip(cols, rows[0]))
        for side, want in zip(("lhs", "rhs"), ref):
            if not _close(float(row[side]), want, HARDY_RTOL):
                return f"{side} {row[side]}, reference {want}"
        return None
    with open(path) as fh:
        doc = json.load(fh)
    if name == "membership":
        return None if doc["verdict"] == ref else \
            f"verdict {doc['verdict']}, closed form {ref}"
    # seminorm-core
    vals = doc["values"]
    if not all(isinstance(v, float) and math.isfinite(v) for v in vals["I"] + vals["J"]):
        return "JI-core: I or J divergent on a convergent sequence"
    for got, want in zip(vals["K"], ref):
        if not _close(got, want, SUM_RTOL):
            return f"K {got}, reference {want}"
    ji = [j / i for j, i in zip(vals["J"], vals["I"])]
    kj = [k / j for k, j in zip(vals["K"], vals["J"])]
    if _spread(ji) > BAND_LIMITS["JI"] or _spread(kj) > BAND_LIMITS["KJ"]:
        return f"seminorm bands out of bounds: J/I {ji}, K/J {kj}"
    return None


def _run_cli(workdir, argv, tracer):
    if tracer is None:
        cmd = [sys.executable, "-m", "monosmooth.cli", *argv]
    else:
        summary = workdir / "trace-summary.json"
        cmd = [sys.executable, str(HERE / "cli_trace.py"), str(summary), *argv]
    proc = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True, timeout=120)
    if tracer is not None:
        with open(summary) as fh:
            tracer.merge(json.load(fh))
        os.remove(summary)
    return proc


def _check_cli(name, q, ref, out, proc):
    lines = proc.stderr.strip().splitlines()
    if name == "verify-lemma-side-condition":
        if proc.returncode != 2 or len(lines) != 1 or "Traceback" in proc.stderr:
            return Failure(f"exit {proc.returncode} with {len(lines)} "
                           "stderr lines, want exit 2 and a one-line error",
                           "D3" if "Traceback" in proc.stderr else None)
        return None
    if proc.returncode != 0:
        tail = (lines[-1:] or [""])[0]
        return Failure(f"exit {proc.returncode} ({tail})",
                       "D2" if "need M > 2 * horizon" in tail else None)
    if proc.stdout.strip().splitlines()[-1:] != [str(out)]:
        return Failure(f"printed {proc.stdout!r}, want the report path", None)
    problem = _cli_report_problem(name, q, ref, out)
    if problem is None:
        return None
    return Failure(problem, "JI-core" if problem.startswith("JI-core") else None)


def cli_cycle(ms, inp, workdir, ref):
    cycle = []
    for name, argv, doc, q in inp["commands"]:
        want = ref(lambda: _cli_reference(name, q))
        forms = [("flag", None)] + ([("config", doc)] if doc is not None else [])
        ext = "json" if name in ("gen", "membership", "seminorm-core") else "csv"
        for form, cfg in forms:
            out = workdir / f"{name}-{form}.{ext}"
            if cfg is None:
                full = argv + ["--out", str(out)]
            else:
                cfg_path = workdir / f"{name}.config.json"
                with open(cfg_path, "w") as fh:
                    json.dump({**cfg, "out": str(out)}, fh)
                full = ["--config", str(cfg_path)]
            cycle.append(Experiment(
                f"cli-{name}-{form}",
                lambda tracer=None, full=full: _run_cli(workdir, full, tracer),
                lambda proc, name=name, q=q, want=want, out=out:
                    _check_cli(name, q, want, out, proc)))
    return cycle


# name -> (inputs, cycle, fewest cycles a run makes).  direct-modulus and
# class-sweep make three: their long experiments (the equivalence report,
# power-log J and I) get only a coarse host speed calibration, from the
# kernels at their two ends.
WORKLOADS = {
    "direct-modulus": (dm_inputs, dm_cycle, 3),
    "class-sweep": (cs_inputs, cs_cycle, 3),
    "hardy-sweep": (hardy_inputs, hardy_cycle, 2),
    "cli-cold": (cli_inputs, cli_cycle, 2),
}
