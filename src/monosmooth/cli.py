"""Experiment orchestration: config validation, sweeps, report files.

Reports are deterministic: a fixed config (and seed) reproduces
byte-identical output.  CSV is used for plot-ready sweeps, JSON for
structured verdicts; an "unbounded" verdict is data, not a failure exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .besov import (
    ClassParams,
    CoreModulusSource,
    DirectModulusSource,
    PhiSpec,
    coefficient_functional,
    discrete_seminorm,
    equivalence_report,
    integral_seminorm,
    membership_test,
)
from .hardy import LEMMA_IDS, HardyParams, verify_lemma
from .sequences import (
    CoefficientSequence,
    make_power_law,
    make_power_log,
    make_random_monotone,
)
from .smoothness import (
    NORM_CONVENTION,
    QuadratureSpec,
    SmoothnessParams,
    bound_core,
    grid_size,
    modulus_direct,
)

TASKS = ("gen", "modulus", "seminorm", "verify-lemma", "equivalence", "membership")

_COMMON_KEYS = {"task", "out", "format", "seed"}
_TASK_KEYS = {
    "gen": {"family", "c", "beta", "gamma", "horizon", "size", "scale"},
    "modulus": {"sequence", "k", "p", "t_grid", "M", "H", "horizon"},
    "seminorm": {"sequence", "theta", "r", "lam", "k", "p", "n_grid", "source", "H"},
    "verify-lemma": {"lemma", "sequence", "alpha", "lam", "p", "m", "n"},
    "equivalence": {"sequence", "theta", "r", "lam", "k", "p", "n_grid", "H"},
    "membership": {"sequence", "theta", "r", "lam", "k", "p", "phi",
                   "functional", "n_grid"},
}
_TASK_REQUIRED = {
    "gen": {"family"},
    "modulus": {"sequence", "k", "p", "t_grid"},
    "seminorm": {"sequence", "theta", "r", "lam", "k", "p", "n_grid"},
    "verify-lemma": {"lemma", "sequence", "alpha", "lam", "p", "m", "n"},
    "equivalence": {"sequence", "theta", "r", "lam", "k", "p", "n_grid"},
    "membership": {"sequence", "theta", "r", "lam", "k", "p", "phi"},
}


class ConfigError(ValueError):
    """All violations found in a config document, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class ExperimentConfig:
    task: str
    options: dict
    out: str | None = None
    format: str | None = None
    seed: int = 0


def parse_config(doc):
    """Validate a config document (dict) into an ExperimentConfig.

    Unknown keys are rejected to catch parameter-name typos; every
    violation is collected before raising.
    """
    bad = []
    task = doc.get("task")
    if task not in TASKS:
        raise ConfigError([f"unknown or missing task: {task!r}"])
    allowed = _COMMON_KEYS | _TASK_KEYS[task]
    for key in sorted(set(doc) - allowed):
        bad.append(f"unknown key: {key!r}")
    for key in sorted(_TASK_REQUIRED[task] - set(doc)):
        bad.append(f"missing required key: {key!r}")

    def num(key, cond, msg):
        if key in doc:
            try:
                ok = cond(doc[key])
            except TypeError:
                ok = False
            if not ok:
                bad.append(f"{key}: {msg}")

    if task in ("seminorm", "equivalence", "membership"):
        num("theta", lambda v: v > 0, "must be positive")
        num("r", lambda v: v > 0, "must be positive")
        num("lam", lambda v: v > 0, "must be positive")
        num("p", lambda v: 1 < v < math.inf, "must lie in (1, inf)")
        num("k", lambda v: int(v) == v and v >= 1, "must be a positive integer")
        num("H", lambda v: int(v) == v and v >= 1, "must be a positive integer")
        if all(key in doc for key in ("k", "r", "lam")) and \
                isinstance(doc["k"], (int, float)):
            try:
                if doc["k"] <= doc["r"] + doc["lam"]:
                    bad.append("k: must exceed r + lam")
            except TypeError:
                pass
    if task == "modulus":
        num("k", lambda v: int(v) == v and v >= 1, "must be a positive integer")
        num("p", lambda v: v > 0, "must be positive")
        num("t_grid", lambda v: len(v) > 0 and all(x > 0 for x in v)
            and list(v) == sorted(v), "must be ascending positive values")
    for key in ("n_grid",):
        if key in doc:
            v = doc[key]
            if not (isinstance(v, list) and v and
                    all(isinstance(x, int) and x >= 1 for x in v) and
                    v == sorted(v)):
                bad.append(f"{key}: must be an ascending list of integers >= 1")
    if task == "verify-lemma":
        if "lemma" in doc and doc["lemma"] not in LEMMA_IDS:
            bad.append(f"lemma: unknown id {doc['lemma']!r}")
        num("alpha", lambda v: v > 0, "must be positive")
        num("p", lambda v: v > 0, "must be positive")
        if "m" in doc and "n" in doc:
            try:
                if not (1 <= doc["m"] < doc["n"]):
                    bad.append("m, n: need 1 <= m < n")
            except TypeError:
                bad.append("m, n: must be integers")
    if "seed" in doc and not isinstance(doc["seed"], int):
        bad.append("seed: must be an integer")
    if "format" in doc and doc["format"] not in ("csv", "json"):
        bad.append("format: must be 'csv' or 'json'")
    if bad:
        raise ConfigError(bad)
    options = {k: v for k, v in doc.items() if k not in _COMMON_KEYS}
    return ExperimentConfig(task=task, options=options, out=doc.get("out"),
                            format=doc.get("format"), seed=doc.get("seed", 0))


def resolve_sequence(spec, seed=0):
    """Sequence from an inline JSON object, family spec, or file path."""
    if isinstance(spec, str):
        with open(spec) as fh:
            spec = json.load(fh)
    if "head" in spec:
        return CoefficientSequence.from_json(spec)
    family = spec.get("family")
    if family == "power_law":
        return make_power_law(spec.get("c", 1.0), spec["beta"],
                              spec.get("horizon", 4096))
    if family == "power_log":
        return make_power_log(spec.get("c", 1.0), spec["beta"], spec["gamma"],
                              spec.get("horizon", 4096))
    if family == "random":
        rng = np.random.default_rng(seed)
        return make_random_monotone(rng, spec.get("size", 64),
                                    scale=spec.get("scale", 1.0))
    raise ConfigError([f"sequence: unknown family {family!r}"])


def _phi_from_spec(spec):
    if isinstance(spec, str):
        # compact form: "power:0.25" | "constant:1" | "power_log:0.25,1.5"
        name, _, args = spec.partition(":")
        vals = [float(x) for x in args.split(",")] if args else []
        if name == "power":
            return PhiSpec.power(*vals)
        if name == "constant":
            return PhiSpec.constant(*(vals or [1.0]))
        if name == "power_log":
            return PhiSpec.power_log(*vals)
        raise ConfigError([f"phi: unknown variant {name!r}"])
    variant = spec.get("variant")
    if variant == "power":
        return PhiSpec.power(spec["alpha"])
    if variant == "constant":
        return PhiSpec.constant(spec.get("c", 1.0))
    if variant == "power_log":
        return PhiSpec.power_log(spec["alpha"], spec["gamma"])
    raise ConfigError([f"phi: unknown variant {variant!r}"])


def _header_lines(cfg, extra=()):
    lines = [
        f"# monosmooth {__version__}",
        f"# norm: {NORM_CONVENTION}",
        "# tail rule: integral-comparison remainder, power-fit extrapolation",
    ]
    lines.extend(f"# {line}" for line in extra)
    return lines


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _out_path(cfg, default_name):
    if cfg.out:
        return cfg.out
    out_dir = os.environ.get("MONOSMOOTH_OUT_DIR", ".")
    return os.path.join(out_dir, default_name)


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _json_report(cfg, payload):
    doc = {
        "tool": {"name": "monosmooth", "version": __version__},
        "norm": NORM_CONVENTION,
        "config": {"task": cfg.task, "seed": cfg.seed, **cfg.options},
        **payload,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def run_experiment(cfg):
    """Dispatch a validated config and write its report file.

    Returns the output path.  Mathematical verdicts (unbounded,
    divergent) live in the report body; only config and IO problems
    raise.
    """
    opt = cfg.options
    if cfg.task == "gen":
        seq = resolve_sequence(opt, seed=cfg.seed)
        path = _out_path(cfg, "sequence.json")
        return _write(path, json.dumps(seq.to_json(), sort_keys=True, indent=2) + "\n")

    seq = resolve_sequence(opt["sequence"], seed=cfg.seed)

    if cfg.task == "modulus":
        params = SmoothnessParams(k=opt["k"], p=opt["p"])
        horizon = opt.get("horizon", min(seq.horizon, 4096))
        # the grid serves p != 2 only; unless chosen, it is sized from the horizon
        M = opt.get("M", QuadratureSpec.M if params.p == 2 else grid_size(horizon))
        quad = QuadratureSpec(M=M, H=opt.get("H", QuadratureSpec.H))
        rows = []
        for t in opt["t_grid"]:
            om = modulus_direct(seq, horizon, params, t, quad)
            n = max(1, round(1.0 / t))
            rows.append((t, om, bound_core(seq, params, n)))
        lines = _header_lines(cfg, [
            f"k={params.k} p={_fmt(params.p)} M={quad.M} H={quad.H} horizon={horizon}",
        ])
        lines.append("t,omega_direct,E_core")
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        return _write(_out_path(cfg, "modulus.csv"), "\n".join(lines) + "\n")

    if cfg.task == "verify-lemma":
        hp = HardyParams(alpha=opt["alpha"], lam=opt["lam"], p=opt["p"],
                         m=opt["m"], n=opt["n"])
        rep = verify_lemma(opt["lemma"], seq, hp)
        lines = _header_lines(cfg)
        lines.append("lemma_id,alpha,lam,p,m,n,lhs,rhs,ratio")
        lines.append(",".join(_fmt(v) for v in (
            rep.lemma_id, hp.alpha, hp.lam, hp.p, hp.m, hp.n,
            rep.lhs, rep.rhs, rep.ratio)))
        return _write(_out_path(cfg, "verify_lemma.csv"), "\n".join(lines) + "\n")

    cp = ClassParams(theta=opt["theta"], r=opt["r"], lam=opt["lam"],
                     k=opt["k"], p=opt["p"])

    if cfg.task == "seminorm":
        n_grid = opt["n_grid"]
        if opt.get("source", "core") == "direct":
            source = DirectModulusSource(seq, cp.smoothness, H=opt.get("H", 16))
        else:
            source = CoreModulusSource(seq, cp.smoothness)
        values = {"n": list(n_grid), "I": [], "J": [], "K": []}
        for n in n_grid:
            values["I"].append(integral_seminorm(seq, cp, 1.0 / (n + 1), source))
            values["J"].append(discrete_seminorm(seq, cp, n, source))
            values["K"].append(coefficient_functional(seq, cp, n))
        payload = {"values": values, "source": opt.get("source", "core")}
        return _write(_out_path(cfg, "seminorm.json"), _json_report(cfg, payload))

    if cfg.task == "equivalence":
        source = DirectModulusSource(seq, cp.smoothness, H=opt.get("H", 16))
        rep = equivalence_report(seq, cp, opt["n_grid"], source=source)
        payload = {
            "values": rep["values"],
            "bands": {k: b.to_json() for k, b in rep["bands"].items()},
        }
        return _write(_out_path(cfg, "equivalence.json"), _json_report(cfg, payload))

    if cfg.task == "membership":
        phi = _phi_from_spec(opt["phi"])
        rep = membership_test(seq, cp, phi, functional=opt.get("functional", "K"),
                              n_grid=opt.get("n_grid"))
        payload = {
            "phi": phi.to_json(),
            "functional": rep.functional,
            "grid": rep.grid,
            "values": rep.values,
            "ratios": rep.ratios,
            "sup_ratio": rep.sup_ratio,
            "verdict": rep.verdict,
        }
        return _write(_out_path(cfg, "membership.json"), _json_report(cfg, payload))

    raise ConfigError([f"unhandled task: {cfg.task!r}"])


def _add_sequence_flags(sub):
    sub.add_argument("--seq", help="sequence JSON file path")
    sub.add_argument("--power-law", nargs=2, type=float, metavar=("C", "BETA"),
                     help="inline power-law family c, beta")
    sub.add_argument("--horizon", type=int, default=4096)


def _sequence_spec(args):
    if getattr(args, "seq", None):
        return args.seq
    if getattr(args, "power_law", None):
        c, beta = args.power_law
        return {"family": "power_law", "c": c, "beta": beta,
                "horizon": args.horizon}
    raise ConfigError(["sequence: provide --seq or --power-law"])


def _float_list(text):
    return [float(x) for x in text.split(",")]


def _int_list(text):
    return [int(x) for x in text.split(",")]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="monosmooth",
        description="Moduli of smoothness, Hardy-type sums, and "
                    "coefficient-class seminorms for monotone cosine series.",
    )
    parser.add_argument("--version", action="version",
                        version=f"monosmooth {__version__}")
    parser.add_argument("--config", help="JSON config file (overrides flags)")
    sub = parser.add_subparsers(dest="task")

    g = sub.add_parser("gen", help="emit a sequence JSON file")
    g.add_argument("--family", choices=["power_law", "power_log", "random"],
                   default="power_law")
    g.add_argument("--c", type=float, default=1.0)
    g.add_argument("--beta", type=float, default=1.0)
    g.add_argument("--gamma", type=float, default=0.0)
    g.add_argument("--horizon", type=int, default=4096)
    g.add_argument("--size", type=int, default=64)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")

    m = sub.add_parser("modulus", help="omega(t) sweep as CSV")
    _add_sequence_flags(m)
    m.add_argument("--k", type=int, required=True)
    m.add_argument("--p", type=float, required=True)
    m.add_argument("--t-grid", type=_float_list, required=True)
    m.add_argument("--M", type=int, help="p != 2 grid (default: from the horizon)")
    m.add_argument("--H", type=int, default=64, help="shift samples on (0, t]")
    m.add_argument("--out")

    v = sub.add_parser("verify-lemma", help="one inequality instance as CSV")
    _add_sequence_flags(v)
    v.add_argument("--lemma", choices=list(LEMMA_IDS), required=True)
    v.add_argument("--alpha", type=float, required=True)
    v.add_argument("--lam", type=float, required=True)
    v.add_argument("--p", type=float, required=True)
    v.add_argument("--m", type=int, required=True)
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--out")

    for name in ("seminorm", "equivalence", "membership"):
        s = sub.add_parser(name)
        _add_sequence_flags(s)
        s.add_argument("--theta", type=float, required=True)
        s.add_argument("--r", type=float, required=True)
        s.add_argument("--lam", type=float, required=True)
        s.add_argument("--k", type=int, required=True)
        s.add_argument("--p", type=float, required=True)
        if name != "membership":
            s.add_argument("--n-grid", type=_int_list, required=True)
        else:
            s.add_argument("--n-grid", type=_int_list)
            s.add_argument("--phi", required=True,
                           help="power:A | constant:C | power_log:A,G")
            s.add_argument("--functional", choices=["I", "J", "K"], default="K")
        if name == "seminorm":
            s.add_argument("--source", choices=["core", "direct"], default="core")
        if name != "membership":
            s.add_argument("--H", type=int,
                           help="direct-source shift samples per octave (default 16)")
        s.add_argument("--out")
    return parser


def _config_from_args(args):
    doc = {"task": args.task}
    if args.task == "gen":
        doc.update(family=args.family, c=args.c, beta=args.beta,
                   horizon=args.horizon, seed=args.seed)
        if args.family == "power_log":
            doc["gamma"] = args.gamma
        if args.family == "random":
            doc = {"task": "gen", "family": "random", "size": args.size,
                   "seed": args.seed}
    else:
        doc["sequence"] = _sequence_spec(args)
        for key in ("k", "p", "theta", "r", "lam", "alpha", "m", "n",
                    "lemma", "M", "H", "phi", "functional", "source"):
            if hasattr(args, key) and getattr(args, key) is not None:
                doc[key] = getattr(args, key)
        if getattr(args, "t_grid", None) is not None:
            doc["t_grid"] = args.t_grid
        if getattr(args, "n_grid", None) is not None:
            doc["n_grid"] = args.n_grid
    if getattr(args, "out", None):
        doc["out"] = args.out
    return doc


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            with open(args.config) as fh:
                doc = json.load(fh)
        elif args.task:
            doc = _config_from_args(args)
        else:
            parser.print_help()
            return 2
        cfg = parse_config(doc)
        path = run_experiment(cfg)
    except ConfigError as err:
        for line in err.violations:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except ValueError as err:
        # a domain condition of the parameters, e.g. n >= 16m or alpha < lam
        print(f"config error: {' '.join(str(err).split())}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 1
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
