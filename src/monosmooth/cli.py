"""Experiment orchestration: config validation, sweeps, report files.

Reports are deterministic: a fixed config (and seed) reproduces
byte-identical output.  CSV is used for plot-ready sweeps, JSON for
structured verdicts; an "unbounded" verdict is data, not a failure exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from numbers import Real

import numpy as np

from . import __version__
from .besov import (
    PHI_ARGS,
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
    broken_rules,
    make_power_law,
    make_power_log,
    make_random_monotone,
    positive_integer,
)
from .smoothness import (
    NORM_CONVENTION,
    QuadratureSpec,
    SmoothnessParams,
    bound_core,
    grid_size,
    modulus_direct,
)

#: length of a family sequence, and the series cut of modulus, unless chosen
HORIZON = 4096

_COMMON_KEYS = {"task", "out", "seed"}
_CLASS_KEYS = {"sequence", "theta", "r", "lam", "k", "p"}
#: task -> (required keys, optional keys, the RULES of the parameter classes
#: the task builds); sequences.broken_rules reads the rule rows
_TASKS = {
    "gen": ({"family"}, {"c", "beta", "gamma", "horizon", "size", "scale"}, ()),
    "modulus": ({"sequence", "k", "p", "t_grid"}, {"M", "H", "horizon"},
                SmoothnessParams.RULES + QuadratureSpec.RULES),
    "seminorm": (_CLASS_KEYS | {"n_grid"}, {"source", "H"},
                 ClassParams.RULES + DirectModulusSource.RULES),
    "verify-lemma": ({"lemma", "sequence", "alpha", "lam", "p", "m", "n"}, set(),
                     HardyParams.RULES),
    "equivalence": (_CLASS_KEYS | {"n_grid"}, {"H"},
                    ClassParams.RULES + DirectModulusSource.RULES),
    "membership": (_CLASS_KEYS | {"phi"}, {"functional", "n_grid"}, ClassParams.RULES),
}
#: rules on the keys of a family sequence (gen's keys, or a "sequence"
#: object, or the tail object of a sequence with a head); horizon is also
#: modulus's series cut
_SEQUENCE_RULES = tuple(
    (key, (key,), lambda v: isinstance(v, Real), "must be a real number")
    for key in ("c", "beta", "gamma", "scale")
) + tuple(
    (key, (key,), positive_integer, "must be a positive integer") for key in ("horizon", "size")
) + (
    ("head", ("head",), lambda v: isinstance(v, list) and all(isinstance(x, Real) for x in v),
     "must be a list of real numbers"),
    ("tail", ("tail",), lambda v: isinstance(v, dict), "must be an object"),
)
#: rules on the keys that only the CLI reads
_RULES = _SEQUENCE_RULES + (
    ("n_grid", ("n_grid",),
     lambda v: isinstance(v, list) and v and all(isinstance(x, int) and x >= 1 for x in v)
     and v == sorted(v),
     "must be an ascending list of integers >= 1"),
    ("t_grid", ("t_grid",),
     lambda v: len(v) > 0 and all(x > 0 for x in v) and list(v) == sorted(v),
     "must be ascending positive values"),
    ("lemma", ("lemma",), lambda v: v in LEMMA_IDS, "unknown id {!r}"),
    ("source", ("source",), lambda v: v in ("core", "direct"), "must be 'core' or 'direct'"),
    ("functional", ("functional",), lambda v: v in ("I", "J", "K"),
     "must be one of I, J, K"),
    ("seed", ("seed",), lambda v: isinstance(v, int), "must be an integer"),
)


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
    seed: int = 0


def parse_config(doc):
    """Validate a config document (dict) into an ExperimentConfig.

    Unknown keys are rejected to catch parameter-name typos.  The values
    present are checked against the rules of the parameter classes the
    task builds and the CLI's own rules; every violation is collected
    before raising.
    """
    if not isinstance(doc, dict):
        raise ConfigError(["config: must be a JSON object"])
    task = doc.get("task")
    if not isinstance(task, str) or task not in _TASKS:
        raise ConfigError([f"unknown or missing task: {task!r}"])
    required, optional, rules = _TASKS[task]
    allowed = _COMMON_KEYS | required | optional
    bad = [f"unknown key: {key!r}" for key in sorted(set(doc) - allowed)]
    bad += [f"missing required key: {key!r}" for key in sorted(required - set(doc))]
    bad += broken_rules(rules + _RULES, {k: v for k, v in doc.items() if k in allowed})
    if bad:
        raise ConfigError(bad)
    options = {k: v for k, v in doc.items() if k not in _COMMON_KEYS}
    return ExperimentConfig(task=task, options=options, out=doc.get("out"),
                            seed=doc.get("seed", 0))


def resolve_sequence(spec, seed=0):
    """Sequence from an inline JSON object, family spec, or file path."""
    if isinstance(spec, str):
        with open(spec) as fh:
            spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ConfigError(["sequence: must be an object or a file path"])
    bad = broken_rules(_SEQUENCE_RULES, spec)
    if isinstance(spec.get("tail"), dict):
        bad += [f"tail: {line}" for line in broken_rules(_SEQUENCE_RULES, spec["tail"])]
    if bad:
        raise ConfigError([f"sequence: {line}" for line in bad])
    family = spec.get("family")
    horizon = int(spec.get("horizon", HORIZON))
    try:
        if "head" in spec:
            return CoefficientSequence.from_json(spec)
        if family == "power_law":
            return make_power_law(spec.get("c", 1.0), spec["beta"], horizon)
        if family == "power_log":
            return make_power_log(spec.get("c", 1.0), spec["beta"], spec["gamma"], horizon)
    except KeyError as err:
        raise ConfigError([f"sequence: missing key {err.args[0]!r}"]) from None
    if family == "random":
        rng = np.random.default_rng(seed)
        return make_random_monotone(rng, int(spec.get("size", 64)),
                                    scale=spec.get("scale", 1.0))
    raise ConfigError([f"sequence: unknown family {family!r}"])


def _phi_from_spec(spec):
    if isinstance(spec, str):
        # compact form: "power:0.25" | "constant:1" | "power_log:0.25,1.5"
        variant, _, args = spec.partition(":")
        vals = [float(x) for x in args.split(",")] if args else []
        names = PHI_ARGS.get(variant, ())
        if variant in PHI_ARGS and len(vals) > len(names):
            raise ConfigError([f"phi: {variant} takes at most {len(names)} value(s)"])
        spec = {"variant": variant, **dict(zip(names, vals))}
    if not isinstance(spec, dict):
        raise ConfigError(["phi: must be a string or an object"])
    variant = spec.get("variant")
    if not isinstance(variant, str) or variant not in PHI_ARGS:
        raise ConfigError([f"phi: unknown variant {variant!r}"])
    try:
        return PhiSpec(**spec)
    except TypeError as err:  # a key PhiSpec does not have, or a non-number
        raise ConfigError([f"phi: {err}"]) from None


def _header_lines(extra=()):
    lines = [
        f"# monosmooth {__version__}",
        f"# norm: {NORM_CONVENTION}",
        "# tail rule: integral-comparison remainder, tail-model closure",
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
        horizon = int(opt.get("horizon", min(seq.horizon, HORIZON)))
        # the grid serves p != 2 only; unless chosen, it is sized from the horizon
        M = opt.get("M", QuadratureSpec.M if params.p == 2 else grid_size(horizon))
        quad = QuadratureSpec(M=M, H=opt.get("H", QuadratureSpec.H))
        rows = []
        for t in opt["t_grid"]:
            om = modulus_direct(seq, horizon, params, t, quad)
            n = max(1, round(1.0 / t))
            rows.append((t, om, bound_core(seq, params, n)))
        lines = _header_lines([
            f"k={params.k} p={_fmt(params.p)} M={quad.M} H={quad.H} horizon={horizon}",
        ])
        lines.append("t,omega_direct,E_core")
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        return _write(_out_path(cfg, "modulus.csv"), "\n".join(lines) + "\n")

    if cfg.task == "verify-lemma":
        hp = HardyParams(alpha=opt["alpha"], lam=opt["lam"], p=opt["p"],
                         m=opt["m"], n=opt["n"])
        rep = verify_lemma(opt["lemma"], seq, hp)
        lines = _header_lines()
        lines.append("lemma_id,alpha,lam,p,m,n,lhs,rhs,ratio")
        lines.append(",".join(_fmt(v) for v in (
            rep.lemma_id, hp.alpha, hp.lam, hp.p, hp.m, hp.n,
            rep.lhs, rep.rhs, rep.ratio)))
        return _write(_out_path(cfg, "verify_lemma.csv"), "\n".join(lines) + "\n")

    cp = ClassParams(theta=opt["theta"], r=opt["r"], lam=opt["lam"],
                     k=opt["k"], p=opt["p"])
    direct = {"H": opt["H"]} if "H" in opt else {}

    if cfg.task == "seminorm":
        n_grid = opt["n_grid"]
        if opt.get("source", "core") == "direct":
            source = DirectModulusSource(seq, cp.smoothness, **direct)
        else:
            source = CoreModulusSource(seq, cp.smoothness)
        values = {"n": list(n_grid), "I": [], "J": [], "K": []}
        for n in n_grid:
            values["I"].append(integral_seminorm(cp, 1.0 / (n + 1), source))
            values["J"].append(discrete_seminorm(cp, n, source))
            values["K"].append(coefficient_functional(seq, cp, n))
        payload = {"values": values, "source": opt.get("source", "core")}
        return _write(_out_path(cfg, "seminorm.json"), _json_report(cfg, payload))

    if cfg.task == "equivalence":
        source = DirectModulusSource(seq, cp.smoothness, **direct)
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
            "grid_verdict": rep.grid_verdict,
            "grid_disagrees": rep.grid_disagrees,
        }
        return _write(_out_path(cfg, "membership.json"), _json_report(cfg, payload))

    raise ConfigError([f"unhandled task: {cfg.task!r}"])


def _add_sequence_flags(sub):
    sub.add_argument("--seq", help="sequence JSON file path")
    sub.add_argument("--power-law", nargs=2, type=float, metavar=("C", "BETA"),
                     help="inline power-law family c, beta")
    sub.add_argument("--horizon", type=int, default=HORIZON)


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
    g.add_argument("--horizon", type=int, default=HORIZON)
    g.add_argument("--size", type=int, default=64)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")

    m = sub.add_parser("modulus", help="omega(t) sweep as CSV")
    _add_sequence_flags(m)
    m.add_argument("--k", type=int, required=True)
    m.add_argument("--p", type=float, required=True)
    m.add_argument("--t-grid", type=_float_list, required=True)
    m.add_argument("--M", type=int, help="p != 2 grid (default: from the horizon)")
    m.add_argument("--H", type=int, help="shift samples on (0, t] (default 64)")
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
    """The config document that the flags of a command line stand for."""
    doc = {key: v for key, v in vars(args).items() if v is not None and key != "config"}
    if args.task != "gen":
        for key in ("seq", "power_law", "horizon"):  # _add_sequence_flags
            doc.pop(key, None)
        doc["sequence"] = _sequence_spec(args)
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
    except ValueError as err:
        # every violation in a config, or one domain condition of the
        # parameters, e.g. n >= 16m or alpha < lam
        lines = err.violations if isinstance(err, ConfigError) \
            else [" ".join(str(err).split())]
        for line in lines:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 1
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
