"""Experiment orchestration: config validation, sweeps, report files.

Reports are deterministic: a fixed config (and seed) reproduces
byte-identical output.  CSV is used for plot-ready sweeps, JSON for
structured verdicts; an "unbounded" verdict is data, not a failure exit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .sequences import (
    CoefficientSequence,
    PowerLogTail,
    broken_rules,
    finite_real,
    make_power_law,
    make_power_log,
    make_random_monotone,
    positive_integer,
)

#: length of a family sequence, and the series cut of modulus, unless chosen
HORIZON = 4096
#: memory budget of a grid: K, J, I and E hold tables of max(n) floats, and
#: the core table is the power of two past max(n) + 2, so n <= 2^19 keeps
#: each table within 2^20 floats (8 MiB)
N_GRID_MAX = 2 ** 19
#: the norm of every report: smoothness's L^p norms
NORM_CONVENTION = "Lp integral over [0, 2pi), no 1/(2pi) normalization"

_COMMON_KEYS = {"task", "out", "seed"}
_CLASS_KEYS = {"sequence", "theta", "r", "lam", "k", "p"}
#: task -> (required keys, optional keys, the parameter classes the task
#: builds, as "module.Class"); parse_config reads their RULES, importing only
#: the task's own modules, so that a command loads no module it does not run
_TASKS = {
    "gen": ({"family"}, {"c", "beta", "gamma", "horizon", "size", "scale"}, ()),
    "modulus": ({"sequence", "k", "p", "t_grid"}, {"M", "horizon"},
                ("smoothness.SmoothnessParams", "smoothness.QuadratureSpec")),
    "seminorm": (_CLASS_KEYS | {"n_grid"}, {"source"}, ("besov.ClassParams",)),
    "verify-lemma": ({"lemma", "sequence", "alpha", "lam", "p", "m", "n"}, set(),
                     ("hardy.HardyParams",)),
    "equivalence": (_CLASS_KEYS | {"n_grid"}, set(), ("besov.ClassParams",)),
    "membership": (_CLASS_KEYS | {"phi"}, {"functional", "n_grid"}, ("besov.ClassParams",)),
}


def _load(name):
    """The object "module.name" of this package, importing its module."""
    module, _, attr = name.partition(".")
    return getattr(importlib.import_module(f".{module}", __package__), attr)


#: rules on the keys of a family sequence (gen's keys, or a "sequence"
#: object, or the tail object of a sequence with a head): the tail's and the
#: head's own, and the CLI's; horizon is also modulus's series cut
_SEQUENCE_RULES = (
    *PowerLogTail.RULES,
    ("scale", ("scale",), lambda v: finite_real(v) and v >= 0, "must be a finite real number >= 0"),
    *((key, (key,), positive_integer, "must be a positive integer") for key in ("horizon", "size")),
    *CoefficientSequence.RULES,
    ("tail", ("tail",), lambda v: isinstance(v, dict), "must be an object"),
)
#: rules on the keys that only the CLI reads
_RULES = _SEQUENCE_RULES + (
    # N_GRID_MAX: the memory budget of the tables a grid fills
    ("n_grid", ("n_grid",),
     lambda v: isinstance(v, list) and v
     and all(isinstance(x, int) and 1 <= x <= N_GRID_MAX for x in v) and v == sorted(v),
     f"must be an ascending list of integers from 1 to {N_GRID_MAX}"),
    # round(1/t) is the n of E(n), so it has an n-grid's bound
    ("t_grid", ("t_grid",),
     lambda v: len(v) > 0 and list(v) == sorted(v) and all(
         0 < x < math.inf and 1.0 / x < N_GRID_MAX + 1 and round(1.0 / x) <= N_GRID_MAX
         for x in v),
     f"must be ascending finite positive values with round(1/t) at most {N_GRID_MAX}"),
    ("lemma", ("lemma",), lambda v: v in _load("hardy.LEMMA_IDS"), "unknown id {!r}"),
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


def parse_config(doc):
    """The validated config document (a dict), with seed defaulted to 0.

    Unknown keys are rejected to catch parameter-name typos.  The values
    present, an inline sequence and phi included (a sequence file is read
    later), are checked against the rules of the parameter classes the task
    builds and the CLI's own; every violation is collected before raising.
    """
    if not isinstance(doc, dict):
        raise ConfigError(["config: must be a JSON object"])
    task = doc.get("task")
    if not isinstance(task, str) or task not in _TASKS:
        raise ConfigError([f"unknown or missing task: {task!r}"])
    required, optional, classes = _TASKS[task]
    rules = tuple(row for cls in classes for row in _load(cls).RULES)
    allowed = _COMMON_KEYS | required | optional
    bad = [f"unknown key: {key!r}" for key in sorted(set(doc) - allowed)]
    bad += [f"missing required key: {key!r}" for key in sorted(required - set(doc))]
    bad += broken_rules(rules + _RULES, {k: v for k, v in doc.items() if k in allowed})
    if "sequence" in required and isinstance(doc.get("sequence"), dict):
        bad += _sequence_violations(doc["sequence"])
    if "phi" in required and "phi" in doc:
        try:
            _phi_from_spec(doc["phi"])
        except ValueError as err:
            bad += _error_lines(err)
    if bad:
        raise ConfigError(bad)
    return {"seed": 0, **doc}


def _sequence_violations(spec):
    bad = broken_rules(_SEQUENCE_RULES, spec)
    if isinstance(spec.get("tail"), dict):
        bad += [f"tail: {line}" for line in broken_rules(_SEQUENCE_RULES, spec["tail"])]
    return [f"sequence: {line}" for line in bad]


def _error_lines(err):
    """Every violation of a ConfigError, or one domain condition, e.g. n >= 16m."""
    return err.violations if isinstance(err, ConfigError) else [" ".join(str(err).split())]


def resolve_sequence(spec, seed=0):
    """Sequence from an inline JSON object, family spec, or file path."""
    if isinstance(spec, str):
        with open(spec) as fh:
            spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ConfigError(["sequence: must be an object or a file path"])
    if bad := _sequence_violations(spec):
        raise ConfigError(bad)
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
    from .besov import PHI_ARGS, PhiSpec

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
    if cfg.get("out"):
        return cfg["out"]
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
        "config": {k: v for k, v in cfg.items() if k != "out"},
        **payload,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def run_experiment(cfg):
    """Dispatch a validated config and write its report file.

    cfg is parse_config's document.  Returns the output path.  Each task
    imports the modules it runs, and no other.
    Mathematical verdicts (unbounded, divergent) live in the report body;
    only config and IO problems raise.
    """
    task = cfg["task"]
    if task == "gen":
        seq = resolve_sequence(cfg, seed=cfg["seed"])
        path = _out_path(cfg, "sequence.json")
        return _write(path, json.dumps(seq.to_json(), sort_keys=True, indent=2) + "\n")

    seq = resolve_sequence(cfg["sequence"], seed=cfg["seed"])

    if task == "modulus":
        from .smoothness import (SHIFTS_PER_OCTAVE, QuadratureSpec, SmoothnessParams,
                                 bound_core, grid_size, modulus_direct)

        params = SmoothnessParams(k=cfg["k"], p=cfg["p"])
        horizon = int(cfg.get("horizon", min(seq.horizon, HORIZON)))
        # the grid serves p != 2 only; unless chosen, it is sized from the horizon
        quad = QuadratureSpec(M=cfg.get("M", grid_size(horizon)))
        oms = [modulus_direct(seq, horizon, params, t, quad) for t in cfg["t_grid"]]
        es = bound_core(seq, params, np.array([max(1, round(1.0 / t)) for t in cfg["t_grid"]]))
        rows = zip(cfg["t_grid"], oms, es.tolist())
        grid = f" M={quad.M}" if params.p != 2 else ""
        lines = _header_lines([
            f"k={params.k} p={_fmt(params.p)}{grid} horizon={horizon}",
            f"omega: max over {SHIFTS_PER_OCTAVE} shifts per octave on [t/64, t]",
        ])
        lines.append("t,omega_direct,E_core")
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        return _write(_out_path(cfg, "modulus.csv"), "\n".join(lines) + "\n")

    if task == "verify-lemma":
        from .hardy import HardyParams, verify_lemma

        hp = HardyParams(alpha=cfg["alpha"], lam=cfg["lam"], p=cfg["p"],
                         m=cfg["m"], n=cfg["n"])
        rep = verify_lemma(cfg["lemma"], seq, hp)
        lines = _header_lines()
        lines.append("lemma_id,alpha,lam,p,m,n,lhs,rhs,ratio")
        lines.append(",".join(_fmt(v) for v in (
            rep.lemma_id, hp.alpha, hp.lam, hp.p, hp.m, hp.n,
            rep.lhs, rep.rhs, rep.ratio)))
        return _write(_out_path(cfg, "verify_lemma.csv"), "\n".join(lines) + "\n")

    from .besov import (ClassParams, CoreModulusSource, DirectModulusSource, equivalence_report,
                        membership_test)

    cp = ClassParams(theta=cfg["theta"], r=cfg["r"], lam=cfg["lam"],
                     k=cfg["k"], p=cfg["p"])

    if task == "seminorm":
        name = cfg.get("source", "core")
        source = (CoreModulusSource if name == "core" else DirectModulusSource)(seq, cp.smoothness)
        values = equivalence_report(seq, cp, cfg["n_grid"], source)["values"]
        payload = {"values": {key: values[key] for key in ("n", "I", "J", "K")}, "source": name}
        return _write(_out_path(cfg, "seminorm.json"), _json_report(cfg, payload))

    if task == "equivalence":
        rep = equivalence_report(seq, cp, cfg["n_grid"])
        payload = {
            "values": rep["values"],
            "bands": {k: b.to_json() for k, b in rep["bands"].items()},
        }
        return _write(_out_path(cfg, "equivalence.json"), _json_report(cfg, payload))

    if task == "membership":
        phi = _phi_from_spec(cfg["phi"])
        rep = membership_test(seq, cp, phi, functional=cfg.get("functional", "K"),
                              n_grid=cfg.get("n_grid"))
        payload = {"phi": phi.to_json(), **asdict(rep)}
        return _write(_out_path(cfg, "membership.json"), _json_report(cfg, payload))

    raise ConfigError([f"unhandled task: {task!r}"])


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


#: the type of a key's flag; any other key's flag takes text
_FLAG_TYPES = {
    **dict.fromkeys(("k", "m", "n", "M", "horizon", "size", "seed"), int),
    **dict.fromkeys(("c", "beta", "gamma", "theta", "r", "lam", "p", "alpha"), float),
    "t_grid": _float_list,
    "n_grid": _int_list,
}
#: task -> the defaults of its flags, so that a flag-form document has these keys
_FLAG_DEFAULTS = {
    "gen": {"family": "power_law", "c": 1.0, "beta": 1.0, "gamma": 0.0, "horizon": HORIZON,
            "size": 64, "seed": 0},
    "seminorm": {"source": "core"},
    "membership": {"functional": "K"},
}
_FLAG_HELP = {"M": "p != 2 grid (default: from the horizon)",
              "phi": "power:A | constant:C | power_log:A,G"}
_TASK_HELP = {"gen": "emit a sequence JSON file", "modulus": "omega(t) sweep as CSV",
              "verify-lemma": "one inequality instance as CSV"}


def build_parser():
    """One subcommand per task of _TASKS and one flag per key, except gen's
    scale, the seed outside gen and modulus's series cut horizon: outside
    gen, _add_sequence_flags (--horizon the length) stand for sequence."""
    parser = argparse.ArgumentParser(
        prog="monosmooth",
        description="Moduli of smoothness, Hardy-type sums, and "
                    "coefficient-class seminorms for monotone cosine series.",
    )
    parser.add_argument("--version", action="version",
                        version=f"monosmooth {__version__}")
    parser.add_argument("--config", help="JSON config file (overrides flags)")
    sub = parser.add_subparsers(dest="task")
    for task, (required, optional, _) in _TASKS.items():
        s = sub.add_parser(task, help=_TASK_HELP.get(task))
        keys = required | optional
        if task == "gen":
            keys = keys - {"scale"} | {"seed"}
        else:
            _add_sequence_flags(s)
            keys = keys - {"sequence", "horizon"}
        defaults = _FLAG_DEFAULTS.get(task, {})
        for key in sorted(keys):
            s.add_argument("--" + key.replace("_", "-"), type=_FLAG_TYPES.get(key),
                           default=defaults.get(key), help=_FLAG_HELP.get(key),
                           required=key in required and key not in defaults)
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
        for line in _error_lines(err):
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 1
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
