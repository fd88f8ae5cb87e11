import argparse
import json
import math
import re
import shlex
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import mpmath
import numpy as np
import pytest

import monosmooth
from monosmooth import cli
from monosmooth.besov import ClassParams, CoreModulusSource, MembershipReport, equivalence_report
from monosmooth.cli import (
    _TASKS,
    ConfigError,
    _config_from_args,
    build_parser,
    main,
    parse_config,
    resolve_sequence,
    run_experiment,
)
from monosmooth.sequences import CoefficientSequence, make_power_law, validate_monotone


def test_parse_config_minimal_membership():
    doc = {
        "task": "membership",
        "sequence": {"family": "power_law", "beta": 1.25},
        "theta": 1, "r": 0.5, "lam": 0.5, "k": 2, "p": 2,
        "phi": "power:0.25",
    }
    assert parse_config(doc) == {**doc, "seed": 0}
    assert parse_config({**doc, "seed": 3})["seed"] == 3


def test_parse_config_unknown_task():
    with pytest.raises(ConfigError):
        parse_config({"task": "frobnicate"})


def test_parse_config_collects_all_violations():
    with pytest.raises(ConfigError) as err:
        parse_config({
            "task": "seminorm",
            "sequence": {"family": "power_law", "beta": 2},
            "theta": 1, "r": 0.5, "lamda": 0.5,  # typo: lamda
            "k": 2, "p": 1.0,                    # p outside (1, inf)
            "n_grid": [8, 4],                    # not ascending
        })
    msgs = err.value.violations
    assert any("lamda" in m for m in msgs)
    assert any(m.startswith("missing required key: 'lam'") for m in msgs)
    assert any(m.startswith("p:") for m in msgs)
    assert any(m.startswith("n_grid:") for m in msgs)
    assert len(msgs) >= 4


def test_parse_config_k_vs_r_lam():
    with pytest.raises(ConfigError) as err:
        parse_config({
            "task": "equivalence",
            "sequence": {"family": "power_law", "beta": 2},
            "theta": 1, "r": 0.7, "lam": 0.5, "k": 1, "p": 2,
            "n_grid": [4, 8],
        })
    assert any("exceed r + lam" in m for m in err.value.violations)


def test_parse_config_bad_seed_and_format():
    with pytest.raises(ConfigError) as err:
        parse_config({
            "task": "gen", "family": "random",
            "seed": "zero", "format": "yaml",
        })
    assert len(err.value.violations) == 2


def test_resolve_sequence_inline_and_family(tmp_path):
    seq = resolve_sequence({"family": "power_law", "beta": 2, "horizon": 8})
    assert seq.horizon == 8
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(seq.to_json()))
    assert resolve_sequence(str(path)) == seq
    inline = resolve_sequence({"head": [1.0, 0.5], "tail": {"variant": "zero"}})
    assert inline == CoefficientSequence((1.0, 0.5))


def test_gen_random_is_seeded_and_monotone(tmp_path):
    doc = {"task": "gen", "family": "random", "size": 32, "seed": 7,
           "out": str(tmp_path / "a.json")}
    run_experiment(parse_config(doc))
    doc["out"] = str(tmp_path / "b.json")
    run_experiment(parse_config(doc))
    a = (tmp_path / "a.json").read_bytes()
    b = (tmp_path / "b.json").read_bytes()
    assert a == b
    seq = CoefficientSequence.from_json(json.loads(a))
    assert len(seq.head) == 32 and validate_monotone(seq).ok


def test_modulus_csv_end_to_end(tmp_path):
    out = tmp_path / "mod.csv"
    rc = main(["modulus", "--power-law", "1", "2", "--horizon", "256",
               "--k", "1", "--p", "2", "--t-grid", "0.5,1.0",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")]
    assert header[0] == "t,omega_direct,E_core"
    assert len(header) == 3
    t0, om0, e0 = (float(x) for x in header[1].split(","))
    assert t0 == 0.5 and om0 > 0 and e0 > 0


def test_modulus_grid_sized_from_horizon(tmp_path):
    # no --M at p != 2: the grid is sized above twice the default horizon
    out = tmp_path / "mod.csv"
    rc = main(["modulus", "--power-law", "1", "2", "--k", "2", "--p", "1",
               "--t-grid", "0.125,0.25", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert "# k=2 p=1 M=16384 horizon=4096" in lines
    rows = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(rows) == 2 and all(float(r.split(",")[1]) > 0 for r in rows)


@pytest.mark.parametrize("p", ["1", "2", "3"])
def test_modulus_at_large_k(p, tmp_path):
    # 4^k leaves the float range at k >= 512: the Parseval sums are taken in
    # units of it, and E's near sum in powers of nu/n.  The p = 2 omega is
    # the max over omega's shifts of 2^k (pi sum a^2 sin(nu h/2)^2k)^(1/2),
    # summed in log space, and p = 1 and 3 keep Hoelder's side of it
    out = tmp_path / "mod.csv"
    rc = main(["modulus", "--power-law", "1", "2", "--k", "600", "--p", p,
               "--t-grid", "0.5", "--horizon", "64", "--out", str(out)])
    assert rc == 0
    row = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1]
    omega, e_core = (float(x) for x in row.split(",")[1:])
    nu = np.arange(1.0, 65)
    hs = 0.5 * 2.0 ** (-np.arange(97) / 16)
    logs = -4 * np.log(nu) + 1200 * np.log(np.abs(np.sin(np.multiply.outer(hs, nu) / 2)))
    top = logs.max(axis=1)
    lse = top + np.log(np.exp(logs - top[:, None]).sum(axis=1))
    omega2 = float(np.exp(600 * math.log(2) + 0.5 * (math.log(math.pi) + lse.max())))
    if p == "1":
        assert omega <= math.sqrt(2 * math.pi) * omega2 * (1 + 1e-9)
    elif p == "2":
        assert omega == pytest.approx(omega2, rel=1e-9)
    else:
        assert omega >= (2 * math.pi) ** (-1 / 6) * omega2 * (1 - 1e-9)
    # E(2) = 2^-600 (1 + 2^(599 p - 2))^(1/p) + (sum_{nu > 2} nu^(-p-2))^(1/p),
    # the near part 2^(-1 - 2/p) to within 2^(-599 p)
    q = int(p)
    far = float(mpmath.zeta(q + 2)) - 1 - 2.0 ** (-q - 2)
    assert e_core == pytest.approx(2.0 ** (-1 - 2 / q) + far ** (1 / q), rel=1e-9)


GOLDEN = Path(__file__).parent / "golden"


_MODULUS_COMMAND = "modulus --power-law 1 2 --k 2 --p {} --t-grid 0.001,0.015625,0.125,0.5,2"


@pytest.mark.parametrize("p", ["1", "3"])
def test_modulus_report_matches_golden(p, tmp_path):
    # the README sequence; the reports were written before modulus_direct
    # skipped shifts by their bounds, so skipping must not move a digit
    out = tmp_path / "mod.csv"
    rc = main(shlex.split(_MODULUS_COMMAND.format(p)) + ["--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / f"modulus_p{p}.csv").read_bytes()


_CLASS = "--power-law 1 2 --theta 1 --r 0.5 --lam 0.5"
_GOLDEN_COMMANDS = {
    # the four README commands
    "readme_equivalence.json": f"equivalence {_CLASS} --k 2 --p 2 --n-grid 4,8,16,32,64",
    "readme_membership.json": "membership --power-law 1 1.25 --theta 1 --r 0.5 --lam 0.5 "
                              "--k 2 --p 2 --phi power:0.25",
    "readme_verify_lemma.csv": "verify-lemma --power-law 1 1 --lemma lp_complete_tail "
                               "--alpha 1 --lam 0 --p 1 --m 1 --n 256",
    "readme_modulus.csv": "modulus --power-law 1 2 --k 2 --p 2 --t-grid 0.125,0.25,0.5",
    # far sums of E and K that start past the head of 64
    "seminorm_core_far.json": f"seminorm --source core {_CLASS} --k 2 --p 2 --horizon 64 "
                              "--n-grid 4,100,1000,10000",
    # K's far sums start at the head's end + 1 (n = 4096) and past it
    "membership_k_past_head.json": "membership --power-law 0.7 2.2 --theta 1 --r 0.5 "
                                   "--lam 0.5 --k 3 --p 3 --phi power_log:0.25,1 "
                                   "--n-grid 2,16,4096,5000,100000",
    # sums of E that leave the normal float range and are shifted
    "equivalence_k600.json": f"equivalence {_CLASS} --k 600 --p 2 --n-grid 4,8",
    "seminorm_core_p500.json": f"seminorm --source core {_CLASS} --k 2 --p 500 --n-grid 4,8",
}


@pytest.mark.parametrize("name", list(_GOLDEN_COMMANDS))
def test_report_matches_golden(name, tmp_path):
    # reports written before K's and E's power sums shared one kernel, so
    # that sharing it moves no digit
    out = tmp_path / name
    assert main(shlex.split(_GOLDEN_COMMANDS[name]) + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


# one sequence object per sequence spec for the whole process, so that a
# second pass of this file in it (CI's "warm table store" step) starts warm
_SEQUENCES = {}


def test_golden_reports_on_a_warm_store(tmp_path, monkeypatch):
    # every golden report, twice in a row and then once more in reverse
    # order, from one sequence object per spec: its tables, closure nodes
    # and monotonicity scan, kept by the first run, change no byte
    def shared(spec, seed=0):
        key = json.dumps(spec, sort_keys=True), seed
        if key not in _SEQUENCES:
            _SEQUENCES[key] = resolve_sequence(spec, seed)
        return _SEQUENCES[key]

    monkeypatch.setattr(cli, "resolve_sequence", shared)
    commands = {**_GOLDEN_COMMANDS,
                **{f"modulus_p{p}.csv": _MODULUS_COMMAND.format(p) for p in ("1", "3")}}
    assert len(commands) == len(list(GOLDEN.iterdir()))
    for name in [*commands, *commands, *reversed(commands)]:
        out = tmp_path / name
        assert main(shlex.split(commands[name]) + ["--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes(), name
    kept = {key[0] for seq in _SEQUENCES.values() for key in seq._store}
    assert kept == {"core", "closure", "direct", "monotone"}


def test_seminorm_direct_p3(tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"head": [1.0, 0.5, 0.25, 0.125, 0.0625],
                               "tail": {"variant": "zero"}}))
    out = tmp_path / "semi.json"
    t0 = time.perf_counter()
    rc = main(["seminorm", "--seq", str(seq), "--theta", "1", "--r", "0.5",
               "--lam", "0.5", "--k", "2", "--p", "3", "--n-grid", "2,4,8",
               "--source", "direct", "--out", str(out)])
    assert rc == 0 and time.perf_counter() - t0 < 2.0
    values = json.loads(out.read_text())["values"]
    assert all(v > 0 for v in values["I"] + values["J"] + values["K"])


def test_verify_lemma_csv(tmp_path):
    out = tmp_path / "lemma.csv"
    rc = main(["verify-lemma", "--power-law", "1", "1", "--horizon", "64",
               "--lemma", "lp_complete_tail", "--alpha", "1", "--lam", "0",
               "--p", "1", "--m", "1", "--n", "32", "--out", str(out)])
    assert rc == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    fields = rows[1].split(",")
    assert fields[0] == "lp_complete_tail"
    assert float(fields[-1]) > 0


def test_zero_rhs_row_leaves_the_ratio_empty(tmp_path):
    seq = tmp_path / "zero.json"
    seq.write_text(json.dumps({"head": [0.0] * 8, "tail": {"variant": "zero"}}))
    out = tmp_path / "lemma.csv"
    assert main(["verify-lemma", "--seq", str(seq), "--lemma", "lp_upper", "--alpha", "1",
                 "--lam", "0", "--p", "1", "--m", "1", "--n", "8", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1] == "lp_upper,1,0,1,1,8,0,0,"


def test_membership_json_verdict(tmp_path):
    out = tmp_path / "mem.json"
    rc = main(["membership", "--power-law", "1", "1.25", "--horizon", "512",
               "--theta", "1", "--r", "0.5", "--lam", "0.5", "--k", "2",
               "--p", "2", "--phi", "constant:1", "--functional", "K",
               "--n-grid", "2,4,8,16,32,64", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] in ("bounded", "unbounded", "divergent")
    assert set(doc) == ({f.name for f in fields(MembershipReport)}
                        | {"phi", "tool", "norm", "config"})
    assert doc["tool"]["name"] == "monosmooth"
    assert doc["config"]["task"] == "membership"
    assert "norm" in doc


def test_config_file_reruns_byte_identical(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": "seminorm",
        "sequence": {"family": "power_law", "beta": 2, "horizon": 256},
        "theta": 1, "r": 0.5, "lam": 0.5, "k": 2, "p": 2,
        "n_grid": [4, 8, 16],
        "out": str(tmp_path / "run1.json"),
    }))
    assert main(["--config", str(cfg_path)]) == 0
    doc = json.loads(cfg_path.read_text())
    doc["out"] = str(tmp_path / "run2.json")
    cfg_path.write_text(json.dumps(doc))
    assert main(["--config", str(cfg_path)]) == 0
    assert (tmp_path / "run1.json").read_bytes() \
        == (tmp_path / "run2.json").read_bytes()


def test_exit_code_on_config_error(capsys):
    rc = main(["verify-lemma", "--power-law", "1", "1",
               "--lemma", "lp_upper", "--alpha", "1", "--lam", "0",
               "--p", "1", "--m", "5", "--n", "3"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # lp_converse_upper needs n >= 16m
    ["verify-lemma", "--power-law", "1", "1", "--lemma", "lp_converse_upper",
     "--alpha", "1", "--lam", "0", "--p", "2", "--m", "1", "--n", "8"],
    # p != 2 needs M > 2 * horizon = 8192
    ["modulus", "--power-law", "1", "2", "--k", "2", "--p", "1", "--M", "8192",
     "--t-grid", "0.125,0.25"],
    # a power phi needs alpha < lam
    ["membership", "--power-law", "1", "1.25", "--theta", "1", "--r", "0.5",
     "--lam", "0.5", "--k", "2", "--p", "2", "--phi", "power:0.75"],
    # a phi missing a parameter is an error, not a silent alpha or gamma = 0
    ["membership", "--power-law", "1", "1.25", "--theta", "1", "--r", "0.5",
     "--lam", "0.5", "--k", "2", "--p", "2", "--phi", "power:"],
    ["membership", "--power-law", "1", "1.25", "--theta", "1", "--r", "0.5",
     "--lam", "0.5", "--k", "2", "--p", "2", "--phi", "power_log:0.25"],
    # a bad flag value gets the line the same value gets in a config file
    ["verify-lemma", "--power-law", "1", "1", "--lemma", "nope", "--alpha", "1",
     "--lam", "0", "--p", "1", "--m", "1", "--n", "32"],
    ["membership", "--power-law", "1", "1.25", "--theta", "1", "--r", "0.5",
     "--lam", "0.5", "--k", "2", "--p", "2", "--phi", "power:0.25", "--functional", "X"],
    ["seminorm", "--power-law", "1", "2", "--theta", "1", "--r", "0.5", "--lam", "0.5",
     "--k", "2", "--p", "2", "--n-grid", "2,4", "--source", "dirct"],
    ["gen", "--family", "nope"],
], ids=["lemma-side-condition", "modulus-coarse-M", "membership-alpha-ge-lam",
        "phi-power-no-alpha", "phi-power-log-no-gamma", "flag-lemma", "flag-functional",
        "flag-source", "flag-family"])
def test_domain_error_is_one_line_exit_2(argv, tmp_path, capsys):
    rc = main(argv + ["--out", str(tmp_path / "report")])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "report").exists()


_LEMMA_FLAGS = ["verify-lemma", "--power-law", "1", "1", "--lemma", "lp_upper", "--m", "1",
                "--n", "16"]


@pytest.mark.parametrize("argv, line", [
    (["modulus", "--power-law", "1", "2", "--k", "2", "--p", "inf",
      "--t-grid", "0.125,0.5"], "p: must lie in (0, inf)"),
    (_LEMMA_FLAGS + ["--alpha", "1", "--lam", "nan", "--p", "1"], "lam: must be finite"),
    (_LEMMA_FLAGS + ["--alpha", "inf", "--lam", "0", "--p", "1"], "alpha: must be finite"),
    (_LEMMA_FLAGS + ["--alpha", "1", "--lam", "0", "--p", "inf"], "p: must be finite"),
], ids=["modulus-p-inf", "lemma-lam-nan", "lemma-alpha-inf", "lemma-p-inf"])
def test_non_finite_value_is_one_line_exit_2(argv, line, tmp_path, capsys):
    # inf passes "positive" and NaN passes "real number", so finiteness is
    # a rule of its own
    rc = main(argv + ["--out", str(tmp_path / "report")])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {line}\n"
    assert not (tmp_path / "report").exists()


_README = Path(__file__).resolve().parents[1] / "README.md"
_README_COMMANDS = re.findall(r"^monosmooth (.*?(?:\\\n.*?)*)$",
                              _README.read_text(), flags=re.M)


@pytest.mark.parametrize("command", _README_COMMANDS,
                         ids=[c.split()[0] for c in _README_COMMANDS])
def test_readme_commands_run_as_written(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(command.replace("\\\n", " "))
    assert main(argv) == 0
    out = argv[argv.index("--out") + 1]
    assert capsys.readouterr().out == f"{out}\n" and (tmp_path / out).stat().st_size > 0


def test_readme_has_four_commands():
    assert len(_README_COMMANDS) == 4


@pytest.mark.parametrize("p", ["3", "1.5"])
def test_readme_equivalence_at_p_has_finite_bands(p, tmp_path, monkeypatch):
    # the README equivalence on the direct source's p != 2 grid sums; a
    # RuntimeWarning fails the test
    monkeypatch.chdir(tmp_path)
    command = next(c for c in _README_COMMANDS if c.startswith("equivalence"))
    argv = shlex.split(command.replace("\\\n", " "))
    argv[argv.index("--p") + 1] = p
    assert main(argv) == 0
    bands = json.loads((tmp_path / argv[argv.index("--out") + 1]).read_text())["bands"]
    ends = [band[end] for band in bands.values() for end in ("min", "max")]
    assert all(isinstance(v, float) and math.isfinite(v) for v in ends)


@pytest.mark.parametrize("functional", ["J", "I"])
def test_power_log_membership_on_the_critical_line_is_finite(functional, tmp_path):
    # beta = r + alpha + 1 - 1/p with a log factor, through a config file
    out, cfg = tmp_path / "membership.json", tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "task": "membership",
        "sequence": {"family": "power_log", "c": 1.3, "beta": 1.25, "gamma": 0.5},
        "theta": 1, "r": 0.5, "lam": 0.5, "k": 2, "p": 2, "phi": "power:0.25",
        "functional": functional, "out": str(out)}))
    assert main(["--config", str(cfg)]) == 0
    rep = json.loads(out.read_text())
    values = rep["values"] + rep["ratios"]
    assert values and all(isinstance(v, float) and math.isfinite(v) for v in values)


_SEMINORM = {"task": "seminorm", "sequence": {"family": "power_law", "beta": 2},
             "theta": 1, "r": 0.5, "lam": 0.5, "k": 2, "p": 2, "n_grid": [2, 4]}
_MEMBERSHIP = {**_SEMINORM, "task": "membership", "phi": "power:0.25"}
_LEMMA = {"task": "verify-lemma", "lemma": "lp_upper",
          "sequence": {"family": "power_law", "beta": 1, "horizon": 64},
          "alpha": 1, "lam": 0, "p": 1, "m": 1, "n": 32}
_MODULUS = {"task": "modulus", "sequence": {"family": "power_law", "beta": 2},
            "k": 2, "p": 2, "t_grid": [0.25]}


@pytest.mark.parametrize("doc, line", [
    ([1, 2], "config: must be a JSON object"),
    ({**_MEMBERSHIP, "phi": {"variant": "power"}}, "power phi needs alpha"),
    ({**_MEMBERSHIP, "phi": {"variant": "power_log", "alpha": 0.25}},
     "power-log phi needs gamma"),
    ({**_MEMBERSHIP, "phi": "bogus"}, "unknown phi variant: 'bogus'"),
    ({**_MEMBERSHIP, "phi": {"variant": ["power"]}}, "unknown phi variant: ['power']"),
    ({**_SEMINORM, "sequence": {"family": "power_law"}}, "sequence: missing key 'beta'"),
    ({"task": "gen", "family": "power_log", "beta": 2}, "sequence: missing key 'gamma'"),
    ({**_SEMINORM, "sequence": 3}, "sequence: must be an object or a file path"),
    ({**_LEMMA, "m": 1.5}, "m, n: must be integers"),
    ({**_LEMMA, "lemma": "nope"}, "lemma: unknown id 'nope'"),
    ({**_SEMINORM, "source": "dirct"}, "source: must be 'core' or 'direct'"),
    ({**_MEMBERSHIP, "functional": "X"}, "functional: must be one of I, J, K"),
    ({"task": "gen", "family": "random", "format": "csv"}, "unknown key: 'format'"),
    ({"task": "gen", "family": "power_law", "beta": "x"},
     "beta: must be a finite real number > 0"),
    ({"task": "gen", "family": "power_law", "beta": 1, "c": "x"},
     "c: must be a finite real number >= 0"),
    ({"task": "gen", "family": "power_log", "beta": 2, "gamma": "x"},
     "gamma: must be a finite real number >= -beta"),
    ({"task": "gen", "family": "power_law", "beta": 1, "horizon": "x"},
     "horizon: must be a positive integer"),
    ({"task": "gen", "family": "random", "size": "x"}, "size: must be a positive integer"),
    ({"task": "gen", "family": "random", "scale": "x"}, "scale: must be a finite real number >= 0"),
    ({**_LEMMA, "lam": "x"}, "lam: must be a real number"),
    ({**_MODULUS, "M": "x"}, "M: must be a power of two"),
    ({**_MODULUS, "horizon": "x"}, "horizon: must be a positive integer"),
    ({**_SEMINORM, "sequence": {"family": "power_law", "beta": "x"}},
     "sequence: beta: must be a finite real number > 0"),
    ({**_SEMINORM, "sequence": {"head": [1, 0.5], "tail": "x"}},
     "sequence: tail: must be an object"),
    ({**_SEMINORM, "sequence": {"head": [1, 0.5],
                                "tail": {"variant": "power_law", "c": "x", "beta": 2}}},
     "sequence: tail: c: must be a finite real number >= 0"),
    ({**_SEMINORM, "sequence": {"head": 3, "tail": {"variant": "zero"}}},
     "sequence: head: must be a non-empty list of finite real numbers >= 0"),
    ({**_MODULUS, "H": 16}, "unknown key: 'H'"),
    ({**_SEMINORM, "H": 16}, "unknown key: 'H'"),
    ({**_SEMINORM, "task": "equivalence", "H": 16}, "unknown key: 'H'"),
    # NaN and inf, which json writes as NaN and Infinity: gen wrote NaN tokens
    # (not JSON), membership NaN values beside a verdict, and modulus warned
    # (0/0 in the Parseval kernel) before its error line
    ({"task": "gen", "family": "power_log", "beta": 2, "gamma": math.nan},
     "gamma: must be a finite real number >= -beta"),
    ({"task": "gen", "family": "power_law", "beta": math.inf},
     "beta: must be a finite real number > 0"),
    ({"task": "gen", "family": "power_law", "beta": 2, "c": -math.inf},
     "c: must be a finite real number >= 0"),
    ({"task": "gen", "family": "random", "scale": math.nan},
     "scale: must be a finite real number >= 0"),
    # a negative scale made numpy's own "high - low < 0"
    ({"task": "gen", "family": "random", "scale": -1}, "scale: must be a finite real number >= 0"),
    ({**_SEMINORM, "sequence": {"head": [1, 0.5],
                                "tail": {"variant": "power_law", "c": 1, "beta": math.nan}}},
     "sequence: tail: beta: must be a finite real number > 0"),
    ({**_MODULUS, "sequence": {"family": "power_law", "c": math.inf, "beta": 2}},
     "sequence: c: must be a finite real number >= 0"),
    ({**_MEMBERSHIP, "phi": "power:nan"}, "power phi needs finite alpha"),
    ({**_MEMBERSHIP, "phi": "power_log:0.25,nan"}, "power-log phi needs finite alpha and gamma"),
    ({**_MEMBERSHIP, "phi": {"variant": "constant", "c": math.inf}}, "constant phi needs finite c"),
    ({**_SEMINORM, "sequence": {"head": [1, math.nan], "tail": {"variant": "zero"}}},
     "sequence: head: must be a non-empty list of finite real numbers >= 0"),
    ({**_SEMINORM, "sequence": {"head": [], "tail": {"variant": "zero"}}},
     "sequence: head: must be a non-empty list of finite real numbers >= 0"),
    ({**_SEMINORM, "sequence": {"head": [1, [0.5]], "tail": {"variant": "zero"}}},
     "sequence: head: must be a non-empty list of finite real numbers >= 0"),
    ({**_SEMINORM, "sequence": {"head": [1, 0.5],
                                "tail": {"variant": "power_law", "c": -1, "beta": 2}}},
     "sequence: tail: c: must be a finite real number >= 0"),
    ({**_SEMINORM, "sequence": {"family": "power_log", "beta": 1, "gamma": -2}},
     "sequence: gamma: must be a finite real number >= -beta"),
    ({"task": "gen", "family": "power_law", "beta": 0}, "beta: must be a finite real number > 0"),
    # gamma is checked wherever it is given, also beside a power law that does not read it
    ({"task": "gen", "family": "power_law", "beta": 2, "gamma": -5},
     "gamma: must be a finite real number >= -beta"),
    # one line per bad value: a beta that breaks its own row is not held against gamma
    ({"task": "gen", "family": "power_log", "beta": math.nan, "gamma": 1},
     "beta: must be a finite real number > 0"),
    ({**_MEMBERSHIP, "phi": "power:-0.5"}, "power phi needs alpha > 0"),
    ({**_MEMBERSHIP, "phi": "constant:0"}, "constant phi needs c > 0"),
], ids=["not-an-object", "phi-power-no-alpha", "phi-power-log-no-gamma", "phi-unknown",
        "phi-variant-not-a-string", "family-no-beta", "gen-power-log-no-gamma",
        "sequence-not-object-or-path",
        "lemma-m-not-integer", "lemma-unknown-id", "unknown-source",
        "unknown-functional", "format-key", "gen-beta", "gen-c", "gen-gamma",
        "gen-horizon", "gen-size", "gen-scale", "lemma-lam", "modulus-M",
        "modulus-horizon", "sequence-beta", "sequence-tail-not-object",
        "sequence-tail-c", "sequence-head-not-list", "modulus-H", "seminorm-H",
        "equivalence-H", "gen-gamma-nan", "gen-beta-inf", "gen-c-minus-inf", "gen-scale-nan",
        "gen-scale-negative",
        "tail-beta-nan", "modulus-c-inf", "phi-power-nan", "phi-power-log-gamma-nan",
        "phi-constant-inf", "sequence-head-nan", "sequence-head-empty", "sequence-head-ragged",
        "tail-c-negative", "family-beta-plus-gamma", "gen-beta-zero", "gen-power-law-gamma",
        "gen-beta-nan-only",
        "phi-power-negative", "phi-constant-zero"])
def test_config_error_is_one_line_exit_2(doc, line, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MONOSMOOTH_OUT_DIR", str(tmp_path))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    rc = main(["--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"config error: {line}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def _subparsers():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_flags_match_the_task_table():
    # keys with no flag: gen's scale, modulus's series cut horizon, and the
    # seed of a random sequence outside gen
    config_only = {"scale", "horizon", "seed"}
    assert set(_subparsers()) == set(_TASKS)
    for task, sub in _subparsers().items():
        required, optional, _ = _TASKS[task]
        actions = [a for a in sub._actions if a.dest != "help"]
        dests = {a.dest for a in actions}
        if task != "gen":
            # --seq, --power-law and --horizon stand for the one key "sequence"
            assert {"seq", "power_law", "horizon"} <= dests
            dests = dests - {"seq", "power_law", "horizon"} | {"sequence"}
        assert dests | config_only == required | optional | {"out"} | config_only, task
        # a required flag is a required key, and a required key always lands
        # in the flag form's document
        always = {a.dest for a in actions if a.required or a.default is not None}
        assert {a.dest for a in actions if a.required} <= required, task
        assert required <= always | {"sequence"}, task


def test_flags_become_a_config_document():
    args = build_parser().parse_args(
        ["membership", "--power-law", "1", "1.25", "--theta", "1", "--r", "0.5",
         "--lam", "0.5", "--k", "2", "--p", "2", "--phi", "power:0.25"])
    assert _config_from_args(args) == {
        "task": "membership",
        "sequence": {"family": "power_law", "c": 1.0, "beta": 1.25, "horizon": 4096},
        "theta": 1.0, "r": 0.5, "lam": 0.5, "k": 2, "p": 2.0, "phi": "power:0.25",
        "functional": "K"}
    args = build_parser().parse_args(["gen", "--family", "random", "--size", "8"])
    assert _config_from_args(args) == {
        "task": "gen", "family": "random", "c": 1.0, "beta": 1.0, "gamma": 0.0,
        "horizon": 4096, "size": 8, "seed": 0}


def test_whole_float_k_runs_like_integer_k(tmp_path):
    # JSON may write k = 2 as 2.0; the direct source then indexes with 2
    doc = {"task": "seminorm",
           "sequence": {"head": [1.0, 0.5, 0.25, 0.125], "tail": {"variant": "zero"}},
           "theta": 1, "r": 0.5, "lam": 0.5, "p": 2, "n_grid": [2, 4],
           "source": "direct"}
    values = []
    for k in (2, 2.0):
        cfg, out = tmp_path / "cfg.json", tmp_path / f"{k}.json"
        cfg.write_text(json.dumps({**doc, "k": k, "out": str(out)}))
        assert main(["--config", str(cfg)]) == 0
        values.append(json.loads(out.read_text())["values"])
    assert values[0] == values[1]


_CLASS = ["--power-law", "1", "2", "--theta", "1", "--r", "0.5", "--lam", "0.5"]


def test_seminorm_equals_equivalence_report_at_8191(tmp_path):
    # seminorm writes equivalence_report's I, J and K: J(8191) comes from the
    # table that I(1/8192) needs, its far sum starting at nu = 8193
    out = tmp_path / "semi.json"
    assert main(["seminorm", *_CLASS, "--k", "2", "--p", "2", "--n-grid", "16,8191",
                 "--source", "core", "--out", str(out)]) == 0
    seq = make_power_law(1, 2, 4096)
    cp = ClassParams(theta=1, r=0.5, lam=0.5, k=2, p=2)
    want = equivalence_report(seq, cp, [16, 8191], CoreModulusSource(seq, cp.smoothness))
    got = json.loads(out.read_text())["values"]
    assert got == {key: want["values"][key] for key in ("n", "I", "J", "K")}
    assert got["J"][-1] == 0.0407014730839873


@pytest.mark.parametrize("argv", [
    ["seminorm", *_CLASS, "--k", "40", "--p", "3", "--n-grid", "4,8", "--source", "core"],
    ["seminorm", *_CLASS, "--k", "40", "--p", "3", "--n-grid", "4,8", "--source", "direct"],
    ["membership", *_CLASS, "--k", "40", "--p", "3", "--phi", "power:0.25", "--functional", "J"],
    ["equivalence", *_CLASS, "--k", "600", "--p", "2", "--n-grid", "4,8"],
], ids=["seminorm-core", "seminorm-direct", "membership-J", "equivalence-k600"])
def test_large_k_core_table_gives_a_report(argv, tmp_path):
    # the near sum a_nu^p nu^((k+1)p - 2) leaves the float range in the core
    # table, which the direct source's closure builds too: that table is
    # bound_core's, where it was refused with "k: a sum of a_nu^P
    # nu^((k+1)p - 2) in the core table leaves the float range at k = K"; a
    # RuntimeWarning fails the test
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert all(math.isfinite(x) and x > 0 for x in _report_values(out))


def _report_values(out):
    """Every I, J and K of a seminorm or equivalence report, or a membership
    report's values."""
    values = json.loads(out.read_text())["values"]
    if isinstance(values, list):
        return values
    return [x for key in ("I", "J", "K") for x in values[key]]


def test_core_table_near_the_float_range_gives_a_report(tmp_path):
    # nu^78 at the end of the 2^13 core table is 2^1014, which was refused
    # in advance (at 2^1000) with "k: nu^((k+1)p - 2) = nu^78 ..."
    out = tmp_path / "out.json"
    argv = ["seminorm", *_CLASS, "--k", "39", "--p", "2", "--n-grid", "4,8", "--source", "core"]
    assert main([*argv, "--out", str(out)]) == 0
    assert all(math.isfinite(x) and x > 0 for x in _report_values(out))


@pytest.mark.parametrize("p", ["27", "40", "80", "500"])
def test_core_table_at_large_p_gives_a_report(p, tmp_path):
    # each term a_nu^p nu^((k+1)p - 2) is formed in log space; nu^79 alone,
    # at p = 27, passed 2^1024 and refused every p >= 27 at k = 2.  At p =
    # 500 the near sum of nu^498 passes 2^1024 at nu = 5, and the table is
    # bound_core's (it was refused with "k: a sum of a_nu^500 nu^((k+1)p -
    # 2) in the core table leaves the float range at k = 2"), as it is at p =
    # 80, whose far sums are subnormal from n = 6741 on
    out = tmp_path / "out.json"
    argv = ["seminorm", *_CLASS, "--k", "2", "--p", p, "--n-grid", "4,8", "--source", "core"]
    assert main([*argv, "--out", str(out)]) == 0
    assert all(math.isfinite(x) and x > 0 for x in _report_values(out))


def test_modulus_at_p_8e307_gives_the_limits_of_e(tmp_path, capsys):
    # each log-term is p (ln a_nu + (e/p) ln nu), so neither product of
    # p ln a_nu + (p - 2) ln nu leaves the float range alone: E(8) and E(4)
    # are their limits as p grows, 1/8 + 1/9 and 1/4 + 1/5 (E_core was 0
    # and 0.1875); a RuntimeWarning fails the test.  A grid that reaches a
    # log-term of +inf (nu >= 10) is refused
    out = tmp_path / "mod.csv"
    argv = ["modulus", "--power-law", "1", "2", "--k", "2", "--p", "8e307", "--out", str(out)]
    assert main([*argv, "--t-grid", "0.125,0.25"]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[-2:]]
    assert [row[2] for row in rows] == ["0.236111111111", "0.45"]
    capsys.readouterr()
    assert main([*argv, "--t-grid", "0.1,0.25"]) == 2
    assert capsys.readouterr().err == ("config error: p: E(n) (a sum to the power 1/p = "
                                       "1.25e-308) leaves the float range\n")


@pytest.mark.parametrize("argv", [
    ["modulus", "--k", "600", "--p", "2", "--t-grid", "0.125"],
    ["seminorm", *_CLASS[3:], "--k", "600", "--p", "2", "--n-grid", "4,8", "--source", "core"],
    ["seminorm", *_CLASS[3:], "--k", "600", "--p", "2", "--n-grid", "4,8", "--source", "direct"],
], ids=["modulus", "seminorm-core", "seminorm-direct"])
def test_all_zero_head_at_large_k_gives_zeros(argv, tmp_path):
    # every coefficient 0 at k = 600: the Parseval sums were once divided by
    # the largest coefficient, 0 (a RuntimeWarning, then "an L^2 norm ...
    # leaves the float range"), and the core table's near sum took inf * 0
    seq = tmp_path / "zero.json"
    seq.write_text(json.dumps({"head": [0, 0], "tail": {"variant": "zero"}}))
    out = tmp_path / "out"
    assert main([*argv, "--seq", str(seq), "--out", str(out)]) == 0
    if argv[0] == "modulus":
        assert out.read_text().splitlines()[-2:] == ["t,omega_direct,E_core", "0.125,0,0"]
    else:
        values = json.loads(out.read_text())["values"]
        assert values == {"n": [4, 8], "I": [0.0, 0.0], "J": [0.0, 0.0], "K": [0.0, 0.0]}


_NEGATIVE_HEAD = {"head": [0.5, -0.25, -1.0], "tail": {"variant": "zero"}}
_LEMMA_ARGS = ["--alpha", "1", "--lam", "0", "--m", "1", "--n", "3"]


@pytest.mark.parametrize("argv", [
    ["seminorm", "--theta", "1", "--r", "0.5", "--lam", "0.5", "--k", "2", "--p", "2",
     "--n-grid", "4,8"],
    ["seminorm", "--theta", "1", "--r", "0.5", "--lam", "0.5", "--k", "2", "--p", "3",
     "--n-grid", "4,8"],
    ["equivalence", "--theta", "1", "--r", "0.5", "--lam", "0.5", "--k", "2", "--p", "3",
     "--n-grid", "4,8"],
    ["membership", "--theta", "1", "--r", "0.5", "--lam", "0.5", "--k", "2", "--p", "2",
     "--phi", "power:0.25", "--functional", "K"],
    ["modulus", "--k", "2", "--p", "3", "--t-grid", "0.125"],
    ["verify-lemma", "--lemma", "lp_upper", "--p", "1", *_LEMMA_ARGS],
    ["verify-lemma", "--lemma", "jensen", "--p", "2", *_LEMMA_ARGS],
], ids=["seminorm-p2", "seminorm-p3", "equivalence-p3", "membership-K", "modulus-p3",
        "lp-upper-p1", "jensen-p2"])
def test_negative_head_is_one_config_error(argv, tmp_path, capsys):
    # a monotone sequence tending to 0 is nonnegative.  Each command once
    # failed its own way: RuntimeWarnings, then a report (seminorm,
    # equivalence and modulus at p = 3); "a sum of a_nu^1 nu^... leaves the
    # float range" (seminorm at p = 2, membership K); or exit 0 with
    # lhs = rhs = -3 (lp_upper) or rhs = -0.75 (jensen)
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(_NEGATIVE_HEAD))
    out = tmp_path / "out"
    assert main([*argv, "--seq", str(seq), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: sequence: head: must be a non-empty list "
                                       "of finite real numbers >= 0\n")
    assert not out.exists()


def test_every_violation_of_sequence_and_phi_is_listed(tmp_path, capsys):
    # the inline sequence and phi are checked with the rest of the config;
    # only "theta: must be positive" was printed
    doc = {**_MEMBERSHIP, "theta": -1, "sequence": {"family": "power_law", "beta": -1},
           "phi": "power:-1"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: theta: must be positive",
        "config error: sequence: beta: must be a finite real number > 0",
        "config error: power phi needs alpha > 0"]


@pytest.mark.parametrize("argv, line", [
    (["equivalence", "--power-law", "1", "2", "--theta", "1e300", "--r", "0.5", "--lam", "0.5",
      "--k", "2", "--p", "2", "--n-grid", "4,8"],
     "theta: nu^1e+300, a weight of I or J, leaves the float range at nu = 4"),
    (["modulus", "--power-law", "1", "2", "--k", "2", "--p", "1e-300", "--t-grid", "0.125",
      "--horizon", "64"],
     "p: an L^p norm (a sum to the power 1/p = 1e+300) leaves the float range"),
    (["membership", "--power-law", "1", "2", "--theta", "1e300", "--r", "0.5", "--lam", "0.5",
      "--k", "2", "--p", "2", "--functional", "K", "--phi", "power:0.25"],
     "theta: K(n)^theta, a sum, or K(n) leaves the float range at n = 2"),
    (["modulus", "--power-law", "1e308", "0.5", "--k", "2", "--p", "2", "--t-grid", "0.125",
      "--horizon", "64"],
     "an L^2 norm of Delta_h^k f leaves the float range"),
    (["verify-lemma", "--power-law", "1", "1.5", "--lemma", "lp_upper", "--alpha", "1",
      "--lam", "1e300", "--p", "2", "--m", "1", "--n", "64"],
     "lp_upper: lhs or rhs leaves the float range at n = 64"),
    (["verify-lemma", "--power-law", "1", "1.5", "--lemma", "lp_upper", "--alpha", "1",
      "--lam", "100", "--p", "2", "--m", "1", "--n", "64"],
     "lp_upper: lhs or rhs leaves the float range at n = 64"),
    (["membership", "--power-law", "1", "1.25", "--theta", "1e-8", "--r", "0.5", "--lam", "0.5",
      "--k", "2", "--p", "2", "--functional", "J", "--phi", "power:0.25"],
     "theta: J(n) (a sum to the power 1/theta = 1e+08) leaves the float range at n = 2"),
    (["membership", "--power-law", "1", "1.25", "--theta", "1e-8", "--r", "0.5", "--lam", "0.5",
      "--k", "2", "--p", "2", "--functional", "I", "--phi", "power:0.25"],
     "theta: I(delta) (a sum to the power 1/theta = 1e+08) leaves the float range at "
     "delta = 0.333333"),
    (["seminorm", "--power-law", "1", "2", "--theta", "5e-324", "--r", "0.5", "--lam", "0.5",
      "--k", "2", "--p", "2", "--n-grid", "4,8"],
     "theta: 1/theta and r theta must be finite and nonzero, got theta = 5e-324, r = 0.5"),
    (["seminorm", "--power-law", "1", "2", "--theta", "0.5", "--r", "5e-324", "--lam", "0.5",
      "--k", "2", "--p", "2", "--n-grid", "4,8"],
     "theta: 1/theta and r theta must be finite and nonzero, got theta = 0.5, r = 5e-324"),
    (["seminorm", "--power-law", "1", "2", "--theta", "inf", "--r", "0.5", "--lam", "0.5",
      "--k", "2", "--p", "2", "--n-grid", "4,8"],
     "theta: 1/theta and r theta must be finite and nonzero, got theta = inf, r = 0.5"),
    # modulus at p <= 1e-3 with c = 1e300 or k >= 100, and a direct equivalence
    # at c = 1e300, theta = 1e8, overflowed in the norm bounds, the grid sums
    # or pocketfft
    (["modulus", "--power-law", "1e300", "2", "--k", "100", "--p", "0.001", "--t-grid", "0.125"],
     "p: an L^p norm (a sum to the power 1/p = 1000) leaves the float range"),
    (["modulus", "--power-law", "1", "2", "--k", "1000", "--p", "0.001", "--t-grid", "0.125"],
     "p: an L^p norm (a sum to the power 1/p = 1000) leaves the float range"),
    (["equivalence", "--power-law", "1e300", "2", "--theta", "1e8", "--r", "0.5", "--lam", "0.5",
      "--k", "2", "--p", "3", "--n-grid", "4,8"],
     "theta: nu^1e+08, a weight of I or J, leaves the float range at nu = 4"),
    # p ln a_nu and (p - 2) ln nu pass the float range with opposite signs, a
    # NaN term of bound_core, which the core table defers to (it refused
    # with "k: a sum of a_nu^8e+307 nu^((k+1)p - 2) in the core table leaves
    # the float range at k = 2")
    (["seminorm", *_CLASS, "--k", "2", "--p", "8e307", "--n-grid", "4,8", "--source", "core"],
     "p: E(n) (a sum to the power 1/p = 1.25e-308) leaves the float range"),
], ids=["equivalence-theta-1e300", "modulus-p-1e-300", "membership-K-theta-1e300",
        "modulus-c-1e308", "verify-lemma-lam-1e300", "verify-lemma-lam-100",
        "membership-J-theta-1e-8", "membership-I-theta-1e-8", "seminorm-theta-5e-324",
        "seminorm-r-5e-324", "seminorm-theta-inf", "modulus-p-1e-3-c-1e300",
        "modulus-p-1e-3-k-1000", "equivalence-c-1e300-theta-1e8", "seminorm-core-p-8e307"])
def test_overflowing_power_is_one_config_error(argv, line, tmp_path, capsys):
    # the first two ended in an OverflowError traceback from a float power
    # (the cell weight of I, and E's sum to the power 1/p); K(n)^theta =
    # n^(-lam theta) sum ... underflows to 0 at theta = 1e300 (it was NaN, with
    # RuntimeWarnings and verdict "bounded"), omega(1/8) of
    # a_nu = 1e308 nu^-1/2 overflows (a RuntimeWarning), and the Hardy table
    # row nu^1e300, or at lam = 100 the squares (a_mu mu^101)^2, overflowed
    # (a RuntimeWarning, then lhs = rhs = inf and ratio nan in a report with
    # exit 0); J and I to the power 1/theta = 1e8 overflowed (a RuntimeWarning,
    # then values [inf], read as divergent, beside verdict "bounded"); at
    # theta = 5e-324, or r = 5e-324, r theta is 0, and I's cell weights were
    # 0/0 (RuntimeWarnings) before "1/theta = inf" was refused; at theta =
    # inf, r theta is inf, and the weight nu^inf of J was refused instead
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {line}\n"
    assert not out.exists()


def _huge_head(tmp_path):
    """--seq and the class flags of a head from 1e300, k = 30 and p = 2.4."""
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"head": [1e300, 1e299, 1e298, 1e297], "tail": {"variant": "zero"}}))
    return ["--seq", str(seq), "--theta", "1", "--r", "0.5", "--lam", "0.5", "--k", "30",
            "--p", "2.4"]


def test_overflowing_head_is_one_config_error(tmp_path, capsys):
    # (a_nu (2 sin(nu h/2))^30)^2.4 overflows in the direct source's grid
    # sums (RuntimeWarnings in the spectrum, the FFT and the power, then
    # the refusal of the norm)
    out = tmp_path / "out.json"
    assert main(["equivalence", *_huge_head(tmp_path), "--n-grid", "1,2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: p: an L^p norm (a sum to the power "
                                       "1/p = 0.416667) leaves the float range\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["seminorm", "--source", "core", "--n-grid", "1,2"],
    ["membership", "--functional", "J", "--phi", "power:0.25"],
    ["membership", "--functional", "I", "--phi", "power:0.25"],
], ids=["seminorm-core", "membership-J", "membership-I"])
def test_overflowing_head_in_the_core_table_gives_a_report(argv, tmp_path):
    # a_1^2.4 = 1e720 overflowed in the core source's fill (a RuntimeWarning,
    # then 0/0 in its closure); then the fill refused it with "p: a sum of
    # a_nu^2.4 in the core table leaves the float range", and now the table
    # is bound_core's, which rescales each sum by its largest term
    out = tmp_path / "out.json"
    assert main([*argv, *_huge_head(tmp_path), "--out", str(out)]) == 0
    assert all(1e297 < x < math.inf for x in _report_values(out))


@pytest.mark.parametrize("argv, line", [
    (["equivalence", *_CLASS, "--k", "2", "--p", "2", "--n-grid", "4,100000000"],
     "n_grid: must be an ascending list of integers from 1 to 524288"),
    (["equivalence", *_CLASS, "--k", "2", "--p", "2", "--n-grid", "4,8192"],
     "n_grid: the direct omega table would reach top = 32768 (4 max n), past its budget of "
     "16384"),
    *((["modulus", "--power-law", "1", "2", "--k", "2", "--p", "2", "--t-grid", t],
       "t_grid: must be ascending finite positive values with round(1/t) at most 524288")
      for t in ("5e-324", "1e-300", "1e-7")),
], ids=["n-1e8", "direct-n-8192", "t-5e-324", "t-1e-300", "t-1e-7"])
def test_grid_past_its_memory_budget_is_one_config_error(argv, line, tmp_path, capsys):
    # a grid of 1e8 tried to allocate 8 GiB; both stop before any table.  t =
    # 5e-324 divided by zero in shift_grid, round(1/t) at t = 1e-300 is past
    # int64 (an IndexError in weighted_sum), and 1e-7 filled a 10^7-entry E
    # table: round(1/t) is E's n, with the n-grid's bound
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main([*argv, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"config error: {line}\n"
    assert not out.exists()


def test_large_theta_k_is_finite(tmp_path):
    # a_nu = nu^-2, theta = 100: the far terms nu^-200 nu^99 and the near
    # ones nu^-200 nu^149 each have a factor past the float range, but
    # K(n)^100 = n^-50 (zeta(51) - ...) + O(n^-101), so K(n) = n^-1/2 to 1e-15
    out = tmp_path / "k.json"
    assert main(["membership", "--power-law", "1", "2", "--theta", "100", "--r", "0.5",
                 "--lam", "0.5", "--k", "2", "--p", "2", "--functional", "K",
                 "--phi", "power:0.25", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["values"] == pytest.approx([n ** -0.5 for n in rep["grid"]], rel=1e-12)
    assert rep["verdict"] == "bounded"


def test_large_p_modulus_is_finite(tmp_path):
    # p = 300: a_nu^p nu^(p-2) = nu^-302, whose factors under- and overflow;
    # E(n) = n^-2 (sum_{nu<=n} nu^298)^(1/300) + zeta(302, n + 1)^(1/300)
    out = tmp_path / "mod.csv"
    assert main(["modulus", "--power-law", "1", "2", "--k", "2", "--p", "300", "--t-grid",
                 "0.125,0.25", "--horizon", "64", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[-2:]]
    for t, omega, e in rows:
        n = round(1 / float(t))
        near = mpmath.fsum(mpmath.mpf(v) ** 298 for v in range(1, n + 1))
        root = 1 / mpmath.mpf(300)
        want = n ** -2 * near ** root + mpmath.zeta(302, n + 1) ** root
        assert 0 < float(omega) < math.inf
        assert float(e) == pytest.approx(float(want), rel=1e-11)


def test_equivalence_past_the_direct_source_cap(tmp_path):
    # n = 512 sizes the table at 2048 (4 n), past the floor of 256; every
    # far sum ends in the closure past the table
    out = tmp_path / "eq.json"
    rc = main(["equivalence", "--power-law", "1", "2", "--theta", "1", "--r", "0.5",
               "--lam", "0.5", "--k", "2", "--p", "2", "--n-grid", "4,512",
               "--out", str(out)])
    assert rc == 0
    values = json.loads(out.read_text())["values"]
    assert all(0 < v < math.inf for v in values["I"] + values["J"])


def test_import_loads_no_scipy():
    src = str(Path(monosmooth.__file__).resolve().parents[1])
    code = ("import monosmooth.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "[]"


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert [d for d in deps if d.lower().startswith("scipy")] == []


def test_exit_code_on_io_error(tmp_path):
    rc = main(["gen", "--family", "power_law", "--beta", "2",
               "--out", str(tmp_path / "missing" / "out.json")])
    assert rc == 1


def test_no_task_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()
