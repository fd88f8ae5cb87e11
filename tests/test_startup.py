"""What a fresh process loads: each CLI command imports only the modules
its task runs, and the package resolves its exports on first access."""

import importlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import monosmooth

from test_cli import _README_COMMANDS

_SRC = str(Path(monosmooth.__file__).resolve().parents[1])

_BASE = {"monosmooth", "monosmooth.cli", "monosmooth.sequences"}
_CLASS = _BASE | {"monosmooth.smoothness", "monosmooth.besov"}
#: task -> the monosmooth modules a fresh process holds after main()
_LOADS = {
    "gen": _BASE,
    "modulus": _BASE | {"monosmooth.smoothness"},
    "verify-lemma": _BASE | {"monosmooth.hardy"},
    "seminorm": _CLASS,
    "equivalence": _CLASS,
    "membership": _CLASS,
}
#: modules that only the class tasks' numbers need, or none
_NOT_LOADED = ("numpy.polynomial", "statistics")

_COMMANDS = [c.replace("\\\n", " ") for c in _README_COMMANDS] + [
    "gen --family power_law --beta 2 --out seq.json",
    "seminorm --power-law 1 2 --theta 1 --r 0.5 --lam 0.5 --k 2 --p 2 --n-grid 4,8 "
    "--out seminorm.json",
]

#: today's export list, name -> its module
_EXPORTS = {
    **dict.fromkeys(("DIVERGENT", "CoefficientSequence", "PowerLawTail", "PowerLogTail",
                     "ZeroTail", "make_power_law", "make_power_log", "make_random_monotone",
                     "validate_monotone", "weighted_sum"), "sequences"),
    **dict.fromkeys(("LEMMA_IDS", "HardyParams", "estimate_constant", "verify_lemma"), "hardy"),
    **dict.fromkeys(("QuadratureSpec", "SmoothnessParams", "bound_core", "lp_norm",
                     "modulus_direct"), "smoothness"),
    **dict.fromkeys(("ClassParams", "CoreModulusSource", "DirectModulusSource",
                     "MembershipReport", "PhiSpec", "coefficient_functional",
                     "discrete_seminorm", "equivalence_report", "integral_seminorm",
                     "membership_test"), "besov"),
}


def _fresh(code, *args, cwd=None):
    """The JSON that code prints in a fresh interpreter with src on its path."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={"PYTHONPATH": _SRC}, cwd=cwd, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def numpy_loads():
    """The modules of _NOT_LOADED that `import numpy` alone loads (numpy 1.x
    imports numpy.polynomial with itself)."""
    return set(_fresh(f"import json, sys, numpy; "
                      f"print(json.dumps([m for m in {_NOT_LOADED!r} if m in sys.modules]))"))


@pytest.mark.parametrize("command", _COMMANDS, ids=[c.split()[0] for c in _COMMANDS])
def test_command_loads_only_its_modules(command, numpy_loads, tmp_path):
    code = ("import json, shlex, sys\n"
            "from monosmooth.cli import main\n"
            "rc = main(shlex.split(sys.argv[1]))\n"
            "print(json.dumps([rc, sorted(sys.modules)]))")
    rc, modules = _fresh(code, command, cwd=tmp_path)
    assert rc == 0
    task = shlex.split(command)[0]
    assert {m for m in modules if m.partition(".")[0] == "monosmooth"} == _LOADS[task]
    if task in ("gen", "modulus", "verify-lemma"):
        assert set(_NOT_LOADED) & set(modules) <= numpy_loads


def test_import_loads_no_submodule():
    code = ("import json, sys, monosmooth\n"
            "before = sorted(m for m in sys.modules if m.startswith('monosmooth'))\n"
            "hardy = monosmooth.hardy\n"  # the benchmark's tracer reaches modules so
            "print(json.dumps([before, hardy.__name__, 'monosmooth.besov' in sys.modules]))")
    assert _fresh(code) == [["monosmooth"], "monosmooth.hardy", False]


def test_exports_resolve_to_the_objects_of_their_modules():
    assert sorted(monosmooth.__all__) == sorted(_EXPORTS)
    for name, home in _EXPORTS.items():
        scope = {}
        exec(f"from monosmooth import {name}", scope)
        assert scope[name] is getattr(importlib.import_module(f"monosmooth.{home}"), name)
        assert name in dir(monosmooth)
    with pytest.raises(AttributeError):
        monosmooth.not_an_export  # noqa: B018
