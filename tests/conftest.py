"""Hypothesis profiles, chosen by the HYPOTHESIS_PROFILE environment variable.

default: hypothesis's own example counts.  ci: ten times as many, in a
fixed order and with no deadline.  A property whose count is written as a
share of settings().max_examples scales with the profile; one with a
fixed max_examples (the mpmath reference of test_closure.py) does not.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("default", max_examples=100)
settings.register_profile("ci", max_examples=1000, derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def workloads():
    """perfbench/workloads.py, imported once (its dataclasses look their
    module up in sys.modules)."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]
