"""Hypothesis profiles, chosen by the HYPOTHESIS_PROFILE environment variable.

default: hypothesis's own example counts.  ci: ten times as many, in a
fixed order and with no deadline.  A property whose count is written as a
share of settings().max_examples scales with the profile (the mpmath
reference of test_closure.py runs 4 examples locally and 40 under ci);
one with a fixed max_examples (test_closure.py's homogeneity) does not.
"""

import importlib.util
import os
import sys
import threading
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


def _in_threads(work, count):
    """work(i) in count threads switching every microsecond; the exceptions raised."""
    failures = []

    def run(i):
        try:
            work(i)
        except Exception as exc:  # read after join, in the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return failures


@pytest.fixture
def in_threads():
    """_in_threads(work, count)."""
    return _in_threads


class _ReentryCheckedLock:
    """A store's lock that raises RuntimeError where threading.Lock would
    wait forever: when the thread that holds it asks for it again, as a
    build that looks up its own store does."""

    def __init__(self):
        self._lock = threading.Lock()
        self._owner = None

    def __enter__(self):
        if self._owner == threading.get_ident():
            raise RuntimeError("a build looked up its own store")
        self._lock.acquire()
        self._owner = threading.get_ident()

    def __exit__(self, *exc):
        self._owner = None
        self._lock.release()


@pytest.fixture
def checked_stores(monkeypatch):
    """Every store made during the test, and hardy's row cache (empty), on
    a _ReentryCheckedLock."""
    from monosmooth import hardy, sequences

    class Checked(sequences._Store):
        def __init__(self):
            super().__init__()
            self._lock = _ReentryCheckedLock()

    monkeypatch.setattr(sequences, "_Store", Checked)
    monkeypatch.setattr(hardy, "_ROWS", Checked())
