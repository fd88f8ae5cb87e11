"""Span tracing of monosmooth's public functions, installed from outside.

A traced function is replaced by a wrapper in every monosmooth module that
holds a binding to it (besov.weighted_sum and smoothness.weighted_sum are
separate bindings of sequences.weighted_sum), and a traced method on its
class.  Each call records a span (name, parent, start, end); a span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import math
import os
import time
import weakref
from collections import defaultdict

MODULES = ("sequences", "smoothness", "hardy", "besov", "cli")

# span name -> (defining module, function name)
FUNCTIONS = {
    "sequences.weighted_sum": ("sequences", "weighted_sum"),
    "smoothness.lp_norm": ("smoothness", "lp_norm"),
    "smoothness.modulus_direct": ("smoothness", "modulus_direct"),
    "smoothness.bound_core": ("smoothness", "bound_core"),
    "besov.tail_sum": ("besov", "extrapolated_tail_sum"),
    "besov.I": ("besov", "integral_seminorm"),
    "besov.J": ("besov", "discrete_seminorm"),
    "besov.K": ("besov", "coefficient_functional"),
    "besov.membership_test": ("besov", "membership_test"),
    "besov.equivalence_report": ("besov", "equivalence_report"),
    "hardy.verify_lemma": ("hardy", "verify_lemma"),
    "hardy.validate_monotone": ("sequences", "validate_monotone"),
    "hardy.estimate_constant": ("hardy", "estimate_constant"),
    "cli.parse_config": ("cli", "parse_config"),
    "cli.run_experiment": ("cli", "run_experiment"),
}

# span name -> [(defining module, class name, method name)]
METHODS = {
    "sequences.values": [("sequences", "CoefficientSequence", "values")],
    "sequences.tail_integral": [
        ("sequences", cls, "integral")
        for cls in ("ZeroTail", "PowerLawTail", "PowerLogTail")
    ],
    "besov.direct_batch": [("besov", "DirectModulusSource", "batch")],
    "besov.core_batch": [("besov", "CoreModulusSource", "batch")],
}

class Tracer:
    """Records spans of wrapped calls while installed; sums them on demand."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counts = defaultdict(float)
        self._stack = []
        self._restore = []
        self._requested = weakref.WeakKeyDictionary()

    # -- hooks for the counters that spans alone do not give ---------------

    def _before(self, name, args, kwargs):
        if name == "besov.tail_sum":
            term = args[0] if args else kwargs.pop("term")

            def counted(nus):
                self.counts["besov.tail_sum.terms"] += len(nus)
                return term(nus)

            args = (counted,) + tuple(args[1:])
        elif name == "besov.direct_batch":
            # omega(1/nu) values the source has not been asked for before
            source, nus = args[0], args[1] if len(args) > 1 else kwargs["nus"]
            seen = self._requested.setdefault(source, set())
            new = {int(v) for v in nus} - seen
            self.counts["besov.direct_batch.nu_filled"] += len(new)
            seen |= new
        return args, kwargs

    def _after(self, name, result):
        if name == "besov.tail_sum" and result == math.inf:
            self.counts["besov.tail_sum.divergent"] += 1
        elif name == "hardy.estimate_constant":
            self.counts["hardy.estimate_constant.skipped"] += result.skipped
        elif name == "cli.run_experiment":
            self.counts["cli.report_bytes"] += os.path.getsize(result)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            args, kwargs = tracer._before(name, args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, parent, 0.0, 0.0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            tracer._after(name, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Rebind every traced function and method of the imported package."""
        mods = [package] + [getattr(package, m) for m in MODULES]
        for name, (home, attr) in FUNCTIONS.items():
            orig = getattr(getattr(package, home), attr)
            wrapped = self._wrap(name, orig)
            for mod in mods:
                if getattr(mod, attr, None) is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        for name, targets in METHODS.items():
            for home, cls_name, attr in targets:
                cls = getattr(getattr(package, home), cls_name)
                orig = cls.__dict__[attr]
                self._restore.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(name, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def merge(self, summary):
        """Add the summary of a traced run in another process."""
        for key, value in summary.items():
            self.counts[key] += value

    # -- results -----------------------------------------------------------

    def summary(self):
        """{metric: total} with .calls and .self_s per span name, plus counters."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float, self.counts)
        for i, (name, _, start, end) in enumerate(self.spans):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += end - start - child[i]
        return dict(out)
