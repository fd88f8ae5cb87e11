"""Moduli of smoothness and coefficient-class criteria for monotone
cosine series, with empirical verification of the underlying discrete
Hardy-type inequalities.

The names below, and the submodules, are imported on first access, so that
`import monosmooth` (and each CLI command) loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

#: module -> the names the package exports from it
_EXPORTS = {
    "sequences": ("DIVERGENT", "CoefficientSequence", "PowerLawTail", "PowerLogTail", "ZeroTail",
                  "make_power_law", "make_power_log", "make_random_monotone",
                  "validate_monotone", "weighted_sum"),
    "hardy": ("LEMMA_IDS", "HardyParams", "estimate_constant", "verify_lemma"),
    "smoothness": ("QuadratureSpec", "SmoothnessParams", "bound_core", "lp_norm",
                   "modulus_direct"),
    "besov": ("ClassParams", "CoreModulusSource", "DirectModulusSource", "MembershipReport",
              "PhiSpec", "coefficient_functional", "discrete_seminorm", "equivalence_report",
              "integral_seminorm", "membership_test"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = list(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
