"""Moduli of smoothness and coefficient-class criteria for monotone
cosine series, with empirical verification of the underlying discrete
Hardy-type inequalities."""

__version__ = "0.1.0"

from .sequences import (
    DIVERGENT,
    CoefficientSequence,
    PowerLawTail,
    PowerLogTail,
    ZeroTail,
    make_power_law,
    make_power_log,
    make_random_monotone,
    validate_monotone,
    weighted_sum,
)
from .hardy import (
    LEMMA_IDS,
    HardyParams,
    estimate_constant,
    verify_lemma,
)
from .smoothness import (
    QuadratureSpec,
    SmoothnessParams,
    bound_core,
    lp_norm,
    modulus_direct,
)
from .besov import (
    ClassParams,
    CoreModulusSource,
    DirectModulusSource,
    MembershipReport,
    PhiSpec,
    coefficient_functional,
    discrete_seminorm,
    equivalence_report,
    integral_seminorm,
    membership_test,
)
