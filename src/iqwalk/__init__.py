"""Inhomogeneous quantum walks with position-dependent rotation coins.

Exact-trigonometry walk evolution, finite walk operators and their
spectra, certified rational approximation of the inverse period, and
the role swap between shift and coin on the ring.
"""

__version__ = "0.1.0"

from .analysis import (
    LocalizationReport,
    NearBarrierScan,
    SpreadEstimate,
    barrier_positions,
    finite_support_verify,
    leaked_probability,
    near_barriers,
    recurrence_series,
    spread_exponent,
)
from .coins import (
    CoinSchedule,
    CustomSchedule,
    RandomSchedule,
    RotationalSchedule,
    haar_coin,
    reflecting_coin,
    rotation_coin,
    unitarity_defect,
)
from .diophantine import (
    ContinuedFraction,
    Convergent,
    QuarterApproximant,
    continued_fraction,
    convergents,
    quarter_approximants,
    verify_bound,
)
from .duality import (
    DualityResiduals,
    DualVector,
    RingState,
    dual_vector,
    ring_coin,
    ring_shift,
    verify_duality,
)
from .errors import (
    ConvergenceError,
    EmptySupportError,
    IndecisiveError,
    IQWalkError,
    LeakageError,
    NoApproximantFoundError,
    NumericalDriftError,
    PrecisionExhaustedError,
    RationalInputError,
    UsageError,
)
from .exact_trig import (
    QuarterFraction,
    fraction_cos_sin,
    half_pi_cos_sin,
    trig_pair_exact,
)
from .precision import NAMED_CONSTANTS, RealEnclosure, golden_mean, pi_half, sqrt2_minus_one
from .spectral import (
    PropertyCheck,
    PropertyReport,
    Spectrum,
    build_matrices,
    butterfly,
    butterfly_fractions,
    circular_arg_distance,
    eigenvalue_gaps,
    gauge_check,
    property_report,
    spectrum,
)
from .walk import (
    DEFAULT_SPINOR,
    MomentStats,
    WalkerState,
    adjoint_step,
    distribution,
    evolve,
    initial_state,
    moment_stats,
    origin_probability,
    step,
    support,
)

__all__ = [
    "__version__",
    # errors
    "IQWalkError",
    "NumericalDriftError",
    "EmptySupportError",
    "LeakageError",
    "ConvergenceError",
    "PrecisionExhaustedError",
    "RationalInputError",
    "NoApproximantFoundError",
    "IndecisiveError",
    "UsageError",
    # exact trigonometry
    "QuarterFraction",
    "half_pi_cos_sin",
    "fraction_cos_sin",
    "trig_pair_exact",
    # certified reals
    "RealEnclosure",
    "NAMED_CONSTANTS",
    "pi_half",
    "golden_mean",
    "sqrt2_minus_one",
    # coins
    "CoinSchedule",
    "RotationalSchedule",
    "RandomSchedule",
    "CustomSchedule",
    "rotation_coin",
    "reflecting_coin",
    "haar_coin",
    "unitarity_defect",
    # walk evolution
    "WalkerState",
    "DEFAULT_SPINOR",
    "initial_state",
    "step",
    "adjoint_step",
    "evolve",
    "distribution",
    "support",
    "MomentStats",
    "moment_stats",
    "origin_probability",
    # diophantine
    "ContinuedFraction",
    "Convergent",
    "QuarterApproximant",
    "continued_fraction",
    "convergents",
    "verify_bound",
    "quarter_approximants",
    # spectra
    "Spectrum",
    "PropertyCheck",
    "PropertyReport",
    "build_matrices",
    "eigenvalue_gaps",
    "spectrum",
    "circular_arg_distance",
    "property_report",
    "gauge_check",
    "butterfly_fractions",
    "butterfly",
    # duality
    "RingState",
    "DualVector",
    "DualityResiduals",
    "ring_shift",
    "ring_coin",
    "dual_vector",
    "verify_duality",
    # analysis
    "LocalizationReport",
    "NearBarrierScan",
    "SpreadEstimate",
    "leaked_probability",
    "finite_support_verify",
    "barrier_positions",
    "near_barriers",
    "recurrence_series",
    "spread_exponent",
]
