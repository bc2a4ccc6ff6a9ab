import iqwalk

PUBLIC_NAMES = {
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
    # spectra: walk operators are solved and certified by spectrum() only
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
}


def test_public_api_is_pinned():
    # a change to the public API must change this set on purpose
    assert len(iqwalk.__all__) == len(set(iqwalk.__all__))
    assert set(iqwalk.__all__) == PUBLIC_NAMES
    for name in iqwalk.__all__:
        assert hasattr(iqwalk, name), name
