"""Exception types shared across the package, and its integer check.

Numerical failures (drift, non-convergence) and structural failures
(leakage past a proven barrier, undecidable bound checks) get distinct
types so callers and the command line can map them to exit codes.
"""

import operator


def _integer(value, what: str) -> int:
    """value as a Python int; floats, bools and NaN raise TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, not a bool ({value!r})")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None


class IQWalkError(Exception):
    """Base class for all package-specific errors."""


class NumericalDriftError(IQWalkError):
    """State norm drifted further from 1 than its threshold, or a result is not finite."""


class EmptySupportError(IQWalkError):
    """No site carries probability above the requested threshold."""


class LeakageError(IQWalkError):
    """Probability appeared outside an interval proven to confine the walk."""


class ConvergenceError(IQWalkError):
    """Eigensolver failed to converge or produced residuals above contract."""


class PrecisionExhaustedError(IQWalkError):
    """Stored precision cannot certify even one more partial quotient."""


class RationalInputError(IQWalkError):
    """Operation requires an irrational value but the input is exactly rational."""


class NoApproximantFoundError(IQWalkError):
    """No certified quarter-fraction approximant exists in the searched range."""


class IndecisiveError(IQWalkError):
    """Enclosure is too wide to decide the requested exact comparison."""


class UsageError(IQWalkError):
    """Malformed command-line arguments or configuration."""
