"""Long-time observables: confinement, barriers, recurrence, spreading."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coins import CoinSchedule, RotationalSchedule
from .errors import LeakageError, NumericalDriftError, _integer
from .exact_trig import QuarterFraction
from .walk import (
    DEFAULT_SPINOR,
    WalkerState,
    _check_order,
    _sublattice_state,
    _sublattice_steps,
    evolve,
    initial_state,
    moment_stats,
    origin_probability,
    support,
)

__all__ = [
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


@dataclass(frozen=True)
class LocalizationReport:
    """Outcome of an exact-confinement run."""

    alpha_description: str
    predicted_interval: tuple[int, int] | None
    observed_support: tuple[int, int]
    leaked_probability: float
    steps: int


def leaked_probability(state: WalkerState, interval: tuple[int, int]) -> float:
    """Probability strictly outside [lo, hi]; raises on any nonzero amplitude.

    The check is exact: a single nonzero amplitude bit outside the
    interval raises LeakageError even if its probability underflows.
    The ends must be integers (TypeError for floats and bools), and an
    inverted interval raises ValueError.
    """
    lo, hi = _window(interval)
    amps = state.amplitudes
    below = amps[: max(0, min(lo - state.offset, len(amps)))]
    above = amps[max(0, hi + 1 - state.offset) :]
    outside = np.concatenate((below, above))
    if np.any(outside != 0):
        worst = float(np.abs(outside).max())
        raise LeakageError(
            f"amplitude {worst!r} escaped [{lo}, {hi}] at step {state.step_count}"
        )
    return 0.0


def finite_support_verify(
    f: QuarterFraction,
    steps: int,
    initial: tuple[complex, complex] = DEFAULT_SPINOR,
) -> LocalizationReport:
    """Evolve (coin-then-shift order) and prove the walk stayed in [-q, q].

    steps must be an integer; floats and bools raise TypeError.
    """
    schedule = RotationalSchedule(f)
    state = evolve(initial, schedule, steps, order="WC")
    leak = leaked_probability(state, (-f.q, f.q))
    return LocalizationReport(
        alpha_description=str(f),
        predicted_interval=(-f.q, f.q),
        observed_support=support(state, 0.0),
        leaked_probability=leak,
        steps=steps,
    )


def barrier_positions(schedule: CoinSchedule, window: tuple[int, int]) -> list[int]:
    """Sites in [lo, hi] whose coin has an exactly zero diagonal.

    Exact zeros exist only for schedules built on exact trig (rational
    inverse periods with denominator 4q) or explicitly reflecting
    custom coins; irrational and Haar-random schedules return an empty
    list here, and `near_barriers` gives their empirical counterpart.
    The window ends must be integers; floats and bools raise TypeError.
    """
    lo, hi = _window(window)
    a, _, _, d = schedule.coin_entries(lo, hi)
    return (lo + np.flatnonzero((a == 0) & (d == 0))).tolist()


def _window(window: tuple[int, int]) -> tuple[int, int]:
    # checked here, not in coin_entries, which runs on every walk step
    lo, hi = (_integer(end, "window end") for end in window)
    if hi < lo:
        raise ValueError(f"empty window {window}")
    return lo, hi


@dataclass(frozen=True)
class NearBarrierScan:
    """Empirical near-barrier sites; NOT a proof of confinement.

    Lists sites whose diagonal coin magnitude falls below `threshold`.
    Unlike `barrier_positions` this is a heuristic report: small
    diagonals slow the walk but do not reflect it exactly.
    """

    threshold: float
    sites: tuple[tuple[int, float], ...]
    rigorous: bool = False


def near_barriers(
    schedule: CoinSchedule, window: tuple[int, int], threshold: float = 1e-2
) -> NearBarrierScan:
    """Scan for sites where both coin diagonal magnitudes are below threshold.

    The window ends must be integers (TypeError for floats and bools); a
    NaN threshold raises ValueError.
    """
    lo, hi = _window(window)
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    a, _, _, d = schedule.coin_entries(lo, hi)
    # np.hypot is libm's hypot, as Python's abs(complex) is; np.abs can differ by an ulp
    sizes = np.maximum(np.hypot(a.real, a.imag), np.hypot(d.real, d.imag))
    hits = np.flatnonzero(sizes < threshold)
    return NearBarrierScan(
        threshold=threshold,
        sites=tuple(zip((lo + hits).tolist(), sizes[hits].tolist())),
    )


def recurrence_series(
    schedule: CoinSchedule,
    t_max: int,
    initial: tuple[complex, complex] = DEFAULT_SPINOR,
    order: str = "WC",
) -> list[tuple[int, float]]:
    """Origin probability at every step 0..t_max from one evolution.

    The walk runs on `evolve`'s sublattice engine; at even steps the
    origin's packed (L, R) pair gives the same float as
    `origin_probability` of the `step` loop's state.  Starting at the
    origin, odd steps give exactly 0.0 by parity for any schedule.
    t_max must be an integer; floats and bools raise TypeError.  An
    unknown order raises ValueError before any step.
    """
    t_max = _integer(t_max, "t_max")
    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    _check_order(order)
    state = initial_state(initial)
    series = [(0, origin_probability(state))]
    amps = state.amplitudes
    for t, start, left, right in _sublattice_steps(
        0, 2, amps[:, 0], amps[:, 1], schedule.coin_entries, order, range(1, t_max + 1)
    ):
        i, odd = divmod(-start, 2)  # the origin's packed index; odd times miss it
        if odd or not 0 <= i < len(left):
            series.append((t, 0.0))
        else:
            # as WalkerState.probability sums it, on Python complex numbers
            at_left, at_right = complex(left[i]), complex(right[i])
            prob = at_left.real**2 + at_left.imag**2 + at_right.real**2 + at_right.imag**2
            series.append((t, prob))
    return series


@dataclass(frozen=True)
class SpreadEstimate:
    """Spread growth measured at checkpoint times.

    fitted_exponent is the log-log least-squares slope of sigma(t) over
    the upper half of the checkpoint grid; scaled_tail[i] is
    E|X_t| / t**theta at the matching checkpoint.
    """

    times: tuple[int, ...]
    sigmas: tuple[float, ...]
    fitted_exponent: float
    theta: float
    scaled_tail: tuple[float, ...]


def _time_power(t: int, theta: float) -> float:
    try:
        power = t**theta
    except OverflowError:
        power = math.inf
    if not 0.0 < power < math.inf:
        raise NumericalDriftError(
            f"t**theta is not a finite nonzero double at t={t}, theta={theta!r}"
        )
    return power


def spread_exponent(
    schedule: CoinSchedule,
    checkpoints: Sequence[int],
    initial: tuple[complex, complex] = DEFAULT_SPINOR,
    theta: float = 0.5,
    order: str = "WC",
) -> SpreadEstimate:
    """Track sigma(t) and E|X_t|/t^theta over one evolution.

    The walk runs on `evolve`'s sublattice engine, and only the states at
    the checkpoints are expanded to dense states for `moment_stats`, so
    every figure equals that of the `step` loop.  Checkpoints must be
    integers; floats and bools raise TypeError.  An unknown order raises
    ValueError, and a t**theta that overflows or underflows to zero at a
    checkpoint raises NumericalDriftError, both before any step.
    """
    times = sorted({_integer(t, "checkpoint") for t in checkpoints})
    if not times or times[0] < 1:
        raise ValueError("checkpoints must be positive integers")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    _check_order(order)
    scales = {t: _time_power(t, theta) for t in times}
    amps = initial_state(initial).amplitudes
    sigmas: list[float] = []
    tails: list[float] = []
    for t, start, left, right in _sublattice_steps(
        0, 2, amps[:, 0], amps[:, 1], schedule.coin_entries, order, range(1, times[-1] + 1)
    ):
        if t in scales:
            # moments of the dense state: sums over the packed rows would round differently
            stats = moment_stats(_sublattice_state(start, left, right, t))
            sigmas.append(stats.std_dev)
            tails.append(stats.abs_moments[1] / scales[t])
    upper = len(times) // 2
    pairs = [
        (math.log(t), math.log(s))
        for t, s in zip(times[upper:], sigmas[upper:])
        if s > 0
    ]
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    if len(xs) >= 2:
        x_mean = sum(xs) / len(xs)
        y_mean = sum(ys) / len(ys)
        denom = sum((x - x_mean) ** 2 for x in xs)
        slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / denom
    else:
        slope = math.nan
    return SpreadEstimate(
        times=tuple(times),
        sigmas=tuple(sigmas),
        fitted_exponent=slope,
        theta=theta,
        scaled_tail=tuple(tails),
    )
