"""Walker state and one-step evolution.

Two step orders are supported.  "WC" applies the coin and then the
chirality-conditioned shift (left component moves to n-1, right to
n+1); "CW" shifts first and applies the coin after.  Both preserve the
norm exactly up to rounding, and both keep amplitudes outside a proven
confinement interval at bit-zero because every contribution to an
outside site is a product with an exactly zero coin entry or an exactly
zero amplitude.

The dense window of stored amplitudes always covers every nonzero site;
exactly-zero boundary rows are trimmed after each step, which clamps
the window to [-q, q] automatically whenever the schedule confines the
walk.  One kernel makes every forward step: `step` gives it fresh
arrays, and `evolve` two buffers that it alternates between.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .coins import CoinSchedule, _integer
from .errors import EmptySupportError, NumericalDriftError

__all__ = [
    "WalkOrder",
    "WalkerState",
    "MomentStats",
    "DEFAULT_SPINOR",
    "SPINOR_NORM_TOL",
    "DRIFT_LIMIT",
    "initial_state",
    "step",
    "adjoint_step",
    "evolve",
    "distribution",
    "support",
    "moment_stats",
    "origin_probability",
]

WalkOrder = Literal["WC", "CW"]

DEFAULT_SPINOR = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
SPINOR_NORM_TOL = 1e-12
DRIFT_LIMIT = 1e-9
_PROB_FLOOR = 1e-300


def _sq_mags(amps: np.ndarray) -> np.ndarray:
    # re^2 + im^2, not np.abs()**2: the sqrt round-trip would turn the exact
    # dyadic probability 0.25 + 0.25 into 0.5000000000000001
    return amps.real**2 + amps.imag**2


@dataclass(frozen=True)
class WalkerState:
    """Amplitudes over a contiguous site window.

    amplitudes[i] holds the (left, right) chirality pair at site
    offset + i.  The window is guaranteed to contain every site with a
    nonzero amplitude; sites outside it are exactly zero.
    """

    offset: int
    amplitudes: np.ndarray
    step_count: int = 0

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 2 or amps.shape[1] != 2 or amps.shape[0] < 1:
            raise ValueError(f"amplitudes must have shape (N, 2), got {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def sites(self) -> range:
        return range(self.offset, self.offset + len(self.amplitudes))

    def norm(self) -> float:
        return float(np.sqrt(np.sum(_sq_mags(self.amplitudes))))

    def amplitude(self, n: int) -> tuple[complex, complex]:
        """(left, right) amplitude pair at site n, zero outside the window."""
        i = n - self.offset
        if 0 <= i < len(self.amplitudes):
            return complex(self.amplitudes[i, 0]), complex(self.amplitudes[i, 1])
        return 0j, 0j

    def probability(self, n: int) -> float:
        left, right = self.amplitude(n)
        return left.real**2 + left.imag**2 + right.real**2 + right.imag**2


def initial_state(
    spinor: tuple[complex, complex] = DEFAULT_SPINOR, site: int = 0
) -> WalkerState:
    """Walker localized at one site with the given chirality spinor."""
    left, right = complex(spinor[0]), complex(spinor[1])
    if not (cmath.isfinite(left) and cmath.isfinite(right)):
        raise ValueError(f"spinor components must be finite, got {(left, right)!r}")
    nrm = math.sqrt(abs(left) ** 2 + abs(right) ** 2)
    if abs(nrm - 1.0) > SPINOR_NORM_TOL:
        raise ValueError(f"spinor must have unit norm within {SPINOR_NORM_TOL}, got {nrm!r}")
    return WalkerState(site, np.array([[left, right]], dtype=complex), 0)


def _state(offset: int, amps: np.ndarray, step_count: int) -> WalkerState:
    # a WalkerState over an (N, 2) complex array that no one else writes, unvalidated
    state = object.__new__(WalkerState)
    state.__dict__.update(offset=offset, amplitudes=amps, step_count=step_count)
    return state


def _kept_rows(amps: np.ndarray, step_count: int) -> tuple[int, int]:
    """Rows [lo, hi) of amps to keep after the drift gate: exactly-zero
    boundary rows are dropped, which keeps the window minimal."""
    nrm = math.sqrt(np.vdot(amps, amps).real)
    if not abs(nrm - 1.0) <= DRIFT_LIMIT:
        raise NumericalDriftError(
            f"norm drifted to {nrm!r} after step {step_count}"
            f" (|1 - norm| > {DRIFT_LIMIT})"
        )
    lo, hi = 0, len(amps)
    while hi - lo > 1 and not (amps[lo, 0] or amps[lo, 1]):
        lo += 1
    while hi - lo > 1 and not (amps[hi - 1, 0] or amps[hi - 1, 1]):
        hi -= 1
    return lo, hi


def _step_into(
    new: np.ndarray,
    scratch: np.ndarray,
    offset: int,
    amps: np.ndarray,
    schedule: CoinSchedule,
    order: WalkOrder,
    step_count: int,
) -> tuple[int, int]:
    """One step of the window amps, whose first row is site offset, into new.

    new has len(amps) + 2 rows, for sites offset - 1 onwards, and every
    entry of it is written.  scratch is a C-ordered complex array of 3
    rows and at least len(new) columns.  Each output is a*L + b*R or
    c*L + d*R, with every product taken between the same memory layouts
    as a stepper over fresh arrays, so the bits do not depend on who owns
    the buffers.  Returns the rows [lo, hi) of new that hold the next
    window.
    """
    n = len(amps)
    left, right = amps[:, 0], amps[:, 1]
    if order == "WC":
        a, b, c, d = schedule.coin_entries(offset, offset + n - 1)
        tmp, out_left, out_right = scratch[0, :n], new[:n, 0], new[2:, 1]
        np.multiply(a, left, out=out_left)
        np.add(out_left, np.multiply(b, right, out=tmp), out=out_left)
        np.multiply(c, left, out=out_right)
        np.add(out_right, np.multiply(d, right, out=tmp), out=out_right)
        new[n, 0] = new[n + 1, 0] = new[0, 1] = new[1, 1] = 0  # L lands on n-1, R on n+1
    elif order == "CW":
        a, b, c, d = schedule.coin_entries(offset - 1, offset + n)
        tmp, from_right, from_left = scratch[:, : n + 2]
        from_right[:n], from_right[n:] = left, 0  # site m sees L from m+1
        from_left[:2], from_left[2:] = 0, right  # site m sees R from m-1
        out_left, out_right = new[:, 0], new[:, 1]
        np.multiply(a, from_right, out=out_left)
        np.add(out_left, np.multiply(b, from_left, out=tmp), out=out_left)
        np.multiply(c, from_right, out=out_right)
        np.add(out_right, np.multiply(d, from_left, out=tmp), out=out_right)
    else:
        raise ValueError(f"unknown walk order {order!r}")
    return _kept_rows(new, step_count)


def step(state: WalkerState, schedule: CoinSchedule, order: WalkOrder = "WC") -> WalkerState:
    """One unitary step of the walk; returns a new state."""
    rows, count = len(state.amplitudes) + 2, state.step_count + 1
    new, scratch = np.empty((rows, 2), dtype=complex), np.empty((3, rows), dtype=complex)
    lo, hi = _step_into(new, scratch, state.offset, state.amplitudes, schedule, order, count)
    return _state(state.offset - 1 + lo, new if hi - lo == rows else new[lo:hi].copy(), count)


def adjoint_step(
    state: WalkerState, schedule: CoinSchedule, order: WalkOrder = "WC"
) -> WalkerState:
    """Inverse of `step` with the same schedule and order."""
    n = len(state.amplitudes)
    left, right = state.amplitudes.T
    new = np.zeros((n + 2, 2), dtype=complex)
    if order == "WC":
        # (W C)^-1 = C^H W^H: unshift, then inverse coin per site
        a, b, c, d = schedule.coin_entries(state.offset - 1, state.offset + n)
        unshifted_left = np.zeros(n + 2, dtype=complex)
        unshifted_right = np.zeros(n + 2, dtype=complex)
        unshifted_left[2 : n + 2] = left  # L at m came from m-1 before the shift
        unshifted_right[0:n] = right
        new[:, 0] = np.conj(a) * unshifted_left + np.conj(c) * unshifted_right
        new[:, 1] = np.conj(b) * unshifted_left + np.conj(d) * unshifted_right
    elif order == "CW":
        # (C W)^-1 = W^H C^H: inverse coin per site, then unshift
        a, b, c, d = schedule.coin_entries(state.offset, state.offset + n - 1)
        # (W^H psi)(m; L) = psi(m-1; L)
        new[2 : n + 2, 0] = np.conj(a) * left + np.conj(c) * right
        new[0:n, 1] = np.conj(b) * left + np.conj(d) * right
    else:
        raise ValueError(f"unknown walk order {order!r}")
    count = state.step_count - 1
    lo, hi = _kept_rows(new, count)
    return _state(state.offset - 1 + lo, new if hi - lo == n + 2 else new[lo:hi].copy(), count)


def evolve(
    initial_spinor: tuple[complex, complex],
    schedule: CoinSchedule,
    steps: int,
    order: WalkOrder = "WC",
    site: int = 0,
) -> WalkerState:
    """Evolve a walker started at `site` for the given number of steps.

    The result equals `steps` calls of `step`, byte for byte.  The
    windows alternate between two buffers, which double when a window
    outgrows them, up to the 2*steps + 1 rows of the widest possible
    window, and only the final window is copied out.  steps must be an
    integer; floats and bools raise TypeError.
    """
    steps = _integer(steps, "steps")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    state = initial_state(initial_spinor, site)
    offset, amps, size = state.offset, state.amplitudes, 0
    for count in range(1, steps + 1):
        rows = len(amps) + 2
        if rows > size:
            size = min(2 * rows, 2 * steps + 1)
            buffers = np.empty((2, size, 2), dtype=complex)
            scratch = np.empty((3, size), dtype=complex)
        new = buffers[count % 2, :rows]
        lo, hi = _step_into(new, scratch, offset, amps, schedule, order, count)
        offset, amps = offset - 1 + lo, new[lo:hi]
    return _state(offset, amps.copy(), steps) if steps else state


def distribution(state: WalkerState) -> dict[int, tuple[float, float, float]]:
    """Site -> (left probability, right probability, total), zeros omitted."""
    probs = _sq_mags(state.amplitudes)
    out: dict[int, tuple[float, float, float]] = {}
    for i, n in enumerate(state.sites):
        p_left, p_right = float(probs[i, 0]), float(probs[i, 1])
        total = p_left + p_right
        if total >= _PROB_FLOOR:
            out[n] = (p_left, p_right, total)
    return out


def support(state: WalkerState, threshold: float = 0.0) -> tuple[int, int]:
    """Smallest interval [lo, hi] holding all sites with probability > threshold."""
    totals = np.sum(_sq_mags(state.amplitudes), axis=1)
    hot = np.nonzero(totals > threshold)[0]
    if len(hot) == 0:
        raise EmptySupportError(f"no site has probability above {threshold!r}")
    return state.offset + int(hot[0]), state.offset + int(hot[-1])


@dataclass(frozen=True)
class MomentStats:
    """Position moments of a walker distribution."""

    mean: float
    variance: float
    std_dev: float
    abs_moments: dict[int, float] = field(repr=False)


def moment_stats(state: WalkerState) -> MomentStats:
    """Mean, variance, standard deviation and E|X|^k for k = 1..4."""
    totals = np.sum(_sq_mags(state.amplitudes), axis=1)
    sites = np.arange(state.offset, state.offset + len(totals), dtype=float)
    mean = float(np.dot(totals, sites))
    second = float(np.dot(totals, sites**2))
    variance = max(second - mean * mean, 0.0)
    abs_sites = np.abs(sites)
    abs_moments = {k: float(np.dot(totals, abs_sites**k)) for k in (1, 2, 3, 4)}
    return MomentStats(mean, variance, math.sqrt(variance), abs_moments)


def origin_probability(state: WalkerState) -> float:
    """Total probability at site 0; exactly 0.0 at odd times from the origin."""
    return state.probability(0)
