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
walk.

Every step, dense or sublattice, runs one engine, `_sublattice_steps`.
`step` and `adjoint_step` take one stride-1 step of the whole window into
fresh arrays.  A walker started at `site` is nonzero only on sites
n = site + t (mod 2) after t steps, so `evolve`,
`analysis.recurrence_series` and `analysis.spread_exponent` step only
that sublattice, at stride 2, with the same products and sums per site:
their sublattice amplitudes are byte-equal to those of repeated `step`
calls, and every other entry of a state they expand is +0.0, where
`step` may hold -0.0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Literal

import numpy as np

from .coins import CoinSchedule
from .errors import EmptySupportError, NumericalDriftError, _integer

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
    nonzero amplitude; sites outside it are exactly zero.  Amplitudes
    must be finite; NaN or infinity raises ValueError.
    """

    offset: int
    amplitudes: np.ndarray
    step_count: int = 0

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 2 or amps.shape[1] != 2 or amps.shape[0] < 1:
            raise ValueError(f"amplitudes must have shape (N, 2), got {amps.shape}")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
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
    """Walker localized at one site with the given chirality spinor.

    site must be an integer; floats and bools raise TypeError.
    """
    site = _integer(site, "site")
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


def _check_order(order: str) -> None:
    if order not in ("WC", "CW"):
        raise ValueError(f"unknown walk order {order!r}")


def _drift_error(nrm: float, step_count: int) -> NumericalDriftError:
    return NumericalDriftError(
        f"norm drifted to {nrm!r} after step {step_count} (|1 - norm| > {DRIFT_LIMIT})"
    )


def _sublattice_steps(
    start: int,
    stride: int,
    left: np.ndarray,
    right: np.ndarray,
    coin_entries: Callable[[int, int], tuple[np.ndarray, ...]],
    order: WalkOrder,
    counts: range,
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Step the window (left, right), whose sites are start, start + stride,
    ..., once per count in counts, and yield (count, start, left, right)
    after each step.

    The one walk engine: stride 2 steps a walker's sublattice (`evolve`,
    `recurrence_series`, `spread_exponent`), stride 1 a dense window
    (`step`, `adjoint_step`).  The stride enters only the index
    arithmetic, and at stride 1 in "WC" order two more end entries to zero.
    Windows are packed as [L | R] in two alternating buffers that grow up
    to the widest window the counts can reach; a yielded window is a view
    that the step after next overwrites.  Coin rows (a, b, c, d) come from
    `coin_entries` over a span around the first site that doubles when a
    step needs a site outside it, clamped to the sites the counts can
    reach, and are taken once per fetch as contiguous rows per residue mod
    stride.  Each output is a*L + b*R or c*L + d*R, multiplied and added in
    place.  The drift gate raises NumericalDriftError naming the count, and
    exactly-zero boundary sites are trimmed.  Any order other than "WC"
    runs as "CW", so callers check it.
    """
    # local names, positional outputs and few views: small windows are bound by
    # per-step overhead
    mul, add, vdot, sqrt = np.multiply, np.add, np.vdot, math.sqrt
    wc, dense, grow, steps = order == "WC", stride == 1, 3 - stride, len(counts)
    centre, reach, size = start, 0, 0
    floor, ceiling = start - steps, start + stride * (len(left) - 1) + steps
    widest = 2 * (len(left) + grow * steps)
    span_lo, span_hi = start, start - 1
    for count in counts:
        n = len(left)
        m = n + grow
        if 2 * m > size:
            size = min(4 * m, widest)
            buffer, spare = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
            scratch = np.empty(3 * size // 2, dtype=complex)
        first, k = (start, n) if wc else (start - 1, m)
        last = first + stride * (k - 1)  # coins at first, first + stride, ..., last
        if first < span_lo or last > span_hi:
            # at least 8 sites a side, so that the first steps share one fetch
            reach = max(2 * reach, centre - first, last - centre, 8)
            span_lo, span_hi = max(centre - reach, floor), min(centre + reach, ceiling)
            rows = coin_entries(span_lo, span_hi)
            residue_rows = [
                tuple(np.ascontiguousarray(row[r::stride]) for row in rows) for r in range(stride)
            ]
        i, residue = divmod(first - span_lo, stride)
        a, b, c, d = residue_rows[residue]
        a, b, c, d = a[i : i + k], b[i : i + k], c[i : i + k], d[i : i + k]
        buffer, spare = spare, buffer  # the window being read stays in spare
        new = buffer[: 2 * m]
        if wc:
            tmp, out_left, out_right = scratch[:n], new[:n], new[m + grow :]
            mul(a, left, out_left)
            add(out_left, mul(b, right, tmp), out_left)
            mul(c, left, out_right)
            add(out_right, mul(d, right, tmp), out_right)
            new[n] = new[m] = 0  # the last L site and the first R site
            if dense:
                new[n + 1] = new[m + 1] = 0  # and the second of each
        else:
            shifted, tmp = scratch[: 2 * m], scratch[2 * m : 3 * m]
            shifted[:n], shifted[n : m + grow], shifted[m + grow :] = left, 0, right
            from_right, from_left = shifted[:m], shifted[m:]  # L from s+1, R from s-1
            new_left, new_right = new[:m], new[m:]
            mul(a, from_right, new_left)
            add(new_left, mul(b, from_left, tmp), new_left)
            mul(c, from_right, new_right)
            add(new_right, mul(d, from_left, tmp), new_right)
        nrm = sqrt(vdot(new, new).real)
        if not abs(nrm - 1.0) <= DRIFT_LIMIT:
            raise _drift_error(nrm, count)
        lo, hi = 0, m  # site lo holds new[lo] (L) and new[m + lo] (R)
        while hi - lo > 1 and not (new[lo] or new[m + lo]):
            lo += 1
        while hi - lo > 1 and not (new[hi - 1] or new[m + hi - 1]):
            hi -= 1
        start, left, right = start - 1 + stride * lo, new[lo:hi], new[m + lo : m + hi]
        yield count, start, left, right


def _sublattice_state(
    start: int, left: np.ndarray, right: np.ndarray, step_count: int
) -> WalkerState:
    """The dense state of a sublattice window: every other row, +0.0 between."""
    amps = np.zeros((2 * len(left) - 1, 2), dtype=complex)
    amps[::2, 0], amps[::2, 1] = left, right
    return _state(start, amps, step_count)


def _window_step(
    state: WalkerState, coin_entries: Callable, order: WalkOrder, count: int, left_column: int
) -> WalkerState:
    """One stride-1 engine step, numbered count, of state's whole window
    with L in column left_column, unpacked into a fresh (N, 2) array."""
    amps, left, right = state.amplitudes, left_column, 1 - left_column
    ((_, start, new_left, new_right),) = _sublattice_steps(
        state.offset, 1, amps[:, left], amps[:, right], coin_entries, order, range(count, count + 1)
    )
    out = np.empty((len(new_left), 2), dtype=complex)
    out[:, left], out[:, right] = new_left, new_right
    return _state(start, out, count)


def step(state: WalkerState, schedule: CoinSchedule, order: WalkOrder = "WC") -> WalkerState:
    """One unitary step of the walk, a stride-1 engine step of the state's
    window; returns a new state.  An unknown order raises ValueError."""
    _check_order(order)
    return _window_step(state, schedule.coin_entries, order, state.step_count + 1, 0)


def adjoint_step(
    state: WalkerState, schedule: CoinSchedule, order: WalkOrder = "WC"
) -> WalkerState:
    """Inverse of `step` with the same schedule and order.

    With X the chirality swap, (W C)^H = X (C' W) X and (C W)^H = X (W C') X
    for C' = X C^H X, rows (conj d, conj b, conj c, conj a): the engine
    step of `step` in the other order on the chirality-swapped state,
    whose products are those of U^H and whose sums only swap their two
    terms, so the bits are the same.
    """
    _check_order(order)

    def adjoint_coins(lo: int, hi: int) -> tuple[np.ndarray, ...]:
        a, b, c, d = schedule.coin_entries(lo, hi)
        return np.conj(d), np.conj(b), np.conj(c), np.conj(a)

    other = "CW" if order == "WC" else "WC"
    return _window_step(state, adjoint_coins, other, state.step_count - 1, 1)


def evolve(
    initial_spinor: tuple[complex, complex],
    schedule: CoinSchedule,
    steps: int,
    order: WalkOrder = "WC",
    site: int = 0,
) -> WalkerState:
    """Evolve a walker started at `site` for the given number of steps.

    After t steps only the sites n = site + t (mod 2) can be nonzero, and
    only they are stepped, packed as [L | R] (`_sublattice_steps`); only
    the final window is expanded to a dense state.  Its sublattice
    amplitudes, offset and window equal those of `steps` calls of
    `step`, byte for byte; its other entries are +0.0.  The norm gate
    sums the packed amplitudes, so its value can differ from `step`'s in
    the last bits.  steps and site must be integers; floats and bools
    raise TypeError.  An unknown order raises ValueError before any step.
    """
    steps = _integer(steps, "steps")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    _check_order(order)
    state = initial_state(initial_spinor, site)
    if not steps:
        return state
    amps = state.amplitudes
    for _, start, left, right in _sublattice_steps(
        state.offset, 2, amps[:, 0], amps[:, 1], schedule.coin_entries, order, range(1, steps + 1)
    ):
        pass
    return _sublattice_state(start, left, right, steps)


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
    """Smallest interval [lo, hi] holding all sites with probability > threshold.

    A NaN threshold raises ValueError.
    """
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
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
