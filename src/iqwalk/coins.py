"""Site-dependent coin schedules.

A schedule maps each lattice site n to a 2x2 unitary coin.  The
rotational family uses angle 2*pi*alpha*n where alpha is the inverse
period: a QuarterFraction (exact residue trig), a general Fraction
(exact quadrant trig, never perfectly reflecting unless the denominator
is a multiple of 4), or a certified irrational enclosure (mpmath trig
at payload precision, rounded once).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Union

import numpy as np

from .exact_trig import QuarterFraction, fraction_cos_sin, quarter_trig_table, trig_pair_exact
from .precision import RealEnclosure

__all__ = [
    "InversePeriod",
    "UNITARITY_TOL",
    "MIN_IRRATIONAL_DIGITS",
    "CoinSchedule",
    "RotationalSchedule",
    "RandomSchedule",
    "CustomSchedule",
    "rotation_coin",
    "reflecting_coin",
    "unitarity_defect",
    "haar_coin",
]

InversePeriod = Union[QuarterFraction, Fraction, RealEnclosure, int]

UNITARITY_TOL = 1e-12
MIN_IRRATIONAL_DIGITS = 30

_U64 = (1 << 64) - 1


def unitarity_defect(matrix: np.ndarray) -> float:
    """Largest entry of |M M^H - I|; a real M stays in real arithmetic."""
    m = np.asarray(matrix)
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    return float(np.abs(m @ m.conj().T - np.eye(m.shape[0])).max())


def rotation_coin(cos_value: float, sin_value: float) -> np.ndarray:
    """Real rotation coin [[c, -s], [s, c]]."""
    return np.array(
        [[cos_value, -sin_value], [sin_value, cos_value]], dtype=complex
    )


def reflecting_coin(phase: float = 0.0) -> np.ndarray:
    """Zero-diagonal unitary coin; acts as a perfect barrier in the walk."""
    u = complex(math.cos(phase), math.sin(phase))
    return np.array([[0.0, -u], [np.conj(u), 0.0]], dtype=complex)


def haar_coin(seed: int, n: int) -> np.ndarray:
    """Haar-distributed U(2) coin, a pure function of (seed, n).

    Uses a counter-based generator keyed on (seed, site) so coins are
    reproducible across runs and independent of evaluation order, and
    the standard four-angle parametrization of U(2).
    """
    key = np.array([seed & _U64, n & _U64], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    u = rng.random(4)
    theta = math.asin(math.sqrt(u[0]))
    phi, psi, chi = (2.0 * math.pi * x for x in u[1:])
    ct, st = math.cos(theta), math.sin(theta)
    global_phase = complex(math.cos(phi), math.sin(phi))
    epsi = complex(math.cos(psi), math.sin(psi))
    echi = complex(math.cos(chi), math.sin(chi))
    return global_phase * np.array(
        [[epsi * ct, echi * st], [-st * np.conj(echi), ct * np.conj(epsi)]],
        dtype=complex,
    )


class CoinSchedule:
    """Base schedule: caches coins per site in a buffer that doubles when outgrown."""

    def __init__(self) -> None:
        # rows (a, b, c, d); column 0 is site _origin, sites _lo.._hi are built
        self._origin, self._lo, self._hi = 0, 0, -1
        self._buffer = self._view = np.zeros((4, 0), dtype=complex)
        self._table = None  # (cos, sin) over one period of a rational schedule, once built

    def _build_coin(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def _fill(self, lo: int, stop: int) -> np.ndarray:
        return np.array([self._build_coin(n).reshape(4) for n in range(lo, stop)]).T

    def coin_at(self, n: int) -> np.ndarray:
        """2x2 unitary coin at site n (fresh array, safe to mutate)."""
        return np.array(self.coin_entries(n, n)).reshape(2, 2)

    def coin_entries(
        self, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Entry vectors (a, b, c, d) for coins at sites lo..hi inclusive.

        Returned arrays are read-only views into the schedule's cache.
        """
        if hi < lo:
            raise ValueError(f"empty site range {lo}..{hi}")
        if not self._lo <= lo <= hi <= self._hi:
            self._extend(lo, hi)
        return tuple(self._view[:, lo - self._origin : hi - self._origin + 1])

    def _extend(self, lo: int, hi: int) -> None:
        if self._hi < self._lo:
            self._lo, self._hi = lo, lo - 1
        lo, hi, old = min(lo, self._lo), max(hi, self._hi), self._origin
        if lo < old or hi >= old + self._buffer.shape[1]:
            pad = (hi - lo) // 2 + 1
            built = self._view[:, self._lo - old : self._hi - old + 1]
            self._buffer = np.pad(built, ((0, 0), (self._lo - lo + pad, hi - self._hi + pad)))
            self._origin, self._view = lo - pad, self._buffer.view()
            self._view.flags.writeable = False
        if self._table is not None:  # gathers cost no trig: fill the whole buffer
            lo, hi = self._origin, self._origin + self._buffer.shape[1] - 1
        for start, stop in ((lo, self._lo), (self._hi + 1, hi + 1)):
            self._buffer[:, start - self._origin : stop - self._origin] = self._fill(start, stop)
        self._lo, self._hi = lo, hi


class RotationalSchedule(CoinSchedule):
    """Coins rotate by 2*pi*alpha*n at site n."""

    def __init__(self, alpha: InversePeriod):
        super().__init__()
        if isinstance(alpha, RealEnclosure) and alpha.is_point:
            alpha = alpha.lo
        if isinstance(alpha, int):
            alpha = Fraction(alpha)
        if isinstance(alpha, Fraction) and alpha.denominator % 4 == 0:
            alpha = QuarterFraction.from_fraction(alpha)
        if isinstance(alpha, RealEnclosure):
            if alpha.certified_digits < MIN_IRRATIONAL_DIGITS:
                raise ValueError(
                    f"irrational inverse period needs >= {MIN_IRRATIONAL_DIGITS} "
                    f"certified digits, enclosure has {alpha.certified_digits}"
                )
        elif not isinstance(alpha, (QuarterFraction, Fraction)):
            raise TypeError(f"unsupported inverse period type {type(alpha)!r}")
        self.alpha = alpha

    @property
    def quarter_fraction(self) -> QuarterFraction | None:
        return self.alpha if isinstance(self.alpha, QuarterFraction) else None

    def angle_cos_sin(self, n: int) -> tuple[float, float]:
        """(cos, sin) of the coin angle at site n."""
        if isinstance(self.alpha, QuarterFraction):
            return trig_pair_exact(self.alpha, n)
        if isinstance(self.alpha, Fraction):
            return fraction_cos_sin(self.alpha * n)
        return self.alpha.cos_sin_two_pi(n)

    def _build_coin(self, n: int) -> np.ndarray:
        c, s = self.angle_cos_sin(n)
        return rotation_coin(c, s)

    def _fill(self, lo: int, stop: int) -> np.ndarray:
        # a rational angle depends only on num*n mod period; table entry k is bitwise
        # the per-site value.  It costs q (or b) trig calls, so it waits for a wide cache.
        f = self.alpha
        if isinstance(f, RealEnclosure):
            return super()._fill(lo, stop)
        quarter = isinstance(f, QuarterFraction)
        num, period = (f.p, f.modulus) if quarter else (f.numerator, f.denominator)
        if self._table is None:
            if self._hi - self._lo + 1 + stop - lo < (f.q if quarter else period):
                return super()._fill(lo, stop)
            self._table = quarter_trig_table(f.q) if quarter else np.array(
                [fraction_cos_sin(Fraction(k, period)) for k in range(period)]
            ).T
        cos, sin = self._table
        k = num % period * ((lo % period + np.arange(stop - lo)) % period) % period
        return np.array([cos[k], -sin[k], sin[k], cos[k]])


class RandomSchedule(CoinSchedule):
    """Independent Haar-random coins, deterministic in (seed, site)."""

    def __init__(self, seed: int):
        super().__init__()
        self.seed = int(seed)

    def _build_coin(self, n: int) -> np.ndarray:
        return haar_coin(self.seed, n)


class CustomSchedule(CoinSchedule):
    """Explicit per-site coins; unspecified sites get the identity."""

    def __init__(self, coins: Mapping[int, np.ndarray]):
        super().__init__()
        self._coins: dict[int, np.ndarray] = {}
        for n, matrix in coins.items():
            m = np.asarray(matrix, dtype=complex)
            if m.shape != (2, 2):
                raise ValueError(f"coin at site {n} has shape {m.shape}, want (2, 2)")
            defect = unitarity_defect(m)
            if not defect <= UNITARITY_TOL:
                raise ValueError(
                    f"coin at site {n} is not unitary (defect {defect:.3e})"
                )
            self._coins[int(n)] = m.copy()

    def _build_coin(self, n: int) -> np.ndarray:
        coin = self._coins.get(n)
        return np.eye(2, dtype=complex) if coin is None else coin
