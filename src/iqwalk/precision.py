"""Certified high-precision reals as exact rational enclosures.

An irrational inverse period is carried as a pair of `Fraction` bounds
lo <= x <= hi whose width certifies how many significant digits are
known.  All number-theoretic bound checks then reduce to exact rational
comparisons, and trig values are evaluated with mpmath at the payload
precision and rounded to double exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath
from mpmath import mp
from mpmath.libmp import to_rational

from .errors import IndecisiveError

__all__ = [
    "RealEnclosure",
    "pi_half",
    "golden_mean",
    "sqrt2_minus_one",
    "NAMED_CONSTANTS",
]

# Trig evaluation never needs more working digits than this; enclosures
# built from the named constants carry ~40 certified digits anyway.
_MAX_TRIG_DPS = 120


def _mpf_raw_to_fraction(raw) -> Fraction:
    num, den = to_rational(raw)
    return Fraction(int(num), int(den))


@dataclass(frozen=True)
class RealEnclosure:
    """Exact rational bounds lo <= x <= hi on a real value x.

    A zero-width enclosure represents an exactly rational value.  The
    enclosure, not any floating-point image of it, is the ground truth
    for every exact comparison in this package.
    """

    lo: Fraction
    hi: Fraction
    label: str | None = None

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty enclosure: lo={self.lo} > hi={self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def certified_digits(self) -> int:
        """Significant decimal digits certified by the enclosure width."""
        if self.is_point:
            return 10**6
        scale = abs(self.midpoint)
        if scale == 0:
            scale = Fraction(1)
        rel = self.width / scale
        return max(0, int(-math.log10(rel)))

    def fractional_part(self) -> "RealEnclosure":
        """Enclosure of x mod 1; both endpoints must share their floor."""
        fl = math.floor(self.lo)
        if math.floor(self.hi) != fl:
            raise IndecisiveError(
                f"enclosure {self} straddles an integer; fractional part undecided"
            )
        name = f"{self.label} mod 1" if self.label else None
        return RealEnclosure(self.lo - fl, self.hi - fl, name)

    def scaled(self, factor: int) -> "RealEnclosure":
        """Enclosure of factor * x for a positive integer factor."""
        if factor < 1:
            raise ValueError("factor must be a positive integer")
        name = f"{factor}*{self.label}" if self.label else None
        return RealEnclosure(self.lo * factor, self.hi * factor, name)

    def to_mpf(self, dps: int | None = None) -> mpmath.mpf:
        """Midpoint as an mpmath float at the given working precision."""
        if dps is None:
            return self._trig_midpoint[1]
        mid = self.midpoint
        with mp.workdps(dps):
            return mp.mpf(mid.numerator) / mid.denominator

    @cached_property
    def _trig_midpoint(self) -> tuple[int, mpmath.mpf]:
        # the trig working precision and the midpoint at it, computed once
        dps = min(self.certified_digits, _MAX_TRIG_DPS) + 10
        return dps, self.to_mpf(dps)

    def cos_sin_two_pi(self, n: int) -> tuple[float, float]:
        """(cos, sin) of 2*pi*x*n, evaluated at payload precision.

        Worst-case rounding: the high-precision value is exact to the
        payload's certified digits (minus ~4 digits of argument
        reduction for |n| up to 10^4), then rounded once to double, so
        the result is within 1 ulp of the true value for any enclosure
        carrying 30+ digits.
        """
        dps, x = self._trig_midpoint
        with mp.workdps(dps):
            c, s = mpmath.cos_sin(2 * mp.pi * x * n)
            return float(c), float(s)

    @classmethod
    def from_fraction(cls, value: Fraction, label: str | None = None) -> "RealEnclosure":
        value = Fraction(value)
        return cls(value, value, label)

    @classmethod
    def from_decimal(
        cls, text: str, uncertainty_last_place: int = 0, label: str | None = None
    ) -> "RealEnclosure":
        """Parse a decimal literal exactly.

        With uncertainty_last_place = 0 the result is a point enclosure
        (the literal taken as an exact rational).  A positive value u
        widens it to +- u units of the last printed decimal place,
        modelling "correct to the digits shown".
        """
        value = Fraction(text)
        if uncertainty_last_place < 0:
            raise ValueError("uncertainty must be non-negative")
        if uncertainty_last_place == 0:
            return cls(value, value, label or text)
        stripped = text.strip().lower()
        mantissa = stripped.split("e")[0]
        places = len(mantissa.split(".")[1]) if "." in mantissa else 0
        if "e" in stripped:
            places -= int(stripped.split("e")[1])
        ulp = Fraction(1, 10) ** places * uncertainty_last_place
        return cls(value - ulp, value + ulp, label or text)

    def __str__(self) -> str:
        if self.label:
            return self.label
        return mpmath.nstr(self.to_mpf(), 20)


def _certified_constant(label: str, digits: int, build) -> RealEnclosure:
    iv = mpmath.iv
    saved = iv.prec
    try:
        iv.prec = int(digits * 3.322) + 30
        lo_raw, hi_raw = build(iv)._mpi_
    finally:
        iv.prec = saved
    enc = RealEnclosure(_mpf_raw_to_fraction(lo_raw), _mpf_raw_to_fraction(hi_raw), label)
    if enc.certified_digits < digits:
        raise ArithmeticError(f"interval evaluation of {label} lost precision")
    return enc


def pi_half(digits: int = 40) -> RealEnclosure:
    """pi/2 certified to the requested number of significant digits."""
    return _certified_constant("pi/2", digits, lambda iv: iv.pi / 2)


def golden_mean(digits: int = 40) -> RealEnclosure:
    """(sqrt(5) - 1)/2, the golden mean, certified."""
    return _certified_constant("golden", digits, lambda iv: (iv.sqrt(iv.mpf(5)) - 1) / 2)


def sqrt2_minus_one(digits: int = 40) -> RealEnclosure:
    """sqrt(2) - 1, the silver-ratio fractional part, certified."""
    return _certified_constant("sqrt2-1", digits, lambda iv: iv.sqrt(iv.mpf(2)) - 1)


NAMED_CONSTANTS = {
    "pi/2": pi_half,
    "golden": golden_mean,
    "sqrt2-1": sqrt2_minus_one,
}
