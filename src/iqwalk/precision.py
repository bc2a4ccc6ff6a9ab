"""Certified high-precision reals as exact rational enclosures.

An irrational inverse period is carried as a pair of `Fraction` bounds
lo <= x <= hi whose width certifies how many significant digits are
known.  All number-theoretic bound checks then reduce to exact rational
comparisons, and trig values are evaluated with mpmath at the payload
precision and rounded to double exactly once.  Whole spans of sites get
the same doubles from exact fixed-point powers of e^{2 pi i x}, with
mpmath called only where that arithmetic cannot decide the rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath
import numpy as np
from mpmath import mp
from mpmath.libmp import dps_to_prec, to_rational

from .errors import IndecisiveError, _integer

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

# Binary places of the fixed-point powers in cos_sin_two_pi_span
_FIXED_BITS = 256


def _mpf_raw_to_fraction(raw) -> Fraction:
    num, den = to_rational(raw)
    return Fraction(int(num), int(den))


@dataclass(frozen=True)
class RealEnclosure:
    """Exact rational bounds lo <= x <= hi on a real value x.

    A zero-width enclosure represents an exactly rational value.  The
    enclosure, not any floating-point image of it, is the ground truth
    for every exact comparison in this package, so the ends must be ints
    or Fractions (stored as Fractions); floats and bools raise TypeError.
    """

    lo: Fraction
    hi: Fraction
    label: str | None = None

    def __post_init__(self) -> None:
        for end in ("lo", "hi"):
            value = getattr(self, end)
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise TypeError(f"enclosure end {end} must be an int or a Fraction, got {value!r}")
            object.__setattr__(self, end, Fraction(value))
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
        """Significant decimal digits certified by the enclosure width.

        max(0, floor(log10(|midpoint| / width))), with |midpoint| taken as
        1 when it is 0, in exact integer arithmetic, so no width is too
        small or too large for a double.
        """
        if self.is_point:
            return 10**6
        ratio = (abs(self.midpoint) or 1) // self.width
        if ratio < 1:
            return 0
        # floor(log10(x)) = floor(log10(floor(x))) for x >= 1; the float guess may be off by one
        digits = int(math.log10(ratio))
        while 10**digits > ratio:
            digits -= 1
        while 10 ** (digits + 1) <= ratio:
            digits += 1
        return digits

    def fractional_part(self) -> "RealEnclosure":
        """Enclosure of x mod 1; both endpoints must share their floor."""
        fl = math.floor(self.lo)
        if math.floor(self.hi) != fl:
            raise IndecisiveError(
                f"enclosure {self} straddles an integer; fractional part undecided"
            )
        name = f"{self.label} mod 1" if self.label else None
        return RealEnclosure(self.lo - fl, self.hi - fl, name)

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

    @cached_property
    def _turn_fixed(self) -> tuple[int, int]:
        # e^{2 pi i x} at the trig midpoint x, as integers within 1 of
        # 2**_FIXED_BITS cos(2 pi x) and 2**_FIXED_BITS sin(2 pi x), computed once
        x = self._trig_midpoint[1]
        with mp.workprec(_FIXED_BITS + 64):
            c, s = mpmath.cos_sin(2 * mp.pi * mpmath.frac(x))
            return int(mpmath.nint(c * 2**_FIXED_BITS)), int(mpmath.nint(s * 2**_FIXED_BITS))

    def cos_sin_two_pi(self, n: int) -> tuple[float, float]:
        """(cos, sin) of 2*pi*x*n, evaluated at payload precision.

        Bound for every integer n.  Let m be the midpoint, w the width,
        d = min(certified digits, 120) + 10 the working digits and
        u = 2**-p, where p = dps_to_prec(d) is their binary precision.
        Each returned value is within

            1/2 ulp + pi*|n|*w + u*(63*|m|*|n| + 4)

        of the exact (cos, sin) of 2*pi*xi*n, for the real xi the
        enclosure holds.  The terms:
        - x, the midpoint at working precision, lies within 2.01*u*|m|
          of m after two roundings, and m within w/2 of xi;
        - the argument 2*pi*x*n takes three roundings, so it lies within
          8*u*|2*pi*x*n| of the exact product (3.01*u for rounding to
          nearest, with room for directed rounding);
        - mpmath's cos_sin works with 10 guard bits and rounds once, and
          is taken to be within 4*u of cos and sin of its argument;
        - the conversion to double adds 1/2 ulp.
        With d <= 130 the width term dominates.  For the named constants
        at 40 digits (w near 3.4e-49) the terms beside the 1/2 ulp stay
        below 2**-60 for |n| up to 10**29, and grow linearly beyond.
        """
        n = _integer(n, "site")
        dps, x = self._trig_midpoint
        with mp.workdps(dps):
            c, s = mpmath.cos_sin(2 * mp.pi * x * n)
            return float(c), float(s)

    def cos_sin_two_pi_span(self, sites: range) -> np.ndarray:
        """(2, len(sites)) float array of cos and sin of 2*pi*x*n, n in sites,
        a range of step 1.

        Every column is bitwise cos_sin_two_pi(n).  The values come from
        exact integer arithmetic at F = 256 binary places; a site whose
        rounding that arithmetic cannot decide calls cos_sin_two_pi.

        Error derivation, in units of 2**-F and as complex moduli:
        - z = (X + iY) / 2**F approximates e^{2 pi i x}.  mpmath gives
          cos and sin of 2*pi*frac(x) at F + 64 bits, within 2**-(F+57)
          absolute, and X, Y are those values times 2**F rounded to the
          nearest integer.  So each part is within 1 unit, and z within
          2 units.
        - A product of approximations with errors ea and eb of two unit
          complex numbers differs from the exact product by at most
          ea + eb + ea*eb*2**-F.  Each part is then shifted right by F
          with floor, which adds less than 1 per part, sqrt(2) in
          modulus.  So the error of the product is at most
          ea + eb + floor(ea*eb / 2**F) + 3.
        - z**start comes from repeated squaring of z (or of its
          conjugate, for a negative start), and the error bound follows
          each product with that formula, exactly, in integers.
        - Each next site multiplies by z once.  While the bound e stays
          below 2**(F-1), that adds at most 2 + 0 + 3 = 5.  So the last
          site of the span is within e_start + 5*(len - 1).  A bound of
          2**(F-1) or more decides no site, so nothing rests on the
          linear growth past it.
        - cos_sin_two_pi(n) rounds an mpmath value that lies within
          u*(8*2*pi*|x|*|n| + 4) of cos and sin of 2*pi*x*n, by the terms
          above.  In units that is at most
          floor((51*(floor|x| + 1)*max|n| + 4) * 2**F / 2**p) + 1.
        The sum t of both bounds is the half-width of the interval around
        each part.  float() of an int rounds correctly to nearest, and
        the scaling by 2**-F is exact.  If X - t and X + t round to the
        same double, so does every real between them, the mpmath value
        among them, since rounding to nearest is monotone.  At n = 0 the
        sine is exactly 0, the interval straddles it and the site falls
        back.  Elsewhere a site falls back only if its value lies within
        t of a rounding boundary; for the named constants at 40 digits t
        is near 2**-175 at |n| = 2*10**4 and 2**-159 at |n| = 10**9.
        """
        if sites.step != 1:
            raise ValueError(f"sites must be a range of step 1, got {sites!r}")
        if not sites:
            return np.empty((2, 0))
        bits = _FIXED_BITS
        dps, x = self._trig_midpoint
        zr, zi = self._turn_fixed
        br, bi, base_err = zr, (zi if sites.start >= 0 else -zi), 2
        wr, wi, err = 1 << bits, 0, 0
        k = abs(sites.start)
        while k:
            if k & 1:
                wr, wi = (wr * br - wi * bi) >> bits, (wr * bi + wi * br) >> bits
                err += base_err + (err * base_err >> bits) + 3
            k >>= 1
            if k:
                br, bi = (br * br - bi * bi) >> bits, (2 * br * bi) >> bits
                base_err += base_err + (base_err * base_err >> bits) + 3
        err += 5 * (len(sites) - 1)
        n_max = max(abs(sites.start), abs(sites[-1]))
        reference = ((51 * (int(abs(x)) + 1) * n_max + 4) << bits >> dps_to_prec(dps)) + 1
        tol, scale = err + reference, 2.0**-bits
        cos, sin = [], []
        for n in sites:
            c, s = float(wr - tol), float(wi - tol)
            if c == float(wr + tol) and s == float(wi + tol):
                c, s = c * scale, s * scale
            else:
                c, s = self.cos_sin_two_pi(n)
            cos.append(c)
            sin.append(s)
            wr, wi = (wr * zr - wi * zi) >> bits, (wr * zi + wi * zr) >> bits
        return np.array([cos, sin])

    @classmethod
    def from_fraction(cls, value: Fraction, label: str | None = None) -> "RealEnclosure":
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
        uncertainty_last_place = _integer(uncertainty_last_place, "uncertainty_last_place")
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
