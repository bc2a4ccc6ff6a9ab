"""Exact trigonometry for angles that are rational multiples of pi/2.

The walk's confinement argument hinges on coin entries being *exactly*
zero at reflecting sites, which double-precision `cos(2*pi*alpha*n)`
cannot deliver.  Instead the angle is reduced in integer arithmetic:
for alpha = p/(4q) the site-n coin angle is pi*(p*n)/(2q), so the
residue k = p*n mod 4q determines everything.  Quadrant boundaries
(k mod q == 0) return literal 0.0 / 1.0 / -1.0, and the in-quadrant
remainder is evaluated in [0, pi/4] so reflection symmetries hold
bitwise (values at r and q-r are the same floats, swapped).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, _integer

__all__ = [
    "TRIG_ERROR_BOUND",
    "TRIG_Q_MAX",
    "QuarterFraction",
    "half_pi_cos_sin",
    "quarter_trig_table",
    "fraction_cos_sin",
    "trig_pair_exact",
]

_BOUNDARY = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
_ROOT_HALF = math.sqrt(0.5)  # correctly rounded; libm cos/sin of pi/4 disagree by 1 ulp

# Every value half_pi_cos_sin returns is within this of the exact cos/sin.
# Boundary values are exact and _ROOT_HALF is off by at most u/2 (u = 2**-53,
# the unit roundoff).  Otherwise x = pi*r/(2q) <= pi/4 takes three roundings
# (math.pi, the product, the quotient), so |x~ - x| <= 3u * pi/4, which
# |d cos/dx|, |d sin/dx| <= 1 carry into the value; libm's cos/sin add at most
# 1 ulp, which is at most u for values below 1.  (3*pi/4 + 1) u < 4u.
TRIG_ERROR_BOUND = 4 * 2.0**-53

# The largest q that half_pi_cos_sin accepts.  The bound above needs every
# operand of x = math.pi * r / (2.0 * q) finite and x normal, for each
# 0 < r < q.  For q <= 2**1022: 2.0 * q <= 2**1023 and math.pi * r <=
# math.pi * 2**1022 < 2**1024 are finite (float(r) <= float(q) <= 2**1022,
# as rounding is monotone), and x >= math.pi * 2**-1023 > 2**-1022 is normal.
# math.pi * (q - 1) overflows from about 1.27 * 2**1022, and 2.0 * q from
# 2**1023 (int to float raises OverflowError from 2**1024), so 2**1022 is
# the largest power of two for which all of it holds.
TRIG_Q_MAX = 2**1022

# |fl(c*c + s*s) - 1| for every entry (c, s) of a quarter table, each within
# TRIG_ERROR_BOUND of (cos, sin) of an angle: 2 sqrt(2) E + gamma_3 (_check_table)
_ROTATION_NORM_BOUND = 2.0 * math.sqrt(2.0) * TRIG_ERROR_BOUND + 3 * 2.0**-53 / (1.0 - 3 * 2.0**-53)


@dataclass(frozen=True)
class QuarterFraction:
    """A rational inverse period p/(4q) with p odd and gcd(p, q) = 1.

    These are the inverse periods for which the coin angle hits an odd
    multiple of pi/2 at sites that are odd multiples of q, producing
    perfectly reflecting coins and a walk confined to [-q, q].
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _integer(self.p, "p"))
        object.__setattr__(self, "q", _integer(self.q, "q"))
        if self.q < 1:
            raise ValueError(f"q must be a positive integer, got {self.q}")
        if self.p < 1:
            raise ValueError(f"p must be a positive integer, got {self.p}")
        if self.p % 2 == 0:
            raise ValueError(f"p must be odd, got {self.p}")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"p and q must be coprime, got p={self.p}, q={self.q}")

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.p, 4 * self.q)

    @property
    def modulus(self) -> int:
        """Residue modulus 4q that governs every coin angle."""
        return 4 * self.q

    def canonical(self) -> "QuarterFraction":
        """Equivalent fraction with value in (0, 1); coins are identical."""
        return QuarterFraction(self.p % (4 * self.q), self.q)

    def complement(self) -> "QuarterFraction":
        """Quarter fraction for 1 - alpha (canonical form assumed)."""
        c = self.canonical()
        return QuarterFraction(4 * c.q - c.p, c.q)

    @classmethod
    def from_fraction(cls, value: Fraction) -> "QuarterFraction":
        """Build from a reduced rational whose denominator is a multiple of 4."""
        if value.denominator % 4 != 0:
            raise ValueError(
                f"{value} is not of the form p/(4q); denominator must be divisible by 4"
            )
        return cls(value.numerator, value.denominator // 4)

    def __str__(self) -> str:
        return f"{self.p}/{4 * self.q}"


def _first_quadrant(r: int, q: int) -> tuple[float, float]:
    # 0 < r < q; fold onto [0, pi/4] so r and q-r yield swapped floats
    if 2 * r == q:
        return _ROOT_HALF, _ROOT_HALF
    if 2 * r < q:
        x = math.pi * r / (2.0 * q)
        return math.cos(x), math.sin(x)
    x = math.pi * (q - r) / (2.0 * q)
    return math.sin(x), math.cos(x)


def half_pi_cos_sin(k: int, q: int) -> tuple[float, float]:
    """(cos, sin) of k*pi/(2q), exact at quadrant boundaries.

    Exact cases: k mod 2q == 0 gives (+-1.0, 0.0) and k mod 2q == q
    gives (0.0, +-1.0), as literal floats with no rounding residue.
    k and q must be integers (floats and bools raise TypeError), and q
    must lie in [1, TRIG_Q_MAX].
    """
    k, q = _integer(k, "k"), _integer(q, "q")
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    if q > TRIG_Q_MAX:
        raise ValueError(f"q must be at most 2**1022, got one of {q.bit_length()} bits")
    k %= 4 * q
    quadrant, r = divmod(k, q)
    if r == 0:
        return _BOUNDARY[quadrant]
    c, s = _first_quadrant(r, q)
    if quadrant == 0:
        return c, s
    if quadrant == 1:
        return -s, c
    if quadrant == 2:
        return -c, -s
    return s, -c


@functools.lru_cache(maxsize=64, typed=True)  # typed: 3.0 must not find the table of 3
def quarter_trig_table(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) arrays of length 4q; entry k is bitwise half_pi_cos_sin(k, q).

    The coin of p/(4q) at site n is entry p*n mod 4q.  The other quadrants
    are sign flips and swaps of the first; the boundaries are the literal
    floats, since negating 0.0 would give -0.0.  Built and proven once per
    q (_check_table), or ConvergenceError naming q; every consumer reads
    the same read-only arrays, and a failed build is not cached.
    """
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    c, s = map(np.array, zip(*[half_pi_cos_sin(r, q) for r in range(q)]))
    cos = np.concatenate((c, -s, -c, s))
    sin = np.concatenate((s, c, -s, -c))
    cos[::q], sin[::q] = zip(*_BOUNDARY)
    _check_table(q, cos, sin)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def _check_table(q: int, cos: np.ndarray, sin: np.ndarray) -> None:
    """Prove in O(q) the facts every reader of a quarter table rests on, or
    raise ConvergenceError naming q.

    - Rotation: the walk operator's corner sine of p/(4q) is entry
      -p q mod 4q, q or 3q as p is odd, so sin[q] == 1 and sin[3q] == -1
      make every corner exactly +-1.  Its coin is block diagonal, so its
      determinant is corner**2 times the product of c**2 + s**2 over its
      rotation blocks [[c, -s], [s, c]].  Each entry is within
      TRIG_ERROR_BOUND = E of an exact (cos, sin) pair, for which c**2 +
      s**2 = 1, so |c**2 + s**2 - 1| <= 2 sqrt(2) E + 2 E**2 exactly;
      evaluating c*c + s*s adds gamma_2 (c**2 + s**2) and the subtraction
      from 1 is exact (Sterbenz).  _ROTATION_NORM_BOUND = 2 sqrt(2) E +
      gamma_3 covers all of it: the E**2 terms, gamma_2 (2 sqrt(2) E +
      2 E**2) and the roundings of the constant itself are below 1e-30, far
      inside gamma_3 - gamma_2 > u.  The shift is an exact permutation, so
      U U^T = C C^T, whose diagonal is fl(c*c + s*s) and whose other
      entries are fl(c*s) - fl(s*c) = 0 exactly: no dense unitarity check
      is needed (spectral).
    - Mirror: cos[-k] == cos[k] and sin[-k] == -sin[k].  Site n reads
      entry k(n) = p n mod 4q and k(-n) = -k(n), so the coin of every p
      has cos even and sin odd over the sites, on which J U J = U rests
      (spectral._layout), and the duality residual skips the point-
      reflected terms (duality.verify_duality).
    - Quarter turn: sin[k + q] == cos[k] and cos[k + q] == -sin[k], on
      which verify_duality reads its second identity off the first.
    Floats compare with ==, so 0.0 and -0.0 count as equal.
    """
    deviation = np.abs(cos * cos + sin * sin - 1.0)
    if not (sin[q] == 1.0 and sin[3 * q] == -1.0 and np.all(deviation <= _ROTATION_NORM_BOUND)):
        raise ConvergenceError(
            f"coin table of q = {q} is not a rotation table: corner sines "
            f"{float(sin[q])!r}, {float(sin[3 * q])!r}, "
            f"largest |c^2 + s^2 - 1| = {float(deviation.max()):.3e}"
        )
    mirror = -np.arange(4 * q) % (4 * q)
    if not (np.array_equal(cos[mirror], cos) and np.array_equal(sin[mirror], -sin)):
        raise ConvergenceError(f"coin table of q = {q} is not mirror-symmetric (J U J != U)")
    if not (np.array_equal(np.roll(sin, -q), cos) and np.array_equal(np.roll(cos, -q), -sin)):
        raise ConvergenceError(f"coin table of q = {q} is not a quarter turn")


def fraction_cos_sin(turns: Fraction) -> tuple[float, float]:
    """(cos, sin) of 2*pi*turns for exact rational turns.

    Works for any denominator; quadrant boundaries are exact, so rational
    inverse periods whose denominator is not a multiple of 4 (which never
    produce reflecting coins) still evaluate consistently.  turns must be
    a Fraction; anything else raises TypeError.
    """
    if not isinstance(turns, Fraction):
        raise TypeError(f"turns must be a Fraction, got {turns!r}")
    # 2*pi*(a/b) = (4a) * pi/(2b)
    return half_pi_cos_sin(4 * turns.numerator, turns.denominator)


def trig_pair_exact(f: QuarterFraction, n: int) -> tuple[float, float]:
    """(cos, sin) of 2*pi*(p/(4q))*n via integer residue reduction.

    The only rounding is the final in-quadrant cos/sin evaluation; at
    reflecting sites (p*n == q mod 2q) the cosine is bit-zero and the
    sine is exactly +-1.0.  n must be an integer.
    """
    return half_pi_cos_sin(f.p * _integer(n, "site"), f.q)
