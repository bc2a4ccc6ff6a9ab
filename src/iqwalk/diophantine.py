"""Certified Diophantine approximation by quarter fractions.

Every bound here is decided in exact rational arithmetic over the
input's enclosure, never in floating point.  A partial quotient is
emitted only when both enclosure endpoints agree on it, so the
expansion can never be altered by rounding.  Approximant candidates
p/(4q) are the integers that floor and ceiling division of the
enclosure's ends leave for each q, and their certificates
|alpha - p/(4q)| < 1/(4q^2) are exact Fraction comparisons, so the
search works for alpha of any magnitude, inside double range or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    IndecisiveError,
    NoApproximantFoundError,
    PrecisionExhaustedError,
    RationalInputError,
    _integer,
)
from .exact_trig import QuarterFraction
from .precision import RealEnclosure

__all__ = [
    "ContinuedFraction",
    "Convergent",
    "QuarterApproximant",
    "continued_fraction",
    "convergents",
    "verify_bound",
    "quarter_approximants",
    "DEFAULT_Q_MAX",
]

DEFAULT_Q_MAX = 100_000


@dataclass(frozen=True)
class ContinuedFraction:
    """Certified partial quotients [a0; q1, q2, ...] of a real value."""

    a0: int
    partial_quotients: tuple[int, ...]
    source_precision: int
    terminated: bool
    source: RealEnclosure = field(repr=False)


@dataclass(frozen=True)
class Convergent:
    """Reduced convergent a/b with its certified Dirichlet flag."""

    numerator: int
    denominator: int
    error_bound_ok: bool

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


@dataclass(frozen=True)
class QuarterApproximant:
    """Quarter fraction p/(4q) approximating an irrational inverse period.

    certified=True means |alpha - p/(4q)| < 1/(4q^2) was proven with
    exact rational arithmetic over the stored enclosure.
    """

    fraction: QuarterFraction
    certified: bool


def continued_fraction(alpha: RealEnclosure, max_depth: int = 64) -> ContinuedFraction:
    """Expand alpha into certified partial quotients.

    Stops early (without error) once the enclosure can no longer decide
    the next quotient; terminates exactly for rational point inputs.
    Raises PrecisionExhaustedError only when not even the integer part
    is decided, and ValueError for non-positive alpha.  max_depth must
    be an integer.
    """
    max_depth = _integer(max_depth, "max_depth")
    if alpha.hi <= 0:
        raise ValueError("continued fraction input must be positive")
    if alpha.lo <= 0:
        raise PrecisionExhaustedError(
            f"enclosure {alpha} straddles 0; sign of alpha undecided"
        )
    if max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    a0 = math.floor(alpha.lo)
    if math.floor(alpha.hi) != a0:
        raise PrecisionExhaustedError(
            f"enclosure {alpha} is too wide to certify the integer part"
        )
    lo, hi = alpha.lo - a0, alpha.hi - a0
    quotients: list[int] = []
    terminated = False
    while len(quotients) < max_depth:
        if hi == 0:
            terminated = True  # exact rational, expansion complete
            break
        if lo == 0:
            break  # true value may sit on a rational; cannot certify more
        inv_lo, inv_hi = 1 / hi, 1 / lo
        a = math.floor(inv_lo)
        if math.floor(inv_hi) != a:
            break  # endpoints disagree; precision exhausted here
        quotients.append(a)
        lo, hi = inv_lo - a, inv_hi - a
    return ContinuedFraction(
        a0, tuple(quotients), alpha.certified_digits, terminated, alpha
    )


def convergents(cf: ContinuedFraction) -> list[Convergent]:
    """Convergents of the expansion, each with its exact Dirichlet flag.

    The flag is true iff sup |alpha - a/b| < 1/b^2 holds over the whole
    source enclosure (so it certifies the true value, not a rounding).
    """
    out: list[Convergent] = []
    h_prev, h = 1, cf.a0
    k_prev, k = 0, 1
    lo, hi = cf.source.lo, cf.source.hi
    for a in (None, *cf.partial_quotients):
        if a is not None:
            h, h_prev = a * h + h_prev, h
            k, k_prev = a * k + k_prev, k
        target = Fraction(h, k)
        sup = max(abs(lo - target), abs(hi - target))
        out.append(Convergent(h, k, sup < Fraction(1, k * k)))
    return out


def verify_bound(alpha: RealEnclosure, f: QuarterFraction) -> bool:
    """Exact check of sup |alpha - p/(4q)| < 1/(4q^2) over the enclosure.

    Raises IndecisiveError when the enclosure is too wide for the
    comparison to be meaningful (width >= 1/(8q^2)).
    """
    q2 = f.q * f.q
    if alpha.width >= Fraction(1, 8 * q2):
        raise IndecisiveError(
            f"enclosure width {float(alpha.width):.3e} is too coarse to decide "
            f"the Dirichlet bound at q={f.q}"
        )
    target = f.alpha
    sup = max(abs(alpha.lo - target), abs(alpha.hi - target))
    return sup < Fraction(1, 4 * q2)


def quarter_approximants(
    alpha: RealEnclosure, count: int = 3, q_max: int = DEFAULT_Q_MAX
) -> list[QuarterApproximant]:
    """First `count` certified quarter-fraction approximants, by ascending q.

    |alpha - p/(4q)| < 1/(4q^2) over the whole enclosure holds exactly
    for the integers p strictly between 4q*hi - 1/q and 4q*lo + 1/q, so
    for every q the candidates are those integers, found by floor and
    ceiling division on the endpoints' numerators and denominators; at
    most one of them is odd.  Each odd candidate coprime to q is
    certified by verify_bound before being kept, so the result for
    count k is always a prefix of the result for count k+1.  The search
    stops where the bound becomes undecidable (8 q^2 width >= 1).
    Fewer than `count` hits within q_max is reported as a short list;
    zero hits raises NoApproximantFoundError.  No step leaves integer
    arithmetic, so an enclosure beyond double range is searched like
    any other and raises no ValueError.  count and q_max must be integers.
    """
    count, q_max = _integer(count, "count"), _integer(q_max, "q_max")
    if count < 1:
        raise ValueError("count must be at least 1")
    if q_max < 1:
        raise ValueError("q_max must be at least 1")
    if alpha.is_point:
        raise RationalInputError(
            f"{alpha} is exactly rational at the stored precision; "
            "quarter approximants need an irrational enclosure"
        )
    lo_num, lo_den = alpha.lo.numerator, alpha.lo.denominator
    hi_num, hi_den = alpha.hi.numerator, alpha.hi.denominator
    width = alpha.width
    # the last q with 8 q^2 width < 1; the bound check is undecidable beyond it
    q_stop = math.isqrt((width.denominator - 1) // (8 * width.numerator))
    out: list[QuarterApproximant] = []
    for q in range(1, min(q_max, q_stop) + 1):
        four_q2 = 4 * q * q
        # p > (4q^2 hi - 1) / q and p < (4q^2 lo + 1) / q
        first = (four_q2 * hi_num - hi_den) // (q * hi_den) + 1
        last = -((-four_q2 * lo_num - lo_den) // (q * lo_den)) - 1
        for p in range(max(first, 1) | 1, last + 1, 2):
            if math.gcd(p, q) != 1:
                continue
            f = QuarterFraction(p, q)
            if verify_bound(alpha, f):
                out.append(QuarterApproximant(f, True))
        if len(out) >= count:
            return out
    if not out:
        if q_stop >= q_max:
            detail = f"no certified approximant with q <= {q_max}"
        elif q_stop == 0:
            detail = "stored precision ran out before any bound check became decidable"
        else:
            detail = f"stored precision ran out after q = {q_stop} with no certified approximant"
        raise NoApproximantFoundError(f"{alpha}: {detail}")
    return out
