"""Site-dependent coin schedules.

A schedule maps each lattice site n to a 2x2 unitary coin.  The
rotational family uses angle 2*pi*alpha*n where alpha is the inverse
period: a QuarterFraction (exact residue trig), a general Fraction
(exact quadrant trig, never perfectly reflecting unless the denominator
is a multiple of 4), or a certified irrational enclosure (the doubles of
mpmath trig at payload precision, rounded once, decided a span at a
time in exact integer arithmetic).  Haar-random coins come from a
counter-based generator keyed on (seed, site); a schedule builds them a
whole buffer at a time, bitwise equal to haar_coin.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import _integer
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
    the standard four-angle parametrization of U(2).  seed and n must be
    integers; floats and bools raise TypeError.
    """
    key = np.array(
        [_integer(seed, "seed") & _U64, _integer(n, "site") & _U64], dtype=np.uint64
    )
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


# Philox4x64-10 (Salmon et al., "Random123", SC'11): multipliers and key bumps,
# rows for counter words 0 and 2.  The limbs are split in Python, since a first
# integer ufunc call at import would map numpy code that only Haar walks use.
_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_M = np.array([[m] for m in _MULTIPLIERS], dtype=np.uint64)
_M_LO = np.array([[m & 0xFFFFFFFF] for m in _MULTIPLIERS], dtype=np.uint64)
_M_HI = np.array([[m >> 32] for m in _MULTIPLIERS], dtype=np.uint64)
_LO32 = np.uint64(0xFFFFFFFF)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)


def _mulhilo(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products _PHILOX_M * b, by 32-bit limbs."""
    b_lo, b_hi = b & _LO32, b >> 32
    t = _M_HI * b_lo + ((_M_LO * b_lo) >> 32)  # < 2**64, as is u
    u = _M_LO * b_hi + (t & _LO32)
    return _M_HI * b_hi + (t >> 32) + (u >> 32), _PHILOX_M * b


def _philox_words(seed: int, spans: Iterable[range]) -> np.ndarray:
    """(4, m) uint64: Philox4x64-10 of counter (1, 0, 0, 0) under key (seed, n)
    for each site n of spans, in order.

    This is the first block numpy's Philox(key=(seed, n)) returns, so column
    j equals Philox(key=...).random_raw(4) for the j-th site.
    """
    sites = np.concatenate(
        [np.arange(len(s), dtype=np.uint64) + np.uint64(s.start & _U64) for s in spans]
    )
    key = np.array([np.full_like(sites, seed & _U64), sites])
    even = np.zeros_like(key)  # counter words 0 and 2
    even[0] = 1
    odd = np.zeros_like(key)  # counter words 1 and 3
    for r in range(10):
        if r:
            key += _PHILOX_W
        hi, lo = _mulhilo(even)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    return np.array([even[0], odd[0], even[1], odd[1]])


def _per_site(f, values: np.ndarray) -> np.ndarray:
    """f applied to each float of a 1-D array, one Python call per entry."""
    return np.fromiter(map(f, memoryview(values)), float, len(values))


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _times_real(re: np.ndarray, im: np.ndarray, x: np.ndarray) -> np.ndarray:
    # a complex scalar times a float, as CPython and numpy scalars compute it:
    # x becomes x + 0i, which fixes the signs of zero products
    return _complex(re * x - im * 0.0, re * 0.0 + im * x)


def _haar_batch(seed: int, spans: Iterable[range]) -> np.ndarray:
    """(4, m) entry rows (a, b, c, d) of haar_coin(seed, n) for the sites of
    spans, bitwise equal to it.

    The generator runs as one array pass.  The trig stays per site in math,
    since numpy's vector arcsin, cos and sin may round differently.  The
    global phase multiplies as an array product, as in haar_coin: numpy's
    complex array multiply may fuse its roundings, which no scalar formula
    reproduces.
    """
    u = (_philox_words(seed, spans) >> 11) * 2.0**-53
    theta = _per_site(math.asin, np.sqrt(u[0]))
    ct, st = _per_site(math.cos, theta), _per_site(math.sin, theta)
    angles = (2.0 * math.pi * u[1:]).ravel()
    (cphi, cpsi, cchi), (sphi, spsi, schi) = (
        _per_site(trig, angles).reshape(3, -1) for trig in (math.cos, math.sin)
    )
    coins = np.array(
        [
            _times_real(cpsi, spsi, ct),
            _times_real(cchi, schi, st),
            _times_real(cchi, -schi, -st),
            _times_real(cpsi, -spsi, ct),
        ]
    )
    return np.multiply(_complex(cphi, sphi), coins)


class CoinSchedule:
    """Base schedule: caches coins per site in a buffer that grows by at least half
    when outgrown."""

    def __init__(self) -> None:
        # rows (a, b, c, d); column 0 is site _origin, sites _lo.._hi are built
        self._origin, self._lo, self._hi = 0, 0, -1
        self._buffer = np.zeros((4, 0), dtype=complex)
        self._rows = self._read_only_rows()

    def _read_only_rows(self) -> tuple[np.ndarray, ...]:
        """Read-only views of the buffer's four rows, taken once per buffer."""
        view = self._buffer.view()
        view.flags.writeable = False
        return tuple(view)

    def _build_coin(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def _fill(self, spans: tuple[range, range]) -> np.ndarray:
        """Entry rows (4, m) for the sites of spans, in order."""
        coins = [self._build_coin(n).reshape(4) for span in spans for n in span]
        return np.array(coins, dtype=complex).reshape(-1, 4).T

    def _fills_buffer(self) -> bool:
        """Whether _fill is cheap per site beside its fixed cost, so each
        reallocation fills the whole buffer in one call."""
        return False

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
        i, j = lo - self._origin, hi - self._origin + 1
        a, b, c, d = self._rows
        return a[i:j], b[i:j], c[i:j], d[i:j]

    def _extend(self, lo: int, hi: int) -> None:
        if self._hi < self._lo:
            self._lo, self._hi = lo, lo - 1
        lo, hi, old = min(lo, self._lo), max(hi, self._hi), self._origin
        if lo < old or hi >= old + self._buffer.shape[1]:
            # the new buffer holds the request and is at least half as wide again as the
            # old one, the room split between both ends: amortised when requests grow by
            # a few sites, and no room to fill when each request doubles, as walks fetch
            span = hi - lo + 1
            width = max(span, 3 * self._buffer.shape[1] // 2)
            origin = lo - (width - span) // 2
            buffer = np.zeros((4, width), dtype=complex)
            at = self._lo - origin
            buffer[:, at : at + self._hi - self._lo + 1] = self._buffer[
                :, self._lo - old : self._hi - old + 1
            ]
            self._buffer, self._origin = buffer, origin
            self._rows = self._read_only_rows()
        if self._fills_buffer():
            lo, hi = self._origin, self._origin + self._buffer.shape[1] - 1
        left, right = range(lo, self._lo), range(self._hi + 1, hi + 1)
        entries, o = self._fill((left, right)), self._origin
        self._buffer[:, left.start - o : left.stop - o] = entries[:, : len(left)]
        self._buffer[:, right.start - o : right.stop - o] = entries[:, len(left) :]
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
        self._table = None  # (cos, sin) over one period of a rational alpha, once built

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

    def _fills_buffer(self) -> bool:
        # gathers cost no trig, and an irrational span a few integer products per site
        return self._table is not None or isinstance(self.alpha, RealEnclosure)

    def _fill(self, spans: tuple[range, range]) -> np.ndarray:
        # a rational angle depends only on num*n mod period; table entry k is bitwise
        # the per-site value.  It costs q (or b) trig calls, so it waits for a wide cache.
        f = self.alpha
        if isinstance(f, RealEnclosure):
            cos, sin = np.concatenate([f.cos_sin_two_pi_span(span) for span in spans], axis=1)
            return np.array([cos, -sin, sin, cos])
        quarter = isinstance(f, QuarterFraction)
        num, period = (f.p, f.modulus) if quarter else (f.numerator, f.denominator)
        if self._table is None:
            if self._hi - self._lo + 1 + sum(map(len, spans)) < (f.q if quarter else period):
                return super()._fill(spans)
            self._table = quarter_trig_table(f.q) if quarter else np.array(
                [fraction_cos_sin(Fraction(k, period)) for k in range(period)]
            ).T
        cos, sin = self._table
        sites = np.concatenate([span.start % period + np.arange(len(span)) for span in spans])
        k = num % period * (sites % period) % period
        return np.array([cos[k], -sin[k], sin[k], cos[k]])


class RandomSchedule(CoinSchedule):
    """Independent Haar-random coins, deterministic in (seed, site).

    The cache is filled a whole buffer at a time by _haar_batch, bitwise
    equal to haar_coin(seed, n) at every site.
    """

    def __init__(self, seed: int):
        super().__init__()
        self.seed = _integer(seed, "seed")

    def _build_coin(self, n: int) -> np.ndarray:
        return haar_coin(self.seed, n)

    def _fills_buffer(self) -> bool:
        return True  # a batch's cost is mostly its fixed array passes

    def _fill(self, spans: tuple[range, range]) -> np.ndarray:
        return _haar_batch(self.seed, spans)


class CustomSchedule(CoinSchedule):
    """Explicit per-site coins; unspecified sites get the identity.

    Sites must be integers; floats, bools and strings raise TypeError.
    """

    def __init__(self, coins: Mapping[int, np.ndarray]):
        super().__init__()
        self._coins: dict[int, np.ndarray] = {}
        for key, matrix in coins.items():
            n = _integer(key, "site")
            m = np.asarray(matrix, dtype=complex)
            if m.shape != (2, 2):
                raise ValueError(f"coin at site {n} has shape {m.shape}, want (2, 2)")
            defect = unitarity_defect(m)
            if not defect <= UNITARITY_TOL:
                raise ValueError(
                    f"coin at site {n} is not unitary (defect {defect:.3e})"
                )
            self._coins[n] = m.copy()

    def _build_coin(self, n: int) -> np.ndarray:
        coin = self._coins.get(n)
        return np.eye(2, dtype=complex) if coin is None else coin
