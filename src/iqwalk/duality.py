"""Self-duality: the basis in which shift and coin exchange roles.

On the 4q-site ring the (not normalized) dual vectors

    |n, L~> = sum_m [ sin(2*pi*alpha*m*n) |m, L> + cos(2*pi*alpha*m*n) |m, R> ]
    |n, R~> = sum_m [ cos(2*pi*alpha*m*n) |m, L> + sin(2*pi*alpha*m*n) |m, R> ]

diagonalize the shift sitewise (the shift acts on them like a rotation
coin at site n) while the coin translates them by one dual site.  The
ring is a finite proxy for the infinite lattice: because every trig
argument reduces mod 4q exactly, the role-swap identities close on the
ring with no truncation error beyond double rounding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import _integer
from .exact_trig import QuarterFraction, quarter_trig_table

__all__ = [
    "RingState",
    "DualVector",
    "DualityResiduals",
    "ring_shift",
    "ring_coin",
    "dual_vector",
    "verify_duality",
]


@dataclass(frozen=True)
class RingState:
    """Chirality amplitude pairs on the periodic ring Z_M."""

    amplitudes: np.ndarray  # (M, 2) complex

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 2 or amps.shape[1] != 2 or amps.shape[0] < 1:
            raise ValueError(f"amplitudes must have shape (M, 2), got {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def size(self) -> int:
        return len(self.amplitudes)


@dataclass(frozen=True)
class DualVector:
    """Dual basis vector |n, chirality~> expanded over ring sites.

    Not normalized; its squared norm is the trig sum over the ring.
    """

    f: QuarterFraction
    n: int
    chirality: str
    amplitudes: np.ndarray


def ring_shift(state: RingState) -> RingState:
    """Chirality-conditioned shift with periodic wrap-around."""
    left = np.roll(state.amplitudes[:, 0], -1)  # site m receives L from m+1
    right = np.roll(state.amplitudes[:, 1], 1)  # and R from m-1
    return RingState(np.column_stack([left, right]))


def _residues(step: int, q: int, size: int) -> np.ndarray:
    # step*m mod 4q for m = 0 .. size-1: the trig table entries along the ring
    return step % (4 * q) * np.arange(size) % (4 * q)


def ring_coin(f: QuarterFraction, state: RingState) -> RingState:
    """Sitewise rotation coins on the ring, exact residue trig."""
    cos, sin = quarter_trig_table(f.q)
    k = _residues(f.p, f.q, state.size)
    cos_vals, sin_vals = cos[k], sin[k]
    left = state.amplitudes[:, 0]
    right = state.amplitudes[:, 1]
    return RingState(
        np.column_stack(
            [cos_vals * left - sin_vals * right, sin_vals * left + cos_vals * right]
        )
    )


def dual_vector(f: QuarterFraction, n: int, chirality: str) -> DualVector:
    """Dual basis vector at dual site n; periodic in n with period 4q.

    n must be an integer (TypeError for floats and bools).
    """
    n = _integer(n, "dual site")
    if chirality not in ("L", "R"):
        raise ValueError(f"chirality must be 'L' or 'R', got {chirality!r}")
    cos, sin = quarter_trig_table(f.q)
    k = _residues(f.p * n, f.q, f.modulus)
    c, s = cos[k], sin[k]
    amps = np.column_stack([s, c] if chirality == "L" else [c, s]).astype(complex)
    return DualVector(f, n, chirality, amps)


@dataclass(frozen=True)
class DualityResiduals:
    """Worst-case residuals of the two role-swap identities on the ring."""

    shift_as_coin: float
    coin_as_shift: float

    def max(self) -> float:
        return max(self.shift_as_coin, self.coin_as_shift)


def verify_duality(f: QuarterFraction) -> DualityResiduals:
    """Check both role-swap identities for every dual site and chirality.

    shift_as_coin: the shift acts on |n, L~>, |n, R~> as the rotation
    coin with the site-n angle.  coin_as_shift: the coin maps |n, L~>
    to |n-1, L~> and |n, R~> to |n+1, R~>.  Residuals are max absolute
    amplitude deviations; for exact-boundary fractions such as q = 1
    they are exactly zero.  They depend on q alone, not on p.

    Only the first identity is evaluated.  The amplitude matrices are
    symmetric in (m, n), since their residue is p*m*n mod 4q, so each
    coin-identity residual matrix is the negated transpose of a
    shift-identity one, built from the same products: the two maxima
    are the same float.

    Of its four chirality terms two are needed.  The point reflection
    (m, n) -> (-m, -n) keeps the residue p*m*n and swaps the rolls by +1
    and -1; the table's mirror (cos[-k] == cos[k], sin[-k] == -sin[k])
    fixes the coin cosine and negates its sine.  Negation is exact and
    fl(x + (-y)) = fl(x - y), so the fourth residual matrix at (m, n) is
    the first at (-m, -n) and the third is the second, bit for bit.

    Those two are read off one gap table.  Let N = 4q and (cos, sin) =
    quarter_trig_table(q), proven there; indices are mod N.  The first
    term at ring site m and dual site n is sin[p(m+1)n] - (cos[pn]
    sin[pmn] + sin[pn] cos[pmn]).  With w = pmn and v = pn it is

        F(w, v) = sin[w + v] - (cos[v] sin[w] + sin[v] cos[w]),

    the same two products and the same sum, so the same float.  p is
    odd and coprime to q, a unit mod N, so as (m, n) runs over Z_N^2,
    (w, v) runs over exactly the pairs with gcd(v, N) dividing w, for
    every p.  The second term, with the shift by -1, is cos[w - v] -
    (cos[v] cos[w] + sin[v] sin[w]) = F(w + q, -v) by the table's quarter
    turn (sin[k + q] == cos[k], cos[k + q] == -sin[k]) and mirror, up to
    the sign of a zero; the pairs are closed under v -> -v.  By the mirror
    again, |F(-w, -v)| = |F(w, v)|: a zero's sign never changes the
    magnitude of a product, sum or difference of finite values.  So the
    residual is the largest |F| over the rows w = 0 .. 2q and the columns
    v with gcd(v, N) dividing w, w - q or w + q.  gap holds -F, exactly.
    Being a function of q, it is computed once per q and cached
    (_duality_residual, 64 entries, as quarter_trig_table); a table that
    fails its proof raises ConvergenceError and caches nothing.
    """
    residual = _duality_residual(f.q)
    return DualityResiduals(residual, residual)


@functools.lru_cache(maxsize=64)
def _duality_residual(q: int) -> float:
    # the largest |F| of verify_duality over the reached residue pairs
    size = 4 * q
    cos, sin = quarter_trig_table(q)
    gap = np.multiply.outer(sin[: 2 * q + 1], cos)
    gap += np.multiply.outer(cos[: 2 * q + 1], sin)
    # window w of sin read twice round is sin[w + v] over v
    gap -= np.lib.stride_tricks.sliding_window_view(np.concatenate((sin, sin[: 2 * q])), size)
    rows = np.arange(2 * q + 1)[:, None]
    reach = np.gcd(np.arange(size), size)  # gcd(v, 4q)
    reached = (rows % reach == 0) | ((rows - q) % reach == 0) | ((rows + q) % reach == 0)
    return float(np.abs(gap[reached]).max())
