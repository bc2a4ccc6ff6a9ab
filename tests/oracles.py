"""Independent high-precision oracles used by the test suite.

Everything here is deliberately written against mpmath / Fraction
primitives rather than the package's own trig or stepping code, so a
shared bug cannot cancel out.  Walk oracles carry amplitudes as mpmath
numbers at a fixed working precision (default 30 significant digits)
and step with the textbook coin-then-shift recurrence.

The numpy references at the end are the plain slow paths that the
package's fast paths are tested against.  The per-site loops among them
call the package's scalar trig_pair_exact on purpose: the fast paths
must reproduce those values bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from functools import lru_cache
from math import gcd

import mpmath
import numpy as np
from mpmath import mp

from iqwalk import (
    LeakageError,
    NumericalDriftError,
    RingState,
    WalkerState,
    circular_arg_distance,
    moment_stats,
    ring_shift,
    spectrum,
    trig_pair_exact,
)
from iqwalk import spectral
from iqwalk.exact_trig import quarter_trig_table
from iqwalk.walk import DRIFT_LIMIT

ORACLE_DPS = 30

_SQRT_HALF = None


def _alpha_value(key: str) -> mpmath.mpf:
    """Named oracle alphas, evaluated at the current working precision."""
    if key == "pi/2":
        return mp.pi / 2
    if key == "golden":
        return (mp.sqrt(5) - 1) / 2
    if key == "sqrt2-1":
        return mp.sqrt(2) - 1
    num, _, den = key.partition("/")
    return mp.mpf(int(num)) / int(den)


class _TrigCache:
    def __init__(self, alpha_key: str):
        self.alpha = _alpha_value(alpha_key)
        self._cache: dict[int, tuple[mpmath.mpf, mpmath.mpf]] = {}

    def at(self, n: int) -> tuple[mpmath.mpf, mpmath.mpf]:
        if n not in self._cache:
            angle = 2 * mp.pi * self.alpha * n
            self._cache[n] = (mp.cos(angle), mp.sin(angle))
        return self._cache[n]


@lru_cache(maxsize=8)
def mp_walk(alpha_key: str, steps: int, dps: int = ORACLE_DPS):
    """High-precision walker after `steps` coin-then-shift steps.

    Starts from the symmetric real spinor (1/sqrt2, 1/sqrt2) at the
    origin.  Returns (offset, left, right, origin_series) where left
    and right are tuples of mpf amplitudes over the stored window and
    origin_series[t] is the origin probability after step t.
    """
    with mp.workdps(dps):
        trig = _TrigCache(alpha_key)
        root_half = 1 / mp.sqrt(2)
        offset = 0
        left = [root_half]
        right = [root_half]
        origin_series = [float(left[0] ** 2 + right[0] ** 2)]
        for _ in range(steps):
            size = len(left)
            new_left = [mp.mpf(0)] * (size + 2)
            new_right = [mp.mpf(0)] * (size + 2)
            for i in range(size):
                site = offset + i
                c, s = trig.at(site)
                new_left[i] = c * left[i] - s * right[i]
                new_right[i + 2] = s * left[i] + c * right[i]
            offset -= 1
            left, right = new_left, new_right
            origin = left[-offset] ** 2 + right[-offset] ** 2
            origin_series.append(float(origin))
        return offset, tuple(left), tuple(right), tuple(origin_series)


def mp_distribution(alpha_key: str, steps: int, dps: int = ORACLE_DPS) -> dict[int, float]:
    """Site -> total probability from the high-precision walk."""
    offset, left, right, _ = mp_walk(alpha_key, steps, dps)
    out = {}
    for i, (l_amp, r_amp) in enumerate(zip(left, right)):
        p = float(l_amp**2 + r_amp**2)
        if p != 0.0:
            out[offset + i] = p
    return out


def mp_origin_series(alpha_key: str, t_max: int, dps: int = ORACLE_DPS) -> tuple[float, ...]:
    """Origin probability after each step 0..t_max."""
    return mp_walk(alpha_key, t_max, dps)[3]


def mp_cos_sin(alpha_key: str, n: int, dps: int = 40) -> tuple[float, float]:
    """(cos, sin) of 2*pi*alpha*n straight from mpmath."""
    with mp.workdps(dps):
        angle = 2 * mp.pi * _alpha_value(alpha_key) * n
        c, s = mpmath.cos_sin(angle)
        return float(c), float(s)


# Smallest eigenvalue gaps of the exact coin-then-shift operator, from
# mpmath.eig (30 significant digits) on the full 4q x 4q mp_walk_operator
# matrix; both are tunnelling doublets well below the old 1e-6 floor.
EXACT_GAP_3_76 = mpmath.mpf("2.62709522544733e-7")
EXACT_GAP_3_80 = mpmath.mpf("1.17715154094952e-7")


def mp_walk_operator(p: int, q: int, dps: int = ORACLE_DPS) -> dict[tuple[int, int], mpmath.mpf]:
    """Nonzero entries {(row, col): value} of the confined operator at p/(4q).

    Coin-then-shift on the 4q-dimensional basis (-q; R), (-q+1; L),
    (-q+1; R), ..., (q-1; R), (q; L), with coin entries straight from
    mpmath cos/sin of 2*pi*(p/(4q))*n.  The boundary coins at -q and q
    reflect; their surviving entries are sin at -q and -sin at q.
    """
    dim = 4 * q

    def index(n: int, chirality: str) -> int:
        if n == -q:
            return 0
        if n == q:
            return dim - 1
        return 2 * (n + q) - 1 + (chirality == "R")

    with mp.workdps(dps):
        turns = mp.mpf(p) / (4 * q)
        coin = {
            (0, 0): mp.sin(2 * mp.pi * turns * -q),
            (dim - 1, dim - 1): -mp.sin(2 * mp.pi * turns * q),
        }
        for n in range(-q + 1, q):
            c, s = mp.cos(2 * mp.pi * turns * n), mp.sin(2 * mp.pi * turns * n)
            i = index(n, "L")
            coin.update({(i, i): c, (i, i + 1): -s, (i + 1, i): s, (i + 1, i + 1): c})
    # the shift moves L one site left and R one site right, reflecting at the ends
    source = {0: index(-q + 1, "L"), dim - 1: index(q - 1, "R")}
    for n in range(-q + 1, q):
        source[index(n, "L")] = index(n + 1, "L")
        source[index(n, "R")] = index(n - 1, "R")
    return {(i, source[j]): value for (i, j), value in coin.items()}


def mp_residuals(entries, values, vectors, dps: int = ORACLE_DPS) -> list[mpmath.mpf]:
    """||U v - lambda v|| / ||v|| for each eigenpair column, U given by its entries."""
    with mp.workdps(dps):
        out = []
        for k, value in enumerate(values):
            v = [mp.mpc(complex(x)) for x in vectors[:, k]]
            lam = mp.mpc(complex(value))
            r = [-lam * x for x in v]
            for (i, j), entry in entries.items():
                r[i] += entry * v[j]
            out.append(mp.norm(r) / mp.norm(v))
        return out


def brute_force_quarter_approximants(
    lo: Fraction, hi: Fraction, count: int, q_limit: int
) -> list[tuple[int, int]]:
    """All (p, q) with q ascending whose Dirichlet bound holds exactly.

    Checks sup over [lo, hi] of |alpha - p/(4q)| < 1/(4q^2) for every
    odd p coprime to q, by exhaustive search; the reference for the
    convergent-driven finder.
    """
    out = []
    for q in range(1, q_limit + 1):
        bound = Fraction(1, 4 * q * q)
        for p in range(1, int(4 * q * hi) + 4, 2):
            if gcd(p, q) != 1:
                continue
            target = Fraction(p, 4 * q)
            sup = max(abs(lo - target), abs(hi - target))
            if sup < bound:
                out.append((p, q))
        if len(out) >= count:
            break
    return out[:count]


_U = 2.0**-53


def _gamma(k: int) -> float:
    return k * _U / (1.0 - k * _U)


def all_pairs_eigenvalue_gaps(values, radii) -> tuple[float, float]:
    """eigenvalue_gaps over the whole n x n pair matrix, the reference for its band.

    (min |values[i] - values[j]|, min(|values[i] - values[j]|(1 - gamma_4)
    - (radii[i] + radii[j])(1 + gamma_2))) over i != j, both inf with no pair.
    """
    diffs = np.abs(values[:, None] - values[None, :])
    off_diagonal = ~np.eye(len(values), dtype=bool)
    lower = diffs * (1.0 - _gamma(4)) - (radii[:, None] + radii[None, :]) * (
        1.0 + _gamma(2)
    )
    return (
        float(diffs[off_diagonal].min(initial=math.inf)),
        float(lower[off_diagonal].min(initial=math.inf)),
    )


def complex_eigenpairs(matrix):
    """(values, vectors, radii) from one complex eigensolve of the whole matrix.

    The dense reference for spectrum()'s sector certificate: a unitarity
    pre-check, then the residual and modulus gates and the radius formula
    of iqwalk.spectral._radii over whole columns, with no structure used.
    """
    m = np.asarray(matrix, dtype=complex)
    return _dense_certified(m, *np.linalg.eig(m))


def parity_split_eigenpairs(matrix):
    """(values, vectors, radii) from the real 2q x 2q eigenproblem of AB.

    The solve that walk operators took before the reflection sectors: the
    real matrix is [[0, A], [B, 0]] on the site-parity sets (E, O) of the
    whole 4q basis, and each eigenpair (mu, v) of AB gives the two
    eigenpairs (+-sqrt(mu), (v, +-B v / sqrt(mu))).  Checked like
    complex_eigenpairs, on the whole matrix.
    """
    m = np.asarray(matrix, dtype=float)
    odd = (np.arange(len(m)) + 1) // 2 % 2 == 1
    even = ~odd
    assert not m[odd[:, None] == odd[None, :]].any()
    a = m[np.ix_(even, odd)]
    b = m[np.ix_(odd, even)]
    mu, w = np.linalg.eig(a @ b)
    root = np.sqrt(mu.astype(complex))
    w = w.astype(complex)
    partner = (b @ w) / root
    vectors = np.empty((len(m), len(m)), dtype=complex)
    vectors[even] = np.hstack([w, w])
    vectors[odd] = np.hstack([partner, -partner])
    return _dense_certified(m.astype(complex), np.concatenate([root, -root]), vectors)


def _dense_certified(m, values, vectors):
    assert np.abs(m @ m.conj().T - np.eye(len(m))).max() <= 1e-10
    magnitudes = np.abs(m)
    abs_norm = math.sqrt(magnitudes.sum(axis=0).max() * magnitudes.sum(axis=1).max())
    k = int(np.count_nonzero(m, axis=1).max())
    return _certify(values, vectors, m @ vectors, abs_norm, k)


def _certify(values, vectors, applied, abs_norm, k):
    # the gates and the radius formula of iqwalk.spectral._radii, over whole columns
    residuals = np.linalg.norm(applied - vectors * values, axis=0)
    assert residuals.max() <= 1e-9
    assert np.abs(np.abs(values) - 1.0).max() <= 1e-12
    product_error = math.sqrt(2.0) * _gamma(k + 2) * (abs_norm + np.abs(values))
    radii = (1.0 + _gamma(len(vectors) + 8)) * (
        residuals / np.linalg.norm(vectors, axis=0) + product_error
    )
    args = np.angle(values)
    order = np.argsort(np.where(args == -np.pi, np.pi, args), kind="stable")
    return values[order], vectors[:, order], radii[order]


def walk_apply(op, v):
    """U v for a (4q, m) array, from the factors of a walk operator.

    A gather by the shift targets and one 2 x 2 rotation per site, in
    O(n) per vector: c x - s y and s x + c y, or corner * x at the two
    corners, the roundings of a dense row with two nonzeros.
    """
    target = op.frame.target
    return _rotate(op, v[target]) if op.order == "CW" else _rotate(op, v)[target]


def _rotate(op, v):
    # the coin factor times v
    out = np.empty_like(v)
    out[0], out[-1] = op.corner * v[0], op.corner * v[-1]
    c, s = op.cos[:, None], op.sin[:, None]
    left, right = v[1:-1:2], v[2:-1:2]
    out[1:-1:2] = c * left - s * right
    out[2:-1:2] = s * left + c * right
    return out


def lifted_walk_eigenpairs(op):
    """(values, vectors, radii) of a walk operator, certified on all 4q entries.

    The certificate spectrum() made before it went sector-native.  The
    first 2q rows of U are gathered densely; each reflection sector
    U+- = U11 +- U12 K is split into its blocks A, B on the first half's
    site-parity sets and solved by its own eig of AB; each pair
    (+-sqrt(mu), x = (w, +-B w / sqrt(mu))) is lifted to the 4q-vector
    (x, +-K x).  The residuals are taken with walk_apply on the lifted
    vectors, and the radii follow the formula of iqwalk.spectral._radii
    with n = 4q, k = walk_max_row_nonzeros(op) and ||U||_abs =
    walk_abs_norm(op): the lifted reference for spectrum()'s sector
    certificate.
    """
    columns, entries = op.entries()
    dim = len(op.frame.target)
    half, q = dim // 2, dim // 4
    top = np.zeros((half, dim))
    # adding into zeros is exact, and a corner's zero lands on its own entry
    np.add.at(top, (np.arange(half), columns[:, :half]), entries[:, :half])
    odd_sites = (np.arange(half) + 1) // 2 % 2 == 1
    even, odd = np.flatnonzero(~odd_sites), np.flatnonzero(odd_sites)
    u11, u12k = top[:, :half], top[:, half:][:, ::-1]
    values = np.empty(dim, dtype=complex)
    vectors = np.empty((dim, dim), dtype=complex)
    for sector, sign in enumerate((1.0, -1.0)):
        u = u11 + sign * u12k
        b = u[np.ix_(odd, even)]
        mu, w = np.linalg.eig(u[np.ix_(even, odd)] @ b)
        root = np.sqrt(mu.astype(complex))
        partner = (b @ w) / root
        plus = slice(sector * half, sector * half + q)
        minus = slice(sector * half + q, (sector + 1) * half)
        values[plus], values[minus] = root, -root
        vectors[even, plus] = vectors[even, minus] = w
        vectors[odd, plus], vectors[odd, minus] = partner, -partner
    vectors[half:] = vectors[:half][::-1] * np.repeat([1.0, -1.0], half)
    return _certify(values, vectors, walk_apply(op, vectors), walk_abs_norm(op), walk_max_row_nonzeros(op))


def walk_abs_norm(op) -> float:
    """||U||_abs from the coins of this one fraction, the reference for _Frame.abs_norm."""
    # each row and each column of |U| holds |c| and |s| of one block, or a corner's 1
    return max(1.0, float((np.abs(op.cos) + np.abs(op.sin)).max()))


def walk_max_row_nonzeros(op) -> int:
    """The most nonzeros in a row of U, from this one fraction's coins (_Frame.row_nonzeros)."""
    return 2 if np.any((op.cos != 0.0) & (op.sin != 0.0)) else 1


def four_norm_walk_eigenvalues(op):
    """(values, args, radii) of spectral._walk_eigenvalues, by four separate norms.

    The sector certificate as it was written before its one-pass norms:
    temporaries for every half, one np.linalg.norm call per half, np.stack
    for the pairs, and ||U||_abs and k taken from this fraction's coins.
    Gates as in _radii; spectrum() must match it bit for bit.
    """
    blocks = op.sector_blocks()
    a, b = blocks[:, 0], blocks[:, 1]
    mu, w = np.linalg.eig(a @ b)
    root = np.sqrt(mu.astype(complex))
    lam = root[:, None, :]
    bw = b @ w
    partner = bw / lam
    residuals = np.hypot(
        np.linalg.norm(a @ partner - w * lam, axis=1),
        np.linalg.norm(bw - partner * lam, axis=1),
    )
    lengths = np.hypot(np.linalg.norm(w, axis=1), np.linalg.norm(partner, axis=1))
    assert residuals.max() <= 1e-9
    assert np.abs(np.abs(root) - 1.0).max() <= 1e-12
    k, n = walk_max_row_nonzeros(op), len(op.frame.target) // 2
    product_error = math.sqrt(2.0) * _gamma(k + 2) * (walk_abs_norm(op) + np.abs(root))
    radii = (1.0 + _gamma(n + 8)) * (residuals / lengths + product_error)
    values = np.stack([root, -root], axis=1).ravel()
    radii = np.stack([radii, radii], axis=1).ravel()
    args = np.angle(values)
    args = np.where(args == -np.pi, np.pi, args)
    order = np.argsort(args, kind="stable")
    return values[order], args[order], radii[order]


def property_residuals(f) -> dict[str, float]:
    """property_report's residuals, from the four-norm certificate and per-call constants.

    T = diag((-1)^i) and the quartet targets are built here on every call,
    as property_report built them before the frame and the module held them.
    """
    cw = spectral._walk_operator(f, "CW")
    values, _, radii = four_norm_walk_eigenvalues(cw)
    columns, entries = cw.entries()
    t = np.where(np.arange(4 * f.q) % 2 == 1, -1.0, 1.0)
    _, mirror = spectral._walk_operator(f.canonical().complement(), "CW").entries()
    gap, gap_lower = all_pairs_eigenvalue_gaps(values, radii + spectral.OPERATOR_ERROR)
    targets = np.array([1.0, 1.0j, -1.0, -1.0j])
    return {
        "alpha_reflection": float(np.abs(mirror - t * t[columns] * entries).max()),
        "conjugation": float(np.abs(entries.imag).max()),
        "negation": cw.gauge_residual(),
        "simple_gap": gap,
        "gap_lower_bound": gap_lower,
        "quartet": float(np.abs(values[None, :] - targets[:, None]).min(axis=1).max()),
        "det_residual": float(abs(np.prod(values) + 1.0)),
    }


def wrap_args(args: np.ndarray) -> np.ndarray:
    """args moved into the principal branch (-pi, pi]."""
    wrapped = np.mod(args + np.pi, 2.0 * np.pi) - np.pi
    return np.where(wrapped == -np.pi, np.pi, wrapped)


def measured_symmetry_residuals(f) -> tuple[float, float, float]:
    """(alpha -> 1 - alpha, conjugation, negation) residuals measured on spectra.

    The measurement that property_report's proofs replaced: a second
    solve at 1 - alpha, and the conjugated and negated args, each aligned
    with alpha's args by circular_arg_distance.
    """
    args = spectrum(f).args
    mirror = spectrum(f.canonical().complement()).args
    return (
        circular_arg_distance(args, mirror),
        circular_arg_distance(args, np.sort(-args)),
        circular_arg_distance(args, np.sort(wrap_args(args + np.pi))),
    )


def planted_reflection_fault(build, f, site=3, angle=1e-11):
    """A stand-in for spectral._walk_operator that rotates f's coins at sites +-site by +-angle.

    The rotation is odd in the site, so J U J = U holds bitwise and the
    sector solve certifies the faulty spectrum; only U(1 - alpha) = T U T
    fails, by about angle.  Every other fraction is left to build.
    """

    def faulty(g, order):
        op = build(g, order)
        if g != f:
            return op
        j = site + f.q - 1  # cos and sin index of the site; -1 - j is -site's
        c, s = op.cos[j], op.sin[j]
        cos, sin = op.cos.copy(), op.sin.copy()
        cos[j] = cos[-1 - j] = c * math.cos(angle) - s * math.sin(angle)
        sin[j] = s * math.cos(angle) + c * math.sin(angle)
        sin[-1 - j] = -sin[j]
        return dataclasses.replace(op, cos=cos, sin=sin)

    return faulty


def circular_arg_distance_loop(a, b) -> float:
    """Best cyclic alignment of two argument lists, one np.roll per shift."""
    if len(a) != len(b):
        raise ValueError("argument lists differ in length")
    best = math.inf
    for roll in range(len(b)):
        d = np.abs(a - np.roll(b, roll))
        gap = float(np.minimum(d, 2.0 * np.pi - d).max())
        if gap < best:
            best = gap
    return best


def ring_coin_loop(f, state):
    """ring_coin with one trig_pair_exact call per ring site."""
    m = state.size
    cos_vals = np.empty(m)
    sin_vals = np.empty(m)
    for site in range(m):
        cos_vals[site], sin_vals[site] = trig_pair_exact(f, site)
    left = state.amplitudes[:, 0]
    right = state.amplitudes[:, 1]
    return RingState(
        np.column_stack(
            [cos_vals * left - sin_vals * right, sin_vals * left + cos_vals * right]
        )
    )


def dual_vector_amplitudes_loop(f, n, chirality):
    """dual_vector amplitudes with one trig_pair_exact call per ring site."""
    size = 4 * f.q
    amps = np.zeros((size, 2), dtype=complex)
    for m in range(size):
        c, s = trig_pair_exact(f, m * n)
        if chirality == "L":
            amps[m, 0] = s
            amps[m, 1] = c
        else:
            amps[m, 0] = c
            amps[m, 1] = s
    return amps


def verify_duality_loop(f):
    """(shift_as_coin, coin_as_shift) with per-dual-site ring_shift and ring coins."""
    size = 4 * f.q
    duals_left = [dual_vector_amplitudes_loop(f, n, "L") for n in range(size)]
    duals_right = [dual_vector_amplitudes_loop(f, n, "R") for n in range(size)]
    worst_shift = 0.0
    worst_coin = 0.0
    for n in range(size):
        c, s = trig_pair_exact(f, n)
        shifted_left = ring_shift(RingState(duals_left[n])).amplitudes
        shifted_right = ring_shift(RingState(duals_right[n])).amplitudes
        forward = np.abs(shifted_left - (c * duals_left[n] + s * duals_right[n])).max()
        backward = np.abs(shifted_right - (c * duals_right[n] - s * duals_left[n])).max()
        worst_shift = max(worst_shift, float(forward), float(backward))
        coined_left = ring_coin_loop(f, RingState(duals_left[n])).amplitudes
        coined_right = ring_coin_loop(f, RingState(duals_right[n])).amplitudes
        to_prev = np.abs(coined_left - duals_left[(n - 1) % size]).max()
        to_next = np.abs(coined_right - duals_right[(n + 1) % size]).max()
        worst_coin = max(worst_coin, float(to_prev), float(to_next))
    return worst_shift, worst_coin


def grid_duality_residuals(f):
    """(shift_as_coin, coin_as_shift) from the full (m, n) grid of dual amplitudes.

    Evaluates the shift identity's L and R terms on 4q x 4q gathers of
    the residue table at p*m*n mod 4q; the other two terms and the coin
    identity are the same floats (verify_duality's docstring).
    """
    size = 4 * f.q
    cos, sin = quarter_trig_table(f.q)
    k = f.p % size * np.arange(size) % size
    c, s = cos[k], sin[k]
    # row m, column n: |n, L~> = (sin_mn, cos_mn), |n, R~> = (cos_mn, sin_mn) at site m
    index = np.multiply.outer(k, np.arange(size))
    index %= size
    cos_mn, sin_mn = cos[index], sin[index]
    # the shift moves L from site m+1 and R from m-1; dual site n's coin scales column n
    coined, work = np.empty_like(cos_mn), np.empty_like(cos_mn)
    residual = max(
        _grid_gap(sin_mn, cos_mn, 1, c, s, coined, work),
        _grid_gap(cos_mn, sin_mn, -1, c, s, coined, work),
    )
    return residual, residual


def _grid_gap(x, y, shift, c, s, coined, work) -> float:
    """max |x[(m + shift) mod M] - (c x + s y)[m]| over rows m, in the work arrays."""
    np.multiply(c, x, out=coined)
    np.multiply(s, y, out=work)
    coined += work
    cut = shift % len(x)
    split = len(x) - cut
    np.subtract(x[cut:], coined[:split], out=work[:split])
    np.subtract(x[:cut], coined[split:], out=work[split:])
    return float(np.abs(work, out=work).max())


def build_trig_loop(f):
    """(cos, sin) of the coins at sites -q+1 .. q-1, one trig_pair_exact call each."""
    trig = np.array([trig_pair_exact(f, n) for n in range(-f.q + 1, f.q)])
    return trig[:, 0], trig[:, 1]


def float_certified_digits(enclosure) -> int:
    """RealEnclosure.certified_digits as a float log10 of the relative width,
    which raises past double range and overstates by one where the ratio
    lies within a rounding below a power of ten."""
    if enclosure.is_point:
        return 10**6
    scale = abs(enclosure.midpoint) or Fraction(1)
    return max(0, int(-math.log10(enclosure.width / scale)))


def enclosure_cos_sin_uncached(enclosure, n):
    """RealEnclosure.cos_sin_two_pi with the precision and midpoint rebuilt per call."""
    dps = min(enclosure.certified_digits, 120) + 10
    mid = (enclosure.lo + enclosure.hi) / 2
    with mp.workdps(dps):
        x = mp.mpf(mid.numerator) / mid.denominator
        c, s = mpmath.cos_sin(2 * mp.pi * x * n)
        return float(c), float(s)


class _ExtendCopySchedule:
    """Coins of a schedule served by a cache copied whole on every growth.

    Rows (a, b, c, d) per site, filled with one _build_coin call per new
    site; the reference for CoinSchedule's amortised buffer and table fill.
    """

    def __init__(self, schedule):
        self._build_coin = schedule._build_coin
        self._lo = 0
        self._entries = np.zeros((0, 4), dtype=complex)

    def coin_entries(self, lo, hi):
        if hi < lo:
            raise ValueError(f"empty site range {lo}..{hi}")
        self._extend(lo, hi)
        sl = self._entries[lo - self._lo : hi - self._lo + 1]
        return sl[:, 0], sl[:, 1], sl[:, 2], sl[:, 3]

    def _extend(self, lo, hi):
        n_cached = len(self._entries)
        cur_lo, cur_hi = self._lo, self._lo + n_cached - 1
        if n_cached and lo >= cur_lo and hi <= cur_hi:
            return
        new_lo = min(lo, cur_lo) if n_cached else lo
        new_hi = max(hi, cur_hi) if n_cached else hi
        grown = np.zeros((new_hi - new_lo + 1, 4), dtype=complex)
        if n_cached:
            grown[cur_lo - new_lo : cur_lo - new_lo + n_cached] = self._entries
        for n in range(new_lo, cur_lo if n_cached else new_hi + 1):
            grown[n - new_lo] = self._build_coin(n).reshape(4)
        if n_cached:
            for n in range(cur_hi + 1, new_hi + 1):
                grown[n - new_lo] = self._build_coin(n).reshape(4)
        self._lo = new_lo
        self._entries = grown


def extend_copy_schedule(schedule):
    """A fresh copying cache over `schedule`'s per-site _build_coin."""
    return _ExtendCopySchedule(schedule)


def _trim_loop(offset, amps):
    lo, hi = 0, len(amps)
    while hi - lo > 1 and amps[lo, 0] == 0 and amps[lo, 1] == 0:
        lo += 1
    while hi - lo > 1 and amps[hi - 1, 0] == 0 and amps[hi - 1, 1] == 0:
        hi -= 1
    if lo == 0 and hi == len(amps):
        return offset, amps
    return offset + lo, amps[lo:hi].copy()


def step_loop(state, schedule, order="WC"):
    """One walk step through temporaries, norm summed as re^2 + im^2."""
    n = len(state.amplitudes)
    left = state.amplitudes[:, 0]
    right = state.amplitudes[:, 1]
    new = np.zeros((n + 2, 2), dtype=complex)
    if order == "WC":
        a, b, c, d = schedule.coin_entries(state.offset, state.offset + n - 1)
        new[0:n, 0] = a * left + b * right  # coin output L lands on n-1
        new[2 : n + 2, 1] = c * left + d * right  # coin output R lands on n+1
    elif order == "CW":
        a, b, c, d = schedule.coin_entries(state.offset - 1, state.offset + n)
        shifted_left = np.zeros(n + 2, dtype=complex)
        shifted_right = np.zeros(n + 2, dtype=complex)
        shifted_left[0:n] = left  # site m sees L from m+1
        shifted_right[2 : n + 2] = right  # site m sees R from m-1
        new[:, 0] = a * shifted_left + b * shifted_right
        new[:, 1] = c * shifted_left + d * shifted_right
    else:
        raise ValueError(f"unknown walk order {order!r}")
    nrm = math.sqrt(float(np.sum(new.real**2 + new.imag**2)))
    if not abs(nrm - 1.0) <= DRIFT_LIMIT:
        raise NumericalDriftError(f"norm drifted to {nrm!r} after step {state.step_count + 1}")
    offset, amps = _trim_loop(state.offset - 1, new)
    return WalkerState(offset, amps, state.step_count + 1)


def adjoint_step_loop(state, schedule, order="WC"):
    """U^H = C^H W^H ("WC") or W^H C^H ("CW") applied directly, through
    temporaries: the reference for adjoint_step's amplitudes, offset and
    step count.  The norm gate sums re^2 + im^2."""
    n = len(state.amplitudes)
    left, right = state.amplitudes.T
    new = np.zeros((n + 2, 2), dtype=complex)
    if order == "WC":
        a, b, c, d = schedule.coin_entries(state.offset - 1, state.offset + n)
        unshifted_left = np.zeros(n + 2, dtype=complex)
        unshifted_right = np.zeros(n + 2, dtype=complex)
        unshifted_left[2 : n + 2] = left  # L at m came from m-1 before the shift
        unshifted_right[0:n] = right
        new[:, 0] = np.conj(a) * unshifted_left + np.conj(c) * unshifted_right
        new[:, 1] = np.conj(b) * unshifted_left + np.conj(d) * unshifted_right
    elif order == "CW":
        a, b, c, d = schedule.coin_entries(state.offset, state.offset + n - 1)
        # (W^H psi)(m; L) = psi(m-1; L)
        new[2 : n + 2, 0] = np.conj(a) * left + np.conj(c) * right
        new[0:n, 1] = np.conj(b) * left + np.conj(d) * right
    else:
        raise ValueError(f"unknown walk order {order!r}")
    count = state.step_count - 1
    nrm = math.sqrt(float(np.sum(new.real**2 + new.imag**2)))
    if not abs(nrm - 1.0) <= DRIFT_LIMIT:
        raise NumericalDriftError(f"norm drifted to {nrm!r} after step {count}")
    offset, amps = _trim_loop(state.offset - 1, new)
    return WalkerState(offset, amps, count)


def leaked_probability_loop(state, interval):
    """leaked_probability with one membership test per window site."""
    lo, hi = interval
    outside_rows = [i for i, n in enumerate(state.sites) if n < lo or n > hi]
    if not outside_rows:
        return 0.0
    outside = state.amplitudes[outside_rows]
    if np.any(outside != 0):
        worst = float(np.abs(outside).max())
        raise LeakageError(
            f"amplitude {worst!r} escaped [{lo}, {hi}] at step {state.step_count}"
        )
    return 0.0


def barrier_positions_loop(schedule, window):
    """barrier_positions with one coin_at call per site."""
    lo, hi = window
    out = []
    for n in range(lo, hi + 1):
        coin = schedule.coin_at(n)
        if coin[0, 0] == 0 and coin[1, 1] == 0:
            out.append(n)
    return out


def near_barriers_loop(schedule, window, threshold=1e-2):
    """near_barriers sites with one coin_at call per site."""
    lo, hi = window
    hits = []
    for n in range(lo, hi + 1):
        coin = schedule.coin_at(n)
        size = max(abs(coin[0, 0]), abs(coin[1, 1]))
        if size < threshold:
            hits.append((n, float(size)))
    return tuple(hits)


def recurrence_series_loop(schedule, t_max, initial, order="WC"):
    """recurrence_series stepped with step_loop over a copying cache."""
    cache = extend_copy_schedule(schedule)
    state = WalkerState(0, np.array([initial], dtype=complex))
    series = [(0, state.probability(0))]
    for t in range(1, t_max + 1):
        state = step_loop(state, cache, order)
        series.append((t, state.probability(0)))
    return series


def spread_exponent_loop(schedule, times, initial, theta=0.5, order="WC"):
    """(sigmas, scaled tails) of spread_exponent at the sorted times, stepped
    with step_loop over a copying cache."""
    cache = extend_copy_schedule(schedule)
    state = WalkerState(0, np.array([initial], dtype=complex))
    sigmas, tails = [], []
    for t in range(1, times[-1] + 1):
        state = step_loop(state, cache, order)
        if t in times:
            stats = moment_stats(state)
            sigmas.append(stats.std_dev)
            tails.append(stats.abs_moments[1] / t**theta)
    return tuple(sigmas), tuple(tails)
