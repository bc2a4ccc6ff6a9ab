"""Finite one-step operators on the confinement interval.

For alpha = p/(4q) the walk restricted to [-q, q] is a 4q-dimensional
unitary.  The basis ordering is

    (-q; R), (-q+1; L), (-q+1; R), ..., (q-1; L), (q-1; R), (q; L)

which drops the identically-zero boundary components (-q; L) and
(q; R).  The coin factor is block diagonal with scalar corners
(-1)^((p+1)/2), the shift factor is a single 4q-cycle permutation, and
the coin-then-shift / shift-then-coin operators are the two orderings
of the same pair of factors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from .coins import unitarity_defect
from .errors import ConvergenceError
from .exact_trig import TRIG_ERROR_BOUND, QuarterFraction, quarter_trig_table

__all__ = [
    "Spectrum",
    "PropertyCheck",
    "PropertyReport",
    "RESIDUAL_TOL",
    "OPERATOR_ERROR",
    "build_matrices",
    "eigenpairs",
    "eigenvalues",
    "eigenvalue_gaps",
    "spectrum",
    "property_report",
    "gauge_check",
    "butterfly",
    "butterfly_fractions",
    "circular_arg_distance",
]

RESIDUAL_TOL = 1e-9
UNITARITY_PRE_TOL = 1e-10
UNIMODULAR_TOL = 1e-12
DET_TOL = 1e-9
UNIT_ROUNDOFF = 2.0**-53

# ||float operator - exact operator||_2 for either factor order.  The shift
# is an exact permutation, so the float product only permutes coin entries;
# the coin error is block diagonal with corner entries exact and 2x2 blocks
# [[dc, -ds], [ds, dc]] of norm hypot(dc, ds) <= sqrt(2) * TRIG_ERROR_BOUND.
OPERATOR_ERROR = math.sqrt(2.0) * TRIG_ERROR_BOUND


def _gamma(k: int) -> float:
    # bound on the relative error of k compounded roundings (Higham's gamma_k)
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


# |fl(c*c + s*s) - 1| for (c, s) within TRIG_ERROR_BOUND of (cos, sin) of an
# angle (_check_coin)
_ROTATION_NORM_BOUND = 2.0 * math.sqrt(2.0) * TRIG_ERROR_BOUND + _gamma(3)


def build_matrices(f: QuarterFraction) -> tuple[np.ndarray, np.ndarray]:
    """(coin factor, shift factor) as dense real 4q x 4q orthogonal matrices.

    Coin entries use exact residue trig, so reflecting blocks carry
    literal zeros.  The shift factor is a permutation matrix whose
    determinant is exactly -1; the coin factor has determinant 1
    (_check_coin and _check_shift prove both).  The entries are read from
    the arrays of the operator that spectrum() solves.
    """
    op = _walk_operator(f, "CW")
    dim = 4 * f.q
    coin = np.zeros((dim, dim))
    coin[0, 0] = coin[dim - 1, dim - 1] = op.corner
    left = np.arange(1, dim - 1, 2)
    coin[left, left] = op.cos
    coin[left, left + 1] = -op.sin
    coin[left + 1, left] = op.sin
    coin[left + 1, left + 1] = op.cos
    shift = np.zeros((dim, dim))
    shift[np.arange(dim), op.frame.target] = 1.0
    return coin, shift


@dataclass(frozen=True)
class _Frame:
    """What the 4q basis fixes for every p, built and proven once per q.

    cos and sin are quarter_trig_table(q).  target[i] is the column of the
    1 in shift row i, a single 4q-cycle.  columns[order] holds the columns
    of the two entries of each operator row (_WalkOperator.entries).
    signs is the diagonal of the parity gauge G.  even and odd split the
    first half of the basis, indices 0 .. 2q - 1, by site parity
    (eigenpairs), q indices each; A and B are the blocks at even_odd and
    odd_even.  All arrays are read-only.
    """

    cos: np.ndarray
    sin: np.ndarray
    target: np.ndarray
    columns: dict[str, np.ndarray]
    signs: np.ndarray
    even: np.ndarray
    odd: np.ndarray
    even_odd: tuple[np.ndarray, np.ndarray]
    odd_even: tuple[np.ndarray, np.ndarray]


@functools.lru_cache(maxsize=64)
def _frame(q: int) -> _Frame:
    dim = 4 * q
    cos, sin = quarter_trig_table(q)
    # L rows (odd i) of the shift read i + 2 and R rows (even i) read i - 2,
    # and the two ends reflect
    target = np.empty(dim, dtype=np.intp)
    target[1 : dim - 1 : 2] = np.arange(3, dim + 1, 2)
    target[2 : dim - 1 : 2] = np.arange(0, dim - 3, 2)
    target[0], target[dim - 1] = 1, dim - 2
    _check_shift(target)
    # the other index of each coin row's block; a corner is its own
    partner = np.arange(dim)
    partner[1 : dim - 1 : 2] += 1
    partner[2 : dim - 1 : 2] -= 1
    columns = {
        "CW": np.stack([target, target[partner]]),
        "WC": np.stack([target, partner[target]]),
    }
    odd_sites = _odd_sites(dim)
    even, odd = np.flatnonzero(~odd_sites[: 2 * q]), np.flatnonzero(odd_sites[: 2 * q])
    signs = np.where(odd_sites, -1.0, 1.0)
    even_odd, odd_even = np.ix_(even, odd), np.ix_(odd, even)
    for array in (cos, sin, target, *columns.values(), signs, even, odd, *even_odd, *odd_even):
        array.flags.writeable = False
    return _Frame(cos, sin, target, columns, signs, even, odd, even_odd, odd_even)


@dataclass(frozen=True)
class _WalkOperator:
    """coin @ shift ("CW") or shift @ coin ("WC"), held as its two factors.

    The coin is the corner sign and the rotation blocks [[c, -s], [s, c]]
    of sites -q + 1 .. q - 1 (build_matrices); the shift is frame.target.
    The 4q x 4q product is never formed: each row of U holds at most two
    nonzeros, so U is applied in O(n) per vector.
    """

    order: str
    corner: float
    cos: np.ndarray
    sin: np.ndarray
    frame: _Frame

    def apply(self, v: np.ndarray) -> np.ndarray:
        """U v for a (4q, m) array: a gather by the shift targets and a 2 x 2 rotation per site."""
        target = self.frame.target
        return self._rotate(v[target]) if self.order == "CW" else self._rotate(v)[target]

    def _rotate(self, v: np.ndarray) -> np.ndarray:
        # the coin factor times v
        out = np.empty_like(v)
        out[0], out[-1] = self.corner * v[0], self.corner * v[-1]
        c, s = self.cos[:, None], self.sin[:, None]
        left, right = v[1:-1:2], v[2:-1:2]
        out[1:-1:2] = c * left - s * right
        out[2:-1:2] = s * left + c * right
        return out

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(columns, values) of shape (2, 4q): row i of U holds values[:, i] at columns[:, i].

        Coin row i holds its diagonal entry and one more at the other
        index of its block; a corner row holds a zero on its diagonal
        instead.  The shift moves the coin's columns (CW) or rows (WC).
        """
        dim = len(self.frame.target)
        diagonal, off = np.empty(dim), np.zeros(dim)
        diagonal[0] = diagonal[-1] = self.corner
        diagonal[1:-1:2] = diagonal[2:-1:2] = self.cos
        off[1:-1:2], off[2:-1:2] = -self.sin, self.sin
        values = np.stack([diagonal, off])
        if self.order == "WC":
            values = values[:, self.frame.target]
        return self.frame.columns[self.order], values

    def top_rows(self) -> np.ndarray:
        """Rows 0 .. 2q - 1 of U as a dense (2q, 4q) array."""
        columns, values = self.entries()
        half = len(self.frame.target) // 2
        top = np.zeros((half, 2 * half))
        # adding into zeros is exact, and a corner's zero lands on its own entry
        np.add.at(top, (np.arange(half), columns[:, :half]), values[:, :half])
        return top

    def gauge_residual(self) -> float:
        """Max of |G U G^-1 + U| over the entries of U; every other entry is 0."""
        columns, values = self.entries()
        signs = self.frame.signs
        return float(np.abs(signs * signs[columns] * values + values).max())

    def abs_norm(self) -> float:
        # each row and each column of |U| holds |c| and |s| of one block, or a corner's 1
        return max(1.0, float((np.abs(self.cos) + np.abs(self.sin)).max()))

    def max_row_nonzeros(self) -> int:
        return 2 if np.any((self.cos != 0.0) & (self.sin != 0.0)) else 1


def _walk_operator(f: QuarterFraction, order: str) -> _WalkOperator:
    if order not in ("CW", "WC"):
        raise ValueError(f"unknown operator order {order!r}")
    q = f.q
    dim = 4 * q
    frame = _frame(q)
    k = (f.p % dim) * np.arange(-q + 1, q) % dim
    corner = float(frame.sin[-f.p * q % dim])  # coin sine at site -q, (-1)^((p+1)/2)
    op = _WalkOperator(order, corner, frame.cos[k], frame.sin[k], frame)
    _check_coin(f, op.corner, op.cos, op.sin)
    return op


def _check_coin(f: QuarterFraction, corner: float, cos: np.ndarray, sin: np.ndarray) -> None:
    """Prove det(coin) = 1 and that coin @ coin^T is I within 1e-10, in O(n).

    The coin is block diagonal, so its determinant is corner**2 times the
    product of c**2 + s**2 over its rotation blocks [[c, -s], [s, c]].  The
    corners must be exactly +-1, and every block within TRIG_ERROR_BOUND =
    E of an exact (cos, sin) pair, for which c**2 + s**2 = 1.  Then
    |c**2 + s**2 - 1| <= 2 sqrt(2) E + 2 E**2 exactly; evaluating c*c + s*s
    adds gamma_2 (c**2 + s**2) and the subtraction from 1 is exact
    (Sterbenz).  _ROTATION_NORM_BOUND = 2 sqrt(2) E + gamma_3 covers all of
    it: the E**2 terms, gamma_2 (2 sqrt(2) E + 2 E**2) and the roundings of
    the constant itself are below 1e-30, far inside gamma_3 - gamma_2 > u.

    The same numbers are the unitarity defect of either walk operator.
    The shift is an exact permutation, so U U^T = C C^T, whose diagonal
    is fl(c*c + s*s) and whose other entries are fl(c*s) - fl(s*c) = 0
    exactly; _ROTATION_NORM_BOUND is far below UNITARITY_PRE_TOL.
    """
    deviation = np.abs(cos * cos + sin * sin - 1.0)
    if abs(corner) != 1.0 or not np.all(deviation <= _ROTATION_NORM_BOUND):
        raise ConvergenceError(
            f"coin factor of {f} is not a rotation: corner {corner}, "
            f"largest |c^2 + s^2 - 1| = {float(deviation.max()):.3e}"
        )


def _check_shift(target: np.ndarray) -> None:
    """Prove det(shift) = -1 in O(n).

    The shift has one 1 in each row by construction; target[i] is its
    column.  Every column must be hit exactly once, and following the map
    from row 0 must visit all 4q rows: a single 4q-cycle is an odd
    permutation, so its determinant is exactly -1.
    """
    dim = len(target)
    if not np.array_equal(np.bincount(target, minlength=dim), np.ones(dim, dtype=np.intp)):
        raise ConvergenceError(f"shift factor of dimension {dim} is not a permutation")
    step = target.tolist()
    i, length = step[0], 1
    while i != 0:
        i, length = step[i], length + 1
    if length != dim:
        raise ConvergenceError(
            f"shift factor is not a single {dim}-cycle (cycle through 0 has length {length})"
        )


def eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a unitary matrix, sorted by principal argument.

    Every eigenpair is verified against the residual contract
    ||M v - lambda v|| <= 1e-9; violations and solver failures raise
    ConvergenceError.  The input must be unitary within 1e-10.
    """
    return eigenpairs(matrix)[0]


def eigenpairs(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, vectors, radii) of a unitary matrix, sorted by principal argument.

    Same contracts as eigenvalues().  The disk of radius radii[i] + e
    about values[i] holds at least one exact eigenvalue of every normal U
    with ||matrix - U||_2 <= e; with e = 0, of the matrix itself if it is
    exactly normal.

    The walk operators are solved by reflection sector, as two real q x q
    eigenproblems.  In the basis ordering of the module docstring index i
    sits at site (i + 1) // 2 - q, and the reversal J: i <-> 4q - 1 - i
    maps (n, L) to (-n, R).  J S J = S for the shift, and J C J = C for
    the coin: swapping L and R turns a rotation by theta into one by
    -theta, and the coin angle is odd in n.  So a walk operator U equals
    U[::-1, ::-1], and with K the 2q x 2q reversal and U11, U12 the two
    upper blocks it is U+ (+) U- on the vectors (x, +-K x), where U+- =
    U11 +- U12 K.  For the walk operators U11 and U12 K have disjoint
    nonzero patterns, so U+- hold U's floats with no rounded sum.
    Site parity splits the indices into E, those of the parity of the
    corner site -q, and O, the rest; J keeps the parity of a site.  A walk
    operator only couples neighbouring sites, so it is exactly zero on
    E x E and O x O: the parity gauge identity G U G^-1 = -U (gauge_check)
    is this zero pattern.  So each U+- is [[0, A], [B, 0]] on the first
    half's E and O, q indices each, and each eigenpair (mu, w) of the
    real q x q matrix AB gives (+-sqrt(mu), x = (w, +-B w / sqrt(mu))),
    and x lifts to the eigenvector (x, +-K x) of U, with its sector's sign.

    A matrix takes this path when it is real, its dimension is a multiple
    of 4, it is exactly zero on both equal-parity blocks and it equals
    m[::-1, ::-1]: O(n^2) array tests.  Every other matrix takes a complex
    eigensolve of the whole matrix.  Either way the checks below run on
    the whole matrix, so the certificate does not depend on how the pairs
    were found.

    U is normal, so for any v != 0 some eigenvalue of U lies within
    ||U v - lambda v|| / ||v|| of lambda (Bauer-Fike with condition number
    1).  With r~ the float residual of the contract check, n the dimension,
    k the most nonzeros in a row and u = 2**-53,

        radii = (1 + gamma_{n+8}) * (r~ / ||v||~
                 + sqrt(2) gamma_{k+2} (||matrix||_abs + |lambda|))

    bounds that distance:
    - fl(M v): products with zero entries and sums with zero are exact in
      any order, so each row sees k complex products (sqrt(2) gamma_2 each)
      and k - 1 additions; the error is below sqrt(2) gamma_{k+2} |M| |v|,
      whose 2-norm is at most ||M||_abs ||v||, where ||M||_abs =
      sqrt(max column sum * max row sum of |M|) bounds || |M| ||_2.  A real
      matrix times a complex vector is no worse: each product a (x + iy)
      is two real products, one rounding each, within gamma_1 <= sqrt(2)
      gamma_2 of |a| |x + iy|.
    - fl(v lambda): one complex product, sqrt(2) gamma_2 |lambda| ||v||.
    - the subtraction, both 2-norms and the quotient are relative roundings
      of r~ / ||v||~, absorbed by gamma_{n+8}, whose slack also covers
      evaluating this formula and gradual underflow (n * 2**-1074 at most).
    - ||(U - M) v|| <= e ||v||.
    This assumes IEEE double arithmetic with standard complex products (not
    the 3M method) and costs O(n^2) on top of the solve.

    spectrum() runs the same sector solve and the same checks on a walk
    operator held as its factors (_WalkOperator), in O(n) per vector.  Its
    fl(U v) is a gather by the shift targets, which is exact, and one
    rotation per site: c x - s y and s x + c y, or corner * x at the two
    corners.  These are exactly the products and additions of the fl(M v)
    bullet with k = 2 (k = 1 when no block has both c and s nonzero), so
    the same radius formula holds.  ||U||_abs is max(|c| + |s|, 1), the
    largest row sum of |U|, which is also its largest column sum.  The
    unitarity pre-check is _check_coin's, proven once per operator.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    n = len(m)
    odd = _odd_sites(n)
    sectors = (
        n > 0
        and n % 4 == 0
        and not (np.iscomplexobj(m) and m.imag.any())
        and not m[odd[:, None] == odd[None, :]].any()
        and np.array_equal(m[::-1, ::-1], m)
    )
    m = m.real.astype(float) if sectors else m.astype(complex)
    defect = unitarity_defect(m)
    if not defect <= UNITARITY_PRE_TOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    values, vectors = _sector_eig(m[: n // 2], _frame(n // 4)) if sectors else _eig(m)
    magnitudes = np.abs(m)
    abs_norm = math.sqrt(magnitudes.sum(axis=0).max() * magnitudes.sum(axis=1).max())
    k = int(np.count_nonzero(m, axis=1).max())
    return _certified(values, vectors, m @ vectors, abs_norm, k)


def _walk_eigenpairs(op: _WalkOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # eigenpairs() of the walk operator op, with no dense product
    values, vectors = _sector_eig(op.top_rows(), op.frame)
    return _certified(values, vectors, op.apply(vectors), op.abs_norm(), op.max_row_nonzeros())


def _certified(
    values: np.ndarray, vectors: np.ndarray, applied: np.ndarray, abs_norm: float, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gate the eigenpairs, given applied = fl(M vectors), and sort them with their radii (eigenpairs)."""
    residuals = np.linalg.norm(applied - vectors * values, axis=0)
    worst = float(residuals.max())
    if not worst <= RESIDUAL_TOL:
        raise ConvergenceError(
            f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_TOL}"
        )
    drift = float(np.abs(np.abs(values) - 1.0).max())
    if not drift <= UNIMODULAR_TOL:
        raise ConvergenceError(
            f"eigenvalue modulus drifted {drift:.3e} from the unit circle"
        )
    product_error = math.sqrt(2.0) * _gamma(k + 2) * (abs_norm + np.abs(values))
    radii = (1.0 + _gamma(len(values) + 8)) * (
        residuals / np.linalg.norm(vectors, axis=0) + product_error
    )
    order = np.argsort(_principal_args(values), kind="stable")
    return values[order], vectors[:, order], radii[order]


def _eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc


def _odd_sites(n: int) -> np.ndarray:
    # O of eigenpairs: basis indices whose site parity differs from that of -q
    return (np.arange(n) + 1) // 2 % 2 == 1


def _sector_eig(top: np.ndarray, frame: _Frame) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of U = U+ (+) U- from its first 2q rows, by two real q x q solves (eigenpairs)."""
    half = len(top)
    q = half // 2
    u11, u12k = top[:, :half], top[:, half:][:, ::-1]
    values = np.empty(2 * half, dtype=complex)
    vectors = np.empty((2 * half, 2 * half), dtype=complex)
    for sector, sign in enumerate((1.0, -1.0)):
        u = u11 + sign * u12k
        a, b = u[frame.even_odd], u[frame.odd_even]
        mu, w = _eig(a @ b)
        root = np.sqrt(mu.astype(complex))
        partner = (b @ w) / root
        plus = slice(sector * half, sector * half + q)
        minus = slice(sector * half + q, (sector + 1) * half)
        values[plus], values[minus] = root, -root
        vectors[frame.even, plus] = vectors[frame.even, minus] = w
        vectors[frame.odd, plus], vectors[frame.odd, minus] = partner, -partner
    vectors[half:] = vectors[:half][::-1] * np.repeat([1.0, -1.0], half)
    return values, vectors


def _principal_args(values: np.ndarray) -> np.ndarray:
    # principal branch (-pi, pi]: fold the -pi edge (negative-zero imag) up
    args = np.angle(values)
    return np.where(args == -np.pi, np.pi, args)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of one finite walk operator, argument-sorted.

    radii[i] bounds the distance from eigenvalues[i] to an eigenvalue of
    the exact operator (see eigenpairs).
    """

    p: int
    q: int
    eigenvalues: np.ndarray
    args: np.ndarray
    radii: np.ndarray

    @property
    def dim(self) -> int:
        return 4 * self.q

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.p, 4 * self.q)


def spectrum(f: QuarterFraction, order: str = "CW") -> Spectrum:
    """Spectrum of the one-step operator for the given factor order."""
    return _spectrum_of(f, _walk_operator(f, order))


def _spectrum_of(f: QuarterFraction, op: _WalkOperator) -> Spectrum:
    values, _, radii = _walk_eigenpairs(op)
    return Spectrum(f.p, f.q, values, _principal_args(values), radii + OPERATOR_ERROR)


def eigenvalue_gaps(values: np.ndarray, radii: np.ndarray) -> tuple[float, float]:
    """(measured, certified lower bound) of the smallest eigenvalue gap.

    measured is min |values[i] - values[j]| over i != j.  The bound is
    min(|values[i] - values[j]| - radii[i] - radii[j]), evaluated so that
    rounding can only lower it.  When it is positive the disks
    D(values[i], radii[i]) are pairwise disjoint; each holds an exact
    eigenvalue (eigenpairs), so n disjoint disks hold n distinct ones:
    every eigenvalue is simple and no exact gap is below the bound.  A
    bound <= 0 proves nothing, since two disks may share an eigenvalue.
    """
    diffs = np.abs(values[:, None] - values[None, :])
    off_diagonal = ~np.eye(len(values), dtype=bool)
    # a float |a - b| is within gamma_2 of exact (subtraction, hypot)
    lower = diffs * (1.0 - _gamma(4)) - (radii[:, None] + radii[None, :]) * (
        1.0 + _gamma(2)
    )
    return float(diffs[off_diagonal].min()), float(lower[off_diagonal].min())


def circular_arg_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max pointwise circular gap between two sorted argument multisets.

    Sorted principal arguments of nearly-equal multisets can differ by
    a cyclic rotation when eigenvalues sit within rounding of the
    -pi/pi seam; a whole cluster may land on either side, so the best
    alignment over every cyclic shift is taken.  All n shifts are
    compared at once through an n x n gather, O(n^2) in time and memory.
    """
    a, b = np.asarray(a), np.asarray(b)
    if len(a) != len(b):
        raise ValueError("argument lists differ in length")
    n = len(b)
    # row r is np.roll(b, r)
    shifted = b[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
    d = np.abs(a - shifted)
    gaps = np.minimum(d, 2.0 * np.pi - d).max(axis=1, initial=-math.inf)
    # fmin skips a NaN gap, as a scan keeping the first strictly smaller one would
    return float(np.fmin.reduce(gaps, initial=math.inf))


@dataclass(frozen=True)
class PropertyCheck:
    passed: bool
    residual: float


@dataclass(frozen=True)
class PropertyReport:
    """Joint verdict on the five spectral properties plus determinant.

    Residuals are the deviations actually measured, not clamped to the
    tolerances.  simple_gap is the smallest measured distance between two
    eigenvalues and gap_lower_bound the certified lower bound on the exact
    one (eigenvalue_gaps).  The simplicity check passes if and only if
    that bound is positive, i.e. the 4q eigenvalue inclusion disks are
    pairwise disjoint, which proves every eigenvalue of the exact
    operator simple; its residual is the measured gap.  gauge_residual is
    gauge_check's value on the same operator build, and must be exactly
    0.0.  All checks are measured on the operator coin @ shift ("CW": the
    shift acts first), whose spectrum is spectrum.
    """

    p: int
    q: int
    alpha_reflection: PropertyCheck  # spectrum at alpha equals spectrum at 1 - alpha
    conjugation: PropertyCheck  # closed under complex conjugation
    negation: PropertyCheck  # closed under lambda -> -lambda
    simplicity: PropertyCheck  # all eigenvalues simple
    quartet: PropertyCheck  # 1, i, -1, -i always present
    det_ok: bool
    det_residual: float
    simple_gap: float
    gap_lower_bound: float
    gauge_residual: float
    spectrum: Spectrum = field(repr=False, compare=False)

    def all_passed(self) -> bool:
        return (
            self.alpha_reflection.passed
            and self.conjugation.passed
            and self.negation.passed
            and self.simplicity.passed
            and self.quartet.passed
            and self.det_ok
            and self.gauge_residual == 0.0
        )


def _wrap_args(args: np.ndarray) -> np.ndarray:
    wrapped = np.mod(args + np.pi, 2.0 * np.pi) - np.pi
    return np.where(wrapped == -np.pi, np.pi, wrapped)


def property_report(f: QuarterFraction) -> PropertyReport:
    """Measure the five spectral properties of coin @ shift ("CW": the shift acts first)."""
    cw = _walk_operator(f, "CW")
    spec = _spectrum_of(f, cw)
    mirror = spectrum(f.canonical().complement(), "CW")
    r_reflect = circular_arg_distance(spec.args, mirror.args)
    r_conj = circular_arg_distance(spec.args, np.sort(-spec.args))
    r_neg = circular_arg_distance(spec.args, np.sort(_wrap_args(spec.args + np.pi)))
    gap, gap_lower = eigenvalue_gaps(spec.eigenvalues, spec.radii)
    targets = np.array([1.0, 1.0j, -1.0, -1.0j])
    r_quartet = float(
        np.abs(spec.eigenvalues[None, :] - targets[:, None]).min(axis=1).max()
    )
    det_residual = float(abs(np.prod(spec.eigenvalues) + 1.0))
    return PropertyReport(
        p=f.p,
        q=f.q,
        alpha_reflection=PropertyCheck(r_reflect <= RESIDUAL_TOL, r_reflect),
        conjugation=PropertyCheck(r_conj <= RESIDUAL_TOL, r_conj),
        negation=PropertyCheck(r_neg <= RESIDUAL_TOL, r_neg),
        simplicity=PropertyCheck(gap_lower > 0.0, gap),
        quartet=PropertyCheck(r_quartet <= RESIDUAL_TOL, r_quartet),
        det_ok=det_residual <= DET_TOL,
        det_residual=det_residual,
        simple_gap=gap,
        gap_lower_bound=gap_lower,
        gauge_residual=cw.gauge_residual(),
        spectrum=spec,
    )


def gauge_check(f: QuarterFraction) -> float:
    """Max entry of |G (CW) G^-1 + CW| for the parity gauge G = diag((-1)^n).

    The operator only couples neighbouring sites, so the gauge flip of
    every nonzero entry is exact and the returned value must be 0.0
    with no tolerance.  This is the zero pattern eigenpairs splits on.
    It is evaluated on the two entries of each operator row, in O(n); the
    signs are (-1)^(n + q), and a global sign leaves G U G^-1 unchanged.
    """
    return _walk_operator(f, "CW").gauge_residual()


def butterfly_fractions(q_max: int) -> Iterator[QuarterFraction]:
    """All quarter fractions with q <= q_max in deterministic (q, p) order."""
    if q_max < 1:
        raise ValueError("q_max must be at least 1")
    for q in range(1, q_max + 1):
        for p in range(1, 4 * q, 2):
            if math.gcd(p, q) == 1:
                yield QuarterFraction(p, q)


def butterfly(q_max: int) -> Iterator[Spectrum]:
    """Spectra of every quarter fraction with q <= q_max, (q, p)-ordered.

    Each (p, q) job is a pure function of its fraction, so callers may
    fan the sweep out and merge by the same deterministic order.
    """
    for f in butterfly_fractions(q_max):
        yield spectrum(f, "CW")
