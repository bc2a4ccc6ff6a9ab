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

from .errors import ConvergenceError, _integer
from .exact_trig import TRIG_ERROR_BOUND, QuarterFraction, quarter_trig_table

__all__ = [
    "Spectrum",
    "PropertyCheck",
    "PropertyReport",
    "RESIDUAL_TOL",
    "OPERATOR_ERROR",
    "build_matrices",
    "eigenvalue_gaps",
    "spectrum",
    "property_report",
    "gauge_check",
    "butterfly",
    "butterfly_fractions",
    "circular_arg_distance",
]

RESIDUAL_TOL = 1e-9
UNIMODULAR_TOL = 1e-12
DET_TOL = 1e-9
UNIT_ROUNDOFF = 2.0**-53
# the eigenvalues every walk operator holds (PropertyReport.quartet)
_QUARTET = np.array([1.0, 1.0j, -1.0, -1.0j])

# ||float operator - exact operator||_2 for either factor order.  The shift
# is an exact permutation, so the float product only permutes coin entries;
# the coin error is block diagonal with corner entries exact and 2x2 blocks
# [[dc, -ds], [ds, dc]] of norm hypot(dc, ds) <= sqrt(2) * TRIG_ERROR_BOUND.
OPERATOR_ERROR = math.sqrt(2.0) * TRIG_ERROR_BOUND


def _gamma(k: int) -> float:
    # bound on the relative error of k compounded roundings (Higham's gamma_k)
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def build_matrices(f: QuarterFraction) -> tuple[np.ndarray, np.ndarray]:
    """(coin factor, shift factor) as dense real 4q x 4q orthogonal matrices.

    Coin entries use exact residue trig, so reflecting blocks carry
    literal zeros.  The shift factor is a permutation matrix whose
    determinant is exactly -1; the coin factor has determinant 1
    (quarter_trig_table and _check_shift prove both, once per q).  The
    entries are read from the arrays of the operator that spectrum() solves.
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
class _Layout:
    """Where the nonzeros of one operator order sit, for every p of one q.

    Row i of U holds its two entries at columns[:, i], with values
    _WalkOperator.source()[source[:, i]] * scale[:, i]: the diagonal and
    the other entry of one coin row, or a corner and a placeholder zero.
    slots, picks and signs fill the sector blocks: entry j of rows
    0 .. 2q - 1 goes to flat index slots[j] of both sectors' (2, q, q)
    arrays [A, B], with value source()[picks[j]] * signs[:, j]
    (_WalkOperator.sector_blocks).  All arrays are read-only.
    """

    columns: np.ndarray
    source: np.ndarray
    scale: np.ndarray
    slots: np.ndarray
    picks: np.ndarray
    signs: np.ndarray


@dataclass(frozen=True)
class _Frame:
    """What the 4q basis fixes for every p, built and proven once per q.

    cos and sin are quarter_trig_table(q), proven there.  target[i] is the
    column of the 1 in shift row i, a single 4q-cycle that commutes with J.
    layouts holds a _Layout for each order.  signs is the diagonal of the
    parity gauge G, and alternating that of T = diag((-1)^i)
    (property_report).  All arrays are read-only.

    abs_norm is ||U||_abs and row_nonzeros the most nonzeros in a row of U,
    the k of _radii, for every p and both orders of this q.  Each row and
    each column of |U| holds |c| and |s| of one coin block, or a corner's 1
    and a zero, so per fraction ||U||_abs is max(1, |c| + |s|) and
    row_nonzeros is 2 if some block has c s != 0, else 1, over the table
    entries k(n) = p n mod 4q of the sites n = -q + 1 .. q - 1.  Both depend on k(n) mod q
    alone: the quarter turn sin[k + q] == cos[k], cos[k + q] == -sin[k]
    (quarter_trig_table) gives entry k + q the float |sin[k]| + |cos[k]|,
    bitwise |cos[k]| + |sin[k]| since float addition commutes, and the
    same two factors of c s.  The 2q - 1 sites reach every residue mod q,
    and p is a unit mod q, so the k(n) reach every residue mod q too: the
    maximum and the test over the fraction's sites are those over the
    whole table.  The table has c s != 0 exactly off the multiples of q,
    so row_nonzeros is 2 for q > 1 and 1 for q = 1.
    """

    cos: np.ndarray
    sin: np.ndarray
    target: np.ndarray
    layouts: dict[str, _Layout]
    signs: np.ndarray
    alternating: np.ndarray
    abs_norm: float
    row_nonzeros: int


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
    # row i of coin @ shift is coin row i read at the shifted columns; row i
    # of shift @ coin is coin row target[i]
    layouts = {
        "CW": _layout(np.stack([target, target[partner]]), np.arange(dim)),
        "WC": _layout(np.stack([target, partner[target]]), target),
    }
    signs = np.where(_odd_sites(dim), -1.0, 1.0)
    alternating = np.where(np.arange(dim) % 2 == 1, -1.0, 1.0)
    target.flags.writeable = signs.flags.writeable = alternating.flags.writeable = False
    abs_norm = max(1.0, float((np.abs(cos) + np.abs(sin)).max()))
    row_nonzeros = 2 if np.any((cos != 0.0) & (sin != 0.0)) else 1
    return _Frame(cos, sin, target, layouts, signs, alternating, abs_norm, row_nonzeros)


def _layout(columns: np.ndarray, rows: np.ndarray) -> _Layout:
    """The _Layout of the operator whose row i holds coin row rows[i] at columns[:, i].

    Proves, once per q and order, the structure the sector solve rests on
    (_walk_eigenvalues), and raises ConvergenceError if it fails:
    - J-symmetry of the pattern: row 4q - 1 - i holds the entries of row i
      at the reversed columns, from the mirrored site (cos index j <->
      2q - 2 - j, the same corner), with the sign of every sine flipped.
      So J U J = U whenever cos[::-1] == cos and sin[::-1] == -sin, which
      quarter_trig_table proves for every operator of this q.
    - the parity zero pattern: every entry of an E row lies in an O column
      and vice versa, so U vanishes on E x E and O x O (gauge_check).  J
      keeps the parity of a site, so the same holds for the folded columns.
    - the fill: each written entry of rows 0 .. 2q - 1 has its own slot.
      Two entries share a slot only at a corner row, whose second entry
      is a placeholder zero, and at site 0, whose sine is zero because
      sin[::-1] == -sin has sin[q - 1] in its middle; neither is written.
    """
    dim = len(rows)
    q, half = dim // 4, dim // 2
    corner = (rows == 0) | (rows == dim - 1)
    site = (rows - 1) // 2  # cos and sin index of an interior coin row's site
    # indices into source() = (corner, 0.0, cos..., sin...)
    source = np.stack([np.where(corner, 0, 2 + site), np.where(corner, 1, half + 1 + site)])
    scale = np.stack([np.ones(dim), np.where((rows % 2 == 1) & ~corner, -1.0, 1.0)])
    # the source at the mirrored site, cos or sin index j <-> 2q - 2 - j; sines change sign
    mirror = np.concatenate(([0, 1], np.arange(half, 1, -1), np.arange(dim - 1, half, -1)))
    flip = np.where(np.arange(dim) > half, -1.0, 1.0)
    odd_sites = _odd_sites(dim)
    if not (
        np.array_equal(columns[:, ::-1], dim - 1 - columns)
        and np.array_equal(source[:, ::-1], mirror[source])
        and np.array_equal(scale[:, ::-1], scale * flip[source])
    ):
        raise ConvergenceError(f"operator layout of dimension {dim} does not commute with J")
    if not (
        np.array_equal(odd_sites[::-1], odd_sites)
        and np.all(odd_sites[columns] != odd_sites)
        and np.count_nonzero(odd_sites[:half]) == q
    ):
        raise ConvergenceError(f"operator layout of dimension {dim} couples equal-parity sites")
    # E rows fill A (E x O), O rows fill B (O x E); rank within E or O
    block = odd_sites[:half].astype(np.intp)
    rank = np.empty(half, dtype=np.intp)
    rank[~odd_sites[:half]] = rank[odd_sites[:half]] = np.arange(q)
    c = columns[:, :half]
    folded = np.where(c < half, c, dim - 1 - c)
    # neither the corner's placeholder nor the sine of site 0, index q - 1
    keep = (source[:, :half] != 1) & (source[:, :half] != half + 1 + (q - 1))
    slots = ((block * q + rank) * q + rank[folded])[keep]
    if np.bincount(slots).max() > 1:
        raise ConvergenceError(f"sector fill of dimension {dim} writes one slot twice")
    picks = source[:, :half][keep]
    kept_scale = scale[:, :half][keep]
    signs = np.stack([kept_scale, np.where((c >= half)[keep], -kept_scale, kept_scale)])
    arrays = (columns, source, scale, slots, picks, signs)
    for array in arrays:
        array.flags.writeable = False
    return _Layout(*arrays)


@dataclass(frozen=True)
class _WalkOperator:
    """coin @ shift ("CW") or shift @ coin ("WC"), held as its two factors.

    The coin is the corner sign and the rotation blocks [[c, -s], [s, c]]
    of sites -q + 1 .. q - 1 (build_matrices); the shift is frame.target.
    The 4q x 4q product is never formed: each row of U holds at most two
    nonzeros, placed by the frame's layout for this order.
    """

    order: str
    corner: float
    cos: np.ndarray
    sin: np.ndarray
    frame: _Frame

    def source(self) -> np.ndarray:
        """The values the layout indexes: (corner, 0.0, cos..., sin...)."""
        return np.concatenate(([self.corner, 0.0], self.cos, self.sin))

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(columns, values) of shape (2, 4q): row i of U holds values[:, i] at columns[:, i].

        Coin row i holds its diagonal entry and one more at the other
        index of its block; a corner row holds a zero on its diagonal
        instead.  The shift moves the coin's columns (CW) or rows (WC).
        """
        layout = self.frame.layouts[self.order]
        return layout.columns, self.source()[layout.source] * layout.scale

    def sector_blocks(self) -> np.ndarray:
        """[[A+, B+], [A-, B-]] as one (2, 2, q, q) array (_walk_eigenvalues).

        J U J = U, on which they rest, is proven once per q (quarter_trig_table).
        """
        layout = self.frame.layouts[self.order]
        q = len(self.frame.target) // 4
        blocks = np.zeros((2, 2 * q * q))
        blocks[:, layout.slots] = self.source()[layout.picks] * layout.signs
        return blocks.reshape(2, 2, q, q)

    def gauge_residual(self, entries: tuple[np.ndarray, np.ndarray] | None = None) -> float:
        """Max of |G U G^-1 + U| over the entries of U; every other entry is 0.

        entries is this operator's entries(), for a caller that holds them.
        """
        columns, values = self.entries() if entries is None else entries
        signs = self.frame.signs
        return float(np.abs(signs * signs[columns] * values + values).max())


def _walk_operator(f: QuarterFraction, order: str) -> _WalkOperator:
    if order not in ("CW", "WC"):
        raise ValueError(f"unknown operator order {order!r}")
    q = f.q
    dim = 4 * q
    frame = _frame(q)
    k = (f.p % dim) * np.arange(-q + 1, q) % dim
    corner = float(frame.sin[-f.p * q % dim])  # coin sine at site -q, (-1)^((p+1)/2)
    return _WalkOperator(order, corner, frame.cos[k], frame.sin[k], frame)


def _check_shift(target: np.ndarray) -> None:
    """Prove det(shift) = -1 and J shift J = shift in O(n).

    The shift has one 1 in each row by construction; target[i] is its
    column.  Every column must be hit exactly once, and following the map
    from row 0 must visit all 4q rows: a single 4q-cycle is an odd
    permutation, so its determinant is exactly -1.  It commutes with the
    reversal J: i <-> 4q - 1 - i when row 4q - 1 - i has its 1 in column
    4q - 1 - target[i].
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
    if not np.array_equal(target[::-1], dim - 1 - target):
        raise ConvergenceError(f"shift factor of dimension {dim} does not commute with J")


def _radii(
    values: np.ndarray,
    residuals: np.ndarray,
    lengths: np.ndarray,
    abs_norm: float,
    k: int,
    n: int,
) -> np.ndarray:
    """Gate eigenpairs on their float residuals and moduli, and bound their disks.

    residuals[i] and lengths[i] are the float ||M v - lambda v|| and ||v||
    of the pair (values[i], v), for a matrix M of dimension n with at most
    k nonzeros in a row and ||M||_abs = abs_norm.  A residual above
    RESIDUAL_TOL or a modulus more than UNIMODULAR_TOL off 1 raises
    ConvergenceError.  The disk of radius radii[i] + e about values[i]
    holds at least one exact eigenvalue of every normal U with
    ||M - U||_2 <= e; with e = 0, of M itself if it is exactly normal.

    U is normal, so for any v != 0 some eigenvalue of U lies within
    ||U v - lambda v|| / ||v|| of lambda (Bauer-Fike with condition number
    1).  With r~ the float residual, u = 2**-53 and

        radii = (1 + gamma_{n+8}) * (r~ / ||v||~
                 + sqrt(2) gamma_{k+2} (||M||_abs + |lambda|))

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
    the 3M method).  _walk_eigenvalues applies it per reflection sector.
    """
    worst = float(residuals.max())
    if not worst <= RESIDUAL_TOL:
        raise ConvergenceError(
            f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_TOL}"
        )
    moduli = np.abs(values)
    drift = float(np.abs(moduli - 1.0).max())
    if not drift <= UNIMODULAR_TOL:
        raise ConvergenceError(
            f"eigenvalue modulus drifted {drift:.3e} from the unit circle"
        )
    product_error = math.sqrt(2.0) * _gamma(k + 2) * (abs_norm + moduli)
    return (1.0 + _gamma(n + 8)) * (residuals / lengths + product_error)


def _eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc


def _odd_sites(n: int) -> np.ndarray:
    # O of _walk_eigenvalues: basis indices whose site parity differs from that of -q
    return (np.arange(n) + 1) // 2 % 2 == 1


def _walk_eigenvalues(op: _WalkOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, args, radii) of a walk operator, argument-sorted, certified sector by sector.

    The walk operators are solved by reflection sector, as two real q x q
    eigenproblems.  In the basis ordering of the module docstring index i
    sits at site (i + 1) // 2 - q, and the reversal J: i <-> 4q - 1 - i
    maps (n, L) to (-n, R).  J S J = S for the shift, and J C J = C for
    the coin: swapping L and R turns a rotation by theta into one by
    -theta, and the coin angle is odd in n.  J U J = U is proven, not
    assumed: the layout, the shift and the coin table once per q (_layout,
    _check_shift, quarter_trig_table).

    With K the 2q x 2q reversal and U11, U12, U21, U22 the blocks of U,
    J U J = U gives U22 = K U11 K and U21 = K U12 K.  P+-^T, with P+- =
    [I, +-K] / sqrt(2), maps C^2q isometrically onto the vectors
    (x, +-K x) / sqrt(2), so U = P+^T U+ P+ + P-^T U- P- with U+- =
    P+- U P+-^T = U11 +- U12 K.  Each U+- is therefore exactly unitary,
    and the eigenvalues of U+ and U- together, with multiplicity, are U's.
    Site parity splits the indices into E, those of the parity of the
    corner site -q, and O, the rest; J keeps the parity of a site.  A walk
    operator only couples neighbouring sites, so it is exactly zero on
    E x E and O x O: the parity gauge identity G U G^-1 = -U (gauge_check)
    is this zero pattern.  sector_blocks writes every nonzero of U's first
    2q rows to its own slot, so A+- and B+- hold U's floats with no
    rounded sum, and the zero pattern proven by _layout makes U+- =
    [[0, A+-], [B+-, 0]] on the first half's E and O, q indices each.
    Each eigenpair (mu, w) of the real q x q matrix AB gives the pair
    (+-sqrt(mu), x = (w, +-p)), p = B w / sqrt(mu), of its sector, and x
    lifts to the eigenvector (x, +-K x) of U.  Both sectors take one
    np.linalg.eig call on the stacked (2, q, q) products A+-B+-.

    The certificate of _radii then holds in each sector, with n = 2q
    and the same k and ||.||_abs:
    - Bauer-Fike: U+- is normal, so some eigenvalue of U+- lies within
      ||U+- x - lambda x|| / ||x|| of lambda for any x != 0.
    - For x = (w, p) the float residual is (fl(A p) - fl(w lambda),
      fl(B w) - fl(p lambda)), and fl(B w) is the one that gave p.  The
      rows of A and B are rows of U with their entries moved to distinct
      columns, so each holds at most k nonzeros and the fl(M v) bullet
      holds with ||U+-||_abs.  That is at most frame.abs_norm = ||U||_abs:
      a row sum of |U+-| is a row sum of |U|, and column j of |U+-| holds
      columns j and 4q - 1 - j of the first 2q rows of |U|, where
      |U[i, 4q - 1 - j]| = |U[4q - 1 - i, j]| by J-symmetry, so its sum is
      the whole column sum j of |U|.
    - ||x|| and the residual norm are hypot of the norms of their two
      halves; hypot adds one rounding to the relative error of a norm of
      2q entries, which gamma_{n+8} absorbs.  The four halves sit in one
      buffer, and their column norms take np.linalg.norm's steps, sqrt of
      the sum of (x.conj() * x).real down each column, in one pass.
    - The exact operator U~ is J-symmetric too, and
      ||U~+- - U+-|| = ||P+- (U~ - U) P+-^T|| <= ||U~ - U||, so the
      OPERATOR_ERROR that spectrum() adds carries over.
    The disk about each eigenvalue thus holds an eigenvalue of U~+ or
    U~-, hence of U~, and eigenvalue_gaps' argument applies unchanged.

    The pair (-root, (w, -p)) needs no evaluation of its own.  Rounding to
    nearest is odd, so fl(A (-p)) = -fl(A p), fl(w (-root)) =
    -fl(w root) and fl((-p)(-root)) = fl(p root) bitwise.  Its residual
    halves are the negated first half and the same second half of the
    +root pair, and ||(w, -p)|| and |-root| are those of (w, p) and root,
    so its radius is bitwise the +root radius.
    """
    blocks = op.sector_blocks()
    a, b = blocks[:, 0], blocks[:, 1]
    mu, w = _eig(a @ b)
    root = np.sqrt(mu.astype(complex))
    lam = root[:, None, :]
    # A p - w lam, B w - p lam, w and p; B w is the float that gave p
    halves = np.empty((4, *w.shape), dtype=complex)
    bw, partner = halves[1], halves[3]
    np.matmul(b, w, out=bw)
    np.divide(bw, lam, out=partner)
    np.matmul(a, partner, out=halves[0])
    halves[0] -= w * lam
    bw -= partner * lam
    halves[2] = w
    norms = np.sqrt(np.add.reduce((halves.conj() * halves).real, axis=2))
    residuals = np.hypot(norms[0], norms[1])
    lengths = np.hypot(norms[2], norms[3])
    frame = op.frame
    n = len(frame.target) // 2
    radii = _radii(root, residuals, lengths, frame.abs_norm, frame.row_nonzeros, n)
    # per sector: the q roots, then their negatives
    values = np.concatenate([root, -root], axis=1).ravel()
    radii = np.concatenate([radii, radii], axis=1).ravel()
    args = _principal_args(values)
    order = np.argsort(args, kind="stable")
    return values[order], args[order], radii[order]


def _principal_args(values: np.ndarray) -> np.ndarray:
    # principal branch (-pi, pi]: fold the -pi edge (negative-zero imag) up
    args = np.angle(values)
    return np.where(args == -np.pi, np.pi, args)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of one finite walk operator, argument-sorted.

    radii[i] bounds the distance from eigenvalues[i] to an eigenvalue of
    the exact operator (see _radii).
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
    values, args, radii = _walk_eigenvalues(op)
    return Spectrum(f.p, f.q, values, args, radii + OPERATOR_ERROR)


# absolute slack on a float arc between two np.angle values, and relative
# slack on a float chord bound (eigenvalue_gaps)
_ARC_SLACK = 2.0**-40
_CHORD_SLACK = 2.0**-40
# chord bounds outside [_CHORD_MIN, _CHORD_MAX] are not used: below it
# |a - b| may be subnormal, above it 2 min|v| may overflow
_CHORD_MIN, _CHORD_MAX = 2.0**-900, 2.0**900


def _pair_gaps(values: np.ndarray, radii: np.ndarray, partner: np.ndarray) -> tuple[float, float]:
    # (measured, lower) minima over the pairs (i, partner[i, k])
    diffs = np.abs(values[:, None] - values[partner])
    # a float |a - b| is within gamma_2 of exact (subtraction, hypot)
    lower = diffs * (1.0 - _gamma(4)) - (radii[:, None] + radii[partner]) * (1.0 + _gamma(2))
    return float(diffs.min()), float(lower.min())


def eigenvalue_gaps(values: np.ndarray, radii: np.ndarray) -> tuple[float, float]:
    """(measured, certified lower bound) of the smallest eigenvalue gap.

    measured is min |values[i] - values[j]| over i != j.  The bound is
    min(|values[i] - values[j]| - radii[i] - radii[j]), evaluated so that
    rounding can only lower it.  When it is positive the disks
    D(values[i], radii[i]) are pairwise disjoint; each holds an exact
    eigenvalue (_radii), so n disjoint disks hold n distinct ones:
    every eigenvalue is simple and no exact gap is below the bound.  A
    bound <= 0 proves nothing, since two disks may share an eigenvalue.
    With fewer than two values there is no pair, and both are inf: the
    minimum over an empty set, and a single eigenvalue is simple.
    values and radii must be 1-D and of equal length (ValueError).

    Both minima are bitwise those over all n(n - 1)/2 pairs
    (tests/oracles.py::all_pairs_eigenvalue_gaps), but only the pairs
    within a band are evaluated.  Sort the values by a = np.angle(v) and
    call a pair far if its cyclic index distance exceeds the width w.
    The band's minima are returned once no far pair can undercut them;
    otherwise w doubles, up to n // 2, where the band is every pair.
    Each pair's two floats are computed by the same operations as in the
    all-pairs matrix, and |a - b| and r_a + r_b are symmetric bitwise, so
    the band's minima are taken over a subset of the same floats.

    The far bound.  Going either way round the circle from one value of a
    far pair to the other passes at least w + 1 sorted steps, so the two
    float arcs are each at least G, the smallest sum of w + 1 cyclically
    consecutive steps (a window a[k + w + 1] - a[k], or a[k + w + 1 - n] +
    2 pi - a[k] across the seam).  With phi the exact arguments of the
    float values, the circular distance theta of a far pair is at least
    G - _ARC_SLACK: the slack (2**-40, about 2000 ulp of pi) covers the
    error of two np.angle values, of adding 2 pi, of the window
    subtraction and of subtracting the slack.  For moduli r, s and theta
    in [0, pi],

        |v - u|^2 = r^2 + s^2 - 2 r s cos(theta) >= 2 r s (1 - cos(theta))
                  = (2 sqrt(r s) sin(theta / 2))^2,

    so |v - u| >= 2 m sin(theta' / 2) with m = min |v| and theta' =
    min(pi, max(0, G - _ARC_SLACK)) <= theta.  The float chord bound
    D = 2 m sin(theta' / 2) (1 - _CHORD_SLACK) lies below fl|v - u| of
    every far pair: the relative slack 2**-40 covers the roundings of m,
    sin, the two products and fl|v - u| itself (a few ulp), as long as
    these stay normal and finite; a D outside [2**-900, 2**900] is
    replaced by 0, which fl|v - u| >= 0 bounds trivially.
    A far pair's lower entry fl(fl(d c1) - fl(fl(r_a + r_b) c2)) rises
    with d and falls with r_a + r_b, and rounding is monotone, so it is
    at least L = fl(fl(D c1) - fl(fl(2 r_max) c2)), r_max = max radii.
    If the band's measured minimum is <= D and its lower minimum is <= L,
    no far pair is smaller than either, and both are the all-pairs minima.
    Non-finite input takes all pairs directly.
    """
    values, radii = np.asarray(values), np.asarray(radii)
    if values.ndim != 1 or radii.ndim != 1 or len(values) != len(radii):
        raise ValueError(
            "values and radii must be 1-D of equal length, "
            f"got shapes {values.shape} and {radii.shape}"
        )
    n = len(values)
    if n < 2:
        return math.inf, math.inf
    finite = bool(np.isfinite(values).all() and np.isfinite(radii).all())
    args = np.angle(values)
    order = np.argsort(args, kind="stable")
    values, radii, args = values[order], radii[order], args[order]
    turn = np.concatenate((args, args + 2.0 * math.pi))
    smallest = float(np.abs(values).min())
    r_max = float(radii.max())
    width = 1 if finite else n // 2
    while True:
        width = min(width, n // 2)
        partner = (np.arange(n)[:, None] + np.arange(1, width + 1)) % n
        measured, lower = _pair_gaps(values, radii, partner)
        if width == n // 2:
            return measured, lower
        # the smallest arc over w + 1 sorted steps
        arc = float((turn[width + 1 : width + 1 + n] - turn[:n]).min())
        theta = min(math.pi, max(0.0, arc - _ARC_SLACK))
        chord = 2.0 * smallest * math.sin(theta / 2.0) * (1.0 - _CHORD_SLACK)
        if not _CHORD_MIN <= chord <= _CHORD_MAX:
            chord = 0.0
        floor = chord * (1.0 - _gamma(4)) - (r_max + r_max) * (1.0 + _gamma(2))
        if measured <= chord and lower <= floor:
            return measured, lower
        width *= 2


def circular_arg_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max pointwise circular gap between two sorted argument multisets.

    Sorted principal arguments of nearly-equal multisets can differ by
    a cyclic rotation when eigenvalues sit within rounding of the
    -pi/pi seam; a whole cluster may land on either side, so the best
    alignment over every cyclic shift is taken.  All n shifts are
    compared at once through an n x n gather, O(n^2) in time and memory.
    property_report proves its symmetries without it; it compares the
    spectra of different solves, as the butterfly and factor-order tests do.
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
    """One verdict of a PropertyReport and the residual it was decided on.

    A proven check passes only if its residual is exactly 0.0: the
    residual is how far the operator identity that proves it fails.  A
    certified or measured check carries the deviation it measured on the
    spectrum.
    """

    passed: bool
    residual: float


@dataclass(frozen=True)
class PropertyReport:
    """Joint verdict on the five spectral properties plus determinant.

    Three checks are proven on the operator coin @ shift ("CW": the shift
    acts first), each by an identity that holds with no rounding, so each
    passes only with residual exactly 0.0 (property_report):
    - alpha_reflection by U(1 - alpha) = T U(alpha) T, T = diag((-1)^i);
    - conjugation by U being real;
    - negation by the parity gauge G U G^-1 = -U; its residual is
      gauge_residual, gauge_check's value on the same operator build.
    Two are decided on the spectrum of that operator, spectrum.  The
    simplicity check is certified: it passes if and only if
    gap_lower_bound, the certified lower bound on the exact smallest gap
    (eigenvalue_gaps), is positive, i.e. the 4q eigenvalue inclusion
    disks are pairwise disjoint, which proves every eigenvalue of the
    exact operator simple; its residual is simple_gap, the smallest
    measured distance between two eigenvalues.  The quartet check and
    the determinant are measured, and their residuals are the deviations
    actually measured, not clamped to the tolerances.
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
        # negation passes exactly when gauge_residual == 0.0
        return (
            self.alpha_reflection.passed
            and self.conjugation.passed
            and self.negation.passed
            and self.simplicity.passed
            and self.quartet.passed
            and self.det_ok
        )


def property_report(f: QuarterFraction) -> PropertyReport:
    """Decide the five spectral properties of coin @ shift ("CW": the shift acts first).

    One eigensolve, of U = U(alpha), serves the two spectral checks.  The
    three symmetries are proven on U's entries in O(q) instead, with no
    tolerance; similar, real or gauge-flipped exact operators have the
    symmetric spectra exactly.
    - alpha -> 1 - alpha: with T = diag((-1)^i) over the basis index i,
      U(1 - alpha) = T U(alpha) T.  T negates the sines of every coin block
      [[c, -s], [s, c]] (indices 2j - 1, 2j) and leaves the corners; it
      maps the shift to itself except for its two corner entries, rows 0
      and 4q - 1, which it negates.  At 1 - alpha site n reads table entry
      -k(n), so its coin sines and corner signs are the negated entries,
      and its cosines the same, by the table's cos[-k] == cos[k] and
      sin[-k] == -sin[k] (quarter_trig_table).  The mirror's entries must equal
      those of T U T bitwise; the residual is their largest difference.
    - conjugation: U is a real float64 matrix, and the exact coins are
      real rotations, so the characteristic polynomial is real.  The
      residual is the largest imaginary part of U's entries.
    - negation: G U G^-1 = -U with residual gauge_check's, exactly 0.0.
    Simplicity is certified, and the quartet and the determinant are
    measured, on the spectrum (PropertyReport).
    """
    cw = _walk_operator(f, "CW")
    spec = _spectrum_of(f, cw)
    columns, values = entries = cw.entries()
    alternating = cw.frame.alternating
    _, mirror = _walk_operator(f.canonical().complement(), "CW").entries()
    r_reflect = float(np.abs(mirror - alternating * alternating[columns] * values).max())
    r_conj = float(np.abs(values.imag).max())
    gauge = cw.gauge_residual(entries)
    gap, gap_lower = eigenvalue_gaps(spec.eigenvalues, spec.radii)
    r_quartet = float(
        np.abs(spec.eigenvalues[None, :] - _QUARTET[:, None]).min(axis=1).max()
    )
    det_residual = float(abs(np.prod(spec.eigenvalues) + 1.0))
    return PropertyReport(
        p=f.p,
        q=f.q,
        alpha_reflection=PropertyCheck(r_reflect == 0.0, r_reflect),
        conjugation=PropertyCheck(r_conj == 0.0, r_conj),
        negation=PropertyCheck(gauge == 0.0, gauge),
        simplicity=PropertyCheck(gap_lower > 0.0, gap),
        quartet=PropertyCheck(r_quartet <= RESIDUAL_TOL, r_quartet),
        det_ok=det_residual <= DET_TOL,
        det_residual=det_residual,
        simple_gap=gap,
        gap_lower_bound=gap_lower,
        gauge_residual=gauge,
        spectrum=spec,
    )


def gauge_check(f: QuarterFraction) -> float:
    """Max entry of |G (CW) G^-1 + CW| for the parity gauge G = diag((-1)^n).

    The operator only couples neighbouring sites, so the gauge flip of
    every nonzero entry is exact and the returned value must be 0.0
    with no tolerance.  This is the zero pattern _walk_eigenvalues splits on.
    It is evaluated on the two entries of each operator row, in O(n); the
    signs are (-1)^(n + q), and a global sign leaves G U G^-1 unchanged.
    """
    return _walk_operator(f, "CW").gauge_residual()


def butterfly_fractions(q_max: int) -> Iterator[QuarterFraction]:
    """All quarter fractions with q <= q_max in deterministic (q, p) order."""
    q_max = _integer(q_max, "q_max")
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
