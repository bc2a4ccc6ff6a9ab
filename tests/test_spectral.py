import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqwalk import (
    ConvergenceError,
    QuarterFraction,
    build_matrices,
    butterfly,
    butterfly_fractions,
    eigenvalue_gaps,
    property_report,
    spectrum,
    trig_pair_exact,
    unitarity_defect,
)
from iqwalk import exact_trig, spectral
from iqwalk.exact_trig import TRIG_ERROR_BOUND, _check_table, quarter_trig_table
from iqwalk.spectral import OPERATOR_ERROR, RESIDUAL_TOL, _check_shift
from oracles import (
    EXACT_GAP_3_76,
    EXACT_GAP_3_80,
    all_pairs_eigenvalue_gaps,
    build_trig_loop,
    circular_arg_distance,
    circular_arg_distance_loop,
    complex_eigenpairs,
    dense_gauge_residual,
    four_norm_walk_eigenvalues,
    lifted_walk_eigenpairs,
    measured_symmetry_residuals,
    mp_residuals,
    mp_walk_operator,
    parity_split_eigenpairs,
    planted_reflection_fault,
    property_residuals,
    walk_abs_norm,
    walk_apply,
    walk_max_row_nonzeros,
    wrap_args,
)

QUARTET = np.array([1.0, 1.0j, -1.0, -1.0j])


def quarter_fractions(q_max=12):
    def build(draw):
        q = draw(st.integers(min_value=1, max_value=q_max))
        p = draw(st.integers(min_value=0, max_value=2 * q - 1)) * 2 + 1
        if math.gcd(p, q) != 1:
            p = 1
        return QuarterFraction(p, q)

    return st.composite(build)()


class TestBuildMatrices:
    def test_smallest_case_is_literal(self):
        coin, shift = build_matrices(QuarterFraction(1, 1))
        assert np.array_equal(coin, np.diag([-1.0, 1.0, 1.0, -1.0]))
        expected_shift = np.zeros((4, 4))
        expected_shift[0, 1] = 1.0
        expected_shift[1, 3] = 1.0
        expected_shift[2, 0] = 1.0
        expected_shift[3, 2] = 1.0
        assert np.array_equal(shift, expected_shift)

    @pytest.mark.parametrize("p,q,corner", [(1, 3, -1.0), (3, 5, 1.0), (5, 2, -1.0)])
    def test_corner_sign(self, p, q, corner):
        coin, _ = build_matrices(QuarterFraction(p, q))
        assert coin[0, 0] == corner
        assert coin[-1, -1] == corner

    @given(quarter_fractions())
    @settings(max_examples=25)
    def test_factors_are_unitary(self, f):
        coin, shift = build_matrices(f)
        assert coin.shape == (4 * f.q, 4 * f.q)
        assert unitarity_defect(coin) <= 1e-15
        assert unitarity_defect(shift) == 0.0

    @pytest.mark.parametrize("p,q", [(1, 3), (3, 5), (7, 6)])
    def test_reflections_only_at_the_corners(self, p, q):
        # zero cosines sit at n = q mod 2q, so interior blocks never reflect
        coin, _ = build_matrices(QuarterFraction(p, q))
        assert abs(coin[0, 0]) == 1.0
        assert abs(coin[-1, -1]) == 1.0
        for n in range(-q + 1, q):
            i = 2 * (n + q) - 1
            assert coin[i, i] != 0.0

    def test_coin_matches_the_per_site_loop_bitwise(self):
        for f in butterfly_fractions(20):
            coin, _ = build_matrices(f)
            cos, sin = build_trig_loop(f)
            expected = np.zeros_like(coin)
            expected[0, 0] = expected[-1, -1] = trig_pair_exact(f, -f.q)[1]
            for j in range(2 * f.q - 1):
                i = 2 * j + 1
                expected[i : i + 2, i : i + 2] = [[cos[j], -sin[j]], [sin[j], cos[j]]]
            assert coin.tobytes() == expected.tobytes(), f"{f}"

    def test_determinants_need_no_solve(self, monkeypatch):
        def explode(_):
            raise AssertionError("build_matrices called np.linalg.det")

        monkeypatch.setattr(np.linalg, "det", explode)
        coin, shift = build_matrices(QuarterFraction(3, 5))
        assert round(float(np.linalg.slogdet(coin)[1]), 12) == 0.0
        assert np.linalg.slogdet(shift)[0] == -1.0


class TestFactorChecks:
    """exact_trig._check_table and _check_shift prove, once per q, det(coin)
    = 1, det(shift) = -1 and the mirror symmetry of the coin table in O(n)."""

    @staticmethod
    def factors():
        # (cos, sin, column of each shift row's 1): writable copies of the
        # q = 3 coin table, and the shift read back from 1/12's factors
        cos, sin = map(np.array, quarter_trig_table(3))
        _, shift = build_matrices(QuarterFraction(1, 3))
        return cos, sin, shift.argmax(axis=1)

    def test_walk_factors_pass(self):
        for q in range(1, 41):
            _check_table(q, *quarter_trig_table(q))
        cos, sin, target = self.factors()
        _check_table(3, cos, sin)
        _check_shift(target)

    def test_wrong_cosine_is_rejected(self):
        cos, sin, target = self.factors()
        cos[2] += 1e-12
        with pytest.raises(ConvergenceError, match="q = 3 is not a rotation table"):
            _check_table(3, cos, sin)

    def test_nan_cosine_is_rejected(self):
        cos, sin, _ = self.factors()
        cos[2] = np.nan
        with pytest.raises(ConvergenceError, match="q = 3 is not a rotation table"):
            _check_table(3, cos, sin)

    def test_inexact_corner_is_rejected(self):
        # sin[q] and sin[3q] are the corner sines of every coin of this q;
        # one ulp off is still within the rotation bound
        for k in (3, 9):
            cos, sin, _ = self.factors()
            sin[k] = np.nextafter(sin[k], 0.0)
            with pytest.raises(ConvergenceError, match="q = 3 is not a rotation table: corner"):
                _check_table(3, cos, sin)

    def test_broken_mirror_pair_is_rejected(self):
        # one ulp on either entry of a pair k, -k keeps the table a rotation
        # table, but not J-symmetric; k = 0 and 2q are their own mirrors, and
        # the sine there must be exactly zero
        for array, k in [*(("cos", k) for k in range(12) if k % 6), ("sin", 0), ("sin", 6)]:
            cos, sin, _ = self.factors()
            table = cos if array == "cos" else sin
            table[k] = np.nextafter(table[k], 2.0)
            with pytest.raises(ConvergenceError, match="q = 3 is not mirror-symmetric"):
                _check_table(3, cos, sin)

    def test_failed_frame_is_not_cached(self, monkeypatch):
        # the fault is planted in the freshly built table, before its proof
        def perturbed(q, cos, sin):
            cos[1] += 1e-12
            real_check(q, cos, sin)

        real_check = exact_trig._check_table
        spectral._frame.cache_clear()
        quarter_trig_table.cache_clear()
        monkeypatch.setattr(exact_trig, "_check_table", perturbed)
        for _ in range(2):
            with pytest.raises(ConvergenceError, match="q = 7 is not a rotation table"):
                spectrum(QuarterFraction(3, 7))
        assert spectral._frame.cache_info().currsize == 0
        assert quarter_trig_table.cache_info().currsize == 0
        monkeypatch.undo()
        assert len(spectrum(QuarterFraction(3, 7)).eigenvalues) == 28
        assert spectral._frame.cache_info().currsize == 1
        assert quarter_trig_table.cache_info().currsize == 1

    def test_two_cycles_are_rejected(self):
        # swapping two images splits the single 12-cycle into two cycles
        _, _, target = self.factors()
        target[[0, 5]] = target[[5, 0]]
        assert sorted(target) == list(range(12))
        with pytest.raises(ConvergenceError, match="single 12-cycle"):
            _check_shift(target)

    def test_repeated_column_is_rejected(self):
        _, _, target = self.factors()
        target[4] = target[6]
        with pytest.raises(ConvergenceError, match="not a permutation"):
            _check_shift(target)

    def test_cycle_off_the_reflection_is_rejected(self):
        # i -> i + 1 mod 12 is a single 12-cycle, but J maps it to i -> i - 1
        with pytest.raises(ConvergenceError, match="commute with J"):
            _check_shift((np.arange(12) + 1) % 12)


class TestLayout:
    """_layout proves J-symmetry, the parity zero pattern and a one-to-one fill, once per q."""

    @staticmethod
    def cw(q=3):
        layout = spectral._frame(q).layouts["CW"]
        return layout.columns.copy(), np.arange(4 * q)

    def test_walk_layouts_pass(self):
        for q in range(1, 21):
            frame = spectral._frame(q)
            for order, rows in (("CW", np.arange(4 * q)), ("WC", frame.target)):
                layout = frame.layouts[order]
                rebuilt = spectral._layout(layout.columns, rows)
                assert all(
                    np.array_equal(getattr(rebuilt, name), getattr(layout, name))
                    for name in ("columns", "source", "scale", "slots", "picks", "signs")
                )
                # every entry of the first 2q rows but the corner's placeholder
                # and the sine of site 0 fills its own slot
                assert len(layout.slots) == 4 * q - 2

    def test_equal_parity_column_is_rejected(self):
        # row 4 reads its own index, and row 7 = J(4) its own: J-symmetric,
        # but both couple a site to itself
        columns, rows = self.cw()
        columns[1, 4], columns[1, 7] = 4, 7
        with pytest.raises(ConvergenceError, match="equal-parity"):
            spectral._layout(columns, rows)

    def test_pattern_off_the_reflection_is_rejected(self):
        columns, rows = self.cw()
        columns[1, 4] = columns[1, 6]
        with pytest.raises(ConvergenceError, match="commute with J"):
            spectral._layout(columns, rows)

    def test_shared_slot_is_rejected(self):
        # row 3's two entries in one column, and row 8 = J(3) likewise
        columns, rows = self.cw()
        columns[1, 3], columns[1, 8] = columns[0, 3], columns[0, 8]
        with pytest.raises(ConvergenceError, match="one slot twice"):
            spectral._layout(columns, rows)


class TestEigenvalues:
    """The helpers every solve in spectrum() goes through: _eig wraps
    solver failures, _radii gates residuals and moduli."""

    def test_solver_failure_is_wrapped(self, monkeypatch):
        def explode(_):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eig", explode)
        with pytest.raises(ConvergenceError, match="eigensolver failed: did not converge"):
            spectral._eig(np.eye(4))

    def test_bad_eigenpairs_are_rejected(self):
        # i lambda keeps |i lambda| = 1, so only the residual gate can catch it
        m = np.eye(4)
        values, vectors = spectral._eig(m)
        values = values * 1j
        residuals = np.linalg.norm(m @ vectors - vectors * values, axis=0)
        lengths = np.linalg.norm(vectors, axis=0)
        with pytest.raises(ConvergenceError, match="residual 1.414e\\+00"):
            spectral._radii(values, residuals, lengths, 1.0, 1, 4)

    def test_off_circle_eigenvalues_are_rejected(self):
        # zero residuals pass the residual gate, the modulus gate remains
        values = 1.5 * np.ones(4, dtype=complex)
        with pytest.raises(ConvergenceError, match="modulus drifted 5.000e-01"):
            spectral._radii(values, np.zeros(4), np.ones(4), 1.0, 1, 4)


def walk_operator(p, q, order="CW"):
    coin, shift = build_matrices(QuarterFraction(p, q))
    return coin @ shift if order == "CW" else shift @ coin


@pytest.fixture
def eig_calls(monkeypatch):
    """Shapes and dtypes of every np.linalg.eig call."""
    calls = []
    real_eig = np.linalg.eig

    def spy(m):
        calls.append((m.shape, m.dtype))
        return real_eig(m)

    monkeypatch.setattr(np.linalg, "eig", spy)
    return calls


class TestParitySplit:
    """spectrum() solves a walk operator as two real q x q sector blocks A+-B+-."""

    def test_every_spectrum_up_to_q20_takes_one_stacked_sector_solve(self, eig_calls):
        for f in butterfly_fractions(20):
            for order in ("CW", "WC"):
                eig_calls.clear()
                spectrum(f, order)
                assert eig_calls == [((2, f.q, f.q), np.float64)], f"{f} {order}"

    def test_matches_the_parity_split_oracle_for_every_fraction_up_to_q20(self):
        for f in butterfly_fractions(20):
            for order in ("CW", "WC"):
                spec = spectrum(f, order)
                ref_values, _, _ = parity_split_eigenpairs(walk_operator(f.p, f.q, order))
                gap = circular_arg_distance(spec.args, np.angle(ref_values))
                assert gap <= 1e-12, f"{f} {order}: {gap}"

    def test_matches_the_complex_solve_for_every_fraction_up_to_q20(self):
        # same count, args within 1e-12, and a certified verdict never weaker
        for f in butterfly_fractions(20):
            for order in ("CW", "WC"):
                spec = spectrum(f, order)
                ref_values, _, ref_radii = complex_eigenpairs(walk_operator(f.p, f.q, order))
                assert len(spec.eigenvalues) == len(ref_values) == 4 * f.q
                gap = circular_arg_distance(spec.args, np.angle(ref_values))
                assert gap <= 1e-12, f"{f} {order}: {gap}"
                _, bound = eigenvalue_gaps(spec.eigenvalues, spec.radii)
                _, ref_bound = eigenvalue_gaps(ref_values, ref_radii + OPERATOR_ERROR)
                assert bound > 0.0 or ref_bound <= 0.0, f"{f} {order}"

    def test_solver_failure_is_wrapped(self, monkeypatch):
        def explode(_):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eig", explode)
        for order in ("CW", "WC"):
            with pytest.raises(ConvergenceError, match="eigensolver failed: did not converge"):
                spectrum(QuarterFraction(1, 2), order)

    def test_bad_eigenpairs_are_rejected(self, monkeypatch):
        # i mu keeps |sqrt(i mu)| = 1, so only the residual gate can catch it
        real_eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda m: (real_eig(m)[0] * 1j, real_eig(m)[1]))
        for order in ("CW", "WC"):
            with pytest.raises(ConvergenceError, match="residual"):
                spectrum(QuarterFraction(1, 2), order)

    def test_off_circle_eigenvalues_are_rejected(self, monkeypatch):
        # zero vectors give zero residuals, so only the modulus gate can catch mu = 2.25
        monkeypatch.setattr(
            np.linalg, "eig", lambda m: (2.25 * np.ones(m.shape[:-1]), np.zeros_like(m))
        )
        for order in ("CW", "WC"):
            with pytest.raises(ConvergenceError, match="modulus drifted 5.000e-01"):
                spectrum(QuarterFraction(1, 2), order)


class TestResidualDisks:
    def test_spectrum_carries_the_eigenpair_radii(self, eig_calls):
        f = QuarterFraction(3, 5)
        coin, shift = build_matrices(f)
        # the dense reference takes one complex solve of the whole 4q x 4q product
        _, vectors, radii = complex_eigenpairs(coin @ shift)
        assert vectors.shape == (20, 20)
        assert np.all(radii > 0.0)
        assert eig_calls == [((20, 20), np.complex128)]
        eig_calls.clear()
        # the operator takes one stacked solve of both sectors' q x q products
        spec = spectrum(f)
        assert eig_calls == [((2, 5, 5), np.float64)]
        walk_values, walk_args, walk_radii = spectral._walk_eigenvalues(
            spectral._walk_operator(f, "CW")
        )
        assert np.array_equal(spec.eigenvalues, walk_values)
        assert np.array_equal(spec.args, walk_args)
        assert np.array_equal(spec.radii, walk_radii + OPERATOR_ERROR)

    def test_doubled_eigenvalue_fails_the_certificate(self):
        values, _, radii = complex_eigenpairs(np.diag([1.0, 1.0, -1.0, 1.0j]))
        measured, bound = eigenvalue_gaps(values, radii)
        assert measured == 0.0
        assert bound <= 0.0

    def test_distinct_eigenvalues_pass_the_certificate(self):
        values, _, radii = complex_eigenpairs(np.diag(QUARTET))
        measured, bound = eigenvalue_gaps(values, radii)
        assert measured == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert 0.0 < bound < measured

    def test_no_pair_has_no_gap(self):
        # one eigenvalue is simple, and the minimum over no pair is inf
        values, _, radii = complex_eigenpairs(np.eye(1))
        assert eigenvalue_gaps(values, radii) == (math.inf, math.inf)
        assert eigenvalue_gaps(np.zeros(0, dtype=complex), np.zeros(0)) == (math.inf, math.inf)


def _gap_bits(gaps):
    # bitwise, with any NaN as NaN
    return tuple("nan" if math.isnan(x) else x.hex() for x in gaps)


@st.composite
def gap_inputs(draw):
    """values and radii with few, duplicate, clustered, off-circle, zero or NaN entries."""
    n = draw(st.one_of(st.integers(0, 2), st.integers(3, 40)))
    args = np.array(draw(st.lists(st.floats(-math.pi, math.pi), min_size=n, max_size=n)))
    moduli = draw(
        st.sampled_from(
            [
                np.ones(n),
                np.zeros(n),
                np.array(draw(st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n))),
                np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))),
            ]
        )
    )
    values = moduli * np.exp(1j * args)
    index = st.integers(min_value=0, max_value=max(n - 1, 0))
    if n >= 2:
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            values[draw(index)] = values[draw(index)]  # an exact duplicate
    if n >= 3 and draw(st.booleans()):
        # a triple within 1e-15
        i, j, k = draw(index), draw(index), draw(index)
        values[j] = values[i] + 1e-15
        values[k] = values[i] + 0.5e-15j
    for bad in (complex(math.nan, 0.0), complex(math.inf, 0.0), complex(math.inf, 5.0)):
        if n >= 1 and draw(st.integers(min_value=0, max_value=9)) == 0:
            values[draw(index)] = bad
    radius = st.one_of(
        st.floats(0.0, 1e-12),
        st.floats(0.0, 1e300),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    radii = np.array(draw(st.lists(radius, min_size=n, max_size=n)), dtype=float)
    return values, radii


class TestBandedGaps:
    """eigenvalue_gaps evaluates only a band of argument-sorted pairs and must
    give bitwise the minima of the all-pairs matrix in oracles."""

    def test_every_fraction_up_to_q30(self):
        for f in butterfly_fractions(30):
            for order in ("CW", "WC"):
                spec = spectrum(f, order)
                got = eigenvalue_gaps(spec.eigenvalues, spec.radii)
                ref = all_pairs_eigenvalue_gaps(spec.eigenvalues, spec.radii)
                assert _gap_bits(got) == _gap_bits(ref), f"{f} {order}"

    @given(gap_inputs())
    @settings(max_examples=300)
    def test_hypothesis_inputs(self, inputs):
        values, radii = inputs
        with np.errstate(over="ignore", invalid="ignore"):
            got = eigenvalue_gaps(values, radii)
            ref = all_pairs_eigenvalue_gaps(values, radii)
        assert _gap_bits(got) == _gap_bits(ref)

    def test_zero_vector(self):
        values, radii = np.zeros(6, dtype=complex), np.full(6, 1e-15)
        assert eigenvalue_gaps(values, radii) == all_pairs_eigenvalue_gaps(values, radii)

    def test_band_widens_only_when_a_far_pair_could_undercut_it(self, monkeypatch):
        widths = []
        real = spectral._pair_gaps

        def spy(values, radii, partner):
            widths.append(partner.shape[1])
            return real(values, radii, partner)

        monkeypatch.setattr(spectral, "_pair_gaps", spy)
        spec = spectrum(QuarterFraction(1, 30))
        eigenvalue_gaps(spec.eigenvalues, spec.radii)
        assert widths == [1]
        # one tiny modulus leaves the chord bound below the band's minimum
        widths.clear()
        values = np.exp(1j * np.linspace(-3.0, 3.0, 20))
        values[7] *= 1e-3
        radii = np.full(20, 1e-15)
        got = eigenvalue_gaps(values, radii)
        assert widths == [1, 2, 4, 8, 10]
        assert got == all_pairs_eigenvalue_gaps(values, radii)

    @pytest.mark.parametrize("theta", [0.01, 0.5, 2.0])
    def test_far_pair_just_below_the_band(self, theta):
        # a and c, of modulus 1 at arc theta, are a far pair whose distance
        # 2 sin(theta / 2) is the chord bound exactly; b and d sit just far
        # enough out that the band's minimum exceeds it by 1e-9 relative
        chord = 2.0 * math.sin(theta / 2.0)
        out = math.cos(theta / 2.0) + math.sqrt((chord * (1.0 + 1e-9)) ** 2 - chord**2 / 4.0)
        values = np.array([1.0, out * np.exp(0.5j * theta), np.exp(1j * theta), -out])
        radii = np.full(4, 1e-15)
        assert eigenvalue_gaps(values, radii) == all_pairs_eigenvalue_gaps(values, radii)
        assert eigenvalue_gaps(values, radii)[0] == pytest.approx(chord, rel=1e-12)

    def test_non_finite_values_take_all_pairs(self):
        # inf - (inf + 5j) is NaN, in a far pair only; the band would read 0.0
        values = np.array([complex(math.inf, 0.0), 1.0, complex(math.inf, 5.0), -1.0, -1.0])
        with np.errstate(invalid="ignore"):
            got = eigenvalue_gaps(values, np.zeros(5))
        assert _gap_bits(got) == ("nan", "nan")

    @pytest.mark.parametrize(
        "values, radii",
        [
            (np.array([1.0, 1.0j, -1.0]), np.array([1e-15])),  # one radius for all
            (np.array([1.0, 1.0j, -1.0]), np.zeros(2)),
            (np.array([[1.0, 1.0j], [-1.0, -1.0j]]), np.zeros((2, 2))),
            (np.array([[1.0, 1.0j]]), np.zeros(2)),
            (np.array([1.0, 1.0j]), np.zeros((1, 2))),
            (np.array(1.0), np.array(0.0)),
        ],
    )
    def test_rejects_bad_shapes(self, values, radii):
        with pytest.raises(ValueError, match="1-D of equal length"):
            eigenvalue_gaps(values, radii)


def product_error(op, values):
    # sqrt(2) gamma_{k+2} (||U||_abs + |lambda|), the fl(M v) term of the radii (_radii)
    k = op.frame.row_nonzeros
    return math.sqrt(2.0) * spectral._gamma(k + 2) * (op.frame.abs_norm + np.abs(values))


class TestStructuredCertificate:
    """spectrum() certifies each reflection sector on its q x q blocks."""

    @pytest.mark.parametrize("order", ["CW", "WC"])
    def test_perturbed_coin_fails_the_residual_gate(self, monkeypatch, order):
        # cos[2] moves in the sector blocks after the solve: the certificate
        # must apply the blocks, not trust the eigensolver
        op = spectral._walk_operator(QuarterFraction(3, 5), order)
        layout = op.frame.layouts[order]
        real_blocks, real_eig = spectral._WalkOperator.sector_blocks, np.linalg.eig
        built = []

        def keep(self):
            built.append(real_blocks(self))
            return built[-1]

        def solve_then_perturb(m):
            pairs = real_eig(m)
            built[0].reshape(2, -1)[:, layout.slots[layout.picks == 2 + 2]] += 1e-8
            return pairs

        monkeypatch.setattr(spectral._WalkOperator, "sector_blocks", keep)
        monkeypatch.setattr(np.linalg, "eig", solve_then_perturb)
        with pytest.raises(ConvergenceError, match="residual"):
            spectral._walk_eigenvalues(op)
        assert len(built) == 1

    @pytest.mark.parametrize("order", ["CW", "WC"])
    @pytest.mark.parametrize("array", ["cos", "sin"])
    def test_broken_reflection_symmetry_is_rejected(self, monkeypatch, order, array):
        # negating one table entry off the multiples of q, where the entries
        # are 0, +-1 or their own mirrors, keeps the coin a rotation but
        # breaks J U J = U, on which the sector split rests: the frame of q
        # rejects it before any solve
        def explode(_):
            raise AssertionError("a broken frame reached the eigensolver")

        f = QuarterFraction(3, 5)
        real_check = exact_trig._check_table
        monkeypatch.setattr(np.linalg, "eig", explode)
        for k in [k for k in range(4 * f.q) if k % f.q]:

            def negated(q, cos, sin, k=k):
                # the fault is planted in the freshly built table, before its proof
                dict(cos=cos, sin=sin)[array][k] *= -1.0
                real_check(q, cos, sin)

            spectral._frame.cache_clear()
            quarter_trig_table.cache_clear()
            monkeypatch.setattr(exact_trig, "_check_table", negated)
            with pytest.raises(ConvergenceError, match=r"q = 5 .* \(J U J != U\)"):
                spectrum(f, order)

    def test_blocks_are_the_dense_sector_blocks(self):
        # A+- and B+- bitwise equal the blocks of U11 +- U12 K of the dense
        # product, which is zero on the equal-parity blocks
        for f in butterfly_fractions(20):
            coin, shift = build_matrices(f)
            half = 2 * f.q
            odd = (np.arange(half) + 1) // 2 % 2 == 1
            for order, m in (("CW", coin @ shift), ("WC", shift @ coin)):
                blocks = spectral._walk_operator(f, order).sector_blocks()
                assert blocks.shape == (2, 2, f.q, f.q)
                for sector, sign in enumerate((1.0, -1.0)):
                    u = m[:half, :half] + sign * m[:half, half:][:, ::-1]
                    assert not u[np.ix_(odd, odd)].any() and not u[np.ix_(~odd, ~odd)].any()
                    a, b = u[np.ix_(~odd, odd)], u[np.ix_(odd, ~odd)]
                    assert blocks[sector, 0].tobytes() == a.tobytes(), f"{f} {order} A"
                    assert blocks[sector, 1].tobytes() == b.tobytes(), f"{f} {order} B"

    def test_matches_the_lifted_oracle_for_every_fraction_up_to_q20(self):
        # eigenvalues and args bitwise; radii within the slack below
        for f in butterfly_fractions(20):
            for order in ("CW", "WC"):
                op = spectral._walk_operator(f, order)
                values, args, radii = spectral._walk_eigenvalues(op)
                ref_values, _, ref_radii = lifted_walk_eigenpairs(op)
                ref_args = np.angle(ref_values)
                ref_args[ref_args == -np.pi] = np.pi
                assert values.tobytes() == ref_values.tobytes(), f"{f} {order}"
                assert args.tobytes() == ref_args.tobytes(), f"{f} {order}"
                # both radii bound the exact residual of (nearly) the same
                # vector, up to one product error each; the vectors' B w / root
                # halves may differ by roundings of B w (real or complex
                # product), worth less than one more; and gamma_{4q+8} covers
                # the relative roundings of either radius
                slack = 3.0 * product_error(op, values) + spectral._gamma(4 * f.q + 8) * (
                    radii + ref_radii
                )
                assert np.all(np.abs(radii - ref_radii) <= slack), f"{f} {order}"
                # and no radius falls below its product-error term, with U's k and ||U||_abs
                assert np.all(radii >= product_error(op, values)), f"{f} {order}"
                # -lambda has bitwise the radius of lambda (_walk_eigenvalues); the
                # oracle, which evaluates both pairs, agrees
                for vals, rads in ((values, radii), (ref_values, ref_radii)):
                    radius_of = dict(zip(vals.tolist(), rads.tolist()))
                    assert len(radius_of) == 4 * f.q
                    assert all(radius_of[-v] == r for v, r in radius_of.items()), f"{f} {order}"

    def test_residual_is_within_rounding_of_the_dense_product(self):
        # the lifted oracle's O(n) factor apply against the dense product
        for f in butterfly_fractions(12):
            coin, shift = build_matrices(f)
            for order, m in (("CW", coin @ shift), ("WC", shift @ coin)):
                op = spectral._walk_operator(f, order)
                values, vectors, _ = lifted_walk_eigenpairs(op)
                structured = np.linalg.norm(walk_apply(op, vectors) - vectors * values, axis=0)
                dense = np.linalg.norm(m @ vectors - vectors * values, axis=0)
                # each is within sqrt(2) gamma_{k+2} (||U||_abs + |lambda|) ||v|| of
                # the exact residual, up to relative roundings (_radii)
                k = int(np.count_nonzero(m, axis=1).max())
                assert op.frame.row_nonzeros == k
                magnitudes = np.abs(m)
                dense_norm = math.sqrt(magnitudes.sum(axis=0).max() * magnitudes.sum(axis=1).max())
                assert abs(op.frame.abs_norm - dense_norm) <= 2.0**-52 * dense_norm
                bound = 2.0 * product_error(op, values) * np.linalg.norm(
                    vectors, axis=0
                ) + spectral._gamma(len(m) + 8) * (structured + dense)
                assert np.all(np.abs(structured - dense) <= bound), f"{f} {order}"


class TestPerFractionWork:
    """spectrum() and property_report do per-fraction work only, and their
    results are bitwise those of the per-fraction references (oracles)."""

    def test_frame_norms_are_the_per_fraction_ones_up_to_q80(self):
        count = 0
        for f in butterfly_fractions(80):
            frame = spectral._frame(f.q)
            assert frame.row_nonzeros == (2 if f.q > 1 else 1)
            for order in ("CW", "WC"):
                op = spectral._walk_operator(f, order)
                assert op.frame is frame
                assert frame.abs_norm.hex() == walk_abs_norm(op).hex(), f"{f} {order}"
                assert frame.row_nonzeros == walk_max_row_nonzeros(op), f"{f} {order}"
            count += 1
        assert count == 5258

    def test_spectrum_is_the_four_norm_certificate_up_to_q50(self):
        count = 0
        for f in butterfly_fractions(50):
            for order in ("CW", "WC"):
                spec = spectrum(f, order)
                values, args, radii = four_norm_walk_eigenvalues(spectral._walk_operator(f, order))
                assert spec.eigenvalues.tobytes() == values.tobytes(), f"{f} {order}"
                assert spec.args.tobytes() == args.tobytes(), f"{f} {order}"
                assert spec.radii.tobytes() == (radii + OPERATOR_ERROR).tobytes(), f"{f} {order}"
                count += 1
        assert count == 4148

    def test_property_report_is_the_reference_up_to_q30(self):
        # residuals bitwise, and each verdict by its rule (PropertyReport)
        for f in butterfly_fractions(30):
            report = property_report(f)
            ref = property_residuals(f)
            got = {
                "alpha_reflection": report.alpha_reflection.residual,
                "conjugation": report.conjugation.residual,
                "negation": report.negation.residual,
                "simple_gap": report.simplicity.residual,
                "gap_lower_bound": report.gap_lower_bound,
                "quartet": report.quartet.residual,
                "det_residual": report.det_residual,
            }
            assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in ref.items()}, f"{f}"
            assert (report.simple_gap, report.gauge_residual) == (got["simple_gap"], got["negation"])
            assert [
                report.alpha_reflection.passed,
                report.conjugation.passed,
                report.negation.passed,
                report.simplicity.passed,
                report.quartet.passed,
                report.det_ok,
            ] == [
                ref["alpha_reflection"] == 0.0,
                ref["conjugation"] == 0.0,
                ref["negation"] == 0.0,
                ref["gap_lower_bound"] > 0.0,
                ref["quartet"] <= RESIDUAL_TOL,
                ref["det_residual"] <= spectral.DET_TOL,
            ], f"{f}"

    def test_frame_constants_are_read_only(self):
        frame = spectral._frame(5)
        assert frame.alternating.tolist() == [(-1.0) ** i for i in range(20)]
        with pytest.raises(ValueError, match="read-only"):
            frame.alternating[0] = 0.0
        assert spectral._QUARTET.tolist() == QUARTET.tolist()


class TestResidualDisksAgainstOracle:
    """Radii checked against the exact operator built from 30-digit trig."""

    @pytest.mark.parametrize("p,q", [(1, 1), (3, 5), (3, 19), (3, 20)])
    def test_radii_bound_the_exact_residuals(self, p, q):
        f = QuarterFraction(p, q)
        coin, shift = build_matrices(f)
        m = coin @ shift
        exact = mp_walk_operator(p, q)
        assert set(zip(*np.nonzero(m))) <= set(exact)
        for (i, j), value in exact.items():
            assert abs(m[i, j] - value) <= TRIG_ERROR_BOUND, f"entry {(i, j)}"
        values, vectors, _ = lifted_walk_eigenpairs(spectral._walk_operator(f, "CW"))
        spec = spectrum(f)
        assert values.tobytes() == spec.eigenvalues.tobytes()
        for k, residual in enumerate(mp_residuals(exact, values, vectors)):
            assert residual <= spec.radii[k], f"eigenpair {k}: {residual} > {spec.radii[k]}"

    @pytest.mark.parametrize("p,q,exact_gap", [(3, 19, EXACT_GAP_3_76), (3, 20, EXACT_GAP_3_80)])
    def test_certified_gap_contains_the_exact_gap(self, p, q, exact_gap):
        report = property_report(QuarterFraction(p, q))
        assert report.simplicity.passed
        assert report.simple_gap < 1e-6
        # with disjoint disks the measured closest pair holds two distinct
        # exact eigenvalues, so the exact gap is at most its distance plus
        # both radii (and the measured distance is within 2 roundings)
        upper = report.simple_gap * (1.0 + 4 * 2.0**-53) + 2.0 * spectrum(
            QuarterFraction(p, q)
        ).radii.max()
        assert report.gap_lower_bound <= exact_gap <= upper
        assert float(mpmath.fabs(exact_gap - report.simple_gap)) < 1e-14


class TestSpectrum:
    def test_smallest_case_matches_hand_oracle(self):
        # coin @ shift for p=q=1, written out entry by entry
        hand = np.array(
            [
                [0.0, -1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, -1.0, 0.0],
            ],
            dtype=complex,
        )
        coin, shift = build_matrices(QuarterFraction(1, 1))
        assert np.array_equal(coin @ shift, hand)
        spec = spectrum(QuarterFraction(1, 1))
        expected_args = np.array([-np.pi / 2, 0.0, np.pi / 2, np.pi])
        assert np.allclose(spec.args, expected_args, atol=1e-9)
        hand_args = np.sort(np.angle(np.linalg.eigvals(hand)))
        assert circular_arg_distance(spec.args, hand_args) <= 1e-9

    def test_quartet_membership(self):
        spec = spectrum(QuarterFraction(1, 3))
        for target in QUARTET:
            assert np.abs(spec.eigenvalues - target).min() <= 1e-9

    def test_metadata(self):
        spec = spectrum(QuarterFraction(3, 5))
        assert (spec.p, spec.q, spec.dim) == (3, 5, 20)
        assert spec.alpha == Fraction(3, 20)
        assert len(spec.eigenvalues) == 20

    @given(quarter_fractions(q_max=8))
    @settings(max_examples=20)
    def test_factor_order_does_not_move_the_spectrum(self, f):
        cw = spectrum(f, "CW")
        wc = spectrum(f, "WC")
        assert circular_arg_distance(cw.args, wc.args) <= 1e-9

    def test_unknown_order(self):
        with pytest.raises(ValueError, match="order"):
            spectrum(QuarterFraction(1, 1), "CS")

    def test_minus_pi_folds_to_pi(self):
        # -1 is the negated root 1 + 0j, so np.angle gives it -pi; the
        # principal branch is (-pi, pi], and the args stay sorted
        for f in butterfly_fractions(6):
            for order in ("CW", "WC"):
                spec = spectrum(f, order)
                raw = np.angle(spec.eigenvalues)
                assert (raw == -np.pi).any(), f"{f} {order}"
                folded = np.where(raw == -np.pi, np.pi, raw)
                assert spec.args.tobytes() == folded.tobytes(), f"{f} {order}"
                assert spec.args[-1] == np.pi and spec.args[0] > -np.pi
                assert np.all(np.diff(spec.args) >= 0.0)

    def test_eigenvector_transport_between_orders(self):
        # shift factor carries eigenvectors of coin@shift to shift@coin
        coin, shift = build_matrices(QuarterFraction(3, 5))
        values, vectors = np.linalg.eig(coin @ shift)
        wc = shift @ coin
        for k in range(len(values)):
            moved = shift @ vectors[:, k]
            assert np.linalg.norm(wc @ moved - values[k] * moved) <= 1e-8


class TestPropertyReport:
    @pytest.mark.parametrize("p,q", [(1, 1), (1, 3), (3, 5), (7, 2)])
    def test_all_properties_hold(self, p, q):
        report = property_report(QuarterFraction(p, q))
        assert (report.p, report.q) == (p, q)
        assert report.all_passed()
        for check in (
            report.alpha_reflection,
            report.conjugation,
            report.negation,
            report.quartet,
        ):
            assert check.passed
            assert check.residual <= 1e-9
        assert report.simplicity.passed
        assert report.det_ok
        assert report.det_residual <= 1e-9

    def test_smallest_gap_is_root_two(self):
        report = property_report(QuarterFraction(1, 1))
        assert report.simple_gap == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert 0.0 < report.gap_lower_bound <= report.simple_gap

    def test_unresolved_doublet_is_not_passed(self):
        # at 3/196 the measured gap is below the disk radii: simplicity can
        # be neither proven nor refuted in double precision
        report = property_report(QuarterFraction(3, 49))
        assert report.simplicity.passed is False
        assert not report.all_passed()
        assert report.simplicity.residual == report.simple_gap
        assert 0.0 < report.simple_gap < 1e-14
        assert report.gap_lower_bound < 0.0


class TestProvenSymmetries:
    def test_reflection_identity_is_exact_for_every_fraction_up_to_q50(self):
        # U(1 - alpha) = T U(alpha) T bitwise with T = diag((-1)^i), the
        # identity that proves alpha_reflection; O(q) per fraction, no solve
        count = 0
        for f in butterfly_fractions(50):
            columns, values = spectral._walk_operator(f, "CW").entries()
            mirror_columns, mirror = spectral._walk_operator(f.complement(), "CW").entries()
            t = (-1.0) ** np.arange(4 * f.q)
            assert np.array_equal(mirror_columns, columns), f"{f}"
            assert float(np.abs(mirror - t * t[columns] * values).max()) == 0.0, f"{f}"
            count += 1
        assert count == 2074

    def test_proven_verdicts_agree_with_the_measured_ones_up_to_q20(self):
        for f in butterfly_fractions(20):
            report = property_report(f)
            checks = (report.alpha_reflection, report.conjugation, report.negation)
            measured = measured_symmetry_residuals(f)
            assert [c.residual for c in checks] == [0.0, 0.0, 0.0], f"{f}"
            assert [c.passed for c in checks] == [r <= RESIDUAL_TOL for r in measured], f"{f}"

    def test_planted_fault_fails_the_reflection_proof(self, monkeypatch):
        # coins of 3/20 at sites +-3 rotated by +-1e-11: J-symmetry holds and
        # the radii stay tiny, so a measured 1.5e-12 reflection residual
        # would pass RESIDUAL_TOL; the similarity identity fails
        f = QuarterFraction(3, 5)
        monkeypatch.setattr(
            spectral, "_walk_operator", planted_reflection_fault(spectral._walk_operator, f)
        )
        report = property_report(f)
        assert report.spectrum.radii.max() < 1e-14
        assert report.alpha_reflection.passed is False
        assert 0.0 < report.alpha_reflection.residual < 1e-10
        assert report.conjugation.passed and report.negation.passed
        assert report.simplicity.passed and report.quartet.passed and report.det_ok
        assert not report.all_passed()
        assert 0.0 < measured_symmetry_residuals(f)[0] <= RESIDUAL_TOL

    def test_negation_is_decided_by_the_gauge_residual(self, monkeypatch):
        # a wrong gauge sign at index 4 leaves the spectrum and the
        # reflection identity alone, but G U G^-1 = -U no longer holds
        real_build = spectral._walk_operator

        def wrong_gauge(f, order):
            op = real_build(f, order)
            signs = op.frame.signs.copy()
            signs[4] = -signs[4]
            return dataclasses.replace(op, frame=dataclasses.replace(op.frame, signs=signs))

        monkeypatch.setattr(spectral, "_walk_operator", wrong_gauge)
        report = property_report(QuarterFraction(3, 5))
        assert report.gauge_residual > 0.0
        assert report.negation == spectral.PropertyCheck(False, report.gauge_residual)
        assert report.alpha_reflection.passed and report.conjugation.passed
        assert not report.all_passed()


class TestGauge:
    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (7, 9)])
    def test_parity_gauge_flips_the_operator_exactly(self, p, q):
        # on the dense factors, not the entries the gauge residual reads
        coin, shift = build_matrices(QuarterFraction(p, q))
        assert dense_gauge_residual(coin @ shift) == 0.0
        assert dense_gauge_residual(shift @ coin) == 0.0

    @pytest.mark.parametrize("order", ["CW", "WC"])
    def test_residual_equals_the_dense_one_off_the_gauge(self, order):
        # a wrong sign at index j breaks the identity on row j and column j
        f = QuarterFraction(3, 5)
        op = spectral._walk_operator(f, order)
        coin, shift = build_matrices(f)
        m = coin @ shift if order == "CW" else shift @ coin
        for j in range(len(m)):
            signs = op.frame.signs.copy()
            signs[j] = -signs[j]
            wrong = dataclasses.replace(op, frame=dataclasses.replace(op.frame, signs=signs))
            dense = float(np.abs(signs[:, None] * m * signs[None, :] + m).max())
            assert dense > 0.0
            assert wrong.gauge_residual(wrong.entries()) == dense, f"index {j}"

    @pytest.mark.parametrize("p,q", [(1, 1), (3, 5), (7, 9)])
    def test_report_carries_the_gauge_residual(self, p, q):
        f = QuarterFraction(p, q)
        report = property_report(f)
        coin, shift = build_matrices(f)
        assert report.gauge_residual == dense_gauge_residual(coin @ shift) == 0.0


class TestButterfly:
    def test_fraction_order(self):
        assert [(f.p, f.q) for f in butterfly_fractions(2)] == [
            (1, 1),
            (3, 1),
            (1, 2),
            (3, 2),
            (5, 2),
            (7, 2),
        ]

    def test_fraction_count(self):
        # odd q contributes 2*phi(q) fractions, even q contributes 4*phi(q)
        assert sum(1 for _ in butterfly_fractions(10)) == 90

    def test_rejects_bad_q_max(self):
        with pytest.raises(ValueError, match="q_max"):
            list(butterfly_fractions(0))

    @pytest.mark.parametrize("q_max", [True, 2.0])
    def test_q_max_must_be_an_integer(self, q_max):
        with pytest.raises(TypeError, match="q_max must be an integer"):
            list(butterfly_fractions(q_max))

    def test_spectra_follow_the_fraction_order(self):
        specs = list(butterfly(1))
        assert [(s.p, s.q) for s in specs] == [(1, 1), (3, 1)]
        direct = spectrum(QuarterFraction(1, 1))
        assert np.array_equal(specs[0].args, direct.args)

    def test_reflection_pairing_across_the_sweep(self):
        specs = {(s.p, s.q): s for s in butterfly(3)}
        for (p, q), spec in specs.items():
            partner = specs[(4 * q - p, q)]
            assert circular_arg_distance(spec.args, partner.args) <= 1e-9


class TestCircularArgDistance:
    def test_seam_rotation_is_recognized(self):
        a = np.array([-np.pi + 1e-10, 0.0])
        b = np.array([0.0, np.pi - 1e-10])
        assert float(np.abs(a - b).max()) > 1.0
        assert circular_arg_distance(a, b) <= 1e-9

    def test_plain_case(self):
        a = np.array([0.0, 1.0, 2.0])
        assert circular_arg_distance(a, a) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            circular_arg_distance(np.zeros(3), np.zeros(4))

    def test_empty_lists(self):
        assert circular_arg_distance(np.zeros(0), np.zeros(0)) == math.inf

    @given(
        st.lists(st.floats(min_value=-np.pi, max_value=np.pi), max_size=20),
        st.lists(st.floats(min_value=0.0, max_value=1e-9), max_size=4),
        st.lists(st.floats(min_value=0.0, max_value=1e-9), max_size=4),
        st.lists(st.floats(min_value=-1e-9, max_value=1e-9), min_size=28, max_size=28),
    )
    def test_matches_the_roll_loop(self, bulk, below_pi, above_minus_pi, noise):
        # clusters just inside +pi and -pi; the noise moves some of them
        # across the seam, so the two sorted lists differ by a rotation
        points = np.array(
            bulk + [np.pi - x for x in below_pi] + [-np.pi + x for x in above_minus_pi]
        )
        a = np.sort(wrap_args(points))
        b = np.sort(wrap_args(points + np.array(noise[: len(points)])))
        for x, y in ((a, b), (b, a), (a, np.sort(-a))):
            assert circular_arg_distance(x, y).hex() == circular_arg_distance_loop(x, y).hex()

    def test_matches_the_roll_loop_on_walk_spectra(self):
        for f in (QuarterFraction(1, 1), QuarterFraction(3, 20), QuarterFraction(3, 49)):
            spec = spectrum(f)
            mirror = spectrum(f.complement())
            for b in (mirror.args, np.sort(-spec.args), np.roll(spec.args, 3)):
                fast = circular_arg_distance(spec.args, b)
                assert fast.hex() == circular_arg_distance_loop(spec.args, b).hex()
