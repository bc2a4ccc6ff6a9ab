import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from iqwalk import (
    ConvergenceError,
    QuarterFraction,
    RingState,
    RotationalSchedule,
    dual_vector,
    fraction_cos_sin,
    half_pi_cos_sin,
    ring_coin,
    spectrum,
    trig_pair_exact,
    verify_duality,
)
from iqwalk import duality, exact_trig, spectral
from iqwalk.exact_trig import TRIG_ERROR_BOUND, TRIG_Q_MAX, quarter_trig_table
from oracles import mp_cos_sin


def quarter_fractions(max_q: int = 50):
    def build(draw):
        q = draw(st.integers(min_value=1, max_value=max_q))
        p = draw(
            st.integers(min_value=0, max_value=2 * q - 1).map(lambda k: 2 * k + 1)
        )
        if math.gcd(p, q) != 1:
            p = 1
        return QuarterFraction(p, q)

    return st.composite(build)()


class TestQuarterFraction:
    def test_rejects_even_numerator(self):
        with pytest.raises(ValueError, match="odd"):
            QuarterFraction(2, 3)

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError, match="coprime"):
            QuarterFraction(3, 9)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            QuarterFraction(1, 0)
        with pytest.raises(ValueError):
            QuarterFraction(-1, 3)

    @pytest.mark.parametrize("p, q", [(True, 5), (3, True), (1, False), (3.0, 5), (3, 5.0)])
    def test_rejects_bools_and_floats(self, p, q):
        with pytest.raises(TypeError, match="must be an integer"):
            QuarterFraction(p, q)

    def test_numpy_integers_become_ints(self):
        f = QuarterFraction(np.int64(3), np.int32(5))
        assert (type(f.p), type(f.q)) == (int, int)
        assert f == QuarterFraction(3, 5) and hash(f) == hash(QuarterFraction(3, 5))

    def test_value_and_modulus(self):
        f = QuarterFraction(1, 3)
        assert f.alpha == Fraction(1, 12)
        assert f.modulus == 12
        assert str(f) == "1/12"

    def test_canonical_reduces_into_unit_interval(self):
        assert QuarterFraction(13, 3).canonical() == QuarterFraction(1, 3)
        assert QuarterFraction(1, 3).canonical() == QuarterFraction(1, 3)

    def test_complement_mirrors_about_one_half(self):
        f = QuarterFraction(1, 3).complement()
        assert (f.p, f.q) == (11, 3)
        assert QuarterFraction(3, 5).complement().alpha == 1 - Fraction(3, 20)

    def test_from_fraction(self):
        assert QuarterFraction.from_fraction(Fraction(3, 20)) == QuarterFraction(3, 5)
        with pytest.raises(ValueError, match="divisible by 4"):
            QuarterFraction.from_fraction(Fraction(1, 6))


class TestExactValues:
    # the three pinned example angles: 0, pi/2 at n=q, 3pi/2 at n=q
    def test_zero_angle(self):
        assert trig_pair_exact(QuarterFraction(1, 1), 0) == (1.0, 0.0)

    def test_quarter_turn_at_barrier_site(self):
        assert trig_pair_exact(QuarterFraction(1, 3), 3) == (0.0, 1.0)

    def test_three_quarter_turn_at_barrier_site(self):
        assert trig_pair_exact(QuarterFraction(3, 5), 5) == (0.0, -1.0)

    def test_barrier_cosine_is_bit_zero(self):
        # cos vanishes exactly iff p*n is an odd multiple of q
        f = QuarterFraction(1, 3)
        for n in (-15, -9, -3, 3, 9, 15):
            c, s = trig_pair_exact(f, n)
            assert c == 0.0
            assert abs(s) == 1.0

    @given(quarter_fractions(), st.integers(min_value=-500, max_value=500))
    def test_zero_cosine_criterion(self, f, n):
        c, _ = trig_pair_exact(f, n)
        expected_zero = (f.p * n) % (2 * f.q) == f.q
        assert (c == 0.0) == expected_zero

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=-5, max_value=5))
    def test_quadrant_boundaries_are_literal(self, q, quadrant):
        c, s = half_pi_cos_sin(quadrant * q, q)
        assert (c, s) in {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)}


class TestAccuracy:
    @given(quarter_fractions(), st.integers(min_value=-200, max_value=200))
    def test_matches_high_precision_oracle(self, f, n):
        c, s = trig_pair_exact(f, n)
        oc, os = mp_cos_sin(f"{f.p}/{4 * f.q}", n)
        assert abs(c - oc) <= 2e-16
        assert abs(s - os) <= 2e-16

    @given(quarter_fractions(), st.integers(min_value=-1000, max_value=1000))
    def test_unit_circle(self, f, n):
        c, s = trig_pair_exact(f, n)
        assert abs(c * c + s * s - 1.0) <= 1e-15

    @given(st.integers(min_value=2, max_value=300), st.data())
    def test_fold_symmetry_is_bitwise(self, q, data):
        # cos(k pi/2q) and sin((q-k) pi/2q) must be the same float
        r = data.draw(st.integers(min_value=1, max_value=q - 1))
        c, s = half_pi_cos_sin(r, q)
        c2, s2 = half_pi_cos_sin(q - r, q)
        assert (c, s) == (s2, c2)

    @given(quarter_fractions(), st.integers(min_value=-50, max_value=50))
    def test_periodic_in_site(self, f, n):
        assert trig_pair_exact(f, n) == trig_pair_exact(f, n + 4 * f.q)


class TestFractionTurns:
    def test_half_turn(self):
        assert fraction_cos_sin(Fraction(1, 2)) == (-1.0, 0.0)

    def test_full_turn(self):
        assert fraction_cos_sin(Fraction(3)) == (1.0, 0.0)

    def test_third_turn_matches_libm(self):
        c, s = fraction_cos_sin(Fraction(1, 3))
        assert abs(c - math.cos(2 * math.pi / 3)) <= 1e-15
        assert abs(s - math.sin(2 * math.pi / 3)) <= 1e-15

    @given(
        st.integers(min_value=-100, max_value=100),
        st.integers(min_value=1, max_value=100),
    )
    def test_matches_oracle(self, a, b):
        c, s = fraction_cos_sin(Fraction(a, b))
        turns = Fraction(a, b)
        oc, os = mp_cos_sin(f"{turns.numerator}/{turns.denominator}", 1)
        assert abs(c - oc) <= 2e-16
        assert abs(s - os) <= 2e-16

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            half_pi_cos_sin(1, 0)


class TestIntegerArguments:
    """k, q and the site are integers: a float, NaN or bool raises TypeError
    where it used to give NaN, a boundary value or an IndexError."""

    @pytest.mark.parametrize("k, q", [(float("nan"), 3), (1, 2.5), (3, True), (True, 3), (1.0, 3)])
    def test_half_pi_cos_sin(self, k, q):
        with pytest.raises(TypeError, match="must be an integer"):
            half_pi_cos_sin(k, q)

    @pytest.mark.parametrize("n", [0.5, 1e300, True, 2.0])
    def test_trig_pair_exact(self, n):
        with pytest.raises(TypeError, match="site must be an integer"):
            trig_pair_exact(QuarterFraction(1, 3), n)

    @pytest.mark.parametrize("turns", [0.25, 1, float("nan")])
    def test_fraction_cos_sin_takes_a_fraction(self, turns):
        with pytest.raises(TypeError, match="must be a Fraction"):
            fraction_cos_sin(turns)

    def test_numpy_integers_are_read(self):
        f = QuarterFraction(1, 3)
        assert half_pi_cos_sin(np.int64(5), np.int32(3)) == half_pi_cos_sin(5, 3)
        assert trig_pair_exact(f, np.int64(5)) == trig_pair_exact(f, 5)


class TestLargestModulus:
    """q <= TRIG_Q_MAX = 2**1022 keeps pi * r / (2.0 * q) finite and normal."""

    @pytest.mark.parametrize("q", [10**308, 10**400, TRIG_Q_MAX + 1])
    def test_rejects_q_above_the_bound(self, q):
        with pytest.raises(ValueError, match="at most 2"):
            half_pi_cos_sin(1, q)
        with pytest.raises(ValueError, match="at most 2"):
            fraction_cos_sin(Fraction(1, 4 * q))

    @pytest.mark.parametrize("q", [10**300, 3**600, TRIG_Q_MAX])
    def test_values_inside_the_bound_are_the_first_quadrant_formula(self, q):
        # what half_pi_cos_sin evaluated before the bound, bitwise, and
        # within TRIG_ERROR_BOUND of the exact value
        for r in (1, 7, q // 3, q // 2 - 1, q // 2 + 1, q - 1):
            x = math.pi * min(r, q - r) / (2.0 * q)
            assert math.isfinite(x) and x >= sys.float_info.min
            expected = (math.cos(x), math.sin(x)) if 2 * r < q else (math.sin(x), math.cos(x))
            assert half_pi_cos_sin(r, q) == expected
            with mpmath.workdps(30):
                exact = mpmath.cos_sin(mpmath.pi * r / (2 * mpmath.mpf(q)))
            for value, ref in zip(expected, exact):
                assert abs(value - ref) <= TRIG_ERROR_BOUND

    def test_bound_is_where_the_operands_leave_the_normal_range(self):
        q = TRIG_Q_MAX
        assert math.isfinite(2.0 * q) and math.isfinite(math.pi * (q - 1))
        assert math.pi / (2.0 * q) >= sys.float_info.min
        assert math.isinf(2.0 * (2 * q))
        assert math.isinf(math.pi * (2 * q - 1))


class TestQuarterTrigTable:
    def test_every_entry_is_half_pi_cos_sin_bitwise(self):
        # tobytes tells -0.0 from 0.0, which == does not
        for q in range(1, 201):
            cos, sin = quarter_trig_table(q)
            ref = np.array([half_pi_cos_sin(k, q) for k in range(4 * q)])
            assert cos.tobytes() == np.ascontiguousarray(ref[:, 0]).tobytes(), q
            assert sin.tobytes() == np.ascontiguousarray(ref[:, 1]).tobytes(), q

    @given(quarter_fractions(), st.integers(min_value=-10**6, max_value=10**6))
    def test_one_table_serves_a_fraction_and_its_mirror(self, f, n):
        cos, sin = quarter_trig_table(f.q)
        for g in (f, f.canonical().complement()):
            k = g.p * n % g.modulus
            assert (cos[k], sin[k]) == trig_pair_exact(g, n)

    def test_rejects_non_positive_q(self):
        with pytest.raises(ValueError, match="positive"):
            quarter_trig_table(0)

    def test_float_q_is_not_served_from_the_cache(self):
        quarter_trig_table(3)
        with pytest.raises(TypeError):
            quarter_trig_table(3.0)


def _clear_caches():
    quarter_trig_table.cache_clear()
    spectral._frame.cache_clear()
    duality._duality_residual.cache_clear()


def _consumers(f):
    """Each reader of the quarter table of f.q, as a call."""
    q = f.q
    return {
        "verify_duality": lambda: verify_duality(f),
        "ring_coin": lambda: ring_coin(f, RingState(np.ones((4 * q, 2)))),
        "dual_vector": lambda: dual_vector(f, 1, "L"),
        "spectrum": lambda: spectrum(f),
        # a window as wide as 4q fills the cache from the table
        "schedule": lambda: RotationalSchedule(f).coin_entries(-2 * q, 2 * q),
    }


class TestOneProvenTable:
    """quarter_trig_table builds and proves each q's table once; every
    consumer reads those read-only arrays."""

    def test_repeated_calls_return_the_same_read_only_arrays(self):
        cos, sin = quarter_trig_table(9)
        assert all(a is b for a, b in zip(quarter_trig_table(9), (cos, sin)))
        for array in (cos, sin):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 2.0

    def test_every_consumer_reads_the_one_table(self, monkeypatch):
        def explode(*_):
            raise AssertionError("a quarter table was built twice")

        _clear_caches()
        f = QuarterFraction(5, 7)
        cos, sin = quarter_trig_table(f.q)
        monkeypatch.setattr(exact_trig, "_check_table", explode)
        for g in (f, QuarterFraction(3, 7), QuarterFraction(27, 7)):
            for call in _consumers(g).values():
                call()
        frame = spectral._frame(f.q)
        assert frame.cos is cos and frame.sin is sin
        schedule = RotationalSchedule(f)
        schedule.coin_entries(0, 4 * f.q)
        assert schedule._table[0] is cos and schedule._table[1] is sin

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("mirror", "is not mirror-symmetric"),
            ("quarter turn", "is not a quarter turn"),
            ("corner", "is not a rotation table: corner"),
        ],
    )
    def test_planted_fault_fails_in_every_consumer(self, monkeypatch, fault, message):
        # the fault is planted in the freshly built table, before its proof:
        # one ulp on cos[1] breaks the mirror; the same ulp on cos[-1] too
        # keeps the mirror but breaks the quarter turn; sin[q] a ulp below 1
        # keeps the rotation bound but not the exact corner
        def planted(q, cos, sin):
            if fault == "corner":
                sin[q] = np.nextafter(1.0, 0.0)
            else:
                nudged = np.nextafter(cos[1], 2.0)
                cos[1] = nudged
                if fault == "quarter turn":
                    cos[-1] = nudged
            real_check(q, cos, sin)

        real_check = exact_trig._check_table
        f = QuarterFraction(3, 7)
        _clear_caches()
        monkeypatch.setattr(exact_trig, "_check_table", planted)
        for name, call in _consumers(f).items():
            with pytest.raises(ConvergenceError, match=f"q = 7 {message}"):
                call()
            assert quarter_trig_table.cache_info().currsize == 0, name
        monkeypatch.undo()
        for call in _consumers(f).values():
            call()
        assert quarter_trig_table.cache_info().currsize == 1
