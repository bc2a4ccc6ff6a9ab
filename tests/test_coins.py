import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from iqwalk import (
    CustomSchedule,
    QuarterFraction,
    RandomSchedule,
    RealEnclosure,
    RotationalSchedule,
    golden_mean,
    haar_coin,
    pi_half,
    reflecting_coin,
    rotation_coin,
    unitarity_defect,
)

UNIT = 1e-12


class TestElementaryCoins:
    def test_rotation_coin_layout(self):
        m = rotation_coin(0.6, 0.8)
        assert np.array_equal(m, np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex))
        assert unitarity_defect(m) <= 1e-15

    def test_reflecting_coin_has_zero_diagonal(self):
        m = reflecting_coin(0.3)
        assert m[0, 0] == 0 and m[1, 1] == 0
        assert unitarity_defect(m) <= 1e-15
        assert abs(m[0, 1] + complex(math.cos(0.3), math.sin(0.3))) <= 1e-15

    def test_unitarity_defect_detects_scaling(self):
        assert unitarity_defect(1.001 * np.eye(2)) > 1e-4


class TestHaarCoins:
    @given(st.integers(min_value=0, max_value=2**63), st.integers(-10**6, 10**6))
    def test_unitary(self, seed, n):
        assert unitarity_defect(haar_coin(seed, n)) <= UNIT

    def test_deterministic_in_key(self):
        a = haar_coin(42, -3)
        b = haar_coin(42, -3)
        assert np.array_equal(a, b)

    def test_sensitive_to_site_and_seed(self):
        base = haar_coin(42, 3)
        assert not np.allclose(base, haar_coin(42, 4), atol=1e-3)
        assert not np.allclose(base, haar_coin(43, 3), atol=1e-3)

    def test_schedule_matches_free_function(self):
        schedule = RandomSchedule(7)
        assert np.array_equal(schedule.coin_at(11), haar_coin(7, 11))
        assert np.array_equal(RandomSchedule(7).coin_at(11), schedule.coin_at(11))


class TestRotationalSchedule:
    def test_quarter_fraction_structure(self):
        schedule = RotationalSchedule(QuarterFraction(1, 1))
        assert np.array_equal(schedule.coin_at(0), np.eye(2, dtype=complex))
        quarter_turn = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
        assert np.array_equal(schedule.coin_at(1), quarter_turn)

    @given(st.integers(min_value=-40, max_value=40))
    def test_rotational_shape(self, n):
        # equal diagonal entries, opposite off-diagonal entries, all real
        coin = RotationalSchedule(QuarterFraction(3, 5)).coin_at(n)
        assert coin[0, 0] == coin[1, 1]
        assert coin[0, 1] == -coin[1, 0]
        assert coin.imag.max() == 0.0
        assert unitarity_defect(coin) <= 1e-15

    def test_accepts_general_fraction(self):
        schedule = RotationalSchedule(Fraction(1, 6))
        assert schedule.quarter_fraction is None
        c = schedule.coin_at(3)  # angle pi: exactly -identity
        assert np.array_equal(c, -np.eye(2, dtype=complex))

    def test_promotes_quarter_denominator(self):
        schedule = RotationalSchedule(Fraction(3, 20))
        assert schedule.quarter_fraction == QuarterFraction(3, 5)

    def test_promotes_point_enclosure(self):
        enc = RealEnclosure.from_fraction(Fraction(1, 12))
        assert RotationalSchedule(enc).quarter_fraction == QuarterFraction(1, 3)

    def test_integer_alpha_gives_identity(self):
        schedule = RotationalSchedule(1)
        for n in (-5, 0, 9):
            assert np.array_equal(schedule.coin_at(n), np.eye(2, dtype=complex))

    def test_rejects_sloppy_irrational(self):
        rough = RealEnclosure.from_decimal("0.57", uncertainty_last_place=1)
        with pytest.raises(ValueError, match="certified digits"):
            RotationalSchedule(rough)

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            RotationalSchedule(0.25)

    def test_irrational_matches_enclosure_trig(self):
        enc = pi_half(40)
        schedule = RotationalSchedule(enc)
        c, s = enc.cos_sin_two_pi(-1)
        assert np.array_equal(schedule.coin_at(-1), rotation_coin(c, s))

    def test_irrational_site_minus_one_oracle(self):
        # angle -pi^2 reduced mod 2pi, checked against high-precision trig
        from oracles import mp_cos_sin

        coin = RotationalSchedule(pi_half(40)).coin_at(-1)
        oc, os = mp_cos_sin("pi/2", -1)
        assert abs(coin[0, 0].real - oc) <= 2e-16
        assert abs(coin[1, 0].real - os) <= 2e-16

    @pytest.mark.parametrize(
        "alpha,shifted",
        [
            (QuarterFraction(1, 3), QuarterFraction(13, 3)),
            (Fraction(1, 6), Fraction(7, 6)),
        ],
    )
    def test_unit_shift_in_alpha_changes_nothing(self, alpha, shifted):
        base = RotationalSchedule(alpha)
        moved = RotationalSchedule(shifted)
        for n in range(-8, 9):
            assert np.array_equal(base.coin_at(n), moved.coin_at(n))

    def test_unit_shift_for_irrational(self):
        enc = golden_mean(40)
        plus_one = RealEnclosure(enc.lo + 1, enc.hi + 1, "golden+1")
        base = RotationalSchedule(enc)
        moved = RotationalSchedule(plus_one)
        for n in (-4, 1, 7):
            assert np.array_equal(base.coin_at(n), moved.coin_at(n))


class TestScheduleCache:
    def test_window_views_match_single_sites(self):
        schedule = RotationalSchedule(QuarterFraction(1, 3))
        a, b, c, d = schedule.coin_entries(-6, 6)
        for i, n in enumerate(range(-6, 7)):
            coin = schedule.coin_at(n)
            assert (a[i], b[i], c[i], d[i]) == (
                coin[0, 0],
                coin[0, 1],
                coin[1, 0],
                coin[1, 1],
            )

    def test_cache_grows_from_disjoint_requests(self):
        schedule = RandomSchedule(99)
        left = schedule.coin_at(-20)
        right = schedule.coin_at(20)
        a, b, c, d = schedule.coin_entries(-20, 20)
        assert (a[0], b[0], c[0], d[0]) == tuple(left.reshape(4))
        assert (a[-1], b[-1], c[-1], d[-1]) == tuple(right.reshape(4))

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            RandomSchedule(1).coin_entries(3, 2)


class TestCustomSchedule:
    def test_defaults_to_identity(self):
        schedule = CustomSchedule({})
        assert np.array_equal(schedule.coin_at(123), np.eye(2, dtype=complex))

    def test_returns_stored_coins(self):
        barrier = reflecting_coin()
        schedule = CustomSchedule({4: barrier})
        assert np.array_equal(schedule.coin_at(4), barrier)
        assert np.array_equal(schedule.coin_at(5), np.eye(2, dtype=complex))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            CustomSchedule({0: np.array([[1.0, 0.0], [0.0, 0.5]])})

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            CustomSchedule({0: np.eye(3)})

    @given(st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 3))
    def test_rejects_non_finite_entries(self, bad, index):
        coin = np.eye(2, dtype=complex)
        coin.flat[index] = bad
        # inf * 0 in the unitarity product warns before the check rejects it
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="unitary"):
            CustomSchedule({0: coin})

    def test_stored_coin_is_copied(self):
        coin = np.eye(2, dtype=complex)
        schedule = CustomSchedule({0: coin})
        coin[0, 0] = 5.0
        assert schedule.coin_at(0)[0, 0] == 1.0
