import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqwalk import (
    CustomSchedule,
    LeakageError,
    NumericalDriftError,
    QuarterFraction,
    RandomSchedule,
    RotationalSchedule,
    WalkerState,
    barrier_positions,
    evolve,
    finite_support_verify,
    golden_mean,
    leaked_probability,
    near_barriers,
    origin_probability,
    pi_half,
    recurrence_series,
    spread_exponent,
    support,
)
import iqwalk.analysis
import iqwalk.walk
from oracles import (
    barrier_positions_loop,
    leaked_probability_loop,
    mp_origin_series,
    near_barriers_loop,
    recurrence_series_loop,
    reflecting_coin,
    spread_exponent_loop,
)
from test_walk import walk_cases

DYADIC_SPINOR = (0.5 + 0.5j, 0.5 - 0.5j)
# window ends that are not integers: (True, 3) used to scan (1, 3), and a
# float failed inside coin_entries
WRONG_WINDOWS = [(-3.0, 3), (True, 3), (-3, 2.5), (-3, "3")]
WRONG_WINDOW_IDS = ["float lo", "bool lo", "float hi", "str hi"]


class TestLeakedProbability:
    def _state_with_stray(self, stray):
        amps = np.zeros((9, 2), dtype=complex)
        amps[3, 0] = 1.0  # site 0
        amps[8, 1] = stray  # site 5
        return WalkerState(-3, amps)

    def test_clean_interval(self):
        state = self._state_with_stray(0.0)
        assert leaked_probability(state, (-3, 3)) == 0.0
        assert leaked_probability(state, (0, 0)) == 0.0

    def test_underflowing_amplitude_still_raises(self):
        state = self._state_with_stray(1e-200)
        with pytest.raises(LeakageError, match="escaped"):
            leaked_probability(state, (-3, 3))

    def test_interval_covering_everything(self):
        state = self._state_with_stray(0.5)
        assert leaked_probability(state, (-5, 5)) == 0.0

    def test_inverted_interval_is_rejected(self):
        # (3, -3) used to report the whole state as leaked
        with pytest.raises(ValueError, match="empty window"):
            leaked_probability(self._state_with_stray(0.0), (3, -3))

    @pytest.mark.parametrize("interval", WRONG_WINDOWS, ids=WRONG_WINDOW_IDS)
    def test_interval_ends_must_be_integers(self, interval):
        # (True, 3) used to be read as (1, 3), and (-3.0, 3) returned 0.0
        with pytest.raises(TypeError, match="window end must be an integer"):
            leaked_probability(self._state_with_stray(0.5), interval)

    def test_numpy_integer_interval(self):
        state = self._state_with_stray(0.5)
        assert leaked_probability(state, (np.int64(-5), np.int32(5))) == 0.0
        with pytest.raises(LeakageError, match=r"escaped \[-3, 3\]"):
            leaked_probability(state, (np.int64(-3), np.int32(3)))


class TestFiniteSupportVerify:
    @pytest.mark.parametrize("p,q", [(1, 1), (1, 3), (3, 5)])
    def test_confinement_certificates(self, p, q):
        report = finite_support_verify(QuarterFraction(p, q), 300)
        assert report.predicted_interval == (-q, q)
        assert report.leaked_probability == 0.0
        lo, hi = report.observed_support
        assert -q <= lo <= hi <= q
        assert report.steps == 300
        assert report.alpha_description == f"{p}/{4 * q}"

    def test_custom_spinor(self):
        report = finite_support_verify(QuarterFraction(1, 2), 50, (1.0, 0.0))
        assert report.leaked_probability == 0.0

    @pytest.mark.parametrize("steps", [True, 3.0, 2.5])
    def test_step_count_must_be_an_integer(self, steps):
        with pytest.raises(TypeError, match="steps must be an integer"):
            finite_support_verify(QuarterFraction(1, 2), steps)


class TestBarrierPositions:
    def test_quarter_period_barriers_everywhere_odd(self):
        schedule = RotationalSchedule(QuarterFraction(1, 1))
        assert barrier_positions(schedule, (-5, 5)) == [-5, -3, -1, 1, 3, 5]

    def test_barriers_at_odd_multiples_of_q(self):
        schedule = RotationalSchedule(QuarterFraction(1, 3))
        assert barrier_positions(schedule, (-10, 10)) == [-9, -3, 3, 9]

    def test_custom_reflecting_sites(self):
        schedule = CustomSchedule({-7: reflecting_coin(), 7: reflecting_coin()})
        assert barrier_positions(schedule, (-20, 20)) == [-7, 7]

    def test_custom_barriers_confine_exactly(self):
        schedule = CustomSchedule({-7: reflecting_coin(), 7: reflecting_coin()})
        state = evolve(DYADIC_SPINOR, schedule, 60)
        assert leaked_probability(state, (-7, 7)) == 0.0
        lo, hi = support(state)
        assert -7 <= lo <= hi <= 7

    def test_random_schedule_has_no_exact_barriers(self):
        assert barrier_positions(RandomSchedule(99), (-30, 30)) == []

    def test_irrational_schedule_has_no_exact_barriers(self):
        schedule = RotationalSchedule(golden_mean(40))
        assert barrier_positions(schedule, (-30, 30)) == []

    def test_window_validation(self):
        with pytest.raises(ValueError, match="empty window"):
            barrier_positions(RandomSchedule(1), (3, 2))

    @pytest.mark.parametrize("window", WRONG_WINDOWS, ids=WRONG_WINDOW_IDS)
    def test_window_ends_must_be_integers(self, window):
        with pytest.raises(TypeError, match="window end must be an integer"):
            barrier_positions(RotationalSchedule(QuarterFraction(1, 3)), window)

    def test_numpy_integer_window(self):
        schedule = RotationalSchedule(QuarterFraction(1, 3))
        assert barrier_positions(schedule, (np.int64(-10), np.int32(10))) == [-9, -3, 3, 9]


class TestNearBarriers:
    def test_exact_barriers_are_found_at_zero(self):
        scan = near_barriers(RotationalSchedule(QuarterFraction(1, 3)), (-10, 10))
        assert not scan.rigorous
        assert scan.threshold == 1e-2
        assert scan.sites == ((-9, 0.0), (-3, 0.0), (3, 0.0), (9, 0.0))

    def test_irrational_near_misses(self):
        # golden inverse period: |cos| at sites +-2 is about 0.0875
        scan = near_barriers(RotationalSchedule(golden_mean(40)), (-3, 3), 0.1)
        assert [n for n, _ in scan.sites] == [-2, 2]
        for _, size in scan.sites:
            assert 0.0 < size < 0.1

    def test_window_validation(self):
        with pytest.raises(ValueError, match="empty window"):
            near_barriers(RandomSchedule(1), (1, 0))

    @pytest.mark.parametrize("window", WRONG_WINDOWS, ids=WRONG_WINDOW_IDS)
    def test_window_ends_must_be_integers(self, window):
        with pytest.raises(TypeError, match="window end must be an integer"):
            near_barriers(RotationalSchedule(QuarterFraction(1, 3)), window)

    def test_nan_threshold_is_rejected(self):
        # every comparison with NaN is false, so the scan used to come back empty
        with pytest.raises(ValueError, match="NaN"):
            near_barriers(RotationalSchedule(QuarterFraction(1, 3)), (-10, 10), math.nan)


class TestRecurrenceSeries:
    def test_zero_steps(self):
        series = recurrence_series(RandomSchedule(5), 0, initial=DYADIC_SPINOR)
        assert series == [(0, 1.0)]

    @pytest.mark.parametrize(
        "schedule",
        [
            RotationalSchedule(QuarterFraction(1, 3)),
            RotationalSchedule(Fraction(1, 6)),
            RandomSchedule(42),
        ],
        ids=["quarter", "fraction", "random"],
    )
    def test_odd_times_are_exactly_zero(self, schedule):
        series = recurrence_series(schedule, 41)
        assert [t for t, _ in series] == list(range(42))
        for t, prob in series:
            if t % 2 == 1:
                assert prob == 0.0

    def test_matches_full_evolution(self):
        schedule = RotationalSchedule(QuarterFraction(3, 5))
        series = dict(recurrence_series(schedule, 24))
        for t in (0, 7, 16, 24):
            state = evolve((1.0 / math.sqrt(2),) * 2, schedule, t)
            assert series[t] == origin_probability(state)

    def test_matches_independent_high_precision_walker(self):
        series = recurrence_series(RotationalSchedule(pi_half(40)), 60)
        reference = mp_origin_series("pi/2", 60)
        for (t, prob), expected in zip(series, reference):
            assert abs(prob - expected) <= 1e-12, f"t={t}"

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            recurrence_series(RandomSchedule(1), -1)

    @pytest.mark.parametrize("t_max", [0, 3])
    def test_unknown_order_raises_before_any_step(self, t_max):
        with pytest.raises(ValueError, match="unknown walk order 'XX'"):
            recurrence_series(RandomSchedule(1), t_max, order="XX")

    @pytest.mark.parametrize("t_max", [True, False, 4.0, 2.5])
    def test_t_max_must_be_an_integer(self, t_max):
        with pytest.raises(TypeError, match="t_max must be an integer"):
            recurrence_series(RandomSchedule(1), t_max)


class TestSpreadExponent:
    def test_sign_flip_schedule_is_exactly_ballistic(self):
        # alpha = 1/2 gives diagonal sign coins: sigma(t) = t with no rounding
        est = spread_exponent(
            RotationalSchedule(Fraction(1, 2)), [4, 8, 16, 32], initial=DYADIC_SPINOR
        )
        assert est.sigmas == (4.0, 8.0, 16.0, 32.0)
        assert est.fitted_exponent == pytest.approx(1.0, abs=1e-12)
        assert est.times == (4, 8, 16, 32)
        assert est.theta == 0.5

    def test_integer_shifted_inverse_period_behaves_the_same(self):
        est = spread_exponent(
            RotationalSchedule(Fraction(3, 2)), [4, 8, 16], initial=DYADIC_SPINOR
        )
        assert est.sigmas == (4.0, 8.0, 16.0)

    def test_confined_walk_has_flat_spread(self):
        est = spread_exponent(
            RotationalSchedule(QuarterFraction(1, 3)), [64, 128, 256, 512], theta=0.1
        )
        assert abs(est.fitted_exponent) <= 0.3
        assert max(est.sigmas) <= 3.0
        for t, tail in zip(est.times, est.scaled_tail):
            assert tail <= 3.0 / t**0.1 + 1e-12

    def test_free_sublattice_walk_is_ballistic(self):
        est = spread_exponent(RotationalSchedule(Fraction(1, 6)), [250, 500, 1000])
        assert abs(est.fitted_exponent - 1.0) <= 0.05

    def test_motionless_component_yields_nan(self):
        # chirality never mixes, sigma stays 0, no slope can be fitted
        est = spread_exponent(
            RotationalSchedule(Fraction(1, 2)), [2, 4, 8], initial=(1.0, 0.0)
        )
        assert est.sigmas == (0.0, 0.0, 0.0)
        assert math.isnan(est.fitted_exponent)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            spread_exponent(RandomSchedule(1), [])
        with pytest.raises(ValueError, match="positive"):
            spread_exponent(RandomSchedule(1), [0, 4])

    @pytest.mark.parametrize("checkpoints", [[2.5, 5.9], [4, 8.0], [True, 4]])
    def test_checkpoints_must_be_integers(self, checkpoints):
        # int() used to truncate [2.5, 5.9] to the times (2, 5)
        with pytest.raises(TypeError, match="checkpoint must be an integer"):
            spread_exponent(RotationalSchedule(Fraction(2, 7)), checkpoints)

    def test_numpy_integer_checkpoints(self):
        schedule = RotationalSchedule(Fraction(2, 7))
        est = spread_exponent(schedule, np.array([4, 8]))
        assert est.times == (4, 8) and all(type(t) is int for t in est.times)

    @pytest.mark.parametrize("checkpoints", [[1], [4, 8]])
    def test_unknown_order_raises_before_any_step(self, checkpoints):
        with pytest.raises(ValueError, match="unknown walk order 'XX'"):
            spread_exponent(RandomSchedule(1), checkpoints, order="XX")

    @given(st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_theta_is_rejected(self, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            spread_exponent(RandomSchedule(1), [4, 8], theta=theta)


    @pytest.mark.parametrize("theta", [400.0, -400.0])
    def test_power_beyond_double_range_raises_before_any_step(self, monkeypatch, theta):
        # 125**400 overflows and 125**-400 underflows to 0.0: the tail used to
        # raise OverflowError or ZeroDivisionError, with the walk half done
        def no_steps(*args):
            raise AssertionError("walked before the powers were checked")

        monkeypatch.setattr(iqwalk.analysis, "_sublattice_steps", no_steps)
        with pytest.raises(NumericalDriftError, match=rf"t=125, theta={theta!r}"):
            spread_exponent(RotationalSchedule(Fraction(1, 6)), [125, 250], theta=theta)

    def test_largest_power_at_1000_steps(self):
        # 1000**102 is a double, 1000**103 is not; theta = 0 divides by 1.0
        schedule = RotationalSchedule(Fraction(1, 6))
        (abs_moment,) = spread_exponent(schedule, [1000], theta=0.0).scaled_tail
        (tail,) = spread_exponent(schedule, [1000], theta=102.0).scaled_tail
        assert tail == abs_moment / 1000**102.0 > 0.0
        with pytest.raises(NumericalDriftError, match=r"t=1000, theta=103\.0"):
            spread_exponent(schedule, [1, 1000], theta=103.0)

def _leak_outcome(fn, state, interval):
    try:
        return fn(state, interval)
    except LeakageError as exc:
        return str(exc)


class TestAgainstLoops:
    """The array paths against the per-site loops kept in oracles."""

    @given(
        st.integers(-6, 6),
        st.integers(1, 12),
        st.integers(-10, 10),
        st.integers(-10, 10),
        st.lists(st.sampled_from([0.0, -0.0, 1e-300, 0.5j, -2.0]), min_size=2, max_size=24),
    )
    def test_leaked_probability(self, offset, size, lo, hi, values):
        lo, hi = min(lo, hi), max(lo, hi)  # an inverted interval raises ValueError
        amps = np.resize(np.array(values, dtype=complex), 2 * size).reshape(size, 2)
        state = WalkerState(offset, amps, 3)
        expect = _leak_outcome(leaked_probability_loop, state, (lo, hi))
        assert _leak_outcome(leaked_probability, state, (lo, hi)) == expect

    SCHEDULES = {
        "1/12": lambda: RotationalSchedule(QuarterFraction(1, 3)),
        "3/20": lambda: RotationalSchedule(QuarterFraction(3, 5)),
        "2/7": lambda: RotationalSchedule(Fraction(2, 7)),
        "golden": lambda: RotationalSchedule(golden_mean(40)),
        "1/2": lambda: RotationalSchedule(Fraction(1, 2)),
        "haar": lambda: RandomSchedule(4),
        "custom": lambda: CustomSchedule({-7: reflecting_coin(), 2: reflecting_coin(0.3)}),
    }

    @pytest.mark.parametrize("name", SCHEDULES)
    @pytest.mark.parametrize("window", [(-40, 40), (3, 3), (-9, -2)])
    def test_barrier_scans(self, name, window):
        make = self.SCHEDULES[name]
        assert barrier_positions(make(), window) == barrier_positions_loop(make(), window)
        for threshold in (1e-2, 0.3, 1.0):
            scan = near_barriers(make(), window, threshold)
            assert scan.sites == near_barriers_loop(make(), window, threshold)

    @pytest.mark.parametrize("order", ["WC", "CW"])
    @pytest.mark.parametrize("name", ["2/7", "3/20", "haar"])
    def test_recurrence_series(self, name, order):
        make = self.SCHEDULES[name]
        series = recurrence_series(make(), 150, (0.6, 0.8j), order)
        assert series == recurrence_series_loop(make(), 150, (0.6, 0.8j), order)

    @pytest.mark.parametrize("name", ["2/7", "golden", "haar"])
    def test_spread_exponent(self, name):
        make = self.SCHEDULES[name]
        times = [10, 25, 60, 120]
        est = spread_exponent(make(), times, (0.6, 0.8j), theta=0.4)
        sigmas, tails = spread_exponent_loop(make(), times, (0.6, 0.8j), theta=0.4)
        assert est.sigmas == sigmas
        assert est.scaled_tail == tails


class TestSublatticeEngine:
    """recurrence_series and spread_exponent run the sublattice engine that
    evolve runs: their figures equal those of the step loops exactly."""

    @given(walk_cases())
    @settings(max_examples=60)
    def test_recurrence_series_is_the_step_loop(self, case):
        make, _, spinor, order, _, t_max = case
        series = recurrence_series(make(), t_max, spinor, order)
        want = recurrence_series_loop(make(), t_max, spinor, order)
        assert series == want
        assert np.array(series).tobytes() == np.array(want).tobytes()  # zero signs too

    @given(walk_cases(), st.lists(st.integers(1, 80), min_size=1, max_size=8), st.floats(0, 1))
    @settings(max_examples=60)
    def test_spread_exponent_is_the_step_loop(self, case, checkpoints, theta):
        make, _, spinor, order, _, _ = case
        est = spread_exponent(make(), checkpoints, spinor, theta, order)
        times = sorted(set(checkpoints))
        assert est.times == tuple(times)
        sigmas, tails = spread_exponent_loop(make(), times, spinor, theta, order)
        assert est.sigmas == sigmas and est.scaled_tail == tails

    def test_neither_falls_back_to_the_dense_step(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense step called")

        monkeypatch.setattr(iqwalk.walk, "step", refuse)
        monkeypatch.setattr(iqwalk.analysis, "step", refuse, raising=False)
        for order in ("WC", "CW"):
            schedule = RotationalSchedule(Fraction(2, 7))
            assert len(recurrence_series(schedule, 50, order=order)) == 51
            assert len(spread_exponent(schedule, [10, 50], order=order).sigmas) == 2
