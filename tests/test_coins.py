import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from iqwalk import (
    CoinSchedule,
    CustomSchedule,
    QuarterFraction,
    RandomSchedule,
    RealEnclosure,
    RotationalSchedule,
    evolve,
    fraction_cos_sin,
    golden_mean,
    haar_coin,
    pi_half,
    reflecting_coin,
    rotation_coin,
    trig_pair_exact,
    unitarity_defect,
)
from iqwalk import coins, exact_trig
from iqwalk.walk import DEFAULT_SPINOR

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

    @pytest.mark.parametrize("seed", [2.9, 2.0, math.nan, np.float64(3.0), True, False, "7", None])
    def test_schedule_rejects_non_integer_seeds(self, seed):
        with pytest.raises(TypeError, match="seed must be an integer"):
            RandomSchedule(seed)

    @pytest.mark.parametrize("seed,n", [(2.5, 3), (math.nan, 0), (True, 3), (4, 1.0), (4, False)])
    def test_free_function_rejects_non_integer_keys(self, seed, n):
        with pytest.raises(TypeError, match="must be an integer"):
            haar_coin(seed, n)

    def test_integer_like_seeds_are_accepted(self):
        schedule = RandomSchedule(np.int64(7))
        assert type(schedule.seed) is int and schedule.seed == 7
        assert np.array_equal(haar_coin(np.uint8(7), np.int32(-2)), haar_coin(7, -2))


def _haar_bytes(seed, sites):
    return np.array([haar_coin(seed, n).reshape(4) for n in sites]).T.tobytes()


class TestHaarBatch:
    """One Philox4x64 array pass per fill, bitwise equal to haar_coin per site."""

    SEEDS = [0, 1, 2**31 - 1, 2**63 + 5, 2**64 + 3]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_window_across_zero(self, seed):
        sites = range(-300, 301)
        assert coins._haar_batch(seed, (sites,)).tobytes() == _haar_bytes(seed, sites)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("centre", [2**62, -(2**62), 2**63, -(2**63), 2**64])
    def test_windows_at_huge_sites(self, seed, centre):
        sites = range(centre - 20, centre + 21)
        assert coins._haar_batch(seed, (sites,)).tobytes() == _haar_bytes(seed, sites)

    @given(
        st.integers(min_value=-(2**65), max_value=2**65),
        st.integers(min_value=-(2**63), max_value=2**63),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=30),
    )
    def test_two_spans(self, seed, lo, width, gap):
        left, right = range(lo, lo + width), range(lo + width + gap, lo + 2 * width + gap)
        got = coins._haar_batch(seed, (left, right))
        assert got.shape == (4, 2 * width)
        assert got.tobytes() == _haar_bytes(seed, [*left, *right])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_raw_words_are_numpy_philox(self, seed):
        sites = [*range(-3, 4), 2**62 + 1, -(2**62) - 1]
        words = coins._philox_words(seed, [range(n, n + 1) for n in sites])
        for j, n in enumerate(sites):
            key = np.array([seed % 2**64, n % 2**64], dtype=np.uint64)
            expect = np.random.Philox(key=key).random_raw(4)
            assert words[:, j].tobytes() == expect.tobytes()

    def test_real_factor_keeps_the_scalar_signs_of_zero(self):
        # haar_coin's entries are complex scalars times floats, which promote the
        # float to x + 0i; that fixes the sign of a zero part when a factor is 0
        grid = [0.0, -0.0, 0.5, -0.5]
        for re, im, x in itertools.product(grid, repeat=3):
            got = coins._times_real(np.array([re]), np.array([im]), np.array([x]))
            for expect in (complex(re, im) * x, x * np.conj(complex(re, -im))):
                assert got.tobytes() == np.array([expect]).tobytes(), (re, im, x)


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

    @pytest.mark.parametrize(
        "site", [1.5, 1.0, True, "2", None], ids=["float", "whole float", "bool", "str", "None"]
    )
    def test_rejects_non_integer_sites(self, site):
        # int() would put 1.5, 1.0 and True on site 1 and "2" on site 2
        with pytest.raises(TypeError, match="site must be an integer"):
            CustomSchedule({site: reflecting_coin()})

    def test_numpy_integer_sites_are_plain_sites(self):
        barrier = reflecting_coin()
        schedule = CustomSchedule({np.int64(-3): barrier, np.int32(2): barrier})
        for n in (-3, 2):
            assert np.array_equal(schedule.coin_at(n), barrier)
        assert np.array_equal(schedule.coin_entries(-3, 2)[0], [0, 1, 1, 1, 1, 0])


class CountingSchedule(CoinSchedule):
    """Per-site Haar coins that count coin builds per site and cache reallocations."""

    def __init__(self, seed):
        super().__init__()
        self.seed = seed
        self.built = Counter()
        self.reallocations = 0
        self._last = None

    def _build_coin(self, n):
        self.built[n] += 1
        return haar_coin(self.seed, n)

    def coin_entries(self, lo, hi):
        entries = super().coin_entries(lo, hi)
        if self._last is not None and not np.shares_memory(self._last, entries[0]):
            self.reallocations += 1
        self._last = entries[0]
        return entries


class TestAmortisedCache:
    @pytest.mark.parametrize("order", ["WC", "CW"])
    def test_unconfined_walk_builds_each_site_once(self, order):
        steps = 1000
        schedule = CountingSchedule(5)
        evolve(DEFAULT_SPINOR, schedule, steps, order)
        lo, hi = min(schedule.built), max(schedule.built)
        assert lo <= -(steps - 1) and hi >= steps - 1
        assert schedule.built == Counter(range(lo, hi + 1))
        assert 1 <= schedule.reallocations <= math.log2(steps) + 2

    @pytest.mark.parametrize("order", ["WC", "CW"])
    def test_haar_walk_fills_once_per_reallocation(self, monkeypatch, order):
        steps, built, fills = 1000, Counter(), []
        batch = coins._haar_batch

        def spy(seed, spans):
            fills.append(spans)
            built.update(n for span in spans for n in span)
            return batch(seed, spans)

        monkeypatch.setattr(coins, "_haar_batch", spy)
        evolve(DEFAULT_SPINOR, RandomSchedule(5), steps, order)
        lo, hi = min(built), max(built)
        assert lo <= -(steps - 1) and hi >= steps - 1
        assert built == Counter(range(lo, hi + 1))
        assert 1 <= len(fills) <= math.log2(steps) + 2

    def test_windows_are_read_only(self):
        schedule = RotationalSchedule(Fraction(2, 7))
        for entries in (schedule.coin_entries(-3, 3), schedule.coin_entries(-40, 50)):
            for row in entries:
                with pytest.raises(ValueError):
                    row[0] = 1.0

    def test_disjoint_requests_fill_the_gap_once(self):
        schedule = CountingSchedule(8)
        schedule.coin_entries(30, 31)
        assert schedule.built == Counter([30, 31])
        schedule.coin_entries(-30, -29)
        schedule.coin_entries(-5, 5)
        assert schedule.built == Counter(range(-30, 32))


def _entry_bytes(cos, sin):
    return np.array([cos, -sin, sin, cos]).astype(complex).tobytes()


class TestPeriodTables:
    """Coins gathered from one period table equal the per-site trig, bit for bit."""

    @pytest.mark.parametrize(
        "alpha", [Fraction(2, 7), Fraction(7, 5), Fraction(13, 10), Fraction(-2, 9), 3]
    )
    def test_fraction_gather_is_per_site_trig(self, alpha):
        sites = range(-10**4, 10**4 + 1)
        expect = np.array([fraction_cos_sin(Fraction(alpha) * n) for n in sites]).T
        got = RotationalSchedule(alpha).coin_entries(sites[0], sites[-1])
        assert np.array(got).tobytes() == _entry_bytes(*expect)

    @given(
        st.integers(min_value=0, max_value=2**62).map(lambda k: 2 * k + 1),
        st.integers(min_value=1, max_value=40),
    )
    def test_quarter_gather_is_trig_pair_exact(self, p, q):
        assume(math.gcd(p, q) == 1)
        f = QuarterFraction(p, q)
        sites = range(-3 * q, 3 * q + 1)
        expect = np.array([trig_pair_exact(f, n) for n in sites]).T
        got = RotationalSchedule(f).coin_entries(sites[0], sites[-1])
        assert np.array(got).tobytes() == _entry_bytes(*expect)

    @pytest.mark.parametrize("p,q", [(2**63 + 1, 5), (2**63 + 1, 7), (2**63 - 1, 3)])
    def test_huge_numerators(self, p, q):
        f = QuarterFraction(p, q)
        sites = range(-5 * q, 5 * q + 1)
        expect = np.array([trig_pair_exact(f, n) for n in sites]).T
        got = RotationalSchedule(f).coin_entries(sites[0], sites[-1])
        assert np.array(got).tobytes() == _entry_bytes(*expect)


def _count_trig(monkeypatch):
    calls = []
    real = exact_trig.half_pi_cos_sin

    def spy(k, q):
        calls.append(k)
        return real(k, q)

    monkeypatch.setattr(exact_trig, "half_pi_cos_sin", spy)
    return calls


class TestTableCost:
    @pytest.mark.parametrize("alpha", [QuarterFraction(1, 10**9), Fraction(1, 1000003)])
    @pytest.mark.parametrize("order", ["WC", "CW"])
    def test_short_walk_builds_no_period_table(self, monkeypatch, alpha, order):
        calls = _count_trig(monkeypatch)
        evolve(DEFAULT_SPINOR, RotationalSchedule(alpha), 10, order)
        assert 0 < len(calls) <= 2 * 10 + 1

    @pytest.mark.parametrize("alpha,cost", [(Fraction(2, 7), 7), (QuarterFraction(5, 9), 9)])
    def test_long_walk_evaluates_at_most_two_periods(self, monkeypatch, alpha, cost):
        calls = _count_trig(monkeypatch)
        evolve(DEFAULT_SPINOR, RotationalSchedule(alpha), 500)
        assert len(calls) <= 2 * cost
