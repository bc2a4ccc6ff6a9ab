import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from iqwalk import precision
from iqwalk import (
    IndecisiveError,
    NAMED_CONSTANTS,
    RealEnclosure,
    RotationalSchedule,
    golden_mean,
    pi_half,
    sqrt2_minus_one,
)
from oracles import enclosure_cos_sin_uncached, float_certified_digits, mp_cos_sin


class TestNamedConstants:
    def test_registry(self):
        assert set(NAMED_CONSTANTS) == {"pi/2", "golden", "sqrt2-1"}

    @pytest.mark.parametrize("factory", [pi_half, golden_mean, sqrt2_minus_one])
    def test_requested_digits_are_certified(self, factory):
        assert factory(40).certified_digits >= 40
        assert factory(80).certified_digits >= 80

    def test_pi_half_encloses_pi_half(self):
        enc = pi_half(40)
        with mp.workdps(60):
            value = mp.pi / 2
            assert mp.mpf(enc.lo.numerator) / enc.lo.denominator <= value
            assert value <= mp.mpf(enc.hi.numerator) / enc.hi.denominator

    def test_golden_mean_satisfies_its_quadratic(self):
        enc = golden_mean(40)
        mid = enc.midpoint
        assert abs(mid * mid + mid - 1) < 3 * enc.width

    def test_sqrt2_value(self):
        mid = sqrt2_minus_one(40).midpoint
        assert abs((mid + 1) ** 2 - 2) < Fraction(1, 10**39)


class TestRealEnclosure:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            RealEnclosure(Fraction(1), Fraction(0))

    def test_point_properties(self):
        enc = RealEnclosure.from_fraction(Fraction(1, 4), "quarter")
        assert enc.is_point
        assert enc.width == 0
        assert enc.midpoint == Fraction(1, 4)
        assert enc.certified_digits == 10**6

    def test_certified_digits_scale(self):
        enc = RealEnclosure(
            Fraction(1, 2) - Fraction(1, 10**20), Fraction(1, 2) + Fraction(1, 10**20)
        )
        assert 18 <= enc.certified_digits <= 20

    def test_fractional_part(self):
        frac = pi_half(40).fractional_part()
        assert Fraction(57, 100) < frac.midpoint < Fraction(58, 100)
        assert frac.certified_digits >= 38

    def test_fractional_part_undecided(self):
        wide = RealEnclosure(Fraction(9, 10), Fraction(11, 10))
        with pytest.raises(IndecisiveError):
            wide.fractional_part()

    def test_from_decimal_is_exact(self):
        enc = RealEnclosure.from_decimal("0.25")
        assert enc.is_point and enc.lo == Fraction(1, 4)

    def test_from_decimal_uncertainty(self):
        enc = RealEnclosure.from_decimal("0.570796", uncertainty_last_place=1)
        assert enc.lo == Fraction(570795, 1000000)
        assert enc.hi == Fraction(570797, 1000000)

    def test_from_decimal_exponent_notation(self):
        enc = RealEnclosure.from_decimal("1.5e-3", uncertainty_last_place=2)
        assert enc.midpoint == Fraction(3, 2000)
        assert enc.width == 2 * 2 * Fraction(1, 10**4)

    def test_rejects_negative_uncertainty(self):
        with pytest.raises(ValueError):
            RealEnclosure.from_decimal("0.5", uncertainty_last_place=-1)

    @pytest.mark.parametrize("uncertainty", [float("nan"), 1.0, True])
    def test_uncertainty_must_be_an_integer(self, uncertainty):
        # a NaN uncertainty used to give an enclosure with NaN ends
        with pytest.raises(TypeError, match="uncertainty_last_place must be an integer"):
            RealEnclosure.from_decimal("0.25", uncertainty)

    @pytest.mark.parametrize(
        "lo, hi",
        [(float("nan"), float("nan")), (0, float("inf")), (0.25, Fraction(1, 2)), (True, 2)],
    )
    def test_ends_must_be_exact(self, lo, hi):
        # these used to construct and fail later, in certified_digits
        with pytest.raises(TypeError, match="must be an int or a Fraction"):
            RealEnclosure(lo, hi)

    @pytest.mark.parametrize("value", [0.1, float("nan"), True])
    def test_from_fraction_takes_no_float(self, value):
        # 0.1 used to become the double's binary value, and NaN a ValueError
        with pytest.raises(TypeError, match="must be an int or a Fraction"):
            RealEnclosure.from_fraction(value)

    def test_int_ends_are_stored_as_fractions(self):
        enc = RealEnclosure(0, 1)
        assert (type(enc.lo), type(enc.hi)) == (Fraction, Fraction)
        assert enc == RealEnclosure(Fraction(0), Fraction(1))
        assert enc.certified_digits == 0

    def test_to_mpf_reaches_payload_precision(self):
        enc = pi_half(40)
        with mp.workdps(45):
            err = abs(enc.to_mpf(45) - mp.pi / 2)
            assert err < mpmath.mpf(10) ** (-39)

    def test_str_prefers_label(self):
        assert str(pi_half(40)) == "pi/2"


class TestTrig:
    @pytest.mark.parametrize("n", [-7, -1, 0, 1, 2, 13, 101])
    def test_cos_sin_matches_oracle(self, n):
        c, s = pi_half(40).cos_sin_two_pi(n)
        oc, os = mp_cos_sin("pi/2", n)
        assert abs(c - oc) <= 2e-16
        assert abs(s - os) <= 2e-16

    @pytest.mark.parametrize("n", [-3, 5, 29])
    def test_golden_cos_sin(self, n):
        c, s = golden_mean(40).cos_sin_two_pi(n)
        oc, os = mp_cos_sin("golden", n)
        assert abs(c - oc) <= 2e-16
        assert abs(s - os) <= 2e-16

    @pytest.mark.parametrize("n", [2.5, True, 1.0])
    def test_site_must_be_an_integer(self, n):
        # the error bound holds for integer n; 2.5 and True used to give values
        with pytest.raises(TypeError, match="site must be an integer"):
            golden_mean().cos_sin_two_pi(n)

    def test_site_zero_is_exact(self):
        assert pi_half(40).cos_sin_two_pi(0) == (1.0, 0.0)


class TestTrigMidpointOnce:
    @pytest.mark.parametrize("name", sorted(NAMED_CONSTANTS))
    def test_coins_equal_the_uncached_evaluation_bitwise(self, name):
        for enclosure in (NAMED_CONSTANTS[name](40), NAMED_CONSTANTS[name](40).fractional_part()):
            for n in range(-64, 65):
                got = enclosure.cos_sin_two_pi(n)
                want = enclosure_cos_sin_uncached(enclosure, n)
                assert [x.hex() for x in got] == [x.hex() for x in want], (name, n)

    def test_default_to_mpf_is_the_trig_midpoint(self):
        enclosure = golden_mean(40)
        dps = min(enclosure.certified_digits, 120) + 10
        assert enclosure.to_mpf() == enclosure.to_mpf(dps)


class TestCertifiedDigits:
    """floor(log10(|midpoint| / width)) in integers, against the float formula."""

    def test_width_below_double_range(self):
        # the float formula took log10 of 0.0: math domain error
        tiny = Fraction(1, 10**400)
        assert RealEnclosure(1 - tiny, 1 + tiny).certified_digits == 399
        assert RealEnclosure(-tiny, tiny).certified_digits == 399
        decimal = RealEnclosure.from_decimal("0." + "1" * 400, 1)
        assert decimal.certified_digits == 398
        assert RotationalSchedule(decimal).coin_entries(-2, 2)[0].shape == (5,)

    def test_width_above_double_range(self):
        # the float formula overflowed converting width / |midpoint| = 2e309
        assert RealEnclosure(Fraction(-10**309), Fraction(10**309 + 2)).certified_digits == 0

    @pytest.mark.parametrize("k", [0, 1, 2, 15, 16, 17, 22, 23, 100, 299])
    def test_exact_powers_of_ten(self, k):
        width = Fraction(1, 10**k)
        enclosure = RealEnclosure(1 - width / 2, 1 + width / 2)
        assert enclosure.certified_digits == k == float_certified_digits(enclosure)
        point = RealEnclosure(Fraction(10**k) - Fraction(1, 2), Fraction(10**k) + Fraction(1, 2))
        assert point.certified_digits == k == float_certified_digits(point)

    def test_named_constants_agree_with_the_float_formula(self):
        for build in NAMED_CONSTANTS.values():
            enclosure = build(40)
            assert enclosure.certified_digits == float_certified_digits(enclosure)

    def test_decimals_agree_with_the_float_formula(self):
        rng = random.Random(7)
        for digits in range(1, 301):
            body = "".join(rng.choice("0123456789") for _ in range(digits - 1)) + "1"
            for text in ("0." + body, "3." + body, "0.000" + body):
                for ulps in (1, 5):
                    enclosure = RealEnclosure.from_decimal(text, ulps)
                    assert enclosure.certified_digits == float_certified_digits(enclosure), text

    def test_ratio_just_below_a_power_of_ten(self):
        # |midpoint| / width = 99999999999999.9 rounds up to 1e14 as a double
        enclosure = RealEnclosure.from_decimal("0.999999999999999", 5)
        assert 10**13 <= abs(enclosure.midpoint) / enclosure.width < 10**14
        assert enclosure.certified_digits == 13
        assert float_certified_digits(enclosure) == 14


def _enclosure(name, digits, fractional):
    enclosure = NAMED_CONSTANTS[name](digits)
    return enclosure.fractional_part() if fractional else enclosure


SPAN_ENCLOSURES = [
    pytest.param(name, digits, fractional, id=f"{name}-{digits}{'-frac' if fractional else ''}")
    for name in sorted(NAMED_CONSTANTS)
    for digits in (40, 60)
    for fractional in (False, True)
]


class TestSpanFill:
    """cos_sin_two_pi_span against per-site cos_sin_two_pi, by float.hex."""

    @staticmethod
    def _check(enclosure, sites, every=1):
        got = enclosure.cos_sin_two_pi_span(sites)
        assert got.shape == (2, len(sites))
        for j in range(0, len(sites), every):
            want = enclosure.cos_sin_two_pi(sites[j])
            assert (got[0, j].hex(), got[1, j].hex()) == (want[0].hex(), want[1].hex()), sites[j]

    @pytest.mark.parametrize("name,digits,fractional", SPAN_ENCLOSURES)
    def test_sites_up_to_twenty_thousand(self, name, digits, fractional):
        enclosure = _enclosure(name, digits, fractional)
        self._check(enclosure, range(-300, 301))
        self._check(enclosure, range(-20000, 20001), every=29)

    @pytest.mark.parametrize("name,digits,fractional", SPAN_ENCLOSURES)
    def test_spans_far_from_the_origin(self, name, digits, fractional):
        enclosure = _enclosure(name, digits, fractional)
        for centre in (10**6, -(10**6), 10**9, -(10**9)):
            self._check(enclosure, range(centre - 32, centre + 32))

    def test_midpoint_far_above_one(self):
        golden = golden_mean(40)
        shifted = RealEnclosure(golden.lo + 10**6, golden.hi + 10**6)
        self._check(shifted, range(-100, 101))
        self._check(shifted, range(10**6 - 16, 10**6 + 16))

    def test_only_site_zero_falls_back(self, monkeypatch):
        # the sine at n = 0 is exactly 0, so its interval straddles a sign change
        calls = []
        reference = RealEnclosure.cos_sin_two_pi
        monkeypatch.setattr(
            RealEnclosure, "cos_sin_two_pi", lambda self, n: calls.append(n) or reference(self, n)
        )
        for name in sorted(NAMED_CONSTANTS):
            NAMED_CONSTANTS[name](40).cos_sin_two_pi_span(range(-2000, 2001))
        assert calls == [0, 0, 0]

    def test_forced_fallback_is_still_bitwise(self, monkeypatch):
        # at a binary precision of 0 the bound on the mpmath path exceeds every
        # value, so no site is decided and each one calls cos_sin_two_pi
        enclosure, sites = pi_half(40), range(-40, 41)
        fast = enclosure.cos_sin_two_pi_span(sites)
        calls = []
        reference = RealEnclosure.cos_sin_two_pi
        monkeypatch.setattr(precision, "dps_to_prec", lambda dps: 0)
        monkeypatch.setattr(
            RealEnclosure, "cos_sin_two_pi", lambda self, n: calls.append(n) or reference(self, n)
        )
        slow = enclosure.cos_sin_two_pi_span(sites)
        assert calls == list(sites)
        assert fast.tobytes() == slow.tobytes()

    def test_empty_span(self):
        assert golden_mean(40).cos_sin_two_pi_span(range(5, 5)).shape == (2, 0)

    def test_rejects_a_stepped_range(self):
        with pytest.raises(ValueError, match="step 1"):
            golden_mean(40).cos_sin_two_pi_span(range(0, 10, 2))

    @pytest.mark.parametrize("name", sorted(NAMED_CONSTANTS))
    @pytest.mark.parametrize("shift", [0, 10**30])
    def test_fixed_point_turn_is_within_one_unit(self, name, shift):
        # the shift puts 100 bits before the point, which the turn must reduce first
        constant = NAMED_CONSTANTS[name](40)
        enclosure = RealEnclosure(constant.lo + shift, constant.hi + shift)
        x, y = enclosure._turn_fixed
        with mp.workprec(600):
            c, s = mpmath.cos_sin(2 * mp.pi * enclosure.to_mpf())
            assert abs(x - c * 2**precision._FIXED_BITS) <= 1
            assert abs(y - s * 2**precision._FIXED_BITS) <= 1
