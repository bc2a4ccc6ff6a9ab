import itertools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from iqwalk import (
    ContinuedFraction,
    IndecisiveError,
    NoApproximantFoundError,
    PrecisionExhaustedError,
    QuarterFraction,
    RationalInputError,
    RealEnclosure,
    continued_fraction,
    convergents,
    golden_mean,
    pi_half,
    quarter_approximants,
    sqrt2_minus_one,
    verify_bound,
)
from oracles import brute_force_quarter_approximants, mp_cos_sin


def _pairs(approximants):
    return [(a.fraction.p, a.fraction.q) for a in approximants]


IRRATIONALS = {
    "pi/2": pi_half,
    "golden": golden_mean,
    "sqrt2-1": sqrt2_minus_one,
}


class TestContinuedFraction:
    def test_rational_point_terminates(self):
        cf = continued_fraction(RealEnclosure.from_fraction(Fraction(3, 2)))
        assert cf.a0 == 1
        assert cf.partial_quotients == (2,)
        assert cf.terminated

    def test_integer_point(self):
        cf = continued_fraction(RealEnclosure.from_fraction(Fraction(1)))
        assert (cf.a0, cf.partial_quotients, cf.terminated) == (1, (), True)

    def test_golden_mean_is_all_ones(self):
        cf = continued_fraction(golden_mean(40), max_depth=30)
        assert cf.a0 == 0
        assert cf.partial_quotients == (1,) * 30
        assert not cf.terminated

    def test_integer_shift_only_moves_a0(self):
        g = golden_mean(40)
        shifted = RealEnclosure(g.lo + 1, g.hi + 1, "golden+1")
        cf = continued_fraction(shifted, max_depth=30)
        assert cf.a0 == 1
        assert cf.partial_quotients == (1,) * 30

    def test_half_pi_expansion_matches_symbolic_reference(self):
        cf = continued_fraction(pi_half(40))
        reference = list(
            itertools.islice(sympy.continued_fraction_iterator(sympy.pi / 2), 9)
        )
        assert cf.a0 == reference[0]
        assert len(cf.partial_quotients) >= 8
        assert list(cf.partial_quotients[:8]) == reference[1:9]

    def test_wide_enclosure_stops_early_without_error(self):
        g = golden_mean(40)
        blurred = RealEnclosure(g.lo, g.lo + Fraction(1, 10**6), "golden~1e-6")
        cf = continued_fraction(blurred)
        assert 5 <= len(cf.partial_quotients) < 40
        assert cf.partial_quotients == (1,) * len(cf.partial_quotients)
        assert not cf.terminated

    def test_remainder_touching_zero_stops(self):
        cf = continued_fraction(RealEnclosure(Fraction(2), Fraction(5, 2)))
        assert cf.a0 == 2
        assert cf.partial_quotients == ()
        assert not cf.terminated

    def test_undecided_integer_part(self):
        with pytest.raises(PrecisionExhaustedError, match="integer part"):
            continued_fraction(RealEnclosure(Fraction(9, 10), Fraction(11, 10)))

    def test_undecided_sign(self):
        with pytest.raises(PrecisionExhaustedError, match="sign"):
            continued_fraction(RealEnclosure(Fraction(-1, 10), Fraction(1, 10)))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            continued_fraction(RealEnclosure.from_fraction(Fraction(-2)))
        with pytest.raises(ValueError):
            continued_fraction(golden_mean(40), max_depth=-1)

    @pytest.mark.parametrize("depth", [2.5, True, 3.0])
    def test_max_depth_must_be_an_integer(self, depth):
        # max_depth=2.5 used to give 3 quotients
        with pytest.raises(TypeError, match="max_depth must be an integer"):
            continued_fraction(golden_mean(40), max_depth=depth)

    def test_records_source_precision(self):
        g = golden_mean(40)
        assert continued_fraction(g).source_precision == g.certified_digits


class TestConvergents:
    def test_golden_convergents_are_fibonacci_ratios(self):
        cf = continued_fraction(golden_mean(40), max_depth=12)
        convs = convergents(cf)
        fib = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
        assert len(convs) == 13
        for conv, num, den in zip(convs, fib, fib[1:]):
            assert (conv.numerator, conv.denominator) == (num, den)
            assert conv.error_bound_ok

    def test_rational_expansion_recovers_the_value(self):
        cf = continued_fraction(RealEnclosure.from_fraction(Fraction(3, 2)))
        convs = convergents(cf)
        assert [c.value for c in convs] == [Fraction(1), Fraction(3, 2)]
        assert all(c.error_bound_ok for c in convs)

    def test_dirichlet_flag_is_exact(self):
        # 7/5 = [1; 2, 2]: truncating at 1/1 leaves error 2/5 > 1/1^2? no,
        # 2/5 < 1 -- but truncating [1; 2] = 3/2 leaves 1/10 > 1/4? no.
        # use a wide *enclosure* instead: sup distance ruins the flag
        wide = RealEnclosure(Fraction(1), Fraction(2))
        cf = ContinuedFraction(1, (), 0, False, wide)
        (only,) = convergents(cf)
        assert only.value == 1
        assert not only.error_bound_ok


class TestVerifyBound:
    def test_exact_match_passes(self):
        assert verify_bound(
            RealEnclosure.from_fraction(Fraction(1, 4)), QuarterFraction(1, 1)
        )

    def test_distant_fraction_fails(self):
        assert not verify_bound(
            RealEnclosure.from_fraction(Fraction(1, 4)), QuarterFraction(3, 1)
        )

    def test_wide_enclosure_is_indecisive(self):
        with pytest.raises(IndecisiveError, match="too coarse"):
            verify_bound(RealEnclosure(Fraction(0), Fraction(1)), QuarterFraction(1, 1))

    def test_threshold_width(self):
        # width exactly 1/(8 q^2) must already refuse
        enc = RealEnclosure(Fraction(1, 4), Fraction(1, 4) + Fraction(1, 8))
        with pytest.raises(IndecisiveError):
            verify_bound(enc, QuarterFraction(1, 1))


class TestQuarterApproximants:
    @pytest.mark.parametrize("key", sorted(IRRATIONALS))
    def test_matches_exhaustive_search(self, key):
        enc = IRRATIONALS[key](40)
        ours = quarter_approximants(enc, count=3)
        assert [a.certified for a in ours] == [True] * 3
        expected = brute_force_quarter_approximants(enc.lo, enc.hi, 3, 400)
        assert [(a.fraction.p, a.fraction.q) for a in ours] == expected

    @pytest.mark.parametrize("key", sorted(IRRATIONALS))
    def test_more_terms_refine_not_replace(self, key):
        enc = IRRATIONALS[key](40)
        full = quarter_approximants(enc, count=3)
        for k in (1, 2):
            assert quarter_approximants(enc, count=k) == full[:k]

    @pytest.mark.parametrize("key", sorted(IRRATIONALS))
    def test_coin_is_nearly_reflecting_at_q(self, key):
        # the certified bound forces |cos| < pi/(2q) at the boundary site
        enc = IRRATIONALS[key](40)
        for approx in quarter_approximants(enc, count=3):
            q = approx.fraction.q
            cos_q, _ = mp_cos_sin(key, q)
            assert abs(cos_q) < math.pi / (2 * q)

    def test_each_approximant_reverifies(self):
        enc = golden_mean(40)
        for approx in quarter_approximants(enc, count=3):
            assert verify_bound(enc, approx.fraction)

    def test_known_golden_prefix(self):
        ours = quarter_approximants(golden_mean(40), count=2)
        assert [(a.fraction.p, a.fraction.q) for a in ours] == [(3, 1), (5, 2)]

    def test_alpha_above_one_is_fine(self):
        ours = quarter_approximants(pi_half(40), count=3)
        assert [(a.fraction.p, a.fraction.q) for a in ours] == [(7, 1), (13, 2), (19, 3)]

    def test_rational_point_is_rejected(self):
        with pytest.raises(RationalInputError, match="rational"):
            quarter_approximants(RealEnclosure.from_fraction(Fraction(1, 3)))

    def test_limited_precision_gives_short_list(self):
        g = golden_mean(40)
        blurred = RealEnclosure(g.lo, g.lo + Fraction(1, 1000), "golden~1e-3")
        short = quarter_approximants(blurred, count=3)
        assert [(a.fraction.p, a.fraction.q) for a in short] == [(3, 1), (5, 2)]

    @pytest.mark.parametrize(
        "width_den,expected",
        [(2700, [(3, 1), (5, 2)]), (2900, [(3, 1), (5, 2), (47, 19)])],
    )
    def test_search_stops_at_the_last_decidable_q(self, width_den, expected):
        # 47/76 lies within 1/19 of 4*19*alpha for both widths, but only
        # 8 * 19^2 / 2900 < 1 lets the bound at q = 19 be decided
        g = golden_mean(40)
        enc = RealEnclosure(g.lo, g.lo + Fraction(1, width_den), "golden~blurred")
        assert _pairs(quarter_approximants(enc, count=3)) == expected

    def test_no_hit_within_q_max(self):
        # the enclosure straddles 1/2, so 4q*alpha reaches both sides of the
        # even number 2q; an odd p lies at least 1 from 2q, so on the far side
        # |4q*alpha - p| > 1 >= 1/q, and no odd p certifies for any q
        half, tiny = Fraction(1, 2), Fraction(1, 10**45)
        enc = RealEnclosure(half - tiny, half + tiny, "around-half")
        with pytest.raises(NoApproximantFoundError, match="q <= 50"):
            quarter_approximants(enc, count=1, q_max=50)

    def test_just_above_half_certifies_three_quarters(self):
        # |1/2 + 1e-40 - 3/4| < 1/4: p = 3 certifies at q = 1
        lo = Fraction(1, 2) + Fraction(1, 10**40)
        enc = RealEnclosure(lo, lo + Fraction(1, 10**45), "near-half")
        assert _pairs(quarter_approximants(enc, count=1, q_max=50)) == [(3, 1)]

    def test_integer_shift_moves_only_the_numerators(self):
        # alpha + N has exactly the approximants (p + 4qN, q) of alpha
        digits = "6180339887498948482045868343656381177203091798"
        small = RealEnclosure.from_decimal(f"0.{digits}", uncertainty_last_place=1)
        shift = 10**20
        big = RealEnclosure.from_decimal(f"{shift}.{digits}", uncertainty_last_place=1)
        expected = _pairs(quarter_approximants(small, count=4))
        assert [q for _, q in expected] == [1, 2, 19, 36]
        got = _pairs(quarter_approximants(big, count=4))
        assert got == [(p + 4 * q * shift, q) for p, q in expected]

    @given(
        st.integers(min_value=-2, max_value=25),
        st.integers(min_value=10**69, max_value=10**70 - 1),
        st.integers(min_value=8, max_value=59),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_search_at_any_magnitude(
        self, exponent, mantissa, width_exponent, width_digits, count
    ):
        # alpha in [10^-3, 10^25), width in [1e-60, 1e-8]; the oracle runs on
        # alpha - N for its integer part N, and the shift adds 4qN to each p
        lo = Fraction(mantissa, 10**70) * Fraction(10) ** exponent
        width = Fraction(width_digits, 10 ** (width_exponent + 1))
        enc = RealEnclosure(lo, lo + width)
        q_limit = 60
        assert 8 * q_limit**2 * width < 1  # both stop at q_limit, not at the precision stop
        shift = math.floor(lo)
        reference = brute_force_quarter_approximants(
            lo - shift, lo + width - shift, count, q_limit
        )
        expected = [(p + 4 * q * shift, q) for p, q in reference]
        if not expected:
            with pytest.raises(NoApproximantFoundError, match=f"q <= {q_limit}"):
                quarter_approximants(enc, count=count, q_max=q_limit)
        else:
            assert _pairs(quarter_approximants(enc, count=count, q_max=q_limit)) == expected

    def test_no_hit_because_precision_ran_out(self):
        enc = RealEnclosure(Fraction(1, 2), Fraction(1, 2) + Fraction(1, 80))
        with pytest.raises(NoApproximantFoundError, match="precision ran out"):
            quarter_approximants(enc, count=1, q_max=50)

    def test_precision_stop_names_the_last_decided_q(self):
        # width 2e-5 decides q = 1 .. 79 (8 q^2 width < 1), and no odd p
        # certifies near the even 4 q alpha
        enc = RealEnclosure.from_decimal("1" + "0" * 307 + ".00000", uncertainty_last_place=1)
        with pytest.raises(NoApproximantFoundError) as info:
            quarter_approximants(enc)
        assert str(info.value).endswith(
            ": stored precision ran out after q = 79 with no certified approximant"
        )

    def test_midpoint_beyond_double_range_is_rejected(self):
        # the search is exact integer arithmetic, so magnitude alone raises
        # nothing: a width of 2e400 leaves no decidable q
        huge = RealEnclosure.from_decimal("1e400", uncertainty_last_place=1)
        with pytest.raises(NoApproximantFoundError, match="precision ran out"):
            quarter_approximants(huge)
        largest = RealEnclosure.from_decimal("1.7976931348623157e308", uncertainty_last_place=1)
        with pytest.raises(NoApproximantFoundError, match="precision ran out"):
            quarter_approximants(largest)

    def test_validation(self):
        with pytest.raises(ValueError, match="count"):
            quarter_approximants(golden_mean(40), count=0)
        with pytest.raises(ValueError, match="q_max"):
            quarter_approximants(golden_mean(40), q_max=0)

    @pytest.mark.parametrize("keyword", ["count", "q_max"])
    @pytest.mark.parametrize("value", [2.5, True, 3.0])
    def test_count_and_q_max_must_be_integers(self, keyword, value):
        # count=2.5 used to return 3 approximants, and count=True 1
        with pytest.raises(TypeError, match=f"{keyword} must be an integer"):
            quarter_approximants(golden_mean(40), **{keyword: value})
