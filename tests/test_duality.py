import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqwalk import (
    ConvergenceError,
    DualityResiduals,
    QuarterFraction,
    RingState,
    butterfly_fractions,
    dual_vector,
    ring_coin,
    ring_shift,
    verify_duality,
)
from iqwalk import duality
from iqwalk.exact_trig import quarter_trig_table
from oracles import (
    dual_vector_amplitudes_loop,
    grid_duality_residuals,
    ring_coin_loop,
    verify_duality_loop,
)


def quarter_fractions(q_max=8):
    def build(draw):
        q = draw(st.integers(min_value=1, max_value=q_max))
        p = draw(st.integers(min_value=0, max_value=2 * q - 1)) * 2 + 1
        if math.gcd(p, q) != 1:
            p = 1
        return QuarterFraction(p, q)

    return st.composite(build)()


class TestRingState:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            RingState(np.zeros(4))

    def test_size(self):
        assert RingState(np.zeros((12, 2))).size == 12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_amplitudes_are_rejected(self, bad):
        amps = np.ones((4, 2), dtype=complex)
        amps[2, 1] = bad
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            RingState(amps)

    def test_ring_shift_moves_each_chirality_its_own_way(self):
        state = RingState(
            np.column_stack([[1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0]])
        )
        moved = ring_shift(state)
        assert list(moved.amplitudes[:, 0].real) == [2.0, 3.0, 4.0, 1.0]
        assert list(moved.amplitudes[:, 1].real) == [40.0, 10.0, 20.0, 30.0]

    def test_ring_shift_preserves_norm_exactly(self):
        rng = np.random.default_rng(7)
        amps = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
        state = RingState(amps)
        assert np.linalg.norm(ring_shift(state).amplitudes) == np.linalg.norm(amps)

    def test_ring_coin_is_norm_preserving(self):
        rng = np.random.default_rng(11)
        amps = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2))
        nrm = np.linalg.norm(amps)
        coined = ring_coin(QuarterFraction(1, 3), RingState(amps))
        assert abs(np.linalg.norm(coined.amplitudes) - nrm) <= 1e-13 * nrm


class TestDualVectors:
    def test_site_zero_is_the_uniform_pair(self):
        left = dual_vector(QuarterFraction(1, 3), 0, "L")
        right = dual_vector(QuarterFraction(1, 3), 0, "R")
        assert np.array_equal(left.amplitudes, np.tile([0.0, 1.0], (12, 1)))
        assert np.array_equal(right.amplitudes, np.tile([1.0, 0.0], (12, 1)))

    def test_smallest_case_is_literal(self):
        left = dual_vector(QuarterFraction(1, 1), 1, "L")
        expected = np.array([[0, 1], [1, 0], [0, -1], [-1, 0]], dtype=complex)
        assert np.array_equal(left.amplitudes, expected)

    def test_chirality_validation(self):
        with pytest.raises(ValueError, match="chirality"):
            dual_vector(QuarterFraction(1, 1), 0, "X")

    @pytest.mark.parametrize("n", [True, False, 2.0, 1.5, "1", None])
    def test_dual_site_must_be_an_integer(self, n):
        with pytest.raises(TypeError, match="dual site must be an integer"):
            dual_vector(QuarterFraction(1, 3), n, "L")

    def test_numpy_integer_dual_site(self):
        f = QuarterFraction(1, 3)
        vec = dual_vector(f, np.int64(2), "R")
        assert type(vec.n) is int and vec.n == 2
        assert vec.amplitudes.tobytes() == dual_vector(f, 2, "R").amplitudes.tobytes()

    @given(quarter_fractions(), st.integers(min_value=-6, max_value=6))
    @settings(max_examples=25)
    def test_periodic_in_the_dual_site(self, f, n):
        a = dual_vector(f, n, "L").amplitudes
        b = dual_vector(f, n + 4 * f.q, "L").amplitudes
        assert np.array_equal(a, b)

    @given(quarter_fractions())
    @settings(max_examples=20)
    def test_squared_norm_is_the_ring_size(self, f):
        amps = dual_vector(f, 2, "R").amplitudes
        assert np.sum(amps.real**2 + amps.imag**2) == pytest.approx(4 * f.q, abs=1e-10)


class TestVerifyDuality:
    def test_exact_for_the_smallest_ring(self):
        residuals = verify_duality(QuarterFraction(1, 1))
        assert residuals.shift_as_coin == 0.0
        assert residuals.coin_as_shift == 0.0
        assert residuals.max() == 0.0

    @pytest.mark.parametrize("p,q", [(1, 3), (3, 5), (7, 6), (11, 4)])
    def test_role_swap_identities_close(self, p, q):
        residuals = verify_duality(QuarterFraction(p, q))
        assert residuals.max() <= 1e-13

    @given(quarter_fractions())
    @settings(max_examples=15)
    def test_generic_fractions_stay_within_gate(self, f):
        assert verify_duality(f).max() <= 1e-12

    def test_shift_fixes_the_zero_dual(self):
        # the site-0 dual pair sees the identity coin, so the shift fixes it
        f = QuarterFraction(1, 2)
        left = dual_vector(f, 0, "L").amplitudes
        moved = ring_shift(RingState(left)).amplitudes
        assert np.array_equal(moved, left)

    def test_residual_container(self):
        assert DualityResiduals(1e-3, 1e-5).max() == 1e-3

    def test_residual_is_computed_once_per_q(self, monkeypatch):
        duality._duality_residual.cache_clear()
        first = verify_duality(QuarterFraction(3, 7))
        monkeypatch.setattr(duality, "quarter_trig_table", None)  # no rebuild for q = 7
        for p in (1, 5, 27):
            assert verify_duality(QuarterFraction(p, 7)) == first
        assert duality._duality_residual.cache_info()[:2] == (3, 1)  # hits, misses

    def test_failed_build_is_not_cached(self, monkeypatch):
        def explode(q):
            raise ConvergenceError(f"trig table for q = {q} is not a rotation table")

        duality._duality_residual.cache_clear()
        monkeypatch.setattr(duality, "quarter_trig_table", explode)
        with pytest.raises(ConvergenceError, match="q = 5"):
            verify_duality(QuarterFraction(3, 5))
        assert duality._duality_residual.cache_info().currsize == 0
        monkeypatch.undo()
        f = QuarterFraction(3, 5)
        assert verify_duality(f) == DualityResiduals(*grid_duality_residuals(f))


class TestAgainstLoops:
    """The table-driven paths against the per-site loops in oracles, bit for bit."""

    def test_every_fraction_up_to_q12(self):
        for f in butterfly_fractions(12):
            r = verify_duality(f)
            assert (r.shift_as_coin, r.coin_as_shift) == verify_duality_loop(f), f"{f}"

    @given(quarter_fractions(q_max=40))
    @settings(max_examples=8)
    def test_sampled_fractions_up_to_q40(self, f):
        r = verify_duality(f)
        assert (r.shift_as_coin, r.coin_as_shift) == verify_duality_loop(f)

    @pytest.mark.parametrize("q", range(13, 41))
    def test_one_seeded_fraction_per_q(self, q):
        # every ring size the certify workload reaches (q = 20 .. 39) and more
        numerators = [p for p in range(1, 4 * q, 2) if math.gcd(p, q) == 1]
        f = QuarterFraction(random.Random(q).choice(numerators), q)
        r = verify_duality(f)
        assert (r.shift_as_coin, r.coin_as_shift) == verify_duality_loop(f)

    @given(
        quarter_fractions(q_max=12),
        st.integers(min_value=-10**9, max_value=10**9),
        st.sampled_from("LR"),
    )
    def test_dual_vector(self, f, n, chirality):
        amps = dual_vector(f, n, chirality).amplitudes
        assert amps.tobytes() == dual_vector_amplitudes_loop(f, n, chirality).tobytes()

    @given(
        quarter_fractions(q_max=12),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_ring_coin(self, f, size, seed):
        # ring sizes other than 4q too, with random complex amplitudes
        rng = np.random.default_rng(seed)
        state = RingState(rng.normal(size=(size, 2)) + 1j * rng.normal(size=(size, 2)))
        coined = ring_coin(f, state).amplitudes
        assert coined.tobytes() == ring_coin_loop(f, state).amplitudes.tobytes()

    def test_large_numerators_do_not_overflow(self):
        f = QuarterFraction(2**63 + 1, 5)
        assert verify_duality(f) == verify_duality(QuarterFraction(f.p % 20, 5))
        amps = dual_vector(f, 3, "L").amplitudes
        assert amps.tobytes() == dual_vector_amplitudes_loop(f, 3, "L").tobytes()


class TestAgainstGrid:
    """verify_duality reads one gap table over the residue pairs the (m, n)
    grid reaches; the grid evaluation in oracles must agree bit for bit."""

    def test_every_fraction_up_to_q50(self):
        for f in butterfly_fractions(50):
            r = verify_duality(f)
            assert (r.shift_as_coin, r.coin_as_shift) == grid_duality_residuals(f), f"{f}"

    @given(
        st.integers(min_value=51, max_value=160).flatmap(
            lambda q: st.tuples(
                st.just(q),
                st.sampled_from([p for p in range(1, 4 * q, 2) if math.gcd(p, q) == 1]),
                st.integers(min_value=0, max_value=10**12),
            )
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_sampled_fractions_up_to_q160(self, qpk):
        # p + 4qk has the same coins as p
        q, p, k = qpk
        f = QuarterFraction(p + 4 * q * k, q)
        r = verify_duality(f)
        assert (r.shift_as_coin, r.coin_as_shift) == grid_duality_residuals(f)

    def test_every_numerator_gives_the_same_bits(self):
        for q in range(1, 51):
            numerators = [p for p in range(1, 4 * q, 2) if math.gcd(p, q) == 1]
            bits = {verify_duality(QuarterFraction(p, q)).shift_as_coin.hex() for p in numerators}
            assert len(bits) == 1, q


class TestResidualSymmetry:
    """verify_duality evaluates the shift identity only.  The dual amplitude
    matrices are symmetric in (m, n), so the coin identity's residuals are
    the same floats; the loop, which evaluates both, must agree bit for bit.
    Of the shift identity's four chirality terms it evaluates one: the point
    reflection (m, n) -> (-m, -n) maps two of them onto the others, because
    the trig table is even in cos and odd in sin entry for entry, and the
    quarter turn maps the R term onto the L term."""

    def test_trig_table_is_even_in_cos_and_odd_in_sin(self):
        for q in range(1, 201):
            cos, sin = quarter_trig_table(q)
            k = np.arange(4 * q)
            assert np.array_equal(cos[-k % (4 * q)], cos[k]), q
            assert np.array_equal(np.abs(sin[-k % (4 * q)]), np.abs(sin[k])), q
            assert np.array_equal(sin[-k % (4 * q)], -sin[k]), q

    def test_every_fraction_up_to_q12(self):
        for f in butterfly_fractions(12):
            shift_as_coin, coin_as_shift = verify_duality_loop(f)
            assert shift_as_coin == coin_as_shift == verify_duality(f).coin_as_shift, f"{f}"

    @given(quarter_fractions(q_max=40))
    @settings(max_examples=8)
    def test_sampled_fractions_up_to_q40(self, f):
        shift_as_coin, coin_as_shift = verify_duality_loop(f)
        assert shift_as_coin == coin_as_shift == verify_duality(f).coin_as_shift
