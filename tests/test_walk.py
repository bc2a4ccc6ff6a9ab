import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqwalk import (
    CustomSchedule,
    EmptySupportError,
    NumericalDriftError,
    QuarterFraction,
    RandomSchedule,
    RotationalSchedule,
    WalkerState,
    adjoint_step,
    golden_mean,
    distribution,
    evolve,
    initial_state,
    moment_stats,
    origin_probability,
    step,
    support,
)
from iqwalk.walk import DEFAULT_SPINOR
from oracles import (
    PerSiteSchedule,
    adjoint_step_loop,
    extend_copy_schedule,
    reflecting_coin,
    step_loop,
)

ROOT_HALF = 1.0 / math.sqrt(2.0)
# spinor whose component probabilities are exact dyadic floats
DYADIC_SPINOR = (0.5 + 0.5j, 0.5 - 0.5j)


def spinors():
    def build(draw):
        phase = draw(st.floats(min_value=0.0, max_value=2 * math.pi))
        mix = draw(st.floats(min_value=0.0, max_value=math.pi / 2))
        left = math.cos(mix)
        right = math.sin(mix) * cmath.exp(1j * phase)
        return left, right

    return st.composite(build)()


def schedules():
    return st.one_of(
        st.just(RotationalSchedule(QuarterFraction(1, 3))),
        st.just(RotationalSchedule(QuarterFraction(3, 5))),
        st.just(RotationalSchedule(Fraction(1, 6))),
        st.integers(min_value=0, max_value=2**32).map(RandomSchedule),
    )


class TestState:
    def test_initial_state_shape(self):
        state = initial_state()
        assert state.offset == 0
        assert state.step_count == 0
        assert state.amplitude(0) == (complex(ROOT_HALF), complex(ROOT_HALF))
        assert state.amplitude(3) == (0j, 0j)
        assert list(state.sites) == [0]

    def test_initial_state_other_site(self):
        assert initial_state((1.0, 0.0), site=-4).amplitude(-4) == (1.0 + 0j, 0j)

    def test_rejects_unnormalized_spinor(self):
        with pytest.raises(ValueError, match="norm"):
            initial_state((1.0, 1.0))

    @given(
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.sampled_from(["real", "imag"]),
        st.one_of(st.just(0.0), st.just(1.0), st.floats(allow_nan=True)),
        st.booleans(),
    )
    def test_rejects_non_finite_spinor(self, bad, part, other, bad_first):
        component = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
        spinor = (component, other) if bad_first else (other, component)
        with pytest.raises(ValueError, match="finite"):
            initial_state(spinor)

    def test_rejects_bad_amplitude_shape(self):
        with pytest.raises(ValueError, match="shape"):
            WalkerState(0, np.zeros((3,)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_amplitudes(self, bad):
        amps = np.zeros((3, 2), dtype=complex)
        amps[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            WalkerState(0, amps)

    @pytest.mark.parametrize("site", [1.5, 2.0, True, False, "1"])
    def test_site_must_be_an_integer(self, site):
        with pytest.raises(TypeError, match="site must be an integer"):
            initial_state(site=site)

    def test_site_accepts_numpy_integers(self):
        state = initial_state(site=np.int64(-3))
        assert state.offset == -3 and type(state.offset) is int

    def test_probability(self):
        state = initial_state(DYADIC_SPINOR)
        assert state.probability(0) == 1.0
        assert state.probability(2) == 0.0


class TestSingleSteps:
    def test_identity_coin_at_origin_splits_exactly(self):
        # the site-0 coin of any rotational schedule is the identity
        state = step(initial_state(), RotationalSchedule(QuarterFraction(1, 1)))
        assert state.amplitude(-1) == (complex(ROOT_HALF), 0j)
        assert state.amplitude(1) == (0j, complex(ROOT_HALF))
        assert state.step_count == 1

    def test_q1_support_settles_into_confinement(self):
        schedule = RotationalSchedule(QuarterFraction(1, 1))
        state = initial_state()
        for _ in range(30):
            state = step(state, schedule)
            lo, hi = support(state)
            assert -1 <= lo <= hi <= 1

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            step(initial_state(), RandomSchedule(0), order="XY")
        with pytest.raises(ValueError, match="order"):
            adjoint_step(initial_state(), RandomSchedule(0), order="XY")

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 3), (3, 5)])
    def test_reflection_carries_the_corner_sign(self, p, q):
        # an amplitude hitting the barrier re-enters with sign (-1)^((p+1)/2)
        f = QuarterFraction(p, q)
        schedule = RotationalSchedule(f)
        sign = 1.0 if ((p + 1) // 2) % 2 == 0 else -1.0
        at_right = WalkerState(q, np.array([[0.0, 1.0]], dtype=complex))
        moved = step(at_right, schedule)
        assert moved.amplitude(q - 1) == (complex(sign), 0j)
        at_left = WalkerState(-q, np.array([[1.0, 0.0]], dtype=complex))
        moved = step(at_left, schedule)
        assert moved.amplitude(-q + 1) == (0j, complex(sign))

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 3), (3, 5)])
    def test_shift_first_boundary_components_stay_zero(self, p, q):
        schedule = RotationalSchedule(QuarterFraction(p, q))
        state = initial_state()
        for _ in range(4 * q + 20):
            state = step(state, schedule, order="CW")
            left_at_barrier, _ = state.amplitude(-q)
            _, right_at_barrier = state.amplitude(q)
            assert left_at_barrier == 0
            assert right_at_barrier == 0
            lo, hi = support(state)
            assert -q <= lo <= hi <= q


class TestConfinement:
    @pytest.mark.parametrize("p,q", [(1, 1), (1, 3), (3, 5), (1, 12)])
    def test_amplitudes_outside_barrier_are_bit_zero(self, p, q):
        state = evolve(DEFAULT_SPINOR, RotationalSchedule(QuarterFraction(p, q)), 200)
        assert state.offset >= -q
        assert state.offset + len(state.amplitudes) - 1 <= q

    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda q: st.tuples(
                st.just(q),
                st.integers(min_value=0, max_value=2 * q - 1).map(lambda k: 2 * k + 1),
            )
        ),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=25)
    def test_confinement_is_generic(self, pq, steps):
        q, p = pq
        if math.gcd(p, q) != 1:
            p = 1
        state = evolve(DEFAULT_SPINOR, RotationalSchedule(QuarterFraction(p, q)), steps)
        lo, hi = support(state)
        assert -q <= lo <= hi <= q

    def test_free_walk_is_ballistic(self):
        state = evolve(DYADIC_SPINOR, CustomSchedule({}), 3)
        assert distribution(state) == {-3: (0.5, 0.0, 0.5), 3: (0.0, 0.5, 0.5)}


class TestParityAndNorm:
    @given(schedules(), st.integers(min_value=0, max_value=41))
    @settings(max_examples=30)
    def test_wrong_parity_sites_are_exactly_empty(self, schedule, steps):
        state = evolve(DEFAULT_SPINOR, schedule, steps)
        for n in state.sites:
            if (n + steps) % 2 == 1:
                assert state.probability(n) == 0.0

    @given(schedules(), spinors(), st.sampled_from(["WC", "CW"]))
    @settings(max_examples=30)
    def test_norm_is_conserved(self, schedule, spinor, order):
        state = evolve(spinor, schedule, 50, order=order)
        assert abs(state.norm() - 1.0) <= 1e-12
        assert abs(sum(p for _, _, p in distribution(state).values()) - 1.0) <= 1e-12

    def test_norm_after_long_irrational_run(self):
        from iqwalk import pi_half

        state = evolve(DEFAULT_SPINOR, RotationalSchedule(pi_half(40)), 300)
        assert abs(state.norm() - 1.0) <= 1e-12

    def test_drift_beyond_threshold_raises(self):
        # a coin 4.9e-13 past unitary passes the schedule gate but the
        # accumulated norm drift must trip the per-step check
        stretched = (1.0 + 4.9e-13) * np.eye(2, dtype=complex)
        schedule = CustomSchedule({n: stretched for n in range(-2200, 2201)})
        with pytest.raises(NumericalDriftError, match="norm drifted"):
            evolve(DEFAULT_SPINOR, schedule, 2100)

    def test_nan_amplitudes_trip_the_drift_check(self):
        class NanSchedule(PerSiteSchedule):
            def site_coin(self, n):
                return np.full((2, 2), np.nan, dtype=complex)

        with pytest.raises(NumericalDriftError, match="nan"):
            evolve(DEFAULT_SPINOR, NanSchedule(), 1)


class TestReversibility:
    @given(schedules(), spinors(), st.sampled_from(["WC", "CW"]))
    @settings(max_examples=30)
    def test_adjoint_step_inverts_step(self, schedule, spinor, order):
        state = evolve(spinor, schedule, 7, order=order)
        forward = step(state, schedule, order)
        back = adjoint_step(forward, schedule, order)
        assert back.step_count == state.step_count
        for n in set(state.sites) | set(back.sites):
            expect_left, expect_right = state.amplitude(n)
            got_left, got_right = back.amplitude(n)
            assert abs(got_left - expect_left) <= 1e-12
            assert abs(got_right - expect_right) <= 1e-12


class TestObservables:
    def test_evolve_zero_steps_is_identity(self):
        state = evolve(DYADIC_SPINOR, RandomSchedule(3), 0)
        assert state.step_count == 0
        assert state.amplitude(0) == DYADIC_SPINOR

    def test_evolve_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            evolve(DEFAULT_SPINOR, RandomSchedule(3), -1)

    @pytest.mark.parametrize("steps", [True, False, 2.0, 2.5, "3"])
    def test_evolve_step_count_must_be_an_integer(self, steps):
        with pytest.raises(TypeError, match="steps must be an integer"):
            evolve(DEFAULT_SPINOR, RandomSchedule(3), steps)

    def test_evolve_accepts_numpy_integers(self):
        state = evolve(DEFAULT_SPINOR, RandomSchedule(3), np.int64(5))
        assert state.step_count == 5 and type(state.step_count) is int

    @pytest.mark.parametrize("steps", [0, 4])
    @pytest.mark.parametrize("site", [0.5, 2.0, True])
    def test_evolve_site_must_be_an_integer(self, steps, site):
        with pytest.raises(TypeError, match="site must be an integer"):
            evolve(DEFAULT_SPINOR, RandomSchedule(3), steps, site=site)

    @pytest.mark.parametrize("steps", [0, 4])
    def test_evolve_rejects_unknown_order_before_any_step(self, steps):
        with pytest.raises(ValueError, match="unknown walk order 'XX'"):
            evolve(DEFAULT_SPINOR, RandomSchedule(3), steps, order="XX")

    def test_distribution_sums_to_one(self):
        state = evolve(DEFAULT_SPINOR, RotationalSchedule(QuarterFraction(1, 3)), 97)
        total = sum(p for _, _, p in distribution(state).values())
        assert abs(total - 1.0) <= 1e-12

    def test_support_thresholds(self):
        state = evolve(DYADIC_SPINOR, CustomSchedule({}), 5)
        assert support(state, 0.0) == (-5, 5)
        with pytest.raises(EmptySupportError):
            support(state, 2.0)

    def test_support_rejects_nan_threshold(self):
        state = evolve(DYADIC_SPINOR, CustomSchedule({}), 5)
        with pytest.raises(ValueError, match="NaN"):
            support(state, math.nan)

    def test_support_of_long_confined_run(self):
        state = evolve(DEFAULT_SPINOR, RotationalSchedule(QuarterFraction(3, 5)), 500)
        lo, hi = support(state, 0.0)
        assert -5 <= lo <= hi <= 5

    def test_moments_of_free_walk_are_exact(self):
        state = evolve(DYADIC_SPINOR, CustomSchedule({}), 7)
        stats = moment_stats(state)
        assert stats.mean == 0.0
        assert stats.variance == 49.0
        assert stats.std_dev == 7.0
        assert stats.abs_moments == {1: 7.0, 2: 49.0, 3: 343.0, 4: 2401.0}

    def test_confined_walk_std_dev_is_bounded(self):
        schedule = RotationalSchedule(QuarterFraction(1, 3))
        state = initial_state()
        for _ in range(120):
            state = step(state, schedule)
        assert moment_stats(state).std_dev <= 3.0

    def test_sublattice_walk_spreads_linearly(self):
        schedule = RotationalSchedule(Fraction(1, 6))
        half = evolve(DEFAULT_SPINOR, schedule, 500)
        full = evolve(DEFAULT_SPINOR, schedule, 1000)
        ratio = moment_stats(full).std_dev / moment_stats(half).std_dev
        assert abs(ratio - 2.0) <= 0.1

    def test_origin_probability(self):
        assert origin_probability(initial_state(DYADIC_SPINOR)) == 1.0
        state = evolve(DEFAULT_SPINOR, RotationalSchedule(QuarterFraction(1, 3)), 33)
        assert origin_probability(state) == 0.0

    def test_origin_probability_matches_oracle(self):
        from iqwalk import pi_half
        from oracles import mp_origin_series

        state = evolve(DEFAULT_SPINOR, RotationalSchedule(pi_half(40)), 2)
        assert abs(origin_probability(state) - mp_origin_series("pi/2", 2)[2]) <= 1e-12


DIFFERENTIAL_SCHEDULES = {
    "2/7": lambda: RotationalSchedule(Fraction(2, 7)),
    "1/2": lambda: RotationalSchedule(Fraction(1, 2)),
    "7/5": lambda: RotationalSchedule(Fraction(7, 5)),
    "5/36": lambda: RotationalSchedule(Fraction(5, 36)),
    "1/4": lambda: RotationalSchedule(Fraction(1, 4)),
    "golden": lambda: RotationalSchedule(golden_mean(40)),
    "haar-17": lambda: RandomSchedule(17),
    "haar-2^63+5": lambda: RandomSchedule(2**63 + 5),
    # periods wider than any fetch: per-site angle_cos_sin, no table, on every fill
    "1/(4*10^9)": lambda: RotationalSchedule(QuarterFraction(1, 10**9)),
    "1/1000003": lambda: RotationalSchedule(Fraction(1, 1000003)),
    # q = 50: per-site fills until the cache is 50 wide, then the table
    "1/200": lambda: RotationalSchedule(QuarterFraction(1, 50)),
    # reflecting coins at 3 and -2 confine the walk, so every step trims
    "reflect": lambda: CustomSchedule({3: reflecting_coin(), -2: reflecting_coin(0.4)}),
}


def assert_sublattice_equal(got, want, site=0):
    """got equals want on the sublattice that a walker started at site can
    reach, byte for byte, zero signs included; every other entry of got is
    +0.0, where want may hold -0.0."""
    assert (got.offset, got.step_count) == (want.offset, want.step_count)
    assert got.amplitudes.shape == want.amplitudes.shape
    sites = np.arange(want.offset, want.offset + len(want.amplitudes))
    reachable = (sites - site - want.step_count) % 2 == 0
    assert got.amplitudes[reachable].tobytes() == want.amplitudes[reachable].tobytes()
    assert got.amplitudes[~reachable].tobytes() == bytes(got.amplitudes[~reachable].nbytes)


class TestAgainstStepLoop:
    """evolve against the temporaries stepper over a cache copied on every
    growth: equal bytes on the reachable sublattice, zero signs included,
    and +0.0 elsewhere."""

    @pytest.mark.parametrize("name", DIFFERENTIAL_SCHEDULES)
    @pytest.mark.parametrize("order", ["WC", "CW"])
    @pytest.mark.parametrize("steps", [1, 2, 7, 60, 301])
    def test_final_states_are_bitwise_equal(self, name, order, steps):
        make = DIFFERENTIAL_SCHEDULES[name]
        fast = evolve((0.6, 0.8j), make(), steps, order)
        cache = extend_copy_schedule(make())
        slow = initial_state((0.6, 0.8j))
        for _ in range(steps):
            slow = step_loop(slow, cache, order)
        assert_sublattice_equal(fast, slow)


class _Stretched(PerSiteSchedule):
    """(1 + 1e-10) times the identity at every site: the norm grows each step."""

    def site_coin(self, n):
        return (1.0 + 1e-10) * np.eye(2, dtype=complex)


def _step_states(schedule, order, steps):
    """States after 0..steps calls of step, or the error that stopped them."""
    states = [initial_state((0.6, 0.8j))]
    try:
        for _ in range(steps):
            states.append(step(states[-1], schedule, order))
    except NumericalDriftError as exc:
        return states, str(exc)
    return states, None


class TestEvolveAgainstStep:
    """evolve's packed sublattice buffers against fresh dense arrays from
    step: equal bytes on the reachable sublattice and +0.0 elsewhere, across
    buffer growth and window trims, and the same drift failure."""

    @pytest.mark.parametrize("name", DIFFERENTIAL_SCHEDULES)
    @pytest.mark.parametrize("order", ["WC", "CW"])
    def test_every_length_is_bitwise_the_step_loop(self, name, order):
        make = DIFFERENTIAL_SCHEDULES[name]
        states, error = _step_states(make(), order, 300)
        assert error is None
        for steps in [*range(41), 97, 300]:
            got = evolve((0.6, 0.8j), make(), steps, order)
            assert_sublattice_equal(got, states[steps])
            assert got.amplitudes.base is None and got.amplitudes.flags.c_contiguous

    @pytest.mark.parametrize("order", ["WC", "CW"])
    def test_drift_stops_both_at_the_same_step(self, order):
        states, error = _step_states(_Stretched(), order, 40)
        assert error is not None and 5 < len(states) < 40
        with pytest.raises(NumericalDriftError) as raised:
            evolve((0.6, 0.8j), _Stretched(), 40, order)
        assert str(raised.value) == error
        assert f"after step {len(states)} " in error
        last = evolve((0.6, 0.8j), _Stretched(), len(states) - 1, order)
        assert last.amplitudes.tobytes() == states[-1].amplitudes.tobytes()


@st.composite
def walk_cases(draw):
    """(schedule factory, q or None, spinor, order, site, steps); q is set
    for the confining schedules p/(4q)."""
    kind = draw(st.sampled_from(["quarter", "rational", "golden", "haar", "reflect"]))
    q = None
    if kind == "quarter":
        q = draw(st.integers(min_value=1, max_value=9))
        p = draw(st.sampled_from([p for p in range(1, 4 * q, 2) if math.gcd(p, q) == 1]))
        make = lambda: RotationalSchedule(QuarterFraction(p, q))
    elif kind == "rational":
        den = draw(st.integers(min_value=1, max_value=40))
        num = draw(st.integers(min_value=0, max_value=2 * den))
        make = lambda: RotationalSchedule(Fraction(num, den))
    elif kind == "golden":
        make = lambda: RotationalSchedule(golden_mean(40))
    elif kind == "haar":
        seed = draw(st.integers(min_value=0, max_value=2**64 - 1))
        make = lambda: RandomSchedule(seed)
    else:
        make = DIFFERENTIAL_SCHEDULES["reflect"]
    site = draw(st.integers(min_value=-12, max_value=12))
    steps = draw(st.integers(min_value=0, max_value=80))
    return make, q, draw(spinors()), draw(st.sampled_from(["WC", "CW"])), site, steps


class TestEvolveProperty:
    @given(walk_cases())
    @settings(max_examples=60, deadline=None)
    def test_evolve_is_the_step_loop_on_its_sublattice(self, case):
        make, q, spinor, order, site, steps = case
        want, schedule = initial_state(spinor, site), make()
        for _ in range(steps):
            want = step(want, schedule, order)
        got = evolve(spinor, make(), steps, order, site)
        assert_sublattice_equal(got, want, site)
        if q is not None and -q < site < q:
            # every amplitude outside [-q, q] is exactly zero, so the window is inside
            assert -q <= got.offset and got.offset + len(got.amplitudes) - 1 <= q


@st.composite
def adjoint_cases(draw):
    """(schedule factory, state, order) for adjoint_step: the schedules of
    walk_cases and alpha = 1/2, on a walked state or on a random dense
    window at any offset and step count, with exact +0.0 and -0.0 parts."""
    make, _, spinor, order, site, steps = draw(walk_cases())
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        make = DIFFERENTIAL_SCHEDULES["1/2"]
    if draw(st.booleans()):
        return make, evolve(spinor, make(), steps, order, site), order
    n = draw(st.integers(min_value=1, max_value=10))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    parts = rng.normal(size=(2, n, 2))
    zero = rng.random(size=parts.shape) < draw(st.sampled_from([0.0, 0.3, 0.7]))
    parts[zero] = np.where(rng.random(size=int(zero.sum())) < 0.5, 0.0, -0.0)
    if not parts.any():
        parts[0, 0, 0] = 1.0
    parts /= math.sqrt(np.sum(parts**2))
    amps = np.empty((n, 2), dtype=complex)
    amps.real, amps.imag = parts
    return make, WalkerState(site, amps, steps % 5), order


@st.composite
def step_cases(draw):
    """(schedule factory, state, order, steps) for step: the states of
    adjoint_cases with up to two all-zero rows of +0.0 and -0.0 parts on
    either end, so that a step trims at one end, both or neither."""
    make, state, order = draw(adjoint_cases())
    signed_zero = st.sampled_from([0.0, -0.0])
    below, above = (draw(st.integers(min_value=0, max_value=2)) for _ in range(2))
    rows = [[complex(draw(signed_zero), draw(signed_zero)) for _ in range(2)]
            for _ in range(below + above)]
    pad = np.array(rows, dtype=complex).reshape(-1, 2)
    amps = np.concatenate((pad[:below], state.amplitudes, pad[below:]))
    state = WalkerState(state.offset - below, amps, state.step_count)
    return make, state, order, draw(st.integers(min_value=1, max_value=4))


class TestStepAgainstReference:
    """step, one stride-1 step of the walk engine, against the temporaries
    stepper over a cache copied on every growth: the same offset, step
    count and amplitude bytes, zero signs included, step after step."""

    @given(step_cases())
    @settings(max_examples=200, deadline=None)
    def test_step_is_bitwise_the_reference(self, case):
        make, state, order, steps = case
        got, want = state, state
        schedule, cache = make(), extend_copy_schedule(make())
        for _ in range(steps):
            got, want = step(got, schedule, order), step_loop(want, cache, order)
            assert (got.offset, got.step_count) == (want.offset, want.step_count)
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
            assert got.amplitudes.base is None and got.amplitudes.flags.c_contiguous


class TestAdjointAgainstReference:
    """adjoint_step, the step kernel run in the other order on the
    chirality-swapped state, against U^H applied directly."""

    @given(adjoint_cases())
    @settings(max_examples=200, deadline=None)
    def test_adjoint_step_is_bitwise_the_reference(self, case):
        make, state, order = case
        got = adjoint_step(state, make(), order)
        want = adjoint_step_loop(state, make(), order)
        assert (got.offset, got.step_count) == (want.offset, want.step_count)
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert got.amplitudes.flags.c_contiguous

    @pytest.mark.parametrize("order", ["WC", "CW"])
    def test_drift_names_the_step_count_it_would_reach(self, order):
        state = initial_state((0.6, 0.8j))
        with pytest.raises(NumericalDriftError) as raised:
            for _ in range(40):
                state = adjoint_step(state, _Stretched(), order)
        assert -40 < state.step_count < -5
        assert f"after step {state.step_count - 1} (" in str(raised.value)
