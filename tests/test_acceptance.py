"""Acceptance gate: twelve externally stated criteria, one test each.

Every test prints a single [acceptance NN] PASS/FAIL line on the live
terminal (bypassing capture) so a full run yields a readable scorecard.
Tolerances and workloads are part of the contract; do not loosen them.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from iqwalk import (
    CustomSchedule,
    QuarterFraction,
    RandomSchedule,
    RotationalSchedule,
    build_matrices,
    butterfly,
    butterfly_fractions,
    distribution,
    evolve,
    golden_mean,
    initial_state,
    leaked_probability,
    moment_stats,
    pi_half,
    property_report,
    quarter_approximants,
    recurrence_series,
    spectrum,
    sqrt2_minus_one,
    step,
    verify_bound,
    verify_duality,
)
from iqwalk.walk import DEFAULT_SPINOR
from oracles import circular_arg_distance, dense_gauge_residual, mp_distribution, reflecting_coin

DYADIC_SPINOR = (0.5 + 0.5j, 0.5 - 0.5j)


def _announce(capsys, number, label, verdict):
    with capsys.disabled():
        print(f"[acceptance {number:02d}] {verdict}: {label}", flush=True)


@contextmanager
def criterion(capsys, number, label):
    try:
        yield
    except BaseException:
        _announce(capsys, number, label, "FAIL")
        raise
    _announce(capsys, number, label, "PASS")


def test_01_exact_confinement(capsys):
    with criterion(capsys, 1, "bit-zero confinement at t=1000, <1s per case"):
        for p, q in ((1, 1), (1, 3), (3, 5), (1, 12)):
            start = time.perf_counter()
            state = evolve(DEFAULT_SPINOR, RotationalSchedule(QuarterFraction(p, q)), 1000)
            assert leaked_probability(state, (-q, q)) == 0.0
            assert state.offset >= -q
            assert state.offset + len(state.amplitudes) - 1 <= q
            assert time.perf_counter() - start < 1.0, f"too slow for p={p}, q={q}"


def test_02_norm_conservation(capsys):
    with criterion(capsys, 2, "norm within 1e-12 after 1000 steps, rational and irrational"):
        inverse_periods = (
            QuarterFraction(1, 3),
            Fraction(1, 6),
            pi_half(40),
            golden_mean(40),
        )
        for alpha in inverse_periods:
            state = evolve(DEFAULT_SPINOR, RotationalSchedule(alpha), 1000)
            total = sum(probs[2] for probs in distribution(state).values())
            assert abs(1.0 - total) <= 1e-12, f"alpha={alpha}"
            assert abs(state.norm() - 1.0) <= 1e-12


def test_03_smallest_spectrum_is_the_fourth_roots(capsys):
    with criterion(capsys, 3, "q=1 spectrum equals {1, i, -1, -i} within 1e-9"):
        spec = spectrum(QuarterFraction(1, 1), "CW")
        targets = np.array([1.0, 1.0j, -1.0, -1.0j])
        worst = float(np.abs(spec.eigenvalues[None, :] - targets[:, None]).min(axis=1).max())
        assert worst <= 1e-9
        # independent signed-4-cycle oracle, written out entry by entry
        hand = np.zeros((4, 4), dtype=complex)
        hand[0, 1] = -1.0
        hand[1, 3] = 1.0
        hand[2, 0] = 1.0
        hand[3, 2] = -1.0
        oracle_args = np.sort(np.angle(np.linalg.eigvals(hand)))
        assert circular_arg_distance(spec.args, oracle_args) <= 1e-9


def test_04_spectral_property_suite(capsys):
    # Simplicity is a certified verdict: the eigenvalue inclusion disks
    # must be pairwise disjoint, which proves every exact eigenvalue simple.
    # Tunnelling doublets (2.6e-7 at 3/76, 1.2e-7 at 3/80) are resolved by
    # disks of radius ~1e-14; a gap no disk test can resolve fails.  Every
    # violation is listed, with its measured gap and certified bound,
    # rather than stopping at the first.
    with criterion(capsys, 4, "five spectral properties for all q <= 20, <120s"):
        start = time.perf_counter()
        fractions = list(butterfly_fractions(20))
        assert len(fractions) == 346
        violations = []
        for f in fractions:
            report = property_report(f)
            for name, check in (
                ("alpha-reflection", report.alpha_reflection),
                ("conjugation", report.conjugation),
                ("negation", report.negation),
                ("quartet", report.quartet),
            ):
                if not check.passed or check.residual > 1e-9:
                    violations.append(f"{f} {name}: residual {check.residual:.3e}")
            if not report.simplicity.passed:
                violations.append(
                    f"{f} simplicity: measured gap {report.simple_gap:.3e}, "
                    f"certified bound {report.gap_lower_bound:.3e}"
                )
            if not report.det_ok or report.det_residual > 1e-9:
                violations.append(f"{f} determinant: residual {report.det_residual:.3e}")
        assert not violations, "; ".join(violations)
        assert time.perf_counter() - start < 120.0


def test_05_factor_orders_are_isospectral(capsys):
    with criterion(capsys, 5, "coin@shift and shift@coin args agree within 1e-9, q <= 20"):
        for f in butterfly_fractions(20):
            cw = spectrum(f, "CW")
            wc = spectrum(f, "WC")
            assert circular_arg_distance(cw.args, wc.args) <= 1e-9, f"{f}"


def test_06_parity_gauge_is_exact(capsys):
    with criterion(capsys, 6, "parity gauge flips the operator exactly, q <= 20"):
        for f in butterfly_fractions(20):
            # G (C S) G^-1 == -(C S) bitwise on the dense factors, both orders
            coin, shift = build_matrices(f)
            dense = dense_gauge_residual(coin @ shift)
            assert dense == dense_gauge_residual(shift @ coin) == 0.0, f"{f}"
            assert property_report(f).gauge_residual == dense, f"{f}"


def test_07_ring_duality(capsys):
    with criterion(capsys, 7, "role-swap residuals within 1e-12, q <= 20"):
        fractions = list(butterfly_fractions(20))
        assert len(fractions) == 346
        for f in fractions:
            residuals = verify_duality(f)
            assert residuals.max() <= 1e-12, f"{f}: {residuals}"


def test_08_certified_approximants(capsys):
    with criterion(capsys, 8, "three certified approximants per irrational, exact re-check"):
        targets = (
            pi_half(40).fractional_part(),
            golden_mean(40),
            sqrt2_minus_one(40),
        )
        for enclosure in targets:
            found = quarter_approximants(enclosure, count=3)
            assert len(found) >= 3, f"{enclosure}"
            for approx in found:
                assert approx.certified
                assert verify_bound(enclosure, approx.fraction), f"{approx}"


def test_09_ballistic_control(capsys):
    with criterion(capsys, 9, "sigma/t = 1 within 1e-12 (alpha=1/2); fit 1 +- 0.05 (alpha=1/6)"):
        schedule = RotationalSchedule(Fraction(1, 2))
        state = initial_state(DYADIC_SPINOR)
        for t in range(1, 1001):
            state = step(state, schedule)
            assert abs(moment_stats(state).std_dev / t - 1.0) <= 1e-12, f"t={t}"

        schedule = RotationalSchedule(Fraction(1, 6))
        checkpoints = (500, 600, 700, 800, 900, 1000)
        state = initial_state(DEFAULT_SPINOR)
        logs = []
        for t in range(1, 1001):
            state = step(state, schedule)
            if t in checkpoints:
                logs.append((math.log(t), math.log(moment_stats(state).std_dev)))
        x_mean = sum(x for x, _ in logs) / len(logs)
        y_mean = sum(y for _, y in logs) / len(logs)
        slope = sum((x - x_mean) * (y - y_mean) for x, y in logs) / sum(
            (x - x_mean) ** 2 for x, _ in logs
        )
        assert abs(slope - 1.0) <= 0.05, f"fitted exponent {slope}"


def test_10_recurrence_parity(capsys):
    with criterion(capsys, 10, "origin probability exactly 0 at every odd t <= 1000"):
        schedules = {
            "quarter": RotationalSchedule(QuarterFraction(1, 3)),
            "fraction": RotationalSchedule(Fraction(1, 6)),
            "irrational": RotationalSchedule(pi_half(40)),
            "random": RandomSchedule(20260815),
            "custom": CustomSchedule({-2: reflecting_coin(), 2: reflecting_coin()}),
        }
        for name, schedule in schedules.items():
            series = recurrence_series(schedule, 1000)
            assert len(series) == 1001
            for t, prob in series:
                if t % 2 == 1:
                    assert prob == 0.0, f"{name} at t={t}"


def test_11_high_precision_oracle_equivalence(capsys):
    with criterion(capsys, 11, "matches 30-digit evolution at t=200 within 1e-10 per site"):
        state = evolve(DEFAULT_SPINOR, RotationalSchedule(pi_half(40)), 200)
        ours = {n: probs[2] for n, probs in distribution(state).items()}
        reference = mp_distribution("pi/2", 200)
        for n in sorted(set(ours) | set(reference)):
            deviation = abs(ours.get(n, 0.0) - reference.get(n, 0.0))
            assert deviation <= 1e-10, f"site {n}: {deviation}"


def test_12_butterfly_regeneration(capsys):
    with criterion(capsys, 12, "q <= 50 sweep, one row per eigenvalue, symmetric, <600s"):
        start = time.perf_counter()
        spectra = {}
        rows = 0
        for spec in butterfly(50):
            assert len(spec.args) == 4 * spec.q, f"{spec.p}/{4 * spec.q}"
            assert len(spec.eigenvalues) == 4 * spec.q
            rows += len(spec.args)
            spectra[(spec.p, spec.q)] = spec.args
        expected_rows = sum(4 * f.q for f in butterfly_fractions(50))
        assert rows == expected_rows
        for (p, q), args in spectra.items():
            mirror = spectra[(4 * q - p, q)]
            assert circular_arg_distance(args, mirror) <= 1e-9, f"{p}/{4 * q} mirror"
            flipped = np.sort(-args)
            assert circular_arg_distance(args, flipped) <= 1e-9, f"{p}/{4 * q} conj"
        assert time.perf_counter() - start < 600.0
