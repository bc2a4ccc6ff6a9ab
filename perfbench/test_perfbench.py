"""Tests of the benchmark itself: smoke runs, checkers that reject
corrupted outputs, and the tracer.

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import iqwalk  # noqa: E402
import refcheck  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from refcheck import CheckFailure  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", "smoke",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------- smoke runs


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = result_of(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2 * len(workloads.WORKLOADS[workload](3, "smoke", "").ops)
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for spec in BENCHMARK["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_runs_repeat_their_counts(workload):
    first = result_of(run_bench(workload, 1))
    second = result_of(run_bench(workload, 1))
    assert first["correct"] is True and second["correct"] is True
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for name in spans.COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_traced_shares_follow_the_workloads():
    layers = {w: result_of(run_bench(w, 1))["metrics"] for w in WORKLOAD_NAMES}
    value = lambda w, k: layers[w][k]["value"]
    assert value("butterfly", "linalg.eig_calls") > 0 and value("walk", "linalg.eig_calls") == 0
    assert value("walk", "walk.steps") > 0 and value("butterfly", "walk.steps") == 0
    assert value("walk", "coins.coins_built") > 0 and value("certify", "coins.coins_built") == 0
    assert value("certify", "duality.verify_calls") > 0 and value("butterfly", "duality.verify_calls") == 0
    assert value("certify", "cli.commands") == len(workloads.WORKLOADS["certify"](3, "smoke", "").ops)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = run_bench("walk", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_per_layer_list_matches_the_tracer():
    listed = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert listed == list(spans.PER_LAYER)


# ------------------------------------------------------------------- spectra


def spectrum_of(p, q):
    return iqwalk.spectrum(iqwalk.QuarterFraction(p, q), "CW")


def test_reference_operator_is_the_documented_basis():
    for p, q in ((1, 1), (3, 5), (7, 6)):
        coin, shift = iqwalk.build_matrices(iqwalk.QuarterFraction(p, q))
        assert np.abs(refcheck.reference_operator(p, q) - coin @ shift).max() < 1e-15


def test_spectrum_checks_pass_on_the_program():
    spec = spectrum_of(3, 7)
    refcheck.check_spectrum(3, 7, spec.eigenvalues, spec.args)
    refcheck.check_against_reference(3, 7, spec.eigenvalues)
    refcheck.check_mirror(3, 7, spec.eigenvalues, spectrum_of(25, 7).eigenvalues)


@pytest.mark.parametrize("direction", [1.0, 1.0j])  # radial, tangential
def test_one_eigenvalue_moved_by_1e_6_is_rejected(direction):
    spec = spectrum_of(3, 7)
    moved = spec.eigenvalues.copy()
    i = int(np.argmin(np.abs(moved - np.exp(0.4j))))
    moved[i] += 1e-6 * direction * moved[i]
    with pytest.raises(CheckFailure):
        refcheck.check_spectrum(3, 7, moved, np.angle(moved))
    with pytest.raises(CheckFailure):
        refcheck.check_against_reference(3, 7, moved)
    with pytest.raises(CheckFailure):
        refcheck.check_mirror(3, 7, moved, spectrum_of(25, 7).eigenvalues)


def test_sweep_count_is_checked():
    found = [(f.p, f.q) for f in iqwalk.butterfly_fractions(6)]
    refcheck.check_sweep(found, 6)
    with pytest.raises(CheckFailure):
        refcheck.check_sweep(found[:-1], 6)
    with pytest.raises(CheckFailure):
        refcheck.check_sweep(found[:-1] + [(9, 6)], 6)


def test_butterfly_check_rejects_a_corrupted_round():
    wl = workloads.Butterfly(3, "smoke", "")
    outputs = [(op, op.run()) for op in wl.ops]
    wl.check(outputs)
    op, spec = outputs[-5]
    values = spec.eigenvalues.copy()
    values[1] *= np.exp(1e-6j)
    outputs[-5] = (op, replace(spec, eigenvalues=values))
    with pytest.raises(CheckFailure):
        wl.check(outputs)


# --------------------------------------------------------------------- walks


def confined_walk(steps=40):
    f = iqwalk.QuarterFraction(3, 5)
    spinor = (0.6, 0.8j)
    state = iqwalk.evolve(spinor, iqwalk.RotationalSchedule(f), steps)
    coins = refcheck.rational_coins(3, 20, np.arange(-6, 7))
    left, right = refcheck.final_state(refcheck.reference_walk(coins, 6, spinor, steps))
    return state, left, right


def test_walk_checks_pass_on_the_program():
    state, left, right = confined_walk()
    refcheck.check_parity("walk", state.offset, state.amplitudes, 40)
    refcheck.check_confined("walk", state.offset, state.amplitudes, 5)
    refcheck.check_state("walk", state.offset, state.amplitudes, left, right, 40)


def test_amplitude_leaked_past_the_barrier_is_rejected():
    state, left, right = confined_walk()
    assert state.offset + len(state.amplitudes) - 1 == 4  # site 5 is odd, so empty
    padded = np.vstack([state.amplitudes, np.zeros((2, 2))])
    padded[-1, 1] = 1e-300  # site q + 1 = 6, even like the step count
    with pytest.raises(CheckFailure):
        refcheck.check_confined("walk", state.offset, padded, 5)
    padded[-1, 1] = 1e-6
    with pytest.raises(CheckFailure):
        refcheck.check_state("walk", state.offset, padded, left, right, 40)


def test_wrong_parity_and_moved_amplitude_are_rejected():
    state, left, right = confined_walk()
    amps = state.amplitudes.copy()
    amps[1, 0] = 1e-300  # offset is even, so index 1 is an odd site
    with pytest.raises(CheckFailure):
        refcheck.check_parity("walk", state.offset, amps, 40)
    amps = state.amplitudes.copy()
    amps[4, 0] += 1e-8
    with pytest.raises(CheckFailure):
        refcheck.check_state("walk", state.offset, amps, left, right, 40)


def test_ballistic_closed_form():
    spinor = (0.6, 0.8j)
    state = iqwalk.evolve(spinor, iqwalk.RotationalSchedule(Fraction(1, 2)), 30)
    refcheck.check_ballistic("half", state.offset, state.amplitudes, spinor, 30)
    amps = state.amplitudes.copy()
    amps[-1, 1] *= 1.0 + 2.0**-52
    with pytest.raises(CheckFailure):
        refcheck.check_ballistic("half", state.offset, amps, spinor, 30)


def test_recurrence_and_spread_checks():
    schedule = iqwalk.RotationalSchedule(Fraction(2, 7))
    coins = refcheck.rational_coins(2, 7, np.arange(-64, 65))
    walk = lambda: refcheck.reference_walk(coins, 64, iqwalk.DEFAULT_SPINOR, 64)
    series = iqwalk.recurrence_series(schedule, 64)
    refcheck.check_recurrence("rec", series, walk(), 64)
    series[3] = (3, 1e-300)
    with pytest.raises(CheckFailure):
        refcheck.check_recurrence("rec", series, walk(), 64)
    points = [8, 16, 24, 32, 40, 48, 56, 64]
    estimate = iqwalk.spread_exponent(schedule, points)
    refcheck.check_spread("spread", estimate, walk(), points, 0.5)
    bad = replace(estimate, sigmas=(estimate.sigmas[0] * (1 + 1e-6),) + estimate.sigmas[1:])
    with pytest.raises(CheckFailure):
        refcheck.check_spread("spread", bad, walk(), points, 0.5)


def test_walk_check_rejects_a_corrupted_round():
    wl = workloads.Walk(3, "smoke", "")
    wl.reference = set(range(len(wl.ops)))
    outputs = [(op, op.run()) for op in wl.ops]
    wl.check(outputs)
    i = next(k for k, (op, _) in enumerate(outputs) if op.info["family"] == "confined-evolve")
    op, state = outputs[i]
    q = op.info["coins"][1][1] // 4
    amps = np.vstack([np.zeros((3, 2)), state.amplitudes])
    amps[0, 1] = 1e-300
    outputs[i] = (op, iqwalk.WalkerState(state.offset - 3, amps, state.step_count))
    assert state.offset - 3 < -q
    with pytest.raises(CheckFailure):
        wl.check(outputs)


# ------------------------------------------------------------ CLI documents


def cli_document(tmp_path, *argv):
    path = str(tmp_path / "out.json")
    assert workloads._run_cli([*argv, "--output", path]) == 0
    with open(path) as handle:
        return json.load(handle)


def test_properties_check(tmp_path):
    doc = cli_document(tmp_path, "properties", "--alpha", "5/28")
    refcheck.check_properties("props", doc, 5, 7)
    moved = dict(doc, args=list(doc["args"]))
    moved["args"][3] += 1e-6
    with pytest.raises(CheckFailure):
        refcheck.check_properties("props", moved, 5, 7)
    with pytest.raises(CheckFailure):
        refcheck.check_properties("props", dict(doc, gauge_residual=1e-17), 5, 7)


def test_duality_check(tmp_path):
    doc = cli_document(tmp_path, "duality-check", "--alpha", "5/28")
    refcheck.check_duality("dual", doc, 5, 7)
    assert refcheck.ring_residuals(5, 7) < 1e-13
    with pytest.raises(CheckFailure):
        refcheck.check_duality("dual", dict(doc, coin_as_shift=1e-11), 5, 7)


def test_approximant_check(tmp_path):
    doc = cli_document(tmp_path, "approximate", "--alpha", "golden", "--count", "4")
    refcheck.check_approximants("approx", doc, "golden", 4)
    wrong = [dict(a) for a in doc["approximants"]]
    wrong[2]["p"] += 2
    with pytest.raises(CheckFailure):
        refcheck.check_approximants("approx", dict(doc, approximants=wrong), "golden", 4)
    with pytest.raises(CheckFailure):
        refcheck.check_approximants("approx", dict(doc, approximants=doc["approximants"][1:]), "golden", 3)


# -------------------------------------------------------------------- tracer


def test_tracer_counts_and_restores():
    original = iqwalk.spectral.build_matrices
    tracer = spans.Tracer()
    with tracer:
        assert iqwalk.spectral.build_matrices is not original
        iqwalk.spectrum(iqwalk.QuarterFraction(1, 3), "CW")
    assert iqwalk.spectral.build_matrices is original
    figures = tracer.metrics()
    assert figures["linalg.eig_calls"] == 1
    assert figures["linalg.eig_n3_sum"] == 12**3
    assert figures["linalg.det_calls"] == 2
    assert figures["exact_trig.calls"] == 2 * 3 - 1
    assert 0.0 < figures["spectral.build_self_s"] < figures["linalg.eig_s"] + 1.0
