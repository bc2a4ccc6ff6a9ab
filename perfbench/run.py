"""Benchmark of the iqwalk library: one workload per process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload butterfly|walk|certify \\
        --seed N --seconds S --trace 0|1

The process imports iqwalk from ./src, builds the workload's operations
from the seed, and runs whole rounds of them until S seconds of rounds
have passed (at least two rounds).  The first round's outputs are
checked against independent references (refcheck.py); every later
round must reproduce them bit for bit.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 untraced and traced rounds alternate and the metrics are the
per-layer figures of one round (spans.py).  Exit code 0 when every
check passed, 1 when one failed, 2 when the program cannot be found.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# one BLAS thread: a 4q = 120 eigensolve is slower on two threads, at
# twice the CPU time, and the figures would depend on the machine's load
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

SETUP_SAMPLES = 5  # fresh processes whose set-up time gives the median
MIN_ROUNDS = 2  # so that repeated outputs are always compared
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("butterfly", "walk", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full", help="smoke: tiny inputs for tests")
    parser.add_argument("--probe", action="store_true", help="only set up, print the set-up time and exit")
    return parser.parse_args(argv)


def import_program(root):
    """Import iqwalk from root/src and nowhere else; None if it is not there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "iqwalk", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import iqwalk

    where = os.path.realpath(iqwalk.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        return None
    return iqwalk


def set_up(args, root):
    """Import, build the workload's inputs and warm up LAPACK."""
    iqwalk = import_program(root)
    if iqwalk is None:
        return None
    import numpy as np

    import workloads

    workdir = os.path.join(root, ".perfbench-out", f"{args.workload}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
    warm = np.random.default_rng(0).normal(size=(8, 8)) + 0j
    np.linalg.eig(warm)
    return workload


def probe_setups(args, count):
    """Set-up times of `count` fresh processes, run one after another."""
    times = []
    for _ in range(count):
        cmd = [
            sys.executable, os.path.abspath(__file__), "--probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--size", args.size,
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Runner:
    """Runs whole rounds of a workload's ops and checks their outputs."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.op_times = []
        self.fingerprints = None
        self.reported = set()

    def round(self):
        """One pass over every op; returns (wall s, cpu s, outputs)."""
        results = []
        t_cpu = time.process_time()
        t_round = time.perf_counter()
        for i, op in enumerate(self.workload.ops):
            t0 = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a failed op is counted, not fatal
                result, error = None, exc
            self.op_times.append(time.perf_counter() - t0)
            results.append((i, op, result, error))
        wall = time.perf_counter() - t_round
        cpu = time.process_time() - t_cpu
        outputs = []
        for i, op, result, error in results:
            self.attempted += 1
            if error is not None or op.failed(result):
                self.failed += 1
                if i not in self.reported:
                    self.reported.add(i)
                    reason = "".join(traceback.format_exception_only(error)).strip() if error else repr(result)
                    print(f"perfbench: {op.label} failed: {reason}", file=sys.stderr)
                continue
            outputs.append((i, op, op.collect(result)))
        return wall, cpu, outputs

    def check(self, outputs):
        """Check the first round independently; later rounds against it."""
        from refcheck import CheckFailure

        workload = self.workload
        try:
            prints = {i: workload.fingerprint(op, out) for i, op, out in outputs}
            if self.fingerprints is None:
                workload.check([(op, out) for _, op, out in outputs])
                self.fingerprints = prints
                return
            for i, fp in prints.items():
                if i in self.fingerprints and fp != self.fingerprints[i]:
                    raise CheckFailure(f"{workload.ops[i].label}: output differs from the first round")
        except Exception as exc:  # any disagreement, or output too malformed to read
            message = "".join(traceback.format_exception_only(exc)).strip()
            self.errors.append(message)
            print(f"perfbench: check failed: {message}", file=sys.stderr)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(args, runner):
    walls = []
    while len(walls) < MIN_ROUNDS or sum(walls) < args.seconds:
        wall, _, outputs = runner.round()
        walls.append(wall)
        runner.check(outputs)
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "op_p50_ms": metric(1000.0 * statistics.median(runner.op_times), "ms"),
    }


def run_traced(args, runner):
    import spans

    tracer = spans.Tracer()
    plain, traced, cpu, layers = [], [], [], []
    while len(traced) < 1 or sum(plain) + sum(traced) < args.seconds:
        wall, cpu_s, outputs = runner.round()
        plain.append(wall)
        cpu.append(cpu_s)
        runner.check(outputs)
        with tracer:
            wall, _, outputs = runner.round()
        traced.append(wall)
        runner.check(outputs)
        figures = tracer.metrics()
        figures["cli.bytes_written"] = sum(len(out[1]) for _, op, out in outputs if "path" in op.info)
        layers.append(figures)
    counts = {k: layers[0][k] for k in spans.COUNT_METRICS}
    for figures in layers[1:]:
        moved = [k for k in spans.COUNT_METRICS if figures[k] != counts[k]]
        if moved:
            message = f"counts differ between traced rounds: {moved}"
            runner.errors.append(message)
            print(f"perfbench: {message}", file=sys.stderr)
    out = {}
    for name, unit, _ in spans.PER_LAYER:
        if name == "process.cpu_s":
            value = statistics.median(cpu)
        elif name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        elif name in counts:
            value = counts[name]
        else:
            value = statistics.median(f[name] for f in layers)
        out[name] = metric(value, unit)
    return out


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = os.getcwd()
    workload = set_up(args, root)
    if workload is None:
        print("perfbench: no iqwalk source under ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - _START
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    os.makedirs(workload.workdir, exist_ok=True)
    try:
        runner = Runner(workload)
        if args.trace:
            metrics = run_traced(args, runner)
        else:
            setups = [setup_s] + probe_setups(args, SETUP_SAMPLES - 1)
            metrics = run_untraced(args, runner)
            metrics["setup_s"] = metric(statistics.median(setups), "s")
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = metric(rss_mb, "MB")
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workload.workdir))
        except OSError:
            pass  # another run still uses it
    correct = not runner.errors
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
