"""Spans around calls into each layer of the program, for the traced run.

The tracer wraps public functions of the iqwalk modules (and the two
numpy.linalg calls the program makes) and records, per wrapped
function, its calls, total time and self time: span time minus the
time of the spans it caused.  Wrappers are installed only for a traced
round and removed after it, so untraced rounds run the program as is.
Every function's binding is replaced in every iqwalk module that
imported it, so calls between modules are seen too.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

perf_counter = time.perf_counter

# (module, attribute or Class.method, layer); a missing target is skipped
TARGETS = (
    ("numpy.linalg", "eig", "linalg"),
    ("numpy.linalg", "det", "linalg"),
    ("iqwalk.exact_trig", "trig_pair_exact", "exact_trig"),
    ("iqwalk.exact_trig", "half_pi_cos_sin", "exact_trig"),
    ("iqwalk.exact_trig", "fraction_cos_sin", "exact_trig"),
    ("iqwalk.precision", "RealEnclosure.cos_sin_two_pi", "precision"),
    ("iqwalk.coins", "CoinSchedule.coin_entries", "coins"),
    ("iqwalk.coins", "CoinSchedule.coin_at", "coins"),
    ("iqwalk.coins", "RotationalSchedule.angle_cos_sin", "coins"),
    ("iqwalk.coins", "rotation_coin", "coins"),
    ("iqwalk.coins", "haar_coin", "coins"),
    ("iqwalk.walk", "initial_state", "walk"),
    ("iqwalk.walk", "step", "walk"),
    ("iqwalk.walk", "adjoint_step", "walk"),
    ("iqwalk.walk", "evolve", "walk"),
    ("iqwalk.walk", "distribution", "walk"),
    ("iqwalk.walk", "support", "walk"),
    ("iqwalk.walk", "moment_stats", "walk"),
    ("iqwalk.walk", "origin_probability", "walk"),
    ("iqwalk.analysis", "leaked_probability", "analysis"),
    ("iqwalk.analysis", "finite_support_verify", "analysis"),
    ("iqwalk.analysis", "barrier_positions", "analysis"),
    ("iqwalk.analysis", "near_barriers", "analysis"),
    ("iqwalk.analysis", "recurrence_series", "analysis"),
    ("iqwalk.analysis", "spread_exponent", "analysis"),
    ("iqwalk.spectral", "build_matrices", "spectral"),
    ("iqwalk.spectral", "eigenpairs", "spectral"),
    ("iqwalk.spectral", "eigenvalues", "spectral"),
    ("iqwalk.spectral", "spectrum", "spectral"),
    ("iqwalk.spectral", "eigenvalue_gaps", "spectral"),
    ("iqwalk.spectral", "circular_arg_distance", "spectral"),
    ("iqwalk.spectral", "property_report", "spectral"),
    ("iqwalk.spectral", "gauge_check", "spectral"),
    ("iqwalk.duality", "ring_shift", "duality"),
    ("iqwalk.duality", "ring_coin", "duality"),
    ("iqwalk.duality", "dual_vector", "duality"),
    ("iqwalk.duality", "verify_duality", "duality"),
    ("iqwalk.diophantine", "continued_fraction", "diophantine"),
    ("iqwalk.diophantine", "convergents", "diophantine"),
    ("iqwalk.diophantine", "verify_bound", "diophantine"),
    ("iqwalk.diophantine", "quarter_approximants", "diophantine"),
    ("iqwalk.cli", "main", "cli"),
    ("iqwalk.cli", "parse_args", "cli"),
    ("iqwalk.cli", "parse_alpha", "cli"),
    ("iqwalk.cli", "execute", "cli"),
)

# per-call counters fed from a wrapped function's arguments or result
def _eig_n3(args, kwargs, result):
    n = np.shape(args[0])[0]
    return {"linalg.eig_n3_sum": n**3}


def _sites_requested(args, kwargs, result):
    return {"coins.sites_requested": args[2] - args[1] + 1}


def _site_updates(args, kwargs, result):
    return {"walk.site_updates": len(args[0].amplitudes)}


def _approximants(args, kwargs, result):
    return {"diophantine.approximants": len(result)}


HOOKS = {
    "eig": _eig_n3,
    "coin_entries": _sites_requested,
    "step": _site_updates,
    "quarter_approximants": _approximants,
}


def _trig_key(name, args):
    # the residue that decides the value: (k mod 4q, q) or the turn mod 1
    if name == "trig_pair_exact":
        f, n = args[0], args[1]
        return (f.p * n) % (4 * f.q), f.q
    if name == "half_pi_cos_sin":
        k, q = args[0], args[1]
        return k % (4 * q), q
    turns = args[0]
    return turns.numerator % turns.denominator, turns.denominator


class Tracer:
    """Installs span wrappers on enter and restores the program on exit."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.counters = defaultdict(int)
        self.trig_keys = set()
        self.stack = []

    def _wrap(self, fn, name, layer):
        tracer = self
        hook = HOOKS.get(name)
        is_trig = layer == "exact_trig"

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            outer = not stack or stack[-1][1] != layer
            if is_trig and outer:
                tracer.counters["exact_trig.calls"] += 1
                tracer.trig_keys.add((name, *_trig_key(name, args)))
            frame = [0.0, layer]  # child span time, layer
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                entry = tracer.stats[name]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[0]
                if outer:
                    tracer.stats["layer-outer:" + layer][1] += dt
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    tracer.counters[key] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        self.reset()
        modules = [m for n, m in list(sys.modules.items()) if n == "iqwalk" or n.startswith("iqwalk.")]
        for module_name, target, layer in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            wrapped = self._wrap(original, attr, layer)
            self._patch(owner, attr, original, wrapped)
            if owner_name:
                continue
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original and other is not owner:
                        self._patch(other, key, original, wrapped)
        return self

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        return False

    def layer_self(self, layer: str) -> float:
        names = {t.rpartition(".")[2] for m, t, lay in TARGETS if lay == layer}
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of the spans recorded since the last reset."""
        s, c = self.stats, self.counters
        calls = lambda n: s[n][0] if n in s else 0
        total = lambda n: s[n][1] if n in s else 0.0
        own = lambda n: s[n][2] if n in s else 0.0
        requested = c["coins.sites_requested"]
        built = calls("rotation_coin") + calls("haar_coin")
        updates = c["walk.site_updates"]
        walk_self = self.layer_self("walk")
        trig_calls = c["exact_trig.calls"]
        return {
            "linalg.eig_calls": calls("eig"),
            "linalg.eig_n3_sum": c["linalg.eig_n3_sum"],
            "linalg.eig_s": total("eig"),
            "linalg.det_calls": calls("det"),
            "linalg.det_s": total("det"),
            "spectral.build_self_s": own("build_matrices"),
            "spectral.eigenpairs_self_s": own("eigenpairs"),
            "spectral.property_reports": calls("property_report"),
            "spectral.arg_distance_calls": calls("circular_arg_distance"),
            "spectral.arg_distance_s": total("circular_arg_distance"),
            "spectral.gaps_s": total("eigenvalue_gaps"),
            "spectral.gauge_s": own("gauge_check"),
            "exact_trig.calls": trig_calls,
            "exact_trig.distinct_share": len(self.trig_keys) / trig_calls if trig_calls else 0.0,
            "exact_trig.s": total("layer-outer:exact_trig"),
            "duality.verify_calls": calls("verify_duality"),
            "duality.dual_vectors": calls("dual_vector"),
            "duality.ring_coin_calls": calls("ring_coin"),
            "duality.self_s": self.layer_self("duality"),
            "coins.entries_calls": calls("coin_entries"),
            "coins.sites_requested": requested,
            "coins.coins_built": built,
            "coins.hit_ratio": (requested - built) / requested if requested else 0.0,
            "coins.self_s": self.layer_self("coins"),
            "precision.cos_sin_calls": calls("cos_sin_two_pi"),
            "precision.s": total("layer-outer:precision"),
            "walk.steps": calls("step"),
            "walk.site_updates": updates,
            "walk.self_s": walk_self,
            "walk.ns_per_site_update": 1e9 * walk_self / updates if updates else 0.0,
            "analysis.calls": sum(calls(n) for n in ("leaked_probability", "finite_support_verify", "barrier_positions", "near_barriers", "recurrence_series", "spread_exponent")),
            "analysis.self_s": self.layer_self("analysis"),
            "diophantine.approximants": c["diophantine.approximants"],
            "diophantine.s": total("layer-outer:diophantine"),
            "cli.commands": calls("main"),
            "cli.self_s": self.layer_self("cli"),
        }


# every per-layer metric the traced run reports: (name, unit, better)
PER_LAYER = (
    ("linalg.eig_calls", "count", "lower"),
    ("linalg.eig_n3_sum", "count", "lower"),
    ("linalg.eig_s", "s", "lower"),
    ("linalg.det_calls", "count", "lower"),
    ("linalg.det_s", "s", "lower"),
    ("spectral.build_self_s", "s", "lower"),
    ("spectral.eigenpairs_self_s", "s", "lower"),
    ("spectral.property_reports", "count", "lower"),
    ("spectral.arg_distance_calls", "count", "lower"),
    ("spectral.arg_distance_s", "s", "lower"),
    ("spectral.gaps_s", "s", "lower"),
    ("spectral.gauge_s", "s", "lower"),
    ("exact_trig.calls", "count", "lower"),
    ("exact_trig.distinct_share", "ratio", "higher"),
    ("exact_trig.s", "s", "lower"),
    ("duality.verify_calls", "count", "lower"),
    ("duality.dual_vectors", "count", "lower"),
    ("duality.ring_coin_calls", "count", "lower"),
    ("duality.self_s", "s", "lower"),
    ("coins.entries_calls", "count", "lower"),
    ("coins.sites_requested", "count", "lower"),
    ("coins.coins_built", "count", "lower"),
    ("coins.hit_ratio", "ratio", "higher"),
    ("coins.self_s", "s", "lower"),
    ("precision.cos_sin_calls", "count", "lower"),
    ("precision.s", "s", "lower"),
    ("walk.steps", "count", "lower"),
    ("walk.site_updates", "count", "lower"),
    ("walk.self_s", "s", "lower"),
    ("walk.ns_per_site_update", "ns", "lower"),
    ("analysis.calls", "count", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("diophantine.approximants", "count", "lower"),
    ("diophantine.s", "s", "lower"),
    ("cli.commands", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# counts and ratios of counts repeat exactly between traced rounds and runs
COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "ratio", "bytes"))
