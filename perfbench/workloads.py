"""The three workloads: their inputs, operations and output checks.

A workload is a fixed list of operations built from the seed.  The seed
changes which fractions, spinors and coin seeds appear, never how many
operations of each kind there are or how long they are, so the cost of
one round barely depends on it.  Operations call the program through
attribute lookups on the `iqwalk` package at call time, so that the
tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import iqwalk
import iqwalk.cli
import refcheck
from refcheck import require

NAMED = ("pi/2", "golden", "sqrt2-1")

SIZES = {
    # butterfly: sweep to q_max; reference-operator sample size
    "butterfly": {"full": {"q_max": 24, "reference": 12}, "smoke": {"q_max": 5, "reference": 3}},
    # walk: steps per family (see WALK_FAMILIES)
    "walk": {"full": {"scale": 1.0}, "smoke": {"scale": 0.02}},
    # certify: q range of the sampled fractions; approximants per constant
    "certify": {
        "full": {"q_lo": 20, "q_hi": 39, "count": 5, "constants": NAMED},
        "smoke": {"q_lo": 3, "q_hi": 4, "count": 3, "constants": ("pi/2",)},
    },
}


@dataclass
class Op:
    """One timed operation; `collect` turns its result into a checkable output."""

    label: str
    run: Callable[[], Any]
    collect: Callable[[Any], Any] = lambda result: result
    failed: Callable[[Any], bool] = lambda result: False
    info: dict = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, workdir: str):
        self.size = SIZES[self.name][size]
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: list[Op] = []

    def fingerprint(self, op: Op, output: Any) -> Any:
        """A value that is equal for bitwise-equal outputs."""
        raise NotImplementedError

    def check(self, outputs: list[tuple[Op, Any]]) -> None:
        """Check the outputs of one round against independent references."""
        raise NotImplementedError


# ------------------------------------------------------------------ butterfly


class Butterfly(Workload):
    """spectrum(f, "CW") for every fraction of the sweep, in sweep order.

    The op list does not depend on the seed; the seed picks the fractions
    whose eigenvalues are compared with the reference operator.
    """

    name = "butterfly"

    def __init__(self, seed: int, size: str, workdir: str):
        super().__init__(seed, size, workdir)
        self.q_max = self.size["q_max"]
        self.fractions = list(iqwalk.butterfly_fractions(self.q_max))
        for f in self.fractions:
            self.ops.append(Op(str(f), lambda f=f: iqwalk.spectrum(f, "CW"), info={"p": f.p, "q": f.q}))
        self.reference = set(self.rng.sample(range(len(self.ops)), self.size["reference"]))

    def fingerprint(self, op, spec):
        return (spec.p, spec.q, spec.eigenvalues.tobytes(), spec.args.tobytes(), spec.radii.tobytes())

    def check(self, outputs):
        refcheck.check_sweep([(f.p, f.q) for f in self.fractions], self.q_max)
        by_fraction = {}
        for i, (op, spec) in enumerate(outputs):
            p, q = op.info["p"], op.info["q"]
            require((spec.p, spec.q) == (p, q), f"{op.label}: spectrum reports {spec.p}/{4 * spec.q}")
            refcheck.check_spectrum(p, q, spec.eigenvalues, spec.args)
            radii = np.asarray(spec.radii)
            require(
                len(radii) == 4 * q and bool(np.all((radii > 0) & (radii < 1e-9))),
                f"{op.label}: inclusion radii outside (0, 1e-9)",
            )
            by_fraction[(p, q)] = spec.eigenvalues
            if i in self.reference:
                refcheck.check_against_reference(p, q, spec.eigenvalues)
        for (p, q), values in by_fraction.items():
            refcheck.check_mirror(p, q, values, by_fraction[(4 * q - p, q)])


# ----------------------------------------------------------------------- walk

# (family, number of ops, steps at full size)
WALK_FAMILIES = (
    ("rational", 4, 2000),  # unconfined a/b, b not a multiple of 4
    ("confined", 3, 3000),  # finite_support_verify at p/(4q)
    ("confined-evolve", 2, 2000),  # evolve at p/(4q), state checked bitwise
    ("half", 2, 2000),  # alpha = 1/2, ballistic closed form
    ("irrational", 3, 1200),  # named constants, mpmath coins
    ("haar", 3, 1500),  # Haar-random coins
    ("recurrence", 2, 2000),  # recurrence_series
    ("spread", 2, 2000),  # spread_exponent
)
RATIONAL_DENOMINATORS = (5, 6, 7, 10)
CONFINED_Q = (5, 9, 16)
CONFINED_EVOLVE_Q = (7, 12)
RECURRENCE_COINS = (("rational", 9), ("rational", 44))  # a/9 unconfined, p/44 confined
SPREAD_COINS = (("rational", 7), ("haar", None))


def _coprime(rng: random.Random, den: int, odd: bool = False) -> int:
    return rng.choice([a for a in range(1, den, 2 if odd else 1) if math.gcd(a, den) == 1])


class Walk(Workload):
    """Walks with a fresh coin schedule each, drawn from a seeded list.

    Every op starts at the origin in the coin-then-shift order with a
    seeded unit spinor.  The seed picks numerators, spinors and Haar
    seeds; the families, their counts and their step numbers are fixed.
    """

    name = "walk"

    def __init__(self, seed: int, size: str, workdir: str):
        super().__init__(seed, size, workdir)
        scale = self.size["scale"]
        nprng = np.random.default_rng(self.rng.getrandbits(63))
        for family, count, steps in WALK_FAMILIES:
            steps = max(8, int(steps * scale))
            for k in range(count):
                z = nprng.normal(size=4)
                spinor = complex(z[0], z[1]), complex(z[2], z[3])
                norm = math.sqrt(abs(spinor[0]) ** 2 + abs(spinor[1]) ** 2)
                spinor = (spinor[0] / norm, spinor[1] / norm)
                spec = self._coins_for(family, k)
                self.ops.append(self._make(family, steps, spinor, spec))
        self.rng.shuffle(self.ops)
        kinds: dict[str, list[int]] = {}
        for i, op in enumerate(self.ops):
            kinds.setdefault(op.info["family"], []).append(i)
        # every family keeps at least one reference-checked walk
        self.reference = {self.rng.choice(idx) for idx in kinds.values()}
        self.reference |= {i for i in range(len(self.ops)) if self.rng.random() < 0.5}

    def _coins_for(self, family: str, k: int):
        if family == "rational":
            den = RATIONAL_DENOMINATORS[k]
            return ("rational", (_coprime(self.rng, den), den))
        if family in ("confined", "confined-evolve"):
            q = (CONFINED_Q if family == "confined" else CONFINED_EVOLVE_Q)[k]
            return ("rational", (_coprime(self.rng, 4 * q, odd=True), 4 * q))
        if family == "half":
            return ("rational", (1, 2))
        if family == "irrational":
            return ("irrational", NAMED[k])
        if family == "haar":
            return ("haar", self.rng.getrandbits(31))
        kind, den = (RECURRENCE_COINS if family == "recurrence" else SPREAD_COINS)[k]
        if kind == "haar":
            return ("haar", self.rng.getrandbits(31))
        return ("rational", (_coprime(self.rng, den, odd=den % 4 == 0), den))

    @staticmethod
    def _schedule(coins):
        kind, value = coins
        if kind == "rational":
            return iqwalk.RotationalSchedule(Fraction(*value))
        if kind == "irrational":
            return iqwalk.RotationalSchedule(iqwalk.NAMED_CONSTANTS[value](40))
        return iqwalk.RandomSchedule(value)

    def _make(self, family, steps, spinor, coins) -> Op:
        info = {"family": family, "steps": steps, "spinor": spinor, "coins": coins}
        label = f"{family}[{coins[1]}] T={steps}"
        if family == "confined":
            p, den = coins[1]
            f = iqwalk.QuarterFraction(p, den // 4)
            run = lambda: iqwalk.finite_support_verify(f, steps, spinor)
        elif family == "recurrence":
            run = lambda: iqwalk.recurrence_series(self._schedule(coins), steps, spinor)
        elif family == "spread":
            checkpoints = sorted({max(1, steps * j // 8) for j in range(1, 9)})
            info["checkpoints"] = checkpoints
            run = lambda: iqwalk.spread_exponent(self._schedule(coins), checkpoints, spinor, theta=0.5)
        else:
            run = lambda: iqwalk.evolve(spinor, self._schedule(coins), steps)
        return Op(label, run, info=info)

    def fingerprint(self, op, out):
        if isinstance(out, iqwalk.WalkerState):
            return (out.offset, out.step_count, out.amplitudes.tobytes())
        if isinstance(out, list):
            return tuple(out)
        return repr(out)

    @staticmethod
    def _confinement_q(coins) -> int | None:
        kind, value = coins
        if kind == "rational" and value[1] % 4 == 0:
            return value[1] // 4
        return None

    def _reference(self, info):
        steps, coins = info["steps"], info["coins"]
        q = self._confinement_q(coins)
        radius = steps if q is None else min(steps, q + 1)
        sites = np.arange(-radius, radius + 1)
        kind, value = coins
        if kind == "rational":
            table = refcheck.rational_coins(*value, sites)
        elif kind == "irrational":
            table = refcheck.irrational_coins(value, sites)
        else:
            table = np.array([iqwalk.haar_coin(value, int(n)).reshape(4) for n in sites])
            refcheck.check_unitary_coins(f"haar[{value}]", table)
        walk = refcheck.reference_walk(table, radius, info["spinor"], steps)
        return walk, q

    def check(self, outputs):
        for i, (op, out) in enumerate(outputs):
            info = op.info
            family, steps, spinor = info["family"], info["steps"], info["spinor"]
            label = op.label
            q = self._confinement_q(info["coins"])
            if family == "confined":
                require(out.leaked_probability == 0.0, f"{label}: leaked {out.leaked_probability!r}")
                require(out.predicted_interval == (-q, q), f"{label}: interval {out.predicted_interval}")
                lo, hi = out.observed_support
                require(-q <= lo <= hi <= q and out.steps == steps, f"{label}: support {out.observed_support}")
            elif family == "recurrence":
                require(len(out) == steps + 1, f"{label}: {len(out)} points")
                odd = [v for t, v in out if t % 2 == 1]
                require(all(v == 0.0 for v in odd), f"{label}: origin probability not 0.0 at an odd time")
            elif family != "spread":
                require(out.step_count == steps, f"{label}: step count {out.step_count}")
                refcheck.check_parity(label, out.offset, out.amplitudes, steps)
                if q is not None:
                    refcheck.check_confined(label, out.offset, out.amplitudes, q)
                if family == "half":
                    refcheck.check_ballistic(label, out.offset, out.amplitudes, spinor, steps)
            if i not in self.reference or family == "half":
                continue
            walk, q = self._reference(info)
            if family == "recurrence":
                refcheck.check_recurrence(label, out, walk, steps)
            elif family == "spread":
                refcheck.check_spread(label, out, walk, info["checkpoints"], 0.5)
            else:
                left, right = refcheck.final_state(walk)
                if q is not None:
                    radius = (len(left) - 1) // 2
                    refcheck.check_confined(f"{label} reference", -radius, np.stack([left, right], 1), q)
                if family == "confined":
                    ref_support = refcheck.support_of(left, right)
                    require(out.observed_support == ref_support, f"{label}: support {out.observed_support}, reference {ref_support}")
                else:
                    refcheck.check_state(label, out.offset, out.amplitudes, left, right, steps)


# -------------------------------------------------------------------- certify


class Certify(Workload):
    """In-process `iqwalk` commands: properties and duality-check on one
    seeded quarter fraction per q in [q_lo, q_hi], and approximate for the
    named constants.  Commands run in a seeded order.
    """

    name = "certify"

    def __init__(self, seed: int, size: str, workdir: str):
        super().__init__(seed, size, workdir)
        plans = []
        for q in range(self.size["q_lo"], self.size["q_hi"] + 1):
            p = _coprime(self.rng, 4 * q, odd=True)
            plans.append(("properties", f"{p}/{4 * q}", {"p": p, "q": q}))
            plans.append(("duality-check", f"{p}/{4 * q}", {"p": p, "q": q}))
        for name in self.size["constants"]:
            plans.append(("approximate", name, {"constant": name, "count": self.size["count"]}))
        self.rng.shuffle(plans)
        for i, (command, alpha, info) in enumerate(plans):
            path = os.path.join(workdir, f"{i:02d}-{command}.json")
            argv = [command, "--alpha", alpha, "--output", path]
            if command == "approximate":
                argv += ["--count", str(info["count"])]
            info = dict(info, command=command, alpha=alpha, path=path)
            self.ops.append(
                Op(
                    " ".join(argv[:3]),
                    lambda argv=argv: _run_cli(argv),
                    collect=lambda code, path=path: (code, _read(path)),
                    failed=lambda code: code != 0,
                    info=info,
                )
            )

    def fingerprint(self, op, out):
        return out

    def check(self, outputs):
        for op, (code, data) in outputs:
            info = op.info
            require(code == 0, f"{op.label}: exit code {code}")
            doc = json.loads(data)
            meta = doc["meta"]
            require(
                meta["command"] == info["command"] and meta["alpha"] == info["alpha"],
                f"{op.label}: metadata {meta}",
            )
            if info["command"] == "properties":
                refcheck.check_properties(op.label, doc, info["p"], info["q"])
            elif info["command"] == "duality-check":
                refcheck.check_duality(op.label, doc, info["p"], info["q"])
            else:
                refcheck.check_approximants(op.label, doc, info["constant"], info["count"])


def _run_cli(argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return iqwalk.cli.main(argv)


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


WORKLOADS = {w.name: w for w in (Butterfly, Walk, Certify)}
