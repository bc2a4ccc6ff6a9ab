"""Command-line interface.

Eight subcommands: evolve, spectrum, butterfly, approximate,
duality-check, properties, recurrence, spread.  Outputs are written
atomically (temp file + rename) and are byte-identical for identical
configurations: no timestamps, floats rendered with repr, JSON keys
sorted.  Every file starts with a metadata block recording the alpha
argument as typed, the seed, and the tool version.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 property
violation.  One-line reasons go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import locale
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import __version__
from .analysis import recurrence_series, spread_exponent
from .coins import CoinSchedule, RandomSchedule, RotationalSchedule
from .diophantine import DEFAULT_Q_MAX, quarter_approximants
from .duality import verify_duality
from .errors import IQWalkError, NumericalDriftError, RationalInputError, UsageError
from .exact_trig import TRIG_Q_MAX, QuarterFraction
from .precision import NAMED_CONSTANTS, RealEnclosure
from .spectral import butterfly, property_report, spectrum
from .walk import DEFAULT_SPINOR, distribution, evolve, initial_state

__all__ = ["RunConfig", "parse_args", "execute", "main"]

OUTPUT_DIR_ENV = "IQWALK_OUTPUT_DIR"
NAMED_DIGITS = 40
DUALITY_GATE = 1e-12

_USAGE_EXIT = 1
_NUMERICAL_EXIT = 2
_VIOLATION_EXIT = 3


# the --alpha forms other than the named constants, matched with re.ASCII;
# a decimal's groups are its integer digits, fraction digits and exponent
_FRACTION = r"[+-]?\d+/[+-]?\d+"
_DECIMAL = r"[+-]?(?=\.?\d)(\d*)(?:\.(\d*))?(?:[eE]([+-]?\d+))?"
# the largest decimal exponent read.  Fraction(text) builds 10**exponent, at
# a cost that grows with it; the cap is the 4300 digits int() reads from
# text by default, the bound a literal's own digits are held to
_EXPONENT_MAX = 4300


@dataclass(frozen=True)
class ParsedAlpha:
    """One --alpha value in every representation a command may need."""

    source_text: str
    quarter: QuarterFraction | None
    walk_value: object  # QuarterFraction | Fraction | RealEnclosure
    enclosure: RealEnclosure


def parse_alpha(text: str) -> ParsedAlpha:
    """Parse an --alpha value: p/(4q) fraction, decimal, or named constant.

    Fractions whose literal denominator is a multiple of 4 must have an
    odd, coprime numerator (the quarter-fraction family); other
    fractions are general rationals.  Decimals are exact rationals for
    walk commands but +-1 unit in the last place for approximation.  A
    rational whose reduced denominator exceeds TRIG_Q_MAX is rejected:
    every coin angle modulus is at most that denominator, so up to it
    exact trig evaluates them all.  A decimal exponent above
    _EXPONENT_MAX is rejected.  Only ASCII digits are read: int() and
    Fraction() would also take other scripts' digits and underscores.
    """
    text = text.strip()
    if text in NAMED_CONSTANTS:
        enc = NAMED_CONSTANTS[text](NAMED_DIGITS)
        return ParsedAlpha(text, None, enc, enc)
    if "/" in text:
        try:
            if not re.fullmatch(_FRACTION, text, re.ASCII):
                raise ValueError(text)
            num_text, _, den_text = text.partition("/")
            num, den = int(num_text), int(den_text)
        except ValueError:
            raise UsageError(f"malformed fraction {text!r}") from None
        if den <= 0 or num <= 0:
            raise UsageError(f"alpha must be a positive fraction, got {text!r}")
        _check_denominator(text, Fraction(num, den))
        if den % 4 == 0:
            try:
                f = QuarterFraction(num, den // 4)
            except ValueError as exc:
                raise UsageError(f"alpha {text!r}: {exc}") from None
            return ParsedAlpha(
                text, f, f, RealEnclosure.from_fraction(f.alpha, text)
            )
        value = Fraction(num, den)
        return ParsedAlpha(text, None, value, RealEnclosure.from_fraction(value, text))
    try:
        match = re.fullmatch(_DECIMAL, text, re.ASCII)
        if not match:
            raise ValueError(text)
        whole, places, exponent = match.groups("")
        _check_decimal(text, whole + places, len(places), int(exponent or 0))
        value = Fraction(text)
    except ValueError:
        raise UsageError(
            f"cannot parse alpha {text!r}; expected p/(4q), a decimal, "
            f"or one of {sorted(NAMED_CONSTANTS)}"
        ) from None
    _check_denominator(text, value)
    return ParsedAlpha(
        text, None, value, RealEnclosure.from_decimal(text, uncertainty_last_place=1)
    )


def _check_denominator(text: str, value: Fraction) -> None:
    if value.denominator > TRIG_Q_MAX:
        raise _denominator_error(text)


def _denominator_error(text: str) -> UsageError:
    return UsageError(
        f"alpha {text!r} has a denominator above 2**1022, beyond double-precision coin angles"
    )


def _check_decimal(text: str, digits: str, places: int, exponent: int) -> None:
    """Reject the decimal +-int(digits) * 10**(exponent - places) if it is not
    positive or its exponent is out of reach, before Fraction(text) builds
    the power.

    int(digits) < 10**s, with s its significant digits, so it shares less
    than 10**s with 10**(places - exponent): the reduced denominator is
    above 10**(places - exponent - s), which from 10**308 exceeds 2**1022.
    """
    significant = len(digits.lstrip("0"))
    if not significant or text.startswith("-"):
        raise UsageError(f"alpha must be positive, got {text!r}")
    if exponent > _EXPONENT_MAX:
        raise UsageError(f"alpha {text!r} has a decimal exponent above {_EXPONENT_MAX}")
    if places - exponent - significant >= 308:
        raise _denominator_error(text)


@dataclass(frozen=True)
class RunConfig:
    """Fully validated invocation; identical configs give identical bytes."""

    command: str
    alpha: ParsedAlpha | None
    steps: int
    q_max: int
    theta: float
    count: int
    seed: int | None
    coins: str
    initial: tuple[complex, complex]
    output: str
    format: str


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse exits 2; here 2 means numerical failure
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


class _Command(NamedTuple):
    """One subcommand: the parser, parse_args and execute all read this."""

    help: str
    format: str  # of the output file: "csv" or "json"
    run: Callable[[RunConfig], tuple[str, int]]
    # None: no --alpha; "walk": any alpha, walked exactly, with the _WALK
    # options; "real": any alpha; "quarter": p/(4q)
    alpha: str | None = None
    double: bool = False  # the output holds alpha as a JSON float: its midpoint must fit a double
    options: tuple[str, ...] = ("output",)  # _OPTIONS after --alpha and _WALK, in order
    q_max: int = 0  # the --q-max default; 0 without --q-max


_WALK = ("steps", "coins", "seed", "initial")

# flags and keywords of each option but --alpha; only --steps states a
# default, as a command without --steps reads 0 (see _build_parser)
_OPTIONS = {
    "steps": (("--steps",), {"type": int, "default": 1000}),
    "coins": (("--coins",), {"choices": ("rotational", "random"),
                             "help": "coin family; random draws Haar coins keyed by --seed"}),
    "seed": (("--seed",), {"type": int}),
    "initial": (("--initial",), {"nargs": 2, "metavar": ("LEFT", "RIGHT"),
                                 "help": "initial chirality spinor, e.g. --initial 0.6 0.8j"}),
    "q_max": (("--qmax", "--q-max"), {"dest": "q_max", "type": int}),
    "output": (("--output",), {"help": "output path"}),
    "count": (("--count",), {"type": int}),
    "theta": (("--theta",), {"type": float}),
}


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parse_args keeps no state between calls
    parser = _Parser(prog="iqwalk", allow_abbrev=False, description=__doc__)
    parser.add_argument("--version", action="version", version=f"iqwalk {__version__}")
    # each option's value when a command lacks it or it is not given: the
    # subparsers' SUPPRESS keeps an option not given out of the namespace
    parser.set_defaults(alpha=None, steps=0, coins="rotational", seed=None, initial=None,
                        output=None, count=3, theta=0.5)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True
    for name, command in _COMMANDS.items():
        s = sub.add_parser(name, help=command.help, allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        if command.alpha:
            s.add_argument("--alpha", required=True, help="p/(4q), decimal, pi/2, golden")
        for option in (_WALK if command.alpha == "walk" else ()) + command.options:
            flags, keywords = _OPTIONS[option]
            s.add_argument(*flags, **keywords)
        s.set_defaults(q_max=command.q_max)
    return parser


def _parse_spinor(raw: Sequence[str] | None) -> tuple[complex, complex]:
    if raw is None:
        return DEFAULT_SPINOR
    try:
        left, right = (complex(part) for part in raw)
        initial_state((left, right))
    except ValueError as exc:
        raise UsageError(f"initial spinor {raw!r}: {exc}") from None
    return left, right


def parse_args(argv: Sequence[str]) -> RunConfig:
    """Strictly validate argv into a RunConfig; raises UsageError."""
    ns = _build_parser().parse_args(list(argv))
    command = _COMMANDS[ns.command]
    alpha = parse_alpha(ns.alpha) if command.alpha else None
    if ns.coins == "random" and ns.seed is None:
        raise UsageError("--coins random requires --seed")
    if ns.steps < 0:
        raise UsageError(f"--steps must be non-negative, got {ns.steps}")
    if command.q_max and ns.q_max < 1:
        raise UsageError(f"--q-max must be positive, got {ns.q_max}")
    if ns.count < 1:
        raise UsageError(f"--count must be positive, got {ns.count}")
    if command.double:
        try:
            float(alpha.enclosure.midpoint)
        except OverflowError:
            raise UsageError(f"alpha {alpha.source_text!r} is beyond double range") from None
    if not math.isfinite(ns.theta):
        raise UsageError(f"--theta must be finite, got {ns.theta!r}")
    if command.alpha == "quarter" and alpha.quarter is None:
        raise UsageError(
            f"{ns.command} requires a quarter fraction p/(4q), got {alpha.source_text!r}"
        )
    output = ns.output
    if output is None:
        base = os.environ.get(OUTPUT_DIR_ENV, ".")
        output = os.path.join(base, f"{ns.command}.{command.format}")
    return RunConfig(
        command=ns.command,
        alpha=alpha,
        steps=ns.steps,
        q_max=ns.q_max,
        theta=ns.theta,
        count=ns.count,
        seed=ns.seed,
        coins=ns.coins,
        initial=_parse_spinor(ns.initial),
        output=output,
        format=command.format,
    )


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # the bytes a text-mode file would hold
    data = memoryview(text.encode(locale.getpreferredencoding(False)))
    # created with mode 0o666 so that the umask applies (mkstemp forces 0o600)
    for _ in range(tempfile.TMP_MAX):
        tmp = os.path.join(directory, f".iqwalk-tmp-{os.urandom(6).hex()}")
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:
            continue
    else:
        raise FileExistsError(f"no free temporary name in {directory}")
    try:
        try:
            while data:
                data = data[os.write(fd, data) :]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _meta(config: RunConfig) -> dict:
    return {
        "tool": f"iqwalk {__version__}",
        "command": config.command,
        "alpha": config.alpha.source_text if config.alpha else None,
        "seed": config.seed,
    }


def _csv_text(config: RunConfig, header: Sequence[str], rows) -> str:
    lines = [f"# {key}: {value}" for key, value in sorted(_meta(config).items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _json_text(config: RunConfig, payload: dict) -> str:
    body = {"meta": _meta(config), **payload}
    try:
        return json.dumps(body, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # NaN or infinity, which JSON cannot hold
        raise NumericalDriftError(f"{config.command} result is not finite: {exc}") from None


def _schedule(config: RunConfig) -> CoinSchedule:
    if config.coins == "random":
        return RandomSchedule(config.seed)
    return RotationalSchedule(config.alpha.walk_value)


def _run_evolve(config: RunConfig) -> tuple[str, int]:
    state = evolve(config.initial, _schedule(config), config.steps)
    rows = [
        (site, probs[0], probs[1], probs[2])
        for site, probs in distribution(state).items()
    ]
    return _csv_text(config, ("n", "prob_L", "prob_R", "prob"), rows), 0


def _run_spectrum(config: RunConfig) -> tuple[str, int]:
    spec = spectrum(config.alpha.quarter, "CW")
    payload = {
        "p": spec.p,
        "q": spec.q,
        "alpha": float(config.alpha.quarter.alpha),
        "eigenvalues": [
            {"re": float(v.real), "im": float(v.imag), "arg": float(a)}
            for v, a in zip(spec.eigenvalues, spec.args)
        ],
    }
    return _json_text(config, payload), 0


def _run_butterfly(config: RunConfig) -> tuple[str, int]:
    def rows():
        for spec in butterfly(config.q_max):
            alpha = float(spec.alpha)
            for arg in spec.args:
                yield (alpha, spec.p, spec.q, float(arg))

    return _csv_text(config, ("alpha", "p", "q", "arg"), rows()), 0


def _run_approximate(config: RunConfig) -> tuple[str, int]:
    found = quarter_approximants(
        config.alpha.enclosure, count=config.count, q_max=config.q_max
    )
    payload = {
        "approximants": [
            {
                "p": a.fraction.p,
                "q": a.fraction.q,
                "value": float(a.fraction.alpha),
                "certified": a.certified,
                "error": abs(
                    float(config.alpha.enclosure.midpoint - a.fraction.alpha)
                ),
            }
            for a in found
        ]
    }
    return _json_text(config, payload), 0


def _run_duality_check(config: RunConfig) -> tuple[str, int]:
    residuals = verify_duality(config.alpha.quarter)
    passed = residuals.max() <= DUALITY_GATE
    payload = {
        "p": config.alpha.quarter.p,
        "q": config.alpha.quarter.q,
        "shift_as_coin": residuals.shift_as_coin,
        "coin_as_shift": residuals.coin_as_shift,
        "tolerance": DUALITY_GATE,
        "passed": passed,
    }
    return _json_text(config, payload), 0 if passed else _VIOLATION_EXIT


def _run_properties(config: RunConfig) -> tuple[str, int]:
    report = property_report(config.alpha.quarter)
    checks = {
        "alpha_reflection": report.alpha_reflection,
        "conjugation": report.conjugation,
        "negation": report.negation,
        "simplicity": report.simplicity,
        "quartet": report.quartet,
    }
    payload = {
        "p": report.p,
        "q": report.q,
        "args": [float(a) for a in report.spectrum.args],
        "checks": {
            name: {"passed": check.passed, "residual": check.residual}
            for name, check in checks.items()
        },
        "det_ok": report.det_ok,
        "det_residual": report.det_residual,
        "simple_gap": report.simple_gap,
        "gap_lower_bound": report.gap_lower_bound,
        "gauge_residual": report.gauge_residual,
        "all_passed": report.all_passed(),
    }
    return _json_text(config, payload), 0 if report.all_passed() else _VIOLATION_EXIT


def _run_recurrence(config: RunConfig) -> tuple[str, int]:
    series = recurrence_series(_schedule(config), config.steps, config.initial)
    return _csv_text(config, ("t", "prob_origin"), series), 0


def _run_spread(config: RunConfig) -> tuple[str, int]:
    if config.steps < 8:
        raise UsageError("spread needs --steps of at least 8")
    checkpoints = sorted({max(1, config.steps * k // 8) for k in range(1, 9)})
    estimate = spread_exponent(
        _schedule(config), checkpoints, config.initial, theta=config.theta
    )
    fit = estimate.fitted_exponent  # NaN, undefined, when sigma stays 0
    payload = {
        "times": list(estimate.times),
        "sigmas": list(estimate.sigmas),
        "fitted_exponent": None if math.isnan(fit) else fit,
        "theta": estimate.theta,
        "scaled_tail": list(estimate.scaled_tail),
    }
    return _json_text(config, payload), 0


_COMMANDS = {
    "evolve": _Command("evolve a walker and write its distribution", "csv", _run_evolve, "walk"),
    "spectrum": _Command("eigenvalues of the finite walk operator", "json", _run_spectrum,
                         "quarter", double=True),
    "butterfly": _Command("spectra for every quarter fraction up to q-max", "csv", _run_butterfly,
                          options=("q_max", "output"), q_max=50),
    "approximate": _Command("certified quarter-fraction approximants", "json", _run_approximate,
                            "real", options=("output", "count", "q_max"), q_max=DEFAULT_Q_MAX,
                            double=True),
    "duality-check": _Command("role-swap residuals on the ring", "json", _run_duality_check,
                              "quarter"),
    "properties": _Command("spectral property report", "json", _run_properties, "quarter"),
    "recurrence": _Command("origin probability over time", "csv", _run_recurrence, "walk"),
    "spread": _Command("spread growth and fitted exponent", "json", _run_spread, "walk",
                       options=("output", "theta")),
}


def execute(config: RunConfig) -> int:
    """Run one validated command; writes its output file atomically."""
    text, code = _COMMANDS[config.command].run(config)
    _atomic_write(config.output, text)
    print(config.output)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        return execute(parse_args(argv))
    except (UsageError, RationalInputError) as exc:
        code, reason = _USAGE_EXIT, exc
    except IQWalkError as exc:
        code, reason = _NUMERICAL_EXIT, f"numerical failure: {exc}"
    except OSError as exc:
        code, reason = _USAGE_EXIT, f"cannot write output: {exc}"
    print(f"iqwalk: {reason}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
