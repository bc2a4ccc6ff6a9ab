import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import iqwalk.cli as cli
import iqwalk.spectral as spectral
from iqwalk import (
    ConvergenceError,
    DualityResiduals,
    IQWalkError,
    QuarterFraction,
    RandomSchedule,
    RationalInputError,
    RealEnclosure,
    UsageError,
    distribution,
    initial_state,
    spectrum,
)
from iqwalk.cli import RunConfig, main, parse_alpha, parse_args
from oracles import extend_copy_schedule, planted_reflection_fault, step_loop


@pytest.fixture(autouse=True)
def _output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    return tmp_path


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseAlpha:
    def test_quarter_fraction(self):
        parsed = parse_alpha("1/12")
        assert parsed.quarter == QuarterFraction(1, 3)
        assert parsed.walk_value == QuarterFraction(1, 3)
        assert parsed.enclosure.is_point

    def test_general_fraction(self):
        parsed = parse_alpha("1/6")
        assert parsed.quarter is None
        assert parsed.walk_value == Fraction(1, 6)

    def test_named_constant(self):
        parsed = parse_alpha("pi/2")
        assert parsed.quarter is None
        assert isinstance(parsed.walk_value, RealEnclosure)
        assert parsed.enclosure.certified_digits >= 40

    def test_decimal_gets_an_uncertain_enclosure(self):
        parsed = parse_alpha("0.61803398874989484820458683436563811772")
        assert parsed.walk_value == Fraction(
            61803398874989484820458683436563811772, 10**38
        )
        assert not parsed.enclosure.is_point

    @pytest.mark.parametrize(
        "text,message",
        [
            ("2/12", "odd"),
            ("3/24", "coprime"),
            ("0/4", "positive"),
            ("-1/4", "positive"),
            ("1/0", "positive"),
            ("x/y", "malformed"),
            ("abc", "cannot parse"),
            ("-0.25", "positive"),
        ],
    )
    def test_rejections(self, text, message):
        with pytest.raises(UsageError, match=message):
            parse_alpha(text)

    # 0.001e-305 is 10**-308, past the digit-count test (3 + 305 - 1 < 308)
    @pytest.mark.parametrize(
        "text", ["1e-400", "1e-308", f"1/{4 * 10**320}", f"3/{10**310}", "0.001e-305"]
    )
    def test_rejects_a_denominator_beyond_double_trig(self, text):
        with pytest.raises(UsageError, match=r"denominator above 2\*\*1022"):
            parse_alpha(text)

    def test_largest_denominator_is_accepted(self):
        assert parse_alpha(f"1/{2**1022}").walk_value == QuarterFraction(1, 2**1020)
        assert parse_alpha("1e-300").walk_value == Fraction(1, 10**300)

    # forms that int() or Fraction() read: other scripts' digits, underscores,
    # whitespace around the slash
    REJECTED_FORMS = [
        "\u0663/\u0662\u0660",  # Arabic-Indic 3/20
        "\uff13/\uff12\uff10",  # fullwidth 3/20
        "\uff11/\uff11\uff12",  # fullwidth 1/12
        "1_1/4_0",
        "3 / 20",
        "3 /20",
        "3/ 20",
        "\u0660.\u0662\u0665",  # Arabic-Indic 0.25
        "0.2_5",
        "1_0e-1",
        "1e1_0",
        "\uff10.\uff12\uff15",  # fullwidth 0.25
    ]

    @pytest.mark.parametrize("text", REJECTED_FORMS)
    def test_only_ascii_digits_are_read(self, text, capsys, _output_dir):
        with pytest.raises(UsageError, match="malformed fraction|cannot parse alpha"):
            parse_alpha(text)
        code, out, err = run(["properties", "--alpha", text], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("iqwalk: ") and err.count("\n") == 1
        assert list(_output_dir.iterdir()) == []

    @pytest.mark.parametrize(
        "text,value",
        [
            ("1/12", Fraction(1, 12)),
            (" 3/20 ", Fraction(3, 20)),
            ("+3/20", Fraction(3, 20)),
            ("3/+20", Fraction(3, 20)),
            ("0003/020", Fraction(3, 20)),
            (f"1/{2**1022}", Fraction(1, 2**1022)),
            ("1/6", Fraction(1, 6)),
            ("0.25", Fraction(1, 4)),
            ("+.25", Fraction(1, 4)),
            ("25e-2", Fraction(1, 4)),
            ("2.5E-1", Fraction(1, 4)),
            ("5.", Fraction(5)),
            ("1e-300", Fraction(1, 10**300)),
            ("1.7976931348623157e308", Fraction(17976931348623157 * 10**292)),
            ("0.6180339887498948482045868343656381177203091798",
             Fraction(6180339887498948482045868343656381177203091798, 10**46)),
            ("1e4300", Fraction(10**4300)),  # the largest exponent read
            ("1000e-310", Fraction(1, 10**307)),  # 4 significant digits: 0 + 310 - 4 < 308
        ],
    )
    def test_ascii_forms_still_parse(self, text, value):
        parsed = parse_alpha(text)
        assert parsed.enclosure.midpoint == value
        assert parsed.source_text == text.strip()

    @pytest.mark.parametrize(
        "text,message",
        [
            # the denominator is known above 2**1022 from the digit counts alone
            ("1e-1000000000", r"denominator above 2\*\*1022"),
            ("0.5e-999999999", r"denominator above 2\*\*1022"),
            ("1e4301", "decimal exponent above 4300"),
            ("2.5e300000", "decimal exponent above 4300"),
            ("-1e-999999999", "positive"),
            ("0e-999999999", "positive"),
            ("-1e999999999", "positive"),
        ],
    )
    def test_exponent_is_bounded_before_the_power_is_built(self, text, message, monkeypatch):
        def explode(*_):
            raise AssertionError("Fraction(text) ran")

        monkeypatch.setattr(cli, "Fraction", explode)
        with pytest.raises(UsageError, match=message):
            parse_alpha(text)


class TestParseArgs:
    def test_evolve_defaults(self, tmp_path):
        config = parse_args(["evolve", "--alpha", "1/12"])
        assert config.command == "evolve"
        assert config.alpha.quarter == QuarterFraction(1, 3)
        assert config.steps == 1000
        assert config.coins == "rotational"
        assert config.seed is None
        assert config.format == "csv"
        assert config.output == os.path.join(str(tmp_path), "evolve.csv")
        left, right = config.initial
        assert abs(left - 1 / math.sqrt(2)) < 1e-15
        assert abs(right - 1 / math.sqrt(2)) < 1e-15

    def test_butterfly_qmax_spellings(self):
        assert parse_args(["butterfly", "--qmax", "50"]).q_max == 50
        assert parse_args(["butterfly", "--q-max", "7"]).q_max == 7
        assert parse_args(["butterfly"]).q_max == 50

    def test_approximate_defaults(self):
        config = parse_args(["approximate", "--alpha", "pi/2"])
        assert (config.count, config.q_max) == (3, 100_000)

    def test_spread_theta(self):
        config = parse_args(["spread", "--alpha", "1/6", "--theta", "0.1"])
        assert config.theta == 0.1

    def test_explicit_output_and_initial(self, tmp_path):
        config = parse_args(
            [
                "evolve",
                "--alpha",
                "1/4",
                "--initial",
                "0.6",
                "0.8j",
                "--output",
                str(tmp_path / "out.csv"),
            ]
        )
        assert config.initial == (0.6 + 0j, 0.8j)
        assert config.output == str(tmp_path / "out.csv")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["evolve"], "--alpha"),
            (["evolve", "--alpha", "1/4", "--bogus"], "unrecognized"),
            (["evolve", "--alpha", "1/4", "--format", "json"], "unrecognized"),
            (["spectrum", "--alpha", "1/6"], "quarter fraction"),
            (["duality-check", "--alpha", "golden"], "quarter fraction"),
            (["properties", "--alpha", "0.33"], "quarter fraction"),
            (["evolve", "--alpha", "1/4", "--coins", "random"], "--seed"),
            (["evolve", "--alpha", "1/4", "--steps", "-3"], "non-negative"),
            (["butterfly", "--qmax", "0"], "positive"),
            (["approximate", "--alpha", "pi/2", "--count", "0"], "positive"),
            (["evolve", "--alpha", "1/4", "--initial", "1", "1"], "unit norm"),
            (["evolve", "--alpha", "1/4", "--initial", "x", "y"], "spinor"),
            (["frobnicate"], "invalid choice"),
            (["approximate", "--alpha", "1e400"], "beyond double range"),
            (["approximate", "--alpha", "1.8e308"], "beyond double range"),
            (["evolve", "--alpha", ""], "cannot parse alpha ''"),
            (["spectrum", "--alpha", f"{10**400 + 1}/4"], "beyond double range"),
            (["evolve", "--alpha", "1e4301"], "exponent above 4300"),
        ],
    )
    def test_usage_errors(self, argv, message):
        with pytest.raises(UsageError, match=message):
            parse_args(argv)

    def test_version_and_help_exit_zero(self, capsys):
        for flag in ("--version", "--help"):
            with pytest.raises(SystemExit) as info:
                parse_args([flag])
            assert info.value.code == 0
        out = capsys.readouterr().out
        assert "iqwalk" in out


class TestEvolveCommand:
    def test_confined_run(self, tmp_path, capsys):
        code, out, err = run(
            ["evolve", "--alpha", "1/12", "--steps", "1000"], capsys
        )
        assert (code, err) == (0, "")
        path = out.strip()
        assert path == str(tmp_path / "evolve.csv")
        lines = open(path).read().splitlines()
        meta = [line for line in lines if line.startswith("# ")]
        assert "# alpha: 1/12" in meta
        assert "# command: evolve" in meta
        header_at = len(meta)
        assert lines[header_at] == "n,prob_L,prob_R,prob"
        total = 0.0
        for line in lines[header_at + 1 :]:
            n, p_left, p_right, p = line.split(",")
            assert abs(int(n)) <= 3
            assert (int(n) + 1000) % 2 == 0
            assert float(p) == float(p_left) + float(p_right)
            total += float(p)
        assert abs(total - 1.0) <= 1e-12

    def test_byte_identical_reruns(self, tmp_path, capsys):
        argv = ["evolve", "--alpha", "3/20", "--steps", "500"]
        assert main(argv + ["--output", str(tmp_path / "a.csv")]) == 0
        assert main(argv + ["--output", str(tmp_path / "b.csv")]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_random_coins(self, tmp_path, capsys):
        code, out, _ = run(
            ["evolve", "--alpha", "1/4", "--coins", "random", "--seed", "7",
             "--steps", "40"],
            capsys,
        )
        assert code == 0
        lines = open(out.strip()).read().splitlines()
        assert "# seed: 7" in lines

    def test_random_coins_match_the_per_site_reference(self, tmp_path, capsys):
        # the README example: batch-filled Haar coins against per-site haar_coin
        argv = ["evolve", "--alpha", "1/4", "--coins", "random", "--seed", "7", "--steps", "300"]
        assert main(argv + ["--output", str(tmp_path / "haar.csv")]) == 0
        capsys.readouterr()
        config = parse_args(argv)
        cache = extend_copy_schedule(RandomSchedule(7))
        state = initial_state(config.initial)
        for _ in range(300):
            state = step_loop(state, cache)
        rows = [(n, *probs) for n, probs in distribution(state).items()]
        expect = cli._csv_text(config, ("n", "prob_L", "prob_R", "prob"), rows)
        assert (tmp_path / "haar.csv").read_bytes() == expect.encode()

    def test_creates_nested_directories(self, tmp_path, capsys):
        target = tmp_path / "deep" / "er" / "run.csv"
        code, _, _ = run(
            ["evolve", "--alpha", "1/4", "--steps", "5", "--output", str(target)],
            capsys,
        )
        assert code == 0
        assert target.exists()

    def test_output_collides_with_directory(self, tmp_path, capsys):
        (tmp_path / "evolve.csv").mkdir()
        code, _, err = run(["evolve", "--alpha", "1/4", "--steps", "5"], capsys)
        assert code == 1
        assert "cannot write output" in err


class TestOutputFile:
    @pytest.mark.parametrize("mask", [0o022, 0o077])
    def test_mode_follows_the_umask(self, tmp_path, capsys, mask):
        old = os.umask(mask)
        try:
            code, out, _ = run(["evolve", "--alpha", "1/4", "--steps", "5"], capsys)
        finally:
            os.umask(old)
        assert code == 0
        assert os.stat(out.strip()).st_mode & 0o777 == 0o666 & ~mask
        assert [p.name for p in tmp_path.iterdir()] == ["evolve.csv"]

    def test_taken_temporary_name_is_retried(self, tmp_path, capsys, monkeypatch):
        taken = tmp_path / f".iqwalk-tmp-{bytes(6).hex()}"
        taken.write_text("someone else's")
        names = iter([bytes(6), bytes(6), b"\x01" * 6])
        monkeypatch.setattr(os, "urandom", lambda n: next(names))
        code, out, _ = run(["evolve", "--alpha", "1/4", "--steps", "5"], capsys)
        assert code == 0
        assert taken.read_text() == "someone else's"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["evolve.csv", taken.name])

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path, capsys):
        (tmp_path / "evolve.csv").mkdir()
        code, _, err = run(["evolve", "--alpha", "1/4", "--steps", "5"], capsys)
        assert code == 1
        assert "cannot write output" in err
        assert [p.name for p in tmp_path.iterdir()] == ["evolve.csv"]


class TestSpectrumCommand:
    def test_q1_payload(self, capsys):
        code, out, _ = run(["spectrum", "--alpha", "1/4"], capsys)
        assert code == 0
        payload = json.loads(open(out.strip()).read())
        assert (payload["p"], payload["q"], payload["alpha"]) == (1, 1, 0.25)
        args = [e["arg"] for e in payload["eigenvalues"]]
        assert np.allclose(args, [-np.pi / 2, 0.0, np.pi / 2, np.pi], atol=1e-9)
        for entry in payload["eigenvalues"]:
            assert entry["re"] ** 2 + entry["im"] ** 2 == pytest.approx(1.0)
        assert payload["meta"]["tool"].startswith("iqwalk ")

    def test_alpha_beyond_double_range_exits_one(self, capsys, _output_dir):
        # an odd numerator of 401 digits over 4: a quarter fraction whose
        # alpha the payload cannot hold as a float
        alpha = f"{10**400 + 1}/4"
        code, out, err = run(["spectrum", "--alpha", alpha], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("iqwalk: ") and err.count("\n") == 1
        assert "beyond double range" in err and "Traceback" not in err
        assert list(_output_dir.iterdir()) == []
        # the commands that write no float alpha still run on it
        for command in ("properties", "duality-check"):
            code, out, err = run([command, "--alpha", alpha], capsys)
            assert (code, err) == (0, ""), command
            assert json.loads(open(out.strip()).read())["p"] == 10**400 + 1


class TestButterflyCommand:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run(["butterfly", "--qmax", "2"], capsys)
        assert code == 0
        lines = open(out.strip()).read().splitlines()
        data = [line for line in lines if not line.startswith("#")]
        assert data[0] == "alpha,p,q,arg"
        # q=1 contributes 2 fractions x 4 eigenvalues, q=2 contributes 4 x 8
        assert len(data) - 1 == 40
        first = data[1].split(",")
        assert (first[0], first[1], first[2]) == ("0.25", "1", "1")


class TestApproximateCommand:
    def test_half_pi(self, capsys):
        code, out, _ = run(["approximate", "--alpha", "pi/2"], capsys)
        assert code == 0
        payload = json.loads(open(out.strip()).read())
        triples = [(a["p"], a["q"]) for a in payload["approximants"]]
        assert triples == [(7, 1), (13, 2), (19, 3)]
        for a in payload["approximants"]:
            assert a["certified"] is True
            assert a["error"] < 1.0 / (4 * a["q"] ** 2)

    def test_decimal_input(self, capsys):
        code, out, _ = run(
            [
                "approximate",
                "--alpha",
                "0.61803398874989484820458683436563811772",
                "--count",
                "2",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(open(out.strip()).read())
        assert [(a["p"], a["q"]) for a in payload["approximants"]] == [(3, 1), (5, 2)]

    def test_rational_alpha_is_a_usage_error(self, capsys):
        code, _, err = run(["approximate", "--alpha", "1/12"], capsys)
        assert code == 1
        assert "rational" in err

    @pytest.mark.parametrize(
        "alpha,code,reason",
        [
            ("1e400", 1, "beyond double range"),
            ("1e300", 2, "precision ran out"),
            ("1.7976931348623157e308", 2, "precision ran out"),
        ],
    )
    def test_huge_alpha_fails_with_one_line(self, capsys, alpha, code, reason):
        got, out, err = run(["approximate", "--alpha", alpha], capsys)
        assert (got, out) == (code, "")
        assert err.count("\n") == 1 and reason in err

    def test_alpha_near_double_max_runs_out_of_precision(self, capsys):
        # inside double range, but 4 * alpha * q overflows a float from q = 5;
        # the exact search finds no odd p within the 79 decidable q
        alpha = "1" + "0" * 307 + ".00000"
        code, out, err = run(["approximate", "--alpha", alpha], capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "stored precision ran out" in err
        assert "Traceback" not in err

    def test_integer_part_beyond_double_precision(self, capsys):
        digits = "6180339887498948482045868343656381177203091798"
        shift = 10**20
        pairs = []
        for alpha in (f"0.{digits}", f"{shift}.{digits}"):
            code, out, _ = run(["approximate", "--alpha", alpha, "--count", "4"], capsys)
            assert code == 0
            payload = json.loads(open(out.strip()).read())
            pairs.append([(a["p"], a["q"]) for a in payload["approximants"]])
        assert [q for _, q in pairs[0]] == [1, 2, 19, 36]
        assert pairs[1] == [(p + 4 * q * shift, q) for p, q in pairs[0]]

    def test_huge_alpha_still_walks(self, capsys):
        code, out, err = run(["evolve", "--alpha", "1e400", "--steps", "5"], capsys)
        assert (code, err) == (0, "")
        assert os.path.exists(out.strip())


def _reject_constant(name):
    raise AssertionError(f"output holds {name}, which is not JSON")


class TestDualityCommand:
    def test_pass(self, capsys):
        code, out, _ = run(["duality-check", "--alpha", "3/20"], capsys)
        assert code == 0
        payload = json.loads(open(out.strip()).read())
        assert payload["passed"] is True
        assert payload["shift_as_coin"] <= 1e-12
        assert payload["coin_as_shift"] <= 1e-12

    def test_violation_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "verify_duality", lambda f: DualityResiduals(1e-3, 0.0)
        )
        code, out, _ = run(["duality-check", "--alpha", "1/4"], capsys)
        assert code == 3
        assert json.loads(open(out.strip()).read())["passed"] is False


    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_result_is_a_numerical_failure(self, capsys, monkeypatch, value):
        monkeypatch.setattr(
            cli, "verify_duality", lambda f: DualityResiduals(value, 0.0)
        )
        code, out, err = run(["duality-check", "--alpha", "1/4"], capsys)
        assert code == 2
        assert "not finite" in err
        assert out == ""


class TestPropertiesCommand:
    def test_q1_report(self, capsys):
        code, out, _ = run(["properties", "--alpha", "1/4"], capsys)
        assert code == 0
        payload = json.loads(open(out.strip()).read())
        assert payload["all_passed"] is True
        assert payload["gauge_residual"] == 0.0
        assert set(payload["checks"]) == {
            "alpha_reflection", "conjugation", "negation", "simplicity", "quartet",
        }
        for check in payload["checks"].values():
            assert check["passed"] is True
        assert np.allclose(
            payload["args"], [-np.pi / 2, 0.0, np.pi / 2, np.pi], atol=1e-9
        )

    def test_certified_doublet_passes(self, capsys):
        code, out, _ = run(["properties", "--alpha", "3/76"], capsys)
        assert code == 0
        payload = json.loads(open(out.strip()).read())
        assert payload["checks"]["simplicity"]["passed"] is True
        assert 0.0 < payload["gap_lower_bound"] <= payload["simple_gap"] < 1e-6

    def test_unresolved_doublet_is_a_violation(self, capsys):
        code, out, _ = run(["properties", "--alpha", "3/196"], capsys)
        assert code == 3
        payload = json.loads(open(out.strip()).read())
        assert payload["checks"]["simplicity"]["passed"] is False
        assert payload["all_passed"] is False
        assert payload["gap_lower_bound"] < 0.0 < payload["simple_gap"]

    def test_one_eigensolve_per_command(self, capsys, monkeypatch):
        # alpha's operator, solved as one stacked eig of its two q x q
        # reflection sectors; 1 - alpha is compared entry by entry, not solved
        real_eig = np.linalg.eig
        shapes = []

        def spy(m):
            shapes.append(m.shape)
            return real_eig(m)

        monkeypatch.setattr(np.linalg, "eig", spy)
        code, _, _ = run(["properties", "--alpha", "3/20"], capsys)
        assert code == 0
        assert shapes == [(2, 5, 5)]

    def test_one_operator_build_per_fraction(self, capsys, monkeypatch):
        # alpha's build serves its spectrum and the gauge residual; the other is 1 - alpha
        real_build = spectral._walk_operator
        built = []

        def spy(f, order):
            built.append((f, order))
            return real_build(f, order)

        monkeypatch.setattr(spectral, "_walk_operator", spy)
        code, out, _ = run(["properties", "--alpha", "3/20"], capsys)
        assert code == 0
        assert built == [(QuarterFraction(3, 5), "CW"), (QuarterFraction(17, 5), "CW")]
        assert json.loads(open(out.strip()).read())["gauge_residual"] == 0.0

    def test_planted_reflection_fault_is_a_violation(self, capsys, monkeypatch):
        f = QuarterFraction(3, 5)
        monkeypatch.setattr(
            spectral, "_walk_operator", planted_reflection_fault(spectral._walk_operator, f)
        )
        code, out, _ = run(["properties", "--alpha", "3/20"], capsys)
        assert code == 3
        payload = json.loads(open(out.strip()).read())
        assert payload["checks"]["alpha_reflection"]["passed"] is False
        assert payload["all_passed"] is False

    @pytest.mark.parametrize("p,q", [(1, 1), (3, 5), (3, 19)])
    def test_args_are_the_spectrum_args(self, capsys, p, q):
        code, out, _ = run(["properties", "--alpha", f"{p}/{4 * q}"], capsys)
        assert code == 0
        text = open(out.strip()).read()
        args = [float(a) for a in spectrum(QuarterFraction(p, q), "CW").args]
        expected = {**json.loads(text), "args": args}
        assert text == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_numerical_failure_exit_code(self, capsys, monkeypatch):
        def explode(f):
            raise ConvergenceError("synthetic solver failure")

        monkeypatch.setattr(cli, "property_report", explode)
        code, _, err = run(["properties", "--alpha", "1/4"], capsys)
        assert code == 2
        assert "numerical failure" in err

    @pytest.mark.parametrize(
        "error",
        sorted(set(IQWalkError.__subclasses__()) - {UsageError, RationalInputError}, key=str),
        ids=lambda error: error.__name__,
    )
    def test_every_package_error_exits_two(self, capsys, monkeypatch, error):
        # none of them may end in a traceback, LeakageError included
        def explode(f):
            raise error("synthetic failure")

        monkeypatch.setattr(cli, "property_report", explode)
        code, out, err = run(["properties", "--alpha", "1/4"], capsys)
        assert code == 2 and out == ""
        assert err == "iqwalk: numerical failure: synthetic failure\n"


class TestRecurrenceCommand:
    def test_odd_rows_are_exact_zeros(self, capsys):
        code, out, _ = run(
            ["recurrence", "--alpha", "pi/2", "--steps", "100"], capsys
        )
        assert code == 0
        lines = open(out.strip()).read().splitlines()
        data = [line for line in lines if not line.startswith("#")]
        assert data[0] == "t,prob_origin"
        assert len(data) - 1 == 101
        for line in data[1:]:
            t, prob = line.split(",")
            if int(t) % 2 == 1:
                assert prob == "0.0"


class TestSpreadCommand:
    def test_ballistic_fit(self, capsys):
        code, out, _ = run(
            ["spread", "--alpha", "1/6", "--steps", "400"], capsys
        )
        assert code == 0
        payload = json.loads(open(out.strip()).read())
        assert 0.9 <= payload["fitted_exponent"] <= 1.1
        assert payload["times"] == [50, 100, 150, 200, 250, 300, 350, 400]
        assert len(payload["sigmas"]) == 8

    def test_undefined_fit_is_written_as_null(self, capsys):
        # sigma stays 0 at alpha = 1/2 from (1, 0), so there is no slope to fit
        code, out, _ = run(
            ["spread", "--alpha", "1/2", "--initial", "1", "0", "--steps", "8"], capsys
        )
        assert code == 0
        payload = json.loads(open(out.strip()).read(), parse_constant=_reject_constant)
        assert payload["fitted_exponent"] is None
        assert payload["sigmas"] == [0.0] * 8

    def test_too_few_steps(self, capsys):
        code, _, err = run(["spread", "--alpha", "1/6", "--steps", "4"], capsys)
        assert code == 1
        assert "at least 8" in err

    @pytest.mark.parametrize(
        "steps,theta", [("8", "400"), ("8", "-400"), ("1000", "103")]
    )
    def test_power_beyond_double_range_exits_two(self, capsys, _output_dir, steps, theta):
        code, out, err = run(
            ["spread", "--alpha", "1/6", "--steps", steps, "--theta", theta], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("iqwalk: numerical failure: t**theta") and err.count("\n") == 1
        assert f"theta={float(theta)!r}" in err
        assert list(_output_dir.iterdir()) == []

    def test_largest_theta_at_1000_steps_runs(self, capsys):
        code, out, _ = run(["spread", "--alpha", "1/6", "--theta", "102"], capsys)
        assert code == 0
        payload = json.loads(open(out.strip()).read())
        assert all(0.0 < tail for tail in payload["scaled_tail"])

    @given(st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999"]))
    def test_non_finite_theta_is_rejected_at_parse_time(self, theta):
        with pytest.raises(UsageError, match="--theta must be finite"):
            parse_args(["spread", "--alpha", "1/6", "--steps", "16", f"--theta={theta}"])

    def test_nan_theta_exits_one_and_writes_nothing(self, capsys, _output_dir):
        code, out, err = run(
            ["spread", "--alpha", "1/6", "--steps", "16", "--theta", "nan"], capsys
        )
        assert code == 1
        assert "--theta must be finite" in err
        assert out == ""
        assert list(_output_dir.iterdir()) == []


NON_FINITE = ["nan", "+nan", "inf", "+inf", "nanj", "infj", "1+nanj", "inf-1j", "0.6-infj", "1e999"]


class TestNonFiniteSpinor:
    @given(
        st.sampled_from(NON_FINITE),
        st.sampled_from(["0", "1", "0.6", "0.8j"] + NON_FINITE),
        st.booleans(),
    )
    def test_rejected_at_parse_time(self, bad, other, bad_first):
        pair = [bad, other] if bad_first else [other, bad]
        with pytest.raises(UsageError, match="finite"):
            parse_args(["evolve", "--alpha", "1/12", "--initial", *pair])

    def test_evolve_exits_one(self, capsys, _output_dir):
        code, out, err = run(
            ["evolve", "--alpha", "1/12", "--steps", "5", "--initial", "nan", "0"], capsys
        )
        assert code == 1
        assert "finite" in err
        assert out == ""
        assert list(_output_dir.iterdir()) == []


class TestParserReuse:
    """main builds its parser once per process and reuses it."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_repeated_command_writes_identical_bytes(self, tmp_path, capsys):
        written = []
        for _ in range(2):
            code, out, _ = run(["properties", "--alpha", "3/20"], capsys)
            assert code == 0
            written.append(open(out.strip(), "rb").read())
        assert written[0] == written[1]

    def test_repeated_usage_error_gives_the_same_message(self, capsys):
        results = [run(["evolve", "--alpha", "1/4", "--nope"], capsys) for _ in range(2)]
        assert results[0] == results[1]
        code, out, err = results[0]
        assert code == 1
        assert out == ""
        assert err.startswith("iqwalk: unrecognized arguments: --nope")


class TestUsageExit:
    def test_unknown_flag(self, capsys):
        code, _, err = run(["evolve", "--alpha", "1/4", "--nope"], capsys)
        assert code == 1
        assert "iqwalk:" in err

    def test_even_numerator(self, capsys):
        code, _, err = run(["evolve", "--alpha", "2/12"], capsys)
        assert code == 1
        assert "odd" in err

    @pytest.mark.parametrize("command", ["evolve", "recurrence", "spread"])
    @pytest.mark.parametrize("alpha", ["1e-400", f"1/{4 * 10**320}"])
    def test_huge_denominator_exits_one_with_one_line(self, capsys, _output_dir, command, alpha):
        code, out, err = run([command, "--alpha", alpha, "--steps", "8"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("iqwalk: ") and err.count("\n") == 1
        assert "denominator above 2**1022" in err
        assert list(_output_dir.iterdir()) == []


class TestProcess:
    """`python -m iqwalk.cli` in a fresh interpreter, as the console script runs it."""

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["properties", "--alpha", "3/20"], 0),
            (["evolve", "--alpha", "1/4", "--nope"], 1),
            (["approximate", "--alpha", "1e300"], 2),
            (["properties", "--alpha", "3/196"], 3),
        ],
    )
    def test_exit_code_and_one_message(self, _output_dir, argv, code):
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "iqwalk.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            cwd=_output_dir,
            timeout=120,
        )
        assert done.returncode == code
        assert "Traceback" not in done.stderr
        if code in (0, 3):  # the output path on stdout, nothing on stderr
            assert done.stdout == f"{_output_dir / 'properties.json'}\n"
            assert done.stderr == ""
        else:  # one reason on stderr; argparse's usage line follows a usage error
            assert done.stdout == ""
            message, *usage = done.stderr.splitlines()
            assert message.startswith("iqwalk: ")
            assert usage == (["usage: iqwalk [-h] [--version] COMMAND ..."] if code == 1 else [])
