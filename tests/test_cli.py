"""CLI contract tests: output formats, exit codes, record round-trips."""
import argparse
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import textwrap
import time
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from apery import InvalidParamsError, cli, core, frobenius_closed, \
    genus_closed, mersenne, report_closed, repunit_general_frobenius, \
    repunit_params, thabit
from apery.closed_forms import ClosedEvaluation, FamilyParams, evaluate
from apery.cli import (
    EXIT_INFEASIBLE,
    EXIT_INVALID,
    EXIT_MISMATCH,
    EXIT_OK,
    OutputRecord,
    main,
    parse_record,
)
from apery.verify import DEFAULT_GRID, cross_check, property_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def emit_record(record: OutputRecord) -> str:
    # the JSON text that the CLI's one stdout writer prints for a record
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit("json", record.to_dict(), None, None, None)
    return out.getvalue()


class TestQuantities:
    def test_frobenius_gens(self, capsys):
        code, out, _ = run_cli(capsys, "frobenius", "--gens", "5,11,23")
        assert code == EXIT_OK
        assert out == "29\n"

    def test_genus_params_closed(self, capsys):
        code, out, _ = run_cli(capsys, "genus", "--a", "7", "--b", "3",
                               "--d", "2", "--k", "2")
        assert code == EXIT_OK
        assert out == "57\n"

    def test_apery_plain_one_per_line(self, capsys):
        code, out, _ = run_cli(capsys, "apery", "--a", "5", "--b", "2",
                               "--d", "1", "--k", "2")
        assert code == EXIT_OK
        assert out.splitlines() == ["0", "11", "22", "23", "34"]

    def test_pf_plain(self, capsys):
        code, out, _ = run_cli(capsys, "pf", "--gens", "5,11,23")
        assert code == EXIT_OK
        assert out.splitlines() == ["17", "29"]

    def test_gaps_plain(self, capsys):
        code, out, _ = run_cli(capsys, "gaps", "--gens", "3,7")
        assert code == EXIT_OK
        assert out.splitlines() == ["1", "2", "4", "5", "8", "11"]

    def test_report_plain_labeled(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--a", "5", "--b", "2",
                               "--d", "1", "--k", "2")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert "frobenius: 29" in lines
        assert "genus: 16" in lines
        assert "type: 2" in lines
        assert "pf: 17,29" in lines

    def test_report_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--a", "5", "--b", "2",
                               "--d", "1", "--k", "2", "--format", "json")
        assert code == EXIT_OK
        record = json.loads(out)
        assert list(record) == ["input", "engine", "frobenius", "genus",
                                "type", "pf", "apery", "gaps"]
        assert record["engine"] == "closed-form"
        assert record["frobenius"] == 29
        assert record["apery"] == [0, 11, 22, 23, 34]

    @pytest.mark.parametrize("abdk", [("7", "3", "2", "2"),
                                      ("7", "2", "1", "2"),
                                      ("2", "2", "1", "5")],
                             ids=["general", "repunit", "a-below-k-1"])
    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    @pytest.mark.parametrize("command", ["frobenius", "genus", "apery", "pf",
                                         "gaps", "report"])
    def test_engines_agree(self, capsys, command, fmt, abdk):
        # (7, 2, 1, 2) has the repunit shape a = 2^3 - 1, k = 3 - 1, so the
        # closed PF comes from the formula there and from the Apery set at
        # (7, 3, 2, 2); both must match the oracle apart from the engine tag
        argv = [command, "--a", abdk[0], "--b", abdk[1], "--d", abdk[2],
                "--k", abdk[3], "--format", fmt]
        code, closed, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        code, oracle, _ = run_cli(capsys, *argv, "--engine", "oracle")
        assert code == EXIT_OK
        assert _without_engine(closed, fmt, "closed-form") == \
            _without_engine(oracle, fmt, "oracle")

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_report_builds_no_csv_row(self, capsys, monkeypatch, fmt):
        argv = ["report", "--a", "7", "--b", "3", "--d", "2", "--k", "2",
                "--format", fmt]
        code, expected, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK

        def no_csv(record):
            raise AssertionError("CSV row built for another format")

        monkeypatch.setattr(cli, "_csv_row", no_csv)
        assert run_cli(capsys, *argv) == (EXIT_OK, expected, "")

    def test_csv_single_record(self, capsys):
        code, out, _ = run_cli(capsys, "frobenius", "--gens", "5,11,23",
                               "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        header, row = rows
        record = dict(zip(header, row))
        assert record["gens"] == "5;11;23"
        assert record["frobenius"] == "29"
        assert record["engine"] == "oracle"

    def test_csv_columns_by_name(self, capsys):
        # a --gens row leaves the a-k cells empty, and a parameter row the
        # gens cell and the cells of what the command does not print
        header = "gens,a,b,d,k,engine,frobenius,genus,type,pf,apery,gaps\r\n"
        code, out, _ = run_cli(capsys, "report", "--gens", "5,11,23",
                               "--format", "csv")
        assert code == EXIT_OK
        assert out == header + (
            "5;11;23,,,,,oracle,29,16,2,17;29,0;11;22;23;34,"
            "1;2;3;4;6;7;8;9;12;13;14;17;18;19;24;29\r\n")
        code, out, _ = run_cli(capsys, "frobenius", "--a", "7", "--b", "3",
                               "--d", "2", "--k", "2", "--format", "csv")
        assert code == EXIT_OK
        assert out == header + ",7,3,2,2,closed-form,110,57,2,62;110,,\r\n"

    @pytest.mark.parametrize("command, abdk", [
        ("gaps", (150, 2, 1, 3)), ("apery", (5003, 2, 1, 3))])
    def test_long_listing_in_bounded_writes(self, command, abdk):
        # 12942 gaps and 5003 Apery elements: one value per line, written
        # _LINES_PER_WRITE lines at a time
        ev = evaluate(FamilyParams(*abdk), "closed")
        values = ev.gaps if command == "gaps" else ev.apery.minima
        out = _Writes()
        with contextlib.redirect_stdout(out):
            assert main([command, *(f"--{key}={v}" for key, v in
                                    zip("abdk", abdk))]) == EXIT_OK
        assert out.getvalue() == "\n".join(map(str, values)) + "\n"
        full, last = divmod(len(values), cli._LINES_PER_WRITE)
        assert full and last
        assert out.lines == [cli._LINES_PER_WRITE] * full + [last]

    def test_empty_listing_prints_nothing(self, capsys):
        assert run_cli(capsys, "gaps", "--gens", "1") == (EXIT_OK, "", "")


class _Writes(io.StringIO):
    # a stdout that keeps the line count of each write
    def __init__(self):
        super().__init__()
        self.lines = []

    def write(self, text):
        self.lines.append(text.count("\n"))
        return super().write(text)


def _without_engine(out, fmt, engine):
    # the output with its engine tag checked and removed
    if fmt == "json":
        record = json.loads(out)
        assert record.pop("engine") == engine
        return record
    if fmt == "csv":
        header, row = csv.reader(io.StringIO(out))
        column = header.index("engine")
        assert row.pop(column) == engine
        return header, row
    assert engine not in out
    return out


class TestInvalidInput:
    def test_bad_generator_text(self, capsys):
        code, out, err = run_cli(capsys, "frobenius", "--gens", "5,abc")
        assert code == EXIT_INVALID
        assert out == ""
        assert "error" in err

    def test_missing_params(self, capsys):
        code, _, err = run_cli(capsys, "report", "--a", "5", "--b", "2")
        assert code == EXIT_INVALID
        assert "missing" in err

    def test_gens_and_params_conflict(self, capsys):
        code, _, _ = run_cli(capsys, "frobenius", "--gens", "3,7", "--a", "3")
        assert code == EXIT_INVALID

    def test_gcd_violation(self, capsys):
        code, _, err = run_cli(capsys, "frobenius", "--a", "4", "--b", "2",
                               "--d", "2", "--k", "1")
        assert code == EXIT_INVALID
        assert "gcd" in err

    def test_non_integer_flag(self, capsys):
        code, _, _ = run_cli(capsys, "frobenius", "--a", "x", "--b", "2",
                             "--d", "1", "--k", "1")
        assert code == EXIT_INVALID

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "nonsense")
        assert code == EXIT_INVALID

    def test_no_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == EXIT_INVALID

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(capsys, "family", "fibonacci", "--n", "3")
        assert code == EXIT_INVALID
        assert "unknown family 'fibonacci'; known: mersenne, thabit," in err

    def test_family_missing_param(self, capsys):
        code, _, _ = run_cli(capsys, "family", "mersenne")
        assert code == EXIT_INVALID

    def test_family_bound_violation(self, capsys):
        code, _, err = run_cli(capsys, "family", "mersenne", "--n", "1")
        assert code == EXIT_INVALID
        assert "n >= 2" in err

    def test_n_range_conflicts_with_n(self, capsys):
        code, _, _ = run_cli(capsys, "family", "mersenne", "--n", "3",
                             "--n-range", "2..4")
        assert code == EXIT_INVALID

    def test_bad_range_syntax(self, capsys):
        code, _, _ = run_cli(capsys, "family", "mersenne",
                             "--n-range", "2-4")
        assert code == EXIT_INVALID

    def test_invalid_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SEMIGROUP_ORACLE_CAP", "big")
        code, _, _ = run_cli(capsys, "frobenius", "--gens", "5,11")
        assert code == EXIT_INVALID


class TestUsageErrors:
    """argparse's own refusals: usage and message on stderr, exit 1."""

    @pytest.mark.parametrize("argv, prog, message", [
        (["nonsense"], "apery", "argument command: invalid choice"),
        (["frobenius", "--gens", "5,7", "--zzz"], "apery",
         "unrecognized arguments: --zzz"),
        (["frobenius", "--gens", "5,7", "--engine", "fast"],
         "apery frobenius", "argument --engine: invalid choice"),
        (["orderly"], "apery orderly",
         "the following arguments are required: --coins"),
        (["frobenius", "--a", "x", "--b", "2", "--d", "1", "--k", "1"],
         "apery frobenius",
         "argument --a: value must be a decimal integer, got 'x'"),
    ])
    def test_exit_one_with_usage(self, capsys, argv, prog, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith(f"usage: {prog} ")
        assert err.splitlines()[-1].startswith(f"{prog}: error: {message}")

    @pytest.mark.parametrize("argv", [["--help"], ["family", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: apery")

    def test_repeated_calls_agree(self, capsys):
        argvs = [["frobenius", "--gens", "5,7"], ["nonsense"], ["orderly"],
                 ["family", "mersenne", "--n-range", "2..3", "--format",
                  "json"], ["genus", "--a", "x"], ["report", "--a", "5"]]
        first = [run_cli(capsys, *argv) for argv in argvs]
        assert [run_cli(capsys, *argv) for argv in argvs] == first


_COMMAND_NAMES = ("frobenius", "genus", "apery", "pf", "gaps", "report",
                  "family", "orderly", "verify")


def _outcome(argv):
    # main's exit code, or the code of the SystemExit that help raises,
    # and what it printed, with a verify run's time left out
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return (code, re.sub(r'"elapsed_seconds": [^,}]*', "", out.getvalue()),
            err.getvalue())


def _full_outcome(argv):
    # the outcome when the full parser parses every argv
    with mock.patch.object(cli, "_parse_args",
                           lambda argv: cli.build_parser().parse_args(argv)):
        return _outcome(argv)


def _subparsers(parser: argparse.ArgumentParser):
    return parser._subparsers._group_actions[0].choices.values()


def _parsers_built(argv) -> tuple[list, tuple]:
    # the ArgumentParser objects one main call constructs, and its outcome
    built = []
    real = argparse.ArgumentParser.__init__

    def recording(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    with mock.patch.object(argparse.ArgumentParser, "__init__", recording):
        return built, _outcome(argv)


def _helped(parsers) -> list[str]:
    # the prog of each parser that has its own -h
    return [p.prog for p in parsers
            if any("-h" in a.option_strings for a in p._actions)]


# a small call that exits 0, per command
_SMALL_CALLS = {
    **{name: [name, "--a", "11", "--b", "3", "--d", "2", "--k", "3"]
       for name in _COMMAND_NAMES[:6]},
    "family": ["family", "mersenne", "--n", "3"],
    "orderly": ["orderly", "--coins", "1,3,4"],
    "verify": ["verify", "--a-max", "3", "--b-max", "2", "--d-max", "1",
               "--k-max", "1", "--budget", "1"],
}

# argv tokens: the command names, every option string, and a few others
_VOCABULARY = sorted(
    {*_COMMAND_NAMES, "--", "bogus", "3", "5,7", "1,3,4", "2..4", "x",
     "oracle", "json", "csv", "mersenne", "list",
     *(s for sub in _subparsers(cli.build_parser()) for action in sub._actions
       for s in action.option_strings)})


class TestParserPerCommand:
    """A command in first place parses with its own parser alone, and main
    prints and returns what the full parser gives."""

    def test_declares_only_the_commands_options(self, capsys, monkeypatch):
        declared = []
        real = argparse.ArgumentParser.add_argument

        def recording(self, *args, **kwargs):
            declared.append((self.prog, args))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument",
                            recording)
        code, out, _ = run_cli(capsys, "orderly", "--coins", "1,3,4")
        assert (code, out) == (EXIT_OK, "non-orderly\n6\n")
        # orderly's -h and its own options
        assert declared == [
            ("apery orderly", ("-h", "--help")),
            ("apery orderly", ("--coins",)), ("apery orderly", ("--format",))]

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h", "frobenius"], ["nonsense"], [],
        ["report", "--bogus"], ["orderly"], ["verify", "--jobs", "x"],
        ["family"],
        # an unknown option after a whole command prints the top-level usage
        ["frobenius", "--a", "7", "--b", "2", "--d", "1", "--k", "2",
         "--bogus"],
        ["--bogus", "frobenius"], ["frobenius", "-h", "--a", "7"],
        *([name, "--help"] for name in _COMMAND_NAMES),
        ["frobenius", "frobenius"], ["--", "frobenius"], ["FROBENIUS"],
        ["frob"],
        ["frobenius", "--a", "7", "--b", "2", "--d", "1", "--k", "2", "--",
         "x"],
        ["family", "mersenne", "--n-range", "2..4", "--n", "3"]])
    def test_same_outcome_as_the_full_parser(self, argv):
        assert _outcome(argv) == _full_outcome(argv)

    @seed(25)
    @settings(max_examples=200, deadline=None)
    @given(st.builds(lambda head, rest: head + rest,
                     st.lists(st.sampled_from(_COMMAND_NAMES), max_size=1),
                     st.lists(st.sampled_from(_VOCABULARY), max_size=6)))
    def test_same_outcome_as_the_full_parser_on_any_argv(self, argv):
        assert _outcome(argv) == _full_outcome(argv)

    @pytest.mark.parametrize("name", _COMMAND_NAMES)
    def test_one_parser_for_a_command_first(self, name):
        built, (code, _, err) = _parsers_built(_SMALL_CALLS[name])
        assert (len(built), code, err) == (1, EXIT_OK, "")

    @pytest.mark.parametrize("argv", [["-h", "frobenius"], ["bogus"], []])
    def test_full_parser_for_anything_else(self, argv):
        assert len(_parsers_built(argv)[0]) == 10

    def test_full_parser_after_leftovers(self):
        # the command's parser leaves "x" over, and the full parser reports it
        built, (code, _, err) = _parsers_built([*_SMALL_CALLS["frobenius"],
                                                "x"])
        assert (len(built), code) == (1 + 10, EXIT_INVALID)
        assert err.endswith("apery: error: unrecognized arguments: x\n")

    def test_help_only_on_the_parsers_that_parse(self):
        assert _helped(_parsers_built(_SMALL_CALLS["genus"])[0]) == \
            ["apery genus"]
        # the full parser, for a name that is no command: every -h stays
        assert _helped(_parsers_built(["bogus"])[0]) == [
            "apery", *(f"apery {name}" for name in _COMMAND_NAMES)]

    @pytest.mark.parametrize("name", _COMMAND_NAMES)
    def test_usage_line_does_not_depend_on_the_command(self, capsys, name):
        # the command's own parser prints the help, usage line first, of
        # the full parser's subparser
        full = {p.prog: p for p in _subparsers(cli.build_parser())}
        with pytest.raises(SystemExit) as exc:
            main([name, "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == full[f"apery {name}"].format_help()

    @pytest.mark.parametrize("argv, expected", [
        *(([name, "--gens", "5,7", "--a", "1", "--b", "2", "--d", "3",
            "--k", "4", "--engine", "oracle", "--format", "csv"],
           {"command": name, "gens": "5,7", "a": 1, "b": 2, "d": 3, "k": 4,
            "engine": "oracle", "format": "csv"})
          for name in _COMMAND_NAMES[:6]),
        (["family", "thabit",
          *(arg for key in cli._FAMILY_KEYS for arg in (f"--{key}", "2")),
          "--n-range", "2..3", "--engine", "oracle", "--format", "json"],
         {"command": "family", "name": "thabit",
          **dict.fromkeys(cli._FAMILY_KEYS, 2), "n_range": "2..3",
          "engine": "oracle", "format": "json"}),
        (["orderly", "--coins", "1,3", "--format", "json"],
         {"command": "orderly", "coins": "1,3", "format": "json"}),
        (["verify", "--seed", "1", "--jobs", "2", "--budget", "3",
          "--a-max", "5", "--b-max", "3", "--d-max", "2", "--k-max", "2",
          "--check-pf", "--check-monotone", "--inject-mismatch",
          "--format", "csv"],
         {"command": "verify", "seed": 1, "jobs": 2, "budget": 3,
          "a_max": 5, "b_max": 3, "d_max": 2, "k_max": 2, "check_pf": True,
          "check_monotone": True, "inject_mismatch": True, "format": "csv"}),
    ])
    def test_full_parser_takes_every_option(self, argv, expected):
        assert vars(cli.build_parser().parse_args(argv)) == expected
        assert vars(cli._parse_args(argv)) == expected

    def test_reads_sys_argv_without_an_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["apery", "orderly", "--coins",
                                          "1,5,10,25"])
        assert main() == EXIT_OK
        assert capsys.readouterr().out == "orderly\n"


def _default_formatter_outcome(argv):
    # the outcome when every parser formats with argparse's own
    # HelpFormatter, which works out the terminal width each time it is built
    with mock.patch.object(cli, "_help_formatter",
                           lambda: argparse.HelpFormatter):
        return _outcome(argv)


def _probes(argv) -> int:
    # the terminal probes that one main call makes
    real = cli.shutil.get_terminal_size
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    with mock.patch.object(cli.shutil, "get_terminal_size", counting):
        _outcome(argv)
    return len(calls)


class TestHelpWidth:
    """Every parser of one tree formats at the width that argparse's
    HelpFormatter works out itself, probed once for the tree."""

    @pytest.mark.parametrize("columns", ["50", "200"])
    @pytest.mark.parametrize("argv", [
        ["-h"], *([name, "-h"] for name in _COMMAND_NAMES), ["bogus"],
        [*_SMALL_CALLS["frobenius"], "--bogus"]])
    def test_same_text_as_the_default_formatter(self, monkeypatch, argv,
                                                columns):
        monkeypatch.setenv("COLUMNS", columns)
        assert _outcome(argv) == _default_formatter_outcome(argv)

    @pytest.mark.parametrize("argv", [*_SMALL_CALLS.values(), ["-h"],
                                      ["bogus"]])
    def test_one_probe_per_call(self, argv):
        assert _probes(argv) == 1

    def test_two_probes_after_leftovers(self):
        # the command's parser, then the full parser that reports "x"
        assert _probes([*_SMALL_CALLS["frobenius"], "x"]) == 2


# each source of integer text, as the environment and argv that carry text
_TEXT_SOURCES = {
    "--a": lambda t: ({}, ["frobenius", "--a", t, "--b", "2", "--d", "1",
                           "--k", "2"]),
    "--seed": lambda t: ({}, ["verify", "--a-max", "4", "--budget", "2",
                              "--seed", t]),
    # the empty text is the whole list: an empty element is skipped
    "--gens": lambda t: ({}, ["frobenius", "--gens", t and "3," + t]),
    "--coins": lambda t: ({}, ["orderly", "--coins", t and "1,3," + t]),
    "--n-range start": lambda t: ({}, ["family", "mersenne", "--n-range",
                                       t + "..8"]),
    "--n-range end": lambda t: ({}, ["family", "mersenne", "--n-range",
                                     "2.." + t]),
    "SEMIGROUP_ORACLE_CAP": lambda t: ({"SEMIGROUP_ORACLE_CAP": t},
                                       ["frobenius", "--gens", "5,7"]),
}


class TestIntegerText:
    """Every integer given as text is ASCII digits with an optional sign
    and surrounding whitespace (core.parse_int)."""

    def _run(self, capsys, monkeypatch, source, text):
        env, argv = _TEXT_SOURCES[source](text)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        return run_cli(capsys, *argv)

    @pytest.mark.parametrize("source, text", [
        (source, text) for source in _TEXT_SOURCES
        for text in ("1_000", "\u0663", "1e3", "0x10", "7.0", "")
        # an empty setting is the variable unset, as the next test shows
        if (source, text) != ("SEMIGROUP_ORACLE_CAP", "")])
    def test_refused(self, capsys, monkeypatch, source, text):
        code, out, err = self._run(capsys, monkeypatch, source, text)
        assert (code, out) == (EXIT_INVALID, "")
        assert "error" in err

    def test_empty_cap_setting_is_unset(self, capsys, monkeypatch):
        assert self._run(capsys, monkeypatch, "SEMIGROUP_ORACLE_CAP", "") \
            == (EXIT_OK, "23\n", "")

    @pytest.mark.parametrize("source", _TEXT_SOURCES)
    def test_accepted(self, capsys, monkeypatch, source):
        outputs = {self._run(capsys, monkeypatch, source, text)
                   for text in ("7", "+7", " 7 ")}
        assert len(outputs) == 1
        code, out, err = outputs.pop()
        assert (code, err) == (EXIT_OK, "")
        assert out

    def test_accepted_values(self, capsys, monkeypatch):
        assert self._run(capsys, monkeypatch, "--a", "+7")[1] == "55\n"
        assert self._run(capsys, monkeypatch, "--gens", " 7 ")[1] == "11\n"
        _, out, _ = self._run(capsys, monkeypatch, "--n-range end", "+7")
        assert out.count("family: mersenne") == 6

    def test_past_4300_digits(self, capsys, digit_limit):
        # main converts a flag of any length; outside it the limit holds
        b = "1" + "0" * 4300
        code, out, err = run_cli(capsys, "family", "repunit", "--b", b,
                                 "--n", "2")
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith(f"family: repunit\nn: 2\nb: {b}\n")
        if digit_limit is not None:
            with pytest.raises(InvalidParamsError, match="decimal integer"):
                core.parse_int(b, "b")


class TestInfeasible:
    def test_cap_exceeded_exits_three(self, capsys, monkeypatch):
        monkeypatch.setenv("SEMIGROUP_ORACLE_CAP", "50")
        code, out, err = run_cli(capsys, "frobenius", "--gens", "101,103")
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert "cap" in err

    def test_gap_count_over_cap_exits_three(self, capsys, monkeypatch):
        monkeypatch.setenv("SEMIGROUP_ORACLE_CAP", "40")
        code, out, err = run_cli(capsys, "gaps", "--gens", "11,13")
        assert code == EXIT_INFEASIBLE  # genus 60
        assert out == ""
        assert "gaps exceed the cap" in err
        code, out, _ = run_cli(capsys, "gaps", "--gens", "7,11")
        assert code == EXIT_OK  # genus 30
        assert len(out.splitlines()) == 30

    def test_huge_family_refused_before_genus(self):
        # thabit(40) has a = 3 * 2^40 - 1: the genus and PF read one table
        # of a digit sums, whose cap check refuses before any of it is built
        result = subprocess.run(
            [sys.executable, "-m", "apery.cli", "family", "thabit",
             "--n", "40"],
            capture_output=True, text=True, env=_env_with_package(),
            timeout=60)
        assert result.returncode == EXIT_INFEASIBLE
        assert result.stdout == ""

    def test_huge_closed_genus_refused_at_once(self, capsys, monkeypatch):
        # off the repunit shape the genus would sum 10^11 digit sums; the
        # cap check on their table refuses first
        monkeypatch.delenv("SEMIGROUP_ORACLE_CAP", raising=False)
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "genus", "--a", "100000000003",
                                 "--b", "2", "--d", "1", "--k", "3")
        assert (code, out) == (EXIT_INFEASIBLE, "")
        assert "100000000003 residue classes exceed the cap" in err
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("setting, argv, code, out", [
        *((setting, argv, code, out) for setting in ("0", "-3")
          for argv, code, out in [
              ("report --gens 5,7", EXIT_INFEASIBLE, ""),
              # plain F on parameters builds no residue table
              ("frobenius --a 7 --b 3 --d 2 --k 2", EXIT_OK, "110\n"),
              # every grid point is above the cap, so none runs
              ("verify --a-max 10 --budget 3", EXIT_OK,
               "cross-check: 0 run, 0 passed, 720 skipped, 0 mismatches, "
               "0 divergences\nproperties: 3 run, 3 passed, 0 skipped, "
               "0 mismatches, 0 divergences\n"),
          ]),
        # int() would take "1_000" and the Arabic-Indic digit three
        *((setting, "report --gens 5,7", EXIT_INVALID, "")
          for setting in ("1e3", "1_000", "\u0663")),
    ])
    def test_cap_env_settings(self, capsys, monkeypatch, setting, argv,
                              code, out):
        monkeypatch.setenv("SEMIGROUP_ORACLE_CAP", setting)
        got_code, got_out, err = run_cli(capsys, *argv.split())
        assert (got_code, got_out) == (code, out)
        if code != EXIT_OK:
            assert "SEMIGROUP_ORACLE_CAP" in err

    def test_cap_env_raised_allows_run(self, capsys, monkeypatch):
        monkeypatch.setenv("SEMIGROUP_ORACLE_CAP", "500")
        code, out, _ = run_cli(capsys, "frobenius", "--gens", "101,103")
        assert code == EXIT_OK
        assert out == f"{101 * 103 - 101 - 103}\n"


class TestOneEvaluation:
    """Each request builds at most one Apery set, in either engine."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(core, "apery_set", counted(core.apery_set))
        closed = ClosedEvaluation.minima
        monkeypatch.setattr(closed, "func", counted(closed.func))
        return calls

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    @pytest.mark.parametrize("engine", ["closed", "oracle"])
    @pytest.mark.parametrize("command", ["report", "apery", "gaps"])
    def test_one_apery_set_per_request(self, capsys, builds, command,
                                       engine, fmt):
        code, _, _ = run_cli(capsys, command, "--a", "97", "--b", "3",
                             "--d", "2", "--k", "3", "--engine", engine,
                             "--format", fmt)
        assert code == EXIT_OK
        assert len(builds) == 1
        builds.clear()
        code, _, _ = run_cli(capsys, command, "--gens", "5,11,23",
                             "--format", fmt)
        assert code == EXIT_OK
        assert builds == ["apery_set"]

    @pytest.mark.parametrize("command", ["frobenius"])
    def test_plain_scalar_computes_only_itself(self, capsys, monkeypatch,
                                               builds, command):
        # thabit(7) has a = 383, above this cap: plain F needs no Apery set,
        # while a JSON record carries PF, which does
        p = thabit(7)
        monkeypatch.setenv("SEMIGROUP_ORACLE_CAP", "100")
        argv = [command, "--a", str(p.a), "--b", str(p.b), "--d", str(p.d),
                "--k", str(p.k)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert out == f"{frobenius_closed(p)}\n"
        assert builds == []
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert "cap" in err

    def test_plain_genus_reads_the_table_off_the_repunit_shape(
            self, capsys, monkeypatch, builds):
        # off the repunit shape the genus sums the capped table of a digit
        # sums, so thabit(7) (a = 383) is refused; mersenne(9) (a = 511) has
        # the repunit shape and answers by formula with no table at all
        monkeypatch.setenv("SEMIGROUP_ORACLE_CAP", "100")
        table = ClosedEvaluation.digit_sums
        real = table.func
        tables = []
        monkeypatch.setattr(table, "func",
                            lambda ev: tables.append(ev) or real(ev))

        def genus(p):
            return run_cli(capsys, "genus", "--a", str(p.a), "--b", str(p.b),
                           "--d", str(p.d), "--k", str(p.k))
        code, out, err = genus(thabit(7))
        assert (code, out) == (EXIT_INFEASIBLE, "")
        assert "383 residue classes exceed the cap 100" in err
        assert "SEMIGROUP_ORACLE_CAP" in err
        tables.clear()
        code, out, err = genus(mersenne(9))
        assert (code, out, err) == (EXIT_OK, f"{genus_closed(mersenne(9))}\n",
                                    "")
        assert (tables, builds) == ([], [])


@pytest.fixture
def digit_limit():
    """Python's int/str digit limit at its default of 4300 for the test, or
    None where this Python has no limit; the old setting is put back after."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield None
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


class TestFamilyCommand:
    def test_repunit_example(self, capsys):
        code, out, _ = run_cli(capsys, "family", "repunit", "--b", "3",
                               "--n", "2", "--format", "json")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["frobenius"] == 35
        assert record["genus"] == 18
        assert record["pf"] == [35]
        assert record["type"] == 1
        assert record["input"]["resolved"] == {"a": 4, "b": 3, "d": 1,
                                               "k": 1}

    def test_family_oracle_engine(self, capsys):
        _, closed, _ = run_cli(capsys, "family", "thabit", "--n", "2",
                               "--format", "json")
        _, oracle, _ = run_cli(capsys, "family", "thabit", "--n", "2",
                               "--engine", "oracle", "--format", "json")
        left, right = json.loads(closed), json.loads(oracle)
        assert left["engine"] != right["engine"]
        for key in ("frobenius", "genus", "type", "pf"):
            assert left[key] == right[key]

    def test_list_plain(self, capsys):
        code, out, _ = run_cli(capsys, "family", "list")
        assert code == EXIT_OK
        for name in ("mersenne", "thabit", "gu-ze-tang", "song-gt",
                     "liu-xin", "repunit", "gu-ze", "thabit-base-b"):
            assert name in out
        assert "delta" in out

    def test_list_json(self, capsys):
        code, out, _ = run_cli(capsys, "family", "list", "--format", "json")
        assert code == EXIT_OK
        entries = json.loads(out)["families"]
        assert len(entries) == 8

    def test_n_range_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "family", "mersenne",
                               "--n-range", "2..5", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "family"
        assert len(rows) == 5  # header + 4 records
        frob_col = rows[0].index("frobenius")
        values = [int(row[frob_col]) for row in rows[1:]]
        assert values == [2**(2 * n) - 2**n - 1 for n in range(2, 6)]

    def test_csv_header_names_the_family_columns(self, capsys):
        code, out, _ = run_cli(capsys, "family", "liu-xin", "--m", "2",
                               "--k", "4", "--format", "csv")
        assert code == EXIT_OK
        assert out == ("family,a,b,d,k,engine,frobenius,genus,type,pf\r\n"
                       "liu-xin,37,2,1,4,closed-form,1479,768,3,"
                       "1174;1478;1479\r\n")

    def test_n_range_over_the_cap_refused_before_any_record(
            self, capsys, monkeypatch):
        monkeypatch.setenv("SEMIGROUP_ORACLE_CAP", "20")
        code, out, _ = run_cli(capsys, "family", "mersenne",
                               "--n-range", "2..21", "--format", "json")
        assert code == EXIT_OK
        assert len(json.loads(out)["records"]) == 20
        built = []
        monkeypatch.setattr(cli, "_family_record",
                            lambda *args: built.append(args))
        code, out, err = run_cli(capsys, "family", "mersenne",
                                 "--n-range", "2..22")
        assert (code, out, built) == (EXIT_INFEASIBLE, "", [])
        assert "21 family records exceed the cap 20" in err
        monkeypatch.delenv("SEMIGROUP_ORACLE_CAP")
        started = time.perf_counter()
        for end in ("100000000", "1" + "0" * 30):  # len() overflows at 2**63
            code, out, err = run_cli(capsys, "family", "mersenne",
                                     "--n-range", f"2..{end}")
            assert (code, out, built) == (EXIT_INFEASIBLE, "", [])
            assert len(err) < 500
        assert time.perf_counter() - started < 1.0

    def test_n_range_with_fixed_base(self, capsys):
        code, out, _ = run_cli(capsys, "family", "repunit", "--b", "3",
                               "--n-range", "2..3", "--format", "json")
        assert code == EXIT_OK
        records = json.loads(out)["records"]
        assert [r["frobenius"] for r in records] == [35, 27 * 13 - 1]

    def test_one_element_n_range_keeps_the_records_shape(self, capsys):
        # the JSON shape follows the flag, not the length of the range
        code, out, _ = run_cli(capsys, "family", "mersenne",
                               "--n-range", "3..3", "--format", "json")
        assert code == EXIT_OK
        [record] = json.loads(out)["records"]
        assert record["frobenius"] == 2**6 - 2**3 - 1
        code, out, _ = run_cli(capsys, "family", "mersenne", "--n", "3",
                               "--format", "json")
        assert json.loads(out) == record

    def test_huge_values_render_as_strings(self, capsys):
        code, out, _ = run_cli(capsys, "family", "mersenne", "--n", "70",
                               "--format", "json")
        assert code == EXIT_OK
        record = json.loads(out)
        assert isinstance(record["frobenius"], str)
        assert int(record["frobenius"]) == 2**140 - 2**70 - 1
        assert record["type"] == 69

    def test_answers_past_4300_digits_print(self, capsys, digit_limit):
        # F has about 4500 digits, more than Python 3.11 converts to str by
        # default; main lifts that limit while it runs and then restores it
        b = 10**1500
        outputs = {}
        for fmt in ("plain", "json", "csv"):
            code, outputs[fmt], err = run_cli(
                capsys, "family", "repunit", "--b", str(b), "--n", "2",
                "--format", fmt)
            assert (code, err) == (EXIT_OK, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() \
            == digit_limit
        if digit_limit is not None:  # for this test's own conversions
            sys.set_int_max_str_digits(0)
        frob = str(repunit_general_frobenius(b, 2))
        assert f"frobenius: {frob}\n" in outputs["plain"]
        row = next(csv.DictReader(io.StringIO(outputs["csv"])))
        assert row["frobenius"] == frob
        record = parse_record(outputs["json"])
        assert str(record.frobenius) == frob
        assert parse_record(emit_record(record)) == record


class TestOrderlyCommand:
    def test_orderly_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "orderly", "--coins", "1,2,5")
        assert code == EXIT_OK
        assert out == "orderly\n"

    def test_non_orderly_exit_zero_with_counterexample(self, capsys):
        code, out, _ = run_cli(capsys, "orderly", "--coins", "1,3,4")
        assert code == EXIT_OK
        assert out.splitlines() == ["non-orderly", "6"]

    def test_orderly_json(self, capsys):
        code, out, _ = run_cli(capsys, "orderly", "--coins", "1,3,4",
                               "--format", "json")
        assert code == EXIT_OK
        verdict = json.loads(out)
        assert verdict == {"coins": [1, 3, 4], "orderly": False,
                           "counterexample": 6}

    def test_orderly_requires_unit(self, capsys):
        code, _, _ = run_cli(capsys, "orderly", "--coins", "3,4")
        assert code == EXIT_INVALID

    def test_bad_coin_text(self, capsys):
        code, out, err = run_cli(capsys, "orderly", "--coins", "1,x")
        assert code == EXIT_INVALID
        assert out == ""
        assert "error" in err


class TestVerifyCommand:
    def test_clean_run_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--a-max", "10",
                               "--budget", "3")
        assert code == EXIT_OK
        assert "cross-check" in out
        assert "0 mismatches" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--a-max", "8",
                               "--budget", "3", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["cross_check"]["mismatches"] == []
        assert payload["property_suite"]["cases_run"] == 3

    def test_no_range_flag_sweeps_the_default_grid(self, capsys):
        # the range flags default to None, and the run fills in DEFAULT_GRID
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        expected = {"cross_check": cross_check(DEFAULT_GRID),
                    "property_suite": property_suite(seed=0, budget=30)}
        for label, report in expected.items():
            want = report.to_dict()
            del want["elapsed_seconds"], payload[label]["elapsed_seconds"]
            assert payload[label] == want
            assert want["cases_run"] > 0

    def test_injected_mismatch_exits_two(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--a-max", "6",
                               "--budget", "3", "--inject-mismatch")
        assert code == EXIT_MISMATCH
        assert "frobenius-injected" in out

    def test_jobs_below_one_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--a-max", "6",
                                 "--budget", "3", "--jobs", "0")
        assert code == EXIT_INVALID
        assert out == ""
        assert "jobs" in err

    def test_seed_changes_nothing_on_clean_grid(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "verify", "--a-max", "8",
                                   "--budget", "6", "--seed", "1",
                                   "--format", "csv")
        code_b, out_b, _ = run_cli(capsys, "verify", "--a-max", "8",
                                   "--budget", "6", "--seed", "1",
                                   "--format", "csv")
        assert code_a == code_b == EXIT_OK
        assert out_a == out_b


class TestRecordRoundTrip:
    def test_parse_inverts_serialize(self):
        records = [
            OutputRecord(input={"gens": [5, 11, 23]}, engine="oracle",
                         frobenius=29, genus=16, type=2, pf=(17, 29)),
            OutputRecord(input={"a": 5, "b": 2, "d": 1, "k": 2},
                         engine="closed-form", frobenius=29, genus=16,
                         type=2, pf=(17, 29), apery=(0, 11, 22, 23, 34),
                         gaps=(1, 2, 3)),
            OutputRecord(input={"family": "mersenne", "params": {"n": 90},
                                "resolved": {"a": 2**90 - 1, "b": 2,
                                             "d": 1, "k": 89}},
                         engine="closed-form",
                         frobenius=2**180 - 2**90 - 1,
                         genus=(2**180 - 2**90) // 2 + 2**89 * 89,
                         type=89,
                         pf=tuple(2**180 - 2**90 - 1 - t
                                  for t in range(88, -1, -1))),
        ]
        for record in records:
            assert parse_record(emit_record(record)) == record

    @given(values=st.lists(
        st.builds(int.__add__, st.sampled_from([2**63, -(2**63)]),
                  st.integers(-2, 2)),
        min_size=2, max_size=6))
    @example(values=[2**63 - 1, 2**63, -(2**63), -(2**63) - 1])
    def test_round_trip_at_64_bit_edge(self, values):
        # values lie within 2 of 2^63 or of -2^63, so on both sides of
        # both ends of the signed 64-bit range
        genus, *pf = values
        record = OutputRecord(input={"gens": [5, 7]}, engine="oracle",
                              frobenius=max(pf), genus=genus, type=len(pf),
                              pf=pf)
        text = emit_record(record)
        assert parse_record(text) == record
        raw = json.loads(text)
        encoded = [raw["frobenius"], raw["genus"], *raw["pf"]]
        for v, enc in zip([max(pf), genus, *pf], encoded):
            assert enc == (v if -(2**63) <= v < 2**63 else str(v))

    def test_round_trip_past_4300_digits(self, digit_limit):
        # outside main too, _emit and parse_record lift Python's int/str
        # digit limit while they run and then put it back
        p = repunit_params(10**1500, 2)
        record = OutputRecord(input={"a": p.a, "b": p.b, "d": p.d, "k": p.k},
                              apery=(0, p.a + 1), **vars(report_closed(p)))
        text = emit_record(record)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() \
            == digit_limit
        assert len(json.loads(text)["frobenius"]) > 4300
        assert parse_record(text) == record
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() \
            == digit_limit

    def test_cli_output_parses_back(self, capsys):
        _, out, _ = run_cli(capsys, "report", "--a", "5", "--b", "2",
                            "--d", "1", "--k", "2", "--format", "json")
        record = parse_record(out)
        assert record.frobenius == 29
        assert record.apery == (0, 11, 22, 23, 34)
        assert parse_record(emit_record(record)) == record


def _env_with_package():
    # subprocesses import the package under test, wherever pytest found it
    import apery
    src = os.path.dirname(os.path.dirname(apery.__file__))
    return dict(os.environ, PYTHONPATH=src)


class TestConsoleEntryPoint:
    def test_installed_script(self):
        result = subprocess.run(
            [sys.executable, "-m", "apery.cli", "frobenius",
             "--gens", "5,11,23"],
            capture_output=True, text=True, env=_env_with_package())
        assert result.returncode == EXIT_OK
        assert result.stdout == "29\n"

    def test_oracle_report_at_huge_k(self):
        # the oracle reads the family terms only up to Sylvester's bound
        result = subprocess.run(
            [sys.executable, "-m", "apery.cli", "report", "--a", "7",
             "--b", "2", "--d", "1", "--k", "1000000", "--engine", "oracle"],
            capture_output=True, text=True, env=_env_with_package(),
            timeout=60)
        assert result.returncode == EXIT_OK, result.stderr
        assert result.stdout.splitlines()[:4] == [
            "frobenius: 55", "genus: 32", "type: 2", "pf: 54,55"]

    @pytest.mark.parametrize("argv", [
        ("gaps", "--a", "400"), ("gaps", "--format", "csv", "--a", "400"),
        ("report", "--format", "json", "--a", "400"),
        ("apery", "--a", "5003")])
    def test_closed_stdout_exits_quietly(self, argv):
        # the reader takes one line, or its first 8 KiB, and closes the pipe,
        # as `| head -1` does; the plain listings (91656 gaps, about 0.6 MB,
        # and 5003 Apery elements) are each longer than one write
        proc = subprocess.Popen(
            [sys.executable, "-m", "apery.cli", *argv,
             "--b", "2", "--d", "1", "--k", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_env_with_package())
        assert proc.stdout.readline(8192)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (EXIT_OK, b"")

    def test_closed_stdout_keeps_the_verify_exit_code(self):
        # the pipe is closed before anything is written
        proc = subprocess.Popen(
            [sys.executable, "-m", "apery.cli", "verify", "--a-max", "6",
             "--budget", "3", "--inject-mismatch"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_env_with_package())
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (EXIT_MISMATCH, b"")

    def test_start_up_loads_only_what_the_command_reads(self):
        # in a fresh interpreter, as pytest itself loads json and dataclasses,
        # and with -S, as a site .pth file may preload typing: a quantity
        # command or orderly loads neither verify nor what only verify (the
        # pool machinery), JSON, CSV, the dataclasses module, typing or a
        # family listing (copy) would need
        script = textwrap.dedent("""
            import sys
            from apery import cli
            UNUSED = {"apery.verify", "dataclasses", "inspect", "json", "csv",
                      "concurrent.futures", "typing", "copy"}
            cli.build_parser()
            print(sorted(UNUSED & set(sys.modules)))
            cli.main(["frobenius", "--a", "7", "--b", "2", "--d", "1",
                      "--k", "2"])
            cli.main(["orderly", "--coins", "1,3,4"])
            print(sorted(UNUSED & set(sys.modules)))
            cli.main(["verify", "--a-max", "4", "--budget", "1"])
            print("apery.verify" in sys.modules)
        """)
        result = subprocess.run([sys.executable, "-S", "-c", script],
                                capture_output=True, text=True, timeout=60,
                                env=_env_with_package())
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[:5] == [
            "[]", "55", "non-orderly", "6", "[]"]
        assert result.stdout.splitlines()[-1] == "True"
