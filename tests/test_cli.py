"""CLI contract tests: output formats, exit codes, record round-trips."""
import csv
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

from apery import cli, core, frobenius_closed, genus_closed, \
    report_closed, repunit_general_frobenius, repunit_params, thabit
from apery.closed_forms import ClosedEvaluation
from apery.cli import (
    EXIT_INFEASIBLE,
    EXIT_INVALID,
    EXIT_MISMATCH,
    EXIT_OK,
    OutputRecord,
    main,
    parse_record,
    serialize_record,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert "unknown family" in err

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
        # thabit(40) has a = 3 * 2^40 - 1: the cap check on the Apery set
        # needed for PF must refuse before the O(a*k) genus series starts
        result = subprocess.run(
            [sys.executable, "-m", "apery.cli", "family", "thabit",
             "--n", "40"],
            capture_output=True, text=True, env=_env_with_package(),
            timeout=60)
        assert result.returncode == EXIT_INFEASIBLE
        assert result.stdout == ""

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

    @pytest.mark.parametrize("command", ["frobenius", "genus"])
    def test_plain_scalar_computes_only_itself(self, capsys, monkeypatch,
                                               builds, command):
        # thabit(7) has a = 383, above this cap: plain F and g need no
        # Apery set, while a JSON record carries PF, which does
        p = thabit(7)
        monkeypatch.setenv("SEMIGROUP_ORACLE_CAP", "100")
        argv = [command, "--a", str(p.a), "--b", str(p.b), "--d", str(p.d),
                "--k", str(p.k)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        expected = {"frobenius": frobenius_closed, "genus": genus_closed}
        assert out == f"{expected[command](p)}\n"
        assert builds == []
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert "cap" in err


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

    def test_n_range_with_fixed_base(self, capsys):
        code, out, _ = run_cli(capsys, "family", "repunit", "--b", "3",
                               "--n-range", "2..3", "--format", "json")
        assert code == EXIT_OK
        records = json.loads(out)["records"]
        assert [r["frobenius"] for r in records] == [35, 27 * 13 - 1]

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
        assert parse_record(serialize_record(record)) == record


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
            assert parse_record(serialize_record(record)) == record

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
        text = serialize_record(record)
        assert parse_record(text) == record
        raw = json.loads(text)
        encoded = [raw["frobenius"], raw["genus"], *raw["pf"]]
        for v, enc in zip([max(pf), genus, *pf], encoded):
            assert enc == (v if -(2**63) <= v < 2**63 else str(v))

    def test_round_trip_past_4300_digits(self, digit_limit):
        # outside main too, both lift Python's int/str digit limit while
        # they run and then put it back
        p = repunit_params(10**1500, 2)
        record = OutputRecord(input={"a": p.a, "b": p.b, "d": p.d, "k": p.k},
                              apery=(0, p.a + 1), **vars(report_closed(p)))
        text = serialize_record(record)
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
        assert parse_record(serialize_record(record)) == record


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

    def test_import_does_not_load_process_pool(self):
        # the pool machinery is imported only when cross_check starts a pool
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, apery, apery.cli; "
             "print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True, env=_env_with_package())
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"
