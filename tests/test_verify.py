"""Verification harness tests: grid sweeps, skip accounting, injection,
property suite determinism."""
import concurrent.futures
import itertools
import json
import os
import random
import subprocess
import sys
import time
from math import gcd

import pytest

from apery import closed_forms, verify
from apery import (
    ConsistencyError,
    FamilyParams,
    GridSpec,
    InvalidParamsError,
    Mismatch,
    VerifyReport,
    cross_check,
    property_suite,
    run_single,
)
from test_cli import _env_with_package


class TestGridSpec:
    def test_defaults(self):
        grid = GridSpec()
        assert grid.a_range == (2, 60)
        assert grid.b_range == (2, 5)
        assert grid.d_range == (1, 5)
        assert grid.k_range == (1, 4)
        assert not grid.check_pf
        assert not grid.check_monotone

    def test_range_validation(self):
        with pytest.raises(InvalidParamsError):
            GridSpec(a_range=(1, 10))
        with pytest.raises(InvalidParamsError):
            GridSpec(b_range=(1, 5))
        with pytest.raises(InvalidParamsError):
            GridSpec(d_range=(0, 5))
        with pytest.raises(InvalidParamsError):
            GridSpec(k_range=(3, 2))


@pytest.fixture
def pools(monkeypatch):
    """Replace the process pool by one that records (workers, chunk size,
    cases handed over) and maps in process, on a 4-core machine."""
    records = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            cases = list(iterable)
            records.append((self.workers, chunksize, len(cases)))
            return map(fn, cases)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return records


class TestCrossCheck:
    def test_pinned_case(self):
        report = cross_check(GridSpec(a_range=(5, 5), b_range=(2, 2),
                                      d_range=(1, 1), k_range=(2, 2)))
        assert report.cases_run == 1
        assert report.cases_passed == 1
        assert report.cases_skipped == 0
        assert report.ok
        assert not report.mismatches

    def test_small_grid_clean(self):
        report = cross_check(GridSpec(a_range=(2, 30)))
        assert report.ok
        assert report.cases_run > 500
        assert report.cases_passed == report.cases_run
        assert not report.divergences

    def test_gcd_cases_skipped(self):
        report = cross_check(GridSpec(a_range=(2, 10), b_range=(2, 2),
                                      d_range=(2, 2), k_range=(1, 1)))
        skips = dict(report.skipped)
        assert skips["gcd"] == 5  # even a in 2..10
        assert report.cases_run == 4  # odd a in 2..10

    def test_oracle_infeasible_cases_skipped(self, monkeypatch):
        monkeypatch.setenv("SEMIGROUP_ORACLE_CAP", "20")
        monkeypatch.setattr(verify, "_POOL_START_S", 0)
        for jobs in (1, 2):
            report = cross_check(GridSpec(a_range=(2, 40)), jobs=jobs)
            assert report.ok
            assert report.cases_run == report.cases_passed == 1040
            assert dict(report.skipped) == {"gcd": 976,
                                            "oracle-infeasible": 1104}

    def test_injection_lands_on_a_case_that_runs(self, monkeypatch):
        # the first point with gcd(a, d) = 1, a = 3, is above the cap
        monkeypatch.setenv("SEMIGROUP_ORACLE_CAP", "2")
        report = cross_check(GridSpec(a_range=(2, 3), b_range=(2, 2),
                                      d_range=(2, 3), k_range=(1, 1)),
                             inject_mismatch=True)
        assert dict(report.skipped) == {"gcd": 2, "oracle-infeasible": 1}
        assert [(dict(m.params), m.quantity) for m in report.mismatches] == [
            ({"a": 2, "b": 2, "d": 3, "k": 1}, "frobenius-injected")]

    def test_grid_above_the_oracle_limit_runs_nothing(self, monkeypatch):
        monkeypatch.setenv("SEMIGROUP_ORACLE_CAP", str(10**5))
        lo = 10**5 + 1
        report = cross_check(GridSpec(a_range=(lo, lo + 3), b_range=(2, 3),
                                      d_range=(1, 1), k_range=(1, 2)))
        assert (report.cases_run, report.cases_passed) == (0, 0)
        assert report.skipped == (("oracle-infeasible", 16),)
        assert report.ok

    def test_huge_a_range_counts_the_points_above_the_cap(self, monkeypatch):
        monkeypatch.setenv("SEMIGROUP_ORACLE_CAP", "20")
        small = cross_check(GridSpec(a_range=(2, 20)))
        huge = cross_check(GridSpec(a_range=(2, 10**12)))
        assert (huge.cases_run, huge.cases_passed) == \
            (small.cases_run, small.cases_passed) == (1040, 1040)
        assert huge.cases_skipped == 16 * 5 * (10**12 - 1) - 1040

    def test_skip_counts_match_a_point_by_point_count(self, monkeypatch):
        monkeypatch.setenv("SEMIGROUP_ORACLE_CAP", "20")
        grid = GridSpec(a_range=(7, 700), b_range=(2, 3), d_range=(1, 30),
                        k_range=(1, 2))
        expected = {"gcd": 0, "oracle-infeasible": 0}
        for d in range(1, 31):
            for a in range(7, 701):
                # the gcd test comes first, as in the sweep
                reason = "gcd" if gcd(a, d) != 1 else \
                    "oracle-infeasible" if a > 20 else None
                if reason:
                    expected[reason] += 2 * 2
        assert dict(cross_check(grid).skipped) == expected

    def test_monotone_check_needs_six_cells_per_class(self, monkeypatch):
        # its DP table has 6a cells, so a cap of 60 runs only a <= 10
        monkeypatch.setenv("SEMIGROUP_ORACLE_CAP", "60")
        grid = dict(a_range=(2, 20), b_range=(2, 2), d_range=(1, 1),
                    k_range=(1, 1))
        plain = cross_check(GridSpec(**grid))
        assert (plain.cases_run, plain.skipped) == (19, ())
        monotone = cross_check(GridSpec(**grid, check_monotone=True))
        assert (monotone.cases_run, monotone.cases_passed) == (9, 9)
        assert monotone.skipped == (("oracle-infeasible", 10),)

    def test_run_single_reaches_the_oracle_through_evaluate(self,
                                                            monkeypatch):
        # the oracle reads the family terms itself, as in the library and
        # the CLI, and never the full generator list
        def refuse(p):
            raise AssertionError("run_single built the generator list")
        monkeypatch.setattr(closed_forms, "build_generators", refuse)
        assert run_single(FamilyParams(a=41, b=3, d=3, k=3),
                          check_pf=True) == []

    def test_run_single_at_huge_k(self):
        started = time.perf_counter()
        assert run_single(FamilyParams(a=7, b=2, d=1, k=10**5),
                          check_pf=True) == []
        assert time.perf_counter() - started < 1.0

    def test_a_below_k_minus_1_is_an_ordinary_case(self):
        one = cross_check(GridSpec(a_range=(2, 2), b_range=(2, 2),
                                   d_range=(1, 1), k_range=(4, 4)))
        assert (one.cases_run, one.cases_passed, one.skipped) == (1, 1, ())
        assert one.ok
        # a corrupted closed value there fails the run like anywhere else
        bad = cross_check(GridSpec(a_range=(2, 2), b_range=(2, 2),
                                   d_range=(1, 1), k_range=(4, 4)),
                          inject_mismatch=True)
        assert not bad.ok
        assert [m.quantity for m in bad.mismatches] == ["frobenius-injected"]

    def test_a_below_k_minus_1_grid_clean(self):
        # k up to 14 puts a < k-1 on 66 of the 154 (a, k) pairs
        report = cross_check(GridSpec(a_range=(2, 12), b_range=(2, 4),
                                      d_range=(1, 4), k_range=(1, 14),
                                      check_pf=True, check_monotone=True))
        assert report.ok
        assert report.cases_run == report.cases_passed == 1176
        assert dict(report.skipped) == {"gcd": 672}
        assert not report.divergences

    def test_optional_checks_run_clean(self):
        report = cross_check(GridSpec(a_range=(2, 12), check_pf=True,
                                      check_monotone=True))
        assert report.ok
        assert not report.divergences

    def test_inject_mismatch(self):
        grid = GridSpec(a_range=(2, 6), b_range=(2, 2), d_range=(1, 1),
                        k_range=(1, 1))
        report = cross_check(grid, inject_mismatch=True)
        assert not report.ok
        assert len(report.mismatches) == 1
        mismatch = report.mismatches[0]
        assert mismatch.quantity == "frobenius-injected"
        assert mismatch.closed_value == mismatch.oracle_value + 1
        assert report.cases_passed == report.cases_run - 1

    def test_mismatch_reruns_in_isolation(self):
        grid = GridSpec(a_range=(2, 6), b_range=(2, 2), d_range=(1, 1),
                        k_range=(1, 1))
        report = cross_check(grid, inject_mismatch=True)
        mismatch = report.mismatches[0]
        params = dict(mismatch.params)
        p = FamilyParams(**params)
        again = run_single(p, inject_mismatch=True)
        assert len(again) == 1
        assert again[0] == mismatch
        # and the same point is clean without the injection
        assert run_single(p) == []

    def test_jobs_do_not_change_the_report(self):
        grid = GridSpec(a_range=(2, 15))
        serial = cross_check(grid, jobs=1)
        parallel = cross_check(grid, jobs=3)
        assert serial.cases_run == parallel.cases_run
        assert serial.cases_passed == parallel.cases_passed
        assert serial.skipped == parallel.skipped
        assert serial.mismatches == parallel.mismatches

    def test_workers_do_not_change_the_report(self, monkeypatch):
        # with a free pool start-up every case goes to real worker processes
        monkeypatch.setattr(verify, "_POOL_START_S", 0)
        # the monotone check's workers build their own (b, k) block tables
        for grid, inject in itertools.product(
                (GridSpec(a_range=(2, 12), check_pf=True),
                 GridSpec(a_range=(2, 14), check_monotone=True)),
                (False, True)):
            serial = cross_check(grid, jobs=1, inject_mismatch=inject)
            parallel = cross_check(grid, jobs=2, inject_mismatch=inject)
            assert serial.cases_run == parallel.cases_run
            assert serial.cases_passed == parallel.cases_passed
            assert serial.skipped == parallel.skipped
            assert serial.mismatches == parallel.mismatches
            assert len(parallel.mismatches) == inject

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -3):
            with pytest.raises(InvalidParamsError):
                cross_check(GridSpec(a_range=(2, 4)), jobs=jobs)

    def test_worker_count_clamped(self, pools, monkeypatch):
        grid = GridSpec(a_range=(2, 15))
        tiny = GridSpec(a_range=(2, 6))
        one_case = GridSpec(a_range=(2, 2), b_range=(2, 2), d_range=(1, 1),
                            k_range=(1, 1))
        serial = cross_check(grid, jobs=1)
        assert serial.cases_run == 768

        # a sweep shorter than a quarter of a pool start-up starts none
        assert cross_check(tiny, jobs=4).ok
        assert pools == []

        monkeypatch.setattr(verify, "_POOL_START_S", 0)
        assert cross_check(grid, jobs=10**6).cases_run == serial.cases_run
        assert cross_check(grid, jobs=3).cases_run == serial.cases_run
        assert cross_check(one_case, jobs=4).cases_run == 1
        assert cross_check(grid, jobs=2).cases_run == serial.cases_run
        # the one-case sweep ran in process; four chunks per worker,
        # ceil(768 / 16) and ceil(768 / 12), and at most 64 cases per chunk
        assert pools == [(4, 48, 768), (3, 64, 768), (2, 64, 768)]

        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cross_check(grid, jobs=8).mismatches == serial.mismatches
        assert len(pools) == 3

    def test_pool_starts_when_the_rest_is_long(self, pools, monkeypatch):
        # a clock that advances 1 ms per reading; the sweep reads it once
        # when it starts and once before each case
        ticks = itertools.count()
        monkeypatch.setattr(verify.time, "perf_counter",
                            lambda: next(ticks) / 1000)
        short = GridSpec(a_range=(2, 14), b_range=(2, 2), d_range=(1, 1))
        # past the 12.5 ms warm-up the rest never looks like 100 ms
        assert cross_check(short, jobs=2).cases_run == 52
        assert pools == []
        # before case 13, 13 ms have passed and the other 756 cases look
        # like 819 ms, so those go to two workers
        assert cross_check(GridSpec(a_range=(2, 15)), jobs=2).ok
        assert pools == [(2, 64, 756)]

    def test_short_sweep_does_not_load_process_pool(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys; from apery import GridSpec, cross_check; "
             "assert cross_check(GridSpec(a_range=(2, 6)), jobs=2).ok; "
             "print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True, env=_env_with_package(),
            timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_report_serializes(self):
        report = cross_check(GridSpec(a_range=(2, 8)))
        payload = json.dumps(report.to_dict())
        round_tripped = json.loads(payload)
        assert round_tripped["cases_run"] == report.cases_run
        assert round_tripped["mismatches"] == []


def _naive_monotone(p, dp):
    # the per-class loop over m = 0..5: the first drop of each class
    a, b, d = p.a, p.b, p.d
    records = []
    for r in range(a):
        prev = None
        for m in range(6):
            big_m = m * a + r
            value = ((b - 1) * big_m + dp[big_m]) * a + big_m * d
            if prev is not None and value < prev:
                records.append((f"ndr-monotone[r={r},m={m}]", value, prev))
                break
            prev = value
    return records


class TestMonotoneCheck:
    def test_records_match_a_per_class_loop(self):
        rng = random.Random(12)
        with_drops = 0
        for _ in range(200):
            a, b, d, k = (rng.randint(2, 30), rng.randint(2, 4),
                          rng.randint(1, 4), rng.randint(1, 4))
            if gcd(a, d) != 1:
                continue
            p = FamilyParams(a=a, b=b, d=d, k=k)
            # a longer table than the check needs, as a sweep's block has,
            # with a few cells raised so that value(M+a) < value(M) can follow
            dp = verify._repunit_counts(b, k, 6 * a + 20)
            for _ in range(rng.randint(1, 5)):
                dp[rng.randrange(6 * a)] += rng.randint(1, 6 * a)
            expected = _naive_monotone(p, dp)
            got = verify._monotone_records(p, (("a", a),), dp)
            assert [(m.quantity, m.closed_value, m.oracle_value)
                    for m in got] == expected
            assert all(m.params == (("a", a),) for m in got)
            with_drops += bool(expected)
        assert with_drops > 50

    def test_sweep_reports_a_drop(self, monkeypatch):
        real = verify._opt_counts_upto

        def dipped(coins, top):
            dp = real(coins, top)
            dp[3] += 20  # value(3 + a) < value(3) for every a of the grid
            return dp

        monkeypatch.setattr(verify, "_opt_counts_upto", dipped)
        grid = GridSpec(a_range=(2, 4), b_range=(2, 2), d_range=(1, 1),
                        k_range=(1, 2), check_monotone=True)
        report = cross_check(grid)
        assert (report.cases_run, report.cases_passed) == (6, 0)
        # the drop is at M = 3: class r = 3 mod a, from m = 3 // a to the next
        # (at k = 1 and k = 2 alike)
        assert [(dict(m.params)["a"], m.quantity)
                for m in report.mismatches] == [
            (2, "ndr-monotone[r=1,m=2]"), (2, "ndr-monotone[r=1,m=2]"),
            (3, "ndr-monotone[r=0,m=2]"), (3, "ndr-monotone[r=0,m=2]"),
            (4, "ndr-monotone[r=3,m=1]"), (4, "ndr-monotone[r=3,m=1]")]
        again = run_single(FamilyParams(a=3, b=2, d=1, k=1),
                           check_monotone=True)
        assert again == [m for m in report.mismatches
                         if m.params == (("a", 3), ("b", 2), ("d", 1),
                                         ("k", 1))]

    def test_one_table_per_b_k_block(self, monkeypatch):
        tops = []
        real = verify._opt_counts_upto
        monkeypatch.setattr(verify, "_opt_counts_upto",
                            lambda coins, top: tops.append(top)
                            or real(coins, top))
        grid = GridSpec(a_range=(2, 12), b_range=(2, 3), d_range=(1, 3),
                        k_range=(1, 2), check_monotone=True)
        report = cross_check(grid)
        assert report.ok and report.cases_run == 2 * 2 * 23
        # each block's table has 6 * 12 cells, for its largest a
        assert tops == [71] * 4

    def test_no_table_outlives_the_sweep(self, monkeypatch):
        grid = GridSpec(a_range=(2, 12), check_monotone=True)
        assert cross_check(grid).ok
        assert verify._block_counts.cache_info().currsize == 0
        # nor one that fails part way
        calls = []
        real = verify.run_single

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise ConsistencyError("stop")
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, "run_single", failing)
        with pytest.raises(ConsistencyError):
            cross_check(grid)
        assert verify._block_counts.cache_info().currsize == 0


class TestVerifyReportInvariant:
    def test_counts_must_balance(self):
        bogus = Mismatch((("a", 5),), "frobenius", 1, 2)
        with pytest.raises(ConsistencyError):
            VerifyReport(cases_run=3, cases_passed=3, skipped=(),
                         mismatches=(bogus,), divergences=(),
                         elapsed_seconds=0.0)

    def test_balanced_report_accepted(self):
        bogus = Mismatch((("a", 5),), "frobenius", 1, 2)
        report = VerifyReport(cases_run=3, cases_passed=2, skipped=(),
                              mismatches=(bogus,), divergences=(),
                              elapsed_seconds=0.0)
        assert not report.ok


class TestPropertySuite:
    def test_deterministic_for_seed(self):
        first = property_suite(seed=7, budget=24)
        second = property_suite(seed=7, budget=24)
        assert first.cases_run == second.cases_run == 24
        assert first.cases_passed == second.cases_passed
        assert first.mismatches == second.mismatches

    def test_clean_at_default_seed(self):
        report = property_suite(seed=0, budget=100)
        assert report.cases_run == 100
        assert report.cases_passed == 100
        assert not report.mismatches

    def test_orderly_amounts_pinned(self, monkeypatch):
        # a greedy count one too high flags every sampled amount, so the
        # labels show which amounts each seed draws, in draw order
        real = verify.greedy_count
        monkeypatch.setattr(verify, "greedy_count",
                            lambda coins, m: real(coins, m) + 1)
        pinned = {
            0: [332, 2122, 4189, 3981, 3318, 894, 2470, 4516, 2385, 1023,
                2725, 3491, 510, 825, 1199, 4663, 4167, 2552, 2926, 3184],
            3: [3031, 4948, 3884, 4759, 537, 4439, 4686, 4663, 853, 1730,
                4752, 2580, 165, 3085, 4827, 2283, 2787, 701, 2829, 4830],
            7: [3235, 396, 594, 4390, 772, 968, 4194, 3426, 1352, 2803,
                1240, 1901, 1912, 99, 3973, 1682, 4328, 2964, 1201, 4450],
        }
        for seed, amounts in pinned.items():
            report = property_suite(seed=seed, budget=12)
            assert [m.quantity for m in report.mismatches] == [
                f"orderly-amount[M={m}]" for m in amounts]
            assert report.cases_passed == 8

    def test_minimal_budget(self):
        assert property_suite(seed=3, budget=1).cases_run == 1

    def test_budget_validation(self):
        with pytest.raises(InvalidParamsError):
            property_suite(seed=0, budget=0)
