"""Verification harness tests: grid sweeps, skip accounting, injection,
property suite determinism."""
import concurrent.futures
import itertools
import json
import os
import subprocess
import sys

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

    def test_grid_above_the_oracle_limit_runs_nothing(self):
        lo = verify.ORACLE_GRID_LIMIT + 1
        report = cross_check(GridSpec(a_range=(lo, lo + 3), b_range=(2, 3),
                                      d_range=(1, 1), k_range=(1, 2)))
        assert (report.cases_run, report.cases_passed) == (0, 0)
        assert report.skipped == (("oracle-infeasible", 16),)
        assert report.ok

    def test_run_single_builds_the_generators_once(self, monkeypatch):
        calls = []
        real = closed_forms.build_generators
        monkeypatch.setattr(closed_forms, "build_generators",
                            lambda p: calls.append(p) or real(p))
        assert run_single(FamilyParams(a=41, b=3, d=3, k=3),
                          check_pf=True) == []
        assert len(calls) == 1

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
        grid = GridSpec(a_range=(2, 12), check_pf=True)
        for inject in (False, True):
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
