"""Verification harness tests: grid sweeps, skip accounting, injection,
property suite determinism."""
import concurrent.futures
import json
import os

import pytest

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


class TestGridSpec:
    def test_defaults(self):
        grid = GridSpec()
        assert grid.a_range == (2, 60)
        assert grid.b_range == (2, 5)
        assert grid.d_range == (1, 5)
        assert grid.k_range == (1, 4)
        assert grid.check_apery
        assert not grid.include_hypothesis_violations

    def test_range_validation(self):
        with pytest.raises(InvalidParamsError):
            GridSpec(a_range=(1, 10))
        with pytest.raises(InvalidParamsError):
            GridSpec(b_range=(1, 5))
        with pytest.raises(InvalidParamsError):
            GridSpec(d_range=(0, 5))
        with pytest.raises(InvalidParamsError):
            GridSpec(k_range=(3, 2))


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

    def test_hypothesis_skip_vs_include(self):
        base = GridSpec(a_range=(2, 2), b_range=(2, 2), d_range=(1, 1),
                        k_range=(4, 4))
        skipped = cross_check(base)
        assert dict(skipped.skipped).get("hypothesis") == 1
        assert skipped.cases_run == 0

        included = cross_check(GridSpec(a_range=(2, 2), b_range=(2, 2),
                                        d_range=(1, 1), k_range=(4, 4),
                                        include_hypothesis_violations=True))
        assert included.cases_run == 1
        assert included.ok  # divergences never fail the run

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

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -3):
            with pytest.raises(InvalidParamsError):
                cross_check(GridSpec(a_range=(2, 4)), jobs=jobs)

    def test_worker_count_clamped(self, monkeypatch):
        # records the pool size and maps in process: no real pool starts
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        grid = GridSpec(a_range=(2, 15))
        one_case = GridSpec(a_range=(2, 2), b_range=(2, 2), d_range=(1, 1),
                            k_range=(1, 1))
        serial = cross_check(grid, jobs=1)

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert cross_check(grid, jobs=10**6).cases_run == serial.cases_run
        assert cross_check(grid, jobs=3).cases_run == serial.cases_run
        assert cross_check(one_case, jobs=4).cases_run == 1
        assert sizes == [4, 3]  # the one-case sweep ran in process

        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cross_check(grid, jobs=8).mismatches == serial.mismatches
        assert sizes == [4, 3]

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

    def test_minimal_budget(self):
        assert property_suite(seed=3, budget=1).cases_run == 1

    def test_budget_validation(self):
        with pytest.raises(InvalidParamsError):
            property_suite(seed=0, budget=0)
