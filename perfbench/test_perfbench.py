"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import apery  # noqa: E402
from perfbench import checks as ck  # noqa: E402
from perfbench import hostspeed  # noqa: E402
from perfbench.runner import run, run_phase  # noqa: E402
from perfbench.workloads import (WORKLOADS, make_pool, replay,  # noqa: E402
                                 request_digest)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY = {"seconds": 0.2, "warmup": 0.05, "min_requests": 12}


@pytest.fixture(scope="module", params=WORKLOADS)
def tiny_runs(request):
    workload = request.param
    return workload, run(workload, 3, trace=False, **TINY), \
        run(workload, 3, trace=True, **TINY)


def test_spec_names_and_units():
    for group in ("workloads", "end_to_end", "per_layer"):
        names = [entry["name"] for entry in SPEC[group]]
        assert len(names) == len(set(names))
        assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s"}


def test_every_metric_printed_with_unit(tiny_runs):
    _, plain, traced = tiny_runs
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]
              if m["name"] != "setup_s"}
    assert {k: u for k, (_, u) in plain["metrics"].items()} == wanted
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: u for k, (_, u) in traced["metrics"].items()} == wanted


def test_tiny_runs_are_correct(tiny_runs):
    _, plain, traced = tiny_runs
    for result in (plain, traced):
        assert result["attempted"] >= TINY["min_requests"]
        assert result["failed"] == 0, result["failures"]
        assert result["kinds"]


def test_layer_times_account_for_traced_wall(tiny_runs):
    _, _, traced = tiny_runs
    metrics = {k: v for k, (v, _) in traced["metrics"].items()}
    shares = [metrics[f"{layer}.share"] for layer in
              ("core", "closed_forms", "changemaking", "families", "verify",
               "cli", "bench")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-6)
    assert all(share >= 0 for share in shares)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_answer_raises_failed_frac(workload):
    result = run(workload, 3, trace=False, corrupt=0, **TINY)
    assert result["failed"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_request_list(workload):
    assert request_digest(workload, 7, 300) == request_digest(workload, 7, 300)
    assert request_digest(workload, 7, 300) != request_digest(workload, 8, 300)
    assert make_pool(workload, 7) == make_pool(workload, 7)


def test_probe_windows_cover_every_request():
    pool = make_pool("closed-lib", 3)
    phase = run_phase("closed-lib", pool, replay(pool, 3), 1.2, {},
                      probe=True)
    assert len(phase.scales) == len(phase.window_walls) >= 2
    assert len(phase.windows) == len(phase.latencies)
    assert set(phase.windows) <= set(range(len(phase.scales)))
    assert phase.wall == pytest.approx(sum(phase.window_walls))
    assert phase.scaled_wall() > 0
    ref = hostspeed.PROBE_REF_S
    assert hostspeed.window_scales([2 * ref, 2 * ref, ref]) == \
        pytest.approx([0.5, 2 / 3])


def test_sieve_and_successor_test_agree_with_oracle():
    for gens in ((5, 11, 23), (7, 9, 15), (11, 13, 17, 19), (2, 3)):
        report = apery.semigroup_report(gens)
        expected = (report.frobenius, report.genus, tuple(report.pf))
        assert ck.sieve_invariants(gens, report.frobenius) == expected
        minima = apery.apery_set(gens).minima
        assert ck.invariants_from_minima(minima, gens) == expected
    assert ck.sieve_invariants((5, 11, 23), 28) == (None, None, None)


def test_family_definitions_match_library():
    for name, params in (("thabit", {"n": 5}), ("song-gt", {"n": 2, "m": 3}),
                         ("liu-xin", {"m": 2, "k": 4, "d": 3}),
                         ("gu-ze", {"b": 3, "n": 2}),
                         ("thabit-base-b", {"b": 4, "n": 2})):
        p = apery.resolve(apery.FamilySpec(name, params))
        assert ck.family_abdk(name, params) == (p.a, p.b, p.d, p.k)
        assert ck.rederived_frobenius(p.a, p.b, p.d, p.k) == \
            apery.frobenius_closed(p)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-lib",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
