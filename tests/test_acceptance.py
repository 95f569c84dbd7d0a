"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

All comparisons are exact integer equality; no tolerances apply anywhere.
Criteria 1 and 7 also carry wall-clock budgets (60 s and 120 s) which are
asserted, not just observed.
"""
import json
import time
from math import gcd

from apery import (
    FamilyParams,
    GridSpec,
    apery_closed,
    apery_set,
    build_generators,
    cross_check,
    frobenius_closed,
    frobenius_from_apery,
    genus_closed,
    genus_from_apery,
    greedy_count,
    greedy_presentation,
    is_orderly,
    mersenne,
    opt_count,
    pseudo_frobenius_closed,
    pseudo_frobenius_from_apery,
    repunit_coins,
    repunit_general_frobenius,
    repunit_general_genus,
    repunit_value,
    weight,
)
from apery.cli import EXIT_INVALID, EXIT_MISMATCH, EXIT_OK, main
from apery.verify import _monotone_records, _param_items


def _verdict(number, description, ok):
    print(f"criterion {number} ({description}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_oracle_equivalence_grid():
    started = time.perf_counter()
    report = cross_check(GridSpec(), jobs=1)
    elapsed = time.perf_counter() - started
    ok = (report.ok
          and report.cases_run > 1000
          and report.cases_passed == report.cases_run
          and elapsed < 60.0)
    _verdict(1, f"oracle-equivalence grid, {report.cases_run} cases "
                f"in {elapsed:.1f}s", ok)


def test_criterion_2_worked_instances():
    expected = [((5, 2, 1, 2), 29, 16),
                ((7, 3, 2, 2), 110, 57),
                ((3, 2, 1, 1), 11, 6)]
    ok = True
    for (a, b, d, k), frob, genus in expected:
        p = FamilyParams(a=a, b=b, d=d, k=k)
        ape = apery_set(build_generators(p))
        ok &= frobenius_closed(p) == frob == frobenius_from_apery(ape)
        ok &= genus_closed(p) == genus == genus_from_apery(ape)
    _verdict(2, "worked instances (5,2,1,2) (7,3,2,2) (3,2,1,1)", ok)


def _repunit_grid():
    for b in range(2, 6):
        for n in range(2, 7):
            a = repunit_value(b, n)
            for d in range(1, 5):
                if gcd(a, d) == 1:
                    yield b, n, d, a


def test_criterion_3_repunit_specialization():
    ok = True
    for b, n, d, a in _repunit_grid():
        p = FamilyParams(a=a, b=b, d=d, k=n - 1)
        frob = repunit_general_frobenius(b, n, d)
        genus = repunit_general_genus(b, n, d)
        ok &= frob == frobenius_closed(p)
        ok &= genus == genus_closed(p)
        if a <= 10**5:
            ape = apery_set(build_generators(p))
            ok &= frob == frobenius_from_apery(ape)
            ok &= genus == genus_from_apery(ape)
    for n in range(2, 7):
        ok &= frobenius_closed(mersenne(n)) == 2**(2 * n) - 2**n - 1
    _verdict(3, "repunit specialization grid incl. Mersenne shape", ok)


def test_criterion_4_pseudo_frobenius():
    ok = True
    for b, n, d, a in _repunit_grid():
        if a > 10**5:
            continue
        p = FamilyParams(a=a, b=b, d=d, k=n - 1)
        pf, t = pseudo_frobenius_closed(b, n, d)
        oracle_pf = pseudo_frobenius_from_apery(
            apery_set(build_generators(p)))
        ok &= pf == oracle_pf
        ok &= t == n - 1 == len(oracle_pf)
    frozen_pf = pseudo_frobenius_from_apery(apery_set([7, 15, 31]))
    ok &= frozen_pf == [54, 55] and len(frozen_pf) == 2
    _verdict(4, "pseudo-Frobenius sets and type n-1", ok)


def test_criterion_5_genus_variant_discrepancy():
    oracle_genus = genus_from_apery(apery_set([4, 13]))
    implemented = repunit_general_genus(3, 2, 1)
    # the rejected printed variant reads (b^n / 2)((b^n-1)/(b-1) + n - 1);
    # at b=3, n=2 its numerator is 45, which is not even 2 * genus
    variant_numerator = 3**2 * ((3**2 - 1) // (3 - 1) + 2 - 1)
    ok = (oracle_genus == 18
          and implemented == 18
          and variant_numerator == 45
          and variant_numerator != 2 * oracle_genus)
    _verdict(5, "documented genus variant detected and rejected", ok)


def test_criterion_6_change_making():
    ok = True
    for b in range(2, 11):
        for k in range(1, 9):
            verdict = is_orderly(repunit_coins(b, k))
            ok &= verdict.orderly and verdict.counterexample is None
    # exhaustive cross-validation where the top coin is desk-sized
    for b in range(2, 11):
        for k in range(1, 9):
            coins = repunit_coins(b, k)
            top = coins.denominations[-1]
            if top > 50:
                continue
            limit = 2 * top * top
            optimal = list(range(limit + 1))
            for c in coins.denominations[1:]:
                for m in range(c, limit + 1):
                    if optimal[m - c] + 1 < optimal[m]:
                        optimal[m] = optimal[m - c] + 1
            ok &= all(optimal[m] == greedy_count(coins, m)
                      for m in range(1, limit + 1))
    verdict = is_orderly([1, 3, 4])
    cx = verdict.counterexample
    ok &= not verdict.orderly
    ok &= cx is not None and opt_count([1, 3, 4], cx) < \
        greedy_count([1, 3, 4], cx)
    _verdict(6, "repunit systems orderly, (1,3,4) refuted", ok)


def test_criterion_7_lemma_property_suites():
    started = time.perf_counter()
    ok = True
    # colex order must sort weights, exhaustively
    for b in range(2, 6):
        for k in range(1, 6):
            entries = [greedy_presentation(b, k, m) for m in range(5001)]
            entries.sort(key=lambda p: tuple(reversed(p.digits)))
            weights = [weight(p) for p in entries]
            ok &= weights == sorted(weights)
    # candidate monotonicity on sampled parameters, m in [0, 5]
    samples = [(a, b, d, k)
               for a in (2, 3, 7, 12, 25, 41, 60)
               for b in (2, 3, 5)
               for d in (1, 2, 5)
               for k in (1, 2, 4)
               if gcd(a, d) == 1]
    for a, b, d, k in samples:
        p = FamilyParams(a=a, b=b, d=d, k=k)
        ok &= _monotone_records(p, _param_items(p)) == []
    elapsed = time.perf_counter() - started
    ok &= elapsed < 120.0
    _verdict(7, f"colex-weight and candidate monotonicity in {elapsed:.1f}s",
             ok)


def test_criterion_8_cli_contract(capsys):
    base = ["report", "--a", "5", "--b", "2", "--d", "1", "--k", "2",
            "--format", "json"]
    code_closed = main(base + ["--engine", "closed"])
    out_closed = capsys.readouterr().out
    code_oracle = main(base + ["--engine", "oracle"])
    out_oracle = capsys.readouterr().out

    def numeric_fields(text):
        record = json.loads(text)
        return json.dumps({key: record[key] for key in
                           ("frobenius", "genus", "type", "pf", "apery",
                            "gaps")})

    ok = (code_closed == EXIT_OK and code_oracle == EXIT_OK
          and numeric_fields(out_closed) == numeric_fields(out_oracle))

    code_bad = main(["report", "--a", "5", "--b", "2"])
    capsys.readouterr()
    ok &= code_bad == EXIT_INVALID
    code_bad_int = main(["frobenius", "--gens", "5,x"])
    capsys.readouterr()
    ok &= code_bad_int == EXIT_INVALID

    code_inject = main(["verify", "--a-max", "6", "--budget", "3",
                        "--inject-mismatch"])
    capsys.readouterr()
    ok &= code_inject == EXIT_MISMATCH
    _verdict(8, "CLI engine agreement and exit codes", ok)
