"""Cross-checking harness: closed forms vs the shortest-path oracle.

cross_check sweeps a parameter grid and compares every closed quantity with
the oracle's value.  property_suite spot-checks steps of the closed_forms
proof: orderliness of the repunit coins (step 2), monotone candidates per
class (step 3) and opt(x-1) <= opt(x) + b - 1 (step 4, behind step 5 and
the closed F); and the paper's lemma, unused by that proof, that colex
order bounds the weights.  Both emit one report type, serializable for the CLI.
"""
from __future__ import annotations

import os
import time
from functools import lru_cache, partial
from itertools import chain, islice
from math import gcd
from operator import sub
from random import Random

from .changemaking import _opt_counts_upto, _repunit_walk, colex_compare, \
    greedy_count, greedy_presentation, is_orderly, repunit_coins, weight
from .closed_forms import _FLOORS, FamilyParams, _param_items, evaluate
from .core import _Frozen, check_int, residue_cap
from .errors import ConsistencyError

# The monotonicity check compares each class's candidates at m = 0..5.
_MONOTONE_M_LIMIT = 5

# What one start and stop of a worker pool adds to a sweep: 13-15 ms for an
# empty 2-worker pool, 26-46 ms on grids of 250-760 cases run at jobs=2
# (2-core x86-64, Python 3.11).
_POOL_START_S = 0.05

# How many cases a pool is handed at once: 64 chunks of at most 64 cases.
_POOL_BATCH = 4096

SKIP_GCD = "gcd"
SKIP_INFEASIBLE = "oracle-infeasible"


class GridSpec(_Frozen):
    """Inclusive parameter ranges and per-case toggles for cross_check."""

    _fields = ("a_range", "b_range", "d_range", "k_range", "check_pf",
               "check_monotone")

    def __init__(self, a_range=(2, 60), b_range=(2, 5), d_range=(1, 5),
                 k_range=(1, 4), check_pf=False, check_monotone=False):
        vars(self).update(a_range=a_range, b_range=b_range, d_range=d_range,
                          k_range=k_range, check_pf=check_pf,
                          check_monotone=check_monotone)
        for name, floor in _FLOORS.items():
            lo, hi = getattr(self, f"{name}_range")
            check_int(lo, f"{name} range start", floor)
            check_int(hi, f"{name} range end", lo)


# read by cross_check, the CLI's verify command and _check_monotone_sampled
DEFAULT_GRID = GridSpec()


class Mismatch(_Frozen):
    """One disagreement: which case, which quantity, both values.

    params identifies the case; coordinates inside a case (a class index, an
    amount) are part of the quantity label so one case has one params key.
    """

    _fields = ("params", "quantity", "closed_value", "oracle_value")

    def __init__(self, params: tuple[tuple[str, int], ...], quantity: str,
                 closed_value, oracle_value):
        vars(self).update(params=params, quantity=quantity,
                          closed_value=closed_value, oracle_value=oracle_value)

    def to_dict(self) -> dict:
        return {"params": dict(self.params), "quantity": self.quantity,
                "closed": self.closed_value, "oracle": self.oracle_value}


class VerifyReport(_Frozen):
    """Outcome of a sweep; any mismatch fails the run.

    divergences is always empty: the closed forms hold on every grid point,
    so there is no case whose disagreement would be tolerated.  It stays in
    the report and its serializations for callers that read it.
    """

    _fields = ("cases_run", "cases_passed", "skipped", "mismatches",
               "divergences", "elapsed_seconds")

    def __init__(self, cases_run: int, cases_passed: int,
                 skipped: tuple[tuple[str, int], ...],
                 mismatches: tuple[Mismatch, ...],
                 divergences: tuple[Mismatch, ...], elapsed_seconds: float):
        mismatches = tuple(mismatches)
        affected = len({m.params for m in mismatches})
        if cases_passed + affected != cases_run:
            raise ConsistencyError(
                f"passed {cases_passed} + affected {affected} != run {cases_run}")
        vars(self).update(cases_run=cases_run, cases_passed=cases_passed,
                          skipped=tuple(skipped), mismatches=mismatches,
                          divergences=tuple(divergences),
                          elapsed_seconds=elapsed_seconds)

    @property
    def cases_skipped(self) -> int:
        return sum(count for _, count in self.skipped)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "cases_run": self.cases_run,
            "cases_passed": self.cases_passed,
            "cases_skipped": self.cases_skipped,
            "skipped": dict(self.skipped),
            "mismatches": [m.to_dict() for m in self.mismatches],
            "divergences": [m.to_dict() for m in self.divergences],
            "elapsed_seconds": self.elapsed_seconds,
        }


def _repunit_counts(b: int, k: int, top: int) -> list[int]:
    # min-coin counts over the repunits R_1..R_k for the amounts 0..top,
    # through an independent DP, not the greedy shortcut; a cell does not
    # depend on top, so a longer table serves every shorter need
    return _opt_counts_upto(sorted(_repunit_walk(b, k, top + 1)), top)


# the table of the current (b, k) block of a cross_check sweep, sized for
# its largest a; cross_check clears it before it returns
_block_counts = lru_cache(maxsize=1)(_repunit_counts)


def _monotone_records(p: FamilyParams, params: tuple[tuple[str, int], ...],
                      dp: list[int] | None = None) -> list[Mismatch]:
    # the per-class candidate value(M) = dp[M]*a + M*step at M = r + m*a
    # must be nondecreasing in m = 0..5; dp holds at least the 6a cells
    # 0..6a-1 and is built here when not given
    a, step = p.a, p.step
    cells = (_MONOTONE_M_LIMIT + 1) * a
    if dp is None:
        dp = _repunit_counts(p.b, p.k, cells - 1)
    # value(M+a) - value(M) = a*(step - (dp[M] - dp[M+a])), so the
    # candidate drops exactly where dp[M] - dp[M+a] exceeds step
    if max(map(sub, dp, islice(dp, a, cells))) <= step:
        return []

    def value(big_m):
        return dp[big_m] * a + big_m * step

    records = []
    for r in range(a):
        for m in range(1, _MONOTONE_M_LIMIT + 1):
            big_m = m * a + r
            if dp[big_m - a] - dp[big_m] > step:
                records.append(Mismatch(params, f"ndr-monotone[r={r},m={m}]",
                                        value(big_m), value(big_m - a)))
                break
    return records


def run_single(p: FamilyParams, *, check_pf: bool = False,
               check_monotone: bool = False,
               inject_mismatch: bool = False) -> list[Mismatch]:
    """Compare F, g, the Apery set and the requested extras for one point.

    Both engines come from evaluate(p, ...), as in the library and the CLI.
    Returns the list of disagreement records (empty on full agreement); used
    by cross_check workers and for isolated re-runs of reported mismatches.
    """
    params = _param_items(p)
    closed = evaluate(p, "closed")
    oracle = evaluate(p, "oracle")
    # (quantity, closed value, oracle value); unequal pairs are mismatches
    compared = [("frobenius", closed.frobenius, oracle.frobenius),
                ("genus", closed.genus, oracle.genus)]
    if inject_mismatch:
        compared[0] = ("frobenius-injected", closed.frobenius + 1,
                       oracle.frobenius)
    if closed.minima != oracle.apery.minima:
        compared.append(next(
            (f"apery[r={r}]", cv, ov) for r, (cv, ov)
            in enumerate(zip(closed.minima, oracle.apery.minima)) if cv != ov))
    if check_pf:
        compared.append(("pf", list(closed.pf), list(oracle.pf)))
    records = [Mismatch(params, quantity, cv, ov)
               for quantity, cv, ov in compared if cv != ov]
    if check_monotone:
        records.extend(_monotone_records(p, params))
    return records


def _run_case(grid: GridSpec, top: int, injected, case) -> list[Mismatch]:
    # top is the last DP cell that the grid's largest runnable a reads;
    # injected is the case whose Frobenius value is corrupted, or None
    a, b, d, k = case
    p = FamilyParams(a, b, d, k)
    records = run_single(p, check_pf=grid.check_pf,
                         inject_mismatch=case == injected)
    if grid.check_monotone:
        records.extend(_monotone_records(p, _param_items(p),
                                         _block_counts(b, k, top)))
    return records


def _coprime_upto(n: int, d: int) -> int:
    # how many of 1..n are coprime to d: inclusion-exclusion over the
    # squarefree divisors e of d, with Moebius sign
    divisors = [(1, 1)]
    q = 2
    while q * q <= d:
        if d % q == 0:
            divisors += [(e * q, -sign) for e, sign in divisors]
            while d % q == 0:
                d //= q
        q += 1
    if d > 1:
        divisors += [(e * d, -sign) for e, sign in divisors]
    return sum(sign * (n // e) for e, sign in divisors)


def cross_check(grid: GridSpec = DEFAULT_GRID, *, jobs: int = 1,
                inject_mismatch: bool = False) -> VerifyReport:
    """Sweep the grid and compare closed forms with the oracle case by case.

    Every grid point falls in one of three groups.  It runs, a < k-1
    included, when gcd(a, d) = 1 and a <= a_top, the largest a whose
    tables fit the residue cap (residue_cap(), read once per sweep): the a
    residue classes of each Apery set, and with check_monotone the 6a DP
    cells of the candidate check.  The coprime points above a_top are
    skipped as oracle-infeasible, counted per d and never visited, so a
    huge a_range costs no more than its runnable part.  The rest have
    gcd(a, d) > 1 and are skipped as gcd.  The cases of one (b, k) block
    are contiguous and read their DP cells from one shared table of
    6*a_top cells; at most one table is held at a time, each worker
    process builds its own, and none is held once the sweep returns or
    raises.  The cases are generated one at a time in (b, k, d, a) order
    and only the counts and the mismatches are kept, so a sweep's memory
    does not grow with its b, d or k ranges.  The report is deterministic
    for a fixed grid regardless of jobs (elapsed time aside);
    inject_mismatch corrupts the first case's Frobenius value to exercise
    the failure path end to end.

    jobs < 1 raises InvalidParamsError.  The sweep runs in this process
    first.  With jobs > 1, once it has run for a quarter of a process-pool
    start-up (_POOL_START_S) and the points left with a <= a_top (a bound
    on the cases left) would take, at its average rate so far, more than
    two start-ups, the cases left go to min(jobs, os.cpu_count(), cases in
    the first batch) worker processes, _POOL_BATCH cases at a time (in
    process when that is 1).  So a sweep a pool cannot speed up starts
    none, and no request starts more processes than the machine has cores.
    """
    check_int(jobs, "jobs", 1)
    started = time.perf_counter()
    tables = _MONOTONE_M_LIMIT + 1 if grid.check_monotone else 1
    a_lo, a_hi = grid.a_range
    a_top = min(a_hi, residue_cap() // tables)
    b_values, d_values, k_values = (range(lo, hi + 1) for lo, hi in (
        grid.b_range, grid.d_range, grid.k_range))
    pairs = len(b_values) * len(k_values)
    # the coprime points in below+1..a_hi, the same for every (b, k) pair;
    # only counted when there are any, as _coprime_upto costs O(sqrt(d))
    below = max(a_top, a_lo - 1)
    above = pairs * sum(_coprime_upto(a_hi, d) - _coprime_upto(below, d)
                        for d in d_values) if a_top < a_hi else 0
    points = pairs * len(d_values) * (a_hi - a_lo + 1)
    # the points with a <= a_top: a bound on the cases, which are not listed
    runnable = pairs * len(d_values) * max(a_top - a_lo + 1, 0)

    def cases():
        return ((a, b, d, k) for b in b_values for k in k_values
                for d in d_values for a in range(a_lo, a_top + 1)
                if gcd(a, d) == 1)

    injected = next(cases(), None) if inject_mismatch else None
    run_case = partial(_run_case, grid, tables * a_top - 1, injected)
    workers = min(jobs, os.cpu_count() or 1)
    mismatches = []
    cases_run = cases_passed = 0
    try:
        for records in _results(run_case, cases(), workers, runnable,
                                started):
            cases_run += 1
            cases_passed += not records
            mismatches += records
    finally:
        _block_counts.cache_clear()

    mismatches.sort(key=lambda m: (m.params, m.quantity))
    skips = {SKIP_GCD: points - cases_run - above, SKIP_INFEASIBLE: above}
    skipped = tuple(sorted((r, c) for r, c in skips.items() if c))
    return VerifyReport(cases_run=cases_run, cases_passed=cases_passed,
                        skipped=skipped, mismatches=tuple(mismatches),
                        divergences=(),
                        elapsed_seconds=time.perf_counter() - started)


def _results(run_case, cases, workers: int, runnable: int, started: float):
    # each case's records, in case order.  per-case cost spans 0.05 ms to
    # 10 ms, so the rest is predicted from the sweep's own clock, not from a
    # case count, once a quarter of a start-up has passed; two workers save
    # half the rest, which pays for a start-up only when the rest takes two
    for done, case in enumerate(cases):
        if workers > 1:
            elapsed = time.perf_counter() - started
            rest_s = elapsed / max(done, 1) * (runnable - done)
            if elapsed >= _POOL_START_S / 4 and rest_s >= 2 * _POOL_START_S:
                yield from _pool_results(run_case, chain((case,), cases),
                                         workers)
                return
        yield run_case(case)


def _pool_results(run_case, cases, workers: int):
    # the cases go to the pool _POOL_BATCH at a time, so that neither they
    # nor their futures are ever all held; the first batch caps the workers
    batch = list(islice(cases, _POOL_BATCH))
    workers = min(workers, len(batch))
    if workers < 2:
        yield from map(run_case, batch)
        return
    # imported here: the pool machinery costs start-up time and memory that
    # every other use of the package would pay for nothing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        while batch:
            # four chunks per worker even out a few costly cases; at most 64
            # cases per chunk, as later cases of a grid cost more and the
            # last chunk must not leave the other workers idle for long
            chunksize = min(64, -(-len(batch) // (4 * workers)))
            yield from pool.map(run_case, batch, chunksize=chunksize)
            batch = list(islice(cases, _POOL_BATCH))


def _check_orderly(rng: Random,
                   params: tuple[tuple[str, int], ...]) -> list[Mismatch]:
    b = rng.randint(2, 10)
    k = rng.randint(1, 8)
    coins = repunit_coins(b, k)
    params = params + (("b", b), ("k", k))
    verdict = is_orderly(coins)
    if not verdict.orderly:
        return [Mismatch(params, "orderly", False, True)]
    # spot-check greedy optimality at desk-sized amounts with the DP oracle;
    # a table's cell for M does not depend on its length, so one serves all
    amounts = [rng.randint(1, 5000) for _ in range(5)]
    optimal = _repunit_counts(b, k, max(amounts))
    records = []
    for m in amounts:
        greedy = greedy_count(coins, m)
        if optimal[m] != greedy:
            records.append(Mismatch(params, f"orderly-amount[M={m}]",
                                    greedy, optimal[m]))
    # proof step 4 on the same table: opt(x-1) - opt(x) <= b - 1
    if max(map(sub, optimal, islice(optimal, 1, None))) > b - 1:
        x = next(x for x in range(1, len(optimal))
                 if optimal[x - 1] - optimal[x] > b - 1)
        records.append(Mismatch(params, f"opt-drop[x={x}]",
                                optimal[x - 1] - optimal[x], b - 1))
    return records


def _check_colex_weight(rng: Random,
                        params: tuple[tuple[str, int], ...]) -> list[Mismatch]:
    b = rng.randint(2, 5)
    k = rng.randint(1, 5)
    params = params + (("b", b), ("k", k))
    records = []
    for _ in range(40):
        r1 = rng.randint(0, 2000)
        r2 = rng.randint(0, 2000)
        x1 = greedy_presentation(b, k, r1)
        x2 = greedy_presentation(b, k, r2)
        if colex_compare(x1.digits, x2.digits) <= 0 \
                and weight(x1) > weight(x2):
            records.append(Mismatch(params, f"colex-weight[{r1},{r2}]",
                                    weight(x1), weight(x2)))
    return records


def _check_monotone_sampled(rng: Random,
                            params: tuple[tuple[str, int], ...]
                            ) -> list[Mismatch]:
    while True:
        # drawn from the default grid, in the order a, b, d, k
        a, b, d, k = (rng.randint(*getattr(DEFAULT_GRID, f"{name}_range"))
                      for name in _FLOORS)
        if gcd(a, d) == 1:
            break
    p = FamilyParams(a, b, d, k)
    return _monotone_records(p, params + _param_items(p))


_PROPERTY_CHECKS = (_check_orderly, _check_colex_weight,
                    _check_monotone_sampled)


def property_suite(seed: int = 0, budget: int = 100) -> VerifyReport:
    """Run budget many sampled lemma checks; deterministic for a given seed.

    Checks rotate through orderliness with the step-4 bound, colex-weight
    monotonicity, and candidate monotonicity.  Any violation points at an
    implementation bug, since all of them are proved facts.
    """
    check_int(budget, "budget", 1)
    started = time.perf_counter()
    rng = Random(seed)
    mismatches: list[Mismatch] = []
    passed = 0
    for i in range(budget):
        check = _PROPERTY_CHECKS[i % len(_PROPERTY_CHECKS)]
        records = check(rng, (("case", i),))
        if records:
            mismatches.extend(records)
        else:
            passed += 1
    return VerifyReport(cases_run=budget, cases_passed=passed, skipped=(),
                        mismatches=tuple(mismatches), divergences=(),
                        elapsed_seconds=time.perf_counter() - started)
