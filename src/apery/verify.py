"""Cross-checking harness: closed forms vs the shortest-path oracle.

cross_check sweeps a parameter grid and compares every closed quantity with
the oracle's value; property_suite spot-checks the three lemma-level facts
the closed forms rest on (orderliness of the repunit coin system, colex order
bounding weights, and monotonicity of the per-class candidate function).
Both emit the same report type, serializable for the CLI.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice
from math import gcd
from operator import sub
from random import Random

from .changemaking import _opt_counts_upto, _repunits, colex_compare, \
    greedy_count, greedy_presentation, is_orderly, repunit_coins, weight
from .closed_forms import FamilyParams, evaluate
from .core import residue_cap
from .errors import ConsistencyError, InvalidParamsError

# The monotonicity check compares each class's candidates at m = 0..5.
_MONOTONE_M_LIMIT = 5

# What one start and stop of a worker pool adds to a sweep: 13-15 ms for an
# empty 2-worker pool, 26-46 ms on grids of 250-760 cases run at jobs=2
# (2-core x86-64, Python 3.11).
_POOL_START_S = 0.05

SKIP_GCD = "gcd"
SKIP_INFEASIBLE = "oracle-infeasible"


@dataclass(frozen=True)
class GridSpec:
    """Inclusive parameter ranges and per-case toggles for cross_check."""

    a_range: tuple[int, int] = (2, 60)
    b_range: tuple[int, int] = (2, 5)
    d_range: tuple[int, int] = (1, 5)
    k_range: tuple[int, int] = (1, 4)
    check_pf: bool = False
    check_monotone: bool = False

    def __post_init__(self):
        for name, (lo, hi), floor in (("a", self.a_range, 2),
                                      ("b", self.b_range, 2),
                                      ("d", self.d_range, 1),
                                      ("k", self.k_range, 1)):
            if lo < floor:
                raise InvalidParamsError(
                    f"{name} range starts at {lo}, minimum is {floor}")
            if hi < lo:
                raise InvalidParamsError(f"empty {name} range ({lo}, {hi})")


@dataclass(frozen=True)
class Mismatch:
    """One disagreement: which case, which quantity, both values.

    params identifies the case; coordinates inside a case (a class index, an
    amount) are part of the quantity label so one case has one params key.
    """

    params: tuple[tuple[str, int], ...]
    quantity: str
    closed_value: object
    oracle_value: object

    def to_dict(self) -> dict:
        return {"params": dict(self.params), "quantity": self.quantity,
                "closed": self.closed_value, "oracle": self.oracle_value}


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a sweep; any mismatch fails the run.

    divergences is always empty: the closed forms hold on every grid point,
    so there is no case whose disagreement would be tolerated.  It stays in
    the report and its serializations for callers that read it.
    """

    cases_run: int
    cases_passed: int
    skipped: tuple[tuple[str, int], ...]
    mismatches: tuple[Mismatch, ...]
    divergences: tuple[Mismatch, ...]
    elapsed_seconds: float

    def __post_init__(self):
        object.__setattr__(self, "mismatches", tuple(self.mismatches))
        object.__setattr__(self, "divergences", tuple(self.divergences))
        object.__setattr__(self, "skipped", tuple(self.skipped))
        affected = len({m.params for m in self.mismatches})
        if self.cases_passed + affected != self.cases_run:
            raise ConsistencyError(
                f"passed {self.cases_passed} + affected {affected} "
                f"!= run {self.cases_run}")

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


def _param_items(p: FamilyParams) -> tuple[tuple[str, int], ...]:
    return (("a", p.a), ("b", p.b), ("d", p.d), ("k", p.k))


def _repunit_counts(b: int, k: int, top: int) -> list[int]:
    # min-coin counts over the repunits R_1..R_k for the amounts 0..top,
    # through an independent DP, not the greedy shortcut; a cell does not
    # depend on top, so a longer table serves every shorter need
    return _opt_counts_upto(_repunits(b, k, below=top + 1), top)


# the table of the current (b, k) block of a cross_check sweep, sized for
# its largest a; cross_check clears it before it returns
_block_counts = lru_cache(maxsize=1)(_repunit_counts)


def _monotone_records(p: FamilyParams, params: tuple[tuple[str, int], ...],
                      dp: list[int] | None = None) -> list[Mismatch]:
    # the per-class candidate value(M) = ((b-1)M + dp[M])a + Md at
    # M = r + m*a must be nondecreasing in m = 0..5; dp holds at least the
    # 6a cells 0..6a-1 and is built here when not given
    a, b, d = p.a, p.b, p.d
    cells = (_MONOTONE_M_LIMIT + 1) * a
    if dp is None:
        dp = _repunit_counts(b, p.k, cells - 1)
    # value(M+a) - value(M) = a*((b-1)a + d - (dp[M] - dp[M+a])), so the
    # candidate drops exactly where dp[M] - dp[M+a] exceeds (b-1)a + d
    rise = (b - 1) * a + d
    if max(map(sub, dp, islice(dp, a, cells))) <= rise:
        return []

    def value(big_m):
        return ((b - 1) * big_m + dp[big_m]) * a + big_m * d

    records = []
    for r in range(a):
        for m in range(1, _MONOTONE_M_LIMIT + 1):
            big_m = m * a + r
            if dp[big_m - a] - dp[big_m] > rise:
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


def _run_case(grid: GridSpec, top: int, case) -> list[Mismatch]:
    # top is the last DP cell that the grid's largest runnable a reads
    (a, b, d, k), inject = case
    p = FamilyParams(a=a, b=b, d=d, k=k)
    records = run_single(p, check_pf=grid.check_pf, inject_mismatch=inject)
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


def cross_check(grid: GridSpec = GridSpec(), *, jobs: int = 1,
                inject_mismatch: bool = False) -> VerifyReport:
    """Sweep the grid and compare closed forms with the oracle case by case.

    Cases with gcd(a, d) != 1 are skipped and counted first.  A case runs
    only when every table it builds fits the residue cap (residue_cap(),
    read once per sweep): the a residue classes of each Apery set, and with
    check_monotone the 6a DP cells of the candidate check.  The points above
    that are counted per d, not visited, so a huge a_range costs no more
    than its runnable part.  The cases of one (b, k) block are contiguous
    and read their DP cells from one shared table of 6*a_top cells, a_top
    being the largest a that runs; at most one table is held at a time,
    each worker process builds its own, and none is held once the sweep
    returns or raises.  The oracle accepts every other point, a < k-1
    included, as an ordinary case.  The report is deterministic for a fixed
    grid regardless of jobs (elapsed time aside); inject_mismatch corrupts
    the first case's Frobenius value to exercise the failure path end to
    end.

    jobs < 1 raises InvalidParamsError.  The sweep runs in this process
    first.  With jobs > 1, once it has run for a quarter of a process-pool
    start-up (_POOL_START_S) and the cases left would take, at its average
    rate so far, more than two start-ups, those cases go to
    min(jobs, os.cpu_count(), cases left) worker processes (in process when
    that is 1).  So a sweep a pool cannot speed up starts none, and no
    request starts more processes than the machine has cores.
    """
    if jobs < 1:
        raise InvalidParamsError(f"jobs must be >= 1, got {jobs}")
    started = time.perf_counter()
    tables = _MONOTONE_M_LIMIT + 1 if grid.check_monotone else 1
    limit = residue_cap() // tables
    a_lo, a_hi = grid.a_range
    above = max(a_lo, limit + 1)  # the first a whose tables exceed the cap
    d_values = range(grid.d_range[0], grid.d_range[1] + 1)
    cases = []
    skips = {SKIP_GCD: 0, SKIP_INFEASIBLE: 0}
    first = True
    for b in range(grid.b_range[0], grid.b_range[1] + 1):
        for k in range(grid.k_range[0], grid.k_range[1] + 1):
            for d in d_values:
                for a in range(a_lo, min(a_hi, limit) + 1):
                    if gcd(a, d) != 1:
                        skips[SKIP_GCD] += 1
                        continue
                    cases.append(((a, b, d, k), inject_mismatch and first))
                    first = False
    if above <= a_hi:
        # every (b, k) pair skips the same points above the limit
        pairs = (grid.b_range[1] - grid.b_range[0] + 1) \
            * (grid.k_range[1] - grid.k_range[0] + 1)
        for d in d_values:
            coprime = _coprime_upto(a_hi, d) - _coprime_upto(above - 1, d)
            skips[SKIP_GCD] += pairs * (a_hi - above + 1 - coprime)
            skips[SKIP_INFEASIBLE] += pairs * coprime

    # per-case cost spans 0.05 ms to 10 ms, so the rest is predicted from
    # the sweep's own clock, not from a case count, once a quarter of a
    # start-up has passed; two workers save half the rest, which pays for
    # a start-up only when the rest takes two
    workers = min(jobs, os.cpu_count() or 1)
    run_case = partial(_run_case, grid, tables * min(a_hi, limit) - 1)
    try:
        results = []
        for done, case in enumerate(cases):
            if workers > 1:
                elapsed = time.perf_counter() - started
                rest_s = elapsed / max(done, 1) * (len(cases) - done)
                if elapsed >= _POOL_START_S / 4 \
                        and rest_s >= 2 * _POOL_START_S:
                    break
            results.append(run_case(case))
        rest = cases[len(results):]
        workers = min(workers, len(rest))
        if workers > 1:
            # imported here: the pool machinery costs start-up time and memory
            # that every other use of the package would pay for nothing
            from concurrent.futures import ProcessPoolExecutor
            # four chunks per worker even out a few costly cases; at most 64
            # cases per chunk, as later cases of a grid cost more and the last
            # chunk must not leave the other workers idle for long
            chunksize = min(64, -(-len(rest) // (4 * workers)))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results.extend(pool.map(run_case, rest, chunksize=chunksize))
        else:
            results.extend(map(run_case, rest))
    finally:
        _block_counts.cache_clear()

    mismatches = sorted((m for records in results for m in records),
                        key=lambda m: (m.params, m.quantity))
    skipped = tuple(sorted((r, c) for r, c in skips.items() if c))
    return VerifyReport(cases_run=len(results),
                        cases_passed=results.count([]), skipped=skipped,
                        mismatches=tuple(mismatches), divergences=(),
                        elapsed_seconds=time.perf_counter() - started)


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
    optimal = _opt_counts_upto(coins.denominations, max(amounts))
    records = []
    for m in amounts:
        greedy = greedy_count(coins, m)
        if optimal[m] != greedy:
            records.append(Mismatch(params, f"orderly-amount[M={m}]",
                                    greedy, optimal[m]))
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
        a = rng.randint(2, 60)
        b = rng.randint(2, 5)
        d = rng.randint(1, 5)
        k = rng.randint(1, 4)
        # a >= k - 1 keeps the seeded draws that pinned tests and benchmark
        # requests replay; the closed forms need no such condition
        if gcd(a, d) == 1 and a >= k - 1:
            break
    p = FamilyParams(a=a, b=b, d=d, k=k)
    return _monotone_records(p, params + _param_items(p))


_PROPERTY_CHECKS = (_check_orderly, _check_colex_weight,
                    _check_monotone_sampled)


def property_suite(seed: int = 0, budget: int = 100) -> VerifyReport:
    """Run budget many sampled lemma checks; deterministic for a given seed.

    Checks rotate through orderliness, colex-weight monotonicity, and
    candidate monotonicity.  Any violation points at an implementation bug,
    since all three are proved facts.
    """
    if budget < 1:
        raise InvalidParamsError(f"budget must be >= 1, got {budget}")
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
