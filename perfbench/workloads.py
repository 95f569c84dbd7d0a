"""Seeded request pools for the four workloads.

A workload is a pool of requests drawn from the seed, replayed in a fresh
seeded shuffle per pass until the run's time is up.  Pools are stratified
(sizes spread evenly over each bound's log range, families and generator
counts taken in rotation) so that two seeds give pools of similar cost; the
spread across seeds is what the run-to-run bounds have to absorb.

Every bound below is set by a cost or defect of the package at the commit
that defined the benchmark; NOTES.md lists them.  They are disclosed limits,
not coverage, and widening one is a benchmark-only change.
"""
from __future__ import annotations

import hashlib
import math
from math import gcd
from random import Random

from .checks import coprime, family_abdk, family_gens

WORKLOADS = ("closed-lib", "oracle-gens", "cli-mixed", "verify-sweep")

FAMILIES = ("mersenne", "thabit", "gu-ze-tang", "song-gt", "liu-xin",
            "repunit", "gu-ze", "thabit-base-b")

# closed-lib: operation -> (share of the pool, log2 a window).
# frobenius_closed is polynomial in bit length, so it goes to 600 bits.
# genus_closed is O(a*k) and apery_closed materializes a list: a <= 2^12.
# report_closed on non-repunit shapes runs the O(a^2) PF scan: a <= 2^10.
CLOSED_OPS = {
    "frobenius": (0.40, (3.0, 600.0)),
    "genus": (0.25, (3.0, 12.0)),
    "apery": (0.15, (3.0, 12.0)),
    "report": (0.20, (3.0, 10.0)),
}
CLOSED_POOL = 960

# oracle-gens: least generator log-uniform over [100, 3000], stratified per
# count of 2-5 further generators in (a, 4a].  PF is O(a^2) there: with a up
# to 2*10^4 single requests took up to 0.9 s, and a run held too few of them
# for its cost to be much the same from one seed to the next.
ORACLE_A = (100, 3_000)
ORACLE_EXTRA_GENS = (2, 3, 4, 5)
ORACLE_SPAN = 4
ORACLE_POOL = 768

# cli-mixed: every quantity subcommand builds a full report, PF included
# (O(a^2)), so --a/--gens inputs stay at a <= 200; gaps/report list every
# gap and the gap count grows like a^2, so those keep a <= 40.
CLI_A_MAX = 200
CLI_GAPS_A_MAX = 40
CLI_FIELDS = ("frobenius", "genus", "pf", "apery", "gaps", "report")
CLI_FORMATS = ("plain", "json", "csv")
CLI_POOL = 480

# verify-sweep: grids of a <= 96 (a <= 48 with check_pf, whose PF step is
# O(a^2) per case) and b, d, k <= 3.  A sweep costs about
# (b-1)*d*k * a_max^power; that cost is stratified per kind over its range.
# Property suites have budgets of 3-12; each orderliness case runs five DPs
# of up to 5001 cells.
SWEEP_KINDS = (("plain", (700, 9000), 2, 96), ("pf", (4000, 100_000), 3, 48),
               ("monotone", (700, 9000), 2, 96))
PROPS_BUDGET = (3, 12)


def _log_targets(rng: Random, count: int, lo: float, hi: float) -> list[float]:
    # one uniform draw per equal-width stratum, in shuffled order
    targets = [lo + (i + rng.random()) * (hi - lo) / count for i in range(count)]
    rng.shuffle(targets)
    return targets


def _rotation(rng: Random, items, count: int) -> list:
    out = []
    while len(out) < count:
        block = list(items)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def _draw_family(rng: Random, name: str, bits: float):
    """Fixed parameters, then (name, least value) of the free exponent."""
    if name == "mersenne":
        return {}, "n", 2
    if name == "thabit":
        return {}, "n", 1
    if name == "gu-ze-tang":  # needs m <= 2^n
        low = next(n for n in range(1, 64) if n + 2**n >= bits)
        return {"n": rng.randint(low, max(low, min(40, round(bits) - 2)))}, \
            "m", 2
    if name == "song-gt":  # n = 0 gives a = 2 for every m
        return {"n": rng.randint(1, max(1, min(40, round(bits) - 2)))}, "m", 2
    if name == "liu-xin":
        return {"m": rng.randint(1, 32), "d": rng.choice((1, 2, 3))}, "k", 3
    least = 2 if name == "repunit" else 0
    return {"b": rng.randint(2, max(2, min(40, int(2**bits))))}, "n", least


def family_instance(rng: Random, name: str, bits: float, max_bits: float):
    """Instance of a family with log2 a nearest `bits`, a below 2^max_bits.

    a grows with the free exponent, so each scan stops past max_bits; a draw
    whose fixed parameters admit no valid a (say gcd(a, d) > 1) is redrawn.
    """
    while True:
        fixed, free, value = _draw_family(rng, name, bits)
        best, best_gap = None, math.inf
        while name != "gu-ze-tang" or value <= 2**fixed["n"]:
            params = dict(fixed, **{free: value})
            a, b, d, k = family_abdk(name, params)
            size = math.log2(a)
            if size > max_bits:
                break
            if gcd(a, d) == 1 and abs(size - bits) < best_gap:
                best, best_gap = params, abs(size - bits)
            value += 1
        if best is not None:
            return tuple(sorted(best.items()))


def closed_lib_pool(rng: Random) -> list[tuple]:
    # every family gets an equal share of each operation, its sizes
    # stratified over the operation's window
    pool = []
    for op, (share, (lo, hi)) in CLOSED_OPS.items():
        per_family = round(share * CLOSED_POOL / len(FAMILIES))
        for family in FAMILIES:
            pool.extend(("closed", op, family,
                         family_instance(rng, family, target, hi))
                        for target in _log_targets(rng, per_family, lo, hi))
    rng.shuffle(pool)
    return pool


def _family_shaped(gens: list[int]) -> bool:
    # (a, ba+d, ..., b^k a + R_k d) for some b >= 2, d >= 1
    a, second = gens[0], gens[1]
    for b in range(2, second // a + 1):
        d = second - b * a
        if d >= 1 and gcd(a, d) == 1 and \
                sorted(family_gens(a, b, d, len(gens) - 1)) == gens:
            return True
    return False


def random_gens(rng: Random, a: int, extra: int, span: int) -> tuple[int, ...]:
    """a plus `extra` generators in (a, span*a], one per equal slice of that
    range; coprime and not family-shaped."""
    width = (span - 1) * a / extra
    while True:
        gens = sorted({a} | {a + 1 + int((j + rng.random()) * width)
                             for j in range(extra)})
        if len(gens) == extra + 1 and coprime(gens) and not _family_shaped(gens):
            return tuple(gens)


def oracle_gens_pool(rng: Random) -> list[tuple]:
    # a is stratified separately for each generator count
    lo, hi = (math.log(v) for v in ORACLE_A)
    per_count = ORACLE_POOL // len(ORACLE_EXTRA_GENS)
    pool = [("gens", random_gens(rng, round(math.exp(t)), extra, ORACLE_SPAN))
            for extra in ORACLE_EXTRA_GENS
            for t in _log_targets(rng, per_count, lo, hi)]
    rng.shuffle(pool)
    return pool


def _cli_params(rng: Random, a_max: int) -> tuple[int, int, int, int]:
    while True:
        a = rng.randint(3, a_max)
        b, k, d = rng.randint(2, 4), rng.randint(1, 4), rng.randint(1, 6)
        if gcd(a, d) == 1:
            return a, b, d, k


# family subcommand instances whose records stay at a <= 400
_CLI_FAMILY_RANGES = (
    ("mersenne", {}, (2, 8)),
    ("thabit", {}, (1, 6)),
    ("gu-ze-tang", {"m": 2}, (1, 6)),
    ("song-gt", {"m": 3}, (0, 4)),
    ("repunit", {"b": 3}, (2, 5)),
    ("gu-ze", {"b": 2}, (0, 6)),
    ("thabit-base-b", {"b": 3}, (0, 4)),
)


def _cli_request(rng: Random, kind: str) -> tuple:
    fmt = rng.choice(CLI_FORMATS)
    if kind == "quantity":
        field = rng.choice(CLI_FIELDS)
        a_max = CLI_GAPS_A_MAX if field in ("gaps", "report") else CLI_A_MAX
        source = rng.choice(("closed", "oracle", "gens"))
        if source == "gens":
            a = rng.randint(5, a_max)
            gens = random_gens(rng, a, rng.randint(2, 4), 3)
            argv = (field, "--gens", ",".join(map(str, gens)))
        else:
            a, b, d, k = _cli_params(rng, a_max)
            argv = (field, "--a", str(a), "--b", str(b), "--d", str(d),
                    "--k", str(k), "--engine", source)
    elif kind == "family":
        engine = rng.choice(("closed", "oracle"))
        if rng.random() < 1 / 8:
            m, k = rng.randint(1, 3), rng.randint(3, 5)
            argv = ("family", "liu-xin", "--m", str(m), "--k", str(k))
        else:
            name, fixed, (lo, hi) = rng.choice(_CLI_FAMILY_RANGES)
            start = rng.randint(lo, hi)
            stop = rng.randint(start, hi)
            argv = ("family", name, "--n-range", f"{start}..{stop}")
            for key, value in fixed.items():
                argv += (f"--{key}", str(value))
        argv += ("--engine", engine)
    else:
        coins = sorted({1} | {rng.randint(2, 100)
                              for _ in range(rng.randint(1, 5))})
        argv = ("orderly", "--coins", ",".join(map(str, coins)))
    return ("cli",) + argv + ("--format", fmt)


def cli_mixed_pool(rng: Random) -> list[tuple]:
    kinds = _rotation(rng, ["quantity"] * 6 + ["family", "orderly"], CLI_POOL)
    return [_cli_request(rng, kind) for kind in kinds]


def verify_sweep_pool(rng: Random) -> list[tuple]:
    # a quarter property suites; every (b_max, d_max, k_max) shape is used
    # once per sweep kind, jobs alternating between 1 and 2
    shapes = [(b, d, k) for b in (2, 3) for d in (1, 2, 3) for k in (1, 2, 3)]
    budgets = range(PROPS_BUDGET[0], PROPS_BUDGET[1] + 1)
    pool = [("props", rng.randrange(2**31), budget)
            for budget in _rotation(rng, budgets, len(shapes))]
    for kind, (lo, hi), power, a_cap in SWEEP_KINDS:
        order = _rotation(rng, shapes, len(shapes))
        targets = _log_targets(rng, len(shapes), math.log(lo), math.log(hi))
        for i, ((b, d, k), t) in enumerate(zip(order, targets)):
            a_max = round((math.exp(t) / ((b - 1) * d * k)) ** (1 / power))
            pool.append(("sweep", min(max(a_max, 6), a_cap), b, d, k,
                         kind == "pf", kind == "monotone", 1 + i % 2))
    rng.shuffle(pool)
    return pool


_POOLS = {
    "closed-lib": closed_lib_pool,
    "oracle-gens": oracle_gens_pool,
    "cli-mixed": cli_mixed_pool,
    "verify-sweep": verify_sweep_pool,
}


def make_pool(workload: str, seed: int) -> list[tuple]:
    """The request pool of a workload; the same seed gives the same pool."""
    return _POOLS[workload](Random(f"{workload}:{seed}"))


def replay(pool: list[tuple], seed: int):
    """Endless stream of pool indices: one fresh seeded shuffle per pass."""
    rng = Random(f"order:{seed}")
    order = list(range(len(pool)))
    while True:
        rng.shuffle(order)
        yield from order


def request_digest(workload: str, seed: int, count: int = 1000) -> str:
    """sha256 of the first `count` requests of a run, for reproducibility."""
    pool = make_pool(workload, seed)
    stream = replay(pool, seed)
    text = repr([pool[next(stream)] for _ in range(count)])
    return hashlib.sha256(text.encode()).hexdigest()
