"""One run of one workload: timed loop, optional traced loop, answer checks.

Requests run one after another in this process (a closed loop with one
client); only ``cross_check(jobs=2)`` starts processes, and it waits for them.
Every answer is checked after the timed region, once per distinct request;
repeated requests must reproduce the first answer exactly.
"""
from __future__ import annotations

import csv
import io
import json
import math
import resource
import statistics
import time
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import gcd

import apery
import apery.cli
import apery.core

from . import checks as ck
from . import hostspeed
from .tracing import LAYERS, PRODUCES, Tracer
from .workloads import make_pool, replay

MIN_REQUESTS = 100
# the first second of a fresh process runs slow; it is run but not timed
WARMUP_S = 1.0
REPORT_FIELDS = ("frobenius", "genus", "type", "pf")


# ---------------------------------------------------------------- requests

def _report_tuple(report) -> tuple:
    return (report.frobenius, report.genus, tuple(report.pf), report.type,
            report.engine)


def _run_closed(req, jobs):
    _, op, family, params = req
    p = apery.resolve(apery.FamilySpec(family, dict(params)))
    value = getattr(apery, f"{op}_closed")(p)
    if op == "apery":
        return value.minima
    if op == "report":
        return _report_tuple(value)
    return value


def _run_oracle(req, jobs):
    return _report_tuple(apery.semigroup_report(req[1]))


class _Sink(io.TextIOBase):
    """Text stream that keeps what is written; the CLI writes ASCII only."""

    def __init__(self):
        self.parts: list[str] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)


def _run_cli(req, jobs):
    out, err = _Sink(), _Sink()
    with redirect_stdout(out), redirect_stderr(err):
        code = apery.cli.main(list(req[1:]))
    return code, "".join(out.parts)


def _sweep_grid(req):
    _, a_max, b_max, d_max, k_max, check_pf, check_monotone, _ = req
    return apery.GridSpec(a_range=(2, a_max), b_range=(2, b_max),
                          d_range=(1, d_max), k_range=(1, k_max),
                          check_pf=check_pf, check_monotone=check_monotone)


def _run_verify(req, jobs):
    if req[0] == "props":
        report = apery.property_suite(seed=req[1], budget=req[2])
    else:
        report = apery.cross_check(_sweep_grid(req), jobs=jobs or req[-1])
    return (report.cases_run, report.cases_passed, report.skipped,
            len(report.mismatches), len(report.divergences))


EXECUTORS = {
    "closed-lib": _run_closed,
    "oracle-gens": _run_oracle,
    "cli-mixed": _run_cli,
    "verify-sweep": _run_verify,
}


def _cases(req, answer) -> int:
    """Semigroups a request evaluated (grid cases for a sweep)."""
    if req[0] == "sweep":
        return answer[0] if answer else 0
    if req[0] == "props":
        return 0
    if req[0] == "cli" and "--n-range" in req:
        lo, hi = req[req.index("--n-range") + 1].split("..")
        return int(hi) - int(lo) + 1
    return 1


# ---------------------------------------------------------------- timing

@dataclass
class Phase:
    indices: list[int] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    digests: list[int] = field(default_factory=list)
    errors: dict[int, str] = field(default_factory=dict)
    case_counts: list[int] = field(default_factory=list)
    wall: float = 0.0
    # with host-speed probes: window of each request, wall and scale per window
    windows: list[int] = field(default_factory=list)
    window_walls: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)

    def scaled_latencies(self) -> list[float]:
        return [latency * self.scales[w]
                for latency, w in zip(self.latencies, self.windows)]

    def scaled_wall(self) -> float:
        return sum(w * s for w, s in zip(self.window_walls, self.scales))


def run_phase(workload, pool, order, seconds, first, *, jobs=None,
              tracer=None, corrupt=None, min_requests=MIN_REQUESTS,
              probe=False) -> Phase:
    """Run requests in `order` until `seconds` have passed (None: all).

    `first` maps a pool index to the first answer seen for it; `corrupt`
    is a position whose answer is replaced, to exercise the checks.  With
    `probe`, the host-speed probe runs between requests every
    PROBE_EVERY_S; the phase's wall then leaves the probes out.
    """
    execute = EXECUTORS[workload]
    phase = Phase()
    clock = time.perf_counter
    probes = [hostspeed.probe()] if probe else []
    started = window_start = clock()
    for pos, idx in enumerate(order):
        req = pool[idx]
        if tracer is not None:
            tracer.request_id = pos
            root = tracer.begin("bench.request", "bench")
        t0 = clock()
        try:
            answer = execute(req, jobs)
        except Exception as exc:  # a failed request is counted, not fatal
            answer = None
            phase.errors[pos] = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if tracer is not None:
            tracer.end(root)
        phase.case_counts.append(_cases(req, answer))
        if pos == corrupt:
            answer = ("corrupted", answer)
        if pos not in phase.errors:
            first.setdefault(idx, answer)
        phase.indices.append(idx)
        phase.latencies.append(t1 - t0)
        phase.digests.append(hash(answer))
        if probe:
            phase.windows.append(len(phase.window_walls))
            if t1 - window_start >= hostspeed.PROBE_EVERY_S:
                phase.window_walls.append(clock() - window_start)
                probes.append(hostspeed.probe())
                window_start = clock()
        if seconds is not None and t1 - started >= seconds \
                and pos + 1 >= min_requests:
            break
    phase.wall = clock() - started
    if probe:
        phase.window_walls.append(clock() - window_start)
        probes.append(hostspeed.probe())
        phase.scales = hostspeed.window_scales(probes)
        phase.wall = sum(phase.window_walls)
    return phase


# ---------------------------------------------------------------- checks

class Checker:
    """Checks one answer per distinct request against an independent source."""

    def __init__(self, workload: str):
        self.workload = workload
        self._minima: dict[tuple, tuple] = {}
        self._library: dict[tuple, dict] = {}
        self.printed: dict[int, set] = {}

    def oracle_minima(self, gens) -> tuple:
        key = tuple(gens)
        if key not in self._minima:
            self._minima[key] = apery.core.apery_set(gens).minima
        return self._minima[key]

    def check(self, idx: int, req: tuple, answer) -> tuple[str, bool]:
        return getattr(self, "_" + self.workload.replace("-", "_"))(
            idx, req, answer)

    def _closed_lib(self, idx, req, answer):
        _, op, family, params = req
        a, b, d, k = ck.family_abdk(family, dict(params))
        if op == "frobenius":
            n = ck.repunit_exponent(a, b, k)
            if n is not None:
                return ck.REPUNIT, \
                    answer == apery.repunit_general_frobenius(b, n, d)
            if a > ck.ORACLE_CHECK_MAX_A:
                return ck.REDERIVED, \
                    answer == ck.rederived_frobenius(a, b, d, k)
        gens = ck.family_gens(a, b, d, k)
        minima = self.oracle_minima(gens)
        frob, genus, pf = ck.invariants_from_minima(minima, gens)
        expected = {"frobenius": frob, "genus": genus, "apery": minima,
                    "report": (frob, genus, pf, len(pf),
                               apery.ENGINE_CLOSED)}[op]
        return ck.ORACLE, answer == expected

    def _oracle_gens(self, idx, req, answer):
        frob, genus, pf, type_, engine = answer
        sieved = ck.sieve_invariants(req[1], frob)
        if sieved is None:
            return ck.UNCHECKED, True
        return ck.SIEVE, sieved == (frob, genus, pf) and \
            type_ == len(pf) and engine == apery.ENGINE_ORACLE

    def _verify_sweep(self, idx, req, answer):
        if req[0] == "props":
            budget = req[2]
            return ck.COUNTS, answer == (budget, budget, (), 0, 0)
        _, a_max, b_max, d_max, k_max = req[:5]
        run = skip_gcd = skip_hyp = 0
        for b in range(2, b_max + 1):
            for k in range(1, k_max + 1):
                for d in range(1, d_max + 1):
                    for a in range(2, a_max + 1):
                        if gcd(a, d) != 1:
                            skip_gcd += 1
                        elif a < k - 1:
                            skip_hyp += 1
                        else:
                            run += 1
        skipped = tuple((r, c) for r, c in (("gcd", skip_gcd),
                                             ("hypothesis", skip_hyp)) if c)
        return ck.COUNTS, answer == (run, run, skipped, 0, 0)

    def _cli_mixed(self, idx, req, answer):
        code, text = answer
        argv = req[1:]
        fmt = argv[argv.index("--format") + 1]
        if argv[0] == "orderly":
            coins = [int(c) for c in argv[argv.index("--coins") + 1].split(",")]
            self.printed[idx] = {"orderly"}
            return ck.LIBRARY, code == 0 and \
                _parse_orderly(text, fmt) == tuple(apery.is_orderly(coins))
        if argv[0] == "family":
            records = _parse_family(text, fmt)
            self.printed[idx] = set(REPORT_FIELDS)
            return ck.LIBRARY, code == 0 and \
                records == self._family_expected(argv)
        shown = _parse_quantities(argv[0], text, fmt)
        self.printed[idx] = set(shown)
        expected = self._quantities_expected(argv)
        wanted = {"frobenius": {"frobenius"}, "genus": {"genus"},
                  "pf": {"pf"}, "apery": {"apery"}, "gaps": {"gaps"},
                  "report": set(REPORT_FIELDS) | {"apery", "gaps"}}
        if fmt != "plain":
            wanted = {c: set(REPORT_FIELDS) | (s & {"apery", "gaps"})
                      for c, s in wanted.items()}
        return ck.LIBRARY, code == 0 and set(shown) == wanted[argv[0]] and \
            all(expected[q] == v for q, v in shown.items())

    def _quantities_expected(self, argv) -> dict:
        key = argv[1:argv.index("--format")]
        if key not in self._library:
            opts = dict(zip(key[::2], key[1::2]))
            if "--gens" in opts:
                gens = apery.GeneratorList(
                    int(g) for g in opts["--gens"].split(","))
                report, ape = apery.semigroup_report(gens), apery.apery_set(gens)
            else:
                p = apery.FamilyParams(*(int(opts[f"--{n}"]) for n in "abdk"))
                if opts["--engine"] == "closed":
                    report, ape = apery.report_closed(p), apery.apery_closed(p)
                else:
                    gens = apery.build_generators(p)
                    report = apery.semigroup_report(gens)
                    ape = apery.apery_set(gens)
            self._library[key] = {
                "frobenius": report.frobenius, "genus": report.genus,
                "type": report.type, "pf": tuple(report.pf),
                "apery": tuple(ape.minima), "gaps": tuple(apery.gaps(ape))}
        return self._library[key]

    def _family_expected(self, argv) -> list:
        opts = dict(zip(argv[2::2], argv[3::2]))
        name, engine = argv[1], opts.pop("--engine")
        opts.pop("--format")
        fixed = {k[2:]: int(v) for k, v in opts.items() if k != "--n-range"}
        if "--n-range" in opts:
            lo, hi = map(int, opts["--n-range"].split(".."))
            instances = [dict(fixed, n=n) for n in range(lo, hi + 1)]
        else:
            instances = [fixed]
        out = []
        for params in instances:
            abdk = ck.family_abdk(name, params)
            p = apery.FamilyParams(*abdk)
            report = apery.report_closed(p) if engine == "closed" else \
                apery.semigroup_report(ck.family_gens(*abdk))
            out.append(abdk + (report.frobenius, report.genus, report.type,
                               tuple(report.pf)))
        return out


def _ints(text: str, sep: str) -> tuple:
    return tuple(int(v) for v in text.split(sep) if v)


def _parse_quantities(command: str, text: str, fmt: str) -> dict:
    """Quantities a quantity subcommand printed, by name."""
    if fmt == "json":
        record = apery.cli.parse_record(text)
        shown = {q: getattr(record, q) for q in REPORT_FIELDS}
        shown.update({q: getattr(record, q) for q in ("apery", "gaps")
                      if getattr(record, q) is not None})
        return shown
    if fmt == "csv":
        header, row = csv.reader(io.StringIO(text))
        cells = dict(zip(header, row))
        shown = {q: int(cells[q]) for q in ("frobenius", "genus", "type")}
        shown["pf"] = _ints(cells["pf"], ";")
        shown.update({q: _ints(cells[q], ";") for q in ("apery", "gaps")
                      if cells[q]})
        return shown
    if command in ("frobenius", "genus"):
        return {command: int(text)}
    if command != "report":
        return {command: _ints(text, "\n")}
    shown = {}
    for line in text.splitlines():
        name, _, value = line.partition(": ")
        shown[name] = int(value) if name in ("frobenius", "genus", "type") \
            else _ints(value, ",")
    return shown


def _parse_family(text: str, fmt: str) -> list:
    """(a, b, d, k, F, g, type, PF) per record of a family subcommand."""
    if fmt == "json":
        raw = json.loads(text)
        texts = [json.dumps(r) for r in raw["records"]] \
            if "records" in raw else [text]
        out = []
        for item in texts:
            record = apery.cli.parse_record(item)
            resolved = record.input["resolved"]
            out.append(tuple(resolved[n] for n in "abdk") + (
                record.frobenius, record.genus, record.type, record.pf))
        return out
    if fmt == "csv":
        header, *rows = csv.reader(io.StringIO(text))
        out = []
        for row in rows:
            cells = dict(zip(header, row))
            out.append(tuple(int(cells[n]) for n in ("a", "b", "d", "k",
                                                     "frobenius", "genus",
                                                     "type"))
                       + (_ints(cells["pf"], ";"),))
        return out
    out = []
    for block in text.strip().split("\n\n"):
        lines = dict(line.split(": ", 1) for line in block.splitlines())
        resolved = dict(kv.split("=") for kv in lines["resolved"].split())
        out.append(tuple(int(resolved[n]) for n in "abdk") + tuple(
            int(lines[q]) for q in ("frobenius", "genus", "type"))
            + (_ints(lines["pf"], ","),))
    return out


def _parse_orderly(text: str, fmt: str) -> tuple:
    if fmt == "json":
        raw = json.loads(text)
        return raw["orderly"], raw["counterexample"]
    if fmt == "csv":
        _, (_, orderly, counter) = csv.reader(io.StringIO(text))
        return orderly == "true", int(counter) if counter else None
    verdict, *rest = text.split()
    return verdict == "orderly", int(rest[0]) if rest else None


def check_phases(pool, first, phases, checker) -> dict:
    """Verdict for every request of every phase, plus check-kind counts."""
    verdicts, kinds = {}, Counter()
    for idx, answer in first.items():
        try:
            verdicts[idx] = checker.check(idx, pool[idx], answer)
        except Exception as exc:  # malformed answer: the request failed
            verdicts[idx] = (f"error:{type(exc).__name__}", False)
        kinds[verdicts[idx][0]] += 1
    attempted = failed = 0
    failures = []
    for phase in phases:
        for pos, (idx, digest) in enumerate(zip(phase.indices, phase.digests)):
            attempted += 1
            ok = pos not in phase.errors and idx in verdicts and \
                verdicts[idx][1] and digest == hash(first[idx])
            if not ok:
                failed += 1
                failures.append((pool[idx], phase.errors.get(pos, "wrong")))
    return {"attempted": attempted, "failed": failed, "kinds": kinds,
            "failures": failures}


# ---------------------------------------------------------------- metrics

def _percentile(values, q) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(phase: Phase, rss_kb: int) -> dict:
    """End-to-end metrics; times scaled to the probe's reference speed."""
    latencies, wall = phase.scaled_latencies(), phase.scaled_wall()
    return {
        "throughput_rps": (len(phase.indices) / wall, "1/s"),
        "latency_p50_ms": (1e3 * _percentile(latencies, 0.5), "ms"),
        "latency_p90_ms": (1e3 * _percentile(latencies, 0.9), "ms"),
        "cases_per_s": (sum(phase.case_counts) / wall, "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


FUNCTION_METRICS = {
    "core.apery_set": "core.apery_set.self_s",
    "core.pseudo_frobenius_from_apery": "core.pseudo_frobenius.self_s",
    "core.gaps": "core.gaps.self_s",
    "closed_forms.genus_closed": "closed_forms.genus_closed.self_s",
    "closed_forms.frobenius_closed": "closed_forms.frobenius_closed.self_s",
    "closed_forms.apery_closed": "closed_forms.apery_closed.self_s",
    "closed_forms.report_closed": "closed_forms.report_closed.self_s",
    "changemaking.opt_count": "changemaking.opt_count.self_s",
    "verify.run_single": "verify.run_single.self_s",
    "families.resolve": "families.resolve.self_s",
}
COUNT_METRICS = ("core.residues", "core.gaps.items", "changemaking.dp_cells",
                 "verify.dp_cells", "verify.cases")


def per_layer(tracer, traced: Phase, untraced: Phase, pool, first, checker,
              jobs_rates) -> tuple[dict, list]:
    """Per-layer metrics of a traced phase and the function table rows."""
    selfs = tracer.self_times()
    layer_self, func_self, func_total = defaultdict(float), \
        defaultdict(float), defaultdict(float)
    calls = Counter()
    computed = defaultdict(set)
    for span, own in zip(tracer.spans, selfs):
        _, layer, func, start, end, _, request = span
        layer_self[layer] += own
        if func:
            func_self[func] += own
            func_total[func] += end - start
            calls[func] += 1
            computed[request] |= PRODUCES.get(func.split(".", 1)[1], set())
    wall = traced.wall
    # bench time is its own request spans plus the loop between requests
    bench = layer_self["bench"] + wall - sum(
        end - start for _, layer, _, start, end, _, _ in tracer.spans
        if layer == "bench")
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
        metrics[f"{layer}.share"] = (layer_self[layer] / wall, "ratio")
    metrics["bench.self_s"] = (bench, "s")
    metrics["bench.share"] = (bench / wall, "ratio")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_frac"] = (wall / untraced.wall - 1, "ratio")
    metrics["trace.requests"] = (len(traced.indices), "count")
    for func, name in FUNCTION_METRICS.items():
        metrics[name] = (func_self[func], "s")
    for name in COUNT_METRICS:
        metrics[name] = (tracer.counts[name], "count")
    grid = tracer.counts["verify.grid_cases"]
    skipped = tracer.counts["verify.skipped"]
    metrics["verify.skipped_ratio"] = (
        skipped / (grid + skipped) if grid + skipped else 0.0, "ratio")
    rate1, rate2 = jobs_rates
    metrics["verify.cases_per_s.jobs1"] = (rate1, "1/s")
    metrics["verify.cases_per_s.jobs2"] = (rate2, "1/s")
    metrics["verify.speedup_jobs2"] = (rate2 / rate1 if rate1 else 0.0,
                                       "ratio")
    cli_requests = [(pos, idx) for pos, idx in enumerate(traced.indices)
                    if pool[idx][0] == "cli"]
    out_bytes = sum(len(first[idx][1]) for _, idx in cli_requests
                    if idx in first)
    printed = sum(len(checker.printed.get(idx, ())) for _, idx in cli_requests)
    made = sum(len(computed[pos]) for pos, _ in cli_requests)
    metrics["cli.stdout_bytes"] = (
        out_bytes / len(cli_requests) if cli_requests else 0.0, "B/req")
    metrics["cli.useful_ratio"] = (printed / made if made else 0.0, "ratio")
    table = sorted(((func_self[f], func_total[f], calls[f], f)
                    for f in calls), reverse=True)
    return metrics, table


# ---------------------------------------------------------------- a run

def run(workload: str, seed: int, seconds: float, trace: bool, *,
        warmup: float = WARMUP_S, min_requests: int = MIN_REQUESTS,
        corrupt: int | None = None, trace_path=None) -> dict:
    """One run; metrics map a name to (value, unit).

    `corrupt` replaces the answer of that warm-up position, so that tests
    can see a wrong answer being caught.
    """
    pool = make_pool(workload, seed)
    first: dict[int, object] = {}
    stream = replay(pool, seed)
    # traced sweeps run at jobs=1, and so does their untraced baseline
    jobs = 1 if trace and workload == "verify-sweep" else None
    phases = [run_phase(workload, pool, stream, warmup, first, jobs=jobs,
                        corrupt=corrupt, min_requests=1)]
    if not trace:
        timed = run_phase(workload, pool, stream, seconds, first,
                          min_requests=min_requests, probe=True)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        phases.append(timed)
        metrics = end_to_end(timed, rss_kb)
        lines = [f"requests {len(timed.indices)} in {timed.wall:.3f} s "
                 f"(latency samples {len(timed.latencies)}, "
                 f"{len(set(timed.indices))} distinct requests)",
                 f"unscaled: throughput_rps "
                 f"{len(timed.indices) / timed.wall:.6g}, latency_p50_ms "
                 f"{1e3 * _percentile(timed.latencies, 0.5):.6g}, "
                 f"latency_p90_ms "
                 f"{1e3 * _percentile(timed.latencies, 0.9):.6g}",
                 f"host speed: {len(timed.scales)} probe windows, median "
                 f"scale {statistics.median(timed.scales):.4f} "
                 f"(min {min(timed.scales):.4f}, "
                 f"max {max(timed.scales):.4f})"]
    else:
        share = 1 / 3 if jobs else 1 / 2
        untraced = run_phase(workload, pool, stream, seconds * share, first,
                             jobs=jobs, min_requests=min_requests)
        phases.append(untraced)
        rates = (0.0, 0.0)
        if jobs:
            doubled = run_phase(workload, pool, untraced.indices, None, first,
                                jobs=2)
            phases.append(doubled)
            rates = (_rate(untraced, pool), _rate(doubled, pool))
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(workload, pool, untraced.indices, None, first,
                               jobs=jobs, tracer=tracer)
        finally:
            tracer.uninstall()
        phases.append(traced)
        if trace_path is not None:
            tracer.write(trace_path)
    checker = Checker(workload)
    verdict = check_phases(pool, first, phases, checker)
    if trace:
        metrics, table = per_layer(tracer, traced, untraced, pool, first,
                                   checker, rates)
        lines = [f"traced requests {len(traced.indices)}, "
                 f"spans {len(tracer.spans)}",
                 f"{'function':44} {'calls':>8} {'total_s':>10} "
                 f"{'self_s':>10}"]
        lines.extend(f"{func:44} {n:8d} {total:10.4f} {own:10.4f}"
                     for own, total, n, func in table)
    return {"metrics": metrics, "attempted": verdict["attempted"],
            "failed": verdict["failed"], "kinds": dict(verdict["kinds"]),
            "failures": verdict["failures"][:5], "lines": lines}


def _rate(phase: Phase, pool) -> float:
    """Grid cases per second spent in cross_check requests."""
    spent = cases = 0
    for idx, latency, case_count in zip(phase.indices, phase.latencies,
                                        phase.case_counts):
        if pool[idx][0] == "sweep":
            spent += latency
            cases += case_count
    return cases / spent if spent else 0.0
