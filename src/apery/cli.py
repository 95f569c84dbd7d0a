"""Command-line interface for semigroup computations and cross-checks.

Exit codes: 0 success, 1 invalid input, 2 verification mismatch, 3 oracle
infeasible.  Machine output goes to stdout, diagnostics to stderr.  JSON
integers wider than 64 bits are rendered as decimal strings so downstream
parsers that use fixed-width integers stay correct.
"""
from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from dataclasses import dataclass

from .changemaking import CoinSystem, is_orderly
from .closed_forms import FamilyParams, evaluate
from .core import Evaluation, GeneratorList, SemigroupReport
from .errors import InvalidParamsError, OracleInfeasibleError
from .families import FAMILY_NAMES, FamilySpec, catalog, resolve
from .verify import GridSpec, cross_check, property_suite

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_INFEASIBLE = 3

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_DECIMAL_RE = re.compile(r"-?[0-9]+")


@dataclass(frozen=True)
class OutputRecord(SemigroupReport):
    """One invocation's result: a report plus the input echo and, when the
    command prints them, the Apery set and the gaps."""

    input: dict
    apery: tuple[int, ...] | None = None
    gaps: tuple[int, ...] | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.apery is not None:
            object.__setattr__(self, "apery", tuple(self.apery))
        if self.gaps is not None:
            object.__setattr__(self, "gaps", tuple(self.gaps))

    def to_dict(self) -> dict:
        # in JSON key order; apery and gaps only when the command prints them
        keys = ("input", "engine", "frobenius", "genus", "type", "pf",
                "apery", "gaps")
        return {key: getattr(self, key) for key in keys
                if getattr(self, key) is not None}


def _encode(obj):
    # ints outside the signed 64-bit range become decimal strings (a bool
    # is an int in range and stays as it is)
    if isinstance(obj, int):
        return obj if _INT64_MIN <= obj <= _INT64_MAX else str(obj)
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if isinstance(obj, dict):
        return {key: _encode(v) for key, v in obj.items()}
    return obj


def _decode(obj):
    if isinstance(obj, str) and _DECIMAL_RE.fullmatch(obj):
        return int(obj)
    if isinstance(obj, list):
        return [_decode(v) for v in obj]
    if isinstance(obj, dict):
        return {key: _decode(v) for key, v in obj.items()}
    return obj


def serialize_record(record: OutputRecord) -> str:
    return json.dumps(_encode(record.to_dict()))


def parse_record(text: str) -> OutputRecord:
    return OutputRecord(**_decode(json.loads(text)))


def _emit(fmt: str, payload, header, rows, lines) -> None:
    # the one writer per format: JSON, CSV or plain lines.  rows and lines may
    # be generators, so only the chosen layout is built; callers compute every
    # value first, so a request that fails writes nothing to stdout
    if fmt == "json":
        print(json.dumps(_encode(payload)))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in lines:
            print(line)


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this tool reserves 2 for
    verification mismatches, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(f"{self.prog}: error: {message}")


class SystemExit2(Exception):
    """Usage error carrier; caught in main and mapped to EXIT_INVALID."""


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise InvalidParamsError(
            f"{what} must be comma-separated decimals, got {text!r}")


def _add_engine(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--engine", choices=["closed", "oracle"],
                     default="closed")


def _add_format(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=["plain", "json", "csv"],
                     default="plain")


def _evaluation(args) -> tuple[dict, Evaluation]:
    # the input echo and the lazy evaluation; a generator list goes to the
    # oracle whatever --engine says
    if args.gens is not None:
        if any(v is not None for v in (args.a, args.b, args.d, args.k)):
            raise InvalidParamsError("--gens excludes --a/--b/--d/--k")
        gens = GeneratorList(_parse_ints(args.gens, "generators"))
        return {"gens": list(gens.elements)}, evaluate(gens, "oracle")
    missing = [n for n in "abdk" if getattr(args, n) is None]
    if missing:
        raise InvalidParamsError(
            "need --gens or all of --a/--b/--d/--k (missing: "
            + ", ".join(missing) + ")")
    p = FamilyParams(a=args.a, b=args.b, d=args.d, k=args.k)
    return {"a": p.a, "b": p.b, "d": p.d, "k": p.k}, evaluate(p, args.engine)


def _record(echo: dict, ev: Evaluation, field: str = "") -> OutputRecord:
    # every record carries the full report; the Apery set and the gaps only
    # for the commands that print them
    return OutputRecord(
        input=echo, **vars(ev.report()),
        apery=ev.apery.minima if field in ("apery", "report") else None,
        gaps=tuple(ev.gaps) if field in ("gaps", "report") else None)


def _join(values, sep: str) -> str:
    return sep.join(str(v) for v in values)


def _report_lines(record: OutputRecord):
    for key, value in record.to_dict().items():
        if key not in ("input", "engine"):
            yield f"{key}: " + (str(value) if isinstance(value, int)
                                else _join(value, ","))


_CSV_COLUMNS = ("gens", "a", "b", "d", "k", "engine", "frobenius", "genus",
                "type", "pf", "apery", "gaps")


def _csv_row(record: OutputRecord) -> list:
    # one cell per _CSV_COLUMNS entry; csv writes None as an empty cell
    echo = record.input
    abdk = echo.get("resolved", echo)
    return [_join(echo.get("gens", ()), ";"), *map(abdk.get, "abdk"),
            record.engine, record.frobenius, record.genus, record.type,
            *(None if values is None else _join(values, ";")
              for values in (record.pf, record.apery, record.gaps))]


def _cmd_quantity(args) -> int:
    field = args.field
    echo, ev = _evaluation(args)
    if args.format == "plain" and field != "report":
        # a plain single quantity computes only what it prints
        value = ev.apery.minima if field == "apery" else getattr(ev, field)
        for line in [value] if isinstance(value, int) else value:
            print(line)
        return EXIT_OK
    record = _record(echo, ev, field)
    _emit(args.format, record.to_dict(), _CSV_COLUMNS,
          map(_csv_row, (record,)), _report_lines(record))
    return EXIT_OK


def _family_record(name: str, params: dict, engine: str) -> OutputRecord:
    p = resolve(FamilySpec(name, params))
    echo = {"family": name, "params": dict(params),
            "resolved": {"a": p.a, "b": p.b, "d": p.d, "k": p.k}}
    return _record(echo, evaluate(p, engine))


def _bound_text(p: dict) -> str:
    if "max" in p:
        text = f"{p['min']} <= {p['name']} <= {p['max']}"
    else:
        text = f"{p['name']} >= {p['min']}"
    if "default" in p:
        text += f" (default {p['default']})"
    return text


def _family_list_lines(entries):
    for entry in entries:
        params = ", ".join(_bound_text(p) for p in entry["params"])
        yield f"{entry['name']}: {entry['resolves']}  [{params}]"
        for branch in entry.get("delta", ()):
            yield f"  delta = {branch['value']} when {branch['when']}"


def _parse_range(text: str) -> range:
    match = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not match:
        raise InvalidParamsError(f"range must look like 2..8, got {text!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if hi < lo:
        raise InvalidParamsError(f"empty range {text!r}")
    return range(lo, hi + 1)


_FAMILY_KEYS = ("n", "m", "b", "k", "d")


def _cmd_family(args) -> int:
    if args.name == "list":
        entries = catalog()
        rows = ((entry["name"],
                 _join((_bound_text(p).replace(" ", "")
                        for p in entry["params"]), ";"),
                 entry["resolves"]) for entry in entries)
        _emit(args.format, {"families": entries},
              ("name", "params", "resolves"), rows,
              _family_list_lines(entries))
        return EXIT_OK
    if args.name not in FAMILY_NAMES:
        raise InvalidParamsError(
            f"unknown family {args.name!r}; try: family list")
    fixed = {key: getattr(args, key) for key in _FAMILY_KEYS
             if getattr(args, key) is not None}
    if args.n_range is None:
        records = [_family_record(args.name, fixed, args.engine)]
    else:
        if "n" in fixed:
            raise InvalidParamsError("--n-range excludes --n")
        records = [_family_record(args.name, dict(fixed, n=n), args.engine)
                   for n in _parse_range(args.n_range)]
    payload = records[0].to_dict() if len(records) == 1 else \
        {"records": [r.to_dict() for r in records]}
    rows = ([r.input["family"]] + _csv_row(r)[1:-2] for r in records)
    _emit(args.format, payload, ("family",) + _CSV_COLUMNS[1:-2], rows,
          _family_lines(records))
    return EXIT_OK


def _family_lines(records):
    for i, record in enumerate(records):
        if i:
            yield ""
        yield f"family: {record.input['family']}"
        for key, value in record.input["params"].items():
            yield f"{key}: {value}"
        yield "resolved: a={a} b={b} d={d} k={k}".format(
            **record.input["resolved"])
        yield from _report_lines(record)


def _cmd_orderly(args) -> int:
    coins = CoinSystem(_parse_ints(args.coins, "coins"))
    verdict = is_orderly(coins)
    counter = verdict.counterexample
    _emit(args.format,
          {"coins": list(coins.denominations), "orderly": verdict.orderly,
           "counterexample": counter},
          ("coins", "orderly", "counterexample"),
          ((_join(coins.denominations, ";"), str(verdict.orderly).lower(),
            counter),),
          ["orderly" if verdict.orderly else "non-orderly"]
          + ([] if counter is None else [counter]))
    return EXIT_OK


def _summary_line(label: str, report) -> str:
    return (f"{label}: {report.cases_run} run, {report.cases_passed} passed, "
            f"{report.cases_skipped} skipped, {len(report.mismatches)} "
            f"mismatches, {len(report.divergences)} divergences")


def _cmd_verify(args) -> int:
    grid = GridSpec(a_range=(2, args.a_max), b_range=(2, args.b_max),
                    d_range=(1, args.d_max), k_range=(1, args.k_max),
                    check_pf=args.check_pf,
                    check_monotone=args.check_monotone)
    grid_report = cross_check(grid, jobs=args.jobs,
                              inject_mismatch=args.inject_mismatch)
    prop_report = property_suite(seed=args.seed, budget=args.budget)
    suites = (("cross_check", grid_report), ("property_suite", prop_report))
    mismatches = grid_report.mismatches + prop_report.mismatches
    lines = [_summary_line("cross-check", grid_report),
             _summary_line("properties", prop_report)]
    lines += (f"mismatch {dict(m.params)} {m.quantity}: "
              f"closed={m.closed_value} oracle={m.oracle_value}"
              for m in mismatches)
    _emit(args.format, {label: rep.to_dict() for label, rep in suites},
          ("suite", "cases_run", "cases_passed", "cases_skipped",
           "mismatches", "divergences"),
          ((label, rep.cases_run, rep.cases_passed, rep.cases_skipped,
            len(rep.mismatches), len(rep.divergences))
           for label, rep in suites),
          lines)
    return EXIT_MISMATCH if mismatches else EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="apery",
                     description="Numerical semigroup calculator: Frobenius "
                                 "numbers, genus, Apery sets, "
                                 "pseudo-Frobenius sets, named families, "
                                 "and closed-form vs oracle verification.")
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)

    for name, help_text in (
            ("frobenius", "largest integer not in the semigroup"),
            ("genus", "number of gaps"),
            ("apery", "least semigroup element per residue class"),
            ("pf", "pseudo-Frobenius numbers"),
            ("gaps", "all positive integers outside the semigroup"),
            ("report", "all quantities at once")):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--gens",
                         help="comma-separated generators (oracle only)")
        for key in "abdk":
            sub.add_argument(f"--{key}", type=int)
        _add_engine(sub)
        _add_format(sub)
        sub.set_defaults(run=_cmd_quantity, field=name)

    family = subs.add_parser("family", help="named literature families")
    family.add_argument("name", help="family name, or 'list'")
    for key in _FAMILY_KEYS:
        family.add_argument(f"--{key}", type=int)
    family.add_argument("--n-range", dest="n_range",
                        help="inclusive range like 2..8; one record per n")
    _add_engine(family)
    _add_format(family)
    family.set_defaults(run=_cmd_family)

    orderly = subs.add_parser("orderly",
                              help="is greedy change-making optimal")
    orderly.add_argument("--coins", required=True,
                         help="comma-separated denominations incl. 1")
    _add_format(orderly)
    orderly.set_defaults(run=_cmd_orderly)

    verify = subs.add_parser("verify",
                             help="closed forms vs oracle over a grid")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--jobs", type=int, default=1)
    verify.add_argument("--budget", type=int, default=30,
                        help="property suite case count")
    verify.add_argument("--a-max", type=int, default=60)
    verify.add_argument("--b-max", type=int, default=5)
    verify.add_argument("--d-max", type=int, default=5)
    verify.add_argument("--k-max", type=int, default=4)
    verify.add_argument("--check-pf", action="store_true")
    verify.add_argument("--check-monotone", action="store_true")
    verify.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one closed value to test reporting")
    _add_format(verify)
    verify.set_defaults(run=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_INVALID
        return args.run(args)
    except SystemExit2 as err:
        print(err, file=sys.stderr)
        return EXIT_INVALID
    except InvalidParamsError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except OracleInfeasibleError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
