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
from .closed_forms import FamilyParams, apery_closed, build_generators, \
    report_closed
from .core import AperySet, GeneratorList, SemigroupReport, apery_set, \
    gaps as gap_list, semigroup_report
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
class OutputRecord:
    """One invocation's result: input echo plus the computed quantities."""

    input: dict
    engine: str
    frobenius: int
    genus: int
    type: int
    pf: tuple[int, ...]
    apery: tuple[int, ...] | None = None
    gaps: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "pf", tuple(self.pf))
        if self.apery is not None:
            object.__setattr__(self, "apery", tuple(self.apery))
        if self.gaps is not None:
            object.__setattr__(self, "gaps", tuple(self.gaps))

    def to_dict(self) -> dict:
        out = {"input": self.input, "engine": self.engine,
               "frobenius": self.frobenius, "genus": self.genus,
               "type": self.type, "pf": list(self.pf)}
        if self.apery is not None:
            out["apery"] = list(self.apery)
        if self.gaps is not None:
            out["gaps"] = list(self.gaps)
        return out


def _encode(obj):
    # ints outside the signed 64-bit range become decimal strings
    if isinstance(obj, bool):
        return obj
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
    raw = _decode(json.loads(text))
    return OutputRecord(
        input=raw["input"], engine=raw["engine"],
        frobenius=raw["frobenius"], genus=raw["genus"], type=raw["type"],
        pf=tuple(raw["pf"]),
        apery=tuple(raw["apery"]) if "apery" in raw else None,
        gaps=tuple(raw["gaps"]) if "gaps" in raw else None)


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


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--gens", help="comma-separated generators (oracle only)")
    sub.add_argument("--a", type=int)
    sub.add_argument("--b", type=int)
    sub.add_argument("--d", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--engine", choices=["closed", "oracle"],
                     default="closed")
    sub.add_argument("--format", choices=["plain", "json", "csv"],
                     default="plain")


def _evaluate(source: FamilyParams | GeneratorList, engine: str,
              want_apery: bool = False
              ) -> tuple[SemigroupReport, AperySet | None]:
    # the one engine dispatch; a generator list goes to the oracle
    if engine == "closed":
        return report_closed(source), \
            apery_closed(source) if want_apery else None
    gens = build_generators(source) if isinstance(source, FamilyParams) \
        else source
    return semigroup_report(gens), apery_set(gens) if want_apery else None


def _record_for(args, want_apery: bool, want_gaps: bool) -> OutputRecord:
    if args.gens is not None:
        if any(v is not None for v in (args.a, args.b, args.d, args.k)):
            raise InvalidParamsError("--gens excludes --a/--b/--d/--k")
        gens = GeneratorList(_parse_ints(args.gens, "generators"))
        report, ape = _evaluate(gens, "oracle", want_apery or want_gaps)
        echo = {"gens": list(gens.elements)}
    else:
        missing = [n for n in "abdk" if getattr(args, n) is None]
        if missing:
            raise InvalidParamsError(
                "need --gens or all of --a/--b/--d/--k (missing: "
                + ", ".join(missing) + ")")
        p = FamilyParams(a=args.a, b=args.b, d=args.d, k=args.k)
        report, ape = _evaluate(p, args.engine, want_apery or want_gaps)
        echo = {"a": p.a, "b": p.b, "d": p.d, "k": p.k}
    return OutputRecord(
        input=echo, engine=report.engine, frobenius=report.frobenius,
        genus=report.genus, type=report.type, pf=report.pf,
        apery=ape.minima if want_apery else None,
        gaps=tuple(gap_list(ape)) if want_gaps else None)


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _print_plain_report(record: OutputRecord) -> None:
    print(f"frobenius: {record.frobenius}")
    print(f"genus: {record.genus}")
    print(f"type: {record.type}")
    print(f"pf: {_join(record.pf)}")
    if record.apery is not None:
        print(f"apery: {_join(record.apery)}")
    if record.gaps is not None:
        print(f"gaps: {_join(record.gaps)}")


_CSV_COLUMNS = ("gens", "a", "b", "d", "k", "engine", "frobenius", "genus",
                "type", "pf", "apery", "gaps")


def _csv_row(record: OutputRecord) -> list[str]:
    echo = record.input
    row = []
    for col in _CSV_COLUMNS:
        if col == "gens":
            row.append(";".join(str(v) for v in echo.get("gens", ())))
        elif col in ("a", "b", "d", "k"):
            value = echo.get(col, echo.get("resolved", {}).get(col))
            row.append("" if value is None else str(value))
        elif col == "engine":
            row.append(record.engine)
        elif col in ("pf", "apery", "gaps"):
            values = getattr(record, col)
            row.append("" if values is None
                       else ";".join(str(v) for v in values))
        else:
            row.append(str(getattr(record, col)))
    return row


def _emit_record(record: OutputRecord, fmt: str, plain_field) -> None:
    if fmt == "json":
        print(serialize_record(record))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(_CSV_COLUMNS)
        writer.writerow(_csv_row(record))
    elif plain_field == "report":
        _print_plain_report(record)
    else:
        value = getattr(record, plain_field)
        if isinstance(value, tuple):
            for v in value:
                print(v)
        else:
            print(value)


def _cmd_quantity(args, field: str) -> int:
    want_apery = field in ("apery", "report")
    want_gaps = field in ("gaps", "report")
    record = _record_for(args, want_apery, want_gaps)
    _emit_record(record, args.format, field)
    return EXIT_OK


def _family_record(name: str, params: dict, engine: str) -> OutputRecord:
    p = resolve(FamilySpec(name, params))
    report, _ = _evaluate(p, engine)
    echo = {"family": name, "params": dict(params),
            "resolved": {"a": p.a, "b": p.b, "d": p.d, "k": p.k}}
    return OutputRecord(input=echo, engine=report.engine,
                        frobenius=report.frobenius, genus=report.genus,
                        type=report.type, pf=report.pf)


def _bound_text(p: dict) -> str:
    if "max" in p:
        text = f"{p['min']} <= {p['name']} <= {p['max']}"
    else:
        text = f"{p['name']} >= {p['min']}"
    if "default" in p:
        text += f" (default {p['default']})"
    return text


def _print_family_list(fmt: str) -> None:
    entries = catalog()
    if fmt == "json":
        print(json.dumps({"families": entries}))
        return
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(("name", "params", "resolves"))
        for entry in entries:
            writer.writerow((entry["name"],
                             ";".join(_bound_text(p).replace(" ", "")
                                      for p in entry["params"]),
                             entry["resolves"]))
        return
    for entry in entries:
        params = ", ".join(_bound_text(p) for p in entry["params"])
        print(f"{entry['name']}: {entry['resolves']}  [{params}]")
        for branch in entry.get("delta", ()):
            print(f"  delta = {branch['value']} when {branch['when']}")


def _parse_range(text: str) -> range:
    match = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not match:
        raise InvalidParamsError(f"range must look like 2..8, got {text!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if hi < lo:
        raise InvalidParamsError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _cmd_family(args) -> int:
    if args.name == "list":
        _print_family_list(args.format)
        return EXIT_OK
    if args.name not in FAMILY_NAMES:
        raise InvalidParamsError(
            f"unknown family {args.name!r}; try: family list")
    fixed = {key: getattr(args, key) for key in ("n", "m", "b", "k", "d")
             if getattr(args, key) is not None}
    if args.n_range is None:
        records = [_family_record(args.name, fixed, args.engine)]
    else:
        if "n" in fixed:
            raise InvalidParamsError("--n-range excludes --n")
        records = [_family_record(args.name, dict(fixed, n=n), args.engine)
                   for n in _parse_range(args.n_range)]

    if args.format == "json":
        if len(records) == 1:
            print(serialize_record(records[0]))
        else:
            print(json.dumps(
                {"records": [_encode(r.to_dict()) for r in records]}))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(("family",) + _CSV_COLUMNS[1:-2])
        for record in records:
            row = _csv_row(record)
            writer.writerow([record.input["family"]] + row[1:-2])
    else:
        for i, record in enumerate(records):
            if i:
                print()
            print(f"family: {record.input['family']}")
            for key, value in record.input["params"].items():
                print(f"{key}: {value}")
            resolved = record.input["resolved"]
            print("resolved: a={a} b={b} d={d} k={k}".format(**resolved))
            _print_plain_report(record)
    return EXIT_OK


def _cmd_orderly(args) -> int:
    coins = CoinSystem(_parse_ints(args.coins, "coins"))
    verdict = is_orderly(coins)
    if args.format == "json":
        print(json.dumps(_encode({
            "coins": list(coins.denominations),
            "orderly": verdict.orderly,
            "counterexample": verdict.counterexample})))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(("coins", "orderly", "counterexample"))
        writer.writerow((";".join(str(c) for c in coins.denominations),
                         str(verdict.orderly).lower(),
                         "" if verdict.counterexample is None
                         else verdict.counterexample))
    else:
        print("orderly" if verdict.orderly else "non-orderly")
        if verdict.counterexample is not None:
            print(verdict.counterexample)
    return EXIT_OK


def _summary_line(label: str, report) -> str:
    return (f"{label}: {report.cases_run} run, {report.cases_passed} passed, "
            f"{report.cases_skipped} skipped, {len(report.mismatches)} "
            f"mismatches, {len(report.divergences)} divergences")


def _cmd_verify(args) -> int:
    grid = GridSpec(a_range=(2, args.a_max), b_range=(2, args.b_max),
                    d_range=(1, args.d_max), k_range=(1, args.k_max),
                    check_apery=True, check_pf=args.check_pf,
                    check_monotone=args.check_monotone,
                    include_hypothesis_violations=args.include_violations)
    grid_report = cross_check(grid, jobs=args.jobs,
                              inject_mismatch=args.inject_mismatch)
    prop_report = property_suite(seed=args.seed, budget=args.budget)
    if args.format == "json":
        print(json.dumps(_encode({
            "cross_check": grid_report.to_dict(),
            "property_suite": prop_report.to_dict()})))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(("suite", "cases_run", "cases_passed",
                         "cases_skipped", "mismatches", "divergences"))
        for label, rep in (("cross_check", grid_report),
                           ("property_suite", prop_report)):
            writer.writerow((label, rep.cases_run, rep.cases_passed,
                             rep.cases_skipped, len(rep.mismatches),
                             len(rep.divergences)))
    else:
        print(_summary_line("cross-check", grid_report))
        print(_summary_line("properties", prop_report))
        for mismatch in (grid_report.mismatches + prop_report.mismatches):
            print(f"mismatch {dict(mismatch.params)} {mismatch.quantity}: "
                  f"closed={mismatch.closed_value} "
                  f"oracle={mismatch.oracle_value}")
    if grid_report.mismatches or prop_report.mismatches:
        return EXIT_MISMATCH
    return EXIT_OK


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
        _add_input_options(sub)
        sub.set_defaults(field=name)

    family = subs.add_parser("family", help="named literature families")
    family.add_argument("name", help="family name, or 'list'")
    family.add_argument("--n", type=int)
    family.add_argument("--m", type=int)
    family.add_argument("--b", type=int)
    family.add_argument("--k", type=int)
    family.add_argument("--d", type=int)
    family.add_argument("--n-range", dest="n_range",
                        help="inclusive range like 2..8; one record per n")
    family.add_argument("--engine", choices=["closed", "oracle"],
                        default="closed")
    family.add_argument("--format", choices=["plain", "json", "csv"],
                        default="plain")

    orderly = subs.add_parser("orderly",
                              help="is greedy change-making optimal")
    orderly.add_argument("--coins", required=True,
                         help="comma-separated denominations incl. 1")
    orderly.add_argument("--format", choices=["plain", "json", "csv"],
                         default="plain")

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
    verify.add_argument("--include-violations", action="store_true")
    verify.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one closed value to test reporting")
    verify.add_argument("--format", choices=["plain", "json", "csv"],
                        default="plain")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_INVALID
        if args.command in ("frobenius", "genus", "apery", "pf", "gaps",
                            "report"):
            return _cmd_quantity(args, args.field)
        if args.command == "family":
            return _cmd_family(args)
        if args.command == "orderly":
            return _cmd_orderly(args)
        return _cmd_verify(args)
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
