"""Command-line interface for semigroup computations and cross-checks.

Exit codes: 0 success, 1 invalid input, 2 verification mismatch, 3 oracle
infeasible.  Machine output goes to stdout, diagnostics to stderr.  JSON
integers wider than 64 bits are rendered as decimal strings so downstream
parsers that use fixed-width integers stay correct.
"""
from __future__ import annotations

import argparse
import functools
import os
import re
import shutil
import sys
from contextlib import contextmanager
from itertools import islice

from .changemaking import CoinSystem, is_orderly
from .closed_forms import FamilyParams, _param_items, evaluate
from .core import Evaluation, GeneratorList, SemigroupReport, _shown, \
    check_cap, check_int, parse_int
from .errors import InvalidParamsError, OracleInfeasibleError
from .families import _CATALOG, FamilySpec, catalog, resolve

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_INFEASIBLE = 3

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_DECIMAL_RE = re.compile(r"-?[0-9]+")
_LINES_PER_WRITE = 4096


class OutputRecord(SemigroupReport):
    """One invocation's result: a report plus the input echo and, when the
    command prints them, the Apery set and the gaps."""

    _fields = SemigroupReport._fields + ("input", "apery", "gaps")

    def __init__(self, frobenius: int, genus: int, pf: tuple[int, ...],
                 type: int, engine: str, input: dict,
                 apery: tuple[int, ...] | None = None,
                 gaps: tuple[int, ...] | None = None):
        super().__init__(frobenius, genus, pf, type, engine)
        vars(self).update(input=input,
                          apery=None if apery is None else tuple(apery),
                          gaps=None if gaps is None else tuple(gaps))

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


@contextmanager
def _any_digits():
    # answers can be longer than the 4300 digits that Python 3.11 and the
    # later 3.10 releases convert between int and str by default; lift that
    # limit while the block, or each call of a function it decorates, runs
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@_any_digits()
def parse_record(text: str) -> OutputRecord:
    import json
    return OutputRecord(**_decode(json.loads(text)))


@_any_digits()
def _emit(fmt: str, payload, header, rows, lines) -> None:
    # the one writer of stdout: JSON, CSV or plain lines, the lines in one
    # write per _LINES_PER_WRITE of them.  rows and lines may be generators,
    # so only the chosen layout is built; callers compute every value first,
    # so a request that fails writes nothing to stdout
    try:
        if fmt == "json":
            import json
            print(json.dumps(_encode(payload)))
        elif fmt == "csv":
            import csv
            writer = csv.writer(sys.stdout)
            writer.writerow(header)
            writer.writerows(rows)
        else:
            lines = iter(lines)
            while chunk := list(islice(lines, _LINES_PER_WRITE)):
                sys.stdout.write("\n".join(map(str, chunk)) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left, as `| head -1` does: keep the exit code, and point
        # fd 1 at devnull so that the interpreter's last flush cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _flag_int(text: str) -> int:
    try:
        return parse_int(text, "value")
    except InvalidParamsError as err:  # argparse drops a ValueError's text
        raise argparse.ArgumentTypeError(str(err)) from None


def _parse_ints(text: str, what: str) -> list[int]:
    return [parse_int(p, what) for p in text.split(",") if p.strip()]


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
        gens = GeneratorList(_parse_ints(args.gens, "generator"))
        return {"gens": list(gens.elements)}, evaluate(gens, "oracle")
    missing = [n for n in "abdk" if getattr(args, n) is None]
    if missing:
        raise InvalidParamsError(
            "need --gens or all of --a/--b/--d/--k (missing: "
            + ", ".join(missing) + ")")
    p = FamilyParams(a=args.a, b=args.b, d=args.d, k=args.k)
    return dict(_param_items(p)), evaluate(p, args.engine)


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
_FAMILY_CSV_COLUMNS = ("family", "a", "b", "d", "k", "engine", "frobenius",
                       "genus", "type", "pf")


def _csv_row(record: OutputRecord, columns=_CSV_COLUMNS) -> list:
    # each column's cell by name; csv writes None, a value not held, as empty
    echo = record.input
    cells = {**echo, **echo.get("resolved", {}), **vars(record)}
    return [_join(value, ";") if isinstance(value, (list, tuple)) else value
            for value in map(cells.get, columns)]


def _cmd_quantity(args) -> int:
    field = args.command
    echo, ev = _evaluation(args)
    if args.format == "plain" and field != "report":
        # a plain single quantity computes only what it prints
        value = ev.apery.minima if field == "apery" else getattr(ev, field)
        _emit("plain", None, None, None,
              [value] if isinstance(value, int) else value)
        return EXIT_OK
    record = _record(echo, ev, field)
    _emit(args.format, record.to_dict(), _CSV_COLUMNS,
          map(_csv_row, (record,)), _report_lines(record))
    return EXIT_OK


def _family_record(name: str, params: dict, engine: str) -> OutputRecord:
    p = resolve(FamilySpec(name, params))
    echo = {"family": name, "params": dict(params),
            "resolved": dict(_param_items(p))}
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
    lo, sep, hi = text.partition("..")
    if not sep:
        raise InvalidParamsError(
            f"range must look like 2..8, got {_shown(text)}")
    lo = parse_int(lo, "range start")
    hi = check_int(parse_int(hi, "range end"), "range end", lo)
    return range(lo, hi + 1)


_FAMILY_KEYS = tuple(dict.fromkeys(  # every family parameter, once each
    p["name"] for entry in _CATALOG for p in entry["params"]))


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
    fixed = {key: getattr(args, key) for key in _FAMILY_KEYS
             if getattr(args, key) is not None}
    if args.n_range is None:
        records = [_family_record(args.name, fixed, args.engine)]
    else:
        if "n" in fixed:
            raise InvalidParamsError("--n-range excludes --n")
        n_values = _parse_range(args.n_range)
        # stop - start, as len() overflows past 2**63 values; this bounds the
        # record count, and one record still holds O(n^2) bits
        check_cap(n_values.stop - n_values.start, "family records")
        records = [_family_record(args.name, dict(fixed, n=n), args.engine)
                   for n in n_values]
    payload = records[0].to_dict() if args.n_range is None else \
        {"records": [r.to_dict() for r in records]}
    rows = (_csv_row(r, _FAMILY_CSV_COLUMNS) for r in records)
    _emit(args.format, payload, _FAMILY_CSV_COLUMNS, rows,
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
    coins = CoinSystem(_parse_ints(args.coins, "coin"))
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
    # imported here, as the other commands never read it
    from .verify import DEFAULT_GRID, GridSpec, cross_check, property_suite
    ranges = {}
    for key in "abdk":
        low, high = getattr(DEFAULT_GRID, f"{key}_range")
        given = getattr(args, f"{key}_max")
        ranges[f"{key}_range"] = (low, high if given is None else given)
    grid = GridSpec(**ranges, check_pf=args.check_pf,
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


def _quantity_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--gens",
                     help="comma-separated generators (oracle only)")
    for key in "abdk":
        sub.add_argument(f"--{key}", type=_flag_int)
    _add_engine(sub)
    _add_format(sub)


def _family_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("name", help="family name, or 'list'")
    for key in _FAMILY_KEYS:
        sub.add_argument(f"--{key}", type=_flag_int)
    sub.add_argument("--n-range", dest="n_range",
                     help="inclusive range like 2..8; one record per n")
    _add_engine(sub)
    _add_format(sub)


def _orderly_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--coins", required=True,
                     help="comma-separated denominations incl. 1")
    _add_format(sub)


def _verify_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=_flag_int, default=0)
    sub.add_argument("--jobs", type=_flag_int, default=1)
    sub.add_argument("--budget", type=_flag_int, default=30,
                     help="property suite case count")
    for key in "abdk":
        # default None, as the grid's default is read only when verify runs
        sub.add_argument(f"--{key}-max", type=_flag_int)
    sub.add_argument("--check-pf", action="store_true")
    sub.add_argument("--check-monotone", action="store_true")
    sub.add_argument("--inject-mismatch", action="store_true",
                     help="corrupt one closed value to test reporting")
    _add_format(sub)


# every subcommand in help order: its help text, the function that declares
# its options and the function that runs it
_COMMANDS = {
    "frobenius": ("largest integer not in the semigroup", _quantity_options,
                  _cmd_quantity),
    "genus": ("number of gaps", _quantity_options, _cmd_quantity),
    "apery": ("least semigroup element per residue class", _quantity_options,
              _cmd_quantity),
    "pf": ("pseudo-Frobenius numbers", _quantity_options, _cmd_quantity),
    "gaps": ("all positive integers outside the semigroup",
             _quantity_options, _cmd_quantity),
    "report": ("all quantities at once", _quantity_options, _cmd_quantity),
    "family": ("named literature families", _family_options, _cmd_family),
    "orderly": ("is greedy change-making optimal", _orderly_options,
                _cmd_orderly),
    "verify": ("closed forms vs oracle over a grid", _verify_options,
               _cmd_verify),
}


def _help_formatter():
    # argparse's HelpFormatter at the width it works out itself.  argparse
    # builds a formatter per declared option and per help or usage text, and
    # each would probe the terminal again; every parser of one tree shares this
    return functools.partial(argparse.HelpFormatter,
                             width=shutil.get_terminal_size().columns - 2)


def build_parser() -> argparse.ArgumentParser:
    """The parser of all nine subcommands with every option.  `main` parses
    with it an argv that does not start with a command, and one that leaves
    arguments over for the command's own parser."""
    formatter = _help_formatter()
    parser = argparse.ArgumentParser(
        prog="apery", formatter_class=formatter,
        description="Numerical semigroup calculator: Frobenius numbers, "
                    "genus, Apery sets, pseudo-Frobenius sets, named "
                    "families, and closed-form vs oracle verification.")
    # prog given, as argparse would otherwise format a usage line to find it
    subs = parser.add_subparsers(dest="command", required=True, prog="apery")
    for name, (help_text, add_options, _) in _COMMANDS.items():
        add_options(subs.add_parser(name, help=help_text,
                                    formatter_class=formatter))
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    # a command in first place parses with its own parser alone, built as
    # the full parser's subparser for it is: the parser to which the full
    # parser hands the rest of argv.  Only the full parser reports leftover
    # arguments, lists the commands or refuses a command name, so it parses
    # any other argv
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"apery {argv[0]}",
                                         formatter_class=_help_formatter())
        _COMMANDS[argv[0]][1](parser)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


@_any_digits()
def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on a usage error, after printing the usage and
        # its message; this tool keeps 2 for verification mismatches
        if err.code != 2:
            raise
        return EXIT_INVALID
    try:
        return _COMMANDS[args.command][2](args)
    except InvalidParamsError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except OracleInfeasibleError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
