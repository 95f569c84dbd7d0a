"""In-memory spans at the boundaries between apery modules.

A function is wrapped under the name it is bound to in the importing module
(``apery.cli.report_closed``, ``apery.verify._genus_formula``), found by
introspection, so a function renamed or deleted later is skipped rather than
crashed on.  The once-per-request stages inside core and closed_forms are
wrapped too.  Per-item helpers are never wrapped: a span per residue would
cost more than the work it measures and distort every self time.  Pool
workers of ``cross_check(jobs > 1)`` run outside the wrappers, so traced
sweeps run at jobs=1.
"""
from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("core", "closed_forms", "changemaking", "families", "verify", "cli")
IMPORTERS = ("apery",) + tuple(f"apery.{layer}" for layer in LAYERS)

# called once per residue, amount or digit vector: never wrapped
PER_ITEM = frozenset({
    "contains", "_raw_digit_sum", "greedy_count", "_greedy_prefix",
    "greedy_presentation", "weight", "colex_compare", "digit_sum",
    "repunit_value", "residue_cap", "_as_generators", "_as_coins",
    "_check_amount", "_exact_half", "_coin_values",
})

# once-per-request stages called from inside their own module
STAGES = {
    "apery.core": ("apery_set", "frobenius_from_apery", "genus_from_apery",
                   "pseudo_frobenius_from_apery", "gaps"),
    "apery.closed_forms": ("frobenius_closed", "genus_closed", "apery_closed",
                           "pseudo_frobenius_closed", "report_closed"),
    "apery.verify": ("run_single", "_opt_counts_upto"),
    "apery.cli": ("main",),
}

# quantities a function's result carries, for cli.useful_ratio
PRODUCES = {
    "frobenius_closed": {"frobenius"}, "_frobenius_formula": {"frobenius"},
    "frobenius_from_apery": {"frobenius"},
    "genus_closed": {"genus"}, "_genus_formula": {"genus"},
    "genus_from_apery": {"genus"},
    "pseudo_frobenius_from_apery": {"pf", "type"},
    "pseudo_frobenius_closed": {"pf", "type"},
    "report_closed": {"frobenius", "genus", "pf", "type"},
    "semigroup_report": {"frobenius", "genus", "pf", "type"},
    "apery_closed": {"apery"}, "_apery_values_formula": {"apery"},
    "apery_set": {"apery"},
    "gaps": {"gaps"},
    "is_orderly": {"orderly"},
}


def _count_residues(counts, call, result):
    counts["core.residues"] += getattr(result, "modulus", 0)


def _count_gaps(counts, call, result):
    counts["core.gaps.items"] += len(result)


def _count_dp(metric):
    # the amount is the second parameter, however it was passed
    def count(counts, call, result):
        counts[metric] += list(call().values())[1] + 1
    return count


def _count_sweep(counts, call, result):
    counts["verify.cases"] += result.cases_run
    counts["verify.grid_cases"] += result.cases_run
    counts["verify.skipped"] += result.cases_skipped


def _count_props(counts, call, result):
    counts["verify.cases"] += result.cases_run


COUNTERS = {
    "apery_set": _count_residues,
    "gaps": _count_gaps,
    "opt_count": _count_dp("changemaking.dp_cells"),
    "_opt_counts_upto": _count_dp("verify.dp_cells"),
    "cross_check": _count_sweep,
    "property_suite": _count_props,
}


def layer_of(fn) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    head, _, layer = module.rpartition(".")
    return layer if head == "apery" and layer in LAYERS else None


def boundary_functions() -> list[tuple[object, str, object]]:
    """(module, bound name, function) for every binding to wrap."""
    found = []
    for modname in IMPORTERS:
        module = importlib.import_module(modname)
        stages = set(STAGES.get(modname, ()))
        for name, obj in sorted(vars(module).items()):
            if not inspect.isfunction(obj) or layer_of(obj) is None:
                continue
            if obj.__name__ in PER_ITEM:
                continue
            if obj.__module__ != modname or name in stages:
                found.append((module, name, obj))
    return found


class Tracer:
    """Records spans (name, layer, function, start, end, parent, request)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.request_id = -1
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, name, fn in boundary_functions():
            setattr(module, name, self._wrap(fn, f"{module.__name__}.{name}"))
            self._installed.append((module, name, fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._installed):
            setattr(module, name, fn)
        self._installed.clear()

    def begin(self, name: str, layer: str, func: str = "") -> list:
        record = [name, layer, func, time.perf_counter(), 0.0,
                  self.stack[-1] if self.stack else -1, self.request_id]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def end(self, record: list) -> None:
        record[4] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str):
        layer = layer_of(fn)
        func = f"{layer}.{fn.__name__}"
        counter = COUNTERS.get(fn.__name__)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            record = self.begin(name, layer, func)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(record)
            if counter is not None:
                counter(self.counts,
                        lambda: signature.bind(*args, **kwargs).arguments,
                        result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        selfs = [end - start for _, _, _, start, end, _, _ in self.spans]
        for _, _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("name\tlayer\tfunction\tstart\tend\tparent\trequest\n")
            for span in self.spans:
                out.write("\t".join(map(str, span)) + "\n")
