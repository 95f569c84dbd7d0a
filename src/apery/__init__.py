"""Numerical semigroup toolkit: Frobenius numbers, genus, Apery sets,
pseudo-Frobenius sets and type, with closed-form evaluators for a
geometric-step generator family cross-checked against a shortest-path oracle,
plus the change-making machinery the closed forms are built on and eight
named semigroup families from the literature.

Each public name is imported from its module on first use, so `import apery`
loads no submodule and a command pays only for the modules it reads.
"""

import importlib

# every public name, by the module that defines it
_MODULE_NAMES = {
    "changemaking": "CoinSystem GreedyPresentation Orderliness colex_compare"
    " digit_sum greedy_count greedy_presentation is_orderly opt_count"
    " repunit_coins repunit_value weight",
    "closed_forms": "FamilyParams apery_closed build_generators"
    " frobenius_closed genus_closed pseudo_frobenius_closed report_closed"
    " repunit_general_frobenius repunit_general_genus repunit_params"
    " repunit_specialization residue_minimum",
    "core": "AperySet DEFAULT_RESIDUE_CAP ENGINE_CLOSED ENGINE_ORACLE"
    " GeneratorList ORACLE_CAP_ENV SemigroupReport apery_set contains"
    " frobenius_from_apery gaps genus_from_apery pseudo_frobenius_from_apery"
    " semigroup_report",
    "errors": "ConsistencyError InvalidParamsError OracleInfeasibleError",
    "families": "FAMILY_NAMES FamilySpec catalog gu_ze gu_ze_tang liu_xin"
    " mersenne repunit resolve song_gt thabit thabit_base_b",
    "verify": "GridSpec Mismatch VerifyReport cross_check property_suite"
    " run_single",
}
_MODULE_OF = {name: module for module, names in _MODULE_NAMES.items()
              for name in names.split()}

__all__ = sorted(_MODULE_OF)

__version__ = "1.0.0"


def __getattr__(name):
    # PEP 562: called for a name not yet in globals(), where it is then kept
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    return globals().setdefault(name, getattr(module, name))


def __dir__():
    return sorted(globals().keys() | set(__all__))
