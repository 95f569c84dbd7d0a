"""Numerical semigroup toolkit: Frobenius numbers, genus, Apery sets,
pseudo-Frobenius sets and type, with closed-form evaluators for a
geometric-step generator family cross-checked against a shortest-path oracle,
plus the change-making machinery the closed forms are built on and eight
named semigroup families from the literature.
"""

from .changemaking import CoinSystem, GreedyPresentation, Orderliness, \
    colex_compare, digit_sum, greedy_count, greedy_presentation, is_orderly, \
    opt_count, repunit_coins, weight
from .closed_forms import FamilyParams, apery_closed, build_generators, \
    frobenius_closed, genus_closed, pseudo_frobenius_closed, report_closed, \
    repunit_general_frobenius, repunit_general_genus, repunit_params, \
    repunit_specialization, repunit_value, residue_minimum
from .core import AperySet, DEFAULT_RESIDUE_CAP, ENGINE_CLOSED, \
    ENGINE_ORACLE, GeneratorList, ORACLE_CAP_ENV, SemigroupReport, apery_set, \
    contains, frobenius_from_apery, gaps, genus_from_apery, \
    pseudo_frobenius_from_apery, semigroup_report
from .errors import ConsistencyError, InvalidParamsError, OracleInfeasibleError
from .families import FAMILY_NAMES, FamilySpec, catalog, gu_ze, gu_ze_tang, \
    liu_xin, mersenne, repunit, resolve, song_gt, thabit, thabit_base_b
from .verify import GridSpec, Mismatch, VerifyReport, cross_check, \
    property_suite, run_single

__all__ = [
    "AperySet", "CoinSystem", "ConsistencyError", "DEFAULT_RESIDUE_CAP",
    "ENGINE_CLOSED", "ENGINE_ORACLE", "FAMILY_NAMES", "FamilyParams",
    "FamilySpec", "GeneratorList", "GreedyPresentation", "GridSpec",
    "InvalidParamsError", "Mismatch", "ORACLE_CAP_ENV",
    "OracleInfeasibleError", "Orderliness", "SemigroupReport", "VerifyReport",
    "apery_closed", "apery_set", "build_generators", "catalog",
    "colex_compare", "contains", "cross_check", "digit_sum",
    "frobenius_closed", "frobenius_from_apery", "gaps", "genus_closed",
    "genus_from_apery", "greedy_count", "greedy_presentation", "gu_ze",
    "gu_ze_tang", "is_orderly", "liu_xin", "mersenne", "opt_count",
    "property_suite", "pseudo_frobenius_closed", "pseudo_frobenius_from_apery",
    "report_closed", "repunit", "repunit_coins", "repunit_general_frobenius",
    "repunit_general_genus", "repunit_params", "repunit_specialization",
    "repunit_value", "residue_minimum", "resolve", "run_single",
    "semigroup_report", "song_gt", "thabit", "thabit_base_b", "weight",
]

__version__ = "1.0.0"
