"""Package-level contract: what `from apery import *` exports, and that
`import apery` imports each name's module only when the name is used."""
import importlib
import os
import subprocess
import sys
import types

import pytest

import apery

# apery.__all__ as the package listed it when each name was imported eagerly
PUBLIC_NAMES = [
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


def test_all_names_no_module():
    modules = [name for name in apery.__all__
               if isinstance(getattr(apery, name), types.ModuleType)]
    assert modules == []


def test_all_is_unchanged():
    assert apery.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_name_is_its_module_object(name):
    module = importlib.import_module(f"apery.{apery._MODULE_OF[name]}")
    value = getattr(apery, name)
    assert value is getattr(module, name)
    if isinstance(value, (type, types.FunctionType)):
        assert value.__module__ == module.__name__  # the defining module
    assert name in dir(apery)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from apery import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'frobenius_number'"):
        apery.frobenius_number  # noqa: B018


def test_import_loads_no_submodule():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, apery; "
         "print(sorted(m for m in sys.modules if m.startswith('apery.')))"],
        capture_output=True, text=True, timeout=60,
        env=_env_with_package())
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def _env_with_package():
    # the subprocess imports the package under test, wherever pytest found it
    src = os.path.dirname(os.path.dirname(apery.__file__))
    return dict(os.environ, PYTHONPATH=src)
