"""Package-level contract: what `from apery import *` exports."""
import types

import apery


def test_all_names_no_module():
    modules = [name for name in apery.__all__
               if isinstance(getattr(apery, name), types.ModuleType)]
    assert modules == []
