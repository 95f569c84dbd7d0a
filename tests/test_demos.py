"""Every demo script runs to completion against the package under test."""
import pathlib
import subprocess
import sys

import pytest

from test_cli import _env_with_package

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True,
                            text=True, env=_env_with_package(), timeout=120)
    assert result.returncode == 0, result.stderr
