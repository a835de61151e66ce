"""Each narrated demo runs to completion without writing to stderr."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
