"""Each narrated demo runs to completion, with numpy blocked, without
writing to stderr."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# None in sys.modules makes any import of numpy raise ImportError
_RUN_WITHOUT_NUMPY = (
    "import sys; sys.modules['numpy'] = None; import runpy; "
    "runpy.run_path(sys.argv[1], run_name='__main__')"
)


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    result = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_NUMPY, str(demo)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
