"""The import contract: the modules that each CLI subcommand and each demo load.

Each row runs in a fresh child, as ``python -m bmsym`` or ``python demos/...``
would, and pins which ``bmsym``, ``dataclasses`` and ``numpy`` modules its
``sys.modules`` gains over a child that runs no row, and an exit code of 0
with an empty stderr.  ``-X importtime`` would miss the modules that the
package's lazy names load through ``importlib``.
"""

import pathlib
import subprocess
import sys

import pytest

from bmsym.cli import _SUBCOMMANDS
from helpers import SUBCOMMAND_ARGS, loaded_by

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

ROWS = {name: ["bmsym", name, *args] for name, args in SUBCOMMAND_ARGS.items()}
ROWS.update({demo.name: [str(demo)] for demo in DEMOS})

CORE = "bmsym bmsym.cli bmsym.errors bmsym.matrix bmsym.serialize"
GROUP = CORE + " bmsym.group dataclasses"
LIE = CORE + " bmsym.lie dataclasses"
DEMO = "bmsym bmsym.errors bmsym.group bmsym.matrix dataclasses"
CONTRACT = {
    "compose": GROUP, "inverse": GROUP, "apply": GROUP, "metric": CORE,
    "classify": GROUP + " bmsym.classify", "membership": GROUP + " bmsym.classify",
    "oracle": GROUP + " bmsym.classify bmsym.sampling",
    "lie-exp": LIE, "lie-log": LIE, "lie-basis": LIE, "lie-structure": LIE, "components": LIE,
    "01_scaled_permutations.py": DEMO,
    "02_metric_invariance.py": DEMO + " bmsym.sampling",
    "03_classifying_jacobians.py": DEMO + " bmsym.classify bmsym.sampling",
    "04_diagonal_lie_group.py": DEMO + " bmsym.lie",
    "05_cli_tour.py": "",  # only its child processes load the package
}


@pytest.fixture(scope="module")
def baseline():
    return loaded_by([])


def test_one_row_per_subcommand_and_per_demo():
    assert len(DEMOS) == 5
    names = [row[0] for row in _SUBCOMMANDS] + [demo.name for demo in DEMOS]
    assert list(CONTRACT) == list(ROWS) == names


@pytest.mark.parametrize("name", CONTRACT)
def test_import_contract(name, baseline):
    added = loaded_by([ROWS[name]]) - baseline
    pinned = {m for m in added if m.partition(".")[0] in ("bmsym", "dataclasses", "numpy")}
    assert pinned == set(CONTRACT[name].split())


def test_no_row_loads_typing():
    # -S: on some hosts site loads typing itself (through a .pth hook); in later
    # 3.13 releases the stdlib's inspect, which dataclasses imports, does too
    probe = "import dataclasses, sys; sys.exit('typing' in sys.modules)"
    if subprocess.run([sys.executable, "-S", "-c", probe]).returncode:
        pytest.skip("this Python's own dataclasses loads typing")
    assert "typing" not in loaded_by(list(ROWS.values()), "-S")
