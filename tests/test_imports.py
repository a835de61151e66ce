"""The import contract: the modules that each CLI subcommand and each demo load.

Each row runs in a fresh child, as ``python -m bmsym`` or ``python demos/...``
would, and pins which ``bmsym``, ``dataclasses`` and ``numpy`` modules its
``sys.modules`` gains over a child that runs no row, and an exit code of 0
with an empty stderr.  No subcommand row loads ``argparse`` (nor the
``gettext`` and ``locale`` it brings); a help call and a usage error do.
``-X importtime`` would miss the modules that the package's lazy names load
through ``importlib``.
"""

import pathlib
import subprocess
import sys

import pytest

from bmsym.cli import _SUBCOMMANDS
from helpers import SUBCOMMAND_ARGS, loaded_by

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SRC = ROOT / "src" / "bmsym"

ROWS = {name: ["bmsym", name, *args] for name, args in SUBCOMMAND_ARGS.items()}
ROWS.update({demo.name: [str(demo)] for demo in DEMOS})

CORE = "bmsym bmsym.cli bmsym.errors bmsym.matrix bmsym.serialize"
GROUP = CORE + " bmsym.group"
AFFINE = GROUP + " bmsym.affine dataclasses"
LIE = CORE + " bmsym.lie"
DEMO = "bmsym bmsym.errors bmsym.group bmsym.matrix"
CONTRACT = {
    "compose": AFFINE, "inverse": AFFINE, "apply": AFFINE, "metric": CORE,
    "classify": GROUP + " bmsym.classify", "membership": GROUP + " bmsym.classify",
    "oracle": GROUP + " bmsym.classify bmsym.sampling",
    "lie-exp": LIE, "lie-log": LIE, "lie-basis": LIE, "lie-structure": LIE, "components": LIE,
    "01_scaled_permutations.py": DEMO + " bmsym.affine dataclasses",
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


def test_only_help_and_usage_errors_load_argparse(baseline):
    modules = {"argparse", "gettext", "locale"}
    assert not modules & (loaded_by([ROWS[name] for name in SUBCOMMAND_ARGS]) - baseline)
    assert modules <= loaded_by([["bmsym", "--help"]])
    assert modules <= loaded_by([["bmsym", "classify"]], code=2)


def test_only_affine_loads_dataclasses():
    modules = {path.stem for path in SRC.glob("*.py")}
    assert {"affine", "classify", "group", "sampling"} <= modules
    # every module but affine, and __main__, which would run the command line
    names = sorted(modules - {"affine", "__main__"})
    probe = "\n".join([
        "import sys", "seen = set(sys.modules)", *(f"import bmsym.{name}" for name in names),
        "sys.exit('dataclasses' in sys.modules.keys() - seen)",
    ])
    assert subprocess.run([sys.executable, "-c", probe]).returncode == 0


def test_no_row_loads_typing():
    # -S: on some hosts site loads typing itself (through a .pth hook); in later
    # 3.13 releases the stdlib's inspect, which dataclasses imports, does too
    probe = "import dataclasses, sys; sys.exit('typing' in sys.modules)"
    if subprocess.run([sys.executable, "-S", "-c", probe]).returncode:
        pytest.skip("this Python's own dataclasses loads typing")
    assert "typing" not in loaded_by(list(ROWS.values()), "-S")
