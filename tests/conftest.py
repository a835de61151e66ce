"""Interpreters that the tests spawn import the package from this checkout's src/."""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
