"""Interpreters that the tests spawn import the package from this checkout's
src/, and every Hypothesis failure prints its reproduction blob."""

import os
import pathlib

from hypothesis import settings

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

# CI keeps no example database, so the blob is the way to replay a failure there
settings.register_profile("bmsym", print_blob=True)
settings.load_profile("bmsym")
