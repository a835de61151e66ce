"""The README's examples run as written: the library quick start, and each
command of the CLI examples block prints the output shown under it."""

import pathlib
import re
import shlex
import subprocess
import sys

import pytest

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced(language, after):
    """The body of the first ``language`` fenced block that follows ``after``."""
    start = README.index(after)
    return re.search(rf"^```{language}\n(.*?)^```$", README[start:], re.M | re.S).group(1)


def examples():
    """(argv, expected stdout) for each ``bmsym ...`` line and the ``# ...`` line under it."""
    lines = fenced("sh", "Examples:").splitlines()
    return [
        (shlex.split(line)[1:], lines[k + 1].removeprefix("# ") + "\n")
        for k, line in enumerate(lines)
        if line.startswith("bmsym ")
    ]


def test_quick_start_runs():
    exec(compile(fenced("python", "## Library quick start"), "README.md", "exec"), {})


EXAMPLES = examples()


def test_the_examples_block_is_read():
    assert EXAMPLES


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
def test_cli_example_prints_what_the_readme_shows(argv, expected):
    result = subprocess.run([sys.executable, "-m", "bmsym", *argv], capture_output=True, text=True)
    assert (result.stdout, result.stderr) == (expected, "")
