"""The runtime is stdlib-only: every module ``logalg`` imports is in the
standard library or is ``logalg`` itself (no gmpy2, no numpy).  Importing
it also leaves out ``dataclasses`` and the ``inspect`` that it loads, and no
module imports ``typing``: every module postpones its annotations, so the
import would cost start-up time and serve nothing at run time."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "logalg").glob("*.py"))


def imported_top_levels(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "logalg" if node.level else node.module.partition(".")[0]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"operators.py", "series.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_logalg(path):
    foreign = {m for m in imported_top_levels(path) if m != "logalg" and m not in sys.stdlib_module_names}
    assert foreign == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_runtime_typing(path):
    # read the source: site may already have imported typing (a .pth file
    # of an installed package can), so sys.modules would not show it
    assert "typing" not in set(imported_top_levels(path))


def test_import_leaves_out_inspect():
    # dataclasses imports inspect: about 0.9 MB resident in every process
    code = "import sys, logalg.cli, logalg.render; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
