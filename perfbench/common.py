"""Paths and files shared by the benchmark's scripts; stdlib only, so that
run.py can use it before it knows whether the checkout holds logalg."""

from __future__ import annotations

import json
import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cli_env() -> dict:
    """Environment for every interpreter the benchmark starts."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def traffic() -> dict:
    return json.loads((HERE / "traffic.json").read_text())


def cli_catalogue() -> list[dict]:
    """The recorded cli-cold strata (see record_cli_digests.py)."""
    return json.loads((HERE / "cli_catalogue.json").read_text())["strata"]


def rank(n: int, p: int) -> int:
    """1-based nearest rank of the p-th percentile of n samples, in
    integer arithmetic (p * n / 100 in floats can land just below a
    whole number)."""
    return (p * n + 99) // 100
