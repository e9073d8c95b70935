"""The measuring tool under the test suite: ``tools/kernel_sweep.py``
runs to the end and every row it reports has one shape.

It runs as a subprocess, as it puts perfbench/ on its path, whose
oracles.py shares a module name with the tests' own.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIELDS = ["seconds", "constructions", "fraction_ops", "log_series", "recip", "convolve", "num_bits_max", "den_bits_max"]


@pytest.fixture(scope="module")
def sweep():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "tools/kernel_sweep.py", "--repeat", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_row_has_the_same_fields(sweep):
    sections = {name: rows for name, rows in sweep.items() if name not in ("repeat", "deck")}
    assert set(sections) == {"sweep", "shift", "layers", "closed_forms", "eulermac"}
    for rows in sections.values():
        assert rows
        for row in rows.values():
            assert list(row) == FIELDS
    assert sweep["deck"]["verify-deep seed=11 warm pass"]["total"]["convolve"] > 0


@pytest.mark.parametrize(
    "section, case",
    [("sweep", "bernoulli_j**-1"), ("layers", "compose"), ("layers", "check_binomial_shift bernoulli"),
     ("eulermac", "lambda_sum_closed_form")],
)
def test_smallest_and_largest_size_differ(sweep, section, case):
    # a thunk that read its loop variable late would report the last size's counts at every size.
    # em_apply cannot show it: n enters only its integer power sums, and at K = 12 its result
    # vanishes identically, so its counts and bits are the same at every n
    rows = [row for name, row in sweep[section].items() if name.rsplit(" ", 1)[0] == case]
    counts = [{key: row[key] for key in FIELDS[1:]} for row in (rows[0], rows[-1])]
    assert len(rows) >= 3
    assert counts[0] != counts[1]
