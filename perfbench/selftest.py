"""Smoke test of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload briefly, untraced and traced, and asserts that
the emitted metric names and units are exactly those in BENCHMARK.json,
that each per-layer metric has an expectation in traffic.json, that the
deterministic counts are whole numbers, that one seed gives one request
list, and that a deliberately wrong expected value is counted as a
failure.  Takes about two minutes; exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from itertools import islice

from common import HERE, ROOT

sys.path.insert(1, str(ROOT / "src"))

import oracles  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_STATS = ("calls", "misses", "fraction_ops", "bits_max")


def expectation(metric: str, per_layer: dict) -> dict | None:
    """The traffic.json entry for a per-layer metric: by its stat, else by
    the longest name prefix."""
    stat = metric.rsplit(".", 1)[-1]
    if stat in per_layer:
        return per_layer[stat]
    keys = [k for k in per_layer if metric == k or metric.startswith(k + ".")]
    return per_layer[max(keys, key=len)] if keys else None


def check_emitted() -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in BENCH["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCH["per_layer"]},
    }
    per_layer = wl.TRAFFIC["per_layer"]
    for w in BENCH["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "7",
                   "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, f"{w['name']} trace {trace}: {proc.stderr}"
            result = json.loads(proc.stdout.splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected[trace], f"{w['name']} trace {trace}: names or units differ"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), name
                if trace:
                    assert expectation(name, per_layer) is not None, f"no expectation for {name}"
                    if name.rsplit(".", 1)[-1] in COUNT_STATS:
                        assert isinstance(m["value"], int), name
            print(f"ok  {w['name']} trace {trace}: {len(got)} metrics")


def check_seeded_inputs() -> None:
    def session(seed):
        return list(islice(wl.session_stream(seed), 300))

    def cli(seed):
        return list(islice(wl.cli_decks(seed), 3))

    for make in (cli, wl.verify_deck, session):
        assert json.dumps(make(3)) == json.dumps(make(3)), make.__name__
        assert json.dumps(make(3)) != json.dumps(make(4)), make.__name__
    print("ok  one seed gives one request list")


def check_wrong_expectation_fails() -> None:
    # A wrong recorded digest: one cli-cold request must fail.
    deck = next(wl.cli_decks(5))[:3]
    deck[1] = dict(deck[1], sha256="0" * 64)
    original_decks, wl.cli_decks = wl.cli_decks, lambda seed: iter([deck])
    try:
        result = worker.run("cli-cold", 5, "plain", 0)
    finally:
        wl.cli_decks = original_decks
    assert result["attempted"] == 3 and result["failed"] == 1 and result["ok"] == [1, 0, 1], result

    # A wrong Bernoulli number in the oracle: Bernoulli requests must fail.
    original_numbers = oracles.bernoulli_numbers
    oracles.bernoulli_numbers = lambda n: (Fraction(1), Fraction(1, 2)) + original_numbers(n)[2:]
    oracles.member.cache_clear()
    try:
        result = worker.run("session-warm", 5, "plain", 0)
    finally:
        oracles.bernoulli_numbers = original_numbers
        oracles.member.cache_clear()
    fail_ratio = result["failed"] / result["attempted"]
    assert 0 < fail_ratio < 1 and sum(result["ok"]) == result["attempted"] - result["failed"], result
    print(f"ok  wrong expected values count as failures (fail_ratio {fail_ratio:.3f})")


def main() -> int:
    try:
        check_seeded_inputs()
        check_wrong_expectation_fails()
        check_emitted()
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
