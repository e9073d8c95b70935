"""The logalg benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (defined in traffic.json, generated in workloads.py):
cli-cold, session-warm, verify-deep.  Every pass starts a fresh
interpreter (worker.py), so module-level caches start empty.

--trace 0 measures the end-to-end metrics with tracing off: set-up is
timed over several fresh interpreters and reported as the median, then
one closed loop runs for at least --seconds, in whole windows (decks, or
fixed runs of the session stream) whose median rate, median latency and
median CPU per request are reported.  The tail is the workload's fixed
percentile; the loop goes on until at least ten samples lie beyond it.
Every time is scaled by reference bursts run around it (speed.py), so
that the host's drifting speed cancels; the report line gives the
unscaled figures and the bursts beside them.
--trace 1 reports the per-layer metrics: a CLI start-up probe, then the
workload's fixed trace prefix
three times (untraced, with self-time spans, with deterministic counts),
then the scaling sweep.

Every output is checked.  The last stdout line is the result object; the
line before it is a report with the run environment and the properties
of the traffic that was run.  Exits 2 without a result when the
checkout has no logalg sources or a pass fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

import speed
from common import HERE, ROOT, cli_catalogue, cli_env, rank, traffic

SETUP_SAMPLES = 15
WORKER_TIMEOUT_S = 170
CLI_PROBE = {
    "table": "table.generic.json",
    "expand": "expand.bernoulli",
    "verify": "verify.em",
    "sum": "sum.harmonic",
    "eval": "eval.level1",
}
# Per-layer stats; see traffic.json "per_layer" for what each should move.
KERNELS = [
    "operators.apply", "operators.recip", "operators.__mul__", "operators.__pow__",
    "operators.compose", "operators.comp_inverse",
    "series.shift", "series.__add__", "series.truncate",
    "sheffer.taylor_coeffs", "sheffer.genfun_coefficient",
]
ROMAN = ["roman.roman_ratio", "roman.roman_coeff"]
CONTROLS = [
    "sheffer.genfun_check_order_zero", "sheffer.check_lowering",
    "sheffer.check_binomial_shift", "sheffer.check_biorthogonality",
    "classics.emit_table", "classics.bernoulli_member", "classics.hermite_member",
    "classics.laguerre_member", "classics.laguerre_genfun_check",
    "eulermac.em_operator_residual", "eulermac.em_apply", "eulermac.lambda_sum_closed_form",
    "eulermac.harmonic_identity", "eulermac.stirling_identity",
    "numeric.eval_series", "render.table_to_latex",
]


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, seconds: float = 0.0) -> tuple[float, dict]:
    """Run one worker pass; returns (set-up seconds up to READY, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(seconds)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker {mode} pass of {workload} failed (exit {proc.returncode})")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else {}


def timed_cmd(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=cli_env(), capture_output=True,
                          timeout=WORKER_TIMEOUT_S)
    return time.perf_counter() - start, proc


def interp_ms(samples: int = 5) -> float:
    """Bare interpreter start, `python -c pass`, median wall ms."""
    return 1000 * statistics.median(timed_cmd(["-c", "pass"])[0] for _ in range(samples))


def import_ms(samples: int = 3) -> float:
    """Cumulative `import logalg.cli` time from -X importtime, median ms."""
    values = []
    for _ in range(samples):
        _, proc = timed_cmd(["-X", "importtime", "-c", "import logalg.cli"])
        match = re.search(r"\|\s*(\d+) \| logalg\.cli\s*$", proc.stderr.decode(), re.M)
        if not match:
            raise BenchError("no import time reported for logalg.cli")
        values.append(int(match.group(1)) / 1000)
    return statistics.median(values)


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(rank(len(ordered), p) - 1, 0)]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


def e2e_metrics(result: dict, setups: list[float], setup_bursts: list[float], tail_p: int) -> tuple[dict, dict]:
    """End-to-end metrics and report of one untraced worker pass."""
    n, failed, ok = result["attempted"], result["failed"], result["ok"]
    beyond = n - rank(n, tail_p)
    if beyond < 10:
        raise BenchError(f"{beyond} samples beyond the {tail_p}th percentile of {n}; ten are needed")
    # Every time is scaled by the reference bursts around it (speed.py).
    scales = result["scales"]
    lat_ms = [1000 * s * f for s, f in zip(result["latencies_s"], scales)]
    cpu_ms = [1000 * s * f for s, f in zip(result["cpu_s"], scales)]
    # Rate, median latency and CPU are medians over the run's windows (whole
    # decks, or fixed runs of the session stream), so that a minority of
    # windows the scaling did not even out cannot move them.
    windows = result["windows"]
    metrics = {
        "throughput_rps": (statistics.median(1000 * sum(ok[i:j]) / sum(lat_ms[i:j]) for i, j in windows), "1/s"),
        "latency_p50_ms": (statistics.median(percentile(lat_ms[i:j], 50) for i, j in windows), "ms"),
        "latency_tail_ms": (percentile(lat_ms, tail_p), "ms"),
        "cpu_ms_per_req": (statistics.median(sum(cpu_ms[i:j]) / (j - i) for i, j in windows), "ms"),
        "ok_ratio": ((n - failed) / n, "ratio"),
        # Set-ups are too short to carry a burst pair each; the bursts
        # between them give one scale for their median.
        "setup_s": (statistics.median(setups) * speed.REF_BURST_S / statistics.median(setup_bursts), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    raw_ms = [1000 * s for s in result["latencies_s"]]
    bursts_ms = [1000 * b for b in result["bursts_s"]]
    report = {
        "latency_tail": {"percentile": tail_p, "samples": n, "beyond": beyond},
        "elapsed_s": result["elapsed_s"],
        "windows": len(windows),
        "unscaled": {"throughput_rps": sum(ok) / result["elapsed_s"], "latency_p50_ms": percentile(raw_ms, 50),
                     "latency_tail_ms": percentile(raw_ms, tail_p), "setup_s": statistics.median(setups)},
        "reference_burst_ms": {"nominal": 1000 * speed.REF_BURST_S, "count": len(bursts_ms),
                               "min": min(bursts_ms), "median": statistics.median(bursts_ms), "max": max(bursts_ms)},
        "setup_samples_s": setups,
        "fail_ratio": failed / n,
        "failures": result["failures"],
    }
    if "repeat_share" in result:
        report["member_key_repeat_share"] = result["repeat_share"]
    return metrics, report


def end_to_end(workload: str, seed: int, seconds: float, spec: dict) -> tuple[dict, dict, int, int]:
    timed_cmd(["-c", "import logalg.cli"])  # compile bytecode before anything is timed
    spawn(workload, seed, "setup")
    setups, bursts = [], [speed.burst()]
    for _ in range(SETUP_SAMPLES):
        setups.append(spawn(workload, seed, "setup")[0])
        bursts.append(speed.burst())
    _, result = spawn(workload, seed, "run", seconds)
    metrics, report = e2e_metrics(result, setups, bursts, spec["tail_percentile"])
    return metrics, report, result["attempted"], result["failed"]


def per_layer(workload: str, seed: int, interp: float) -> tuple[dict, dict, int, int]:
    timed_cmd(["-c", "import logalg.cli"])
    metrics: dict[str, tuple[float, str]] = {
        "cli.interp_ms": (interp, "ms"),
        "cli.import_ms": (import_ms(), "ms"),
    }
    catalogue = {s["stratum"]: s["variants"][0]["args"] for s in cli_catalogue()}
    for sub, stratum in CLI_PROBE.items():
        args = ["-m", "logalg.cli", *catalogue[stratum]]
        ms = statistics.median(1000 * timed_cmd(args)[0] for _ in range(3))
        metrics[f"cli.{sub}.latency_p50_ms"] = (ms, "ms")

    _, plain = spawn(workload, seed, "plain")
    _, timed = spawn(workload, seed, "timed")
    _, counted = spawn(workload, seed, "count")
    _, sweep = spawn(workload, seed, "sweep")

    self_s = timed["trace"].get("self_s", {})
    counts = counted["trace"]
    traced_wall = sum(timed["latencies_s"])
    get = lambda stat, name: counts.get(stat, {}).get(name, 0)  # noqa: E731
    for name in KERNELS + ROMAN:
        metrics[f"{name}.calls"] = (get("calls", name), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        metrics[f"{name}.fraction_ops"] = (get("fraction_ops", name), "count")
        if name in KERNELS:
            metrics[f"{name}.bits_max"] = (get("bits_max", name), "bits")
    calls, misses = get("calls", "sheffer.member"), get("misses", "sheffer.member")
    metrics["sheffer.member.calls"] = (calls, "count")
    metrics["sheffer.member.misses"] = (misses, "count")
    metrics["sheffer.member.hit_ratio"] = (1 - misses / calls if calls else 0.0, "ratio")
    metrics["sheffer.member.self_s"] = (self_s.get("sheffer.member", 0.0), "s")
    for name in CONTROLS:
        metrics[f"{name}.calls"] = (get("calls", name), "count")
        metrics[f"{name}.self_share"] = (100 * self_s.get(name, 0.0) / traced_wall, "%")
    metrics["trace.overhead_ratio"] = (traced_wall / sum(plain["latencies_s"]), "ratio")
    for name, slope in sweep["ops_exp"].items():
        metrics[name] = (slope, "exponent")

    passes = (plain, timed, counted)
    report = {"trace_prefix_requests": plain["attempted"],
              "failures": [f for p in passes for f in p["failures"]][:5]}
    if "repeat_share" in plain:
        report["member_key_repeat_share"] = plain["repeat_share"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return metrics, report, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "logalg" / "__init__.py").is_file():
        print(f"error: no logalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = traffic()["workloads"]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = environment()
    try:
        env["cli.interp_ms"] = interp_ms()
        if args.trace:
            metrics, report, attempted, failed = per_layer(args.workload, args.seed, env["cli.interp_ms"])
        else:
            metrics, report, attempted, failed = end_to_end(
                args.workload, args.seed, args.seconds, workloads[args.workload])
            if args.workload == "cli-cold":
                report["interp_share_of_p50"] = env["cli.interp_ms"] / report["unscaled"]["latency_p50_ms"]
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "environment": env, "report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
