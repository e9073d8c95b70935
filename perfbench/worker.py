"""One benchmark pass in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py <workload> <seed> <mode> <seconds>

Set-up (imports and the first window of inputs) ends with a line
``READY`` on stdout, which run.py times as set-up.  The last stdout line
is the pass's result as JSON.  Modes:

  setup   stop after READY
  run     untraced, closed loop of whole windows for <seconds>
  plain   untraced, the workload's fixed trace prefix
  timed   the trace prefix with per-function self-time spans
  count   the trace prefix with deterministic per-function counts
  sweep   the scaling sweep (deterministic operation counts)

A window is a whole deck (cli-cold, verify-deep) or window_requests
requests of the session stream.  Between windows, outside the measured
time, the run checks the window's outputs, clears the oracles' caches
and makes the next window's inputs.  Reference bursts (speed.py) run
between requests and give each request the scale for its times; they
are not measured time.  The run ends at a window boundary once
<seconds> have been measured and the workload's fixed tail percentile
has at least ten samples beyond it; if that takes longer than
MAX_MEASURED_S it exits 1 without a result.

cli-cold requests run one ``python -m logalg.cli`` subprocess each; in
the timed and count modes they run through cli_shim.py instead, which
traces inside the subprocess.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from itertools import islice

from common import HERE, ROOT, cli_env, rank

sys.path.insert(1, str(ROOT / "src"))

import oracles  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

CLI_TIMEOUT_S = 120
MAX_MEASURED_S = 120
TRACE_MODES = ("plain", "timed", "count")


def windows(workload: str, seed: int, mode: str):
    """The pass's windows of call-ready requests: fresh cli-cold decks,
    the session stream cut into windows, or the verify deck again and
    again.  A trace mode gets one window, the fixed trace prefix."""
    if workload == "cli-cold":
        yield from wl.cli_decks(seed)
    if workload == "session-warm":
        stream = wl.session_stream(seed)
        size = wl.spec(workload)["trace_prefix" if mode in TRACE_MODES else "window_requests"]
        while True:
            yield [wl.prepare(r) for r in islice(stream, size)]
    deck = [wl.prepare(r) for r in wl.verify_deck(seed)]
    while True:
        yield deck


def _cli_call(req: dict, mode: str) -> tuple[tuple[bytes, int, bytes], dict | None]:
    if mode in ("timed", "count"):
        cmd = [sys.executable, str(HERE / "cli_shim.py"), mode, *req["args"]]
    else:
        cmd = [sys.executable, "-m", "logalg.cli", *req["args"]]
    proc = subprocess.run(cmd, cwd=ROOT, env=cli_env(), capture_output=True, timeout=CLI_TIMEOUT_S)
    if mode not in ("timed", "count"):
        return (proc.stdout, proc.returncode, proc.stderr), None
    shim = json.loads(proc.stdout.decode().splitlines()[-1])
    return (shim["stdout"].encode(), shim["exit"], proc.stderr), shim["trace"]


def _merge(total: dict, part: dict) -> None:
    for stat, values in part.items():
        into = total.setdefault(stat, {})
        for name, v in values.items():
            into[name] = max(into.get(name, 0), v) if stat == "bits_max" else into.get(name, 0) + v


def run(workload: str, seed: int, mode: str, seconds: float) -> dict:
    source = windows(workload, seed, mode)
    requests = next(source)
    print("READY", flush=True)
    if mode == "setup":
        return {}
    cli = workload == "cli-cold"
    recorder = None
    if mode in ("timed", "count") and not cli:
        recorder = tracing.Timer() if mode == "timed" else tracing.Counter()
    counting = isinstance(recorder, tracing.Counter)
    undo = tracing.install(recorder) if recorder else None
    trace: dict = {}
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    tail_p = wl.spec(workload)["tail_percentile"]

    def cpu_s() -> float:
        usage = resource.getrusage(who)
        return usage.ru_utime + usage.ru_stime

    failures, ok = [], []
    seen: set = set()
    member_requests = repeats = 0

    def check(done: list) -> None:
        nonlocal member_requests, repeats
        for req, out, error in done:
            if workload == "session-warm":
                keys = wl.member_keys(req)
                if keys:
                    member_requests += 1
                    repeats += all(k in seen for k in keys)
                    seen.update(keys)
            if error is None:
                try:
                    if wl.check(req, out):
                        ok.append(1)
                        continue
                    error = "wrong output"
                except Exception as exc:  # an output the oracle cannot read is wrong
                    error = f"check raised {type(exc).__name__}: {exc}"
            ok.append(0)
            failures.append({"request": repr(req)[:400], "error": error})

    latencies, cpus, windows_done = [], [], []
    pacer = speed.Pacer()
    measured = 0.0
    while True:
        pending = []
        start = len(latencies)
        pacer.mark(start, force=True)
        for req in requests:
            pacer.mark(len(latencies))
            error = None
            if counting:
                recorder.start()
            c0, t0 = cpu_s(), time.perf_counter()
            try:
                if cli:
                    out, part = _cli_call(req, mode)
                    if part:
                        _merge(trace, part)
                else:
                    out = wl.execute(req)
            except Exception as exc:  # a failed request is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            cpus.append(cpu_s() - c0)
            if counting:
                recorder.stop()
            pending.append((req, out, error))
        pacer.mark(len(latencies), force=True)
        windows_done.append([start, len(latencies)])
        measured += sum(latencies[start:])
        if mode != "run":
            break
        check(pending)
        oracles.clear_caches()
        if measured >= seconds and len(latencies) - rank(len(latencies), tail_p) >= 10:
            break
        if measured >= MAX_MEASURED_S:
            raise SystemExit(f"{workload}: no {tail_p}th-percentile tail with ten samples "
                             f"beyond it after {measured:.0f} s")
        requests = next(source)
    # For session-warm this also counts one window of outputs and the
    # oracles' work for it, which the run holds at that moment.
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    if undo is not None:
        tracing.uninstall(undo)
    if mode != "run":
        check(pending)

    result = {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:5],
        "elapsed_s": measured,
        "latencies_s": latencies,
        "cpu_s": cpus,
        "scales": pacer.scales(len(latencies)),
        "bursts_s": [b for _, b in pacer.marks],
        "ok": ok,
        "windows": windows_done,
        "peak_rss_mb": peak_rss_mb,
    }
    if workload == "session-warm":
        result["repeat_share"] = repeats / member_requests if member_requests else 0.0
    if recorder:
        trace = recorder.summary()
    if mode in ("timed", "count"):
        result["trace"] = trace
    return result


def main() -> int:
    workload, seed, mode, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4])
    if mode == "sweep":
        print("READY", flush=True)
        print(json.dumps({"ops_exp": tracing.scaling_sweep()}))
        return 0
    print(json.dumps(run(workload, seed, mode, seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
