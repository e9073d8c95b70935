"""Run one logalg CLI command with tracing, for traced cli-cold passes.

    python3 perfbench/cli_shim.py <timed|count> <logalg cli arguments...>

Behaves like ``python -m logalg.cli`` except that the command's stdout
is captured and printed, together with its exit code and the trace, as
one JSON line.  Only the command itself is traced, not interpreter
start or import.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
from logalg import cli  # noqa: E402


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.Timer() if mode == "timed" else tracing.Counter()
    undo = tracing.install(recorder)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        if mode == "count":
            recorder.start()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        finally:
            if mode == "count":
                recorder.stop()
    tracing.uninstall(undo)
    print(json.dumps({"stdout": captured.getvalue(), "exit": code, "trace": recorder.summary()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
