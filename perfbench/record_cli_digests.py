"""Record the cli-cold command catalogue with the sha256 of each command's stdout.

Usage, from the repository root:

    python3 perfbench/record_cli_digests.py

The catalogue is a list of strata, named ``<subcommand>.<kind>``.  A
stratum groups command variants of about the same cost.  The cli-cold
deck gives every subcommand the same number of requests, spread evenly
over that subcommand's strata (see workloads.cli_decks), so every deck
has the same cost composition and the seed only chooses flags, operands
and order.  The table strata are the four combinations of --order and
--format; the verify strata hold the --corrupt negative controls apart.
Every variant's stdout digest and exit code are recorded from the code
at the time of recording; the benchmark then requires byte-identical
output.  Run this again only when the CLI output is meant to change.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import subprocess
import sys

from common import HERE, ROOT, cli_env

OUT = HERE / "cli_catalogue.json"

_RANGES = [(-2, 2), (-4, 0), (0, 4), (-6, -2), (-3, 3)]
_SERIES = [
    {"order": "generic", "floor": -6, "coeffs": [[2, "1"], [0, "-3/7"]]},
    {"order": "generic", "floor": -7, "coeffs": [[1, "2"], [-1, "1/3"], [-4, "5"]]},
    {"order": "generic", "floor": -8, "coeffs": [[3, "1/2"], [1, "-1"]]},
    {"order": "generic", "floor": -6, "coeffs": [[2, "-4/5"], [-2, "3/2"]]},
    {"order": "generic", "floor": -7, "coeffs": [[1, "1"], [0, "1"], [-3, "-2/9"]]},
    {"order": "generic", "floor": -8, "coeffs": [[3, "1"], [2, "-1/6"], [-5, "7"]]},
]
_POLYS = [
    {"order": "zero", "floor": 0, "coeffs": [[3, "1"], [1, "-1/2"], [0, "2"]]},
    {"order": "zero", "floor": 0, "coeffs": [[4, "1/24"], [2, "3"]]},
    {"order": "zero", "floor": 0, "coeffs": [[2, "-5/3"], [1, "1"]]},
]


def _table(order: str, fmt: str) -> list[list[str]]:
    seqs = [("bernoulli", []), ("hermite", ["--sigma", "1"]), ("hermite", ["--sigma", "1/2"]),
            ("laguerre", ["--grade", "0"]), ("laguerre", ["--grade", "1"]), ("laguerre", ["--grade", "1/2"]),
            ("harmonic", [])]
    return [
        ["table", name, "--from", str(lo), "--to", str(hi), "--depth", str(depth),
         "--order", order, "--format", fmt, *extra]
        for (name, extra), (lo, hi), depth in itertools.product(seqs, _RANGES, (4, 8, 12))
    ]


def strata() -> list[tuple[str, list[list[str]]]]:
    sig = [["--sigma", "1"], ["--sigma", "1/2"]]
    grades = [["--grade", "0"], ["--grade", "1"], ["--grade", "1/2"]]
    out: list[tuple[str, list[list[str]]]] = [
        (f"table.{order}.{fmt}", _table(order, fmt))
        for order, fmt in itertools.product(("generic", "zero"), ("json", "latex"))
    ]
    basis_params = {"bernoulli": [[]], "hermite": sig, "laguerre": grades, "harmonic": [[]]}
    for basis, params in basis_params.items():
        out.append((f"expand.{basis}", [
            ["expand", "--basis", basis, "--amin", str(amin), "--series", json.dumps(s), *extra]
            for s, amin, extra in itertools.product(_SERIES, (-1, 0), params)
        ]))
    out += [
        ("verify.em", [["verify", "em", "--depth", str(d)] for d in (10, 11, 12)]),
        ("verify.sheffer", [
            ["verify", "sheffer", "--seq", "bernoulli", "--depth", "6"],
            ["verify", "sheffer", "--seq", "hermite", "--depth", "8", "--sigma", "1/2"],
            ["verify", "sheffer", "--seq", "hermite", "--depth", "8", "--sigma", "1"],
            *(["verify", "sheffer", "--seq", "laguerre", "--depth", "5", "--grade", b] for b in ("0", "1", "2")),
        ]),
        ("verify.genfun", [
            *(["verify", "genfun", "--seq", seq, "--depth", "10", *extra]
              for seq, extra in [("bernoulli", []), ("hermite", ["--sigma", "1/2"]), ("hermite", ["--sigma", "1"])]),
            *(["verify", "genfun", "--seq", "laguerre", "--grade", str(b), "--depth", "10"] for b in (0, 1, 2, 3)),
            ["verify", "genfun", "--seq", "assoc-delta", "--depth", "8"],
        ]),
        ("verify.corrupt", [
            *(["verify", "em", "--depth", str(d), "--corrupt"] for d in (6, 7, 8)),
            *(["verify", "sheffer", "--seq", seq, "--depth", "4", "--corrupt"]
              for seq in ("bernoulli", "hermite", "harmonic")),
            *(["verify", "genfun", "--seq", seq, "--depth", str(k), "--corrupt"]
              for seq in ("bernoulli", "laguerre") for k in (4, 6)),
        ]),
        ("sum.harmonic", [
            ["sum", "harmonic", "--x", x, "--n", n, "--order", o]
            for x, n, o in itertools.product(("5", "10", "20"), ("9", "89"), ("4", "6"))
        ]),
        ("sum.stirling", [
            ["sum", "stirling", "--x", x, "--n", n, "--order", o]
            for x, n, o in itertools.product(("5", "10", "20"), ("9", "89"), ("4", "6"))
        ]),
        ("eval.level0", [
            ["eval", "--level", "0", "--x", x, "--series", json.dumps(s)]
            for s, x in itertools.product(_POLYS, ("0.5", "2", "7.25"))
        ]),
        ("eval.level1", [
            ["eval", "--level", "1", "--x", x, "--series", json.dumps(s)]
            for s, x in itertools.product(_SERIES, ("3", "10", "40"))
        ]),
    ]
    return out


def main() -> int:
    catalogue = []
    for name, variants in strata():
        expected_exit = 1 if name.endswith(".corrupt") else 0
        recorded = []
        for args in variants:
            proc = subprocess.run(
                [sys.executable, "-m", "logalg.cli", *args],
                cwd=ROOT, env=cli_env(), capture_output=True, timeout=120,
            )
            if proc.returncode != expected_exit or b"Traceback" in proc.stderr:
                print(f"unexpected result for {args}: exit {proc.returncode}\n"
                      f"{proc.stderr.decode()}", file=sys.stderr)
                return 1
            recorded.append({
                "args": args,
                "exit": proc.returncode,
                "sha256": hashlib.sha256(proc.stdout).hexdigest(),
            })
        catalogue.append({"stratum": name, "variants": recorded})
    lines = ",\n".join(json.dumps(s) for s in catalogue)
    OUT.write_text('{"strata": [\n' + lines + "\n]}\n")
    print(f"wrote {sum(len(s['variants']) for s in catalogue)} variants "
          f"in {len(catalogue)} strata to {OUT.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
