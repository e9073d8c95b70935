"""Wall time and rational size of the two exact kernels, by cutoff K.

    PYTHONPATH=src python3 tools/kernel_sweep.py [--repeat R]

Runs against whichever ``logalg`` is on the path, so the same script
times two checkouts; the reference loop comes from ``tests/oracles.py``
next to this script.  Prints one JSON object:

* ``sweep``: ``convolve`` of J**-1 with (1 - D)**(-3/2) at cap K,
  ``bernoulli_j(K) ** -1`` and ``one_minus_d_pow(-3/2, K) ** -7``, for
  K = 10, 20, 40, 80, 150, and the construction of
  ``one_minus_d_pow(-3/2, K)`` for K = 10, 40, 150;
* ``shift``: E^(1/2) on the Bernoulli member of degree 2 and the
  Laguerre member (grade 1/2) of degree 2, each of depth 4, 8, 16, 32
  and 48, by ``LogSeries.shift`` and by the oracle loop
  ``shift_by_roman_coeff``;
* ``large``: the large-cap cases ``bernoulli_j(150) ** -1``,
  ``one_minus_d_pow(-3/2, 120) ** -7``,
  ``forward_difference(40).comp_inverse()`` and the order-(0) genfun
  checks (assoc-delta and Laguerre 1/3 at K = 30, Bernoulli at K = 60).

Each entry gives the best wall time of R runs in seconds and the largest
numerator and denominator bit length among the result's coefficients.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from logalg.classics import bernoulli_member, bernoulli_seq, laguerre_member, laguerre_sheffer_seq
from logalg.operators import (
    bernoulli_j,
    convolve,
    forward_difference,
    one_minus_d_pow,
)
from logalg.series import OrderTag
from logalg.sheffer import AssociatedRule, GradedSeq

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import shift_by_roman_coeff  # noqa: E402

KS = (10, 20, 40, 80, 150)
BINOMIAL_KS = (10, 40, 150)
SHIFT_DEPTHS = (4, 8, 16, 32, 48)


def bits(values) -> dict:
    values = [Fraction(v) for v in values]
    return {
        "num_bits_max": max((abs(v.numerator).bit_length() for v in values), default=0),
        "den_bits_max": max((v.denominator.bit_length() for v in values), default=0),
    }


def timed(fn, repeat: int) -> tuple[float, object]:
    best, out = float("inf"), None
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def entry(fn, repeat: int, coeffs=lambda r: r.coeffs.values()) -> dict:
    seconds, result = timed(fn, repeat)
    return {"seconds": seconds, **(bits(coeffs(result)) if coeffs else {})}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    r = parser.parse_args().repeat

    sweep = {}
    for K in KS:
        j_inv = bernoulli_j(K) ** -1
        binom = one_minus_d_pow(Fraction(-3, 2), K)
        sweep[str(K)] = {
            "convolve": entry(lambda: convolve(j_inv.coeffs, binom.coeffs, K), r, dict.values),
            "bernoulli_j**-1": entry(lambda: bernoulli_j(K) ** -1, r),
            "one_minus_d_pow(-3/2)**-7": entry(lambda: binom ** -7, r),
        }
        if K in BINOMIAL_KS:
            sweep[str(K)]["one_minus_d_pow(-3/2)"] = entry(lambda: one_minus_d_pow(Fraction(-3, 2), K), r)
    shift = {}
    z = Fraction(1, 2)
    for depth in SHIFT_DEPTHS:
        members = {
            "bernoulli": bernoulli_member(OrderTag.GENERIC, 2, 2 - depth),
            "laguerre(1/2)": laguerre_member(OrderTag.GENERIC, 2, Fraction(1, 2), 2 - depth),
        }
        row = shift[str(depth)] = {}
        for name, p in members.items():
            row[f"shift {name}"] = entry(lambda: p.shift(z), r)
            row[f"oracle loop {name}"] = entry(lambda: shift_by_roman_coeff(p, z), r)
    large = {
        "bernoulli_j(150)**-1": entry(lambda: bernoulli_j(150) ** -1, r),
        "one_minus_d_pow(-3/2,120)**-7": entry(
            lambda: one_minus_d_pow(Fraction(-3, 2), 120) ** -7, r
        ),
        "forward_difference(40).comp_inverse()": entry(
            lambda: forward_difference(40).comp_inverse(), r
        ),
        "genfun_check_order_zero assoc-delta K=30": entry(
            lambda: GradedSeq(AssociatedRule(forward_difference)).genfun_check_order_zero(30), r, None
        ),
        "genfun_check_order_zero laguerre(1/3) K=30": entry(
            lambda: laguerre_sheffer_seq(Fraction(1, 3)).genfun_check_order_zero(30), r, None
        ),
        "genfun_check_order_zero bernoulli K=60": entry(
            lambda: bernoulli_seq().genfun_check_order_zero(60), r, None
        ),
    }
    print(json.dumps({"repeat": r, "sweep": sweep, "shift": shift, "large": large}, indent=1))


if __name__ == "__main__":
    main()
