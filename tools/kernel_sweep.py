"""Wall time and rational size of the two exact kernels, by cutoff K.

    PYTHONPATH=src python3 tools/kernel_sweep.py [--repeat R]

Runs against whichever ``logalg`` is on the path, so the same script
times two checkouts.  Prints one JSON object:

* ``sweep``: ``convolve`` of J**-1 with (1 - D)**(-3/2) at cap K, and
  ``bernoulli_j(K) ** -1`` and ``one_minus_d_pow(-3/2, K) ** -7``, for
  K = 10, 20, 40, 80, 150;
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
import time
from fractions import Fraction

from logalg.classics import bernoulli_seq, laguerre_sheffer_seq
from logalg.operators import (
    bernoulli_j,
    convolve,
    forward_difference,
    one_minus_d_pow,
)
from logalg.sheffer import AssociatedRule, GradedSeq

KS = (10, 20, 40, 80, 150)


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
    print(json.dumps({"repeat": r, "sweep": sweep, "large": large}, indent=1))


if __name__ == "__main__":
    main()
