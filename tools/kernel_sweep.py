"""Wall time and operation counts of logalg's layers, case by case.

    PYTHONPATH=src python3 tools/kernel_sweep.py [--repeat R]

Runs against whichever ``logalg`` is on the path, so the same script
measures two checkouts; the oracle loop and the profile hook come from
``tests/oracles.py`` next to this script.  Prints one JSON object of
sections, each a table from row name to row.

A row is one case at one size (the last ``key=value`` of its name).
Its operands are built before the clock.  It holds the best wall time of
R calls (``seconds``) and, from one more call under a profile hook, the
calls of ``Fraction.__new__`` (``constructions``), of the Fraction
arithmetic that ``perfbench/tracing.py`` counts (``fraction_ops``), of
``LogSeries.__init__`` (``log_series``), ``ArtinOp.recip`` (``recip``)
and ``convolve``, and the largest numerator and denominator bit length
among the exact values of its result (``num_bits_max``, ``den_bits_max``;
0 for a bool).  Counts are deterministic; times are not.

* ``deck``: the counts alone, per request kind of the benchmark's
  workloads (``perfbench/workloads.py``), over the first 3 000 seed-12
  session-warm requests from cold caches and one pass of the seed-11
  verify-deep deck after a warm-up pass.  Requests are prepared outside
  the count.  It runs first, before the other sections warm any cache.
* ``sweep``: the kernels: ``convolve``, powers and reciprocals of built
  operators, and the construction of (1 - D)**(-3/2).
* ``shift``: E^(1/2) on a Bernoulli and a Laguerre member, by
  ``LogSeries.shift`` and by the oracle loop ``shift_by_roman_coeff``.
* ``layers``: ``compose``, ``comp_inverse``, ``exp_genfun_coefficients``,
  ``check_binomial_shift`` and the generating-function checks, these two
  on a fresh sequence per call.
* ``closed_forms``: ``hermite_closed_form`` and Bernoulli member reads.
* ``eulermac``: the weight operator, the two identities, ``em_apply``
  and ``lambda_sum_closed_form``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Mapping
from fractions import Fraction
from functools import partial
from pathlib import Path

from logalg.classics import (
    bernoulli_member,
    bernoulli_seq,
    hermite_closed_form,
    laguerre_genfun_check,
    laguerre_member,
    laguerre_sheffer_seq,
)
from logalg.eulermac import _weight_op, em_apply, harmonic_identity, lambda_sum_closed_form, stirling_identity
from logalg.operators import (
    ArtinOp,
    bernoulli_j,
    convolve,
    forward_difference,
    identity_op,
    one_minus_d_pow,
    weierstrass,
)
from logalg.series import LogSeries, OrderTag
from logalg.sheffer import AssociatedRule, GradedSeq, exp_genfun_coefficients

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
from oracles import profiled, shift_by_roman_coeff  # noqa: E402
from tracing import _ARITH  # noqa: E402
# workloads' own ``check`` is never called here, so it does not matter
# that ``oracles`` names the tests' module in this process
from workloads import execute, prepare, session_stream, verify_deck  # noqa: E402

# the functions whose calls the profile hook counts, by the name they are reported under
COUNTED = {
    Fraction.__new__.__code__: "constructions",
    **dict.fromkeys(_ARITH, "fraction_ops"),
    LogSeries.__init__.__code__: "log_series",
    ArtinOp.recip.__code__: "recip",
    convolve.__code__: "convolve",
}
COUNT_NAMES = tuple(dict.fromkeys(COUNTED.values()))
G, Z, HALF = OrderTag.GENERIC, OrderTag.ZERO, Fraction(1, 2)


def exact_values(result) -> list:
    """The rationals a result holds: a series' or operator's coefficients,
    a coefficient map's values, or those of each part of a list or tuple."""
    result = getattr(result, "coeffs", result)
    if isinstance(result, Mapping):
        return list(result.values())
    if isinstance(result, (list, tuple)):
        return [v for part in result for v in exact_values(part)]
    return [result] if isinstance(result, (int, Fraction)) and not isinstance(result, bool) else []


def measure(fn, repeat: int) -> dict:
    """Best wall time of ``repeat`` calls of ``fn``; counts and bits of one more."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    counts = dict.fromkeys(COUNT_NAMES, 0)
    values = exact_values(profiled(fn, COUNTED, counts))
    return {
        "seconds": best,
        **counts,
        "num_bits_max": max((abs(v.numerator).bit_length() for v in values), default=0),
        "den_bits_max": max((v.denominator.bit_length() for v in values), default=0),
    }


def family(case: str, key: str, sizes, make) -> dict:
    """The rows ``case key=size``, each thunk ``make(size)``."""
    return {f"{case} {key}={size}": make(size) for size in sizes}


def fresh(make, method, *args):
    """A thunk that calls ``method`` with ``args`` on a new sequence ``make()`` each time."""
    return lambda: method(make(), *args)


def sections() -> dict[str, dict]:
    """Each section's rows, from row name to thunk, the operands built here."""
    ks, minus_3_2, depths = (10, 20, 40, 80, 150), Fraction(-3, 2), (8, 16, 32, 64)
    laguerre_half = partial(laguerre_sheffer_seq, HALF)
    binomial_shift, genfun = GradedSeq.check_binomial_shift, GradedSeq.genfun_check_order_zero
    members = {"bernoulli": partial(bernoulli_member, G, 2), "laguerre(1/2)": partial(laguerre_member, G, 2, HALF)}
    em_series = LogSeries(G, -10, {d: Fraction(1, 3 - d) for d in range(-10, 3)})
    return {
        "sweep": {
            **family("convolve", "K", ks, lambda K: partial(
                convolve, (bernoulli_j(K) ** -1).coeffs, one_minus_d_pow(minus_3_2, K).coeffs, K)),
            **family("bernoulli_j**-1", "K", ks, lambda K: partial(pow, bernoulli_j(K), -1)),
            **family("one_minus_d_pow(-3/2)**-7", "K", (10, 20, 40, 80, 120, 150),
                     lambda K: partial(pow, one_minus_d_pow(minus_3_2, K), -7)),
            **family("identity_op.recip()", "K", ks, lambda K: identity_op(K).recip),
            **family("weierstrass(1/2)**-1", "K", ks, lambda K: partial(pow, weierstrass(HALF, K), -1)),
            **family("one_minus_d_pow(-3/2)", "K", (10, 40, 150), lambda K: partial(one_minus_d_pow, minus_3_2, K)),
        },
        "shift": {
            f"{way} {name} depth={depth}": partial(fn, member(2 - depth), HALF)
            for name, member in members.items()
            for way, fn in (("shift", LogSeries.shift), ("oracle loop", shift_by_roman_coeff))
            for depth in (4, 8, 16, 32, 48)
        },
        "layers": {
            **family("compose", "K", (10, 20, 40, 80),
                     lambda K: lambda: bernoulli_j(K).compose(forward_difference(K))),
            **family("comp_inverse", "K", (10, 20, 40, 80), lambda K: lambda: forward_difference(K).comp_inverse()),
            **family("exp_genfun_coefficients", "K", (10, 20, 40), lambda K: partial(
                exp_genfun_coefficients, one_minus_d_pow(-3, K).coeffs,
                dict.fromkeys(range(1, K + 1), Fraction(-1)), K)),
            **family("check_binomial_shift bernoulli", "depth", (4, 8, 16, 32),
                     lambda depth: fresh(bernoulli_seq, binomial_shift, G, 2, Fraction(3, 2), 2 - depth)),
            **family("check_binomial_shift laguerre(1/2)", "depth", (4, 8, 16, 32),
                     lambda depth: fresh(laguerre_half, binomial_shift, G, 2, Fraction(3, 2), 2 - depth)),
            **family("genfun assoc-delta", "K", (18, 30),
                     lambda K: fresh(partial(GradedSeq, AssociatedRule(forward_difference)), genfun, K)),
            **family("genfun bernoulli", "K", (28, 60), lambda K: fresh(bernoulli_seq, genfun, K)),
            **family("genfun laguerre_sheffer(1/2)", "K", (16,), lambda K: fresh(laguerre_half, genfun, K)),
            **family("genfun laguerre_sheffer(1/3)", "K", (30,),
                     lambda K: fresh(partial(laguerre_sheffer_seq, Fraction(1, 3)), genfun, K)),
            **family("genfun laguerre_genfun_check(3)", "K", (24,), lambda K: partial(laguerre_genfun_check, 3, K)),
        },
        "closed_forms": {
            **family("hermite_closed_form generic", "depth", depths,
                     lambda depth: partial(hermite_closed_form, G, 4, 4 - depth, HALF)),
            **family("hermite_closed_form zero", "depth", depths,
                     lambda depth: partial(hermite_closed_form, Z, 4, 4 - depth, HALF)),
            **family("bernoulli member zero", "depth", depths,
                     lambda depth: fresh(bernoulli_seq, GradedSeq.member, Z, 4, 4 - depth)),
        },
        "eulermac": {
            **family("_weight_op", "K", (12, 24, 48, 100), lambda K: partial(_weight_op, K)),
            **family("harmonic_identity", "K", (12, 24, 48, 100), lambda K: partial(harmonic_identity, 10, 5, K)),
            **family("stirling_identity", "K", (12, 24, 48, 100), lambda K: partial(stirling_identity, 10, 5, K)),
            **family("em_apply K=12", "n", (4, 16, 64), lambda n: partial(em_apply, em_series, n, 12)),
            **family("lambda_sum_closed_form", "n", (4, 16, 64),
                     lambda n: partial(lambda_sum_closed_form, G, 2, n, -10)),
        },
    }


def deck_counts(requests: list[dict]) -> dict:
    """The counted calls ``execute`` makes on each prepared request,
    summed per request kind and in total."""
    out: dict[str, dict[str, int]] = {}
    for r in requests:
        profiled(partial(execute, r), COUNTED, out.setdefault(r["kind"], dict.fromkeys(COUNT_NAMES, 0)))
    out["total"] = {key: sum(c[key] for c in out.values()) for key in COUNT_NAMES}
    return out


def deck() -> dict:
    stream = session_stream(12)
    session = deck_counts([prepare(next(stream)) for _ in range(3000)])
    verify = [prepare(r) for r in verify_deck(11)]
    deck_counts(verify)  # the warm-up pass
    return {"session-warm seed=12 first 3000": session, "verify-deep seed=11 warm pass": deck_counts(verify)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    r = parser.parse_args().repeat
    out = {"repeat": r, "deck": deck()}  # first: the session requests start from cold caches
    for name, rows in sections().items():
        out[name] = {row: measure(fn, r) for row, fn in rows.items()}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
