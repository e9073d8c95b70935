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
  checks (assoc-delta and Laguerre 1/3 at K = 30, Bernoulli at K = 60);
* ``layers``: the layers above the kernels, each with its count of
  Fraction operations (``perfbench/tracing.count_ops``) next to its time:
  ``bernoulli_j(K).compose(forward_difference(K))`` and
  ``forward_difference(K).comp_inverse()`` for K = 10, 20, 40, 80,
  ``exp_genfun_coefficients`` of the Laguerre generating function
  (grade 2) for K = 10, 20, 40, ``check_binomial_shift`` (z = 3/2,
  degree 2) on a fresh Bernoulli and a fresh Laguerre (grade 1/2)
  sequence at depth 4, 8, 16, 32, and ``genfun``: the largest
  generating-function check of each kind in the verify-deep deck, each on
  a fresh sequence (assoc-delta at K = 18, Bernoulli at K = 28, Laguerre
  by the Sheffer route with grade 1/2 at K = 16, and
  ``laguerre_genfun_check(3, 24)``), with its calls of ``ArtinOp.recip``
  and ``convolve`` and its Fraction operations next to its time;
* ``closed_forms``: the member reads, each with its count of Fraction
  operations: ``hermite_closed_form`` (sigma = 1/2, degree 4) at both
  orders, and ``member(ZERO, 4, 4 - depth)`` on a fresh Bernoulli
  sequence, at depth 8, 16, 32, 64;
* ``eulermac``: the weight operator ``_weight_op(K)``,
  ``harmonic_identity(10, 5, K)`` and ``stirling_identity(10, 5, K)``,
  each with its bound, for K = 12, 24, 48, 100, and the direct sums
  ``em_apply(p, n, 12)``, p dense from degree 2 down to -10, and
  ``lambda_sum_closed_form(GENERIC, 2, n, -10)`` for n = 4, 16, 64, each
  with its count of Fraction operations (only the lambda-sum reads a
  cached member, the Bernoulli one, warm after the first run);
* ``deck``: per request kind of the benchmark's workloads
  (``perfbench/workloads.py``), the ``Fraction`` constructions (calls of
  ``Fraction.__new__``), Fraction arithmetic operations (those that
  ``perfbench/tracing.py`` counts), ``LogSeries`` constructions and
  calls of ``ArtinOp.recip`` and ``convolve``, over the first 3 000 seed-12
  session-warm requests from cold caches, and over one pass of the
  seed-11 verify-deep deck after a warm-up pass.  Requests are prepared
  outside the count.  It runs first, before any other section warms the
  member caches.

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
    one_minus_d_pow,
)
from logalg.series import LogSeries, OrderTag
from logalg.sheffer import AssociatedRule, GradedSeq, exp_genfun_coefficients

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
from oracles import shift_by_roman_coeff  # noqa: E402
from tracing import _ARITH, count_ops  # noqa: E402
# workloads' own ``check`` is never called here, so it does not matter
# that ``oracles`` names the tests' module in this process
from workloads import execute, prepare, session_stream, verify_deck  # noqa: E402

KS = (10, 20, 40, 80, 150)
BINOMIAL_KS = (10, 40, 150)
SHIFT_DEPTHS = (4, 8, 16, 32, 48)
OPERATOR_KS = (10, 20, 40, 80)
GENFUN_KS = (10, 20, 40)
IDENTITY_DEPTHS = (4, 8, 16, 32)
CLOSED_FORM_DEPTHS = (8, 16, 32, 64)
EM_KS = (12, 24, 48, 100)
EM_NS = (4, 16, 64)
EM_SERIES = LogSeries(OrderTag.GENERIC, -10, {d: Fraction(1, 3 - d) for d in range(-10, 3)})
SESSION_SEED, SESSION_REQUESTS = 12, 3000
DECK_SEED = 11
GENFUN_CHECKS = {
    "assoc-delta K=18": lambda: GradedSeq(AssociatedRule(forward_difference)).genfun_check_order_zero(18),
    "bernoulli K=28": lambda: bernoulli_seq().genfun_check_order_zero(28),
    "laguerre_sheffer(1/2) K=16": lambda: laguerre_sheffer_seq(Fraction(1, 2)).genfun_check_order_zero(16),
    "laguerre_genfun_check(3) K=24": lambda: laguerre_genfun_check(3, 24),
}
# the functions whose calls the profile hook counts, by the name they are reported under
COUNTED = {
    Fraction.__new__.__code__: "constructions",
    **dict.fromkeys(_ARITH, "fraction_ops"),
    LogSeries.__init__.__code__: "log_series",
    ArtinOp.recip.__code__: "recip",
    convolve.__code__: "convolve",
}
COUNT_NAMES = tuple(dict.fromkeys(COUNTED.values()))
IDENTITY_SEQUENCES = {
    "bernoulli": bernoulli_seq,
    "laguerre(1/2)": lambda: laguerre_sheffer_seq(Fraction(1, 2)),
}


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


def counted(fn, repeat: int) -> dict:
    """Best time of ``fn`` and its Fraction operations, counted in one more call."""
    return {"seconds": timed(fn, repeat)[0], "fraction_ops": count_ops(fn)}


def profiled(fn, counts: dict[str, int]) -> None:
    """Run ``fn``, adding to ``counts`` the calls it makes of each function in COUNTED."""

    def hook(frame, event, arg):
        if event == "call":
            name = COUNTED.get(frame.f_code)
            if name is not None:
                counts[name] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)


def layers(r: int) -> dict:
    out: dict[str, dict] = {}
    for K in OPERATOR_KS:
        out[f"compose K={K}"] = counted(lambda: bernoulli_j(K).compose(forward_difference(K)), r)
        out[f"comp_inverse K={K}"] = counted(lambda: forward_difference(K).comp_inverse(), r)
    for K in GENFUN_KS:
        g, u = one_minus_d_pow(-3, K).coeffs, {k: Fraction(-1) for k in range(1, K + 1)}
        out[f"exp_genfun_coefficients K={K}"] = counted(lambda: exp_genfun_coefficients(g, u, K), r)
    z, G = Fraction(3, 2), OrderTag.GENERIC
    for depth in IDENTITY_DEPTHS:
        for name, make in IDENTITY_SEQUENCES.items():
            check = lambda: make().check_binomial_shift(G, 2, z, 2 - depth)
            out[f"check_binomial_shift {name} depth={depth}"] = counted(check, r)
    genfun = out["genfun"] = {}
    for name, check in GENFUN_CHECKS.items():
        counts = dict.fromkeys(COUNT_NAMES, 0)
        profiled(check, counts)
        genfun[name] = {"seconds": timed(check, r)[0],
                        **{key: counts[key] for key in ("recip", "convolve", "fraction_ops")}}
    return out


def closed_forms(r: int) -> dict:
    out: dict[str, dict] = {}
    for depth in CLOSED_FORM_DEPTHS:
        for order in OrderTag:
            form = lambda: hermite_closed_form(order, 4, 4 - depth, Fraction(1, 2))
            out[f"hermite_closed_form {order.value} depth={depth}"] = counted(form, r)
        read = lambda: bernoulli_seq().member(OrderTag.ZERO, 4, 4 - depth)
        out[f"bernoulli member zero depth={depth}"] = counted(read, r)
    return out


def eulermac(r: int) -> dict:
    out: dict[str, dict] = {}
    for K in EM_KS:
        out[f"_weight_op K={K}"] = counted(lambda: _weight_op(K), r)
        out[f"harmonic_identity K={K}"] = counted(lambda: harmonic_identity(10, 5, K), r)
        out[f"stirling_identity K={K}"] = counted(lambda: stirling_identity(10, 5, K), r)
    for n in EM_NS:
        out[f"em_apply K=12 n={n}"] = counted(lambda: em_apply(EM_SERIES, n, 12), r)
        out[f"lambda_sum_closed_form n={n}"] = counted(lambda: lambda_sum_closed_form(OrderTag.GENERIC, 2, n, -10), r)
    return out


def fraction_counts(requests: list[dict]) -> dict:
    """The calls of each function in COUNTED made by ``execute`` on each
    prepared request, summed per request kind and in total."""
    out: dict[str, dict[str, int]] = {}
    for r in requests:
        profiled(lambda: execute(r), out.setdefault(r["kind"], dict.fromkeys(COUNT_NAMES, 0)))
    out["total"] = {key: sum(c[key] for c in out.values()) for key in COUNT_NAMES}
    return out


def deck() -> dict:
    stream = session_stream(SESSION_SEED)
    session = fraction_counts([prepare(next(stream)) for _ in range(SESSION_REQUESTS)])
    verify = [prepare(r) for r in verify_deck(DECK_SEED)]
    fraction_counts(verify)  # the warm-up pass
    return {
        f"session-warm seed={SESSION_SEED} first {SESSION_REQUESTS}": session,
        f"verify-deep seed={DECK_SEED} warm pass": fraction_counts(verify),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    r = parser.parse_args().repeat
    counts = deck()  # first: the session requests start from cold caches

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
    out = {
        "repeat": r,
        "sweep": sweep,
        "shift": shift,
        "large": large,
        "layers": layers(r),
        "closed_forms": closed_forms(r),
        "eulermac": eulermac(r),
        "deck": counts,
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
