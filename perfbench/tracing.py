"""Per-layer instrumentation of logalg, installed from outside the package.

Spans wrap the public functions of each layer module.  ``install`` swaps
every binding of a target function -- the class attribute, or each
``logalg.*`` module global that holds the same function object -- for a
wrapper, and ``uninstall`` puts the originals back, so oracles that run
afterwards are not traced.  Two recorders exist and never run together:

* ``Timer`` keeps a span stack and accumulates per-function self time,
  a span's duration minus the time its child spans cover.
* ``Counter`` records deterministic counts: calls, Fraction arithmetic
  operations (a ``sys.setprofile`` hook counts calls into the arithmetic
  functions of ``fractions.py`` and charges the innermost open span),
  the largest numerator or denominator bit length of return values,
  and GradedSeq member misses (a ``sheffer.member`` span with a child
  ``series.harmonic`` span: the member was built, not read from cache).

Spans are aggregated per function in memory rather than kept one by one;
hot leaves such as roman_ratio run hundreds of thousands of times.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict
from fractions import Fraction

# (layer, "module" or "module.Class", function): the traced boundaries.
TARGETS = [
    ("roman", "roman", "roman_ratio"),
    ("roman", "roman", "roman_coeff"),
    ("series", "series", "harmonic"),
    ("series", "series.LogSeries", "shift"),
    ("series", "series.LogSeries", "__add__"),
    ("series", "series.LogSeries", "truncate"),
    ("operators", "operators.ArtinOp", "apply"),
    ("operators", "operators.ArtinOp", "recip"),
    ("operators", "operators.ArtinOp", "__mul__"),
    ("operators", "operators.ArtinOp", "__pow__"),
    ("operators", "operators.ArtinOp", "compose"),
    ("operators", "operators.ArtinOp", "comp_inverse"),
    ("sheffer", "sheffer.GradedSeq", "member"),
    ("sheffer", "sheffer.GradedSeq", "taylor_coeffs"),
    ("sheffer", "sheffer.GradedSeq", "genfun_coefficient"),
    ("sheffer", "sheffer.GradedSeq", "genfun_check_order_zero"),
    ("sheffer", "sheffer.GradedSeq", "check_lowering"),
    ("sheffer", "sheffer.GradedSeq", "check_binomial_shift"),
    ("sheffer", "sheffer.GradedSeq", "check_biorthogonality"),
    ("classics", "classics", "emit_table"),
    ("classics", "classics", "bernoulli_member"),
    ("classics", "classics", "hermite_member"),
    ("classics", "classics", "laguerre_member"),
    ("classics", "classics", "laguerre_genfun_check"),
    ("eulermac", "eulermac", "em_operator_residual"),
    ("eulermac", "eulermac", "em_apply"),
    ("eulermac", "eulermac", "lambda_sum_closed_form"),
    ("eulermac", "eulermac", "harmonic_identity"),
    ("eulermac", "eulermac", "stirling_identity"),
    ("numeric", "numeric", "eval_series"),
    ("render", "render", "table_to_latex"),
]

ROOT_SPAN = "request"

_ARITH = frozenset(
    getattr(Fraction, name).__code__
    for name in ("_add", "_sub", "_mul", "_div", "_floordiv", "_mod", "_divmod",
                 "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__")
)


def _owner(path: str):
    module, _, cls = path.partition(".")
    mod = importlib.import_module(f"logalg.{module}")
    return getattr(mod, cls) if cls else mod


def install(recorder) -> list[tuple[object, str, object]]:
    """Wrap every target; returns the (owner, attribute, original) undo list."""
    undo = []
    modules = [m for n, m in sorted(sys.modules.items()) if n == "logalg" or n.startswith("logalg.")]
    for layer, path, func in TARGETS:
        owner = _owner(path)
        original = owner.__dict__[func]
        wrapper = recorder.wrap(f"{layer}.{func}", original)
        if isinstance(owner, type):
            undo.append((owner, func, original))
            setattr(owner, func, wrapper)
            continue
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class Timer:
    """Per-function self time, in seconds."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack = [[ROOT_SPAN, 0.0]]

    def wrap(self, name, fn):
        stack, self_s, clock = self._stack, self.self_s, time.perf_counter

        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - frame[1]
                stack[-1][1] += elapsed

        return span

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s)}


def bits(value) -> int:
    """Largest numerator or denominator bit length inside a return value."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    coeffs = getattr(value, "coeffs", None)
    if coeffs is not None:
        return max(map(bits, coeffs.values()), default=0)
    rows = getattr(value, "rows", None)
    if rows is not None:
        return max((bits(s) for _, s in rows), default=0)
    if isinstance(value, dict):
        return max(map(bits, value.values()), default=0)
    if isinstance(value, (tuple, list)):
        return max(map(bits, value), default=0)
    return 0


class Counter:
    """Deterministic counts per function; see the module docstring."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.ops: dict[str, int] = defaultdict(int)
        self.bits_max: dict[str, int] = defaultdict(int)
        self.misses: dict[str, int] = defaultdict(int)
        self._stack = [[ROOT_SPAN, False]]

    def wrap(self, name, fn):
        stack, calls, bits_max, misses = self._stack, self.calls, self.bits_max, self.misses

        def span(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1]
            if name == "series.harmonic" and parent[0] == "sheffer.member" and not parent[1]:
                parent[1] = True
                misses["sheffer.member"] += 1
            stack.append([name, False])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
            bits_max[name] = max(bits_max[name], bits(result))
            return result

        return span

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "fraction_ops": dict(self.ops),
                "bits_max": dict(self.bits_max), "misses": dict(self.misses)}

    def start(self) -> None:
        stack, ops, arith = self._stack, self.ops, _ARITH

        def hook(frame, event, arg):
            if event == "call" and frame.f_code in arith:
                ops[stack[-1][0]] += 1

        sys.setprofile(hook)

    def stop(self) -> None:
        sys.setprofile(None)


def count_ops(fn, *args) -> int:
    """Fraction arithmetic operations performed by one call, inclusive."""
    counter = Counter()
    counter.start()
    try:
        fn(*args)
    finally:
        counter.stop()
    return sum(counter.ops.values())


def loglog_slope(points: list[tuple[int, int]]) -> float:
    """Least-squares slope of log(count) against log(size)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(c) for _, c in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def scaling_sweep() -> dict[str, float]:
    """Growth exponent of Fraction operations against depth or cutoff K,
    from fixed inputs, for the kernels whose growth with depth and K is tracked."""
    from logalg.classics import bernoulli_seq
    from logalg.operators import bernoulli_j, forward_difference
    from logalg.series import LogSeries, OrderTag
    from logalg.sheffer import AssociatedRule, GradedSeq

    def dense(depth: int) -> LogSeries:
        return LogSeries(OrderTag.GENERIC, 2 - depth,
                         {d: Fraction(1, 1 + abs(d)) for d in range(2 - depth, 3)})

    cases = {
        "operators.apply": ((8, 12, 16, 24),
                            lambda d: (bernoulli_j(d).recip().apply, dense(d))),
        "operators.compose": ((6, 8, 12, 16),
                              lambda c: (bernoulli_j(c).compose, forward_difference(c))),
        "operators.comp_inverse": ((6, 8, 10, 12),
                                   lambda c: (forward_difference(c).comp_inverse,)),
        "sheffer.taylor_coeffs": ((8, 12, 16, 20),
                                  lambda d: (bernoulli_seq().taylor_coeffs, dense(d), -1)),
        "sheffer.genfun_coefficient": ((6, 8, 10, 12),
                                       lambda k: (GradedSeq(AssociatedRule(forward_difference)).genfun_coefficient, k)),
        "series.shift": ((8, 16, 24, 32),
                         lambda d: (dense(d).shift, Fraction(1, 2))),
    }
    out = {}
    for name, (sizes, make) in cases.items():
        points = []
        for size in sizes:
            fn, *args = make(size)
            points.append((size, count_ops(fn, *args)))
        out[f"{name}.ops_exp"] = loglog_slope(points)
    return out
