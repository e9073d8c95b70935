"""Command-line front end.

Subcommands:

  table   -- coefficient tables of the named graded sequences
  expand  -- expansion coefficients of a series in a named basis
  verify  -- symbolic identity checks (Euler-MacLaurin, Sheffer, genfun)
  sum     -- numeric Euler-MacLaurin instances (harmonic / Stirling)
  eval    -- numeric evaluation of a series at a point

Exit codes: 0 success, 1 verification failure, 2 usage or input error
(argparse's default, a malformed value, a value beyond its budget, a
float out of range, a result too long to print) or output that could
not be written (stdout closed early).  The rational flags
--x, --sigma and --grade are read as JSON coefficients are.  Output is
deterministic for fixed flags.

Budget.  Every size the CLI reads is bounded, so that no input makes a
command run away: a degree, a floor, --from, --to and --amin lie within
+-MAX_DEGREE; a span (top - floor of a series, --depth, --to - --from)
is at most MAX_SPAN; --n is at most MAX_N and --order at most MAX_ORDER;
the numerator and denominator of --x, --sigma and --grade have at most
MAX_DIGITS digits each.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .classics import (
    bernoulli_seq,
    emit_table,
    hermite_seq,
    laguerre_genfun_check,
    laguerre_sheffer_seq,
)
from .eulermac import em_operator_residual, harmonic_identity, stirling_identity
from .numeric import eval_series
from .operators import forward_difference
from .series import LogSeries, OrderTag, exact_rational
from .sheffer import AssociatedRule, GradedSeq, HarmonicRule

_SEQ_NAMES = ("bernoulli", "hermite", "laguerre", "harmonic")

# The input budget.  The values keep every recorded command of the
# benchmark catalogue inside; at the maxima the slowest command takes
# seconds, not minutes: `expand --basis laguerre` with floor 192, top 256
# and a 10-digit --grade, and `verify sheffer --seq laguerre --depth 64`.
MAX_DEGREE = 256  # |degree| and |floor| of a series, |--from|, |--to|, |--amin|
MAX_SPAN = 64  # top - floor of a series, --depth, --to - --from
MAX_N = 100  # sum --n: the exact left side costs about n^2 times the size of x
MAX_DIGITS = 10  # digits of a numerator or denominator of --x, --sigma, --grade
MAX_ORDER = 100  # sum --order: Bernoulli terms; past about 170 no float holds them


def _within(name: str, value: int, maximum: int, *, signed: bool = False) -> None:
    """Reject a value beyond its budget; a signed one is bounded in magnitude."""
    if (abs(value) if signed else value) > maximum:
        size = "magnitude " if signed else ""
        raise ValueError(f"{name} {value} exceeds the maximum {size}{maximum}")


def _series(text: str) -> LogSeries:
    """A --series value, read from JSON and held to the budget."""
    series = LogSeries.from_json(text)
    _within("series floor", series.floor, MAX_DEGREE, signed=True)
    top = series.top_degree()
    if top is not None:
        _within("series degree", top, MAX_DEGREE, signed=True)
        _within("series top - floor", top - series.floor, MAX_SPAN)
    return series


def _rational(flag: str, text: str) -> Fraction:
    """A rational flag value, read as a JSON coefficient is read and held
    to MAX_DIGITS.  An error quotes at most a short prefix of the value."""
    try:
        value = exact_rational(text)
    except ValueError as exc:
        shown = repr(text) if len(text) <= 40 else f"{text[:24]!r}... ({len(text)} characters)"
        raise ValueError(f"--{flag} {shown}: {exc}") from exc
    digits = len(str(max(abs(value.numerator), value.denominator)))
    if digits > MAX_DIGITS:
        raise ValueError(
            f"--{flag} has {digits} digits in its numerator or denominator, beyond the maximum {MAX_DIGITS}"
        )
    return value


def _print_result(args: argparse.Namespace, render) -> None:
    """Print render(), the text of a result.  Python turns no integer of
    more than sys.get_int_max_str_digits() digits (4300 by default) into
    text; such a result is an input error, named by the inputs it grows with."""
    try:
        text = render()
    except ValueError:  # the one error a renderer raises
        inputs = [f"--{flag}" for flag in args.rational_flags]
        if hasattr(args, "series"):
            inputs.append("--series")
        raise ValueError(
            f"a result has more than {sys.get_int_max_str_digits()} digits, too many to print;"
            f" it grows with {', '.join(inputs)}"
        ) from None
    print(text)


def _named_seq(name: str, sigma: Fraction, grade: Fraction) -> GradedSeq:
    if name == "bernoulli":
        return bernoulli_seq()
    if name == "hermite":
        return hermite_seq(sigma)
    if name == "laguerre":
        return laguerre_sheffer_seq(grade)
    if name == "harmonic":
        return GradedSeq(HarmonicRule())
    if name == "assoc-delta":
        return GradedSeq(AssociatedRule(forward_difference))
    raise ValueError(f"unknown sequence {name!r}")


def _cmd_table(args: argparse.Namespace) -> int:
    _within("--from", args.a_from, MAX_DEGREE, signed=True)
    _within("--to", args.a_to, MAX_DEGREE, signed=True)
    _within("--to - --from", args.a_to - args.a_from, MAX_SPAN)
    _within("--depth", args.depth, MAX_SPAN)
    table = emit_table(
        args.name,
        args.a_from,
        args.a_to,
        args.depth,
        order=OrderTag(args.order),
        sigma=args.sigma,
        grade=args.grade,
    )
    _print_result(args, table.to_latex if args.format == "latex" else table.to_json)
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    series = _series(args.series)
    _within("--amin", args.amin, MAX_DEGREE, signed=True)
    seq = _named_seq(args.basis, args.sigma, args.grade)
    coeffs = seq.taylor_coeffs(series, args.amin)
    _print_result(args, lambda: json.dumps([[a, str(c)] for a, c in sorted(coeffs.items(), reverse=True)]))
    return 0


def _report(label: str, good: bool, detail: str = "") -> bool:
    """Print one verify line as soon as its result is known; return the result."""
    print(f"{label}: {'pass' if good else 'FAIL'}{detail}")
    return good


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.depth < 1:
        raise ValueError(f"verify {args.what} needs --depth of at least 1, got {args.depth}")
    _within("--depth", args.depth, MAX_SPAN)
    ok = True
    if args.what == "em":
        for k in range(1, args.depth + 1):
            report = em_operator_residual(k, omit_linear_term=args.corrupt)
            ok &= _report(f"em residual K={k}", report.symbolic_ok, f" (residual lead: {report.residual_lead})")
    elif args.what == "sheffer":
        seq = _named_seq(args.seq, args.sigma, args.grade)
        order = OrderTag.GENERIC
        for a in range(-args.depth // 2, args.depth // 2 + 1):
            good = seq.check_lowering(order, a, a - args.depth)
            good &= seq.check_binomial_shift(order, a, 1, a - args.depth)
            ok &= _report(f"sheffer identities ({args.seq}, a={a})", good and not args.corrupt)
    elif args.what == "genfun":
        if args.seq == "laguerre":
            if args.grade.denominator != 1:
                raise ValueError(f"the generating-function check needs an integer grade, got {args.grade}")
            good = laguerre_genfun_check(int(args.grade), args.depth)
        else:
            seq = _named_seq(args.seq, args.sigma, args.grade)
            good = seq.genfun_check_order_zero(args.depth)
        ok = _report(f"generating function ({args.seq}, K={args.depth})", good and not args.corrupt)
    return 0 if ok else 1


def _cmd_sum(args: argparse.Namespace) -> int:
    x, xf = args.x, float(args.x)  # within MAX_DIGITS, x neither overflows nor underflows
    _within("--n", args.n, MAX_N)
    _within("--order", args.order, MAX_ORDER)
    harmonic = args.kind == "harmonic"
    identity = harmonic_identity if harmonic else stirling_identity
    try:
        lhs, rhs, err, bound = identity(x, args.n, args.order)
    except OverflowError:  # x**-k, with x small and k up to the order
        raise ValueError(
            f"--x {xf:g} with --n {args.n} and --order {args.order}: "
            "a term is beyond floating-point range"
        ) from None
    if harmonic:
        _print_result(args, lambda: f"exact lhs = {lhs} = {float(lhs):.15g}")
    else:
        print(f"lhs = {lhs:.15g}")
    print(f"series rhs = {rhs:.15g}")
    print(f"abs err = {err:.6g} (first omitted term bound: {bound:.6g})")
    if bound >= abs(lhs):  # then a right side of 0 would pass too
        note = f"note: the bound is at least |lhs| = {abs(float(lhs)):.6g}; the verdict says nothing"
        print(note, file=sys.stderr)
    if harmonic:  # log X - log x, the largest float terms, each round by up to an ulp
        bound += 4 * sys.float_info.epsilon * (abs(math.log(float(x + args.n + 1))) + abs(math.log(xf)))
    return 0 if err <= bound else 1


def _cmd_eval(args: argparse.Namespace) -> int:
    series = _series(args.series)
    try:
        value, bound = eval_series(series, args.level, args.x)
    except OverflowError:  # x**d, or a float coefficient
        raise ValueError(
            f"--x {args.x:g} at --level {args.level}: a term of the series is beyond floating-point range"
        ) from None
    print(f"{value:.15g}")
    if bound is not None:
        print(f"trunc bound ~ {bound:.6g}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="logalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="emit a sequence coefficient table")
    p.add_argument("name", choices=_SEQ_NAMES)
    p.add_argument("--from", dest="a_from", type=int, default=-2)
    p.add_argument("--to", dest="a_to", type=int, default=2)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--sigma", default="1", help="Hermite scale (1 matches the printed table)")
    p.add_argument("--grade", default="0", help="Laguerre grade b")
    p.add_argument("--order", choices=("zero", "generic"), default="generic")
    p.add_argument("--format", choices=("json", "latex"), default="json")
    p.set_defaults(func=_cmd_table, rational_flags=("sigma", "grade"))

    p = sub.add_parser("expand", help="expand a series in a named basis")
    p.add_argument("--basis", choices=_SEQ_NAMES, required=True)
    p.add_argument("--series", required=True, help="LogSeries JSON")
    p.add_argument("--amin", type=int, required=True)
    p.add_argument("--sigma", default="1/2")
    p.add_argument("--grade", default="0")
    p.set_defaults(func=_cmd_expand, rational_flags=("sigma", "grade"))

    p = sub.add_parser("verify", help="run symbolic identity checks")
    p.add_argument("what", choices=("em", "sheffer", "genfun"))
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--seq", choices=_SEQ_NAMES + ("assoc-delta",), default="bernoulli")
    p.add_argument("--sigma", default="1/2")
    p.add_argument("--grade", default="0")
    p.add_argument("--corrupt", action="store_true", help="negative control: force a failure")
    p.set_defaults(func=_cmd_verify, rational_flags=("sigma", "grade"))

    p = sub.add_parser("sum", help="numeric Euler-MacLaurin summation checks")
    p.add_argument("kind", choices=("harmonic", "stirling"))
    p.add_argument("--x", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order", type=int, default=6)
    p.set_defaults(func=_cmd_sum, rational_flags=("x",))

    p = sub.add_parser("eval", help="evaluate a series numerically")
    p.add_argument("--series", required=True, help="LogSeries JSON")
    p.add_argument("--level", type=int, choices=(0, 1), required=True)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(func=_cmd_eval, rational_flags=())
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in args.rational_flags:
            setattr(args, flag, _rational(flag, getattr(args, flag)))
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # what is left in stdout's buffer goes to devnull at exit, quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        try:
            print("error: stdout was closed before all output was written", file=sys.stderr)
        except BrokenPipeError:  # stderr is closed too
            os.dup2(devnull, sys.stderr.fileno())
        os.close(devnull)
        return 2


if __name__ == "__main__":
    sys.exit(main())
