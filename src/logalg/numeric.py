"""Floating-point interpretation of harmonic logarithms.

Two iterated-log levels are supported:

* level 0:  lam_n(x) = x**n for n >= 0, and 0 for n < 0 (polynomials).
* level 1:  lam_n(x) = x**n (log x - h_n) for n >= 0, where h_n is the
  n-th harmonic number, and lam_n(x) = x**n for n < 0.

The harmonic-number correction at level 1 is the unique choice for which
the symbolic rule D lam_n = roman(n) lam_{n-1} survives numerically with
lam_0 = log x and lam_{-1} = 1/x; finite_diff_check enforces exactly
that.  Floats appear only here, never in the symbolic engine.

eval_series reads a series at one point; eval_difference reads a
generic-order series at level 1 at X minus at x, the form of the
Euler-MacLaurin right side (E^{n+1} - I) W lam_a.  Both raise
OverflowError rather than return a value beyond floating-point range;
eval_series does so only when a term's value is, not when x**d or the
coefficient alone is.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .series import LogSeries, OrderTag
from .roman import roman

__all__ = ["eval_lambda", "eval_series", "eval_difference", "finite_diff_check"]

_LEVELS = (0, 1)


def _harmonic_number(n: int) -> float:
    return sum(1.0 / j for j in range(1, n + 1))


def _check_x(x: float) -> None:
    # written so that NaN fails too
    if not 0 < x < math.inf:
        raise ValueError(f"x must be positive and finite, got {x}")


def _finite(value: float) -> float:
    # inf, or the nan of inf - inf, only ever comes from a term out of range
    if not math.isfinite(value):
        raise OverflowError("a term is beyond floating-point range")
    return value


def eval_lambda(level: int, n: int, x: float) -> float:
    if level not in _LEVELS:
        raise ValueError("only iterated-log levels 0 and 1 are evaluated numerically")
    _check_x(x)
    if n < 0:
        return 0.0 if level == 0 else x**n
    if level == 0:
        return x**n
    return x**n * (math.log(x) - _harmonic_number(n))


def _term(c: Fraction, level: int, d: int, x: float) -> float:
    """c lam_d(x), as float(c) lam_d(x).  Where that is beyond float range,
    c x^d is formed exactly and rounded once, then multiplied by the
    level-1 log factor; OverflowError only if the result is out of range too."""
    try:
        term = float(c) * eval_lambda(level, d, x)
    except OverflowError:  # x**d, or float(c)
        term = math.inf
    if math.isfinite(term):
        return term
    factor = math.log(x) - _harmonic_number(d) if level == 1 and d >= 0 else 1.0
    return _finite(float(c * Fraction(x) ** d) * factor)


def eval_series(p: LogSeries, level: int, x: float) -> tuple[float, float]:
    """Evaluate a truncated series; returns (value, trunc_bound).

    trunc_bound is a crude tail indicator built from the last retained
    coefficient, not a certified bound; it is inf, never an error, where
    it is beyond float range.
    """
    if level != (0 if p.order is OrderTag.ZERO else 1):
        raise ValueError("zero-order series evaluate at level 0, generic-order ones at level 1")
    _check_x(x)
    value = math.fsum(_term(c, level, d, x) for d, c in p.coeffs.items())
    if not x > 1:
        return value, float("nan")
    last = p.coeffs[min(p.coeffs)] if p.coeffs else 0
    try:
        bound = abs(float(last)) * x**p.floor
    except OverflowError:  # x**floor, or float(last)
        bound = math.inf
    if not math.isfinite(bound):
        try:
            bound = float(abs(last) * Fraction(x) ** p.floor)
        except OverflowError:
            bound = math.inf
    return value, bound * max(1.0, math.log(x))


def eval_difference(p: LogSeries, x: Fraction | float, X: Fraction | float) -> float:
    """sum_d c_d (lam_d(X) - lam_d(x)) at level 1, for positive rationals
    x and X (a float is read exactly).

    The terms are added from the top degree down in plain float
    arithmetic.  For d > 0 the rational part -h_d (X^d - x^d) of a term
    is taken exactly, so lam_1 gives X log X - x log x - (X - x) with
    X - x exact.  Raises OverflowError once a term or the running sum
    is beyond floating-point range.
    """
    if p.order is not OrderTag.GENERIC:
        raise ValueError("a difference is read at level 1, off a generic-order series")
    x, X = Fraction(x), Fraction(X)
    xf, Xf = float(x), float(X)
    _check_x(xf)
    _check_x(Xf)
    total = 0.0
    for d in sorted(p.coeffs, reverse=True):
        if d > 0:
            h = sum(Fraction(1, j) for j in range(1, d + 1))
            diff = Xf**d * math.log(Xf) - xf**d * math.log(xf) - float(h * (X**d - x**d))
        else:
            diff = eval_lambda(1, d, Xf) - eval_lambda(1, d, xf)
        total = _finite(total + float(p.coeffs[d]) * diff)
    return total


def finite_diff_check(level: int, n: int, x: float, h: float) -> float:
    """|central difference of lam_n at x minus roman(n) lam_{n-1}(x)|."""
    approx = (eval_lambda(level, n, x + h) - eval_lambda(level, n, x - h)) / (2 * h)
    exact = float(roman(n)) * eval_lambda(level, n - 1, x)
    return abs(approx - exact)
