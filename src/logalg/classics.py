"""Named graded sequences: logarithmic Bernoulli, Hermite, and Laguerre.

Each sequence comes in two computational routes -- an operator route
through the graded-sequence engine and an independent closed-form route
-- which the test suite plays against each other.

A note on the Hermite scale parameter: the Weierstrass operator is
e^{sigma D^2} with sigma = 1/2 as the normative default.  The published
coefficient table for the logarithmic Hermite sequence is reproduced by
sigma = 1 (each closed-form coefficient picks up a factor 2^k); both
values are exposed rather than silently picking one.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .operators import bernoulli_j, one_minus_d_pow, weierstrass, ArtinOp
from .roman import roman_factorial, roman_ratio
from .series import Frozen, LogSeries, OrderTag, harmonic, zero_series
from .sheffer import AppellRule, GradedSeq, ShefferRule, exp_genfun_coefficients, genfun_rows_match

__all__ = [
    "bernoulli_seq",
    "bernoulli_member",
    "bernoulli_number",
    "residual_bernoulli",
    "hermite_seq",
    "hermite_member",
    "hermite_closed_form",
    "hermite_number",
    "laguerre_member",
    "laguerre_sheffer_seq",
    "laguerre_delta",
    "laguerre_genfun_check",
    "SeqTable",
    "emit_table",
]

HALF = Fraction(1, 2)


# -- Bernoulli --------------------------------------------------------


def bernoulli_seq() -> GradedSeq:
    """The logarithmic Bernoulli sequence B_a = J**-1 lam_a."""
    return GradedSeq(AppellRule(bernoulli_j))


_BERNOULLI = bernoulli_seq()


def bernoulli_member(order: OrderTag, a: int, floor: int) -> LogSeries:
    return _BERNOULLI.member(order, a, floor)


def bernoulli_number(n: int) -> Fraction:
    """B_n = B_n(0): the augmentation of the degree-n Bernoulli polynomial."""
    if n < 0:
        raise ValueError("Bernoulli numbers are indexed by n >= 0")
    return bernoulli_member(OrderTag.ZERO, n, 0).eval_functional()


def residual_bernoulli(floor: int) -> LogSeries:
    """B_{-1} at generic order; at iterated-log level 1 this reads
    1/x + 1/(2x^2) + 1/(6x^3) - 1/(30x^5) + ..."""
    return bernoulli_member(OrderTag.GENERIC, -1, floor)


# -- Hermite ----------------------------------------------------------


def hermite_seq(sigma: Fraction | int = HALF) -> GradedSeq:
    """The logarithmic Hermite sequence H_a = W**-1 lam_a, W = e^{sigma D^2}."""
    sigma = Fraction(sigma)
    return GradedSeq(AppellRule(lambda cap: weierstrass(sigma, cap)))


def hermite_member(order: OrderTag, a: int, floor: int, sigma: Fraction | int = HALF) -> LogSeries:
    return hermite_seq(sigma).member(order, a, floor)


def hermite_closed_form(order: OrderTag, a: int, floor: int, sigma: Fraction | int = HALF) -> LogSeries:
    """Direct sum H_a = sum_k (-sigma)^k rf(a)/(k! rf(a-2k)) lam_{a-2k};
    the independent oracle for the operator route."""
    sigma = Fraction(sigma)
    out = zero_series(order, floor)
    coef = Fraction(1)
    k = 0
    while a - 2 * k >= floor:
        term = harmonic(order, a - 2 * k, floor)
        out = out + term.scale(coef * roman_ratio(a, a - 2 * k))
        k += 1
        coef *= -sigma / k
    return out


def hermite_number(n: int, sigma: Fraction | int = HALF) -> Fraction:
    """H_n = H_n(0); zero for odd n, (-sigma)^m (2m)!/m! for n = 2m."""
    if n < 0:
        raise ValueError("Hermite numbers are indexed by n >= 0")
    if n % 2:
        return Fraction(0)
    m = n // 2
    return (-Fraction(sigma)) ** m * roman_factorial(2 * m) / roman_factorial(m)


# -- Laguerre ---------------------------------------------------------


def laguerre_member(order: OrderTag, a: int, b: Fraction | int, floor: int) -> LogSeries:
    """The Laguerre member of grade b, via the closed form
    (-1)^a (1-D)^{a+b} lam_a = sum_k C(a+b,k) rf(a)/rf(a-k) (-1)^{a-k} lam_{a-k}.

    Successive coefficients differ by the factor
    -(a+b-k) roman(a-k)/(k+1), which holds for every integer a because
    rf(n) = roman(n) rf(n-1); once a+b-k hits zero every later term vanishes.
    """
    b = Fraction(b)
    if order is OrderTag.ZERO and a < 0:
        return zero_series(order, floor)
    low = floor if order is OrderTag.GENERIC else max(floor, 0)
    out: dict[int, Fraction] = {}
    c = Fraction((-1) ** (a % 2))
    for k in range(a - low + 1):
        if c == 0:
            break
        out[a - k] = c
        c = c * -(a + b - k) * ((a - k) or 1) / (k + 1)
    return LogSeries(order, floor, out)


def laguerre_delta(cap: int) -> ArtinOp:
    """The sign-normalized Laguerre delta operator D/(1-D) = D + D^2 + ...

    The conventional Laguerre delta operator D/(D-1) has leading
    coefficient -1; the engine requires unit lead, and the flip costs a
    factor (-1)^a on the associated sequence (see laguerre_sheffer_seq).
    """
    return ArtinOp(cap, {k: Fraction(1) for k in range(1, cap + 1)})


def laguerre_sheffer_seq(b: Fraction | int) -> GradedSeq:
    """The Sheffer route to the Laguerre sequence of grade b.

    Members of this sequence equal (-1)^a laguerre_member(a): the
    closed form carries a (-1)^a prefactor, which the sign-normalized
    delta operator absorbs.
    """
    b = Fraction(b)
    return GradedSeq(ShefferRule(lambda cap: one_minus_d_pow(-b - 1, cap), laguerre_delta))


def laguerre_genfun_check(b: int, K: int) -> bool:
    """Check the order-(0) generating function
    (1-y)^{-b-1} exp(x y/(y-1)) = sum_a L_a(x) y^a / a!  through y^K."""
    if b < 0:
        raise ValueError("integer grade b >= 0 required for the generating-function check")
    # u(y) = y/(y-1) = -(y + y^2 + ...); prefactor (1-y)^{-b-1}.
    u = {k: Fraction(-1) for k in range(1, K + 1)}
    rows = exp_genfun_coefficients(one_minus_d_pow(-b - 1, K).coeffs, u, K)
    return genfun_rows_match(rows, lambda k: laguerre_member(OrderTag.ZERO, k, b, 0))


# -- table emission ---------------------------------------------------


class SeqTable(Frozen):
    """name: str, parameters: dict[str, Fraction], depth: int and
    rows: list[tuple[int, LogSeries]]."""

    __slots__ = ("name", "parameters", "depth", "rows")

    def to_obj(self) -> dict:
        return {
            "rule": self.name,
            "parameters": {k: str(v) for k, v in self.parameters.items()},
            "depth": self.depth,
            "rows": [{"a": a, "series": s.to_obj()} for a, s in self.rows],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2)

    def to_latex(self) -> str:
        from .render import table_to_latex

        return table_to_latex(self)


def emit_table(
    name: str,
    a_from: int,
    a_to: int,
    depth: int,
    *,
    order: OrderTag = OrderTag.GENERIC,
    sigma: Fraction | int = 1,
    grade: Fraction | int = 0,
) -> SeqTable:
    """Rows a_from..a_to of a named sequence, each exact down to a - depth.

    The Hermite default here is sigma = 1, the value that reproduces the
    published table; pass sigma explicitly for the definition-normative 1/2.
    """
    if a_from > a_to:
        raise ValueError("empty row range")
    params: dict[str, Fraction] = {}
    if name == "bernoulli":
        member = lambda a, fl: bernoulli_member(order, a, fl)
    elif name == "hermite":
        params["sigma"] = Fraction(sigma)
        seq = hermite_seq(sigma)
        member = lambda a, fl: seq.member(order, a, fl)
    elif name == "laguerre":
        params["grade"] = Fraction(grade)
        member = lambda a, fl: laguerre_member(order, a, grade, fl)
    elif name == "harmonic":
        member = lambda a, fl: harmonic(order, a, fl)
    else:
        raise ValueError(f"unknown sequence name {name!r}")
    rows = [(a, member(a, a - depth)) for a in range(a_from, a_to + 1)]
    return SeqTable(name, params, depth, rows)
