"""Logarithmic Euler-MacLaurin machinery.

The identity I = B_0 J + B_1 Delta + sum_{k>=2} (B_k/k!) Delta D^{k-1}
is exact in the operator ring (not merely asymptotic): it is I = Delta W
for the weight operator W = sum_{k>=0} (B_k/k!) D^{k-1} = D**-1 J**-1,
so sum_{j<=n} E^j = (E^{n+1} - I) W (Loeb & Rota, Adv. Math. 75, 1989).
This module builds W from the Bernoulli numbers, checks the identity at
any truncation order with one operator product or one action on a
series, evaluates the telescoping lambda-sum closed form, and runs the
two classical numeric instances (harmonic numbers and Stirling's
formula) against exact summation oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .classics import bernoulli_member, bernoulli_number
from .operators import ArtinOp, forward_difference, identity_op
from .roman import roman
from .series import Frozen, LogSeries, OrderTag, harmonic, zero_series

__all__ = [
    "EMReport",
    "em_operator_residual",
    "lambda_sum_closed_form",
    "harmonic_identity",
    "stirling_identity",
    "em_apply",
    "first_omitted_term_bound",
]


class EMReport(Frozen):
    """truncation_order: int, residual_lead: int | None, symbolic_ok: bool."""

    __slots__ = ("truncation_order", "residual_lead", "symbolic_ok")


def em_operator_residual(K: int, *, omit_linear_term: bool = False) -> EMReport:
    """Residual of I - Delta W_K at cap K, one product: Delta W_K is
    B_0 J + sum_{k=1..K} (B_k/k!) Delta D^{k-1}, as Delta D**-1 = J.

    ``omit_linear_term`` drops W's D^0 term, the B_1 Delta term; a
    deliberate negative control that leaves a residual at D^1.
    """
    if K < 0:
        raise ValueError("truncation order must be nonnegative")
    residual = identity_op(K) - forward_difference(K + 1) * _weight_op(K, omit_linear_term)
    lead = None if residual.is_zero() else residual.lead
    ok = residual.is_zero() or residual.lead > K
    return EMReport(K, lead, ok)


def lambda_sum_closed_form(
    order: OrderTag, a: int, k: int, floor: int
) -> tuple[LogSeries, LogSeries]:
    """Both sides of the telescoping sum

        lam_a(x) + lam_a(x+1) + ... + lam_a(x+k)
            = roman(a+1)**-1 [B_{a+1}(x+k+1) - B_{a+1}(x)],

    which telescopes Delta B_{a+1} = roman(a+1) lam_a.  roman(a+1) is
    never zero (roman(0) = 1), so the division is safe.
    """
    if k < 0:
        raise ValueError("summand count k must be nonnegative")
    direct = _shift_sum(harmonic(order, a, floor), k)
    bern = bernoulli_member(order, a + 1, min(floor, a + 1))
    closed = (bern.shift(k + 1) - bern).scale(1 / roman(a + 1)).truncate(floor)
    return direct.truncate(closed.floor), closed


def _sum_args(x: Fraction | int, n: int, order_cutoff: int) -> Fraction:
    x = Fraction(x)
    if x <= 0 or n < 0 or order_cutoff < 0:
        raise ValueError(f"need x > 0, n >= 0 and order >= 0, got {x}, {n}, {order_cutoff}")
    return x


def _bernoulli_weights(cutoff: int) -> list[Fraction]:
    return [bernoulli_number(j) / math.factorial(j) for j in range(cutoff + 1)]


def _weight_op(K: int, omit_linear_term: bool = False) -> ArtinOp:
    """W_K = sum_{k=0..K} (B_k/k!) D^{k-1}, known through D^(K-1); the
    B_1 term, D^0, is left out on request."""
    weights = enumerate(_bernoulli_weights(K))
    return ArtinOp(K - 1, {k - 1: w for k, w in weights if k != 1 or not omit_linear_term})


def _shift_sum(p: LogSeries, n: int) -> LogSeries:
    """The direct sum p + E p + ... + E^n p."""
    return sum((p.shift(j) for j in range(n + 1)), zero_series(p.order, p.floor))


def harmonic_identity(x: Fraction | int, n: int, order_cutoff: int) -> tuple[Fraction, float, float]:
    """1/x + ... + 1/(x+n) against its Bernoulli expansion.

    The left side is summed in exact rational arithmetic (the oracle);
    the right side evaluates the truncated expansion in floats.  Returns
    (exact_lhs, series_rhs, abs_err).
    """
    x = _sum_args(x, n, order_cutoff)
    lhs = sum((1 / (x + j) for j in range(n + 1)), Fraction(0))
    xf, Xf = float(x), float(x + n + 1)
    rhs = math.log(Xf) - math.log(xf)  # B_0 term: the integral of 1/t
    weights = _bernoulli_weights(order_cutoff)
    for j in range(1, order_cutoff + 1):
        # (d/dt)^{j-1} (1/t) = (-1)^{j-1} (j-1)! t^-j
        deriv = (-1.0) ** (j - 1) * math.factorial(j - 1)
        rhs += float(weights[j]) * deriv * (Xf**-j - xf**-j)
    return lhs, rhs, abs(float(lhs) - rhs)


def stirling_identity(x: Fraction | int, n: int, order_cutoff: int) -> tuple[float, float, float]:
    """log(x (x+1) ... (x+n)) against its Bernoulli expansion.

    The left side is a direct floating-point log summation (the oracle).
    Returns (lhs, series_rhs, abs_err).
    """
    x = _sum_args(x, n, order_cutoff)
    xf, Xf = float(x), float(x + n + 1)
    lhs = sum(math.log(float(x + j)) for j in range(n + 1))
    rhs = Xf * math.log(Xf) - xf * math.log(xf) - (n + 1)  # B_0: integral of log t
    weights = _bernoulli_weights(order_cutoff)
    if order_cutoff >= 1:
        rhs += float(weights[1]) * (math.log(Xf) - math.log(xf))
    for j in range(2, order_cutoff + 1):
        # (d/dt)^{j-1} log t = (-1)^j (j-2)! t^{-(j-1)}
        deriv = (-1.0) ** j * math.factorial(j - 2)
        rhs += float(weights[j]) * deriv * (Xf ** -(j - 1) - xf ** -(j - 1))
    return lhs, rhs, abs(lhs - rhs)


def first_omitted_term_bound(x: float, n: int, order_cutoff: int, *, log_case: bool = False) -> float:
    """Size of the first Bernoulli term beyond the cutoff, times a safety
    factor of 10; the run-time acceptance threshold for the numeric checks."""
    k = order_cutoff + 1
    while bernoulli_number(k) == 0:
        k += 1
    w = abs(float(bernoulli_number(k))) / math.factorial(k)
    X = x + n + 1
    if log_case:
        deriv = math.factorial(k - 2)
        scale = x ** -(k - 1) + X ** -(k - 1)
    else:
        deriv = math.factorial(k - 1)
        scale = x**-k + X**-k
    return 10.0 * w * deriv * scale


def em_apply(p: LogSeries, n: int, K: int) -> LogSeries:
    """Difference between sum_{j=0..n} E^j p and its Euler-MacLaurin form

        (E^{n+1} - I) W_K p,  W_K = sum_{k=0..K} (B_k/k!) D^{k-1}.

    W_K is known through D^(K-1), so the difference is exact down to
    max(floor + 1, top(p) - K + 1); it vanishes identically once
    K >= top(p) - floor; terms beyond K only reach degrees <= top(p) - K.
    """
    wp = _weight_op(K).apply(p)  # W's D**-1 raises ValueError at polynomial order
    return _shift_sum(p, n) - (wp.shift(n + 1) - wp)
