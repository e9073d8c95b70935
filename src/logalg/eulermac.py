"""Logarithmic Euler-MacLaurin machinery.

The identity I = B_0 J + B_1 Delta + sum_{k>=2} (B_k/k!) Delta D^{k-1}
is exact in the operator ring (not merely asymptotic): it is I = Delta W
for the weight operator W = sum_{k>=0} (B_k/k!) D^{k-1} = D**-1 J**-1,
so sum_{j<=n} E^j = (E^{n+1} - I) W (Loeb & Rota, Adv. Math. 75, 1989).
This module reads W off one reciprocal of J, checks the identity at
any truncation order with one operator product or one action on a
series, evaluates the telescoping lambda-sum closed form, and runs the
two classical numeric instances (harmonic numbers and Stirling's
formula) against exact summation oracles.  Each instance returns
(lhs, rhs, err, bound): its right side W_K lam_a (a = -1 for 1/t, a = 0
for log t, read by numeric.eval_difference) and its bound, the first
omitted term, are two readings of one series W_(K+2) lam_a.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .classics import bernoulli_member
from .numeric import eval_difference, eval_lambda
from .operators import ArtinOp, bernoulli_j, forward_difference, identity_op
from .roman import roman
from .series import Frozen, LogSeries, OrderTag, harmonic

__all__ = [
    "EMReport",
    "em_operator_residual",
    "lambda_sum_closed_form",
    "harmonic_identity",
    "stirling_identity",
    "em_apply",
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


def _weight_op(K: int, omit_linear_term: bool = False) -> ArtinOp:
    """W_K = D**-1 J**-1 = sum_{k=0..K} (B_k/k!) D^{k-1}, known through
    D^(K-1): one reciprocal of J, shifted down one degree; the B_1 term,
    D^0, is left out on request."""
    weights = bernoulli_j(K).recip().coeffs.items()
    return ArtinOp(K - 1, {k - 1: w for k, w in weights if k != 1 or not omit_linear_term})


def _shift_sum(p: LogSeries, n: int) -> LogSeries:
    """p + E p + ... + E^n p by one operator, sum_k (0^k + ... + n^k) D^k / k!,
    known through D^(top - floor) so that the floor is kept."""
    cap = max(p.coeffs, default=p.floor) - p.floor
    sums = {k: Fraction(sum(j**k for j in range(n + 1)), math.factorial(k)) for k in range(cap + 1)}
    return ArtinOp(cap, sums).apply(p)


def _read_w_lambda(a: int, x: Fraction, n: int, K: int) -> tuple[float, float]:
    """The right side and the bound of lam_a(x) + ... + lam_a(x+n), both off
    W_(K+2) lam_a: the right side reads it cut to W_K lam_a, above degree
    a - K, at level 1 at X = x + n + 1 minus at x; the bound is ten times
    the first omitted term, c_d lam_d at x plus at X in floats, c_d its
    first nonzero coefficient at or below a - K (B_(K+1) or B_(K+2) is
    nonzero).  Raises OverflowError when either is beyond float range."""
    w_lam = _weight_op(K + 2).apply(harmonic(OrderTag.GENERIC, a, a - K - 2))
    rhs = eval_difference(w_lam.truncate(a - K + 1), x, x + n + 1)
    d = max(e for e in w_lam.coeffs if e <= a - K)
    xf = float(x)
    lam = abs(eval_lambda(1, d, xf)) + abs(eval_lambda(1, d, xf + n + 1))
    bound = 10.0 * abs(float(w_lam.coeffs[d])) * lam
    if not math.isfinite(bound):
        raise OverflowError("the first omitted term is beyond floating-point range")
    return rhs, bound


def harmonic_identity(x: Fraction | int, n: int, order_cutoff: int) -> tuple[Fraction, float, float, float]:
    """1/x + ... + 1/(x+n) against its Bernoulli expansion.

    The left side is summed in exact rational arithmetic (the oracle);
    the right side and the bound are read off W_(K+2) lam_-1
    (``_read_w_lambda``).  Returns (exact_lhs, series_rhs, abs_err, bound).
    """
    x = _sum_args(x, n, order_cutoff)
    lhs = sum((1 / (x + j) for j in range(n + 1)), Fraction(0))
    rhs, bound = _read_w_lambda(-1, x, n, order_cutoff)
    return lhs, rhs, abs(float(lhs) - rhs), bound


def stirling_identity(x: Fraction | int, n: int, order_cutoff: int) -> tuple[float, float, float, float]:
    """log(x (x+1) ... (x+n)) against its Bernoulli expansion.

    The left side is a direct floating-point log summation (the oracle);
    the right side and the bound are read off W_(K+2) lam_0.
    Returns (lhs, series_rhs, abs_err, bound).
    """
    x = _sum_args(x, n, order_cutoff)
    lhs = sum(math.log(float(x + j)) for j in range(n + 1))
    rhs, bound = _read_w_lambda(0, x, n, order_cutoff)
    return lhs, rhs, abs(lhs - rhs), bound


def em_apply(p: LogSeries, n: int, K: int) -> LogSeries:
    """Difference between sum_{j=0..n} E^j p and its Euler-MacLaurin form

        (E^{n+1} - I) W_K p,  W_K = sum_{k=0..K} (B_k/k!) D^{k-1}.

    W_K is known through D^(K-1), so the difference is exact down to
    max(floor + 1, top(p) - K + 1); it vanishes identically once
    K >= top(p) - floor; terms beyond K only reach degrees <= top(p) - K.
    """
    wp = _weight_op(K).apply(p)  # W's D**-1 raises ValueError at polynomial order
    return _shift_sum(p, n) - (wp.shift(n + 1) - wp)
