"""Graded sequences: harmonic, Appell, associated, and Sheffer.

A graded sequence assigns to each integer a a logarithmic series with
top degree a and unit top coefficient.  Each is the Sheffer sequence of
an invertible h and a delta operator f, s_a = h(D)**-1 f'(D)
(f(D)/D)**-(a+1) lam_a (Roman & Rota, Adv. Math. 27, 1978).  A rule
class holds None for an absent h or f, whose factor is then left out:
``HarmonicRule`` (neither), ``AppellRule(h)``, ``AssociatedRule(f)``
(the transfer formula) and ``ShefferRule(h, f)``.

Members are cached per degree, as generic members.  Order (0) is
generic order with lam_d = 0 for d < 0, so its member is the generic
one read from degree 0 up.

Operator parameters are supplied as factories cap -> ArtinOp; every cap
is derived from the floor it must reach, the product-cap rule of
``operators`` read backwards, and a member that misses its floor raises.
Note the convention: members are produced by h(D)**-1, which is what
makes biorthogonality read <alpha| h(D) f(D)^b s_a > = rf(a) delta_ab
with h itself on the left.  Expansion coefficients (Taylor / operator
expansion) therefore pair with h, not h**-1.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from fractions import Fraction
from itertools import accumulate
from math import factorial

from .operators import ArtinOp, convolve, identity_op, monomial_op
from .roman import roman, roman_factorial
from .series import Frozen, LogSeries, OrderTag, harmonic, zero_series

__all__ = [
    "HarmonicRule",
    "AppellRule",
    "AssociatedRule",
    "ShefferRule",
    "GradedSeq",
    "exp_genfun_coefficients",
    "genfun_rows_match",
]


class HarmonicRule(Frozen):
    __slots__ = ()
    h = f = None


class AppellRule(Frozen):
    __slots__ = ("h",)  # h: cap -> ArtinOp
    f = None


class AssociatedRule(Frozen):
    __slots__ = ("f",)  # f: cap -> ArtinOp
    h = None


class ShefferRule(Frozen):
    __slots__ = ("h", "f")  # both cap -> ArtinOp


def _checked(factory: Callable[[int], ArtinOp], cap: int, lead: int) -> ArtinOp:
    """factory(cap), which must have lead 0 (h) or 1 (f) and a unit coefficient there."""
    op = factory(cap)
    if op.is_zero() or op.lead != lead or op.coeffs[lead] != 1:
        raise ValueError(("invertible operator must have lead 0 and unit constant term",
                          "delta operator must have lead 1 and unit linear coefficient")[lead])
    return op


class GradedSeq:
    """Lazily indexed family a -> LogSeries defined by a generator rule.

    Members are cached per degree, generic and at the deepest floor so
    far.  The operators h, f and h**-1 are each kept at the deepest cap
    asked so far and handed out as truncations, so one reciprocal serves
    every member that needs no deeper one, the generating function's G
    included, and memory stays linear in the cap.  A read at the cached
    floor or cap gets the cached object itself, shared and not copied;
    the caches hold immutable values, so sharing them is safe and a
    concurrent duplicate fill is harmless.
    """

    def __init__(self, rule: HarmonicRule | AppellRule | AssociatedRule | ShefferRule):
        self.rule = rule
        self._cache: dict[int, LogSeries] = {}
        self._assoc: GradedSeq | None = None
        self._ops: dict[str, ArtinOp] = {}

    # -- members ------------------------------------------------------

    def member(self, order: OrderTag, a: int, floor: int) -> LogSeries:
        """s_a down to ``floor``.  A generic read at the cached member's
        floor returns the cached (immutable) series itself; an order-(0)
        read, or a shallower floor, builds a new series from it."""
        if floor > a:
            raise ValueError(f"floor {floor} lies above the member degree {a}")
        # order (0) is generic order with lam_d = 0 for d < 0: read from degree 0 up
        low = floor if order is OrderTag.GENERIC else max(floor, 0)
        if low > a:
            return LogSeries(order, low)
        cached = self._cache.get(a)
        if cached is None or cached.floor > low:
            cached = self._cache[a] = self._build(a, low)
        if order is OrderTag.GENERIC and cached.floor == low:
            return cached
        return LogSeries(order, low, {d: c for d, c in cached.coeffs.items() if d >= low})

    def _build(self, a: int, floor: int) -> LogSeries:
        """s_a = h(D)**-1 f'(D) (f(D)/D)**-(a+1) lam_a at generic order, without
        the factors the rule lacks.  Both operators have lead 0, so through
        D^(a-floor) they keep lam_a's floor; f is built one degree deeper, as
        f/D and f' each lose one.  A member short of that floor raises ValueError."""
        out = lam = harmonic(OrderTag.GENERIC, a, floor)
        cap = a - floor
        if self.rule.f is not None:
            f = self.delta_op(cap + 1)
            f_over_d = ArtinOp(f.cap - 1, {e - 1: c for e, c in f.coeffs.items()})
            out = (f.deriv_wrt_d() * f_over_d ** (-(a + 1))).apply(out)
        if self.rule.h is not None:
            out = self._h_inverse(cap).apply(out)
        if out.floor > lam.floor:
            raise ValueError(f"member {a} reached floor {out.floor}, not {lam.floor}")
        return out

    def _deepest(self, name: str, cap: int, build: Callable[[int], ArtinOp]) -> ArtinOp:
        """The operator ``name`` through D^cap, truncated from the deepest
        one built so far: that operator itself, shared, at its own cap."""
        op = self._ops.get(name)
        if op is None or op.cap < cap:
            op = self._ops[name] = build(cap)
        return op.truncate(cap)

    def _h_inverse(self, cap: int) -> ArtinOp:
        return self._deepest("h_inv", cap, lambda c: self.invertible_op(c).recip())

    # -- operator access ----------------------------------------------

    def delta_op(self, cap: int) -> ArtinOp:
        """The lowering (delta) operator of the sequence: f, or D for
        Appell and harmonic rules."""
        cap = max(cap, 1)
        if self.rule.f is None:
            return monomial_op(1, cap)
        return self._deepest("f", cap, lambda c: _checked(self.rule.f, c, 1))

    def invertible_op(self, cap: int) -> ArtinOp:
        """The degree-0 operator of the sequence: h, or the identity."""
        cap = max(cap, 0)
        if self.rule.h is None:
            return identity_op(cap)
        return self._deepest("h", cap, lambda c: _checked(self.rule.h, c, 0))

    def associated_part(self) -> "GradedSeq":
        """The underlying associated sequence (the harmonic sequence for
        Appell rules).  Built once per instance, so its member cache
        lasts as long as this sequence; an associated or harmonic
        sequence is its own associated part."""
        if self.rule.h is None:
            return self
        if self._assoc is None:
            f = self.rule.f
            self._assoc = GradedSeq(HarmonicRule() if f is None else AssociatedRule(f))
        return self._assoc

    # -- characterization checks --------------------------------------

    def check_lowering(self, order: OrderTag, a: int, floor: int) -> bool:
        """f(D) s_a = roman(a) s_{a-1}, both sides exact down to floor - 1:
        f has lead 1, so it reaches that floor through D^(a - floor + 1)."""
        f = self.delta_op(a - floor + 1)
        lhs = f.apply(self.member(order, a, floor))
        rhs = self.member(order, a - 1, floor - 1).scale(roman(a))
        return lhs == rhs

    def check_binomial_shift(self, order: OrderTag, a: int, z: Fraction | int, floor: int) -> bool:
        """E^z s_a = sum_{b>=0} rc(a,b) <(0)| E^z p_b^{(0)} > s_{a-b},
        with p the underlying associated sequence; both sides are exact
        down to floor.  p_b^{(0)} holds the degrees >= 0 of the generic
        p_b, so p_b is read at generic order down to floor 0: the cached
        member itself when it was built there."""
        z = Fraction(z)
        assoc = self.associated_part()
        coeffs: dict[int, Fraction] = {}
        rc = Fraction(1)  # rc(a, b), carried along b by one Roman factor per step
        for b in range(a - floor + 1):
            # <(0)| E^z p_b^{(0)} > is the polynomial part of p_b evaluated at z
            cb = rc * sum(c * z**d for d, c in assoc.member(OrderTag.GENERIC, b, 0).coeffs.items())
            if cb != 0:
                coeffs[a - b] = cb
            rc = rc * roman(a - b) / (b + 1)
        rhs = self.reconstruct(coeffs, order, floor)
        # a shallow member would raise the floor of the sum: require the one asked for
        return rhs.floor == zero_series(order, floor).floor and self.member(order, a, floor).shift(z) == rhs

    def check_biorthogonality(self, a: int, b: int) -> bool:
        """<alpha| h(D) f(D)^b s_a > = rf(a) delta_ab, at generic order.

        h f^b built from cap a - b + 1 reaches D^a (the b-th power adds
        b - 1), and its lead is b, so the pairing reads s_a down to
        min(a, b)."""
        if b < 0:
            raise ValueError("biorthogonality index b must be nonnegative")
        op = self.expansion_basis_op(b, a - b + 1)
        value = op.pair(self.member(OrderTag.GENERIC, a, min(a, b)))
        return value == (roman_factorial(a) if a == b else 0)

    # -- expansions ----------------------------------------------------

    def taylor_coeffs(self, p: LogSeries, a_min: int) -> dict[int, Fraction]:
        """Coefficients c_a = <alpha| h(D) f(D)^a p > / rf(a), for a in
        [a_min, top(p)], so that sum c_a s_a reconstructs p above a_min."""
        top = p.top_degree()
        if top is None:
            return {}
        if a_min > top:
            raise ValueError("a_min lies above the top degree of the series")
        if a_min < p.floor:
            raise ValueError("a_min below the exactness floor: coefficients not determined")
        if p.order is OrderTag.ZERO and a_min < 0:
            raise ValueError("negative basis indices require generic order")
        # deeper than the exact top - a_min + 1; kept until the session
        # benchmark reads peak RSS at a fixed request count (see ROADMAP)
        cap = top - min(a_min, p.floor, 0) + 4
        out: dict[int, Fraction] = {}
        for a in range(a_min, top + 1):
            c = self.expansion_basis_op(a, cap).pair(p) / roman_factorial(a)
            if c != 0:
                out[a] = c
        return out

    def reconstruct(self, coeffs: Mapping[int, Fraction], order: OrderTag, floor: int) -> LogSeries:
        """sum_a c_a s_a down to the given floor, or to the floor of the
        shallowest member where that lies higher."""
        out: dict[int, Fraction] = {}
        low = floor
        # deepest member first, so one h**-1 serves every degree
        for a, c in sorted(coeffs.items(), reverse=True):
            s = self.member(order, a, floor)
            low = max(low, s.floor)
            for d, v in s.coeffs.items():
                out[d] = out.get(d, 0) + c * v
        return LogSeries(order, low, {d: v for d, v in out.items() if d >= low})

    def expand_operator(self, h_target: ArtinOp, a_min: int) -> dict[int, Fraction]:
        """Coefficients d_a = <alpha| h_target s_a > / rf(a) of the
        expansion h_target = sum_a d_a g(D) f(D)^a, for a in
        [a_min, h_target.cap].

        The basis operator carries g itself, not g**-1: it pairs with
        the g**-1 inside the members (in the Bernoulli basis the
        identity expands as sum_a (B_a/a!) J D^a = J J**-1 = I).
        """
        if h_target.is_zero():
            return {}
        out: dict[int, Fraction] = {}
        # deepest member first, so one h**-1 serves every degree
        for a in range(h_target.cap, a_min - 1, -1):
            s = self.member(OrderTag.GENERIC, a, min(h_target.lead, a, 0))
            d = h_target.pair(s) / roman_factorial(a)
            if d != 0:
                out[a] = d
        return dict(sorted(out.items()))

    def expansion_basis_op(self, a: int, cap: int) -> ArtinOp:
        """The operator g(D) f(D)^a paired with expand_operator."""
        return self.invertible_op(cap) * self.delta_op(cap) ** a

    # -- generating function (polynomial order only) -------------------

    def genfun_coefficient(self, k: int) -> LogSeries:
        """The x-polynomial coefficient of y^k in the order-(0) generating
        function G(y) [exp](x f_inv(y)), with G = h**-1(f_inv(y)).

        f_inv is the compositional inverse of the delta operator; the
        Roman exponential at order (0) is the ordinary sum_n x^n y^n/n!.
        Every operator is built through y^k, the deepest power read.
        Costs one Lagrange inversion, one composition and O(k^3) for the
        products by f_inv; genfun_check_order_zero shares that work over
        every k up to its K.  A negative k raises ValueError.
        """
        return self._genfun_coefficients(k)[k]

    def _genfun_coefficients(self, K: int) -> list[LogSeries]:
        """The y^k coefficients of the generating function for every
        0 <= k <= K, from one f_inv and one G, both through y^K.

        G is the members' own h**-1, kept at cap K, composed with f_inv:
        (h o f_inv)**-1 = h**-1 o f_inv through y^K, so G takes no
        reciprocal of its own, and a member of degree <= K reads a
        truncation of the same h**-1.  Without h, h**-1 is the identity."""
        f_inv = self.delta_op(K).comp_inverse()
        return exp_genfun_coefficients(self._h_inverse(K).compose(f_inv).coeffs, f_inv.coeffs, K)

    def genfun_check_order_zero(self, K: int) -> bool:
        """Check member(k)/k! against the y^k generating-function
        coefficient for all 0 <= k <= K.

        f_inv, h**-1 and G are built once at cap K and every coefficient
        is read from them: one Lagrange inversion, one reciprocal, one
        composition and K products.  The members add no reciprocal: each
        truncates the h**-1 that G was built from.  A negative K raises
        ValueError.
        """
        return genfun_rows_match(self._genfun_coefficients(K), lambda k: self.member(OrderTag.ZERO, k, 0))


def exp_genfun_coefficients(
    g: Mapping[int, Fraction], u: Mapping[int, Fraction], K: int
) -> list[LogSeries]:
    """The y^k coefficients, 0 <= k <= K, of g(y) exp(x u(y)) as order-(0)
    series in x, for power series g and u with u(0) = 0 and Fraction
    coefficients.

    The x^n part is g(y) u(y)^n / n!.  Row n + 1 is row n times u, one
    truncated product each, so the K + 1 rows take K products and
    O(K^3) for all coefficients together.  A negative K raises
    ValueError.
    """
    if K < 0:
        raise ValueError(f"the generating function is read through y^K for K >= 0, not K = {K}")
    # rows[n][k]: coefficient of y^k in g(y) u(y)^n; rows[0] = g, rows[n + 1] = rows[n] u
    rows = list(accumulate([u] * K, lambda row, v: convolve(row, v, K), initial=g))
    return [
        LogSeries(OrderTag.ZERO, 0, {n: row[k] / factorial(n) for n, row in enumerate(rows) if k in row})
        for k in range(K + 1)
    ]


def genfun_rows_match(rows: list[LogSeries], member: Callable[[int], LogSeries]) -> bool:
    """Whether rows[k] == member(k)/k! for every k, the generating-function
    comparison.  It stops at the first row that differs."""
    return all(rows[k] == member(k).scale(1 / roman_factorial(k)) for k in range(len(rows)))
