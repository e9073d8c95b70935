"""Graded sequences: harmonic, Appell, associated, and Sheffer.

A graded sequence assigns to each integer a a logarithmic series with
top degree a and unit top coefficient.  The four generator rules:

* ``HarmonicRule``           -- the basis itself, a |-> lam_a.
* ``AppellRule(h)``          -- a |-> h(D)**-1 lam_a, h of degree 0.
* ``AssociatedRule(f)``      -- the associated sequence of a delta
  operator f, built through the transfer formula
  p_a = f'(D) (f(D)/D)**-(a+1) lam_a.
* ``ShefferRule(h, f)``      -- h(D)**-1 applied to the associated
  sequence of f.

Operator parameters are supplied as factories cap -> ArtinOp so members
can be expanded to any requested exactness floor.  Note the convention:
members are produced by h(D)**-1, which is what makes biorthogonality
read <alpha| h(D) f(D)^b s_a > = rf(a) delta_ab with h itself on the
left.  Expansion coefficients (Taylor / operator expansion) therefore
pair with h, not h**-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Mapping, Union

from .operators import ArtinOp, convolve, identity_op, monomial_op
from .roman import roman, roman_coeff, roman_factorial
from .series import LogSeries, OrderTag, agrees, harmonic, zero_series

__all__ = [
    "HarmonicRule",
    "AppellRule",
    "AssociatedRule",
    "ShefferRule",
    "GradedSeq",
    "appell_from_constants",
    "exp_genfun_coefficients",
]

OpFactory = Callable[[int], ArtinOp]
RatLike = Union[Fraction, int]

# Extra cap slack so intermediate products never clip a needed exponent.
_MARGIN = 2


@dataclass(frozen=True)
class HarmonicRule:
    pass


@dataclass(frozen=True)
class AppellRule:
    h: OpFactory


@dataclass(frozen=True)
class AssociatedRule:
    f: OpFactory


@dataclass(frozen=True)
class ShefferRule:
    h: OpFactory
    f: OpFactory


Rule = Union[HarmonicRule, AppellRule, AssociatedRule, ShefferRule]


def _checked_h(factory: OpFactory, cap: int) -> ArtinOp:
    h = factory(max(cap, 0))
    if h.is_zero() or h.lead != 0 or h.coeffs[0] != 1:
        raise ValueError("invertible operator must have lead 0 and unit constant term")
    return h


def _checked_f(factory: OpFactory, cap: int) -> ArtinOp:
    f = factory(max(cap, 1))
    if f.is_zero() or f.lead != 1 or f.coeffs[1] != 1:
        raise ValueError("delta operator must have lead 1 and unit linear coefficient")
    return f


class GradedSeq:
    """Lazily indexed family a -> LogSeries defined by a generator rule.

    Members are cached per (order, a) at the deepest floor computed so
    far.  The operators h, f and h**-1 are each kept at the deepest cap
    asked so far and handed out as truncations, so one reciprocal serves
    every member that needs no deeper one, and memory stays linear in the
    cap.  The caches hold immutable values, so a concurrent duplicate
    fill is harmless.
    """

    def __init__(self, rule: Rule):
        self.rule = rule
        self._cache: dict[tuple[OrderTag, int], LogSeries] = {}
        self._assoc: GradedSeq | None = None
        self._ops: dict[str, ArtinOp] = {}

    # -- members ------------------------------------------------------

    def member(self, order: OrderTag, a: int, floor: int) -> LogSeries:
        if floor > a:
            raise ValueError(f"floor {floor} lies above the member degree {a}")
        key = (order, a)
        cached = self._cache.get(key)
        if cached is None or cached.floor > floor:
            cached = self._build(order, a, floor)
            self._cache[key] = cached
        return cached.truncate(floor)

    def _build(self, order: OrderTag, a: int, floor: int) -> LogSeries:
        rule = self.rule
        if isinstance(rule, HarmonicRule):
            return harmonic(order, a, floor)
        if isinstance(rule, AppellRule):
            lam = harmonic(order, a, floor)
            if lam.is_zero():
                return lam
            return self._h_inverse(a - floor).apply(lam)
        if isinstance(rule, AssociatedRule):
            return self._associated(order, a, floor)
        if isinstance(rule, ShefferRule):
            assoc = self._associated(order, a, floor)
            if assoc.is_zero():
                return assoc
            return self._h_inverse(a - floor).apply(assoc).truncate(floor)
        raise TypeError(f"unknown rule {rule!r}")

    def _associated(self, order: OrderTag, a: int, floor: int) -> LogSeries:
        """The transfer formula p_a = f'(D) (f(D)/D)**-(a+1) lam_a; the
        power is one pass of ArtinOp.__pow__, no reciprocal."""
        lam = harmonic(order, a, floor)
        if lam.is_zero():
            return lam
        f = self.delta_op(a - floor + _MARGIN)
        f_over_d = ArtinOp(f.cap - 1, {e - 1: c for e, c in f.coeffs.items()})
        transfer = f.deriv_wrt_d() * f_over_d ** (-(a + 1))
        return transfer.apply(lam).truncate(floor)

    def _deepest(self, name: str, cap: int, build: OpFactory) -> ArtinOp:
        """The operator ``name`` through D^cap, truncated from the deepest
        one built so far."""
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
        if isinstance(self.rule, (AssociatedRule, ShefferRule)):
            return self._deepest("f", cap, lambda c: _checked_f(self.rule.f, c))
        return monomial_op(1, cap)

    def invertible_op(self, cap: int) -> ArtinOp:
        """The degree-0 operator of the sequence: h, or the identity."""
        cap = max(cap, 0)
        if isinstance(self.rule, (AppellRule, ShefferRule)):
            return self._deepest("h", cap, lambda c: _checked_h(self.rule.h, c))
        return identity_op(cap)

    def associated_part(self) -> "GradedSeq":
        """The underlying associated sequence (the harmonic sequence for
        Appell rules).  Built once per instance, so its member cache
        lasts as long as this sequence; an associated or harmonic
        sequence is its own associated part."""
        if isinstance(self.rule, (AssociatedRule, HarmonicRule)):
            return self
        if self._assoc is None:
            if isinstance(self.rule, ShefferRule):
                self._assoc = GradedSeq(AssociatedRule(self.rule.f))
            else:
                self._assoc = GradedSeq(HarmonicRule())
        return self._assoc

    # -- characterization checks --------------------------------------

    def check_lowering(self, order: OrderTag, a: int, floor: int) -> bool:
        """f(D) s_a = roman(a) s_{a-1}, exactly above the common floor."""
        f = self.delta_op(a - floor + _MARGIN)
        lhs = f.apply(self.member(order, a, floor))
        rhs = self.member(order, a - 1, floor - 1).scale(roman(a))
        return agrees(lhs, rhs)

    def check_binomial_shift(self, order: OrderTag, a: int, z: RatLike, floor: int) -> bool:
        """E^z s_a = sum_{b>=0} rc(a,b) <(0)| E^z p_b^{(0)} > s_{a-b},
        with p the underlying associated sequence."""
        z = Fraction(z)
        lhs = self.member(order, a, floor).shift(z)
        assoc = self.associated_part()
        rhs: dict[int, Fraction] = {}
        for b in range(a - floor + 1):
            # <(0)| E^z p_b^{(0)} > is the polynomial p_b evaluated at z
            pb = assoc.member(OrderTag.ZERO, b, 0)
            cb = roman_coeff(a, b) * sum(c * z**d for d, c in pb.coeffs.items())
            if cb != 0:
                for d, c in self.member(order, a - b, floor).coeffs.items():
                    rhs[d] = rhs.get(d, 0) + cb * c
        return agrees(lhs, LogSeries(order, floor, rhs))

    def check_biorthogonality(self, a: int, b: int) -> bool:
        """<alpha| h(D) f(D)^b s_a > = rf(a) delta_ab, at generic order."""
        if b < 0:
            raise ValueError("biorthogonality index b must be nonnegative")
        cap = max(a, b, 0) + _MARGIN
        op = self.invertible_op(cap) * self.delta_op(cap) ** b
        value = op.pair(self.member(OrderTag.GENERIC, a, min(a, b, 0)))
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
        cap = top - min(a_min, p.floor, 0) + 2 * _MARGIN
        out: dict[int, Fraction] = {}
        for a in range(a_min, top + 1):
            c = self.expansion_basis_op(a, cap).pair(p) / roman_factorial(a)
            if c != 0:
                out[a] = c
        return out

    def reconstruct(self, coeffs: Mapping[int, Fraction], order: OrderTag, floor: int) -> LogSeries:
        """sum_a c_a s_a down to the given floor."""
        out = zero_series(order, floor)
        # deepest member first, so one h**-1 serves every degree
        for a, c in sorted(coeffs.items(), reverse=True):
            out = out + self.member(order, a, floor).scale(c)
        return out

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

    def genfun_coefficient(self, k: int, cap: int | None = None) -> LogSeries:
        """The x-polynomial coefficient of y^k in the order-(0) generating
        function G(y) [exp](x f_inv(y)), with G = 1/h(f_inv(y)).

        f_inv is the compositional inverse of the delta operator; the
        Roman exponential at order (0) is the ordinary sum_n x^n y^n/n!.
        Costs one Lagrange inversion, one composition and O(k^3) for the
        powers of f_inv; genfun_check_order_zero shares that work over
        every k up to its K.
        """
        if cap is None:
            cap = k + 1
        return self._genfun_coefficients(k, cap)[k]

    def _genfun_coefficients(self, K: int, cap: int) -> list[LogSeries]:
        """The y^k coefficients of the generating function for every
        0 <= k <= K, from one f_inv and one G."""
        f_inv = self.delta_op(cap).comp_inverse()
        g = self.invertible_op(cap).compose(f_inv).recip()
        return exp_genfun_coefficients(g.coeffs, f_inv.coeffs, K)

    def genfun_check_order_zero(self, K: int) -> bool:
        """Check member(k)/k! against the y^k generating-function
        coefficient for all 0 <= k <= K.

        f_inv, G and the powers of f_inv are built once at cap K+1 and
        every coefficient is read from them: one Lagrange inversion, one
        composition and O(K^3) for the products.
        """
        coeffs = self._genfun_coefficients(K, K + 1)
        # deepest member first, so one h**-1 serves every degree
        for k in range(K, -1, -1):
            member = self.member(OrderTag.ZERO, k, 0).scale(1 / roman_factorial(k))
            if coeffs[k] != member:
                return False
        return True


def exp_genfun_coefficients(
    g: Mapping[int, Fraction], u: Mapping[int, Fraction], K: int
) -> list[LogSeries]:
    """The y^k coefficients, 0 <= k <= K, of g(y) exp(x u(y)) as order-(0)
    series in x, for power series g and u with u(0) = 0.

    The x^n part is g(y) u(y)^n / n!; multiplying in one factor of u per
    n costs O(K^3) for all coefficients together.
    """
    rows = []  # rows[n][k]: coefficient of y^k in g(y) u(y)^n
    power: Mapping[int, Fraction] = {0: Fraction(1)}
    for n in range(K + 1):
        if n:
            power = convolve(power, u, K)
        rows.append(convolve(g, power, K))
    return [
        LogSeries(
            OrderTag.ZERO,
            0,
            {n: row.get(k, Fraction(0)) / factorial(n) for n, row in enumerate(rows)},
        )
        for k in range(K + 1)
    ]


def appell_from_constants(
    constants: Mapping[int, RatLike], order: OrderTag, a: int, floor: int
) -> LogSeries:
    """Build an Appell member from its sequence of numbers
    c_b = <(0)| p_b^{(0)} >:  p_a = sum_b rc(a,b) c_b lam_{a-b}."""
    out = zero_series(order, floor)
    for b, cb in constants.items():
        if b < 0:
            raise ValueError("constants are indexed by b >= 0")
        if a - b >= floor:
            term = harmonic(order, a - b, floor)
            out = out + term.scale(roman_coeff(a, b) * Fraction(cb))
    return out
