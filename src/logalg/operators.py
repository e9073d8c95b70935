"""Truncated Artinian operators: formal Laurent series in the derivative D.

An operator is a finite map exponent -> Fraction with exponents in
[lead, cap]; exponents above ``cap`` are unknown (truncated), the lead is
the lowest nonzero exponent.  Negative exponents are allowed (D is
invertible on generic-order series), which is what lets J**-1, f(D)**a
for a < 0, and the Euler-MacLaurin operator all live in one ring.

Truncation bookkeeping is pessimistic but sound: the cap of every result
is computed so that each retained coefficient is provably exact.  All
operators are power series in the single symbol D, hence commute.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Mapping, Union

from .roman import roman_ratio
from .series import LogSeries, OrderTag

__all__ = [
    "ArtinOp",
    "identity_op",
    "monomial_op",
    "shift_op",
    "forward_difference",
    "bernoulli_j",
    "weierstrass",
    "one_minus_d_pow",
    "gen_binomial",
    "convolve",
]

RatLike = Union[Fraction, int]


def gen_binomial(r: RatLike, k: int) -> Fraction:
    """Generalized binomial coefficient C(r, k) for rational r, integer k >= 0."""
    r = Fraction(r)
    out = Fraction(1)
    for i in range(k):
        out *= (r - i)
    return out / factorial(k)


@dataclass(frozen=True)
class ArtinOp:
    cap: int
    coeffs: Mapping[int, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {e: Fraction(c) for e, c in self.coeffs.items() if c != 0}
        if any(e > self.cap for e in clean):
            raise ValueError("coefficient above the truncation cap")
        object.__setattr__(self, "coeffs", clean)

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        """Lowest exponent with a nonzero coefficient (the operator's degree)."""
        if not self.coeffs:
            raise ValueError("the zero operator has no lead exponent")
        return min(self.coeffs)

    def coeff(self, e: int) -> Fraction:
        if e > self.cap:
            raise ValueError(f"exponent {e} is above the truncation cap {self.cap}")
        return self.coeffs.get(e, Fraction(0))

    # -- ring structure -----------------------------------------------

    def __add__(self, other: "ArtinOp") -> "ArtinOp":
        cap = min(self.cap, other.cap)
        out = {e: c for e, c in self.coeffs.items() if e <= cap}
        for e, c in other.coeffs.items():
            if e <= cap:
                out[e] = out.get(e, Fraction(0)) + c
        return ArtinOp(cap, out)

    def __sub__(self, other: "ArtinOp") -> "ArtinOp":
        return self + other.scale(-1)

    def scale(self, c: RatLike) -> "ArtinOp":
        c = Fraction(c)
        return ArtinOp(self.cap, {e: c * v for e, v in self.coeffs.items()})

    def __neg__(self) -> "ArtinOp":
        return self.scale(-1)

    def __mul__(self, other: "ArtinOp") -> "ArtinOp":
        """Cauchy product.  The result cap is the largest exponent all of
        whose contributions are known: min(self.cap + other.lead,
        other.cap + self.lead)."""
        if self.is_zero() or other.is_zero():
            return ArtinOp(self.cap + other.cap, {})
        cap = min(self.cap + other.lead, other.cap + self.lead)
        out: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e <= cap:
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
        return ArtinOp(cap, out)

    def recip(self) -> "ArtinOp":
        """Multiplicative inverse, by recursive division of truncated series."""
        if self.is_zero():
            raise ValueError("the zero operator has no reciprocal")
        lead = self.lead
        c0 = self.coeffs[lead]
        n_terms = self.cap - lead
        a = [self.coeffs.get(lead + i, Fraction(0)) / c0 for i in range(n_terms + 1)]
        b = [Fraction(1)] + [Fraction(0)] * n_terms
        for m in range(1, n_terms + 1):
            b[m] = -sum(a[i] * b[m - i] for i in range(1, m + 1))
        return ArtinOp(self.cap - 2 * lead, {-lead + m: b[m] / c0 for m in range(n_terms + 1)})

    def __pow__(self, n: int) -> "ArtinOp":
        if n < 0:
            return self.recip() ** (-n)
        result = identity_op(self.cap - (self.lead if not self.is_zero() else 0))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def compose(self, inner: "ArtinOp") -> "ArtinOp":
        """Substitute ``inner`` for D in self.  Requires self.lead >= 0 and
        inner.lead >= 1, so the substituted series converges degree-wise."""
        if self.is_zero():
            return ArtinOp(self.cap, {})
        if self.lead < 0:
            raise ValueError("cannot substitute into a Laurent operator with negative lead")
        if inner.is_zero() or inner.lead < 1:
            raise ValueError("substitution requires a delta-like inner series (lead >= 1)")
        # First unknown outer term contributes at >= (cap+1)*inner.lead;
        # the inner truncation limits exactness to inner.cap.
        cap = min((self.cap + 1) * inner.lead - 1, inner.cap)
        out: dict[int, Fraction] = {0: self.coeffs.get(0, Fraction(0))}
        power = {0: Fraction(1)}
        for k in range(1, self.cap + 1):
            power = convolve(power, inner.coeffs, cap)
            ck = self.coeffs.get(k, Fraction(0))
            if ck:
                for e, v in power.items():
                    out[e] = out.get(e, Fraction(0)) + ck * v
            if not power:
                break
        return ArtinOp(cap, out)

    def comp_inverse(self) -> "ArtinOp":
        """Compositional inverse of a delta operator (lead exactly 1).

        Lagrange inversion: with psi = D/self (one reciprocal),
        [D^n] self^<-1> = (1/n) [D^(n-1)] psi^n.  The powers of psi are
        built by multiplying in one factor per degree, so the whole
        inverse costs O(cap^3) Fraction operations (Brent & Kung, J. ACM
        25, 1978).  Every coefficient up to ``self.cap`` is exact.
        """
        if self.is_zero() or self.lead != 1:
            raise ValueError("compositional inversion requires lead exactly 1")
        psi = ArtinOp(self.cap - 1, {e - 1: c for e, c in self.coeffs.items()}).recip()
        power = identity_op(psi.cap)
        g: dict[int, Fraction] = {}
        for n in range(1, self.cap + 1):
            power = power * psi
            g[n] = power.coeff(n - 1) / n
        return ArtinOp(self.cap, g)

    def deriv_wrt_d(self) -> "ArtinOp":
        """Formal derivative with respect to the symbol D (used by the
        transfer formula)."""
        return ArtinOp(self.cap - 1, {e - 1: e * c for e, c in self.coeffs.items() if e != 0})

    # -- action on logarithmic series ---------------------------------

    def apply(self, p: LogSeries) -> LogSeries:
        """Act on a logarithmic series: (Ap)_m = sum_k c_k rr(m+k, m) p_{m+k}.

        The result floor is max(p.floor - lead, top(p) - cap): below that,
        either truncated coefficients of p or of the operator would enter.
        """
        if self.is_zero():
            return LogSeries(p.order, p.floor, {})
        lead = self.lead
        if p.order is OrderTag.ZERO and lead < 0:
            raise ValueError("negative powers of D do not act on polynomial-order series")
        top = p.top_degree()
        if top is None:
            return LogSeries(p.order, p.floor - lead, {})
        floor = max(p.floor - lead, top - self.cap)
        out: dict[int, Fraction] = {}
        for k, ck in self.coeffs.items():
            for d, cd in p.coeffs.items():
                m = d - k
                if m >= floor:
                    out[m] = out.get(m, Fraction(0)) + ck * cd * roman_ratio(d, m)
        if p.order is OrderTag.ZERO:
            out = {d: c for d, c in out.items() if d >= 0}
        return LogSeries(p.order, floor, out)

    # -- serialization ------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "lead": self.lead if not self.is_zero() else None,
            "cap": self.cap,
            "coeffs": [[e, str(c)] for e, c in sorted(self.coeffs.items())],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj())

    @classmethod
    def from_obj(cls, obj: dict) -> "ArtinOp":
        return cls(int(obj["cap"]), {int(e): Fraction(c) for e, c in obj["coeffs"]})

    @classmethod
    def from_json(cls, text: str) -> "ArtinOp":
        return cls.from_obj(json.loads(text))


def convolve(
    a: Mapping[int, Fraction], b: Mapping[int, Fraction], cap: int
) -> dict[int, Fraction]:
    """Truncated Cauchy product of two coefficient maps: exponents above
    ``cap`` are dropped, as are zero coefficients."""
    out: dict[int, Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if e <= cap:
                out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


# -- constructor catalog ---------------------------------------------


def identity_op(cap: int = 0) -> ArtinOp:
    return ArtinOp(cap, {0: Fraction(1)})


def monomial_op(exponent: int, cap: int | None = None, c: RatLike = 1) -> ArtinOp:
    """c * D**exponent."""
    if cap is None:
        cap = max(exponent, 0)
    return ArtinOp(cap, {exponent: Fraction(c)})


def shift_op(z: RatLike, cap: int) -> ArtinOp:
    """E^z = e^{zD} = sum_k z^k D^k / k!."""
    z = Fraction(z)
    return ArtinOp(cap, {k: z**k / factorial(k) for k in range(cap + 1)})


def forward_difference(cap: int) -> ArtinOp:
    """The forward difference Delta = e^D - I = sum_{k>=1} D^k / k!."""
    return ArtinOp(cap, {k: Fraction(1, factorial(k)) for k in range(1, cap + 1)})


def bernoulli_j(cap: int) -> ArtinOp:
    """The Bernoulli operator J = (e^D - I)/D = sum_{k>=0} D^k / (k+1)!,
    the average of a series over a unit interval."""
    return ArtinOp(cap, {k: Fraction(1, factorial(k + 1)) for k in range(cap + 1)})


def weierstrass(sigma: RatLike, cap: int) -> ArtinOp:
    """The Weierstrass operator e^{sigma D^2} = sum_k sigma^k D^{2k} / k!."""
    sigma = Fraction(sigma)
    return ArtinOp(cap, {2 * k: sigma**k / factorial(k) for k in range(cap // 2 + 1)})


def one_minus_d_pow(r: RatLike, cap: int) -> ArtinOp:
    """(1 - D)**r for rational r, via the generalized binomial series."""
    return ArtinOp(cap, {k: gen_binomial(r, k) * (-1) ** k for k in range(cap + 1)})
