"""Truncated Artinian operators: formal Laurent series in the derivative D.

An operator is a finite map exponent -> Fraction with exponents in
[lead, cap]; exponents above ``cap`` are unknown (truncated), the lead is
the lowest nonzero exponent.  Negative exponents are allowed (D is
invertible on generic-order series), which is what lets J**-1, f(D)**a
for a < 0, and the Euler-MacLaurin operator all live in one ring.

Truncation bookkeeping is pessimistic but sound: the cap of every result
is computed so that each retained coefficient is provably exact.  All
operators are power series in the single symbol D, hence commute.

Cap rules.  A zero operator with cap c has no known nonzero term; its
first possibly nonzero term sits at c + 1, which plays the part of its
lead below.

* ``a * b`` is exact through min(a.cap + b.lead, b.cap + a.lead).
* ``a ** n`` keeps the relative precision cap - lead of ``a``: its cap is
  n*lead + (cap - lead) for every integer n, so ``recip()`` (n = -1) has
  cap cap - 2*lead.  ``a ** 0`` is the identity at cap cap - lead (cap for
  the zero operator), and the zero operator has no negative powers.
* ``apply`` is the product; its floor is minus the product cap.  D lowers
  lam_d / rf(d) by one index, so p = sum_d c_d lam_d acts as the operator
  sum_d c_d rf(d) D^(-d), known through D^(-p.floor) (Loeb & Rota, Adv.
  Math. 75, 1989).  Operators only lower degree, so at polynomial order
  the result is the generic one without its negative degrees.  Every
  action on a series is this product: ``LogSeries.shift`` applies
  E^z = ``shift_op(z, ...)``, and ``derivative`` and ``antiderivative``
  apply the monomials D and D**-1.

Representation.  Coefficient maps are read-only Fraction maps, in
``coeffs`` and at every public boundary.  A constructor stores a
``Fraction`` as the object given and converts any other value, and
``truncate`` returns its operand when it drops nothing, so an exact value
is built once and then shared, never re-wrapped or copied.  The two hot
kernels, ``convolve`` and ``a ** n``, work privately on integer
numerators over one common denominator, the pair (den, {e: int}) of
FLINT's fmpq_poly (Hart, ICMS 2010), so their inner loops are plain int
arithmetic and each output coefficient is reduced by one gcd, not one per
term.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from fractions import Fraction
from itertools import islice
from math import factorial, gcd, lcm
from types import MappingProxyType

from .roman import roman_factorial
from .series import Frozen, LogSeries, OrderTag

__all__ = [
    "ArtinOp",
    "identity_op",
    "monomial_op",
    "shift_op",
    "forward_difference",
    "bernoulli_j",
    "weierstrass",
    "one_minus_d_pow",
    "convolve",
    "powers",
]


class ArtinOp(Frozen):
    """A truncated operator (see the module docstring).  A ``Fraction``
    coefficient is stored as given; any other value, an int, a bool or a
    ``Fraction`` subclass, is converted with ``Fraction``."""

    __slots__ = ("cap", "coeffs")

    def __init__(self, cap: int, coeffs: Mapping[int, Fraction | int] | None = None) -> None:
        clean = {e: c if type(c) is Fraction else Fraction(c) for e, c in (coeffs or {}).items() if c != 0}
        if max(clean, default=cap) > cap:
            raise ValueError("coefficient above the truncation cap")
        super().__init__(cap, MappingProxyType(clean))

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

    def truncate(self, new_cap: int) -> "ArtinOp":
        """Lower the truncation cap, dropping coefficients above it; ``self``
        when the cap does not fall, as nothing is dropped."""
        if new_cap >= self.cap:
            return self
        return ArtinOp(new_cap, {e: c for e, c in self.coeffs.items() if e <= new_cap})

    # -- ring structure -----------------------------------------------

    def __add__(self, other: "ArtinOp") -> "ArtinOp":
        cap = min(self.cap, other.cap)
        out = {e: c for e, c in self.coeffs.items() if e <= cap}
        for e, c in other.coeffs.items():
            if e <= cap:
                out[e] = out.get(e, 0) + c
        return ArtinOp(cap, out)

    def __sub__(self, other: "ArtinOp") -> "ArtinOp":
        return self + other.scale(-1)

    def scale(self, c: Fraction | int) -> "ArtinOp":
        c = Fraction(c)
        return ArtinOp(self.cap, {e: c * v for e, v in self.coeffs.items()})

    def __neg__(self) -> "ArtinOp":
        return self.scale(-1)

    def _lead_bound(self) -> int:
        """The lead, or cap + 1 for the zero operator: no term below it
        can be nonzero."""
        return self.lead if self.coeffs else self.cap + 1

    def _product_cap(self, cap: int, lead: int) -> int:
        """Cap of the product with a factor of this cap and lead."""
        return min(self.cap + lead, cap + self._lead_bound())

    def __mul__(self, other: "ArtinOp") -> "ArtinOp":
        """Cauchy product, exact through min(self.cap + other.lead,
        other.cap + self.lead), a zero operator's lead counting as cap + 1."""
        cap = self._product_cap(other.cap, other._lead_bound())
        return ArtinOp(cap, convolve(self.coeffs, other.coeffs, cap))

    def recip(self) -> "ArtinOp":
        """Multiplicative inverse: ``self ** -1``."""
        return self ** -1

    def __pow__(self, n: int) -> "ArtinOp":
        """Integer power, negative n included, in one O(cap^2) pass.

        Write self = c0 D^lead g with g = 1 + g_1 D + g_2 D^2 + ...  The
        coefficients of g^n follow J.C.P. Miller's recurrence (Knuth,
        TAOCP Vol. 2, 4.7): b_0 = 1 and

            m b_m = sum_{k=1..m} ((n+1) k - m) g_k b_{m-k},

        which at n = -1 is recursive division.  Then
        self^n = c0^n D^(n lead) g^n, known through n*lead + (cap - lead).

        The recurrence runs on integers: g_k = v_k / v_0 from the lifted
        coefficients, and b_j = beta_j / L over one running common
        denominator L.  Each b_m is reduced once, L grows to the lcm with
        its denominator, and the stored beta are rescaled only when it
        grows.  (A fixed scale such as b_m m! v_0^m instead grows the
        integers with m: at cap 150 the reciprocal of J took seconds, not
        milliseconds.)
        """
        if self.is_zero():
            if n < 0:
                raise ValueError("the zero operator has no reciprocal")
            return identity_op(self.cap) if n == 0 else ArtinOp(n * (self.cap + 1) - 1, {})
        if n == 1:
            return self
        lead = self.lead
        terms = self.cap - lead
        if n == 0:
            return identity_op(terms)
        _, nums = _lift(self.coeffs)
        c0, v0 = self.coeffs[lead], nums.pop(lead)
        g = sorted((e - lead, v) for e, v in nums.items())  # g_k = v_k / v_0
        b = [Fraction(1)]
        beta, L = [1], 1  # b_m = beta[m] / L, L the lcm of their denominators
        for m in range(1, terms + 1):
            acc = 0
            for k, gk in g:
                if k > m:
                    break
                w = (n + 1) * k - m
                if w:
                    acc += w * gk * beta[m - k]
            bm = Fraction(acc, v0 * L * m)
            q = bm.denominator
            if L % q:
                grow = q // gcd(L, q)
                beta = [v * grow for v in beta]
                L *= grow
            beta.append(bm.numerator * (L // q))
            b.append(bm)
        scale = c0**n
        base = n * lead
        return ArtinOp(base + terms, {base + m: scale * bm for m, bm in enumerate(b)})

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
        # the inner truncation limits exactness to inner.cap.  Outer terms
        # above the top one are exact zeros, so no power past it is built.
        cap = min((self.cap + 1) * inner.lead - 1, inner.cap)
        out: dict[int, Fraction] = {}
        for k, power in zip(range(max(self.coeffs) + 1), powers(inner.coeffs, cap)):
            ck = self.coeffs.get(k)
            if ck is not None:
                for e, v in power.items():
                    out[e] = out.get(e, 0) + ck * v
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
        psi_powers = islice(powers(psi.coeffs, psi.cap), 1, self.cap + 1)
        return ArtinOp(self.cap, {n: p.get(n - 1, Fraction(0)) / n for n, p in enumerate(psi_powers, 1)})

    def deriv_wrt_d(self) -> "ArtinOp":
        """Formal derivative with respect to the symbol D (used by the
        transfer formula)."""
        return ArtinOp(self.cap - 1, {e - 1: e * c for e, c in self.coeffs.items() if e != 0})

    # -- action on logarithmic series ---------------------------------

    def _series_cap(self, p: LogSeries) -> int:
        """Cap of the product with p read as an operator, lead -top(p)."""
        if p.order is OrderTag.ZERO and self._lead_bound() < 0:
            raise ValueError("negative powers of D do not act on polynomial-order series")
        return self._product_cap(-p.floor, -max(p.coeffs, default=p.floor - 1))

    def apply(self, p: LogSeries) -> LogSeries:
        """Act on a logarithmic series: the product with p read as the
        operator sum_d c_d rf(d) D^(-d), read back in the lam basis."""
        cap = self._series_cap(p)
        terms = {-d: c * roman_factorial(d) for d, c in p.coeffs.items()}
        # negative degrees, the exponents above 0, do not exist at polynomial order
        prod = convolve(self.coeffs, terms, cap if p.order is OrderTag.GENERIC else min(cap, 0))
        return LogSeries(p.order, -cap, {-e: c / roman_factorial(-e) for e, c in prod.items()})

    def pair(self, p: LogSeries) -> Fraction:
        """<alpha| A p>: the degree-0 term of ``apply(p)``,
        sum_d A_d c_d rf(d), under the same cap."""
        if self._series_cap(p) < 0:
            raise ValueError("floor > 0: the lam_0 coefficient was truncated away")
        a = self.coeffs
        terms = (a[d] * c * roman_factorial(d) for d, c in p.coeffs.items() if d in a)
        return sum(terms, Fraction(0))


def _lift(m: Mapping[int, Fraction | int]) -> tuple[int, dict[int, int]]:
    """The pair (den, nums) with m[e] == nums[e] / den for every e, den
    the lcm of the denominators of m."""
    den = 1
    # pairwise, not lcm(*generator): under CPython 3.11 that star call grew
    # a long run's resident memory by several MB, in blocks that only a
    # full garbage collection released
    for c in m.values():
        den = lcm(den, c.denominator)
    return den, {e: c.numerator * (den // c.denominator) for e, c in m.items()}


def convolve(
    a: Mapping[int, Fraction | int], b: Mapping[int, Fraction | int], cap: int
) -> dict[int, Fraction]:
    """Truncated Cauchy product of two coefficient maps: exponents above
    ``cap`` are dropped, as are zero coefficients.  Each map is lifted
    once over its common denominator, the products are summed as plain
    ints, and each output coefficient is reduced once."""
    da, na = _lift(a)
    db, nb = _lift(b)
    nb = sorted(nb.items())
    out: dict[int, int] = {}
    for e1, n1 in na.items():
        top = cap - e1
        for e2, n2 in nb:
            if e2 > top:
                break
            e = e1 + e2
            out[e] = out.get(e, 0) + n1 * n2
    den = da * db
    return {e: Fraction(v, den) for e, v in out.items() if v}


def powers(u: Mapping[int, Fraction | int], cap: int) -> Iterator[dict[int, Fraction]]:
    """u**0, u**1, u**2, ... through exponent ``cap`` >= 0, one ``convolve``
    each; stops after the first zero power."""
    power = {0: Fraction(1)}
    while True:
        yield power
        if not power:
            return
        power = convolve(power, u, cap)


# -- constructor catalog ---------------------------------------------


def identity_op(cap: int) -> ArtinOp:
    return ArtinOp(cap, {0: Fraction(1)})


def monomial_op(exponent: int, cap: int) -> ArtinOp:
    """D**exponent."""
    return ArtinOp(cap, {exponent: Fraction(1)})


def shift_op(z: Fraction | int, cap: int) -> ArtinOp:
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


def weierstrass(sigma: Fraction | int, cap: int) -> ArtinOp:
    """The Weierstrass operator e^{sigma D^2} = sum_k sigma^k D^{2k} / k!."""
    sigma = Fraction(sigma)
    return ArtinOp(cap, {2 * k: sigma**k / factorial(k) for k in range(cap // 2 + 1)})


def one_minus_d_pow(r: Fraction | int, cap: int) -> ArtinOp:
    """(1 - D)**r for rational r: the binomial series, whose successive
    coefficients differ by the factor (k - r)/(k + 1)."""
    r = Fraction(r)
    out: dict[int, Fraction] = {}
    c = Fraction(1)
    for k in range(cap + 1):
        if c == 0:
            break
        out[k] = c
        c = c * (k - r) / (k + 1)
    return ArtinOp(cap, out)
