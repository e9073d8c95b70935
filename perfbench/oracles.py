"""Independent routes for checking logalg outputs.

Each oracle reaches the expected value by a route that shares no code
with the call it checks: the Bernoulli numbers come from the stdlib
recurrence sum_k C(m+1, k) B_k = 0, Roman factorials and the shift
formula are written out here, Hermite members come from the closed form,
and Laguerre members are played off against the other Laguerre route
(closed form against the Sheffer operator route, and back).
Coefficient maps are plain dicts degree -> Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from logalg.classics import hermite_closed_form, laguerre_member, laguerre_sheffer_seq
from logalg.series import OrderTag


def rf(n: int) -> Fraction:
    """Roman factorial: n! for n >= 0, (-1)^(-n-1)/(-n-1)! below."""
    if n >= 0:
        return Fraction(math.factorial(n))
    m = -n - 1
    return Fraction(-1 if m % 2 else 1, math.factorial(m))


def rc(a: int, b: int) -> Fraction:
    """Roman coefficient rf(a) / (rf(b) rf(a-b))."""
    return rf(a) / (rf(b) * rf(a - b))


@lru_cache(maxsize=None)
def bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """B_0..B_n with B_1 = -1/2, from sum_{k<=m} C(m+1, k) B_k = 0."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        out.append(-sum(math.comb(m + 1, k) * out[k] for k in range(m)) / (m + 1))
    return tuple(out)


def _clip(order: OrderTag, coeffs: dict[int, Fraction], floor: int) -> dict[int, Fraction]:
    low = max(floor, 0) if order is OrderTag.ZERO else floor
    return {d: c for d, c in coeffs.items() if d >= low and c != 0}


def bernoulli_member(order: OrderTag, a: int, floor: int) -> dict[int, Fraction]:
    """Appell form B_a = sum_b rc(a, b) B_b lam_{a-b}."""
    if order is OrderTag.ZERO and a < 0:
        return {}
    nums = bernoulli_numbers(max(a - floor, 0))
    return _clip(order, {a - b: rc(a, b) * nums[b] for b in range(a - floor + 1)}, floor)


def shift(order: OrderTag, coeffs: dict[int, Fraction], floor: int, z: Fraction) -> dict[int, Fraction]:
    """E^z lam_a = sum_k rc(a, k) z^k lam_{a-k}, kept down to the floor."""
    out: dict[int, Fraction] = {}
    for a, c in coeffs.items():
        for k in range(a - floor + 1):
            out[a - k] = out.get(a - k, Fraction(0)) + c * rc(a, k) * z**k
    return _clip(order, out, floor)


def hermite_member(order: OrderTag, a: int, floor: int, sigma: Fraction) -> dict[int, Fraction]:
    return dict(hermite_closed_form(order, a, floor, sigma).coeffs)


def laguerre_sheffer_member(order: OrderTag, a: int, floor: int, b: Fraction) -> dict[int, Fraction]:
    """The Sheffer-route member, from the closed form: (-1)^a laguerre_member."""
    sign = -1 if a % 2 else 1
    return {d: sign * c for d, c in laguerre_member(order, a, b, floor).coeffs.items()}


@lru_cache(maxsize=None)
def _sheffer(b: Fraction):
    return laguerre_sheffer_seq(b)


def laguerre_closed_member(order: OrderTag, a: int, floor: int, b: Fraction) -> dict[int, Fraction]:
    """The closed-form member, from the Sheffer operator route."""
    sign = -1 if a % 2 else 1
    return {d: sign * c for d, c in _sheffer(b).member(order, a, floor).coeffs.items()}


def harmonic_member(order: OrderTag, a: int, floor: int) -> dict[int, Fraction]:
    return _clip(order, {a: Fraction(1)}, floor)


@lru_cache(maxsize=None)
def member(seq: str, order: OrderTag, a: int, floor: int, *, closed_laguerre: bool = False) -> dict[int, Fraction]:
    """Oracle member of a named sequence ('bernoulli', 'hermite:<sigma>',
    'laguerre:<b>', 'harmonic').  Laguerre means the Sheffer-route sequence
    unless closed_laguerre asks for the closed form that emit_table uses."""
    name, _, param = seq.partition(":")
    if name == "bernoulli":
        return bernoulli_member(order, a, floor)
    if name == "hermite":
        return hermite_member(order, a, floor, Fraction(param))
    if name == "laguerre":
        if closed_laguerre:
            return laguerre_closed_member(order, a, floor, Fraction(param))
        return laguerre_sheffer_member(order, a, floor, Fraction(param))
    if name == "harmonic":
        return harmonic_member(order, a, floor)
    raise ValueError(f"no oracle for {seq!r}")


def clear_caches() -> None:
    """Drop the cached oracle members, so the checks of one window do not
    add to the memory of the next.  The Bernoulli numbers and the six
    Sheffer-route sequences stay: both are bounded by the largest depth."""
    member.cache_clear()


def same_series(series, order: OrderTag, floor: int, expected: dict[int, Fraction]) -> bool:
    """A LogSeries equals the expected map on [floor, inf), with that floor."""
    low = max(floor, 0) if order is OrderTag.ZERO else floor
    if series.order is not order or series.floor != low:
        return False
    return dict(series.coeffs) == {d: c for d, c in expected.items() if d >= low and c != 0}


def lam_value(level: int, n: int, x: float) -> float:
    """Harmonic logarithm at iterated-log level 0 or 1."""
    if n < 0:
        return 0.0 if level == 0 else x**n
    if level == 0:
        return x**n
    return x**n * (math.log(x) - sum(1.0 / j for j in range(1, n + 1)))


def series_value(coeffs: dict[int, Fraction], level: int, x: float) -> tuple[float, float]:
    """(value, scale) where scale bounds the size of the summed terms."""
    terms = [float(c) * lam_value(level, d, x) for d, c in coeffs.items()]
    return math.fsum(terms), math.fsum(abs(t) for t in terms)
