"""Independent brute-force oracles shared across test modules."""

from fractions import Fraction
from math import comb

from logalg.operators import ArtinOp
from logalg.roman import roman_coeff
from logalg.series import LogSeries


def classical_bernoulli(n):
    """B_0..B_n by the classical recurrence sum_k C(n+1,k) B_k = 0."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        out.append(-sum(Fraction(comb(m + 1, k)) * out[k] for k in range(m)) / (m + 1))
    return out


def comp_inverse_by_compose(f):
    """Compositional inverse of a delta operator, one coefficient at a
    time: with g known below degree m, the degree-m coefficient of f(g)
    is linear in g_m.  The direct solve that Lagrange inversion replaced."""
    f1 = f.coeffs[1]
    g = {1: 1 / f1}
    for m in range(2, f.cap + 1):
        comp = f.compose(ArtinOp(m, g))
        g[m] = -comp.coeffs.get(m, Fraction(0)) / f1
    return ArtinOp(f.cap, g)


def shift_by_roman_coeff(p, z):
    """E^z p as the direct sum E^z lam_a = sum_k rc(a,k) z^k lam_{a-k},
    each Roman coefficient computed from scratch."""
    z = Fraction(z)
    if z == 0:
        return p
    out = {}
    for a, c in p.coeffs.items():
        for k in range(a - p.floor + 1):
            out[a - k] = out.get(a - k, Fraction(0)) + c * roman_coeff(a, k) * z**k
    return LogSeries(p.order, p.floor, out)
