"""Differential oracles from sympy: the classical polynomial families at
order (0), where lam_n(x) = x^n, so a member's coefficients are the
polynomial's.  sympy shares no code with the operator kernel."""

from fractions import Fraction
from math import factorial

import pytest

from logalg.classics import bernoulli_seq, hermite_seq, laguerre_member, laguerre_sheffer_seq
from logalg.series import OrderTag

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
Z = OrderTag.ZERO
GRADES = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3)]
DEGREES = range(10)


def poly_coeffs(expr):
    """{degree: Fraction} of a polynomial in x with rational coefficients."""
    poly = sympy.Poly(sympy.expand(expr), X)
    return {m: Fraction(int(c.p), int(c.q)) for (m,), c in zip(poly.monoms(), poly.coeffs()) if c}


def n_factorial_assoc_laguerre(n, b):
    return factorial(n) * sympy.assoc_laguerre(n, sympy.Rational(b.numerator, b.denominator), X)


@pytest.mark.parametrize("n", DEGREES)
def test_bernoulli_matches_sympy(n):
    assert bernoulli_seq().member(Z, n, 0).coeffs == poly_coeffs(sympy.bernoulli(n, X))


@pytest.mark.parametrize("n", DEGREES)
def test_hermite_half_matches_probabilists_hermite(n):
    # sigma = 1/2: e^{D^2/2} is the probabilists' convention He_n
    got = hermite_seq(Fraction(1, 2)).member(Z, n, 0).coeffs
    assert got == poly_coeffs(sympy.hermite_prob(n, X))


@pytest.mark.parametrize("b", GRADES)
@pytest.mark.parametrize("n", DEGREES)
def test_laguerre_closed_form_matches_sympy(n, b):
    want = poly_coeffs(n_factorial_assoc_laguerre(n, b))
    assert laguerre_member(Z, n, b, 0).coeffs == want


@pytest.mark.parametrize("b", GRADES)
@pytest.mark.parametrize("n", DEGREES)
def test_laguerre_sheffer_route_matches_sympy(n, b):
    # the sign-normalised delta operator contributes (-1)^n
    want = poly_coeffs((-1) ** n * n_factorial_assoc_laguerre(n, b))
    assert laguerre_sheffer_seq(b).member(Z, n, 0).coeffs == want
