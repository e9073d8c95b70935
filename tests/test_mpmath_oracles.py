"""Differential oracles from mpmath for the numeric Euler-MacLaurin
instances: 1/x + ... + 1/(x+n) = psi(x+n+1) - psi(x) and
log(x (x+1) ... (x+n)) = log Gamma(x+n+1) - log Gamma(x), at 50 digits.
mpmath shares neither code nor float summation order with ``sum``."""

from fractions import Fraction

import pytest

from logalg.eulermac import harmonic_identity, stirling_identity

mpmath = pytest.importorskip("mpmath")

XS = [Fraction(1, 2), Fraction(1), Fraction(10), Fraction(37, 3)]
NS = [0, 9, 89]
ORDERS = range(9)


def mpf(q):
    return mpmath.mpf(q.numerator) / q.denominator


def assert_err_is_distance_to(truth, rhs, err):
    # abs err is |float lhs - rhs|; a float lhs within 1e-13 of the truth
    # puts it within 1e-12 of |rhs - truth| on these inputs
    assert abs(err - float(abs(mpmath.mpf(rhs) - truth))) <= 1e-12


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("x", XS, ids=str)
def test_harmonic_identity_matches_digamma(x, n):
    with mpmath.workdps(50):
        truth = mpmath.digamma(mpf(x) + n + 1) - mpmath.digamma(mpf(x))
        for order in ORDERS:
            lhs, rhs, err = harmonic_identity(x, n, order)
            assert abs(mpf(lhs) - truth) <= mpmath.mpf(10) ** -45 * abs(truth)  # exact
            assert abs(float(lhs) - truth) <= 1e-13 * abs(truth)
            assert_err_is_distance_to(truth, rhs, err)


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("x", XS, ids=str)
def test_stirling_identity_matches_loggamma(x, n):
    with mpmath.workdps(50):
        truth = mpmath.loggamma(mpf(x) + n + 1) - mpmath.loggamma(mpf(x))
        for order in ORDERS:
            lhs, rhs, err = stirling_identity(x, n, order)
            assert abs(lhs - truth) <= 1e-13 * abs(truth)
            assert_err_is_distance_to(truth, rhs, err)
