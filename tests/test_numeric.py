import math
from fractions import Fraction

import pytest

from logalg.numeric import eval_difference, eval_lambda, eval_series, finite_diff_check
from logalg.series import LogSeries, OrderTag

F = Fraction
G, Z = OrderTag.GENERIC, OrderTag.ZERO


def test_level_zero_is_monomial():
    assert eval_lambda(0, 3, 2.0) == 8.0
    assert eval_lambda(0, 0, 5.0) == 1.0
    assert eval_lambda(0, -2, 5.0) == 0.0


def test_level_one_values():
    # lam_2 at level 1: x^2 (log x - 3/2)
    assert eval_lambda(1, 2, 10.0) == pytest.approx(100.0 * (math.log(10.0) - 1.5))
    assert eval_lambda(1, 0, 10.0) == pytest.approx(math.log(10.0))
    assert eval_lambda(1, -1, 10.0) == pytest.approx(0.1)
    assert eval_lambda(1, -3, 2.0) == pytest.approx(0.125)


def test_eval_lambda_rejects_bad_input():
    with pytest.raises(ValueError):
        eval_lambda(2, 1, 1.0)
    with pytest.raises(ValueError):
        eval_lambda(0, 1, -1.0)


def test_finite_diff_grid():
    h = 1e-4
    for level in (0, 1):
        for n in range(-4, 5):
            for x in (2.0, 5.0, 10.0):
                assert finite_diff_check(level, n, x, h) < 100 * h * h


def test_finite_diff_catches_wrong_derivative():
    # sanity: the check is not vacuous; a coarse step shows curvature
    assert finite_diff_check(1, 3, 2.0, 0.5) > 1e-3


def test_eval_series_polynomial_is_exact():
    p = LogSeries(Z, 0, {2: F(1), 1: F(-1), 0: F(1, 6)})  # B_2(x)
    value, _ = eval_series(p, 0, 4.0)
    assert value == pytest.approx(16.0 - 4.0 + 1.0 / 6.0, rel=1e-14)


def test_eval_series_level_one_residual():
    # 1/x + 1/(2x^2) + 1/(6x^3) at x = 10
    p = LogSeries(G, -3, {-1: F(1), -2: F(1, 2), -3: F(1, 6)})
    value, bound = eval_series(p, 1, 10.0)
    assert value == pytest.approx(0.1 + 0.005 + 1.0 / 6000.0, rel=1e-14)
    assert bound > 0


def test_eval_series_rejects_mismatched_level():
    p = LogSeries(Z, 0, {1: F(1)})
    with pytest.raises(ValueError):
        eval_series(p, 1, 2.0)
    with pytest.raises(ValueError):
        eval_series(LogSeries(G, -2, {0: F(1)}), 1, 0.0)
    # level 0 would drop the negative degrees: lam_1 + 5 lam_-1 at 2 read 2
    with pytest.raises(ValueError):
        eval_series(LogSeries(G, -1, {1: F(1), -1: F(5)}), 0, 2.0)


def test_eval_series_matches_pointwise_sum():
    p = LogSeries(G, -4, {2: F(1, 3), 0: F(-2), -3: F(5, 7)})
    for x in (2.0, 7.5):
        want = sum(float(c) * eval_lambda(1, d, x) for d, c in p.coeffs.items())
        got, _ = eval_series(p, 1, x)
        assert got == pytest.approx(want, rel=1e-14)


# -- eval_difference ------------------------------------------------------


def test_eval_difference_of_lam_1_is_x_log_x_minus_x():
    # the rational part X - x is exact, so this holds bit for bit
    for x, X in [(F(1, 3), F(13, 3)), (F(10), F(100)), (F(9999999997, 9999999999), F(1010000000, 9999999999) + 100)]:
        Xf, xf = float(X), float(x)
        want = Xf * math.log(Xf) - xf * math.log(xf) - float(X - x)
        assert eval_difference(LogSeries(G, 1, {1: F(1)}), x, X) == want


def test_eval_difference_at_degrees_up_to_0_is_two_eval_lambda_calls():
    for d in range(-6, 1):
        for x, X in [(F(1, 7), F(22, 7)), (2.5, 40.0)]:
            want = eval_lambda(1, d, float(X)) - eval_lambda(1, d, float(x))
            assert eval_difference(LogSeries(G, d, {d: F(1)}), x, X) == want


def test_eval_difference_at_degree_2_against_lam_2():
    # lam_2 = t^2 (log t - 3/2)
    x, X = F(3, 2), F(23, 2)
    want = float(X) ** 2 * (math.log(X) - 1.5) - float(x) ** 2 * (math.log(x) - 1.5)
    assert eval_difference(LogSeries(G, 2, {2: F(1)}), x, X) == pytest.approx(want, rel=1e-14)


def test_eval_difference_adds_from_the_top_degree_down():
    # at x = 1, X = 2 the terms are 1e17 log 2 (ulp 8), then 3 and 3:
    # added after the large term each 3 is lost, added first their 6 is not
    p = LogSeries(G, -2, {0: F(10**17), -1: F(-6), -2: F(-4)})
    terms = [float(c) * (eval_lambda(1, d, 2.0) - eval_lambda(1, d, 1.0)) for d, c in sorted(p.coeffs.items())]
    got = eval_difference(p, F(1), F(2))
    assert got == terms[2] + terms[1] + terms[0] == terms[2]
    assert got != terms[0] + terms[1] + terms[2]


def test_eval_difference_rejects_terms_beyond_float_range():
    with pytest.raises(OverflowError):
        eval_difference(LogSeries(G, -2, {-2: F(10**300)}), F(1, 10**5), F(2))  # 1e300 * 1e10
    with pytest.raises(OverflowError):  # inf - inf would be nan
        eval_difference(LogSeries(G, -3, {-2: F(10**300), -3: F(-(10**300))}), F(1, 10**5), F(2))
    with pytest.raises(OverflowError):  # x**-d itself
        eval_difference(LogSeries(G, -80, {-80: F(1)}), F(1, 10**5), F(2))


def test_eval_difference_rejects_polynomial_order_and_bad_points():
    with pytest.raises(ValueError):
        eval_difference(LogSeries(Z, 0, {1: F(1)}), F(1), F(2))
    with pytest.raises(ValueError):
        eval_difference(LogSeries(G, -1, {-1: F(1)}), F(0), F(2))


def test_eval_series_rejects_terms_beyond_float_range():
    for level, p, x in [
        (0, LogSeries(Z, 0, {2: F(10**300)}), 1e100),
        (0, LogSeries(Z, 0, {2: F(10**307), 0: F(10**308)}), 10.0),
        (1, LogSeries(G, 0, {2: F(10**300), 1: F(-(10**300))}), 1e100),  # fsum's -inf + inf
    ]:
        with pytest.raises(OverflowError):
            eval_series(p, level, x)


def test_eval_series_reads_a_finite_value_whose_power_alone_overflows():
    # 1e100**4 and 1e-100**-4 are beyond float range; each term is 1e100
    exact = float(F(1, 10**300) * F(1e100) ** 4)
    for level, p, x, factor in [
        (0, LogSeries(Z, 4, {4: F(1, 10**300)}), 1e100, 1.0),
        (1, LogSeries(G, 4, {4: F(1, 10**300)}), 1e100, math.log(1e100) - 25 / 12),
        (1, LogSeries(G, -4, {-4: F(1, 10**300)}), 1e-100, 1.0),
    ]:
        value, _ = eval_series(p, level, x)
        assert value == pytest.approx(exact * factor, rel=1e-15)
    # the coefficient alone beyond float range: 1e400 * 1e-300**1
    value, bound = eval_series(LogSeries(Z, 1, {1: F(10**400)}), 0, 1e-300)
    assert value == pytest.approx(1e100, rel=1e-15) and bound is None


def test_eval_series_trunc_bound_beyond_float_range_reads_inf():
    # the value 1e8 * 1e100**3 = 1e308 is finite; the bound, 1e308 * log(1e100), is not
    value, bound = eval_series(LogSeries(Z, 3, {3: F(10**8)}), 0, 1e100)
    assert value == pytest.approx(1e308, rel=1e-15) and bound == math.inf
    _, bound = eval_series(LogSeries(Z, 4, {4: F(1, 10**300)}), 0, 1e100)
    assert bound == pytest.approx(1e100 * math.log(1e100), rel=1e-15)
