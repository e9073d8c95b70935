import json
from fractions import Fraction

import pytest

from logalg.eulermac import (
    EMReport,
    em_apply,
    em_operator_residual,
    first_omitted_term_bound,
    harmonic_identity,
    lambda_sum_closed_form,
    stirling_identity,
)
from logalg.series import LogSeries, OrderTag, agrees, harmonic

F = Fraction
G, Z = OrderTag.GENERIC, OrderTag.ZERO


# -- operator identity --------------------------------------------------


@pytest.mark.parametrize("K", range(1, 13))
def test_em_residual_vanishes(K):
    report = em_operator_residual(K)
    assert report.symbolic_ok
    assert report.residual_lead is None or report.residual_lead > K


def test_em_residual_negative_control():
    # dropping the B_1 Delta term must leave a residual at D^1
    report = em_operator_residual(6, omit_linear_term=True)
    assert not report.symbolic_ok
    assert report.residual_lead == 1


def test_em_residual_rejects_negative_order():
    with pytest.raises(ValueError):
        em_operator_residual(-1)


def test_em_report_json():
    obj = json.loads(em_operator_residual(4).to_json())
    assert obj == {
        "truncation_order": 4,
        "residual_lead": None,
        "symbolic_ok": True,
    }


# -- telescoping lambda-sum ---------------------------------------------


@pytest.mark.parametrize("order", [G, Z])
@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_lambda_sum_grid(order, k):
    for a in range(-3, 4):
        direct, closed = lambda_sum_closed_form(order, a, k, a - 6)
        assert direct == closed


def test_lambda_sum_classical_instance():
    # x^2 + (x+1)^2 = [B_3(x+2) - B_3(x)] / 3 at polynomial order
    direct, closed = lambda_sum_closed_form(Z, 2, 1, 0)
    assert direct.coeffs == {2: F(2), 1: F(2), 0: F(1)}
    assert closed == direct


def test_lambda_sum_rejects_negative_count():
    with pytest.raises(ValueError):
        lambda_sum_closed_form(G, 1, -1, -4)


# -- series-level summation ---------------------------------------------


def test_em_apply_vanishes_at_full_depth():
    p = LogSeries(G, -6, {2: F(1), 1: F(-1, 2), -1: F(3), -4: F(1, 7)})
    diff = em_apply(p, 5, 10)
    assert diff.is_zero()


def test_em_apply_truncation_shrinks_with_order():
    lam = harmonic(G, -2, -9)
    for K in (2, 4, 6):
        diff = em_apply(lam, 3, K)
        assert diff.is_zero()
        assert diff.floor >= -2 - K + 1


def test_em_apply_rejects_polynomial_order():
    with pytest.raises(ValueError):
        em_apply(harmonic(Z, 2, 0), 3, 4)


# -- numeric instances --------------------------------------------------


def test_harmonic_identity_accuracy():
    lhs, rhs, err = harmonic_identity(10, 89, 6)
    assert lhs == sum(F(1, 10 + j) for j in range(90))
    assert err < 1e-8
    assert err <= first_omitted_term_bound(10.0, 89, 6)


def test_harmonic_identity_error_decreases_in_x():
    errs = [harmonic_identity(x, 89, 6)[2] for x in (2, 5, 10, 20)]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_stirling_identity_accuracy():
    lhs, rhs, err = stirling_identity(10, 89, 6)
    assert err / abs(lhs) < 1e-9
    assert err <= first_omitted_term_bound(10.0, 89, 6, log_case=True)


def test_identities_reject_nonpositive_x():
    with pytest.raises(ValueError):
        harmonic_identity(0, 5, 4)
    with pytest.raises(ValueError):
        stirling_identity(-1, 5, 4)


def test_first_omitted_bound_skips_odd_bernoulli_zeros():
    # cutoffs 5 and 6 share the same first nonzero omitted term B_8
    b5 = first_omitted_term_bound(10.0, 20, 6)
    b6 = first_omitted_term_bound(10.0, 20, 7)
    assert b5 == b6
