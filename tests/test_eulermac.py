import json
import random
from fractions import Fraction
from math import factorial

import pytest

from logalg import eulermac
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
from oracles import classical_bernoulli, em_apply_by_terms

F = Fraction
G, Z = OrderTag.GENERIC, OrderTag.ZERO
B2_ERROR = F(1, 7)


def perturb_b2(monkeypatch):
    """B_2 off by B2_ERROR wherever eulermac reads a Bernoulli number."""
    true_number = eulermac.bernoulli_number
    monkeypatch.setattr(
        eulermac, "bernoulli_number", lambda k: true_number(k) + (B2_ERROR if k == 2 else 0)
    )


@pytest.fixture
def wrong_b2(monkeypatch):
    perturb_b2(monkeypatch)


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


def test_em_residual_omitting_the_linear_term_at_order_zero():
    # W_0 = D**-1 has no D^0 term to drop, so the residual still vanishes at cap 0
    assert em_operator_residual(0, omit_linear_term=True) == EMReport(0, None, True)


@pytest.mark.parametrize("K", range(2, 13))
def test_em_residual_detects_wrong_b2(wrong_b2, K):
    # the residual is -(B2_ERROR / 2) Delta D, which starts at D^2
    report = em_operator_residual(K)
    assert not report.symbolic_ok
    assert report.residual_lead == 2


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


@pytest.mark.parametrize("K", range(3, 11))
def test_em_apply_detects_wrong_b2(wrong_b2, K):
    # the error (B2_ERROR/2)(E^4 - I) D lam_2 reaches degree 0, which the
    # difference keeps once its floor 3 - K is at most 0
    assert not em_apply(harmonic(G, 2, -4), 3, K).is_zero()


@pytest.mark.parametrize("perturbed", [False, True])
def test_em_apply_matches_term_by_term_oracle(monkeypatch, perturbed):
    bernoulli = classical_bernoulli(14)
    if perturbed:
        perturb_b2(monkeypatch)
        bernoulli[2] += B2_ERROR
    rng = random.Random(1989)
    shallow = nonzero = 0
    for _ in range(200):
        top = rng.randint(-6, 6)
        floor = top - rng.randint(0, 9)
        coeffs = {d: F(rng.randint(-6, 6), rng.randint(1, 6)) for d in range(floor, top)}
        p = LogSeries(G, floor, {**coeffs, top: F(rng.randint(1, 6))})
        n, K = rng.randint(0, 8), rng.randint(0, 14)
        got = em_apply(p, n, K)
        want = em_apply_by_terms(p, n, [bernoulli[k] / factorial(k) for k in range(K + 1)])
        assert (got.floor, got.coeffs) == (want.floor, want.coeffs)
        shallow += K < top - floor
        nonzero += not got.is_zero()
    assert shallow > 20
    assert (nonzero > 20) if perturbed else (nonzero == 0)


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
