import math
import random
from fractions import Fraction
from math import factorial

import pytest

from logalg import classics, eulermac
from logalg.cli import main
from logalg.eulermac import (
    EMReport,
    em_apply,
    em_operator_residual,
    harmonic_identity,
    lambda_sum_closed_form,
    stirling_identity,
)
from logalg.operators import ArtinOp
from logalg.series import LogSeries, OrderTag, exact_rational, harmonic
from oracles import (
    agrees,
    assert_series_sound,
    classical_bernoulli,
    em_apply_by_terms,
    first_omitted_term_bound_by_cases,
    harmonic_rhs_by_derivatives,
    shift_sum_by_shifts,
    stirling_rhs_by_derivatives,
)

F = Fraction
G, Z = OrderTag.GENERIC, OrderTag.ZERO
B2_ERROR = F(1, 7)


def perturb_b2(monkeypatch):
    """B_2 off by B2_ERROR in the J**-1 that eulermac reads its weights
    from: J**-1's D^2 coefficient B_2/2! moves by B2_ERROR/2!."""
    true_j = eulermac.bernoulli_j

    def wrong_j(cap):
        j_inv = true_j(cap).recip().coeffs.items()
        return ArtinOp(cap, {e: c + (B2_ERROR / 2 if e == 2 else 0) for e, c in j_inv}).recip()

    monkeypatch.setattr(eulermac, "bernoulli_j", wrong_j)


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


@pytest.mark.parametrize("omit", [False, True])
def test_weight_op_is_bernoulli_over_factorial_by_two_routes(omit):
    # one reciprocal of J against the member route B_k = B_k(0) and the
    # classical recurrence
    classical = classical_bernoulli(40)
    for K in range(41):
        keep = [k for k in range(K + 1) if k != 1 or not omit]
        by_members = {k - 1: classics.bernoulli_number(k) / factorial(k) for k in keep}
        by_recurrence = {k - 1: classical[k] / factorial(k) for k in keep}
        w = eulermac._weight_op(K, omit)
        assert w.cap == K - 1
        assert w.coeffs == {d: c for d, c in by_members.items() if c}
        assert w.coeffs == {d: c for d, c in by_recurrence.items() if c}


def test_em_residual_rejects_negative_order():
    with pytest.raises(ValueError):
        em_operator_residual(-1)


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


# -- floor soundness: floor f against f - 25 ------------------------------


@pytest.mark.parametrize("order", [G, Z])
def test_floor_soundness_of_lambda_sum_closed_form(monkeypatch, order):
    for a, k, floor in [(-2, 1, -4), (1, 3, -1), (3, 2, 1), (4, 1, 2)]:
        sides = []
        for f in (floor, floor - 25):
            # a fresh Bernoulli sequence: neither side reuses the other's member
            monkeypatch.setattr(classics, "_BERNOULLI", classics.bernoulli_seq())
            sides.append(lambda_sum_closed_form(order, a, k, f))
        for small, big in zip(*sides):
            assert_series_sound(small, big)


@pytest.mark.parametrize("perturbed", [False, True])
def test_floor_soundness_of_em_apply(monkeypatch, perturbed):
    # with B_2 perturbed the difference is nonzero, so the two floors
    # compare real coefficients
    if perturbed:
        perturb_b2(monkeypatch)
    rng = random.Random(1602)
    nonzero = 0
    for top, floor, n in [(3, -2, 2), (0, -4, 1), (-2, -5, 3)]:
        coeffs = {d: F(rng.randint(-5, 5), rng.randint(1, 4)) for d in range(floor - 25, top)}
        big_p = LogSeries(G, floor - 25, {**coeffs, top: F(1)})
        p = big_p.truncate(floor)
        for K in (3, 8):
            small = em_apply(p, n, K)
            assert_series_sound(small, em_apply(big_p, n, K))
            nonzero += not small.is_zero()
    assert bool(nonzero) == perturbed


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


@pytest.mark.parametrize("order", [G, Z])
@pytest.mark.parametrize("n", [0, 1, 7, 30])
def test_shift_sum_is_the_sum_of_n_plus_one_shifts(monkeypatch, order, n):
    # one operator, applied once, against n + 1 shifts added up
    applies = []
    true_apply = ArtinOp.apply

    def counted_apply(op, p):
        applies.append(op)
        return true_apply(op, p)

    monkeypatch.setattr(ArtinOp, "apply", counted_apply)
    rng = random.Random(1989 + n)
    for i in range(150):
        top = rng.randint(-6, 8)
        floor = top - rng.randint(0, 10)
        keep = range(max(floor, 0) if order is Z else floor, top + 1)
        coeffs = {d: F(rng.randint(-6, 6), rng.randint(1, 6)) for d in keep} if i % 10 else {}
        p = LogSeries(order, floor, coeffs)
        want = shift_sum_by_shifts(p, n)
        applies.clear()
        got = eulermac._shift_sum(p, n)
        assert len(applies) == 1
        assert (got.floor, got.coeffs) == (want.floor, want.coeffs), (p, n)


# -- numeric instances --------------------------------------------------


def test_harmonic_identity_accuracy():
    lhs, rhs, err, bound = harmonic_identity(10, 89, 6)
    assert lhs == sum(F(1, 10 + j) for j in range(90))
    assert err < 1e-8
    assert err <= bound


def test_harmonic_identity_error_decreases_in_x():
    errs = [harmonic_identity(x, 89, 6)[2] for x in (2, 5, 10, 20)]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_stirling_identity_accuracy():
    lhs, rhs, err, bound = stirling_identity(10, 89, 6)
    assert err / abs(lhs) < 1e-9
    assert err <= bound


@pytest.mark.parametrize(
    "identity, oracle",
    [(harmonic_identity, harmonic_rhs_by_derivatives), (stirling_identity, stirling_rhs_by_derivatives)],
)
def test_rhs_equals_the_derivative_oracle_where_the_verdict_says_something(identity, oracle):
    # W_K lam_a rounds each coefficient once, the oracle twice (weight, then
    # derivative), so the two floats can differ in the last bits; on this
    # grid they do so only at empty verdicts, where the bound is at least |lhs|
    xs = ["1/3", "1", "2", "10", "300", "1000000", "9999999999", "9999999997/9999999999",
          "22/7", "1/7", "3/1000", "123456789/1000"]
    checked = 0
    for x in map(exact_rational, xs):
        for n in (0, 1, 9, 100):
            for K in (0, 1, 2, 3, 4, 5, 6, 8, 10, 20):
                lhs, rhs, _, bound = identity(x, n, K)
                if bound < abs(lhs):
                    assert rhs == oracle(x, n, K), (x, n, K)
                    checked += 1
    assert checked > 300


def test_identities_reject_nonpositive_x():
    with pytest.raises(ValueError):
        harmonic_identity(0, 5, 4)
    with pytest.raises(ValueError):
        stirling_identity(-1, 5, 4)


@pytest.mark.parametrize("log_case", [False, True])
def test_first_omitted_bound_matches_the_two_case_formula(log_case):
    for x in (1 / 3, 1.0, 10.0, 300.0, 1e6):
        for n in (0, 5, 100):
            for K in range(1 if log_case else 0, 41):
                got = eulermac._read_w_lambda(0 if log_case else -1, x, n, K)[1]
                want = first_omitted_term_bound_by_cases(x, n, K, log_case=log_case)
                assert math.isclose(got, want, rel_tol=1e-12), (x, n, K)


def test_first_omitted_bound_of_log_at_order_zero():
    # the first omitted term is B_1 (log X - log x): 5 (|log x| + |log X|)
    for x in (1 / 3, 1.0, 10.0, 300.0, 1e6):
        for n in (0, 5, 100):
            want = 5 * (abs(math.log(x)) + abs(math.log(x + n + 1)))
            assert eulermac._read_w_lambda(0, x, n, 0)[1] == want


def test_first_omitted_bound_skips_odd_bernoulli_zeros():
    # cutoffs 6 and 7 share the same first nonzero omitted term B_8
    b6 = eulermac._read_w_lambda(-1, 10.0, 20, 6)[1]
    b7 = eulermac._read_w_lambda(-1, 10.0, 20, 7)[1]
    assert b6 == b7


# -- the sum verdict: negative controls -----------------------------------


def sum_exit(capsys, kind):
    code = main(["sum", kind, "--x", "10", "--n", "89", "--order", "6"])
    capsys.readouterr()
    return code


@pytest.mark.parametrize("a", [-1, 0])
def test_w_k_lambda_is_w_k_plus_2_lambda_cut(a):
    # the fact the sum reads its right side by: W_(K+2) is W_K through D^(K-1)
    for K in range(61):
        short = eulermac._weight_op(K).apply(harmonic(G, a, a - K))
        long = eulermac._weight_op(K + 2).apply(harmonic(G, a, a - K - 2))
        assert short.floor == a - K + 1
        assert short == long.truncate(a - K + 1)


@pytest.mark.parametrize("kind", ["harmonic", "stirling"])
def test_sum_builds_the_weight_operator_once(capsys, monkeypatch, kind):
    true_weights = eulermac._weight_op
    built = []

    def counted_weights(K, omit_linear_term=False):
        built.append(K)
        return true_weights(K, omit_linear_term)

    monkeypatch.setattr(eulermac, "_weight_op", counted_weights)
    assert sum_exit(capsys, kind) == 0
    assert built == [8]


@pytest.mark.parametrize("kind", ["harmonic", "stirling"])
def test_sum_fails_with_wrong_b2(capsys, monkeypatch, kind):
    assert sum_exit(capsys, kind) == 0
    perturb_b2(monkeypatch)
    assert sum_exit(capsys, kind) == 1


@pytest.mark.parametrize("kind", ["harmonic", "stirling"])
def test_sum_fails_without_its_last_weight(capsys, monkeypatch, kind):
    # B_6/6!, the D^5 weight, left out of the one W_8 that --order 6 builds:
    # the right side, cut to W_6, loses its last term; the bound, from the
    # B_8 term at D^7, keeps it
    true_weights = eulermac._weight_op

    def short_weights(K, omit_linear_term=False):
        w = true_weights(K, omit_linear_term)
        return ArtinOp(w.cap, {e: c for e, c in w.coeffs.items() if e != 5}) if K == 8 else w

    monkeypatch.setattr(eulermac, "_weight_op", short_weights)
    assert sum_exit(capsys, kind) == 1
