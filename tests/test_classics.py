import json
from fractions import Fraction

import pytest

from logalg import classics
from logalg.classics import (
    SeqTable,
    bernoulli_member,
    bernoulli_number,
    bernoulli_seq,
    emit_table,
    hermite_closed_form,
    hermite_member,
    hermite_number,
    hermite_seq,
    laguerre_delta,
    laguerre_genfun_check,
    laguerre_member,
    laguerre_sheffer_seq,
)
from logalg.series import OrderTag, harmonic
from oracles import agrees, classical_bernoulli, hermite_by_series_sum, laguerre_by_terms

F = Fraction
G, Z = OrderTag.GENERIC, OrderTag.ZERO

# Frozen reference rows, a -> {degree: coefficient}, each exact down to a - 8.
BERNOULLI_ROWS = {
    -2: {-2: F(1), -3: F(1), -4: F(1, 2), -6: F(-1, 6), -8: F(1, 6)},
    -1: {-1: F(1), -2: F(1, 2), -3: F(1, 6), -5: F(-1, 30), -7: F(1, 42)},
    0: {0: F(1), -1: F(-1, 2), -2: F(-1, 12), -4: F(1, 120), -6: F(-1, 252)},
    1: {1: F(1), 0: F(-1, 2), -1: F(1, 12), -3: F(-1, 360), -5: F(1, 1260)},
    2: {2: F(1), 1: F(-1), 0: F(1, 6), -2: F(1, 360), -4: F(-1, 2520)},
}

# Hermite rows at sigma = 1, exact down to a - 7.
HERMITE_ROWS = {
    -2: {-2: F(1), -4: F(-6), -6: F(60), -8: F(-840)},
    -1: {-1: F(1), -3: F(-2), -5: F(12), -7: F(-120)},
    0: {0: F(1), -2: F(1), -4: F(-3), -6: F(20)},
    1: {1: F(1), -1: F(-1), -3: F(1), -5: F(-4)},
    2: {2: F(1), 0: F(-2), -2: F(-1), -4: F(2)},
}


# -- Bernoulli ----------------------------------------------------------


def test_bernoulli_table_rows():
    for a, row in BERNOULLI_ROWS.items():
        assert bernoulli_member(G, a, a - 8).truncate(min(row) ).coeffs == row


def test_residual_series():
    # B_{-1} at generic order: 1/x + 1/(2x^2) + 1/(6x^3) - 1/(30x^5) + ... at level 1
    assert bernoulli_member(G, -1, -7).coeffs == BERNOULLI_ROWS[-1]


def test_bernoulli_numbers_match_classical_recurrence():
    oracle = classical_bernoulli(12)
    for n in range(13):
        assert bernoulli_number(n) == oracle[n]


def test_bernoulli_numbers_negative_index_rejected():
    with pytest.raises(ValueError):
        bernoulli_number(-1)


def test_zero_order_members_are_classical_polynomials():
    # B_2(x) = x^2 - x + 1/6
    assert bernoulli_member(Z, 2, 0).coeffs == {2: F(1), 1: F(-1), 0: F(1, 6)}


# -- Hermite ------------------------------------------------------------


def test_hermite_table_rows_at_sigma_one():
    for a, row in HERMITE_ROWS.items():
        got = hermite_member(G, a, a - 7, sigma=1)
        assert got.truncate(min(row)).coeffs == row


def test_hermite_closed_form_matches_operator_route():
    for sigma in (F(1, 2), F(1), F(3)):
        for a in range(-4, 5):
            assert hermite_member(G, a, a - 8, sigma) == hermite_closed_form(G, a, a - 8, sigma)


@pytest.mark.parametrize("order", [G, Z])
def test_hermite_closed_form_matches_series_sum_and_member(order):
    for sigma in (F(1, 2), F(1), F(3), F(-2, 5)):
        seq = hermite_seq(sigma)
        for a in range(-6, 9):
            for d in (0, 1, 9, 32):
                got = hermite_closed_form(order, a, a - d, sigma)
                assert got == hermite_by_series_sum(order, a, a - d, sigma)
                assert got == seq.member(order, a, a - d)


def test_hermite_sigma_scaling():
    # coefficient at depth 2k picks up 2^k between sigma=1/2 and sigma=1
    for a in range(-3, 4):
        half = hermite_member(G, a, a - 8, F(1, 2))
        full = hermite_member(G, a, a - 8, 1)
        for k in range(5):
            assert full.coeff(a - 2 * k) == 2**k * half.coeff(a - 2 * k)


def test_hermite_coefficient_formula_negative_degrees():
    # for n < 0 the sigma=1/2 coefficient at degree n-2k is
    # (-1/2)^k (2k-n-1)! / (k! (n being negative) (-n-1)!)
    from math import factorial

    for n in (-1, -2, -3):
        m = hermite_member(G, n, n - 8, F(1, 2))
        for k in range(5):
            want = F((-1) ** k, 2**k) * F(factorial(2 * k - n - 1), factorial(-n - 1) * factorial(k))
            assert m.coeff(n - 2 * k) == want


def test_hermite_numbers():
    assert [hermite_number(n) for n in range(7)] == [
        F(1), F(0), F(-1), F(0), F(3), F(0), F(-15),
    ]
    assert hermite_number(2, sigma=1) == F(-2)
    with pytest.raises(ValueError):
        hermite_number(-2)


def test_hermite_zero_order_is_classical():
    # H_2 at sigma 1/2 order (0): x^2 - 1
    assert hermite_member(Z, 2, 0).coeffs == {2: F(1), 0: F(-1)}


# -- Laguerre -----------------------------------------------------------


def test_laguerre_delta_expansion():
    assert laguerre_delta(4).coeffs == {1: F(1), 2: F(1), 3: F(1), 4: F(1)}


def test_laguerre_zero_order_classical_rows():
    # grade 0: L_2(x) = x^2 - 4x + 2 (the 2!-normalized Laguerre polynomial)
    assert laguerre_member(Z, 2, 0, 0).coeffs == {2: F(1), 1: F(-4), 0: F(2)}
    assert laguerre_member(Z, 1, 0, 0).coeffs == {1: F(-1), 0: F(1)}


@pytest.mark.parametrize("b", [0, 1, 3, F(1, 2), F(-1, 2), -2, F(7, 3)])
def test_laguerre_member_matches_term_by_term_sum(b):
    for order in (G, Z):
        for a in range(-6, 9):
            for floor in (a - 9, a - 3, a):
                assert laguerre_member(order, a, b, floor) == laguerre_by_terms(order, a, b, floor)


def test_laguerre_sheffer_route_matches_closed_form_up_to_sign():
    for b in (0, 2, F(1, 2)):
        seq = laguerre_sheffer_seq(b)
        for a in range(-3, 5):
            via_op = seq.member(G, a, a - 6)
            closed = laguerre_member(G, a, b, a - 6)
            assert via_op == closed.scale(F((-1) ** (a % 2)))


def test_laguerre_generating_function():
    for b in (0, 1, 2):
        assert laguerre_genfun_check(b, 6)
    with pytest.raises(ValueError):
        laguerre_genfun_check(-1, 4)


def test_laguerre_genfun_check_returns_exactly_a_bool(monkeypatch):
    # a benchmark reads the result with `is True`, so a truthy value would not do
    assert laguerre_genfun_check(2, 6) is True
    closed = classics.laguerre_member

    def perturbed(order, a, b, floor):  # one member off by a constant
        out = closed(order, a, b, floor)
        return out + harmonic(order, 0, floor).scale(F(1, 1000)) if a == 4 else out

    monkeypatch.setattr(classics, "laguerre_member", perturbed)
    assert laguerre_genfun_check(2, 6) is False
    assert laguerre_genfun_check(2, 3) is True


def test_laguerre_zero_order_vanishes_below_zero():
    assert laguerre_member(Z, -2, 0, -4).is_zero()


# -- table emission -----------------------------------------------------


def test_emit_table_bernoulli_matches_members():
    table = emit_table("bernoulli", -2, 2, 8)
    assert [a for a, _ in table.rows] == [-2, -1, 0, 1, 2]
    for a, series in table.rows:
        assert series == bernoulli_member(G, a, a - 8)


def test_emit_table_hermite_default_sigma_reproduces_table():
    table = emit_table("hermite", -2, 2, 7)
    assert table.parameters == {"sigma": F(1)}
    for a, series in table.rows:
        assert series.truncate(min(HERMITE_ROWS[a])).coeffs == HERMITE_ROWS[a]


def test_emit_table_json_roundtrip():
    table = emit_table("laguerre", 0, 3, 4, order=OrderTag.ZERO, grade=2)
    obj = json.loads(table.to_json())
    assert obj["rule"] == "laguerre"
    assert obj["parameters"] == {"grade": "2"}
    assert len(obj["rows"]) == 4


def test_emit_table_rejects_bad_input():
    with pytest.raises(ValueError):
        emit_table("bernoulli", 3, 1, 4)
    with pytest.raises(ValueError):
        emit_table("euler", 0, 2, 4)


def test_emit_table_latex_contains_rows():
    tex = emit_table("bernoulli", -1, 1, 6).to_latex()
    assert r"\lambda" in tex and "B_{-1}" in tex
