import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logalg.classics import bernoulli_seq
from logalg.series import LogSeries, OrderTag, harmonic, zero_series
from oracles import agrees, shift_by_roman_coeff

F = Fraction
G, Z = OrderTag.GENERIC, OrderTag.ZERO


def generic(coeffs, floor):
    return LogSeries(G, floor, {d: F(c) for d, c in coeffs.items()})


rationals = st.fractions(max_denominator=12, min_value=-9, max_value=9)


@st.composite
def generic_series(draw, floor_min=-8, top_max=4):
    floor = draw(st.integers(min_value=floor_min, max_value=0))
    degrees = draw(st.lists(st.integers(min_value=floor, max_value=top_max), max_size=6))
    coeffs = {d: draw(rationals) for d in degrees}
    return LogSeries(G, floor, coeffs)


# -- construction ------------------------------------------------------


def test_harmonic_basis_element():
    p = harmonic(G, -2, -10)
    assert p.coeffs == {-2: F(1)} and p.floor == -10


def test_harmonic_zero_order_negative_degree_vanishes():
    assert harmonic(Z, -1, 0).is_zero()


def test_zero_order_rejects_negative_degrees():
    for floor in (-3, 0, 2):
        with pytest.raises(ValueError, match="negative degrees"):
            LogSeries(Z, floor, {-1: F(1)})


def test_coefficient_below_floor_rejected():
    with pytest.raises(ValueError, match="below the exactness floor"):
        LogSeries(G, -2, {-3: F(1)})
    with pytest.raises(ValueError, match="below the exactness floor"):
        LogSeries(Z, 2, {1: F(1), 3: F(1)})


def test_empty_map_trips_no_bound_check():
    # whatever the floor, an order-(0) one below 0 included; zeros are dropped first
    for floor in (-3, 0, 5):
        assert LogSeries(Z, floor, {}).floor == max(floor, 0)
        assert LogSeries(G, floor, {floor - 1: 0}).floor == floor
    assert LogSeries(Z, -3, {2: F(1)}).floor == 0


def test_series_is_an_immutable_value():
    p = LogSeries(G, -2, {1: F(1, 2)})
    assert p == LogSeries(G, -2, {1: F(1, 2), 0: 0})
    assert p != LogSeries(G, -3, {1: F(1, 2)}) and p != LogSeries(Z, 0, {1: F(1, 2)})
    assert repr(p) == "LogSeries(order=<OrderTag.GENERIC: 'generic'>, floor=-2, coeffs={1: Fraction(1, 2)})"
    with pytest.raises(AttributeError):
        p.floor = 0
    with pytest.raises(AttributeError):
        del p.coeffs
    assert (p.floor, p.coeffs) == (-2, {1: F(1, 2)})


def test_series_coeffs_are_read_only_and_hash_by_value():
    # built twice, on two sequences
    p, q = (bernoulli_seq().member(G, 2, -3) for _ in range(2))
    with pytest.raises(TypeError):
        p.coeffs[2] = 5
    with pytest.raises(TypeError):
        del p.coeffs[2]
    assert p.coeffs[2] == 1
    assert p is not q and hash(p) == hash(q) == hash(LogSeries(G, -3, dict(p.coeffs)))
    assert len({p, LogSeries(G, -3, dict(p.coeffs)), p.truncate(-2)}) == 2


# -- vector space ------------------------------------------------------


def test_add_and_floor_intersection():
    p = generic({1: 1}, -5)
    q = generic({0: F(-1, 2)}, -3)
    r = p + q
    assert r.coeffs == {1: F(1), 0: F(-1, 2)}
    assert r.floor == -3


def test_scale_by_zero_keeps_floor():
    p = generic({2: 3}, -4)
    assert p.scale(0).is_zero() and p.scale(0).floor == -4


def test_order_mismatch_raises():
    with pytest.raises(ValueError):
        harmonic(G, 1, 0) + harmonic(Z, 1, 0)


# -- calculus ----------------------------------------------------------


def test_derivative_on_basis():
    assert generic({-1: 1}, -9).derivative().coeffs == {-2: F(-1)}
    assert harmonic(Z, 0, 0).derivative().is_zero()
    assert generic({1: 1, 0: 1}, -9).derivative().coeffs == {0: F(1), -1: F(1)}


def test_antiderivative_inverts_derivative():
    assert generic({-1: 1}, -9).antiderivative().coeffs == {0: F(1)}
    assert generic({-2: -1}, -9).antiderivative().coeffs == {-1: F(1)}


def test_antiderivative_rejects_zero_order():
    with pytest.raises(ValueError):
        harmonic(Z, 2, 0).antiderivative()


@given(generic_series())
@settings(max_examples=60)
def test_derivative_antiderivative_roundtrip(p):
    assert agrees(p.antiderivative().derivative(), p)
    assert agrees(p.derivative().antiderivative(), p)


def test_shift_geometric_series():
    p = harmonic(G, -1, -6).shift(1)
    assert p.coeffs == {-1: F(1), -2: F(-1), -3: F(1), -4: F(-1), -5: F(1), -6: F(-1)}


def test_shift_polynomial():
    z = F(3, 2)
    p = harmonic(Z, 1, 0).shift(z)
    assert p.coeffs == {1: F(1), 0: z}


def test_shift_by_zero_is_identity():
    p = generic({2: 1, -1: F(1, 3)}, -5)
    assert p.shift(0) == p


@given(generic_series(), rationals, rationals)
@settings(max_examples=40)
def test_shift_composes_additively(p, z, w):
    assert agrees(p.shift(z).shift(w), p.shift(z + w))


@given(generic_series(), rationals)
@settings(max_examples=40)
def test_shift_commutes_with_derivative(p, z):
    assert agrees(p.shift(z).derivative(), p.derivative().shift(z))


@pytest.mark.parametrize("n", range(0, 5))
def test_augmentation_of_shifted_monomial_is_power(n):
    # <(0)| E^z x^n > = z^n
    z = F(2, 3)
    assert harmonic(Z, n, 0).shift(z).eval_functional() == z**n


SHIFTS = [F(0), F(1), F(-1), F(1, 2), F(2), F(-3, 7)]


@st.composite
def polynomial_series(draw, top_max=10):
    floor = draw(st.integers(min_value=0, max_value=top_max))
    degrees = draw(st.lists(st.integers(min_value=floor, max_value=top_max), max_size=6))
    return LogSeries(Z, floor, {d: draw(rationals) for d in degrees})


@given(generic_series(floor_min=-14, top_max=8), st.sampled_from(SHIFTS))
@example(LogSeries(G, -44, {4: F(-3, 7), 1: F(5), -20: F(1, 9), -44: F(2)}), F(-3, 7))  # depth 48
@settings(max_examples=60)
def test_shift_matches_roman_coeff_sum_generic(p, z):
    # the recurrence for rc(a, k) against each coefficient from scratch
    assert p.shift(z) == shift_by_roman_coeff(p, z)


@given(polynomial_series(), st.sampled_from(SHIFTS))
@settings(max_examples=60)
def test_shift_matches_roman_coeff_sum_polynomial(p, z):
    assert p.shift(z) == shift_by_roman_coeff(p, z)


@pytest.mark.parametrize("seed", range(6))
def test_floor_soundness_of_shift(seed):
    # shifting a series known to depth c, and the same series known to
    # depth c+25, must agree wherever the shallower result claims exactness
    rng = random.Random(seed)
    for order in (G, Z):
        top = rng.randint(-4, 6) if order is G else rng.randint(8, 30)
        floor = top - rng.randint(0, 8)
        deep_floor = floor - 25 if order is G else max(floor - 25, 0)
        deep = LogSeries(
            order,
            deep_floor,
            {d: F(rng.randint(-5, 5), rng.randint(1, 6)) for d in range(deep_floor, top + 1)},
        )
        z = rng.choice(SHIFTS[1:])
        small, big = deep.truncate(floor).shift(z), deep.shift(z)
        assert big.floor <= small.floor
        assert agrees(small, big)


# -- functional, coeff access, truncation ------------------------------


def test_eval_functional():
    assert generic({0: F(7, 3), 5: 1}, -1).eval_functional() == F(7, 3)
    assert harmonic(G, 3, -1).eval_functional() == 0
    assert harmonic(G, 0, 0).eval_functional() == 1


def test_eval_functional_requires_nonpositive_floor():
    with pytest.raises(ValueError):
        generic({5: 1}, 2).eval_functional()


def test_coeff_access():
    p = generic({1: 1, -3: F(-1, 360)}, -5)
    assert p.coeff(-3) == F(-1, 360)
    assert p.coeff(-4) == 0
    with pytest.raises(ValueError):
        p.coeff(-6)


def test_truncate_drops_low_terms():
    p = generic({2: 1, -4: 1}, -6)
    t = p.truncate(-2)
    assert t.coeffs == {2: F(1)} and t.floor == -2
    # nothing dropped: the series itself
    assert p.truncate(p.floor) is p and p.truncate(-9) is p


@given(generic_series(), st.integers(min_value=-8, max_value=2), rationals)
@settings(max_examples=40)
def test_truncation_coherence_under_shift(p, m, z):
    # truncating before or after a shift must agree on the retained range
    before = p.shift(z).truncate(m)
    after = p.truncate(m).shift(z).truncate(m)
    assert agrees(before, after)


def test_top_degree():
    assert generic({3: 1, -2: 1}, -4).top_degree() == 3
    assert zero_series(G, -4).top_degree() is None


# -- serialization -----------------------------------------------------


def test_json_roundtrip():
    p = generic({1: 1, -3: F(-1, 360)}, -5)
    assert LogSeries.from_json(p.to_json()) == p
    obj = p.to_obj()
    assert obj["coeffs"] == [[1, "1"], [-3, "-1/360"]]  # descending degree


@pytest.mark.parametrize("text", ["1" * 4301, "1/" + "1" * 4301, "1e" + "1" * 4301, "1_" * 4300 + "1"])
def test_from_obj_rejects_a_run_beyond_4300_digits(text):
    # before the check, int() and Fraction() failed with Python's own text
    with pytest.raises(ValueError, match="4301 digits exceeds the limit of 4300 digits"):
        LogSeries.from_obj({"order": "generic", "floor": 0, "coeffs": [[1, text]]})
