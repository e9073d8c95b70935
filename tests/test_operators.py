import random
from fractions import Fraction
from itertools import islice
from math import comb, factorial

import pytest

from logalg.operators import (
    ArtinOp,
    bernoulli_j,
    convolve,
    forward_difference,
    identity_op,
    monomial_op,
    one_minus_d_pow,
    powers,
    shift_op,
    weierstrass,
)
from logalg.series import LogSeries, OrderTag, harmonic
from oracles import (
    antiderivative_by_roman,
    apply_by_roman_ratio,
    assert_series_sound,
    classical_bernoulli,
    comp_inverse_by_compose,
    convolve_by_fractions,
    derivative_by_roman,
    gen_binomial,
    one_minus_d_pow_by_binomials,
    pow_by_fraction_miller,
    pow_by_squaring,
    recip_by_division,
)

F = Fraction
G, Z = OrderTag.GENERIC, OrderTag.ZERO


def op_agrees(a, b):
    cap = min(a.cap, b.cap)
    return {e: c for e, c in a.coeffs.items() if e <= cap} == {
        e: c for e, c in b.coeffs.items() if e <= cap
    }


def random_delta(rng, cap, linear=F(1)):
    coeffs = {1: F(linear)}
    for k in range(2, cap + 1):
        coeffs[k] = F(rng.randint(-4, 4), rng.randint(1, 5))
    return ArtinOp(cap, coeffs)


# -- constructors ------------------------------------------------------


def test_bernoulli_j_expansion():
    assert bernoulli_j(3).coeffs == {0: F(1), 1: F(1, 2), 2: F(1, 6), 3: F(1, 24)}


def test_weierstrass_expansion():
    assert weierstrass(F(1, 2), 4).coeffs == {0: F(1), 2: F(1, 2), 4: F(1, 8)}


def test_one_minus_d_geometric():
    assert one_minus_d_pow(-1, 3).coeffs == {0: F(1), 1: F(1), 2: F(1), 3: F(1)}


def test_one_minus_d_rational_power():
    op = one_minus_d_pow(F(1, 2), 2)
    assert op.coeffs == {0: F(1), 1: F(-1, 2), 2: F(-1, 8)}


def test_gen_binomial_matches_integer_binomial():
    for r in range(6):
        for k in range(6):
            assert gen_binomial(r, k) == comb(r, k)


@pytest.mark.parametrize("r", [F(-3, 2), -1, -4, 0, F(1, 2), 2, 5, F(-7, 3)])
def test_one_minus_d_pow_matches_binomials(r):
    for cap in range(31):
        op = one_minus_d_pow(r, cap)
        assert op == one_minus_d_pow_by_binomials(r, cap)
        assert op.cap == cap


def test_shift_op_is_exponential():
    assert shift_op(2, 3).coeffs == {0: F(1), 1: F(2), 2: F(2), 3: F(4, 3)}


# -- ring arithmetic ---------------------------------------------------


def test_delta_times_inverse_derivative_is_j():
    # Delta * D**-1 = J
    delta = forward_difference(8)
    d_inv = monomial_op(1, 1).recip()
    assert op_agrees(delta * d_inv, bernoulli_j(7))


def test_mul_identity_and_monomials():
    a = forward_difference(5)
    assert op_agrees(a * identity_op(5), a)
    assert (monomial_op(1, 1) * monomial_op(1, 1)).coeffs == {2: F(1)}


def test_mul_commutes():
    rng = random.Random(7)
    for _ in range(25):
        a, b = random_delta(rng, 6), random_delta(rng, 6)
        assert a * b == b * a


def test_mul_associates_and_distributes():
    rng = random.Random(11)
    for _ in range(25):
        a, b, c = (random_delta(rng, 5) for _ in range(3))
        assert op_agrees((a * b) * c, a * (b * c))
        assert op_agrees(a * (b + c), a * b + a * c)


def test_recip_of_j_gives_bernoulli_numbers():
    # independent oracle: the classical Bernoulli recurrence
    jinv = bernoulli_j(8).recip()
    numbers = classical_bernoulli(8)
    for k in range(9):
        assert jinv.coeffs.get(k, F(0)) * factorial(k) == numbers[k]
    assert jinv.coeffs.get(6) == F(1, 30240)


def test_recip_of_monomial():
    assert monomial_op(1, 1).recip().coeffs == {-1: F(1)}


def test_recip_is_involution():
    rng = random.Random(3)
    for _ in range(20):
        a = random_delta(rng, 6)
        assert op_agrees(a.recip().recip(), a)


def test_recip_of_zero_rejected():
    with pytest.raises(ValueError):
        ArtinOp(3, {}).recip()


def test_pow():
    jm3 = bernoulli_j(6) ** -3
    assert jm3.coeffs[0] == F(1) and jm3.coeffs[1] == F(-3, 2) and jm3.coeffs[2] == F(1)
    assert (bernoulli_j(4) ** 0) == identity_op(4)
    assert (monomial_op(1, 1) ** -2).coeffs == {-2: F(1)}


# -- composition -------------------------------------------------------


def test_compose_with_d_is_identity_substitution():
    delta = forward_difference(6)
    assert op_agrees(delta.compose(monomial_op(1, 6)), delta)


def test_compose_simple():
    outer = ArtinOp(2, {0: F(1), 1: F(1)})  # exactly 1 + D, known through D^2
    inner = ArtinOp(2, {1: F(1), 2: F(1)})
    assert outer.compose(inner).coeffs == {0: F(1), 1: F(1), 2: F(1)}


def test_compose_rejects_non_delta_inner():
    with pytest.raises(ValueError):
        forward_difference(3).compose(identity_op(3))


def test_comp_inverse_of_delta_is_log_series():
    # f = e^D - 1, f_inv = log(1+D): the classical alternating series
    inv = forward_difference(8).comp_inverse()
    for k in range(1, 9):
        assert inv.coeffs[k] == F((-1) ** (k + 1), k)


def test_comp_inverse_roundtrips():
    rng = random.Random(19)
    for _ in range(20):
        f = random_delta(rng, 7)
        g = f.comp_inverse()
        assert op_agrees(f.compose(g), monomial_op(1, 7))
        assert op_agrees(g.compose(f), monomial_op(1, 7))
        assert op_agrees(g.comp_inverse(), f)


def test_comp_inverse_requires_lead_one():
    with pytest.raises(ValueError):
        bernoulli_j(3).comp_inverse()


def test_comp_inverse_matches_compose_solve():
    # Lagrange inversion against the coefficient-by-coefficient solve
    rng = random.Random(31)
    for cap in range(1, 21):
        for linear in (F(1), F(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))):
            f = random_delta(rng, cap, linear)
            got, want = f.comp_inverse(), comp_inverse_by_compose(f)
            assert (got.cap, got.coeffs) == (want.cap, want.coeffs)


def test_comp_inverse_never_composes(monkeypatch):
    def forbidden(self, inner):
        raise AssertionError("comp_inverse must not call compose")

    monkeypatch.setattr(ArtinOp, "compose", forbidden)
    assert forward_difference(12).comp_inverse().coeffs[12] == F(-1, 12)


def test_compose_stops_at_the_outer_top_term(monkeypatch):
    # the identity's terms above D^0 are exact zeros: no power of the inner series is built
    from logalg import operators

    inner = forward_difference(12).comp_inverse()
    calls = []

    def counting(a, b, cap):
        calls.append(cap)
        return convolve(a, b, cap)

    monkeypatch.setattr(operators, "convolve", counting)
    composed = identity_op(12).compose(inner)
    assert calls == []
    assert (composed.cap, composed.coeffs) == (12, {0: F(1)})


def random_series_op(rng, cap):
    return ArtinOp(cap, {k: F(rng.randint(-4, 4), rng.randint(1, 5)) for k in range(cap + 1)})


@pytest.mark.parametrize("seed", range(6))
def test_cap_soundness_of_compose_and_comp_inverse(seed):
    # results at cap c and c+25 must agree wherever the cap-c result
    # claims to be exact
    rng = random.Random(seed)
    c = rng.randint(1, 10)
    outer = random_series_op(rng, c + 25)
    inner = random_delta(rng, c + 25, F(rng.choice([1, -2, 3]), rng.randint(1, 3)))
    pairs = [
        (outer.truncate(c).compose(inner.truncate(c)), outer.compose(inner)),
        (inner.truncate(c).comp_inverse(), inner.comp_inverse()),
    ]
    for small, big in pairs:
        assert small.cap <= big.cap
        assert op_agrees(small, big)


def test_truncate_lowers_cap():
    op = bernoulli_j(6)
    assert op.truncate(3) == bernoulli_j(3)
    assert op.truncate(9) == op


# -- power and action against the algorithms they replaced --------------

LEADING = [F(1), F(-1), F(3), F(-2, 5)]


def random_laurent_op(rng, lead, width, c0):
    """c0 D^lead plus random terms through D^(lead + width)."""
    coeffs = {lead: F(c0)}
    for e in range(lead + 1, lead + width + 1):
        coeffs[e] = F(rng.randint(-4, 4), rng.randint(1, 5))
    return ArtinOp(lead + width, coeffs)


def random_series(rng, order, floor_min=-6):
    floor = rng.randint(floor_min, 2)
    if order is Z:
        floor = max(floor, 0)
    top = floor + rng.randint(0, 7)
    return LogSeries(order, floor, {d: F(rng.randint(-3, 3), rng.randint(1, 4)) for d in range(floor, top + 1)})


@pytest.mark.parametrize("lead", range(-2, 3))
def test_pow_matches_binary_powering(lead):
    rng = random.Random(100 + lead)
    for c0 in LEADING:
        for width in (0, 1, 4, 9):
            op = random_laurent_op(rng, lead, width, c0)
            for n in range(-6, 7):
                got, want = op**n, pow_by_squaring(op, n)
                assert (got.cap, got.coeffs) == (want.cap, want.coeffs)
            got, want = op.recip(), recip_by_division(op)
            assert (got.cap, got.coeffs) == (want.cap, want.coeffs)


@pytest.mark.parametrize("cap", [0, 3])
def test_pow_of_zero_operator_matches_binary_powering(cap):
    zero = ArtinOp(cap, {})
    for n in range(7):
        got, want = zero**n, pow_by_squaring(zero, n)
        assert (got.cap, got.coeffs) == (want.cap, want.coeffs)
    for n in range(-6, 0):
        with pytest.raises(ValueError):
            zero**n


# -- the integer kernels against their Fraction loops ------------------


def random_map(rng, lo, hi, as_int):
    """Coefficients on a random subset of lo..hi (empty when lo > hi),
    zeros included, as ints or as Fractions."""
    out = {}
    for e in range(lo, hi + 1):
        if rng.random() < 0.8:
            out[e] = rng.randint(-6, 6) if as_int else F(rng.randint(-9, 9), rng.randint(1, 12))
    return out


def all_fractions(coeffs):
    return all(type(c) is Fraction for c in coeffs.values())


@pytest.mark.parametrize("as_int", [False, True])
def test_convolve_matches_fraction_loop(as_int):
    rng = random.Random(31 + as_int)
    for _ in range(200):
        a = random_map(rng, rng.randint(-5, 3), rng.randint(-6, 8), as_int)
        b = random_map(rng, rng.randint(-5, 3), rng.randint(-6, 8), as_int)
        cap = rng.randint(-12, 16)
        got = convolve(a, b, cap)
        assert got == convolve_by_fractions(a, b, cap)
        assert all_fractions(got)


def test_convolve_edge_cases():
    one = {0: F(1)}
    assert convolve({}, one, 5) == convolve(one, {}, 5) == convolve({}, {}, 0) == {}
    # the degree-1 terms cancel, and the zero is dropped
    assert convolve({0: F(1), 1: F(1)}, {0: F(1), 1: F(-1)}, 4) == {0: F(1), 2: F(-1)}
    assert convolve({-2: F(1, 2)}, {-1: 3, 0: F(1, 3)}, -2) == {-3: F(3, 2), -2: F(1, 6)}
    # a cap below every exponent of the product
    assert convolve({1: 1, 2: 1}, {3: 1}, 3) == {}
    got = convolve({0: 2}, {0: 3, 1: -4}, 1)
    assert got == {0: 6, 1: -8} and all_fractions(got)


@pytest.mark.parametrize("cap", [0, 1, 5])
def test_powers_are_successive_truncated_products(cap):
    u = {1: F(1), 2: F(-1, 2), 3: F(1, 3)}  # lead 1: u**n vanishes below n
    got = list(islice(powers(u, cap), cap + 10))
    want = [{0: F(1)}]
    while want[-1]:
        want.append(convolve_by_fractions(want[-1], u, cap))
    # u**0 .. u**cap, then the first zero power, and no more
    assert len(got) == cap + 2 and got == want


def test_powers_of_a_unit_never_stop():
    u = {0: F(1), 1: F(1)}
    got = list(islice(powers(u, 3), 5))
    assert got[0] == {0: F(1)} and got[4] == {0: F(1), 1: F(4), 2: F(6), 3: F(4)}
    assert list(islice(powers({}, 3), 5)) == [{0: F(1)}, {}]


@pytest.mark.parametrize("as_int", [False, True])
@pytest.mark.parametrize("lead", range(-2, 3))
def test_pow_matches_fraction_miller(lead, as_int):
    rng = random.Random(200 + 10 * lead + as_int)
    for c0 in LEADING:
        for width in (0, 1, 4, 9):
            coeffs = random_map(rng, lead + 1, lead + width, as_int)
            coeffs[lead] = int(c0) if as_int and c0.denominator == 1 else c0
            op = ArtinOp(lead + width, coeffs)
            for n in range(-6, 7):
                got, want = op**n, pow_by_fraction_miller(op, n)
                assert (got.cap, got.coeffs) == (want.cap, want.coeffs)
                assert all_fractions(got.coeffs)


def test_recip_of_j_at_cap_150_matches_fraction_miller():
    # a denominator blow-up in the integer form shows as a slow test
    j = bernoulli_j(150)
    got, want = j**-1, pow_by_fraction_miller(j, -1)
    assert (got.cap, got.coeffs) == (want.cap, want.coeffs)


@pytest.mark.parametrize("lead", range(-2, 3))
def test_apply_matches_roman_ratio_sum(lead):
    rng = random.Random(200 + lead)
    ops = [random_laurent_op(rng, lead, w, c0) for w in (0, 3, 8) for c0 in LEADING]
    ops.append(ArtinOp(lead + 2, {}))
    for order in (G, Z):
        for op in ops:
            for _ in range(4):
                p = random_series(rng, order)
                if order is Z and lead < 0 and not op.is_zero():
                    with pytest.raises(ValueError):
                        op.apply(p)
                    continue
                assert op.apply(p) == apply_by_roman_ratio(op, p)


def test_derivative_and_antiderivative_match_roman_loops():
    rng = random.Random(300)
    for order in (G, Z):
        for _ in range(60):
            p = random_series(rng, order)
            if rng.random() < 0.1:
                p = LogSeries(order, p.floor, {})
            assert p.derivative() == derivative_by_roman(p)
            if order is Z:
                with pytest.raises(ValueError):
                    p.antiderivative()
            else:
                assert p.antiderivative() == antiderivative_by_roman(p)


def pair_or_error(op, p):
    try:
        return op.pair(p)
    except ValueError:
        return ValueError


def apply_then_augment(op, p):
    try:
        return op.apply(p).eval_functional()
    except ValueError:
        return ValueError


@pytest.mark.parametrize("lead", range(-2, 3))
def test_pair_matches_apply_then_augment(lead):
    # the same value, and an error exactly where apply(p).eval_functional() raises
    rng = random.Random(400 + lead)
    ops = [random_laurent_op(rng, lead, w, c0) for w in (0, 2, 6) for c0 in LEADING]
    ops += [ArtinOp(lead + 2, {}), ArtinOp(max(lead, 0), {})]
    outcomes = set()
    for order in (G, Z):
        for op in ops:
            for _ in range(6):
                p = random_series(rng, order)
                if rng.random() < 0.2:
                    p = LogSeries(order, p.floor, {})
                want = apply_then_augment(op, p)
                assert pair_or_error(op, p) == want
                outcomes.add(want is ValueError)
    assert outcomes == {True, False}


# -- cap and floor soundness: cap c against cap c + 25 ------------------


def sound_pairs(rng, order):
    """(small, big) results of *, recip, ** and apply, each small one
    computed from inputs truncated 25 exponents or degrees earlier."""
    c = rng.randint(0, 8)
    ops = []
    for _ in range(2):
        lead = rng.randint(0 if order is Z else -2, 2)
        big = random_laurent_op(rng, lead, c + 25, rng.choice(LEADING))
        ops.append((big.truncate(lead + c), big))
    # a truncation that leaves the zero operator: the first term sits at c + 1
    big = random_laurent_op(rng, c + 1, 25, rng.choice(LEADING))
    ops.append((big.truncate(c), big))
    (a, big_a), (b, big_b), (z, big_z) = ops
    pairs = [(a * b, big_a * big_b), (z * b, big_z * big_b), (b * z, big_b * big_z)]
    pairs.append((z * z, big_z * big_z))
    pairs.append((a.recip(), big_a.recip()))
    pairs += [(a**n, big_a**n) for n in range(-6, 7)]
    pairs += [(z**n, big_z**n) for n in range(7)]
    big_p = random_series(rng, order, floor_min=-6)
    big_p = LogSeries(order, big_p.floor - 25, big_p.coeffs)
    p = big_p.truncate(big_p.floor + 25)
    pairs += [(op.apply(p), big.apply(big_p)) for op, big in ops]
    # a series whose truncation is zero: every known term lies below floor f
    f = rng.randint(6, 9)
    big_p = LogSeries(order, f - 25, {f - 1 - j: F(rng.randint(1, 5), rng.randint(1, 3)) for j in range(6)})
    p = big_p.truncate(f)
    pairs += [(op.apply(p), big.apply(big_p)) for op, big in ops]
    return pairs


def deep_series(rng, order, floor, top):
    """A series known from top down to floor - 25, and its truncation at floor."""
    deep_floor = floor - 25 if order is G else max(floor - 25, 0)
    coeffs = {d: F(rng.randint(1, 5) * rng.choice([-1, 1]), rng.randint(1, 4)) for d in range(deep_floor, top + 1)}
    big = LogSeries(order, deep_floor, coeffs)
    return big.truncate(floor), big


@pytest.mark.parametrize("seed", range(6))
def test_cap_soundness_of_add(seed):
    # sums of operators and of series known 25 further must agree
    # wherever the shallower sum claims to be exact
    rng = random.Random(500 + seed)
    for _ in range(10):
        a, b = (random_laurent_op(rng, rng.randint(-2, 2), 25 + rng.randint(0, 6), 1) for _ in range(2))
        ca, cb = rng.randint(a.lead, a.lead + 6), rng.randint(b.lead, b.lead + 6)
        small, big = a.truncate(ca) + b.truncate(cb), a + b
        assert small.cap <= big.cap
        assert op_agrees(small, big)
        for order in (G, Z):
            top = rng.randint(0, 6)
            p, big_p = deep_series(rng, order, top - rng.randint(0, 6), top)
            q, big_q = deep_series(rng, order, top - rng.randint(0, 6), top + rng.randint(-2, 2))
            assert_series_sound(p + q, big_p + big_q)


@pytest.mark.parametrize("seed", range(6))
def test_floor_soundness_of_derivative_and_antiderivative(seed):
    rng = random.Random(600 + seed)
    for _ in range(10):
        for order in (G, Z):
            top = rng.randint(-4, 6)
            p, big = deep_series(rng, order, top - rng.randint(0, 6), top)
            assert_series_sound(p.derivative(), big.derivative())
            if order is G:
                assert_series_sound(p.antiderivative(), big.antiderivative())
        # a series whose truncation is zero
        p, big = deep_series(rng, G, 3, rng.randint(-2, 2))
        assert p.is_zero()
        assert_series_sound(p.derivative(), big.derivative())
        assert_series_sound(p.antiderivative(), big.antiderivative())


@pytest.mark.parametrize("seed", range(6))
def test_cap_soundness_of_pair(seed):
    # a pairing at cap c must equal the one at c + 25 whenever it does not
    # raise; the operator and series sizes straddle the edge where it starts to
    rng = random.Random(700 + seed)
    answered = 0
    for _ in range(40):
        order = rng.choice([G, Z])
        lead = rng.randint(0 if order is Z else -2, 2)
        big_op = random_laurent_op(rng, lead, 30, rng.choice(LEADING))
        top = rng.randint(0, 6)
        p, big_p = deep_series(rng, order, top - rng.randint(0, 6), top)
        op = big_op.truncate(top + rng.randint(-2, 1))
        value = pair_or_error(op, p)
        if value is not ValueError:
            answered += 1
            assert value == big_op.pair(big_p)
    assert answered


@pytest.mark.parametrize("seed", range(8))
def test_cap_soundness_of_mul_recip_pow_and_apply(seed):
    # results at cap c and c+25 must agree wherever the cap-c result
    # claims to be exact
    rng = random.Random(seed)
    for order in (G, Z):
        for small, big in sound_pairs(rng, order):
            if isinstance(small, ArtinOp):
                assert small.cap <= big.cap
                assert op_agrees(small, big)
            else:
                assert small.floor >= big.floor
                fl = small.floor
                assert small.truncate(fl) == big.truncate(fl)


# -- action on series --------------------------------------------------


def test_apply_derivative_on_basis():
    for a in range(-4, 5):
        lam = harmonic(G, a, a - 3)
        out = monomial_op(1, 1).apply(lam)
        assert out.coeffs == ({a - 1: F(a)} if a != 0 else {-1: F(1)})


def test_apply_j_inverse_is_bernoulli_row():
    out = bernoulli_j(8).recip().apply(harmonic(G, 1, -6))
    assert out.coeffs == {1: F(1), 0: F(-1, 2), -1: F(1, 12), -3: F(-1, 360), -5: F(1, 1260)}


def test_apply_lower_factorial():
    # E^1 J^-3 x^2 = x^2 - x, the associated sequence of Delta
    op = shift_op(1, 6) * bernoulli_j(6) ** -3
    out = op.apply(harmonic(Z, 2, 0))
    assert out.coeffs == {2: F(1), 1: F(-1)}


def test_apply_negative_lead_rejected_on_polynomials():
    with pytest.raises(ValueError):
        monomial_op(-1, 0).apply(harmonic(Z, 2, 0))


def test_apply_is_multiplicative():
    rng = random.Random(23)
    p = LogSeries(G, -8, {2: F(1), 0: F(-1, 3), -1: F(2)})
    for _ in range(10):
        a, b = random_delta(rng, 6), random_delta(rng, 6)
        left = (a * b).apply(p)
        right = a.apply(b.apply(p))
        fl = max(left.floor, right.floor)
        assert left.truncate(fl) == right.truncate(fl)


def test_dj_equals_forward_difference():
    assert op_agrees(monomial_op(1, 1) * bernoulli_j(8), forward_difference(8))


# exact_int and exact_rational read every JSON degree, floor and
# coefficient; LogSeries.from_obj is their one caller.  Each object is
# well formed but for one field.
@pytest.mark.parametrize(
    "obj",
    [
        {"order": "generic", "floor": 1, "coeffs": [[1, "1/0"]]},
        {"order": "generic", "floor": 1e400, "coeffs": []},
        {"order": "generic", "floor": 2.5, "coeffs": []},
        {"order": "generic", "floor": 1, "coeffs": [[1.5, "1"]]},
        {"order": "generic", "floor": 3},
        ["generic", 3, []],
        {"order": "generic", "floor": 1, "coeffs": [[1, 0.1]]},
        {"order": "generic", "floor": True, "coeffs": [[1, "1"]]},
        {"order": "generic", "floor": 1, "coeffs": [[True, "1"]]},
        {"order": "generic", "floor": 1, "coeffs": [["1", "1"]]},
        {"order": "generic", "floor": 1, "coeffs": [[1, True]]},
        {"order": "generic", "floor": 1, "coeffs": [[1, None]]},
        {"order": "generic", "floor": 1, "coeffs": [[1, "1e10000"]]},
        {"order": "generic", "floor": 1, "coeffs": [[1, "2.5E-4301"]]},
        {"order": "generic", "floor": 1, "coeffs": [[1, "1e4300"]]},
        {"order": "generic", "floor": 1, "coeffs": [[1, "123e4298"]]},
    ],
)
def test_from_obj_rejects_malformed(obj):
    with pytest.raises(ValueError, match="malformed series object"):
        LogSeries.from_obj(obj)


def test_from_obj_accepts_4300_digits():
    # 10**4299 has 4300 digits, the most Python converts to and from str
    for text in ("1e4299", "1e-4299"):
        p = LogSeries.from_obj({"order": "generic", "floor": 0, "coeffs": [[1, text]]})
        assert p.coeffs[1] == F(text)
        assert LogSeries.from_json(p.to_json()) == p
