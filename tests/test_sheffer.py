import random
from fractions import Fraction
from math import factorial

import pytest

from logalg import sheffer
from logalg.classics import bernoulli_seq, hermite_seq, laguerre_genfun_check, laguerre_sheffer_seq
from logalg.operators import (
    ArtinOp,
    bernoulli_j,
    forward_difference,
    monomial_op,
    shift_op,
)
from logalg.series import LogSeries, OrderTag, harmonic, zero_series
from logalg.sheffer import (
    AppellRule,
    AssociatedRule,
    GradedSeq,
    HarmonicRule,
    ShefferRule,
    exp_genfun_coefficients,
)
from oracles import (
    agrees,
    appell_from_constants,
    assert_series_sound,
    classical_bernoulli,
    exp_genfun_by_powers,
)

F = Fraction
G, Z = OrderTag.GENERIC, OrderTag.ZERO


def named_sequences():
    return [
        GradedSeq(HarmonicRule()),
        bernoulli_seq(),
        hermite_seq(F(1, 2)),
        GradedSeq(AssociatedRule(forward_difference)),
        laguerre_sheffer_seq(0),
        laguerre_sheffer_seq(2),
    ]


def random_generic_series(rng, top_max=4, floor_min=-8):
    floor = rng.randint(floor_min, -1)
    top = rng.randint(floor + 1, top_max)
    coeffs = {top: F(1)}
    for d in range(floor, top):
        if rng.random() < 0.6:
            coeffs[d] = F(rng.randint(-6, 6), rng.randint(1, 6))
    return LogSeries(G, floor, coeffs)


# -- members -----------------------------------------------------------


def test_harmonic_member_is_basis():
    seq = GradedSeq(HarmonicRule())
    for a in (-3, 0, 2):
        assert seq.member(G, a, a - 4) == harmonic(G, a, a - 4)


def test_appell_identity_rule_is_harmonic():
    seq = GradedSeq(AppellRule(lambda cap: ArtinOp(cap, {0: F(1)})))
    for a in range(-3, 4):
        assert seq.member(G, a, a - 5) == harmonic(G, a, a - 5)


def test_members_are_monic_with_top_degree_a():
    for seq in named_sequences():
        for a in range(-3, 4):
            m = seq.member(G, a, a - 5)
            assert m.top_degree() == a
            assert abs(m.coeff(a)) == 1  # Laguerre route carries (-1)^a


def test_zero_order_members_vanish_below_zero():
    for seq in named_sequences():
        assert seq.member(Z, -2, -4).is_zero()


def test_associated_of_delta_is_lower_factorial():
    # oracle: (x)_n = x(x-1)...(x-n+1), classical binomial-type sequence
    seq = GradedSeq(AssociatedRule(forward_difference))
    expected = {0: {0: F(1)}, 1: {1: F(1)}, 2: {2: F(1), 1: F(-1)}}
    coeffs = [F(1)]
    for n in range(5):
        if n:
            # multiply by (x - (n-1))
            new = [F(0)] * (n + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] += c
                new[i] -= (n - 1) * c
            coeffs = new
        got = seq.member(Z, n, 0)
        assert got.coeffs == {i: c for i, c in enumerate(coeffs) if c != 0}


@pytest.mark.parametrize(
    "rule, message",
    [
        (AppellRule(lambda cap: ArtinOp(cap, {0: F(2)})), "invertible operator must have lead 0"),
        (AppellRule(lambda cap: ArtinOp(cap, {1: F(1)})), "invertible operator must have lead 0"),
        (AppellRule(lambda cap: ArtinOp(cap, {})), "invertible operator must have lead 0"),
        (AssociatedRule(lambda cap: ArtinOp(cap, {1: F(-1)})), "delta operator must have lead 1"),
        (AssociatedRule(lambda cap: ArtinOp(cap, {0: F(1), 1: F(1)})), "delta operator must have lead 1"),
        (AssociatedRule(lambda cap: ArtinOp(cap, {2: F(1)})), "delta operator must have lead 1"),
    ],
)
def test_operator_shape_errors_name_the_operator(rule, message):
    with pytest.raises(ValueError, match=message):
        GradedSeq(rule).member(G, 1, -2)


def test_rejects_unnormalized_operators():
    bad_h = GradedSeq(AppellRule(lambda cap: ArtinOp(cap, {0: F(2)})))
    with pytest.raises(ValueError):
        bad_h.member(G, 1, -2)
    bad_f = GradedSeq(AssociatedRule(lambda cap: ArtinOp(cap, {1: F(-1)})))
    with pytest.raises(ValueError):
        bad_f.member(G, 1, -2)


def test_member_floor_above_degree_rejected():
    with pytest.raises(ValueError):
        bernoulli_seq().member(G, 1, 2)


def test_cache_deepening():
    seq = bernoulli_seq()
    shallow = seq.member(G, 0, -2)
    deep = seq.member(G, 0, -6)
    assert deep.floor == -6 and shallow.floor == -2
    assert agrees(shallow, deep)


def test_order_zero_member_below_floor_zero_is_built_once(monkeypatch):
    # an order-(0) floor below 0 reads as 0, so the cached member serves it
    builds = []
    original = GradedSeq._build

    def counting(self, a, floor):
        builds.append((a, floor))
        return original(self, a, floor)

    monkeypatch.setattr(GradedSeq, "_build", counting)
    seq = bernoulli_seq()
    got = [seq.member(Z, 3, -2) for _ in range(5)]
    assert len(builds) == 1
    assert all(m == seq.member(Z, 3, 0) for m in got)
    assert len(builds) == 1
    # and the generic member of that degree serves order (0) too
    builds.clear()
    seq = bernoulli_seq()
    generic = seq.member(G, 3, 0)
    assert seq.member(Z, 3, -2) == LogSeries(Z, 0, generic.coeffs)
    assert builds == [(3, 0)]


def test_members_and_operators_are_shared_at_their_cached_floor_and_cap():
    seq = laguerre_sheffer_seq(F(1, 2))
    member = seq.member(G, 3, -4)
    assert seq.member(G, 3, -4) is member
    shallow = seq.member(G, 3, -2)
    assert shallow is not member and shallow.floor == -2 and agrees(shallow, member)
    deeper = seq.member(G, 3, -6)
    assert deeper is not member and seq.member(G, 3, -6) is deeper
    # an order-(0) read is its own series, tagged ZERO, read off the cached one
    zero = seq.member(Z, 3, -2)
    assert zero.order is Z and zero.floor == 0
    assert zero.coeffs == {d: c for d, c in deeper.coeffs.items() if d >= 0}
    # an operator read at the deepest cap so far is the cached one
    seq = laguerre_sheffer_seq(F(1, 2))
    for read in (seq.delta_op, seq.invertible_op):
        op = read(8)
        assert read(8) is op and read(6) is not op and read(6) == op.truncate(6)


# -- characterization checks -------------------------------------------


@pytest.mark.parametrize("seq", named_sequences())
def test_lowering_all_rules(seq):
    for a in range(-6, 7):
        assert seq.check_lowering(G, a, a - 6)


def test_lowering_harmonic_at_zero():
    assert GradedSeq(HarmonicRule()).check_lowering(G, 0, -3)


@pytest.mark.parametrize("seq", named_sequences())
def test_binomial_shift_all_rules(seq):
    for a in range(-4, 5):
        for z in (F(1), F(-1), F(1, 2)):
            assert seq.check_binomial_shift(G, a, z, a - 5)


def test_binomial_shift_z_zero_trivial():
    assert bernoulli_seq().check_binomial_shift(G, 3, 0, -4)


def test_biorthogonality_bernoulli():
    seq = bernoulli_seq()
    for a in range(-4, 5):
        for b in range(0, 7):
            assert seq.check_biorthogonality(a, b)


def test_biorthogonality_explicit_values():
    seq = bernoulli_seq()
    j = bernoulli_j(6)
    b2 = seq.member(G, 2, -2)
    assert (j * monomial_op(2, 6)).apply(b2).eval_functional() == F(2)
    b3 = seq.member(G, 3, -2)
    assert (j * monomial_op(1, 6)).apply(b3).eval_functional() == F(0)


# -- Appell formula ----------------------------------------------------


def test_appell_from_constants_matches_operator_route():
    numbers = {k: b for k, b in enumerate(classical_bernoulli(14))}
    seq = bernoulli_seq()
    for a in range(-2, 3):
        built = appell_from_constants(numbers, G, a, -8)
        assert agrees(built, seq.member(G, a, -8))


def test_appell_from_constants_harmonic_case():
    assert appell_from_constants({0: F(1)}, G, -2, -6) == harmonic(G, -2, -6)


def test_appell_from_constants_table_rows():
    numbers = {k: b for k, b in enumerate(classical_bernoulli(10))}
    row = appell_from_constants(numbers, G, -1, -7)
    assert row.coeffs == {-1: F(1), -2: F(1, 2), -3: F(1, 6), -5: F(-1, 30), -7: F(1, 42)}
    row2 = appell_from_constants(numbers, G, 2, -4)
    assert row2.coeffs == {2: F(1), 1: F(-1), 0: F(1, 6), -2: F(1, 360), -4: F(-1, 2520)}


# -- Taylor expansion --------------------------------------------------


def test_taylor_of_harmonic_in_bernoulli_basis():
    coeffs = bernoulli_seq().taylor_coeffs(harmonic(G, 2, -8), -1)
    assert coeffs == {2: F(1), 1: F(1), 0: F(1, 3), -1: F(1, 12)}


def test_taylor_of_member_is_delta():
    for seq in named_sequences():
        m = seq.member(G, 2, -4)
        coeffs = seq.taylor_coeffs(m, -4)
        assert coeffs == {2: m.coeff(2)}


def test_taylor_of_zero_series_is_empty():
    assert bernoulli_seq().taylor_coeffs(LogSeries(G, -4, {}), -2) == {}


def test_taylor_roundtrip_randomized():
    rng = random.Random(42)
    sequences = named_sequences()
    for i in range(30):
        p = random_generic_series(rng)
        seq = sequences[i % len(sequences)]
        coeffs = seq.taylor_coeffs(p, p.floor)
        rec = seq.reconstruct(coeffs, G, p.floor)
        assert agrees(rec, p)


# -- operator expansion ------------------------------------------------


def test_expand_d_in_harmonic_basis():
    d = GradedSeq(HarmonicRule()).expand_operator(monomial_op(1, 4), -3)
    assert d == {1: F(1)}


def test_expand_identity_in_bernoulli_basis():
    # d_a are the lam_0 coefficients of the Bernoulli rows over rf(a)
    d = bernoulli_seq().expand_operator(ArtinOp(4, {0: F(1)}), -2)
    assert d[0] == F(1) and d[1] == F(-1, 2) and d[2] == F(1, 12)


def test_expand_operator_reconstruction():
    rng = random.Random(5)
    for seq in named_sequences():
        cap = 5
        target = ArtinOp(cap, {k: F(rng.randint(-3, 3), rng.randint(1, 4)) for k in range(cap + 1)})
        if target.is_zero():
            continue
        d = seq.expand_operator(target, -4)
        for b in (-2, 0, 1):
            lam = harmonic(G, b, b - 4)
            want = target.apply(lam)
            got = LogSeries(G, want.floor, {})
            for a, da in d.items():
                got = got + seq.expansion_basis_op(a, cap + 6).apply(lam).scale(da)
            assert agrees(got.truncate(want.floor), want)


# -- generating functions ----------------------------------------------


def test_genfun_bernoulli_coefficient():
    # y^2 coefficient of (y/(e^y-1)) e^{xy} is (x^2 - x + 1/6)/2
    row = bernoulli_seq().genfun_coefficient(2)
    assert row.coeffs == {2: F(1, 2), 1: F(-1, 2), 0: F(1, 12)}


def test_genfun_harmonic_is_exponential():
    seq = GradedSeq(HarmonicRule())
    for k in range(5):
        row = seq.genfun_coefficient(k)
        assert row.coeffs == {k: F(1, factorial(k))}


def test_genfun_associated_delta():
    # exp(x log(1+y)): member(2)/2 = (x^2 - x)/2
    seq = GradedSeq(AssociatedRule(forward_difference))
    row = seq.genfun_coefficient(2)
    assert row.coeffs == {2: F(1, 2), 1: F(-1, 2)}


@pytest.mark.parametrize(
    "seq",
    [
        bernoulli_seq(),
        hermite_seq(F(1, 2)),
        GradedSeq(HarmonicRule()),
        GradedSeq(AssociatedRule(forward_difference)),
    ],
)
def test_genfun_check_through_y8(seq):
    assert seq.genfun_check_order_zero(8)


def test_genfun_detects_wrong_member():
    # a Sheffer rule whose h disagrees with the Bernoulli one
    seq = GradedSeq(ShefferRule(lambda cap: shift_op(1, cap), lambda cap: monomial_op(1, cap)))
    bern = bernoulli_seq()
    assert seq.member(Z, 2, 0) != bern.member(Z, 2, 0)


# -- batched generating-function check and shared associated part -------


def count_calls(monkeypatch, cls, name):
    """Record the receiver of every call to cls.name."""
    calls = []
    original = getattr(cls, name)

    def counting(self, *args):
        calls.append(self)
        return original(self, *args)

    monkeypatch.setattr(cls, name, counting)
    return calls


def test_genfun_check_inverts_once(monkeypatch):
    calls = count_calls(monkeypatch, ArtinOp, "comp_inverse")
    assert laguerre_sheffer_seq(1).genfun_check_order_zero(10)
    assert [f.cap for f in calls] == [10]


@pytest.mark.parametrize("seq", named_sequences())
def test_batched_genfun_coefficients_match_single(seq):
    K = 9
    batched = seq._genfun_coefficients(K)
    assert batched == [seq.genfun_coefficient(k) for k in range(K + 1)]


class PerturbedSeq(GradedSeq):
    """A sequence whose member of one degree, at order (0) unless another
    order is given, is off by a small multiple of its floor term."""

    def __init__(self, rule, bad, order=Z):
        super().__init__(rule)
        self.bad, self.order = bad, order

    def member(self, order, a, floor):
        out = super().member(order, a, floor)
        if order is self.order and a == self.bad:
            out = out + harmonic(order, out.floor, out.floor).scale(F(1, 1000))
        return out


@pytest.mark.parametrize("bad", [0, 4, 8])
def test_genfun_check_rejects_one_wrong_member(bad):
    assert PerturbedSeq(bernoulli_seq().rule, 99).genfun_check_order_zero(8)
    assert not PerturbedSeq(bernoulli_seq().rule, bad).genfun_check_order_zero(8)


def random_power_series(rng, top, low=0):
    return {e: F(rng.randint(-9, 9), rng.randint(1, 9)) for e in range(low, top + 1) if rng.random() < 0.8}


@pytest.mark.parametrize("K", [0, 1, 5, 20])
def test_exp_genfun_rows_match_the_powers_route(K):
    rng = random.Random(2500 + K)
    for _ in range(4):
        # g may reach past y^K; only its terms through K count
        g, u = random_power_series(rng, K + 2), random_power_series(rng, K + 2, low=1)
        assert exp_genfun_coefficients(g, u, K) == exp_genfun_by_powers(g, u, K)
    g = random_power_series(rng, K)
    assert exp_genfun_coefficients(g, {}, K) == exp_genfun_by_powers(g, {}, K)


@pytest.mark.parametrize("K", [0, 1, 5, 20])
def test_exp_genfun_takes_one_product_per_row(monkeypatch, K):
    calls = []
    original = sheffer.convolve
    monkeypatch.setattr(sheffer, "convolve", lambda *args: calls.append(args[2]) or original(*args))
    rng = random.Random(2520 + K)
    exp_genfun_coefficients(random_power_series(rng, K), random_power_series(rng, K, low=1), K)
    assert calls == [K] * K


@pytest.mark.parametrize("K", [-1, -2])
def test_genfun_entry_points_reject_a_negative_cutoff(K):
    message = f"K = {K}"
    with pytest.raises(ValueError, match=message):
        exp_genfun_coefficients({0: F(1)}, {1: F(1)}, K)
    for seq in (bernoulli_seq(), laguerre_sheffer_seq(F(1, 2)), GradedSeq(AssociatedRule(forward_difference))):
        with pytest.raises(ValueError, match=message):
            seq.genfun_coefficient(K)
        with pytest.raises(ValueError, match=message):
            seq.genfun_check_order_zero(K)
    with pytest.raises(ValueError, match=message):
        laguerre_genfun_check(2, K)


def test_associated_part_is_memoised():
    seq = laguerre_sheffer_seq(1)
    assert seq.associated_part() is seq.associated_part()
    assoc = GradedSeq(AssociatedRule(forward_difference))
    assert assoc.associated_part() is assoc


def test_binomial_shift_builds_each_associated_member_once(monkeypatch):
    builds = []
    original = GradedSeq._build

    def counting(self, a, floor):
        builds.append((self.rule, a, floor))
        return original(self, a, floor)

    monkeypatch.setattr(GradedSeq, "_build", counting)
    for seq in (laguerre_sheffer_seq(F(1, 2)), GradedSeq(AssociatedRule(forward_difference)), bernoulli_seq()):
        builds.clear()
        for a in range(-3, 4):
            for z in (1, F(-1, 2)):
                assert seq.check_binomial_shift(G, a, z, a - 6)
        assert builds and len(builds) == len(set(builds))


@pytest.mark.parametrize("make", [bernoulli_seq, lambda: laguerre_sheffer_seq(F(1, 2))])
def test_binomial_shift_reads_associated_members_without_copies(monkeypatch, make):
    # p_b is read where it was built, at generic order down to floor 0, so
    # reading p makes no series but the ones its members' builds make.  (For
    # an associated rule p is the sequence itself, whose members a sweep may
    # have cached deeper than 0: those reads are copies.)
    made = []
    init, build, member = LogSeries.__init__, GradedSeq._build, GradedSeq.member
    monkeypatch.setattr(LogSeries, "__init__", lambda self, *args: made.append(self) or init(self, *args))
    seq = make()
    assoc = seq.associated_part()
    counts = {"build": 0, "read": 0}

    def counting(method, key):
        def wrapped(self, *args):
            before = len(made)
            out = method(self, *args)
            if self is assoc:
                counts[key] += len(made) - before
            return out
        return wrapped

    monkeypatch.setattr(GradedSeq, "_build", counting(build, "build"))
    monkeypatch.setattr(GradedSeq, "member", counting(member, "read"))
    for a in range(-3, 4):
        for z in (1, F(-1, 2)):
            assert seq.check_binomial_shift(G, a, z, a - 6)
    assert counts["build"] > 0
    assert counts["read"] == counts["build"]


# -- one reciprocal per sequence ----------------------------------------


SEQUENCE_MAKERS = [
    bernoulli_seq,
    lambda: hermite_seq(F(1, 2)),
    lambda: laguerre_sheffer_seq(F(1, 2)),
    lambda: GradedSeq(AssociatedRule(forward_difference)),
    lambda: GradedSeq(HarmonicRule()),
]


def has_h(seq):
    return isinstance(seq.rule, (AppellRule, ShefferRule))


@pytest.mark.parametrize("make", SEQUENCE_MAKERS)
def test_genfun_check_members_share_one_reciprocal(monkeypatch, make):
    # G is built from the members' own h**-1: the members add no reciprocal
    K = 10
    recips = count_calls(monkeypatch, ArtinOp, "recip")
    make()._genfun_coefficients(K)
    shared = len(recips)  # inside f_inv and h**-1
    recips.clear()
    assert make().genfun_check_order_zero(K)
    assert len(recips) == shared


@pytest.mark.parametrize("make", SEQUENCE_MAKERS)
def test_identity_sweep_shares_one_reciprocal(monkeypatch, make):
    recips = count_calls(monkeypatch, ArtinOp, "recip")
    seq, d = make(), 8
    for a in range(-d // 2, d // 2 + 1):
        assert seq.check_lowering(G, a, a - d)
        assert seq.check_binomial_shift(G, a, F(3, 2), a - d)
    assert len(recips) == has_h(seq)


def test_expand_and_reconstruct_share_one_reciprocal(monkeypatch):
    recips = count_calls(monkeypatch, ArtinOp, "recip")
    coeffs = bernoulli_seq().expand_operator(bernoulli_j(12), 0)
    assert len(recips) == 1
    assert list(coeffs) == sorted(coeffs)
    recips.clear()
    bernoulli_seq().reconstruct({a: F(1, a + 1) for a in range(10)}, G, -5)
    assert len(recips) == 1


def test_binomial_shift_holds_for_named_sequences():
    for seq in named_sequences():
        for a in (-2, 0, 3):
            for z in (0, 1, F(-2, 3)):
                assert seq.check_binomial_shift(G, a, z, a - 6)


def test_members_from_truncated_reciprocal_match_fresh_ones():
    for make in SEQUENCE_MAKERS:
        warm = make()
        warm.member(G, 4, -12)  # builds h**-1 deeper than the members below
        for order in (G, Z):
            for a in (-3, 0, 2, 5):
                assert warm.member(order, a, a - 5) == make().member(order, a, a - 5)


# -- derived caps: no slack ----------------------------------------------


def build_one_degree_shallower(monkeypatch):
    """Hand out every h and f one degree below the cap asked for."""
    for name in ("delta_op", "invertible_op"):
        original = getattr(GradedSeq, name)
        monkeypatch.setattr(GradedSeq, name, lambda self, cap, op=original: op(self, cap - 1))


def raises_or_false(check, *args):
    try:
        return not check(*args)
    except ValueError:
        return True


@pytest.mark.parametrize("make", SEQUENCE_MAKERS[:4])
def test_caps_one_degree_short_fail_loudly(monkeypatch, make):
    build_one_degree_shallower(monkeypatch)
    with pytest.raises(ValueError):
        make().member(G, 2, -4)
    assert raises_or_false(make().check_lowering, G, 2, -4)
    with pytest.raises(ValueError):
        make().check_biorthogonality(3, 1)
    assert raises_or_false(make().genfun_check_order_zero, 8)


def test_harmonic_caps_one_degree_short_fail_loudly(monkeypatch):
    build_one_degree_shallower(monkeypatch)
    seq = GradedSeq(HarmonicRule())
    assert not seq.check_lowering(G, 2, -4)
    with pytest.raises(ValueError):
        seq.check_biorthogonality(3, 1)


class ShallowSeq(GradedSeq):
    """A sequence whose generic-order member of one degree stops one
    degree above the floor asked for."""

    def __init__(self, rule, bad):
        super().__init__(rule)
        self.bad = bad

    def member(self, order, a, floor):
        out = super().member(order, a, floor)
        return out.truncate(floor + 1) if order is G and a == self.bad else out


@pytest.mark.parametrize("make", SEQUENCE_MAKERS)
def test_checks_reject_a_shallow_member(make):
    rule, a, floor = make().rule, 2, -4
    assert ShallowSeq(rule, 99).check_lowering(G, a, floor)
    assert not ShallowSeq(rule, a).check_lowering(G, a, floor)
    assert not ShallowSeq(rule, a - 1).check_lowering(G, a, floor)
    assert ShallowSeq(rule, 99).check_binomial_shift(G, a, F(3, 2), floor)
    assert not ShallowSeq(rule, a).check_binomial_shift(G, a, F(3, 2), floor)


# -- the checks return bools ---------------------------------------------
# A benchmark accepts a check's output only when it `is True`, so these
# return exactly True or False, never a truthy value.


@pytest.mark.parametrize("make", SEQUENCE_MAKERS)
def test_checks_return_exactly_true_on_good_input(make):
    seq = make()
    assert seq.check_lowering(G, 2, -4) is True
    assert seq.check_binomial_shift(G, 2, F(3, 2), -4) is True
    assert seq.check_biorthogonality(2, 2) is True
    assert seq.check_biorthogonality(3, 1) is True
    assert seq.genfun_check_order_zero(6) is True


@pytest.mark.parametrize("make", SEQUENCE_MAKERS)
def test_checks_return_exactly_false_on_negative_controls(make):
    rule, a, floor = make().rule, 2, -4
    assert ShallowSeq(rule, a).check_lowering(G, a, floor) is False
    assert ShallowSeq(rule, a).check_binomial_shift(G, a, F(3, 2), floor) is False
    assert ShallowSeq(rule, a - 2).check_binomial_shift(G, a, F(3, 2), floor) is False
    assert PerturbedSeq(rule, 4).genfun_check_order_zero(6) is False
    assert PerturbedSeq(rule, 2, G).check_biorthogonality(2, 2) is False
    assert PerturbedSeq(rule, 3, G).check_biorthogonality(3, 1) is False


# -- floor soundness above the operator layer: floor f against f - 25 -----
# Each side is computed on a fresh sequence, so that neither is a
# truncation of a member the other one cached.


def random_coeffs(rng, degrees):
    return {d: F(rng.randint(1, 5) * rng.choice([-1, 1]), rng.randint(1, 4)) for d in degrees}


@pytest.mark.parametrize("order", [G, Z])
@pytest.mark.parametrize("make", SEQUENCE_MAKERS)
def test_floor_soundness_of_member(make, order):
    for a, floor in [(-2, -2), (1, -2), (4, 2), (6, 1)]:
        assert_series_sound(make().member(order, a, floor), make().member(order, a, floor - 25))


@pytest.mark.parametrize("order", [G, Z])
@pytest.mark.parametrize("make", SEQUENCE_MAKERS)
def test_floor_soundness_of_reconstruct(make, order):
    rng = random.Random(1600)
    for floor in (-3, 2):
        coeffs = random_coeffs(rng, range(floor, floor + 5))
        small = make().reconstruct(coeffs, order, floor)
        assert_series_sound(small, make().reconstruct(coeffs, order, floor - 25))


@pytest.mark.parametrize("order", [G, Z])
@pytest.mark.parametrize("make", SEQUENCE_MAKERS)
def test_floor_soundness_of_taylor_coeffs(make, order):
    # the expansion is triangular: terms below a_min, known at a deeper
    # floor, must not change any coefficient from a_min up
    rng = random.Random(1601)
    a_min = -2 if order is G else 2
    p = LogSeries(order, a_min, random_coeffs(rng, range(a_min, a_min + 5)))
    deep_floor = zero_series(order, a_min - 25).floor
    deep = LogSeries(order, deep_floor, {**random_coeffs(rng, range(deep_floor, a_min)), **p.coeffs})
    assert make().taylor_coeffs(p, a_min) == make().taylor_coeffs(deep, a_min)


@pytest.mark.parametrize("make", SEQUENCE_MAKERS)
def test_order_zero_member_is_the_generic_one_from_degree_0(make):
    # lam_d = 0 for d < 0 is all that tells order (0) from generic order;
    # each side is read from its own fresh sequence
    zero, generic = make(), make()
    for a in range(-4, 7):
        for floor in (a, a - 1, a - 5, -9):
            low = max(floor, 0)
            want = LogSeries(Z, low, generic.member(G, a, low).coeffs) if a >= 0 else zero_series(Z, 0)
            assert zero.member(Z, a, floor) == want
