"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail
line (bypassing pytest's capture so the lines always appear).  Symbolic
criteria assert exact rational equality; the numeric summation criteria
compare against independent oracles at thresholds derived from the
first omitted series term.
"""

import json
import random
from fractions import Fraction
from math import factorial

import pytest

from logalg.classics import (
    bernoulli_member,
    bernoulli_seq,
    hermite_closed_form,
    hermite_member,
    hermite_number,
    laguerre_genfun_check,
    laguerre_member,
    laguerre_sheffer_seq,
)
from logalg.cli import main
from logalg.eulermac import (
    em_operator_residual,
    harmonic_identity,
    lambda_sum_closed_form,
    stirling_identity,
)
from logalg.numeric import finite_diff_check
from logalg.operators import ArtinOp, forward_difference, monomial_op
from logalg.roman import roman, roman_coeff, roman_factorial
from logalg.series import LogSeries, OrderTag, harmonic
from logalg.sheffer import AssociatedRule, GradedSeq, HarmonicRule
from oracles import agrees, appell_from_constants, classical_bernoulli

F = Fraction
G, Z = OrderTag.GENERIC, OrderTag.ZERO

BERNOULLI_TABLE = {
    -2: {-2: "1", -3: "1", -4: "1/2", -6: "-1/6", -8: "1/6"},
    -1: {-1: "1", -2: "1/2", -3: "1/6", -5: "-1/30", -7: "1/42"},
    0: {0: "1", -1: "-1/2", -2: "-1/12", -4: "1/120", -6: "-1/252"},
    1: {1: "1", 0: "-1/2", -1: "1/12", -3: "-1/360", -5: "1/1260"},
    2: {2: "1", 1: "-1", 0: "1/6", -2: "1/360", -4: "-1/2520"},
}

HERMITE_TABLE = {
    -2: {-2: F(1), -4: F(-6), -6: F(60), -8: F(-840)},
    -1: {-1: F(1), -3: F(-2), -5: F(12), -7: F(-120)},
    0: {0: F(1), -2: F(1), -4: F(-3), -6: F(20)},
    1: {1: F(1), -1: F(-1), -3: F(1), -5: F(-4)},
    2: {2: F(1), 0: F(-2), -2: F(-1), -4: F(2)},
}


@pytest.fixture
def report(capsys):
    def _report(num, name, ok):
        with capsys.disabled():
            print(f"acceptance criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
        assert ok, f"criterion {num} ({name}) failed"

    return _report


def test_criterion_1_bernoulli_table(report, capsys):
    code = main(["table", "bernoulli", "--from", "-2", "--to", "2", "--depth", "8"])
    obj = json.loads(capsys.readouterr().out)
    ok = code == 0
    rows = {row["a"]: {d: c for d, c in row["series"]["coeffs"]} for row in obj["rows"]}
    count = 0
    for a, want in BERNOULLI_TABLE.items():
        for d, c in want.items():
            ok &= rows[a].get(d) == c
            count += 1
        # no spurious nonzero entries within the printed depth
        ok &= all(d in want for d in rows[a] if d >= min(want))
    ok &= count >= 25
    report(1, "bernoulli table", ok)


def test_criterion_2_residual_series(report):
    got = bernoulli_member(G, -1, -7)
    want = {-1: F(1), -2: F(1, 2), -3: F(1, 6), -5: F(-1, 30), -7: F(1, 42)}
    report(2, "residual series", got.coeffs == want)


def test_criterion_3_hermite_table_and_scaling(report):
    ok = True
    for a, want in HERMITE_TABLE.items():
        got = hermite_member(G, a, a - 7, sigma=1)
        ok &= got.truncate(min(want)).coeffs == want
    for a in range(-4, 5):
        half = hermite_member(G, a, a - 8, F(1, 2))
        ok &= half == hermite_closed_form(G, a, a - 8, F(1, 2))
        full = hermite_member(G, a, a - 8, 1)
        ok &= all(full.coeff(a - 2 * k) == 2**k * half.coeff(a - 2 * k) for k in range(5))
    report(3, "hermite table / sigma scaling", ok)


def test_criterion_4_hermite_negative_coefficients(report):
    ok = True
    for n in (-1, -2, -3):
        m = hermite_member(G, n, n - 10, F(1, 2))
        for k in range(6):
            want = F((-1) ** k, 2**k) * F(
                factorial(2 * k - n - 1), factorial(k) * factorial(-n - 1)
            )
            ok &= m.coeff(n - 2 * k) == want
    report(4, "hermite negative-degree closed form", ok)


def test_criterion_5_em_operator_identity(report):
    ok = all(em_operator_residual(K).symbolic_ok for K in range(1, 13))
    # negative control: the check must be able to fail
    ok &= not em_operator_residual(6, omit_linear_term=True).symbolic_ok
    report(5, "Euler-MacLaurin operator identity", ok)


def test_criterion_6_harmonic_summation(report):
    lhs, _, err, bound = harmonic_identity(10, 89, 6)
    ok = lhs == sum(F(1, 10 + j) for j in range(90))
    ok &= err < 1e-8
    ok &= err <= bound
    errs = [harmonic_identity(x, 89, 6)[2] for x in (2, 5, 10, 20)]
    ok &= all(a > b for a, b in zip(errs, errs[1:]))
    report(6, "harmonic summation", ok)


def test_criterion_7_stirling_summation(report):
    lhs, _, err, bound = stirling_identity(10, 89, 6)
    ok = err / abs(lhs) < 1e-9
    ok &= err <= bound
    report(7, "stirling summation", ok)


def test_criterion_8_telescoping_sum(report):
    ok = True
    for order in (G, Z):
        for a in range(-3, 4):
            for k in (0, 1, 2, 5):
                direct, closed = lambda_sum_closed_form(order, a, k, a - 6)
                ok &= direct == closed
    report(8, "telescoping lambda-sum", ok)


def _random_series(rng, floor_min=-7, top_max=4):
    floor = rng.randint(floor_min, -1)
    top = rng.randint(floor + 1, top_max)
    coeffs = {top: F(1)}
    for d in range(floor, top):
        if rng.random() < 0.6:
            coeffs[d] = F(rng.randint(-6, 6), rng.randint(1, 6))
    return LogSeries(G, floor, coeffs)


def _random_delta(rng, cap):
    coeffs = {1: F(1)}
    for k in range(2, cap + 1):
        coeffs[k] = F(rng.randint(-4, 4), rng.randint(1, 5))
    return ArtinOp(cap, coeffs)


def test_criterion_9_property_suites(report):
    rng = random.Random(2024)
    ok = True
    seqs = [
        GradedSeq(HarmonicRule()),
        bernoulli_seq(),
        GradedSeq(AssociatedRule(forward_difference)),
        laguerre_sheffer_seq(0),
    ]

    # lowering
    for _ in range(100):
        seq, a = rng.choice(seqs), rng.randint(-5, 5)
        ok &= seq.check_lowering(G, a, a - 5)

    # binomial shift
    for _ in range(100):
        seq, a = rng.choice(seqs), rng.randint(-4, 4)
        z = F(rng.randint(-3, 3), rng.randint(1, 3))
        ok &= seq.check_binomial_shift(G, a, z, a - 5)

    # biorthogonality grid
    cases = 0
    for seq in seqs:
        for a in range(-3, 3):
            for b in range(0, 5):
                ok &= seq.check_biorthogonality(a, b)
                cases += 1
    assert cases >= 100

    # Taylor round-trip
    for _ in range(100):
        seq, p = rng.choice(seqs), _random_series(rng)
        coeffs = seq.taylor_coeffs(p, p.floor)
        ok &= agrees(seq.reconstruct(coeffs, G, p.floor), p)

    # operator-expansion reconstruction
    for _ in range(100):
        seq = rng.choice(seqs)
        cap = 4
        target = ArtinOp(cap, {k: F(rng.randint(-3, 3), rng.randint(1, 4)) for k in range(cap + 1)})
        if target.is_zero():
            continue
        d = seq.expand_operator(target, -3)
        b = rng.choice((-2, 0, 1))
        lam = harmonic(G, b, b - 3)
        want = target.apply(lam)
        got = LogSeries(G, want.floor, {})
        for a, da in d.items():
            got = got + seq.expansion_basis_op(a, cap + 5).apply(lam).scale(da)
        ok &= agrees(got.truncate(want.floor), want)

    # Appell closed formula vs operator construction
    bern_numbers = {k: b for k, b in enumerate(classical_bernoulli(14))}
    herm_numbers = {k: hermite_number(k) for k in range(15)}
    from logalg.classics import hermite_seq

    appell_pairs = [(bernoulli_seq(), bern_numbers), (hermite_seq(F(1, 2)), herm_numbers)]
    for _ in range(100):
        seq, numbers = rng.choice(appell_pairs)
        a = rng.randint(-4, 4)
        floor = a - rng.randint(2, 8)
        ok &= agrees(appell_from_constants(numbers, G, a, floor), seq.member(G, a, floor))

    # transfer formula vs Laguerre closed form (up to the sign convention)
    for _ in range(100):
        b = F(rng.randint(0, 6), rng.choice((1, 1, 2)))
        a = rng.randint(-3, 4)
        via_op = laguerre_sheffer_seq(b).member(G, a, a - 5)
        ok &= via_op == laguerre_member(G, a, b, a - 5).scale(F((-1) ** (a % 2)))

    # compositional inverse round-trips
    for _ in range(100):
        f = _random_delta(rng, 6)
        g = f.comp_inverse()
        x = monomial_op(1, 6)
        fg = f.compose(g)
        gf = g.compose(f)
        ok &= {e: c for e, c in fg.coeffs.items() if e <= fg.cap} == {1: F(1)}
        ok &= {e: c for e, c in gf.coeffs.items() if e <= gf.cap} == {1: F(1)}

    # generating functions at order (0) through y^8
    for seq in (bernoulli_seq(), GradedSeq(AssociatedRule(forward_difference))):
        ok &= seq.genfun_check_order_zero(8)
    for grade in (0, 1, 2):
        ok &= laguerre_genfun_check(grade, 8)

    report(9, "randomized property suites", ok)


def test_criterion_10_roman_arithmetic(report):
    ok = True
    for n in range(-12, 13):
        ok &= roman_factorial(n) == roman(n) * roman_factorial(n - 1)
        if n < 0:
            ok &= roman_factorial(n) == F((-1) ** (-n - 1), factorial(-n - 1))
    for a in range(-12, 13):
        for b in range(-12, 13):
            ok &= roman_coeff(a, b) == roman_coeff(a, a - b)
    report(10, "roman arithmetic", ok)


def test_criterion_11_numeric_finite_differences(report):
    h = 1e-4
    ok = all(
        finite_diff_check(level, n, x, h) < 100 * h * h
        for level in (0, 1)
        for n in range(-4, 5)
        for x in (2.0, 5.0, 10.0)
    )
    report(11, "level-1 finite differences", ok)
