"""Independent brute-force oracles shared across test modules."""

import math
import sys
from fractions import Fraction
from itertools import islice
from math import comb, factorial

from logalg.classics import bernoulli_number
from logalg.operators import ArtinOp, convolve, identity_op, powers
from logalg.roman import roman, roman_coeff, roman_ratio
from logalg.series import LogSeries, OrderTag, harmonic, zero_series


def profiled(fn, codes: dict, counts: dict[str, int]):
    """fn()'s result.  Each call fn makes of a function whose code object
    is a key of ``codes`` adds one to ``counts[codes[code]]``, counted by
    a profile hook."""

    def hook(frame, event, arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                counts[name] += 1

    sys.setprofile(hook)
    try:
        return fn()
    finally:
        sys.setprofile(None)


def agrees(p: LogSeries, q: LogSeries) -> bool:
    """Exact coefficient agreement on the region where both are exact."""
    if p.order is not q.order:
        return False
    fl = max(p.floor, q.floor)
    left = {d: c for d, c in p.coeffs.items() if d >= fl}
    right = {d: c for d, c in q.coeffs.items() if d >= fl}
    return left == right


def assert_series_sound(small, big):
    """The shallower result claims no more than the deeper one, and equals
    it wherever it claims to be exact."""
    assert small.floor >= big.floor
    assert small == big.truncate(small.floor)


def classical_bernoulli(n):
    """B_0..B_n by the classical recurrence sum_k C(n+1,k) B_k = 0."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        out.append(-sum(Fraction(comb(m + 1, k)) * out[k] for k in range(m)) / (m + 1))
    return out


def first_omitted_term_bound_by_cases(x, n, order_cutoff, *, log_case=False):
    """The first nonzero Bernoulli term beyond the cutoff, times 10, by the
    hand-written derivative of 1/t or of log t at x and X = x + n + 1
    (the log case needs k >= 2)."""
    k = order_cutoff + 1
    while bernoulli_number(k) == 0:
        k += 1
    w = abs(float(bernoulli_number(k))) / factorial(k)
    X = x + n + 1
    if log_case:
        deriv = factorial(k - 2)
        scale = x ** -(k - 1) + X ** -(k - 1)
    else:
        deriv = factorial(k - 1)
        scale = x**-k + X**-k
    return 10.0 * w * deriv * scale


def gen_binomial(r, k):
    """Generalized binomial coefficient C(r, k) for rational r, integer
    k >= 0, as the product r (r-1) ... (r-k+1) / k!."""
    r = Fraction(r)
    out = Fraction(1)
    for i in range(k):
        out *= r - i
    return out / factorial(k)


def one_minus_d_pow_by_binomials(r, cap):
    """(1 - D)**r with each coefficient C(r, k) (-1)^k from scratch: the
    construction the term ratio replaced."""
    return ArtinOp(cap, {k: gen_binomial(r, k) * (-1) ** k for k in range(cap + 1)})


def comp_inverse_by_compose(f):
    """Compositional inverse of a delta operator, one coefficient at a
    time: with g known below degree m, the degree-m coefficient of f(g)
    is linear in g_m.  The direct solve that Lagrange inversion replaced."""
    f1 = f.coeffs[1]
    g = {1: 1 / f1}
    for m in range(2, f.cap + 1):
        comp = f.compose(ArtinOp(m, g))
        g[m] = -comp.coeffs.get(m, Fraction(0)) / f1
    return ArtinOp(f.cap, g)


def shift_by_roman_coeff(p, z):
    """E^z p as the direct sum E^z lam_a = sum_k rc(a,k) z^k lam_{a-k},
    each Roman coefficient computed from scratch."""
    z = Fraction(z)
    if z == 0:
        return p
    out = {}
    for a, c in p.coeffs.items():
        for k in range(a - p.floor + 1):
            out[a - k] = out.get(a - k, Fraction(0)) + c * roman_coeff(a, k) * z**k
    return LogSeries(p.order, p.floor, out)


def derivative_by_roman(p):
    """D p by D lam_d = roman(d) lam_{d-1}, the negative degree dropped at
    polynomial order: the loop that became ``apply`` of D."""
    out = {d - 1: roman(d) * c for d, c in p.coeffs.items()}
    if p.order is OrderTag.ZERO:
        out.pop(-1, None)
    return LogSeries(p.order, p.floor - 1, out)


def antiderivative_by_roman(p):
    """D**-1 p by D**-1 lam_d = lam_{d+1} / roman(d+1), generic order
    only: the loop that became ``apply`` of D**-1."""
    if p.order is OrderTag.ZERO:
        raise ValueError("D is not invertible on polynomial-order series")
    return LogSeries(p.order, p.floor + 1, {d + 1: c / roman(d + 1) for d, c in p.coeffs.items()})


def shift_sum_by_shifts(p: LogSeries, n: int) -> LogSeries:
    """The direct sum p + E p + ... + E^n p, one shift per term: the
    n + 1 applies and n additions that the one power-sum operator replaced."""
    return sum((p.shift(j) for j in range(n + 1)), zero_series(p.order, p.floor))


def em_apply_by_terms(p, n, weights):
    """sum_{j=0..n} E^j p minus [w_0 (E^{n+1}-I) D**-1 p + sum_{k=1..K}
    w_k (E^{n+1}-I) D^{k-1} p], with w_k = weights[k] (B_k/k! unless a
    test perturbs them) and K = len(weights) - 1: one derivative and one
    shift pair per k, the term-by-term sum the weight operator replaced.
    Kept down to top(p) - K + 1, where the terms beyond K start; as E and
    D read only degrees at or above the one they write, D**-1 p and each
    D^{k-1} p are cut there before they are shifted."""
    top = p.top_degree()
    cut = p.floor if top is None else top - len(weights) + 2
    lhs = zero_series(p.order, p.floor)
    for j in range(n + 1):
        lhs = lhs + shift_by_roman_coeff(p, j)
    anti = antiderivative_by_roman(p).scale(weights[0]).truncate(cut)
    rhs = shift_by_roman_coeff(anti, n + 1) - anti
    q = p
    for w in weights[1:]:
        q = q.truncate(cut)
        rhs = rhs + (shift_by_roman_coeff(q, n + 1) - q).scale(w)
        q = derivative_by_roman(q)
    return (lhs - rhs).truncate(cut)


def convolve_by_fractions(a, b, cap):
    """Truncated Cauchy product term by term in Fraction arithmetic: the
    loop the integer-numerator kernel replaced."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if e <= cap:
                out[e] = out.get(e, 0) + Fraction(c1) * Fraction(c2)
    return {e: c for e, c in out.items() if c != 0}


def exp_genfun_by_powers(g, u, K):
    """The y^k coefficients, 0 <= k <= K, of g(y) exp(x u(y)) as order-(0)
    series in x, from the powers of u and one product by g per power:
    the 2K + 1 products that one product per row replaced."""
    # rows[n][k]: coefficient of y^k in g(y) u(y)^n
    rows = [convolve(g, power, K) for power in islice(powers(u, K), K + 1)]
    return [
        LogSeries(OrderTag.ZERO, 0, {n: row[k] / factorial(n) for n, row in enumerate(rows) if k in row})
        for k in range(K + 1)
    ]


def pow_by_fraction_miller(op, n):
    """op**n by Miller's recurrence m b_m = sum_k ((n+1) k - m) g_k b_{m-k}
    on Fractions, one reduction per term: the loop the integer form
    replaced.  Same cap rule as ``ArtinOp.__pow__``."""
    if op.is_zero():
        if n < 0:
            raise ValueError("the zero operator has no reciprocal")
        return identity_op(op.cap) if n == 0 else ArtinOp(n * (op.cap + 1) - 1, {})
    lead = op.lead
    terms = op.cap - lead
    c0 = op.coeffs[lead]
    g = {e - lead: c / c0 for e, c in op.coeffs.items() if e != lead}
    b = [Fraction(1)]
    for m in range(1, terms + 1):
        acc = sum(((n + 1) * k - m) * gk * b[m - k] for k, gk in g.items() if k <= m)
        b.append(Fraction(acc) / m)
    base = n * lead
    return ArtinOp(base + terms, {base + m: c0**n * bm for m, bm in enumerate(b)})


def recip_by_division(op):
    """Multiplicative inverse by recursive division of truncated series:
    b_0 = 1, b_m = -sum_{i=1..m} a_i b_{m-i} on the normalised series."""
    if op.is_zero():
        raise ValueError("the zero operator has no reciprocal")
    lead = op.lead
    c0 = op.coeffs[lead]
    n_terms = op.cap - lead
    a = [op.coeffs.get(lead + i, Fraction(0)) / c0 for i in range(n_terms + 1)]
    b = [Fraction(1)] + [Fraction(0)] * n_terms
    for m in range(1, n_terms + 1):
        b[m] = -sum(a[i] * b[m - i] for i in range(1, m + 1))
    return ArtinOp(op.cap - 2 * lead, {-lead + m: b[m] / c0 for m in range(n_terms + 1)})


def pow_by_squaring(op, n):
    """op**n by binary powering from the identity, through
    recip_by_division for negative n: the power Miller's recurrence
    replaced."""
    if n < 0:
        return pow_by_squaring(recip_by_division(op), -n)
    result = identity_op(op.cap - (op.lead if not op.is_zero() else 0))
    base = op
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def apply_by_roman_ratio(op, p):
    """The action (Ap)_m = sum_k c_k rr(m+k, m) p_{m+k}, each Roman ratio
    computed from scratch.  A zero operator counts as having lead cap + 1,
    its first possibly nonzero term."""
    lead = op.cap + 1 if op.is_zero() else op.lead
    if p.order is OrderTag.ZERO and lead < 0:
        raise ValueError("negative powers of D do not act on polynomial-order series")
    top = p.top_degree()
    if top is None:
        return LogSeries(p.order, p.floor - lead, {})
    floor = max(p.floor - lead, top - op.cap)
    out = {}
    for k, ck in op.coeffs.items():
        for d, cd in p.coeffs.items():
            m = d - k
            if m >= floor:
                out[m] = out.get(m, Fraction(0)) + ck * cd * roman_ratio(d, m)
    if p.order is OrderTag.ZERO:
        out = {d: c for d, c in out.items() if d >= 0}
    return LogSeries(p.order, floor, out)


def laguerre_by_terms(order, a, b, floor):
    """The Laguerre closed form sum_k C(a+b,k) rf(a)/rf(a-k) (-1)^{a-k}
    lam_{a-k}, each term from a generalised binomial and a Roman ratio."""
    b = Fraction(b)
    if order is OrderTag.ZERO and a < 0:
        return zero_series(order, floor)
    out = zero_series(order, floor)
    for k in range(a - floor + 1):
        c = gen_binomial(a + b, k) * roman_ratio(a, a - k) * (-1) ** ((a - k) % 2)
        if c != 0:
            out = out + harmonic(order, a - k, floor).scale(c)
    return out


def hermite_by_series_sum(order, a, floor, sigma):
    """Direct sum H_a = sum_k (-sigma)^k rf(a)/(k! rf(a-2k)) lam_{a-2k},
    one one-term series per k."""
    sigma = Fraction(sigma)
    out = zero_series(order, floor)
    coef = Fraction(1)
    k = 0
    while a - 2 * k >= floor:
        term = harmonic(order, a - 2 * k, floor)
        out = out + term.scale(coef * roman_ratio(a, a - 2 * k))
        k += 1
        coef *= -sigma / k
    return out


def appell_from_constants(constants, order, a, floor):
    """Build an Appell member from its sequence of numbers
    c_b = <(0)| p_b^{(0)} >:  p_a = sum_b rc(a,b) c_b lam_{a-b}."""
    out = zero_series(order, floor)
    for b, cb in constants.items():
        if b < 0:
            raise ValueError("constants are indexed by b >= 0")
        if a - b >= floor:
            term = harmonic(order, a - b, floor)
            out = out + term.scale(roman_coeff(a, b) * Fraction(cb))
    return out


def harmonic_rhs_by_derivatives(x, n, order_cutoff):
    """The Euler-MacLaurin right side for 1/t from its hand-derived
    derivatives: log X - log x plus sum_j (B_j/j!) f^(j-1) at X minus at
    x, X = x + n + 1, in floats."""
    w = [b / factorial(k) for k, b in enumerate(classical_bernoulli(order_cutoff))]
    xf, Xf = float(x), float(x + n + 1)
    rhs = math.log(Xf) - math.log(xf)  # B_0 term: the integral of 1/t
    for j in range(1, order_cutoff + 1):
        # (d/dt)^{j-1} (1/t) = (-1)^{j-1} (j-1)! t^-j
        deriv = (-1.0) ** (j - 1) * factorial(j - 1)
        rhs += float(w[j]) * deriv * (Xf**-j - xf**-j)
    return rhs


def stirling_rhs_by_derivatives(x, n, order_cutoff):
    """The Euler-MacLaurin right side for log t from its hand-derived
    derivatives: X log X - x log x - (n + 1), the B_1 term, and
    sum_j (B_j/j!) f^(j-1) at X minus at x, X = x + n + 1, in floats."""
    w = [b / factorial(k) for k, b in enumerate(classical_bernoulli(order_cutoff))]
    xf, Xf = float(x), float(x + n + 1)
    rhs = Xf * math.log(Xf) - xf * math.log(xf) - (n + 1)  # B_0: integral of log t
    if order_cutoff >= 1:
        rhs += float(w[1]) * (math.log(Xf) - math.log(xf))
    for j in range(2, order_cutoff + 1):
        # (d/dt)^{j-1} log t = (-1)^j (j-2)! t^{-(j-1)}
        deriv = (-1.0) ** j * factorial(j - 2)
        rhs += float(w[j]) * deriv * (Xf ** -(j - 1) - xf ** -(j - 1))
    return rhs
