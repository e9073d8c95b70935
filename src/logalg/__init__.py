"""Exact engine for the discrete iterated logarithmic algebra."""

from .roman import roman, roman_coeff, roman_factorial, roman_ratio
from .series import LogSeries, OrderTag, harmonic, zero_series
from .operators import (
    ArtinOp,
    bernoulli_j,
    forward_difference,
    identity_op,
    monomial_op,
    one_minus_d_pow,
    shift_op,
    weierstrass,
)
from .sheffer import (
    AppellRule,
    AssociatedRule,
    GradedSeq,
    HarmonicRule,
    ShefferRule,
)
from .classics import (
    SeqTable,
    bernoulli_member,
    bernoulli_number,
    bernoulli_seq,
    emit_table,
    hermite_closed_form,
    hermite_member,
    hermite_number,
    hermite_seq,
    laguerre_genfun_check,
    laguerre_member,
    laguerre_sheffer_seq,
    residual_bernoulli,
)
from .eulermac import (
    EMReport,
    em_apply,
    em_operator_residual,
    harmonic_identity,
    lambda_sum_closed_form,
    stirling_identity,
)
from .numeric import eval_lambda, eval_series, finite_diff_check

__version__ = "0.1.0"
