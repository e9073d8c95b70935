"""Hypothesis fuzzing of the CLI's JSON and rational inputs, in process
through ``cli.main``: every run ends in exit 0, 1 or 2, and no exception
escapes.  Degrees, depths and counts are small, so that the runs stay
fast, or just beyond the CLI's input budget, where they must be rejected
before any work is done."""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

from logalg.cli import MAX_DEGREE, MAX_N, MAX_ORDER, MAX_SPAN, main

FUZZ = settings(derandomize=True, deadline=None, database=None)

SMALL = st.integers(-6, 6)
# beyond the budget: the maximum + 1, and 1e6 as an integral float
FAR = st.sampled_from([MAX_DEGREE + 1, -MAX_DEGREE - 1, 1e6, -1e6])
SPECIAL = st.sampled_from(
    ["0", "-0", "1/0", "0/0", "1/-2", "nan", "inf", "-inf", "1e400", "1e-400", "1e-300",
     "1e4301", "1_0", " 3/4 ", "", "x", "2.5e-3", "-7/3", "٣"]
)
ORDINARY = st.one_of(
    st.fractions(min_value=Fraction(1, 100), max_value=1000, max_denominator=100).map(str),
    st.integers(-10**6, 10**6).map(str),
    st.tuples(st.integers(-99, 99), st.integers(-9, 99)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.tuples(st.integers(-99, 99), st.integers(0, 99), st.integers(-500, 500)).map(
        lambda t: f"{t[0]}.{t[1]}e{t[2]}"
    ),
    st.text(max_size=8),
)
# about half of the draws are the edge cases (one_of alone would flatten)
RATIONAL_TEXT = st.booleans().flatmap(lambda edge: SPECIAL if edge else ORDINARY)
JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), SMALL, st.floats(-8, 8), st.floats(allow_nan=False), RATIONAL_TEXT
)
DEGREE = st.one_of(SMALL, SMALL.map(float), FAR, st.floats(-8, 8), st.booleans(), st.text(max_size=3))
JUNK_SERIES = st.fixed_dictionaries(
    {
        "order": st.one_of(st.sampled_from(["zero", "generic"]), JSON_SCALAR),
        "floor": DEGREE,
        "coeffs": st.lists(
            st.one_of(st.tuples(DEGREE, JSON_SCALAR).map(list), JSON_SCALAR), max_size=6
        ),
    }
)
COEFF = st.one_of(st.integers(-50, 50), st.fractions(max_denominator=50).map(str), RATIONAL_TEXT)


@st.composite
def well_formed_series(draw):
    """A series whose degrees lie at or above its floor; its coefficients
    may still be malformed text."""
    floor = draw(st.integers(-6, 3))
    degrees = draw(st.lists(st.integers(floor, floor + 6), max_size=6))
    if draw(st.integers(0, 7)) == 0:  # a degree beyond the budget, or one past the span
        degrees.append(draw(st.one_of(FAR.filter(lambda d: d > floor), st.just(floor + MAX_SPAN + 1))))
    order = draw(st.sampled_from(["zero", "generic"]))
    coeffs = [[d, draw(COEFF)] for d in degrees]
    return {"order": order, "floor": floor, "coeffs": coeffs}


SERIES_TEXT = st.one_of(  # well-formed twice, so that most draws reach the expansion
    well_formed_series().map(json.dumps),
    well_formed_series().map(json.dumps),
    JUNK_SERIES.map(json.dumps),
    st.recursive(JSON_SCALAR, lambda inner: st.lists(inner, max_size=3), max_leaves=6).map(json.dumps),
    st.text(max_size=12),
)
BASIS = st.sampled_from(["bernoulli", "hermite", "laguerre", "harmonic"])


def assert_clean_exit(argv):
    """Run the CLI in process and require exit 0, 1 or 2; argparse's own
    usage errors exit through SystemExit."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    event(f"exit {code}")


@settings(FUZZ, max_examples=50)
@given(series=SERIES_TEXT, basis=BASIS, amin=st.one_of(SMALL, st.just(-MAX_DEGREE - 1)))
def test_fuzz_expand_series(series, basis, amin):
    assert_clean_exit(["expand", "--basis", basis, f"--series={series}", f"--amin={amin}"])


@settings(FUZZ, max_examples=40)
@given(obj=well_formed_series(), x=st.one_of(st.floats(0.5, 50), st.floats(allow_nan=True)))
def test_fuzz_eval_series(obj, x):
    level = "0" if obj["order"] == "zero" else "1"
    assert_clean_exit(["eval", f"--series={json.dumps(obj)}", "--level", level, f"--x={x!r}"])


@settings(FUZZ, max_examples=50)
@given(
    kind=st.sampled_from(["harmonic", "stirling"]),
    x=RATIONAL_TEXT,
    n=st.one_of(st.integers(-2, 30), st.just(MAX_N + 1)),
    order=st.one_of(st.integers(-1, 12), st.just(MAX_ORDER + 1)),
)
def test_fuzz_sum_x(kind, x, n, order):
    assert_clean_exit(["sum", kind, f"--x={x}", f"--n={n}", f"--order={order}"])


@settings(FUZZ, max_examples=60)
@given(
    command=st.sampled_from(["table", "expand", "sheffer", "genfun"]),
    seq=BASIS,
    sigma=RATIONAL_TEXT,
    grade=RATIONAL_TEXT,
    depth=st.one_of(st.integers(1, 4), st.just(MAX_SPAN + 1)),
)
def test_fuzz_sigma_and_grade(command, seq, sigma, grade, depth):
    flags = [f"--sigma={sigma}", f"--grade={grade}"]
    if command == "table":
        argv = ["table", seq, "--from=-1", "--to=1", f"--depth={depth}", *flags]
    elif command == "expand":
        argv = ["expand", "--basis", seq, "--series", '{"order": "generic", "floor": -3,'
                ' "coeffs": [[1, "1/2"], [-2, 3]]}', "--amin=-3", *flags]
    else:
        argv = ["verify", command, "--seq", seq, f"--depth={depth}", *flags]
    assert_clean_exit(argv)
