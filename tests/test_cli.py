import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from logalg.cli import MAX_DEGREE, MAX_DIGITS, MAX_N, MAX_ORDER, MAX_SPAN, main
from logalg.series import LogSeries, OrderTag, harmonic

F = Fraction

LAM2 = harmonic(OrderTag.GENERIC, 2, -8).to_json()
ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "perfbench" / "cli_catalogue.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- table ---------------------------------------------------------------


def test_table_bernoulli_json(capsys):
    code, out, _ = run(capsys, "table", "bernoulli", "--from", "-1", "--to", "1", "--depth", "7")
    assert code == 0
    obj = json.loads(out)
    assert obj["rule"] == "bernoulli"
    rows = {row["a"]: row["series"] for row in obj["rows"]}
    residual = dict((d, c) for d, c in rows[-1]["coeffs"])
    assert residual == {-1: "1", -2: "1/2", -3: "1/6", -5: "-1/30", -7: "1/42"}


def test_table_latex_format(capsys):
    code, out, _ = run(capsys, "table", "bernoulli", "--format", "latex")
    assert code == 0
    assert r"\begin{array}" in out and r"\lambda" in out


def test_table_is_deterministic(capsys):
    first = run(capsys, "table", "hermite", "--depth", "6")
    second = run(capsys, "table", "hermite", "--depth", "6")
    assert first == second


def test_table_usage_error_exit_2(capsys):
    code, _, err = run(capsys, "table", "bernoulli", "--from", "3", "--to", "1")
    assert code == 2
    assert "error" in err


# -- expand --------------------------------------------------------------


def test_expand_lambda2_in_bernoulli_basis(capsys):
    code, out, _ = run(capsys, "expand", "--basis", "bernoulli", "--series", LAM2, "--amin", "-1")
    assert code == 0
    assert json.loads(out) == [[2, "1"], [1, "1"], [0, "1/3"], [-1, "1/12"]]


def test_expand_in_harmonic_basis_is_identity(capsys):
    code, out, _ = run(capsys, "expand", "--basis", "harmonic", "--series", LAM2, "--amin", "-2")
    assert code == 0
    assert json.loads(out) == [[2, "1"]]


def test_expand_bad_json_exit_2(capsys):
    code, _, _ = run(capsys, "expand", "--basis", "bernoulli", "--series", "{}", "--amin", "0")
    assert code == 2


@pytest.mark.parametrize(
    "series",
    [
        '{"order": "generic", "floor": -2, "coeffs": [[1, "1/0"]]}',
        '{"order": "generic", "floor": 1e400, "coeffs": [[1, "1"]]}',
        '{"order": "generic", "floor": -2.9, "coeffs": [[1, "1"]]}',
        '{"order": "generic", "floor": -2, "coeffs": [[1.7, "1"]]}',
        '{"order": "generic", "floor": -2, "coeffs": [[1, 0.1]]}',
        '{"order": "generic", "floor": true, "coeffs": [[1, "1"]]}',
        '{"order": "generic", "floor": -2, "coeffs": [[true, "1"]]}',
        '{"order": "generic", "floor": -2, "coeffs": [[1, true]]}',
        '{"order": "generic", "floor": -6, "coeffs": [[2, "1e10000"], [1, "1/3"]]}',
        '{"order": "generic", "floor": -2, "coeffs": [[1, "1e4300"]]}',
        '{"order": "generic", "floor": -2, "coeffs": [[1, "123e4298"]]}',
    ],
)
@pytest.mark.parametrize("command", ["expand", "eval"])
def test_malformed_series_exit_2(capsys, series, command):
    # each must be rejected, neither raised as a traceback (exit 1) nor coerced
    args = ["--basis", "bernoulli", "--amin", "0"] if command == "expand" else ["--level", "1", "--x", "2"]
    code, out, err = run(capsys, command, "--series", series, *args)
    assert code == 2
    assert out == ""
    assert "malformed series" in err


# -- verify --------------------------------------------------------------


@pytest.mark.parametrize("what", ["em", "sheffer", "genfun"])
@pytest.mark.parametrize("depth", ["0", "-3", "-1"])
def test_verify_depth_below_one_rejected(capsys, what, depth):
    # depth 0 would print nothing (em) or a pass after comparing one coefficient
    # (sheffer); a negative genfun depth would print a pass after checking nothing
    seqs = ["bernoulli", "laguerre", "assoc-delta"] if what == "genfun" else ["bernoulli"]
    for seq in seqs:
        code, out, err = run(capsys, "verify", what, f"--depth={depth}", "--seq", seq)
        assert code == 2
        assert out == ""
        assert "--depth" in err


def test_verify_em_passes(capsys):
    code, out, _ = run(capsys, "verify", "em", "--depth", "10")
    assert code == 0
    assert out.count("pass") == 10 and "FAIL" not in out


def test_verify_em_corrupt_fails(capsys):
    code, out, _ = run(capsys, "verify", "em", "--depth", "4", "--corrupt")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("seq", ["bernoulli", "hermite", "laguerre", "harmonic", "assoc-delta"])
def test_verify_sheffer_sequences(capsys, seq):
    code, out, _ = run(capsys, "verify", "sheffer", "--seq", seq, "--depth", "6")
    assert code == 0
    assert out.splitlines() == [f"sheffer identities ({seq}, a={a}): pass" for a in range(-3, 4)]


def test_verify_sheffer_corrupt_exit_1(capsys):
    code, out, _ = run(capsys, "verify", "sheffer", "--seq", "assoc-delta", "--depth", "4", "--corrupt")
    assert code == 1
    assert out.count("FAIL") == 5


@pytest.mark.parametrize("seq", ["bernoulli", "laguerre", "assoc-delta", "harmonic"])
def test_verify_genfun(capsys, seq):
    code, out, _ = run(capsys, "verify", "genfun", "--seq", seq, "--depth", "8")
    assert code == 0
    assert "pass" in out


def test_verify_genfun_corrupt_exit_1(capsys):
    code, _, _ = run(capsys, "verify", "genfun", "--corrupt")
    assert code == 1


@pytest.mark.parametrize("grade", ["1/2", "-1/2", "3/4"])
def test_verify_genfun_laguerre_rejects_fractional_grade(capsys, grade):
    # a fractional grade used to be truncated to an integer and reported as pass
    code, out, err = run(capsys, "verify", "genfun", "--seq", "laguerre", f"--grade={grade}")
    assert code == 2
    assert "pass" not in out
    assert "integer grade" in err


def test_verify_genfun_laguerre_integer_grade_passes(capsys):
    code, out, _ = run(capsys, "verify", "genfun", "--seq", "laguerre", "--grade", "2/1")
    assert code == 0
    assert "pass" in out


# -- sum -----------------------------------------------------------------


def test_sum_harmonic(capsys):
    code, out, _ = run(capsys, "sum", "harmonic", "--x", "10", "--n", "89", "--order", "6")
    assert code == 0
    assert "exact lhs" in out and "abs err" in out


def test_sum_stirling(capsys):
    code, out, _ = run(capsys, "sum", "stirling", "--x", "10", "--n", "89", "--order", "6")
    assert code == 0


def test_sum_harmonic_grid_passes(capsys):
    # true identities, where the first omitted term falls below float
    # rounding too (x = 300, n = 2 exited 1)
    failed = []
    for x in ["1/3", "1", "2", "5", "10", "30", "50", "100", "300", "1000", "10000", "1000000", "1000000000"]:
        for n in (0, 1, 2, 10, 100):
            for order in (0, 1, 2, 4, 6, 10, 20):
                if main(["sum", "harmonic", "--x", x, "--n", str(n), "--order", str(order)]):
                    failed.append((x, n, order))
                capsys.readouterr()
    assert failed == []


@pytest.mark.parametrize("kind", ["harmonic", "stirling"])
@pytest.mark.parametrize("x", ["1/3", "1", "10", "1000000000"])
@pytest.mark.parametrize("n", ["0", "5"])
def test_sum_at_order_zero(capsys, kind, x, n):
    code, out, _ = run(capsys, "sum", kind, "--x", x, "--n", n, "--order", "0")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_sum_notes_an_empty_verdict(capsys):
    code, out, err = run(capsys, "sum", "stirling", "--x", "9999999997/9999999999", "--n", "100", "--order", "100")
    assert code == 0
    assert "series rhs = 2.855" in out
    assert err.startswith("note: the bound is at least |lhs| = 368.354")
    assert len(err.splitlines()) == 1
    code, out, err = run(capsys, "sum", "harmonic", "--x", "10", "--n", "89", "--order", "6")
    assert (code, err) == (0, "")


def test_sum_rejects_nonpositive_x(capsys):
    code, _, err = run(capsys, "sum", "harmonic", "--x", "0", "--n", "5")
    assert code == 2


@pytest.mark.parametrize("args", [["--n", "-1"], ["--n", "-5"], ["--n", "5", "--order", "-1"]])
@pytest.mark.parametrize("kind", ["harmonic", "stirling"])
def test_sum_rejects_negative_n_or_order(capsys, kind, args):
    # --n -1 used to compare 0 with 0 and pass, --n -5 to compare meaningless values
    code, out, err = run(capsys, "sum", kind, "--x", "10", *args)
    assert code == 2
    assert out == ""
    assert "n >= 0 and order >= 0" in err


BIG_COEFF = '{"order": "generic", "floor": 0, "coeffs": [[0, "1e400"]]}'


@pytest.mark.parametrize(
    "argv",
    [
        ["sum", "harmonic", "--x", "1/0", "--n", "3"],
        ["table", "hermite", "--sigma", "1/0"],
        ["verify", "genfun", "--seq", "laguerre", "--grade", "1/0"],
        ["expand", "--basis", "hermite", "--sigma", "1/0", "--series", LAM2, "--amin", "-3"],
        ["verify", "em", "--sigma", "1/0"],  # read even where it is not used
        ["table", "hermite", "--sigma", "abc"],
        ["sum", "stirling", "--x", "1e400", "--n", "2"],  # float(x) would overflow; beyond MAX_DIGITS
        ["sum", "harmonic", "--x", "1e-400", "--n", "2"],  # float(x) would be 0.0; beyond MAX_DIGITS
        ["sum", "harmonic", "--x", "1e-300", "--n", "2"],  # beyond MAX_DIGITS
        ["eval", "--series", BIG_COEFF, "--level", "1", "--x", "2"],
        ["eval", "--series", LAM2, "--level", "1", "--x", "1e300"],
        # a malformed exponent is Fraction's to name, not int()'s
        ["sum", "harmonic", "--x", "1e", "--n", "2"],
        ["sum", "harmonic", "--x", "1e5e3", "--n", "2"],
        ["sum", "harmonic", "--x", "2e+", "--n", "2"],
    ],
)
def test_bad_rational_or_float_range_exit_2(capsys, argv):
    # each used to escape as a traceback with exit 1, the verification-failure code
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "int()" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sum", "harmonic", "--x", "1e-300", "--n", "2"],
        ["sum", "stirling", "--x", "1e-300", "--n", "2"],
        ["sum", "harmonic", "--x", "1e-30", "--n", "2", "--order", "20"],
        ["eval", "--level", "1", "--x", "1e-300", "--series",
         '{"order": "generic", "floor": -3, "coeffs": [[-3, "1"]]}'],
        # the smallest positive --x within MAX_DIGITS: x**-k overflows at k = 31
        ["sum", "harmonic", "--x", f"1/{10**MAX_DIGITS - 1}", "--n", "2", "--order", "40"],
        ["sum", "stirling", "--x", f"1/{10**MAX_DIGITS - 1}", "--n", "2", "--order", "40"],
        # a right side of inf, a bound of inf, and terms of inf and -inf whose sum was nan
        ["sum", "harmonic", "--x", "1/9999999", "--n", "0", "--order", "42"],
        ["sum", "harmonic", "--x", "1/9999999", "--n", "0", "--order", "40"],
        ["sum", "stirling", "--x", "1/9999999", "--n", "0", "--order", "42"],
        ["sum", "harmonic", "--x", "3/1000", "--n", "0", "--order", "100"],
        ["sum", "stirling", "--x", "3/1000", "--n", "0", "--order", "100"],
        # a term of inf printed inf; inf and -inf met in fsum
        ["eval", "--level", "0", "--x", "1e100", "--series",
         '{"order": "zero", "floor": 0, "coeffs": [[2, "1e300"]]}'],
        ["eval", "--level", "0", "--x", "10", "--series",
         '{"order": "zero", "floor": 0, "coeffs": [[2, "1e307"], [0, "1e308"]]}'],
        ["eval", "--level", "1", "--x", "1e100", "--series",
         '{"order": "generic", "floor": 0, "coeffs": [[2, "1e300"], [1, "-1e300"]]}'],
    ],
)
def test_float_overflow_names_the_inputs(capsys, argv):
    # these used to print Python's errno tuple, (34, 'Numerical result out of range')
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--x" in err and "(34," not in err
    assert err.startswith("error: ") and err.count("\n") == 1


# -- input budget --------------------------------------------------------


def series_json(floor, *degrees):
    return json.dumps({"order": "generic", "floor": floor, "coeffs": [[d, "1"] for d in degrees]})


@pytest.mark.parametrize(
    "argv, name, maximum",
    [
        # each of the first three ran past a 5 s timeout before the budget
        (["expand", "--basis", "bernoulli", "--amin", "0", "--series", series_json(0, 1e6)],
         "series degree", MAX_DEGREE),
        (["table", "bernoulli", "--from", "0", "--to", "100000", "--depth", "2"], "--to", MAX_DEGREE),
        (["expand", "--basis", "bernoulli", "--amin", "99995", "--series", series_json(99990, 100000)],
         "series floor", MAX_DEGREE),
        (["expand", "--basis", "bernoulli", "--amin", "-3", "--series", series_json(-3, MAX_DEGREE + 1)],
         "series degree", MAX_DEGREE),
        (["eval", "--level", "1", "--x", "2", "--series", series_json(-MAX_DEGREE - 1, 0)],
         "series floor", MAX_DEGREE),
        (["expand", "--basis", "hermite", "--amin", "0", "--series", series_json(0, MAX_SPAN + 1)],
         "series top - floor", MAX_SPAN),
        (["expand", "--basis", "laguerre", "--amin", str(-MAX_DEGREE - 1), "--series", LAM2],
         "--amin", MAX_DEGREE),
        (["table", "hermite", "--from", str(-MAX_DEGREE - 1), "--to", "0"], "--from", MAX_DEGREE),
        (["table", "laguerre", "--from", "0", "--to", str(MAX_SPAN + 1)], "--to - --from", MAX_SPAN),
        (["table", "bernoulli", "--depth", str(MAX_SPAN + 1)], "--depth", MAX_SPAN),
        (["verify", "sheffer", "--depth", "400"], "--depth", MAX_SPAN),
        (["verify", "genfun", "--seq", "assoc-delta", "--depth", str(MAX_SPAN + 1)], "--depth", MAX_SPAN),
        (["sum", "harmonic", "--x", "10", "--n", str(MAX_N + 1)], "--n", MAX_N),
        (["sum", "stirling", "--x", "10", "--n", "5", "--order", str(MAX_ORDER + 1)], "--order", MAX_ORDER),
        # one digit too many in a numerator or a denominator
        (["sum", "harmonic", "--x", "1" * (MAX_DIGITS + 1), "--n", "2"], "--x", MAX_DIGITS),
        (["sum", "stirling", "--x", f"1e-{MAX_DIGITS}", "--n", "2"], "--x", MAX_DIGITS),
        (["table", "hermite", "--sigma", f"1/{10**MAX_DIGITS}"], "--sigma", MAX_DIGITS),
        (["verify", "sheffer", "--seq", "laguerre", f"--grade=-{10**MAX_DIGITS}/3"], "--grade", MAX_DIGITS),
        (["expand", "--basis", "laguerre", "--amin", "-3", "--series", LAM2, "--grade", f"3/{10**MAX_DIGITS}"],
         "--grade", MAX_DIGITS),
        # each printed Python's own 4300-digit text before the digit budget
        (["table", "hermite", "--sigma", str(10**2200), "--from", "4", "--to", "4", "--depth", "4"],
         "--sigma", MAX_DIGITS),
        (["sum", "harmonic", "--x", f"{10**300 + 1}/{10**300}", "--n", "40"], "--x", MAX_DIGITS),
    ],
)
def test_out_of_budget_exit_2(capsys, argv, name, maximum):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name} ") and "maximum" in err and f"{maximum}\n" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "harmonic", "--from", str(MAX_DEGREE - MAX_SPAN), "--to", str(MAX_DEGREE),
         "--depth", str(MAX_SPAN)],
        ["expand", "--basis", "harmonic", "--amin", str(-MAX_DEGREE),
         "--series", series_json(-MAX_DEGREE, -MAX_DEGREE + MAX_SPAN)],
        ["sum", "stirling", "--x", "10", "--n", str(MAX_N), "--order", str(MAX_ORDER)],
        ["sum", "harmonic", "--x", f"{10**MAX_DIGITS - 1}/{10**MAX_DIGITS - 3}", "--n", "5"],
        ["table", "laguerre", f"--grade=-{10**MAX_DIGITS - 1}/{10**MAX_DIGITS - 3}", "--depth", "4"],
        ["verify", "sheffer", "--seq", "hermite", "--depth", "4", "--sigma", str(10**MAX_DIGITS - 1)],
    ],
)
def test_budget_maxima_are_accepted(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code in (0, 1) and out and "error" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--basis", "laguerre", "--grade", "9"],
        ["expand", "--basis", "hermite", "--sigma", str(10**MAX_DIGITS - 1)],
    ],
)
def test_result_beyond_4300_digits_exit_2(capsys, argv):
    # a JSON coefficient may have 4300 digits; its expansion has more, and
    # printing it used to fail with Python's own int-to-text message
    series = json.dumps({"order": "generic", "floor": 0, "coeffs": [[2, "9" * 4300]]})
    code, out, err = run(capsys, *argv, "--amin", "0", "--series", series)
    assert code == 2
    assert out == ""
    assert err == (
        "error: a result has more than 4300 digits, too many to print;"
        " it grows with --sigma, --grade, --series\n"
    )


ONES = "1" * 4301


@pytest.mark.parametrize(
    "argv",
    [
        ["sum", "harmonic", "--x", ONES, "--n", "2"],
        ["sum", "harmonic", "--x", f"1e{ONES}", "--n", "2"],
        ["expand", "--basis", "harmonic", "--amin", "1",
         "--series", f'{{"order": "generic", "floor": -2, "coeffs": [[1, "{ONES}"]]}}'],
        ["expand", "--basis", "harmonic", "--amin", "1",
         "--series", f'{{"order": "generic", "floor": -2, "coeffs": [[1, {ONES}]]}}'],
    ],
)
def test_input_beyond_4300_digits_exit_2(capsys, argv):
    # each printed Python's own int-to-text message, the first after echoing
    # the whole 4301-character value
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 200
    assert "4301 digits exceeds the limit of 4300 digits" in err


# -- eval ----------------------------------------------------------------


def test_eval_residual_series(capsys):
    series = LogSeries(OrderTag.GENERIC, -3, {-1: F(1), -2: F(1, 2), -3: F(1, 6)}).to_json()
    code, out, err = run(capsys, "eval", "--series", series, "--level", "1", "--x", "10")
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.1 + 0.005 + 1 / 6000)
    assert "trunc bound" in err


def test_eval_level_zero_polynomial(capsys):
    series = LogSeries(OrderTag.ZERO, 0, {2: F(1), 1: F(-1), 0: F(1, 6)}).to_json()
    code, out, _ = run(capsys, "eval", "--series", series, "--level", "0", "--x", "4")
    assert code == 0
    assert float(out.strip()) == pytest.approx(16 - 4 + 1 / 6)


@pytest.mark.parametrize(
    "level, order, value",
    [(0, "zero", 1e100), (1, "generic", 1e100 * (math.log(1e100) - 25 / 12))],
    ids=["level-0", "level-1"],
)
def test_eval_finite_value_whose_power_alone_overflows(capsys, level, order, value):
    # 1e100**4 is beyond float range, 1e-300 * 1e100**4 = 1e100 is not
    series = json.dumps({"order": order, "floor": 4, "coeffs": [[4, "1e-300"]]})
    code, out, err = run(capsys, "eval", "--level", str(level), "--x", "1e100", "--series", series)
    assert code == 0
    assert float(out) == pytest.approx(value, rel=1e-14)
    assert err == f"trunc bound ~ {1e100 * math.log(1e100):.6g}\n"


def test_eval_below_one_prints_no_trunc_bound(capsys):
    # for x <= 1 the tail indicator means nothing: none is printed, not "nan"
    series = '{"order":"generic","floor":-3,"coeffs":[[-1,"1"]]}'
    code, out, err = run(capsys, "eval", "--level", "1", "--x", "0.5", "--series", series)
    assert (code, out, err) == (0, "2\n", "")


def test_eval_table_json_roundtrip(capsys):
    # feed a series emitted by `table` back into `eval`
    code, out, _ = run(capsys, "table", "bernoulli", "--from", "-1", "--to", "-1", "--depth", "5")
    assert code == 0
    series = json.dumps(json.loads(out)["rows"][0]["series"])
    code, out, _ = run(capsys, "eval", "--series", series, "--level", "1", "--x", "10")
    assert code == 0
    assert float(out.strip()) > 0


@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
def test_eval_rejects_non_finite_x(capsys, x):
    series = LogSeries(OrderTag.GENERIC, -3, {-1: F(1)}).to_json()
    code, out, err = run(capsys, "eval", "--series", series, "--level", "1", f"--x={x}")
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "em", "--depth", "3"],
        ["table", "laguerre", "--from", "-30", "--to", "30", "--depth", "40"],  # 159 kB
    ],
)
def test_closed_stdout_exit_2(argv, buffered):
    # a reader that closes the pipe at once: the first write, or the final
    # flush of a buffered stdout, meets a broken pipe
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    cmd = [sys.executable, "-m", "logalg.cli", *argv]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# -- byte identity against the recorded benchmark catalogue ---------------


def test_cli_catalogue_replays_byte_identical(capsys):
    # every recorded variant must keep its exit code and its stdout bytes
    strata = json.loads(CATALOGUE.read_text())["strata"]
    variants = [v for stratum in strata for v in stratum["variants"]]
    mismatches = []
    for v in variants:
        code = main(list(v["args"]))
        out = capsys.readouterr().out.encode()
        if (code, hashlib.sha256(out).hexdigest()) != (v["exit"], v["sha256"]):
            mismatches.append(v["args"])
    assert len(variants) == 582
    assert mismatches == []
