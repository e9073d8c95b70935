import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from logalg.cli import main
from logalg.series import LogSeries, OrderTag, harmonic

F = Fraction

LAM2 = harmonic(OrderTag.GENERIC, 2, -8).to_json()
CATALOGUE = Path(__file__).resolve().parent.parent / "perfbench" / "cli_catalogue.json"


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


@pytest.mark.parametrize("seq", ["bernoulli", "hermite", "laguerre", "harmonic"])
def test_verify_sheffer_sequences(capsys, seq):
    code, out, _ = run(capsys, "verify", "sheffer", "--seq", seq, "--depth", "6")
    assert code == 0
    assert "FAIL" not in out


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
