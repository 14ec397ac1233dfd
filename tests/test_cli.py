"""CLI tests driven in-process through run_cli."""

import json
import os
import random
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

import hyperdec
from hyperdec.cli import run_cli

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_lightstone_compare(capsys):
    code, out, err = run(capsys, "eval", "nines(H)", "--lightstone")
    assert code == 0
    assert out == "1 - eps\n.999…;…9̂\ncompare to 1: Less\n"


def test_exact_quotient_prints_unflagged(capsys):
    code, out, _ = run(capsys, "eval", "(1-eps^2)/(1-eps)")
    assert (code, out) == (0, "1 + eps\n")
    code, out, _ = run(capsys, "eval", "(1-eps^2)/(1-eps)", "--json")
    payload = json.loads(out)
    assert (code, payload["value"], payload["flags"]["truncated"]) == (0, "1 + eps", False)


def test_st(capsys):
    code, out, _ = run(capsys, "st", "nines(H)")
    assert (code, out) == (0, "1\n")


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "1/eps")
    assert (code, out) == (0, "infinite (sign 1)\n")
    code, out, _ = run(capsys, "classify", "eps - eps")
    assert (code, out) == (0, "infinitesimal (sign 0)\n")


def test_lightstone_subcommand(capsys):
    code, out, _ = run(capsys, "lightstone", "1/4 - eps")
    assert (code, out) == (0, ".249;…9̂\n")


def test_digits(capsys):
    code, out, _ = run(capsys, "digits", "1 - eps", "1", "1:0")
    assert (code, out) == (0, "1: 9\n1:0: 9\n")


def test_deriv_exact(capsys):
    code, out, _ = run(capsys, "deriv", "x^2", "--at", "3")
    assert (code, out) == (0, "6\n")


def test_deriv_at_hyper_point_rejected(capsys):
    code, out, err = run(capsys, "deriv", "x^2", "--at", "1 - eps")
    assert code == 2
    assert "standard point" in err


def test_lim(capsys):
    code, out, _ = run(capsys, "lim", "n/(n+1)")
    assert (code, out) == (0, "converges to 1\n")
    code, out, _ = run(capsys, "lim", "n^2")
    assert (code, out) == (0, "diverges to +infinity\n")
    code, out, _ = run(capsys, "lim", "sin(n)", "--mode", "float")
    assert code == 0
    assert out.startswith("indeterminate")


def test_limfun(capsys):
    code, out, _ = run(capsys, "limfun", "(x^2 - 1)/(x - 1)", "--at", "1")
    assert (code, out) == (0, "limit 2\n")


@pytest.mark.parametrize("expr, at, mode, why", [
    # the limit is e, but exact mode refuses exp at a nonzero standard part
    ("exp(x)", "1", "exact", "exp at a nonzero standard part has no rational value"),
    # the limit is 0, but the lift of sin refuses the infinite 1/x
    ("x*sin(1/x)", "0", "exact", "sin of an infinite argument"),
    ("x*sin(1/x)", "0", "float", "sin of an infinite argument"),
])
def test_limfun_refusal_is_indeterminate(capsys, expr, at, mode, why):
    argv = ("limfun", expr, "--at", at, "--mode", mode)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith(f"indeterminate: x = {at} + (eps): evaluation failed (")
    assert why in out and out.count("\n") == 1
    code, out, _ = run(capsys, *argv, "--json")
    value = json.loads(out)["value"]
    assert value == {"outcome": "indeterminate", "note": value["note"]}
    assert f"indeterminate: {value['note']}\n" == run(capsys, *argv)[1]


def test_limfun_of_infinite_values_is_no_limit(capsys):
    code, out, _ = run(capsys, "limfun", "1/x", "--at", "0")
    assert (code, out) == (0, "no limit: approach values disagree or are unbounded\n")
    code, out, _ = run(capsys, "limfun", "1/x", "--at", "0", "--json")
    assert json.loads(out)["value"] == {"outcome": "no_limit"}


def test_ucheck(capsys):
    code, out, _ = run(capsys, "ucheck", "x^2")
    assert code == 0
    assert out.splitlines()[0] == "fail"
    assert "witness: x = H, y = H + H^-1" in out
    code, out, _ = run(capsys, "ucheck", "3*x + 1")
    assert code == 0
    assert out.splitlines()[0] == "pass_all_probes"


@pytest.mark.parametrize("expr, value", [
    ("10^2", "100"),
    ("2^(10^2)", str(2**100)),
    ("10^(-2)", "0.01"),
])
def test_float_power_of_ten_at_an_integer_is_exact(capsys, expr, value):
    assert run(capsys, "eval", expr, "--mode", "float") == (0, value + "\n", "")


def test_float_ucheck_of_a_power_of_ten_fails_at_an_infinite_point(capsys):
    # the exact 10^j at a standard point and its lift next to it agree,
    # so the witness is the true one at x = H
    code, out, _ = run(capsys, "ucheck", "10^x", "--mode", "float")
    assert code == 0
    assert out.splitlines()[:2] == ["fail", "witness: x = H, y = H + eps"]


def test_evt(capsys):
    code, out, _ = run(
        capsys, "evt", "x*(1-x)", "--grid", "8", "--doublings", "2"
    )
    assert code == 0
    assert "argmax 1/2" in out
    assert out.rstrip().endswith("argmax stabilized")


def test_evt_float_zero_power_at_zero(capsys):
    # Decimal 0 ** 0 is an invalid operation; x^0 is 1 at every point
    code, out, err = run(capsys, "evt", "x^0", "--mode", "float")
    assert (code, err) == (0, "")
    assert "n =      64: argmax 0 value 1\n" in out


def test_evt_float_grid_points_use_context_precision(capsys):
    # at 28 digits the grid point 1/3 and the constant 1/3 (50 digits)
    # would differ by about 3e-29, leaving -1.1E-57 instead of 0
    code, out, err = run(
        capsys, "evt", "0 - (x - 1/3)^2", "--grid", "3", "--doublings", "0",
        "--mode", "float",
    )
    assert (code, err) == (0, "")
    assert out == "n =       3: argmax 1/3 value 0\nargmax stabilized\n"


def test_evt_float_negative_zero_prints_as_zero(capsys):
    # -(0^2) is a Decimal -0; exact mode prints the same row as 0
    for mode in ("float", "exact"):
        code, out, err = run(
            capsys, "evt", "(-x^2)", "--grid", "4", "--doublings", "0", "--mode", mode
        )
        assert (code, err) == (0, "")
        assert out == "n =       4: argmax 0 value 0\nargmax stabilized\n"


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("flag, value, message", [
    ("--doublings", "-1", "need doublings >= 0"),
    ("--grid", "0", "need n >= 1"),
])
def test_evt_grid_out_of_range_is_a_usage_error(capsys, flag, value, message, json_flag):
    code, out, err = run(capsys, "evt", "x", flag, value, *json_flag)
    if json_flag:
        assert (code, err) == (2, "")
        assert json.loads(out) == {
            "ok": False, "error": {"type": "ValueError", "message": message},
        }
    else:
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_newton_final_display(capsys):
    code, out, _ = run(
        capsys, "newton", "log(x)", "--x0", "1/2", "--steps", "8",
        "--display", "6",
    )
    assert code == 0
    assert out.rstrip().endswith("final display: 0.999999")
    assert " 0  0.500000" in out


def test_newton_check(capsys):
    code, out, _ = run(
        capsys, "newton", "x - 1", "--x0", "1/2", "--steps", "3", "--check"
    )
    assert code == 0
    assert "boundary cases:" in out


def test_newton_check_runs_the_iteration_once(capsys, monkeypatch):
    import hyperdec.cli
    import hyperdec.hypercalc

    calls = []
    real = hyperdec.hypercalc.newton_trace

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hyperdec.cli, "newton_trace", spy)
    monkeypatch.setattr(hyperdec.hypercalc, "newton_trace", spy)
    argv = ("newton", "log(x)", "--x0", "1/2", "--steps", "4", "--check")
    code, out, _ = run(capsys, *argv, "--display", "3")
    assert (code, len(calls)) == (0, 1)
    checks = [line for line in out.splitlines() if line.startswith("check ")]
    assert len(checks) == 5
    # the check rows read the iterates, not the display width
    _, wide, _ = run(capsys, *argv, "--display", "9")
    assert [line for line in wide.splitlines() if line.startswith("check ")] == checks


@pytest.mark.parametrize("argv, want", [
    (("newton", "sqrt(x) - 1", "--x0", "0", "--steps", "0"),
     (0, " 0  0.000000\nfinal display: 0.000000\n", "")),
    (("newton", "sqrt(x) - 1", "--x0", "0", "--steps", "2"),
     (1, "", "error: sqrt needs a positive standard part\n")),
    (("newton", "log(x - 1/2) + 0*x", "--x0", "0", "--steps", "3"),
     (1, "", "error: log needs a positive argument\n")),
])
def test_newton_refuses_a_slope_only_when_a_step_uses_it(capsys, argv, want):
    # the jet refuses at these starts; f(x0) words its own refusal first
    assert run(capsys, *argv) == want


def test_exit_code_math_error(capsys):
    code, out, err = run(capsys, "eval", "floor(H/3)")
    assert code == 1
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("evt", "x^-1"),
    ("evt", "x^-1", "--mode", "float"),
    ("newton", "1 - x^-1", "--x0", "0", "--steps", "2"),
])
def test_zero_reciprocal_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: division by zero at a sample point\n"


def test_float_digits_match_exact_mode_past_prec(capsys):
    # the digit at H+20 sits in floor(1.24e16 - tiny) = 12399999999999999,
    # 17 digits; read off the block coefficient it needs no floor at prec 12
    expr = "0.000124*eps - 3.33333333333*eps^3"
    assert run(capsys, "digits", expr, "1:20") == (0, "1:20: 9\n", "")
    got = run(capsys, "digits", expr, "1:20", "--mode", "float", "--prec", "12")
    assert got == (0, "1:20: 9\n", "")


def test_float_floor_is_exact_past_28_digits(capsys):
    expr = "1 - 86.25*eps + 1811*eps^2 - 126*eps^3"
    for mode in ("exact", "float"):
        got = run(capsys, "digits", expr, "2:25", "--mode", mode)
        assert got == (0, "2:25: 9\n", "")


@pytest.mark.parametrize("argv", [
    ("eval", "10^(10^6)"),
    ("eval", "10^(10^6)", "--mode", "float"),
    ("classify", "10^(10^6)"),
    ("eval", "10^(-4300)"),
])
def test_huge_power_of_ten_is_a_resource_limit(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: 10^j needs |j| < 4300; this exponent is larger\n"
    code, out, _ = run(capsys, *argv, "--json")
    assert json.loads(out)["error"]["type"] == "ResourceLimit"


def test_largest_power_of_ten_still_prints(capsys):
    code, out, _ = run(capsys, "eval", "10^4299")
    assert (code, out) == (0, "1" + "0" * 4299 + "\n")


@pytest.mark.parametrize("argv", [
    ("eval", "2^20000"),
    ("eval", "10^4000*10^4000"),
    ("st", "2^20000"),
    ("deriv", "10^4000*10^4000*x", "--at", "1"),
    ("lightstone", "2^20000"),
    ("evt", "2^20000*x"),
    ("ucheck", "2^20000*x^2"),
    ("st", "2^(10^5)"),
])
def test_huge_coefficient_is_a_resource_limit(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: a coefficient with more than 4300 digits is too large to print\n"
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ResourceLimit"


def test_exact_slope_of_a_huge_power_refuses_at_print_at_once(capsys):
    # the slope 100000/2^99999 is one jet product; five hypervalue
    # evaluations of (1/2 + e)^100000 would run for minutes
    start = time.perf_counter()
    code, out, err = run(capsys, "deriv", "x^100000", "--at", "1/2")
    assert time.perf_counter() - start < 10
    assert (code, out) == (1, "")
    assert err == "error: a coefficient with more than 4300 digits is too large to print\n"


def test_limit_of_a_huge_power_refuses_at_print_at_once(capsys):
    # (1/2 + e)^100000 is formed in closed form; the limit 2^-100000 has
    # more digits than the print cap
    start = time.perf_counter()
    got = run(capsys, "limfun", "x^100000", "--at", "1/2")
    assert time.perf_counter() - start < 2
    assert got == (1, "", "error: a coefficient with more than 4300 digits is too large to print\n")


def test_limit_of_a_large_power_prints_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "limfun", "x^1000", "--at", "1/2")
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    assert out == f"limit 1/{2**1000}\n"


@pytest.mark.parametrize("argv, slope", [
    # a slope of 8.3e26, far past any absolute tolerance
    (("exp(exp(x*x)-x)", "--at", "-2"), "-834615066882906189251762779.73389959318172239379529"),
    # the power of the vanishing base is never formed
    (("x^3000000", "--at", "0"), "0"),
])
def test_float_slope_of_one_jet(capsys, argv, slope):
    start = time.perf_counter()
    got = run(capsys, "deriv", *argv, "--mode", "float")
    assert time.perf_counter() - start < 2
    assert got == (0, slope + "\n", "")


@pytest.mark.parametrize("expr, k", [
    ("x^100000", 100000),
    # a negative power is one Decimal power, not 2999999 rounded products
    ("x^-3000000", -3000000),
])
def test_float_slope_of_a_huge_power_answers_at_once(capsys, expr, k):
    start = time.perf_counter()
    code, out, err = run(capsys, "deriv", expr, "--at", "1/2", "--mode", "float")
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    with localcontext() as dc:
        dc.prec = 60
        want = k * Decimal(2) ** (1 - k)  # k * (1/2)^(k-1)
        assert abs(Decimal(out) - want) <= abs(want) * Decimal("1e-45")


def test_nines_past_the_cap_is_refused_at_once(capsys):
    start = time.perf_counter()
    got = run(capsys, "lightstone", "nines(20000)")
    assert time.perf_counter() - start < 2
    assert got == (1, "", "error: nines(n) needs n < 4300; this count is larger\n")


@pytest.mark.parametrize("place, digit", [
    ("1:10000000", 3),
    ("1:100000000", 3),
    ("1:-100000000", 0),
])
def test_digits_far_from_the_block_are_read_at_once(capsys, place, digit):
    start = time.perf_counter()
    got = run(capsys, "digits", "eps/3", place)
    assert time.perf_counter() - start < 10
    assert got == (0, f"{place}: {digit}\n", "")


@pytest.mark.parametrize("argv, monomial", [
    (("digits", "eps^2 + eps/H", "2:0"), "eps*H^-1"),
    (("eval", "floor(1/(eps*H))"), "eps^-1*H^-1"),
])
def test_mixed_scale_refusal_prints_the_monomial(capsys, argv, monomial):
    assert run(capsys, *argv) == (1, "", f"error: mixed-scale monomial {monomial}\n")


def test_power_past_the_bit_cap_is_refused_at_once(capsys):
    code, out, err = run(capsys, "st", "3^(10^8)")
    assert (code, out) == (1, "")
    assert err.startswith("error: the coefficient of this power would take about 200000000 bits")
    code, out, _ = run(capsys, "st", "3^(10^8)", "--json")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ResourceLimit"


def test_float_power_of_a_huge_exponent_answers_at_once(capsys):
    # 1.0000001^(10^8), correctly rounded to 50 digits
    value = "22026.454781577306636469428124636295954953077720592"
    argv = ("eval", "1.0000001^100000000", "--mode", "float")
    start = time.perf_counter()
    assert run(capsys, *argv) == (0, value + "\n", "")
    assert time.perf_counter() - start < 2
    code, out, _ = run(capsys, *argv, "--json")
    assert (code, json.loads(out)["value"]) == (0, value)
    # 10^8 is the exact integer 100000000 in float mode too
    assert run(capsys, "eval", "1.0000001^(10^8)", "--mode", "float") == (0, value + "\n", "")
    code, out, _ = run(capsys, "eval", "eps^10000000", "--mode", "float")
    assert (code, out) == (0, "eps^10000000\n")


@pytest.mark.parametrize("argv", [
    ("eval", "1000000000^200000"),
    ("eval", "exp(1000000000)"),
    ("deriv", "exp(1000000000*x)", "--at", "1"),
])
def test_float_overflow_is_a_resource_limit(capsys, argv):
    code, out, err = run(capsys, *argv, "--mode", "float")
    assert (code, out) == (1, "")
    assert err == "error: a float result overflows the decimal exponent range\n"
    code, out, _ = run(capsys, *argv, "--mode", "float", "--json")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ResourceLimit"


_SUM_OF_XS = "+".join(["x"] * 1200)
_SUM_OF_NS = "+".join(["n"] * 1200)
_TOO_DEEP = "the expression nests too deeply to evaluate"
_BIT_CAP = "the coefficient of this power would take about 700000000 bits"
_NEWTON_CAP = "the iterate at step 9 has more than 4300 digits and is too large to print"
_PRINT_CAP = "a coefficient with more than 4300 digits is too large to print"
_QUOTIENT_CAP = "the coefficients of this quotient would pass the 4194304-bit cap"
_LITERAL_CAP = "a number literal with more than 4300 digits is too large to read"
_DIGITS_CAP = "a digit string with more than 4300 digits is too large to print"

# Hostile CLI lines: deep nesting, huge powers, huge results and huge
# context flags.  Each row is (argv, exit code, text): the start of the
# error message, or a piece of the answer on exit 0.  Exit 1 is a
# ResourceLimit, exit 2 a usage error.  A limit or a probe over a tree
# too deep to fold answers with the verdict the library gives for it.
HOSTILE_LINES = [
    pytest.param(("eval", "(" * 200 + "1" + ")" * 200), 1, _TOO_DEEP,
                 id="eval-200-nested-parens"),
    pytest.param(("eval", "+".join(["1"] * 1200)), 1, _TOO_DEEP,
                 id="eval-sum-of-1200-terms"),
    pytest.param(("deriv", _SUM_OF_XS, "--at", "1"), 1, _TOO_DEEP,
                 id="deriv-sum-of-1200-terms"),
    pytest.param(("limfun", _SUM_OF_XS, "--at", "1"), 0,
                 f"x = 1 + (eps): evaluation failed ({_TOO_DEEP})",
                 id="limfun-sum-of-1200-terms"),
    pytest.param(("lim", _SUM_OF_NS), 0, _TOO_DEEP, id="lim-sum-of-1200-terms"),
    pytest.param(("ucheck", _SUM_OF_XS), 0, f"evaluation failed near 0: {_TOO_DEEP}",
                 id="ucheck-sum-of-1200-terms"),
    pytest.param(("evt", "x^100000000"), 1, _BIT_CAP, id="evt-exact-huge-power"),
    pytest.param(("evt", "10^(5000*x)", "--mode", "float"), 0,
                 "1.0000000000000000000000000000000000000000000000000E+5000",
                 id="evt-float-huge-power-of-ten"),
    pytest.param(("newton", "1-1/x^2", "--x0", "1/2", "--steps", "12"), 1, _NEWTON_CAP,
                 id="newton-exact-12-steps"),
    pytest.param(("newton", "1-1/x^2", "--x0", "1/2", "--steps", "16"), 1, _NEWTON_CAP,
                 id="newton-exact-16-steps"),
    pytest.param(("eval", "exp(1)", "--mode", "float", "--prec", "100000"), 2,
                 "precision must be at most 5000 digits", id="eval-float-prec-100000"),
    # 2^-100000, correctly rounded to 50 digits
    pytest.param(("limfun", "x^100000", "--at", "1/2", "--mode", "float"), 0,
                 "1.0009989037986941668162647131933062484993475083058E-30103",
                 id="limfun-float-power-of-two-terms"),
    pytest.param(("ucheck", "x^100000", "--mode", "float"), 0, "fail",
                 id="ucheck-float-power-of-two-terms"),
    pytest.param(("eval", "(1+eps+eps^2)^1000000"), 0, "1 + 1000000*eps + 500000500000*eps^2",
                 id="eval-exact-power-of-three-terms"),
    pytest.param(("eval", "(1/3+eps/7+eps^2)^100000"), 1, _PRINT_CAP,
                 id="eval-exact-power-past-the-print-cap"),
    # a 3.9-million-bit lead power, just under the bit cap
    pytest.param(("eval", "(2^300000+eps)^13"), 1, _PRINT_CAP,
                 id="eval-exact-power-of-a-huge-binomial"),
    # the inverse's terms grow by about 300,000 bits each
    pytest.param(("st", "1/(2 + 1/2^300000*eps)"), 1, _QUOTIENT_CAP,
                 id="st-exact-inverse-past-the-bit-cap"),
    pytest.param(("classify", "(2 + -1/2^300000*H)^(-1)", "--mode", "float"), 1, _QUOTIENT_CAP,
                 id="classify-float-inverse-past-the-bit-cap"),
    pytest.param(("st", "1/(2 + 1/2^30000*eps)"), 0, "1/2",
                 id="st-exact-inverse-under-the-bit-cap"),
    # the printer refuses at the first coefficient past the print cap
    pytest.param(("eval", "(3/7+eps)^100000"), 1, _PRINT_CAP,
                 id="eval-exact-binomial-power-past-the-print-cap"),
    # Python's int-to-str limit, met while reading or printing a number
    pytest.param(("eval", "7" * 5000), 1, _LITERAL_CAP, id="eval-5000-digit-literal"),
    pytest.param(("eval", "7" * 5000 + ".5"), 1, _LITERAL_CAP,
                 id="eval-5000-digit-decimal-literal"),
    pytest.param(("eval", "2^2^2^2^2^2"), 1,
                 "the coefficient of this power would take more than 10^4300 bits",
                 id="eval-power-tower-with-an-unprintable-bit-count"),
    pytest.param(("lightstone", "1/3", "--window", "5000"), 1, _DIGITS_CAP,
                 id="lightstone-window-5000"),
    pytest.param(("eval", "1/3", "--lightstone", "--window", "5000"), 1, _DIGITS_CAP,
                 id="eval-lightstone-window-5000"),
    pytest.param(("lightstone", "2^20000*eps"), 1, _DIGITS_CAP,
                 id="lightstone-block-coefficient-past-the-print-cap"),
    pytest.param(("newton", "1-1/x", "--x0", "1/2", "--steps", "3", "--display", "5000"), 1,
                 "a display with more than 4300 digits is too large to print",
                 id="newton-display-5000"),
    # 999,999 empty blocks before the last: about 7 MB of output
    pytest.param(("lightstone", "eps^1000000/4"), 0, ".000…;…0̂;…0̂;", id="lightstone-a-million-blocks"),
]


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("argv, want_code, text", HOSTILE_LINES)
def test_hostile_line_answers_or_refuses_at_once(capsys, argv, want_code, text, json_flag):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, *json_flag)
    assert time.perf_counter() - start < 2
    assert code == want_code
    assert "Traceback" not in out + err and "Exceeds the limit" not in out + err
    if json_flag:
        payload = json.loads(out)
        assert (payload["ok"], err) == (code == 0, "")
        if code:
            assert payload["error"]["type"] == ("ResourceLimit" if code == 1 else "ValueError")
        assert text in out
    elif code:
        assert (out, err.count("\n")) == ("", 1)
        assert err.startswith(f"error: {text}")
    else:
        assert err == "" and text in out


_FUZZ_MONOMIALS = ("", "eps", "eps^2", "eps^(1/2)", "H", "1/H", "H^-3")
_FUZZ_COEFFS = ("1", "-1", "2", "1/3", "-5/4", "7/10")
_FUZZ_BIG_COEFFS = ("2^300000", "-1/2^300000")  # 300,001 bits


def power_lines(rng, count):
    """count seeded CLI lines that raise a base of 1-4 terms to a power.

    Exponents are small (|k| <= 40) or huge (10^7 <= |k| <= 10^8), of
    either sign; modes, --terms (2 to 256) and the command vary.  A
    300,000-bit coefficient stands only in a one-term base, and --terms
    256 only goes with a small exponent: bases of two or more terms with
    such a coefficient take seconds to invert or to normalize, and the
    binary powering of 256 terms at |k| near 10^8 takes 1.5-2 s, too
    close to a line's 2 s budget (ROADMAP item 3 lists both).
    """
    for _ in range(count):
        size = rng.randint(1, 4)
        coeffs = _FUZZ_COEFFS + (_FUZZ_BIG_COEFFS if size == 1 else ())
        base = " + ".join(
            f"{rng.choice(coeffs)}*{m}" if m else rng.choice(coeffs)
            for m in rng.sample(_FUZZ_MONOMIALS, size)
        )
        huge = rng.random() < 0.5
        k = rng.choice((-1, 1)) * (rng.randint(10**7, 10**8) if huge else rng.randint(1, 40))
        terms = rng.choice((2, 3, 16, 40) if huge else (2, 3, 16, 40, 256))
        yield (rng.choice(("eval", "st", "classify")), f"({base})^({k})",
               "--mode", rng.choice(("exact", "float")), "--terms", str(terms))


def test_power_fuzz_answers_or_refuses_at_once(capsys):
    """Every seeded power line exits 0, 1 or 2 within 2 s, with no
    traceback and at most one error line."""
    codes = set()
    for argv in power_lines(random.Random("power-fuzz"), 40):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2, argv
        assert code in (0, 1, 2), argv
        assert "Traceback" not in out + err and err.count("error:") <= 1, argv
        codes.add(code)
    assert codes >= {0, 1}


def test_repl_refuses_a_deep_line_and_goes_on(capsys, monkeypatch):
    feed = iter(["(" * 200 + "1" + ")" * 200, "1 + 1", "7" * 5000, "2 + 2", ":q"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
    assert run_cli(["repl"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "2\n4\n"
    assert captured.err == f"error: {_TOO_DEEP}\nerror: {_LITERAL_CAP}\n"


def test_large_coefficient_below_the_limit_prints(capsys):
    code, out, _ = run(capsys, "eval", "2^14000")
    assert (code, out) == (0, f"{2**14000}\n")
    assert len(out) == 4215 + 1


def test_exit_code_syntax(capsys):
    code, _, err = run(capsys, "eval", "1 +")
    assert code == 2
    assert "error:" in err


def test_exit_code_usage(capsys):
    code, _, err = run(capsys, "frobnicate", "1")
    assert code == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--prec", "5", "precision must be at least 10 digits"),
    ("--terms", "1", "term budget must be at least 2"),
    ("--prec", "5001", "precision must be at most 5000 digits"),
    ("--terms", "257", "term budget must be at most 256"),
])
def test_out_of_range_context_flag_is_a_usage_error(capsys, flag, value, message):
    code, out, err = run(capsys, "eval", "1", flag, value)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_context_flag_bounds_are_in_the_help(capsys):
    code, out, _ = run(capsys, "eval", "--help")
    assert code == 0
    assert "(default 50, at most 5000)" in " ".join(out.split())
    assert "(default 16, at most 256)" in " ".join(out.split())


# Lines in forms the subcommand tables leave to argparse, or next to them,
# with what they printed when argparse read every line, at 120 columns.
@pytest.mark.parametrize("argv, want", [
    (("deriv", "x^2", "--at", "-1/2"), (2, "", (
        "usage: hyperdec deriv [-h] [--mode {exact,float}] [--prec PREC] [--terms TERMS] [--json]"
        " --at AT [--var VAR] expr\n"
        "hyperdec deriv: error: argument --at: expected one argument\n"))),
    (("eval", "1", "--json=1"), (2, "", (
        "usage: hyperdec eval [-h] [--mode {exact,float}] [--prec PREC] [--terms TERMS] [--json]"
        " [--lightstone]\n"
        "                     [--window WINDOW]\n"
        "                     expr\n"
        "hyperdec eval: error: argument --json: ignored explicit argument '1'\n"))),
    (("digits", "1/4", "1", "--json", "2"), (2, "", (
        "usage: hyperdec [-h] {eval,st,classify,lightstone,digits,deriv,lim,limfun,ucheck,evt,"
        "newton,microscope,repl} ...\n"
        "hyperdec: error: unrecognized arguments: 2\n"))),
    (("eval", "--lig", "1/4"), (0, "1/4\n.25\ncompare to 1: Less\n", "")),
    (("eval", "--", "1"), (0, "1\n", "")),
    (("st", "--mode=float", "1/3"), (0, "0." + "3" * 50 + "\n", "")),
], ids=["negative-looking-value", "flag-with-explicit-argument", "second-positional-block",
        "abbreviation", "double-dash", "equals-form"])
def test_edge_forms_print_what_argparse_prints(capsys, monkeypatch, argv, want):
    monkeypatch.setenv("COLUMNS", "120")
    assert run(capsys, *argv) == want


def test_out_of_range_context_flag_json_envelope(capsys):
    code, out, err = run(capsys, "eval", "1", "--terms", "0", "--json")
    assert (code, err) == (2, "")
    assert json.loads(out) == {
        "ok": False,
        "error": {"type": "ValueError", "message": "term budget must be at least 2"},
    }


def test_json_envelope(capsys):
    code, out, _ = run(capsys, "eval", "nines(H)", "--json", "--lightstone")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "ok": True,
        "value": "1 - eps",
        "lightstone": ".999…;…9̂",
        "flags": {"truncated": False},
    }


def test_json_truncated_flag(capsys):
    code, out, _ = run(capsys, "eval", "1/(1 + eps)", "--json")
    payload = json.loads(out)
    assert payload["flags"]["truncated"] is True


def test_json_error_envelope(capsys):
    code, out, _ = run(capsys, "eval", "floor(H/3)", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["error"]["type"] == "FloorUndecidable"


def test_context_flags(capsys):
    code, out, _ = run(
        capsys, "st", "exp(1) + eps", "--mode", "float", "--prec", "20"
    )
    assert code == 0
    assert out.startswith("2.718281828459045")


def test_microscope_preset_matches_golden(capsys):
    code, out, _ = run(
        capsys, "microscope", "--preset", "triple", "--format", "ascii"
    )
    assert code == 0
    want = (GOLDEN / "triple.txt").read_text(encoding="utf-8")
    assert out == want


def test_microscope_custom_scene(capsys):
    code, out, _ = run(
        capsys, "microscope",
        "--center", "1", "--scale", "eps",
        "--point", "below=1 - 2*eps", "--point", "above=1 + eps",
        "--format", "ascii",
    )
    assert code == 0
    assert "* below" in out
    assert "* above" in out


def test_microscope_out_file(tmp_path, capsys):
    target = tmp_path / "scene.svg"
    code, out, _ = run(
        capsys, "microscope", "--preset", "slope", "--out", str(target)
    )
    assert code == 0
    want = (GOLDEN / "slope.svg").read_text(encoding="utf-8")
    assert target.read_text(encoding="utf-8") == want


def test_microscope_needs_scene(capsys):
    code, _, err = run(capsys, "microscope", "--format", "ascii")
    assert code == 2


def test_repl(capsys, monkeypatch):
    feed = iter(["1 - eps", "st(nines(H))", "floor(H/3)", ":q"])
    monkeypatch.setattr(
        "builtins.input", lambda prompt="": next(feed)
    )
    assert run_cli(["repl"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1 - eps\n1\n"
    assert captured.err == "error: coefficient 1/3 of a power of H is not an integer\n"


_SESSION_ENVELOPE = (
    '{"ok": true, "value": null, "lightstone": null, "flags": {"truncated": false}}\n'
)


def test_repl_json_closes_with_the_envelope(capsys, monkeypatch):
    # each line prints the envelope eval --json prints for it
    lines = ["1 - eps", "1/(1-eps)", "floor(H/3)"]
    want = [run(capsys, "eval", line, "--json")[1] for line in lines]
    assert want[0] == (
        '{"ok": true, "value": "1 - eps", "lightstone": null, "flags": {"truncated": false}}\n'
    )
    assert json.loads(want[1])["flags"] == {"truncated": True}
    assert json.loads(want[2])["ok"] is False
    feed = iter([*lines, ":q"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
    assert run_cli(["repl", "--json"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("".join(want) + _SESSION_ENVELOPE, "")


def test_repl_refuses_each_line_as_eval_does(capsys, monkeypatch):
    lines = ["1 +", "foo(1)", "floor(H/3)", "(" * 200 + "1" + ")" * 200, "7" * 5000]
    for json_flag in ((), ("--json",)):
        want_out = want_err = ""
        for line in lines:
            code, out, err = run(capsys, "eval", line, *json_flag)
            if json_flag:
                assert json.loads(out)["ok"] is False and err == "", line
            else:
                assert out == "" and err.startswith("error: "), line
            assert code in (1, 2), line
            want_out += out
            want_err += err
        if json_flag:
            want_out += _SESSION_ENVELOPE
        feed = iter([*lines, ":q"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
        assert run_cli(["repl", *json_flag]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (want_out, want_err)


def test_cli_determinism(capsys):
    a = run(capsys, "microscope", "--preset", "slope", "--format", "svg")
    b = run(capsys, "microscope", "--preset", "slope", "--format", "svg")
    assert a == b


def test_parser_reuse_shares_no_state(capsys):
    # one argument tree serves every call: append lists, flags and usage
    # errors must not leak from one command line into the next
    scene = (
        "microscope", "--center", "1", "--scale", "eps",
        "--point", "below=1 - 2*eps", "--point", "above=1 + eps",
        "--format", "ascii",
    )
    first = run(capsys, *scene)
    assert first[0] == 0
    assert run(capsys, *scene) == first
    assert run(capsys, "eval", "--json", "1")[1].startswith("{")
    assert run(capsys, "eval", "1") == (0, "1\n", "")
    for argv in (("st", "(3"), ("eval",)):
        first = run(capsys, *argv)
        assert first[0] == 2 and first[2]
        assert run(capsys, *argv) == first


def test_import_loads_no_xml_or_network_modules(tmp_path):
    # compared with what the interpreter had before the import, since the
    # site may preload some of these on its own
    src = str(Path(hyperdec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys; before = set(sys.modules); import hyperdec, hyperdec.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    new = proc.stdout.split()
    assert "hyperdec.microscope" in new
    for heavy in ("xml.sax", "urllib.request", "http.client", "email"):
        assert heavy not in new


def test_star_import_resolves_every_exported_name(tmp_path):
    src = str(Path(hyperdec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "from hyperdec import *\n"
        "import hyperdec\n"
        "missing = [n for n in hyperdec.__all__ if n not in globals()]\n"
        "assert len(set(hyperdec.__all__)) == len(hyperdec.__all__)\n"
        "print(len(hyperdec.__all__), missing)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    count, missing = proc.stdout.split(" ", 1)
    assert int(count) == len(hyperdec.__all__) and missing.strip() == "[]"


def test_nested_limit_keeps_the_type_of_its_refusal(tmp_path):
    # a cold `python -m` start fixes the stack depth at which the inner
    # fold, and not the parser, runs out of room for 980 terms
    src = str(Path(hyperdec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    line = "lim(n -> inf, " + "+".join(["1/n"] * 980) + ")"
    proc = subprocess.run(
        [sys.executable, "-m", "hyperdec", "eval", line, "--json"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert (proc.returncode, proc.stderr) == (1, "")
    assert json.loads(proc.stdout)["error"] == {
        "type": "ResourceLimit", "message": _TOO_DEEP,
    }


def test_python_dash_m(tmp_path):
    src = str(Path(hyperdec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hyperdec", "eval", "1 - eps"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1 - eps\n", "")
