"""CLI tests driven in-process through run_cli."""

import json
import os
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


def test_float_power_past_the_product_cap_is_refused_at_once(capsys):
    argv = ("eval", "1.0000001^100000000", "--mode", "float")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: this power would take 99999999 rounded products")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ResourceLimit"
    # 10^8 is the exact integer 100000000 in float mode too
    code, _, err2 = run(capsys, "eval", "1.0000001^(10^8)", "--mode", "float")
    assert (code, err2) == (1, err)
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
    code = run_cli(["repl"])
    out, err = capsys.readouterr().out, capsys.readouterr().err
    assert code == 0
    assert "1 - eps" in out
    assert "1" in out


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


def test_python_dash_m(tmp_path):
    src = str(Path(hyperdec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hyperdec", "eval", "1 - eps"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1 - eps\n", "")
