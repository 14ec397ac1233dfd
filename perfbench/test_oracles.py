"""Each workload's oracle must count a deliberately wrong answer as failed.

Run from the repository root:

    python3 -m pytest perfbench/test_oracles.py -q

The Tier-1 suite collects only tests/, so these run only when named.
"""

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calculus  # noqa: E402
import series_core  # noqa: E402
import shadow as sh  # noqa: E402
import shell_session  # noqa: E402
from core import Refused  # noqa: E402
from hyperdec.hyperfield import Ordering  # noqa: E402
from run import Judge  # noqa: E402


def _first(ops, pred):
    return next(op for op in ops if pred(op))


@pytest.fixture(scope="module")
def series_ops():
    return series_core.make_inputs(7, 256)


def test_shadow_orders_across_scales():
    one_minus_eps = {(0, 0): Fraction(1), (1, 0): Fraction(-1)}
    assert sh.sign(sh.sub(one_minus_eps, sh.const(1))) == -1
    # H^-1 dominates eps whatever the coefficients
    assert sh.sign({(0, -1): Fraction(1, 10**6), (1, 5): Fraction(-10**6)}) == 1
    with pytest.raises(sh.ShadowTooCoarse):
        sh.sign({(0, 1): Fraction(1), (0, 0): Fraction(-10**13)})


def test_series_core_right_answers_pass(series_ops):
    op = _first(series_ops, lambda o: o.expr == "mul" and o.mode == "exact")
    assert series_core.check(op, series_core.run_op(op)).ok


@pytest.mark.parametrize("key", ["compare", "st", "classify", "floor"])
def test_series_core_wrong_answer_fails(series_ops, key):
    op = _first(series_ops, lambda o: o.expr == "add" and o.mode == "exact"
                and not o.a.is_finite)
    ans = series_core.run_op(op)
    wrong = {
        "compare": Ordering.EQUAL if ans["compare"] is not Ordering.EQUAL else Ordering.LESS,
        "st": Fraction(1, 7) if isinstance(ans["st"], Refused) else ans["st"] + 1,
        "classify": (ans["classify"][0], -ans["classify"][1] or 1),
        "floor": op.a.ctx.constant(10**9),
    }[key]
    verdict = series_core.check(op, dict(ans, **{key: wrong}))
    assert not verdict.ok
    assert not verdict.truncation_defect


def test_series_core_truncation_defect_is_marked(series_ops):
    # (a/b)*b with a dense divisor: compare(., a) reports LESS or GREATER
    for op in series_ops:
        if op.expr == "divmul" and op.divisor_terms >= 2:
            verdict = series_core.check(op, series_core.run_op(op))
            if not verdict.ok:
                assert verdict.truncation_defect
                return
    pytest.fail("no dense (a/b)*b op in the pool")


def test_series_core_wrong_answer_on_truncated_power_fails(series_ops):
    # a**k keeps the leading term of the exact power, so a wrong sign is
    # wrong for the cut series too: not the truncation defect
    i, op = next((i, o) for i, o in enumerate(series_ops) if o.expr == "pow"
                 and series_core.run_op(o)["value"].truncated)
    ans = series_core.run_op(op)
    kind, sign = ans["classify"]
    wrong = dict(ans, classify=(kind, -sign or 1))
    verdict = series_core.check(op, wrong)
    assert not verdict.ok
    assert not verdict.truncation_defect
    judge = Judge(series_core, series_ops)
    judge.feed([(i, wrong)])
    assert (judge.attempted, judge.failed, judge.defects) == (1, 1, 0)


def test_judge_counts_truncation_defect_apart_from_failed(series_ops):
    i = next(i for i, o in enumerate(series_ops) if o.expr == "divmul"
             and not series_core.check(o, series_core.run_op(o)).ok)
    judge = Judge(series_core, series_ops)
    judge.feed([(i, series_core.run_op(series_ops[i]))])
    assert (judge.attempted, judge.failed, judge.defects) == (1, 0, 1)


def test_calculus_wrong_slope_fails():
    ops = calculus.make_inputs(3, 40)
    op = _first(ops, lambda o: o.kind == "deriv_poly")
    slope = calculus.run_op(op)
    assert calculus.check(op, slope).ok
    assert not calculus.check(op, slope + Fraction(1, 10**9)).ok


def test_calculus_newton_display_of_one_fails():
    ops = calculus.make_inputs(3, 40)
    op = _first(ops, lambda o: o.kind == "newton_float")
    trace = calculus.run_op(op)
    assert calculus.check(op, trace).ok
    shown = trace.displays[:-1] + ("1.000000",)
    assert not calculus.check(op, dataclasses.replace(trace, displays=shown)).ok


def test_calculus_wrong_limit_fails():
    ops = calculus.make_inputs(3, 40)
    op = _first(ops, lambda o: o.kind == "limit_fun")
    result = calculus.run_op(op)
    assert calculus.check(op, result).ok
    assert not calculus.check(op, dataclasses.replace(result, value=result.value + 1)).ok


def test_shell_wrong_digit_fails():
    lines = shell_session.make_inputs(5, 41)
    line = _first(lines, lambda ln: ln.kind == "digits2")
    code, out, err = shell_session.run_op(line)
    assert shell_session.check(line, (code, out, err)).ok
    rows = out.splitlines()
    key, digit = rows[-1].split(": ")
    rows[-1] = f"{key}: {(int(digit) + 1) % 10}"
    assert not shell_session.check(line, (code, "\n".join(rows) + "\n", err)).ok


def test_shell_wrong_exit_code_and_figure_fail():
    lines = shell_session.make_inputs(5, 41)
    refuse = _first(lines, lambda ln: ln.kind == "refuse")
    assert not shell_session.check(refuse, (0, "", "")).ok
    figure = _first(lines, lambda ln: ln.kind == "microscope")
    code, out, err = shell_session.run_op(figure)
    assert shell_session.check(figure, (code, out, err)).ok
    assert not shell_session.check(figure, (code, out.replace("1", "2", 1), err)).ok


def test_judge_counts_cut_off_output_as_failed():
    lines = shell_session.make_inputs(5, 41)
    i = next(k for k, ln in enumerate(lines) if ln.kind == "eval_ls1")
    code, out, err = shell_session.run_op(lines[i])
    judge = Judge(shell_session, lines)
    judge.feed([(i, (code, out.splitlines()[0] + "\n", err))])
    assert (judge.attempted, judge.failed, judge.defects) == (1, 1, 0)


def test_judge_counts_wrong_answers_and_raw_exceptions():
    ops = calculus.make_inputs(3, 40)
    i = next(k for k, o in enumerate(ops) if o.kind == "deriv_poly")
    judge = Judge(calculus, ops)
    judge.feed([(i, calculus.run_op(ops[i])), (i, Fraction(10**9)), (i, KeyError("x"))])
    assert (judge.attempted, judge.failed, judge.defects) == (3, 2, 0)
