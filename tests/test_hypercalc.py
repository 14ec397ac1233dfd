"""Newton trace and invariant-check tests.

The first-iterate oracle for f = log: x1 = (1 + ln 2)/2, computed
directly in Decimal.  The reciprocal function 1 - 1/x has the closed
form gap recurrence (1 - x_{n+1}) = (1 - x_n)^2, giving an exact
quadratic-convergence fixture.
"""

import hashlib
import json
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import hyperdec.hypercalc
from hyperdec.errors import AssertionFailed, DerivativeVanishes, DomainError
from hyperdec.hypercalc import calculator_display, newton_trace, theorem_check
from hyperdec.hyperfield import NumContext
from hyperdec.transfer import (
    Const,
    Div,
    Exp,
    Log,
    Mul,
    Pow10,
    PowInt,
    Sin,
    Sqrt,
    Sub,
    Var,
    derivative,
    eval_real,
)

X = Var()
AFFINE = Sub(X, Const(Fraction(1)))
LOG = Log(X)
RECIP = Sub(Const(Fraction(1)), Div(Const(Fraction(1)), X))
RECIP_SQUARE = Sub(Const(Fraction(1)), Div(Const(Fraction(1)), PowInt(X, 2)))
SQRT_SHIFT = Sub(Sqrt(X), Const(Fraction(1)))
DOUBLE_ROOT = Sub(
    Sub(X, Mul(Const(Fraction(1, 2)), PowInt(X, 2))), Const(Fraction(1, 2))
)

CORPUS = [LOG, RECIP, SQRT_SHIFT, DOUBLE_ROOT]


# ---------------------------------------------------------------- display

def test_display_examples():
    assert calculator_display(Fraction(10**7 - 1, 10**7), 6) == "0.999999"
    assert calculator_display(1, 6) == "1.000000"
    assert calculator_display(Fraction(1, 4), 3) == "0.250"
    assert calculator_display(Decimal("2.5"), 2) == "2.50"
    assert calculator_display(Fraction(1, 3), 4) == "0.3333"


def test_display_truncates_not_rounds():
    assert calculator_display(Fraction(2, 3), 3) == "0.666"
    assert calculator_display(Decimal("0.99999949"), 6) == "0.999999"


def test_display_validation():
    with pytest.raises(ValueError):
        calculator_display(Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        calculator_display(Fraction(-1, 2), 3)


# ---------------------------------------------------------------- traces

def test_affine_first_step_lands_on_root():
    t = newton_trace(AFFINE, Fraction(1, 2), 5)
    assert t.mode == "exact"
    assert t.iterates == (Fraction(1, 2), Fraction(1))
    assert t.displays == ("0.500000", "1.000000")
    assert "root reached exactly at step 1" in t.halt_reason


def test_log_first_iterate_matches_oracle():
    t = newton_trace(LOG, Fraction(1, 2), 1, precision=50)
    with localcontext() as c:
        c.prec = 50
        oracle = (1 + Decimal(2).ln()) / 2
        assert abs(t.iterates[1] - oracle) < Decimal("1e-47")
    assert calculator_display(t.iterates[1], 10) == "0.8465735902"


def test_log_trace_reaches_six_nines():
    t = newton_trace(LOG, Fraction(1, 2), 10, precision=50)
    assert t.mode == "float"
    assert "0.999999" in t.displays
    assert t.all_nines_from == 4
    assert t.displays[-1] == "0.999999"
    for a, b in zip(t.iterates, t.iterates[1:]):
        assert a < b
    for x in t.iterates:
        assert x < 1
    assert "precision exhausted" in t.halt_reason


def test_precision_floor_keeps_the_gap():
    t = newton_trace(LOG, Fraction(1, 2), 12, precision=20)
    floor = Fraction(1, 10**18)
    for x in t.iterates:
        assert Fraction(1) - Fraction(x) >= floor
    assert "precision exhausted" in t.halt_reason
    assert t.displays[-1] == "0.999999"


def test_reciprocal_gap_squares_exactly():
    t = newton_trace(RECIP, Fraction(1, 2), 6)
    assert t.mode == "exact"
    for n, x in enumerate(t.iterates):
        assert Fraction(1) - x == Fraction(1, 2 ** (2**n))
    assert t.quadratic_constant == 1
    assert t.halt_reason is None


def test_reciprocal_square_climb_is_pinned():
    """Exact iterates of 1 - 1/x^2 from 71/100, pinned bit for bit: each
    step inverts (x + e)^2 at every probe, so a change to the inverse
    series cannot move the climb unnoticed."""
    t = newton_trace(RECIP_SQUARE, Fraction(71, 100), 5)
    assert t.mode == "exact"
    assert [len(str(x.denominator)) for x in t.iterates] == [3, 7, 20, 58, 175, 523]
    text = "\n".join(str(x) for x in t.iterates)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d296e22ada5e410db6eb6f2f1cab9594ed00966a8ce6c7c93926113aad3a99f5"
    )
    assert t.displays[-2:] == ("0.999999", "0.999999")


def test_log_climb_is_pinned():
    """Float iterates of the log climb from three starts, and float probe
    slopes of five functions at seeded points, pinned bit for bit: each
    slope lifts f at x0 + e for every probe e, so a change to the Taylor
    lift cannot move a digit unnoticed."""
    lines = []
    for x0 in (Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)):
        lines += [str(x) for x in newton_trace(LOG, x0, 10, 50).iterates]
    ctx = NumContext(mode="float", prec=50)
    rng = random.Random("float-slopes")
    for f in (Exp(X), Log(X), Sin(X), Sqrt(X), Pow10(X)):
        for _ in range(3):
            slope = derivative(f, Fraction(rng.randrange(1, 200), 100), ctx)
            assert isinstance(slope, Decimal)
            lines.append(str(slope))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "33c6899bb50022f0e27ea222010217ddf0be65ac889a4a46182b0ebcbcf815dc"
    )


def test_double_root_halves_the_gap():
    t = newton_trace(DOUBLE_ROOT, Fraction(1, 2), 8)
    assert t.mode == "exact"
    for n, x in enumerate(t.iterates):
        assert Fraction(1) - x == Fraction(1, 2 ** (n + 1))


def test_sqrt_shift_converges():
    t = newton_trace(SQRT_SHIFT, Fraction(1, 2), 8, precision=40)
    assert t.mode == "float"
    for a, b in zip(t.iterates, t.iterates[1:]):
        assert a < b < 1
    assert t.displays[-1] == "0.999999"


def test_trace_preconditions():
    with pytest.raises(DomainError):
        newton_trace(LOG, Fraction(3, 2), 3)   # starts above the root
    with pytest.raises(DomainError):
        newton_trace(X, Fraction(1, 2), 3)     # f(x0) > 0
    with pytest.raises(DomainError):
        newton_trace(LOG, Fraction(1, 2), -1)
    with pytest.raises(DomainError):
        newton_trace(LOG, Fraction(1, 2), 3, display_digits=0)
    with pytest.raises(DomainError):
        newton_trace(LOG, Fraction(1, 2), 3, precision=5)


def test_flat_function_raises():
    with pytest.raises(DerivativeVanishes):
        newton_trace(Sub(Const(Fraction(0)), Const(Fraction(1))),
                     Fraction(1, 2), 3)


@pytest.mark.parametrize("f, steps, mode", [
    (LOG, 10, "float"),
    (RECIP_SQUARE, 5, "exact"),
])
def test_answering_steps_read_the_value_off_the_jet(monkeypatch, f, steps, mode):
    calls = []

    def spy(*args):
        calls.append(args)
        return eval_real(*args)

    monkeypatch.setattr(hyperdec.hypercalc, "eval_real", spy)
    t = newton_trace(f, Fraction(1, 2), steps)
    assert (t.mode, calls) == (mode, [])
    ctx = NumContext(mode=mode, prec=50)
    with ctx.arith():
        for x, y in zip(t.iterates, t.iterates[1:]):
            assert y == x - eval_real(f, x, ctx) / derivative(f, x, ctx)


def test_zero_steps_returns_start_only():
    t = newton_trace(LOG, Fraction(1, 2), 0)
    assert len(t.iterates) == 1
    assert t.displays == ("0.500000",)


# ---------------------------------------------------------------- checks

def test_affine_check_is_boundary_not_failure():
    rep = theorem_check(AFFINE, Fraction(1, 2), 5)
    assert (0, "mvt") in rep.boundary
    assert (1, "lt1") in rep.boundary
    assert rep.rows[0].margin_monotone == Fraction(1, 2)
    assert rep.rows[-1].margin_monotone is None


def test_log_check_passes_strictly():
    rep = theorem_check(LOG, Fraction(1, 2), 10)
    assert rep.boundary == ()
    for row in rep.rows:
        assert row.margin_lt1 > 0
        if row.margin_monotone is not None:
            assert row.margin_monotone > 0
            assert row.mvt_margin > 0


def test_check_corpus_at_admissible_starts():
    for f in CORPUS:
        for x0 in (Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)):
            rep = theorem_check(f, x0, 8)
            assert rep.boundary == ()


def test_shrinking_margins_from_high_start():
    rep = theorem_check(LOG, Fraction(99, 100), 6)
    gaps = [row.margin_lt1 for row in rep.rows]
    for a, b in zip(gaps, gaps[1:]):
        assert b < a


def test_convex_input_fails_with_index():
    # x^2 - 1 is convex: the first step overshoots the root
    f = Sub(PowInt(X, 2), Const(Fraction(1)))
    t = newton_trace(f, Fraction(1, 2), 4)
    assert "overshot" in t.halt_reason
    # the first invariant to break is the MVT bound on the very step
    # that overshoots
    with pytest.raises(AssertionFailed) as info:
        theorem_check(f, Fraction(1, 2), 4)
    assert info.value.index == 0
    assert "mvt" in str(info.value)


def test_check_report_serializes():
    rep = theorem_check(LOG, Fraction(1, 2), 6)
    payload = rep.to_json()
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["x0"] == "1/2"
    assert back["rows"][0]["n"] == 0
    assert back["rows"][0]["margin_lt1"] == "0.5"
    assert all(
        set(row) == {"n", "x_n", "margin_lt1", "margin_monotone", "mvt_margin"}
        for row in back["rows"]
    )


def test_displays_have_exact_digit_count():
    for digits in (1, 3, 6, 9):
        t = newton_trace(LOG, Fraction(1, 2), 6, display_digits=digits)
        for text in t.displays:
            whole, _, frac = text.partition(".")
            assert len(frac) == digits
