"""Newton iteration on concave increasing functions with a root at 1.

The iteration x_{n+1} = x_n + |f(x_n)|/f'(x_n) climbs toward the root
from below and, on an idealized truncating calculator, never displays
1.000000: every iterate stays strictly under 1.  This module produces
the iterate traces, the truncated display strings, and a mechanized
check of the per-step invariants that make the phenomenon a theorem
rather than a rounding accident.

Arithmetic-only functions iterate in exact rationals.  Anything with
exp/log/sqrt/trig runs in Decimal at the requested precision, and the
iteration halts with a recorded reason once the gap 1 - x_n falls
within two guard digits of the precision floor, instead of letting the
next iterate flush to 1 and silently destroy the gap.
"""

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Union

from ._record import Record
from .errors import AssertionFailed, DerivativeVanishes, DomainError
from .hyperfield import NumContext
from .transfer import (
    FuncExpr,
    derivative,
    eval_real,
    is_arithmetic,
)

Scalar = Union[Fraction, Decimal]

_NINES_GAP_EXP = 2  # halt when 1 - x_n < 10**(2 - precision)


# a dataclass still: perfbench/test_oracles.py builds altered copies of
# one with dataclasses.replace
@dataclass(frozen=True)
class NewtonTrace:
    f: FuncExpr
    x0: Fraction
    precision: int
    mode: str
    display_digits: int
    iterates: tuple
    displays: tuple
    halt_reason: Optional[str]
    quadratic_constant: Optional[Scalar]
    all_nines_from: Optional[int]

    def gap(self, n: int) -> Scalar:
        with NumContext(mode=self.mode, prec=self.precision).arith():
            return 1 - self.iterates[n]


def calculator_display(v, digits: int) -> str:
    """Truncate v toward zero to exactly `digits` fractional digits.

    Truncation, not rounding: a value infinitesimally (or merely very
    slightly) below 1 must display as 0.99...9, never round up to
    1.00...0.
    """
    if digits < 1:
        raise ValueError("display needs at least one fractional digit")
    r = Fraction(v)
    if r < 0:
        raise ValueError("display is defined for nonnegative values")
    scaled = (r.numerator * 10**digits) // r.denominator
    return f"{scaled // 10**digits}.{scaled % 10**digits:0{digits}d}"


def _start_fraction(x0) -> Fraction:
    try:
        return Fraction(x0)
    except (ValueError, TypeError) as exc:
        raise DomainError(f"not a rational starting point: {x0!r}") from exc


def _slope_at(f: FuncExpr, x, ctx: NumContext) -> Scalar:
    d = derivative(f, x, ctx)
    if d == 0:
        raise DerivativeVanishes(f"slope vanishes at iterate {x}")
    if d < 0:
        raise DomainError(
            "slope is negative; the climb toward the root needs an"
            " increasing function"
        )
    return d


def newton_trace(
    f: FuncExpr,
    x0,
    steps: int,
    precision: int = 50,
    display_digits: int = 6,
) -> NewtonTrace:
    """Run x_{n+1} = x_n + |f(x_n)| / f'(x_n) for up to `steps` steps.

    Starts below the root (f(x0) < 0 and x0 < 1 required).  Stops early
    when f hits 0 exactly, when an iterate would overshoot, or in
    Decimal mode when the remaining gap to 1 drops below the precision
    floor; the reason is recorded on the trace.
    """
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    if precision < 10:
        raise DomainError("precision below 10 digits is not supported")
    if display_digits < 1:
        raise DomainError("need at least one display digit")
    start = _start_fraction(x0)
    if not start < 1:
        raise DomainError("starting point must lie below the root at 1")

    exact = is_arithmetic(f)
    mode = "exact" if exact else "float"
    ctx = NumContext(mode=mode, prec=precision)
    x: Scalar = ctx.coeff(start)

    v0 = eval_real(f, x, ctx)
    if not v0 < 0:
        raise DomainError("need f(x0) < 0: the iteration climbs from below")

    iterates = [x]
    halt = None
    floor_gap = Fraction(1, 10 ** (precision - _NINES_GAP_EXP))
    v = v0
    for n in range(steps):
        if n:
            v = eval_real(f, x, ctx)
        if v == 0:
            halt = f"root reached exactly at step {n}"
            break
        if v > 0:
            halt = f"iterate overshot the root at step {n}"
            break
        slope = _slope_at(f, x, ctx)
        with ctx.arith():
            x_new = x + (-v) / slope
            gap_new = 1 - x_new
        if not exact and gap_new < floor_gap:
            halt = (
                f"precision exhausted at step {n + 1}: the gap to 1 fell"
                f" below 10^({_NINES_GAP_EXP - precision})"
            )
            break
        iterates.append(x_new)
        x = x_new

    displays = tuple(calculator_display(v, display_digits) for v in iterates)
    return NewtonTrace(
        f=f,
        x0=start,
        precision=precision,
        mode=mode,
        display_digits=display_digits,
        iterates=tuple(iterates),
        displays=displays,
        halt_reason=halt,
        quadratic_constant=_quadratic_constant(iterates, ctx),
        all_nines_from=_all_nines_from(displays, display_digits),
    )


def _quadratic_constant(iterates, ctx: NumContext) -> Optional[Scalar]:
    """Largest (1 - x_{n+1}) / (1 - x_n)^2 over steps entering the
    convergence zone 1 - x_n < 1/10."""
    best = None
    with ctx.arith():
        for a, b in zip(iterates, iterates[1:]):
            gap_a = 1 - a
            if not gap_a < Fraction(1, 10) or gap_a == 0:
                continue
            ratio = (1 - b) / (gap_a * gap_a)
            if best is None or ratio > best:
                best = ratio
    return best


def _all_nines_from(displays, digits: int) -> Optional[int]:
    nines = "0." + "9" * digits
    start = None
    for i, text in enumerate(displays):
        if text == nines:
            if start is None:
                start = i
        else:
            start = None
    return start


# --------------------------------------------------------------------------
# invariant checking
# --------------------------------------------------------------------------

class CheckRow(Record):
    """The margins at iterate n; margin_monotone and mvt_margin are None
    on the final iterate."""

    __slots__ = ("n", "x", "margin_lt1", "margin_monotone", "mvt_margin")


class CheckReport(Record):
    """The rows of theorem_check; boundary holds the (index, margin name)
    pairs whose margin landed on 0."""

    __slots__ = ("x0", "precision", "mode", "rows", "boundary", "halt_reason", "trace")

    def to_json(self) -> dict:
        return {
            "x0": str(self.x0),
            "precision": self.precision,
            "mode": self.mode,
            "rows": [
                {
                    "n": row.n,
                    "x_n": str(row.x),
                    "margin_lt1": str(row.margin_lt1),
                    "margin_monotone": (
                        None
                        if row.margin_monotone is None
                        else str(row.margin_monotone)
                    ),
                    "mvt_margin": (
                        None if row.mvt_margin is None else str(row.mvt_margin)
                    ),
                }
                for row in self.rows
            ],
            "boundary": [
                {"n": n, "margin": name} for n, name in self.boundary
            ],
            "halt": self.halt_reason,
        }


def theorem_check(
    f: FuncExpr,
    x0,
    steps: int,
    precision: int = 50,
) -> CheckReport:
    """Verify the per-step invariants behind "the display never reaches 1".

    For every iterate: x_n < 1; the step is strictly upward; and the
    step length |f(x_n)|/f'(x_n) stays under the remaining gap 1 - x_n.
    A margin that is exactly 0 is recorded as a boundary case (affine
    inputs land their first step exactly on the root); a strictly
    negative margin raises AssertionFailed with the offending index.
    """
    trace = newton_trace(f, x0, steps, precision=precision)
    rows = []
    boundary = []

    def margin(n: int, name: str, value: Scalar) -> Scalar:
        if value < 0:
            raise AssertionFailed(
                f"{name} violated at iterate {n}: margin {value}", n
            )
        if value == 0:
            boundary.append((n, name))
        return value

    xs = trace.iterates
    with NumContext(mode=trace.mode, prec=precision).arith():
        for n, x in enumerate(xs):
            lt1 = margin(n, "lt1", 1 - x)
            if n + 1 < len(xs):
                mono = margin(n, "monotone", xs[n + 1] - x)
                mvt = margin(n, "mvt", (1 - x) - (xs[n + 1] - x))
            else:
                mono = mvt = None
            rows.append(
                CheckRow(
                    n=n, x=x, margin_lt1=lt1, margin_monotone=mono,
                    mvt_margin=mvt,
                )
            )

    return CheckReport(
        x0=trace.x0,
        precision=precision,
        mode=trace.mode,
        rows=tuple(rows),
        boundary=tuple(boundary),
        halt_reason=trace.halt_reason,
        trace=trace,
    )
