"""Acceptance suite.

Ten criteria, one test each, named in order.  Each test prints a
single PASS line with its elapsed time (visible with -rA or -s) and
enforces its runtime budget.  Tolerances are pinned as constants next
to the criterion that uses them; everything not marked with a
tolerance is exact equality.
"""

import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from hyperdec.expr import eval_command, parse_command, parse_expr, to_function
from hyperdec.hyperfield import (
    NumContext,
    Ordering,
    nines,
    nines_hyper,
)
from hyperdec.hypercalc import newton_trace
from hyperdec.lightstone import digit_at, parse as ls_parse, render
from hyperdec.microscope import microscope, preset_scene
from hyperdec.transfer import (
    Add,
    Const,
    Cos,
    Exp,
    Log,
    Mul,
    Pow10,
    PowInt,
    Sin,
    Sqrt,
    Var,
    derivative,
    eval_real,
    eval_star,
    limit_seq,
    symbolic_derivative,
    uniform_continuity_probe,
)

GOLDEN = Path(__file__).parent / "golden"

DERIV_FLOAT_TOL = Decimal("1e-6")     # criterion 4, elementary functions
LIMIT_TOL = Fraction(1, 1000)         # criterion 5, against the n = 10^6 oracle


def _report(index: int, label: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {index} overran: {elapsed:.2f}s"
    print(f"criterion {index:2d}: PASS  {label}  ({elapsed:.2f}s)")


# criterion 1 ---------------------------------------------------------------

def test_c01_finite_nines_chain_exact():
    started = time.perf_counter()
    ctx = NumContext()
    for n in range(1, 13):
        lhs = nines(ctx, n)
        rhs = ctx.constant(1) - ctx.constant(Fraction(1, 10**n))
        assert lhs == rhs
        assert lhs.standard_part() == Fraction(10**n - 1, 10**n)
    _report(1, "finite nines identities, n = 1..12, exact", started, 1.0)


# criterion 2 ---------------------------------------------------------------

def test_c02_extended_nines_value():
    started = time.perf_counter()
    ctx = NumContext()
    v = nines_hyper(ctx)
    assert v == ctx.constant(1) - ctx.tau()
    assert v == eval_command(parse_command("nines(H)"), ctx)
    assert v.compare(1) is Ordering.LESS
    assert v.standard_part() == Fraction(1)
    assert render(v) == ".999…;…9̂"
    _report(2, "nines through the infinite place: below 1, st 1", started, 1.0)


# criterion 3 ---------------------------------------------------------------

def test_c03_secant_slope_at_infinitesimal_offset():
    started = time.perf_counter()
    ctx = NumContext()
    got = eval_command(
        parse_command("st((x^2 - 1)/(x - 1)) at x = 1 - eps"), ctx
    )
    assert got == ctx.constant(2)
    delta_x = (ctx.constant(1) - ctx.tau()) - ctx.constant(1)
    assert render(delta_x) == "−.000…;…01"
    _report(3, "slope st 2 with the offset one place past every standard digit",
            started, 1.0)


# criterion 4 ---------------------------------------------------------------

def _random_poly(rng: random.Random):
    degree = rng.randrange(1, 7)
    coeffs = [
        Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
        for _ in range(degree + 1)
    ]
    if coeffs[-1] == 0:
        coeffs[-1] = Fraction(1)
    f = Const(coeffs[0])
    for k in range(1, degree + 1):
        f = Add(f, Mul(Const(coeffs[k]), PowInt(Var(), k)))
    return f


def test_c04_derivative_suite():
    started = time.perf_counter()
    ctx = NumContext()
    rng = random.Random(20260822)
    # the four infinitesimals of the slope oracle in tests/test_transfer.py
    infinitesimals = (ctx.tau(), 2 * ctx.tau(), ctx.omega(-1), ctx.omega(-2))
    for _ in range(50):
        f = _random_poly(rng)
        oracle = symbolic_derivative(f)
        for _ in range(5):
            x0 = Fraction(rng.randrange(-30, 31), rng.randrange(1, 11))
            want = eval_real(oracle, x0, ctx)
            base = eval_star(f, ctx.constant(x0))
            for e in infinitesimals:
                shifted = eval_star(f, ctx.constant(x0) + e)
                slope = ((shifted - base) / e).standard_part()
                assert slope == want, (f, x0)
    fctx = NumContext(mode="float", prec=50)
    x = Var()
    cases = [
        (Exp(x), Fraction(3, 10)),
        (Log(x), Fraction(17, 10)),
        (Sin(x), Fraction(2, 5)),
        (Cos(x), Fraction(11, 10)),
        (Sqrt(x), Fraction(9, 4)),
        (Pow10(x), Fraction(1, 5)),
    ]
    h = Decimal("1e-10")
    for f, x0 in cases:
        slope = derivative(f, x0, fctx)
        with localcontext() as dctx:
            dctx.prec = 60
            xd = Decimal(x0.numerator) / Decimal(x0.denominator)
            central = (eval_real(f, xd + h, fctx)
                       - eval_real(f, xd - h, fctx)) / (2 * h)
        assert abs(slope - central) < DERIV_FLOAT_TOL, f
    _report(4, "250 exact polynomial slopes; elementary slopes vs central"
               " differences at 1e-6", started, 30.0)


# criterion 5 ---------------------------------------------------------------

_SEQUENCES = [
    ("n/(n+1)", Fraction(1)),
    ("(2*n^2 + 3)/(n^2 - 5)", Fraction(2)),
    ("1/n", Fraction(0)),
    ("(3*n + 1)/(7*n - 2)", Fraction(3, 7)),
    ("n/(n^2 + 1)", Fraction(0)),
    ("(n^2 + n)/(2*n^2)", Fraction(1, 2)),
    ("(5*n^3 - n)/(2*n^3 + n^2)", Fraction(5, 2)),
    ("1/n^2", Fraction(0)),
    ("(n + 1)/(n - 1)", Fraction(1)),
    ("(4*n - 7)/(2*n + 9)", Fraction(2)),
    ("n^2/(n^2 + n + 1)", Fraction(1)),
    ("(n^3 + 5)/(3*n^3)", Fraction(1, 3)),
    ("(6*n^2 + n - 1)/(3*n^2 + 2)", Fraction(2)),
    ("1/(2*n + 1)", Fraction(0)),
    ("(n^2 - 1)/(n^2 + 1)", Fraction(1)),
    ("(7*n + 3)/(n + 4)", Fraction(7)),
    ("(n + 2)/(2*n + 1)", Fraction(1, 2)),
    ("(9*n^2)/(n^2 + 9)", Fraction(9)),
    ("n^2 - n", None),          # diverges, positive
    ("3 - n^3", None),          # diverges, negative
]


def test_c05_sequence_limit_suite():
    started = time.perf_counter()
    ctx = NumContext()
    assert len(_SEQUENCES) == 20
    oracle_n = Fraction(10**6)
    for src, want in _SEQUENCES:
        f = to_function(parse_expr(src), var="n")
        out = limit_seq(f, ctx)
        if want is None:
            assert out.outcome == "diverges", src
            probe = eval_real(f, oracle_n, ctx)
            assert (probe > 0) == (out.sign > 0), src
            continue
        assert out.outcome == "converges", src
        assert out.cross_check_agrees, src
        oracle = eval_real(f, oracle_n, ctx)
        assert abs(Fraction(out.value) - oracle) < LIMIT_TOL, src
        assert Fraction(out.value) == want, src
    _report(5, "20 sequence limits classified and within 1e-3 of the"
               " n = 10^6 oracle", started, 10.0)


# criterion 6 ---------------------------------------------------------------

def test_c06_uniform_continuity_probe():
    started = time.perf_counter()
    ctx = NumContext()
    square = to_function(parse_expr("x^2"))
    report = uniform_continuity_probe(square, ctx)
    assert report.verdict == "fail"
    assert report.witness_x == ctx.omega()
    assert report.witness_y == ctx.omega() + ctx.omega(-1)
    assert (report.witness_y - report.witness_x) == ctx.omega(-1)
    assert report.gap_standard == Fraction(2)
    affine = to_function(parse_expr("3*x + 1"))
    assert uniform_continuity_probe(affine, ctx).verdict == "pass_all_probes"
    _report(6, "square fails with witnesses 1/H apart (gap st 2);"
               " affine passes", started, 1.0)


# criterion 7 ---------------------------------------------------------------

def test_c07_newton_display_stays_below_one():
    started = time.perf_counter()
    for x0 in (Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)):
        trace = newton_trace(Log(Var()), x0, 10, precision=50,
                             display_digits=6)
        for x in trace.iterates:
            assert x < 1
        for a, b in zip(trace.iterates, trace.iterates[1:]):
            assert b > a
        assert trace.all_nines_from is not None, x0
        assert trace.displays[trace.all_nines_from] == "0.999999"
        assert "1.000000" not in trace.displays
    _report(7, "log climb from 0.3/0.5/0.9: monotone below 1, display"
               " reaches 0.999999", started, 5.0)


# criterion 8 ---------------------------------------------------------------

def _random_term(rng: random.Random):
    b = Fraction(rng.randrange(-2, 3))
    a = Fraction(rng.randrange(-2, 3))
    c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
    return c, b, a


def _random_value(ctx: NumContext, rng: random.Random, finite=False):
    v = ctx.zero()
    for _ in range(rng.randrange(0, 4)):
        c, b, a = _random_term(rng)
        if c == 0:
            continue
        if finite:
            if b < 0:
                b = -b
            if b == 0 and a > 0:
                a = -a
        v = v + ctx.monomial(c, b, a)
    return v


def test_c08_field_and_order_axioms():
    started = time.perf_counter()
    ctx = NumContext(max_terms=40)
    rng = random.Random(1009)
    failures = 0
    for _ in range(10_000):
        a = _random_value(ctx, rng)
        b = _random_value(ctx, rng)
        c = _random_value(ctx, rng)
        if (a + b) + c != a + (b + c):
            failures += 1
        if (a * b) * c != a * (b * c):
            failures += 1
        if a * (b + c) != a * b + a * c:
            failures += 1
        # multiplicative inverse on a random monomial (exact there)
        cm, bm, am = _random_term(rng)
        if cm != 0:
            m = ctx.monomial(cm, bm, am)
            if m * m.inv() != ctx.constant(1):
                failures += 1
        # trichotomy
        diff = a - b
        orderings = [a.compare(b) is o for o in Ordering]
        if sum(orderings) != 1:
            failures += 1
        if diff.is_zero != (a.compare(b) is Ordering.EQUAL):
            failures += 1
        # standard part is a ring homomorphism on finite values
        fa = _random_value(ctx, rng, finite=True)
        fb = _random_value(ctx, rng, finite=True)
        if (fa + fb).standard_part() != fa.standard_part() + fb.standard_part():
            failures += 1
        if (fa * fb).standard_part() != fa.standard_part() * fb.standard_part():
            failures += 1
    assert failures == 0
    _report(8, "10,000 triples: field axioms, trichotomy, st homomorphism,"
               " zero failures", started, 60.0)


# criterion 9 ---------------------------------------------------------------

def test_c09_extended_decimal_round_trip():
    started = time.perf_counter()
    ctx = NumContext()
    tau = ctx.tau()
    rng = random.Random(271828)
    for _ in range(200):
        n = rng.randrange(0, 6)
        r = Fraction(rng.randrange(0, 10**6), 10**6)
        c = Fraction(rng.randrange(0, 10**4), 10**4)
        s = rng.choice([1, -1])
        sign = rng.choice([1, -1])
        x = sign * (ctx.constant(n) + ctx.constant(r) + s * c * tau)
        text = render(x)
        assert ls_parse(ctx, text) == x, text
        y = abs(x)
        frac_y = y - y.floor()
        for pos in (1, 3, (1, 0), (1, 2)):
            d = digit_at(frac_y, pos)
            assert 0 <= d <= 9
    _report(9, "200 extended decimal round-trips, digits always 0..9",
            started, 10.0)


# criterion 10 --------------------------------------------------------------

def test_c10_figure_goldens():
    started = time.perf_counter()
    ctx = NumContext()
    for name, ext, fmt in (
        ("triple", "svg", "svg"),
        ("triple", "txt", "ascii"),
        ("slope", "svg", "svg"),
        ("slope", "txt", "ascii"),
    ):
        want = (GOLDEN / f"{name}.{ext}").read_text(encoding="utf-8")
        got = microscope(preset_scene(name, ctx, fmt=fmt))
        assert got == want, f"{name}.{ext} drifted"
        again = microscope(preset_scene(name, NumContext(), fmt=fmt))
        assert again == got
    _report(10, "both preset figures byte-identical to the committed goldens",
            started, 5.0)
