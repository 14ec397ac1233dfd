"""Lifted-function tests.

The slope oracle is the symbolic derivative evaluated at the same point;
for float mode we also cross-check against central differences computed
with plain Decimal arithmetic, so the probe machinery never checks itself.
"""

import functools
import math
import random
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from hyperdec.errors import (
    DomainError,
    ExactTranscendental,
    HyperError,
    InfiniteArgument,
    NotFinite,
    ResourceLimit,
)
from hyperdec import transfer
from hyperdec.hyperfield import ExponentPair, HyperValue, NumContext, UNIT_PAIR
from hyperdec.transfer import (
    Add,
    Const,
    Cos,
    Div,
    EvtReport,
    Exp,
    Log,
    Mul,
    NamedConst,
    Neg,
    NoDerivative,
    Pow10,
    PowInt,
    Sin,
    Sqrt,
    Sub,
    Var,
    const,
    derivative,
    eval_real,
    eval_star,
    evt_demo,
    is_arithmetic,
    limit_fun,
    limit_seq,
    symbolic_derivative,
    uniform_continuity_probe,
)

EXACT = NumContext()
FLOAT = NumContext(mode="float", prec=50)
X = Var()


def poly(*coeffs):
    """Polynomial sum(c_k x^k) from low degree up."""
    out = const(coeffs[0])
    for k, c in enumerate(coeffs[1:], start=1):
        out = Add(out, Mul(const(c), PowInt(X, k)))
    return out


def as_map(v):
    return {p: c for c, p in v.terms}


# ---------------------------------------------------------------- eval_star

def test_polynomial_eval_exact():
    f = poly(1, -2, 3)  # 1 - 2x + 3x^2
    v = eval_star(f, EXACT.constant(Fraction(1, 2)))
    assert not v.truncated
    assert as_map(v) == {UNIT_PAIR: Fraction(3, 4)}


def test_polynomial_at_hyper_point():
    f = PowInt(X, 2)
    v = eval_star(f, EXACT.omega() + 1)
    assert as_map(v) == {
        ExponentPair(0, 2): Fraction(1),
        ExponentPair(0, 1): Fraction(2),
        UNIT_PAIR: Fraction(1),
    }


def test_sin_series_exact_about_zero():
    v = eval_star(Sin(X), EXACT.tau())
    assert v.truncated
    assert v.coefficient_at(ExponentPair(1, 0)) == 1
    assert v.coefficient_at(ExponentPair(3, 0)) == Fraction(-1, 6)
    assert v.coefficient_at(ExponentPair(5, 0)) == Fraction(1, 120)
    assert v.coefficient_at(ExponentPair(2, 0)) == 0


def test_log_series_exact_about_one():
    v = eval_star(Log(X), EXACT.constant(1) + EXACT.tau())
    assert v.truncated
    assert v.coefficient_at(ExponentPair(1, 0)) == 1
    assert v.coefficient_at(ExponentPair(2, 0)) == Fraction(-1, 2)
    assert v.coefficient_at(ExponentPair(3, 0)) == Fraction(1, 3)


def test_sqrt_exact_at_rational_square():
    v = eval_star(Sqrt(X), EXACT.constant(Fraction(9, 4)))
    assert not v.truncated
    assert as_map(v) == {UNIT_PAIR: Fraction(3, 2)}
    w = eval_star(Sqrt(X), EXACT.constant(Fraction(9, 4)) + EXACT.tau())
    assert w.truncated
    assert w.standard_part() == Fraction(3, 2)
    assert w.coefficient_at(ExponentPair(1, 0)) == Fraction(1, 3)  # 1/(2*sqrt(9/4))


def test_exact_transcendental_refusals():
    with pytest.raises(ExactTranscendental):
        eval_star(Exp(X), EXACT.constant(1))
    with pytest.raises(ExactTranscendental):
        eval_star(Sin(X), EXACT.constant(2))
    with pytest.raises(ExactTranscendental):
        eval_star(Log(X), EXACT.constant(2))
    with pytest.raises(ExactTranscendental):
        eval_star(Sqrt(X), EXACT.constant(2))
    with pytest.raises(ExactTranscendental):
        eval_star(NamedConst("pi"), EXACT.constant(0))


# ---------------------------------------------------------------- Taylor lifting

def taylor_by_products(kind, u):
    """The lift of `kind` at u as sum c_k * delta**k, delta = u - st(u),
    by repeated products of delta, with no stop on a zero power."""
    ctx = u.ctx
    s = u.standard_part()
    delta = u - s
    with ctx.arith():
        coeffs = transfer._taylor(kind, s, ctx.max_terms, ctx)
    acc = ctx.zero()
    power = ctx.constant(1)
    for k, c in enumerate(coeffs):
        if k:
            power = power * delta
        if c:
            acc = acc + power * c
    flag = acc.truncated or u.truncated or not delta.is_zero
    return HyperValue(ctx=ctx, terms=acc.terms, truncated=flag)


def lift_by_one_term(kind, u):
    """The lift of `kind` at u when delta = u - st(u) has at most one term
    d * X**o, written down in closed form: the oracle for the product loop.

    The power delta**k is the monomial d**k * X**(k*o); one running
    product p = d**k, formed by the same rounded steps as repeated
    multiplication, gives the term p * g_k at key k*o.  The keys strictly
    decrease, so nothing is summed or cut.  The walk stops when p is 0.
    """
    ctx = u.ctx
    s = u.standard_part()
    delta = u - s
    assert len(delta.terms) <= 1
    d, step = delta.terms[0] if delta.terms else (ctx.coeff(0), UNIT_PAIR)
    p, pair = ctx.coeff(1), UNIT_PAIR
    terms = []
    with ctx.arith():
        coeffs = transfer._taylor(kind, s, ctx.max_terms, ctx)
        for k, c in enumerate(coeffs):
            if k:
                p = p * d
                if p == 0:
                    break
                pair = pair + step
            if c:
                t = p * c
                if t != 0:  # a float product can underflow
                    terms.append((t, pair))
    flag = u.truncated or not delta.is_zero
    return HyperValue(ctx=ctx, terms=tuple(terms), truncated=flag)


def shape(v):
    return [(type(c), str(c), p) for c, p in v.terms], v.truncated


LIFTS = {"exp": Exp, "log": Log, "sin": Sin, "cos": Cos, "sqrt": Sqrt}
# exact mode lifts only where the Taylor coefficients are rational
EXACT_POINTS = [("exp", 0), ("sin", 0), ("cos", 0), ("log", 1), ("sqrt", Fraction(4, 9))]
FLOAT_POINTS = EXACT_POINTS + [
    ("exp", Fraction(-7, 3)),
    ("exp", -30),
    ("log", Fraction(1, 10)),
    ("log", 3),
    ("sin", 2),
    ("cos", Fraction(-3, 7)),
    ("sqrt", 2),
    ("sqrt", Fraction(9, 10)),
]
# one-term increments (coefficient, b, a) of eps**b * H**a, and zero
INCREMENTS = [
    None,
    (1, 1, 0),
    (2, 1, 0),
    (1, 0, -1),
    (1, 0, -2),
    (1, Fraction(1, 2), Fraction(-1, 3)),
    (Fraction(7**118, 3**200), 1, 0),  # a 100-digit numerator
]
# in float mode: the square of the first and, at prec 50, the product of
# the second with exp(-30) underflow to 0
UNDERFLOWING = [(Decimal("3E-600000"), 1, 0), (Decimal("1E-1000040"), 1, 0)]
LIFT_CONTEXTS = [NumContext(max_terms=k) for k in (2, 3, 16, 40)] + [
    NumContext(max_terms=k, mode="float", prec=p) for p in (12, 50) for k in (2, 3, 16, 40)
]


@pytest.mark.parametrize("ctx", LIFT_CONTEXTS, ids=repr)
def test_lift_by_one_term_matches_products(ctx):
    if ctx.mode == "exact":
        points, increments = EXACT_POINTS, INCREMENTS
    else:
        points, increments = FLOAT_POINTS, INCREMENTS + UNDERFLOWING
    for kind, s in points:
        for inc in increments:
            terms = [(s, UNIT_PAIR)]
            if inc is not None:
                terms.append((inc[0], ExponentPair(inc[1], inc[2])))
            base = ctx.from_terms(terms)
            for flagged in (False, True):
                u = HyperValue(ctx=ctx, terms=base.terms, truncated=flagged)
                got = eval_star(LIFTS[kind](X), u)
                assert shape(got) == shape(lift_by_one_term(kind, u)), (kind, s, inc, flagged)


def test_lift_by_compound_increment_uses_products():
    # exp(x^2) at 1/2 + eps lifts 1/4 + eps + eps^2
    point = FLOAT.constant(Fraction(1, 2)) + FLOAT.tau()
    got = eval_star(Exp(PowInt(X, 2)), point)
    assert shape(got) == shape(taylor_by_products("exp", point * point))
    u = NumContext(max_terms=7).from_terms(
        [(1, UNIT_PAIR), (1, ExponentPair(1, 0)), (3, ExponentPair(0, -1))]
    )
    assert shape(eval_star(Log(X), u)) == shape(taylor_by_products("log", u))


@pytest.mark.parametrize("prec", [10, 12, 50])
def test_float_stream_is_the_exact_stream_rounded_once(prec):
    # where both modes answer, every float coefficient is the exact one
    # rounded once to prec digits
    exact = NumContext(max_terms=40)
    rounded = NumContext(mode="float", prec=prec, max_terms=40)
    for kind, s in (("exp", 0), ("sin", 0), ("cos", 0), ("log", 1)):
        for count in range(1, 41):
            want = transfer._taylor(kind, Fraction(s), count, exact)
            with rounded.arith():
                got = transfer._taylor(kind, rounded.coeff(s), count, rounded)
            assert [str(c) for c in got] == [str(rounded.coeff(c)) for c in want], (kind, count)


@pytest.mark.parametrize("f, ctx, s, value", [
    (Exp(X), EXACT, 0, 1),
    (Log(X), EXACT, 1, 0),
    (Cos(X), FLOAT, 0, 1),
])
def test_zero_increment_lifts_unflagged(f, ctx, s, value):
    v = eval_star(f, ctx.constant(s))
    assert not v.truncated
    assert v == ctx.constant(value)


def test_domain_errors():
    with pytest.raises(DomainError):
        eval_star(Log(X), EXACT.tau())  # standard part 0
    with pytest.raises(DomainError):
        eval_star(Log(X), FLOAT.constant(-1))
    with pytest.raises(DomainError):
        eval_star(Sqrt(X), FLOAT.constant(-4))
    with pytest.raises(InfiniteArgument):
        eval_star(Sin(X), EXACT.omega())


@pytest.mark.parametrize("f", [Div(const(1), X), PowInt(X, -1)])
@pytest.mark.parametrize("x, ctx", [(Fraction(0), EXACT), (Decimal(0), FLOAT)])
def test_zero_reciprocal_at_sample_point(f, x, ctx):
    # x^-1 gets the same refusal as 1/x, exact and in Decimal
    with pytest.raises(DomainError, match="division by zero at a sample point"):
        eval_real(f, x, ctx)


def test_float_elementary_values():
    v = eval_star(Exp(X), FLOAT.constant(1))
    with localcontext() as dc:
        dc.prec = 50
        want = Decimal(1).exp()
    assert v.standard_part() == want
    u = eval_star(Cos(X), FLOAT.constant(0))
    assert u.standard_part() == 1
    assert not u.truncated


def test_float_sin_matches_math():
    for t in (Decimal("0.3"), Decimal("-2.2"), Decimal("25")):
        v = eval_star(Sin(X), FLOAT.constant(t))
        assert abs(float(v.standard_part()) - math.sin(float(t))) < 1e-12


def test_named_constants_float():
    pi = eval_star(NamedConst("pi"), FLOAT.constant(0)).standard_part()
    assert abs(float(pi) - math.pi) < 1e-15
    ln10 = eval_star(NamedConst("ln10"), FLOAT.constant(0)).standard_part()
    assert abs(float(ln10) - math.log(10)) < 1e-15


def test_pi_is_computed_once_per_precision(monkeypatch):
    calls = []
    series = transfer._dec_pi
    monkeypatch.setattr(transfer, "_dec_pi", lambda: calls.append(1) or series())
    transfer._named_at.cache_clear()
    f = Mul(NamedConst("pi"), X)
    first = eval_star(f, FLOAT.tau())
    for _ in range(3):
        assert eval_star(f, FLOAT.tau()) == first
    assert len(calls) == 1
    eval_star(f, NumContext(mode="float", prec=60).tau())
    assert len(calls) == 2
    transfer._named_at.cache_clear()  # drop the values of the spied series


# ---------------------------------------------------------------- pow10

def test_pow10_monomials():
    f = Pow10(Add(Mul(const(2), X), const(3)))  # 10^(2x+3) at x = H
    v = eval_star(f, EXACT.omega())
    assert as_map(v) == {ExponentPair(-2, 0): Fraction(1000)}
    g = Pow10(Sub(const(0), X))
    w = eval_star(g, EXACT.omega())
    assert as_map(w) == {ExponentPair(1, 0): Fraction(1)}


def test_pow10_negative_constant_exponent():
    v = eval_star(Pow10(const(-2)), EXACT.constant(0))
    assert as_map(v) == {UNIT_PAIR: Fraction(1, 100)}


def test_pow10_rejects_off_grid():
    with pytest.raises(DomainError):
        eval_star(Pow10(Div(X, const(2))), EXACT.omega())  # 10^(H/2)
    with pytest.raises(DomainError):
        eval_star(Pow10(PowInt(X, 2)), EXACT.omega())  # 10^(H^2)
    # a fractional finite exponent is irrational, not off-grid
    with pytest.raises(ExactTranscendental):
        eval_star(Pow10(const(Fraction(1, 2))), EXACT.constant(0))


def test_pow10_fractional_exponent_float():
    v = eval_star(Pow10(const(Fraction(1, 2))), FLOAT.constant(0))
    assert abs(float(v.standard_part()) - math.sqrt(10)) < 1e-12


# ---------------------------------------------------------------- derivative

def test_derivative_polynomial_matches_oracle_exactly():
    rng = random.Random(42)
    for _ in range(50):
        coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(7)]
        f = poly(*coeffs)
        fp = symbolic_derivative(f)
        for _ in range(3):
            x0 = Fraction(rng.randrange(-8, 9), rng.randrange(1, 5))
            got = derivative(f, x0, EXACT)
            want = eval_real(fp, x0, EXACT)
            assert got == want


def oracle_infinitesimals(ctx):
    """The four infinitesimals every probe oracle here steps by: two
    multiples of eps and two powers of 1/H."""
    return (ctx.tau(), 2 * ctx.tau(), ctx.omega(-1), ctx.omega(-2))


def slope_by_probes(f, x0, ctx):
    """The slope oracle: st((f(x0 + e) - f(x0))/e) for each infinitesimal
    e of oracle_infinitesimals, over hypervalues.

    The probes must agree (exactly in exact mode, to half the working
    precision in float mode); otherwise, or when a quotient is infinite,
    the answer is a NoDerivative witness.
    """
    base_point = ctx.constant(x0)
    base = transfer.eval_star(f, base_point)
    slopes = []
    for e in oracle_infinitesimals(ctx):
        quotient = (transfer.eval_star(f, base_point + e) - base) / e
        try:
            slopes.append((e, quotient.standard_part()))
        except NotFinite:
            return NoDerivative(
                probe_a=e,
                probe_b=None,
                slope_a=None,
                slope_b=None,
                note="difference quotient is infinite; no finite slope",
            )
    first_e, first = slopes[0]
    for e, s in slopes[1:]:
        if not transfer._values_agree(first, s, ctx):
            return NoDerivative(
                probe_a=first_e,
                probe_b=e,
                slope_a=first,
                slope_b=s,
                note="probe slopes disagree",
            )
    return first


ELEMENTARY_NODES = (Exp, Log, Sin, Cos, Sqrt, Pow10)


def random_tree(rng, depth, unary=()):
    """A random tree with negative powers, at most depth deep.

    With no unary nodes the tree is arithmetic; the nodes in unary join
    the choice of inner nodes, and the named constants that of leaves.
    """
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.6:
            return X
        if unary and rng.random() < 0.25:
            return NamedConst(rng.choice(("pi", "e", "ln10")))
        return const(Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)))
    kind = rng.choice((Add, Sub, Mul, Div, PowInt, Neg) + unary)
    if kind is PowInt:
        return PowInt(random_tree(rng, depth - 1, unary), rng.randrange(-3, 4))
    if kind is Neg or kind in unary:
        return kind(random_tree(rng, depth - 1, unary))
    return kind(random_tree(rng, depth - 1, unary), random_tree(rng, depth - 1, unary))


def slope_or_refusal(f, x0, ctx=EXACT, route=derivative):
    try:
        return route(f, x0, ctx)
    except HyperError as exc:
        return type(exc), str(exc)


def has_x(f):
    if isinstance(f, Var):
        return True
    return any(has_x(g) for g in f.children())


def pow10_moves_with_x(f):
    if isinstance(f, Pow10) and has_x(f.exponent):
        return True
    return any(pow10_moves_with_x(g) for g in f.children())


def slope_error(got, want):
    """|got - want| relative to max(|want|, 1), at twice FLOAT's precision.

    Below 1 the error is absolute: a slope that is 0 in truth comes out
    as rounding noise, whose relative error means nothing.
    """
    wide = NumContext(mode="float", prec=2 * FLOAT.prec)
    with wide.arith():
        return abs(wide.coeff(got) - want) / max(abs(want), 1)


def test_jet_slope_matches_the_probe_route():
    # the probe route is the oracle for the first-order jet: the same
    # Fraction, or the same refusal type and text
    rng = random.Random(10)
    refused = 0
    for _ in range(300):
        f = random_tree(rng, 4)
        x0 = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        got = slope_or_refusal(f, x0)
        assert got == slope_or_refusal(f, x0, route=slope_by_probes), (f, x0)
        refused += isinstance(got, tuple)
    assert 0 < refused < 150


def test_exact_jet_over_every_node_matches_the_probe_route():
    # the same Fraction or the same refusal, but for a power of ten whose
    # exponent moves with x: at x0 + e that exponent has an infinitesimal
    # tail or the truncation flag, so the oracle refuses; the jet refuses
    # it only for a nonzero slope, and may refuse at an earlier node, since
    # the oracle evaluates all of f(x0) before any probe
    rng = random.Random(11)
    answered = differ = 0
    for _ in range(300):
        f = random_tree(rng, 4, ELEMENTARY_NODES)
        x0 = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        got = slope_or_refusal(f, x0)
        want = slope_or_refusal(f, x0, route=slope_by_probes)
        answered += not isinstance(got, tuple)
        if got == want:
            continue
        differ += 1
        assert pow10_moves_with_x(f) and isinstance(want, tuple), (f, x0, got, want)
        if not isinstance(got, tuple):
            fp = symbolic_derivative(f)
            assert slope_error(got, eval_real(fp, FLOAT.coeff(x0), FLOAT)) < 1e-45
    assert answered > 30 and differ < 30


def float_slope_oracle(f, x0):
    """The symbolic slope at twice FLOAT's precision, or None where the
    tree is ill-conditioned at FLOAT's precision: there the symbolic
    slope at that precision is off by more than 10^-(prec-5), or refused
    only at the higher one (a square root of rounding noise), and no
    route at that precision can do better."""
    high = NumContext(mode="float", prec=2 * FLOAT.prec)
    fp = symbolic_derivative(f)
    try:
        want = eval_real(fp, high.coeff(x0), high)
    except HyperError:
        return None
    low = eval_real(fp, FLOAT.coeff(x0), FLOAT)
    return want if slope_error(low, want) <= Decimal(10) ** -(FLOAT.prec - 5) else None


def test_float_jet_over_every_node_is_as_close_as_the_probe_route():
    # the same refusal as the oracle, or a slope within 10^-(prec-5) of
    # the symbolic slope at twice the precision, on every tree that is
    # well-conditioned at FLOAT's precision
    rng = random.Random(12)
    bound = Decimal(10) ** -(FLOAT.prec - 5)
    worst_jet = worst_probe = Decimal(0)
    answered = ill_conditioned = 0
    for _ in range(300):
        f = random_tree(rng, 4, ELEMENTARY_NODES)
        x0 = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        got = slope_or_refusal(f, x0, FLOAT)
        probe = slope_or_refusal(f, x0, FLOAT, slope_by_probes)
        if isinstance(got, tuple):
            assert got == probe, (f, x0)
            continue
        answered += 1
        if isinstance(probe, tuple):
            # the oracle refuses where the jet answers only for a power of
            # ten whose exponent in x carries the truncation flag
            assert pow10_moves_with_x(f) and probe[0] is DomainError, (f, x0, probe)
        want = float_slope_oracle(f, x0)
        if want is None:
            ill_conditioned += 1
            continue
        err = slope_error(got, want)
        assert err <= bound, (f, x0, got, want)
        if isinstance(probe, Decimal):  # like for like
            worst_jet = max(worst_jet, err)
            worst_probe = max(worst_probe, slope_error(probe, want))
    assert answered > 150 and ill_conditioned < 10
    # the two routes round differently in the last digits, so slope by
    # slope either can be the closer one; the worst case is no worse
    assert worst_jet <= worst_probe


@pytest.mark.parametrize("f, x0", [
    (Div(const(1), X), 0),
    (Div(X, Sub(X, const(1))), 1),
    (PowInt(Sub(X, const(1)), -2), 1),
    (PowInt(X, 4_000_000), Fraction(3, 2)),
    # the dividend fails before the zero divisor is refused
    (Div(PowInt(X, 4_000_000), Sub(X, X)), Fraction(3, 2)),
    (Div(PowInt(X, -1), Sub(X, X)), 0),
])
def test_jet_refuses_as_the_probe_route(f, x0):
    got = slope_or_refusal(f, Fraction(x0))
    assert isinstance(got, tuple)
    assert got == slope_or_refusal(f, Fraction(x0), route=slope_by_probes)


def test_jet_slope_where_a_probe_power_passes_the_bit_cap():
    # x^3000000 vanishes at 0, so the jet forms no large power; the probe
    # 2*eps gives (2*eps)^3000000, whose coefficient passes the bit cap
    f = PowInt(X, 3_000_000)
    assert derivative(f, Fraction(0), EXACT) == 0
    with pytest.raises(ResourceLimit, match="bit cap"):
        slope_by_probes(f, Fraction(0), EXACT)


def test_exact_arithmetic_slope_takes_no_probe(monkeypatch):
    # nor does any other slope: float, transcendental or with a named constant
    def no_probe(f, x):
        raise AssertionError("eval_star was called")

    monkeypatch.setattr(transfer, "eval_star", no_probe)
    f = Div(const(1), PowInt(X, 2))
    assert derivative(f, Fraction(1, 2), EXACT) == -16
    assert derivative(f, Fraction(1, 2), FLOAT) == -16
    assert derivative(Sin(X), Fraction(0), EXACT) == 1
    assert derivative(Mul(NamedConst("pi"), Pow10(X)), Fraction(0), FLOAT) > 7
    with pytest.raises(AssertionError, match="eval_star was called"):
        slope_by_probes(f, Fraction(1, 2), EXACT)


def test_derivative_elementary_float_vs_central_difference():
    cases = [
        (Exp(X), Fraction(1, 3)),
        (Log(X), Fraction(5, 2)),
        (Sin(X), Fraction(1, 5)),
        (Mul(X, Cos(X)), Fraction(2, 3)),
        (Sqrt(Add(const(1), PowInt(X, 2))), Fraction(3, 4)),
        (Div(Sin(X), Add(const(2), Cos(X))), Fraction(1, 2)),
    ]
    h = Decimal("1e-10")
    for f, x0 in cases:
        got = derivative(f, x0, FLOAT)
        assert isinstance(got, Decimal)
        with localcontext() as dc:
            dc.prec = 60
            xd = Decimal(x0.numerator) / Decimal(x0.denominator)
            want = (eval_real(f, xd + h, FLOAT) - eval_real(f, xd - h, FLOAT)) / (2 * h)
        assert abs(got - want) < Decimal("1e-6")


def test_derivative_chain_rule_through_pow10():
    # d/dx 10^(2x) = 10^(2x) * ln 10 * 2
    got = derivative(Pow10(Mul(const(2), X)), Fraction(0), FLOAT)
    with localcontext() as dc:
        dc.prec = 50
        want = 2 * Decimal(10).ln()
    assert abs(got - want) < Decimal("1e-40")


def test_derivative_outside_taylor_domain_raises():
    # sqrt has no Taylor window about 0, so the probe cannot start
    with pytest.raises(DomainError):
        derivative(Sqrt(X), Fraction(0), FLOAT)


def test_no_derivative_witness_shape():
    w = NoDerivative(
        probe_a=EXACT.tau(),
        probe_b=2 * EXACT.tau(),
        slope_a=Fraction(1),
        slope_b=Fraction(2),
        note="probe slopes disagree",
    )
    assert w.slope_a != w.slope_b
    assert "disagree" in w.note


def test_symbolic_derivative_shapes():
    f = Mul(X, Sin(X))
    fp = symbolic_derivative(f)
    v = eval_real(fp, Decimal("0.7"), FLOAT)
    want = math.sin(0.7) + 0.7 * math.cos(0.7)
    assert abs(float(v) - want) < 1e-12


# ---------------------------------------------------------------- limits

def test_limit_seq_convergent():
    f = Div(X, Add(X, const(1)))  # n / (n+1)
    r = limit_seq(f, EXACT)
    assert r.outcome == "converges"
    assert r.value == 1
    assert r.cross_check_agrees is True


def test_limit_seq_divergent():
    r = limit_seq(PowInt(X, 2), EXACT)
    assert r.outcome == "diverges"
    assert r.sign == 1
    assert r.cross_check_agrees is True
    r2 = limit_seq(Sub(const(0), X), EXACT)
    assert r2.sign == -1


def test_limit_seq_indeterminate_on_unsupported():
    r = limit_seq(Sin(X), EXACT)  # sin at an infinite point
    assert r.outcome == "indeterminate"
    assert r.note


def test_limit_seq_scaled_sine():
    # n * sin(1/n) -> 1
    f = Mul(X, Sin(Div(const(1), X)))
    r = limit_seq(f, EXACT)
    assert r.outcome == "converges"
    assert r.value == 1


def test_limit_fun_removable_singularity():
    f = Div(Sub(PowInt(X, 2), const(1)), Sub(X, const(1)))
    r = limit_fun(f, Fraction(1), EXACT)
    assert r.outcome == "limit"
    assert r.value == 2


def test_limit_fun_blowup():
    r = limit_fun(Div(const(1), X), Fraction(0), EXACT)
    assert r.outcome == "no_limit"
    assert r.witnesses


def limit_by_probes(f, a, ctx):
    """The limit oracle: f at a + e and a - e for each infinitesimal e of
    oracle_infinitesimals, in that order.  The first refusal is no
    verdict and the first infinite value no limit; the standard parts
    must all match the first, or the first that does not is the witness.
    """
    base = ctx.constant(a)
    seen = []
    for e in oracle_infinitesimals(ctx):
        for side in (1, -1):
            label = f"x = {a} {'+' if side > 0 else '-'} ({e})"
            try:
                v = transfer.eval_star(f, base + side * e)
            except HyperError as exc:
                witness = f"{label}: evaluation failed ({exc})"
                return transfer.FunLimit(outcome="indeterminate", witnesses=(witness,))
            if not v.is_finite:
                witness = f"{label}: value is infinite (sign {v.sign():+d})"
                return transfer.FunLimit(outcome="no_limit", witnesses=(witness,))
            seen.append((label, v.standard_part()))
    first_label, first = seen[0]
    for label, s in seen[1:]:
        if not transfer._values_agree(first, s, ctx):
            witnesses = (f"{first_label}: {first}", f"{label}: {s}")
            return transfer.FunLimit(outcome="no_limit", witnesses=witnesses)
    return transfer.FunLimit(outcome="limit", value=first)


# exact at two term budgets, and float
ORACLE_CONTEXTS = (NumContext(max_terms=4), NumContext(max_terms=16),
                   NumContext(mode="float", prec=30))


def shifted_power_shape(rng, unary=()):
    """(x - a)^p * g / (x - a)^q with g a small random tree, and a: a
    pole for p < q, a removable singularity for p >= q > 0."""
    a = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
    shift = Sub(X, const(a))
    top = PowInt(shift, rng.randrange(0, 4))
    if rng.random() < 0.5:
        top = Mul(top, random_tree(rng, 2, unary))
    return Div(top, PowInt(shift, rng.randrange(0, 4))), a


# a power of ten separates x = H from H + eps in float mode, a square
# only from H + 1/H; the rest refuse, blow up or pass
NAMED_CASES = (
    Pow10(X), PowInt(X, 2), Div(const(1), X), Mul(X, Sin(Div(const(1), X))),
    Exp(X), Sqrt(X), Log(X), Div(const(1), Add(PowInt(X, 2), const(1))),
)


def limit_corpus(rng, count):
    """The named cases at 0, 1 and -1/2, then count limit cases of each
    kind: arithmetic trees, trees with every node, and shifted power
    shapes with and without elementary nodes."""
    for f in NAMED_CASES:
        for a in (Fraction(0), Fraction(1), Fraction(-1, 2)):
            yield f, a
    for _ in range(count):
        yield random_tree(rng, 3), Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
        yield random_tree(rng, 3, ELEMENTARY_NODES), Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
        yield shifted_power_shape(rng)
        yield shifted_power_shape(rng, ELEMENTARY_NODES)


def test_limit_fun_matches_the_probe_oracle():
    # one lift per side decides every case as the eight probes do: the
    # same outcome, value and witnesses
    rng = random.Random(17)
    outcomes = Counter()
    for ctx in ORACLE_CONTEXTS:
        for f, a in limit_corpus(rng, 40):
            got = limit_fun(f, a, ctx)
            assert got == limit_by_probes(f, a, ctx), (f, a, ctx)
            outcomes[got.outcome] += 1
    assert set(outcomes) == {"limit", "no_limit", "indeterminate"}, outcomes
    assert min(outcomes.values()) >= 50, outcomes


def test_limit_fun_folds_f_once_per_side(monkeypatch):
    seen = []

    def spy(g, x):
        seen.append(x)
        return eval_star(g, x)

    monkeypatch.setattr(transfer, "eval_star", spy)
    f = Div(Sub(PowInt(X, 2), const(1)), Sub(X, const(1)))
    assert limit_fun(f, Fraction(1), EXACT).value == 2
    assert seen == [EXACT.constant(1) + EXACT.tau(), EXACT.constant(1) - EXACT.tau()]


def test_limit_fun_reports_the_two_sides_when_they_disagree(monkeypatch):
    # no tree over these nodes has a jump, so a stand-in f gives 1 on the
    # right of 0 and 2 on the left
    def sides(g, x):
        return EXACT.constant(1 if x.sign() > 0 else 2)

    monkeypatch.setattr(transfer, "eval_star", sides)
    r = limit_fun(X, Fraction(0), EXACT)
    assert (r.outcome, r.witnesses) == ("no_limit", ("x = 0 + (eps): 1", "x = 0 - (eps): 2"))


def test_limit_fun_where_a_dropped_probe_passes_the_bit_cap():
    # x^3000000 has limit 0 at 0; the oracle refuses at 2*eps, whose
    # power has a coefficient past the bit cap
    f = PowInt(X, 3_000_000)
    assert limit_fun(f, Fraction(0), EXACT).value == 0
    r = limit_by_probes(f, Fraction(0), EXACT)
    assert r.outcome == "indeterminate" and "bit cap" in r.witnesses[0]


SUM_OF_XS = functools.reduce(Add, [X] * 1200)


def test_a_tree_too_deep_to_fold_is_refused_with_a_typed_error():
    with pytest.raises(ResourceLimit, match="nests too deeply"):
        derivative(SUM_OF_XS, Fraction(1), EXACT)
    r = limit_fun(SUM_OF_XS, Fraction(1), EXACT)
    assert r.outcome == "indeterminate"
    assert r.witnesses == (
        f"x = 1 + (eps): evaluation failed ({transfer._TOO_DEEP})",
    )
    r = limit_seq(SUM_OF_XS, EXACT)
    assert (r.outcome, r.note) == ("indeterminate", transfer._TOO_DEEP)


# ---------------------------------------------------------------- continuity

def test_uniform_continuity_square_fails_at_infinite_point():
    rep = uniform_continuity_probe(PowInt(X, 2), EXACT)
    assert rep.verdict == "fail"
    assert as_map(rep.witness_x) == {ExponentPair(0, 1): Fraction(1)}
    assert as_map(rep.witness_y) == {
        ExponentPair(0, 1): Fraction(1),
        ExponentPair(0, -1): Fraction(1),
    }
    assert rep.gap_standard == 2


def test_uniform_continuity_affine_passes():
    rep = uniform_continuity_probe(Add(Mul(const(2), X), const(1)), EXACT)
    assert rep.verdict == "pass_all_probes"
    assert "not a proof" in rep.note


@pytest.mark.parametrize("f, verdict, calls", [
    # 8 sample points by 2 infinitesimals: each f(x + e), and f(x) once
    (Add(Mul(const(2), X), const(1)), "pass_all_probes", 16 + 8),
    # fails at the 12th pair, the 2nd of the 6th point
    (PowInt(X, 2), "fail", 12 + 6),
])
def test_uniform_probe_evaluates_f_once_per_point(monkeypatch, f, verdict, calls):
    seen = []

    def spy(g, x):
        seen.append(x)
        return eval_star(g, x)

    monkeypatch.setattr(transfer, "eval_star", spy)
    assert uniform_continuity_probe(f, EXACT).verdict == verdict
    assert len(seen) == calls


def test_uniform_probe_reports_the_first_refusal_near_a_point():
    # at 0, f(0 + e) refuses in log and f(0) in 1/x; the note keeps the
    # refusal of f(0 + e), which comes first
    f = Add(Div(const(1), X), Log(X))
    with pytest.raises(HyperError, match="cannot invert zero"):
        eval_star(f, EXACT.zero())
    rep = uniform_continuity_probe(f, EXACT)
    assert rep.verdict == "inconclusive"
    assert rep.note == "evaluation failed near 0: log needs a positive standard part"


def uniform_by_probes(f, ctx):
    """The uniform probe oracle: the same sample points, each stepped by
    every infinitesimal of oracle_infinitesimals in turn, with f(y) taken
    before f(x) at every pair."""
    points = [ctx.constant(s) for s in transfer._STANDARD_SAMPLES]
    points += [ctx.omega(), ctx.omega(2), ctx.tau(-1)]
    trouble = None
    for x in points:
        for e in oracle_infinitesimals(ctx):
            y = x + e
            try:
                gap = transfer.eval_star(f, y) - transfer.eval_star(f, x)
            except HyperError as exc:
                trouble = trouble or f"evaluation failed near {x}: {exc}"
                continue
            if gap.classify()[0].name != "INFINITESIMAL":
                try:
                    std = gap.standard_part()
                except NotFinite:
                    std = None
                return transfer.UniformReport(
                    verdict="fail", witness_x=x, witness_y=y, gap=gap, gap_standard=std,
                    note="points are infinitely close but the values are not",
                )
    if trouble:
        return transfer.UniformReport(verdict="inconclusive", note=trouble)
    return transfer.UniformReport(
        verdict="pass_all_probes",
        note="no probe pair separated the values; evidence, not a proof",
    )


def uniform_corpus(rng, count):
    """The named cases, then count trees of each kind: arithmetic, with
    every node, and shifted power shapes."""
    yield from NAMED_CASES
    for _ in range(count):
        yield random_tree(rng, 3)
        yield random_tree(rng, 3, ELEMENTARY_NODES)
        yield shifted_power_shape(rng)[0]


def test_uniform_probe_matches_the_probe_oracle():
    # eps and 1/H separate every pair the four infinitesimals do: the same
    # verdict, witnesses, gap, its standard part and note
    rng = random.Random(18)
    verdicts = Counter()
    for ctx in ORACLE_CONTEXTS:
        for f in uniform_corpus(rng, 6):
            got = uniform_continuity_probe(f, ctx)
            assert got == uniform_by_probes(f, ctx), (f, ctx)
            verdicts[got.verdict] += 1
    assert set(verdicts) == {"fail", "pass_all_probes", "inconclusive"}, verdicts


# ---------------------------------------------------------------- evt demo

def test_evt_demo_parabola():
    f = Mul(X, Sub(const(1), X))  # x(1-x), peak at 1/2
    rep = evt_demo(f, EXACT, n=8, doublings=3)
    assert isinstance(rep, EvtReport)
    assert [row.n for row in rep.rows] == [8, 16, 32, 64]
    for row in rep.rows:
        assert row.argmax == Fraction(1, 2)
        assert row.value == Fraction(1, 4)
    assert rep.stabilized()


def test_evt_demo_tie_keeps_first_index():
    f = Mul(PowInt(Sub(X, const(Fraction(1, 2))), 2), const(-1))
    # flat-topped? no: strict parabola; use a constant to force ties
    g = const(7)
    rep = evt_demo(g, EXACT, n=4, doublings=0)
    assert rep.rows[0].argmax == 0


def evt_by_refolding(f, ctx, n, doublings):
    """evt_demo's rows with every point of every grid folded afresh."""
    num = transfer._scalars(ctx, ctx.mode == "exact" and is_arithmetic(f))
    rows = []
    for j in range(doublings + 1):
        m = n * 2**j
        best_i, best = 0, None
        for i in range(m + 1):
            v = num.fold(f, Fraction(i, m))
            if best is None or v > best:
                best, best_i = v, i
        rows.append((m, Fraction(best_i, m), best))
    return rows


@pytest.mark.parametrize("f, ctx", [
    (Mul(X, Sub(const(1), X)), EXACT),
    (Sin(Mul(const(3), X)), FLOAT),
    (Sin(Mul(const(3), X)), EXACT),
    (const(7), EXACT),  # every point ties
    (Mul(Sub(X, const(Fraction(3, 8))), Sub(X, const(Fraction(5, 8)))), EXACT),  # two peaks tie
    (Div(const(1), Sub(Mul(const(16), X), const(1))), EXACT),  # refuses at 1/16 only
], ids=["parabola", "float-sin", "exact-sin", "constant", "two-ends", "pole-at-an-odd-point"])
def test_evt_demo_folds_each_grid_point_once(f, ctx, monkeypatch):
    def outcome(run):
        try:
            return run()
        except HyperError as exc:
            return (type(exc), str(exc))

    want = outcome(lambda: evt_by_refolding(f, ctx, 8, 2))
    folds = []
    fold = transfer._Backend.fold
    monkeypatch.setattr(transfer._Backend, "fold",
                        lambda self, g, x: folds.append(x) or fold(self, g, x))
    got = outcome(lambda: [(r.n, r.argmax, r.value)
                           for r in evt_demo(f, ctx, n=8, doublings=2).rows])
    assert got == want
    if isinstance(want, list):  # 9 points, then the 8 and 16 odd ones of the finer grids
        assert len(folds) == len(set(folds)) == 33


def test_eval_real_runs_at_the_context_precision_in_both_modes():
    f = Sin(X)
    for prec in (12, 60):
        exact = eval_real(f, Fraction(1, 2), NumContext(prec=prec))
        assert exact == eval_real(f, Fraction(1, 2), NumContext(mode="float", prec=prec))
        assert len(exact.as_tuple().digits) == prec
    rows = evt_demo(f, NumContext(prec=60), n=4, doublings=0).rows
    assert rows[0].value == evt_demo(f, NumContext(mode="float", prec=60), n=4, doublings=0).rows[0].value


def test_exact_scalar_power_past_the_bit_cap_refuses_as_the_jet_does():
    f = PowInt(X, -10**8)
    with pytest.raises(ResourceLimit) as scalar:
        eval_real(f, Fraction(3, 2), EXACT)
    with pytest.raises(ResourceLimit) as jet:
        derivative(f, Fraction(3, 2), EXACT)
    assert str(scalar.value) == str(jet.value)
    assert "bit cap" in str(scalar.value)


def test_evt_demo_grid_cap():
    with pytest.raises(ValueError):
        evt_demo(const(0), EXACT, n=1_000_000, doublings=3)


# ---------------------------------------------------------------- probes

def test_probe_set_validation():
    # the one probe pair per context holds what its callers rely on
    for ctx in (EXACT, FLOAT, NumContext(max_terms=4)):
        infinitesimals, infinite_points = transfer._probe_points(ctx)
        assert infinitesimals and len(infinite_points) >= 2
        for v in infinitesimals:
            assert not v.is_zero and v.is_finite and v.standard_part() == 0
        assert not any(v.is_finite for v in infinite_points)
        assert transfer._probe_points(ctx) == (
            (ctx.tau(), ctx.omega(-1)),
            (ctx.omega(), ctx.omega(2), ctx.tau(-1)),
        )


def test_default_probes_are_built_once_per_context():
    ctx = NumContext(mode="float", prec=30)
    infinitesimals, infinite_points = transfer._probe_points(ctx)
    assert transfer._probe_points(NumContext(mode="float", prec=30)) == (
        infinitesimals, infinite_points)
    assert transfer._probe_points(NumContext(mode="float", prec=30))[0] is infinitesimals
    assert all(v.ctx == ctx for v in infinitesimals + infinite_points)
    assert transfer._probe_points(EXACT) is not transfer._probe_points(FLOAT)


def test_is_arithmetic():
    assert is_arithmetic(poly(1, 2, 3))
    assert not is_arithmetic(Sin(X))
    assert not is_arithmetic(Pow10(X))
