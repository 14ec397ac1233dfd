"""Field kernel tests.

Derived expectations are checked against small independent oracles
written here (naive dict merge for addition, brute-force convolution
for multiplication, multiply-back and a plain-Fraction geometric series
for inversion) rather than against the implementation's own plumbing.
"""

import ast
import copy
import json
import math
import pickle
import random
import time
from decimal import Context, Decimal, Overflow, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from hyperdec.errors import (
    ContextMismatch,
    DivisionByZero,
    FloorUndecidable,
    HyperError,
    NotFinite,
    ResourceLimit,
    TruncationAmbiguous,
)
from hyperdec import hyperfield as hf
from hyperdec.hyperfield import (
    Classification,
    ExponentPair,
    HyperValue,
    NumContext,
    Ordering,
    UNIT_PAIR,
    format_value,
    from_json,
    nines,
    nines_hyper,
    to_json,
)
from hyperdec.transfer import PowInt, Var, eval_real, eval_star

CTX = NumContext()


def val(*terms, ctx=CTX, truncated=False):
    """Terms as (coeff, b, a) triples."""
    return ctx.from_terms(
        [(c, ExponentPair(Fraction(b), Fraction(a))) for c, b, a in terms],
        truncated=truncated,
    )


# ---------------------------------------------------------------- oracles

def oracle_add(x, y):
    acc = {}
    for c, p in list(x.terms) + list(y.terms):
        acc[p] = acc.get(p, Fraction(0)) + c
    return {p: c for p, c in acc.items() if c != 0}


def oracle_mul(x, y):
    acc = {}
    # float mode rounds each product and sum to the context's digits
    with localcontext(Context(prec=x.ctx.prec)):
        for c1, p1 in x.terms:
            for c2, p2 in y.terms:
                p = p1 + p2
                prod = c1 * c2
                acc[p] = acc[p] + prod if p in acc else prod
    return {p: c for p, c in acc.items() if c != 0}


def oracle_inv(x, k, rounds):
    """Leading k terms of 1/x and their flag, from the geometric series in
    plain Fractions.

    There is no stop rule: the series runs `rounds` rounds.  With l the
    largest offset of x below its lead, round j reaches no key above j*l,
    so after the last round every key above (rounds + 1)*l is final.
    Terms at or below that floor are dropped as they appear, since they
    only feed lower keys.  The floor must leave k nonzero terms above it,
    or `rounds` was too few.
    """
    c0, mu0 = x.terms[0]
    minus_r = [(p - mu0, -c / c0) for c, p in x.terms[1:]]
    if not minus_r:
        return [(1 / c0, -mu0)], x.truncated
    top = max(p for p, _ in minus_r)
    floor = ExponentPair(top.b * (rounds + 1), top.a * (rounds + 1))
    acc = {UNIT_PAIR: Fraction(1)}
    term = {UNIT_PAIR: Fraction(1)}
    for _ in range(rounds):
        nxt = {}
        for p1, c1 in term.items():
            for p2, c2 in minus_r:
                p = p1 + p2
                if p > floor:
                    nxt[p] = nxt.get(p, Fraction(0)) + c1 * c2
        term = nxt
        for p, c in term.items():
            acc[p] = acc.get(p, Fraction(0)) + c
    live = sorted((p for p, c in acc.items() if c != 0), reverse=True)[:k]
    assert len(live) == k, f"{rounds} rounds leave fewer than {k} final terms"
    return [(acc[p] / c0, p - mu0) for p in live], True


def as_map(x):
    return {p: c for c, p in x.terms}


# ---------------------------------------------------------------- exponent order

def test_magnitude_order_examples():
    # smaller eps power dominates; then larger H power
    assert ExponentPair(-1, 0) > ExponentPair(0, 5)
    assert ExponentPair(0, 2) > ExponentPair(0, 1)
    assert ExponentPair(0, 0) > ExponentPair(0, -1)
    assert ExponentPair(0, -1) > ExponentPair(1, 100)
    assert ExponentPair(1, 0) > ExponentPair(2, 0)


def test_pair_classification():
    assert ExponentPair(0, 0).is_unit
    assert ExponentPair(-2, 0).is_infinite
    assert ExponentPair(0, 3).is_infinite
    assert ExponentPair(1, 7).is_infinitesimal
    assert ExponentPair(0, -1).is_infinitesimal


def test_pair_equality_ignores_exponent_spelling():
    p, q = ExponentPair(1, 0), ExponentPair(Fraction(2, 2), Fraction(0))
    assert p == q
    assert hash(p) == hash(q)
    assert {p: "x"}[q] == "x"
    assert ExponentPair("1/2", "-2") == ExponentPair(Fraction(1, 2), -2)


def test_pair_order_with_rational_exponents():
    assert ExponentPair(Fraction(1, 2), 0) > ExponentPair(1, -5)
    assert ExponentPair(Fraction(1, 2), 0) < ExponentPair(0, -5)
    assert ExponentPair(0, Fraction(1, 3)) > ExponentPair(0, Fraction(1, 4))
    assert ExponentPair(Fraction(-1, 2), 0) >= ExponentPair(Fraction(-2, 4), 0)
    assert ExponentPair(0, Fraction(1, 3)).is_infinite
    assert ExponentPair(Fraction(1, 2), 9).is_infinitesimal


def test_pair_group_laws():
    a = ExponentPair(Fraction(1, 2), Fraction(-2, 3))
    b = ExponentPair(Fraction(3, 2), 2)
    assert a + b - b == a
    assert -(-a) == a
    assert a + (-a) == UNIT_PAIR
    whole = a + b  # eps^2 * H^(4/3)
    assert whole == ExponentPair(2, Fraction(4, 3))
    assert type(whole.b) is Fraction and type(whole.a) is Fraction


def test_pair_repr_and_fields():
    p = ExponentPair(Fraction(1, 2), 0)
    assert repr(p) == "ExponentPair(b=Fraction(1, 2), a=Fraction(0, 1))"
    assert str(ExponentPair(2, -1)) == "ExponentPair(b=Fraction(2, 1), a=Fraction(-1, 1))"
    assert (p.b, p.a) == (Fraction(1, 2), 0)
    assert type(p.b) is Fraction and type(p.a) is Fraction


# ---------------------------------------------------------------- construction

def test_context_validation():
    with pytest.raises(ValueError):
        NumContext(max_terms=1)
    with pytest.raises(ValueError):
        NumContext(prec=5)
    with pytest.raises(ValueError):
        NumContext(mode="symbolic")


NON_FINITE = ["Infinity", "-inf", " NaN ", "sNaN", float("inf"), float("-inf"),
              float("nan"), Decimal("Infinity"), Decimal("-Infinity"), Decimal("NaN")]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("v", NON_FINITE, ids=repr)
def test_non_finite_coefficients_are_refused(mode, v):
    ctx = NumContext(mode=mode)
    want = f"non-finite coefficient {Decimal(v)}"
    for make in (ctx.coeff, ctx.constant, lambda c: ctx.monomial(c, 1, 0),
                 lambda c: ctx.from_terms([(c, ExponentPair(0, 0))])):
        with pytest.raises(ValueError) as info:
            make(v)
        assert str(info.value) == want


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_finite_coefficients_still_read(mode):
    ctx = NumContext(mode=mode)
    for v in (7, Fraction(3, 4), Decimal("0.25"), 0.5, "2.5", "1e3"):
        assert ctx.constant(v).standard_part() == Fraction(v)
    for text in ("abc", "1/3x", "3/4e2", "1/-3", "1/0"):  # not a number: both modes refuse alike
        with pytest.raises(ValueError) as info:
            ctx.constant(text)
        assert str(info.value) == f"Invalid literal for Fraction: {text!r}"


@pytest.mark.parametrize("text", ["1/3", "-22/7", " 6/4 ", "2.5", "-1.25E+2", "0." + "3" * 60])
def test_float_strings_read_as_exact_ones_rounded_once(text):
    n, d = NumContext().coeff(text).as_integer_ratio()
    ctx = NumContext(mode="float")
    assert ctx.constant(text) == ctx.constant(n) / d


def test_zero_merge_drops_term():
    x = val((2, 1, 0), (-2, 1, 0), (1, 0, 0))
    assert as_map(x) == {UNIT_PAIR: Fraction(1)}


def test_truncation_keeps_largest():
    ctx = NumContext(max_terms=2)
    x = ctx.from_terms(
        [(1, ExponentPair(0, 1)), (1, ExponentPair(0, 0)), (1, ExponentPair(1, 0))]
    )
    assert x.truncated
    assert [p for _, p in x.terms] == [ExponentPair(0, 1), ExponentPair(0, 0)]


def test_context_mismatch_rejected():
    other = NumContext(max_terms=8)
    with pytest.raises(ContextMismatch):
        CTX.tau() + other.tau()


# ---------------------------------------------------------------- add / sub / neg

def test_add_examples():
    om = CTX.omega()
    assert as_map((om + 1) + (om - 1)) == {ExponentPair(0, 1): Fraction(2)}
    assert (CTX.tau() - CTX.tau()).is_zero
    x = val((1, 0, 0), (1, 1, 0))  # 1 + eps
    y = val((1, 0, 1))             # H
    assert as_map(x + y) == oracle_add(x, y)


def test_add_matches_oracle_randomized():
    rng = random.Random(11)
    for _ in range(300):
        x = random_value(rng)
        y = random_value(rng)
        got = x + y
        assert not got.truncated
        assert as_map(got) == oracle_add(x, y)


def test_sticky_flag_propagates():
    ctx = NumContext(max_terms=2)
    crowded = ctx.from_terms(
        [(1, ExponentPair(0, 2)), (1, ExponentPair(0, 1)), (1, ExponentPair(0, 0))]
    )
    assert crowded.truncated
    assert (crowded + ctx.zero()).truncated
    assert (-crowded).truncated
    assert (crowded * ctx.constant(2)).truncated


# ---------------------------------------------------------------- mul

def test_mul_examples():
    tau = CTX.tau()
    lhs = (nines_hyper(CTX) - 1) * (nines_hyper(CTX) + 1)
    assert as_map(lhs) == {ExponentPair(1, 0): Fraction(-2), ExponentPair(2, 0): Fraction(1)}
    om = CTX.omega()
    assert as_map((om + 1) * (om - 1)) == {ExponentPair(0, 2): Fraction(1), ExponentPair(0, 0): Fraction(-1)}
    assert as_map(tau * CTX.tau(-1)) == {UNIT_PAIR: Fraction(1)}


def test_mul_matches_oracle_randomized():
    rng = random.Random(23)
    for _ in range(300):
        x = random_value(rng)
        y = random_value(rng)
        assert as_map(x * y) == oracle_mul(x, y)


def random_monomial_products(rng, ctx, count):
    """(x, m) pairs in ctx: x with up to five terms, m with one; negative
    and rational exponents on both."""
    def pair():
        return ExponentPair(
            Fraction(rng.randrange(-6, 7), rng.choice((1, 2, 3))),
            Fraction(rng.randrange(-6, 7), rng.choice((1, 2, 3))),
        )

    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10**8), rng.randrange(1, 10**5))

    for _ in range(count):
        x = ctx.from_terms([(coeff(), pair()) for _ in range(rng.randrange(0, 6))])
        m = ctx.from_terms([(coeff(), pair())])
        yield x, m


@pytest.mark.parametrize("ctx", [CTX, NumContext(mode="float", prec=12)])
def test_mul_by_monomial_matches_oracle(ctx):
    rng = random.Random(f"monomial-{ctx.mode}")
    rounded = 0
    for x, m in random_monomial_products(rng, ctx, 300):
        want = oracle_mul(x, m)
        for got in (x * m, m * x):
            assert as_map(got) == want
            assert [p for _, p in got.terms] == sorted(want, reverse=True)
            assert not got.truncated
        (cm, _), = m.terms
        rounded += sum(
            Fraction(c) * Fraction(cm) != Fraction(prod)
            for (c, _), (prod, _) in zip(x.terms, got.terms)
        )
    # twelve digits times twelve digits: in float mode most products round
    assert rounded > 100 if ctx.mode == "float" else rounded == 0


def test_mul_by_monomial_keeps_truncated_flag():
    rng = random.Random(41)
    for x, m in random_monomial_products(rng, CTX, 50):
        cut = HyperValue(ctx=CTX, terms=x.terms, truncated=True)
        cut_m = HyperValue(ctx=CTX, terms=m.terms, truncated=True)
        for got in (cut * m, m * cut, x * cut_m, cut_m * x):
            assert got.truncated
            assert as_map(got) == oracle_mul(x, m)


def random_cut_products(rng, ctx, count):
    """(x, y) pairs in ctx with 2-5 terms each, so that most products
    exceed K = 5: rational exponents, a fifth with 100-digit coefficients,
    and about one x in four carrying the truncated flag."""
    def pair():
        return ExponentPair(
            Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3))),
            Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3))),
        )

    for _ in range(count):
        digits = 100 if rng.random() < 0.2 else 6

        def coeff():
            return Fraction(
                rng.choice((-1, 1)) * rng.randrange(1, 10**digits),
                rng.randrange(1, 10**digits),
            )

        x = ctx.from_terms([(coeff(), pair()) for _ in range(rng.randrange(2, 6))])
        y = ctx.from_terms([(coeff(), pair()) for _ in range(rng.randrange(2, 6))])
        if rng.random() < 0.25:
            x = HyperValue(ctx=ctx, terms=x.terms, truncated=True)
        yield x, y


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_mul_at_the_term_cut_matches_oracle(mode):
    """A general product keeps the K largest terms of the full convolution."""
    ctx = NumContext(max_terms=5, mode=mode, prec=12)
    rng = random.Random(f"cut-{mode}")
    cut = 0
    for x, y in random_cut_products(rng, ctx, 300):
        if len(x.terms) < 2 or len(y.terms) < 2:
            continue  # a product by a monomial is tested above
        full = oracle_mul(x, y)
        keep = sorted(full, reverse=True)[: ctx.max_terms]
        for got in (x * y, y * x):
            assert [p for _, p in got.terms] == keep
            assert [(type(c), str(c)) for c, _ in got.terms] == [
                (type(full[p]), str(full[p])) for p in keep
            ]
            assert got.truncated is (x.truncated or len(full) > ctx.max_terms)
        cut += len(full) > ctx.max_terms
    assert cut > 100


# ---------------------------------------------------------------- inv / div

def test_inv_monomial_exact():
    x = CTX.monomial(Fraction(-3, 2), 1, 0)  # -(3/2) eps
    y = x.inv()
    assert not y.truncated
    assert as_map(y) == {ExponentPair(-1, 0): Fraction(-2, 3)}


def test_inv_geometric_series():
    y = (CTX.constant(1) - CTX.tau()).inv()
    assert y.truncated
    assert [p.b for _, p in y.terms] == [Fraction(k) for k in range(CTX.max_terms)]
    assert all(c == 1 for c, _ in y.terms)


def test_inv_multiplies_back_to_one():
    rng = random.Random(37)
    for _ in range(100):
        x = random_value(rng)
        if x.is_zero:
            continue
        residue = x * x.inv() - 1
        if residue.is_zero:
            continue
        # residue = -x * (dropped tail), so anything left over must sit
        # beyond the retained window shifted by x's leading exponent
        bound = min(p for _, p in x.inv().terms) + x.leading()[1]
        assert all(p < bound for _, p in residue.terms)


# Offsets below a divisor's lead: H-powers only (same eps power), eps
# powers only, or both; rational exponents included.
H_TAIL = [(0, -1), (0, Fraction(-1, 3)), (0, -2)]
EPS_TAIL = [(Fraction(1, 2), 0), (1, 3), (2, Fraction(-1, 2))]
DIVISOR_TAILS = [
    ("h", H_TAIL[:1]), ("h", H_TAIL[:2]), ("h", H_TAIL),
    ("eps", EPS_TAIL[:1]), ("eps", EPS_TAIL[:2]), ("eps", EPS_TAIL),
    ("mixed", [H_TAIL[1], EPS_TAIL[0]]), ("mixed", [H_TAIL[1], EPS_TAIL[0], EPS_TAIL[2]]),
]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("shape,tail", DIVISOR_TAILS)
def test_inv_is_prefix_of_longer_series(mode, shape, tail):
    """At K terms the inverse is the first K terms of the K=64 inverse."""
    rng = random.Random(f"{mode}-{shape}-{len(tail)}")
    lead = ExponentPair(Fraction(rng.randint(-2, 2), 2), Fraction(rng.randint(-2, 2), 3))
    pairs = [lead] + [lead + ExponentPair(b, a) for b, a in tail]
    terms = [
        (Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)), p)
        for p in pairs
    ]

    def inverse(k):
        return NumContext(max_terms=k, mode=mode, prec=50).from_terms(terms).inv()

    longer = [(str(c), p) for c, p in inverse(64).terms]
    for k in (16, 40):
        y = inverse(k)
        assert y.truncated
        assert [(str(c), p) for c, p in y.terms] == longer[:k]


def newton_climb(x, steps):
    """Exact Newton iterates on 1 - 1/x^2 from x: x -> (3x - x^3)/2."""
    xs = [x]
    for _ in range(steps):
        x = (3 * x - x**3) / 2
        xs.append(x)
    return xs


def assert_inv_matches_oracle(x, k):
    got = x.inv()
    want, flag = oracle_inv(x, k, rounds=k)
    assert got.truncated is flag
    assert [p for _, p in got.terms] == [p for _, p in want]
    # numerator and denominator stand for the text of a canonical Fraction,
    # which str() refuses past 4300 digits
    assert [(type(c), c.numerator, c.denominator) for c, _ in got.terms] == [
        (Fraction, c.numerator, c.denominator) for c, _ in want
    ]


# x_3 and x_4 of the climb from 71/100 have 58- and 175-digit denominators
NEWTON_POINTS = newton_climb(Fraction(71, 100), 4)[3:]


@pytest.mark.parametrize("k", [2, 16, 40])
@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("probe", ["0", "eps", "2*eps", "H^-1", "H^-2"])
def test_inv_of_newton_square_matches_oracle(k, n, probe):
    """The divisors of the exact Newton climb: (x + e)^2 for each probe e."""
    ctx = NumContext(max_terms=k)
    e = {
        "0": ctx.zero(), "eps": ctx.tau(), "2*eps": 2 * ctx.tau(),
        "H^-1": ctx.omega(-1), "H^-2": ctx.omega(-2),
    }[probe]
    x = ctx.constant(NEWTON_POINTS[n]) + e
    assert_inv_matches_oracle(x * x, k)


@pytest.mark.parametrize("k", [2, 16, 40])
@pytest.mark.parametrize("shape,tail", DIVISOR_TAILS)
def test_inv_with_big_coefficients_matches_oracle(k, shape, tail):
    rng = random.Random(f"big-{shape}-{len(tail)}")
    lead = ExponentPair(Fraction(rng.randint(-2, 2), 2), Fraction(rng.randint(-2, 2), 3))
    pairs = [lead] + [lead + ExponentPair(b, a) for b, a in tail]
    terms = [
        (Fraction(rng.choice((-1, 1)) * rng.randrange(10**99, 10**100), rng.randint(1, 4)), p)
        for p in pairs
    ]
    assert_inv_matches_oracle(NumContext(max_terms=k).from_terms(terms), k)


def test_inv_of_slow_mixed_divisor_matches_oracle():
    """Offsets H^(-1/3), eps^(1/2) and eps^2*H^(-1/2) with 100-digit
    numerators and denominators: the K leading keys all lie on the
    H^(-1/3) chain, far above every key the eps offsets reach."""
    rng = random.Random("slow-mixed")
    lead = ExponentPair(Fraction(1, 2), Fraction(-2, 3))
    offsets = [ExponentPair(0, Fraction(-1, 3)), ExponentPair(Fraction(1, 2), 0),
               ExponentPair(2, Fraction(-1, 2))]
    terms = [
        (Fraction(rng.choice((-1, 1)) * rng.randrange(10**99, 10**100),
                  rng.randrange(10**99, 10**100)), p)
        for p in [lead] + [lead + o for o in offsets]
    ]
    assert_inv_matches_oracle(NumContext(max_terms=40).from_terms(terms), 40)


@pytest.mark.parametrize("prec", [12, 50])
@pytest.mark.parametrize("k", [2, 16, 40])
@pytest.mark.parametrize("shape,tail", DIVISOR_TAILS)
def test_float_inv_rounds_the_exact_series_once(prec, k, shape, tail):
    """Each float coefficient is the exact inverse's, correctly rounded."""
    rng = random.Random(f"float-{shape}-{len(tail)}-{prec}")
    lead = ExponentPair(Fraction(rng.randint(-2, 2), 2), Fraction(rng.randint(-2, 2), 3))
    pairs = [lead] + [lead + ExponentPair(b, a) for b, a in tail]
    terms = [
        (Decimal(rng.choice((-1, 1)) * rng.randrange(10 ** (prec - 1), 10**prec)).scaleb(
            -rng.randrange(0, prec)), p)
        for p in pairs
    ]
    fctx = NumContext(max_terms=k, mode="float", prec=prec)
    got = fctx.from_terms(terms).inv()
    want = NumContext(max_terms=k).from_terms((Fraction(c), p) for c, p in terms).inv()
    assert got.truncated and want.truncated
    assert [p for _, p in got.terms] == [p for _, p in want.terms]
    assert [str(c) for c, _ in got.terms] == [str(fctx.coeff(c)) for c, _ in want.terms]


def test_div_examples():
    tau = CTX.tau()
    q = (2 * tau - tau * tau) / (-tau)
    assert not q.truncated
    assert as_map(q) == {UNIT_PAIR: Fraction(-2), ExponentPair(1, 0): Fraction(1)}
    om = CTX.omega()
    r = om / (om + 1)
    assert r.truncated
    assert r.standard_part() == 1
    assert r.coefficient_at(ExponentPair(0, -1)) == -1
    assert r.coefficient_at(ExponentPair(0, -2)) == 1


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        CTX.constant(1) / CTX.zero()
    with pytest.raises(DivisionByZero):
        CTX.zero().inv()


def test_inverse_of_a_sparse_series_answers_within_its_key_budget():
    # 1/(1 + eps + ... + eps^39) = (1 - eps)/(1 - eps^40) has two nonzero
    # terms in every 40 powers, so its 40 leading terms, 1 - eps + eps^40
    # - eps^41 + ... - eps^761, lie 762 keys into a walk of at most 64*40
    ctx = NumContext(max_terms=40)
    x = 1 / (1 - ctx.tau())
    want = tuple(
        (Fraction((-1) ** j), ExponentPair(40 * (j // 2) + j % 2, 0)) for j in range(40)
    )
    for got in (1 / x, x.inv()):
        assert got.terms == want and got.truncated
    # at K = 256 the leading terms would reach eps^32513, past 64*256 keys
    ctx = NumContext(max_terms=256)
    x = 1 / (1 - ctx.tau())
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="^the quotient series has fewer than 256 nonzero"
                       " terms in its first 16384 keys$"):
        1 / x
    assert time.perf_counter() - start < 2


# ---------------------------------------------------------------- powers

def power_by_products(x, k):
    """x**k by |k| - 1 repeated products, the inverse first when k < 0."""
    if k == 0:
        return x.ctx.constant(1)
    base = x if k > 0 else x.inv()
    out = base
    for _ in range(abs(k) - 1):
        out = out * base
    return out


@pytest.mark.parametrize("ctx", [CTX, NumContext(mode="float", prec=12)])
def test_pow_of_monomial_matches_repeated_products(ctx):
    """An exact monomial's power is what the |k| - 1 products give; a
    float one's coefficient is the Decimal power, rounded once."""
    rng = random.Random(f"pow-{ctx.mode}")
    bases = [m for _, m in random_monomial_products(rng, ctx, 40)]
    bases.append(HyperValue(ctx=ctx, terms=bases[0].terms, truncated=True))
    for m in bases:
        (c, p), = m.terms
        for k in range(-6, 13):
            got = m**k
            if ctx.mode == "exact" or k == 0:
                want = power_by_products(m, k)
            else:
                with ctx.arith():
                    terms = ((c**k, ExponentPair(p.b * k, p.a * k)),)
                want = HyperValue(ctx=ctx, terms=terms, truncated=m.truncated)
            assert [(type(c), str(c), p) for c, p in got.terms] == [
                (type(c), str(c), p) for c, p in want.terms
            ]
            assert got.truncated is want.truncated


def test_pow_of_zero_is_immediate():
    for zero in (CTX.zero(), HyperValue(ctx=CTX, terms=(), truncated=True)):
        for k in (1, 2, 5):
            assert zero**k == power_by_products(zero, k)
        assert zero ** 10**8 == zero
    with pytest.raises(DivisionByZero):
        CTX.zero() ** -1


def test_float_pow_of_monomial_underflows_like_products():
    ctx = NumContext(mode="float", prec=12)
    tiny = HyperValue(ctx=ctx, terms=ctx.monomial(Decimal("3E-600000"), 1, 0).terms, truncated=True)
    got, want = tiny**3, power_by_products(tiny, 3)
    assert got.is_zero and want.is_zero
    assert got.truncated and want.truncated


def test_exact_pow_of_monomial_is_capped():
    assert (CTX.constant(2) ** 10**5).terms == ((Fraction(2**100000), UNIT_PAIR),)
    assert (CTX.tau() ** 10**6).terms == ((Fraction(1), ExponentPair(10**6, 0)),)
    assert (-CTX.tau()) ** -(10**9 + 1) == CTX.monomial(-1, -(10**9 + 1), 0)
    with pytest.raises(ResourceLimit):
        CTX.constant(3) ** 10**8
    with pytest.raises(ResourceLimit):
        CTX.monomial(Fraction(1, 3), 1, 0) ** -(10**8)


def test_float_pow_of_monomial_is_capped():
    """A float monomial's coefficient is the Decimal power, the exact power
    rounded once, up to the cap of the decimal exponent range."""
    ctx = NumContext(mode="float", prec=50)
    c = Decimal("1.0000001")
    base = ctx.constant(c)
    wide = Context(prec=120)
    for k, text in (
        # the 999999 rounded products of repeated multiplication end ...2829786
        (10**6, "1.1051709125497934166383827093467161593490662829231"),
        (10**8, "22026.454781577306636469428124636295954953077720592"),
        (-(10**8), None),
    ):
        start = time.perf_counter()
        (got, pair), = (base**k).terms
        assert time.perf_counter() - start < 1
        assert pair == UNIT_PAIR
        assert got == ctx.coeff(wide.power(c, k))
        assert text is None or str(got) == text
    # 1.0 is not exactly 1: its power keeps the context's digits
    assert str((ctx.constant(Decimal("1.0")) ** 10**8).terms[0][0]) == "1." + "0" * 49
    with pytest.raises(Overflow):  # about 10^(4.3 * 10^12)
        base ** 10**20


def test_float_pow_of_unit_coefficient_is_immediate():
    ctx = NumContext(mode="float", prec=12)
    for c in (Decimal(1), Decimal(-1)):
        m = ctx.monomial(c, 1, 0)
        for k in (1, 2, 3, 6):
            got, want = m**k, power_by_products(m, k)
            assert [(type(d), str(d), p) for d, p in got.terms] == [
                (type(d), str(d), p) for d, p in want.terms
            ]
        for k in (10**8, 10**8 + 1, -(10**9 + 1)):
            sign = 1 if c > 0 or k % 2 == 0 else -1
            assert [(str(d), p) for d, p in (m**k).terms] == [(str(sign), ExponentPair(k, 0))]


def typed_terms(x):
    """Terms with the types of the coefficient and of both key entries, so
    that an int exponent and an equal Fraction one do not compare equal."""
    return [
        (type(c), c, p, tuple(type(e) for e in p._key)) for c, p in x.terms
    ]


def random_two_terms(rng, ctx, count):
    """Two-term values in ctx: rational exponents, a fifth with 30-digit
    coefficients, and about one in four carrying the truncated flag."""
    def pair():
        return ExponentPair(
            Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3))),
            Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3))),
        )

    while count:
        digits = 30 if rng.random() < 0.2 else 3
        x = ctx.from_terms([
            (Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10**digits),
                      rng.randrange(1, 10**digits)), pair())
            for _ in range(2)
        ])
        if len(x.terms) == 2:
            count -= 1
            yield HyperValue(ctx=ctx, terms=x.terms, truncated=rng.random() < 0.25)


def test_two_term_pow_matches_repeated_products():
    """The closed-form power of an exact u + w keeps exactly the terms,
    key entry types and flag of the k - 1 products."""
    rng = random.Random(2475)
    checked = cut = 0
    for max_terms, count in ((2, 60), (3, 60), (4, 60), (16, 25), (40, 10)):
        ctx = NumContext(max_terms=max_terms)
        for x in random_two_terms(rng, ctx, count):
            ks = [2, 3, rng.randrange(4, 41)]
            if max_terms == 2:  # the inverse keeps two terms only at K = 2
                ks.append(-rng.randrange(2, 41))
            for k in ks:
                got, want = x**k, power_by_products(x, k)
                assert typed_terms(got) == typed_terms(want)
                assert got.truncated is want.truncated
                checked += 1
                cut += want.truncated and not x.truncated
    assert checked > 500 and cut > 100


def test_exact_pow_of_two_terms_is_capped():
    x = CTX.constant(Fraction(3, 7)) + CTX.tau()
    start = time.perf_counter()
    with pytest.raises(ResourceLimit):
        x ** 2**22
    # the lower coefficient's power is checked too, up to the K-th term
    with pytest.raises(ResourceLimit):
        (CTX.constant(1) + CTX.monomial(Fraction(2**300000, 3), 1, 0)) ** 100
    assert time.perf_counter() - start < 1
    # a base of 1 + eps never grows its coefficients past the binomials
    assert [str(c) for c, _ in ((CTX.constant(1) + CTX.tau()) ** 10**6).terms][:3] == [
        "1", "1000000", "499999500000"
    ]


def random_bases(rng, ctx, count):
    """Values in ctx of three to five terms (fewer when K cuts them):
    rational exponents, half of them with only positive coefficients,
    and about one in four carrying the truncated flag."""
    def pair():
        return ExponentPair(
            Fraction(rng.randrange(-3, 4), rng.choice((1, 2))),
            Fraction(rng.randrange(-3, 4), rng.choice((1, 2))),
        )

    for _ in range(count):
        signs = (1,) if rng.random() < 0.5 else (-1, 1)
        x = ctx.from_terms([
            (Fraction(rng.choice(signs) * rng.randrange(1, 10**6), rng.randrange(1, 10**3)), pair())
            for _ in range(rng.randrange(3, 6))
        ])
        yield HyperValue(ctx=ctx, terms=x.terms, truncated=x.truncated or rng.random() < 0.25)


def test_exact_pow_matches_repeated_products_where_nothing_cancels():
    """A power of an exact base of three to five terms keeps the terms,
    key entry types and flag of the k - 1 products when every coefficient
    is positive.  With mixed signs the cut products can keep other terms,
    but only where both results carry the flag."""
    rng = random.Random(3145)
    positive = mixed = 0
    for max_terms, count in ((2, 30), (3, 30), (4, 30), (6, 30), (16, 12), (40, 4)):
        ctx = NumContext(max_terms=max_terms)
        for x in random_bases(rng, ctx, count):
            for k in (2, 3, rng.randrange(4, 41)):
                got, want = x**k, power_by_products(x, k)
                if all(c > 0 for c, _ in x.terms):
                    assert typed_terms(got) == typed_terms(want)
                    assert got.truncated is want.truncated
                    positive += 1
                else:
                    if typed_terms(got) != typed_terms(want) or got.truncated is not want.truncated:
                        assert got.truncated and want.truncated
                    mixed += 1
    assert positive > 150 and mixed > 150


@pytest.mark.parametrize("prec", [12, 50])
def test_float_pow_is_as_close_as_repeated_products(prec):
    """Each coefficient of a float power of three to five terms lies at
    least as close to the exact power of the Decimal base as that of the
    k - 1 rounded products, but for ties within one unit in the last place."""
    rng = random.Random(f"float-pow-{prec}")
    closer = farther = 0
    for max_terms in (3, 4, 6, 16):
        ctx = NumContext(max_terms=max_terms, mode="float", prec=prec)
        exact = NumContext(max_terms=max_terms)
        for x in random_bases(rng, ctx, 12):
            for k in (2, 3, rng.randrange(4, 41)):
                got, loop = x**k, power_by_products(x, k)
                want = power_by_products(exact.from_terms((Fraction(c), p) for c, p in x.terms), k)
                assert [p for _, p in got.terms] == [p for _, p in want.terms]
                assert [p for _, p in loop.terms] == [p for _, p in want.terms]
                assert got.truncated is loop.truncated
                for (g, _), (l, _), (w, _) in zip(got.terms, loop.terms, want.terms):
                    off, loop_off = abs(Fraction(g) - w), abs(Fraction(l) - w)
                    closer += off < loop_off
                    if off > loop_off:
                        farther += 1
                        ulp = Fraction(10) ** (g.adjusted() - prec + 1)
                        assert abs(Fraction(g) - Fraction(l)) <= ulp and off <= ulp
    assert closer > 20 * farther


def test_float_st_of_a_lifted_power_is_the_real_power():
    """At a standard point, st(eval_star(x^k)) and eval_real(x^k) are the
    same Decimal power, bit for bit, for k of either sign."""
    rng = random.Random(6060)
    for prec in (12, 50):
        ctx = NumContext(mode="float", prec=prec)
        for _ in range(300):
            x0 = ctx.coeff(Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10**6),
                                    rng.randrange(1, 10**4)))
            k = rng.choice((-1, 1)) * rng.choice((rng.randrange(2, 40), rng.randrange(40, 10**5)))
            f = PowInt(Var("x"), k)
            got = eval_star(f, ctx.constant(x0)).standard_part()
            assert str(got) == str(eval_real(f, x0, ctx))


@pytest.mark.xfail(strict=True, reason="a float power is Decimal's power, which is not"
                   " always correctly rounded (ROADMAP item 9)")
@pytest.mark.parametrize("base, prec", [
    ("5.262780317", 10),  # the square prints 27.69685666; 27.69685667 is right
    ("2.9290977846055610248788103636216502012507477858533", 50),  # ...588, not ...589
])
def test_float_square_is_correctly_rounded(base, prec):
    ctx = NumContext(mode="float", prec=prec)
    x = ctx.constant(Decimal(base))
    exact = Fraction(base) ** 2
    with localcontext(Context(prec=prec)):
        want = Decimal(exact.numerator) / Decimal(exact.denominator)
    assert (x * x).standard_part() == want
    assert (x**2).standard_part() == want


@pytest.mark.parametrize("ctx", [CTX, NumContext(mode="float", prec=12)])
def test_constant_is_the_unit_monomial(ctx):
    for v in (0, 3, -7, Fraction(-2, 9), Fraction(0), Decimal("1.25"), Decimal("-0")):
        got, want = ctx.constant(v), ctx.monomial(v, 0, 0)
        assert typed_terms(got) == typed_terms(want)
        assert got.truncated is want.truncated is False
    # int exponents take a fast path to the same pair as Fraction ones
    for b, a in ((0, 0), (2, -1), (-3, 5)):
        got = ctx.monomial(Fraction(5, 2), b, a)
        assert typed_terms(got) == typed_terms(ctx.monomial(Fraction(5, 2), Fraction(b), Fraction(a)))


@pytest.mark.parametrize("ctx", [CTX, NumContext(mode="float", prec=12)])
def test_standard_factor_keeps_the_pairs(ctx):
    """A product by a standard constant equals the general convolution."""
    rng = random.Random(f"standard-{ctx.mode}")
    for x, m in random_monomial_products(rng, ctx, 200):
        s = ctx.constant(m.terms[0][0])
        for got in (x * s, s * x):
            want = oracle_mul(x, s)
            assert as_map(got) == want
            assert [p for _, p in got.terms] == sorted(want, reverse=True)
            assert [p._key for _, p in got.terms] == [p._key for _, p in x.terms]
            assert [tuple(map(type, p._key)) for _, p in got.terms] == [
                tuple(map(type, p._key)) for _, p in x.terms
            ]
        cut = HyperValue(ctx=ctx, terms=x.terms, truncated=True)
        assert (cut * s).truncated and (s * cut).truncated


# ---------------------------------------------------------------- compare / order

def test_compare_examples():
    assert CTX.omega().compare(CTX.tau(-1)) is Ordering.LESS
    assert nines_hyper(CTX).compare(CTX.constant(1)) is Ordering.LESS
    assert CTX.tau().compare(CTX.zero()) is Ordering.GREATER
    assert CTX.constant(3).compare(CTX.constant(3)) is Ordering.EQUAL


def test_compare_refuses_ambiguous_equality():
    ctx = NumContext(max_terms=2)
    t = ctx.from_terms(
        [(1, ExponentPair(0, 0)), (1, ExponentPair(1, 0)), (1, ExponentPair(2, 0))]
    )
    # same retained terms on both sides, both flagged
    u = ctx.from_terms(
        [(1, ExponentPair(0, 0)), (1, ExponentPair(1, 0)), (1, ExponentPair(3, 0))]
    )
    assert t.truncated and u.truncated
    with pytest.raises(TruncationAmbiguous):
        t.compare(u)
    # nonzero difference still orders fine
    assert (t + 1).compare(u) is Ordering.GREATER


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a cut tail can fake the sign of a difference")
def test_cancelled_truncation_does_not_order():
    # (1/(1-eps))*(1-eps) is exactly 1, but the cut series leaves
    # 1 - eps^16, whose difference from 1 has a sign of its own
    z = (1 / (1 - CTX.tau())) * (1 - CTX.tau())
    try:
        order = z.compare(1)
    except HyperError:  # a typed refusal is a right answer too
        return
    assert order is not Ordering.LESS


# ---------------------------------------------------------------- standard part etc.

def test_standard_part_examples():
    assert nines_hyper(CTX).standard_part() == 1
    assert val((1, 0, 0), (5, 1, 0), (-2, 0, -1)).standard_part() == 1
    assert CTX.tau().standard_part() == 0
    with pytest.raises(NotFinite):
        CTX.omega().standard_part()


def test_infinitesimal_part_keeps_the_truncated_flag():
    x = 1 / (1 - CTX.tau())    # 1 + eps + ... + eps^15, and a dropped tail
    part = x.infinitesimal_part()
    assert x.truncated and part.truncated
    kept = sum((CTX.tau(k) for k in range(1, 16)), CTX.zero())
    assert part == CTX.from_terms(kept.terms, truncated=True)
    # the true part is larger than the kept sum: neither may read EQUAL
    for v in (part, x - 1):
        with pytest.raises(TruncationAmbiguous):
            v.compare(kept)
    assert not CTX.constant(1).infinitesimal_part().truncated


def test_approx_eq_examples():
    assert nines_hyper(CTX).approx_eq(CTX.constant(1))
    assert CTX.tau().approx_eq(CTX.zero())
    assert not CTX.omega().approx_eq(CTX.omega() + 1)
    assert not CTX.constant(1).approx_eq(CTX.constant(2))


def test_approx_eq_is_equivalence_on_finite_values():
    rng = random.Random(5)
    finite = [random_value(rng, finite=True) for _ in range(40)]
    for x in finite:
        assert x.approx_eq(x)
    for x in finite[:15]:
        for y in finite[:15]:
            assert x.approx_eq(y) == y.approx_eq(x)
            # characterization via standard parts
            assert x.approx_eq(y) == (x.standard_part() == y.standard_part())


def test_classify_examples():
    assert (CTX.omega() * CTX.tau()).classify() == (Classification.INFINITESIMAL, 1)
    assert (CTX.omega() + CTX.constant(5)).classify() == (Classification.INFINITE, 1)
    assert CTX.zero().classify() == (Classification.INFINITESIMAL, 0)
    assert (CTX.constant(-3) + CTX.tau()).classify() == (Classification.APPRECIABLE, -1)
    assert (-CTX.tau(-1)).classify() == (Classification.INFINITE, -1)


def test_classify_multiplication_table():
    tiny = CTX.tau()
    mid = CTX.constant(3)
    big = CTX.omega()
    assert (tiny * mid).classify()[0] is Classification.INFINITESIMAL
    assert (mid * big).classify()[0] is Classification.INFINITE
    assert (tiny * tiny).classify()[0] is Classification.INFINITESIMAL
    assert (big * big).classify()[0] is Classification.INFINITE


# ---------------------------------------------------------------- floor

def test_floor_examples():
    assert as_map((CTX.constant(10) - 10 * CTX.tau()).floor()) == {UNIT_PAIR: Fraction(9)}
    got = (CTX.omega() + CTX.constant(Fraction(1, 2))).floor()
    assert as_map(got) == {ExponentPair(0, 1): Fraction(1)}
    with pytest.raises(FloorUndecidable):
        (CTX.omega() / 2).floor()


def test_floor_refusals_print_the_monomial():
    # the expression language builds no fractional exponent, so this
    # refusal is only reachable through the API
    with pytest.raises(FloorUndecidable, match=r"^non-integer exponents eps\^-1/2$"):
        CTX.monomial(1, Fraction(-1, 2), 0).floor()
    with pytest.raises(FloorUndecidable, match=r"^mixed-scale monomial eps\^-1\*H\^-1$"):
        CTX.monomial(1, -1, -1).floor()


def test_floor_scaled_powers_of_ten():
    # (1/10) * eps**-1 is the hyperinteger 10**(H-1)
    x = CTX.monomial(Fraction(1, 10), -1, 0) - CTX.constant(Fraction(1, 10))
    got = x.floor()
    assert as_map(got) == {
        ExponentPair(-1, 0): Fraction(1, 10),
        UNIT_PAIR: Fraction(-1),
    }
    # a third does not divide any power of ten
    with pytest.raises(FloorUndecidable):
        CTX.monomial(Fraction(1, 3), -1, 0).floor()


def test_floor_contract_randomized():
    rng = random.Random(71)
    for _ in range(200):
        f = Fraction(rng.randrange(-50, 50), rng.randrange(1, 9))
        delta = rng.choice([-1, 0, 1])
        x = CTX.constant(f) + delta * CTX.tau()
        q = x.floor()
        assert q <= x
        assert x < q + 1


def test_floor_truncated_boundary_refused():
    x = HyperValue(ctx=CTX, terms=CTX.constant(3).terms, truncated=True)
    with pytest.raises(FloorUndecidable):
        x.floor()
    # non-integer standard part stays decidable under the flag
    y = HyperValue(ctx=CTX, terms=CTX.constant(Fraction(7, 2)).terms, truncated=True)
    assert y.floor().coefficient_at(UNIT_PAIR) == 3


# ---------------------------------------------------------------- replaced routes

def divide_by_inverse(a, b):
    """a / b as the product by the inverse, the route of every division
    before exact division by two or more terms became one walk; float
    division still takes it."""
    return a * b.inv()


def residue_holds(a, b, q):
    """Whether q passes for a / b by its residue r = a - q*b, formed in a
    context that cuts nothing, so that no division is used.

    An unflagged q needs unflagged operands and r = 0.  A flagged one
    needs r = 0, or K terms and r's lead below lead(b) + q's last key:
    then r/b = a/b - q starts below q's last key, and q is the K leading
    terms of the exact quotient.
    """
    wide = NumContext(max_terms=max(2, len(a.terms) + len(q.terms) * len(b.terms)))
    aw, bw, qw = (wide.from_terms(v.terms) for v in (a, b, q))
    r = aw - qw * bw
    if not q.truncated:
        return not (a.truncated or b.truncated) and r.is_zero
    return r.is_zero or (len(q.terms) == q.ctx.max_terms
                         and r.terms[0][1] < b.terms[0][1] + q.terms[-1][1])


def check_division(a, b):
    """An exact a / b passes the residue oracle, and where the route
    through the inverse passes it too, the two agree term for term; only
    their flags may differ, where the walk ran dry (a zero dividend).  A
    refusal is the inverse route's refusal."""
    got, want = outcome(lambda: a / b), outcome(divide_by_inverse, a, b)
    if "refused" in (got[0], want[0]):
        assert got[:2] == want[:2]
        return
    assert residue_holds(a, b, a / b)
    if residue_holds(a, b, divide_by_inverse(a, b)):
        assert got[2] == want[2] and got[1] <= want[1]


def compare_by_difference(x, y):
    """compare by building x - y and reading its leading term."""
    diff = x - y
    if diff.is_zero:
        if x.truncated or y.truncated:
            raise TruncationAmbiguous(
                "difference vanished but a truncated tail could hide either way"
            )
        return Ordering.EQUAL
    return Ordering.LESS if diff.sign() < 0 else Ordering.GREATER


def approx_eq_by_difference(x, y):
    return all(pair.is_infinitesimal for _, pair in (x - y).terms)


def standard_part_by_scan(x):
    """standard part from a scan of every term, with ExponentPair equality."""
    if any(pair.is_infinite for _, pair in x.terms):
        raise NotFinite("standard part undefined on infinite values")
    return next((c for c, pair in x.terms if pair == UNIT_PAIR), x.ctx.coeff(0))


def floor_by_parts(x):
    """floor from the infinite and infinitesimal parts as values of their
    own, with every infinite term's exponents read back as Fractions."""
    for c, pair in x.terms:
        if not pair.is_infinite:
            continue
        if pair.b.denominator != 1 or pair.a.denominator != 1:
            raise FloorUndecidable(f"non-integer exponents {hf._format_monomial(pair._key)}")
        if pair.b > 0 or pair.a < 0:
            raise FloorUndecidable(f"mixed-scale monomial {hf._format_monomial(pair._key)}")
        if pair.b < 0:
            den = hf._denominator_of(c)
            if den is None or hf._ten_power(den) is None:
                raise FloorUndecidable(f"coefficient {c} not a power-of-ten multiple")
        elif not hf._is_integral(c):
            raise FloorUndecidable(f"coefficient {c} of a power of H is not an integer")
    ctx = x.ctx
    infinite = HyperValue(ctx=ctx, terms=tuple(t for t in x.terms if t[1].is_infinite),
                          truncated=False)
    tail = HyperValue(ctx=ctx, terms=tuple(t for t in x.terms if t[1].is_infinitesimal),
                      truncated=False)
    f = x.coefficient_at(UNIT_PAIR)
    if hf._is_integral(f):
        if tail.sign() == 0 and x.truncated:
            raise FloorUndecidable("integer standard part with a truncated tail of unknown sign")
        q = f if tail.sign() >= 0 else hf._coeff_pred(f)
    else:
        q = hf._coeff_floor(f)
    if isinstance(q, Decimal) and ctx.coeff(q) != q:
        raise FloorUndecidable(f"the floor {q} needs more than {ctx.prec} digits")
    out = infinite + ctx.constant(q)
    if x.truncated and not out.truncated:
        out = HyperValue(ctx=ctx, terms=out.terms, truncated=True)
    return out


def outcome(fn, *args):
    """What fn(*args) gives, down to coefficient types and exponent
    spelling, or the type and text of its refusal."""
    try:
        got = fn(*args)
    except HyperError as exc:
        return ("refused", type(exc).__name__, str(exc))
    if isinstance(got, HyperValue):
        return ("value", got.truncated, [
            (type(c), c if isinstance(c, Fraction) else str(c),
             [(type(e), e) for e in p._key])
            for c, p in got.terms
        ])
    return ("answer", got)


# exponents with whole and fractional entries, infinite ones included
_CORPUS_PAIRS = [(b, a) for b in (-2, -1, Fraction(-1, 2), 0, Fraction(1, 3), 1, 2)
                 for a in (-2, Fraction(-1, 2), -1, 0, 1, 2)]


def corpus_value(rng, ctx, max_len=4):
    items = []
    for b, a in rng.sample(_CORPUS_PAIRS, rng.randrange(0, max_len + 1)):
        c = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 40), rng.choice((1, 2, 3, 10, 7)))
        if ctx.mode == "float":
            c = Decimal(c.numerator) / Decimal(c.denominator) if rng.random() < 0.5 else (
                Decimal(rng.randrange(-10**60, 10**60)).scaleb(-rng.randrange(0, 70)))
        items.append((c, ExponentPair(b, a)))
    return ctx.from_terms(items, truncated=rng.random() < 0.2)


def corpus_hyperinteger(rng, ctx):
    """A value whose infinite part is mostly a provable hyperinteger."""
    items = [(Fraction(rng.randrange(-9, 10), rng.choice((1, 1, 10, 100, 3))),
              ExponentPair(-rng.randrange(0, 3), rng.randrange(0, 3)))
             for _ in range(rng.randrange(0, 3))]
    items.append((Fraction(rng.randrange(-30, 30), rng.choice((1, 1, 2, 5))), UNIT_PAIR))
    for _ in range(rng.randrange(0, 3)):
        items.append((rng.choice((-1, 1)), ExponentPair(rng.randrange(1, 3), rng.randrange(-2, 2))))
    if ctx.mode == "float":
        items = [(Decimal(c.numerator) / Decimal(c.denominator), p) for c, p in items]
        if rng.random() < 0.3:  # a standard part wider than prec
            items.append((Decimal(rng.randrange(10**59, 10**60)).scaleb(-rng.randrange(0, 20)),
                          UNIT_PAIR))
    return ctx.from_terms(items, truncated=rng.random() < 0.3)


def corpus(ctx, count):
    """Operand pairs for the replaced routes: random values, inverses and
    products (truncated), hyperintegers, and pairs that cancel."""
    rng = random.Random(f"corpus-{ctx.mode}-{ctx.max_terms}")
    one, eps = ctx.constant(1), ctx.tau()
    z = (1 / (1 - eps)) * (1 - eps)
    pairs = [(z, one), (z, 1 - eps**ctx.max_terms), (one, z), (z, z), (z - 1, ctx.zero()),
             (1 / (1 - eps), 1 / (1 - eps)), (ctx.omega() / (ctx.omega() + 1), one)]
    for _ in range(count):
        x, y = corpus_value(rng, ctx), corpus_value(rng, ctx)
        pick = rng.random()
        if pick < 0.2 and len(y.terms) > 1:
            x = x / y
        elif pick < 0.3:
            x = x * y
        elif pick < 0.45:
            y = x + corpus_value(rng, ctx, 1) * ctx.tau(3)
        elif pick < 0.7:
            x = corpus_hyperinteger(rng, ctx)
        pairs.append((x, y))
    return pairs


@pytest.mark.parametrize("ctx", [
    NumContext(max_terms=4), NumContext(max_terms=16), NumContext(max_terms=40),
    NumContext(mode="float", prec=50),
], ids=["exact-K4", "exact-K16", "exact-K40", "float-prec50"])
def test_replaced_routes_agree_with_their_oracles(ctx):
    divisions = floors = 0
    for x, y in corpus(ctx, 120):
        for a, b in ((x, y), (y, x)):
            if ctx.mode == "float":
                assert outcome(lambda: a / b) == outcome(divide_by_inverse, a, b)
            else:
                check_division(a, b)
            assert outcome(a.compare, b) == outcome(compare_by_difference, a, b)
            assert outcome(a.approx_eq, b) == outcome(approx_eq_by_difference, a, b)
            assert outcome(a.floor) == outcome(floor_by_parts, a)
            assert outcome(a.standard_part) == outcome(standard_part_by_scan, a)
            divisions += len(b.terms) > 1
            floors += outcome(a.floor)[0] == "value"
    assert divisions > 100 and floors > 50


# ---------------------------------------------------------------- the store

def _typed(items, flag):
    """(coefficient, ExponentPair) items and a flag in the form outcome() gives."""
    return ("value", flag, [
        (type(c), c, [(type(e), e) for e in p._key]) for c, p in items
    ])


def _cut(acc, k, flag):
    """A term map's nonzero terms, largest first, cut to k, with the flag."""
    live = sorted((p for p, c in acc.items() if c != 0), reverse=True)
    return _typed([(acc[p], p) for p in live[:k]], flag or len(live) > k)


def term_map(x, y, sign):
    """x + sign*y, term by term, as a dict of Fractions."""
    acc = {}
    for c, p in x.terms:
        acc[p] = acc.get(p, Fraction(0)) + c
    for c, p in y.terms:
        acc[p] = acc.get(p, Fraction(0)) + sign * c
    return acc


def sum_by_dict(x, y, sign):
    return _cut(term_map(x, y, sign), x.ctx.max_terms, x.truncated or y.truncated)


def product_by_dict(x_items, y_items, k, flag):
    acc = {}
    for c1, p1 in x_items:
        for c2, p2 in y_items:
            acc[p1 + p2] = acc.get(p1 + p2, Fraction(0)) + c1 * c2
    return _cut(acc, k, flag)


def difference_by_dict(x, y):
    """The leading (pair, coefficient) of x - y, uncut, or None."""
    acc = term_map(x, y, -1)
    live = sorted((p for p, c in acc.items() if c != 0), reverse=True)
    return (live[0], acc[live[0]]) if live else None


def compare_by_dict(x, y):
    first = difference_by_dict(x, y)
    if first is None:
        if x.truncated or y.truncated:
            return ("refused", "TruncationAmbiguous")
        return ("answer", Ordering.EQUAL)
    return ("answer", Ordering.GREATER if first[1] > 0 else Ordering.LESS)


def classify_by_dict(x):
    if not x.terms:
        return (Classification.INFINITESIMAL, 0)
    c, p = max(x.terms, key=lambda t: t[1])
    kind = (Classification.INFINITE if p.is_infinite else
            Classification.APPRECIABLE if p.is_unit else Classification.INFINITESIMAL)
    return (kind, 1 if c > 0 else -1)


def store_operand(rng, ctx, partner=None):
    """One to five terms with whole and fractional exponents and either
    sign; with a partner, some of its terms come back negated, so that a
    sum cancels them.  Pairs drawn twice merge, and sometimes cancel."""
    items = []
    if partner is not None:
        items = [(-c, p) for c, p in partner.terms if rng.random() < 0.6]
    for _ in range(rng.randrange(1, 6) - min(len(items), 2)):
        c = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 40), rng.choice((1, 2, 3, 6, 7)))
        p = ExponentPair(*rng.choice(_CORPUS_PAIRS))
        items.append((c, p))
        if rng.random() < 0.1:
            items.append((-c, p))
    x = ctx.from_terms(items)
    if rng.random() < 0.2:
        x = HyperValue(ctx=ctx, terms=x.terms, truncated=True)
    return x


def answer(fn, *args):
    """outcome() with a refusal reduced to its type."""
    got = outcome(fn, *args)
    return got[:2] if got[0] == "refused" else got


@pytest.mark.parametrize("k, count", [(2, 50), (4, 50), (16, 30), (40, 8)])
def test_store_ops_match_fraction_oracles(k, count):
    """Every exact operation on the store gives the terms, flag and answer
    (or refusal type) of a plain dict-of-Fractions oracle, or of the
    routes through products and the inverse; a quotient passes the
    residue oracle."""
    ctx = NumContext(max_terms=k)
    rng = random.Random(f"store-{k}")
    seen = {"cancel": 0, "cut": 0, "flagged": 0, "refused": 0}
    for _ in range(count):
        x = store_operand(rng, ctx)
        y = store_operand(rng, ctx, partner=x if rng.random() < 0.4 else None)
        for a, b in ((x, y), (y, x)):
            got = outcome(lambda: a + b)
            assert got == sum_by_dict(a, b, 1)
            assert outcome(lambda: a - b) == sum_by_dict(a, b, -1)
            product = outcome(lambda: a * b)
            assert product == product_by_dict(a.terms, b.terms, k, a.truncated or b.truncated)
            check_division(a, b)
            if len(b.terms) == 1:
                (c, p), = b.terms
                assert outcome(lambda: a / b) == product_by_dict(
                    a.terms, [(1 / c, -p)], k, a.truncated or b.truncated)
            assert answer(a.compare, b) == compare_by_dict(a, b)
            first = difference_by_dict(a, b)
            assert a.approx_eq(b) is (first is None or first[0].is_infinitesimal)
            seen["cancel"] += len(got[2]) < len(set(p for _, p in a.terms + b.terms))
            seen["cut"] += product[1] and not (a.truncated or b.truncated)
            seen["refused"] += answer(a.compare, b)[0] == "refused"
        for v in (x, y):
            seen["flagged"] += v.truncated
            inverse = outcome(v.inv)
            assert inverse == outcome(lambda: 1 / v)
            if len(v.terms) == 1:
                (c, p), = v.terms
                assert inverse == _typed([(1 / c, -p)], v.truncated)
            elif k <= 4 and v.terms:
                want, flag = oracle_inv(v, k, rounds=3 * k)
                assert inverse == _typed(want, flag)
            for n in (-3, -2, -1, 0, 1, 2, 3):
                assert answer(lambda: v**n) == answer(power_by_products, v, n)
            if v.terms:
                assert outcome(lambda: v**2) == product_by_dict(v.terms, v.terms, k, v.truncated)
            assert answer(v.standard_part) == answer(standard_part_by_scan, v)
            assert v.classify() == classify_by_dict(v)
            floor = outcome(v.floor)
            assert floor == outcome(floor_by_parts, v)
            seen["refused"] += floor[0] == "refused"
    if k > 4:  # sums and products of five terms seldom pass this K
        del seen["cut"]
    assert all(seen.values()), seen


def test_a_quotient_that_runs_dry_is_exact():
    eps, om = CTX.tau(), CTX.omega()
    assert (1 - eps**2) / (1 - eps) == 1 + eps
    assert ((1 + eps) * (2 + eps)) / (1 + eps) == 2 + eps
    x = ((3 + om) * (1 - eps)) / (1 - eps)
    assert x == 3 + om and x.compare(3 + om) is Ordering.EQUAL
    # a flagged operand flags the quotient; 1/x never runs dry
    flagged = HyperValue(ctx=CTX, terms=(1 - eps).terms, truncated=True)
    assert ((1 - eps**2) / flagged).terms == (1 + eps).terms
    assert ((1 - eps**2) / flagged).truncated and (1 / (1 - eps)).truncated


@pytest.mark.parametrize("k", [2, 4, 16, 40])
def test_exact_quotients_come_out_exact(k):
    """(x*y)/y is x, unflagged, when x and y are unflagged, y has two or
    more terms, x*y is not cut and x has fewer than K terms (a walk that
    reaches K terms stops there, flagged); 0/y is an unflagged zero."""
    ctx = NumContext(max_terms=k)
    rng = random.Random(f"exact-quotient-{k}")
    checked = 0
    for _ in range(80):
        x, y = (ctx.from_terms(store_operand(rng, ctx).terms) for _ in range(2))
        if len(y.terms) < 2:
            continue
        assert ctx.zero() / y == ctx.zero()  # == compares the flags too
        xy = x * y
        if xy.truncated or len(x.terms) >= k:
            continue
        q = xy / y
        assert q == x and not q.truncated
        assert q.compare(x) is Ordering.EQUAL
        checked += 1
    assert checked > (5 if k == 2 else 20)


def test_terms_are_built_once_and_round_trip():
    x = (CTX.constant(Fraction(1, 3)) - CTX.tau(Fraction(1, 2))) / (2 - CTX.omega(-1))
    terms = x.terms
    assert x.terms is terms and all(type(c) is Fraction for c, _ in terms)
    same = HyperValue(ctx=x.ctx, terms=x.terms, truncated=x.truncated)
    assert same == x and hash(same) == hash(x) and same.terms == terms
    assert HyperValue(ctx=CTX, terms=terms, truncated=False) != x
    # copies of a value whose terms were never read
    for fresh in (x * x, CTX.constant(Fraction(-5, 4)) + CTX.tau(), CTX.zero()):
        for clone in (copy.copy(fresh), copy.deepcopy(fresh), pickle.loads(pickle.dumps(fresh))):
            assert clone == fresh and hash(clone) == hash(fresh)
            assert clone.terms == fresh.terms and repr(clone) == repr(fresh)


def test_only_hyperfield_reads_terms_or_names_a_pair():
    """The rest of the package reads values through hyperfield's store
    reader or public calls: no module but hyperfield reads `.terms` or
    `._store`, or names ExponentPair or UNIT_PAIR."""
    found = []
    for path in sorted(Path(hf.__file__).parent.glob("*.py")):
        if path.name == "hyperfield.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in ("terms", "_store", "ExponentPair", "UNIT_PAIR") and (
                name not in ("terms", "_store") or isinstance(node, ast.Attribute)
            ):
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


# ---------------------------------------------------------------- identity chains

def test_nines_identity_chain():
    for n in range(1, 13):
        lhs = nines(CTX, n)
        rhs = CTX.constant(1) - CTX.monomial(Fraction(1, 10**n), 0, 0)
        assert lhs == rhs


@pytest.mark.parametrize("ctx", [
    CTX,
    *(NumContext(mode="float", prec=p) for p in (10, 20, 50, 60)),
])
def test_nines_is_the_sum_of_its_digits(ctx):
    # one rounding of 1 - 10^-n gives what adding 9/10^j for j = 1..n does
    for n in range(0, 120, 7):
        summed = ctx.zero()
        for j in range(1, n + 1):
            summed = summed + ctx.monomial(Fraction(9, 10**j), 0, 0)
        assert nines(ctx, n) == summed


def test_nines_past_the_cap_is_refused_before_it_is_built():
    assert nines(CTX, 4299).standard_part() == 1 - Fraction(1, 10**4299)
    with pytest.raises(ResourceLimit, match="nines"):
        nines(CTX, 10**9)


def test_hyper_nines_value_and_order():
    x = nines_hyper(CTX)
    assert as_map(x) == {UNIT_PAIR: Fraction(1), ExponentPair(1, 0): Fraction(-1)}
    assert x.compare(CTX.constant(1)) is Ordering.LESS
    assert x.standard_part() == 1


# ---------------------------------------------------------------- float mode

def test_float_mode_basics():
    ctx = NumContext(mode="float", prec=30)
    x = ctx.constant(1) / ctx.constant(3)
    c = x.standard_part()
    assert isinstance(c, Decimal)
    import decimal

    with decimal.localcontext() as dc:
        dc.prec = 30
        want = Decimal(1) / Decimal(3)
    assert c == want
    y = ctx.constant(Fraction(1, 4)) + ctx.tau()
    assert y.standard_part() == Decimal("0.25")


def test_float_mode_floor():
    ctx = NumContext(mode="float", prec=30)
    x = ctx.constant(Decimal("2.5")) - ctx.tau()
    assert x.floor().standard_part() == 2


def test_float_floor_refuses_a_result_wider_than_prec():
    # floor(1.24e16 - tiny) = 12399999999999999 has 17 digits; rounded to
    # prec 12 it would read 12400000000000000
    ctx = NumContext(mode="float", prec=12)
    x = ctx.monomial(Decimal("0.000124"), 1, 0) - ctx.monomial(
        Decimal("3.33333333333"), 3, 0
    )
    with pytest.raises(FloorUndecidable) as info:
        (x * ctx.monomial(10**20, -1, 0)).floor()
    assert str(info.value) == "the floor 12399999999999999 needs more than 12 digits"


# ---------------------------------------------------------------- json

def test_json_round_trip_exact():
    rng = random.Random(3)
    for _ in range(50):
        x = random_value(rng)
        data = json.loads(json.dumps(to_json(x)))
        assert from_json(CTX, data) == x


def test_json_terms_leading_first():
    x = CTX.omega() + 1 - CTX.tau()
    data = to_json(x)
    assert [t["a"] for t in data["terms"]] == ["1", "0", "0"]
    assert [t["b"] for t in data["terms"]] == ["0", "0", "1"]


# ---------------------------------------------------------------- text form

def test_format_examples():
    assert format_value(CTX.constant(1) - CTX.tau()) == "1 - eps"
    assert format_value(CTX.zero()) == "0"
    assert format_value(2 * CTX.omega() + 1) == "2*H + 1"
    assert format_value(CTX.tau(-1)) == "eps^-1"
    assert format_value(CTX.monomial(Fraction(3, 2), 1, 2)) == "3/2*eps*H^2"


# ---------------------------------------------------------------- property suites

COEFFS = st_.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7
)
EXPS = st_.integers(min_value=-3, max_value=3)


@st_.composite
def hyper_values(draw, max_len=4):
    n = draw(st_.integers(min_value=0, max_value=max_len))
    items = []
    for _ in range(n):
        c = draw(COEFFS)
        b = draw(EXPS)
        a = draw(EXPS)
        items.append((c, ExponentPair(b, a)))
    return CTX.from_terms(items)


@settings(max_examples=200, deadline=None)
@given(hyper_values(), hyper_values(), hyper_values())
def test_ring_axioms_hold_untruncated(x, y, z):
    if any(v.truncated for v in (x, y, z)):
        return
    s1 = (x + y) + z
    s2 = x + (y + z)
    if not (s1.truncated or s2.truncated):
        assert s1 == s2
    d1 = x * (y + z)
    d2 = x * y + x * z
    if not (d1.truncated or d2.truncated):
        assert d1 == d2
    m1 = (x * y) * z
    m2 = x * (y * z)
    if not (m1.truncated or m2.truncated):
        assert m1 == m2


@settings(max_examples=200, deadline=None)
@given(hyper_values(), hyper_values())
def test_trichotomy(x, y):
    if x.truncated or y.truncated:
        return
    results = [
        x.compare(y) is Ordering.LESS,
        x.compare(y) is Ordering.EQUAL,
        x.compare(y) is Ordering.GREATER,
    ]
    assert sum(results) == 1
    if x.compare(y) is Ordering.LESS:
        assert y.compare(x) is Ordering.GREATER


@settings(max_examples=200, deadline=None)
@given(hyper_values(), hyper_values())
def test_standard_part_homomorphism(x, y):
    if not (x.is_finite and y.is_finite):
        return
    assert (x + y).standard_part() == x.standard_part() + y.standard_part()
    p = x * y
    if p.is_finite:
        assert p.standard_part() == x.standard_part() * y.standard_part()


@settings(max_examples=150, deadline=None)
@given(hyper_values(), hyper_values(), hyper_values())
def test_order_respects_arithmetic(x, y, z):
    if any(v.truncated for v in (x, y, z)):
        return
    try:
        lt = x.compare(y) is Ordering.LESS
    except TruncationAmbiguous:
        return
    if lt:
        assert (x + z).compare(y + z) is Ordering.LESS
        if z.sign() > 0:
            assert (x * z).compare(y * z) is Ordering.LESS


# ---------------------------------------------------------------- helpers

def random_value(rng, finite=False, max_len=4):
    items = []
    for _ in range(rng.randrange(0, max_len + 1)):
        c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
        if c == 0:
            continue
        b = rng.randrange(-2, 4)
        a = rng.randrange(-2, 3)
        if finite and (b < 0 or (b == 0 and a > 0)):
            b, a = abs(b), -abs(a)
        items.append((c, ExponentPair(b, a)))
    return CTX.from_terms(items)
