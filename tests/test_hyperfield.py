"""Field kernel tests.

Derived expectations are checked against small independent oracles
written here (naive dict merge for addition, brute-force convolution
for multiplication, multiply-back and a plain-Fraction geometric series
for inversion) rather than against the implementation's own plumbing.
"""

import json
import math
import random
import time
from decimal import Context, Decimal, localcontext
from fractions import Fraction

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
    floor = max(p for p, _ in minus_r).scaled(rounds + 1)
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
    rng = random.Random(f"pow-{ctx.mode}")
    bases = [m for _, m in random_monomial_products(rng, ctx, 40)]
    bases.append(HyperValue(ctx=ctx, terms=bases[0].terms, truncated=True))
    for m in bases:
        for k in range(-6, 13):
            got, want = m**k, power_by_products(m, k)
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
    ctx = NumContext(mode="float", prec=50)
    base = ctx.constant(Decimal("1.0000001"))
    # the k - 1 rounded products that power_by_products would take, on the
    # coefficient alone (power_by_products itself takes seconds at 10**6)
    want = base.terms[0][0]
    with ctx.arith():
        for _ in range(10**6 - 1):
            want = want * base.terms[0][0]
    assert (base ** 10**6).terms == ((want, UNIT_PAIR),)
    assert str(want) == "1.1051709125497934166383827093467161593490662829786"
    for k in (2**20 + 2, 10**8, -(10**8)):
        with pytest.raises(ResourceLimit):
            base**k
    with pytest.raises(ResourceLimit):  # 1.0 is not exactly 1: its products grow digits
        ctx.constant(Decimal("1.0")) ** 10**8


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
