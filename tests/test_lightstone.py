"""Extended decimal tests.

The digit oracle replaces the infinite unit by a large finite M: for
x = r + c*eps the digit at block place H + j must equal the plain
rational digit of r + c*10**-M at position M + j.  That shadow is
computed with math.floor on Fractions only, independent of the field
floor machinery under test.
"""

import random
import time
from fractions import Fraction
from math import floor as rfloor

import pytest

from hyperdec import lightstone
from hyperdec.errors import (
    FloorUndecidable,
    HyperError,
    NotFinite,
    PositionOutOfModel,
    ResourceLimit,
    TruncationAmbiguous,
    UnsupportedNotation,
)
from hyperdec.expr import eval_command, parse_command
from hyperdec.hyperfield import ExponentPair, HyperValue, NumContext, nines_hyper
from hyperdec.lightstone import Position, digit_at, digits_at, parse, render

CTX = NumContext()
TAU = CTX.tau()


def c(v):
    return CTX.constant(v)


def plain_digit(v: Fraction, p: int) -> int:
    return rfloor(v * 10**p) - 10 * rfloor(v * 10 ** (p - 1))


def digit_by_floors(x: HyperValue, position) -> int:
    """The digit as st(floor(x * 10^p) - 10 * floor(x * 10^(p-1))).

    The route through two field floors per place: the oracle that the
    coefficient engine behind digit_at and render is checked against.
    """
    pos = lightstone._as_position(position)
    ctx = x.ctx
    for _, pair in x.terms:
        if pair.b.denominator != 1 or pair.a.denominator != 1:
            raise PositionOutOfModel(
                "fractional exponents have no decimal digit places"
            )
    if x.sign() < 0 or not (x < ctx.constant(1)):
        raise PositionOutOfModel("digit_at needs 0 <= x < 1")
    hi = ctx.monomial(Fraction(10) ** pos.offset, -pos.block, 0)
    lo = ctx.monomial(Fraction(10) ** (pos.offset - 1), -pos.block, 0)
    d = ((x * hi).floor() - 10 * (x * lo).floor()).standard_part()
    q = int(d)
    if q != d or not 0 <= q <= 9:
        raise RuntimeError(f"digit extraction produced {d}; floor misbehaved")
    return q


# ---------------------------------------------------------------- digit_at

def test_digit_examples():
    x = c(1) - TAU
    assert digit_at(x, 1) == 9
    assert digit_at(x, 7) == 9
    assert digit_at(x, (1, 0)) == 9
    assert digit_at(TAU, (1, 0)) == 1
    assert digit_at(TAU, (1, -1)) == 0
    assert digit_at(Fraction(37, 100) * TAU, (1, 1)) == 3
    assert digit_at(Fraction(37, 100) * TAU, (1, 2)) == 7
    assert digit_at(c(Fraction(1, 4)), 2) == 5


def test_digit_matches_finite_shadow():
    rng = random.Random(19)
    M = 80
    for _ in range(25):
        r = Fraction(rng.randrange(0, 10**6), 10**6)
        cc = Fraction(rng.randrange(1, 10**4), 10**4)
        s = rng.choice([1, -1])
        if s < 0 and r == 0:
            continue
        x = c(r) + s * cc * TAU
        shadow = r + s * cc * Fraction(1, 10**M)
        for j in (1, 2, 5, 9):
            assert digit_at(x, j) == plain_digit(shadow, j)
        for j in (-3, -1, 0, 1, 2, 4):
            assert digit_at(x, (1, j)) == plain_digit(shadow, M + j)


def test_digit_position_validation():
    with pytest.raises(PositionOutOfModel):
        digit_at(TAU, 0)
    with pytest.raises(PositionOutOfModel):
        digit_at(TAU, (-1, 2))
    with pytest.raises(PositionOutOfModel):
        digit_at(TAU, "first")


def test_digit_needs_unit_interval():
    with pytest.raises(PositionOutOfModel):
        digit_at(c(2), 1)
    with pytest.raises(PositionOutOfModel):
        digit_at(-TAU, 1)


def test_digit_off_grid():
    half_power = CTX.monomial(1, Fraction(1, 2), 0)
    with pytest.raises(PositionOutOfModel):
        digit_at(half_power, (1, 0))


FLOAT = NumContext(mode="float")


def test_digit_of_scaled_unit_is_undecidable():
    for ctx in (CTX, FLOAT):
        # the units digit of H is not pinned by this representation
        x = ctx.omega() * ctx.tau()
        with pytest.raises(FloorUndecidable) as info:
            digit_at(x, (1, 0))
        assert str(info.value) == "coefficient 1 of a power of H times 10^-1 is not whole"
        # place 2H + 1 fails two checks: the H-scaled term of block 2 comes
        # first, before the shallower 1/3 of block 1
        x = ctx.constant(Fraction(1, 3)) * ctx.tau() + ctx.constant(Fraction(1, 7)) * ctx.tau(2) * ctx.omega()
        seventh = "1/7" if ctx.mode == "exact" else str(Fraction(ctx.coeff(Fraction(1, 7))))
        for read in (lambda: digit_at(x, (2, 1)), lambda: digits_at(x, [(2, 1), (2, 2)])):
            with pytest.raises(FloorUndecidable) as info:
                read()
            assert str(info.value) == f"coefficient {seventh} of a power of H times 10^0 is not whole"


def test_digit_of_non_ten_smooth_block():
    with pytest.raises(FloorUndecidable) as info:
        digit_at(Fraction(1, 3) * TAU, (2, 0))
    assert str(info.value) == "coefficient 1/3 not a power-of-ten multiple"
    # a float coefficient is a decimal, so the same block has digits
    assert digit_at(FLOAT.constant(Fraction(1, 3)) * FLOAT.tau(), (2, 0)) == 0


# ---------------------------------------------------------------- render

PINNED = [
    (c(1) - TAU, ".999…;…9̂"),
    (-TAU, "−.000…;…01"),
    (c(Fraction(1, 4)), ".25"),
    (c(Fraction(1, 4)) - TAU, ".249;…9̂"),
    (c(Fraction(1, 4)) + Fraction(37, 100) * TAU, ".250;…0̂37"),
    (
        c(Fraction(123456, 10**6)) - Fraction(37, 100) * TAU,
        ".123455;…9̂63",
    ),
]


def test_render_pinned_strings():
    for x, want in PINNED:
        assert render(x) == want


def test_render_open_block_runs_to_the_cap():
    # the negative eps^2 tail keeps block 1 from closing: 40 places of 9s
    x = (
        c(Fraction(1, 4))
        + Fraction(37, 100) * TAU
        - Fraction(3, 1000) * CTX.tau(2)
    )
    assert render(x) == ".250;…0̂36" + "9" * 38 + "…;…9̂997"


def test_render_float_mode_prints_the_exact_digits():
    src = "0.000124*eps - 3.33333333333*eps^3"
    want = (
        ".000…;…0̂000123" + "9" * 34 + "…;…9̂" + "9" * 40 + "…;…96̂66666666667"
    )
    assert render(eval_command(parse_command(src), CTX)) == want
    ctx = NumContext(mode="float", prec=12)
    assert render(eval_command(parse_command(src), ctx)) == want


def test_render_float_mode_refuses_like_exact_mode():
    refusals = []
    for ctx in (CTX, NumContext(mode="float")):
        x = eval_command(parse_command("1/(1+eps)"), ctx)
        with pytest.raises(FloorUndecidable) as info:
            render(x)
        refusals.append(str(info.value))
    assert refusals[0] == refusals[1]
    assert "truncated tail" in refusals[0]


def test_render_standard_values():
    assert render(CTX.zero()) == "0"
    assert render(c(5)) == "5"
    assert render(c(Fraction(21, 4))) == "5.25"
    assert render(c(Fraction(1, 3))) == ".333…"
    assert render(c(Fraction(1, 6))) == ".1666…"
    assert render(c(Fraction(-1, 2))) == "−.5"


def test_render_carries_across_integer_boundary():
    assert render(c(Fraction(5, 2)) - TAU) == "2.499;…9̂"
    assert render(c(5) - TAU) == "4.999…;…9̂"


def test_render_wide_and_narrow_block_coefficients():
    assert render(Fraction(3, 1000) * TAU) == ".000…;…0̂003"
    assert render(Fraction(201, 2) * TAU) == ".000…;…0100̂5"


def test_render_empty_intermediate_block():
    # the tau^2 term forces an explicit empty first block
    assert render(CTX.tau(2)) == ".000…;…0̂;…01"


def test_render_window_widens():
    x = c(Fraction(1, 4)) + Fraction(37, 100) * TAU
    # the widened prefix ends in a run of zeros that really does continue,
    # so the renderer marks the continuation
    assert render(x, window=5) == ".25000…;…0̂37"
    assert parse(CTX, render(x, window=5)) == x


def test_render_refusals():
    with pytest.raises(UnsupportedNotation):
        render(c(Fraction(1, 7)))
    with pytest.raises(FloorUndecidable):
        render(c(Fraction(1, 3)) + TAU)
    with pytest.raises(NotFinite):
        render(CTX.omega())
    with pytest.raises(PositionOutOfModel):
        render(CTX.omega(-1))
    with pytest.raises(PositionOutOfModel):
        render(CTX.omega() * TAU)


def test_render_reads_the_coefficients_once(monkeypatch):
    reads, items = [], lightstone._items

    def counted(x):
        reads.append(x)
        return items(x)

    monkeypatch.setattr(lightstone, "_items", counted)
    three_terms = c(Fraction(1, 4)) + Fraction(37, 100) * TAU - CTX.tau(2)
    for x in [three_terms, c(Fraction(21, 4)), c(5) - TAU, c(5)] + [x for x, _ in PINNED]:
        reads.clear()
        render(x)
        assert len(reads) == (x != x.floor()), render(x)


# ---------------------------------------------------------------- parse

def test_parse_standard_readings():
    assert parse(CTX, ".999…") == c(1)
    assert parse(CTX, ".333…") == c(Fraction(1, 3))
    assert parse(CTX, "123") == c(123)
    assert parse(CTX, "-.5") == c(Fraction(-1, 2))
    assert parse(CTX, "−0.75") == c(Fraction(-3, 4))


def test_parse_ascii_conveniences():
    assert parse(CTX, ".249;...9^") == c(Fraction(1, 4)) - TAU
    assert parse(CTX, " .999...;...9^ ") == c(1) - TAU


def test_parse_macros():
    assert parse(CTX, "nines(H)") == nines_hyper(CTX)
    got = parse(CTX, "nines(3)")
    assert got == c(Fraction(999, 1000))


def test_parse_block_without_gap_uses_absolute_places():
    # digits placed absolutely: 5 at H-1, 2 at H (hat), 7 at H+1
    got = parse(CTX, ".25;52̂7")
    want = (
        c(Fraction(1, 4))
        + Fraction(5, 1) * CTX.monomial(10, 1, 0)
        + 2 * TAU
        + Fraction(7, 10) * TAU
    )
    assert got == want


def test_parse_rejections():
    with pytest.raises(UnsupportedNotation):
        parse(CTX, ".25;…9̂;…01")  # two blocks
    with pytest.raises(UnsupportedNotation):
        parse(CTX, ".25;…3̂3…")  # open-ended block
    with pytest.raises(UnsupportedNotation):
        parse(CTX, ".333…;…901")  # repeat digit 3 conflicts with gap digit 9
    with pytest.raises(UnsupportedNotation):
        parse(CTX, "abc")
    with pytest.raises(UnsupportedNotation):
        parse(CTX, ".…")
    with pytest.raises(UnsupportedNotation):
        parse(CTX, ".25;9̂9̂1")
    with pytest.raises(UnsupportedNotation):
        parse(CTX, ".25;̂")
    with pytest.raises(UnsupportedNotation):
        parse(CTX, "5;…01")
    with pytest.raises(UnsupportedNotation):
        parse(CTX, "")
    for text in HOSTILE_STRINGS:  # each digit run is read once, up to the limit
        start = time.perf_counter()
        with pytest.raises(ResourceLimit) as info:
            parse(CTX, text)
        assert time.perf_counter() - start < 2, text[:20]
        assert str(info.value) == "a digit run with more than 4300 digits is too large to read"


HOSTILE_STRINGS = [
    "." + "7" * 16000,
    "1" * 5000 + ".5",
    "nines(" + "9" * 5000 + ")",
    ".25;…0̂" + "7" * 16000,
]


def test_long_digit_runs_below_the_limit_parse():
    assert parse(CTX, "." + "7" * 4000) == c(Fraction(int("7" * 4000), 10**4000))
    # 7s from place 2 through H - 1, then 1 at place H: 7/90 + 1/5 - 61/9 eps
    assert parse(CTX, ".2;…" + "7" * 4000 + "1") == c(Fraction(5, 18)) - Fraction(61, 9) * TAU


def test_parse_repeat_shorthand_is_exact():
    assert parse(CTX, ".2…") == c(Fraction(2, 9))


# ---------------------------------------------------------------- round trips

def test_round_trip_documented_class():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randrange(0, 4)
        r = Fraction(rng.randrange(0, 10**5), 10**5)
        cc = Fraction(rng.randrange(1, 10**4), 10**4)
        s = rng.choice([1, -1])
        sign = rng.choice([1, -1])
        x = sign * (c(n) + c(r) + s * cc * TAU)
        text = render(x)
        assert parse(CTX, text) == x, text


def test_round_trip_blockless():
    rng = random.Random(101)
    for _ in range(40):
        r = Fraction(rng.randrange(-10**6, 10**6), 10**4)
        x = c(r)
        assert parse(CTX, render(x)) == x


def test_round_trip_float_mode():
    ctx = NumContext(mode="float", prec=40)
    x = ctx.constant(Fraction(1, 4)) + Fraction(37, 100) * ctx.tau()
    text = render(x)
    assert text == ".250;…0̂37"
    back = parse(ctx, text)
    assert (back - x).is_zero


# ---------------------------------------------------------------- misc

def test_truncated_boundary_propagates():
    crowd = HyperValue(ctx=CTX, terms=c(1).terms, truncated=True)
    with pytest.raises((TruncationAmbiguous, FloorUndecidable)):
        render(crowd - TAU)


# ---------------------------------------------------------------- engine parity

def _random_unit_value(rng: random.Random, ctx: NumContext) -> HyperValue:
    """An on-grid value in [0, 1) with 1-3 blocks, some flagged."""
    places = rng.randrange(1, 5)
    r = rng.choice([
        Fraction(0),
        Fraction(rng.randrange(0, 10**places), 10**places),
        Fraction(rng.randrange(1, 3), 3),
        Fraction(rng.randrange(1, 7), 7),
    ])
    terms = [(r, ExponentPair(0, 0))] if r else []
    for m in range(1, rng.randrange(1, 4) + 1):
        if terms and rng.random() < 0.2:
            continue  # leave this block empty
        cc = rng.choice([
            Fraction(rng.randrange(1, 10**5), 10 ** rng.randrange(0, 5)),
            Fraction(rng.randrange(1, 100), rng.choice([3, 7, 9])),
        ])
        if terms and rng.random() < 0.5:
            cc = -cc
        terms.append((cc, ExponentPair(m, 0)))
    return ctx.from_terms(terms, truncated=rng.random() < 0.25)


def _refusal(fn, *args):
    try:
        return fn(*args)
    except HyperError as exc:
        return (type(exc), str(exc))


def test_engine_digits_match_digit_at(monkeypatch):
    """render's block-coefficient digits agree with the floor route.

    Every digit range render reads off the coefficients is redone place
    by place with digit_by_floors; a range render refuses must make the
    oracle refuse at one of its places with the same type and message,
    and a shallower-block refusal must match the oracle at the block's
    place H.
    """
    ranges, checks = [], []
    digits, shallower = lightstone._digits, lightstone._shallower_check

    def record_digits(coeffs, m, lo, hi, flagged):
        ranges.append((m, lo, hi, _refusal(digits, coeffs, m, lo, hi, flagged)))
        return digits(coeffs, m, lo, hi, flagged)

    def record_shallower(coeffs, m):
        checks.append((m, _refusal(shallower, coeffs, m)))
        return shallower(coeffs, m)

    monkeypatch.setattr(lightstone, "_digits", record_digits)
    monkeypatch.setattr(lightstone, "_shallower_check", record_shallower)
    rng = random.Random(2718)
    compared = refused = 0
    for mode in ("exact", "float"):
        for k in (2, 4, 16):
            ctx = NumContext(max_terms=k, mode=mode, prec=50)
            for _ in range(16):
                x = _random_unit_value(rng, ctx)
                ranges.clear()
                checks.clear()
                _refusal(render, x, rng.randrange(1, 6))
                for m, lo, hi, got in ranges:
                    places = [Position(m, j) for j in range(lo, hi + 1)]
                    if isinstance(got, str):
                        want = "".join(str(digit_by_floors(x, p)) for p in places)
                        assert got == want, (x, m, lo, hi)
                        compared += len(places)
                        continue
                    first = next(
                        (r for r in (_refusal(digit_by_floors, x, p) for p in places)
                         if isinstance(r, tuple)),
                        None,
                    )
                    assert first == got, (x, m, lo, hi)
                    refused += 1
                for m, got in checks:
                    if got is not None:
                        assert _refusal(digit_by_floors, x, Position(m, 0)) == got, x
                        refused += 1
    assert compared > 2000 and refused > 20


def _random_scaled_value(rng: random.Random, ctx: NumContext, m: int) -> HyperValue:
    """A value in [0, 1) with terms in all five classes of the places m*H + j."""
    terms = []
    r = rng.choice([0, Fraction(rng.randrange(1, 10**4), 10**4), Fraction(1, 3)])
    if r:
        terms.append((r, ExponentPair(0, 0)))
    for _ in range(rng.randrange(1, 5)):
        kind = rng.choice(["deeper"] * 3 + ["block"] * 3 + ["shallow", "mixed", "scaled"])
        if kind == "deeper":
            b, a = rng.choice([(m, -1), (m + 1, rng.randrange(-1, 2)), (m + 2, 0)])
        elif kind == "block":
            b, a = rng.randrange(1, m + 1) if m else 1, 0
        elif kind == "shallow" and m >= 2:
            b, a = rng.randrange(1, m), rng.randrange(1, 3)
        elif kind == "mixed" and m >= 1:
            b, a = rng.randrange(0, m), -rng.randrange(1, 3)
        else:
            b, a = m, rng.randrange(1, 3)
        if b == 0 and a > 0:
            continue  # an infinite term puts x outside [0, 1)
        cc = rng.choice([
            Fraction(rng.randrange(1, 10**5), 10 ** rng.randrange(0, 5)),
        ] * 3 + [Fraction(rng.randrange(1, 100), rng.choice([3, 7]))])
        terms.append((rng.choice([1, -1]) * cc, ExponentPair(b, a)))
    x = ctx.from_terms(terms, truncated=rng.random() < 0.25)
    return -x if x.sign() < 0 else x


def test_digit_at_matches_the_floor_oracle_place_by_place():
    """digit_at gives the oracle's digit wherever the oracle answers.

    Where the oracle refuses, digit_at refuses with the same type, except
    for a float floor wider than prec: there the digit is exact mode's.
    """
    rng = random.Random(1972)
    answered = refused = widened = 0
    for mode, prec in (("exact", 50), ("float", 12), ("float", 50)):
        for k in (2, 4, 16):
            ctx = NumContext(max_terms=k, mode=mode, prec=prec)
            exact = NumContext(max_terms=k)
            for _ in range(60):
                m = rng.randrange(0, 4)
                x = _random_scaled_value(rng, ctx, m)
                for j in rng.sample(range(1 if m == 0 else -4, 26), 4):
                    want = _refusal(digit_by_floors, x, (m, j))
                    got = _refusal(digit_at, x, (m, j))
                    if isinstance(want, int):
                        assert got == want, (x, m, j)
                        answered += 1
                    elif "needs more than" in want[1]:
                        same = exact.from_terms(x.terms, truncated=x.truncated)
                        assert got == digit_by_floors(same, (m, j)), (x, m, j)
                        widened += 1
                    else:
                        assert isinstance(got, tuple) and got[0] is want[0], (x, m, j)
                        refused += 1
    assert answered > 800 and refused > 600 and widened > 30


def test_digits_at_matches_digit_at_place_by_place():
    """digits_at gives digit_at's digits, and its first refusal, in type
    and text, over values that refuse as a whole or at some places."""

    def place_by_place(x, positions):
        return [digit_at(x, p) for p in positions]

    rng = random.Random(1155)
    half_power = CTX.monomial(1, Fraction(1, 2), 0)
    whole_refusals = [c(2), -TAU, half_power, CTX.omega() * TAU]
    answered = refused = 0
    for ctx in (CTX, NumContext(max_terms=4, mode="float", prec=12)):
        for n in range(120):
            m = rng.randrange(0, 4)
            x = whole_refusals[n % 4] if n < 8 else _random_scaled_value(rng, ctx, m)
            positions = [(m, j) for j in rng.sample(range(1 if m == 0 else -4, 26), 5)]
            if rng.random() < 0.2:
                positions = [p[1] if m == 0 else Position(*p) for p in positions]
            if rng.random() < 0.3:
                # visit blocks 0-3 in a random order, then come back to block m
                order = rng.sample(range(4), 4)
                positions[2:2] = [(b, rng.randrange(1 if b == 0 else -4, 26)) for b in order]
            if rng.random() < 0.2:
                positions.insert(rng.randrange(0, 6), rng.choice([0, (-1, 2), "first"]))
            want = _refusal(place_by_place, x, positions)
            assert _refusal(digits_at, x, positions) == want, (x, positions)
            answered += isinstance(want, list)
            refused += isinstance(want, tuple)
    assert answered > 40 and refused > 40
    assert digits_at(c(2), []) == []
