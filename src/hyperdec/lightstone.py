"""Extended decimal expansions over the H / eps grid.

A finite value whose terms sit on integer powers of eps has decimal
digits at three kinds of places: the standard fractional positions
1, 2, 3, ..., and for each block m >= 1 the positions m*H + j around the
m-th infinite stretch.  One engine reads every digit off the
coefficients: ``render`` prints the prefix and one segment per block,
``digit_at`` reads one place, and the tests keep two field floors per
place as its oracle.  At place m*H + j a term c * eps**b * H**a of x in
[0, 1) falls under one rule:
- b > m, or b == m and a < 0: the deeper tail, told by its first sign;
- a == 0, b <= m: a block coefficient; the digit is that of c_m * 10^j,
  from just below when that is whole and the tail is negative;
- b < m, a >= 0: refused unless c's denominator divides a power of ten;
- b < m, a < 0: refused as mixed-scale;
- b == m, a > 0: refused unless c * 10^(j-1) is whole.
Refusals are typed errors; ``render`` refuses every H-scaled term, and
``parse`` inverts the printed form exactly.

Notation summary (one block shown):

    [sign] [int] "." prefix ["…"] [";" "…" digits]

Block digits carry their place implicitly: a digit marked with a
circumflex sits exactly at place m*H; with no mark the last digit does.
A leading "…" in a block means the first visible digit repeats over the
whole gap back to the end of the prefix.  The prefix "…" means the last
prefix digit repeats forever in the standard positions; blockless, that
is the classical reading (".999…" parses to 1).
"""

import math
import re
from fractions import Fraction

from ._record import Record
from .errors import (
    FloorUndecidable,
    NotFinite,
    PositionOutOfModel,
    UnsupportedNotation,
)
from .hyperfield import (
    HyperValue,
    NumContext,
    _format_monomial,
    _items,
    _ten_power,
    _text,
    format_coeff,
    nines,
    nines_hyper,
)

MINUS = "−"
HAT = "̂"
ELLIPSIS = "…"

_BLOCK_CAP = 40

_Coeffs = dict[tuple[int, int], Fraction]


class Position(Record):
    """Decimal place m*H + offset; block 0 is the standard prefix."""

    __slots__ = ("block", "offset")

    def __init__(self, block: int, offset: int) -> None:
        if block < 0:
            raise PositionOutOfModel("block index must be nonnegative")
        if block == 0 and offset < 1:
            raise PositionOutOfModel(
                "standard positions count fractional places and start at 1"
            )
        _set_block(self, block)
        _set_offset(self, offset)


_set_block = Position.block.__set__
_set_offset = Position.offset.__set__


def _as_position(position) -> Position:
    if isinstance(position, Position):
        return position
    if isinstance(position, int):
        return Position(0, position)
    if isinstance(position, tuple) and len(position) == 2:
        return Position(int(position[0]), int(position[1]))
    raise PositionOutOfModel(f"not a digit position: {position!r}")


def digit_at(x: HyperValue, position) -> int:
    """Digit of x in [0, 1) at the given place: the engine's digit under
    the five term rules of the module docstring, or a typed refusal."""
    return digits_at(x, (position,))[0]


def digits_at(x: HyperValue, positions) -> list[int]:
    """digit_at of x at each place in turn, with the checks on x as a
    whole made once; the first refusal is the one digit_at would give."""
    out = []
    coeffs = None
    for position in positions:
        pos = _as_position(position)
        if coeffs is None:
            coeffs = _coeffs(x)
            _unit_interval_check(x)
        out.append(_digit(coeffs, pos.block, pos.offset, x.truncated))
    return out


def _digit(coeffs: _Coeffs, m: int, j: int, flagged: bool) -> int:
    """The digit at place m*H + j, or the refusal of a term rule."""
    for (b, h), c in coeffs.items():
        if b < m and h > 0:
            raise FloorUndecidable(
                f"mixed-scale monomial {_format_monomial((-b, -h))}"
            )
        if b == m and h < 0 and not _place_floor(c, j - 1, 1)[1]:
            raise FloorUndecidable(
                f"coefficient {c} of a power of H times 10^{j - 1} is not whole"
            )
    _shallower_check(coeffs, m)
    return int(_digits(coeffs, m, j, j, flagged))


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

def _tail_run(r: Fraction):
    """(u, d) with the digits of r constant at d from position u+1 on.

    Exists iff the denominator divides 9 * 10^u for some u; d is then a
    single digit 0..8 (a rational's own expansion never ends in all 9s).
    Returns None when there is no single-digit tail.
    """
    u = _ten_power(r.denominator // math.gcd(r.denominator, 9))
    if u is None:
        return None
    shifted = r * 10**u
    frac = shifted - math.floor(shifted)
    d = frac * 9
    assert d.denominator == 1 and 0 <= d <= 8
    return (u, int(d))


def _grid_check(x: HyperValue) -> None:
    for (minus_b, a), _ in _items(x):
        if minus_b.denominator != 1 or a.denominator != 1:
            raise PositionOutOfModel(
                "fractional exponents sit off the decimal grid"
            )
        if minus_b > 0 or (minus_b == 0 and a > 0):
            raise NotFinite("infinite values have no decimal rendering")
        if a != 0:
            raise PositionOutOfModel(
                "H-scaled coefficients have no printable digit expansion"
            )


def render(x: HyperValue, window: int = 3) -> str:
    """Extended decimal string for a finite on-grid value.

    window sets how many places are shown before a repeating stretch is
    elided, both in the standard prefix and at each block boundary.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    _grid_check(x)
    if x.is_zero:
        return "0"
    sign = MINUS if x.sign() < 0 else ""
    y0 = -x if x.sign() < 0 else x
    n = int(y0.floor().standard_part())
    whole = format_coeff(n) if n else ""
    y = y0 - n
    if y.is_zero:
        return f"{sign}{whole}"
    coeffs = _coeffs(y)
    blocks_max = max(coeffs)[0]
    r = coeffs.get((0, 0), Fraction(0))
    tail = _tail_run(r)

    if blocks_max == 0:
        if tail is None:
            raise UnsupportedNotation(
                f"{r} has no terminating or single-repeating-digit "
                "expansion; this notation cannot spell it"
            )
        _unit_interval_check(y)
        u, d = tail
        if d == 0:
            body = _digits(coeffs, 0, 1, u, y.truncated)
            return f"{sign}{whole}.{body}"
        length = max(window, u + 3)
        body = _digits(coeffs, 0, 1, length, y.truncated)
        return f"{sign}{whole}.{body}{ELLIPSIS}"

    _unit_interval_check(y)
    if tail is None or tail[1] != 0:
        # the block digits would need the full expansion of r, and r is
        # not a power-of-ten multiple: the floor at place H refuses
        _shallower_check(coeffs, 1)
    u, _ = tail
    length = max(window, u)
    body = _digits(coeffs, 0, 1, length, y.truncated)
    ellipsis = False
    if len(body) >= 3 and len(set(body[-3:])) == 1:
        last = int(body[-1])
        scaled = r * 10**length
        if _deeper_sign(coeffs, 0) < 0 and scaled.denominator == 1:
            ellipsis = last == 9
        elif last <= 8:
            ellipsis = scaled - math.floor(scaled) == Fraction(last, 9)
    parts = "".join(
        ";" + _render_block(coeffs, m, window, y.truncated)
        for m in range(1, blocks_max + 1)
    )
    dots = ELLIPSIS if ellipsis else ""
    return f"{sign}{whole}.{body}{dots}{parts}"


def _unit_interval_check(y: HyperValue) -> None:
    if y.sign() < 0 or not (y < y.ctx.constant(1)):
        raise PositionOutOfModel("digit_at needs 0 <= x < 1")


def _coeffs(x: HyperValue) -> _Coeffs:
    """Coefficients keyed by depth (b, -a), the reverse of magnitude order."""
    out = {}
    for (minus_b, a), c in _items(x):
        if minus_b.denominator != 1 or a.denominator != 1:
            raise PositionOutOfModel("fractional exponents have no decimal digit places")
        out[-minus_b, -a] = Fraction(c)
    return out


def _deeper_sign(coeffs: _Coeffs, m: int) -> int:
    """Sign of the first term deeper than block m, 0 if none."""
    deeper = [k for k in coeffs if k > (m, 0)]
    if not deeper:
        return 0
    return 1 if coeffs[min(deeper)] > 0 else -1


def _shallower_check(coeffs: _Coeffs, m: int) -> None:
    """Refuse block m when a shallower term is not a power-of-ten multiple.

    A term c * eps**k * H**a with k < m contributes c * 10^((m-k)H + j) *
    H**a at place m*H + j, a multiple of ten only when 10^H absorbs the
    denominator of c.
    """
    for k in sorted(coeffs):
        if k < (m, 0) and _ten_power(coeffs[k].denominator) is None:
            raise FloorUndecidable(
                f"coefficient {coeffs[k]} not a power-of-ten multiple"
            )


def _place_floor(c: Fraction, e: int, count: int) -> tuple[int, bool]:
    """(floor(c * 10^e) mod 10^count, whether c * 10^e is whole).

    With n/d = c and M = d * 10^count, n * 10^e = q*M + r gives the floor
    q * 10^count + r // d, whole iff d divides r; for e >= 0, r comes from
    pow(10, e, M), so no power of ten grows with the place.  For e < 0 a
    numerator below 8^-e < 10^-e puts c * 10^e in (-1, 1), so its floor
    is 0 or -1; a larger numerator makes 10^-e no longer than it is.
    """
    num, den = c.numerator, c.denominator
    if e < 0:
        if abs(num).bit_length() <= -3 * e:
            return (-1 if num < 0 else 0) % 10**count, num == 0
        den *= 10**-e
        e = 0
    mod = den * 10**count
    r = num * pow(10, e, mod) % mod
    return r // den, r % den == 0


def _digits(coeffs: _Coeffs, m: int, lo: int, hi: int, flagged: bool) -> str:
    """Digits at places m*H + lo .. m*H + hi of an on-grid y in [0, 1).

    Shallower terms only add multiples of ten there, so with Z the floor
    of c_m * 10^hi (one less when that is a whole number and the deeper
    tail is negative) the digit at m*H + j is (Z // 10^(hi-j)) % 10.
    """
    c = coeffs.get((m, 0), Fraction(0))
    s = _deeper_sign(coeffs, m)
    count = hi - lo + 1
    z, whole = _place_floor(c, hi, count)
    if whole:
        if s == 0 and flagged:
            raise FloorUndecidable(
                "integer standard part with a truncated tail of unknown sign"
            )
        if s < 0:
            z -= 1
    return _text(z % 10**count, "a digit string").zfill(count)


def _render_block(coeffs: _Coeffs, m: int, window: int, flagged: bool) -> str:
    _shallower_check(coeffs, m)
    c = coeffs.get((m, 0), Fraction(0))
    width = len(_text(int(abs(c)), "a digit string")) if abs(c) >= 1 else 1
    j_lo = min(-window, -(width + 1))

    # the digits end at the first place where c*10^j is whole, unless the
    # deeper tail is negative and turns what follows into a run of 9s
    j_hi = _ten_power(c.denominator)
    open_ended = (
        j_hi is None or j_hi > _BLOCK_CAP or _deeper_sign(coeffs, m) < 0
    )
    if open_ended:
        j_hi = _BLOCK_CAP

    digits = _digits(coeffs, m, j_lo, j_hi, flagged)
    run = 1
    # collapse the repeated stretch, but never past the place m*H digit:
    # everything after the anchor is positional
    limit = -j_lo + 1
    while run < limit and run < len(digits) and digits[run] == digits[0]:
        run += 1
    visible = digits[run - 1 :]
    hat_idx = -j_lo - (run - 1)  # index of the place m*H digit in visible
    use_hat = not (j_hi == 0 and hat_idx == len(visible) - 1 and len(visible) > 1)
    chars = []
    for i, v in enumerate(visible):
        chars.append(v)
        if use_hat and i == hat_idx:
            chars.append(HAT)
    tail_dots = ELLIPSIS if open_ended else ""
    return ELLIPSIS + "".join(chars) + tail_dots


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

_MACRO = re.compile(r"nines\(\s*(H|\d+)\s*\)")
_HEAD = re.compile(r"(\d*)(?:\.(\d*)(…?))?")


def parse(ctx: NumContext, text: str) -> HyperValue:
    """Read an extended decimal string back into a value.

    Accepts the exact output of render plus ASCII conveniences: "..." for
    the ellipsis, "^" after a digit for the place mark, "-" for the sign.
    One block at most; strings whose digit places cannot be pinned down
    raise UnsupportedNotation.
    """
    s = text.strip().replace("...", ELLIPSIS)
    macro = _MACRO.fullmatch(s)
    if macro:
        arg = macro.group(1)
        return nines_hyper(ctx) if arg == "H" else nines(ctx, int(arg))
    negative = s.startswith(("-", MINUS))
    if negative:
        s = s[1:]
    if not s:
        raise UnsupportedNotation("empty string")
    segments = s.split(";")
    head = segments[0]
    block_texts = segments[1:]
    if len(block_texts) > 1:
        raise UnsupportedNotation(
            "multi-block strings are not supported; give one block"
        )

    match = _HEAD.fullmatch(head)
    if not match or (not match.group(1) and match.group(2) is None):
        raise UnsupportedNotation(f"not decimal notation: {text!r}")
    int_digits, frac_digits, head_dots = match.groups()
    if match.group(2) is None and block_texts:
        raise UnsupportedNotation("a block needs a decimal point in front")
    n = int(int_digits) if int_digits else 0
    frac_digits = frac_digits or ""
    repeat = bool(head_dots)
    if repeat and not frac_digits:
        raise UnsupportedNotation("a repeat mark needs a digit before it")

    length = len(frac_digits)
    base = Fraction(n)
    for i, ch in enumerate(frac_digits, start=1):
        base += Fraction(int(ch), 10**i)

    if not block_texts:
        if repeat:
            base += Fraction(int(frac_digits[-1]), 9) * Fraction(1, 10**length)
        value = ctx.constant(base)
        return -value if negative else value

    gap, digits, hat_idx = _parse_block(block_texts[0])
    anchor = hat_idx if hat_idx is not None else len(digits) - 1
    tau_coeff = Fraction(0)
    for i in range(1, len(digits)):
        tau_coeff += digits[i] * Fraction(10) ** (anchor - i)
    if gap:
        g = digits[0]
        if repeat and int(frac_digits[-1]) != g:
            raise UnsupportedNotation(
                "the prefix repeat digit conflicts with the block run digit"
            )
        # g fills every place from the end of the prefix through H - anchor
        base += Fraction(g, 9) * Fraction(1, 10**length)
        tau_coeff -= Fraction(g, 9) * Fraction(10) ** anchor
    else:
        if repeat:
            raise UnsupportedNotation(
                "a prefix repeat cannot meet a block with absolute places"
            )
        tau_coeff += digits[0] * Fraction(10) ** anchor
    value = ctx.constant(base) + ctx.monomial(tau_coeff, 1, 0)
    return -value if negative else value


def _parse_block(text: str):
    if not text:
        raise UnsupportedNotation("empty block")
    gap = text.startswith(ELLIPSIS)
    if gap:
        text = text[len(ELLIPSIS) :]
    if text.endswith(ELLIPSIS):
        raise UnsupportedNotation(
            "the block digits do not terminate; the value is not readable "
            "from this string"
        )
    digits = []
    hat_idx = None
    for ch in text:
        if ch.isdigit():
            digits.append(int(ch))
        elif ch in (HAT, "^"):
            if not digits:
                raise UnsupportedNotation("place mark with no digit before it")
            if hat_idx is not None:
                raise UnsupportedNotation("more than one place mark")
            hat_idx = len(digits) - 1
        else:
            raise UnsupportedNotation(f"unexpected character {ch!r} in block")
    if not digits:
        raise UnsupportedNotation("a block needs at least one digit")
    return gap, digits, hat_idx
