"""Extended decimal expansions over the H / eps grid.

A finite value whose terms sit on integer powers of eps has decimal
digits at three kinds of places: the standard fractional positions
1, 2, 3, ..., and for each block m >= 1 the positions m*H + j around the
m-th infinite stretch.  One engine reads every digit off the
coefficients, each taken once as its lowest-terms int pair (n, d), with
int arithmetic only: ``render`` prints the prefix and one segment per
block, a run of empty blocks as one segment repeated; ``digits_at``
reads place after place, making the checks no offset changes once per
block; the tests keep two field floors per place as its oracle.  At
place m*H + j a term c * eps**b * H**a of x in [0, 1) falls under one
rule:
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
import sys
from fractions import Fraction

from ._record import Record
from .errors import (
    FloorUndecidable,
    NotFinite,
    PositionOutOfModel,
    ResourceLimit,
    UnsupportedNotation,
)
from .hyperfield import (
    HyperValue,
    NumContext,
    _format_monomial,
    _items,
    _keys,
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

_Ratio = tuple[int, int]  # lowest-terms numerator, positive denominator
_Coeffs = dict[tuple[int, int], _Ratio]
_ZERO = (0, 1)


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
    """digit_at of x at each place in turn.  The checks on x as a whole
    run once, and those of a block that no offset changes (mixed-scale
    terms, shallower blocks, the deeper tail's sign) once per block; the
    first refusal is the one digit_at gives in position order."""
    out, coeffs, blocks = [], None, {}
    for position in positions:
        pos = _as_position(position)
        m, j = pos.block, pos.offset
        if coeffs is None:
            coeffs = _coeffs(x)
            if x.sign() < 0 or not (x < x.ctx.constant(1)):
                raise PositionOutOfModel("digit_at needs 0 <= x < 1")
        block = blocks.get(m)
        if block is None:
            mixed = [(-b, -h) for b, h in coeffs if b < m and h > 0]
            if mixed:
                raise FloorUndecidable(f"mixed-scale monomial {_format_monomial(mixed[0])}")
            scaled = [c for (b, h), c in coeffs.items() if b == m and h < 0]
            block = scaled, coeffs.get((m, 0), _ZERO), _deeper_sign(coeffs, m)
        for c in block[0]:
            if not _place_floor(c, j - 1, 1)[1]:
                raise FloorUndecidable(
                    f"coefficient {Fraction(*c)} of a power of H times 10^{j - 1} is not whole"
                )
        if m not in blocks:
            _shallower_check(coeffs, m)
            blocks[m] = block
        out.append(_place_floor(block[1], j, 1, block[2], x.truncated)[0])
    return out


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

def _tail_run(r: _Ratio):
    """(u, d) with the digits of r constant at d from position u+1 on.

    Exists iff r's denominator divides 9 * 10^u for some u; d is then
    nine times the fractional part of r * 10^u, a single digit 0..8 (a
    rational's own expansion never ends in all 9s).  Returns None when
    there is no single-digit tail.
    """
    n, den = r
    u = _ten_power(den // math.gcd(den, 9))
    if u is None:
        return None
    d, rest = divmod(n * pow(10, u, den) % den * 9, den)
    assert rest == 0 and 0 <= d <= 8
    return (u, d)


def _grid_check(x: HyperValue) -> None:
    for minus_b, a in _keys(x):
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
    negative = x.sign() < 0
    sign = MINUS if negative else ""
    y = -x if negative else x
    n = int(y.floor().standard_part())
    whole = format_coeff(n) if n else ""
    if n and (y := y - n).is_zero:
        return f"{sign}{whole}"
    coeffs = _coeffs(y)  # y = |x| - floor(|x|) lies in [0, 1)
    r = coeffs.get((0, 0), _ZERO)
    tail = _tail_run(r)

    if max(coeffs)[0] == 0:
        if tail is None:
            raise UnsupportedNotation(
                f"{Fraction(*r)} has no terminating or single-repeating-digit "
                "expansion; this notation cannot spell it"
            )
        u, d = tail
        if d == 0:
            body = _digits(coeffs, 0, 1, u, y.truncated)
            return f"{sign}{whole}.{body}"
        length = max(window, u + 3)
        body = _digits(coeffs, 0, 1, length, y.truncated)
        return f"{sign}{whole}.{body}{ELLIPSIS}"

    if tail is None or tail[1] != 0:
        # the block digits would need the full expansion of r, and r is
        # not a power-of-ten multiple: the floor at place H refuses
        _shallower_check(coeffs, 1)
    # r * 10^u is whole: the prefix's last digits repeat past the window
    # iff they are the 0s of a positive deeper tail or the 9s of a negative one
    body = _digits(coeffs, 0, 1, max(window, tail[0]), y.truncated)
    run = "9" if _deeper_sign(coeffs, 0) < 0 else "0"
    dots = ELLIPSIS if body[-3:] == run * 3 else ""
    parts, done = [], 0
    for m, _ in coeffs:
        if m > done + 1:  # the empty blocks done+1 .. m-1 print alike
            empty = _render_block(coeffs, done + 1, window, y.truncated)
            parts.append(f";{empty}" * (m - done - 1))
        if m:
            parts.append(f";{_render_block(coeffs, m, window, y.truncated)}")
        done = m
    return f"{sign}{whole}.{body}{dots}{''.join(parts)}"


def _coeffs(x: HyperValue) -> _Coeffs:
    """Coefficients as lowest-terms int pairs keyed by depth (b, -a), the
    reverse of magnitude order, so the keys come in ascending order."""
    out = {}
    for (minus_b, a), c in _items(x):
        if minus_b.denominator != 1 or a.denominator != 1:
            raise PositionOutOfModel("fractional exponents have no decimal digit places")
        out[-minus_b, -a] = c.as_integer_ratio()
    return out


def _deeper_sign(coeffs: _Coeffs, m: int) -> int:
    """Sign of the first term deeper than block m, 0 if none."""
    for key, (n, _) in coeffs.items():
        if key > (m, 0):
            return 1 if n > 0 else -1
    return 0


def _shallower_check(coeffs: _Coeffs, m: int) -> None:
    """Refuse block m when a shallower term is not a power-of-ten multiple.

    A term c * eps**k * H**a with k < m contributes c * 10^((m-k)H + j) *
    H**a at place m*H + j, a multiple of ten only when 10^H absorbs the
    denominator of c.
    """
    for key, c in coeffs.items():
        if key >= (m, 0):
            return
        if _ten_power(c[1]) is None:
            raise FloorUndecidable(
                f"coefficient {Fraction(*c)} not a power-of-ten multiple"
            )


def _place_floor(
    c: _Ratio, e: int, count: int, tail: int = 0, flagged: bool = False
) -> tuple[int, bool]:
    """(floor(c * 10^e + t) mod 10^count, whether c * 10^e is whole), for
    an infinitesimal t of sign tail; a flagged value's whole c * 10^e
    with no tail is refused, as the sign below it is unknown.

    With n/d = c and M = d * 10^count, n * 10^e = q*M + r gives the floor
    q * 10^count + r // d, whole iff d divides r; for e >= 0, r comes from
    pow(10, e, M), so no power of ten grows with the place.  For e < 0 a
    numerator below 8^-e < 10^-e puts c * 10^e in (-1, 1), so its floor
    is 0 or -1; a larger numerator makes 10^-e no longer than it is.
    """
    num, den = c
    if e < 0 and abs(num).bit_length() <= -3 * e:
        z, whole = -1 if num < 0 else 0, num == 0
    else:
        den *= 10 ** max(-e, 0)
        mod = den * 10**count
        r = num * pow(10, max(e, 0), mod) % mod
        z, whole = r // den, r % den == 0
    if whole:
        if tail == 0 and flagged:
            raise FloorUndecidable(
                "integer standard part with a truncated tail of unknown sign"
            )
        if tail < 0:
            z -= 1
    return z % 10**count, whole


def _digits(coeffs: _Coeffs, m: int, lo: int, hi: int, flagged: bool) -> str:
    """Digits at places m*H + lo .. m*H + hi of an on-grid y in [0, 1).

    Shallower terms only add multiples of ten there, so with Z the floor
    of c_m * 10^hi plus the deeper tail, the digit at m*H + j is
    (Z // 10^(hi-j)) % 10.
    """
    count = hi - lo + 1
    z, _ = _place_floor(
        coeffs.get((m, 0), _ZERO), hi, count, _deeper_sign(coeffs, m), flagged
    )
    return _text(z, "a digit string").zfill(count)


def _render_block(coeffs: _Coeffs, m: int, window: int, flagged: bool) -> str:
    _shallower_check(coeffs, m)
    n, d = coeffs.get((m, 0), _ZERO)
    width = len(_text(abs(n) // d, "a digit string")) if abs(n) >= d else 1
    j_lo = min(-window, -(width + 1))

    # the digits end at the first place where c*10^j is whole, unless the
    # deeper tail is negative and turns what follows into a run of 9s
    j_hi = _ten_power(d)
    open_ended = j_hi is None or j_hi > _BLOCK_CAP or _deeper_sign(coeffs, m) < 0
    if open_ended:
        j_hi = _BLOCK_CAP

    digits = _digits(coeffs, m, j_lo, j_hi, flagged)
    # collapse the repeated stretch, but never past the place m*H digit:
    # everything after the anchor is positional
    run = min(-j_lo + 1, len(digits) - len(digits.lstrip(digits[0])))
    visible = digits[run - 1 :]
    hat = -j_lo - (run - 1) + 1  # just after the place m*H digit
    if not (j_hi == 0 and hat == len(visible) and hat > 1):
        visible = visible[:hat] + HAT + visible[hat:]
    return ELLIPSIS + visible + (ELLIPSIS if open_ended else "")


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
    raise UnsupportedNotation, and a digit run past Python's int-to-str
    limit raises ResourceLimit.
    """
    s = text.strip().replace("...", ELLIPSIS)
    macro = _MACRO.fullmatch(s)
    if macro:
        arg = macro.group(1)
        return nines_hyper(ctx) if arg == "H" else nines(ctx, _run(arg))
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
    frac_digits = frac_digits or ""
    repeat = bool(head_dots)
    if repeat and not frac_digits:
        raise UnsupportedNotation("a repeat mark needs a digit before it")

    unit = 10 ** len(frac_digits)  # of the last prefix place
    base = Fraction(_run(int_digits) * unit + _run(frac_digits), unit)

    if not block_texts:
        if repeat:
            base += Fraction(int(frac_digits[-1]), 9 * unit)
        value = ctx.constant(base)
        return -value if negative else value

    gap, digits, hat_idx = _parse_block(block_texts[0])
    anchor = hat_idx if hat_idx is not None else len(digits) - 1
    # digit i of the block sits at place H - anchor + i, so a run that ends
    # with the block reads as one int times 10^(anchor + 1 - len(digits))
    last_weight = Fraction(10) ** (anchor + 1 - len(digits))
    if gap:
        g = int(digits[0])
        if repeat and int(frac_digits[-1]) != g:
            raise UnsupportedNotation(
                "the prefix repeat digit conflicts with the block run digit"
            )
        # g fills every place from the end of the prefix through H - anchor
        base += Fraction(g, 9 * unit)
        tau_coeff = _run(digits[1:]) * last_weight - Fraction(g, 9) * 10**anchor
    else:
        if repeat:
            raise UnsupportedNotation(
                "a prefix repeat cannot meet a block with absolute places"
            )
        tau_coeff = _run(digits) * last_weight
    value = ctx.constant(base) + ctx.monomial(tau_coeff, 1, 0)
    return -value if negative else value


def _run(digits: str) -> int:
    """A run of decimal digits as one int, 0 when empty; a run past
    Python's int-to-str limit is refused as too large to read."""
    try:
        return int(digits) if digits else 0
    except ValueError as exc:  # only the digit limit fails a digit run
        raise ResourceLimit(
            f"a digit run with more than {sys.get_int_max_str_digits()}"
            " digits is too large to read"
        ) from exc


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
        if ch.isdecimal():
            digits.append(ch)
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
    return gap, "".join(digits), hat_idx
