"""Number-line figures at infinitesimal magnification.

A scene fixes a center c and a positive scale s; every point x is
drawn at the standard part of (x - c)/s, so values separated by mere
infinitesimals land at distinct, readable positions.  Points whose
magnified offset is infinite (or finite but outside the viewing
window) are drawn at the margin with an arrow rather than rejected.

Output is a self-contained SVG document or an ASCII diagram.  Both are
pure functions of the scene: equal scenes give byte-identical output,
which the golden-file tests rely on.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidScale, NotFinite
from .hyperfield import HyperValue, NumContext, format_value

VIEW_HALF_WIDTH = Fraction(5, 2)   # abscissa range drawn: [-2.5, 2.5]

SVG_WIDTH = 640
SVG_HEIGHT = 160
_AXIS_Y = 100
_PX_PER_UNIT = 120
_X0 = SVG_WIDTH // 2

_COLS = 61                 # ascii axis columns, center col 30
_COLS_PER_UNIT = 12


def escape(text: str) -> str:
    """Escape &, > and < for SVG text, in that order, as
    xml.sax.saxutils.escape does (importing it would load urllib and
    http.client)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


@dataclass(frozen=True)
class MicroscopeScene:
    center: HyperValue
    scale: HyperValue
    points: tuple            # (label, HyperValue) pairs
    fmt: str = "svg"         # "svg" | "ascii"
    caption: tuple = ()

    def __post_init__(self):
        if self.fmt not in ("svg", "ascii"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.scale.sign() <= 0:
            raise InvalidScale("the magnification scale must be positive")


def scene_positions(scene: MicroscopeScene) -> tuple:
    """(label, abscissa, side) per point.

    side is "in" for points inside the window (abscissa a Fraction),
    "left"/"right" for off-scale points (abscissa None).
    """
    out = []
    for label, x in scene.points:
        offset = (x - scene.center) / scene.scale
        try:
            a = Fraction(offset.standard_part())
        except NotFinite:
            out.append((label, None, "left" if offset.sign() < 0 else "right"))
            continue
        if a < -VIEW_HALF_WIDTH:
            out.append((label, None, "left"))
        elif a > VIEW_HALF_WIDTH:
            out.append((label, None, "right"))
        else:
            out.append((label, a, "in"))
    return tuple(out)


def microscope(scene: MicroscopeScene) -> str:
    if scene.fmt == "svg":
        return _render_svg(scene)
    return _render_ascii(scene)


# --------------------------------------------------------------------------
# svg
# --------------------------------------------------------------------------

def _px(a: Fraction) -> str:
    v = _X0 + a * _PX_PER_UNIT
    hundredths = round(v * 100)
    sign = "-" if hundredths < 0 else ""
    mag = abs(hundredths)
    return f"{sign}{mag // 100}.{mag % 100:02d}"


def _render_svg(scene: MicroscopeScene) -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}"'
        f' height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<line x1="20" y1="{_AXIS_Y}" x2="{SVG_WIDTH - 20}" y2="{_AXIS_Y}"'
        ' stroke="black" stroke-width="1"/>',
        f'<path d="M {SVG_WIDTH - 20} {_AXIS_Y} l -8 -4 v 8 z" fill="black"/>',
        f'<path d="M 20 {_AXIS_Y} l 8 -4 v 8 z" fill="black"/>',
    ]
    for k in range(-2, 3):
        x = _px(Fraction(k))
        parts.append(
            f'<line x1="{x}" y1="{_AXIS_Y - 5}" x2="{x}" y2="{_AXIS_Y + 5}"'
            ' stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x}" y="{_AXIS_Y + 20}" font-family="monospace"'
            f' font-size="12" text-anchor="middle">{k}</text>'
        )
    center_text = escape(
        f"center {format_value(scene.center)}, scale {format_value(scene.scale)}"
    )
    parts.append(
        f'<text x="{_X0}" y="{_AXIS_Y + 38}" font-family="monospace"'
        f' font-size="12" text-anchor="middle">{center_text}</text>'
    )
    for i, (label, a, side) in enumerate(scene_positions(scene)):
        label_y = 70 - (i % 3) * 18
        text = escape(label)
        if side == "in":
            x = _px(a)
            parts.append(
                f'<circle cx="{x}" cy="{_AXIS_Y}" r="4" fill="black"/>'
            )
            parts.append(
                f'<line x1="{x}" y1="{_AXIS_Y - 6}" x2="{x}"'
                f' y2="{label_y + 4}" stroke="black" stroke-width="0.5"'
                ' stroke-dasharray="2,2"/>'
            )
            parts.append(
                f'<text x="{x}" y="{label_y}" font-family="monospace"'
                f' font-size="12" text-anchor="middle">{text}</text>'
            )
        else:
            edge = 26 if side == "left" else SVG_WIDTH - 26
            head = 14 if side == "left" else SVG_WIDTH - 14
            parts.append(
                f'<path d="M {edge} {label_y - 4} L {head} {label_y - 4}"'
                ' stroke="black" stroke-width="1"/>'
            )
            arrow = (
                f'<path d="M {head} {label_y - 4} l 6 -3 v 6 z" fill="black"/>'
                if side == "right"
                else f'<path d="M {head} {label_y - 4} l -6 -3 v 6 z" fill="black"/>'
            )
            parts.append(arrow)
            anchor = "start" if side == "left" else "end"
            tx = 34 if side == "left" else SVG_WIDTH - 34
            parts.append(
                f'<text x="{tx}" y="{label_y}" font-family="monospace"'
                f' font-size="12" text-anchor="{anchor}">{text} (off scale)</text>'
            )
    for j, line in enumerate(scene.caption):
        parts.append(
            f'<text x="{_X0}" y="{_AXIS_Y + 52 + 14 * j}"'
            f' font-family="monospace" font-size="11"'
            f' text-anchor="middle">{escape(line)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --------------------------------------------------------------------------
# ascii
# --------------------------------------------------------------------------

def _col(a: Fraction) -> int:
    return int(_COLS // 2 + round(a * _COLS_PER_UNIT))


def _render_ascii(scene: MicroscopeScene) -> str:
    lines = []
    positions = scene_positions(scene)
    for label, a, side in positions:
        row = [" "] * _COLS
        if side == "in":
            col = _col(a)
            row[col] = "*"
            tail = f" {label}"
        elif side == "left":
            row[0] = "<"
            tail = f" {label} (off scale)"
        else:
            row[_COLS - 1] = ">"
            tail = f" {label} (off scale)"
        lines.append("".join(row).rstrip() + tail)
    axis = ["-"] * _COLS
    for k in range(-2, 3):
        axis[_col(Fraction(k))] = "+"
    lines.append("<" + "".join(axis[1:-1]) + ">")
    ticks = [" "] * _COLS
    for k in range(-2, 3):
        text = str(k)
        start = _col(Fraction(k)) - len(text) // 2
        for idx, ch in enumerate(text):
            ticks[start + idx] = ch
    lines.append("".join(ticks).rstrip())
    lines.append(
        f"center {format_value(scene.center)}, scale {format_value(scene.scale)}"
    )
    lines.extend(scene.caption)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# preset scenes
# --------------------------------------------------------------------------

def preset_scene(name: str, ctx: NumContext, fmt: str = "svg") -> MicroscopeScene:
    """Built-in scenes: "triple" shows three values an infinitesimal
    apart around 1; "slope" shows a difference quotient sitting an
    infinitesimal below its standard part."""
    one = ctx.constant(1)
    tau = ctx.tau()
    if name == "triple":
        return MicroscopeScene(
            center=one,
            scale=tau,
            points=(
                ("1 - eps", one - tau),
                ("1", one),
                ("1 + eps", one + tau),
            ),
            fmt=fmt,
            caption=("three hyperreals an infinitesimal apart, magnified",),
        )
    if name == "slope":
        two = ctx.constant(2)
        return MicroscopeScene(
            center=two,
            scale=tau,
            points=(
                ("slope at 1 - eps", two - tau),
                ("st = 2", two),
            ),
            fmt=fmt,
            caption=(
                "secant slope of x^2 through 1 and 1 - eps is 2 - eps;",
                "its standard part is the tangent slope 2",
            ),
        )
    raise ValueError(f"unknown preset {name!r}")
