"""shell_session: a person at the terminal.

A seeded script of command lines, each sent through cli.run_cli in
process with stdout and stderr captured.  It covers every
non-interactive subcommand and leans on eval --lightstone, lightstone
and digits for on-grid values with one and two eps-blocks.  About one
line in ten must be refused (exit 1) or rejected (exit 2).

Oracles: each line's expected exit code; printed values re-parse to the
constructed value; one-block Lightstone strings round-trip through
lightstone.parse; digits and standard prefixes match a digit rule worked
out here from the construction; microscope output matches the committed
figure goldens byte for byte (their SHA-256 digests are pinned below).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import hyperdec.cli as CLI
import hyperdec.expr as E
import hyperdec.lightstone as L
from hyperdec.hyperfield import NumContext

import shadow as sh
from core import PASS, Verdict, coeffs, fail, horner

CTX = NumContext()

# SHA-256 of tests/golden/{triple,slope}.{svg,txt}; the CLI prints the
# figure itself, so stdout must hash to the golden file's digest.
GOLDEN_SHA256 = {
    ("triple", "svg"): "f289c1571e738629a77807b2f134c63842be2619741d28afdccde0964ac89028",
    ("triple", "ascii"): "cc90797995e3af68dcba01aee4a932819180be1473e233b150c86374f6fb9716",
    ("slope", "svg"): "dcbc89c5529f21674675b6119993fd8de4096de2924ff70cc3e7f7b5b9ff1e3e",
    ("slope", "ascii"): "de5040afa43009288ebb63d652cff2dd0cd7219de741a636a0caede58503344f",
}

# One cycle of 41 lines; 4 of them must fail with exit 1 or 2.
PLAN = (
    ["eval_ls1"] * 5 + ["eval_ls2"] * 3 + ["lightstone1"] * 5 + ["lightstone2"] * 3
    + ["digits1"] * 4 + ["digits2"] * 2 + ["eval"] * 2 + ["st"] * 2 + ["classify"] * 2
    + ["deriv"] * 2 + ["lim", "limfun", "ucheck", "evt", "newton"]
    + ["microscope"] * 2 + ["refuse"] * 2 + ["reject"] * 2
)


@dataclass(frozen=True)
class Line:
    kind: str
    argv: tuple
    code: int                                  # expected exit code
    value: dict = field(default_factory=dict)  # shadow of the constructed value
    blocks: int = 0
    expect: object = None                      # kind-specific expected output


def _signed_sum(parts) -> str:
    """Expression text for [(coefficient, monomial text)]."""
    out = []
    for c, mono in parts:
        body = f"{abs(c)}*{mono}" if mono else f"{abs(c)}"
        out.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(out) if out else "0"
    # a leading minus would read as an option flag on the command line
    return text[2:] if text.startswith("+ ") else f"(-{text[2:]})"


def _text(terms: dict) -> str:
    """Expression-language text for a shadow sum."""
    return _signed_sum(
        (c, "*".join(s for s in (f"eps^{b}" if b else "", f"H^{a}" if a else "") if s))
        for (b, a), c in sorted(terms.items(), key=lambda t: (t[0][0], -t[0][1]))
    )


def _grid_value(rng: random.Random, blocks: int, unit: bool, n_slot: int) -> dict:
    """n + r + sum c_m eps^m with terminating decimals; in [0, 1) if unit.

    Signs and decimal places follow the slot counter n_slot, not the
    seed, because they set the cost of a line: a second block below zero
    after a first block above it makes render print a long run of 9s, so
    one value in four has it; the seed picks the digits.
    """
    n = 0 if unit else rng.randrange(0, 6)
    r = Fraction(rng.randrange(0, 1000), 10 ** (1 + n_slot % 3))
    if r >= 1:
        r -= int(r)
    value = {(0, 0): n + r} if n + r else {}
    for m in range(1, blocks + 1):
        c = Fraction(rng.randrange(1, 1000), 10 ** ((n_slot + m) % 4))
        negative = n_slot % 2 if m == 1 else n_slot % 4 == 3
        if negative and not (m == 1 and n + r == 0):
            c = -c
        value[(m, 0)] = c
    if not unit and (n_slot // 4) % 4 == 3:
        value = sh.neg(value)
    return value


def _digit(value: dict, block: int, offset: int) -> int:
    """Digit of a value in [0, 1) at place block*H + offset.

    Lower blocks contribute multiples of 10 at this place (H is
    infinite), so the digit is floor(c_block * 10^offset + tail) mod 10,
    with the sign of the first deeper block deciding at integers.
    """
    s = value.get((block, 0), Fraction(0)) * Fraction(10) ** offset
    tail = next((c for (b, _), c in sorted(value.items()) if b > block), 0)
    fl = int(s // 1)
    if fl == s and tail < 0:
        fl -= 1
    return fl % 10


def _poly_text(coeffs, var: str) -> str:
    return _signed_sum(
        (c, "" if k == 0 else (var if k == 1 else f"{var}^{k}"))
        for k, c in enumerate(coeffs) if c
    )


def _make(kind: str, rng: random.Random, slot: int) -> Line:
    """One line of the given kind; slot counts earlier lines of that kind."""
    if kind in ("eval_ls1", "eval_ls2", "lightstone1", "lightstone2"):
        blocks = int(kind[-1])
        value = _grid_value(rng, blocks, False, slot)
        head = ("eval", "--lightstone") if kind.startswith("eval") else ("lightstone",)
        return Line(kind, head + (_text(value),), 0, value, blocks)
    if kind in ("digits1", "digits2"):
        blocks = int(kind[-1])
        value = _grid_value(rng, blocks, True, slot)
        places = [(0, 1), (0, 2), (0, 3), (1, -1), (1, 0), (1, 1), (1, 2)]
        if blocks == 2:
            places += [(2, -1), (2, 0), (2, 1)]
        positions = tuple(str(j) if m == 0 else f"{m}:{j}" for m, j in places)
        expect = [f"{p}: {_digit(value, m, j)}" for p, (m, j) in zip(positions, places)]
        return Line(kind, ("digits", _text(value)) + positions, 0, value, blocks, expect)
    if kind in ("eval", "st", "classify"):
        value = {}
        finite = kind == "st"
        while not value:
            for _ in range(rng.randrange(1, 4)):
                b, a = rng.randrange(-2, 3), rng.randrange(-2, 3)
                if finite and sh.is_infinite((b, a)):
                    b, a = abs(b), -abs(a)
                c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                value = sh.add(value, {(b, a): c} if c else {})
        expect = None
        if kind == "st":
            expect = [str(value.get((0, 0), Fraction(0)))]
        elif kind == "classify":
            _, m = sh.lead(value)
            cls = ("infinite" if sh.is_infinite(m)
                   else "appreciable" if m == (0, 0) else "infinitesimal")
            expect = [f"{cls} (sign {sh.sign(value)})"]
        return Line(kind, (kind, _text(value)), 0, value, expect=expect)
    if kind == "deriv":
        cs = coeffs(rng, 5, rng.randrange(1, 5))
        x0 = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        slope = horner([k * c for k, c in enumerate(cs)][1:], x0)
        return Line(kind, ("deriv", _poly_text(cs, "x"), f"--at={x0}"), 0,
                    expect=[str(slope)])
    if kind == "lim":
        d = rng.randrange(1, 3)
        num, den = coeffs(rng, 5, d), coeffs(rng, 5, d)
        den[-1] = abs(den[-1])
        text = f"({_poly_text(num, 'n')})/({_poly_text(den, 'n')})"
        return Line(kind, ("lim", text), 0, expect=[f"converges to {num[-1] / den[-1]}"])
    if kind == "limfun":
        a = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        g = coeffs(rng, 5, rng.randrange(0, 3))
        num = [Fraction(0)] * (len(g) + 1)
        for k, c in enumerate(g):
            num[k] -= a * c
            num[k + 1] += c
        text = f"({_poly_text(num, 'x')})/(x - ({a}))"
        return Line(kind, ("limfun", text, f"--at={a}"), 0,
                    expect=[f"limit {horner(g, a)}"])
    if kind == "ucheck":
        degree = 1 + slot % 2
        verdict = "pass_all_probes" if degree == 1 else "fail"
        return Line(kind, ("ucheck", _poly_text(coeffs(rng, 5, degree), "x")), 0, expect=verdict)
    if kind == "evt":
        cs = coeffs(rng, 5, rng.randrange(2, 4))
        grid, doublings = 8, 2
        m = grid * 2**doublings
        vals = [horner(cs, Fraction(i, m)) for i in range(m + 1)]
        best = max(range(m + 1), key=lambda i: (vals[i], -i))
        row = f"n = {m:>7}: argmax {Fraction(best, m)} value {vals[best]}"
        return Line(kind, ("evt", _poly_text(cs, "x"), "--grid", str(grid),
                           "--doublings", str(doublings)), 0, expect=row)
    if kind == "newton":
        x0 = rng.choice(("3/10", "1/2", "9/10"))
        extra = ("--check",) if slot % 2 else ()
        return Line(kind, ("newton", "log(x)", "--x0", x0, "--steps", "10") + extra, 0)
    if kind == "microscope":
        name = rng.choice(("triple", "slope"))
        fmt = rng.choice(("svg", "ascii"))
        return Line(kind, ("microscope", "--preset", name, "--format", fmt), 0,
                    expect=GOLDEN_SHA256[(name, fmt)])
    if kind == "refuse":
        q = rng.choice((3, 7, 9))
        argv = rng.choice((("eval", f"floor(H/{q})"), ("st", f"{q}*H + 1"),
                           ("lightstone", f"1/{q} + eps")))
        return Line(kind, argv, 1)
    q = rng.randrange(2, 9)
    argv = rng.choice((("eval", f"{q} +"), ("deriv", f"x^{q}", "--at", "1 - eps"),
                       ("st", f"({q}")))
    return Line(kind, argv, 2)


def make_inputs(seed: int, count: int) -> list[Line]:
    rng = random.Random(seed)
    lines = []
    order = list(PLAN)
    seen = Counter()
    while len(lines) < count:
        rng.shuffle(order)
        for kind in order:
            lines.append(_make(kind, rng, seen[kind]))
            seen[kind] += 1
    return lines[:count]


def run_op(line: Line):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = CLI.run_cli(list(line.argv))
    return code, out.getvalue(), err.getvalue()


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------

def _reparse(text: str) -> dict:
    return sh.from_hyper(E.eval_command(E.parse_command(text), CTX).terms)


def _check_render(line: Line, text: str) -> str:
    if line.blocks == 1:
        got = sh.from_hyper(L.parse(CTX, text).terms)
        return "" if got == line.value else f"lightstone {text!r} parses back to {got}"
    # two blocks: parse refuses them, so check the standard prefix digits
    v = line.value if sh.sign(line.value) >= 0 else sh.neg(line.value)
    st = v.get((0, 0), Fraction(0))
    whole = int(st // 1)
    if whole == st and sh.sign(sh.sub(v, sh.const(st))) < 0:
        whole -= 1
    y = sh.sub(v, sh.const(whole))
    head = text.split(";")[0]
    shown = head.split(".", 1)[1].rstrip("…") if "." in head else ""
    want = "".join(str(_digit(y, 0, j)) for j in range(1, len(shown) + 1))
    return "" if shown == want else f"lightstone prefix {shown!r}, expected {want!r}"


_NEWTON_ROW = re.compile(r"^\s*\d+\s+(\d\.\d{6})$")


def check(line: Line, ans) -> Verdict:
    code, out, err = ans
    if code != line.code:
        return fail(f"{' '.join(line.argv)}: exit {code}, expected {line.code}: {err.strip()}")
    if code != 0:
        if out:
            return fail(f"{' '.join(line.argv)}: output on a failed line")
        return PASS
    rows = out.splitlines()
    kind = line.kind
    note = ""
    if kind.startswith("eval_ls"):
        if _reparse(rows[0]) != line.value:
            note = f"printed value {rows[0]!r} does not re-parse to the input"
        else:
            note = _check_render(line, rows[1])
        want = {1: "Greater", -1: "Less", 0: "Equal"}[sh.sign(sh.sub(line.value, sh.const(1)))]
        if not note and rows[2] != f"compare to 1: {want}":
            note = f"{rows[2]!r}, expected compare to 1: {want}"
    elif kind.startswith("lightstone"):
        note = _check_render(line, rows[0])
    elif kind == "eval":
        if _reparse(rows[0]) != line.value:
            note = f"printed value {rows[0]!r} does not re-parse to the input"
    elif kind in ("digits1", "digits2", "st", "classify", "deriv", "lim", "limfun"):
        if rows != line.expect:
            note = f"output {rows}, expected {line.expect}"
    elif kind == "ucheck":
        if rows[0] != line.expect:
            note = f"verdict {rows[0]}, expected {line.expect}"
    elif kind == "evt":
        if line.expect not in rows:
            note = f"final grid row missing: {line.expect}"
    elif kind == "newton":
        shown = [m.group(1) for m in map(_NEWTON_ROW.match, rows) if m]
        if ("1.000000" in shown or shown != sorted(shown)
                or "final display: 0.999999" not in rows):
            note = f"newton display {shown}"
    elif kind == "microscope":
        if hashlib.sha256(out.encode("utf-8")).hexdigest() != line.expect:
            note = "figure differs from the golden"
    return fail(f"{' '.join(line.argv)}: {note}") if note else PASS


def shape(lines: list[Line]) -> dict:
    return {
        "lines": len(lines),
        "by_kind": dict(Counter(line.kind for line in lines)),
        "by_subcommand": dict(Counter(line.argv[0] for line in lines)),
        "expected_exit": {str(k): n for k, n in Counter(line.code for line in lines).items()},
        "lightstone_blocks": dict(Counter(line.blocks for line in lines if line.blocks)),
    }
