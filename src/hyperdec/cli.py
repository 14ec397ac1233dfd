"""Command-line front end.

One subcommand per library operation.  Exit codes: 0 on success, 1
when the math refuses (undecidable floor, non-finite standard part,
and the rest of the domain errors), 2 on usage or syntax problems.
--json switches every subcommand to a stable envelope:
{"ok": bool, "value": ..., "lightstone": ..., "flags": {"truncated": bool}}.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from .errors import HyperError, ParseError, ResourceLimit
from .expr import eval_command, parse_command, parse_expr, to_function
from .hyperfield import NumContext, format_coeff, format_value
from .hypercalc import _check_trace, newton_trace
from .lightstone import digits_at, render
from .microscope import MicroscopeScene, microscope, preset_scene
from .transfer import (
    _TOO_DEEP,
    derivative,
    evt_demo,
    limit_fun,
    limit_seq,
    uniform_continuity_probe,
)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _position(text: str):
    try:
        if ":" in text:
            block, offset = text.split(":", 1)
            return (int(block), int(offset))
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"positions look like '3' or 'block:offset', got {text!r}"
        ) from exc


def _standard_point(src: str, ctx: NumContext):
    value = eval_command(parse_command(src), ctx)
    if not all(pair.b == 0 and pair.a == 0 for _, pair in value.terms):
        raise ParseError(f"{src!r} is not a standard point")
    return value.standard_part() if value.terms else Fraction(0)


class _Result:
    """Lines for the terminal plus a payload for --json."""

    def __init__(self, value=None, lightstone=None, truncated=False, lines=()):
        self.value = value
        self.lightstone = lightstone
        self.truncated = truncated
        self.lines = list(lines)


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def _cmd_eval(args, ctx: NumContext) -> _Result:
    v = eval_command(parse_command(args.expr), ctx)
    lines = [format_value(v)]
    rendered = None
    if args.lightstone:
        rendered = render(v, window=args.window)
        lines.append(rendered)
        lines.append(f"compare to 1: {v.compare(1).name.capitalize()}")
    return _Result(
        value=format_value(v),
        lightstone=rendered,
        truncated=v.truncated,
        lines=lines,
    )


def _cmd_st(args, ctx: NumContext) -> _Result:
    v = eval_command(parse_command(args.expr), ctx)
    s = format_coeff(v.standard_part())
    return _Result(value=s, truncated=v.truncated, lines=[s])


def _cmd_classify(args, ctx: NumContext) -> _Result:
    v = eval_command(parse_command(args.expr), ctx)
    kind, sign = v.classify()
    text = f"{kind.value} (sign {sign})"
    return _Result(
        value={"class": kind.value, "sign": sign},
        truncated=v.truncated,
        lines=[text],
    )


def _cmd_lightstone(args, ctx: NumContext) -> _Result:
    v = eval_command(parse_command(args.expr), ctx)
    text = render(v, window=args.window)
    return _Result(
        value=text, lightstone=text, truncated=v.truncated, lines=[text]
    )


def _cmd_digits(args, ctx: NumContext) -> _Result:
    v = eval_command(parse_command(args.expr), ctx)
    rows = {}
    lines = []
    for pos, d in zip(args.positions, digits_at(v, args.positions)):
        key = f"{pos[0]}:{pos[1]}" if isinstance(pos, tuple) else str(pos)
        rows[key] = d
        lines.append(f"{key}: {d}")
    return _Result(value=rows, truncated=v.truncated, lines=lines)


def _cmd_deriv(args, ctx: NumContext) -> _Result:
    f = to_function(parse_expr(args.expr), args.var)
    point = _standard_point(args.at, ctx)
    text = format_coeff(derivative(f, point, ctx))
    return _Result(value=text, lines=[text])


def _cmd_lim(args, ctx: NumContext) -> _Result:
    f = to_function(parse_expr(args.expr), args.var)
    r = limit_seq(f, ctx)
    payload = {"outcome": r.outcome}
    if r.outcome == "converges":
        payload["value"] = format_coeff(r.value)
        line = f"converges to {payload['value']}"
        if r.cross_check_agrees is False:
            line += " (cross-check at a second infinite index disagrees)"
    elif r.outcome == "diverges":
        payload["sign"] = r.sign
        line = f"diverges to {'+' if r.sign > 0 else '-'}infinity"
    else:
        payload["note"] = r.note
        line = f"indeterminate: {r.note}"
    return _Result(value=payload, lines=[line])


def _cmd_limfun(args, ctx: NumContext) -> _Result:
    f = to_function(parse_expr(args.expr), args.var)
    point = _standard_point(args.at, ctx)
    r = limit_fun(f, point, ctx)
    if r.outcome == "limit":
        text = format_coeff(r.value)
        return _Result(
            value={"outcome": "limit", "value": text},
            lines=[f"limit {text}"],
        )
    if r.outcome == "indeterminate":
        note, = r.witnesses
        return _Result(
            value={"outcome": r.outcome, "note": note},
            lines=[f"indeterminate: {note}"],
        )
    return _Result(
        value={"outcome": r.outcome},
        lines=["no limit: approach values disagree or are unbounded"],
    )


def _cmd_ucheck(args, ctx: NumContext) -> _Result:
    f = to_function(parse_expr(args.expr), args.var)
    r = uniform_continuity_probe(f, ctx)
    payload = {"verdict": r.verdict, "note": r.note}
    lines = [r.verdict]
    if r.verdict == "fail":
        payload["witness_x"] = format_value(r.witness_x)
        payload["witness_y"] = format_value(r.witness_y)
        gap_st = None if r.gap_standard is None else format_coeff(r.gap_standard)
        payload["gap_standard"] = gap_st
        lines.append(
            f"witness: x = {payload['witness_x']},"
            f" y = {payload['witness_y']}"
        )
        gap = "infinite" if gap_st is None else f"st {gap_st}"
        lines.append(f"value gap: {format_value(r.gap)} ({gap})")
    else:
        lines.append(r.note)
    return _Result(value=payload, lines=lines)


def _cmd_evt(args, ctx: NumContext) -> _Result:
    f = to_function(parse_expr(args.expr), args.var)
    r = evt_demo(f, ctx, n=args.grid, doublings=args.doublings)
    lines = []
    rows = []
    for row in r.rows:
        argmax, value = format_coeff(row.argmax), format_coeff(row.value)
        lines.append(f"n = {row.n:>7}: argmax {argmax} value {value}")
        rows.append({"n": row.n, "argmax": argmax, "value": value})
    lines.append(
        "argmax stabilized" if r.stabilized() else "argmax still moving"
    )
    return _Result(
        value={"rows": rows, "stabilized": r.stabilized()}, lines=lines
    )


def _cmd_newton(args, ctx: NumContext) -> _Result:
    f = to_function(parse_expr(args.expr), args.var)
    trace = newton_trace(
        f, args.x0, args.steps,
        precision=args.prec, display_digits=args.display,
    )
    lines = [
        f"{n:2d}  {text}" for n, text in enumerate(trace.displays)
    ]
    if trace.halt_reason:
        lines.append(f"halt: {trace.halt_reason}")
    lines.append(f"final display: {trace.displays[-1]}")
    payload = {
        "displays": list(trace.displays),
        "iterates": [str(x) for x in trace.iterates],
        "mode": trace.mode,
        "halt": trace.halt_reason,
        "all_nines_from": trace.all_nines_from,
    }
    if args.check:
        report = _check_trace(trace)
        payload["check"] = report.to_json()
        for row in report.rows:
            lines.append(
                f"check n={row.n}: 1-x = {row.margin_lt1}"
                + (
                    f", step = {row.margin_monotone}, headroom = {row.mvt_margin}"
                    if row.margin_monotone is not None
                    else ""
                )
            )
        if report.boundary:
            lines.append(
                "boundary cases: "
                + ", ".join(f"{name}@{n}" for n, name in report.boundary)
            )
    return _Result(value=payload, lines=lines)


def _cmd_microscope(args, ctx: NumContext) -> _Result:
    if args.preset:
        scene = preset_scene(args.preset, ctx, fmt=args.format)
    else:
        if args.center is None or args.scale is None or not args.point:
            raise ParseError(
                "either --preset or all of --center/--scale/--point are needed"
            )
        points = []
        for spec_text in args.point:
            label, _, src = spec_text.partition("=")
            if not src:
                raise ParseError(f"--point wants label=expr, got {spec_text!r}")
            points.append(
                (label.strip(), eval_command(parse_command(src), ctx))
            )
        scene = MicroscopeScene(
            center=eval_command(parse_command(args.center), ctx),
            scale=eval_command(parse_command(args.scale), ctx),
            points=tuple(points),
            fmt=args.format,
        )
    doc = microscope(scene)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc)
        return _Result(value=args.out, lines=[f"wrote {args.out}"])
    # the document is the output; no trailing newline added later
    return _Result(value=doc, lines=[doc.rstrip("\n")])


def _cmd_repl(args, ctx: NumContext) -> _Result:
    lines_out = []
    prompt = "hyperdec> "
    while True:
        try:
            line = input(prompt)
        except EOFError:
            break
        line = line.strip()
        if not line:
            continue
        if line in (":q", ":quit", "exit"):
            break
        try:
            v = eval_command(parse_command(line), ctx)
            text = format_value(v)
            if v.truncated:
                text += "  [truncated]"
            print(text)
        except HyperError as exc:
            print(f"error: {exc}", file=sys.stderr)
        except RecursionError:
            print(f"error: {_TOO_DEEP}", file=sys.stderr)
    return _Result(value=None, lines=[])


# --------------------------------------------------------------------------
# parser wiring
# --------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on first use and shared by later calls.

    parse_args keeps its results in a fresh Namespace per call, so one
    tree serves any number of command lines.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--mode", choices=("exact", "float"), default="exact",
        help="coefficient arithmetic (default: exact rationals)",
    )
    common.add_argument(
        "--prec", type=int, default=50,
        help="decimal digits in float mode (default 50)",
    )
    common.add_argument(
        "--terms", type=int, default=16,
        help="series length bound (default 16)",
    )
    common.add_argument(
        "--json", action="store_true", help="emit a JSON result envelope"
    )

    parser = argparse.ArgumentParser(
        prog="hyperdec",
        description="hyperreal arithmetic, non-standard calculus, and"
        " extended decimal expansions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate an expression")
    p.add_argument("expr")
    p.add_argument("--lightstone", action="store_true",
                   help="also print the extended decimal and a comparison to 1")
    p.add_argument("--window", type=int, default=3)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("st", parents=[common], help="standard part")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_st)

    p = sub.add_parser("classify", parents=[common],
                       help="infinitesimal, appreciable, or infinite")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("lightstone", parents=[common],
                       help="extended decimal rendering")
    p.add_argument("expr")
    p.add_argument("--window", type=int, default=3)
    p.set_defaults(handler=_cmd_lightstone)

    p = sub.add_parser("digits", parents=[common],
                       help="digits at standard or block places")
    p.add_argument("expr")
    p.add_argument("positions", nargs="+", type=_position,
                   metavar="POS", help="'3' or 'block:offset' like '1:0'")
    p.set_defaults(handler=_cmd_digits)

    p = sub.add_parser("deriv", parents=[common],
                       help="slope at a point: st of the quotient at an infinitesimal offset")
    p.add_argument("expr")
    p.add_argument("--at", required=True, help="expansion point")
    p.add_argument("--var", default="x")
    p.set_defaults(handler=_cmd_deriv)

    p = sub.add_parser("lim", parents=[common],
                       help="sequence limit read off at an infinite index")
    p.add_argument("expr")
    p.add_argument("--var", default="n")
    p.set_defaults(handler=_cmd_lim)

    p = sub.add_parser("limfun", parents=[common],
                       help="two-sided function limit at a point")
    p.add_argument("expr")
    p.add_argument("--at", required=True)
    p.add_argument("--var", default="x")
    p.set_defaults(handler=_cmd_limfun)

    p = sub.add_parser("ucheck", parents=[common],
                       help="uniform continuity probe")
    p.add_argument("expr")
    p.add_argument("--var", default="x")
    p.set_defaults(handler=_cmd_ucheck)

    p = sub.add_parser("evt", parents=[common],
                       help="grid maximum with doubling resolution")
    p.add_argument("expr")
    p.add_argument("--var", default="x")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--doublings", type=int, default=3)
    p.set_defaults(handler=_cmd_evt)

    p = sub.add_parser("newton", parents=[common],
                       help="climbing Newton iteration with truncating display")
    p.add_argument("expr")
    p.add_argument("--x0", required=True, type=_rational)
    p.add_argument("--steps", required=True, type=int)
    p.add_argument("--display", type=int, default=6)
    p.add_argument("--var", default="x")
    p.add_argument("--check", action="store_true",
                   help="verify the per-step invariants")
    p.set_defaults(handler=_cmd_newton)

    p = sub.add_parser("microscope", parents=[common],
                       help="number line at infinitesimal magnification")
    p.add_argument("--preset", choices=("triple", "slope"))
    p.add_argument("--center")
    p.add_argument("--scale")
    p.add_argument("--point", action="append",
                   help="label=expr (repeatable)")
    p.add_argument("--format", choices=("svg", "ascii"), default="svg")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(handler=_cmd_microscope)

    p = sub.add_parser("repl", parents=[common], help="interactive loop")
    p.set_defaults(handler=_cmd_repl)

    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # NumContext refuses an out-of-range --prec or --terms with ValueError
        ctx = NumContext(mode=args.mode, prec=args.prec, max_terms=args.terms)
        result = args.handler(args, ctx)
    except ParseError as exc:
        return _fail(args, exc, 2)
    except HyperError as exc:
        return _fail(args, exc, 1)
    except RecursionError:  # parsing and to_function recurse outside any fold
        return _fail(args, ResourceLimit(_TOO_DEEP), 1)
    except ValueError as exc:
        return _fail(args, exc, 2)
    if args.json:
        print(json.dumps({
            "ok": True,
            "value": result.value,
            "lightstone": result.lightstone,
            "flags": {"truncated": result.truncated},
        }, ensure_ascii=False))
    else:
        for line in result.lines:
            print(line)
    return 0


def _fail(args, exc: Exception, code: int) -> int:
    if getattr(args, "json", False):
        print(json.dumps({
            "ok": False,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }, ensure_ascii=False))
    else:
        print(f"error: {exc}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
