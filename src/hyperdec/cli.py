"""Command-line front end.

One subcommand per library operation, all run by one runner.  A
subcommand that takes an expression declares how its text is read: as a
value (eval, st, classify, lightstone, digits) or as a checked function
of --var (deriv, lim, limfun, ucheck, evt, newton).  The runner reads it
and hands the value or the function to the subcommand's handler, which
parses nothing itself.

Exit codes: 0 on success, 1 when the math refuses (undecidable floor,
non-finite standard part, and the rest of the domain errors), 2 on usage
or syntax problems.  run_cli and the repl share one refusal map: a
ParseError or a ValueError exits 2, any other HyperError 1.  The library
refuses a tree nested too deeply with ResourceLimit itself, so the map
sees no other error.  --json switches every subcommand, and each repl
line, to a stable envelope, written by one writer:
{"ok": bool, "value": ..., "lightstone": ..., "flags": {"truncated": bool}}.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Any, NamedTuple, Optional, Sequence

from .errors import HyperError, ParseError
from .expr import eval_command, parse_command, parse_expr, to_function
from .hyperfield import NumContext, format_coeff, format_value
from .hypercalc import _check_trace, newton_trace
from .lightstone import digits_at, render
from .microscope import MicroscopeScene, microscope, preset_scene
from .transfer import derivative, evt_demo, limit_fun, limit_seq, uniform_continuity_probe


# exp of a three-term increment at 256 terms and exp(1) at 5000 digits each
# take under a second from a cold start; the cost grows at least as the square
_MAX_TERMS = 256
_MAX_PREC = 5000


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


def _value(src: str, ctx: NumContext):
    return eval_command(parse_command(src), ctx)


def _read_value(args, ctx: NumContext):
    return _value(args.expr, ctx)


def _read_function(args, ctx: NumContext):
    return to_function(parse_expr(args.expr), args.var)


def _standard_point(src: str, ctx: NumContext):
    value = _value(src, ctx)
    if not (value.is_finite and value.infinitesimal_part().is_zero):
        raise ParseError(f"{src!r} is not a standard point")
    return value.standard_part()


class _Result(NamedTuple):
    """Lines for the terminal plus a payload for --json."""

    value: Any = None
    lightstone: Optional[str] = None
    truncated: bool = False
    lines: Sequence[str] = ()


# --------------------------------------------------------------------------
# subcommand handlers: each gets the expression read as its subcommand
# declares (None when it takes none), the arguments and the context
# --------------------------------------------------------------------------

def _cmd_eval(v, args, ctx: NumContext) -> _Result:
    text = format_value(v)
    if not args.lightstone:
        return _Result(value=text, truncated=v.truncated, lines=[text])
    rendered = render(v, window=args.window)
    compared = f"compare to 1: {v.compare(1).name.capitalize()}"
    return _Result(
        value=text,
        lightstone=rendered,
        truncated=v.truncated,
        lines=[text, rendered, compared],
    )


def _cmd_st(v, args, ctx: NumContext) -> _Result:
    s = format_coeff(v.standard_part())
    return _Result(value=s, truncated=v.truncated, lines=[s])


def _cmd_classify(v, args, ctx: NumContext) -> _Result:
    kind, sign = v.classify()
    text = f"{kind.value} (sign {sign})"
    return _Result(
        value={"class": kind.value, "sign": sign},
        truncated=v.truncated,
        lines=[text],
    )


def _cmd_lightstone(v, args, ctx: NumContext) -> _Result:
    text = render(v, window=args.window)
    return _Result(
        value=text, lightstone=text, truncated=v.truncated, lines=[text]
    )


def _cmd_digits(v, args, ctx: NumContext) -> _Result:
    digits = digits_at(v, args.positions)
    keys = [f"{p[0]}:{p[1]}" if isinstance(p, tuple) else str(p) for p in args.positions]
    return _Result(
        value=dict(zip(keys, digits)),
        truncated=v.truncated,
        lines=[f"{key}: {d}" for key, d in zip(keys, digits)],
    )


def _cmd_deriv(f, args, ctx: NumContext) -> _Result:
    point = _standard_point(args.at, ctx)
    text = format_coeff(derivative(f, point, ctx))
    return _Result(value=text, lines=[text])


def _cmd_lim(f, args, ctx: NumContext) -> _Result:
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


def _cmd_limfun(f, args, ctx: NumContext) -> _Result:
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


def _cmd_ucheck(f, args, ctx: NumContext) -> _Result:
    r = uniform_continuity_probe(f, ctx)
    payload = {"verdict": r.verdict, "note": r.note}
    if r.verdict != "fail":
        return _Result(value=payload, lines=[r.verdict, r.note])
    x, y = format_value(r.witness_x), format_value(r.witness_y)
    gap_st = None if r.gap_standard is None else format_coeff(r.gap_standard)
    payload.update(witness_x=x, witness_y=y, gap_standard=gap_st)
    gap = "infinite" if gap_st is None else f"st {gap_st}"
    return _Result(value=payload, lines=[
        r.verdict,
        f"witness: x = {x}, y = {y}",
        f"value gap: {format_value(r.gap)} ({gap})",
    ])


def _cmd_evt(f, args, ctx: NumContext) -> _Result:
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


def _cmd_newton(f, args, ctx: NumContext) -> _Result:
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
            line = f"check n={row.n}: 1-x = {row.margin_lt1}"
            if row.margin_monotone is not None:
                line += f", step = {row.margin_monotone}, headroom = {row.mvt_margin}"
            lines.append(line)
        if report.boundary:
            lines.append(
                "boundary cases: "
                + ", ".join(f"{name}@{n}" for n, name in report.boundary)
            )
    return _Result(value=payload, lines=lines)


def _cmd_microscope(_, args, ctx: NumContext) -> _Result:
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
            points.append((label.strip(), _value(src, ctx)))
        scene = MicroscopeScene(
            center=_value(args.center, ctx),
            scale=_value(args.scale, ctx),
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


def _cmd_repl(_, args, ctx: NumContext) -> _Result:
    """Evaluate line after line; each answer or refusal is printed as
    eval prints it, in text or --json, and the loop goes on.  In text a
    truncated value is marked."""
    while True:
        try:
            line = input("hyperdec> ").strip()
        except EOFError:
            break
        if line in (":q", ":quit", "exit"):
            break
        if line:
            code, result = _attempt(args.json, _repl_line, line, ctx)
            if code == 0:
                _show(args.json, result)
    return _Result()


def _repl_line(src: str, ctx: NumContext) -> _Result:
    v = _value(src, ctx)
    text = format_value(v)
    marked = text + ("  [truncated]" if v.truncated else "")
    return _Result(value=text, truncated=v.truncated, lines=[marked])


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
        help=f"decimal digits in float mode (default 50, at most {_MAX_PREC})",
    )
    common.add_argument(
        "--terms", type=int, default=16, dest="max_terms", metavar="TERMS",
        help=f"series length bound (default 16, at most {_MAX_TERMS})",
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

    def command(name, help, handler, read=None):
        """Register a subcommand; read, _read_value or _read_function,
        gives it an expr positional and says how the runner reads it."""
        p = sub.add_parser(name, parents=[common], help=help)
        if read is not None:
            p.add_argument("expr")
        p.set_defaults(handler=handler, read=read)
        return p

    p = command("eval", "evaluate an expression", _cmd_eval, _read_value)
    p.add_argument("--lightstone", action="store_true",
                   help="also print the extended decimal and a comparison to 1")
    p.add_argument("--window", type=int, default=3)

    command("st", "standard part", _cmd_st, _read_value)

    command("classify", "infinitesimal, appreciable, or infinite",
            _cmd_classify, _read_value)

    p = command("lightstone", "extended decimal rendering",
                _cmd_lightstone, _read_value)
    p.add_argument("--window", type=int, default=3)

    p = command("digits", "digits at standard or block places",
                _cmd_digits, _read_value)
    p.add_argument("positions", nargs="+", type=_position,
                   metavar="POS", help="'3' or 'block:offset' like '1:0'")

    p = command("deriv",
                "slope at a point: st of the quotient at an infinitesimal offset",
                _cmd_deriv, _read_function)
    p.add_argument("--at", required=True, help="expansion point")
    p.add_argument("--var", default="x")

    p = command("lim", "sequence limit read off at an infinite index",
                _cmd_lim, _read_function)
    p.add_argument("--var", default="n")

    p = command("limfun", "two-sided function limit at a point",
                _cmd_limfun, _read_function)
    p.add_argument("--at", required=True)
    p.add_argument("--var", default="x")

    p = command("ucheck", "uniform continuity probe", _cmd_ucheck, _read_function)
    p.add_argument("--var", default="x")

    p = command("evt", "grid maximum with doubling resolution",
                _cmd_evt, _read_function)
    p.add_argument("--var", default="x")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--doublings", type=int, default=3)

    p = command("newton", "climbing Newton iteration with truncating display",
                _cmd_newton, _read_function)
    p.add_argument("--x0", required=True, type=_rational)
    p.add_argument("--steps", required=True, type=int)
    p.add_argument("--display", type=int, default=6)
    p.add_argument("--var", default="x")
    p.add_argument("--check", action="store_true",
                   help="verify the per-step invariants")

    p = command("microscope", "number line at infinitesimal magnification",
                _cmd_microscope)
    p.add_argument("--preset", choices=("triple", "slope"))
    p.add_argument("--center")
    p.add_argument("--scale")
    p.add_argument("--point", action="append",
                   help="label=expr (repeatable)")
    p.add_argument("--format", choices=("svg", "ascii"), default="svg")
    p.add_argument("--out", help="write to a file instead of stdout")

    command("repl", "interactive loop", _cmd_repl)

    return parser


def run_cli(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    code, result = _attempt(args.json, _run, args)
    if code == 0:
        _show(args.json, result)
    return code


def _run(args) -> _Result:
    # NumContext refuses a --prec or --terms below range with ValueError
    if args.max_terms > _MAX_TERMS:
        raise ValueError(f"term budget must be at most {_MAX_TERMS}")
    if args.prec > _MAX_PREC:
        raise ValueError(f"precision must be at most {_MAX_PREC} digits")
    ctx = NumContext(mode=args.mode, prec=args.prec, max_terms=args.max_terms)
    subject = args.read(args, ctx) if args.read else None
    return args.handler(subject, args, ctx)


def _attempt(json_out: bool, call, *call_args):
    """(0, call(*call_args)), or (exit code, None) with the refusal written
    out: a ParseError or a ValueError exits 2, any other HyperError 1."""
    try:
        return 0, call(*call_args)
    except (HyperError, ValueError) as exc:
        if json_out:
            _envelope(False, error={"type": type(exc).__name__, "message": str(exc)})
        else:
            print(f"error: {exc}", file=sys.stderr)
        return (2 if isinstance(exc, (ParseError, ValueError)) else 1), None


def _show(json_out: bool, result: _Result) -> None:
    if json_out:
        _envelope(True, value=result.value, lightstone=result.lightstone,
                  flags={"truncated": result.truncated})
    else:
        for line in result.lines:
            print(line)


def _envelope(ok: bool, **fields) -> None:
    print(json.dumps({"ok": ok, **fields}, ensure_ascii=False))


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
