"""Expression language over hyperreal values.

Tokenizer, recursive-descent parser, canonical printer, evaluator, and
the bridge that turns a one-variable expression into a function tree
for the calculus routines.

Precedence, loosest to tightest: + -, * /, unary minus, ^ (right
associative; the exponent position accepts a sign, so 2^-3 parses and
-2^2 is -(2^2)).  A trailing "at name = expr" clause binds a free
variable for a single evaluation.

Node spans are character ranges into the source, carried for error
messages and excluded from equality so that reparsing a printed tree
reproduces the tree exactly.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import transfer
from .errors import (
    DomainError,
    ExactTranscendental,
    ParseError,
    UnknownIdentifier,
)
from .hyperfield import HyperValue, NumContext, _ten_power, nines, nines_hyper
from .transfer import FuncExpr, eval_star, limit_seq

# --------------------------------------------------------------------------
# tokens
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+(?:\.\d*)?|\.\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<arrow>->)
  | (?P<op>[-+*/^(),=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str      # num | name | arrow | op | end
    text: str
    pos: int


def _tokenize(src: str) -> list:
    out = []
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise ParseError(f"unexpected character {src[i]!r}", (i, i + 1))
        if m.lastgroup != "ws":
            out.append(Token(m.lastgroup, m.group(), i))
        i = m.end()
    out.append(Token("end", "", len(src)))
    return out


# --------------------------------------------------------------------------
# syntax trees
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Node:
    span: tuple = field(compare=False, default=(0, 0), kw_only=True)


@dataclass(frozen=True)
class Num(Node):
    value: Fraction


@dataclass(frozen=True)
class Name(Node):
    ident: str


@dataclass(frozen=True)
class Neg(Node):
    operand: Node


@dataclass(frozen=True)
class Bin(Node):
    op: str        # one of + - * / ^
    left: Node
    right: Node


@dataclass(frozen=True)
class Call(Node):
    func: str
    args: tuple


@dataclass(frozen=True)
class LimSeq(Node):
    var: str
    body: Node


@dataclass(frozen=True)
class Command:
    expr: Node
    binding: Optional[tuple] = None    # (name, Node)


_KEYWORDS = {"at", "lim", "inf"}


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(
                f"expected {want!r}, found {tok.text or 'end of input'!r}",
                (tok.pos, tok.pos + max(1, len(tok.text))),
            )
        return self.take()

    # ---- grammar -----------------------------------------------------

    def command(self) -> Command:
        expr = self.additive()
        binding = None
        if self.peek().kind == "name" and self.peek().text == "at":
            self.take()
            name = self.expect("name")
            if name.text in _KEYWORDS:
                raise ParseError(
                    f"{name.text!r} is reserved", (name.pos, name.pos + len(name.text))
                )
            self.expect("op", "=")
            binding = (name.text, self.additive())
        end = self.peek()
        if end.kind != "end":
            raise ParseError(
                f"unexpected {end.text!r}", (end.pos, end.pos + len(end.text))
            )
        return Command(expr=expr, binding=binding)

    def additive(self) -> Node:
        node = self.multiplicative()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take()
            right = self.multiplicative()
            node = Bin(op.text, node, right, span=(node.span[0], right.span[1]))
        return node

    def multiplicative(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take()
            right = self.unary()
            node = Bin(op.text, node, right, span=(node.span[0], right.span[1]))
        return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.take()
            inner = self.unary()
            return Neg(inner, span=(tok.pos, inner.span[1]))
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            exponent = self.unary()    # signed, and right associative
            return Bin("^", base, exponent, span=(base.span[0], exponent.span[1]))
        return base

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return Num(Fraction(tok.text), span=(tok.pos, tok.pos + len(tok.text)))
        if tok.kind == "name":
            if tok.text == "lim":
                return self.limit()
            if tok.text in _KEYWORDS:
                raise ParseError(
                    f"{tok.text!r} cannot start an expression",
                    (tok.pos, tok.pos + len(tok.text)),
                )
            self.take()
            if self.peek().kind == "op" and self.peek().text == "(":
                return self.call(tok)
            return Name(tok.text, span=(tok.pos, tok.pos + len(tok.text)))
        if tok.kind == "op" and tok.text == "(":
            self.take()
            node = self.additive()
            closing = self.expect("op", ")")
            return type(node)(
                **{
                    f.name: getattr(node, f.name)
                    for f in node.__dataclass_fields__.values()
                    if f.name != "span"
                },
                span=(tok.pos, closing.pos + 1),
            )
        raise ParseError(
            f"expected a value, found {tok.text or 'end of input'!r}",
            (tok.pos, tok.pos + max(1, len(tok.text))),
        )

    def call(self, name_tok: Token) -> Node:
        self.expect("op", "(")
        args = [self.additive()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.take()
            args.append(self.additive())
        closing = self.expect("op", ")")
        return Call(
            name_tok.text,
            tuple(args),
            span=(name_tok.pos, closing.pos + 1),
        )

    def limit(self) -> Node:
        lim_tok = self.expect("name", "lim")
        self.expect("op", "(")
        var = self.expect("name")
        if var.text in _KEYWORDS:
            raise ParseError(
                f"{var.text!r} cannot name the limit variable",
                (var.pos, var.pos + len(var.text)),
            )
        self.expect("arrow")
        self.expect("name", "inf")
        self.expect("op", ",")
        body = self.additive()
        closing = self.expect("op", ")")
        return LimSeq(var.text, body, span=(lim_tok.pos, closing.pos + 1))


def parse_command(src: str) -> Command:
    return _Parser(src).command()


def parse_expr(src: str) -> Node:
    cmd = parse_command(src)
    if cmd.binding is not None:
        raise ParseError("unexpected 'at' binding here")
    return cmd.expr


# --------------------------------------------------------------------------
# printing
# --------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node: Node) -> int:
    if isinstance(node, Bin):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC["atom"]


def _fraction_text(v: Fraction) -> str:
    """Decimal form when the denominator is 10-smooth (reparses to this
    same Num node); otherwise an explicit parenthesized quotient."""
    if v.denominator == 1:
        return str(v.numerator)
    u = _ten_power(v.denominator)
    if u is not None:
        scaled = v.numerator * 10**u // v.denominator
        text = f"{abs(scaled):0{u + 1}d}"
        out = f"{text[:-u]}.{text[-u:]}"
        return out if scaled >= 0 else f"-({out})"
    return f"({v.numerator}/{v.denominator})"


def print_expr(node: Node) -> str:
    if isinstance(node, Num):
        return _fraction_text(node.value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Neg):
        inner = print_expr(node.operand)
        if _prec(node.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Bin):
        mine = _PREC[node.op]
        left = print_expr(node.left)
        right = print_expr(node.right)
        if node.op == "^":
            if _prec(node.left) <= mine:
                left = f"({left})"
            if _prec(node.right) < _PREC["neg"]:
                right = f"({right})"
        else:
            if _prec(node.left) < mine:
                left = f"({left})"
            if _prec(node.right) <= mine:
                right = f"({right})"
        return f"{left} {node.op} {right}" if node.op != "^" else f"{left}^{right}"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(print_expr(a) for a in node.args)})"
    if isinstance(node, LimSeq):
        return f"lim({node.var} -> inf, {print_expr(node.body)})"
    raise TypeError(f"cannot print {type(node).__name__}")


def print_command(cmd: Command) -> str:
    text = print_expr(cmd.expr)
    if cmd.binding is not None:
        name, value = cmd.binding
        text += f" at {name} = {print_expr(value)}"
    return text


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

_ELEMENTARY_NODES = {name: node for node, name in transfer._ELEMENTARY.items()}

_NAMED_CONSTANTS = ("pi", "e")


def _arity(node: Call, n: int):
    if len(node.args) != n:
        raise ParseError(
            f"{node.func} takes {n} argument{'s' if n != 1 else ''},"
            f" got {len(node.args)}",
            node.span,
        )


def _integer_exponent(v: HyperValue, span) -> int:
    if not all(pair.b == 0 and pair.a == 0 for _, pair in v.terms):
        raise DomainError(
            "exponents must be standard integers unless the base is 10"
        )
    s = v.standard_part() if v.terms else 0
    k = Fraction(s)
    if k.denominator != 1:
        raise DomainError(
            "exponents must be standard integers unless the base is 10"
        )
    return int(k)


def evaluate(node: Node, ctx: NumContext, env: Optional[dict] = None) -> HyperValue:
    """Reduce a syntax tree to a hyperreal value.

    Free names resolve through env after the built-ins H (the infinite
    unit) and eps (its reciprocal power of ten).  pi and e are available
    in float mode only; a 10^w head applies the full power-of-ten rule
    for hyper exponents w.
    """
    bindings = env or {}

    def run(n: Node) -> HyperValue:
        if isinstance(n, Num):
            return ctx.constant(n.value)
        if isinstance(n, Name):
            if n.ident in bindings:
                v = bindings[n.ident]
                return v if isinstance(v, HyperValue) else ctx.constant(v)
            if n.ident == "H":
                return ctx.omega()
            if n.ident == "eps":
                return ctx.tau()
            if n.ident in _NAMED_CONSTANTS:
                if ctx.mode == "exact":
                    raise ExactTranscendental(
                        f"{n.ident} has no exact rational value; use --mode float"
                    )
                return ctx.constant(transfer._named_decimal(n.ident))
            raise UnknownIdentifier(f"unknown name {n.ident!r}", n.span)
        if isinstance(n, Neg):
            return -run(n.operand)
        if isinstance(n, Bin):
            if n.op == "^":
                if isinstance(n.left, Num) and n.left.value == 10:
                    return eval_star(transfer.Pow10(transfer.Var()), run(n.right))
                base = run(n.left)
                return base ** _integer_exponent(run(n.right), n.right.span)
            a, b = run(n.left), run(n.right)
            if n.op == "+":
                return a + b
            if n.op == "-":
                return a - b
            if n.op == "*":
                return a * b
            return a / b
        if isinstance(n, Call):
            return call(n)
        if isinstance(n, LimSeq):
            return limit_value(n)
        raise TypeError(f"cannot evaluate {type(n).__name__}")

    def call(n: Call) -> HyperValue:
        if n.func == "st":
            _arity(n, 1)
            return ctx.constant(run(n.args[0]).standard_part())
        if n.func == "floor":
            _arity(n, 1)
            return run(n.args[0]).floor()
        if n.func == "abs":
            _arity(n, 1)
            return abs(run(n.args[0]))
        if n.func == "nines":
            _arity(n, 1)
            arg = n.args[0]
            if isinstance(arg, Name) and arg.ident == "H":
                return nines_hyper(ctx)
            k = _integer_exponent(run(arg), arg.span)
            if k < 1:
                raise DomainError("nines needs a positive count")
            return nines(ctx, k)
        if n.func in _ELEMENTARY_NODES:
            _arity(n, 1)
            f = _ELEMENTARY_NODES[n.func](transfer.Var())
            return eval_star(f, run(n.args[0]))
        raise UnknownIdentifier(f"unknown function {n.func!r}", n.span)

    def limit_value(n: LimSeq) -> HyperValue:
        f = to_function(n.body, n.var)
        result = limit_seq(f, ctx)
        if result.outcome != "converges":
            raise DomainError(
                f"limit does not converge ({result.outcome}: {result.note})"
            )
        return ctx.constant(result.value)

    return run(node)


def eval_command(cmd: Command, ctx: NumContext, env: Optional[dict] = None) -> HyperValue:
    bindings = dict(env or {})
    if cmd.binding is not None:
        name, value_node = cmd.binding
        bindings[name] = evaluate(value_node, ctx, bindings)
    return evaluate(cmd.expr, ctx, bindings)


# --------------------------------------------------------------------------
# expression -> one-variable function tree
# --------------------------------------------------------------------------

_NOT_POINTWISE = {"st", "floor", "abs", "nines"}


def to_function(node: Node, var: str = "x") -> FuncExpr:
    """Convert to a standard-function tree in one variable.

    Only operations with a pointwise real meaning survive: st, floor,
    abs, nines, H, and eps all describe values or hyper operations, not
    standard functions, and are rejected.
    """
    if isinstance(node, Num):
        return transfer.Const(node.value)
    if isinstance(node, Name):
        if node.ident == var:
            return transfer.Var()
        if node.ident in _NAMED_CONSTANTS:
            return transfer.NamedConst(node.ident)
        if node.ident in ("H", "eps"):
            raise DomainError(
                f"{node.ident} is a hyperreal value, not a standard function"
                " term; evaluate it instead"
            )
        raise UnknownIdentifier(
            f"unknown name {node.ident!r} (the variable here is {var!r})",
            node.span,
        )
    if isinstance(node, Neg):
        return transfer.Mul(
            transfer.Const(Fraction(-1)), to_function(node.operand, var)
        )
    if isinstance(node, Bin):
        if node.op == "^":
            if isinstance(node.left, Num) and node.left.value == 10:
                return transfer.Pow10(to_function(node.right, var))
            exponent = node.right
            neg = False
            if isinstance(exponent, Neg):
                neg = True
                exponent = exponent.operand
            if not isinstance(exponent, Num) or exponent.value.denominator != 1:
                raise DomainError(
                    "function exponents must be integer literals"
                    " (or the base must be 10)"
                )
            k = int(exponent.value)
            return transfer.PowInt(to_function(node.left, var), -k if neg else k)
        ctor = {
            "+": transfer.Add,
            "-": transfer.Sub,
            "*": transfer.Mul,
            "/": transfer.Div,
        }[node.op]
        return ctor(to_function(node.left, var), to_function(node.right, var))
    if isinstance(node, Call):
        if node.func in _NOT_POINTWISE:
            raise DomainError(
                f"{node.func} is not a pointwise standard function"
            )
        if node.func in _ELEMENTARY_NODES:
            if len(node.args) != 1:
                raise ParseError(f"{node.func} takes 1 argument", node.span)
            return _ELEMENTARY_NODES[node.func](to_function(node.args[0], var))
        raise UnknownIdentifier(f"unknown function {node.func!r}", node.span)
    if isinstance(node, LimSeq):
        raise DomainError("a sequence limit is not a pointwise function")
    raise TypeError(f"cannot convert {type(node).__name__}")
