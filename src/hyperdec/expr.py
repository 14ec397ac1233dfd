"""Expression language over hyperreal values.

One-pass regex tokenizer, recursive-descent parser, canonical printer
and evaluator.  The parser builds the function trees of ``transfer``
directly, plus four value-only nodes declared here by their fields, which
``FuncExpr``'s one constructor sets: Unit (H, eps), HyperCall (st, floor,
abs, nines), Power (a power other than 10^w or b^k with an integer
literal k) and LimSeq.  ``evaluate`` runs ``transfer._fold``, the one
walk over these trees, through the fold entry of a hypervalue backend
that adds an environment of names and the value-only nodes.
``to_function`` checks that a tree is a standard function of one
variable and returns it.

Precedence, loosest to tightest: + -, * /, unary minus, ^ (right
associative; the exponent position accepts a sign, so 2^-3 parses and
-2^2 is -(2^2)).  A trailing "at name = expr" clause binds a free
variable for a single evaluation.  The built-in names H, eps, pi and e
cannot name a variable.

Node spans are character ranges into the source, carried for error
messages and excluded from equality so that reparsing a printed tree
reproduces the tree exactly.
"""

import functools
import re
import sys
from fractions import Fraction
from typing import Optional

from . import transfer
from ._record import Record
from .errors import DomainError, ParseError, ResourceLimit, UnknownIdentifier
from .hyperfield import HyperValue, NumContext, _ten_power, nines, nines_hyper
from .transfer import Add, Const, Div, FuncExpr, Mul, NamedConst, Neg, Pow10, PowInt, Sub, Var
from .transfer import eval_star

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
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token(Record):
    """kind is num, name, arrow, op or end; pos indexes the source."""

    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        _set_kind(self, kind)
        _set_text(self, text)
        _set_pos(self, pos)


_set_kind = Token.kind.__set__
_set_text = Token.text.__set__
_set_pos = Token.pos.__set__


def _tokenize(src: str) -> list:
    out = []
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.span())
        if kind != "ws":
            out.append(Token(kind, m.group(), m.start()))
    out.append(Token("end", "", len(src)))
    return out


# --------------------------------------------------------------------------
# value-only nodes
# --------------------------------------------------------------------------

class Unit(transfer._Named):
    """H, the infinite unit, or eps = 10^(-H)."""

    __slots__ = ()


class HyperCall(FuncExpr):
    """st, floor, abs or nines of one argument."""

    __slots__ = ("func", "arg")


class Power(FuncExpr):
    """base^exponent, where the exponent must evaluate to a standard integer."""

    __slots__ = ("base", "exponent")


class LimSeq(FuncExpr):
    """lim(var -> inf, body), the limit of the sequence body(var)."""

    __slots__ = ("var", "body")


class Command(Record):
    """A parsed line: expr, and binding, a (name, FuncExpr) pair or None."""

    __slots__ = ("expr", "binding")
    _defaults = {"binding": None}


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

_KEYWORDS = {"at", "lim", "inf"}
_BUILTINS = {"H", "eps", "pi", "e"}    # reserved too: never a variable name

_BINARY = {"+": Add, "-": Sub, "*": Mul, "/": Div}
_FUNCTIONS = {name: node for node, name in transfer._ELEMENTARY.items()}
_FUNCTIONS.update((f, functools.partial(HyperCall, f)) for f in ("st", "floor", "abs", "nines"))


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.i = 0
        # the first unknown function or wrong argument count in evaluation
        # order; raised once the whole text has parsed
        self.fault = None

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

    def variable(self, message: str) -> Token:
        name = self.expect("name")
        if name.text in _KEYWORDS or name.text in _BUILTINS:
            raise ParseError(
                message.format(name.text), (name.pos, name.pos + len(name.text))
            )
        return name

    # ---- grammar -----------------------------------------------------

    def command(self) -> Command:
        expr = self.additive()
        binding = None
        if self.peek().kind == "name" and self.peek().text == "at":
            self.take()
            name = self.variable("{!r} is reserved")
            self.expect("op", "=")
            fault, self.fault = self.fault, None    # the binding is evaluated first
            binding = (name.text, self.additive())
            self.fault = self.fault or fault
        end = self.peek()
        if end.kind != "end":
            raise ParseError(
                f"unexpected {end.text!r}", (end.pos, end.pos + len(end.text))
            )
        if self.fault is not None:
            raise self.fault
        return Command(expr=expr, binding=binding)

    def additive(self) -> FuncExpr:
        node = self.multiplicative()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take()
            right = self.multiplicative()
            node = _BINARY[op.text](node, right, span=(node.span[0], right.span[1]))
        return node

    def multiplicative(self) -> FuncExpr:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take()
            right = self.unary()
            node = _BINARY[op.text](node, right, span=(node.span[0], right.span[1]))
        return node

    def unary(self) -> FuncExpr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.take()
            inner = self.unary()
            return Neg(inner, span=(tok.pos, inner.span[1]))
        return self.power()

    def power(self) -> FuncExpr:
        base = self.atom()
        if not (self.peek().kind == "op" and self.peek().text == "^"):
            return base
        self.take()
        exponent = self.unary()    # signed, and right associative
        span = (base.span[0], exponent.span[1])
        if isinstance(base, Const) and base.value == 10:
            return Pow10(exponent, span=span)
        literal = exponent.operand if isinstance(exponent, Neg) else exponent
        if isinstance(literal, Const) and literal.value.denominator == 1:
            k = int(literal.value)    # an integer literal k or -k
            return PowInt(base, k if literal is exponent else -k, span=span)
        return Power(base, exponent, span=span)

    def atom(self) -> FuncExpr:
        tok = self.peek()
        span = (tok.pos, tok.pos + len(tok.text))
        if tok.kind == "num":
            self.take()
            try:  # int() is cheaper than Fraction's string parser, and exact
                value = Fraction(tok.text) if "." in tok.text else int(tok.text)
            except ValueError as exc:  # only the digit limit fails a digit string
                raise ResourceLimit(
                    f"a number literal with more than {sys.get_int_max_str_digits()}"
                    " digits is too large to read"
                ) from exc
            return Const(value, span=span)
        if tok.kind == "name":
            if tok.text == "lim":
                return self.limit()
            if tok.text in _KEYWORDS:
                raise ParseError(f"{tok.text!r} cannot start an expression", span)
            self.take()
            if self.peek().kind == "op" and self.peek().text == "(":
                return self.call(tok)
            if tok.text in ("H", "eps"):
                return Unit(tok.text, span=span)
            if tok.text in _BUILTINS:
                return NamedConst(tok.text, span=span)
            return Var(tok.text, span=span)
        if tok.kind == "op" and tok.text == "(":
            self.take()
            node = self.additive()
            closing = self.expect("op", ")")
            span = (tok.pos, closing.pos + 1)
            if self.fault is not None and self.fault.span == node.span:
                self.fault.span = span    # the faulty call is this node
            return node.with_span(span)
        raise ParseError(
            f"expected a value, found {tok.text or 'end of input'!r}",
            (tok.pos, tok.pos + max(1, len(tok.text))),
        )

    def call(self, name_tok: Token) -> FuncExpr:
        self.expect("op", "(")
        args = [self.additive()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.take()
            args.append(self.additive())
        closing = self.expect("op", ")")
        func, span = name_tok.text, (name_tok.pos, closing.pos + 1)
        if func in _FUNCTIONS and len(args) == 1:
            return _FUNCTIONS[func](args[0], span=span)
        if func in _FUNCTIONS:
            fault = ParseError(f"{func} takes 1 argument, got {len(args)}", span)
        else:
            fault = UnknownIdentifier(f"unknown function {func!r}", span)
        # a call is checked before its arguments, which start further right
        if self.fault is None or span[0] < self.fault.span[0]:
            self.fault = fault
        return Var(func, span=span)    # a stand-in: the parse ends in the fault

    def limit(self) -> FuncExpr:
        lim_tok = self.expect("name", "lim")
        self.expect("op", "(")
        var = self.variable("{!r} cannot name the limit variable")
        self.expect("arrow")
        self.expect("name", "inf")
        self.expect("op", ",")
        body = self.additive()
        closing = self.expect("op", ")")
        return LimSeq(var.text, body, span=(lim_tok.pos, closing.pos + 1))


def parse_command(src: str) -> Command:
    return _Parser(src).command()


def parse_expr(src: str) -> FuncExpr:
    cmd = parse_command(src)
    if cmd.binding is not None:
        raise ParseError("unexpected 'at' binding here")
    return cmd.expr


# --------------------------------------------------------------------------
# printing
# --------------------------------------------------------------------------

_OPS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, PowInt: 4, Pow10: 4, Power: 4}


def _prec(node: FuncExpr) -> int:
    return _PREC.get(type(node), 5)    # 5 for an atom


def _fraction_text(v: Fraction) -> str:
    """Decimal form when the denominator is 10-smooth (reparses to this
    same Const node); otherwise an explicit parenthesized quotient."""
    if v.denominator == 1:
        return str(v.numerator)
    u = _ten_power(v.denominator)
    if u is not None:
        scaled = v.numerator * 10**u // v.denominator
        text = f"{abs(scaled):0{u + 1}d}"
        out = f"{text[:-u]}.{text[-u:]}"
        return out if scaled >= 0 else f"-({out})"
    return f"({v.numerator}/{v.denominator})"


def _operands(node: FuncExpr) -> tuple:
    """Base and exponent of a power node, as the nodes they print as."""
    if isinstance(node, Pow10):
        return Const(10), node.exponent
    if isinstance(node, PowInt):
        k = node.power
        return node.base, Const(k) if k >= 0 else Neg(Const(-k))
    return node.base, node.exponent


def print_expr(node: FuncExpr) -> str:
    kind = type(node)
    if kind is Const:
        return _fraction_text(node.value)
    if kind in (Var, Unit, NamedConst):
        return node.name
    if kind is Neg:
        inner = print_expr(node.operand)
        if _prec(node.operand) < _PREC[Neg]:
            inner = f"({inner})"
        return f"-{inner}"
    if kind in _OPS:
        mine = _PREC[kind]
        left = print_expr(node.left)
        right = print_expr(node.right)
        if _prec(node.left) < mine:
            left = f"({left})"
        if _prec(node.right) <= mine:
            right = f"({right})"
        return f"{left} {_OPS[kind]} {right}"
    if kind in (PowInt, Pow10, Power):
        base, exponent = _operands(node)
        left, right = print_expr(base), print_expr(exponent)
        if _prec(base) <= _PREC[Power]:
            left = f"({left})"
        if _prec(exponent) < _PREC[Neg]:
            right = f"({right})"
        return f"{left}^{right}"
    if kind is HyperCall:
        return f"{node.func}({print_expr(node.arg)})"
    if kind in transfer._ELEMENTARY:
        return f"{transfer._ELEMENTARY[kind]}({print_expr(node.arg)})"
    if kind is LimSeq:
        return f"lim({node.var} -> inf, {print_expr(node.body)})"
    raise TypeError(f"cannot print {kind.__name__}")


def print_command(cmd: Command) -> str:
    text = print_expr(cmd.expr)
    if cmd.binding is not None:
        name, value = cmd.binding
        text += f" at {name} = {print_expr(value)}"
    return text


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def _integer_exponent(v: HyperValue) -> int:
    if v.is_finite and v.infinitesimal_part().is_zero:
        k = Fraction(v.standard_part())
        if k.denominator == 1:
            return int(k)
    raise DomainError("exponents must be standard integers unless the base is 10")


class _Values(transfer._Hypers):
    """The hypervalue backend of the fold, plus the names bound in an
    environment and the value-only nodes."""

    def __init__(self, ctx: NumContext, env: dict):
        super().__init__(ctx)
        self.env = env

    def var(self, f: Var, x) -> HyperValue:
        if f.name not in self.env:
            raise UnknownIdentifier(f"unknown name {f.name!r}", f.span)
        v = self.env[f.name]
        return v if isinstance(v, HyperValue) else self.ctx.constant(v)

    def other(self, f: FuncExpr, x) -> HyperValue:
        ctx = self.ctx
        if isinstance(f, Unit):
            return ctx.omega() if f.name == "H" else ctx.tau()
        if isinstance(f, Power):
            base = transfer._fold(f.base, x, self)
            return base ** _integer_exponent(transfer._fold(f.exponent, x, self))
        if isinstance(f, HyperCall):
            if f.func == "nines":
                if f.arg == Unit("H"):
                    return nines_hyper(ctx)
                k = _integer_exponent(transfer._fold(f.arg, x, self))
                if k < 1:
                    raise DomainError("nines needs a positive count")
                return nines(ctx, k)
            v = transfer._fold(f.arg, x, self)
            if f.func == "st":
                return ctx.constant(v.standard_part())
            return v.floor() if f.func == "floor" else abs(v)
        if isinstance(f, LimSeq):
            # the generic limit: st of the body at the infinite index H
            v = eval_star(to_function(f.body, f.var), ctx.omega())
            if not v.is_finite:
                why = f"diverges to {'+' if v.sign() > 0 else '-'}infinity"
                raise DomainError(f"limit does not converge ({why})")
            return ctx.constant(v.standard_part())
        return super().other(f, x)


def evaluate(node: FuncExpr, ctx: NumContext, env: Optional[dict] = None) -> HyperValue:
    """Reduce a parsed expression to a hyperreal value.

    Free names resolve through env; H is the infinite unit and eps its
    reciprocal power of ten.  pi and e are available in float mode only;
    a 10^w head applies the full power-of-ten rule for hyper exponents w.
    """
    return _Values(ctx, env or {}).fold(node, None)


def eval_command(cmd: Command, ctx: NumContext, env: Optional[dict] = None) -> HyperValue:
    bindings = dict(env or {})
    if cmd.binding is not None:
        name, value_node = cmd.binding
        bindings[name] = evaluate(value_node, ctx, bindings)
    return evaluate(cmd.expr, ctx, bindings)


# --------------------------------------------------------------------------
# expression -> one-variable function
# --------------------------------------------------------------------------

def to_function(tree: FuncExpr, var: str = "x") -> FuncExpr:
    """Check that tree is a standard function of var and return it.

    Only operations with a pointwise real meaning may appear: st, floor,
    abs, nines, H, eps, sequence limits, and powers other than 10^w or an
    integer literal exponent describe values or hyper operations, not
    standard functions, and are rejected, as is any other free name.
    """
    if var in _BUILTINS:
        raise ParseError(f"{var!r} is reserved")
    _check_function(tree, var)
    return tree


def _check_function(f: FuncExpr, var: str) -> None:
    if isinstance(f, Var):
        if f.name != var:
            raise UnknownIdentifier(
                f"unknown name {f.name!r} (the variable here is {var!r})", f.span
            )
    elif isinstance(f, Unit):
        raise DomainError(f"{f.name} is a hyperreal value, not a standard"
                          " function term; evaluate it instead")
    elif isinstance(f, HyperCall):
        raise DomainError(f"{f.func} is not a pointwise standard function")
    elif isinstance(f, Power):
        raise DomainError("function exponents must be integer literals"
                          " (or the base must be 10)")
    elif isinstance(f, LimSeq):
        raise DomainError("a sequence limit is not a pointwise function")
    else:
        for child in f.children():
            _check_function(child, var)
