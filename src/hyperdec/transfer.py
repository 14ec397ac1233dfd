"""Lifting real functions of one variable onto the truncated series field.

An expression tree built from the constructors below describes a real
function f.  One fold walks the tree for every number type: ``eval_star``
runs it over hypervalues, ``eval_real`` over Fractions (arithmetic trees
at rational points) or Decimals.  The walk and the field operations are
shared; a small backend per number type supplies the rest: the variable,
the lift of rational constants, the zero check on divisors, the named
constants, powers of ten, the elementary functions and any other node.
``expr`` parses to these trees and evaluates them with this same fold.

Over hypervalues the elementary functions (exp, log, sin, cos, sqrt)
expand as a Taylor series about the standard part of their argument, so
an argument ``s + delta`` with delta infinitesimal evaluates to

    sum_{k < K} g_k(s) * delta**k

where ``g_k = g^(k)/k!`` and K is the context's term budget.  The series
remainder is what the sticky ``truncated`` flag reports.  When delta is
a single term ``d * X**o`` (X standing for the monomial eps**b * H**a),
its powers are the monomials ``d**k * X**(k*o)`` and the sum is written
down term by term: one running product of coefficients, keys that
strictly decrease, nothing summed and nothing cut.  A compound delta
goes through the general product loop.

Limits and continuity probes reduce to evaluating f at finitely many
hyperreal points and taking standard parts.  Slopes need less: the
standard part of (f(x0 + e) - f(x0))/e is the e^1 coefficient of
f(x0 + e), so ``derivative`` runs the fold over first-order jets
v + d*e with e^2 = 0, in the context's coefficient type, and each
elementary function contributes the first two coefficients of the
Taylor stream above.
"""

import math
from dataclasses import dataclass
from decimal import Decimal, Overflow, getcontext, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Union

from ._record import Record, _set
from .errors import (
    DivisionByZero,
    DomainError,
    ExactTranscendental,
    HyperError,
    InfiniteArgument,
    NotFinite,
    ResourceLimit,
)
from .hyperfield import (
    HyperValue,
    NumContext,
    UNIT_PAIR,
    ExponentPair,
    _POW10_CAP,
    _decimal_ctx,
    _exact_power,
)


# --------------------------------------------------------------------------
# expression trees
# --------------------------------------------------------------------------

class FuncExpr(Record):
    """Base class for expression nodes.

    span is the (start, end) character range of the node in the text it
    was parsed from, a keyword-only argument of every node kept for error
    messages and left out of equality, hash and repr.
    """

    __slots__ = ("span",)
    _hidden = ("span",)

    def __init__(self, *, span: tuple = (0, 0)) -> None:
        _set_span(self, span)

    def with_span(self, span: tuple) -> "FuncExpr":
        """This node with another source span."""
        node = object.__new__(self.__class__)
        for field in self._fields:
            _set(node, field, getattr(self, field))
        _set_span(node, span)
        return node

    def children(self) -> tuple:
        """The subtrees right under this node."""
        return tuple([v for v in self._astuple() if isinstance(v, FuncExpr)])


_set_span = FuncExpr.span.__set__


class _Named(FuncExpr):
    """A node that holds one name."""

    __slots__ = ("name",)

    def __init__(self, name: str, *, span: tuple = (0, 0)) -> None:
        _set_name(self, name)
        _set_span(self, span)


_set_name = _Named.name.__set__


class Var(_Named):
    __slots__ = ()

    def __init__(self, name: str = "x", *, span: tuple = (0, 0)) -> None:
        _set_name(self, name)
        _set_span(self, span)


class Const(FuncExpr):
    __slots__ = ("value",)

    def __init__(self, value, *, span: tuple = (0, 0)) -> None:
        _set_value(self, Fraction(value))
        _set_span(self, span)


_set_value = Const.value.__set__


class NamedConst(_Named):
    """One of the built-in constants: pi, e, ln10."""

    __slots__ = ()

    def __init__(self, name: str, *, span: tuple = (0, 0)) -> None:
        if name not in ("pi", "e", "ln10"):
            raise ValueError(f"unknown constant {name!r}")
        _set_name(self, name)
        _set_span(self, span)


class Neg(FuncExpr):
    __slots__ = ("operand",)

    def __init__(self, operand: FuncExpr, *, span: tuple = (0, 0)) -> None:
        _set_operand(self, operand)
        _set_span(self, span)


_set_operand = Neg.operand.__set__


class _Binary(FuncExpr):
    """A node with two operands: Add, Sub, Mul and Div."""

    __slots__ = ("left", "right")

    def __init__(self, left: FuncExpr, right: FuncExpr, *, span: tuple = (0, 0)) -> None:
        _set_left(self, left)
        _set_right(self, right)
        _set_span(self, span)


_set_left = _Binary.left.__set__
_set_right = _Binary.right.__set__


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class PowInt(FuncExpr):
    """Integer power of a subexpression."""

    __slots__ = ("base", "power")

    def __init__(self, base: FuncExpr, power: int, *, span: tuple = (0, 0)) -> None:
        if not isinstance(power, int):
            raise ValueError("power must be a plain integer")
        _set_base(self, base)
        _set_power(self, power)
        _set_span(self, span)


_set_base = PowInt.base.__set__
_set_power = PowInt.power.__set__


class Pow10(FuncExpr):
    """10 raised to a subexpression.

    Evaluation only accepts exponents of the shape k*H + j with k, j
    integers; the result is then the exact monomial 10**j * eps**(-k).
    """

    __slots__ = ("exponent",)

    def __init__(self, exponent: FuncExpr, *, span: tuple = (0, 0)) -> None:
        _set_exponent(self, exponent)
        _set_span(self, span)


_set_exponent = Pow10.exponent.__set__


class _Elementary(FuncExpr):
    """An elementary function of one argument: Exp, Log, Sin, Cos, Sqrt."""

    __slots__ = ("arg",)

    def __init__(self, arg: FuncExpr, *, span: tuple = (0, 0)) -> None:
        _set_arg(self, arg)
        _set_span(self, span)


_set_arg = _Elementary.arg.__set__


class Exp(_Elementary):
    __slots__ = ()


class Log(_Elementary):
    __slots__ = ()


class Sin(_Elementary):
    __slots__ = ()


class Cos(_Elementary):
    __slots__ = ()


class Sqrt(_Elementary):
    __slots__ = ()


_ELEMENTARY = {Exp: "exp", Log: "log", Sin: "sin", Cos: "cos", Sqrt: "sqrt"}


def const(v) -> Const:
    return Const(Fraction(v))


def is_arithmetic(f: FuncExpr) -> bool:
    """True when f uses only field operations and rational constants."""
    if isinstance(f, (Var, Const)):
        return True
    if isinstance(f, (Add, Sub, Mul, Div)):
        return is_arithmetic(f.left) and is_arithmetic(f.right)
    if isinstance(f, PowInt):
        return is_arithmetic(f.base)
    if isinstance(f, Neg):
        return is_arithmetic(f.operand)
    return False


def symbolic_derivative(f: FuncExpr) -> FuncExpr:
    """Derivative of f as a new expression tree.

    Used as the independent oracle for the jet slope below; no
    simplification is attempted.
    """
    if isinstance(f, Var):
        return Const(Fraction(1))
    if isinstance(f, (Const, NamedConst)):
        return Const(Fraction(0))
    if isinstance(f, Neg):
        return Neg(symbolic_derivative(f.operand))
    if isinstance(f, Add):
        return Add(symbolic_derivative(f.left), symbolic_derivative(f.right))
    if isinstance(f, Sub):
        return Sub(symbolic_derivative(f.left), symbolic_derivative(f.right))
    if isinstance(f, Mul):
        return Add(
            Mul(symbolic_derivative(f.left), f.right),
            Mul(f.left, symbolic_derivative(f.right)),
        )
    if isinstance(f, Div):
        num = Sub(
            Mul(symbolic_derivative(f.left), f.right),
            Mul(f.left, symbolic_derivative(f.right)),
        )
        return Div(num, PowInt(f.right, 2))
    if isinstance(f, PowInt):
        if f.power == 0:
            return Const(Fraction(0))
        return Mul(
            Mul(Const(Fraction(f.power)), PowInt(f.base, f.power - 1)),
            symbolic_derivative(f.base),
        )
    if isinstance(f, Pow10):
        return Mul(
            Mul(Pow10(f.exponent), NamedConst("ln10")),
            symbolic_derivative(f.exponent),
        )
    if isinstance(f, Exp):
        return Mul(Exp(f.arg), symbolic_derivative(f.arg))
    if isinstance(f, Log):
        return Div(symbolic_derivative(f.arg), f.arg)
    if isinstance(f, Sin):
        return Mul(Cos(f.arg), symbolic_derivative(f.arg))
    if isinstance(f, Cos):
        return Mul(Const(Fraction(-1)), Mul(Sin(f.arg), symbolic_derivative(f.arg)))
    if isinstance(f, Sqrt):
        return Div(symbolic_derivative(f.arg), Mul(Const(Fraction(2)), Sqrt(f.arg)))
    raise TypeError(f"cannot differentiate {type(f).__name__}")


# --------------------------------------------------------------------------
# numeric helpers (Decimal recipes)
# --------------------------------------------------------------------------

def _dec_pi() -> Decimal:
    """pi under the current decimal context (AGM-free series)."""
    ctx = getcontext()
    ctx.prec += 2
    three = Decimal(3)
    lasts, t, s, n, na, d, da = Decimal(0), three, Decimal(3), 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    ctx.prec -= 2
    return +s


def _dec_reduce(x: Decimal) -> Decimal:
    # bring the angle near zero so the alternating series converges fast;
    # 2*pi gets a digit for each digit of x before the point, so r keeps prec
    if abs(x) <= 10:
        return x
    if x.adjusted() >= _POW10_CAP:
        raise ResourceLimit(
            f"sin and cos need |x| < 10^{_POW10_CAP}; this argument is larger"
        )
    extra = x.adjusted() + 12
    ctx = getcontext()
    ctx.prec += extra
    two_pi = 2 * _dec_pi()
    k = (x / two_pi).to_integral_value()
    r = x - k * two_pi
    ctx.prec -= extra
    return +r


def _dec_sin(x: Decimal) -> Decimal:
    return _dec_trig(x, 1)


def _dec_cos(x: Decimal) -> Decimal:
    return _dec_trig(x, 0)


def _dec_trig(x: Decimal, i: int) -> Decimal:
    # the alternating Taylor series from its first term x**i / i!
    x = _dec_reduce(x)
    ctx = getcontext()
    ctx.prec += 2
    first = x if i else Decimal(1)
    lasts, s, fact, num, sign = Decimal(0), first, 1, first, 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign *= -1
        s += num / fact * sign
    ctx.prec -= 2
    return +s


def _named_decimal(name: str) -> Decimal:
    """pi, e or ln10 at the current precision."""
    return _named_at(name, getcontext().prec)


def _named_value(ctx: NumContext, name: str) -> Decimal:
    """pi, e or ln10 at a float context's precision; exact mode refuses."""
    if ctx.mode == "exact":
        raise ExactTranscendental(
            f"{name} has no exact rational value; use float mode"
        )
    return _named_at(name, ctx.prec)


@lru_cache(maxsize=64)
def _named_at(name: str, prec: int) -> Decimal:
    # computed once per precision: the series are costly and callers
    # evaluate one tree at many points
    with localcontext(_decimal_ctx(prec)):
        if name == "pi":
            return _dec_pi()
        if name == "e":
            return Decimal(1).exp()
        return Decimal(10).ln()


@lru_cache(maxsize=None)
def _half_binomial(k: int) -> Fraction:
    # binomial coefficient (1/2 choose k)
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(1, 2) - i
    return num / math.factorial(k)


# --------------------------------------------------------------------------
# Taylor coefficient streams
# --------------------------------------------------------------------------

def _taylor_exact(kind: str, s: Fraction, count: int) -> list:
    if kind == "exp":
        if s != 0:
            raise ExactTranscendental(
                "exp at a nonzero standard part has no rational value; "
                "use float mode"
            )
        return [Fraction(1, math.factorial(k)) for k in range(count)]
    if kind in ("sin", "cos"):
        if s != 0:
            raise ExactTranscendental(
                f"{kind} away from 0 has no rational value; use float mode"
            )
        return _trig_taylor(kind, Fraction(0), Fraction(1), count)
    if kind == "log":
        if s <= 0:
            raise DomainError("log needs a positive standard part")
        if s != 1:
            raise ExactTranscendental(
                "log at a standard part other than 1 has no rational value; "
                "use float mode"
            )
        out = [Fraction(0)]
        for k in range(1, count):
            sign = 1 if k % 2 else -1
            out.append(Fraction(sign, k))
        return out
    if kind == "sqrt":
        if s <= 0:
            raise DomainError("sqrt needs a positive standard part")
        root = _exact_sqrt(s)
        if root is None:
            raise ExactTranscendental(
                f"sqrt({s}) is irrational; use float mode"
            )
        return [_half_binomial(k) * root / s**k for k in range(count)]
    raise ValueError(kind)


def _exact_sqrt(s: Fraction):
    n = math.isqrt(s.numerator)
    d = math.isqrt(s.denominator)
    if n * n == s.numerator and d * d == s.denominator:
        return Fraction(n, d)
    return None


def _taylor_float(kind: str, s: Decimal, count: int) -> list:
    if kind == "exp":
        base = s.exp()
        return [base / math.factorial(k) for k in range(count)]
    if kind == "log":
        if s <= 0:
            raise DomainError("log needs a positive standard part")
        out = [s.ln()]
        p = Decimal(1)
        for k in range(1, count):
            p *= s
            sign = 1 if k % 2 else -1
            out.append(sign / (k * p))
        return out
    if kind == "sqrt":
        if s <= 0:
            raise DomainError("sqrt needs a positive standard part")
        root = s.sqrt()
        out = []
        p = Decimal(1)
        for k in range(count):
            c = _half_binomial(k)
            out.append(root * Decimal(c.numerator) / (Decimal(c.denominator) * p))
            p *= s
        return out
    if kind in ("sin", "cos"):
        return _trig_taylor(kind, _dec_sin(s), _dec_cos(s), count)
    raise ValueError(kind)


def _trig_taylor(kind: str, sn, cs, count: int) -> list:
    # derivatives of sin and cos repeat with period 4
    cycle = (sn, cs, -sn, -cs) if kind == "sin" else (cs, -sn, -cs, sn)
    return [cycle[k % 4] / math.factorial(k) for k in range(count)]


# the Taylor stream g_k(s), k < count, of each mode's coefficient type
_TAYLOR = {"exact": _taylor_exact, "float": _taylor_float}


def _apply_elementary(kind: str, u: HyperValue) -> HyperValue:
    """g(u) for an elementary g, by its Taylor series about s = st(u).

    With delta = u - s the value is sum_{k < K} g_k(s) * delta**k.  The
    coefficients g_k come in the context's type, rounded under its
    arithmetic.  A delta of at most one term d * X**o has the power
    d**k * X**(k*o): one running product p = d**k, formed by the same
    rounded steps as repeated multiplication, gives the term p * g_k at
    key k*o.  The keys strictly decrease and there are at most K of
    them, so nothing is summed or cut, and the result is bit for bit
    what the product loop gives.  The walk stops when p underflows to 0.
    A delta of two or more terms goes through the product loop.
    """
    ctx = u.ctx
    if not u.is_finite:
        side = u.sign()
        raise InfiniteArgument(
            f"{kind} of an infinite argument (sign {side:+d}) is outside "
            "the Taylor window"
        )
    s = u.standard_part()
    delta = u - s
    count = ctx.max_terms
    with ctx.arith():
        coeffs = _TAYLOR[ctx.mode](kind, s, count)
    if len(delta.terms) > 1:
        return _taylor_by_products(ctx, coeffs, delta)
    # a zero delta has d = 0, so the walk stops after the constant term
    d, step = delta.terms[0] if delta.terms else (ctx.coeff(0), UNIT_PAIR)
    p, pair = ctx.coeff(1), UNIT_PAIR
    terms = []
    with ctx.arith():
        for k, c in enumerate(coeffs):
            if k:
                p = p * d
                if p == 0:
                    break
                pair = pair + step
            if c:
                t = p * c
                if t != 0:  # a float product can underflow
                    terms.append((t, pair))
    flag = u.truncated or not delta.is_zero
    return HyperValue(ctx=ctx, terms=tuple(terms), truncated=flag)


def _taylor_by_products(ctx: NumContext, coeffs: list, delta: HyperValue) -> HyperValue:
    """sum c_k * delta**k by repeated products, for a compound delta.

    The result is flagged: a nonzero delta leaves the series remainder.
    """
    acc = ctx.zero()
    power = ctx.constant(1)
    for k, c in enumerate(coeffs):
        if k:
            power = power * delta
        if c:
            acc = acc + power * c
    return HyperValue(ctx=ctx, terms=acc.terms, truncated=True)


def _ten_to(ctx: NumContext, j, whole: bool):
    """10**j for a standard j, refused for |j| >= _POW10_CAP, and in exact
    mode unless j is an integer and the whole exponent (whole)."""
    if abs(j) >= _POW10_CAP:
        raise ResourceLimit(
            f"10^j needs |j| < {_POW10_CAP}; this exponent is larger"
        )
    if ctx.mode == "float":
        return Decimal(10) ** j
    if whole and j.denominator == 1:
        return Fraction(10) ** int(j)
    raise ExactTranscendental(
        "pow10 of a non-integer finite exponent has no exact rational "
        "value; use float mode"
    )


def _pow10_value(w: HyperValue) -> HyperValue:
    """10**w for exponents of the shape k*H + f, k integer, f finite.

    The H part maps to the exact monomial eps**(-k).  The finite part f
    has the standard part j and the infinitesimal tail t = f - j; 10**f
    is 10**j (see _ten_to) times exp(t * ln 10), lifted by its Taylor
    series about 0, which exact mode refuses for a nonzero t.  A
    standard integer j thus gives an exact power of ten in both modes.
    """
    ctx = w.ctx
    if w.truncated:
        raise DomainError("pow10 exponent carries truncation; refusing")
    k = Fraction(0)
    finite_terms = []
    for c, pair in w.terms:
        if pair == ExponentPair(0, 1):
            k = Fraction(c)
        elif pair.is_infinite:
            raise DomainError(
                "pow10 exponent must have the shape k*H + finite; "
                f"found a term at eps^{pair.b}*H^{pair.a}"
            )
        else:
            finite_terms.append((c, pair))
    if k.denominator != 1:
        raise DomainError("pow10 needs an integer coefficient on H")
    rest = ctx.from_terms(finite_terms)
    tail = rest.infinitesimal_part()
    with ctx.arith():
        scale = _ten_to(ctx, rest.coefficient_at(UNIT_PAIR), tail.is_zero)
        grid = ctx.monomial(scale, -int(k), 0)
        if tail.is_zero:
            return grid
        ln10 = ctx.constant(_named_decimal("ln10"))
    return grid * _apply_elementary("exp", tail * ln10)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def _fold(f: FuncExpr, x, num):
    """Value of f in the number type of `num`.

    The walk and the field operations are shared; `num` is one of the
    backends below and supplies what depends on the number type: a Var
    is num.var(f, x), which is x itself for a function, and a node the
    walk does not know goes to num.other(f, x).
    """
    if isinstance(f, Var):
        return num.var(f, x)
    if isinstance(f, Const):
        return num.const(f.value)
    if isinstance(f, Add):
        return _fold(f.left, x, num) + _fold(f.right, x, num)
    if isinstance(f, Sub):
        return _fold(f.left, x, num) - _fold(f.right, x, num)
    if isinstance(f, Mul):
        return _fold(f.left, x, num) * _fold(f.right, x, num)
    if isinstance(f, Div):
        # divisor first: a zero divisor is refused before the dividend
        # can fail for some other reason
        d = num.divisor(_fold(f.right, x, num))
        return _fold(f.left, x, num) / d
    if isinstance(f, PowInt):
        base = _fold(f.base, x, num)
        if f.power == 0:
            return num.const(Fraction(1))  # Decimal 0 ** 0 is an invalid operation
        return (num.divisor(base) if f.power < 0 else base) ** f.power
    if isinstance(f, Neg):
        return -_fold(f.operand, x, num)
    if isinstance(f, NamedConst):
        return num.named(f.name)
    if isinstance(f, Pow10):
        return num.pow10(_fold(f.exponent, x, num))
    kind = _ELEMENTARY.get(type(f))
    if kind is not None:
        return num.elementary(kind, _fold(f.arg, x, num))
    return num.other(f, x)


def _to_decimal(x) -> Decimal:
    if isinstance(x, Decimal):
        return +x
    if isinstance(x, Fraction):
        return Decimal(x.numerator) / Decimal(x.denominator)
    return Decimal(x)


def _nonzero(d):
    if d == 0:
        raise DomainError("division by zero at a sample point")
    return d


class _Function:
    """The hooks of the function backends: every Var is the point x."""

    var = staticmethod(lambda f, x: x)

    @staticmethod
    def other(f: FuncExpr, x):
        raise TypeError(f"cannot evaluate {type(f).__name__}")


class _Fractions(_Function):
    """Exact rationals; eval_real sends only arithmetic trees here."""

    @staticmethod
    def const(c: Fraction) -> Fraction:
        return c

    divisor = staticmethod(_nonzero)


_DECIMAL_ELEMENTARY = {
    "exp": Decimal.exp,
    "log": Decimal.ln,
    "sqrt": Decimal.sqrt,
    "sin": _dec_sin,
    "cos": _dec_cos,
}


class _Decimals(_Function):
    """Decimals under the caller's context (eval_real sets it)."""

    const = staticmethod(_to_decimal)
    divisor = staticmethod(_nonzero)
    named = staticmethod(_named_decimal)

    @staticmethod
    def pow10(v: Decimal) -> Decimal:
        return Decimal(10) ** v

    @staticmethod
    def elementary(kind: str, v: Decimal) -> Decimal:
        if kind == "log" and v <= 0:
            raise DomainError("log needs a positive argument")
        if kind == "sqrt" and v < 0:
            raise DomainError("sqrt needs a nonnegative argument")
        return _DECIMAL_ELEMENTARY[kind](v)


class _Hypers(_Function):
    """Hypervalues in one context; transcendental pieces go by Taylor."""

    def __init__(self, ctx: NumContext):
        self.ctx = ctx

    def const(self, c: Fraction) -> HyperValue:
        return self.ctx.constant(c)

    @staticmethod
    def divisor(d: HyperValue) -> HyperValue:
        return d  # HyperValue.inv refuses zero with DivisionByZero

    def named(self, name: str) -> HyperValue:
        return self.ctx.constant(_named_value(self.ctx, name))

    pow10 = staticmethod(_pow10_value)
    elementary = staticmethod(_apply_elementary)


class _Jet:
    """v + d*e with e**2 = 0: a value and its slope, both Fractions or
    both Decimals.

    Division and powers refuse as HyperValue does at a standard point: a
    zero divisor with DivisionByZero at the division itself, and an exact
    power past the bit cap with the same ResourceLimit.
    """

    __slots__ = ("v", "d")

    def __init__(self, v: Fraction, d: Fraction):
        self.v = v
        self.d = d

    def __add__(self, other: "_Jet") -> "_Jet":
        return _Jet(self.v + other.v, self.d + other.d)

    def __sub__(self, other: "_Jet") -> "_Jet":
        return _Jet(self.v - other.v, self.d - other.d)

    def __neg__(self) -> "_Jet":
        return _Jet(-self.v, -self.d)

    def __mul__(self, other: "_Jet") -> "_Jet":
        return _Jet(self.v * other.v, self.v * other.d + self.d * other.v)

    def __truediv__(self, other: "_Jet") -> "_Jet":
        if not other.v:
            raise DivisionByZero("cannot invert zero")
        q = self.v / other.v
        return _Jet(q, (self.d - q * other.d) / other.v)

    def __pow__(self, k: int) -> "_Jet":
        v = self.v
        if k < 0 and not v:
            raise DivisionByZero("cannot invert zero")
        if isinstance(v, Fraction):
            # a negative power inverts first, as HyperValue.__pow__ does
            w = _exact_power(1 / v if k < 0 else v, abs(k))
        else:
            w = v**k
        if not v:  # k > 0: d(v**k) = k * v**(k-1) * dv is dv or 0
            return _Jet(w, self.d if k == 1 else w)
        return _Jet(w, k * w / v * self.d)


class _Jets(_Function):
    """First-order jets in one context, folded under its arith(); a hook
    refuses where the hypervalue backend refuses at a standard point, with
    the same error, and an elementary g takes [g(v), g'(v)] from the mode's
    Taylor stream."""

    def __init__(self, ctx: NumContext):
        self.ctx = ctx
        self.zero = ctx.coeff(0)

    def const(self, c: Fraction) -> _Jet:
        return _Jet(self.ctx.coeff(c), self.zero)

    @staticmethod
    def divisor(d: _Jet) -> _Jet:
        return d  # _Jet division refuses zero, as HyperValue.inv does

    def named(self, name: str) -> _Jet:
        return _Jet(_named_value(self.ctx, name), self.zero)

    def pow10(self, j: _Jet) -> _Jet:
        # an exponent that moves with x is refused in exact mode
        w = _ten_to(self.ctx, j.v, not j.d)
        if not j.d:
            return _Jet(w, self.zero)
        return _Jet(w, w * _named_decimal("ln10") * j.d)

    def elementary(self, kind: str, j: _Jet) -> _Jet:
        g, slope = _TAYLOR[self.ctx.mode](kind, j.v, 2)
        return _Jet(g, slope * j.d)


# the refusal of a float result past the decimal exponent range
_OVERFLOW = "a float result overflows the decimal exponent range"


def eval_star(f: FuncExpr, x: HyperValue) -> HyperValue:
    """Evaluate the lifted function at a hypervalue.

    Every Var node binds to x; the model is single-variable.
    """
    try:
        return _fold(f, x, _Hypers(x.ctx))
    except Overflow as exc:
        raise ResourceLimit(_OVERFLOW) from exc


def eval_real(f: FuncExpr, x, ctx: NumContext):
    """Evaluate f at a standard point.

    A Fraction argument with an arithmetic-only tree stays exact;
    everything else runs in Decimal under the context precision.
    """
    if isinstance(x, Fraction) and is_arithmetic(f):
        return _fold(f, x, _Fractions)
    try:
        with ctx.arith():
            return _fold(f, _to_decimal(x), _Decimals)
    except Overflow as exc:
        raise ResourceLimit(_OVERFLOW) from exc


# --------------------------------------------------------------------------
# probe sets
# --------------------------------------------------------------------------

class ProbeSet(Record):
    """Evaluation points used by the slope and limit routines.

    Order matters: the first witnesses found follow probe order, and the
    first infinite point is the one a sequence limit is read from.
    """

    __slots__ = ("infinitesimals", "infinite_points")

    def _validate(self):
        if not self.infinitesimals:
            raise ValueError("need at least one infinitesimal probe")
        if not self.infinite_points:
            raise ValueError("need at least one infinite probe")
        for v in self.infinitesimals:
            if v.is_zero or not v.is_finite or v.standard_part() != 0:
                raise ValueError(f"not a nonzero infinitesimal: {v}")
        for v in self.infinite_points:
            if v.is_finite:
                raise ValueError(f"not an infinite point: {v}")

    @classmethod
    def default(cls, ctx: NumContext) -> "ProbeSet":
        return _default_probes(ctx)


@lru_cache(maxsize=64)
def _default_probes(ctx: NumContext) -> ProbeSet:
    # built once per context: the values are immutable, so callers share them
    return ProbeSet(
        infinitesimals=(
            ctx.tau(),
            2 * ctx.tau(),
            ctx.omega(-1),
            ctx.omega(-2),
        ),
        infinite_points=(ctx.omega(), ctx.omega(2), ctx.tau(-1)),
    )


# --------------------------------------------------------------------------
# slope at a point
# --------------------------------------------------------------------------

# nothing here returns it; kept for the probe oracle in the tests and
# for perfbench/calculus.py, which name it
class NoDerivative(Record):
    """Witness that the probe slopes did not settle on one value."""

    __slots__ = ("probe_a", "probe_b", "slope_a", "slope_b", "note")


def derivative(f: FuncExpr, x0, ctx: NumContext) -> Union[Fraction, Decimal]:
    """Slope of f at the standard point x0: st((f(x0 + e) - f(x0))/e).

    For an infinitesimal e that standard part is the e^1 coefficient of
    f(x0 + e), so the fold runs over first-order jets v + d*e with e^2 = 0
    from x0 + 1*e, under the context's arithmetic, and returns d: a
    Fraction in exact mode, a Decimal rounded to prec in float mode.
    Every node is smooth wherever the fold accepts its argument, so there
    is no other outcome.  A jet refuses where f(x0) over hypervalues does,
    with the same error; in exact mode it also refuses a power of ten
    whose exponent moves with x.  A power whose base vanishes at x0 is
    never formed, so x^3000000 at 0 has slope 0.
    """
    try:
        with ctx.arith():
            return _fold(f, _Jet(ctx.coeff(x0), ctx.coeff(1)), _Jets(ctx)).d
    except Overflow as exc:
        raise ResourceLimit(_OVERFLOW) from exc


def _slopes_agree(a, b, ctx: NumContext) -> bool:
    if ctx.mode == "exact":
        return a == b
    with ctx.arith():
        return abs(a - b) <= Decimal(10) ** (-(ctx.prec // 2))


# --------------------------------------------------------------------------
# limits
# --------------------------------------------------------------------------

class SeqLimit(Record):
    """Outcome of reading a sequence off at an infinite index.

    outcome is "converges" (with value), "diverges" (with sign) or
    "indeterminate" (with note); cross_check_agrees is None when no second
    infinite index was read.
    """

    __slots__ = ("outcome", "value", "sign", "cross_check_agrees", "note")
    _defaults = {"value": None, "sign": None, "cross_check_agrees": None, "note": ""}


def limit_seq(
    f: FuncExpr,
    ctx: NumContext,
    probes: ProbeSet | None = None,
) -> SeqLimit:
    """Limit of the sequence n -> f(n), read at an infinite index.

    The value comes from the first infinite probe; the second, when
    present, is evaluated as a consistency check and any disagreement is
    reported in ``cross_check_agrees``.
    """
    probes = probes or ProbeSet.default(ctx)
    point = probes.infinite_points[0]
    try:
        v = eval_star(f, point)
    except HyperError as exc:
        return SeqLimit(outcome="indeterminate", note=str(exc))
    if v.is_finite:
        result = SeqLimit(outcome="converges", value=v.standard_part())
    else:
        result = SeqLimit(outcome="diverges", sign=v.sign())
    if len(probes.infinite_points) < 2:
        return result
    agrees = _cross_check(f, probes.infinite_points[1], result, ctx)
    return SeqLimit(
        outcome=result.outcome,
        value=result.value,
        sign=result.sign,
        cross_check_agrees=agrees,
        note=result.note,
    )


def _cross_check(f, point, result: SeqLimit, ctx: NumContext):
    try:
        v = eval_star(f, point)
    except HyperError:
        return None
    if result.outcome == "converges":
        if not v.is_finite:
            return False
        return _slopes_agree(result.value, v.standard_part(), ctx)
    if result.outcome == "diverges":
        return (not v.is_finite) and v.sign() == result.sign
    return None


# a dataclass still: perfbench/test_oracles.py builds altered copies of
# one with dataclasses.replace
@dataclass(frozen=True)
class FunLimit:
    """Two-sided limit probe of f(x) as x approaches a standard point."""

    outcome: str  # "limit" | "no_limit"
    value: object = None
    witnesses: tuple = ()


def limit_fun(
    f: FuncExpr,
    a,
    ctx: NumContext,
    probes: ProbeSet | None = None,
) -> FunLimit:
    probes = probes or ProbeSet.default(ctx)
    base = ctx.constant(a)
    seen = []
    witnesses = []
    for e in probes.infinitesimals:
        for side in (1, -1):
            point = base + side * e
            label = f"x = {a} {'+' if side > 0 else '-'} ({e})"
            try:
                v = eval_star(f, point)
            except HyperError as exc:
                witnesses.append(f"{label}: evaluation failed ({exc})")
                return FunLimit(outcome="no_limit", witnesses=tuple(witnesses))
            if not v.is_finite:
                witnesses.append(f"{label}: value is infinite (sign {v.sign():+d})")
                return FunLimit(outcome="no_limit", witnesses=tuple(witnesses))
            seen.append((label, v.standard_part()))
    first_label, first = seen[0]
    for label, s in seen[1:]:
        if not _slopes_agree(first, s, ctx):
            witnesses.append(f"{first_label}: {first}")
            witnesses.append(f"{label}: {s}")
            return FunLimit(outcome="no_limit", witnesses=tuple(witnesses))
    return FunLimit(outcome="limit", value=first)


# --------------------------------------------------------------------------
# continuity probes
# --------------------------------------------------------------------------

class ContinuityReport(Record):
    """verdict is "pass", "fail" or "inconclusive"; witness is the probe
    offset that failed or could not be evaluated."""

    __slots__ = ("verdict", "witness", "detail")
    _defaults = {"witness": None, "detail": ""}


def continuity_probe(
    f: FuncExpr,
    x0,
    ctx: NumContext,
    probes: ProbeSet | None = None,
) -> ContinuityReport:
    """Check f(x0 + e) ~ f(x0) for every infinitesimal probe e, both sides.

    A pass is evidence over the probe set, not a proof.
    """
    probes = probes or ProbeSet.default(ctx)
    base_point = ctx.constant(x0)
    try:
        base = eval_star(f, base_point)
    except HyperError as exc:
        return ContinuityReport(
            verdict="inconclusive", detail=f"evaluation failed at x0: {exc}"
        )
    for e in probes.infinitesimals:
        for side in (1, -1):
            probe = side * e
            try:
                v = eval_star(f, base_point + probe)
                same = v.approx_eq(base)
            except HyperError as exc:
                return ContinuityReport(
                    verdict="inconclusive",
                    witness=probe,
                    detail=f"evaluation failed: {exc}",
                )
            if not same:
                gap = v - base
                return ContinuityReport(
                    verdict="fail",
                    witness=probe,
                    detail=f"f(x0 + e) - f(x0) = {gap} is not infinitesimal",
                )
    return ContinuityReport(verdict="pass", detail="all probes landed infinitely close")


class UniformReport(Record):
    """Outcome of the two-point uniform continuity probe.

    verdict is "fail", "pass_all_probes" or "inconclusive"; a failure
    carries the two points, the gap f(y) - f(x) and its standard part.
    """

    __slots__ = ("verdict", "witness_x", "witness_y", "gap", "gap_standard", "note")
    _defaults = {"witness_x": None, "witness_y": None, "gap": None, "gap_standard": None, "note": ""}


_STANDARD_SAMPLES = (0, 1, -1, Fraction(1, 2), 2)


def uniform_continuity_probe(
    f: FuncExpr,
    ctx: NumContext,
    probes: ProbeSet | None = None,
) -> UniformReport:
    """Look for x, y infinitely close with f(x), f(y) not infinitely close.

    Sample points run through a few standard values and then the infinite
    probes; a failure at an infinite point is the classic way uniform
    continuity breaks while plain continuity holds.  A pass verdict only
    says no probe pair separated the function, it is not a proof.
    """
    probes = probes or ProbeSet.default(ctx)
    points = [ctx.constant(s) for s in _STANDARD_SAMPLES]
    points.extend(probes.infinite_points)
    trouble = None
    for x in points:
        fx = None  # f(x) or its HyperError, taken after the first f(x + e)
        for e in probes.infinitesimals:
            y = x + e
            try:
                fy = eval_star(f, y)
                if fx is None:
                    try:
                        fx = eval_star(f, x)
                    except HyperError as exc:
                        fx = exc
                if isinstance(fx, HyperError):
                    raise fx
                gap = fy - fx
            except HyperError as exc:
                trouble = trouble or f"evaluation failed near {x}: {exc}"
                continue
            cls, _ = gap.classify()
            if cls.name != "INFINITESIMAL":
                try:
                    std = gap.standard_part()
                except NotFinite:
                    std = None
                return UniformReport(
                    verdict="fail",
                    witness_x=x,
                    witness_y=y,
                    gap=gap,
                    gap_standard=std,
                    note="points are infinitely close but the values are not",
                )
    if trouble:
        return UniformReport(verdict="inconclusive", note=trouble)
    return UniformReport(
        verdict="pass_all_probes",
        note="no probe pair separated the values; evidence, not a proof",
    )


# --------------------------------------------------------------------------
# extreme value demo
# --------------------------------------------------------------------------

class EvtRow(Record):
    """Grid size n, the first grid point of the maximum and the maximum."""

    __slots__ = ("n", "argmax", "value")


class EvtReport(Record):
    __slots__ = ("rows",)

    def stabilized(self) -> bool:
        if len(self.rows) < 2:
            return True
        return self.rows[-1].argmax == self.rows[-2].argmax


def evt_demo(
    f: FuncExpr,
    ctx: NumContext,
    n: int = 64,
    doublings: int = 3,
) -> EvtReport:
    """Maximum of f over the grid i/n on [0, 1], with grid doubling.

    Arithmetic trees with the exact context evaluate in Fractions, so the
    argmax comparisons are exact; ties keep the first (leftmost) index.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n * 2**doublings > 1_000_000:
        raise ValueError("final grid exceeds 10^6 points")
    exact = ctx.mode == "exact" and is_arithmetic(f)
    rows = []
    m = n
    for _ in range(doublings + 1):
        best_i = 0
        best = None
        for i in range(m + 1):
            t = Fraction(i, m)
            if not exact:
                with ctx.arith():  # the grid point at the context precision
                    t = _to_decimal(t)
            v = eval_real(f, t, ctx)
            if best is None or v > best:
                best, best_i = v, i
        rows.append(EvtRow(n=m, argmax=Fraction(best_i, m), value=best))
        m *= 2
    return EvtReport(rows=tuple(rows))
