"""Lifting real functions of one variable onto the truncated series field.

An expression tree built from the constructors below describes a real
function f.  One fold walks the tree for every number type: ``eval_star``
over hypervalues, ``eval_real`` and ``evt_demo`` over one scalar backend
(Fractions for arithmetic trees at rational points, else Decimals).
Every backend is bound to a NumContext and enters through its ``fold``,
which runs the walk under the context's arithmetic and is the one
boundary where a float result past the decimal exponent range, or a
tree nested past the interpreter's recursion limit, is refused with
ResourceLimit.  The fold recurses once per nesting level; every other
check of a tree (``is_arithmetic``, ``expr.to_function``) goes through
``FuncExpr.walk``, which keeps its own stack.  The backend supplies the rest: the point, the variable,
rational and named constants, the zero check on divisors, powers (an
exact one under the bit cap HyperValue keeps), powers of ten, the
elementary functions and any other node.  ``expr`` parses to these
trees and evaluates them with this same fold.

Over hypervalues the elementary functions (exp, log, sin, cos, sqrt)
expand as a Taylor series about the standard part of their argument, so
an argument ``s + delta`` with delta infinitesimal evaluates to

    sum_{k < K} g_k(s) * delta**k

where ``g_k = g^(k)/k!`` and K is the context's term budget.  One
coefficient stream serves both modes: only g(s) depends on the mode (a
rational value or a refusal in exact mode, the Decimal function in float
mode), and one recurrence per g gives the rest.  One loop of products
of delta sums the series for every increment.  The series remainder is
what the sticky ``truncated`` flag reports.

A limit is read at one point per side, as the generic limit of Cornu
and Tall: the limit of f at a standard a is the standard part of
f(a + eps), which must match that of f(a - eps), and a sequence's limit
is the standard part of its value at an infinite index.  The uniform
continuity probe steps from a few standard and infinite points by the
two infinitesimal scales eps and 1/H.  Slopes need one point too: the
standard part of (f(x0 + e) - f(x0))/e is the e^1 coefficient of
f(x0 + e), so one fold over first-order jets v + d*e with e^2 = 0, in
the context's coefficient type, gives f(x0) and the slope together;
each elementary function contributes the first two coefficients of the
Taylor stream above.  ``derivative`` reads the slope off that jet, and hypercalc's
Newton steps read both parts of it.
"""

import math
from dataclasses import dataclass
from decimal import Decimal, Overflow, getcontext, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Union

from ._record import Record
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
    _POW10_CAP,
    _coeff_power,
    _decimal_ctx,
    _items,
)


# --------------------------------------------------------------------------
# expression trees
# --------------------------------------------------------------------------

class FuncExpr(Record):
    """Base class for expression nodes.

    Every node but Const declares only its ``__slots__``, and a
    ``_validate`` if it checks a field: this one constructor takes the
    fields positionally or by keyword and runs ``_validate``.  span is the
    (start, end) character range of the node in the text it was parsed
    from, a keyword-only argument of every node kept for error messages
    and left out of equality, hash and repr.
    """

    __slots__ = ("span",)
    _hidden = ("span",)

    def __init__(self, *args, span: tuple = (0, 0), **kwargs) -> None:
        _set_span(self, span)
        if kwargs or len(args) != len(self._setters):
            # keywords, defaults and arity errors
            Record.__init__(self, *args, **kwargs)
            return
        for setter, value in zip(self._setters, args):
            setter(self, value)
        self._validate()

    def with_span(self, span: tuple) -> "FuncExpr":
        """This node with another source span."""
        return self.__class__(*self._astuple(), span=span)

    def walk(self):
        """The nodes of this tree, parents first and left to right.

        The walk keeps its own stack, so a tree of any depth walks
        without recursion.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            for field in reversed(node._fields):
                value = getattr(node, field)
                if isinstance(value, FuncExpr):
                    stack.append(value)


_set_span = FuncExpr.span.__set__


class _Named(FuncExpr):
    """A node that holds one name."""

    __slots__ = ("name",)


class Var(_Named):
    __slots__ = ()
    _defaults = {"name": "x"}


class Const(FuncExpr):
    __slots__ = ("value",)

    def __init__(self, value, *, span: tuple = (0, 0)) -> None:
        _set_value(self, Fraction(value))
        _set_span(self, span)


_set_value = Const.value.__set__


class NamedConst(_Named):
    """One of the built-in constants: pi, e, ln10."""

    __slots__ = ()

    def _validate(self) -> None:
        if self.name not in ("pi", "e", "ln10"):
            raise ValueError(f"unknown constant {self.name!r}")


class Neg(FuncExpr):
    __slots__ = ("operand",)


class _Binary(FuncExpr):
    """A node with two operands: Add, Sub, Mul and Div."""

    __slots__ = ("left", "right")


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

    def _validate(self) -> None:
        if not isinstance(self.power, int):
            raise ValueError("power must be a plain integer")


class Pow10(FuncExpr):
    """10 raised to a subexpression.

    Evaluation only accepts exponents of the shape k*H + j with k, j
    integers; the result is then the exact monomial 10**j * eps**(-k).
    """

    __slots__ = ("exponent",)


class _Elementary(FuncExpr):
    """An elementary function of one argument: Exp, Log, Sin, Cos, Sqrt."""

    __slots__ = ("arg",)


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


_ARITHMETIC = {Var, Const, Neg, Add, Sub, Mul, Div, PowInt}


def is_arithmetic(f: FuncExpr) -> bool:
    """True when f uses only field operations and rational constants."""
    return all(node.__class__ in _ARITHMETIC for node in f.walk())


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


# g(v) of each elementary g in Decimal, under the current context
_DECIMAL_ELEMENTARY = {
    "exp": Decimal.exp,
    "log": Decimal.ln,
    "sqrt": Decimal.sqrt,
    "sin": _dec_sin,
    "cos": _dec_cos,
}


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
# Taylor lifting
# --------------------------------------------------------------------------

# exact mode, for each g but sqrt: the one standard part where g has a
# rational value, that value, and where the refusal says g is irrational
_RATIONAL_AT = {
    "exp": (0, Fraction(1), "at a nonzero standard part"),
    "sin": (0, Fraction(0), "away from 0"),
    "cos": (0, Fraction(1), "away from 0"),
    "log": (1, Fraction(0), "at a standard part other than 1"),
}
# 1 in each mode's coefficient type, where the recurrences start s**k
_ONE = {"exact": Fraction(1), "float": Decimal(1)}


def _value(kind: str, s, ctx: NumContext):
    """g(s) in the context's coefficient type: float mode reads the
    Decimal functions eval_real uses, exact mode gives the rational value
    or refuses with ExactTranscendental."""
    if ctx.mode == "float":
        return _DECIMAL_ELEMENTARY[kind](s)
    if kind == "sqrt":
        n, d = math.isqrt(s.numerator), math.isqrt(s.denominator)
        if n * n != s.numerator or d * d != s.denominator:
            raise ExactTranscendental(f"sqrt({s}) is irrational; use float mode")
        return Fraction(n, d)
    at, value, where = _RATIONAL_AT[kind]
    if s != at:
        raise ExactTranscendental(
            f"{kind} {where} has no rational value; use float mode"
        )
    return value


def _taylor(kind: str, s, count: int, ctx: NumContext) -> list:
    """The Taylor stream g_k(s) = g^(k)(s)/k!, k < count, of an elementary g.

    Only g(s) depends on the mode (see _value); one recurrence per g runs
    on the context's coefficient type, under its arithmetic, which the
    caller sets.  log and sqrt refuse a standard part s <= 0.
    """
    if kind in ("log", "sqrt") and s <= 0:
        raise DomainError(f"{kind} needs a positive standard part")
    g = _value(kind, s, ctx)
    if kind == "exp":
        return [g / math.factorial(k) for k in range(count)]
    if kind in ("sin", "cos"):
        # derivatives of sin and cos repeat with period 4
        h = _value("cos" if kind == "sin" else "sin", s, ctx)
        cycle = (g, h, -g, -h) if kind == "sin" else (g, -h, -g, h)
        return [cycle[k % 4] / math.factorial(k) for k in range(count)]
    p = _ONE[ctx.mode]  # s**k
    if kind == "log":
        out = [g]
        for k in range(1, count):
            p *= s
            out.append((1 if k % 2 else -1) / (k * p))
        return out
    out = []  # sqrt: g_k = (1/2 choose k) * g / s**k
    for k in range(count):
        c = _half_binomial(k)
        out.append(g * c.numerator / (c.denominator * p))
        p *= s
    return out


def _apply_elementary(kind: str, u: HyperValue) -> HyperValue:
    """g(u) for an elementary g, by its Taylor series about s = st(u).

    With delta = u - s the value is sum_{k < K} g_k(s) * delta**k: the
    coefficients come from _taylor, rounded under the context's
    arithmetic, and the powers of delta from repeated products, for
    every delta.  The loop stops once the power is zero, after the
    constant term for a zero delta or where a float power underflows.
    The result is flagged when the sum or u is, or when delta is
    nonzero: the series remainder.
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
    with ctx.arith():
        coeffs = _taylor(kind, s, ctx.max_terms, ctx)
    acc = ctx.zero()
    power = ctx.constant(1)
    for k, c in enumerate(coeffs):
        if k:
            power = power * delta
            if power.is_zero:
                break
        if c:
            acc = acc + power * c
    flag = acc.truncated or u.truncated or not delta.is_zero
    return acc._with_flag(flag)


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
    k, j = Fraction(0), ctx.coeff(0)
    for key, c in _items(w):
        if key == (0, 1):
            k = Fraction(c)
        elif key == (0, 0):
            j = c
        elif key > (0, 0):
            raise DomainError(
                "pow10 exponent must have the shape k*H + finite; "
                f"found a term at eps^{-key[0]}*H^{key[1]}"
            )
    if k.denominator != 1:
        raise DomainError("pow10 needs an integer coefficient on H")
    tail = w.infinitesimal_part()
    with ctx.arith():
        scale = _ten_to(ctx, j, tail.is_zero)
        grid = ctx.monomial(scale, -int(k), 0)
        if tail.is_zero:
            return grid
        ln10 = ctx.constant(_named_value(ctx, "ln10"))
    return grid * _apply_elementary("exp", tail * ln10)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def _fold(f: FuncExpr, x, num):
    """Value of f in the number type of `num`.

    The walk and the field operations are shared; `num` is one of the
    backends below and supplies what depends on the number type: a Var
    is num.var(f, x), which is x itself for a function, and a node the
    walk does not know goes to num.other(f, x).  Callers enter through
    num.fold, which sets the arithmetic and the Overflow boundary.
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
        return num.power(num.divisor(base) if f.power < 0 else base, f.power)
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


# the refusal of a tree too deep to walk: the fold, and expr's parser,
# recurse per nesting level
_TOO_DEEP = "the expression nests too deeply to evaluate"


class _Backend:
    """A number type for _fold, bound to one context; fold is the entry.

    The defaults: the point enters as it is and is every Var; a divisor
    passes as it is (a hypervalue or a jet refuses zero itself); a named
    constant is lifted by const; a power is base**k; a node the walk
    does not know is refused.
    """

    var = staticmethod(lambda f, x: x)
    point = divisor = staticmethod(lambda x: x)

    def __init__(self, ctx: NumContext):
        self.ctx = ctx

    def named(self, name: str):
        return self.const(_named_value(self.ctx, name))

    @staticmethod
    def power(base, k: int):
        return base**k

    @staticmethod
    def other(f: FuncExpr, x):
        raise TypeError(f"cannot evaluate {type(f).__name__}")

    def fold(self, f: FuncExpr, x):
        """f at x, brought into this number type by self.point; a float
        result past the decimal exponent range and a tree deeper than the
        interpreter's recursion limit are refused."""
        try:
            with self.ctx.arith():
                return _fold(f, self.point(x), self)
        except Overflow as exc:
            raise ResourceLimit(
                "a float result overflows the decimal exponent range"
            ) from exc
        except RecursionError as exc:
            raise ResourceLimit(_TOO_DEEP) from exc


class _Scalars(_Backend):
    """Standard-point values: Fractions in an exact context, which gets
    only arithmetic trees (see eval_real), Decimals rounded to prec in a
    float one.  The point and each constant enter through ctx.coeff."""

    def __init__(self, ctx: NumContext):
        super().__init__(ctx)
        self.point = self.const = ctx.coeff

    power = staticmethod(_coeff_power)

    @staticmethod
    def divisor(d):
        if d == 0:
            raise DomainError("division by zero at a sample point")
        return d

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


@lru_cache(maxsize=64)
def _scalars(ctx: NumContext, exact: bool) -> _Scalars:
    """The scalar backend at ctx's term budget and precision, exact or float."""
    mode = "exact" if exact else "float"
    return _Scalars(NumContext(max_terms=ctx.max_terms, mode=mode, prec=ctx.prec))


class _Hypers(_Backend):
    """Hypervalues in one context; transcendental pieces go by Taylor."""

    def const(self, c) -> HyperValue:
        return self.ctx.constant(c)

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
        w = _coeff_power(v, k)
        if not v:  # k > 0: d(v**k) = k * v**(k-1) * dv is dv or 0
            return _Jet(w, self.d if k == 1 else w)
        return _Jet(w, k * w / v * self.d)


class _Jets(_Backend):
    """First-order jets in one context, entered at x0 + 1*e; a hook
    refuses where the hypervalue backend refuses at a standard point, with
    the same error, and an elementary g takes [g(v), g'(v)] from the
    Taylor stream."""

    def __init__(self, ctx: NumContext):
        super().__init__(ctx)
        self.zero = ctx.coeff(0)

    def point(self, x0) -> _Jet:
        return _Jet(self.ctx.coeff(x0), self.ctx.coeff(1))

    def const(self, c) -> _Jet:
        return _Jet(self.ctx.coeff(c), self.zero)

    def pow10(self, j: _Jet) -> _Jet:
        # an exponent that moves with x is refused in exact mode
        w = _ten_to(self.ctx, j.v, not j.d)
        if not j.d:
            return _Jet(w, self.zero)
        return _Jet(w, w * _named_value(self.ctx, "ln10") * j.d)

    def elementary(self, kind: str, j: _Jet) -> _Jet:
        g, slope = _taylor(kind, j.v, 2, self.ctx)
        return _Jet(g, slope * j.d)


def eval_star(f: FuncExpr, x: HyperValue) -> HyperValue:
    """Evaluate the lifted function at a hypervalue.

    Every Var node binds to x; the model is single-variable.
    """
    return _Hypers(x.ctx).fold(f, x)


def eval_real(f: FuncExpr, x, ctx: NumContext):
    """Evaluate f at a standard point.

    A Fraction argument with an arithmetic-only tree stays exact;
    everything else runs in Decimal under the context precision, in
    either mode, from x rounded once to that precision.
    """
    return _scalars(ctx, isinstance(x, Fraction) and is_arithmetic(f)).fold(f, x)


# --------------------------------------------------------------------------
# probe points
# --------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _probe_points(ctx: NumContext) -> tuple:
    """(infinitesimals, infinite_points), built once per context:
    (eps, 1/H), the two infinitesimal scales the continuity probe steps
    by, and (H, H^2, 1/eps), its infinite sample points.

    Order matters: the first witnesses found follow probe order, and the
    first two infinite points are the index a sequence limit is read at
    and its cross-check.
    """
    return (
        (ctx.tau(), ctx.omega(-1)),
        (ctx.omega(), ctx.omega(2), ctx.tau(-1)),
    )


# --------------------------------------------------------------------------
# slope at a point
# --------------------------------------------------------------------------

# nothing here returns it; kept for the probe oracle in the tests and
# for perfbench/calculus.py, which name it
class NoDerivative(Record):
    """Witness that the probe slopes did not settle on one value."""

    __slots__ = ("probe_a", "probe_b", "slope_a", "slope_b", "note")


def _jet(f: FuncExpr, x0, ctx: NumContext) -> _Jet:
    """f(x0 + e) over first-order jets: f(x0) and the slope in one fold.

    The fold runs from x0 + 1*e under the context's arithmetic: Fractions
    in exact mode, Decimals rounded to prec in float mode.  Every node is
    smooth wherever the fold accepts its argument.  A jet refuses where
    f(x0) over hypervalues does, with the same error; in exact mode it
    also refuses a power of ten whose exponent moves with x.  A power
    whose base vanishes at x0 is never formed, so x^3000000 at 0 has
    slope 0.
    """
    return _Jets(ctx).fold(f, x0)


def derivative(f: FuncExpr, x0, ctx: NumContext) -> Union[Fraction, Decimal]:
    """Slope of f at the standard point x0: st((f(x0 + e) - f(x0))/e).

    For an infinitesimal e that standard part is the e^1 coefficient of
    f(x0 + e): the slope part of the jet _jet(f, x0, ctx), which refuses
    as that jet does.  hypercalc's Newton steps share the same jet for
    f(x_n) and f'(x_n).
    """
    return _jet(f, x0, ctx).d


# --------------------------------------------------------------------------
# limits
# --------------------------------------------------------------------------

def _values_agree(a, b, ctx: NumContext) -> bool:
    # standard limit values: equal in exact mode, within half the
    # working precision in float mode
    if ctx.mode == "exact":
        return a == b
    with ctx.arith():
        return abs(a - b) <= Decimal(10) ** (-(ctx.prec // 2))


class SeqLimit(Record):
    """Outcome of reading a sequence off at an infinite index.

    outcome is "converges" (with value), "diverges" (with sign) or
    "indeterminate" (with note, the text of the refusal at the index);
    cross_check_agrees is None when the second infinite index was not
    read or could not be evaluated.  An expression's lim(...) makes no
    report: it is st(body(H)), one eval_star, which refuses as it does.
    """

    __slots__ = ("outcome", "value", "sign", "cross_check_agrees", "note")
    _defaults = {"value": None, "sign": None, "cross_check_agrees": None, "note": ""}


def limit_seq(f: FuncExpr, ctx: NumContext) -> SeqLimit:
    """Limit of the sequence n -> f(n), read at an infinite index.

    The value comes from the first infinite probe point; the second is
    evaluated as a consistency check and any disagreement is reported in
    ``cross_check_agrees``.
    """
    first, second = _probe_points(ctx)[1][:2]
    try:
        v = eval_star(f, first)
    except HyperError as exc:
        return SeqLimit(outcome="indeterminate", note=str(exc))
    if v.is_finite:
        value, sign = v.standard_part(), None
    else:
        value, sign = None, v.sign()
    return SeqLimit(
        outcome="converges" if sign is None else "diverges",
        value=value,
        sign=sign,
        cross_check_agrees=_cross_check(f, second, value, sign, ctx),
    )


def _cross_check(f, point, value, sign, ctx: NumContext):
    # None when f cannot be evaluated at the second point
    try:
        v = eval_star(f, point)
    except HyperError:
        return None
    if sign is None:
        return v.is_finite and _values_agree(value, v.standard_part(), ctx)
    return (not v.is_finite) and v.sign() == sign


# a dataclass still: perfbench/test_oracles.py builds altered copies of
# one with dataclasses.replace
@dataclass(frozen=True)
class FunLimit:
    """Two-sided limit probe of f(x) as x approaches a standard point."""

    outcome: str  # "limit" | "no_limit" | "indeterminate" (a probe point refused)
    value: object = None
    witnesses: tuple = ()


def limit_fun(f: FuncExpr, a, ctx: NumContext) -> FunLimit:
    """Two-sided limit of f at a: the standard part of f at a + eps,
    which that at a - eps must match.  A refusal at either point is no
    verdict, an infinite value is no limit."""
    base, eps = ctx.constant(a), ctx.tau()
    seen = []
    for side in (1, -1):
        label = f"x = {a} {'+' if side > 0 else '-'} ({eps})"
        try:
            v = eval_star(f, base + side * eps)
        except HyperError as exc:
            witness = f"{label}: evaluation failed ({exc})"
            return FunLimit(outcome="indeterminate", witnesses=(witness,))
        if not v.is_finite:
            witness = f"{label}: value is infinite (sign {v.sign():+d})"
            return FunLimit(outcome="no_limit", witnesses=(witness,))
        seen.append((label, v.standard_part()))
    (right_label, right), (left_label, left) = seen
    if not _values_agree(right, left, ctx):
        witnesses = (f"{right_label}: {right}", f"{left_label}: {left}")
        return FunLimit(outcome="no_limit", witnesses=witnesses)
    return FunLimit(outcome="limit", value=right)


# --------------------------------------------------------------------------
# uniform continuity probe
# --------------------------------------------------------------------------

class UniformReport(Record):
    """Outcome of the two-point uniform continuity probe.

    verdict is "fail", "pass_all_probes" or "inconclusive"; a failure
    carries the two points, the gap f(y) - f(x) and its standard part.
    """

    __slots__ = ("verdict", "witness_x", "witness_y", "gap", "gap_standard", "note")
    _defaults = {"witness_x": None, "witness_y": None, "gap": None, "gap_standard": None, "note": ""}


_STANDARD_SAMPLES = (0, 1, -1, Fraction(1, 2), 2)


def uniform_continuity_probe(f: FuncExpr, ctx: NumContext) -> UniformReport:
    """Look for x, y infinitely close with f(x), f(y) not infinitely close.

    Sample points run through a few standard values and then the infinite
    probes, and from each point x the probe steps to x + eps and x + 1/H;
    a failure at an infinite point is the classic way uniform continuity
    breaks while plain continuity holds.  A pass verdict only says no
    probe pair separated the function, it is not a proof.
    """
    infinitesimals, infinite_points = _probe_points(ctx)
    points = [ctx.constant(s) for s in _STANDARD_SAMPLES]
    points.extend(infinite_points)
    trouble = None
    for x in points:
        fx = None  # f(x) or its HyperError, taken after the first f(x + e)
        for e in infinitesimals:
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
    # one backend for every grid point; a float one rounds each to prec
    num = _scalars(ctx, ctx.mode == "exact" and is_arithmetic(f))
    rows = []
    values = []
    m = n
    for _ in range(doublings + 1):
        # an even point i/m is (i/2)/(m/2), already folded on the coarser grid
        values = [
            values[i // 2] if values and not i % 2 else num.fold(f, Fraction(i, m))
            for i in range(m + 1)
        ]
        best_i = max(range(m + 1), key=values.__getitem__)  # the first on ties
        rows.append(EvtRow(n=m, argmax=Fraction(best_i, m), value=values[best_i]))
        m *= 2
    return EvtReport(rows=tuple(rows))
