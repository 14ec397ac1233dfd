"""Ordered-field arithmetic on truncated generalized power series.

A value is a finite sum of terms c * eps**b * H**a where H is an infinite
unit, eps = 10**(-H) is its reciprocal-exponential infinitesimal, and the
exponents a, b are rationals.  Because eps is exponentially small in H,
eps**b dominates every power of H: the single pair (b, a) fixes a term's
magnitude outright.  Arithmetic keeps at most K terms per value, always
the K largest, and raises a sticky `truncated` flag whenever anything
was dropped.  A quotient is cut the same way: one walk of the quotient
recurrence gives its coefficients largest key first and keeps the K
leading nonzero ones; when the walk runs dry first, the quotient is
finite and exact, so (1-eps^2)/(1-eps) is 1 + eps, unflagged, while an
inverse never runs dry.  The flag records only that something was
dropped, not how much: comparisons refuse to certify equality of flagged
values, but they still read the sign of a nonzero difference from its
leading surviving term, and after cancellation that term can be an
artifact of the cut.  (1/(1-eps))*(1-eps) comes out as 1 - eps^16,
flagged, and compares LESS than 1.

A value holds a store: its magnitude keys (-b, a), largest first, with
whole entries as ints; in exact mode its int numerators over one
positive denominator, reduced by one gcd, so that the form is unique and
== and hash compare it directly; in float mode its Decimal coefficients.
Every operation reads and writes the store: a sum is one merge over the
lcm of the two denominators, a product and a quotient run on the
numerators, and order, floor and standard part are read off the key
lists (the first key where two values differ; infinite terms first, then
the unit) without building a difference or part value.  The printers,
Lightstone and the power-of-ten rule read it through `_items` (or
`_keys`, when the keys alone will do), and the other modules through
public calls.  `terms`, the (coefficient, ExponentPair) tuple, is only
the view for callers outside the package, built on first read and kept;
the constructor normalizes its terms as `from_terms` does.
"""

from __future__ import annotations

import heapq
import math
import sys
from contextlib import nullcontext
from decimal import Context as _DecimalContext
from decimal import Decimal, InvalidOperation, ROUND_FLOOR, localcontext
from enum import Enum
from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Iterable, Union

from ._record import Record
from .errors import (
    ContextMismatch,
    DivisionByZero,
    FloorUndecidable,
    NotFinite,
    ResourceLimit,
    TruncationAmbiguous,
)

__all__ = [
    "ExponentPair",
    "NumContext",
    "HyperValue",
    "Ordering",
    "Classification",
    "UNIT_PAIR",
    "nines",
    "nines_hyper",
    "to_json",
    "from_json",
]

Coefficient = Union[Fraction, Decimal]
CoeffLike = Union[int, str, Fraction, Decimal]

# Magnitude key (-b, a) of a monomial eps**b * H**a; see ExponentPair.
_Key = tuple[Union[int, Fraction], Union[int, Fraction]]

# Largest exact coefficient, in bits, that a power may build.
_POW_BITS_CAP = 2**22

# 10**j is refused for |j| at or past this cap: 10**4299 still prints
# (4300 digits, Python's default limit for int-to-str), and a larger power
# would take memory and time out of all proportion to the input text.
_POW10_CAP = 4300


def _whole(x: Union[int, Fraction]) -> Union[int, Fraction]:
    """x as an int when it is a whole number, else the Fraction itself."""
    return x.numerator if x.denominator == 1 else x


def _exponent(x) -> Union[int, Fraction]:
    """x as a key entry: an int when it is whole, else a Fraction."""
    if x.__class__ is int:
        return x
    return _whole(x if x.__class__ is Fraction else Fraction(x))


def _whole_key(key: _Key) -> _Key:
    """key with whole entries as ints, as ExponentPair keeps them."""
    b, a = key
    if b.__class__ is int and a.__class__ is int:
        return key
    return (_whole(b), _whole(a))


def _key_sum(p: _Key, q: _Key) -> _Key:
    """Key of the product of the monomials with keys p and q."""
    return _whole_key((p[0] + q[0], p[1] + q[1]))


@total_ordering
class ExponentPair:
    """Exponents (b, a) of a monomial eps**b * H**a.

    Magnitude order: a smaller power of eps always wins; among equal
    eps-powers a larger power of H wins.  (0, 0) is the unit monomial.

    A pair holds only its magnitude key (-b, a), whole exponents as
    ints and the others as Fractions, so that order, equality and
    hashing are tuple operations.  b and a read back as Fractions.
    """

    __slots__ = ("_key",)

    def __init__(self, b, a) -> None:
        self._key = (-_exponent(b), _exponent(a))

    @classmethod
    def _of(cls, key: _Key) -> "ExponentPair":
        """The pair with magnitude key `key` (whole entries already ints)."""
        pair = object.__new__(cls)
        pair._key = key
        return pair

    @property
    def b(self) -> Fraction:
        return Fraction(-self._key[0])

    @property
    def a(self) -> Fraction:
        return Fraction(self._key[1])

    def __repr__(self) -> str:
        return f"ExponentPair(b={self.b!r}, a={self.a!r})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not ExponentPair:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    # --- magnitude order ------------------------------------------------
    def __lt__(self, other: "ExponentPair") -> bool:
        return self._key < other._key

    # --- group structure -------------------------------------------------
    def __add__(self, other: "ExponentPair") -> "ExponentPair":
        return ExponentPair._of(_key_sum(self._key, other._key))

    def __sub__(self, other: "ExponentPair") -> "ExponentPair":
        return ExponentPair._of(_key_sum(self._key, (-other)._key))

    def __neg__(self) -> "ExponentPair":
        b, a = self._key
        return ExponentPair._of((-b, -a))

    # --- classification ---------------------------------------------------
    @property
    def is_unit(self) -> bool:
        return self._key == (0, 0)

    @property
    def is_infinite(self) -> bool:
        return self._key > (0, 0)

    @property
    def is_infinitesimal(self) -> bool:
        return self._key < (0, 0)


UNIT_PAIR = ExponentPair(0, 0)


@lru_cache(maxsize=None)
def _decimal_ctx(prec: int) -> _DecimalContext:
    return _DecimalContext(prec=prec)


# exact coefficient arithmetic needs no decimal context; one reusable
# no-op manager serves every exact-mode operation
_EXACT_ARITH = nullcontext()


class NumContext(Record):
    """Shared numeric policy: term budget K and coefficient arithmetic.

    mode "exact" keeps coefficients as Fractions and never rounds; mode
    "float" works in fixed-precision decimal with prec digits.
    """

    __slots__ = ("max_terms", "mode", "prec")
    _defaults = {"max_terms": 16, "mode": "exact", "prec": 50}

    def _validate(self) -> None:
        if self.max_terms < 2:
            raise ValueError("term budget must be at least 2")
        if self.mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.prec < 10:
            raise ValueError("precision must be at least 10 digits")

    # --- coefficient plumbing ---------------------------------------------
    def coeff(self, v: CoeffLike) -> Coefficient:
        """Coerce v into this context's coefficient type; an infinity or a
        NaN, as a float, a Decimal or a string, is refused in both modes.
        Float mode reads a decimal literal as Decimal does and any other
        string as exact mode does, rounded once."""
        if self.mode == "exact":
            if isinstance(v, Fraction):
                return v
            try:
                return Fraction(v)
            except ZeroDivisionError:  # "n/0"
                raise ValueError(f"Invalid literal for Fraction: {v!r}") from None
            except (OverflowError, ValueError):
                _refuse_non_finite(v)
                raise
        if isinstance(v, Decimal):
            if not v.is_finite():
                raise ValueError(f"non-finite coefficient {v}")
            with self.arith():
                return +v
        with self.arith():
            if isinstance(v, Fraction):
                return Decimal(v.numerator) / Decimal(v.denominator)
            if isinstance(v, int):
                return +Decimal(v)
        try:
            d = Decimal(v)  # a float or a decimal literal, checked as a Decimal
        except InvalidOperation:  # any other string reads as exact mode reads it
            return self.coeff(_EXACT.coeff(v))
        return self.coeff(d)

    def arith(self):
        """Context manager under which coefficient arithmetic runs."""
        if self.mode == "exact":
            return _EXACT_ARITH
        return localcontext(_decimal_ctx(self.prec))

    # --- constructors -----------------------------------------------------
    def zero(self) -> "HyperValue":
        return _make(self, _EXACT_ZERO if self.mode == "exact" else _FLOAT_ZERO, False)

    def constant(self, v: CoeffLike) -> "HyperValue":
        return self.monomial(v, 0, 0)

    def monomial(self, c: CoeffLike, b, a) -> "HyperValue":
        key = (-b, a) if b.__class__ is int and a.__class__ is int else ExponentPair(b, a)._key
        if self.mode == "exact":
            c, den = _ratio(c)
        else:
            c, den = self.coeff(c), None
        if c == 0:
            return self.zero()
        return _make(self, ((key,), (c,), den), False)

    def omega(self, power=1) -> "HyperValue":
        """The infinite unit H (or an integer power of it)."""
        return self.monomial(1, 0, power)

    def tau(self, power=1) -> "HyperValue":
        """The infinitesimal eps = 10**(-H) (or a power of it)."""
        return self.monomial(1, power, 0)

    def from_terms(
        self,
        items: Iterable[tuple[CoeffLike, ExponentPair]],
        truncated: bool = False,
    ) -> "HyperValue":
        if self.mode == "float":
            acc: dict[_Key, Coefficient] = {}
            with self.arith():
                for c, pair in items:
                    cc = self.coeff(c)
                    key = pair._key
                    acc[key] = acc[key] + cc if key in acc else cc
            return _build(self, acc, truncated)
        rows = [(pair._key, *_ratio(c)) for c, pair in items]
        scale = math.lcm(*[d for _, _, d in rows])
        acc = {}
        for key, n, d in rows:
            acc[key] = acc.get(key, 0) + n * (scale // d)
        return _build(self, acc, truncated, scale)


def _ratio(c: CoeffLike) -> tuple[int, int]:
    """An exact coefficient as its numerator and positive denominator."""
    if isinstance(c, (int, Fraction)):
        return c.as_integer_ratio()
    return _EXACT.coeff(c).as_integer_ratio()


def _refuse_non_finite(v) -> None:
    """Refuse v, which Fraction could not read, if it is an infinity or a
    NaN; anything else keeps the caller's error."""
    try:
        d = Decimal(v)
    except ArithmeticError:  # not a number at all
        return
    if not d.is_finite():
        raise ValueError(f"non-finite coefficient {d}") from None


_EXACT = NumContext()  # its coeff reads every coefficient string, in both modes


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class Classification(Enum):
    INFINITESIMAL = "infinitesimal"
    APPRECIABLE = "appreciable"
    INFINITE = "infinite"


def _scaled_key(key: _Key, den: int) -> tuple[int, int]:
    """key times den, as ints; den must clear both exponents' denominators."""
    if den == 1:
        return key
    b, a = key
    return (b.numerator * (den // b.denominator), a.numerator * (den // a.denominator))


# The store of a value is (keys, coefficients, den): its magnitude keys,
# largest first, and in exact mode int numerators over one positive den,
# reduced by one gcd; in float mode Decimal coefficients and den None.
_EXACT_ZERO = ((), (), 1)
_FLOAT_ZERO = ((), (), None)
_new = object.__new__


def _make(ctx: "NumContext", store: tuple, truncated: bool) -> "HyperValue":
    """The value with this store, taken as it is."""
    x = _new(HyperValue)
    _set_ctx(x, ctx)
    _set_store(x, store)
    _set_truncated(x, truncated)
    return x


def _value(ctx: "NumContext", keys, cs, den, truncated: bool) -> "HyperValue":
    """The value with these keys and coefficients: int numerators over
    den > 0, reduced by one gcd, or with den None Decimals, less those
    that underflowed to 0."""
    if den is None:
        if not all(cs):
            live = [i for i, c in enumerate(cs) if c]
            keys, cs = [keys[i] for i in live], [cs[i] for i in live]
    elif den != 1:
        g = math.gcd(den, *cs)
        if g != 1:
            den //= g
            cs = [n // g for n in cs]
    return _make(ctx, (tuple(keys), tuple(cs), den), truncated)


def _build(
    ctx: NumContext,
    acc: dict,
    truncated: bool,
    scale: int | None = None,
) -> "HyperValue":
    """Normalize a key-to-coefficient map: drop zeros, sort by magnitude,
    enforce K.

    The keys are magnitude keys whose whole entries may still be
    Fractions; with a scale (> 0) the coefficients are int numerators
    over it, and the survivors are reduced by one gcd.
    """
    keys = sorted([key for key, c in acc.items() if c], reverse=True)
    if len(keys) > ctx.max_terms:
        del keys[ctx.max_terms:]
        truncated = True
    cs = [acc[key] for key in keys]
    keys = [
        key if key[0].__class__ is int and key[1].__class__ is int else _whole_key(key)
        for key in keys
    ]
    return _value(ctx, keys, cs, scale, truncated)


def _sum(x: "HyperValue", y: "HyperValue", negate: bool) -> "HyperValue":
    """x + y, or x - y when negate, by one merge of the two key lists
    (both largest first, so the merge keeps the order); exact operands
    are first put over the lcm of their denominators."""
    ctx = x.ctx
    xk, xc, dx = x._store
    yk, yc, dy = y._store
    den = dx
    if dx is None:
        if negate:
            # Decimal's unary minus would round; copy_negate is exact
            yc = [c.copy_negate() for c in yc]
    elif dx != dy:
        den = math.lcm(dx, dy)
        mx, my = den // dx, den // dy
        if mx != 1:
            xc = [n * mx for n in xc]
        yc = [n * (-my if negate else my) for n in yc]
    elif negate:
        yc = [-n for n in yc]
    keys, cs = [], []
    put_key, put_c = keys.append, cs.append
    nx, ny = len(xk), len(yk)
    i = j = 0
    with ctx.arith():
        while i < nx and j < ny:
            kx, ky = xk[i], yk[j]
            if kx > ky:
                put_key(kx)
                put_c(xc[i])
                i += 1
            elif kx < ky:
                put_key(ky)
                put_c(yc[j])
                j += 1
            else:
                c = xc[i] + yc[j]
                if c:
                    put_key(kx)
                    put_c(c)
                i += 1
                j += 1
    keys += xk[i:]
    cs += xc[i:]
    keys += yk[j:]
    cs += yc[j:]
    truncated = x.truncated or y.truncated
    if len(keys) > ctx.max_terms:
        del keys[ctx.max_terms:]
        del cs[ctx.max_terms:]
        truncated = True
    return _value(ctx, keys, cs, den, truncated)


class HyperValue(Record):
    """An immutable truncated series, terms sorted largest-first.

    Fields: ctx (a NumContext), terms (a tuple of (coefficient,
    ExponentPair) pairs) and truncated (a bool).  The value holds its
    store (keys, coefficients, den), which every operation and printer
    reads; terms is a view of it, built on first read and kept.
    """

    __slots__ = ("ctx", "_store", "truncated", "_terms")

    def __init__(self, ctx: NumContext, terms: Iterable, truncated: bool) -> None:
        x = ctx.from_terms(terms, truncated)
        _set_ctx(self, ctx)
        _set_store(self, x._store)
        _set_truncated(self, x.truncated)

    @property
    def terms(self) -> tuple:
        """The (coefficient, ExponentPair) pairs, built on first read."""
        try:
            return self._terms
        except AttributeError:
            pass
        terms = tuple([(c, ExponentPair._of(key)) for key, c in _items(self)])
        _set_terms(self, terms)
        return terms

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (
                (self.ctx is other.ctx or self.ctx == other.ctx)
                and self._store == other._store
                and self.truncated == other.truncated
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ctx, self._store, self.truncated))

    def _with_flag(self, truncated: bool) -> "HyperValue":
        """This value with another truncated flag."""
        return _make(self.ctx, self._store, truncated)

    def _coefficient(self, i: int) -> Coefficient:
        """The coefficient of term i, a Fraction in exact mode."""
        _, cs, den = self._store
        return cs[i] if den is None else Fraction(cs[i], den)

    # --- inspection ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self._store[0]

    @property
    def is_finite(self) -> bool:
        keys = self._store[0]
        return not keys or keys[0] <= (0, 0)

    def leading(self) -> tuple[Coefficient, ExponentPair]:
        if not self._store[0]:
            raise ValueError("zero has no leading term")
        return self._coefficient(0), ExponentPair._of(self._store[0][0])

    def sign(self) -> int:
        cs = self._store[1]
        if not cs:
            return 0
        return 1 if cs[0] > 0 else -1

    def coefficient_at(self, pair: ExponentPair) -> Coefficient:
        keys = self._store[0]
        key = pair._key
        if key in keys:
            return self._coefficient(keys.index(key))
        return self.ctx.coeff(0)

    def infinitesimal_part(self) -> "HyperValue":
        keys, cs, den = self._store
        i = 0
        while i < len(keys) and keys[i] >= (0, 0):
            i += 1
        return _value(self.ctx, keys[i:], cs[i:], den, self.truncated)

    # --- arithmetic -----------------------------------------------------------
    def _check(self, other: "HyperValue") -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatch(
                f"operands use different contexts: {self.ctx} vs {other.ctx}"
            )

    def _coerce(self, other) -> "HyperValue":
        if other.__class__ is HyperValue:
            if other.ctx is not self.ctx:
                self._check(other)
            return other
        if isinstance(other, (int, Fraction, Decimal)):
            return self.ctx.constant(other)
        return NotImplemented

    def __add__(self, other) -> "HyperValue":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return _sum(self, rhs, False)

    __radd__ = __add__

    def __neg__(self) -> "HyperValue":
        keys, cs, den = self._store
        if den is None:
            # Decimal's unary minus rounds under the ambient context, which
            # would silently clip high-precision coefficients; copy_negate
            # is the quiet, exact flip.
            cs = tuple([c.copy_negate() for c in cs])
        else:
            cs = tuple([-n for n in cs])
        return _make(self.ctx, (keys, cs, den), self.truncated)

    def __sub__(self, other) -> "HyperValue":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return _sum(self, rhs, True)

    def __rsub__(self, other) -> "HyperValue":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return _sum(rhs, self, True)

    def __mul__(self, other) -> "HyperValue":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        xk, xc, dx = self._store
        yk, yc, dy = rhs._store
        if len(yk) == 1:
            return self._mul_monomial(rhs)
        if len(xk) == 1:
            return rhs._mul_monomial(self)
        ctx = self.ctx
        acc: dict[_Key, Union[int, Decimal]] = {}
        ys = list(zip(yk, yc))
        with ctx.arith():
            for (b1, a1), c1 in zip(xk, xc):
                for (b2, a2), c2 in ys:
                    key = (b1 + b2, a1 + a2)
                    prod = c1 * c2
                    acc[key] = acc[key] + prod if key in acc else prod
        truncated = self.truncated or rhs.truncated
        return _build(ctx, acc, truncated, None if dx is None else dx * dy)

    __rmul__ = __mul__

    def _mul_monomial(self, m: "HyperValue") -> "HyperValue":
        """self * m for a one-term m: a shift of every key keeps the order,
        so the product needs neither a term map nor a sort; a standard m
        keeps every key as it is."""
        keys, cs, den = self._store
        (shift,), (cm,), dm = m._store
        if shift != (0, 0):
            sb, sa = shift
            if sb.__class__ is int and sa.__class__ is int:
                # a fractional entry plus a whole one stays fractional
                keys = tuple([(b + sb, a + sa) for b, a in keys])
            else:
                keys = tuple([_key_sum(key, shift) for key in keys])
        with self.ctx.arith():
            cs = [c * cm for c in cs]
        # no more terms than self, so no K cut; a float product can underflow to 0
        return _value(
            self.ctx, keys, cs, None if den is None else den * dm,
            self.truncated or m.truncated,
        )

    def inv(self) -> "HyperValue":
        """Multiplicative inverse: the quotient walk with the unit as seed.

        A one-term x inverts exactly.  Otherwise the terms are the K that
        _quotient gives, with the flag set, since 1/x never runs dry: exact
        mode keeps them over one denominator; float mode rounds each once,
        to the correctly rounded coefficient of the exact series, and drops
        those that underflow.
        """
        keys, cs, den = self._store
        if not keys:
            raise DivisionByZero("cannot invert zero")
        ctx = self.ctx
        if len(keys) == 1:
            (b, a), = keys
            c, = cs
            if den is None:
                with ctx.arith():
                    store = (((-b, -a),), (ctx.coeff(1) / c,), None)
            else:  # den / c, whose terms are coprime
                store = (((-b, -a),), (den,) if c > 0 else (-den,), abs(c))
            return _make(ctx, store, self.truncated)
        keys, nums, scale, _ = self._quotient(((0, 0),), (1,), 1)
        if den is not None:
            return _value(ctx, keys, nums, scale, True)
        with ctx.arith():
            scale = Decimal(scale)
            cs = [Decimal(n) / scale for n in nums]
        return _value(ctx, keys, cs, None, True)

    def _quotient(self, xk, xc, dx) -> tuple[list, list, int, bool]:
        """The K leading terms of x/self, for self of two or more terms and
        x given as keys and int numerators over dx > 0: their keys, their
        int numerators over one positive denominator, and True when the
        walk ran dry, which makes them the whole quotient.

        Writing self = c*mu*(1 + r) with r strictly below unit magnitude
        and -r = sum(m_i * X**o_i), x/self = (1/c)*mu**-1 * t where
        t_p = x_p + sum(m_i * t_(p - o_i)), each p - o_i above p (Knuth,
        TAOCP vol. 2, 4.7).  A heap seeded with x's keys visits the keys
        that offsets reach from them largest first, so each t_p is formed
        after everything it reads, and a key is nonzero only if it is a
        seed or follows a nonzero key.  The walk stops when the heap
        empties or at the K-th nonzero t_p, or refuses after 64*K keys or
        past _POW_BITS_CAP.  Each t_p is an int numerator over q**d * dx,
        q the lcm of the denominators of the m_i, lifted when it is read.
        Float mode walks the exact values of its Decimal coefficients.
        """
        keys, nums, scale = self._store
        if scale is None:  # the exact values of the Decimals, over one scale
            ratios = [c.as_integer_ratio() for c in nums]
            scale = math.lcm(*[d for _, d in ratios])
            nums = [n * (scale // d) for n, d in ratios]
        # The recurrence runs on magnitude keys scaled by the common
        # denominator of the exponents, so that they are int pairs.
        den = math.lcm(*(e.denominator for key in (*keys, *xk) for e in key))
        b0, a0 = _scaled_key(keys[0], den)
        # m_i = -n_i / n0 over q = |n0| / gcd(n0, n_1, ...), the lcm of
        # their reduced denominators
        n0 = nums[0]
        g = math.gcd(*nums)
        q = abs(n0) // g
        flip = -1 if n0 > 0 else 1
        steps = []  # (key of -r's term, below the unit, and m_i * q)
        for key, n in zip(keys[1:], nums[1:]):
            b, a = _scaled_key(key, den)
            steps.append(((b - b0, a - a0), flip * (n // g)))
        budget = self.ctx.max_terms
        # A numerator d deep takes about d*size bits.  From one seed the
        # offsets reach at most C(D + L, L) keys within depth D, and a
        # one-term x never runs dry: when that is below K, refuse at once.
        size = max(q.bit_length(), *[abs(m).bit_length() for _, m in steps])
        deepest = _POW_BITS_CAP // size
        if len(xk) == 1 and deepest < budget and math.comb(deepest + len(steps), deepest) < budget:
            deepest = -1
        # Keys are negated so that the min-heap pops the largest first.
        # The walk visits at most 64*K keys, those whose coefficient
        # vanishes included, so a sparse series may reach deep keys while
        # the work stays bounded.
        visits = 64 * budget
        seed = {(-b, -a): n for (b, a), n in zip([_scaled_key(key, den) for key in xk], xc)}
        heap = list(seed)
        heapq.heapify(heap)
        seen = set(heap)
        pop, push = heapq.heappop, heapq.heappush
        num = {}  # negated key -> (n, d) with t = n / (q**d * dx)
        found = []
        qpow = [1]
        while heap and len(found) < budget:
            if not visits:
                raise ResourceLimit(
                    f"the quotient series has fewer than {budget} nonzero terms"
                    f" in its first {64 * budget} keys"
                )
            visits -= 1
            key = pop(heap)
            nb, na = key
            total = seed.get(key, 0)
            d = 0
            for (ob, oa), m in steps:
                s = num.get((nb + ob, na + oa))
                if s is None:
                    continue
                n, e = s[0] * m, s[1] + 1  # m * t over q**e; lift the shallower
                if e > d:
                    total *= qpow[e - d]
                    d = e
                elif e < d:
                    n *= qpow[d - e]
                total += n
            if not total:
                continue
            if d > deepest:
                raise ResourceLimit(
                    f"the coefficients of this quotient would pass the {_POW_BITS_CAP}-bit cap"
                )
            num[key] = (total, d)
            found.append(key)
            qpow.append(qpow[-1] * q)
            # a key whose coefficient vanishes feeds no later key on its own
            for (ob, oa), _ in steps:
                nxt = (nb - ob, na - oa)
                if nxt not in seen:
                    seen.add(nxt)
                    push(heap, nxt)
        # t_p / c = n * scale / (q**d * dx * n0), over q**top * dx * |n0|
        top = max([num[key][1] for key in found], default=0)
        lift = scale if n0 > 0 else -scale
        keys, nums = [], []
        for nb, na in found:
            n, d = num[(nb, na)]
            b, a = -nb - b0, -na - a0
            keys.append((b, a) if den == 1 else _whole_key((Fraction(b, den), Fraction(a, den))))
            nums.append(n * lift * qpow[top - d])
        return keys, nums, qpow[top] * dx * abs(n0), not heap

    def __truediv__(self, other) -> "HyperValue":
        """self / other: one _quotient walk for an exact divisor of two or
        more terms, else the product with the inverse."""
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        xk, xc, dx = self._store
        if len(rhs._store[0]) < 2 or dx is None:
            return self * rhs.inv()
        keys, nums, den, dry = rhs._quotient(xk, xc, dx)
        truncated = self.truncated or rhs.truncated or not dry
        return _value(self.ctx, keys, nums, den, truncated)

    def __rtruediv__(self, other) -> "HyperValue":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return rhs / self

    def __pow__(self, k: int) -> "HyperValue":
        """self**k for an int k, by one of three routes picked by the base:

        - one term, k of either sign: the key times k and the coefficient
          from _coeff_power, which a float one can underflow to 0;
        - exact, two terms, k >= 2: the closed form of _pow_binomial;
        - any other base, or its inverse when k < 0: left-to-right binary
          powering through * (Knuth, TAOCP vol. 2, 4.6.3), with the K cut
          at each product.

        An exact base of two or more terms is refused up front when its
        lead coefficient's k-th power, or another's min(k, K-1)-th, passes
        _POW_BITS_CAP.  A float one is powered at len(str(k)) + 2 guard
        digits, and each coefficient is then rounded once.
        """
        if not isinstance(k, int):
            return NotImplemented
        ctx = self.ctx
        if k == 0:
            return ctx.constant(1)
        keys, cs, den = self._store
        if len(keys) == 1:
            (b, a), = keys
            key = (_whole(b * k), _whole(a * k))
            c, = cs
            if den is None:
                with ctx.arith():
                    c = _coeff_power(c, k)
                store = ((key,), (c,), None) if c else _FLOAT_ZERO
            else:  # c / den is in lowest terms, and so is its power
                _check_power_bits(c, den, abs(k))
                n, d = (c**k, den**k) if k > 0 else (den**-k, c**-k)
                store = ((key,), (n,), d) if d > 0 else ((key,), (-n,), -d)
            return _make(ctx, store, self.truncated)
        base = self if k > 0 else self.inv()
        k = abs(k)
        keys, cs, den = base._store
        if k == 1 or not keys:
            return base  # every product of zeros is zero with the same flag
        if den is not None:
            _check_power_bits(*_reduced(cs[0], den), k)
            for n in cs[1:]:
                _check_power_bits(*_reduced(n, den), min(k, ctx.max_terms - 1))
            if len(keys) == 2:
                return base._pow_binomial(k)
        else:
            wide = NumContext(ctx.max_terms, "float", ctx.prec + len(str(k)) + 2)
            base = _make(wide, base._store, base.truncated)
        out = base
        for bit in bin(k)[3:]:
            out = out * out
            if bit == "1":
                out = out * base
        if out.ctx is ctx:
            return out
        keys, cs, _ = out._store
        with ctx.arith():
            cs = [+c for c in cs]  # rounding can underflow
        return _value(ctx, keys, cs, None, out.truncated)

    def _pow_binomial(self, k: int) -> "HyperValue":
        """self**k for an exact two-term self = u + w and k >= 2.

        The terms are the K leading C(k, j) * u**(k-j) * w**j, formed on
        int numerators over du**k * dw**top, du and dw the denominators
        of u and w.  Their keys fall strictly with j, so nothing cancels:
        they are exactly the terms that k-1 products keep, and those
        products cut only when the k+1 terms pass K.  __pow__ has already
        checked both coefficient powers against _POW_BITS_CAP.
        """
        (pu, pw), (cu, cw), den = self._store
        top = min(k, self.ctx.max_terms - 1)
        nu, du = _reduced(cu, den)
        nw, dw = _reduced(cw, den)
        bu, au = pu
        sb, sa = pw[0] - bu, pw[1] - au  # key step from u to w
        bu, au = bu * k, au * k
        # nu**(k-j) from j = top down, and dw**(top-j), by products: a long
        # division by u's numerator for each j up would take time
        # quadratic in its size
        ups = [nu ** (k - top)]
        dws = [1]
        for _ in range(top):
            ups.append(ups[-1] * nu)
            dws.append(dws[-1] * dw)
        wn = binom = 1  # (nw*du)**j and C(k, j)
        step = nw * du
        keys, nums = [], []
        for j in range(top + 1):
            if j:
                wn *= step
                binom = binom * (k - j + 1) // j
            keys.append(_whole_key((bu + j * sb, au + j * sa)))
            nums.append(binom * ups[top - j] * wn * dws[top - j])
        return _value(
            self.ctx, keys, nums, du**k * dws[top],
            self.truncated or k + 1 > self.ctx.max_terms,
        )

    def __abs__(self) -> "HyperValue":
        return -self if self.sign() < 0 else self

    # --- order ------------------------------------------------------------------
    def _first_difference(self, other) -> tuple:
        """other as a HyperValue, and the key and sign (True when positive)
        of the leading term of self - other, or None when it is zero.  The
        key lists are walked largest first; exact mode compares numerators
        across the two denominators, float mode subtracts at an equal key
        with the rounding that self - other would use."""
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            raise TypeError(f"cannot compare a HyperValue with {type(other).__name__}")
        xk, xc, dx = self._store
        yk, yc, dy = rhs._store
        nx, ny = len(xk), len(yk)
        i = j = 0
        with self.ctx.arith():
            while i < nx and j < ny:
                kx, ky = xk[i], yk[j]
                if kx > ky:
                    return rhs, (kx, xc[i] > 0)
                if kx < ky:
                    return rhs, (ky, yc[j] < 0)
                if dx is None:
                    c = xc[i] - yc[j]
                    if c != 0:
                        return rhs, (kx, c > 0)
                else:
                    u, v = xc[i] * dy, yc[j] * dx
                    if u != v:
                        return rhs, (kx, u > v)
                i, j = i + 1, j + 1
        if i < nx:
            return rhs, (xk[i], xc[i] > 0)
        return rhs, (yk[j], yc[j] < 0) if j < ny else None

    def compare(self, other) -> Ordering:
        """Sign of self - other, from the leading surviving term.

        On flagged values that sign is not certified: when the retained
        terms cancel, the leading survivor can be a truncation artifact
        and the answer wrong (the module docstring has an example).  An
        exactly zero difference is only called Equal when neither side
        carries the truncated flag; otherwise equality is refused.
        """
        rhs, first = self._first_difference(other)
        if first is None:
            if self.truncated or rhs.truncated:
                raise TruncationAmbiguous(
                    "difference vanished but a truncated tail could hide either way"
                )
            return Ordering.EQUAL
        return Ordering.GREATER if first[1] else Ordering.LESS

    def __lt__(self, other) -> bool:
        return self.compare(other) is Ordering.LESS

    def __le__(self, other) -> bool:
        return self.compare(other) is not Ordering.GREATER

    def __gt__(self, other) -> bool:
        return self.compare(other) is Ordering.GREATER

    def __ge__(self, other) -> bool:
        return self.compare(other) is not Ordering.LESS

    # --- standard structure ---------------------------------------------------
    def standard_part(self) -> Coefficient:
        """Coefficient of the unit monomial; requires a finite value."""
        if not self.is_finite:
            raise NotFinite("standard part undefined on infinite values")
        return self.coefficient_at(UNIT_PAIR)

    def approx_eq(self, other) -> bool:
        """True when self - other is zero or purely infinitesimal."""
        first = self._first_difference(other)[1]
        return first is None or first[0] < (0, 0)

    def classify(self) -> tuple[Classification, int]:
        """Coarse size class plus sign; zero counts as (infinitesimal, 0)."""
        keys = self._store[0]
        if not keys:
            return (Classification.INFINITESIMAL, 0)
        lead = keys[0]
        if lead > (0, 0):
            kind = Classification.INFINITE
        elif lead == (0, 0):
            kind = Classification.APPRECIABLE
        else:
            kind = Classification.INFINITESIMAL
        return (kind, self.sign())

    # --- floor -----------------------------------------------------------------
    def floor(self) -> "HyperValue":
        """Greatest hyperinteger <= self (within the representable class).

        The infinite part, a prefix of the terms, must already be a
        hyperinteger; the standard and infinitesimal parts then
        contribute an ordinary integer, with the infinitesimal's sign
        breaking the tie at integers.
        """
        keys, cs, den = self._store
        n = 0
        while n < len(keys) and keys[n] > (0, 0):
            reason = _hyperinteger_obstruction(self, n)
            if reason is not None:
                raise FloorUndecidable(reason)
            n += 1
        # then the unit term, if any, and the leading infinitesimal one
        i = n + (n < len(keys) and keys[n] == (0, 0))
        tail_sign = 0 if i == len(keys) else (1 if cs[i] > 0 else -1)
        if den is None:
            f = cs[n] if i > n else self.ctx.coeff(0)
            integral = _is_integral(f)
            q = f if integral else _coeff_floor(f)
        else:  # the standard part's numerator over den
            q, r = divmod(cs[n] if i > n else 0, den)
            integral = not r
        if integral:
            if tail_sign == 0 and self.truncated:
                raise FloorUndecidable(
                    "integer standard part with a truncated tail of unknown sign"
                )
            if tail_sign < 0:
                q = _coeff_pred(q)
        if den is None:
            unit = self.ctx.coeff(q)
            if unit != q:
                raise FloorUndecidable(
                    f"the floor {q} needs more than {self.ctx.prec} digits"
                )
        else:
            unit = q * den
        # at most K terms: with K infinite ones there is no finite part, and q is 0
        keys, cs = keys[:n], cs[:n]
        if unit:
            keys += ((0, 0),)
            cs += (unit,)
        return _value(self.ctx, keys, cs, den, self.truncated)

    # --- rendering -----------------------------------------------------------------
    def __str__(self) -> str:
        return format_value(self)

    def __repr__(self) -> str:
        flag = ", truncated" if self.truncated else ""
        return f"<HyperValue {format_value(self)}{flag}>"


_set_ctx = HyperValue.ctx.__set__
_set_store = HyperValue._store.__set__
_set_truncated = HyperValue.truncated.__set__
_set_terms = HyperValue._terms.__set__
# the fields a caller sees: the store and the kept terms are not among them
HyperValue._fields = HyperValue.__match_args__ = ("ctx", "terms", "truncated")


def _items(x: HyperValue) -> Iterable[tuple[_Key, Coefficient]]:
    """x's (magnitude key, coefficient) pairs, largest first, whole key
    entries as ints: the store's one reader outside the arithmetic.  An
    exact coefficient becomes a Fraction only when its pair is reached."""
    keys, cs, den = x._store
    if den is None:
        return zip(keys, cs)
    return ((key, Fraction(n, den)) for key, n in zip(keys, cs))


def _keys(x: HyperValue) -> tuple:
    """x's magnitude keys, largest first, whole key entries as ints."""
    return x._store[0]


def _reduced(n: int, den: int) -> tuple[int, int]:
    """n / den in lowest terms, den > 0."""
    g = math.gcd(n, den)
    return n // g, den // g


def _check_power_bits(n: int, d: int, k: int) -> None:
    """Refuse (n/d)**k, n/d in lowest terms, when k times its bit length
    passes _POW_BITS_CAP; a power of 0 or +-1 stays one bit and is never
    refused."""
    size = max(n.bit_length(), d.bit_length())
    bits = k * size
    if size > 1 and bits > _POW_BITS_CAP:
        try:
            about = f"about {bits}"
        except ValueError:  # a count past the int-to-str limit
            about = f"more than 10^{sys.get_int_max_str_digits()}"
        raise ResourceLimit(
            f"the coefficient of this power would take {about} bits,"
            f" past the {_POW_BITS_CAP}-bit cap"
        )


def _coeff_power(c: Coefficient, k: int) -> Coefficient:
    """c**k for an int k, c nonzero when k < 0: an exact c is refused as
    _check_power_bits says; a Decimal is Decimal's power under the ambient
    context, rounded once but not always correctly (5.262780317**2 at 10
    digits is 27.69685666, one unit below the 27.69685667 of c*c)."""
    if isinstance(c, Fraction):
        _check_power_bits(c.numerator, c.denominator, abs(k))
    return c**k


def _hyperinteger_obstruction(x: HyperValue, i: int) -> str | None:
    """Why x's infinite term i is not a provable hyperinteger, or None.

    Terms eps**b * H**a with integer b <= 0 and integer a >= 0 are
    products of powers of H and 10**H.  Multiplied by a coefficient
    whose denominator divides a power of ten (when b < 0, the 10**H
    factor absorbs it) they stay integers; anything else would need
    digits of H that the model does not determine.
    """
    keys, cs, den = x._store
    minus_b, a = keys[i]
    if minus_b.denominator != 1 or a.denominator != 1:
        return f"non-integer exponents {_format_monomial(keys[i])}"
    if minus_b < 0 or a < 0:
        return f"mixed-scale monomial {_format_monomial(keys[i])}"
    d = _denominator_of(cs[i]) if den is None else den // math.gcd(cs[i], den)
    if minus_b > 0:
        if d is None or _ten_power(d) is None:
            return f"coefficient {x._coefficient(i)} not a power-of-ten multiple"
    elif d != 1:  # pure power of H
        return f"coefficient {x._coefficient(i)} of a power of H is not an integer"
    return None


def _denominator_of(c: Coefficient) -> int | None:
    if isinstance(c, Fraction):
        return c.denominator
    if isinstance(c, Decimal) and c.is_finite():
        return Fraction(c).denominator
    return None


def _ten_power(den: int) -> int | None:
    """Least u with den dividing 10**u, or None if den has another prime."""
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    return max(twos, fives) if den == 1 else None


def _is_integral(c: Coefficient) -> bool:
    if isinstance(c, Fraction):
        return c.denominator == 1
    return c == c.to_integral_value()


def _coeff_pred(c: Coefficient) -> Coefficient:
    """c - 1 without rounding; a Decimal keeps its exponent (108.0 -> 107.0)."""
    if not isinstance(c, Decimal):
        return c - 1
    digits = max(c.adjusted(), 0) - min(c.as_tuple().exponent, 0) + 2
    return _DecimalContext(prec=digits).subtract(c, 1)


def _coeff_floor(c: Coefficient):
    if isinstance(c, Fraction):
        return math.floor(c)
    return c.to_integral_value(rounding=ROUND_FLOOR)


def nines(ctx: NumContext, n: int) -> HyperValue:
    """0.99...9 with n nines: the constant 1 - 10**(-n)."""
    if n < 0:
        raise ValueError("digit count must be non-negative")
    if n >= _POW10_CAP:
        raise ResourceLimit(f"nines(n) needs n < {_POW10_CAP}; this count is larger")
    return ctx.constant(Fraction(10**n - 1, 10**n))


def nines_hyper(ctx: NumContext) -> HyperValue:
    """The extended string of nines running through the H-th place: 1 - eps."""
    return ctx.constant(1) - ctx.tau()


# --- canonical text form ------------------------------------------------------------

def format_coeff(c: Coefficient) -> str:
    """Text of one coefficient; refuses an integer past Python's int-to-str limit."""
    if isinstance(c, Decimal) and c.is_zero():
        c = c.copy_abs()  # -0 prints as 0
    return _text(c, "a coefficient")


def _text(x, what: str) -> str:
    """str(x), refused with ResourceLimit when an integer in it is past
    Python's int-to-str limit; what names x in the refusal."""
    try:
        return str(x)
    except ValueError as exc:  # only the digit limit makes str() of a number fail
        raise ResourceLimit(
            f"{what} with more than {sys.get_int_max_str_digits()}"
            " digits is too large to print"
        ) from exc


def _read(convert, text: str, what: str):
    """convert(text) for a digit string, refused with ResourceLimit when
    its digits are past Python's str-to-int limit; what names text in
    the refusal."""
    try:
        return convert(text)
    except ValueError as exc:  # only the digit limit fails a digit string
        raise ResourceLimit(
            f"{what} with more than {sys.get_int_max_str_digits()}"
            " digits is too large to read"
        ) from exc


def _format_monomial(key: _Key) -> str:
    """Text of the monomial with magnitude key (-b, a); '' for the unit."""
    minus_b, a = key
    parts = []
    if minus_b != 0:
        parts.append("eps" if minus_b == -1 else f"eps^{-minus_b}")
    if a != 0:
        parts.append("H" if a == 1 else f"H^{a}")
    return "*".join(parts)


def format_value(x: HyperValue) -> str:
    """Canonical text: terms largest-first, e.g. '1 - eps' or '2*H + 1'.

    The printed form re-parses to the same value in the shell language.
    The terms are read off the store one by one, so a coefficient past
    the print limit is refused before the next one is reduced.
    """
    chunks: list[str] = []
    for key, c in _items(x):
        negative = c < 0
        mag = c.copy_abs() if isinstance(c, Decimal) else abs(c)
        mono = _format_monomial(key)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{format_coeff(mag)}*{mono}"
        else:
            body = format_coeff(mag)
        if chunks:
            body = f"- {body}" if negative else f"+ {body}"
        elif negative:
            body = f"-{body}"
        chunks.append(body)
    return " ".join(chunks) if chunks else "0"


# --- JSON round trip -----------------------------------------------------------------

def to_json(x: HyperValue) -> dict:
    """Serializable dict, terms leading-first; exact mode round-trips bit-for-bit."""
    return {
        "truncated": x.truncated,
        "terms": [
            {"c": format_coeff(c), "b": str(-minus_b), "a": str(a)}
            for (minus_b, a), c in _items(x)
        ],
    }


def from_json(ctx: NumContext, data: dict) -> HyperValue:
    kind = Fraction if ctx.mode == "exact" else Decimal
    terms = [(kind(t["c"]), ExponentPair(t["b"], t["a"])) for t in data["terms"]]
    return ctx.from_terms(terms, bool(data["truncated"]))
