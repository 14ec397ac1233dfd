"""Ordered-field arithmetic on truncated generalized power series.

A value is a finite sum of terms c * eps**b * H**a where H is an infinite
unit, eps = 10**(-H) is its reciprocal-exponential infinitesimal, and the
exponents a, b are rationals.  Because eps is exponentially small in H,
eps**b dominates every power of H: the single pair (b, a) fixes a term's
magnitude outright.  Arithmetic keeps at most K terms per value, always
the K largest, and raises a sticky `truncated` flag whenever anything
was dropped.  An inverse is an infinite series cut the same way: its
coefficients come largest key first from the reciprocal recurrence, and
the K leading nonzero ones are kept.  Exact division by a value of two
or more terms feeds the recurrence's int numerators straight into the
product, so only the K terms of the quotient become Fractions.  Order,
floor and standard part are read off the sorted term lists (the first
key where two values differ; infinite terms first, then the unit) and
build no difference or part values.  The flag records only that
something was dropped, not how much: comparisons refuse to certify
equality of flagged values, but they still read the sign of a nonzero
difference from its leading surviving term, and after cancellation that
term can be an artifact of the cut.  (1/(1-eps))*(1-eps) comes out as
1 - eps^16, flagged, and compares LESS than 1.
"""

from __future__ import annotations

import heapq
import math
import sys
from contextlib import nullcontext
from decimal import Context as _DecimalContext
from decimal import Decimal, ROUND_FLOOR, localcontext
from enum import Enum
from fractions import Fraction
from functools import lru_cache, total_ordering
from operator import itemgetter
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
        self._key = (-_whole(Fraction(b)), _whole(Fraction(a)))

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

    def __init__(self, max_terms: int = 16, mode: str = "exact", prec: int = 50) -> None:
        if max_terms < 2:
            raise ValueError("term budget must be at least 2")
        if mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {mode!r}")
        if prec < 10:
            raise ValueError("precision must be at least 10 digits")
        _set_max_terms(self, max_terms)
        _set_mode(self, mode)
        _set_prec(self, prec)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (
                self.max_terms == other.max_terms
                and self.mode == other.mode
                and self.prec == other.prec
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.max_terms, self.mode, self.prec))

    # --- coefficient plumbing ---------------------------------------------
    def coeff(self, v: CoeffLike) -> Coefficient:
        """Coerce v into this context's coefficient type."""
        if self.mode == "exact":
            return v if isinstance(v, Fraction) else Fraction(v)
        if isinstance(v, Decimal) and not v.is_finite():
            raise ValueError(f"non-finite coefficient {v}")
        with self.arith():
            if isinstance(v, Decimal):
                return +v
            if isinstance(v, Fraction):
                return Decimal(v.numerator) / Decimal(v.denominator)
            return +Decimal(v)

    def arith(self):
        """Context manager under which coefficient arithmetic runs."""
        if self.mode == "exact":
            return _EXACT_ARITH
        return localcontext(_decimal_ctx(self.prec))

    # --- constructors -----------------------------------------------------
    def zero(self) -> "HyperValue":
        return HyperValue(ctx=self, terms=(), truncated=False)

    def constant(self, v: CoeffLike) -> "HyperValue":
        cc = self.coeff(v)
        if cc == 0:
            return self.zero()
        return HyperValue(ctx=self, terms=((cc, UNIT_PAIR),), truncated=False)

    def monomial(self, c: CoeffLike, b, a) -> "HyperValue":
        cc = self.coeff(c)
        if cc == 0:
            return self.zero()
        if b.__class__ is int and a.__class__ is int:
            pair = ExponentPair._of((-b, a))
        else:
            pair = ExponentPair(b, a)
        return HyperValue(ctx=self, terms=((cc, pair),), truncated=False)

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
        acc: dict[_Key, Coefficient] = {}
        with self.arith():
            for c, pair in items:
                cc = self.coeff(c)
                key = pair._key
                acc[key] = acc[key] + cc if key in acc else cc
        return _build(self, acc, truncated)


_set_max_terms = NumContext.max_terms.__set__
_set_mode = NumContext.mode.__set__
_set_prec = NumContext.prec.__set__


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


def _numerators(terms) -> tuple[list, int]:
    """Exact terms as (key, int numerator) pairs over one common scale."""
    scale = math.lcm(*[c.denominator for c, _ in terms])
    return [(p._key, c.numerator * (scale // c.denominator)) for c, p in terms], scale


def _build(
    ctx: NumContext,
    acc: dict,
    truncated: bool,
    scale: int | None = None,
) -> "HyperValue":
    """Normalize a key-to-coefficient map: drop zeros, sort by magnitude,
    enforce K.

    The keys are magnitude keys whose whole entries may still be
    Fractions; with a scale the coefficients are int numerators over it.
    Only the K survivors become terms.
    """
    live = sorted(
        ((key, c) for key, c in acc.items() if c != 0),
        key=itemgetter(0),
        reverse=True,
    )
    if len(live) > ctx.max_terms:
        live = live[: ctx.max_terms]
        truncated = True
    terms = tuple(
        (c if scale is None else Fraction(c, scale), ExponentPair._of(_whole_key(key)))
        for key, c in live
    )
    return HyperValue(ctx=ctx, terms=terms, truncated=truncated)


def _product(ctx: NumContext, xs: list, ys: list, truncated: bool, scale=None) -> "HyperValue":
    """The product of two (key, coefficient) lists, cut to K; with a scale
    both hold int numerators over scales whose product it is."""
    acc: dict[_Key, Union[int, Decimal]] = {}
    with ctx.arith():
        for (b1, a1), c1 in xs:
            for (b2, a2), c2 in ys:
                key = (b1 + b2, a1 + a2)
                prod = c1 * c2
                acc[key] = acc[key] + prod if key in acc else prod
    return _build(ctx, acc, truncated, scale)


class HyperValue(Record):
    """An immutable truncated series, terms sorted largest-first.

    Fields: ctx (a NumContext), terms (a tuple of (coefficient,
    ExponentPair) pairs) and truncated (a bool).
    """

    __slots__ = ("ctx", "terms", "truncated")

    def __init__(self, ctx: NumContext, terms: tuple, truncated: bool) -> None:
        _set_ctx(self, ctx)
        _set_terms(self, terms)
        _set_truncated(self, truncated)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (
                (self.ctx is other.ctx or self.ctx == other.ctx)
                and self.terms == other.terms
                and self.truncated == other.truncated
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ctx, self.terms, self.truncated))

    # --- inspection ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or self.terms[0][1]._key <= (0, 0)

    def leading(self) -> tuple[Coefficient, ExponentPair]:
        if not self.terms:
            raise ValueError("zero has no leading term")
        return self.terms[0]

    def sign(self) -> int:
        if not self.terms:
            return 0
        c = self.terms[0][0]
        return 1 if c > 0 else -1

    def coefficient_at(self, pair: ExponentPair) -> Coefficient:
        key = pair._key
        for c, p in self.terms:
            if p._key == key:
                return c
        return self.ctx.coeff(0)

    def infinitesimal_part(self) -> "HyperValue":
        kept = [(c, p) for c, p in self.terms if p.is_infinitesimal]
        return HyperValue(ctx=self.ctx, terms=tuple(kept), truncated=False)

    # --- arithmetic -----------------------------------------------------------
    def _check(self, other: "HyperValue") -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatch(
                f"operands use different contexts: {self.ctx} vs {other.ctx}"
            )

    def _coerce(self, other) -> "HyperValue":
        if isinstance(other, HyperValue):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction, Decimal)):
            return self.ctx.constant(other)
        return NotImplemented

    def __add__(self, other) -> "HyperValue":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        # both term lists are sorted largest-first, so a merge keeps the order
        xs, ys = self.terms, rhs.terms
        nx, ny = len(xs), len(ys)
        out = []
        i = j = 0
        with self.ctx.arith():
            while i < nx and j < ny:
                kx, ky = xs[i][1]._key, ys[j][1]._key
                if kx > ky:
                    out.append(xs[i])
                    i += 1
                elif kx < ky:
                    out.append(ys[j])
                    j += 1
                else:
                    c = xs[i][0] + ys[j][0]
                    if c != 0:
                        out.append((c, xs[i][1]))
                    i += 1
                    j += 1
        out += xs[i:]
        out += ys[j:]
        truncated = self.truncated or rhs.truncated
        if len(out) > self.ctx.max_terms:
            out = out[: self.ctx.max_terms]
            truncated = True
        return HyperValue(ctx=self.ctx, terms=tuple(out), truncated=truncated)

    __radd__ = __add__

    def __neg__(self) -> "HyperValue":
        # Decimal's unary minus rounds under the ambient context, which
        # would silently clip high-precision coefficients; copy_negate is
        # the quiet, exact flip.
        return HyperValue(
            ctx=self.ctx,
            terms=tuple(
                (c.copy_negate() if isinstance(c, Decimal) else -c, pair)
                for c, pair in self.terms
            ),
            truncated=self.truncated,
        )

    def __sub__(self, other) -> "HyperValue":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "HyperValue":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "HyperValue":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        if len(rhs.terms) == 1:
            return self._mul_monomial(rhs)
        if len(self.terms) == 1:
            return rhs._mul_monomial(self)
        # The products run on key tuples, and in exact mode on int
        # numerators over each operand's common denominator.
        truncated = self.truncated or rhs.truncated
        if self.ctx.mode == "exact":
            xs, sx = _numerators(self.terms)
            ys, sy = _numerators(rhs.terms)
            return _product(self.ctx, xs, ys, truncated, sx * sy)
        xs = [(p._key, c) for c, p in self.terms]
        ys = [(p._key, c) for c, p in rhs.terms]
        return _product(self.ctx, xs, ys, truncated)

    __rmul__ = __mul__

    def _mul_monomial(self, m: "HyperValue") -> "HyperValue":
        """self * m for a one-term m: a shift of every key keeps the order,
        so the product needs neither a term map nor a sort; a standard m
        keeps every pair as it is."""
        (cm, pm), = m.terms
        shift = pm._key
        with self.ctx.arith():
            if shift == (0, 0):
                terms = [(c * cm, p) for c, p in self.terms]
            else:
                terms = [
                    (c * cm, ExponentPair._of(_key_sum(p._key, shift)))
                    for c, p in self.terms
                ]
        # no more terms than self, so no K cut; a float product can underflow to 0
        return HyperValue(
            ctx=self.ctx,
            terms=tuple(t for t in terms if t[0] != 0),
            truncated=self.truncated or m.truncated,
        )

    def inv(self) -> "HyperValue":
        """Multiplicative inverse by the power-series reciprocal recurrence.

        A one-term x inverts exactly.  Otherwise the terms are the K that
        _reciprocal gives, with the flag set: Fractions in exact mode;
        float mode rounds each once, to the correctly rounded coefficient
        of the exact series, and drops those that underflow.
        """
        if not self.terms:
            raise DivisionByZero("cannot invert zero")
        ctx = self.ctx
        if len(self.terms) == 1:
            (c0, mu0), = self.terms
            with ctx.arith():
                inv_c0 = ctx.coeff(1) / c0
            return HyperValue(ctx=ctx, terms=((inv_c0, -mu0),), truncated=self.truncated)
        series, c0 = self._reciprocal()
        exact = ctx.mode == "exact"
        terms = []
        with ctx.arith():
            for key, n, qd in series:
                c = Fraction(n * c0.denominator, qd * c0.numerator)  # s / c0
                if not exact:
                    c = ctx.coeff(c)
                    if c == 0:  # underflow
                        continue
                terms.append((c, ExponentPair._of(key)))
        return HyperValue(ctx=ctx, terms=tuple(terms), truncated=True)

    def _reciprocal(self) -> tuple[list, Fraction]:
        """The K leading terms of 1/x = s/c, for x of two or more terms,
        as (key, n, q**d) triples with s_p = n / q**d, and c.

        Writing x = c*mu*(1 + r) with r strictly below unit magnitude,
        the inverse is (1/c)*mu**-1 * s with s = 1/(1 + r).  With
        -r = sum(m_i * X**o_i), every offset o_i below the unit, s obeys
        s_0 = 1 and s_p = sum(m_i * s_(p - o_i)), where each p - o_i lies
        above p.  A heap visits the keys that sums of offsets reach,
        largest first, so each s_p is formed after everything it reads,
        and the walk stops at the K-th nonzero coefficient, or refuses
        after 64*K keys.  Each s_p is an int numerator over q**d, q the
        lcm of the denominators of the m_i, lifted only when it is read.
        Float mode runs the recurrence on the exact values of its Decimal
        coefficients.
        """
        c0, mu0 = self.terms[0]
        # The recurrence runs on magnitude keys scaled by the common
        # denominator of the exponents, so that they are int pairs.
        den = math.lcm(*(x.denominator for _, pair in self.terms for x in pair._key))
        b0, a0 = _scaled_key(mu0._key, den)
        f0 = Fraction(c0)
        offsets = []  # (key of -r's term, below the unit, and its coefficient)
        for c, pair in self.terms[1:]:
            b, a = _scaled_key(pair._key, den)
            offsets.append(((b - b0, a - a0), -Fraction(c) / f0))
        q = math.lcm(*(m.denominator for _, m in offsets))
        steps = [(key, m.numerator * (q // m.denominator)) for key, m in offsets]
        budget = self.ctx.max_terms
        # Keys are negated so that the min-heap pops the largest first.
        # The walk visits at most 64*K keys, those whose coefficient
        # vanishes included, so a sparse series may reach deep keys while
        # the work stays bounded.
        visits = 64 * budget
        heap = [(-b, -a) for (b, a), _ in steps]
        heapq.heapify(heap)
        seen = set(heap)
        pop, push = heapq.heappop, heapq.heappush
        num = {(0, 0): (1, 0)}  # negated key -> (n, d) with s = n / q**d
        found = [(0, 0)]
        qpow = [1, q]
        while len(found) < budget:
            if not visits:
                raise ResourceLimit(
                    f"the inverse series has fewer than {budget} nonzero terms"
                    f" in its first {64 * budget} keys"
                )
            visits -= 1
            key = pop(heap)
            nb, na = key
            total = d = 0
            for (ob, oa), m in steps:
                s = num.get((nb + ob, na + oa))
                if s is None:
                    continue
                n, e = s[0] * m, s[1] + 1  # m * s over q**e; lift the shallower
                if e > d:
                    total *= qpow[e - d]
                    d = e
                elif e < d:
                    n *= qpow[d - e]
                total += n
            if not total:
                continue
            num[key] = (total, d)
            found.append(key)
            qpow.append(qpow[-1] * q)
            # a key whose coefficient vanishes feeds no later key on its own
            for (ob, oa), _ in steps:
                nxt = (nb - ob, na - oa)
                if nxt not in seen:
                    seen.add(nxt)
                    push(heap, nxt)
        out = []
        for nb, na in found:
            n, d = num[(nb, na)]
            b, a = -nb - b0, -na - a0
            key = (b, a) if den == 1 else _whole_key((Fraction(b, den), Fraction(a, den)))
            out.append((key, n, qpow[d]))
        return out, f0

    def __truediv__(self, other) -> "HyperValue":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        if len(rhs.terms) < 2 or self.ctx.mode != "exact":
            return self * rhs.inv()
        # the reciprocal's numerators go straight into the product, over
        # one scale: the deepest q**d times c0
        series, c0 = rhs._reciprocal()
        top = max(qd for _, _, qd in series)
        ys = [(key, n * c0.denominator * (top // qd)) for key, n, qd in series]
        xs, sx = _numerators(self.terms)
        return _product(self.ctx, xs, ys, True, sx * top * c0.numerator)

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
        if len(self.terms) == 1:
            (c, pair), = self.terms
            b, a = pair._key
            with ctx.arith():
                c = _coeff_power(c, k)
            terms = ((c, ExponentPair._of((_whole(b * k), _whole(a * k)))),) if c else ()
            return HyperValue(ctx=ctx, terms=terms, truncated=self.truncated)
        base = self if k > 0 else self.inv()
        k = abs(k)
        if k == 1 or not base.terms:
            return base  # every product of zeros is zero with the same flag
        if ctx.mode == "exact":
            _check_power_bits(base.terms[0][0], k)
            for c, _ in base.terms[1:]:
                _check_power_bits(c, min(k, ctx.max_terms - 1))
            if len(base.terms) == 2:
                return base._pow_binomial(k)
        else:
            wide = NumContext(ctx.max_terms, "float", ctx.prec + len(str(k)) + 2)
            base = HyperValue(ctx=wide, terms=base.terms, truncated=base.truncated)
        out = base
        for bit in bin(k)[3:]:
            out = out * out
            if bit == "1":
                out = out * base
        if out.ctx is ctx:
            return out
        with ctx.arith():
            terms = [(+c, p) for c, p in out.terms]
        return HyperValue(
            ctx=ctx,
            terms=tuple(t for t in terms if t[0] != 0),  # rounding can underflow
            truncated=out.truncated,
        )

    def _pow_binomial(self, k: int) -> "HyperValue":
        """self**k for an exact two-term self = u + w and k >= 2.

        The terms are the K leading C(k, j) * u**(k-j) * w**j, formed on
        int numerators and denominators.  Their keys fall strictly with j,
        so nothing cancels: they are exactly the terms that k-1 products
        keep, and those products cut only when the k+1 terms pass K.
        __pow__ has already checked both coefficient powers against
        _POW_BITS_CAP.
        """
        (cu, pu), (cw, pw) = self.terms
        top = min(k, self.ctx.max_terms - 1)
        nu, du, nw, dw = cu.numerator, cu.denominator, cw.numerator, cw.denominator
        bu, au = pu._key
        sb, sa = pw._key[0] - bu, pw._key[1] - au  # key step from u to w
        bu, au = bu * k, au * k
        # u**(k-j) from j = top down, by products: a long division by u's
        # numerator for each j up would take time quadratic in its size
        ups = [(nu ** (k - top), du ** (k - top))]
        for _ in range(top):
            ups.append((ups[-1][0] * nu, ups[-1][1] * du))
        wn = wd = binom = 1  # w**j and C(k, j)
        terms = []
        for j in range(top + 1):
            if j:
                wn *= nw
                wd *= dw
                binom = binom * (k - j + 1) // j
            un, ud = ups[top - j]
            key = _whole_key((bu + j * sb, au + j * sa))
            terms.append((Fraction(binom * un * wn, ud * wd), ExponentPair._of(key)))
        return HyperValue(
            ctx=self.ctx,
            terms=tuple(terms),
            truncated=self.truncated or k + 1 > self.ctx.max_terms,
        )

    def __abs__(self) -> "HyperValue":
        return -self if self.sign() < 0 else self

    # --- order ------------------------------------------------------------------
    def _first_difference(self, other) -> tuple:
        """other as a HyperValue, and the key and sign (True when positive)
        of the leading term of self - other, or None when it is zero.  The
        term lists are walked largest key first; float mode subtracts at
        an equal key with the rounding that self - other would use."""
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            raise TypeError(f"cannot compare a HyperValue with {type(other).__name__}")
        xs, ys = self.terms, rhs.terms
        i = j = 0
        with self.ctx.arith():
            while i < len(xs) and j < len(ys):
                kx, ky = xs[i][1]._key, ys[j][1]._key
                if kx > ky:
                    return rhs, (kx, xs[i][0] > 0)
                if kx < ky:
                    return rhs, (ky, ys[j][0] < 0)
                c = xs[i][0] - ys[j][0]
                if c != 0:
                    return rhs, (kx, c > 0)
                i, j = i + 1, j + 1
        if i < len(xs):
            return rhs, (xs[i][1]._key, xs[i][0] > 0)
        return rhs, (ys[j][1]._key, ys[j][0] < 0) if j < len(ys) else None

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
        if not self.terms:
            return (Classification.INFINITESIMAL, 0)
        _, pair = self.terms[0]
        if pair.is_infinite:
            kind = Classification.INFINITE
        elif pair.is_unit:
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
        terms = self.terms
        n = 0
        while n < len(terms) and terms[n][1]._key > (0, 0):
            reason = _hyperinteger_obstruction(*terms[n])
            if reason is not None:
                raise FloorUndecidable(reason)
            n += 1
        # then the unit term, if any, and the leading infinitesimal one
        i = n + (n < len(terms) and terms[n][1]._key == (0, 0))
        f = terms[n][0] if i > n else self.ctx.coeff(0)
        tail_sign = 0 if i == len(terms) else (1 if terms[i][0] > 0 else -1)
        if _is_integral(f):
            if tail_sign == 0 and self.truncated:
                raise FloorUndecidable(
                    "integer standard part with a truncated tail of unknown sign"
                )
            q = f if tail_sign >= 0 else _coeff_pred(f)
        else:
            q = _coeff_floor(f)
        if isinstance(q, Decimal) and self.ctx.coeff(q) != q:
            raise FloorUndecidable(
                f"the floor {q} needs more than {self.ctx.prec} digits"
            )
        # at most K terms: with K infinite ones there is no finite part, and q is 0
        return HyperValue(
            ctx=self.ctx,
            terms=terms[:n] + self.ctx.constant(q).terms,
            truncated=self.truncated,
        )

    # --- rendering -----------------------------------------------------------------
    def __str__(self) -> str:
        return format_value(self)

    def __repr__(self) -> str:
        flag = ", truncated" if self.truncated else ""
        return f"<HyperValue {format_value(self)}{flag}>"


_set_ctx = HyperValue.ctx.__set__
_set_terms = HyperValue.terms.__set__
_set_truncated = HyperValue.truncated.__set__


def _check_power_bits(c: Fraction, k: int) -> None:
    """Refuse c**k when k times the bit length of c passes _POW_BITS_CAP;
    a power of 0 or +-1 stays one bit and is never refused."""
    size = max(c.numerator.bit_length(), c.denominator.bit_length())
    bits = k * size
    if size > 1 and bits > _POW_BITS_CAP:
        raise ResourceLimit(
            f"the coefficient of this power would take about {bits} bits,"
            f" past the {_POW_BITS_CAP}-bit cap"
        )


def _coeff_power(c: Coefficient, k: int) -> Coefficient:
    """c**k for an int k, c nonzero when k < 0: an exact c is refused as
    _check_power_bits says; a Decimal is rounded once, under the ambient
    context."""
    if isinstance(c, Fraction):
        _check_power_bits(c, abs(k))
    return c**k


def _hyperinteger_obstruction(c: Coefficient, pair: ExponentPair) -> str | None:
    """Why the infinite term c * pair is not a provable hyperinteger, or None.

    Terms eps**b * H**a with integer b <= 0 and integer a >= 0 are
    products of powers of H and 10**H.  Multiplied by a coefficient
    whose denominator divides a power of ten (when b < 0, the 10**H
    factor absorbs it) they stay integers; anything else would need
    digits of H that the model does not determine.
    """
    minus_b, a = pair._key
    if minus_b.denominator != 1 or a.denominator != 1:
        return f"non-integer exponents {_format_monomial(pair)}"
    if minus_b < 0 or a < 0:
        return f"mixed-scale monomial {_format_monomial(pair)}"
    if minus_b > 0:
        den = _denominator_of(c)
        if den is None or _ten_power(den) is None:
            return f"coefficient {c} not a power-of-ten multiple"
    elif not _is_integral(c):  # pure power of H
        return f"coefficient {c} of a power of H is not an integer"
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
    if isinstance(c, Fraction):
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
    try:
        return str(c)
    except ValueError as exc:  # only the digit limit makes str() of a number fail
        raise ResourceLimit(
            f"a coefficient with more than {sys.get_int_max_str_digits()}"
            " digits is too large to print"
        ) from exc


def _format_monomial(pair: ExponentPair) -> str:
    parts = []
    if pair.b != 0:
        parts.append("eps" if pair.b == 1 else f"eps^{pair.b}")
    if pair.a != 0:
        parts.append("H" if pair.a == 1 else f"H^{pair.a}")
    return "*".join(parts)


def format_value(x: HyperValue) -> str:
    """Canonical text: terms largest-first, e.g. '1 - eps' or '2*H + 1'.

    The printed form re-parses to the same value in the shell language.
    """
    if not x.terms:
        return "0"
    chunks: list[str] = []
    for i, (c, pair) in enumerate(x.terms):
        negative = c < 0
        mag = c.copy_abs() if isinstance(c, Decimal) else abs(c)
        mono = _format_monomial(pair)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{format_coeff(mag)}*{mono}"
        else:
            body = format_coeff(mag)
        if i == 0:
            chunks.append(f"-{body}" if negative else body)
        elif negative:
            chunks.append(f"- {body}")
        else:
            chunks.append(f"+ {body}")
    return " ".join(chunks)


# --- JSON round trip -----------------------------------------------------------------

def to_json(x: HyperValue) -> dict:
    """Serializable dict, terms leading-first; exact mode round-trips bit-for-bit."""
    return {
        "truncated": x.truncated,
        "terms": [
            {"c": format_coeff(c), "b": str(pair.b), "a": str(pair.a)}
            for c, pair in x.terms
        ],
    }


def from_json(ctx: NumContext, data: dict) -> HyperValue:
    terms = []
    for item in data["terms"]:
        if ctx.mode == "exact":
            c: Coefficient = Fraction(item["c"])
        else:
            c = Decimal(item["c"])
        pair = ExponentPair(Fraction(item["b"]), Fraction(item["a"]))
        terms.append((c, pair))
    out = ctx.from_terms(terms, truncated=bool(data["truncated"]))
    return out
