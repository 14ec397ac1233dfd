"""Finite shadow of hyperdec values, in plain Fractions.

A value is an untruncated finite sum of terms c * eps**b * H**a, held as
a dict {(b, a): Fraction} with integer exponents.  Orderings are decided
by substituting H = N and eps = 10**(-N) for a large N: with N = 10**12
every power of eps sits below every H-polynomial with the coefficients
that occur here, so the shadow groups terms by their eps-power and reads
the sign of the H-polynomial at H = N in the largest non-vanishing
group.  A guard checks that N is large enough for that reading to be the
asymptotic one; if it is not, the shadow raises ShadowTooCoarse rather
than decide.

Nothing here imports hyperdec: the shadow is the independent side of the
series_core oracle.
"""

from __future__ import annotations

from fractions import Fraction

N = 10**12

Laurent = dict  # {(b, a): Fraction}


class ShadowTooCoarse(Exception):
    """N = 10**12 does not dominate the coefficients of a sum."""


def const(c) -> Laurent:
    c = Fraction(c)
    return {(0, 0): c} if c else {}


def add(x: Laurent, y: Laurent) -> Laurent:
    out = dict(x)
    for m, c in y.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def neg(x: Laurent) -> Laurent:
    return {m: -c for m, c in x.items()}


def sub(x: Laurent, y: Laurent) -> Laurent:
    return add(x, neg(y))


def mul(x: Laurent, y: Laurent) -> Laurent:
    out: Laurent = {}
    for (b1, a1), c1 in x.items():
        for (b2, a2), c2 in y.items():
            m = (b1 + b2, a1 + a2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def power(x: Laurent, k: int) -> Laurent:
    out = const(1)
    for _ in range(k):
        out = mul(out, x)
    return out


def _key(m):
    b, a = m
    return (-b, a)


def lead(x: Laurent):
    """(coefficient, (b, a)) of the largest monomial of a nonzero sum."""
    m = max(x, key=_key)
    return x[m], m


def sign(x: Laurent) -> int:
    """Sign of x at H = N, eps = 10**(-N), certified asymptotic."""
    if not x:
        return 0
    b_min = min(b for b, _ in x)
    group = [(a, c) for (b, a), c in x.items() if b == b_min]
    a_top = max(a for a, _ in group)
    # value of the group at H = N, scaled by N**-a_top to stay exact
    top = sum(c for a, c in group if a == a_top)
    rest = sum(abs(c) * Fraction(N) ** (a - a_top) for a, c in group if a != a_top)
    value = top + sum(c * Fraction(N) ** (a - a_top) for a, c in group if a != a_top)
    if top == 0 or abs(top) <= rest:
        raise ShadowTooCoarse(f"N = 10**12 does not dominate {sorted(x.items())}")
    return 1 if value > 0 else -1


def is_infinite(m) -> bool:
    b, a = m
    return b < 0 or (b == 0 and a > 0)


def shift(x: Laurent, m) -> Laurent:
    """x divided by the monomial m."""
    b0, a0 = m
    return {(b - b0, a - a0): c for (b, a), c in x.items()}


def scale(x: Laurent, c) -> Laurent:
    c = Fraction(c)
    return {m: v * c for m, v in x.items()} if c else {}


def from_hyper(terms) -> Laurent:
    """Shadow of a hyperdec term tuple ((c, ExponentPair), ...), exactly."""
    out: Laurent = {}
    for c, pair in terms:
        m = (int(pair.b), int(pair.a))
        if m != (pair.b, pair.a):
            raise ValueError(f"non-integer exponents {pair}")
        out[m] = out.get(m, 0) + Fraction(c)
    return {m: c for m, c in out.items() if c}
