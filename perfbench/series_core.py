"""series_core: term-map arithmetic near the term budget, as a library caller uses it.

One op builds a+b, a-b, a*b, a/b, (a/b)*b or a**k from prebuilt operands
and reads compare(result, a), standard_part, classify and floor.
Operands have 1-4 terms with small rational coefficients and integer
exponents |b|, |a| <= 3; divisors have at most 4 terms at K=16 and at
most 3 at K=40.  A float slice (prec 50) uses coefficients with
terminating decimals and no division, so its arithmetic is exact at 50
digits and the same exact oracle judges it; float-mode inverses run in
the calculus workload.

The oracle is the Fraction shadow in shadow.py.  Every result is the
exact ratio P/Q of two finite sums (Q = 1 except for a/b), so each
answer reduces to the sign of a finite sum.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from hyperdec.hyperfield import Classification, HyperValue, NumContext, Ordering

import shadow as sh
from core import PASS, Refused, Verdict, attempt, fail

CTX = {
    ("exact", 16): NumContext(max_terms=16),
    ("exact", 40): NumContext(max_terms=40),
    ("float", 16): NumContext(max_terms=16, mode="float", prec=50),
}

# One cycle of op slots: (expression, mode, K).  Division-heavy at K=16,
# where most results hit the budget; about one slot in ten is float mode.
# A third of the slots add or subtract, so the median op lies on the
# flat stretch of cheap ops and not on the step up to products and
# powers, where a new seed moved latency_p50_ms by 10-15%.
PLAN = (
    [("add", "exact", 16)] * 4 + [("sub", "exact", 16)] * 4
    + [("mul", "exact", 16)] * 3 + [("div", "exact", 16)] * 4
    + [("divmul", "exact", 16)] * 4 + [("pow", "exact", 16)] * 3
    + [("add", "exact", 40)] * 2 + [("sub", "exact", 40)] * 2
    + [("mul", "exact", 40)] * 2 + [("div", "exact", 40)] * 2
    + [("divmul", "exact", 40)] * 2 + [("pow", "exact", 40)] * 2
    + [("add", "float", 16), ("sub", "float", 16),
       ("mul", "float", 16), ("pow", "float", 16)]
)

_EXACT_DENS = (1, 2, 3, 4)
_DECIMAL_DENS = (1, 2, 4, 5, 8)


@dataclass(frozen=True)
class Op:
    expr: str
    mode: str
    k_terms: int
    a: HyperValue
    b: HyperValue | None
    power: int = 0

    @property
    def divisor_terms(self) -> int:
        return len(self.b.terms) if self.expr in ("div", "divmul") else 0


def _shape(pairs) -> str:
    """Where a divisor's other terms sit relative to its lead.

    pairs are the (b, a) exponents of its terms.  "h": only H-powers
    below the lead (same eps-power), "e": only lower eps-powers, "mixed":
    both.  Inverting a mixed divisor grows the series in two directions
    at once; those are the slow tail of inv.
    """
    lead_b = min(b for b, _ in pairs)
    offsets = [b - lead_b for b, _ in pairs]
    same = offsets.count(0) - 1
    if same:
        return "mixed" if same < len(pairs) - 1 else "h"
    return "e"


def _pairs(rng: random.Random, n_terms: int, shape: str | None = None,
           finite: bool | None = None) -> list:
    """n_terms distinct exponent pairs; all finite when finite is True.

    finite=None lets rng choose.
    """
    choose = finite is None
    while True:
        if choose:
            finite = rng.random() < 0.5
        pairs = set()
        while len(pairs) < n_terms:
            b, a = rng.randint(-3, 3), rng.randint(-3, 3)
            if finite and sh.is_infinite((b, a)):
                continue
            pairs.add((b, a))
        if shape is None or _shape(pairs) == shape:
            return sorted(pairs)


def _value(rng: random.Random, ctx: NumContext, pairs, dens) -> HyperValue:
    v = ctx.zero()
    for b, a in pairs:
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(dens))
        v = v + ctx.monomial(c, b, a)
    return v


# The cost of inv depends mostly on where the divisor's terms sit, so
# divisors with two or more terms take their exponents from a fixed
# catalogue of PATTERNS per (term count, shape), entered at a seeded
# offset; every pool then holds nearly the same multiset of divisor
# shapes, and the seed picks the coefficients and the other operand.
PATTERNS = 12
CATALOGUE = {
    (n, shape): [_pairs(random.Random(f"divisor-{n}-{shape}"), n, shape)
                 for _ in range(PATTERNS)]
    for n, shapes in ((2, ("h", "e")), (3, ("h", "e", "mixed")), (4, ("h", "e", "mixed")))
    for shape in shapes
}


# Divisor strata per term budget: (term count, shape) in turn.
DIVISOR_KINDS = {
    16: [(1, None), (2, "h"), (2, "e"), (3, "h"), (3, "e"), (3, "mixed"),
         (4, "h"), (4, "e"), (4, "mixed")],
    40: [(1, None), (2, "h"), (2, "e"), (3, "h"), (3, "e"), (3, "mixed")],
}


def make_inputs(seed: int, count: int) -> list[Op]:
    """count ops; the seed picks coefficients and exponents.

    Within each slot class the first operand's term count cycles 1..4
    and, in step, the divisor kind, the second operand's term count or
    the power cycles through its strata, and so does whether each
    operand may have infinite terms; two seeds give the same mix of
    costs and differ only in the values.
    """
    rng = random.Random(seed)
    ops = []
    order = list(PLAN)
    seen = Counter()
    used = Counter()
    start = {key: rng.randrange(PATTERNS) for key in CATALOGUE}
    while len(ops) < count:
        rng.shuffle(order)
        for slot in order:
            expr, mode, k = slot
            n = seen[slot]
            seen[slot] += 1
            ctx = CTX[(mode, k)]
            dens = _DECIMAL_DENS if mode == "float" else _EXACT_DENS
            a = _value(rng, ctx, _pairs(rng, 1 + n % 4, finite=n // 4 % 2 == 0), dens)
            if expr == "pow":
                ops.append(Op(expr, mode, k, a, None, 2 + n % 5))
                continue
            if expr in ("add", "sub", "mul"):
                pairs = _pairs(rng, 1 + n // 4 % 4, finite=n // 16 % 2 == 0)
            else:
                kinds = DIVISOR_KINDS[k]
                b_terms, shape = kinds[n % len(kinds)]
                if shape is None:
                    pairs = _pairs(rng, b_terms, finite=n // len(kinds) % 2 == 0)
                else:
                    key = (b_terms, shape)
                    pairs = CATALOGUE[key][(used[key] + start[key]) % PATTERNS]
                    used[key] += 1
            ops.append(Op(expr, mode, k, a, _value(rng, ctx, pairs, dens)))
    return ops[:count]


def run_op(op: Op) -> dict:
    a, b = op.a, op.b
    expr = op.expr
    if expr == "add":
        r = attempt(lambda: a + b)
    elif expr == "sub":
        r = attempt(lambda: a - b)
    elif expr == "mul":
        r = attempt(lambda: a * b)
    elif expr == "div":
        r = attempt(lambda: a / b)
    elif expr == "divmul":
        r = attempt(lambda: (a / b) * b)
    else:
        r = attempt(lambda: a ** op.power)
    if isinstance(r, Refused):
        return {"value": r}
    return {
        "value": r,
        "compare": attempt(r.compare, a),
        "st": attempt(r.standard_part),
        "classify": attempt(r.classify),
        "floor": attempt(r.floor),
    }


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------

def truth(op: Op):
    """Exact result as (P, Q) finite sums, value = P / Q."""
    A = sh.from_hyper(op.a.terms)
    B = sh.from_hyper(op.b.terms) if op.b is not None else None
    one = sh.const(1)
    if op.expr == "add":
        return sh.add(A, B), one
    if op.expr == "sub":
        return sh.sub(A, B), one
    if op.expr == "mul":
        return sh.mul(A, B), one
    if op.expr == "div":
        if len(B) == 1:
            (mb, cb), = B.items()
            return sh.scale(sh.shift(A, mb), 1 / cb), one
        return A, B
    if op.expr == "divmul":
        return A, one
    return sh.power(A, op.power), one


def _sign_of_ratio(num, Q) -> int:
    """Sign of num / Q."""
    return sh.sign(num) * sh.sign(Q)


def _hyperinteger_obstruction(x) -> bool:
    """True when the infinite part of x is not a provable hyperinteger."""
    for (b, a), c in x.items():
        if not sh.is_infinite((b, a)):
            continue
        if b > 0 or a < 0:
            return True
        den = c.denominator
        if b < 0:
            for p in (2, 5):
                while den % p == 0:
                    den //= p
        if den != 1:
            return True
    return False


def _is_hyperinteger(x) -> bool:
    return all(
        sh.is_infinite(m) or m == (0, 0) for m in x
    ) and x.get((0, 0), Fraction(0)).denominator == 1 and not _hyperinteger_obstruction(x)


def _expected_st(P, Q):
    """Standard part of P/Q, or None when P/Q is infinite."""
    cq, mq = sh.lead(Q)
    Pn = sh.scale(sh.shift(P, mq), 1 / cq)
    if any(sh.is_infinite(m) for m in Pn):
        return None
    return Pn.get((0, 0), Fraction(0))


def _expected_class(P, Q):
    if not P:
        return (Classification.INFINITESIMAL, 0)
    _, mp = sh.lead(P)
    _, mq = sh.lead(Q)
    m = (mp[0] - mq[0], mp[1] - mq[1])
    if sh.is_infinite(m):
        kind = Classification.INFINITE
    elif m == (0, 0):
        kind = Classification.APPRECIABLE
    else:
        kind = Classification.INFINITESIMAL
    return (kind, _sign_of_ratio(P, Q))


def _contradictions(P, Q, A, ans: dict, truncated: bool) -> list[str]:
    """Notes on the answers of ans that the value P/Q contradicts.

    A typed refusal to compare or floor a truncated value is accepted.
    """
    notes = []
    got = ans["compare"]
    want = _sign_of_ratio(sh.sub(P, sh.mul(A, Q)), Q)
    if isinstance(got, Refused):
        if not truncated:
            notes.append(f"compare refused an untruncated value ({got.error})")
    elif got.value != want:
        notes.append(f"compare to a: got {got.name}, shadow says {Ordering(want).name}")

    want_st = _expected_st(P, Q)
    got = ans["st"]
    if isinstance(got, Refused):
        if want_st is not None:
            notes.append(f"standard part refused ({got.error}) on a finite value")
    elif want_st is None:
        notes.append("standard part given for an infinite value")
    elif Fraction(got) != want_st:
        notes.append(f"standard part {got}, shadow says {want_st}")

    if ans["classify"] != _expected_class(P, Q):
        notes.append(f"classify {ans['classify']}, shadow says {_expected_class(P, Q)}")

    got = ans["floor"]
    if isinstance(got, Refused):
        if not (truncated or Q == sh.const(1) and _hyperinteger_obstruction(P)):
            notes.append(f"floor refused ({got.error}) on a decidable value")
    else:
        F = sh.from_hyper(got.terms)
        below = _sign_of_ratio(sh.sub(P, sh.mul(F, Q)), Q)
        above = _sign_of_ratio(sh.sub(sh.mul(sh.add(F, sh.const(1)), Q), P), Q)
        if not _is_hyperinteger(F) or below < 0 or above <= 0:
            notes.append("floor is not the greatest hyperinteger below the value")
    return notes


def _lead_of_ratio(P, Q):
    """(coefficient, (b, a)) of the leading term of P/Q, or None for zero."""
    if not P:
        return None
    cp, (bp, ap) = sh.lead(P)
    cq, (bq, aq) = sh.lead(Q)
    return cp / cq, (bp - bq, ap - aq)


def check(op: Op, ans: dict) -> Verdict:
    """Judge the answers against the exact result P/Q.

    A failure is the open truncation defect only when the library cut
    the result, the cut series R keeps the leading term of P/Q, and every
    answer is right for R itself: the answers are then faithful to the
    series the library holds, and wrong only because of the cut.  Any
    other failure counts as a failed op.
    """
    P, Q = truth(op)
    r = ans["value"]
    if isinstance(r, Refused):
        return fail(f"{op.expr}: refused to build ({r.error})")
    R = sh.from_hyper(r.terms)
    A = sh.from_hyper(op.a.terms)
    notes = _contradictions(P, Q, A, ans, r.truncated)
    if not r.truncated:
        if sh.mul(R, Q) != P:
            notes.insert(0, "untruncated value differs from the exact result")
        return fail("; ".join(notes)) if notes else PASS
    if not notes:
        return PASS
    R_lead = sh.lead(R) if R else None
    if R_lead != _lead_of_ratio(P, Q):
        notes.append(f"cut series leads with {R_lead}, exact value with {_lead_of_ratio(P, Q)}")
        return fail("; ".join(notes))
    own = _contradictions(R, sh.const(1), A, ans, True)
    if own:
        return fail("; ".join(notes + [f"wrong for the cut series too: {n}" for n in own]))
    return fail("; ".join(notes), truncated=True)


def shape(ops: list[Op]) -> dict:
    """Input shape for the run record."""
    return {
        "ops": len(ops),
        "by_expr": dict(Counter(op.expr for op in ops)),
        "k_split": {f"K{k}": n for k, n in Counter(op.k_terms for op in ops).items()},
        "mode_split": dict(Counter(op.mode for op in ops)),
        "divisor_shapes": dict(Counter(_shape([(p.b, p.a) for _, p in op.b.terms])
                                       for op in ops if op.divisor_terms >= 2)),
        "divisor_terms": {
            f"K{k}": dict(sorted(Counter(
                op.divisor_terms for op in ops
                if op.k_terms == k and op.divisor_terms).items()))
            for k in (16, 40)
        },
        "pow_exponents": dict(sorted(Counter(op.power for op in ops if op.power).items())),
    }

