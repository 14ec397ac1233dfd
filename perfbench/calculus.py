"""calculus: non-standard calculus through transfer and hypercalc.

Values have few terms and truncation comes mostly from Taylor lifting,
unlike series_core.  Exact Newton on 1 - 1/x^2 sets the tail: its digits
double every step.

Oracles, outside the timed region: symbolic_derivative plus eval_real
for slopes; the exact limit known from the construction plus eval_real
at n = 10**6 for limits; the per-step invariants of the climbing Newton
iteration (every iterate below 1, strictly increasing, no display of
1.000000) for newton_trace and theorem_check.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import hyperdec.hypercalc as HC
import hyperdec.transfer as T
from hyperdec.hyperfield import NumContext

from core import PASS, Refused, Verdict, attempt, coeffs, fail, horner

EXACT = NumContext()
FLOAT = NumContext(mode="float", prec=50)

DERIV_FLOAT_TOL = Fraction(1, 10**20)   # probe slope against the symbolic slope
LIMIT_TOL = Fraction(1, 1000)         # limit against the n = 10**6 sample
NEWTON_PREC = 50
NEWTON_STARTS = (Fraction(3, 10), Fraction(1, 2), Fraction(9, 10))
_COPRIME_TO_100 = [k for k in range(41, 96) if k % 2 and k % 5]

# One cycle of op slots.  Newton and theorem_check are one op in five, so
# the p90 latency falls among them.  What sets an op's cost follows its
# kind's slot counter, not the seed: polynomial degrees, the denominator
# degree of a sequence, the elementary function of a float slope, the
# Newton start and the exact Newton step count (2..5) rotate in turn.
# Exact starts are k/100 with k coprime to 100, so their digits grow alike.
PLAN = (
    ["deriv_poly"] * 4 + ["deriv_rational"] * 2 + ["deriv_float"] * 3
    + ["limit_seq"] * 3 + ["limit_fun"] * 2 + ["uniform_probe"] * 2
    + ["newton_float", "theorem_float", "newton_exact", "theorem_exact"]
)

_ELEMENTARY = (
    ("exp", T.Exp, (-2, 2)),
    ("log", T.Log, (Fraction(1, 10), 5)),
    ("sin", T.Sin, (-3, 3)),
    ("sqrt", T.Sqrt, (Fraction(1, 10), 9)),
    ("pow10", T.Pow10, (-1, 1)),
)


@dataclass(frozen=True)
class Op:
    kind: str
    f: object                 # transfer.FuncExpr
    x0: Fraction | None = None
    steps: int = 0
    want: object = None       # exact limit, divergence sign, or verdict
    label: str = ""


def _poly(coeffs) -> T.FuncExpr:
    x = T.Var()
    f = T.Const(Fraction(coeffs[0]))
    for k, c in enumerate(coeffs[1:], start=1):
        if c:
            f = T.Add(f, T.Mul(T.Const(Fraction(c)), T.PowInt(x, k) if k > 1 else x))
    return f


def _rational_point(rng: random.Random, lo, hi) -> Fraction:
    while True:
        q = rng.randrange(1, 11)
        x = Fraction(rng.randrange(int(lo * q) - 1, int(hi * q) + 2), q)
        if lo <= x <= hi:
            return x


def _make(kind: str, rng: random.Random, slot: int) -> Op:
    """One op of the given kind; slot counts earlier ops of that kind."""
    x = T.Var()
    if kind == "deriv_poly":
        return Op(kind, _poly(coeffs(rng, 8, 1 + slot % 6)),
                  Fraction(rng.randrange(-30, 31), rng.randrange(1, 11)))
    if kind == "deriv_rational":
        num, den = coeffs(rng, 8, slot % 4), coeffs(rng, 8, 1 + slot % 2)
        while True:
            x0 = Fraction(rng.randrange(-30, 31), rng.randrange(1, 11))
            if horner(den, x0) != 0:
                return Op(kind, T.Div(_poly(num), _poly(den)), x0)
    if kind == "deriv_float":
        name, ctor, (lo, hi) = _ELEMENTARY[slot % len(_ELEMENTARY)]
        return Op(kind, ctor(x), _rational_point(rng, lo, hi), label=name)
    if kind == "limit_seq":
        dp, dq = rng.randrange(0, 4), slot % 4
        num, den = coeffs(rng, 8, dp), coeffs(rng, 8, dq)
        den[-1] = abs(den[-1])
        if dp < dq:
            want = ("converges", Fraction(0))
        elif dp == dq:
            want = ("converges", num[-1] / den[-1])
        else:
            want = ("diverges", 1 if num[-1] > 0 else -1)
        return Op(kind, T.Div(_poly(num), _poly(den)), want=want, label=f"{dp}/{dq}")
    if kind == "limit_fun":
        a = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        g = coeffs(rng, 8, slot % 3)
        # numerator (x - a) * g(x), expanded, over (x - a)
        num = [Fraction(0)] * (len(g) + 1)
        for k, c in enumerate(g):
            num[k] -= a * c
            num[k + 1] += c
        return Op(kind, T.Div(_poly(num), T.Sub(x, T.Const(a))), a, want=horner(g, a))
    if kind == "uniform_probe":
        degree = 1 + slot % 3
        verdict = "pass_all_probes" if degree == 1 else "fail"
        return Op(kind, _poly(coeffs(rng, 8, degree)), want=verdict)
    if kind in ("newton_float", "theorem_float"):
        return Op(kind, T.Log(x), NEWTON_STARTS[slot % len(NEWTON_STARTS)], steps=10)
    # exact Newton on 1 - 1/x^2, concave increasing with its root at 1
    f = T.Sub(T.Const(Fraction(1)), T.Div(T.Const(Fraction(1)), T.PowInt(x, 2)))
    return Op(kind, f, Fraction(rng.choice(_COPRIME_TO_100), 100), steps=2 + slot % 4)


def make_inputs(seed: int, count: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    order = list(PLAN)
    seen = Counter()
    while len(ops) < count:
        rng.shuffle(order)
        for kind in order:
            ops.append(_make(kind, rng, seen[kind]))
            seen[kind] += 1
    return ops[:count]


def run_op(op: Op):
    kind = op.kind
    if kind in ("deriv_poly", "deriv_rational"):
        return attempt(T.derivative, op.f, op.x0, EXACT)
    if kind == "deriv_float":
        return attempt(T.derivative, op.f, op.x0, FLOAT)
    if kind == "limit_seq":
        return attempt(T.limit_seq, op.f, EXACT)
    if kind == "limit_fun":
        return attempt(T.limit_fun, op.f, op.x0, EXACT)
    if kind == "uniform_probe":
        return attempt(T.uniform_continuity_probe, op.f, EXACT)
    if kind.startswith("newton"):
        return attempt(HC.newton_trace, op.f, op.x0, op.steps, NEWTON_PREC)
    return attempt(HC.theorem_check, op.f, op.x0, op.steps, NEWTON_PREC)


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------

def _newton_invariants(trace, exact: bool, steps: int) -> str:
    xs = trace.iterates
    if any(not x < 1 for x in xs):
        return "an iterate reached 1"
    if any(not b > a for a, b in zip(xs, xs[1:])):
        return "iterates are not strictly increasing"
    if "1.000000" in trace.displays:
        return "the display showed 1.000000"
    if exact and len(xs) != 1 + steps:
        return "exact iteration stopped early"
    if not exact and (trace.all_nines_from is None
                      or trace.displays[trace.all_nines_from] != "0.999999"):
        return "the display never settled on 0.999999"
    return ""


def check(op: Op, ans) -> Verdict:
    if isinstance(ans, Refused):
        return fail(f"{op.kind}: refused ({ans.error}: {ans.message})")
    kind = op.kind
    if kind in ("deriv_poly", "deriv_rational"):
        want = T.eval_real(T.symbolic_derivative(op.f), op.x0, EXACT)
        if isinstance(ans, T.NoDerivative) or ans != want:
            return fail(f"slope {ans} at {op.x0}, symbolic slope {want}")
        return PASS
    if kind == "deriv_float":
        want = T.eval_real(T.symbolic_derivative(op.f), op.x0, FLOAT)
        if isinstance(ans, T.NoDerivative) or abs(Fraction(ans) - Fraction(want)) > DERIV_FLOAT_TOL:
            return fail(f"{op.label} slope {ans} at {op.x0}, symbolic slope {want}")
        return PASS
    if kind == "limit_seq":
        sample = T.eval_real(op.f, Fraction(10**6), EXACT)
        outcome, want = op.want
        if outcome == "diverges":
            if ans.outcome != outcome or ans.sign != want or (sample > 0) != (want > 0):
                return fail(f"sequence {op.label} should diverge with sign {want}: {ans}")
            return PASS
        if (ans.outcome != outcome or not ans.cross_check_agrees
                or Fraction(ans.value) != want or abs(want - sample) >= LIMIT_TOL):
            return fail(f"sequence {op.label} should converge to {want}: {ans}")
        return PASS
    if kind == "limit_fun":
        near = T.eval_real(op.f, op.x0 + Fraction(1, 10**6), EXACT)
        if ans.outcome != "limit" or ans.value != op.want or abs(near - op.want) >= LIMIT_TOL:
            return fail(f"limit at {op.x0} should be {op.want}: {ans}")
        return PASS
    if kind == "uniform_probe":
        if ans.verdict != op.want:
            return fail(f"uniform probe verdict {ans.verdict}, expected {op.want}")
        if ans.verdict == "fail":
            gap = ans.witness_y - ans.witness_x
            if gap.is_zero or not all(p.is_infinitesimal for _, p in gap.terms):
                return fail("uniform probe witnesses are not infinitely close")
        return PASS
    exact = kind.endswith("exact")
    if kind.startswith("newton"):
        note = _newton_invariants(ans, exact, op.steps)
    else:
        note = _newton_invariants(ans.trace, exact, op.steps)
        if not note and any(row.margin_lt1 <= 0 for row in ans.rows):
            note = "theorem_check reported a nonpositive gap to 1"
    return fail(f"{kind} from {op.x0}: {note}") if note else PASS


def shape(ops: list[Op]) -> dict:
    return {
        "ops": len(ops),
        "by_kind": dict(Counter(op.kind for op in ops)),
        "mode_split": {
            "float": sum(op.kind in ("deriv_float", "newton_float", "theorem_float") for op in ops),
            "exact": sum(op.kind not in ("deriv_float", "newton_float", "theorem_float")
                         for op in ops),
        },
        "float_derivative_functions": dict(Counter(op.label for op in ops
                                                   if op.kind == "deriv_float")),
        "newton_exact_steps": dict(sorted(Counter(
            op.steps for op in ops if op.kind in ("newton_exact", "theorem_exact")).items())),
        "newton_float_steps": dict(sorted(Counter(
            op.steps for op in ops if op.kind in ("newton_float", "theorem_float")).items())),
    }
