"""Shared pieces of the workloads: typed refusals, oracle verdicts, polynomials."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from hyperdec.errors import HyperError


@dataclass(frozen=True)
class Refused:
    """A typed HyperError the library raised instead of answering."""

    error: str
    message: str


def attempt(fn, *args):
    """fn(*args), or Refused when the library raises a typed refusal.

    Any other exception propagates: the run loop counts it as a failed op.
    """
    try:
        return fn(*args)
    except HyperError as exc:
        return Refused(type(exc).__name__, str(exc))


@dataclass(frozen=True)
class Verdict:
    """Oracle outcome for one op.

    ok is False when the oracle contradicts an answer.  truncation_defect
    marks the open truncation defect of the roadmap: the library cut the
    value, and its answers are right for the cut series but wrong for the
    exact value.  Any other failure makes the run incorrect.
    """

    ok: bool
    note: str = ""
    truncation_defect: bool = False


PASS = Verdict(True)


def fail(note: str, truncated: bool = False) -> Verdict:
    return Verdict(False, note, truncated)


def coeffs(rng, max_den: int, degree: int) -> list:
    """degree + 1 small rational coefficients, low degree first, top one nonzero."""
    cs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, max_den)) for _ in range(degree + 1)]
    if cs[-1] == 0:
        cs[-1] = Fraction(1)
    return cs


def horner(coeffs, x: Fraction) -> Fraction:
    """Polynomial with coefficients low degree first, at x, in Fractions."""
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out
