"""The value, node and report classes as immutable slotted records: the
same equality, hash, repr, signatures and refusals a frozen dataclass
gave them, and no dataclass machinery at import."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hyperdec
from hyperdec.errors import ContextMismatch, InvalidScale, PositionOutOfModel
from hyperdec.expr import Command, Token, _tokenize, parse_command, parse_expr
from hyperdec.hypercalc import CheckRow
from hyperdec.hyperfield import HyperValue, NumContext
from hyperdec.lightstone import Position
from hyperdec.microscope import MicroscopeScene
from hyperdec.transfer import (
    Add,
    Const,
    Exp,
    NamedConst,
    PowInt,
    ProbeSet,
    SeqLimit,
    Sub,
    UniformReport,
    Var,
)

CTX = NumContext()

EVERY_NODE = (
    "x + 1/2 - pi*e / (-y)^3 + 10^x + exp(x) + log(x) + sin(x) + cos(x)"
    " + sqrt(x) + H + eps + st(x) + floor(x) + abs(x) + nines(x) + x^y"
    " + lim(n -> inf, 1/n)"
)

# repr(parse_expr(EVERY_NODE)) as the frozen dataclasses printed it
EVERY_NODE_REPR = (
    "Add(left=" * 14
    + "Sub(left=Add(left=Var(name='x'), right=Div(left=Const(value=Fraction(1, 1)),"
    " right=Const(value=Fraction(2, 1)))), right=Div(left=Mul(left=NamedConst(name='pi'),"
    " right=NamedConst(name='e')), right=PowInt(base=Neg(operand=Var(name='y')), power=3))),"
    " right=Pow10(exponent=Var(name='x'))), right=Exp(arg=Var(name='x'))),"
    " right=Log(arg=Var(name='x'))), right=Sin(arg=Var(name='x'))),"
    " right=Cos(arg=Var(name='x'))), right=Sqrt(arg=Var(name='x'))),"
    " right=Unit(name='H')), right=Unit(name='eps')),"
    " right=HyperCall(func='st', arg=Var(name='x'))),"
    " right=HyperCall(func='floor', arg=Var(name='x'))),"
    " right=HyperCall(func='abs', arg=Var(name='x'))),"
    " right=HyperCall(func='nines', arg=Var(name='x'))),"
    " right=Power(base=Var(name='x'), exponent=Var(name='y'))),"
    " right=LimSeq(var='n', body=Div(left=Const(value=Fraction(1, 1)), right=Var(name='n'))))"
)


def test_no_dataclass_is_built_at_import_but_the_two_kept(tmp_path):
    src = str(Path(hyperdec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import dataclasses, sys, hyperdec, hyperdec.cli\n"
        "for name, mod in sorted(sys.modules.items()):\n"
        "    if name == 'hyperdec' or name.startswith('hyperdec.'):\n"
        "        for obj in vars(mod).values():\n"
        "            if (isinstance(obj, type) and obj.__module__ == name\n"
        "                    and dataclasses.is_dataclass(obj)):\n"
        "                print(name, obj.__qualname__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "hyperdec.hypercalc NewtonTrace",
        "hyperdec.transfer FunLimit",
    ]


def test_repr_of_a_tree_of_every_node_kind():
    assert repr(parse_expr(EVERY_NODE)) == EVERY_NODE_REPR
    assert repr(parse_command("x + 1 at x = 2")) == (
        "Command(expr=Add(left=Var(name='x'), right=Const(value=Fraction(1, 1))),"
        " binding=('x', Const(value=Fraction(2, 1))))"
    )
    assert repr(Token("op", "+", 3)) == "Token(kind='op', text='+', pos=3)"


def test_context_repr_in_a_mismatch_message():
    with pytest.raises(ContextMismatch) as info:
        CTX.constant(1) + NumContext(mode="float").constant(1)
    assert str(info.value) == (
        "operands use different contexts: NumContext(max_terms=16, mode='exact',"
        " prec=50) vs NumContext(max_terms=16, mode='float', prec=50)"
    )


def test_report_reprs_list_every_field():
    assert repr(SeqLimit("diverges", sign=-1)) == (
        "SeqLimit(outcome='diverges', value=None, sign=-1,"
        " cross_check_agrees=None, note='')"
    )
    assert repr(Position(2, -5)) == "Position(block=2, offset=-5)"
    assert repr(CheckRow(0, Fraction(1, 2), 0, None, None)) == (
        "CheckRow(n=0, x=Fraction(1, 2), margin_lt1=0, margin_monotone=None,"
        " mvt_margin=None)"
    )


def test_equal_trees_are_equal_and_hash_equal_whatever_their_spans():
    a, b = parse_expr("x + exp(2*x)"), parse_expr("((x)) + (exp((2)*(x)))")
    assert a.span != b.span and a.right.span != b.right.span
    assert a == b and hash(a) == hash(b)
    assert Var(span=(4, 5)) == Var("x") and hash(Var(span=(4, 5))) == hash(Var())
    moved = a.with_span((7, 9))
    assert moved == a and moved.span == (7, 9) and moved.left is a.left
    # equality needs the same class, so Add and Sub differ on equal fields
    x, one = Var(), Const(1)
    assert Add(x, one) != Sub(x, one)
    assert Add(x, one) != (x, one) and Var() != "x"
    assert {Add(x, one): 1}[Add(x, one, span=(0, 5))] == 1


def test_values_contexts_and_tokens_compare_by_fields():
    assert NumContext() == NumContext(16, "exact", 50)
    assert hash(NumContext()) == hash((16, "exact", 50))
    assert NumContext() != NumContext(mode="float") and NumContext() != (16, "exact", 50)
    one = CTX.constant(1)
    assert one == NumContext().constant(1) and hash(one) == hash(NumContext().constant(1))
    assert one != NumContext(mode="float").constant(1)
    assert one != CTX.from_terms(one.terms, truncated=True)
    assert one != 1
    assert _tokenize("x+1") == [Token("name", "x", 0), Token("op", "+", 1),
                                Token("num", "1", 2), Token("end", "", 3)]


@pytest.mark.parametrize("record, field", [
    (Add(Var(), Const(1)), "left"),
    (Add(Var(), Const(1)), "span"),
    (CTX.tau(), "terms"),
    (CTX, "max_terms"),
    (Token("op", "+", 1), "kind"),
    (SeqLimit("converges", 1), "value"),
    (Position(1, 2), "offset"),
    (ProbeSet.default(CTX), "infinitesimals"),
])
def test_fields_cannot_be_assigned_or_deleted(record, field):
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == before


def test_copies_and_pickles_are_equal():
    for record in (parse_expr("x^2 + sin(x)"), CTX.tau() - 1, CTX, Token("op", "+", 1),
                   SeqLimit("converges", Fraction(1, 3)), ProbeSet.default(CTX)):
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert clone == record and repr(clone) == repr(record)


def test_signatures_and_defaults():
    assert Var().name == "x" and Var(span=(1, 2)).span == (1, 2)
    assert Exp(arg=Var()).arg == Var() and PowInt(Var(), power=2).power == 2
    assert Command(Var()).binding is None
    match parse_expr("x - 1"):
        case Sub(Var(name), Const(value)):
            assert (name, value) == ("x", 1)
        case _:
            pytest.fail("positional patterns follow the field order")
    report = UniformReport("inconclusive", note="n")
    assert (report.witness_x, report.gap_standard, report.note) == (None, None, "n")
    assert HyperValue(ctx=CTX, terms=(), truncated=False) == CTX.zero()
    scene = MicroscopeScene(CTX.constant(1), CTX.tau(), ())
    assert (scene.fmt, scene.caption) == ("svg", ())
    with pytest.raises(TypeError):
        SeqLimit()
    with pytest.raises(TypeError):
        SeqLimit("converges", outcome="diverges")
    with pytest.raises(TypeError):
        Var("x", (1, 2))


def test_const_coerces_its_value():
    assert Const(2).value == 2 and type(Const(2).value) is Fraction
    assert Const("1/7").value == Fraction(1, 7)
    assert Const(Fraction(3, 9)).with_span((1, 2)).value == Fraction(1, 3)
    with pytest.raises(ValueError, match="Invalid literal for Fraction: 'abc'"):
        Const("abc")


@pytest.mark.parametrize("build, error, message", [
    (lambda: NamedConst("tau"), ValueError, "unknown constant 'tau'"),
    (lambda: PowInt(Var(), 2.0), ValueError, "power must be a plain integer"),
    (lambda: PowInt(Var(), Fraction(2)), ValueError, "power must be a plain integer"),
    (lambda: ProbeSet((), (CTX.omega(),)), ValueError, "need at least one infinitesimal probe"),
    (lambda: ProbeSet((CTX.tau(),), ()), ValueError, "need at least one infinite probe"),
    (lambda: ProbeSet((CTX.constant(1),), (CTX.omega(),)), ValueError,
     "not a nonzero infinitesimal: 1"),
    (lambda: ProbeSet((CTX.zero(),), (CTX.omega(),)), ValueError,
     "not a nonzero infinitesimal: 0"),
    (lambda: ProbeSet((CTX.omega(),), (CTX.omega(),)), ValueError,
     "not a nonzero infinitesimal: H"),
    (lambda: ProbeSet((CTX.tau(),), (CTX.tau(),)), ValueError, "not an infinite point: eps"),
    (lambda: Position(-1, 0), PositionOutOfModel, "block index must be nonnegative"),
    (lambda: Position(0, 0), PositionOutOfModel,
     "standard positions count fractional places and start at 1"),
    (lambda: MicroscopeScene(CTX.constant(1), CTX.tau(), (), "png"), ValueError,
     "unknown format 'png'"),
    (lambda: MicroscopeScene(CTX.constant(1), -CTX.tau(), ()), InvalidScale,
     "the magnification scale must be positive"),
    (lambda: MicroscopeScene(CTX.constant(1), CTX.zero(), ()), InvalidScale,
     "the magnification scale must be positive"),
    (lambda: NumContext(1), ValueError, "term budget must be at least 2"),
    (lambda: NumContext(mode="fast"), ValueError, "unknown mode 'fast'"),
    (lambda: NumContext(prec=9), ValueError, "precision must be at least 10 digits"),
])
def test_construction_refusals_keep_type_and_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message
