"""Expression language tests: parsing to function trees, printing,
evaluation, and the check that a tree is a one-variable function."""

import ast
import functools
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hyperdec import transfer
from hyperdec.cli import run_cli
from hyperdec.errors import (
    DivisionByZero,
    DomainError,
    ExactTranscendental,
    HyperError,
    ParseError,
    ResourceLimit,
    UnknownIdentifier,
)
from hyperdec.expr import (
    Command,
    HyperCall,
    LimSeq,
    Power,
    Unit,
    eval_command,
    evaluate,
    parse_command,
    parse_expr,
    print_command,
    print_expr,
    to_function,
)
from hyperdec.hypercalc import newton_trace, theorem_check
from hyperdec.hyperfield import NumContext, nines_hyper
from hyperdec.transfer import (
    Add,
    Const,
    Div,
    Exp,
    Mul,
    NamedConst,
    Neg,
    Pow10,
    PowInt,
    Sub,
    Var,
)

CTX = NumContext()


def ev(src, ctx=CTX):
    return eval_command(parse_command(src), ctx)


# ---------------------------------------------------------------- parsing

def test_basic_values():
    assert ev("1 - eps") == CTX.constant(1) - CTX.tau()
    assert ev("nines(4)") == CTX.constant(Fraction(9999, 10000))
    assert ev("nines(H)") == nines_hyper(CTX)
    # eps^-1 is 10^H, a much larger infinite number than H itself
    assert ev("eps^-1") == CTX.monomial(1, -1, 0)
    assert ev("eps^-1") == ev("10^H")
    assert ev("eps^-1") != CTX.omega()
    assert CTX.omega() < ev("eps^-1")
    assert ev("10^(2*H + 3)") == CTX.monomial(1000, -2, 0)
    assert ev("2.5*H^2") == CTX.monomial(Fraction(5, 2), 0, 2)


def test_precedence():
    assert ev("2^3^2") == CTX.constant(512)      # right associative
    assert ev("-2^2") == CTX.constant(-4)        # minus binds looser
    assert ev("2^-3") == CTX.constant(Fraction(1, 8))
    assert ev("2 + 3*4") == CTX.constant(14)
    assert ev("(2 + 3)*4") == CTX.constant(20)
    assert ev("8/4/2") == CTX.constant(1)        # left associative
    assert ev("8 - 4 - 2") == CTX.constant(2)


def test_at_binding():
    got = ev("st((x^2 - 1)/(x - 1)) at x = 1 - eps")
    assert got == CTX.constant(2)


def test_binding_can_reference_builtins():
    got = ev("x + eps at x = 2*H")
    assert got == 2 * CTX.omega() + CTX.tau()


def test_calls():
    assert ev("st(3/2 + eps)") == CTX.constant(Fraction(3, 2))
    assert ev("floor(7/2)") == CTX.constant(3)
    assert ev("abs(1 - H) - (H - 1)").is_zero
    assert ev("lim(n -> inf, n/(n+1)) + 1") == CTX.constant(2)


def test_embedded_diverging_limit_refuses():
    for body, sign in (("n^2", "+"), ("-n^2", "-")):
        with pytest.raises(DomainError) as info:
            ev(f"lim(n -> inf, {body})")
        assert str(info.value) == f"limit does not converge (diverges to {sign}infinity)"


def test_embedded_limit_keeps_the_refusal_at_the_infinite_index():
    with pytest.raises(DivisionByZero, match="^cannot invert zero$"):
        ev("lim(n -> inf, 1/(n-n))")


def test_elementary_through_star_map():
    v = ev("exp(eps)")
    # leading coefficients of the series about 0
    assert v.terms[0][0] == 1
    assert v.truncated


def test_pi_needs_float_mode():
    with pytest.raises(ExactTranscendental):
        ev("pi + 1")
    fctx = NumContext(mode="float", prec=30)
    v = ev("pi + 1", fctx)
    s = v.standard_part()
    assert str(s).startswith("4.141592653589793")


def test_parse_errors_carry_spans():
    with pytest.raises(ParseError) as info:
        parse_expr("1 + * 2")
    assert info.value.span is not None
    with pytest.raises(UnknownIdentifier) as info:
        ev("2 * wobble")
    assert info.value.span == (4, 10)
    with pytest.raises(ParseError):
        parse_expr("st(1, 2) +")
    with pytest.raises(ParseError):
        ev("st(1, 2)")          # arity
    with pytest.raises(ParseError):
        parse_expr("lim(n -> somewhere, n)")
    with pytest.raises(ParseError):
        parse_expr("(1 + 2")
    with pytest.raises(ParseError):
        parse_expr("")


def test_fractional_exponent_rejected():
    with pytest.raises(DomainError):
        ev("2^(1/2)")
    # value-level exponents only need to be integers, so x^x at an
    # integer point is fine; the function tree form is what rejects it
    assert ev("x^x at x = 2") == CTX.constant(4)
    with pytest.raises(DomainError):
        ev("x^x at x = 1/2")
    with pytest.raises(DomainError):
        to_function(parse_expr("x^x"))


# ---------------------------------------------------------------- printing

ROUND_TRIP_CORPUS = [
    "1 - eps",
    "nines(H)",
    "st((x^2 - 1)/(x - 1)) at x = 1 - eps",
    "2^3^2",
    "-2^2",
    "2^-3",
    "1/2/3",
    "1 - 2 - 3",
    "1 - (2 - 3)",
    "a*(b + c)",
    "-(a + b)*c",
    "10^(2*H + 3)",
    "lim(n -> inf, n/(n+1))",
    "exp(sin(x) + 1.5)",
    "3.25*eps^2*H",
    "floor(H/2) - 3",
    "(x + 1)^4",
    "x^2 - x^-2",
]


def test_print_parse_round_trip_corpus():
    for src in ROUND_TRIP_CORPUS:
        tree = parse_command(src)
        printed = print_command(tree)
        assert parse_command(printed) == tree, (src, printed)


ELEMENTARY_NODES = {name: node for node, name in transfer._ELEMENTARY.items()}


def _power(base, exponent):
    # the node the parser builds for base^exponent
    if base == Const(10):
        return Pow10(exponent)
    sign, literal = (-1, exponent.operand) if isinstance(exponent, Neg) else (1, exponent)
    if isinstance(literal, Const) and literal.value.denominator == 1:
        return PowInt(base, sign * int(literal.value))
    return Power(base, exponent)


def _random_node(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            num = Fraction(rng.randrange(0, 500), rng.choice([1, 2, 4, 5, 10, 100]))
            return Const(num)
        name = rng.choice(["x", "H", "eps", "n", "y", "pi"])
        if name in ("H", "eps"):
            return Unit(name)
        return NamedConst(name) if name == "pi" else Var(name)
    pick = rng.random()
    if pick < 0.55:
        op = rng.choice([Add, Sub, Mul, Div, _power])
        return op(_random_node(rng, depth - 1), _random_node(rng, depth - 1))
    if pick < 0.7:
        return Neg(_random_node(rng, depth - 1))
    func = rng.choice(["st", "floor", "abs", "exp", "log", "sin", "cos", "sqrt"])
    arg = _random_node(rng, depth - 1)
    if func in ("st", "floor", "abs"):
        return HyperCall(func, arg)
    return ELEMENTARY_NODES[func](arg)


def test_print_parse_round_trip_random_trees():
    rng = random.Random(4242)
    for _ in range(80):
        tree = _random_node(rng, 4)
        printed = print_expr(tree)
        assert parse_expr(printed) == tree, printed


# ---------------------------------------------------------------- functions

def test_to_function_builds_transfer_trees():
    f = to_function(parse_expr("x^2 - x^-2"))
    assert f == transfer.Sub(
        transfer.PowInt(transfer.Var(), 2), transfer.PowInt(transfer.Var(), -2)
    )
    g = to_function(parse_expr("10^x"))
    assert g == transfer.Pow10(transfer.Var())
    h = to_function(parse_expr("exp(pi*x)"))
    assert h == transfer.Exp(
        transfer.Mul(transfer.NamedConst("pi"), transfer.Var())
    )


def test_to_function_uses_requested_variable():
    f = to_function(parse_expr("n/(n+1)"), var="n")
    assert transfer.eval_real(f, Fraction(3), CTX) == Fraction(3, 4)


def test_to_function_rejections():
    for src in ["st(x)", "floor(x)", "abs(x)", "nines(x)", "x + eps",
                "H*x", "lim(n -> inf, n)"]:
        with pytest.raises(DomainError):
            to_function(parse_expr(src))
    with pytest.raises(UnknownIdentifier):
        to_function(parse_expr("x + y"))


def test_function_pipeline_derivative():
    f = to_function(parse_expr("x^3"))
    assert transfer.derivative(f, Fraction(2), CTX) == Fraction(12)


# ---------------------------------------------------------------- one tree

def test_parser_builds_function_trees():
    assert parse_expr("-(x + 1)*2") == Mul(Neg(Add(Var("x"), Const(1))), Const(2))
    assert parse_expr("x^-2 - 10^y") == Sub(PowInt(Var("x"), -2), Pow10(Var("y")))
    assert parse_expr("2^x") == Power(Const(2), Var("x"))
    assert parse_expr("pi*H - st(eps)") == Sub(
        Mul(NamedConst("pi"), Unit("H")), HyperCall("st", Unit("eps"))
    )
    assert parse_expr("lim(n -> inf, exp(1/n))") == LimSeq(
        "n", Exp(Div(Const(1), Var("n")))
    )
    # a parenthesized node keeps its kind and takes the span of the parentheses
    node = parse_expr("1 + (x)")
    assert node.right == Var("x") and node.right.span == (4, 7)


def test_to_function_returns_the_parsed_tree():
    tree = parse_expr("exp(-x^2) + 10^x")
    assert to_function(tree) is tree


def test_float_pi_follows_the_context_precision():
    ctx = NumContext(mode="float", prec=50)
    value = ev("pi + 1", ctx)
    f = to_function(parse_expr("pi + x"))
    assert value.standard_part() == transfer.eval_real(f, Fraction(1), ctx)
    assert len(str(value.standard_part())) == 51
    assert ev("e", ctx) == transfer.eval_star(transfer.NamedConst("e"), ctx.zero())


def test_a_tree_too_deep_to_evaluate_is_refused_with_a_typed_error():
    deep = parse_expr("+".join(["1"] * 1200))
    with pytest.raises(ResourceLimit, match="^the expression nests too deeply to evaluate$"):
        evaluate(deep, NumContext())


def test_walk_goes_parents_first_and_left_to_right():
    tree = parse_expr("-(a + b)*exp(c)")
    assert [print_expr(node) for node in tree.walk()] == [
        "-(a + b) * exp(c)", "-(a + b)", "a + b", "a", "b", "exp(c)", "c",
    ]


@pytest.mark.parametrize("src, error, span", [
    ("y + st(x)", UnknownIdentifier, (0, 1)),
    ("st(y) + y", DomainError, None),
    ("x*H + y", DomainError, None),
    ("x + (y + z)", UnknownIdentifier, (5, 6)),
])
def test_to_function_refuses_the_first_offending_node(src, error, span):
    with pytest.raises(error) as info:
        to_function(parse_expr(src))
    assert getattr(info.value, "span", None) == span


# ---------------------------------------------------------------- deep trees

DEEP = 1200
_X = Var("x")
DEEP_TREES = {
    "add-chain": functools.reduce(Add, [_X] * DEEP),
    "neg-chain": functools.reduce(lambda f, _: Neg(f), range(DEEP), _X),
}
DEEP_TEXTS = {
    "nested-parens": "(" * 300 + "x" + ")" * 300,
    "neg-chain": "-(" * 300 + "x" + ")" * 300,
    "power-chain": "2^" * 300 + "2",
}
TREE_ENTRIES = {
    "to_function": to_function,
    "is_arithmetic": transfer.is_arithmetic,
    "evaluate": lambda f: evaluate(f, CTX, {"x": 1}),
    "eval_star": lambda f: transfer.eval_star(f, CTX.constant(1) + CTX.tau()),
    "eval_real": lambda f: transfer.eval_real(f, Fraction(1), CTX),
    "derivative": lambda f: transfer.derivative(f, Fraction(1), CTX),
    "limit_seq": lambda f: transfer.limit_seq(f, CTX),
    "limit_fun": lambda f: transfer.limit_fun(f, Fraction(1), CTX),
    "uniform_continuity_probe": lambda f: transfer.uniform_continuity_probe(f, CTX),
    "evt_demo": lambda f: transfer.evt_demo(f, CTX),
    "newton_trace": lambda f: newton_trace(f, Fraction(1, 2), 3),
    "theorem_check": lambda f: theorem_check(f, Fraction(1, 2), 3),
}


def test_to_function_names_the_unknown_leaf_of_a_tree_too_deep_to_fold():
    with pytest.raises(UnknownIdentifier) as info:
        to_function(parse_expr("+".join(["y"] * DEEP)))
    assert info.value.span == (0, 1)


def answer_or_refusal(call, arg):
    """call(arg) or its HyperError, within the hostile-line budget; a
    RecursionError or any other error fails the test."""
    start = time.perf_counter()
    try:
        out = call(arg)
    except HyperError as exc:
        out = exc
    assert time.perf_counter() - start < 2
    return out


@pytest.mark.parametrize("entry", TREE_ENTRIES)
@pytest.mark.parametrize("name", DEEP_TREES)
def test_every_tree_entry_answers_or_refuses_a_deep_tree(name, entry):
    answer_or_refusal(TREE_ENTRIES[entry], DEEP_TREES[name])


@pytest.mark.parametrize("name", DEEP_TEXTS)
def test_deep_text_parses_or_refuses_and_its_tree_is_answered(name):
    src = DEEP_TEXTS[name]
    assert isinstance(answer_or_refusal(parse_command, src), (Command, HyperError))
    tree = answer_or_refusal(parse_expr, src)
    if isinstance(tree, HyperError):
        assert isinstance(tree, ResourceLimit)
        return
    answer_or_refusal(TREE_ENTRIES["evaluate"], tree)
    if not isinstance(answer_or_refusal(to_function, tree), HyperError):
        for call in TREE_ENTRIES.values():
            answer_or_refusal(call, tree)


def test_only_the_fold_and_the_parser_catch_a_recursion_error():
    """The two recursive walks over user trees turn RecursionError into
    ResourceLimit themselves; no other code catches it, or a base class
    of it, so every other tree walk must not recurse."""
    wide = {"RecursionError", "RuntimeError", "Exception", "BaseException"}

    def catchers(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.ExceptHandler) and (
                child.type is None
                or wide & {n.id for n in ast.walk(child.type) if isinstance(n, ast.Name)}
            ):
                yield scope
            yield from catchers(child, inner)

    found = []
    for path in sorted(Path(transfer.__file__).parent.glob("*.py")):
        found.extend(catchers(ast.parse(path.read_text(encoding="utf-8")), path.stem))
    assert sorted(found) == ["expr.parse_command", "transfer._Backend.fold"]


def test_negation_stays_exact_at_rational_points():
    f = to_function(parse_expr("(-x^2)"))
    assert transfer.is_arithmetic(f)
    assert transfer.eval_real(f, Fraction(1, 3), CTX) == Fraction(-1, 9)
    assert type(transfer.eval_real(f, Fraction(1, 3), CTX)) is Fraction
    assert transfer.symbolic_derivative(f) == Neg(transfer.symbolic_derivative(f.operand))


@pytest.mark.parametrize("src, message, span", [
    ("H + 1 at H = 2", "'H' is reserved", (9, 10)),
    ("eps at eps = 1", "'eps' is reserved", (7, 10)),
    ("pi at pi = 3", "'pi' is reserved", (6, 8)),
    ("e + 1 at e = 2", "'e' is reserved", (9, 10)),
    ("lim(H -> inf, 1/H)", "'H' cannot name the limit variable", (4, 5)),
    ("lim(pi -> inf, 1/pi)", "'pi' cannot name the limit variable", (4, 6)),
])
def test_builtin_names_cannot_name_a_variable(src, message, span):
    with pytest.raises(ParseError) as info:
        parse_command(src)
    assert (str(info.value), info.value.span) == (f"{message} (at {span[0]}..{span[1]})", span)


@pytest.mark.parametrize("var", ["H", "eps", "pi", "e"])
def test_builtin_names_cannot_be_the_function_variable(var, capsys):
    with pytest.raises(ParseError, match=f"'{var}' is reserved"):
        to_function(parse_expr(f"{var}^2"), var)
    assert run_cli(["deriv", f"{var}^2", "--at", "1", "--var", var]) == 2
    assert capsys.readouterr().err == f"error: '{var}' is reserved\n"


@pytest.mark.parametrize("src, error, message, span", [
    ("foo(1)", UnknownIdentifier, "unknown function 'foo'", (0, 6)),
    ("1/0 + foo(1)", UnknownIdentifier, "unknown function 'foo'", (6, 12)),
    ("foo(bar(1))", UnknownIdentifier, "unknown function 'foo'", (0, 11)),
    ("foo(1) + bar(2)", UnknownIdentifier, "unknown function 'foo'", (0, 6)),
    ("2 * (foo(1))", UnknownIdentifier, "unknown function 'foo'", (4, 12)),
    ("st(foo(1), 2)", ParseError, "st takes 1 argument, got 2", (0, 13)),
    ("exp(x, 1)", ParseError, "exp takes 1 argument, got 2", (0, 9)),
    ("nines(1, 2, 3)", ParseError, "nines takes 1 argument, got 3", (0, 14)),
    ("foo(1) at x = bar(2)", UnknownIdentifier, "unknown function 'bar'", (14, 20)),
])
def test_unknown_functions_and_arity_fail_at_parse_time(src, error, message, span):
    with pytest.raises(error) as info:
        parse_command(src)
    assert (str(info.value), info.value.span) == (f"{message} (at {span[0]}..{span[1]})", span)


def test_a_syntax_error_comes_before_an_unknown_function():
    with pytest.raises(ParseError, match="expected a value"):
        parse_command("foo(1) +")
