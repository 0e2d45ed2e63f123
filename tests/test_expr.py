import numpy as np
import pytest

from damped_eb import expr
from damped_eb.expr import BinOp, Call, Const, DomainError, Neg, ParseError, Var


def ev(source, **bindings):
    return expr.evaluate(expr.parse(source), **bindings)


def test_single_function_application():
    tree = expr.parse("sin(pi*x)")
    assert isinstance(tree, Call) and tree.func == "sin"
    assert isinstance(tree.arg, BinOp) and tree.arg.op == "*"


def test_power_is_right_associative():
    assert ev("2^3^2") == 512.0


def test_dangling_operator_offset():
    with pytest.raises(ParseError) as err:
        expr.parse("x*+")
    assert err.value.offset == 2


@pytest.mark.parametrize(
    "source,value",
    [
        ("sin(pi*x)", 1.0),  # x = 0.5
        ("2+3*4", 14.0),
        ("(2+3)*4", 20.0),
        ("2-3-4", -5.0),
        ("2/4/2", 0.25),
        ("-2^2", -4.0),
        ("2^-2", 0.25),
        ("abs(-3)", 3.0),
        ("sqrt(4)", 2.0),
        ("exp(0)", 1.0),
        ("cos(0)", 1.0),
        ("1.5e2", 150.0),
        (".5*2", 1.0),
    ],
)
def test_evaluation(source, value):
    assert ev(source, x=0.5) == value


def test_hand_arithmetic_with_t():
    assert ev("t^3*sin(pi*x)", x=0.5, t=2.0) == 8.0


def test_division_by_zero():
    with pytest.raises(DomainError):
        ev("1/x", x=0.0)


def test_sqrt_of_negative():
    with pytest.raises(DomainError):
        ev("sqrt(x-2)", x=0.0)


def test_unknown_identifier_offset():
    with pytest.raises(ParseError) as err:
        expr.parse("2*foo(3)")
    assert err.value.offset == 2


def test_unbalanced_parentheses():
    with pytest.raises(ParseError):
        expr.parse("sin(pi*x")
    with pytest.raises(ParseError) as err:
        expr.parse("x)y")
    assert err.value.offset == 1


@pytest.mark.parametrize("source,offset", [("1e400", 0), ("2*x + 1.8e308", 6)])
def test_overflowing_literal_is_a_parse_error(source, offset):
    with pytest.raises(ParseError, match="overflows") as err:
        expr.parse(source)
    assert err.value.offset == offset


def test_empty_source():
    with pytest.raises(ParseError):
        expr.parse("")
    with pytest.raises(ParseError):
        expr.parse("   ")


def test_function_requires_parentheses():
    with pytest.raises(ParseError):
        expr.parse("sin x")


def test_variables_restricted_to_xyt():
    tree = expr.parse("x*y*t")
    assert expr.uses_variable(tree, "x")
    assert expr.uses_variable(tree, "y")
    assert not expr.uses_variable(expr.parse("x*t"), "y")


def test_alias_maps_onto_canonical_variable():
    tree = expr.parse("1+2*z", aliases={"z": "x"})
    assert expr.evaluate(tree, x=3.0) == 7.0
    assert expr.uses_variable(tree, "x")


def test_vectorized_evaluation_matches_scalar():
    tree = expr.parse("t*cos(pi*x) + x^2")
    xs = np.linspace(0.0, 1.0, 17)
    vec = expr.evaluate(tree, x=xs, t=0.3)
    scal = np.array([expr.evaluate(tree, x=float(x), t=0.3) for x in xs])
    assert np.array_equal(vec, scal)


def test_eval_is_pure():
    tree = expr.parse("exp(x)*sin(t) - y/3")
    a = expr.evaluate(tree, x=0.37, y=1.2, t=0.9)
    b = expr.evaluate(tree, x=0.37, y=1.2, t=0.9)
    assert a == b


X, Y, T = Var("x"), Var("y"), Var("t")
SIN_X = Call("sin", BinOp("*", Const(np.pi), X))
SIN_Y = Call("sin", BinOp("*", Const(np.pi), Y))
T_CUBED = BinOp("^", T, Const(3.0))
EXP_MINUS_T = Call("exp", Neg(T))


@pytest.mark.parametrize(
    "source,g,F",
    [
        # ids spell the expected factors g and F as text
        pytest.param(
            "t^3*sin(pi*x)", T_CUBED, SIN_X,
            id="t^3*sin(pi*x)-t ^ 3.0-sin(3.141592653589793 * x)",
        ),
        pytest.param(
            "0.93*(t^3*sin(pi*x))", T_CUBED, BinOp("*", Const(0.93), SIN_X),
            id="0.93*(t^3*sin(pi*x))-t ^ 3.0-0.93 * sin(3.141592653589793 * x)",
        ),
        pytest.param(
            "-2*t*sin(pi*x)*sin(pi*y)",
            T,
            BinOp("*", BinOp("*", BinOp("*", Const(-1.0), Const(2.0)), SIN_X), SIN_Y),
            id="-2*t*sin(pi*x)*sin(pi*y)-t-"
            "-1.0 * 2.0 * sin(3.141592653589793 * x) * sin(3.141592653589793 * y)",
        ),
        pytest.param(
            "(sin(pi*x)*exp(-t))*(t*x)", BinOp("*", EXP_MINUS_T, T), BinOp("*", SIN_X, X),
            id="(sin(pi*x)*exp(-t))*(t*x)-exp(-t) * t-sin(3.141592653589793 * x) * x",
        ),
        pytest.param(
            "sin(pi*x)", None, SIN_X, id="sin(pi*x)-None-sin(3.141592653589793 * x)"
        ),
        pytest.param("exp(-t)", EXP_MINUS_T, Const(1.0), id="exp(-t)-exp(-t)-1.0"),
        pytest.param("0", None, Const(0.0), id="0-None-0.0"),
    ],
)
def test_split_time_factors_products(source, g, F):
    tree = expr.parse(source)
    g_tree, F_tree = expr.split_time(tree)
    assert g_tree == g and F_tree == F  # factors grouped left to right
    x = np.linspace(0.0, 1.0, 7)[:, None]
    y = np.linspace(0.0, 1.0, 5)[None, :]
    for t in (0.0, 0.3, 1.7):
        g_t = 1.0 if g_tree is None else expr.evaluate(g_tree, t=t)
        np.testing.assert_allclose(
            g_t * expr.evaluate(F_tree, x, y), expr.evaluate(tree, x, y, t),
            rtol=1e-15, atol=1e-300,
        )


@pytest.mark.parametrize(
    "source", ["sin(pi*x*t)", "t + sin(pi*x)", "sin(pi*x)/t", "t^x", "(t+x)*sin(pi*y)"]
)
def test_split_time_rejects_mixed_trees(source):
    assert expr.split_time(expr.parse(source)) is None
