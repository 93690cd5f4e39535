"""Profile expression grammar."""

import inspect
import sys

import numpy as np
import pytest

from lvfield.expr import ExprError, evaluate, parse


X = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


@pytest.mark.parametrize("src,expected", [
    ("2", np.full(5, 2.0)),
    ("x", X),
    ("1 + 2*x", 1 + 2 * X),
    ("x - 1 - 1", X - 2),
    ("2*x + 1", 2 * X + 1),
    ("cos(3.141592653589793*x)", np.cos(np.pi * X)),
    ("sin(x)*exp(-x)", np.sin(X) * np.exp(-X)),
    ("abs(x - 0.5)", np.abs(X - 0.5)),
    ("abs(x - 0.5)^0.3", np.abs(X - 0.5) ** 0.3),
    ("x^2", X**2),
    ("x**2", X**2),
    ("-x^2", -(X**2)),
    ("(1 + x)*(1 - x)", 1 - X**2),
    ("1e-3 + 2.5e2*x", 1e-3 + 250 * X),
    ("--x", X),
    ("0.5 + 0.2*cos(2*3.141592653589793*x)", 0.5 + 0.2 * np.cos(2 * np.pi * X)),
    ("2×x", 2 * X),
    ("x^-2", np.array([np.inf, 16.0, 4.0, 16 / 9, 1.0])),
    ("x**+2", X**2),
    ("1_000*x", 1000 * X),
    ("0x10", np.full(5, 16.0)),
    ("0b1 + 0o7*x", 1 + 7 * X),
])
def test_evaluates(src, expected):
    np.testing.assert_allclose(evaluate(src, X), expected, rtol=1e-14)


def test_scalar_expression_broadcasts_to_grid():
    out = evaluate("3.5", np.linspace(0, 1, 7))
    assert out.shape == (7,)
    assert np.all(out == 3.5)


def test_precedence_mul_before_add():
    assert evaluate("1 + 2*3", np.zeros(1))[0] == 7.0


def test_power_binds_tighter_than_mul():
    np.testing.assert_allclose(evaluate("2*x^2", X), 2 * X**2)


@pytest.mark.parametrize("src,col", [
    ("", 0),
    ("1 +", 3),
    ("cos", 3),
    ("cos 1", 4),
    ("cos(1", 5),
    ("log(x)", 0),
    ("x ^ x", 4),
    ("1 ? 2", 2),
    ("(1 + 2", 6),
    ("1 2", 2),
    ("True", 0),
    ("2j", 0),
    ("1/2", 0),
    ("x.real", 0),
    ("x[0]", 0),
    ("cos(x, 1)", 0),
    ("cos(x=1)", 0),
    ("x^(1 + 1)", 3),
    ("x^2^3", 2),
    ("(x, 1)", 0),
    ("x if x else 1", 0),
    ("lambda: 1", 0),
    ("01", 0),
    ("x××2", 2),
    ("x # note", 2),
    ("π*x", 0),
])
def test_errors_carry_column(src, col):
    with pytest.raises(ExprError) as err:
        parse(src)
    assert err.value.column == col


@pytest.mark.parametrize("exponent", [2.0, 0.5, -1.0])
def test_power_is_np_power(exponent):
    # numpy's ** would send these exponents to square, sqrt and reciprocal
    x = np.linspace(0.1, 3.0, 64)
    assert evaluate(f"x^{exponent}", x).tobytes() == np.power(x, exponent).tobytes()


def test_recursion_and_overflow_in_evaluation_are_expr_errors():
    with pytest.raises(ExprError):
        evaluate("1" + "0" * 400, X)
    f = parse("+".join(["x"] * 200))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        with pytest.raises(ExprError):
            f(X)
    finally:
        sys.setrecursionlimit(limit)


def test_fractional_power_of_negative_base_is_nan():
    out = evaluate("(x - 0.5)^0.3", X)
    assert np.isnan(out[0])
    assert np.isfinite(out[-1])


def test_expression_object_is_reusable():
    f = parse("x*x")
    np.testing.assert_allclose(f(X), X**2)
    np.testing.assert_allclose(f(2 * X), 4 * X**2)
