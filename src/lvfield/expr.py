"""Profile expressions: the coefficients and initial data as arithmetic in x.

A subset of Python's expression syntax, read by `ast`: int and float literals,
x, `+ - *`, unary signs, powers with a signed numeric literal for exponent, and
one-argument calls of cos, sin, exp and abs.  `^` is rewritten to `**` first,
and `×` to ` * ` (so `××` is no power).  Anything else is an ExprError at its
column.  A fractional power of a negative base is nan; callers refuse it.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass

import numpy as np

_FUNCS = {"cos": np.cos, "sin": np.sin, "exp": np.exp, "abs": np.abs}
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}
_SIGNS = (ast.UAdd, ast.USub)


class ExprError(ValueError):
    """Parse or evaluation failure, carrying the source column (0-based)."""

    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


@dataclass(frozen=True)
class Expr:
    """A parsed profile expression; call it on an ndarray of x values."""

    _tree: ast.expr

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        try:
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                out = _eval(self._tree, x)
        except (RecursionError, OverflowError) as e:    # a deep tree, an int past 1e308
            raise ExprError(str(e), 0) from None
        return np.broadcast_to(out, x.shape).astype(float, copy=True) if np.ndim(out) == 0 else out


def _eval(node, x):
    if isinstance(node, ast.Constant):
        return float(node.value)
    if isinstance(node, ast.Name):
        return x
    if isinstance(node, ast.UnaryOp):
        return -_eval(node.operand, x) if isinstance(node.op, ast.USub) else _eval(node.operand, x)
    if isinstance(node, ast.Call):
        return _FUNCS[node.func.id](_eval(node.args[0], x))
    if isinstance(node.op, ast.Pow):
        # np.power, not **: numpy sends ** 2, 0.5 and -1 to other ufuncs
        return np.power(_eval(node.left, x), _eval(node.right, x))
    return _BINOPS[type(node.op)](_eval(node.left, x), _eval(node.right, x))


def _is_literal(node) -> bool:
    """An int or float literal, with at most one sign."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, _SIGNS):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _check(node, text: str, cols: list) -> None:
    """Raise an ExprError at the first node outside the subset."""
    if isinstance(node, ast.Name) and node.id in _FUNCS:
        raise ExprError(f"expected '(' after {node.id}", cols[node.end_col_offset])
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCS and len(node.args) == 1 and not node.keywords):
        children = node.args
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        if not _is_literal(node.right):
            raise ExprError("exponent must be a numeric literal", cols[node.right.col_offset])
        children = [node.left]
    elif isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        children = [node.left, node.right]
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _SIGNS):
        children = [node.operand]
    elif isinstance(node, ast.Name) and node.id == "x" or _is_literal(node):
        children = []
    else:
        raise ExprError(f"{ast.get_source_segment(text, node)!r} is not allowed (allowed: numbers,"
                        " x, + - *, ^ a number, cos, sin, exp, abs)", cols[node.col_offset])
    for child in children:
        _check(child, text, cols)


def parse(src: str) -> Expr:
    """Parse a profile expression; raises ExprError with a column on failure."""
    if not src.strip():
        raise ExprError("empty expression", 0)
    text, cols = "", []                     # cols[i]: the source column of text[i]
    for i, c in enumerate(src):
        c = "**" if c == "^" else " * " if c == "×" else " " if c.isspace() else c
        if c == "#" or not (c.isascii() and c.isprintable()):
            raise ExprError(f"unexpected character {c!r}", i)
        if not text:                        # leading blanks would be an indent
            c = c.lstrip()
        text += c
        cols += [i] * len(c)
    cols.append(len(src))                   # the end, also where Python reports none
    try:
        tree = ast.parse(text, mode="eval").body
        _check(tree, text, cols)
    except SyntaxError as e:
        at = -1 if "never closed" in e.msg else min((e.offset or 0) - 1, len(text))
        raise ExprError(e.msg, cols[at]) from None
    except RecursionError as e:             # a tree too deep to build or walk
        raise ExprError(str(e), 0) from None
    return Expr(tree)


def evaluate(src: str, x) -> np.ndarray:
    return parse(src)(x)
