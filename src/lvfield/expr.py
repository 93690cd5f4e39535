"""Tiny expression language for coefficient and initial-condition profiles.

Grammar (EBNF):

    expr    := term { ("+" | "-") term }
    term    := factor { "*" factor }
    factor  := ("+" | "-") factor | power
    power   := atom [ "^" signed_number ]
    atom    := number | "x" | func "(" expr ")" | "(" expr ")"
    func    := "cos" | "sin" | "exp" | "abs"
    number  := decimal literal, e.g. 2, 0.3, 1e-3

The variable is always called x; profiles are evaluated on the cell-center
grid.  Exponents are numeric literals only, so the parser stays total and
errors carry a column.  A fractional power of a negative base evaluates to
nan and is rejected by the caller's finiteness validation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*(?:[eE][+-]?\d+)?|\.?\d+(?:[eE][+-]?\d+)?)"
                    r"|([A-Za-z_]\w*)|(\*\*|[*+\-^()×]))")

_FUNCS = {"cos": np.cos, "sin": np.sin, "exp": np.exp, "abs": np.abs}


class ExprError(ValueError):
    """Parse or evaluation failure, carrying the source column (0-based)."""

    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            if src[pos:].strip() == "":
                break
            bad = src[pos:].lstrip()
            col = len(src) - len(bad)
            raise ExprError(f"unexpected character {bad[0]!r}", col)
        num, ident, op = m.groups()
        col = m.start(1) if num else m.start(2) if ident else m.start(3)
        if num:
            tokens.append(("num", float(num), col))
        elif ident:
            tokens.append(("ident", ident, col))
        elif op in ("*", "×", "**"):
            # ** is accepted as a synonym for ^ to be forgiving; x2 the
            # tokenizer folds multiplication signs to one token kind.
            tokens.append(("op", "^" if op == "**" else "*", col))
        else:
            tokens.append(("op", op, col))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


@dataclass(frozen=True)
class Expr:
    """A parsed profile expression; call it on an ndarray of x values."""

    _ast: tuple

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            out = _eval(self._ast, x)
        return np.broadcast_to(out, x.shape).astype(float, copy=True) if np.ndim(out) == 0 else out


def _eval(node, x):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return x
    if kind == "add":
        return _eval(node[1], x) + _eval(node[2], x)
    if kind == "sub":
        return _eval(node[1], x) - _eval(node[2], x)
    if kind == "mul":
        return _eval(node[1], x) * _eval(node[2], x)
    if kind == "neg":
        return -_eval(node[1], x)
    if kind == "pow":
        return np.power(_eval(node[1], x), node[2])
    # call
    return _FUNCS[node[1]](_eval(node[2], x))


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, col = self.peek()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r}", col)
        self.next()

    def parse(self):
        node = self.expr()
        kind, val, col = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected {val!r}", col)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = ("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                node = ("mul", node, self.factor())
            else:
                return node

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            inner = self.factor()
            return inner if val == "+" else ("neg", inner)
        return self.power()

    def power(self):
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            node = ("pow", node, self.signed_number())
        return node

    def signed_number(self):
        sign = 1.0
        kind, val, col = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1.0 if val == "-" else 1.0
            kind, val, col = self.peek()
        if kind != "num":
            raise ExprError("exponent must be a numeric literal", col)
        self.next()
        return sign * val

    def atom(self):
        kind, val, col = self.next()
        if kind == "num":
            return ("num", val)
        if kind == "ident":
            if val == "x":
                return ("var",)
            if val in _FUNCS:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return ("call", val, inner)
            raise ExprError(f"unknown name {val!r} (allowed: x, cos, sin, exp, abs)", col)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExprError(f"expected a value, got {val!r}" if val else "unexpected end of expression", col)


def parse(src: str) -> Expr:
    """Parse a profile expression; raises ExprError with a column on failure."""
    if not src.strip():
        raise ExprError("empty expression", 0)
    return Expr(_Parser(_tokenize(src)).parse())


def evaluate(src: str, x) -> np.ndarray:
    return parse(src)(x)
