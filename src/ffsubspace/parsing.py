"""Recursive-descent parser for the coefficient and polynomial grammars.

One grammar serves both levels: integer literals, `t`, variables X0..XM,
the operators + - * / ^ and parentheses, whitespace insignificant.  At the
coefficient level no X variables are allowed; at the polynomial level
division is only legal when the divisor is a constant of K.

Values during parsing are sparse term maps {exponent tuple: RationalFunction};
a map whose only key is the zero tuple is a constant.  They are added with
`multipoly.collect`, multiplied with `multipoly.mul_terms` and raised to
powers with `upoly.power`, the same kernel every polynomial type uses, so the
parser has no arithmetic of its own.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .function_field import RationalFunction
from .multipoly import collect, mul_terms
from .upoly import T, power

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]\w*)|([()+\-*/^]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, num_vars: int):
        self.text = text
        self.num_vars = num_vars
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    # ------------------------------------------------------------------
    def parse(self) -> dict:
        terms = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {val!r}", pos)
        return terms

    def expr(self) -> dict:
        terms = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term().items()
                if val == "-":
                    rhs = ((m, -c) for m, c in rhs)
                terms = collect(rhs, dict(terms))
            else:
                return terms

    def term(self) -> dict:
        terms = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.unary()
                if val == "*":
                    terms = mul_terms(terms, rhs)
                else:
                    c = _as_constant(rhs, pos)
                    if c.is_zero():
                        raise ParseError("division by zero", pos)
                    terms = {m: v / c for m, v in terms.items()}
            else:
                return terms

    def unary(self) -> dict:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return {m: -c for m, c in self.unary().items()}
        if kind == "op" and val == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self) -> dict:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, e, pos = self.advance()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", pos)
            one = {(0,) * self.num_vars: RationalFunction(1)}
            return power(base, e, one, mul_terms)
        return base

    def atom(self) -> dict:
        kind, val, pos = self.advance()
        zero = (0,) * self.num_vars
        if kind == "int":
            return {zero: RationalFunction(val)}
        if kind == "name":
            if val == "t":
                return {zero: RationalFunction(T)}
            m = re.fullmatch(r"X(\d+)", val)
            if m:
                idx = int(m.group(1))
                if self.num_vars == 0:
                    raise ParseError("variables not allowed here", pos)
                if idx >= self.num_vars:
                    raise ParseError(
                        f"variable X{idx} out of range (have X0..X{self.num_vars - 1})",
                        pos,
                    )
                mono = tuple(1 if i == idx else 0 for i in range(self.num_vars))
                return {mono: RationalFunction(1)}
            raise ParseError(f"unknown name {val!r}", pos)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {val!r}", pos)


def _as_constant(terms: dict, pos: int) -> RationalFunction:
    nonconst = [m for m in terms if any(m)]
    if nonconst:
        raise ParseError("division by a non-constant polynomial", pos)
    if not terms:
        return RationalFunction(0)
    return next(iter(terms.values()))


def parse_terms(text: str, num_vars: int) -> dict:
    """Parse into a sparse {exponents: coefficient} map (possibly mixed degree)."""
    return _Parser(text, num_vars).parse()


def parse_rational(text: str) -> RationalFunction:
    """Parse a coefficient-level expression into an element of Q(t)."""
    terms = parse_terms(text, 0)
    if not terms:
        return RationalFunction(0)
    return terms[()]
