"""Recursive-descent parser for the coefficient and polynomial grammars.

One grammar serves both levels: integer literals, `t`, variables X0..XM,
the operators + - * / ^ and parentheses, whitespace insignificant.  At the
coefficient level no X variables are allowed; at the polynomial level
division is only legal when the divisor is a constant of K.  A power is
refused before it is built when its exponent, or the degree of its result
(in t, or in total in the X variables), exceeds MAX_EXPONENT, when its
coefficients could exceed MAX_COEFFICIENT_BITS bits, or, inside a
polynomial (X free or not, but not in a coefficient), when it could have
more than MAX_POWER_TERMS terms or building it could cost more than
MAX_POWER_COST.

`_Parser` walks the grammar once for both levels, on one kind of value:
sparse term maps {exponent tuple: RationalFunction}, in no variables for a
coefficient (`parse_rational` returns the constant term).  Their
coefficients are combined by `RationalFunction`'s arithmetic and stay in
lowest terms, so the power limits see a base's value and not how it is
written.  Maps are added with `multipoly.collect` and multiplied with
`multipoly.mul_terms`; a power of a one-term map is raised term by term,
any other with `upoly.power`, the same kernel every polynomial type uses.

The tokenizer reads an expanded polynomial in t with integer coefficients,
a sum of terms `c`, `c*t`, `c*t^k`, `t` and `t^k`, each with an optional
sign, as one `poly` token when it fills a parenthesized group or the whole
text.  `str(RationalFunction)` prints its numerator and denominator in this
form when lc(den) = 1, and generated scenarios write their points so.  The
fold is exact: parentheses already make such a group an atom, so no
precedence changes, and its value, the stripped sum of the c*t^k over Z[t],
is the tuple the descent would build over `upoly.ONE`.  A group with an
exponent past MAX_EXPONENT is not folded, so the descent raises its error.
In messages a `poly` token shows as '(' at the position of its '(', as the
descent's first token would.

An integer literal may have at most MAX_LITERAL_DIGITS digits, checked
before it is converted, on both paths.
"""

from __future__ import annotations

import re
from functools import cache
from math import comb

from . import upoly
from .errors import NotHomogeneous, ParseError, SchemaError, ZeroElement
from .function_field import RationalFunction
from .multipoly import collect, mul_terms

# Largest exponent `^` accepts, and the largest degree its result may have.
# Far above the degrees of any real input, and small enough that
# t^MAX_EXPONENT is built in well under a second.
MAX_EXPONENT = 1000

# Largest number of terms `^` may give a polynomial, as estimated from the
# base by `_power_terms`.  (X0 + X1)^499 has 500 terms and is built in
# under a second; (X0 + X1 + X2 + X3)^30 would have 5,456.
MAX_POWER_TERMS = 500

# Largest bit length `^` may give a coefficient, as estimated from the base by
# `_bits_per_factor`.  10^1000 and (7*t + 7)^1000 pass; (2^1000)^5 does not.
MAX_COEFFICIENT_BITS = 4000

# Largest cost of a power inside a polynomial: its terms times the
# `_coefficient_cost` of each; a coefficient has no cost limit.
# (X0 + X1)^499 costs 249,500 and (7*X0 + 8*X1)^499 998,000; both build in
# under 0.7 s.  (127*X0 + 128*X1)^499, within the three limits above, costs
# 1,996,000 and takes over a second; (X0 + t*X1)^499 costs 6.2e10 and takes
# seconds.
MAX_POWER_COST = 1_000_000

# Most digits an integer literal may have: those of 2^MAX_COEFFICIENT_BITS
# (1205), so any coefficient within the power limit can be written out.  It
# is checked before the literal is converted, well below the 4300 digits past
# which Python's int() refuses to convert.
MAX_LITERAL_DIGITS = len(str(1 << MAX_COEFFICIENT_BITS))

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]\w*)|([()+\-*/^]))")


@cache
def _poly_patterns():
    """(poly, term): `poly` matches an expanded polynomial in t with integer
    coefficients, its body as group 1, followed by the `)` that closes its
    group (group 2) or by the end of the text; `term` finds the terms of a
    body as (sign, c, t, k, t, k).  Compiled on first use, not at import."""
    lit = rf"\d{{1,{MAX_LITERAL_DIGITS}}}"
    mono = rf"(?:({lit})(?:\s*\*\s*(t)(?:\s*\^\s*({lit}))?)?|(t)(?:\s*\^\s*({lit}))?)"
    bare = re.sub(r"\((?!\?)", "(?:", mono)  # mono without its groups
    poly = re.compile(
        rf"\s*((?:[+-]\s*)?{bare}(?:\s*[+-]\s*{bare})*)\s*(?:(\))|\Z)"
    )
    return poly, re.compile(rf"([+-]?)\s*{mono}")


def _fold(term, text: str, start: int, end: int):
    """The Z[t] tuple of the polynomial body text[start:end], or None when
    one of its exponents exceeds MAX_EXPONENT."""
    sums = {}
    for sign, c, t1, k1, t2, k2 in term.findall(text, start, end):
        k = int(k1 or k2 or 1) if t1 or t2 else 0
        if k > MAX_EXPONENT:
            return None
        c = int(c) if c else 1
        sums[k] = sums.get(k, 0) + (-c if sign == "-" else c)
    return upoly.strip(sums.get(k, 0) for k in range(max(sums) + 1))


def _tokenize(text: str):
    poly, term = _poly_patterns()
    m = poly.match(text)
    if m and m.end() == len(text) and m.group(2) is None:
        coeffs = _fold(term, text, *m.span(1))
        if coeffs is not None:
            return [("poly", coeffs, 0), ("end", None, len(text))]
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        pos = m.end()
        if m.group(1) is not None:
            digits = m.group(1)
            if len(digits) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"integer literal of {len(digits)} digits exceeds the limit "
                    f"{MAX_LITERAL_DIGITS}", m.start(1)
                )
            tokens.append(("int", int(digits), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        elif m.group(3) == "(" and (g := poly.match(text, pos)) and g.group(2):
            coeffs = _fold(term, text, *g.span(1))
            if coeffs is None:
                tokens.append(("op", "(", m.start(3)))
            else:
                tokens.append(("poly", coeffs, m.start(3)))
                pos = g.end()
        else:
            tokens.append(("op", m.group(3), m.start(3)))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """The grammar, with sparse term maps {exponent tuple: RationalFunction}
    in `num_vars` variables as its values; a map whose only key is the zero
    tuple is a constant."""

    def __init__(self, text: str, num_vars: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.num_vars = num_vars
        self.zero = (0,) * num_vars

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
    def parse(self):
        value = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            shown = "'('" if kind == "poly" else repr(val)
            raise ParseError(f"unexpected trailing {shown}", pos)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                value = collect(rhs.items() if val == "+" else _neg(rhs).items(), value)
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.unary()
                value = mul_terms(value, rhs) if val == "*" else self.div(value, rhs, pos)
            else:
                return value

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return _neg(self.unary())
        if kind == "op" and val == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, e, pos = self.advance()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", pos)
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent {e} exceeds the limit {MAX_EXPONENT}", pos)
            degree, bits = _size(base)
            if degree * e > MAX_EXPONENT:
                raise ParseError(
                    f"power of degree {degree * e} exceeds the limit {MAX_EXPONENT}", pos
                )
            if bits * e > MAX_COEFFICIENT_BITS:
                raise ParseError(
                    f"power with coefficients of up to {bits * e} bits exceeds "
                    f"the limit {MAX_COEFFICIENT_BITS}", pos
                )
            terms = _power_terms(base, e)
            if terms > MAX_POWER_TERMS:
                raise ParseError(
                    f"power with up to {terms} terms exceeds the limit {MAX_POWER_TERMS}", pos
                )
            # A coefficient has no cost limit: the degree and bit limits bound it.
            cost = terms * _coefficient_cost(base, e, bits) if self.num_vars else 0
            if cost > MAX_POWER_COST:
                raise ParseError(
                    f"power with an estimated cost of {cost} exceeds the limit "
                    f"{MAX_POWER_COST}", pos
                )
            # A nonzero one-term base is raised term by term, with no gcd
            # (RationalFunction.__pow__ runs none); a zero one is left to
            # the products, which drop it.
            if len(base) == 1:
                (mono, c), = base.items()
                if c:
                    return {tuple(e * x for x in mono): c**e}
            return upoly.power(base, e, {self.zero: RationalFunction(1)}, mul_terms)
        return base

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "poly":
            return {self.zero: RationalFunction._canonical(val)}
        if kind == "int":
            return {self.zero: RationalFunction(val)}
        if kind == "name":
            if val == "t":
                return {self.zero: RationalFunction.t()}
            m = re.fullmatch(r"X(\d+)", val)
            if m:
                return self.var(int(m.group(1)), pos)
            raise ParseError(f"unknown name {val!r}", pos)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {val!r}", pos)

    def var(self, idx, pos):
        if self.num_vars == 0:
            raise ParseError("variables not allowed here", pos)
        if idx >= self.num_vars:
            raise ParseError(
                f"variable X{idx} out of range (have X0..X{self.num_vars - 1})", pos
            )
        mono = tuple(1 if i == idx else 0 for i in range(self.num_vars))
        return {mono: RationalFunction(1)}

    def div(self, terms: dict, divisor: dict, pos: int) -> dict:
        """terms / divisor, for a divisor that is a nonzero constant of K."""
        c = divisor.get(self.zero)
        if len(divisor) > (c is not None):
            raise ParseError("division by a non-constant polynomial", pos)
        if not c:
            raise ParseError("division by zero", pos)
        return {m: v / c for m, v in terms.items()}


def _neg(terms: dict) -> dict:
    return {m: -c for m, c in terms.items()}


def _bits_per_factor(coeffs) -> int:
    """ceil(log2 ||p||_1) for the integer coefficients of p.  Every
    coefficient of p^e is at most ||p||_1^e, so it has about e times this
    many bits."""
    return (max(sum(map(abs, coeffs)), 1) - 1).bit_length()


def _t_degree(terms: dict) -> int:
    """The largest degree in t of a numerator or denominator of a term."""
    return max(
        (upoly.degree(p) for c in terms.values() for p in (c.num, c.den)), default=0
    )


def _size(base: dict):
    """(degree, bits) of a power's base: its largest degree, in t or in
    total in the X variables, and `_bits_per_factor` of its numerators and
    of its denominators."""
    coeffs = base.values()
    degree = max([sum(m) for m in base] + [_t_degree(base)])
    return degree, max(
        _bits_per_factor(x for c in coeffs for x in c.num),
        _bits_per_factor(x for c in coeffs for x in c.den),
    )


def _power_terms(base: dict, e: int) -> int:
    """A bound on the terms of base^e: at most as many as multisets of e
    terms of the base, and as monomials in the base's variables of a degree
    that base^e can have."""
    if not base or e == 0:
        return 1
    multisets = comb(len(base) + e - 1, e)
    v = sum(1 for exponents in zip(*base) if any(exponents))
    degrees = [sum(m) for m in base]
    lo, hi = min(degrees) * e, max(degrees) * e
    monomials = comb(hi + v, v) - (comb(lo - 1 + v, v) if lo else 0)
    return min(multisets, monomials)


def _coefficient_cost(base: dict, e: int, bits: int) -> int:
    """A coefficient of base^e is a dense Z[t] tuple of up to s = e *
    (t-degree of the base's coefficients) + 1 integers of up to e * bits
    bits, and `upoly.mul` takes s^2 products of such integers for two of
    them: s^2 * e * bits, which is e * bits for a base free of t."""
    return (e * _t_degree(base) + 1) ** 2 * e * bits


def parse_terms(text: str, num_vars: int) -> dict:
    """Parse into a sparse {exponents: coefficient} map (possibly mixed degree)."""
    return _Parser(text, num_vars).parse()


def parse_rational(text: str) -> RationalFunction:
    """Parse a coefficient-level expression into an element of Q(t)."""
    terms = _Parser(text, 0).parse()
    return terms[()] if terms else RationalFunction(0)


def parse_at(parse, value, pointer: str, *args):
    """parse(value, *args) for a node of a JSON document: text that does not
    parse, a form that is not homogeneous or a point with no nonzero
    coordinate is raised as a SchemaError at `pointer`, same message."""
    try:
        return parse(value, *args)
    except (ParseError, NotHomogeneous, ZeroElement) as exc:
        raise SchemaError(str(exc), pointer) from None
