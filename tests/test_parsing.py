"""The parser at the coefficient level, where a value is one element of Q(t):
seeded workload inputs and random expression trees against a Fraction-tuple
reference evaluator, hypothesis properties, and the limits of `^`."""

import re
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from ffsubspace import upoly
from ffsubspace.errors import ParseError
from ffsubspace.function_field import RationalFunction
from ffsubspace.parsing import (
    MAX_COEFFICIENT_BITS,
    MAX_LITERAL_DIGITS,
    _tokenize,
    parse_rational,
    parse_terms,
)

ROOT = Path(__file__).resolve().parents[1]


# --- reference: elements of Q(t) as Fraction tuples with a monic denominator,
# reduced by a monic Euclidean gcd after every operation

def _q_strip(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _q_add(a, b):
    n = max(len(a), len(b))
    return _q_strip((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _q_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _q_strip(out)


def _q_divmod(a, b):
    q, r = [Fraction(0)] * max(len(a) - len(b) + 1, 0), list(a)
    while len(r) >= len(b):
        c, k = r[-1] / b[-1], len(r) - len(b)
        q[k] = c
        for i, x in enumerate(b):
            r[k + i] -= c * x
        r = list(_q_strip(r))
    return tuple(q), tuple(r)


def _q_monic(a):
    return tuple(c / a[-1] for c in a)


def _q_gcd(a, b):
    while b:
        a, b = b, _q_divmod(a, b)[1]
    return _q_monic(a)


class OldQ:
    def __init__(self, num, den=(Fraction(1),)):
        num, den = _q_strip(map(Fraction, num)), _q_strip(map(Fraction, den))
        g = _q_gcd(num, den)
        num, den = _q_divmod(num, g)[0], _q_divmod(den, g)[0]
        self.num, self.den = tuple(c / den[-1] for c in num), _q_monic(den)

    def __add__(self, o):
        return OldQ(_q_add(_q_mul(self.num, o.den), _q_mul(o.num, self.den)), _q_mul(self.den, o.den))

    def __neg__(self):
        return OldQ(tuple(-c for c in self.num), self.den)

    def __pos__(self):
        return self

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        return OldQ(_q_mul(self.num, o.num), _q_mul(self.den, o.den))

    def __truediv__(self, o):
        return OldQ(_q_mul(self.num, o.den), _q_mul(self.den, o.num))

    def __pow__(self, n):
        out = OldQ((1,))
        for _ in range(n):
            out = out * self
        return out


def reference_parse(text):
    """Evaluate the coefficient grammar with OldQ values (Python's own parser
    after '^' -> '**' and integer literals -> OldQ)."""
    expr = re.sub(r"\^\s*(\d+)", r"**\1", text)
    expr = re.sub(r"(?<!\*\*)(?<!\d)(\d+)", r"OldQ((\1,))", expr)
    return eval(expr, {"OldQ": OldQ, "t": OldQ((0, 1))})


def _monic_pair(f):
    lead = f.den[-1]
    return (
        tuple(Fraction(c, lead) for c in f.num),
        tuple(Fraction(c, lead) for c in f.den),
    )


def _workload_points(name, seed):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads.generate(name, seed).scenario["points"]


def test_parse_rational_matches_fraction_reference_on_workloads():
    texts = [
        c
        for name in ("conic-points", "ideal-session")
        for seed in (1, 2)
        for point in _workload_points(name, seed)
        for c in point
    ]
    assert len(texts) == 2 * (150 + 80)
    assert sum("/" in c for c in texts) > 100
    for text in texts:
        f = parse_rational(text)
        ref = reference_parse(text)
        assert _monic_pair(f) == (ref.num, ref.den), text
    text = "(2*t^2 + 2*t)/(4*t^2) - 3/(6*t - 2)"
    ref = reference_parse(text)
    assert _monic_pair(parse_rational(text)) == (ref.num, ref.den)


# --- hypothesis properties

_coeffs = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=12), min_size=1, max_size=5
)


@st.composite
def _elements(draw):
    num = draw(_coeffs)
    den = draw(_coeffs.filter(lambda c: any(c)))
    return RationalFunction(num, den)


def _is_canonical(f):
    if not f.num:
        return f.den == upoly.ONE
    return (
        upoly.gcd(f.num, f.den) == upoly.ONE
        and gcd(*f.num, *f.den) == 1
        and f.den[-1] > 0
        and all(type(c) is int for c in f.num + f.den)
    )


_t = sympy.Symbol("t")


def _to_sympy(p):
    return sympy.Poly(list(reversed(p)) or [0], _t, domain="QQ")


@settings(max_examples=60, deadline=None)
@given(f=_elements())
def test_parse_str_round_trip(f):
    assert _is_canonical(f)
    assert parse_rational(str(f)) == f


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(
    st.text(alphabet="t01+-*/^() X.#", max_size=12),
    st.text(max_size=8),
))
def test_garbage_raises_only_parse_error(text):
    try:
        f = parse_rational(text)
    except ParseError:
        return
    assert isinstance(f, RationalFunction) and _is_canonical(f)


@settings(max_examples=40, deadline=None)
@given(f=_elements(), g=_elements())
def test_field_operations_stay_canonical_and_agree_with_sympy(f, g):
    a, b, c, d = (_to_sympy(p) for p in (f.num, f.den, g.num, g.den))
    cases = [(f + g, a * d + c * b, b * d), (f - g, a * d - c * b, b * d), (f * g, a * c, b * d)]
    if g:
        cases.append((f / g, a * d, b * c))
    for h, p, q in cases:
        assert _is_canonical(h)
        assert _to_sympy(h.num) * q == p * _to_sympy(h.den)
        # lowest terms, found independently of upoly.gcd
        _, p, q = p.cancel(q)
        assert upoly.degree(h.den) == q.degree()
        if h:
            assert upoly.degree(h.num) == p.degree()


def _descent_trees():
    """Random expressions over integers and t with + - * /, unary signs and
    `^` (exponent <= 4) on bases of one term (`t^3`, `7^2`) and of several,
    with groups the tokenizer folds and groups it cannot, such as
    `(t + 0*1)`.  At most two `^`, so degrees stay small."""
    leaves = st.one_of(st.integers(0, 12).map(str), st.just("t"))
    exponents = st.integers(0, 4)

    def extend(inner):
        return st.one_of(
            st.builds("{} {} {}".format, inner, st.sampled_from("+-*/"), inner),
            st.builds("{}{}".format, st.sampled_from("-+"), inner),
            st.builds("({})".format, inner),
            st.builds("({} + 0*1)".format, inner),
            st.builds("{}^{}".format, leaves, exponents),
            st.builds("({})^{}".format, inner, exponents),
        )

    return st.recursive(leaves, extend, max_leaves=10).filter(lambda s: s.count("^") <= 2)


@settings(max_examples=300, deadline=None)
@given(text=_descent_trees())
def test_descent_agrees_with_the_reference(text):
    try:
        ref = reference_parse(text)
    except (IndexError, ZeroDivisionError):  # the reference divided by zero
        ref = None
    try:
        f = parse_rational(text)
    except ParseError as exc:
        assert ref is None and str(exc).startswith("division by zero"), text
        with pytest.raises(ParseError, match="division by zero"):
            parse_terms(text, 1)
        return
    assert ref is not None and _monic_pair(f) == (ref.num, ref.den), text
    try:
        terms = parse_terms(text, 1)
    except ParseError as exc:  # the one limit a coefficient does not have
        assert "estimated cost" in str(exc), text
        return
    assert set(terms) <= {(0,)}
    assert terms.get((0,), RationalFunction(0)) == f, text


def test_power_limits_see_the_reduced_base():
    # the degree and bit limits of `^` apply to the base's value, not to how
    # it is written
    one = RationalFunction(1)
    assert parse_rational("(t^600/t^600)^2") == one
    assert parse_rational("(1000/1000)^1000") == one
    n = 60  # written as a sum, the base has degree 60; its value n/t has degree 1
    assert parse_rational("(" + " + ".join(["1/t"] * n) + f")^20") == RationalFunction.reduced(
        (n**20,), upoly.pow_(upoly.T, 20)
    )
    for text, message in [
        ("(t^900/t^300)^2", "power of degree 1200"),
        ("(2*t^1000/(3*t^1000))^5000", "exponent 5000 exceeds"),
        ("(2^1000/3)^5", "power with coefficients of up to 5000 bits"),
    ]:
        with pytest.raises(ParseError, match=message):
            parse_rational(text)


def test_power_cost_counts_the_t_degree_of_the_coefficients():
    # (X0 + t*X1)^e has e + 1 terms whose coefficients are Z[t] tuples of up
    # to e + 1 integers of up to e bits: a cost of (e + 1)^3 * e
    assert len(parse_terms("(X0 + t*X1)^30", 2)) == 31  # cost 893,730
    with pytest.raises(ParseError, match="estimated cost of 1015808 exceeds the limit 1000000"):
        parse_terms("(X0 + t*X1)^31", 2)
    assert len(parse_terms("(X0 + t*X1 + t^2*X2)^10", 3)) == 66  # cost 582,120
    # free of t, the cost is terms * e * bits: 500 * 499 * 8 here
    with pytest.raises(ParseError, match="estimated cost of 1996000 exceeds"):
        parse_terms("(127*X0 + 128*X1)^499", 2)
    # a coefficient has no cost limit: (t + 1)^100, at a cost of
    # (100 + 1)^2 * 100 * 1, parses alone but not inside a polynomial
    assert parse_rational("(t+1)^100").num == upoly.pow_((1, 1), 100)
    with pytest.raises(ParseError) as err:
        parse_terms("(t+1)^100*X0", 1)
    assert str(err.value) == (
        "power with an estimated cost of 1020100 exceeds the limit 1000000 (at position 6)"
    )


# --- the fold: an expanded polynomial in t with integer coefficients that
# fills a group (or the text) is read as one `poly` token

def _kinds(text):
    return [kind for kind, _, _ in _tokenize(text)]


@st.composite
def _expanded(draw):
    """An expanded polynomial in t, written as the fold reads it: terms in
    any order, degrees repeated or missing, `t^0`, `t^1` and `1*t`, a sign
    on the first term or none, any spacing between tokens."""
    terms = draw(st.lists(
        st.tuples(st.integers(-30, 30), st.integers(0, 6)), min_size=1, max_size=7
    ))
    ws = st.sampled_from(["", " ", "  ", "\t", " \n "])
    parts = []
    for i, (c, k) in enumerate(terms):
        form = draw(st.sampled_from(["c", "c*t", "c*t^k", "t", "t^k"]))
        if k == 0 and form in ("c*t", "t"):
            form = "c"
        if form in ("t", "t^k") and abs(c) != 1:
            form = "c*t^k"
        w = [draw(ws) for _ in range(5)]
        body = {
            "c": f"{abs(c)}",
            "c*t": f"{abs(c)}{w[0]}*{w[1]}t",
            "c*t^k": f"{abs(c)}{w[0]}*{w[1]}t{w[2]}^{w[3]}{k}",
            "t": "t",
            "t^k": f"t{w[2]}^{w[3]}{k}",
        }[form]
        sign = "-" if c < 0 else draw(st.sampled_from(["+", ""] if i == 0 else ["+"]))
        parts.append(f"{sign}{w[4]}{body}")
    text = draw(ws) + draw(ws).join(parts) + draw(ws)
    return text


@settings(max_examples=150, deadline=None)
@given(a=_expanded(), b=_expanded(), form=st.sampled_from(
    ["{a}", "({a})", "(({a}))", "({a})/({b})", "2*({a}) - ({b})^2", "(({a})*({b}) + t)"]
))
def test_fold_agrees_with_the_reference(a, b, form):
    text = form.format(a=a, b=b)
    # every expanded polynomial is folded, so no `t` of theirs is left for
    # the descent
    assert _kinds(text).count("poly") == form.count("{")
    if "/" in form and not reference_parse(" ".join(b.split())).num:
        with pytest.raises(ParseError, match="division by zero"):
            parse_rational(text)
        return
    ref = reference_parse(" ".join(text.split()))  # Python's eval: no newlines
    assert _monic_pair(parse_rational(text)) == (ref.num, ref.den), text


@settings(max_examples=80, deadline=None)
@given(a=_expanded(), b=_expanded())
def test_folded_and_descended_groups_agree(a, b):
    # `0*1` is no term of the fold, so a group ending in it is parsed by the
    # descent; its value is the same
    for text in (f"({a})", f"({a})/({b})", f"(({a}) - t)*({b})"):
        forced = text.replace(")", " + 0*1)")
        assert "poly" not in _kinds(forced)
        try:
            folded = parse_rational(text)
        except ParseError as exc:
            assert str(exc).startswith("division by zero")
            with pytest.raises(ParseError, match="division by zero"):
                parse_rational(forced)
            continue
        assert parse_rational(forced) == folded, text
    assert parse_terms(f"({a})*X0 + ({b})*X1", 2) == parse_terms(
        f"({a} + 0*1)*X0 + ({b} + 0*1)*X1", 2
    )


def test_fold_fires_on_the_workload_coordinates():
    for seed in (1, 2):
        for point in _workload_points("conic-points", seed):
            for c in point:
                kinds = _kinds(c)
                assert set(kinds) <= {"poly", "op", "end"} and "poly" in kinds, c


def test_fold_keeps_the_descent_messages():
    for text, message in [
        ("2 (t + 1)", "unexpected trailing '(' (at position 2)"),
        ("(t + 1)(t - 1)", "unexpected trailing '(' (at position 7)"),
        ("t^(t + 1)", "exponent must be a nonnegative integer (at position 2)"),
        ("(t^1001 + 1)", "exponent 1001 exceeds the limit 1000 (at position 3)"),
        ("(t + 1)/(t - t)", "division by zero (at position 7)"),
        ("((t + 1)", "expected ')' (at position 8)"),
        ("(1 (t + 1))", "expected ')' (at position 3)"),
        ("t +", "unexpected end of input (at position 3)"),
        ("(t - 1) * ", "unexpected end of input (at position 10)"),
        ("-", "unexpected end of input (at position 1)"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_rational(text)
        assert str(err.value) == message, text
    with pytest.raises(ParseError) as err:
        parse_terms("(t + 1) X0", 1)
    assert str(err.value) == "unexpected trailing 'X0' (at position 8)"
    with pytest.raises(ParseError) as err:
        parse_terms("X0/(t - t)", 1)
    assert str(err.value) == "division by zero (at position 2)"


def test_integer_literals_are_limited_on_both_paths():
    # the digits of 2^MAX_COEFFICIENT_BITS: every coefficient the power limit
    # allows can be written out
    assert MAX_LITERAL_DIGITS == len(str(2**MAX_COEFFICIENT_BITS)) == 1205
    big = "9" * MAX_LITERAL_DIGITS
    assert parse_rational(big).num == (int(big),)  # folded
    assert parse_rational(f"({big}*t + 1)").num == (1, int(big))  # folded
    assert parse_rational(f"{big}/2").num == (int(big),)  # descent
    assert parse_rational(f"2^{big[:3]}/2^{big[:3]}") == 1
    long = "1" * (MAX_LITERAL_DIGITS + 1)
    for text, position in [
        (long, 0),
        (f"(t + {long})", 5),
        (f"({long}*t + 1)", 1),
        (f"t^{long}", 2),
        (f"(t^{long} + 1)", 3),
        (f"1/{long}", 2),
    ]:
        with pytest.raises(ParseError) as err:
            parse_rational(text)
        assert str(err.value) == (
            f"integer literal of {len(long)} digits exceeds the limit "
            f"{MAX_LITERAL_DIGITS} (at position {position})"
        )
    # past Python's own 4300-digit limit of int() as well
    with pytest.raises(ParseError, match="integer literal of 5000 digits"):
        parse_terms("1" * 5000 + "*X0", 1)
