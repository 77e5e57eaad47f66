"""The coefficient parser over Z[t] pairs: seeded workload inputs against a
Fraction-tuple reference evaluator, and hypothesis properties."""

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
from ffsubspace.parsing import parse_rational, parse_terms

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


def test_parse_rational_matches_fraction_reference_on_workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    texts = [
        c
        for name in ("conic-points", "ideal-session")
        for seed in (1, 2)
        for point in workloads.generate(name, seed).scenario["points"]
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
