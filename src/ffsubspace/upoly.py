"""Exact univariate polynomial arithmetic over Q in the variable t.

Polynomials are immutable tuples of Fractions, lowest degree first, with
trailing zeros stripped; the empty tuple is the zero polynomial.  This flat
representation keeps the field arithmetic of Q(t) and the matrix kernels
cheap; factorization into monic irreducibles is delegated to sympy and
cached, since that is the one genuinely hard primitive here.

`mul` works over a common denominator: it scales both operands to integer
coefficients (`numerators`), convolves them with `int_mul` and divides once
per output coefficient.  `int_mul` and `int_sub` act on tuples of ints in
the same layout; they are also the kernel of the fraction-free elimination
in `linalg`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

import sympy

_T = sympy.Symbol("t")

ZERO = ()
ONE = (Fraction(1),)
T = (Fraction(0), Fraction(1))


def qp(coeffs) -> tuple:
    """Normalize a coefficient iterable (lowest degree first) to a poly."""
    out = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def const(c) -> tuple:
    return qp([c])


def degree(p) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def is_zero(p) -> bool:
    return not p


def leading(p) -> Fraction:
    if not p:
        raise ZeroDivisionError("leading coefficient of zero polynomial")
    return p[-1]


def add(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def neg(a) -> tuple:
    return tuple(-c for c in a)


def int_mul(a, b) -> tuple:
    """Product of integer coefficient tuples; the package's one convolution."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def int_sub(a, b) -> tuple:
    """Difference of integer coefficient tuples, trailing zeros stripped."""
    if len(a) >= len(b):
        out = list(a)
        for i, c in enumerate(b):
            out[i] -= c
    else:
        out = [-c for c in b]
        for i, c in enumerate(a):
            out[i] += c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def numerators(polys) -> tuple:
    """([integer coefficient tuple of D*p for p in polys], D), D the lcm of
    all their coefficient denominators."""
    den = lcm(*(c.denominator for p in polys for c in p))
    if den == 1:
        return [tuple(c.numerator for c in p) for p in polys], 1
    return [tuple(c.numerator * (den // c.denominator) for c in p) for p in polys], den


def mul(a, b) -> tuple:
    if not a or not b:
        return ()
    if len(a) == 1:
        return scale(b, a[0])
    if len(b) == 1:
        return scale(a, b[0])
    (na, nb), den = numerators((a, b))
    if den == 1:
        return tuple(Fraction(x) for x in int_mul(na, nb))
    den *= den
    return tuple(Fraction(x, den) for x in int_mul(na, nb))


def scale(a, c) -> tuple:
    c = c if isinstance(c, Fraction) else Fraction(c)
    if c == 0:
        return ()
    return tuple(x * c for x in a)


def power(base, n: int, one, mul):
    """base ** n by square-and-multiply, for any `mul` with identity `one`.

    Shared by every polynomial type of the package and by the parser.
    """
    if n < 0:
        raise ValueError("negative exponent")
    if n == 0:
        return one
    while not n & 1:
        base = mul(base, base)
        n >>= 1
    result = base
    while n > 1:
        base = mul(base, base)
        n >>= 1
        if n & 1:
            result = mul(result, base)
    return result


def pow_(a, n: int) -> tuple:
    return power(a, n, ONE, mul)


def divmod_(a, b) -> tuple:
    """Euclidean division: a = q*b + r with deg r < deg b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lb = b[-1]
    db = len(b) - 1
    while len(r) >= len(b):
        c = r[-1] / lb
        k = len(r) - 1 - db
        q[k] = c
        for i, cb in enumerate(b):
            r[k + i] -= c * cb
        while r and r[-1] == 0:
            r.pop()
    return tuple(q), tuple(r)


def monic(a) -> tuple:
    if not a:
        return ()
    l = a[-1]
    if l == 1:
        return a
    return tuple(c / l for c in a)


def gcd(a, b) -> tuple:
    """Monic gcd; every remainder is made monic so coefficients stay small."""
    while b:
        a, b = b, monic(divmod_(a, b)[1])
    return monic(a)


def multiplicity(a, p) -> int:
    """Largest k with p^k | a; a nonzero, deg p >= 1."""
    if not a:
        raise ZeroDivisionError("multiplicity in zero polynomial")
    k = 0
    while True:
        q, r = divmod_(a, p)
        if r:
            return k
        a = q
        k += 1


def _to_sympy(p):
    return sympy.Poly(list(reversed(p)) or [0], _T, domain="QQ")


def _from_sympy(f) -> tuple:
    return qp(Fraction(c.p, c.q) for c in reversed(f.all_coeffs()))


@lru_cache(maxsize=8192)
def factor_monic(p) -> tuple:
    """Factor p into (unit, ((monic irreducible, multiplicity), ...)).

    unit * prod(f^m) == p exactly.  Factors are sorted by (degree,
    coefficient tuple) so the output is deterministic.
    """
    if not p:
        raise ZeroDivisionError("factor of zero polynomial")
    if len(p) == 1:
        return p[0], ()
    # Strip the content and any power of t cheaply before calling sympy.
    k = 0
    while p[k] == 0:
        k += 1
    unit = p[-1]
    core = tuple(c / unit for c in p[k:])
    factors = [(T, k)] if k else []
    if len(core) > 1:
        # sympy may hand back primitive integer factors with rational content;
        # re-monicize and fold every leading coefficient into the unit check.
        c0, fl = _to_sympy(core).factor_list()
        check = Fraction(c0.p, c0.q)
        for f, m in fl:
            g = _from_sympy(f)
            check *= leading(g) ** m
            factors.append((monic(g), m))
        assert check == 1, "factor normalization lost the unit"
    factors.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return unit, tuple(factors)


@lru_cache(maxsize=8192)
def is_irreducible(p) -> bool:
    if len(p) < 2:
        return False
    if len(p) == 2:
        return True
    return bool(_to_sympy(p).is_irreducible)


def format_poly(p, var: str = "t") -> str:
    """Render in the input grammar, highest degree first: '2*t^3 - t + 1/2'."""
    if not p:
        return "0"
    parts = []
    for e in range(len(p) - 1, -1, -1):
        c = p[e]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if e == 0:
            body = str(c)
        else:
            v = var if e == 1 else f"{var}^{e}"
            body = v if c == 1 else f"{c}*{v}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text
