"""Exact univariate polynomial arithmetic over Z in the variable t.

Polynomials are immutable tuples of ints, lowest degree first, with trailing
zeros stripped; the empty tuple is the zero polynomial.  Q(t) is the
fraction field of Z[t], so this one representation serves every element of
K (a coprime numerator/denominator pair, see `function_field`) and the
fraction-free elimination in `linalg`.  Nothing here touches a Fraction:
`format_poly` reduces each coefficient over its denominator with one
integer gcd.

Division over Z comes in two forms: `divmod_` is pseudo-division
(lc(b)^k * a = q*b + r), which drives the primitive remainder sequence, and
`quo` is exact division, which answers whether b divides a.  By Gauss's
lemma a primitive p divides a in Q[t] exactly when it divides it in Z[t],
so `multiplicity` at a place needs only `quo`; it first compares the values
at t = 2^20 (`probe`), since p | a in Z[t] forces p(2^20) | a(2^20), and
most places are rejected by that one integer remainder; a caller that tests
one value at several places passes the probes in, so each is computed once.
`gcd` is the heuristic GCD of Char, Geddes and Gonnet (one integer gcd at an
evaluation point, then two exact divisions), with the primitive PRS as its
fallback.  It returns (g, a/g, b/g): the exact divisions of its check are
the cofactors, so no caller divides by g again, and for g = 1 the cofactors
are a and b themselves.  `divide_content` is the one normal form of a vector
over K once its denominators are cleared: points, forms and echelon rows all
use it.
Factorization into irreducibles is delegated to sympy and cached, since
that is the one genuinely hard primitive here.  sympy is imported on the
first call that needs it: a factorization with a factor of degree >= 2
left after the content and the powers of t, or the irreducibility of a
polynomial of degree >= 3.  A quadratic is decided from its discriminant,
so a run whose places have degree <= 2 never loads sympy.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd as igcd, isqrt

from .errors import InvariantViolated

ZERO = ()
ONE = (1,)
T = (0, 1)

# Evaluation points tried by the heuristic gcd before it falls back to the PRS.
_HEU_GCD_TRIES = 6

# The point at which `multiplicity` tests divisibility before it divides.
_REJECT_AT = 1 << 20


def strip(coeffs) -> tuple:
    """Normalize an iterable of ints (lowest degree first) to a polynomial."""
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def degree(p) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def add(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def neg(a) -> tuple:
    return tuple(-c for c in a)


def sub(a, b) -> tuple:
    """a - b, trailing zeros stripped."""
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


def mul(a, b) -> tuple:
    """Product; the package's one convolution."""
    if not a or not b:
        return ()
    if len(a) == 1:
        return scale(b, a[0])
    if len(b) == 1:
        return scale(a, b[0])
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return tuple(out)  # leading coefficients multiply to a nonzero int


def scale(a, c: int) -> tuple:
    if not c:
        return ()
    if c == 1:
        return a
    return tuple(x * c for x in a)


def primitive(a) -> tuple:
    """a divided by its content, with a positive leading coefficient."""
    if not a:
        return ()
    c = igcd(*a)
    if a[-1] < 0:
        c = -c
    if c == 1:
        return a
    return tuple(x // c for x in a)


def divide_content(polys) -> list:
    """The polynomials divided by their gcd in Z[t], zeros kept: a family
    with content 1 and no sign rule.  The gcd fold stops once it reaches 1;
    until then each step's cofactors are the quotients, and those of earlier
    polynomials are multiplied by how much the gcd shrank."""
    polys = list(polys)
    g, out = ZERO, []
    for p in polys:
        g, shrink, q = gcd(g, p)
        if g == ONE:
            return polys
        if shrink != ONE:
            out = [mul(c, shrink) for c in out]
        out.append(q)
    return out if g else polys


def coprime_base(polys) -> list:
    """Pairwise coprime primitive polynomials of degree >= 1, each with a
    positive leading coefficient, such that every nonzero p in polys is an
    integer times a product of their powers.

    Factor refinement (Bach, Driscoll and Shallit, J. Algorithms 15, 1993)
    by gcds alone: an element that shares a factor g with one of the base
    leaves the base with it, and g and the two cofactors are refined in
    their place.  Each such step lowers the total degree, so it ends.
    """
    base, pending = [], [primitive(p) for p in polys if len(p) > 1]
    while pending:
        x = pending.pop()
        if len(x) < 2:
            continue
        for i, b in enumerate(base):
            g, x_g, b_g = gcd(x, b)
            if len(g) > 1:
                del base[i]
                pending += [g, x_g, b_g]
                break
        else:
            base.append(x)
    return base


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
    """Pseudo-division: (q, r) with lc(b)^k * a = q*b + r and deg r < deg b,
    where k = max(deg a - deg b + 1, 0)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    k = len(a) - len(b) + 1
    if k <= 0:
        return (), a
    lb = b[-1]
    db = len(b) - 1
    r = list(a)
    q = [0] * k
    # Step i multiplies what is left by lb and cancels the coefficient of
    # t^(i+db); the quotient digits of earlier steps pick up one lb each.
    for i in range(k - 1, -1, -1):
        c = r[i + db]
        if lb != 1:
            for j in range(i + db):
                r[j] *= lb
            for j in range(i + 1, k):
                q[j] *= lb
        q[i] = c
        if c:
            for j, cb in enumerate(b[:-1]):
                r[i + j] -= c * cb
        r[i + db] = 0
    return tuple(q), strip(r[:db])


def quo(a, b):
    """The quotient a / b when b divides a in Z[t], else None."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ()
    db = len(b) - 1
    k = len(a) - db
    if k <= 0:
        return None
    lb = b[-1]
    if db == 0:
        if any(x % lb for x in a):
            return None
        return tuple(x // lb for x in a)
    r = list(a)
    q = [0] * k
    for i in range(k - 1, -1, -1):
        c, rem = divmod(r[i + db], lb)
        if rem:
            return None
        if c:
            q[i] = c
            for j, cb in enumerate(b):
                r[i + j] -= c * cb
    if any(r[:db]):
        return None
    return tuple(q)


def evaluate(a, x: int) -> int:
    """a(x) for an integer x, by Horner's rule."""
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _interpolate(h: int, x: int) -> tuple:
    """The polynomial whose value at x is h, digits in (-x/2, x/2]."""
    out = []
    while h:
        g = h % x
        if g > x // 2:
            g -= x
        out.append(g)
        h = (h - g) // x
    return tuple(out)


def _prs_gcd(a, b) -> tuple:
    """gcd of primitive polynomials by the primitive remainder sequence."""
    while b:
        a, b = b, primitive(divmod_(a, b)[1])
    return primitive(a)


def gcd(a, b) -> tuple:
    """(g, a/g, b/g): the gcd in Z[t], content gcd times primitive gcd with
    leading coefficient > 0, and the cofactors; for g = 1 the cofactors are
    a and b themselves.  gcd(0, 0) is (0, 0, 0).

    Heuristic GCD (Char, Geddes and Gonnet, 1989): the integer gcd of a(x)
    and b(x), read back in balanced base x, is the gcd as soon as its
    primitive part divides both, for any x > 2 * min(|a|, |b|) + 1 in the
    max norm; the two exact quotients of that check are the cofactors.
    After a few evaluation points it gives way to the PRS.
    """
    if not a or not b:
        # gcd(0, c) = |c|, cofactors 0 and sign(c): c itself when |c| = 1
        c = a or b
        if not c:
            return ZERO, ZERO, ZERO
        g = c if c[-1] > 0 else neg(c)
        unit = c if g == ONE else (ONE if g is c else (-1,))
        return (g, a, unit) if b else (g, unit, b)
    ca, cb = igcd(*a), igcd(*b)
    c = igcd(ca, cb)
    if len(a) == 1 or len(b) == 1:
        if c == 1:
            return ONE, a, b
        return (c,), tuple(v // c for v in a), tuple(v // c for v in b)
    a0, b0 = a, b
    if ca != 1:
        a = tuple(v // ca for v in a)
    if cb != 1:
        b = tuple(v // cb for v in b)
    # The cofactors are the quotients of these primitive parts times ca/c, cb/c.
    ka, kb = ca // c, cb // c
    if len(a) == len(b) and (a == b or a == neg(b)):
        g = primitive(a)
        return scale(g, c), (ka if a == g else -ka,), (kb if b == g else -kb,)
    x = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(_HEU_GCD_TRIES):
        va, vb = evaluate(a, x), evaluate(b, x)
        if va and vb:
            g = primitive(_interpolate(igcd(va, vb), x))
            if len(g) == 1:
                break
            qa = quo(a, g)
            if qa is not None and (qb := quo(b, g)) is not None:
                return scale(g, c), scale(qa, ka), scale(qb, kb)
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    else:
        g = _prs_gcd(primitive(a), primitive(b))
        if len(g) > 1:
            return scale(g, c), scale(quo(a, g), ka), scale(quo(b, g), kb)
    if c == 1:
        return ONE, a0, b0
    return (c,), scale(a, ka), scale(b, kb)


def probe(a) -> int:
    """a(2^20), the integer on which `multiplicity` tests divisibility."""
    return evaluate(a, _REJECT_AT)


def multiplicity(a, p, a_at=None, p_at=None) -> int:
    """Largest k with p^k | a; a nonzero, p primitive of degree >= 1.
    a_at and p_at, when given, are probe(a) and probe(p).

    p | a in Z[t] forces p(X) | a(X) at the integer X = 2^20, so a nonzero
    remainder there answers without a division; when p(X) = 0 the test
    says nothing and is skipped.  After a division the quotient's value is
    a(X) / p(X), so nothing is evaluated twice.
    """
    if not a:
        raise ZeroDivisionError("multiplicity in zero polynomial")
    if p_at is None:
        p_at = probe(p)
    if a_at is None and p_at:
        a_at = probe(a)
    k = 0
    while True:
        if p_at:
            a_at, r = divmod(a_at, p_at)
            if r:
                return k
        q = quo(a, p)
        if q is None:
            return k
        a = q
        k += 1


def _to_sympy(p):
    """p as a sympy Poly over ZZ; the one place sympy is imported."""
    import sympy

    return sympy.Poly(list(reversed(p)) or [0], sympy.Symbol("t"), domain="ZZ")


@lru_cache(maxsize=8192)
def factor_monic(p) -> tuple:
    """Factor p into (unit, ((irreducible factor, multiplicity), ...)).

    Each factor is primitive with a positive leading coefficient, so it is
    the integer form of a monic irreducible of Q[t]; the unit is the signed
    content, and unit * prod(f^m) == p exactly.  Factors are sorted by
    (degree, coefficient tuple) so the output is deterministic.
    """
    if not p:
        raise ZeroDivisionError("factor of zero polynomial")
    if len(p) == 1:
        return p[0], ()
    # Strip the content and any power of t cheaply before calling sympy.
    k = 0
    while p[k] == 0:
        k += 1
    core = primitive(p[k:])
    unit = p[-1] // core[-1]
    factors = [(T, k)] if k else []
    if len(core) > 1:
        c0, fl = _to_sympy(core).factor_list()
        unit *= int(c0)
        for f, m in fl:
            g = strip(int(c) for c in reversed(f.all_coeffs()))
            if g[-1] < 0:
                g = neg(g)
                unit *= (-1) ** m
            factors.append((g, m))
    factors.sort(key=lambda fm: (len(fm[0]), fm[0]))
    rebuilt = (unit,)
    for g, m in factors:
        rebuilt = mul(rebuilt, pow_(g, m))
    if rebuilt != p:
        raise InvariantViolated("factor normalization lost the unit")
    return unit, tuple(factors)


@lru_cache(maxsize=8192)
def is_irreducible(p) -> bool:
    """Irreducibility over Q of a nonzero polynomial."""
    if len(p) < 2:
        return False
    if len(p) == 2:
        return True
    if len(p) == 3:
        disc = p[1] * p[1] - 4 * p[0] * p[2]
        return disc < 0 or isqrt(disc) ** 2 != disc
    return bool(_to_sympy(p).is_irreducible)


def format_poly(p, den: int = 1) -> str:
    """Render p / den in the input grammar, highest degree first:
    '2*t^3 - t + 1/2'.  den is a positive int."""
    if not p:
        return "0"
    parts = []
    for e in range(len(p) - 1, -1, -1):
        c = p[e]
        if c == 0:
            continue
        g = igcd(c, den)
        num, q = abs(c) // g, den // g
        coeff = str(num) if q == 1 else f"{num}/{q}"
        parts.append(" - " if c < 0 else " + ")
        if e == 0:
            parts.append(coeff)
        else:
            v = "t" if e == 1 else f"t^{e}"
            parts.append(v if coeff == "1" else f"{coeff}*{v}")
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)
