"""Sparse homogeneous multivariate polynomials over K = Q(t).

Variables are X0..XM; a monomial is a plain tuple of exponents.  The term
order used everywhere (column orders, pivot choices, basis listings) is
graded lexicographic with X0 > X1 > ... > XM, realized as plain tuple
comparison within a fixed degree, largest first.

`HomogeneousPoly` is the one form type.  A Chow form (`chow.MultiHomForm`)
is a HomogeneousPoly whose variables are laid out in blocks, one after
another, so its arithmetic is this module's.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import comb, prod

from .errors import (
    DegreeMismatch,
    Frozen,
    NotHomogeneous,
    PreconditionViolated,
    VarCountMismatch,
    ZeroPolynomial,
)
from . import upoly
from .function_field import ProjectivePoint, RationalFunction, primitive_polys


def monomial_degree(mono) -> int:
    return sum(mono)


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def collect(items, out=None) -> dict:
    """Sum (key, coefficient) pairs into a term map, dropping zero sums.

    This is the one place where sparse polynomials over K are added.  `out`,
    when given, is updated in place.  A key whose sum cancels is removed, and
    re-inserted at the end if it comes back.
    """
    out = {} if out is None else out
    for key, c in items:
        s = out.get(key)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s
    return out


def mul_terms(a: dict, b: dict) -> dict:
    """Product of two term maps keyed by exponent tuples."""
    return collect(
        (monomial_mul(k1, k2), c1 * c2) for k1, c1 in a.items() for k2, c2 in b.items()
    )


def format_monomial(mono) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(f"X{i}")
        elif e > 1:
            parts.append(f"X{i}^{e}")
    return "*".join(parts)


# The most monomials one graded piece may have.  Every Macaulay matrix,
# quotient basis and filtration level takes its monomials from
# monomial_basis, so this bounds them all before any list is built.  The
# twisted cubic's largest piece within it (degree 31, 5,984 monomials)
# builds in about 1 s on 2 vCPUs; its rank work grows like degree^4.
MAX_PIECE_MONOMIALS = 6000


@lru_cache(maxsize=1024)
def monomial_basis(num_vars: int, degree: int) -> tuple:
    """All degree-`degree` monomials in num_vars variables, glex descending."""
    if num_vars < 1 or degree < 0:
        raise PreconditionViolated("need num_vars >= 1 and degree >= 0")
    count = comb(degree + num_vars - 1, num_vars - 1)
    if count > MAX_PIECE_MONOMIALS:
        raise PreconditionViolated(
            f"degree {degree} in {num_vars} variables has {count} monomials, "
            f"more than the limit {MAX_PIECE_MONOMIALS}"
        )

    def gen(rest, d):
        if rest == 1:
            yield (d,)
            return
        for e in range(d, -1, -1):
            for tail in gen(rest - 1, d - e):
                yield (e,) + tail

    return tuple(gen(num_vars, degree))


def _coerce_coeff(c) -> RationalFunction:
    return c if isinstance(c, RationalFunction) else RationalFunction(c)


def power_table(values) -> list:
    """Growable power lists [v, v^2, ...], one per value, shared across many
    evaluations at the same values."""
    return [[v] for v in values]


def eval_terms(terms, powers, zero, mul=operator.mul, add=operator.add):
    """Substitute the values of a power table into a term map.

    The one substitution routine of the package: the values may lie in any
    ring whose elements multiply with the coefficients, `zero` included.
    `mul` and `add` are that ring's operations; the defaults suit values
    with arithmetic operators, and Z[t] as `upoly` tuples passes
    `upoly.mul` and `upoly.add`.
    """
    total = zero
    for mono, c in terms.items():
        term = c
        for i, e in enumerate(mono):
            if e:
                p = powers[i]
                while len(p) < e:
                    p.append(mul(p[-1], p[0]))
                term = mul(term, p[e - 1])
        total = add(total, term)
    return total


def primitive_values(forms, x: ProjectivePoint) -> list:
    """The values Q(x) in Z[t] of the primitive form of each Q (see
    HomogeneousPoly.primitive) at the primitive coordinates of x, with one
    power table for all of them.  A value is () exactly when x lies on
    {Q = 0}; a caller that reads only that takes `zero_test_values`."""
    powers = power_table(x.primitive()[0])
    return [eval_terms(q.primitive()[0], powers, (), upoly.mul, upoly.add) for q in forms]


def zero_test_values(term_maps, coords) -> list:
    """One integer per form Q, given by its term map over Z[t] (`upoly`
    coefficients), that is 0 exactly when Q(x) = 0 in Z[t], x the point
    with the Z[t] coordinates `coords`: the value Q(x)(t0) at one
    t0 = 2^L for all the forms.

    With ||p||_1 the sum of the absolute coefficients of p, which is
    submultiplicative, B = sum ||c||_1 * prod ||x_i||_1^e_i over the terms
    c * X^e of Q bounds every coefficient of Q(x).  By Cauchy's bound, every
    complex root z of a nonzero Q(x) has |z| <= 1 + B, since its leading
    coefficient is a nonzero integer.  So t0 = 2^L > B + 1, L taken for the
    largest B, is a root of none of them.  Callers that only test Q(x) for
    zero read one integer per form, not its coefficients in Z[t].
    """
    norms = [sum(map(abs, x)) for x in coords]
    bound = max(
        (sum(sum(map(abs, c)) * prod(map(pow, norms, mono)) for mono, c in terms.items())
         for terms in term_maps),
        default=0,
    )
    t0 = 1 << (bound + 1).bit_length()
    point = [upoly.evaluate(x, t0) for x in coords]
    return [
        sum(upoly.evaluate(c, t0) * prod(map(pow, point, mono)) for mono, c in terms.items())
        for terms in term_maps
    ]


class HomogeneousPoly(Frozen):
    """A homogeneous form of fixed degree; zero coefficients never stored.

    The zero form of a given degree is allowed (empty term map) so that
    arithmetic is closed.  Forms are immutable, and zero forms compare equal
    regardless of their declared degree.
    """

    __slots__ = ("num_vars", "degree", "terms", "_primitive")

    def __init__(self, num_vars: int, degree: int, terms):
        clean = {}
        for mono, c in terms.items():
            c = _coerce_coeff(c)
            if c.is_zero():
                continue
            if len(mono) != num_vars:
                raise VarCountMismatch(
                    f"monomial {mono} has {len(mono)} vars, expected {num_vars}"
                )
            if monomial_degree(mono) != degree:
                raise NotHomogeneous(
                    f"monomial {format_monomial(mono)} has degree "
                    f"{monomial_degree(mono)}, expected {degree}"
                )
            clean[tuple(mono)] = c
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_primitive", None)

    @classmethod
    def _trusted(cls, num_vars: int, degree: int, terms: dict) -> "HomogeneousPoly":
        """Wrap a term map already clean, skipping the per-term checks: tuple
        keys of `num_vars` exponents summing to `degree`, each mapped to a
        nonzero RationalFunction.  The map is taken over, not copied."""
        f = object.__new__(cls)
        object.__setattr__(f, "num_vars", num_vars)
        object.__setattr__(f, "degree", degree)
        object.__setattr__(f, "terms", terms)
        object.__setattr__(f, "_primitive", None)
        return f

    @classmethod
    def zero(cls, num_vars: int, degree: int = 0) -> "HomogeneousPoly":
        return cls(num_vars, degree, {})

    @classmethod
    def monomial(cls, num_vars: int, exponents, coeff=1) -> "HomogeneousPoly":
        exponents = tuple(exponents)
        return cls(num_vars, monomial_degree(exponents), {exponents: coeff})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "HomogeneousPoly":
        exps = tuple(1 if i == index else 0 for i in range(num_vars))
        return cls(num_vars, 1, {exps: 1})

    @classmethod
    def from_terms(cls, num_vars: int, terms: dict) -> "HomogeneousPoly":
        """Build from a term map, inferring and checking the common degree.
        A NotHomogeneous names the first nonzero term whose degree differs
        from the first nonzero term's."""
        terms = {m: k for m, c in terms.items() if (k := _coerce_coeff(c))}
        if not terms:
            return cls.zero(num_vars)
        degrees = [monomial_degree(m) for m in terms]
        if len(set(degrees)) != 1:
            key = next(m for m, e in zip(terms, degrees) if e != degrees[0])
            raise NotHomogeneous(f"mixed term degrees {sorted(set(degrees))}", key)
        return cls(num_vars, degrees[0], terms)

    def _with_terms(self, terms) -> "HomogeneousPoly":
        return HomogeneousPoly(self.num_vars, self.degree, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def coefficients(self):
        return [c for _, c in self.sorted_terms()]

    def primitive(self) -> tuple:
        """(terms, h) for a nonzero form Q: the term map of Q times the
        element of K* that makes its coefficients coprime in Z[t], each an
        `upoly` tuple, and h(Q), the largest degree among them.  Computed
        once per form."""
        if self._primitive is None:
            if not self.terms:
                raise ZeroPolynomial("the zero form has no primitive form")
            coeffs = primitive_polys(self.terms.values())
            object.__setattr__(self, "_primitive", (
                dict(zip(self.terms, coeffs)), max(map(upoly.degree, coeffs))
            ))
        return self._primitive

    def leading_monomial(self):
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading monomial")
        return max(self.terms)

    def leading_coefficient(self) -> RationalFunction:
        return self.terms[self.leading_monomial()]

    def __add__(self, other):
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        if self.num_vars != other.num_vars:
            raise VarCountMismatch(f"{self.num_vars} vs {other.num_vars} variables")
        if self.degree != other.degree and self.terms and other.terms:
            raise DegreeMismatch(f"degree {self.degree} + degree {other.degree}")
        out = collect(other.terms.items(), dict(self.terms))
        return HomogeneousPoly(
            self.num_vars, self.degree if self.terms else other.degree, out
        )

    def __mul__(self, other):
        if isinstance(other, (int, RationalFunction)):
            return self.scale(other)
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        if self.num_vars != other.num_vars:
            raise VarCountMismatch(f"{self.num_vars} vs {other.num_vars} variables")
        out = mul_terms(self.terms, other.terms)
        return HomogeneousPoly(self.num_vars, self.degree + other.degree, out)

    def __rmul__(self, other):
        if isinstance(other, (int, RationalFunction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c = _coerce_coeff(c)
        return self._with_terms({} if c.is_zero() else {k: v * c for k, v in self.terms.items()})

    def __neg__(self):
        return self._with_terms({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        return self + (-other)

    def __pow__(self, n: int):
        one = HomogeneousPoly.monomial(self.num_vars, (0,) * self.num_vars)
        return upoly.power(self, n, one, operator.mul)

    def __eq__(self, other):
        return (
            isinstance(other, HomogeneousPoly)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def evaluate(self, point) -> RationalFunction:
        """Exact substitution; accepts a ProjectivePoint or a coordinate list."""
        coords = point.coordinates if isinstance(point, ProjectivePoint) else tuple(point)
        if len(coords) != self.num_vars:
            raise VarCountMismatch(
                f"point has {len(coords)} coordinates, poly has {self.num_vars} vars"
            )
        powers = power_table([_coerce_coeff(c) for c in coords])
        return eval_terms(self.terms, powers, RationalFunction(0))

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    def __str__(self):
        return _format_terms(self.terms)

    def __repr__(self):
        return f"HomogeneousPoly({self})"


def _format_terms(terms) -> str:
    if not terms:
        return "0"
    parts = []
    for mono, c in sorted(terms.items(), key=lambda kv: kv[0], reverse=True):
        ctext = str(c)
        negate = ctext.startswith("-") and "+" not in ctext and ctext.count("-") == 1
        if negate:
            sign, ctext = "-", ctext[1:]
        else:
            sign = "+"
        mtext = format_monomial(mono)
        if not mtext:
            body = ctext if "/" not in ctext or ctext.replace("/", "").isdigit() else f"({ctext})"
        elif ctext == "1":
            body = mtext
        else:
            if not ctext.lstrip("-").isdigit() and not ctext.startswith("("):
                ctext = f"({ctext})"
            body = f"{ctext}*{mtext}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def parse_poly(text: str, num_vars: int) -> HomogeneousPoly:
    """Parse the polynomial grammar and validate homogeneity."""
    from .parsing import parse_terms

    terms = parse_terms(text, num_vars)
    return HomogeneousPoly.from_terms(num_vars, terms)
