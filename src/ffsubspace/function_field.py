"""The rational function field K = Q(t): elements, places, heights, Weil functions.

Places are the monic irreducibles of Q[t] plus the place at infinity; a place
of degree e weighs its valuation by e, which makes the sum formula
sum_p ord_p(f) * deg(p) = 0 hold exactly for every nonzero f.  Everything
here is exact rational arithmetic; no floats anywhere.

Heights and Weil values come from primitive coordinates (coprime in Q[t]),
where e_p(x) is 0 at finite places and -max deg at infinity: no factoring.
Only divisor, support and height_elem factor, through sympy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from . import upoly
from .errors import ParseError, PointOnDivisor, ZeroElement, ZeroPolynomial


class RationalFunction:
    """An element of Q(t) in canonical form.

    num/den are upoly tuples; den is monic and coprime to num; zero is
    represented as num=(), den=(1,).  Canonical form makes equality and
    hashing structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=upoly.ONE):
        if isinstance(num, (int, Fraction)):
            num = upoly.const(num)
        if isinstance(den, (int, Fraction)):
            den = upoly.const(den)
        num = upoly.qp(num)
        den = upoly.qp(den)
        if upoly.is_zero(den):
            raise ZeroDivisionError("zero denominator in Q(t)")
        if upoly.is_zero(num):
            object.__setattr__(self, "num", ())
            object.__setattr__(self, "den", upoly.ONE)
            return
        if len(den) > 1:
            g = upoly.gcd(num, den)
            if upoly.degree(g) > 0:
                num = upoly.divmod_(num, g)[0]
                den = upoly.divmod_(den, g)[0]
        lead = upoly.leading(den)
        if lead != 1:
            num = upoly.scale(num, Fraction(1) / lead)
            den = upoly.scale(den, Fraction(1) / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def t(cls) -> "RationalFunction":
        return cls(upoly.T)

    @classmethod
    def parse(cls, text: str) -> "RationalFunction":
        from .parsing import parse_rational

        return parse_rational(text)

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RationalFunction(
            upoly.add(upoly.mul(self.num, o.den), upoly.mul(o.num, self.den)),
            upoly.mul(self.den, o.den),
        )

    __radd__ = __add__

    @classmethod
    def _canonical(cls, num, den=upoly.ONE) -> "RationalFunction":
        """Wrap a pair already in canonical form, skipping the gcd."""
        f = object.__new__(cls)
        object.__setattr__(f, "num", num)
        object.__setattr__(f, "den", den)
        return f

    def __neg__(self):
        return RationalFunction._canonical(upoly.neg(self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RationalFunction(
            upoly.mul(self.num, o.num), upoly.mul(self.den, o.den)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not o.num:
            raise ZeroDivisionError("division by zero in Q(t)")
        return RationalFunction(
            upoly.mul(self.num, o.den), upoly.mul(self.den, o.num)
        )

    def __rtruediv__(self, other):
        return RationalFunction(other) / self

    def __pow__(self, n: int):
        if n < 0:
            if not self.num:
                raise ZeroDivisionError("0 ** negative in Q(t)")
            return RationalFunction(upoly.pow_(self.den, -n), upoly.pow_(self.num, -n))
        return RationalFunction(upoly.pow_(self.num, n), upoly.pow_(self.den, n))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den == upoly.ONE:
            return upoly.format_poly(self.num)
        return f"({upoly.format_poly(self.num)})/({upoly.format_poly(self.den)})"

    def __repr__(self):
        return f"RationalFunction({self})"


def clear_denominators(elements) -> list:
    """The polynomials f * D for D the lcm of the denominators of the f."""
    if all(f.den == upoly.ONE for f in elements):
        return [f.num for f in elements]
    den = upoly.ONE
    for f in elements:
        g = upoly.gcd(den, f.den)
        den = upoly.divmod_(upoly.mul(den, f.den), g)[0]
    return [upoly.mul(f.num, upoly.divmod_(den, f.den)[0]) for f in elements]


class Place:
    """A place of Q(t): a monic irreducible of Q[t], or infinity."""

    __slots__ = ("poly",)

    def __init__(self, poly):
        # poly=None means the place at infinity; use the classmethods.
        object.__setattr__(self, "poly", poly)

    def __setattr__(self, *a):
        raise AttributeError("Place is immutable")

    @classmethod
    def finite(cls, poly) -> "Place":
        p = upoly.qp(poly)
        if upoly.degree(p) < 1:
            raise ValueError(f"not a valid finite place: {upoly.format_poly(p)}")
        if upoly.leading(p) != 1:
            raise ValueError(f"finite place must be monic: {upoly.format_poly(p)}")
        if not upoly.is_irreducible(p):
            raise ValueError(f"finite place must be irreducible: {upoly.format_poly(p)}")
        return cls(p)

    @classmethod
    def infinity(cls) -> "Place":
        return cls(None)

    @classmethod
    def parse(cls, text: str) -> "Place":
        if text.strip() in ("inf", "infty", "infinity", "oo"):
            return cls.infinity()
        f = RationalFunction.parse(text)
        if f.den != upoly.ONE:
            raise ParseError(f"place must be a polynomial: {text}", 0)
        return cls.finite(f.num)

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else upoly.degree(self.poly)

    def sort_key(self):
        if self.poly is None:
            return (1, 0, ())
        return (0, upoly.degree(self.poly), self.poly)

    def __eq__(self, other):
        return isinstance(other, Place) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __str__(self):
        return "inf" if self.poly is None else upoly.format_poly(self.poly)

    def __repr__(self):
        return f"Place({self})"


INFINITY = Place.infinity()


class ProjectivePoint:
    """A point of P^M(K) given by M+1 coordinates, not all zero.

    Heights and Weil values computed from a point are invariant under
    scaling all coordinates by a common nonzero element of K; the gauge
    quantity e_p itself is not, and says so in its docstring.
    """

    __slots__ = ("coordinates", "_primitive")

    def __init__(self, coordinates):
        coords = tuple(
            c if isinstance(c, RationalFunction) else RationalFunction(c)
            for c in coordinates
        )
        if not coords or all(c.is_zero() for c in coords):
            raise ZeroElement("projective point needs a nonzero coordinate")
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "_primitive", None)

    def __setattr__(self, *a):
        raise AttributeError("ProjectivePoint is immutable")

    @property
    def num_vars(self) -> int:
        return len(self.coordinates)

    def scaled(self, alpha: RationalFunction) -> "ProjectivePoint":
        return ProjectivePoint([c * alpha for c in self.coordinates])

    def primitive(self) -> "ProjectivePoint":
        """The same point with coprime coordinates in Q[t]; computed once."""
        if self._primitive is None:
            polys = clear_denominators(self.coordinates)
            g = reduce(upoly.gcd, polys, upoly.ZERO)
            if upoly.degree(g) > 0:
                polys = [upoly.divmod_(p, g)[0] for p in polys]
            prim = ProjectivePoint([RationalFunction._canonical(p) for p in polys])
            object.__setattr__(prim, "_primitive", prim)
            object.__setattr__(self, "_primitive", prim)
        return self._primitive

    def __eq__(self, other):
        return (
            isinstance(other, ProjectivePoint)
            and self.coordinates == other.coordinates
        )

    def __hash__(self):
        return hash(self.coordinates)

    def __str__(self):
        return "[" + " : ".join(str(c) for c in self.coordinates) + "]"

    def __repr__(self):
        return f"ProjectivePoint({self})"


class PlaceSet:
    """A finite set of places with its cardinality and total degree."""

    __slots__ = ("places",)

    def __init__(self, places):
        places = tuple(places)
        if len(set(places)) != len(places):
            raise ValueError("duplicate places in place set")
        object.__setattr__(self, "places", places)

    def __setattr__(self, *a):
        raise AttributeError("PlaceSet is immutable")

    def __iter__(self):
        return iter(self.places)

    def __len__(self):
        return len(self.places)

    @property
    def cardinality(self) -> int:
        return len(self.places)

    @property
    def total_degree(self) -> int:
        return sum(p.degree for p in self.places)


def order_at(f: RationalFunction, p: Place) -> int:
    """ord_p(f) for nonzero f; additive under multiplication."""
    if f.is_zero():
        raise ZeroElement("order of the zero element is undefined")
    if p.is_infinite:
        return upoly.degree(f.den) - upoly.degree(f.num)
    return upoly.multiplicity(f.num, p.poly) - upoly.multiplicity(f.den, p.poly)


def divisor(f: RationalFunction) -> dict:
    """The divisor of f as an ordered {place: order} map with finite support.

    The sum formula sum ord*deg = 0 is asserted on every call.
    """
    if f.is_zero():
        raise ZeroElement("divisor of the zero element is undefined")
    orders = {}
    _, num_factors = upoly.factor_monic(f.num)
    for g, m in num_factors:
        pl = Place(g)  # factor output is already monic irreducible
        orders[pl] = orders.get(pl, 0) + m
    _, den_factors = upoly.factor_monic(f.den)
    for g, m in den_factors:
        pl = Place(g)  # factor output is already monic irreducible
        orders[pl] = orders.get(pl, 0) - m
    inf_order = upoly.degree(f.den) - upoly.degree(f.num)
    if inf_order:
        orders[INFINITY] = inf_order
    out = {p: o for p, o in sorted(orders.items(), key=lambda kv: kv[0].sort_key()) if o}
    assert sum(o * p.degree for p, o in out.items()) == 0, "sum formula violated"
    return out


def support(fs) -> list:
    """Union of divisor supports of the nonzero elements of fs, sorted."""
    places = set()
    for f in fs:
        if not f.is_zero():
            places.update(divisor(f).keys())
    return sorted(places, key=Place.sort_key)


def gauss_order_point(p: Place, x: ProjectivePoint) -> int:
    """e_p(x): min of ord_p over the nonzero coordinates.

    Depends on the chosen coordinates of x; the heights and Weil values
    built from it do not.
    """
    return min(order_at(c, p) for c in x.coordinates if not c.is_zero())


def gauss_order_coeffs(p: Place, coeffs) -> int:
    vals = [order_at(c, p) for c in coeffs if not c.is_zero()]
    if not vals:
        raise ZeroPolynomial("no nonzero coefficients")
    return min(vals)


def _family_coefficients(qs) -> list:
    coeffs = []
    for q in qs:
        if q.is_zero():
            raise ZeroPolynomial("zero polynomial in family")
        coeffs.extend(q.coefficients())
    return coeffs


def gauss_order_poly(p: Place, qs) -> int:
    """e_p(Q_1,...,Q_q): min of ord_p over all coefficients of all the forms."""
    return gauss_order_coeffs(p, _family_coefficients(qs))


def height_point(x: ProjectivePoint) -> Fraction:
    """h(x) = -sum_p e_p(x) deg p, the largest degree of x's primitive coordinates.

    Nonnegative and scaling-invariant.
    """
    return Fraction(max(upoly.degree(c.num) for c in x.primitive().coordinates))


def height_elem(f: RationalFunction) -> Fraction:
    """h(f) = sum_p max(0, ord_p f) deg p for nonzero f in K.

    Computes both the zero-part and the pole-part formulas and asserts they
    agree, which is the sum formula in disguise.
    """
    if f.is_zero():
        raise ZeroElement("height of the zero element is undefined")
    div = divisor(f)
    pos = sum(o * p.degree for p, o in div.items() if o > 0)
    negated = -sum(o * p.degree for p, o in div.items() if o < 0)
    assert pos == negated, "sum formula violated in height_elem"
    return Fraction(pos)


def height_poly_family(qs) -> Fraction:
    """h(Q_1,...,Q_q): the height of all their coefficients as one point."""
    return height_point(ProjectivePoint(_family_coefficients(qs)))


def weil_table(places, qs, x: ProjectivePoint) -> tuple:
    """Rows (p, (lambda_{p,Q}(x) for Q in qs)) for x off every divisor {Q = 0}.

    lambda_{p,Q}(x) = (ord_p(Q(x)) - d*e_p(x) - e_p(Q)) * deg p, nonnegative and
    invariant under scaling Q and x by K*.  Each Q is evaluated once, at the
    primitive coordinates of x: e_p(x) is 0 at finite p and -h(x) at infinity.
    """
    x = x.primitive()
    values = [q.evaluate(x) for q in qs]
    for i, value in enumerate(values):
        if value.is_zero():
            raise PointOnDivisor(f"point lies on divisor {qs[i]}", index=i)
    h = height_point(x)
    rows = []
    for p in places:
        e_x = -h if p.is_infinite else 0
        rows.append((p, tuple(
            Fraction(order_at(value, p) - q.degree * e_x - gauss_order_poly(p, [q]))
            * p.degree
            for q, value in zip(qs, values)
        )))
    return tuple(rows)


def weil(p: Place, q, x: ProjectivePoint) -> Fraction:
    """Weil function lambda_{p,Q}(x) for x off the divisor {Q = 0}; see weil_table."""
    return weil_table([p], [q], x)[0][1][0]
