"""The rational function field K = Q(t): elements, places, heights, Weil functions.

Places are the monic irreducibles of Q[t] plus the place at infinity; a place
of degree e weighs its valuation by e, which makes the sum formula
sum_p ord_p(f) * deg(p) = 0 hold exactly for every nonzero f.  Everything
here is exact; no floats anywhere.

K is the fraction field of Z[t].  An element is a pair of `upoly` integer
tuples, coprime in Z[t] (no common factor and no common integer content)
with a positive leading denominator coefficient, so equality and hashing
are structural and every kernel runs over the integers.  A place keeps the
primitive integer form of its monic polynomial (2t + 3 for t + 3/2); its
text and sort order are those of the monic form.

Heights and Weil values come from primitive coordinates (coprime in Z[t]),
where e_p(x) is 0 at finite places and -max deg at infinity: no factoring.
A divisor Q is made primitive the same way, once (`HomogeneousPoly.primitive`
in `multipoly`), so a Weil value is read off the Z[t] polynomial Q(x) alone:
its multiplicity at a finite place, its degree at infinity.
Only divisor and support factor, through `upoly.factor_monic`, which imports
sympy on its first real factorization; a place of degree <= 2 is checked for
irreducibility without sympy.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import upoly
from .errors import (
    Frozen,
    InvariantViolated,
    ParseError,
    PointOnDivisor,
    ZeroElement,
    ZeroPolynomial,
)

_ONE = upoly.ONE


def _integer_pair(num, den) -> tuple:
    """(num, den), given as ints, Fractions or coefficient sequences of them,
    as integer polynomials over a common denominator."""
    num = (num,) if isinstance(num, (int, Fraction)) else tuple(num)
    den = (den,) if isinstance(den, (int, Fraction)) else tuple(den)
    scale = lcm(*(c.denominator for c in num + den if type(c) is not int))
    if scale == 1:
        return upoly.strip(map(int, num)), upoly.strip(map(int, den))
    return (
        upoly.strip(int(c * scale) for c in num),
        upoly.strip(int(c * scale) for c in den),
    )


class RationalFunction(Frozen):
    """An element of Q(t) in canonical form.

    num/den are integer upoly tuples, coprime in Z[t], with lc(den) > 0; zero
    is num=(), den=(1,).  The constructor accepts ints, Fractions and
    coefficient sequences of them and canonicalizes; the arithmetic keeps
    the form and runs only the gcds its result needs.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num, den = _integer_pair(num, den)
        num, den = _reduce(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _canonical(cls, num, den=_ONE) -> "RationalFunction":
        """Wrap a pair already in canonical form, skipping the gcd."""
        f = object.__new__(cls)
        object.__setattr__(f, "num", num)
        object.__setattr__(f, "den", den)
        return f

    @classmethod
    def reduced(cls, num, den=_ONE) -> "RationalFunction":
        """num/den for integer upoly tuples, den nonzero, brought to canonical form."""
        return cls._canonical(*_reduce(num, den))

    @classmethod
    def t(cls) -> "RationalFunction":
        return cls._canonical(upoly.T)

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
        a, b, c, d = self.num, self.den, o.num, o.den
        # a/b + c/d with b, d coprime (one of them 1, say) is already in
        # lowest terms; otherwise only g = gcd(b, d) can share a factor with
        # the new numerator.
        if b == d:
            if b == _ONE:
                return RationalFunction._canonical(upoly.add(a, c))
            return RationalFunction.reduced(upoly.add(a, c), b)
        if d == _ONE:
            return RationalFunction._canonical(upoly.add(a, upoly.mul(c, b)), b)
        if b == _ONE:
            return RationalFunction._canonical(upoly.add(upoly.mul(a, d), c), d)
        g, b_g, d_g = upoly.gcd(b, d)
        num = upoly.add(upoly.mul(a, d_g), upoly.mul(c, b_g))
        if not num:
            return RationalFunction._canonical((), _ONE)
        _, num_h, g_h = upoly.gcd(num, g)
        return RationalFunction._canonical(num_h, upoly.mul(upoly.mul(b_g, d_g), g_h))

    __radd__ = __add__

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
        return _times(self.num, self.den, o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not o.num:
            raise ZeroDivisionError("division by zero in Q(t)")
        c, d = o.den, o.num
        if d[-1] < 0:
            c, d = upoly.neg(c), upoly.neg(d)
        return _times(self.num, self.den, c, d)

    def __rtruediv__(self, other):
        return RationalFunction(other) / self

    def __pow__(self, n: int):
        num, den = self.num, self.den
        if n < 0:
            if not num:
                raise ZeroDivisionError("0 ** negative in Q(t)")
            num, den, n = den, num, -n
            if den[-1] < 0:
                num, den = upoly.neg(num), upoly.neg(den)
        return RationalFunction._canonical(upoly.pow_(num, n), upoly.pow_(den, n))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        # The monic-denominator form: num and den both divided by lc(den).
        lead = self.den[-1]
        num = upoly.format_poly(self.num, den=lead)
        if len(self.den) == 1:
            return num
        return f"({num})/({upoly.format_poly(self.den, den=lead)})"

    def __repr__(self):
        return f"RationalFunction({self})"


def _reduce(num, den) -> tuple:
    """The canonical pair of num/den: divided by their gcd, lc(den) > 0."""
    if not den:
        raise ZeroDivisionError("zero denominator in Q(t)")
    if not num:
        return (), _ONE
    if den != _ONE:
        _, num, den = upoly.gcd(num, den)
        if den[-1] < 0:
            num, den = upoly.neg(num), upoly.neg(den)
    return num, den


def _times(a, b, c, d) -> RationalFunction:
    """(a/b) * (c/d) for canonical pairs: cancel a against d and c against b."""
    if not a or not c:
        return RationalFunction._canonical((), _ONE)
    if d != _ONE:
        _, a, d = upoly.gcd(a, d)
    if b != _ONE:
        _, c, b = upoly.gcd(c, b)
    den = b if d == _ONE else d if b == _ONE else upoly.mul(b, d)
    return RationalFunction._canonical(upoly.mul(a, c), den)


def clear_denominators(elements) -> tuple:
    """(polys, D): the integer polynomials f * D, for D the lcm in Z[t] of
    the denominators.  Each f keeps its multiplier D / den(f), read off the
    gcd's cofactors; the multipliers of earlier f grow with D."""
    den, factors = _ONE, []
    for f in elements:
        if f.den == den:
            factors.append(_ONE)
            continue
        _, den_g, grow = upoly.gcd(den, f.den)
        if grow != _ONE:
            den = upoly.mul(den, grow)
            factors = [upoly.mul(k, grow) for k in factors]
        factors.append(den_g)
    return [upoly.mul(f.num, k) for f, k in zip(elements, factors)], den


def primitive_polys(elements) -> list:
    """The elements, not all zero, times one element of K* that makes them
    coprime integer polynomials: no common factor in Z[t], no common content."""
    return upoly.divide_content(clear_denominators(elements)[0])


class Place(Frozen):
    """A place of Q(t): a monic irreducible of Q[t], or infinity.

    `poly` is the primitive integer form (positive leading coefficient) of
    the monic polynomial, None at infinity.
    """

    __slots__ = ("poly",)

    def __init__(self, poly):
        # poly=None is the place at infinity, INFINITY; use the classmethods.
        object.__setattr__(self, "poly", poly)

    @classmethod
    def finite(cls, poly) -> "Place":
        """The place of a monic irreducible given by its coefficients (ints
        or Fractions, lowest degree first)."""
        return cls._of_polynomial(RationalFunction(poly))

    @classmethod
    def _of_polynomial(cls, f: RationalFunction) -> "Place":
        # f has a constant denominator: it is the polynomial f.num / f.den[0].
        if upoly.degree(f.num) < 1:
            raise ParseError(f"not a valid finite place: {f}")
        if f.num[-1] != f.den[0]:
            raise ParseError(f"finite place must be monic: {f}")
        if not upoly.is_irreducible(f.num):
            raise ParseError(f"finite place must be irreducible: {f}")
        return cls(f.num)

    @classmethod
    def parse(cls, text: str) -> "Place":
        if text.strip() in ("inf", "infty", "infinity", "oo"):
            return INFINITY
        f = RationalFunction.parse(text)
        if len(f.den) != 1:
            raise ParseError(f"place must be a polynomial: {text}", 0)
        return cls._of_polynomial(f)

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else upoly.degree(self.poly)

    def sort_key(self):
        """Finite places by degree, then by the coefficients of the monic
        polynomial (lowest degree first); infinity last."""
        if self.poly is None:
            return (1, 0, ())
        lead = self.poly[-1]
        return (0, upoly.degree(self.poly), tuple(Fraction(c, lead) for c in self.poly))

    def __eq__(self, other):
        return isinstance(other, Place) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __str__(self):
        if self.poly is None:
            return "inf"
        return upoly.format_poly(self.poly, den=self.poly[-1])

    def __repr__(self):
        return f"Place({self})"


INFINITY = Place(None)


class ProjectivePoint(Frozen):
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

    @property
    def num_vars(self) -> int:
        return len(self.coordinates)

    def scaled(self, alpha: RationalFunction) -> "ProjectivePoint":
        return ProjectivePoint([c * alpha for c in self.coordinates])

    def primitive(self) -> tuple:
        """(coords, h): the coordinates, scaled by K* to be coprime in Z[t],
        as `upoly` tuples, and h(x), their largest degree; computed once,
        as `HomogeneousPoly.primitive` is for a form."""
        if self._primitive is None:
            coords = tuple(primitive_polys(self.coordinates))
            object.__setattr__(
                self, "_primitive", (coords, max(map(upoly.degree, coords)))
            )
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


def order_at(f: RationalFunction, p: Place) -> int:
    """ord_p(f) for nonzero f; additive under multiplication."""
    if f.is_zero():
        raise ZeroElement("order of the zero element is undefined")
    if p.is_infinite:
        return upoly.degree(f.den) - upoly.degree(f.num)
    return upoly.multiplicity(f.num, p.poly) - upoly.multiplicity(f.den, p.poly)


def divisor(f: RationalFunction) -> dict:
    """The divisor of f as an ordered {place: order} map with finite support.

    The sum formula sum ord*deg = 0 is checked on every call.
    """
    if f.is_zero():
        raise ZeroElement("divisor of the zero element is undefined")
    orders = {}
    _, num_factors = upoly.factor_monic(f.num)
    for g, m in num_factors:
        pl = Place(g)  # factor output is already primitive irreducible
        orders[pl] = orders.get(pl, 0) + m
    _, den_factors = upoly.factor_monic(f.den)
    for g, m in den_factors:
        pl = Place(g)  # factor output is already primitive irreducible
        orders[pl] = orders.get(pl, 0) - m
    inf_order = upoly.degree(f.den) - upoly.degree(f.num)
    if inf_order:
        orders[INFINITY] = inf_order
    out = {p: o for p, o in sorted(orders.items(), key=lambda kv: kv[0].sort_key()) if o}
    if sum(o * p.degree for p, o in out.items()) != 0:
        raise InvariantViolated("sum formula violated")
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
    return gauss_order_coeffs(p, x.coordinates)


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
    return Fraction(x.primitive()[1])


def height_elem(f: RationalFunction) -> Fraction:
    """h(f) = sum_p max(0, ord_p f) deg p for nonzero f in K: the height of
    [1 : f], max(deg num, deg den) of f's coprime pair.  Nothing is factored."""
    if f.is_zero():
        raise ZeroElement("height of the zero element is undefined")
    return Fraction(max(upoly.degree(f.num), upoly.degree(f.den)))


def height_poly_family(qs) -> Fraction:
    """h(Q_1,...,Q_q): the height of all their coefficients as one point."""
    return height_point(ProjectivePoint(_family_coefficients(qs)))


def power_family_order(p: Place, family) -> int:
    """e_p of the point whose coordinates are the powers f^k, for the pairs
    (f, k) of family, f nonzero and k >= 1: min of k * ord_p(f), as ord_p is
    additive.  No power is built."""
    return min(k * order_at(f, p) for f, k in family)


def power_family_height(family) -> Fraction:
    """h of the point of `power_family_order`, -sum_p e_p deg p, with no
    power built and nothing factored.

    Over a coprime base of the numerators and denominators
    (`upoly.coprime_base`), a finite place p that divides a base element b
    has ord_p(f) = e_b(f) ord_p(b), with e_b(f) the multiplicity of b in f,
    and sum_{p | b} ord_p(b) deg p = deg b; every other finite place has
    e_p = 0.  So the sum is infinity's term plus deg b times
    max of -k * e_b(f) for each b.
    """
    h = -power_family_order(INFINITY, family)
    for b in upoly.coprime_base([g for f, _ in family for g in (f.num, f.den)]):
        b_at = upoly.probe(b)
        h += upoly.degree(b) * max(
            k * (upoly.multiplicity(f.den, b, None, b_at)
                 - upoly.multiplicity(f.num, b, None, b_at))
            for f, k in family
        )
    return Fraction(h)


def weil_rows(places, qs, x: ProjectivePoint, values) -> tuple:
    """weil_table's rows, for values[i] = Q_i(x), nonzero, computed on the
    primitive forms of Q_i and x (`multipoly.primitive_values`).

    With Q and x primitive, e_p(Q) = e_p(x) = 0 at every finite place, so
    lambda_{p,Q}(x) = ord_p Q(x) * deg p; at infinity e_p(Q) = -h(Q) and
    e_p(x) = -h(x), so lambda = d*h(x) + h(Q) - deg Q(x).  Each value, and
    each finite place, is evaluated at t = 2^20 (`upoly.probe`) once.
    """
    h = x.primitive()[1]
    probes = [upoly.probe(value) for value in values]
    rows = []
    for p in places:
        if p.is_infinite:
            row = tuple(
                q.degree * h + q.primitive()[1] - upoly.degree(value)
                for q, value in zip(qs, values)
            )
        else:
            p_at = upoly.probe(p.poly)
            row = tuple(
                upoly.multiplicity(value, p.poly, v_at, p_at) * p.degree
                for value, v_at in zip(values, probes)
            )
        rows.append((p, row))
    return tuple(rows)


def weil_table(places, qs, x: ProjectivePoint) -> tuple:
    """Rows (p, (lambda_{p,Q}(x) for Q in qs)) for x off every divisor {Q = 0}.

    lambda_{p,Q}(x) = (ord_p(Q(x)) - d*e_p(x) - e_p(Q)) * deg p, a nonnegative
    int, invariant under scaling Q and x by K*.  So each Q is evaluated once,
    in Z[t]: its primitive form, kept on Q, at the primitive coordinates of
    x; see weil_rows.  A point on a divisor raises PointOnDivisor naming the
    first one.
    """
    from .multipoly import primitive_values  # multipoly imports this module

    values = primitive_values(qs, x)
    for i, value in enumerate(values):
        if not value:
            raise PointOnDivisor(f"point lies on divisor {qs[i]}", index=i)
    return weil_rows(places, qs, x, values)


def weil(p: Place, q, x: ProjectivePoint) -> int:
    """Weil function lambda_{p,Q}(x), an int, for x off {Q = 0}; see weil_table."""
    return weil_table([p], [q], x)[0][1][0]
