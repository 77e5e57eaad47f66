"""Brute-force references the tests compare the library against: direct
sums, constructions the library no longer performs, bounds that hold by
construction and so are checked only here, and Groebner bases from sympy."""

from functools import cache
from math import comb, lcm
from typing import NamedTuple

from ffsubspace.errors import ZeroPolynomial
from ffsubspace.function_field import (
    ProjectivePoint,
    RationalFunction,
    gauss_order_coeffs,
    support,
)
from ffsubspace.graded_ideal import (
    POSITION_CAP,
    EmptinessVerdict,
    graded_piece,
    hilbert_function,
    lazard_degree,
)
from ffsubspace.hilbert_bounds import sombra_lower
from ffsubspace.linalg import Echelon, primitive_row
from ffsubspace.multipoly import HomogeneousPoly, monomial_basis


class LcmReduction(NamedTuple):
    """Divisors normalized to a common degree d with a unit coefficient each."""

    normalized: tuple
    scalars: tuple
    d: int


def lcm_reduction(qs) -> LcmReduction:
    """Replace each Q_i by (Q_i / a_i)^(d/d_i) with d = lcm of the degrees.

    a_i is the coefficient of the glex-largest monomial of Q_i, which makes
    the choice deterministic; each output has a coefficient equal to 1 and
    lambda_{p, out_i} = (d/d_i) lambda_{p, Q_i} pointwise.  The forms are
    built by repeated multiplication, which is the reference the check's
    scalar route for h(Q_1..Q_q) and the S-term is compared with.
    """
    qs = list(qs)
    if not qs:
        raise ZeroPolynomial("empty divisor family")
    for q in qs:
        if q.is_zero():
            raise ZeroPolynomial("zero divisor in family")
    d = lcm(*[q.degree for q in qs])
    normalized = []
    scalars = []
    for q in qs:
        a = q.leading_coefficient()
        scalars.append(a)
        scaled = q.scale(RationalFunction(1) / a)
        normalized.append(scaled ** (d // q.degree))
    return LcmReduction(tuple(normalized), tuple(scalars), d)


def graded_piece_echelon(gens, m: int) -> Echelon:
    """The degree-m piece of the ideal as an Echelon fed every product
    x^gamma * g_i of degree m, by i and then gamma in glex order, each as a
    row over K through `primitive_row`, with no stop at full rank."""
    cols = monomial_basis(gens.num_vars, m)
    col_of = {mono: i for i, mono in enumerate(cols)}
    ech = Echelon(len(cols))
    for g in gens.generators:
        if g.degree > m:
            continue
        for gamma in monomial_basis(gens.num_vars, m - g.degree):
            product = g * HomogeneousPoly.monomial(gens.num_vars, gamma, 1)
            ech.add_row(primitive_row({col_of[mono]: c for mono, c in product.terms.items()}))
    return ech


def position_walk(gens) -> EmptinessVerdict:
    """The verdict of `has_common_projective_zero` by the plain walk: the
    graded pieces of degree 1 up to min(POSITION_CAP, lazard_degree), the
    first full one certifying, with no shape decided first."""
    M = gens.num_vars - 1
    for m in range(1, min(POSITION_CAP, lazard_degree(gens)) + 1):
        if graded_piece(gens, m).rank == comb(m + M, M):
            return EmptinessVerdict(True, m)
    return EmptinessVerdict(False, None)


@cache
def _leading_monomials(gens) -> tuple:
    """The grevlex leading exponents of the reduced Groebner basis of the
    ideal, computed by sympy over QQ, or over QQ(t) when a coefficient has t."""
    import sympy

    t = sympy.Symbol("t")
    xs = sympy.symbols(f"X0:{gens.num_vars}")

    def expr(p):
        return sum(c * t**i for i, c in enumerate(p))

    forms = [
        sum(expr(c.num) / expr(c.den) * sympy.prod([x**e for x, e in zip(xs, mono)])
            for mono, c in g.terms.items())
        for g in gens.generators
    ]
    has_t = any(len(c.num) > 1 or len(c.den) > 1 for g in gens.generators for c in g.terms.values())
    domain = sympy.QQ.frac_field(t) if has_t else sympy.QQ
    basis = sympy.groebner(forms, *xs, order="grevlex", domain=domain)
    return tuple(p.monoms(order="grevlex")[0] for p in basis.polys)


def groebner_hilbert(gens, k: int) -> int:
    """H(k) from a Groebner basis: the degree-k monomials divisible by no
    leading monomial (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms,
    Ch. 9 Sec. 3)."""
    leads = _leading_monomials(gens)
    return sum(
        1 for mono in monomial_basis(gens.num_vars, k)
        if not any(all(a >= b for a, b in zip(mono, lead)) for lead in leads)
    )


def groebner_empty(gens) -> bool:
    """Whether the forms have no common projective zero: the quotient is
    finite-dimensional, so a power of every variable (the unit ideal's 1
    among them) is a leading monomial."""
    leads = _leading_monomials(gens)
    return all(any(lead[i] == sum(lead) for lead in leads) for i in range(gens.num_vars))


def rref_of(ech) -> dict:
    """{pivot col: the reduced row-echelon row over K with pivot entry 1}.

    The RREF row of pivot c is e_c minus the residual of e_c: it lies in the
    row space, is 1 at c and is zero on every other pivot column."""
    one = RationalFunction(1)
    rref = {}
    for c in ech.pivot_cols():
        row = {k: -v for k, v in ech.reduce({c: one}).items()}
        row[c] = one
        rref[c] = row
    return rref


def piece_rows(piece) -> list:
    """The dense RREF rows of a graded piece, in pivot order."""
    rref = rref_of(piece.echelon)
    zero = RationalFunction(0)
    return [
        [rref[col].get(i, zero) for i in range(len(piece.monomials))]
        for col in sorted(rref)
    ]


def filtration_reference(gens, m: int, q_poly) -> tuple:
    """(entries, level_dims) of the compatible basis psi_j = Q^{i_j} g_j,
    built as `build_filtration` once did: the echelon is seeded with the
    degree-m piece's RREF rows over K, each made primitive again, and each
    candidate Q^i * g is a product of forms over K made primitive by
    `primitive_row`.  No dimension checks."""
    nv, d = gens.num_vars, q_poly.degree
    piece = graded_piece(gens, m)
    ech = Echelon(len(piece.monomials))
    for row in rref_of(piece.echelon).values():
        ech.add_row(primitive_row(row))
    ideal_rank = ech.rank
    entries, dims = [], {}
    for i in range(m // d, -1, -1):
        qi = q_poly**i
        for g in monomial_basis(nv, m - i * d):
            candidate = qi * HomogeneousPoly.monomial(nv, g, 1)
            if ech.add_row(primitive_row(piece.vector_of(candidate))):
                entries.append((i, g))
        dims[i] = ech.rank - ideal_rank
    return tuple(entries), tuple(dims[i] for i in range(m // d + 1))


def macaulay_bound(a: int, k: int) -> int:
    """a^<k>, Macaulay's bound applied once, for k >= 1: each top a_i of the
    k-th Macaulay representation of a, the largest with C(a_i, i) <= a, is
    found by doubling and bisection rather than by counting up."""
    total = 0
    for i in range(k, 0, -1):
        if a == 0:
            break
        low, high = i, i + 1  # C(low, i) <= a, and C(high, i) > a once found
        while comb(high, i) <= a:
            low, high = high, 2 * high
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if comb(mid, i) <= a else (low, mid)
        a -= comb(low, i)
        total += comb(low + 1, i + 1)
    return total


def power_sum(k: int, l: int) -> int:
    """S_k(l) = 1^k + ... + l^k, exactly."""
    return sum(i**k for i in range(1, l + 1))


def T_value(t: int, n: int, delta: int, d: int) -> int:
    """T(t) = sum_{i=1}^t G(i*d) with G = sombra_lower; empty sum for t = 0.
    The direct loop `hilbert_bounds.sombra_sum` takes in closed form."""
    return sum(sombra_lower(i * d, n, delta) for i in range(1, t + 1))


def hilbert_partial_sum(x_gens, t: int, d: int) -> int:
    """S(t) = sum_{i=1}^t H_X(i d) by `hilbert_function`: the sum the
    filtration reads off its level dimensions."""
    return sum(hilbert_function(x_gens, i * d) for i in range(1, t + 1))


def s_sum_oracle(hilbert, n: int, delta: int, d: int, m: int) -> int:
    """S(m/d - 1) = sum of H(k) over k = d, 2d, ..., m - d by the direct
    loop, the Sombra bound standing in wherever hilbert(k) is None: the sum
    `assemble_constants` takes in closed form."""
    total = 0
    for k in range(d, m, d):
        h = hilbert(k)
        total += sombra_lower(k, n, delta) if h is None else h
    return total


def apply_skew_to_point(pairs, skew_values, x) -> list:
    """u = S x, S the full skew-symmetric matrix with S[j][k] = s and
    S[k][j] = -s for each pair (j, k) of `pairs` and its entry s."""
    coords = list(x.coordinates if isinstance(x, ProjectivePoint) else x)
    zero = RationalFunction(0)
    S = [[zero] * len(coords) for _ in coords]
    for (j, k), s in zip(pairs, skew_values):
        S[j][k], S[k][j] = s, -s
    return [sum((a * c for a, c in zip(row, coords)), zero) for row in S]


def coefficient_bound_report(form, expansion) -> list:
    """Per-place e_p(F_X) vs min_sigma e_p(P_sigma) over the support of F_X.

    Every row is ok, so `chow.expand_skew` does not compute this: a
    coefficient of P_sigma is a Z-linear combination of F_X's coefficients,
    and ord_p of a sum is at least the least ord_p of its terms, at every
    place, inf included.  No rows when no P_sigma is nonzero (X = P^M, which
    has no equations): the bound holds over the empty family.
    """
    coeffs = form.poly.coefficients()
    out = []
    for p in support(coeffs) if expansion.entries else ():
        e_form = gauss_order_coeffs(p, coeffs)
        e_min = min(
            gauss_order_coeffs(p, poly.coefficients())
            for poly in expansion.entries.values()
        )
        out.append((p, e_form, e_min, e_min >= e_form))
    return out
