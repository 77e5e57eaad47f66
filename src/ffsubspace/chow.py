"""Chow forms, the skew-symmetric substitution, and the height of a variety.

Two exact constructors cover the desk-scale varieties: linear subvarieties
(a block determinant) and hypersurfaces (the defining form applied to the
generalized cross product of the hyperplane coefficient vectors).  Chow
forms of anything else can be supplied as data; the expansion machinery
below does not care where the form came from.

The skew expansion substitutes u_i = S^(i) x for generic skew-symmetric
matrices S^(i) and collects the result as sum_sigma P_sigma(x) * sigma over
s-monomials sigma; the P_sigma generate an ideal whose radical cuts out the
variety.

The form arithmetic (`SparseForm`) and every evaluation (`eval_terms`) come
from `multipoly`; this module adds the block structure, the determinant and
the skew table.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import reduce
from math import comb

from .errors import DependentSpan, DegreeMismatch, VarCountMismatch, ZeroPolynomial
from .function_field import (
    ProjectivePoint,
    RationalFunction,
    gauss_order_coeffs,
    height_point,
    support,
)
from .linalg import Echelon
from .multipoly import (
    HomogeneousPoly,
    SparseForm,
    _coerce_coeff,
    collect,
    eval_terms,
    monomial_degree,
    monomial_mul,
    mul_terms,
    power_table,
)


def _block_mul(k1, k2):
    return tuple(monomial_mul(b1, b2) for b1, b2 in zip(k1, k2))


def _bump(exps: tuple, j: int) -> tuple:
    """The exponent tuple with entry j raised by one."""
    return exps[:j] + (exps[j] + 1,) + exps[j + 1 :]


class MultiHomForm(SparseForm):
    """A multihomogeneous form in `blocks` blocks of `vars_per_block` variables.

    terms maps a tuple of per-block exponent tuples to a K coefficient.
    All terms must share the same per-block degree profile; for a Chow form
    that profile is constant (the projective degree in every block).
    """

    __slots__ = ("blocks", "vars_per_block", "terms", "block_degrees")

    def __init__(self, blocks: int, vars_per_block: int, terms):
        clean = {}
        profile = None
        for key, c in terms.items():
            c = _coerce_coeff(c)
            if c.is_zero():
                continue
            key = tuple(tuple(b) for b in key)
            if len(key) != blocks or any(len(b) != vars_per_block for b in key):
                raise VarCountMismatch(f"bad block shape in term {key}")
            this = tuple(monomial_degree(b) for b in key)
            if profile is None:
                profile = this
            elif profile != this:
                raise DegreeMismatch(
                    f"mixed block degrees {profile} vs {this} in multihomogeneous form"
                )
            clean[key] = c
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "vars_per_block", vars_per_block)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "block_degrees", profile or (0,) * blocks)

    @property
    def block_degree(self) -> int:
        """The common degree in each block; the Chow-form case."""
        degs = set(self.block_degrees)
        if len(degs) != 1:
            raise DegreeMismatch(f"block degrees differ: {self.block_degrees}")
        return degs.pop()

    def _shape(self):
        return self.blocks, self.vars_per_block

    def _with_terms(self, terms) -> "MultiHomForm":
        return MultiHomForm(self.blocks, self.vars_per_block, terms)

    def _one(self) -> "MultiHomForm":
        return self._with_terms({((0,) * self.vars_per_block,) * self.blocks: 1})

    def coefficients(self):
        return [c for _, c in sorted(self.terms.items())]

    def __add__(self, other):
        if not isinstance(other, MultiHomForm):
            return NotImplemented
        self._check_shape(other)
        out = collect(other.terms.items(), dict(self.terms))
        return MultiHomForm(self.blocks, self.vars_per_block, out)

    def __mul__(self, other):
        if isinstance(other, (int, RationalFunction)):
            return self.scale(other)
        if not isinstance(other, MultiHomForm):
            return NotImplemented
        self._check_shape(other)
        out = mul_terms(self.terms, other.terms, _block_mul)
        return MultiHomForm(self.blocks, self.vars_per_block, out)

    def _check_shape(self, other):
        if self.blocks != other.blocks or self.vars_per_block != other.vars_per_block:
            raise VarCountMismatch("mismatched block shapes")

    def evaluate(self, block_vectors) -> RationalFunction:
        """Substitute concrete coefficient vectors, one per block."""
        vectors = [[_coerce_coeff(v) for v in vec] for vec in block_vectors]
        if len(vectors) != self.blocks or any(
            len(v) != self.vars_per_block for v in vectors
        ):
            raise VarCountMismatch("bad block vector shape")
        flat = {sum(key, ()): c for key, c in self.terms.items()}
        powers = power_table([v for vec in vectors for v in vec])
        return eval_terms(flat, powers, RationalFunction(0))

    def __repr__(self):
        return (
            f"MultiHomForm(blocks={self.blocks}, vars={self.vars_per_block}, "
            f"terms={len(self.terms)}, degrees={self.block_degrees})"
        )


def _determinant(vectors) -> MultiHomForm:
    """det(u_i . b_j) for k vectors b_j: degree 1 in each of k blocks u_i."""
    k, nv = len(vectors), len(vectors[0])
    zero = (0,) * nv

    def dot(i, b):  # u_i . b
        keys = (
            tuple(_bump(zero, j) if r == i else zero for r in range(k)) for j in range(nv)
        )
        return MultiHomForm(k, nv, dict(zip(keys, b)))

    dots = [[dot(i, b) for b in vectors] for i in range(k)]
    det = MultiHomForm(k, nv, {})
    for perm in itertools.permutations(range(k)):
        term = reduce(operator.mul, (dots[i][j] for i, j in enumerate(perm)))
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        det = det + (-term if inversions % 2 else term)
    return det


def chow_of_linear(span_points) -> MultiHomForm:
    """Chow form of the linear span of n+1 independent points: det(u_i . b_j)."""
    points = [p.coordinates for p in span_points]
    ech = Echelon(len(points[0]))
    for coords in points:
        ech.add_row({i: c for i, c in enumerate(coords) if not c.is_zero()})
    if ech.rank != len(points):
        raise DependentSpan("span points are linearly dependent")
    return _determinant(points)


def generalized_cross_product(blocks: int, nv: int) -> list:
    """The signed maximal minors of the blocks x nv matrix of block variables.

    Returns nv multihomogeneous forms w_0..w_{nv-1}, each of degree 1 in every
    block; w is the classical cross product for blocks=2, nv=3.
    """
    if nv != blocks + 1:
        raise VarCountMismatch("cross product needs one more variable than blocks")
    units = [[int(i == j) for i in range(nv)] for j in range(nv)]
    minors = [_determinant(units[:d] + units[d + 1 :]) for d in range(nv)]
    return [-w if d % 2 else w for d, w in enumerate(minors)]


def chow_of_hypersurface(f: HomogeneousPoly) -> MultiHomForm:
    """Chow form of the hypersurface {f = 0} in P^M: f at the cross product.

    Caller asserts irreducibility of f; the construction itself only needs
    f nonzero and M >= 2.
    """
    if f.is_zero():
        raise ZeroPolynomial("hypersurface form must be nonzero")
    nv = f.num_vars
    if nv < 3:
        raise VarCountMismatch("hypersurface constructor needs M >= 2")
    w = generalized_cross_product(nv - 1, nv)
    return eval_terms(f.terms, power_table(w), MultiHomForm(nv - 1, nv, {}))


@dataclass(frozen=True)
class SkewExpansion:
    """The collected expansion F_X(S^(0)x,...,S^(n)x) = sum_sigma P_sigma(x) sigma.

    pairs lists the skew index pairs (j, k), j < k, one block of them per
    S^(i); entries maps sigma (a tuple of per-block exponent tuples over
    pairs) to the nonzero coefficient form P_sigma.
    """

    blocks: int
    vars_per_block: int
    block_degree: int
    pairs: tuple
    entries: dict

    @property
    def sigma_count(self) -> int:
        return len(self.entries)

    def values_at(self, x) -> dict:
        """Evaluate every P_sigma at one point, sharing the power table."""
        coords = x.coordinates if hasattr(x, "coordinates") else x
        powers = power_table([_coerce_coeff(c) for c in coords])
        zero = RationalFunction(0)
        return {
            sigma: eval_terms(p.terms, powers, zero)
            for sigma, p in self.entries.items()
        }

    def reconstruct(self, skew_values, x) -> RationalFunction:
        """Evaluate sum P_sigma(x) * sigma at concrete skew entries."""
        flat = {sum(sigma, ()): v for sigma, v in self.values_at(x).items()}
        skew = [_coerce_coeff(v) for block in skew_values for v in block]
        return eval_terms(flat, power_table(skew), RationalFunction(0))


def skew_pairs(nv: int) -> tuple:
    return tuple((j, k) for j in range(nv) for k in range(j + 1, nv))


def _skew_rows(pairs, nv: int) -> list:
    """Row r of S x as (pair index p, column, sign) triples:
    (Sx)_r = sum sign * s_p * x_column, with s_p the entry of S at pairs[p]."""
    rows = [[] for _ in range(nv)]
    for p, (j, k) in enumerate(pairs):
        rows[j].append((p, k, 1))
        rows[k].append((p, j, -1))
    return rows


def apply_skew_to_point(pairs, skew_values, x):
    """u = Sx for one skew matrix with the given upper-triangle entries."""
    coords = x.coordinates if hasattr(x, "coordinates") else [_coerce_coeff(c) for c in x]
    s = [_coerce_coeff(v) for v in skew_values]
    return [
        sum((sign * s[p] * coords[col] for p, col, sign in row), RationalFunction(0))
        for row in _skew_rows(pairs, len(coords))
    ]


def _times_row(partial: dict, i: int, row_entries):
    """The terms of partial * (S^(i) x)_row, one (key, coefficient) at a time."""
    for (sigma, mono), c in partial.items():
        for p, xi, sign in row_entries:
            nsigma = sigma[:i] + (_bump(sigma[i], p),) + sigma[i + 1 :]
            yield (nsigma, _bump(mono, xi)), (c if sign == 1 else -c)


def expand_skew(form: MultiHomForm) -> SkewExpansion:
    """Expand the skew-symmetric substitution of a Chow form.

    Substitutes u_i = S^(i) x with symbolic skew entries s^(i)_{jk},
    0 <= j < k <= M, expands exactly over K, and collects the coefficient
    form P_sigma of every s-monomial sigma.  The coefficient inequality
    e_p(P_sigma) >= e_p(F_X) is asserted on the support of F_X.
    """
    nv = form.vars_per_block
    blocks = form.blocks
    delta = form.block_degree
    pairs = skew_pairs(nv)
    zero_sigma = ((0,) * len(pairs),) * blocks
    zero_mono = (0,) * nv
    linear = _skew_rows(pairs, nv)

    collected = {}
    for key, coeff in form.terms.items():
        partial = {(zero_sigma, zero_mono): coeff}
        for i in range(blocks):
            for row, e in enumerate(key[i]):
                for _ in range(e):
                    partial = collect(_times_row(partial, i, linear[row]))
        for (sigma, mono), c in partial.items():
            collect([(mono, c)], collected.setdefault(sigma, {}))

    degree = blocks * delta
    entries = {}
    for sigma in sorted(collected):
        terms = collected[sigma]
        if not terms:
            continue
        assert all(monomial_degree(b) == delta for b in sigma)
        entries[sigma] = HomogeneousPoly(nv, degree, terms)

    expansion = SkewExpansion(blocks, nv, delta, pairs, entries)
    _assert_coefficient_bound(form, expansion)
    return expansion


def _assert_coefficient_bound(form: MultiHomForm, expansion: SkewExpansion):
    for p, e_form, e_min, ok in coefficient_bound_report(form, expansion):
        assert ok, (
            f"coefficient bound violated at place {p}: "
            f"min_sigma e_p(P_sigma) = {e_min} < e_p(F_X) = {e_form}"
        )


def coefficient_bound_report(form: MultiHomForm, expansion: SkewExpansion) -> list:
    """Per-place e_p(F_X) vs min_sigma e_p(P_sigma) over the support of F_X."""
    coeffs = form.coefficients()
    out = []
    for p in support(coeffs):
        e_form = gauss_order_coeffs(p, coeffs)
        e_min = min(
            gauss_order_coeffs(p, poly.coefficients())
            for poly in expansion.entries.values()
        )
        out.append((p, e_form, e_min, e_min >= e_form))
    return out


@dataclass(frozen=True)
class SigmaCountReport:
    """Counts around (the number of) generating forms P_sigma.

    stated_bound and combinatorial_count disagree already for the conic
    (25 vs 36); both are reported, neither is asserted against the other.
    """

    actual_count: int
    stated_bound: int
    combinatorial_count: int


def psigma_count_report(expansion: SkewExpansion) -> SigmaCountReport:
    n = expansion.blocks - 1
    M = expansion.vars_per_block - 1
    delta = expansion.block_degree
    top = (n + 1) * delta
    stated = comb(top + M * (M - 1) // 2, top) ** (n + 1)
    per_block = comb(delta + len(expansion.pairs) - 1, delta)
    return SigmaCountReport(expansion.sigma_count, stated, per_block ** (n + 1))


def chow_height(form: MultiHomForm):
    """h(X) := h(F_X), the height of the coefficient family of the Chow form."""
    if form.is_zero():
        raise ZeroPolynomial("zero Chow form")
    return height_point(ProjectivePoint(form.coefficients()))


def multihomform_to_json(form: MultiHomForm) -> dict:
    return {
        "blocks": form.blocks,
        "vars_per_block": form.vars_per_block,
        "terms": [
            {"exponents": [list(b) for b in key], "coeff": str(c)}
            for key, c in sorted(form.terms.items())
        ],
    }


def multihomform_from_json(data: dict) -> MultiHomForm:
    from .parsing import parse_rational

    terms = {}
    for item in data["terms"]:
        key = tuple(tuple(b) for b in item["exponents"])
        terms[key] = parse_rational(item["coeff"])
    return MultiHomForm(data["blocks"], data["vars_per_block"], terms)
