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
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
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
    collect,
    monomial_degree,
    monomial_mul,
    mul_terms,
)
from .upoly import power


def _coerce(c):
    return c if isinstance(c, RationalFunction) else RationalFunction(c)


def _block_mul(k1, k2):
    return tuple(monomial_mul(b1, b2) for b1, b2 in zip(k1, k2))


def _bump(exps: tuple, j: int) -> tuple:
    """The exponent tuple with entry j raised by one."""
    return exps[:j] + (exps[j] + 1,) + exps[j + 1 :]


class MultiHomForm:
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
            c = _coerce(c)
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

    def __setattr__(self, *a):
        raise AttributeError("MultiHomForm is immutable")

    @property
    def block_degree(self) -> int:
        """The common degree in each block; the Chow-form case."""
        degs = set(self.block_degrees)
        if len(degs) != 1:
            raise DegreeMismatch(f"block degrees differ: {self.block_degrees}")
        return degs.pop()

    def is_zero(self) -> bool:
        return not self.terms

    def coefficients(self):
        return [c for _, c in sorted(self.terms.items())]

    def __add__(self, other):
        if not isinstance(other, MultiHomForm):
            return NotImplemented
        self._check_shape(other)
        out = collect(other.terms.items(), dict(self.terms))
        return MultiHomForm(self.blocks, self.vars_per_block, out)

    def __neg__(self):
        return MultiHomForm(
            self.blocks, self.vars_per_block, {k: -c for k, c in self.terms.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, MultiHomForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, RationalFunction)):
            return self.scale(other)
        if not isinstance(other, MultiHomForm):
            return NotImplemented
        self._check_shape(other)
        out = mul_terms(self.terms, other.terms, _block_mul)
        return MultiHomForm(self.blocks, self.vars_per_block, out)

    __rmul__ = __mul__

    def scale(self, c) -> "MultiHomForm":
        c = _coerce(c)
        if c.is_zero():
            return MultiHomForm(self.blocks, self.vars_per_block, {})
        return MultiHomForm(
            self.blocks, self.vars_per_block, {k: v * c for k, v in self.terms.items()}
        )

    def __pow__(self, n: int):
        one = MultiHomForm(
            self.blocks,
            self.vars_per_block,
            {tuple((0,) * self.vars_per_block for _ in range(self.blocks)): 1},
        )
        return power(self, n, one, operator.mul)

    def _check_shape(self, other):
        if self.blocks != other.blocks or self.vars_per_block != other.vars_per_block:
            raise VarCountMismatch("mismatched block shapes")

    def evaluate(self, block_vectors) -> RationalFunction:
        """Substitute concrete coefficient vectors, one per block."""
        vectors = [[_coerce(v) for v in vec] for vec in block_vectors]
        if len(vectors) != self.blocks or any(
            len(v) != self.vars_per_block for v in vectors
        ):
            raise VarCountMismatch("bad block vector shape")
        total = RationalFunction(0)
        for key, c in self.terms.items():
            term = c
            for vec, bm in zip(vectors, key):
                for j, e in enumerate(bm):
                    if e:
                        term = term * vec[j] ** e
            total = total + term
        return total

    def __eq__(self, other):
        return (
            isinstance(other, MultiHomForm)
            and self.blocks == other.blocks
            and self.vars_per_block == other.vars_per_block
            and self.terms == other.terms
        )

    def __repr__(self):
        return (
            f"MultiHomForm(blocks={self.blocks}, vars={self.vars_per_block}, "
            f"terms={len(self.terms)}, degrees={self.block_degrees})"
        )


def _permutations_with_sign(n):
    import itertools

    base = list(range(n))
    for perm in itertools.permutations(base):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        yield perm, sign


def chow_of_linear(span_points) -> MultiHomForm:
    """Chow form of the linear span of n+1 independent points: det(u_i . b_j)."""
    points = [p.coordinates for p in span_points]
    k = len(points)
    nv = len(points[0])
    ech = Echelon(nv)
    for coords in points:
        ech.add_row({i: c for i, c in enumerate(coords) if not c.is_zero()})
    if ech.rank != k:
        raise DependentSpan("span points are linearly dependent")
    terms = {}
    zero_block = (0,) * nv
    for perm, sign in _permutations_with_sign(k):
        # expand prod_i (u_i . b_perm(i)) over the choices of one variable per block
        partial = {tuple(zero_block for _ in range(k)): RationalFunction(sign)}
        for i in range(k):
            b = points[perm[i]]
            partial = collect(
                (key[:i] + (_bump(key[i], j),) + key[i + 1 :], c * bj)
                for key, c in partial.items()
                for j, bj in enumerate(b)
                if not bj.is_zero()
            )
        collect(partial.items(), terms)
    return MultiHomForm(k, nv, terms)


def generalized_cross_product(blocks: int, nv: int) -> list:
    """The signed maximal minors of the blocks x nv matrix of block variables.

    Returns nv multihomogeneous forms w_0..w_{nv-1}, each of degree 1 in every
    block; w is the classical cross product for blocks=2, nv=3.
    """
    if nv != blocks + 1:
        raise VarCountMismatch("cross product needs one more variable than blocks")
    out = []
    for drop in range(nv):
        cols = [j for j in range(nv) if j != drop]
        terms = {}
        for perm, sign in _permutations_with_sign(blocks):
            key = []
            for i in range(blocks):
                block = [0] * nv
                block[cols[perm[i]]] = 1
                key.append(tuple(block))
            coeff = sign if drop % 2 == 0 else -sign
            terms[tuple(key)] = RationalFunction(coeff)
        out.append(MultiHomForm(blocks, nv, terms))
    return out


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
    blocks = nv - 1
    w = generalized_cross_product(blocks, nv)
    result = MultiHomForm(blocks, nv, {})
    for mono, c in sorted(f.terms.items(), reverse=True):
        term = None
        for j, e in enumerate(mono):
            if e:
                factor = w[j] ** e
                term = factor if term is None else term * factor
        result = result + term.scale(c)
    return result


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
        from .multipoly import eval_terms, power_table

        coords = [
            _coerce(c)
            for c in (x.coordinates if hasattr(x, "coordinates") else x)
        ]
        powers = power_table(coords)
        return {
            sigma: eval_terms(p.terms, coords, powers)
            for sigma, p in self.entries.items()
        }

    def reconstruct(self, skew_values, x) -> RationalFunction:
        """Evaluate sum P_sigma(x) * sigma at concrete skew entries."""
        total = RationalFunction(0)
        for sigma, p in self.entries.items():
            term = p.evaluate(x)
            for block_vals, exps in zip(skew_values, sigma):
                for v, e in zip(block_vals, exps):
                    if e:
                        term = term * v**e
            total = total + term
        return total


def skew_pairs(nv: int) -> tuple:
    return tuple((j, k) for j in range(nv) for k in range(j + 1, nv))


def apply_skew_to_point(pairs, skew_values, x):
    """u = Sx for one skew matrix with the given upper-triangle entries."""
    coords = x.coordinates if hasattr(x, "coordinates") else [_coerce(c) for c in x]
    nv = len(coords)
    u = [RationalFunction(0)] * nv
    for (j, k), s in zip(pairs, skew_values):
        s = _coerce(s)
        u[j] = u[j] + s * coords[k]
        u[k] = u[k] - s * coords[j]
    return u


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
    np = len(pairs)
    zero_sigma = tuple((0,) * np for _ in range(blocks))
    zero_mono = (0,) * nv

    # (Sx)_row = sum_{k>row} s_(row,k) x_k - sum_{j<row} s_(j,row) x_j
    linear = {}
    for row in range(nv):
        entries = []
        for p, (j, k) in enumerate(pairs):
            if j == row:
                entries.append((p, k, 1))
            elif k == row:
                entries.append((p, j, -1))
        linear[row] = entries

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
    places = support(form.coefficients())
    for p in places:
        e_form = gauss_order_coeffs(p, form.coefficients())
        for sigma, poly in expansion.entries.items():
            assert gauss_order_coeffs(p, poly.coefficients()) >= e_form, (
                f"coefficient bound violated at place {p} for sigma {sigma}"
            )


def coefficient_bound_report(form: MultiHomForm, expansion: SkewExpansion) -> list:
    """Per-place e_p(F_X) vs min_sigma e_p(P_sigma) over the support of F_X."""
    out = []
    for p in support(form.coefficients()):
        e_form = gauss_order_coeffs(p, form.coefficients())
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
