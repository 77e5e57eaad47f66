"""Chow forms, the skew-symmetric substitution, and the height of a variety.

Two exact constructors cover the desk-scale varieties: linear subvarieties
(a block determinant) and hypersurfaces (the defining form applied to the
generalized cross product of the hyperplane coefficient vectors).  Chow
forms of anything else can be supplied as data (`multihomform_to_json`
writes that format); the expansion machinery below does not care where the
form came from.  h(X) is the largest degree of F_X's primitive form.

The skew expansion substitutes u_i = S^(i) x for generic skew-symmetric
matrices S^(i) and collects the result as sum_sigma P_sigma(x) * sigma over
s-monomials sigma; the P_sigma generate an ideal whose radical cuts out the
variety (Dalbec-Sturmfels, "Introduction to Chow forms", 1995).

The expansion runs over Z.  F_X(u) enters linearly, so each block monomial
prod_r ((S^(i) x)_r)^k_r is expanded once, as a map from packed keys to
ints.  Only block 0's maps are multiplied out, from powers of its rows each
raised once; block i's map is block 0's with every key's sigma digits moved
down i blocks, since S^(i) x is S^(0) x with the entries of S^(i) in place
of those of S^(0).  A term of F_X multiplies the maps of its blocks and
adds the result, times its numerator over the form's common denominator,
into one int map per power of t.  The number of P_sigma is read off those
maps: the distinct sigma prefixes among keys with a nonzero numerator.
Q(t) coefficients and the P_sigma forms are built from them only when
`SkewExpansion.entries` is first read, so counting the P_sigma
(`chow --input`) builds none.

A Chow form is a polynomial in the maximal minors of the matrix with rows
u_0, ..., u_n (the bracket ring; Sturmfels, "Algorithms in Invariant
Theory", ch. 3), so swapping two blocks multiplies it by (-1)^delta.  Then
P_(..., b, a) = epsilon * P_(..., a, b), the same x-polynomial up to sign.
`expand_skew` reads epsilon off the form's own terms: it holds when
swapping the last two blocks maps every term to epsilon times a term, with
one epsilon in {1, -1} for all of them.  Such a form is expanded only on
the keys with sigma_(n-1) <= sigma_n, the other half being their signed
mirror: a kept sigma prefix off that diagonal is counted for its mirror
too, and `entries` adds the mirrored P_sigma.  A form without the symmetry
(a t-scaled Chow form, a random test form) is expanded in full by the
same loop.

A key (sigma, x-monomial) is the digit string sigma_0, ..., sigma_n, x in
base 2^width, most significant digit first, one digit per exponent.  Every
exponent is at most blocks * delta (the degree of an x-monomial; a block's
s-monomial has degree delta), and the digits of a product are the sums of
its factors' digits, which stay within that bound.  With
width = (blocks * delta).bit_length() no digit carries into the next, so
keys multiply by adding and sort as their sigma tuples do.

A form is refused before expanding when its P_sigma would have degree
above MAX_SKEW_DEGREE or it could form more than MAX_SKEW_PRODUCTS
products (`skew_product_count`); `check_skew_floor` refuses the forms of
P^M and of a hypersurface by their shape alone, before they are built.  The
Chow form of P^M (M + 1 blocks of M + 1) expands to no P_sigma at
all: P^M has no equations.

A Chow form is a `MultiHomForm`: one `HomogeneousPoly` in blocks * (M+1)
variables, block i being the variables i(M+1), ..., (i+1)(M+1) - 1, so a
key of the form splits into its blocks by slicing.  Its arithmetic and every
evaluation (`eval_terms`) come from `multipoly`; this module adds the block
record, the determinant (a Laplace expansion over column subsets) and the
skew table.  A form's keys are nested per block only in its JSON format.
"""

import itertools
from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from math import comb, prod
from typing import NamedTuple

from . import upoly
from .errors import (
    DegreeMismatch,
    DependentSpan,
    Frozen,
    InvariantViolated,
    NotHomogeneous,
    PreconditionViolated,
    SchemaError,
    VarCountMismatch,
    ZeroPolynomial,
)
from .function_field import RationalFunction, clear_denominators
from .multipoly import (
    HomogeneousPoly,
    _coerce_coeff,
    collect,
    eval_terms,
    monomial_degree,
    power_table,
)


def _bump(exps: tuple, j: int) -> tuple:
    """The exponent tuple with entry j raised by one."""
    return exps[:j] + (exps[j] + 1,) + exps[j + 1 :]


class MultiHomForm(Frozen):
    """A form of the same degree in each of `blocks` blocks of
    `vars_per_block` variables.

    poly is a HomogeneousPoly in blocks * vars_per_block variables; block i
    is the variables i * vars_per_block, ..., (i + 1) * vars_per_block - 1,
    so a flat key of poly splits into per-block exponent tuples (`split`).
    A form is immutable and checked once, when it is built: a
    DegreeMismatch names the first term whose block degrees differ from the
    first term's, or the first term when its block degrees are unequal.
    """

    __slots__ = ("blocks", "vars_per_block", "poly")

    def __init__(self, blocks: int, vars_per_block: int, poly: HomogeneousPoly):
        if poly.num_vars != blocks * vars_per_block:
            raise VarCountMismatch(
                f"form in {poly.num_vars} variables, expected {blocks} "
                f"blocks of {vars_per_block}"
            )
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "vars_per_block", vars_per_block)
        object.__setattr__(self, "poly", poly)
        profile = None
        for key in poly.terms:
            this = tuple(monomial_degree(b) for b in self.split(key))
            if profile is None:
                profile, first = this, key
            elif profile != this:
                raise DegreeMismatch(
                    f"mixed block degrees {profile} vs {this} in multihomogeneous form", key
                )
        if profile and len(set(profile)) > 1:
            raise DegreeMismatch(
                f"unequal block degrees {profile} in multihomogeneous form", first
            )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.blocks, self.vars_per_block, self.poly) == (
            other.blocks, other.vars_per_block, other.poly
        )

    @property
    def block_degree(self) -> int:
        """The common degree in each block; for a Chow form, the degree of X."""
        return self.poly.degree // self.blocks

    @property
    def terms(self) -> dict:
        """The term map of `poly`, on flat keys."""
        return self.poly.terms

    def split(self, key) -> tuple:
        """A flat key of `poly` as its per-block exponent tuples."""
        nv = self.vars_per_block
        return tuple(key[i : i + nv] for i in range(0, len(key), nv))

    def evaluate(self, block_vectors) -> RationalFunction:
        """Substitute concrete coefficient vectors, one per block."""
        if len(block_vectors) != self.blocks or any(
            len(v) != self.vars_per_block for v in block_vectors
        ):
            raise VarCountMismatch("bad block vector shape")
        return self.poly.evaluate([v for vec in block_vectors for v in vec])


def _determinant(vectors) -> HomogeneousPoly:
    """det(u_i . b_j) for k vectors b_j: degree 1 in each of k blocks u_i,
    a form in the k * len(b_j) variables of the blocks laid end to end.

    Laplace expansion along the first row, over column subsets: minors[cols]
    holds the terms of the minor on the last len(cols) rows and the columns
    cols, keyed by those rows' exponents.  Row i of that minor adds
    +-b_j[c] * u_{i,c} for each column j and coordinate c, so each subset is
    expanded once and no two forms are multiplied.
    """
    k, nv = len(vectors), len(vectors[0])
    units = [_bump((0,) * nv, c) for c in range(nv)]
    minors = {(): {(): RationalFunction(1)}}
    for size in range(1, k + 1):
        for cols in itertools.combinations(range(k), size):
            minors[cols] = collect(
                (units[c] + key, (-b if pos % 2 else b) * coeff)
                for pos, j in enumerate(cols)
                for key, coeff in minors[cols[:pos] + cols[pos + 1 :]].items()
                for c, b in enumerate(vectors[j])
                if b
            )
    return HomogeneousPoly(k * nv, k, minors[tuple(range(k))])


def chow_of_linear(span_points) -> MultiHomForm:
    """Chow form of the linear span of n+1 independent points: det(u_i . b_j).
    It is sum_S det(u_S) det(b_S) over column sets S (Cauchy-Binet), and no
    two det(u_S) share a monomial, so it is zero exactly for dependent points."""
    points = [p.coordinates for p in span_points]
    det = _determinant(points)
    if det.is_zero():
        raise DependentSpan("span points are linearly dependent")
    return MultiHomForm(len(points), len(points[0]), det)


def generalized_cross_product(blocks: int, nv: int) -> list:
    """The signed maximal minors of the blocks x nv matrix of block variables.

    Returns nv multihomogeneous forms w_0..w_{nv-1}, each of degree 1 in every
    block; w is the classical cross product for blocks=2, nv=3.
    """
    if nv != blocks + 1:
        raise VarCountMismatch("cross product needs one more variable than blocks")
    return [MultiHomForm(blocks, nv, w) for w in _cross_minors(nv)]


def _cross_minors(nv: int) -> list:
    """The signed maximal minors of the (nv-1) x nv matrix of block variables."""
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
    w = _cross_minors(nv)
    zero = HomogeneousPoly.zero(nv * (nv - 1), f.degree * (nv - 1))
    return MultiHomForm(nv - 1, nv, eval_terms(f.terms, power_table(w), zero))


class SkewExpansion(Frozen):
    """The collected expansion F_X(S^(0)x,...,S^(n)x) = sum_sigma P_sigma(x) sigma.

    pairs lists the skew index pairs (j, k), j < k, one block of them per
    S^(i); sigma_count is the number of nonzero P_sigma.  entries maps sigma
    (a tuple of per-block exponent tuples over pairs) to the nonzero
    coefficient form P_sigma.  It is built from the packed sums over Z when
    first read, then kept (`_psigma_forms`), so a caller that only counts
    the P_sigma builds no coefficient of Q(t).

    swap_sign is epsilon in {1, -1} when swapping the form's last two blocks
    multiplies it by epsilon, and None otherwise.  With epsilon, the sums
    hold only the sigma with sigma_(n-1) <= sigma_n, and `entries` adds the
    others as P_(..., b, a) = epsilon * P_(..., a, b); sigma_count counts
    both halves.
    """

    __slots__ = ("blocks", "vars_per_block", "block_degree", "pairs", "sigma_count",
                 "swap_sign", "_sums", "_entries")

    def __init__(self, blocks: int, vars_per_block: int, block_degree: int, pairs: tuple,
                 sigma_count: int, sums: tuple, swap_sign: int | None):
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "vars_per_block", vars_per_block)
        object.__setattr__(self, "block_degree", block_degree)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "sigma_count", sigma_count)
        object.__setattr__(self, "swap_sign", swap_sign)
        object.__setattr__(self, "_sums", sums)
        object.__setattr__(self, "_entries", None)

    @property
    def entries(self) -> dict:
        """sigma -> P_sigma, in sorted order of sigma; built once."""
        if self._entries is None:
            object.__setattr__(self, "_entries", _psigma_forms(self))
            object.__setattr__(self, "_sums", None)  # the forms replace them
        return self._entries

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


# Limits on one skew expansion, checked before any product is formed.  The
# work and the output grow with the number of block-term products (bounded
# by `skew_product_count`), and each product's integer with the degree
# blocks * delta of the P_sigma (a multinomial coefficient).  At 50,000
# products a single-term form expands in about 1 s on 2 vCPUs; the twisted
# cubic needs 13,556 and the P^3 quadric 37,422.  The largest degree any
# test or bundled form reaches is 6.
MAX_SKEW_PRODUCTS = 50_000
MAX_SKEW_DEGREE = 1000


def skew_product_count(form: MultiHomForm) -> int:
    """An upper bound on the products `expand_skew` forms.

    Row r of S x has vars_per_block - 1 terms, so its e-th power has at most
    C(e + vars_per_block - 2, e) of them; a term of F_X multiplies the term
    maps of its block monomials, one per block.
    """
    nv = form.vars_per_block
    return sum(prod(comb(e + nv - 2, e) for e in key) for key in form.terms)


def check_skew_floor(blocks: int, vars_per_block: int, block_degree: int) -> None:
    """Refuse, before it is built, a form of `blocks` blocks of
    `vars_per_block` variables and degree `block_degree` per block whose
    every term `expand_skew` would count past MAX_SKEW_PRODUCTS.

    A block monomial of degree delta takes the e_r-th power of each row r
    of S x, a power of C(e_r + nv - 2, e_r) terms.  The product of these
    counts is at least C(delta + nv - 2, delta), the number of monomials of
    degree delta in nv - 1 variables, onto which the products of the
    powers' terms map.  So each term counts at least that to the power
    `blocks` in `skew_product_count`: M^(M+1) for P^M, and
    C(delta + M - 1, delta)^M for a degree-delta hypersurface in P^M.
    A base >= 2 passes the limit within MAX_SKEW_PRODUCTS.bit_length()
    blocks, so the power taken stays small however many blocks there are.
    """
    base = comb(block_degree + vars_per_block - 2, block_degree)
    if base ** min(blocks, MAX_SKEW_PRODUCTS.bit_length()) > MAX_SKEW_PRODUCTS:
        raise PreconditionViolated(
            f"skew expansion of at least {base}^{blocks} products exceeds the "
            f"limit {MAX_SKEW_PRODUCTS}"
        )


def _mul_maps(a: dict, b: dict) -> dict:
    """The product of two {packed key: int} maps; keys multiply by adding."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = out.get(k, 0) + ca * cb
    return out


def _power_of_sum(terms, e: int) -> dict:
    """(sum of c * z^key over (key, c) in terms)^e as {packed key: int}.

    The multinomial theorem, one entry per split of e among the terms, so
    the work is the size of the result.  The keys must differ in a digit of
    their own (for a row of S x: the skew entry), which keeps the entries
    distinct.
    """
    if not terms:  # the one row of a 1 x 1 skew matrix is zero
        return {}
    (key, c), *rest = terms
    if not rest:
        return {key * e: c**e}
    out = {}
    for a in range(e + 1):
        head_key, head = key * a, comb(e, a) * c**a
        for k, v in _power_of_sum(rest, e - a).items():
            out[head_key + k] = head * v
    return out


def _digit_reader(width: int, count: int):
    """Reads the lowest `count` base-2^width digits of a packed key as an
    exponent tuple, most significant first; each tuple is built once."""
    mask = (1 << width) - 1
    cache = {}

    def read(packed):
        packed &= (1 << width * count) - 1
        got = cache.get(packed)
        if got is None:
            got = cache[packed] = tuple(
                packed >> width * (count - 1 - d) & mask for d in range(count)
            )
        return got

    return read


def expand_skew(form: MultiHomForm) -> SkewExpansion:
    """Expand the skew-symmetric substitution of a Chow form.

    Substitutes u_i = S^(i) x with symbolic skew entries s^(i)_{jk},
    0 <= j < k <= M, and collects the coefficient form P_sigma of every
    s-monomial sigma, over Z on packed keys (see the module docstring).
    Counts the P_sigma and checks the degree of every sigma here; builds
    the P_sigma themselves when `entries` is first read.  Each coefficient
    of P_sigma is a Z-linear combination of F_X's numerators over their
    common denominator, so e_p(P_sigma) >= e_p(F_X) at every place.

    When swapping the last two blocks multiplies the form by epsilon
    (`_swap_sign`), only the keys with sigma_(n-1) <= sigma_n are formed:
    each distinct last-block map is sorted once by its sigma_n field, and
    each key of the earlier blocks' product starts at the bisection of its
    sigma_(n-1) field.  Those sums are exact, since sigma_(n-1) comes from
    the earlier blocks alone and sigma_n from the last block alone.  A kept
    prefix counts twice when sigma_(n-1) != sigma_n, once otherwise, and
    checking the block degrees of the kept prefixes checks their mirrors'.
    Any other form starts every inner loop at 0 and is expanded in full.
    """
    nv = form.vars_per_block
    blocks = form.blocks
    delta = form.block_degree
    pairs = skew_pairs(nv)
    degree = blocks * delta
    if degree > MAX_SKEW_DEGREE:
        raise PreconditionViolated(
            f"skew expansion of degree {degree} exceeds the limit {MAX_SKEW_DEGREE}"
        )
    products = skew_product_count(form)
    if products > MAX_SKEW_PRODUCTS:
        raise PreconditionViolated(
            f"skew expansion of up to {products} products exceeds the limit "
            f"{MAX_SKEW_PRODUCTS}"
        )
    width = degree.bit_length()
    sigma_digits = blocks * len(pairs)

    def unit(digit):  # the key with a 1 in this digit, counted from the top
        return 1 << width * (sigma_digits + nv - 1 - digit)

    # linear[r]: row r of S^(0) x as (key of s_p * x_col, sign) pairs
    linear = [
        [(unit(p) | unit(sigma_digits + col), sign) for p, col, sign in row]
        for row in _skew_rows(pairs, nv)
    ]
    x_bits = width * nv
    x_mask = (1 << x_bits) - 1
    row_powers = {}
    block_maps = {}

    def block_map(i, exps):
        """prod_r ((S^(i) x)_r)^exps[r] as {key: int}, built once: block 0's
        from the powers of its rows, each built once, and block i's from
        block 0's, its sigma digits moved down i blocks."""
        got = block_maps.get((i, exps))
        if got is None:
            if i:
                shift = x_bits + width * len(pairs) * i
                got = {k >> shift << x_bits | k & x_mask: c for k, c in block_map(0, exps).items()}
            else:
                for r, e in enumerate(exps):
                    if e and (r, e) not in row_powers:
                        row_powers[r, e] = _power_of_sum(linear[r], e)
                got = reduce(
                    _mul_maps, (row_powers[r, e] for r, e in enumerate(exps) if e), {0: 1}
                )
            block_maps[i, exps] = got
        return got

    sign = _swap_sign(form)
    # the sigma_n field of a key is its digits above x; sigma_(n-1)'s the next
    block_bits = width * len(pairs)
    block_mask = (1 << block_bits) - 1
    prev_shift = x_bits + block_bits
    ordered = {}

    def last_block(exps):
        """The last block's map as items sorted by their sigma_n field, and
        those fields, built once per exponent tuple."""
        got = ordered.get(exps)
        if got is None:
            items = sorted(block_map(blocks - 1, exps).items())
            got = ordered[exps] = (items, [kb >> x_bits for kb, _ in items])
        return got

    numerators, den = clear_denominators(form.terms.values())
    # acc[j]: key -> coefficient of t^j in the numerator over den
    acc = [{} for _ in range(max(map(len, numerators), default=0))]
    for key, num in zip(form.terms, numerators):
        *head, exps = form.split(key)
        firsts = list(map(block_map, range(blocks - 1), head))
        nonzero = [(a, out) for a, out in zip(num, acc) if a]
        last_items, fields = last_block(exps)
        tail = last_items
        # the last block's map multiplies straight into the sums
        for ka, ca in (reduce(_mul_maps, firsts) if firsts else {0: 1}).items():
            if sign:  # the keys with sigma_n >= sigma_(n-1) only
                tail = last_items[bisect_left(fields, ka >> prev_shift & block_mask):]
            for a, out in nonzero:
                ca_a = ca * a
                for kb, cb in tail:
                    k = ka + kb
                    out[k] = out.get(k, 0) + ca_a * cb

    # a key's numerator is nonzero when one of its t-coefficients is
    prefixes = {k >> x_bits for out in acc for k in itertools.compress(out, out.values())}
    _check_block_degrees(prefixes, width, blocks, len(pairs), delta)
    count = len(prefixes)
    if sign:  # a kept prefix off the diagonal stands for its mirror too
        count += sum(p >> block_bits & block_mask != p & block_mask for p in prefixes)
    return SkewExpansion(blocks, nv, delta, pairs, count, (acc, den, width), sign)


def _swap_sign(form: MultiHomForm) -> int | None:
    """epsilon when swapping the last two blocks maps every term of the form
    to epsilon times a term, with one epsilon in {1, -1} for all of them;
    None when it does not, or when the form has fewer than two blocks."""
    if form.blocks < 2:
        return None
    nv, terms = form.vars_per_block, form.terms
    sign = None
    for key, c in terms.items():
        mirror = terms.get(key[: -2 * nv] + key[-nv:] + key[-2 * nv : -nv])
        this = 1 if mirror == c else -1 if mirror == -c else None
        if this is None or sign not in (None, this):
            return None
        sign = this
    return sign


def _sigma_reader(width: int, blocks: int, per_block: int):
    """Reads a packed sigma prefix as its tuple of per-block exponent tuples."""
    block_of = _digit_reader(width, per_block)
    bits = width * per_block
    return lambda packed: tuple(
        block_of(packed >> bits * (blocks - 1 - i)) for i in range(blocks)
    )


def _check_block_degrees(prefixes, width: int, blocks: int, per_block: int, delta: int):
    """Raise InvariantViolated unless every packed sigma prefix has degree
    delta in every block, naming the least sigma that does not.  A block's
    distinct exponent tuples are few, so each is checked once."""
    block_of = _digit_reader(width, per_block)
    bits = width * per_block
    mask = (1 << bits) - 1
    for i in range(blocks):
        shift = bits * (blocks - 1 - i)
        parts = {p >> shift & mask for p in prefixes}
        if any(monomial_degree(block_of(b)) != delta for b in parts):
            sigma_of = _sigma_reader(width, blocks, per_block)
            sigma = next(
                s for s in map(sigma_of, sorted(prefixes))
                if any(monomial_degree(b) != delta for b in s)
            )
            raise InvariantViolated(
                f"s-monomial {sigma} is not of degree {delta} in every block"
            )


def _psigma_forms(expansion: SkewExpansion) -> dict:
    """The P_sigma of an expansion from its packed sums: sigma -> the form
    with Q(t) coefficients on its x-monomials, in sorted order of sigma.
    For a block-symmetric form the sums hold sigma_(n-1) <= sigma_n only;
    each kept sigma off that diagonal adds its mirror, the last two sigma
    digit fields swapped, the x-monomials kept and the coefficients times
    swap_sign."""
    acc, den, width = expansion._sums
    nv, blocks = expansion.vars_per_block, expansion.blocks
    degree = blocks * expansion.block_degree
    # x-monomials, s-monomials and coefficients repeat; build each once.
    mono_of = _digit_reader(width, nv)
    sigma_of = _sigma_reader(width, blocks, len(expansion.pairs))
    mono_bits = width * nv
    coeffs = {}
    grouped = {}
    for k in set().union(*acc):
        num = upoly.strip(out.get(k, 0) for out in acc)
        if num:
            c = coeffs.get(num)
            if c is None:
                c = coeffs[num] = RationalFunction.reduced(num, den)
            grouped.setdefault(k >> mono_bits, {})[mono_of(k)] = c
    sign = expansion.swap_sign
    if sign is not None:  # P_(..., b, a) = sign * P_(..., a, b), a != b
        bits = width * len(expansion.pairs)
        mask = (1 << bits) - 1
        for packed, terms in list(grouped.items()):
            a, b = packed >> bits & mask, packed & mask
            if a != b:
                grouped[packed >> 2 * bits << 2 * bits | b << bits | a] = (
                    dict(terms) if sign == 1 else {m: -c for m, c in terms.items()}
                )
    # nonzero coefficients on x-monomials of total degree blocks * delta
    return {
        sigma_of(packed): HomogeneousPoly._trusted(nv, degree, grouped[packed])
        for packed in sorted(grouped)
    }


class SigmaCountReport(NamedTuple):
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


def chow_height(form: MultiHomForm) -> Fraction:
    """h(X) := h(F_X), the height of the coefficient family of the Chow form."""
    if form.poly.is_zero():
        raise ZeroPolynomial("zero Chow form")
    return Fraction(form.poly.primitive()[1])


def multihomform_to_json(form: MultiHomForm) -> dict:
    """The form in the `chow_form` input format, terms sorted."""
    return {
        "blocks": form.blocks,
        "vars_per_block": form.vars_per_block,
        "terms": [
            {"exponents": [list(b) for b in form.split(key)], "coeff": str(c)}
            for key, c in sorted(form.terms.items())
        ],
    }


def multihomform_from_json(data: dict, pointer: str = "") -> MultiHomForm:
    """The form of `multihomform_to_json`'s output.  A SchemaError names the
    term at fault: a bad block shape at `pointer`/terms/<i>/exponents;
    exponents that repeat an earlier term's at `pointer`/terms/<i>; a
    coefficient that does not parse at `pointer`/terms/<i>/coeff.  Degrees
    are checked by `HomogeneousPoly.from_terms` and `MultiHomForm`, and the
    pointer `pointer`/terms/<i>/exponents is that of the term whose key
    their error reports."""
    from .parsing import parse_at, parse_rational

    blocks, nv = data["blocks"], data["vars_per_block"]
    terms, first = {}, {}
    for i, item in enumerate(data["terms"]):
        exponents = item["exponents"]
        if len(exponents) != blocks or any(len(b) != nv for b in exponents):
            raise SchemaError(
                f"bad block shape in term {exponents}", f"{pointer}/terms/{i}/exponents"
            )
        key = tuple(e for b in exponents for e in b)
        if key in first:
            raise SchemaError(
                f"exponents {exponents} repeat those of term {first[key]}",
                f"{pointer}/terms/{i}",
            )
        first[key] = i
        terms[key] = parse_at(parse_rational, item["coeff"], f"{pointer}/terms/{i}/coeff")
    try:
        return MultiHomForm(blocks, nv, HomogeneousPoly.from_terms(blocks * nv, terms))
    except (DegreeMismatch, NotHomogeneous) as exc:
        raise SchemaError(str(exc), f"{pointer}/terms/{first[exc.key]}/exponents") from None
