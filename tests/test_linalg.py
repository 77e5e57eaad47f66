import random

import pytest
from hypothesis import given, settings, strategies as st

from ffsubspace import upoly
from ffsubspace.errors import PreconditionViolated
from ffsubspace.function_field import RationalFunction
from ffsubspace.linalg import Echelon, primitive_row, solve_combination
from helpers import rand_k, rand_qpoly
from oracles import rref_of

T = RationalFunction.t()
ZERO = RationalFunction(0)


def gauss_jordan(rows, ncols, pivot_limit=None):
    """Reference: plain Gauss-Jordan over Q(t) on dense rows.

    Only columns below pivot_limit may pivot, and the pivot row of a column
    is the first remaining row, in input order, nonzero there, so the rows
    kept are the ones `Echelon.add_row` keeps.
    Returns (rank, pivot columns, {pivot col: sparse reduced row}).
    """
    dense = [[r.get(j, ZERO) for j in range(ncols)] for r in rows]
    pivots = []
    for col in range(ncols if pivot_limit is None else pivot_limit):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(dense)) if dense[i][col]), None)
        if piv is None:
            continue
        dense.insert(rank, dense.pop(piv))
        inv = RationalFunction(1) / dense[rank][col]
        dense[rank] = [v * inv for v in dense[rank]]
        for i in range(len(dense)):
            if i != rank and dense[i][col]:
                f = dense[i][col]
                dense[i] = [a - f * b for a, b in zip(dense[i], dense[rank])]
        pivots.append(col)
    rref = {
        col: {j: v for j, v in enumerate(dense[i]) if v} for i, col in enumerate(pivots)
    }
    return len(pivots), pivots, rref


def gauss_jordan_residual(rref, target):
    """target minus its combination of the reference's reduced rows, which
    are zero on each other's pivot columns."""
    v = {j: f for j, f in target.items() if f}
    for col, r in rref.items():
        f = v.get(col)
        if f:
            for j, a in r.items():
                v[j] = v.get(j, ZERO) - f * a
    return {j: f for j, f in v.items() if f}


def echelon_of(rows, ncols):
    ech = Echelon(ncols)
    for r in rows:
        ech.add_row(primitive_row(r))
    return ech


def row(*vals):
    return {i: RationalFunction(v) if not isinstance(v, RationalFunction) else v
            for i, v in enumerate(vals) if v}


def test_rank_and_pivots_constant():
    ech = Echelon(3)
    assert ech.add_row(primitive_row(row(1, 2, 3)))
    assert ech.add_row(primitive_row(row(2, 4, 6))) is False  # dependent
    assert ech.add_row(primitive_row(row(0, 1, 1)))
    assert ech.rank == 2
    assert ech.pivot_cols() == [0, 1]
    rref = rref_of(ech)
    assert rref[0] == {0: RationalFunction(1), 2: RationalFunction(1)}
    assert rref[1] == {1: RationalFunction(1), 2: RationalFunction(1)}


def test_rref_is_canonical_under_row_order():
    rows = [row(1, 2, 3), row(0, 1, 1), row(1, 3, 4), row(2, 0, 1)]
    rng = random.Random(3)
    base = None
    for _ in range(6):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        ech = Echelon(3)
        for r in shuffled:
            ech.add_row(primitive_row(r))
        if base is None:
            base = rref_of(ech)
        else:
            assert rref_of(ech) == base


def test_polynomial_entries():
    ech = Echelon(2)
    ech.add_row(primitive_row(row(T, 1)))
    ech.add_row(primitive_row(row(T * T, T)))  # multiple of the first
    assert ech.rank == 1
    ech.add_row(primitive_row(row(0, T - 1)))
    assert ech.rank == 2
    rref = rref_of(ech)
    assert rref[0] == {0: RationalFunction(1)}
    assert rref[1] == {1: RationalFunction(1)}


def test_reduce_and_contains():
    ech = Echelon(3)
    ech.add_row(primitive_row(row(1, 0, -1)))
    ech.add_row(primitive_row(row(0, 1, -1)))
    assert ech.contains(row(1, 1, -2))
    residual = ech.reduce(row(1, 1, 0))
    assert residual == {2: RationalFunction(2)}


def test_solve_combination():
    rows = [row(1, 1, 0), row(0, 1, 1)]
    target = row(1, 2, 1)
    sol = solve_combination(rows, target, 3)
    assert sol == [RationalFunction(1), RationalFunction(1)]
    assert solve_combination(rows, row(0, 0, 1), 3) is None
    # dependent rows still produce some valid combination
    rows = [row(1, 1, 0), row(2, 2, 0), row(0, 0, 1)]
    sol = solve_combination(rows, row(3, 3, 1), 3)
    assert sol is not None
    total = {}
    for c, r in zip(sol, rows):
        for col, v in r.items():
            total[col] = total.get(col, RationalFunction(0)) + c * v
    assert {c: v for c, v in total.items() if not v.is_zero()} == row(3, 3, 1)


def test_random_rank_agrees_with_field_elimination():
    rng = random.Random(9)
    for _ in range(10):
        nrows, ncols = rng.randint(2, 5), rng.randint(2, 5)
        rows = [
            {j: rand_k(rng, 1) for j in range(ncols) if rng.random() < 0.7}
            for _ in range(nrows)
        ]
        assert echelon_of(rows, ncols).rank == gauss_jordan(rows, ncols)[0]


def _seeded_rows(rng, ncols):
    """Rows over Q(t) with denominators, t-polynomial and zero entries, and
    duplicate, scaled and dependent rows."""

    def entry():
        kind = rng.random()
        if kind < 0.3:
            return ZERO
        if kind < 0.55:
            return RationalFunction(rand_qpoly(rng, 3))
        if kind < 0.7:
            return RationalFunction(rng.randint(-4, 4))
        return rand_k(rng, 2)

    rows = [{j: entry() for j in range(ncols)} for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(0, 4)):
        a, b = rng.choice(rows), rng.choice(rows)
        kind = rng.random()
        if kind < 0.3:
            rows.append(dict(a))
        elif kind < 0.6:
            c = rand_k(rng, 1)
            rows.append({j: c * v for j, v in a.items()})
        else:
            c, e = rand_k(rng, 1), rand_k(rng, 1)
            rows.append({j: c * a.get(j, ZERO) + e * b.get(j, ZERO) for j in range(ncols)})
    rng.shuffle(rows)
    return rows


def test_echelon_matches_gauss_jordan_reference():
    rng = random.Random(17)
    ranks = set()
    for _ in range(40):
        ncols = rng.randint(1, 6)
        rows = _seeded_rows(rng, ncols)
        ech = echelon_of(rows, ncols)
        rank, pivots, rref = gauss_jordan(rows, ncols)
        assert (ech.rank, ech.pivot_cols(), rref_of(ech)) == (rank, pivots, rref)
        ranks.add((rank, len(rows)))
    assert any(rank < nrows for rank, nrows in ranks)  # dependent rows were seen


_polys = st.lists(st.integers(-4, 4), max_size=3)
_entries = st.builds(
    lambda num, den: RationalFunction(num, den) if any(den) else RationalFunction(num),
    _polys,
    _polys,
)


@st.composite
def _row_sets(draw, ncols=4):
    rows = draw(st.lists(
        st.lists(_entries, min_size=ncols, max_size=ncols), min_size=1, max_size=3
    ))
    rows = [dict(enumerate(r)) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c = draw(_entries)
        rows.append({j: a[j] + c * b[j] for j in range(ncols)})
    return rows


@settings(max_examples=40, deadline=None)
@given(rows=_row_sets(), data=st.data())
def test_rref_does_not_depend_on_row_order(rows, data):
    shuffled = data.draw(st.permutations(rows))
    ech = echelon_of(shuffled, 4)
    assert rref_of(ech) == rref_of(echelon_of(rows, 4))
    assert rref_of(ech) == gauss_jordan(rows, 4)[2]


@settings(max_examples=40, deadline=None)
@given(rows=_row_sets(), data=st.data())
def test_rref_depends_only_on_the_row_space(rows, data):
    # rescaled by nonzero elements of K, with duplicates, in any order
    nonzero = _entries.filter(lambda f: not f.is_zero())
    scales = data.draw(st.lists(nonzero, min_size=len(rows), max_size=len(rows)))
    scaled = [{j: s * v for j, v in r.items()} for s, r in zip(scales, rows)]
    duplicates = data.draw(st.lists(st.sampled_from(scaled), max_size=3))
    other = echelon_of(data.draw(st.permutations(scaled + duplicates)), 4)
    ech = echelon_of(rows, 4)
    assert (other.pivot_cols(), rref_of(other)) == (ech.pivot_cols(), rref_of(ech))


@settings(max_examples=60, deadline=None)
@given(rows=_row_sets(), data=st.data())
def test_reduce_matches_the_gauss_jordan_residual(rows, data):
    # a target with denominators, outside the span or inside it (a K-combination
    # of dependent rows), against plain elimination over Q(t)
    target = dict(enumerate(data.draw(st.lists(_entries, min_size=4, max_size=4))))
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(_entries, min_size=len(rows), max_size=len(rows)))
        target = {j: sum((c * r[j] for c, r in zip(coeffs, rows)), ZERO) for j in range(4)}
    ech = echelon_of(rows, 4)
    expected = gauss_jordan_residual(gauss_jordan(rows, 4)[2], target)
    assert ech.reduce(target) == expected
    assert ech.contains(target) == (not expected)


@settings(max_examples=60, deadline=None)
@given(rows=_row_sets(ncols=3), target=st.lists(_entries, min_size=3, max_size=3))
def test_reduce_with_tracking_columns_matches_the_gauss_jordan_residual(rows, target):
    # the augmented echelon of solve_combination: row i carries a 1 in column
    # 3 + i, and only the first 3 columns may pivot
    ncols = 3 + len(rows)
    aug = [{**r, 3 + i: RationalFunction(1)} for i, r in enumerate(rows)]
    ech = Echelon(ncols, pivot_limit=3)
    for r in aug:
        ech.add_row(primitive_row(r))
    target = dict(enumerate(target))
    rank, pivots, rref = gauss_jordan(aug, ncols, pivot_limit=3)
    assert (ech.rank, ech.pivot_cols()) == (rank, pivots)
    assert ech.reduce(target) == gauss_jordan_residual(rref, target)


def test_row_to_primitive_reads_numerators_and_denominators():
    # (2t+3)/6, t/(4t+6), 0, -3/2: the Z[t] lcm of the denominators is
    # 6(2t+3), and the scaled row has content 1 in Z[t]
    row = {
        0: RationalFunction.parse("(2*t + 3)/6"),
        2: RationalFunction.parse("t/(4*t + 6)"),
        3: ZERO,
        5: RationalFunction.parse("-3/2"),
    }
    prim = primitive_row(row)
    assert prim == {0: (9, 12, 4), 2: (0, 3), 5: (-27, -18)}
    ratio = RationalFunction.reduced(prim[0]) / row[0]
    assert all(RationalFunction.reduced(p) == ratio * row[c] for c, p in prim.items())
    # entries sharing the factor t lose it, not only their integer content
    assert primitive_row({0: T * T + T, 2: T}) == {0: (1, 1), 2: (1,)}


@settings(max_examples=100, deadline=None)
@given(rows=_row_sets(ncols=3))
def test_kernel_vector_spans_the_kernel(rows):
    # rank 2 in 3 columns leaves a kernel line over K; the vector spans it,
    # in coprime Z[t] entries
    ech = Echelon(3)
    for r in rows:
        ech.add_row(primitive_row(r))
    if ech.rank != 2:
        with pytest.raises(PreconditionViolated):
            ech.kernel_vector()
        return
    x = ech.kernel_vector()
    assert any(x) and upoly.divide_content(x) == x
    point = [RationalFunction.reduced(c) for c in x]
    for r in rows:
        assert sum((v * point[c] for c, v in r.items()), ZERO) == ZERO
