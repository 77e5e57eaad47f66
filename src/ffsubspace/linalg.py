"""Exact sparse echelon forms over K = Q(t).

Rows live in sparse dicts {column index: entry}.  Forward elimination is
fraction-free and runs over Z[t]: `Echelon.add_row` takes primitive rows,
whose entries are integer `upoly` tuples with content 1 in Z[t] (no sign
rule).  A row over K enters through `primitive_row`, which clears the Z[t]
lcm of its denominators and divides by the entries' gcd in Z[t]; graded
pieces and filtrations build their rows over Z[t] directly.  Rows are eliminated by
cross-multiplication against the stored pivot rows with
`upoly.mul`/`upoly.sub`, and every combination is divided by its content
in Z[t] (`upoly.divide_content`), so a common factor in t does not survive
the step and the degrees in t do not double at each pivot (fraction-free
elimination with content removal: Bareiss 1968; Geddes, Czapor and Labahn,
Algorithms for Computer Algebra, Ch. 9).  Pivoting is deterministic: rows
in input order, the leftmost nonzero column pivots.  `reduce` runs the
same step on a row over K made primitive with a 1 in an extra scale
column, and entries become elements of Q(t) only when it returns: each is
read over the scale that elimination put on that column.  K values thus
enter through `primitive_row` and leave through `RationalFunction.reduced`.
"""

from __future__ import annotations

from . import upoly
from .errors import PreconditionViolated
from .function_field import RationalFunction, primitive_polys


def primitive_row(field_row: dict) -> dict:
    """Clear denominators and divide by the content in Z[t]:
    {col: RationalFunction} -> {col: nonzero upoly tuple}."""
    entries = {c: f for c, f in field_row.items() if not f.is_zero()}
    return dict(zip(entries, primitive_polys(entries.values())))


def _strip_content(row: dict) -> dict:
    """Drop a row's zero entries and divide the rest by their gcd in Z[t]."""
    row = {c: p for c, p in row.items() if p}
    return dict(zip(row, upoly.divide_content(row.values())))


def _eliminate(row: dict, piv: dict, lead: int) -> dict:
    """a*row - b*piv for a, b the entries of piv and row at `lead`, whose
    own entry there cancels exactly and is left out; may hold zero entries."""
    a, b = piv[lead], row[lead]
    out = {c: upoly.mul(a, p) for c, p in row.items() if c != lead}
    for c, p in piv.items():
        if c != lead:
            q = upoly.mul(b, p)
            r = out.get(c)
            out[c] = upoly.neg(q) if r is None else upoly.sub(r, q)
    return out


class Echelon:
    """Incremental echelon form with deterministic leftmost pivoting.

    pivot_limit restricts which columns may hold a pivot; trailing columns
    ride along unpivoted, which is how combination tracking is implemented.
    """

    def __init__(self, ncols: int, pivot_limit: int | None = None):
        self.ncols = ncols
        self.pivot_limit = ncols if pivot_limit is None else pivot_limit
        self._pivots = {}  # pivot col -> primitive row over Z[t]

    def copy(self) -> "Echelon":
        """The same pivot rows in a new echelon, to extend without touching
        this one; stored rows are never changed in place, so they are shared."""
        out = Echelon(self.ncols, self.pivot_limit)
        out._pivots = dict(self._pivots)
        return out

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def pivot_cols(self) -> list:
        return sorted(self._pivots)

    def add_row(self, row: dict) -> bool:
        """Insert a primitive row over Z[t] ({col: nonzero upoly tuple} with
        content 1 in Z[t], such as `primitive_row` gives); True iff the rank
        grew.  No sign rule: a stored pivot row is the row as it came, or as
        elimination left it, up to its content in Z[t]."""
        while row:
            lead = min(row)
            if lead >= self.pivot_limit:
                return False  # no pivotable support left
            piv = self._pivots.get(lead)
            if piv is None:
                self._pivots[lead] = row
                return True
            row = _strip_content(_eliminate(row, piv, lead))
        return False

    def kernel_vector(self) -> list:
        """For rank ncols - 1, the one line over K that every stored row
        annihilates, as ncols coprime Z[t] entries (zeros are ()).

        Fraction-free back-substitution: the free column starts at 1; each
        pivot row, last pivot first, with entry a at its pivot and sum s of
        its other entries times the known ones, scales the vector by a and
        puts -s at its pivot (nothing to do when s = 0), and the content is
        divided out after each step."""
        if self.rank != self.ncols - 1:
            raise PreconditionViolated(f"rank {self.rank} in {self.ncols} columns")
        x = [upoly.ZERO] * self.ncols
        x[next(c for c in range(self.ncols) if c not in self._pivots)] = upoly.ONE
        for col, piv in sorted(self._pivots.items(), reverse=True):
            s = upoly.ZERO
            for c, p in piv.items():
                if c != col and x[c]:
                    s = upoly.add(s, upoly.mul(p, x[c]))
            if s:
                a = piv[col]
                x = [upoly.mul(a, v) for v in x]
                x[col] = upoly.neg(s)
                x = upoly.divide_content(x)
        return x

    def reduce(self, field_row: dict) -> dict:
        """Residual of a row over K modulo the row space: the one element of
        row + span that is zero on every pivot column, {col: RationalFunction}.

        The row goes to Z[t] with a 1 in the scale column `ncols`, which no
        pivot row touches; eliminating the pivot columns in ascending order
        (each step only adds columns right of its pivot) leaves s*(row + w)
        for some w in the span, with s the scale column's entry."""
        aug = dict(field_row)
        aug[self.ncols] = RationalFunction(1)
        row = primitive_row(aug)
        for col, piv in sorted(self._pivots.items()):
            if col in row:
                row = _strip_content(_eliminate(row, piv, col))
        scale = row.pop(self.ncols)
        return {c: RationalFunction.reduced(p, scale) for c, p in row.items()}

    def contains(self, field_row: dict) -> bool:
        return not self.reduce(field_row)


def solve_combination(rows: list, target: dict, ncols: int):
    """Solve target = sum_i y_i * rows_i over K.

    rows/target are sparse {col: RationalFunction} with col < ncols.  Returns
    the coefficient list y or None when target is outside the row span.
    """
    ech = Echelon(ncols + len(rows), pivot_limit=ncols)
    for i, row in enumerate(rows):
        aug = dict(row)
        aug[ncols + i] = RationalFunction(1)
        ech.add_row(primitive_row(aug))
    residual = ech.reduce(dict(target))
    if any(c < ncols for c in residual):
        return None
    out = [RationalFunction(0)] * len(rows)
    for c, v in residual.items():
        out[c - ncols] = -v
    return out
