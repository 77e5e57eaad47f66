"""Exact sparse echelon forms over K = Q(t).

Rows live in sparse dicts {column index: entry}.  Forward elimination is
fraction-free: incoming rows are scaled to primitive integer-polynomial
rows (denominators cleared, content stripped) and eliminated by
cross-multiplication against the stored pivot rows, stripping content after
every combination to keep coefficients small.  Pivoting is deterministic:
rows in input order, the leftmost nonzero column pivots.  The reduced
row-echelon form over K is recovered at the end by exact division, and is
the canonical RREF of the row space, so every basis choice downstream is
reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm as int_lcm

from . import upoly
from .function_field import RationalFunction, clear_denominators
from .multipoly import collect


def _row_to_primitive(field_row: dict) -> dict:
    """Clear denominators and strip content: {col: RationalFunction} -> {col: poly}."""
    entries = {c: f for c, f in field_row.items() if not f.is_zero()}
    return _strip_content(dict(zip(entries, clear_denominators(entries.values()))))


def _strip_content(polys: dict) -> dict:
    """Scale a polynomial row to integer coefficients with content 1.

    Sign convention: the leading coefficient of the leftmost entry is positive.
    """
    polys = {c: p for c, p in polys.items() if p}
    if not polys:
        return {}
    num_gcd = 0
    den_lcm = 1
    for p in polys.values():
        for coeff in p:
            if coeff:
                num_gcd = int_gcd(num_gcd, coeff.numerator)
                den_lcm = int_lcm(den_lcm, coeff.denominator)
    scale = Fraction(den_lcm, num_gcd)
    if upoly.leading(polys[min(polys)]) < 0:
        scale = -scale
    if scale == 1:
        return polys
    return {c: upoly.scale(p, scale) for c, p in polys.items()}


class Echelon:
    """Incremental echelon form with deterministic leftmost pivoting.

    pivot_limit restricts which columns may hold a pivot; trailing columns
    ride along unpivoted, which is how combination tracking is implemented.
    """

    def __init__(self, ncols: int, pivot_limit: int | None = None):
        self.ncols = ncols
        self.pivot_limit = ncols if pivot_limit is None else pivot_limit
        self._pivots = {}  # pivot col -> primitive integer-poly row
        self._rref = None

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def pivot_cols(self) -> list:
        return sorted(self._pivots)

    def add_row(self, field_row: dict) -> bool:
        """Insert a row (as {col: RationalFunction}); True iff the rank grew."""
        self._add_primitive(_row_to_primitive(field_row))
        return self._last_grew

    def _add_primitive(self, row: dict):
        self._last_grew = False
        while row:
            lead = min((c for c in row if c < self.pivot_limit), default=None)
            if lead is None:
                return  # no pivotable support left
            piv = self._pivots.get(lead)
            if piv is None:
                self._pivots[lead] = row
                self._rref = None
                self._last_grew = True
                return
            a, b = piv[lead], row[lead]
            combined = {}
            for c in set(row) | set(piv):
                val = upoly.sub(
                    upoly.mul(a, row.get(c, upoly.ZERO)),
                    upoly.mul(b, piv.get(c, upoly.ZERO)),
                )
                if val:
                    combined[c] = val
            row = _strip_content(combined)

    def rref_rows(self) -> dict:
        """{pivot col: fully reduced row over K with pivot entry 1}."""
        if self._rref is None:
            reduced = {}
            for col in sorted(self._pivots, reverse=True):
                inv = RationalFunction(upoly.ONE, self._pivots[col][col])
                frow = {
                    c: RationalFunction(p) * inv
                    for c, p in self._pivots[col].items()
                }
                for c in sorted(k for k in frow if k != col and k in reduced):
                    coeff = -frow.pop(c)
                    # the pivot entry cancels exactly and is already popped
                    collect(
                        ((cc, coeff * v) for cc, v in reduced[c].items() if cc != c),
                        frow,
                    )
                frow[col] = RationalFunction(1)
                reduced[col] = frow
            self._rref = reduced
        return self._rref

    def reduce(self, field_row: dict) -> dict:
        """Residual of a row modulo the row space; supported off the pivots."""
        rref = self.rref_rows()
        v = {c: f for c, f in field_row.items() if not f.is_zero()}
        for col in sorted(rref):
            coeff = v.get(col)
            if coeff is None or coeff.is_zero():
                continue
            coeff = -coeff
            collect(((cc, coeff * rv) for cc, rv in rref[col].items()), v)
        return v

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
        ech.add_row(aug)
    residual = ech.reduce(dict(target))
    if any(c < ncols for c in residual):
        return None
    out = [RationalFunction(0)] * len(rows)
    for c, v in residual.items():
        out[c - ncols] = -v
    return out
