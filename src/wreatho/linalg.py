"""Exact sparse linear algebra over the rationals.

Every routine runs on one elimination core, ``_echelon``.  A row is held as
a ``{column: int | Fraction}`` dict with no zero entries, so the cost
follows the nonzeros and their fill-in rather than rows x columns: the
commutation systems of the center split into many small independent
pieces, and fill-in stays inside each piece.  Pivots are taken in column
order and every pivot row is kept fully reduced, which yields the unique
reduced row echelon form; the results therefore do not depend on the order
of the input rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress

from .poly import Scalar

SparseRow = dict[int, Scalar]


def _sparse(row) -> SparseRow:
    """The nonzero entries of a dense row, as given; int zeros are skipped
    without a Python-level ``Fraction.__bool__`` call."""
    return {k: row[k] for k in compress(range(len(row)), row)}


def _reduce(row: SparseRow, pivots: dict[int, SparseRow]) -> SparseRow:
    """Clear every pivot column from `row`, in place.

    Pivot rows vanish on every other pivot column, so subtracting one never
    brings back a pivot column that was already cleared.
    """
    for c in [c for c in row if c in pivots]:
        _subtract(row, row.pop(c), pivots[c], c)
    return row


def _subtract(row: SparseRow, f: Scalar, pivot: SparseRow, lead: int) -> None:
    """row -= f * pivot on every column but `lead`, which the caller cleared."""
    for k, v in pivot.items():
        if k != lead:
            x = row.get(k, 0) - f * v
            if x:
                row[k] = x
            else:
                del row[k]


def _echelon(rows) -> dict[int, SparseRow]:
    """The reduced row echelon form of the row space, as pivot column ->
    pivot row (leading entry 1, zero on every other pivot column)."""
    pivots: dict[int, SparseRow] = {}
    for dense in rows:
        row = _reduce(_sparse(dense), pivots)
        if not row:
            continue
        lead = min(row)
        inv = Fraction(1, row[lead])
        row = {k: v * inv for k, v in row.items()}
        for other in pivots.values():
            if lead in other:
                _subtract(other, other.pop(lead), row, lead)
        pivots[lead] = row
    return pivots


def rref(rows: list[list[Scalar]]):
    """Reduced row echelon form in place; returns the pivot column list.

    The nonzero rows come first in pivot order, the zero rows after them.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = _echelon(rows)
    order = sorted(pivots)
    reduced = [[pivots[c].get(k, 0) for k in range(ncols)] for c in order]
    rows[:] = reduced + [[0] * ncols for _ in range(len(rows) - len(order))]
    return order


def nullspace(rows: list[list[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Basis of the solution space of rows * x = 0, denominators cleared.

    One vector per free column, in column order: 1 on its free column, minus
    that column of the reduced rows on the pivot columns.
    """
    pivots = _echelon(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for pc, row in pivots.items():
            if fc in row:
                vec[pc] = -row[fc]
        lcm = math.lcm(*(x.denominator for x in vec))
        basis.append([x.numerator * (lcm // x.denominator) for x in vec])
    return basis


def rank(rows: list[list[Scalar]]) -> int:
    return len(_echelon(rows))


def in_row_space(rows: list[list[Scalar]], vec: list[Scalar]) -> bool:
    return not _reduce(_sparse(vec), _echelon(rows))
