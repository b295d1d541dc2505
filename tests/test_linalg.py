"""Property tests for the sparse elimination in wreatho.linalg against the
dense elimination of the independent oracles."""

import math
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import kernel_basis, solve_in_span
from wreatho.linalg import in_row_space, nullspace, rank, rref

PROPERTY = settings(max_examples=150)

# mostly zeros, as in the commutation systems; zeros come as int or Fraction
_entry = st.sampled_from(
    [0, F(0)] * 4 + [1, -1, 2, F(1), F(-3), F(1, 2), F(-2, 3), F(5, 3), F(-7, 4)]
)


@st.composite
def _dense(draw, max_rows=7, max_cols=7):
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    rows = [[draw(_entry) for _ in range(ncols)] for _ in range(nrows)]
    return rows, ncols


@st.composite
def _blocks(draw):
    """Independent blocks, interleaved by random row and column permutations."""
    parts = draw(st.lists(_dense(max_rows=4, max_cols=4), min_size=2, max_size=3))
    ncols = sum(c for _, c in parts)
    rows = []
    offset = 0
    for block, c in parts:
        for row in block:
            rows.append([0] * offset + row + [0] * (ncols - offset - c))
        offset += c
    rows = draw(st.permutations(rows))
    perm = draw(st.permutations(range(ncols)))
    return [[row[p] for p in perm] for row in rows], ncols


matrices = st.one_of(_dense(), _blocks())


def _cleared(vec):
    lcm = math.lcm(*(F(x).denominator for x in vec))
    return [F(x) * lcm for x in vec]


@PROPERTY
@given(matrices, st.data())
def test_against_oracle(system, data):
    rows, ncols = system
    basis = nullspace(rows, ncols)
    assert basis == [_cleared(v) for v in kernel_basis(rows, ncols)]
    for vec in basis:
        for row in rows:
            assert sum((a * b for a, b in zip(row, vec)), F(0)) == 0
    assert rank(rows) == ncols - len(basis)
    if rows and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(_entry, min_size=len(rows), max_size=len(rows)))
        vec = [sum((c * row[k] for c, row in zip(coeffs, rows)), F(0)) for k in range(ncols)]
    else:
        vec = data.draw(st.lists(_entry, min_size=ncols, max_size=ncols))
    expected = solve_in_span([list(map(F, r)) for r in rows], list(map(F, vec))) is not None
    assert in_row_space(rows, vec) == expected


@PROPERTY
@given(matrices, st.data())
def test_rref_is_canonical(system, data):
    """The reduced form depends on the row space only, not on row order."""
    rows, ncols = system
    first = [list(r) for r in rows]
    second = [list(r) for r in data.draw(st.permutations(rows))]
    pivots = rref(first)
    assert rref(second) == pivots == sorted(pivots)
    assert first == second
    assert len(first) == len(rows)
    for r, pc in enumerate(pivots):
        assert [first[i][pc] for i in range(len(first))] == [
            F(i == r) for i in range(len(first))
        ]
    assert not any(any(row) for row in first[len(pivots):])


def test_empty():
    assert nullspace([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace([], 0) == []
    assert rank([]) == 0
    assert rref([]) == []
    assert in_row_space([], [0, F(0)])
    assert not in_row_space([], [0, F(1)])
